import math

import pytest
from hypothesis import assume, given, strategies as st

from jsccbounds import binary_info as bi
from jsccbounds import bounds_core as bc
from jsccbounds.broadcast_region import BinaryBroadcastParams

D_12_02 = 0.17379534637159758
D_105_025 = 0.2441305516849584
DP_12_02 = 1.0670888858131774
F_12_02 = 0.97556663478923753
F_08_02 = 1.0219074386164524
TAU_12_02 = 0.012522653163533561
ETA_12_02 = 0.00022783409865467121
ETA_105_025 = 5.2058813176116696e-6
GAMMA_100_005 = 0.19798719682875487
GAMMA_2_05 = 1.1164339756999316
GAMMA_4_05 = 1.0334804027413967
LEAD_1E4 = 3.6357061948199807e-7
SUM_LB_1E4 = 0.34759297108418171
ETA_C_12_02 = 0.0001125081488018192
ETA_C_105_025 = 2.598734354498981e-6
SPHERE_100_80 = 0.17632591130316475
GAP_RHS_ASYM = 0.13873192703720459
GAP_RHS_N1E4 = 0.22296896145271258


def feq(a, b, rel=1e-12, ab=1e-13):
    return math.isclose(a, b, rel_tol=rel, abs_tol=ab)


# ---------- params ----------


def test_params_validation():
    with pytest.raises(bc.DomainError):
        bc.SystemParams(n=0, rho=1.2, delta=0.2)
    with pytest.raises(bc.DomainError):
        bc.SystemParams(n=2.5, rho=1.2, delta=0.2)
    with pytest.raises(bc.DomainError):
        bc.SystemParams(n=10, rho=0.0, delta=0.2)
    with pytest.raises(bc.DomainError):
        bc.SystemParams(n=10, rho=1.2, delta=0.0)
    with pytest.raises(bc.DomainError):
        bc.SystemParams(n=10, rho=1.2, delta=0.5)
    with pytest.raises(bc.DomainError):
        bc.SystemParams(n=10, rho=1.2, delta=0.2, m=3)  # 10/3 != 1.2


def test_from_counts():
    p = bc.SystemParams.from_counts(m=80, n=100, delta=0.2)
    assert p.rho == 1.25
    assert p.m == 80 and p.n == 100
    # m is checked before n / m is formed
    with pytest.raises(bc.DomainError):
        bc.SystemParams.from_counts(m=0, n=100, delta=0.2)


# ---------- frozen values ----------


def test_d_asym_values():
    assert feq(bc.d_asym(1.2, 0.2), D_12_02)
    assert feq(bc.d_asym(1.05, 0.25), D_105_025)
    assert feq(bc.d_asym(1.2, 0.122), 0.091694029229827355)
    assert feq(bc.d_asym(2.0, 0.25), 0.15514048389692457)
    assert feq(bc.d_asym(3.0, 0.25), 0.089212083865402813)
    assert feq(bc.d_asym(1.5, 0.1), 0.031831136709678472)
    assert feq(bc.d_asym(1.5, 0.25), 0.19750858202883636)
    # expansion factor large enough to kill the rate budget: exactly zero
    assert bc.d_asym(2.0, 0.1) == 0.0
    assert bc.d_asym(3.0, 0.1) == 0.0


def test_curvature_values():
    assert feq(bc.d_asym_deriv(1.2, 0.2), DP_12_02)
    assert feq(bc.f_factor(1.2, 0.2), F_12_02)
    assert feq(bc.f_factor(0.8, 0.2), F_08_02)
    assert feq(bc.tau_star(1.2, 0.2), TAU_12_02)
    assert feq(bc.eta(1.2, 0.2), ETA_12_02)
    assert feq(bc.eta(1.05, 0.25), ETA_105_025)


def test_gamma_corr_values():
    assert feq(bc.gamma_corr(100, 0.05), GAMMA_100_005, rel=1e-14)
    assert feq(bc.gamma_corr(2, 0.5), GAMMA_2_05, rel=1e-14)
    assert feq(bc.gamma_corr(4, 0.5), GAMMA_4_05, rel=1e-14)
    # delta2 = 0 keeps only the (log n + 1)/(2n) piece
    assert feq(bc.gamma_corr(50, 0.0), (math.log(50) + 1.0) / 100.0, rel=1e-15)
    # at subnormal delta2, n / delta2 overflows, yet the first term (below
    # 1e-150) still vanishes against the second rather than giving NaN or inf
    for n in (1, 2, 5000):
        for delta2 in (5e-324, 1e-320, 1e-310):
            assert bc.gamma_corr(n, delta2) == (math.log(n) + 1.0) / (2.0 * n)


def test_gap_lower_bound_report():
    rep = bc.gap_lower_bound(bc.SystemParams(n=10000, rho=1.2, delta=0.2))
    assert feq(rep.d_asym, D_12_02)
    assert feq(rep.eta, ETA_12_02)
    assert feq(rep.leading_term, LEAD_1E4)
    assert rep.correction_order == "O(n^{-3/4} log n)"
    assert rep.correction_constant_known is False
    want = math.sqrt(0.2 * 0.8 / (2.0 * math.pi * 10000)) * rep.eta
    assert rep.leading_term == want


def test_leading_term_quarters_in_n():
    a = bc.gap_lower_bound(bc.SystemParams(n=1000, rho=1.2, delta=0.2))
    b = bc.gap_lower_bound(bc.SystemParams(n=4000, rho=1.2, delta=0.2))
    assert a.leading_term / b.leading_term == 2.0
    assert a.d_asym == b.d_asym


def test_sum_distortion_value():
    p = bc.SystemParams(n=10000, rho=1.2, delta=0.2)
    assert feq(bc.sum_distortion_lb(1.0, p), SUM_LB_1E4)
    # a = 0 collapses to twice the asymptotic distortion
    assert feq(bc.sum_distortion_lb(0.0, p), 2.0 * bc.d_asym(1.2, 0.2), rel=1e-15)


def test_sphere_floor_values():
    p = bc.SystemParams.from_counts(m=80, n=100, delta=0.2)
    assert feq(bc.sphere_floor(p, k=3), SPHERE_100_80)
    assert bc.sphere_floor(p, k=3) == bc.sphere_floor_at_weight(p, 23)
    assert bc.sphere_floor(p) == bc.sphere_floor_at_weight(p, 20)


def test_expected_sphere_floor_values():
    cases = [
        (1, 2, 0.1, 0.0),
        (1, 2, 0.25, 0.0),
        (1, 3, 0.1, 0.0),
        (1, 3, 0.25, 0.0),
        (2, 3, 0.1, 0.0044192991126709726),
        (2, 3, 0.25, 0.0092068731513978597),
        (2, 4, 0.1, 0.00095374417298404186),
        (2, 4, 0.25, 0.0041395146396876817),
    ]
    for m, n, delta, want in cases:
        got = bc.expected_sphere_floor(bc.SystemParams.from_counts(m, n, delta))
        if want == 0.0:
            assert got == 0.0
        else:
            assert feq(got, want)


def test_gap_rhs_values():
    bp = BinaryBroadcastParams(rho=1.2, p=0.5, delta1=0.18, delta2=0.05)
    assert feq(bc.gap_rhs(0.15, 0.2, bp, 1.0), GAP_RHS_ASYM)
    bpn = BinaryBroadcastParams(rho=1.2, p=0.5, delta1=0.18, delta2=0.05, n=10000)
    assert feq(bc.gap_rhs(0.15, 0.2, bpn, 1.0), GAP_RHS_N1E4)
    # the finite-n correction can only push the right side up
    assert bc.gap_rhs(0.15, 0.2, bpn, 1.0) > bc.gap_rhs(0.15, 0.2, bp, 1.0)


def test_separation_upper():
    assert bc.separation_upper(0.1, 0.2) == pytest.approx(0.28, rel=1e-15)
    assert bc.separation_upper(0.0, 0.0) == 0.0
    assert bc.separation_upper(0.3, 1.0) == 1.0


# ---------- structure ----------


def test_rho_one_is_neutral():
    for delta in (0.1, 0.25, 0.4):
        assert feq(bc.d_asym(1.0, delta), delta)
        assert feq(bc.f_factor(1.0, delta), 1.0, rel=1e-10)


def test_tau_star_matches_f():
    f = bc.f_factor(1.2, 0.2)
    assert feq(bc.tau_star(1.2, 0.2), (1.0 - f) / (2.0 * f), rel=1e-15)


@given(st.floats(0.2, 2.8), st.floats(0.2, 2.8), st.floats(0.02, 0.48))
def test_d_asym_decreasing_in_rho(r1, r2, delta):
    lo, hi = sorted((r1, r2))
    assert bc.d_asym(lo, delta) >= bc.d_asym(hi, delta) - 1e-12


@given(st.floats(1.05, 2.5), st.floats(0.05, 0.45))
def test_eta_closure_bracket(rho, delta):
    D = bc.d_asym(rho, delta)
    assume(D > 1e-6)
    Dp = bc.d_asym_deriv(rho, delta)
    f = bc.f_factor(rho, delta)
    tau = bc.tau_star(rho, delta)

    def bracket(e):
        return 2.0 * Dp * (1.0 - f * (1.0 + tau)) - e * (1.0 + 2.0 * D * tau) / (
            2.0 * D * tau
        )

    # eta_c is the fixed point of the bracket map; the packaged eta sits off
    # the fixed point by exactly -Dp (1-f)/f
    eta_c = Dp * D * (1.0 - f) ** 2 / (f + 2.0 * D * (1.0 - f))
    assert abs(bracket(eta_c) - eta_c) < 1e-9
    ep = bc.eta(rho, delta)
    assert abs((bracket(ep) - ep) - (-Dp * (1.0 - f) / f)) < 1e-9


def test_eta_closure_frozen_points():
    for (rho, delta, want) in ((1.2, 0.2, ETA_C_12_02), (1.05, 0.25, ETA_C_105_025)):
        D = bc.d_asym(rho, delta)
        Dp = bc.d_asym_deriv(rho, delta)
        f = bc.f_factor(rho, delta)
        eta_c = Dp * D * (1.0 - f) ** 2 / (f + 2.0 * D * (1.0 - f))
        assert feq(eta_c, want)


@given(st.floats(1.05, 2.0), st.floats(0.1, 0.45), st.integers(100, 100000))
def test_leading_term_positive_and_shrinking(rho, delta, n):
    assume(bc.d_asym(rho, delta) > 1e-6)
    rep = bc.gap_lower_bound(bc.SystemParams(n=n, rho=rho, delta=delta))
    rep4 = bc.gap_lower_bound(bc.SystemParams(n=4 * n, rho=rho, delta=delta))
    assert rep.leading_term > 0.0
    assert rep.leading_term / rep4.leading_term == 2.0


def test_sphere_floor_zero_weight_extremes():
    p = bc.SystemParams.from_counts(m=80, n=100, delta=0.2)
    # weight 0 and weight n carry no rate, so the floor argument goes negative
    assert bc.sphere_floor_at_weight(p, 0) == 0.0
    assert bc.sphere_floor_at_weight(p, 100) == 0.0


def test_expected_floor_dominated_by_best_weight():
    p = bc.SystemParams.from_counts(m=2, n=3, delta=0.25)
    top = max(bc.sphere_floor_at_weight(p, w) for w in range(4))
    got = bc.expected_sphere_floor(p)
    assert 0.0 < got < top


def test_expected_sphere_floor_large_n():
    # math.comb(n, w) * delta**w overflows a float from n = 1030 on
    n, delta = 2000, 0.11
    p = bc.SystemParams(n=n, rho=1.3, delta=delta)
    want = math.fsum(
        math.exp(math.lgamma(n + 1) - math.lgamma(w + 1) - math.lgamma(n - w + 1)
                 + w * math.log(delta) + (n - w) * math.log1p(-delta))
        * bc.sphere_floor_at_weight(p, w)
        for w in range(n + 1)
    )
    got = bc.expected_sphere_floor(p)
    assert want > 0.0
    assert math.isclose(got, want, rel_tol=1e-9)


# ---------- domains ----------


def test_domain_errors():
    with pytest.raises(bc.DomainError):
        bc.d_asym(-1.0, 0.2)
    with pytest.raises(bc.DomainError):
        bc.d_asym(math.nan, 0.1)
    with pytest.raises(bc.DomainError):
        bc.d_asym(1.2, 0.6)
    with pytest.raises(bc.DomainError):
        bc.d_asym_deriv(2.0, 0.1)  # d_asym = 0
    with pytest.raises(bc.DomainError):
        bc.f_factor(2.0, 0.1)
    with pytest.raises(bc.DomainError):
        bc.eta(2.0, 0.1)
    with pytest.raises(bc.DomainError):
        bc.eta(0.8, 0.2)  # f >= 1
    with pytest.raises(bc.DomainError):
        bc.tau_star(0.8, 0.2)
    with pytest.raises(bc.DomainError):
        bc.gamma_corr(0, 0.1)
    with pytest.raises(bc.DomainError):
        bc.gamma_corr(4.5, 0.1)
    with pytest.raises(bc.DomainError):
        bc.gamma_corr(4, 0.6)
    with pytest.raises(bc.DomainError):
        bc.gap_lower_bound(bc.SystemParams(n=100, rho=1.0, delta=0.2))
    with pytest.raises(bc.DomainError):
        bc.separation_upper(1.5, 0.2)
    with pytest.raises(bc.DomainError):
        bc.separation_upper(0.2, -0.1)


def test_sphere_floor_integrality():
    p = bc.SystemParams.from_counts(m=3, n=10, delta=0.15)
    with pytest.raises(bc.DomainError):
        bc.sphere_floor(p)
    p2 = bc.SystemParams.from_counts(m=80, n=100, delta=0.2)
    with pytest.raises(bc.DomainError):
        bc.sphere_floor(p2, k=-21)
    with pytest.raises(bc.DomainError):
        bc.sphere_floor(p2, k=81)
    with pytest.raises(bc.DomainError):
        bc.sphere_floor_at_weight(p2, -1)
    with pytest.raises(bc.DomainError):
        bc.sphere_floor_at_weight(p2, 101)


def test_gap_rhs_domains():
    bp = BinaryBroadcastParams(rho=1.2, p=0.5, delta1=0.18, delta2=0.05)
    with pytest.raises(bc.DomainError):
        bc.gap_rhs(0.15, 0.2, bp, 0.0)
    with pytest.raises(bc.DomainError):
        bc.gap_rhs(0.0, 0.2, bp, 1.0)
    with pytest.raises(bc.DomainError):
        bc.gap_rhs(0.15, 0.5, bp, 1.0)


def test_sum_distortion_guard_rails():
    p = bc.SystemParams(n=100, rho=1.2, delta=0.2)
    with pytest.raises(bc.DomainError):
        bc.sum_distortion_lb(-1.0, p)
    with pytest.raises(bc.DomainError):
        bc.sum_distortion_lb(1.0, bc.SystemParams(n=100, rho=1.0, delta=0.2))
    with pytest.warns(UserWarning):
        val = bc.sum_distortion_lb(22.0, p)  # log(100)^2 is about 21.2
    assert val > 0.0


def test_d_asym_definition_roundtrip():
    # direct check of the defining equation at a positive point
    D = bc.d_asym(1.2, 0.2)
    lhs = bi.h_b(D)
    rhs = bi.NAT_LOG2 - 1.2 * (bi.NAT_LOG2 - bi.h_b(0.2))
    assert feq(lhs, rhs, rel=1e-12)
