import math
import sys
from decimal import Decimal, localcontext

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
    with pytest.raises(bc.DomainError, match="rho"):
        bc.SystemParams(n=10, rho=math.nan, delta=0.2)
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


def _gamma_corr_decimal(n, delta2):
    # sqrt(delta2/n) log(n/delta2) + (log n + 1)/(2n) in 50-digit decimals
    with localcontext() as ctx:
        ctx.prec = 50
        n, d = Decimal(n), Decimal(delta2)
        first = (d / n).sqrt() * (n / d).ln() if d else Decimal(0)
        return float(first + (n.ln() + 1) / (2 * n))


def test_gamma_corr_beyond_the_float_range():
    # n has no float here, yet the value is finite and within about 2 ulps
    top = int(sys.float_info.max)
    for n in (top + 1, 2**1030, 3**700, 10**330, 10**400):
        for delta2 in (0.5, 0.05, 1e-300, 5e-324, 0.0):
            assert math.isclose(bc.gamma_corr(n, delta2), _gamma_corr_decimal(n, delta2),
                                rel_tol=5e-16, abs_tol=0.0)
    # (log n + 1)/(2n) underflows to 0 at n = 10^400, sqrt(delta2/n) does not
    assert bc.gamma_corr(10**400, 0.0) == 0.0
    assert bc.gamma_corr(10**400, 0.05) > 0.0
    # the last n inside the float range and the first past it agree
    assert math.isclose(bc.gamma_corr(top + 1, 0.05), bc.gamma_corr(top, 0.05), rel_tol=5e-16)


def test_gap_lower_bound_beyond_the_float_range():
    # sqrt(delta (1 - delta) / (2 pi n)) eta has no float n here, yet it is
    # finite and within a few ulps of the 50-digit value
    for n in (int(sys.float_info.max) + 1, 3**700, 10**400):
        rep = bc.gap_lower_bound(bc.SystemParams(n=n, rho=1.2, delta=0.2))
        with localcontext() as ctx:
            ctx.prec = 50
            want = (Decimal(0.2 * 0.8) / (Decimal(2.0 * math.pi) * n)).sqrt() * Decimal(rep.eta)
        assert 0.0 < rep.leading_term < 1e-150
        assert math.isclose(rep.leading_term, float(want), rel_tol=1e-15, abs_tol=0.0)
        # (a / sqrt(n)) eta, about 1e-154 or less, vanishes beside 2 d_asym
        params = bc.SystemParams(n=n, rho=1.2, delta=0.2)
        assert bc.sum_distortion_lb(1.0, params) == 2.0 * rep.d_asym
    # n / m has no float either, so no rho can equal it
    with pytest.raises(bc.DomainError, match="beyond the float range"):
        bc.SystemParams(n=10**400, rho=1.2, delta=0.25, m=1)
    with pytest.raises(bc.DomainError, match="beyond the float range"):
        bc.SystemParams.from_counts(1, 10**400, 0.25)
    # a ratio inside the float range is still compared as a float
    assert bc.SystemParams(n=10**400, rho=10.0, delta=0.25, m=10**399).m == 10**399


def test_sphere_floor_at_weight_beyond_the_float_range():
    # at n = 10^400 the rho (log n + 1)/(2n) term underflows to 0, and w/n
    # is a correctly rounded float: the floor is the asymptotic formula's
    n = 10**400
    params = bc.SystemParams(n=n, rho=1.2, delta=0.2)
    for w in (0, n // 10, n // 5, n // 2, n):
        x = w / n
        want = bi.h_b_inv(min(bi.NAT_LOG2 - 1.2 * (bi.NAT_LOG2 - bi.h_b(x)), bi.NAT_LOG2))
        assert bc.sphere_floor_at_weight(params, w) == want
    # sphere_floor takes n delta exactly: n / 4 at delta = 1/4
    params = bc.SystemParams(n=n, rho=1.2, delta=0.25)
    for k in (-3, 0, 5):
        assert bc.sphere_floor(params, k) == bc.sphere_floor_at_weight(params, n // 4 + k)
    with pytest.raises(bc.DomainError, match="n\\*delta integral"):
        bc.sphere_floor(bc.SystemParams(n=n + 1, rho=1.2, delta=0.25))
    # past 4300 digits the exact n delta prints as ~2^k
    with pytest.raises(bc.DomainError, match="n\\*delta integral, got ~2\\^16608$"):
        bc.sphere_floor(bc.SystemParams(n=10**5000 + 1, rho=1.2, delta=0.25))
    # and so does a count outside its range
    with pytest.raises(bc.DomainError, match="k must be .*, got ~2\\^16610$"):
        bc.sphere_floor(bc.SystemParams(n=10**5000, rho=1.2, delta=0.25), 10**5000)
    with pytest.raises(bc.DomainError, match="n must be a positive integer, got -~2\\^16610$"):
        bc.SystemParams(n=-10**5000, rho=1.2, delta=0.25)


def test_expected_sphere_floor_beyond_the_float_range(time_cap):
    # up to sqrt(1500 n) weights can be nonzero, too many to sum past the cap
    with time_cap(1):
        for n in (45812985, 10**21, int(sys.float_info.max) + 1, 10**400):
            with pytest.raises(bc.DomainError, match=r"^expected_sphere_floor sums up to "
                               r"sqrt\(1500 n\) weights, over 262144 at n ~ 2\^%d$"
                               % n.bit_length()):
                bc.expected_sphere_floor(bc.SystemParams(n=n, rho=1.2, delta=0.25))
    # the largest n admitted, whose nonzero weights here are w = 0 and 1
    assert 0.4 < bc.expected_sphere_floor(bc.SystemParams(n=45812984, rho=0.01, delta=1e-300))


def _every_weight_sphere_floor(params):
    """expected_sphere_floor's sum over all n + 1 weights, zeros included."""
    n, d = params.n, params.delta
    log_n_fact, total = math.lgamma(n + 1), 0.0
    for w in range(n + 1):
        pw = math.exp(log_n_fact - math.lgamma(w + 1) - math.lgamma(n - w + 1)
                      + w * math.log(d) + (n - w) * math.log1p(-d))
        total += pw * bc.sphere_floor_at_weight(params, w)
    return total


@given(st.integers(1030, 1400), st.floats(1.1, 2.0), st.floats(0.05, 0.3))
def test_expected_sphere_floor_skips_only_zero_weights(n, rho, delta):
    # the perfbench probe's range; the skipped weights are exactly 0.0
    params = bc.SystemParams(n=n, rho=rho, delta=delta)
    assert bc.expected_sphere_floor(params) == _every_weight_sphere_floor(params)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 100, 5000])
@pytest.mark.parametrize("delta", [5e-324, 1e-300, 0.1, 0.25, 0.5 - 2**-54])
def test_expected_sphere_floor_is_the_every_weight_sum(n, delta):
    # acceptance #2's (m, n, delta) among them, and the deltas at the edges
    for rho in (n / 2, 1.7):
        params = bc.SystemParams(n=n, rho=rho, delta=delta)
        assert bc.expected_sphere_floor(params) == _every_weight_sphere_floor(params)


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
    for tau in (0.0, math.nan):
        with pytest.raises(bc.DomainError):
            bc.gap_rhs(0.15, 0.2, bp, tau)
    with pytest.raises(bc.DomainError):
        bc.gap_rhs(0.0, 0.2, bp, 1.0)
    with pytest.raises(bc.DomainError):
        bc.gap_rhs(0.15, 0.5, bp, 1.0)


def test_gap_rhs_underflowing_tau_is_a_domain_error():
    bp = BinaryBroadcastParams(rho=1.2, p=0.5, delta1=0.08, delta2=0.05)
    # 2 d2 tau underflows to 0
    with pytest.raises(bc.DomainError, match="underflows"):
        bc.gap_rhs(0.1, 1e-200, bp, 1e-200)
    # 2 d2 tau is subnormal: (1 + 2 d2 tau) / (2 d2 tau) overflows
    with pytest.raises(bc.DomainError, match="not finite"):
        bc.gap_rhs(0.1, 1e-160, bp, 1e-160)


def test_sum_distortion_guard_rails():
    p = bc.SystemParams(n=100, rho=1.2, delta=0.2)
    for a in (-1.0, math.nan):
        with pytest.raises(bc.DomainError):
            bc.sum_distortion_lb(a, p)
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
