import json
import math
import random
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from jsccbounds import binary_info as bi
from jsccbounds import bounds_core as bc
from jsccbounds import broadcast_region as br
from jsccbounds.binary_info import NAT_LOG2, DomainError, beta, conv, h_b, h_b_inv, mgl_phi

FP_HALF = 0.11663125297678283
FP_BIASED = 0.13443503419918123
RBAR_03 = 0.16964199107106147
GBSC_VAL = 0.13445926039698139
GBEC_VAL = 0.32964747083640616
SLACK_Q01 = 0.0097983992660728314
SLACK_Q0 = 0.019118466917782948
D2STAR = 0.091694029229827355  # d_asym(1.2, conv(0.08, 0.05))
D1STAR = 0.049112531812328343  # d_asym(1.2, 0.08)
FLOOR = 0.094201278631095508  # conv(0.05, D1STAR)
MARGIN_03 = 2.2358801236555655
GAUSS_F = 0.42364893019360181  # (1/2) log(7/3)
GAUSS_G = 0.54930614433405485  # (1/2) log 3
ERASURE_FP = 0.079880511672490272
ERASURE_THR = 0.42307373953558039
ERASURE_FLOOR = 0.029416182127414098


def feq(a, b, rel=1e-12, ab=1e-13):
    return math.isclose(a, b, rel_tol=rel, abs_tol=ab)


def std_bp(n=None):
    return br.BinaryBroadcastParams(rho=1.2, p=0.5, delta1=0.18, delta2=0.05, n=n)


def region_bp(n=None):
    return br.BinaryBroadcastParams(rho=1.2, p=0.5, delta1=0.08, delta2=0.05, n=n)


# ---------- params ----------


def test_binary_params_validation():
    with pytest.raises(DomainError):
        br.BinaryBroadcastParams(rho=0.0, p=0.5, delta1=0.1, delta2=0.1)
    with pytest.raises(DomainError, match="rho"):
        br.BinaryBroadcastParams(rho=math.nan, p=0.5, delta1=0.1, delta2=0.1)
    with pytest.raises(DomainError):
        br.BinaryBroadcastParams(rho=1.0, p=0.0, delta1=0.1, delta2=0.1)
    with pytest.raises(DomainError):
        br.BinaryBroadcastParams(rho=1.0, p=0.6, delta1=0.1, delta2=0.1)
    with pytest.raises(DomainError):
        br.BinaryBroadcastParams(rho=1.0, p=0.5, delta1=0.5, delta2=0.1)
    with pytest.raises(DomainError):
        br.BinaryBroadcastParams(rho=1.0, p=0.5, delta1=0.1, delta2=0.6)
    with pytest.raises(DomainError):
        br.BinaryBroadcastParams(rho=1.0, p=0.5, delta1=0.1, delta2=0.1, n=0)
    with pytest.raises(DomainError):
        br.BinaryBroadcastParams(rho=1.0, p=0.5, delta1=0.1, delta2=0.1, n=2.5)
    # degenerate edges stay legal
    br.BinaryBroadcastParams(rho=1.0, p=0.5, delta1=0.0, delta2=0.5)


def test_erasure_params_validation():
    with pytest.raises(DomainError):
        br.ErasureParams(eps1=0.3, eps2=0.1)
    with pytest.raises(DomainError):
        br.ErasureParams(eps1=0.2, eps2=1.0)
    br.ErasureParams(eps1=0.2, eps2=0.2)


def test_gaussian_params_validation():
    nans = [{name: math.nan} for name in ("sigma2", "aux_var", "power", "n1", "n2", "rho")]
    for kw in [{"sigma2": 0.0}, {"power": 0.0}, {"n1": 0.0}] + nans:
        args = dict(sigma2=1.0, aux_var=0.5, power=4.0, n1=1.0, n2=1.0, rho=1.0)
        args.update(kw)
        with pytest.raises(DomainError):
            br.GaussianBroadcastParams(**args)


# ---------- binary handles ----------


def test_fp_binary_values():
    assert feq(br.fp_binary(0.5, 0.1, 0.3), FP_HALF)
    assert feq(br.fp_binary(0.3, 0.2, 0.2), FP_BIASED)


def test_fp_binary_at_zero_rate():
    assert br.fp_binary(0.5, 0.2, 0.0) == 0.0
    assert abs(br.fp_binary(0.3, 0.2, 0.0)) < 1e-12


def test_fp_binary_matches_beta_at_uniform_source():
    for q in (0.05, 0.1, 0.3):
        for d1 in (0.05, 0.1, 0.2, 0.4):
            t = NAT_LOG2 - h_b(d1)
            assert abs(br.fp_binary(0.5, q, t) - beta(q, d1)) < 5e-14


@given(st.floats(0.0, 0.5), st.floats(0.0, 0.6931), st.floats(0.0, 0.6931))
def test_fp_binary_midpoint_convex(q, t1, t2):
    mid = 0.5 * (t1 + t2)
    lhs = br.fp_binary(0.5, q, mid)
    rhs = 0.5 * (br.fp_binary(0.5, q, t1) + br.fp_binary(0.5, q, t2))
    assert lhs <= rhs + 1e-12


def test_rbar_binary_values():
    assert feq(br.rbar_binary(0.3, 0.1, 0.1), RBAR_03)
    assert br.rbar_binary(0.5, 0.1, 0.5) == 0.0
    assert abs(br.rbar_binary(0.3, 0.1, 0.3)) < 1e-15


def test_rbar_binary_decreasing_in_d():
    ds = [0.02 * i for i in range(1, 25)]
    vals = [br.rbar_binary(0.5, 0.1, d) for d in ds]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_g_bsc_values_and_endpoints():
    assert feq(br.g_bsc(0.1, 0.05, 0.2), GBSC_VAL)
    cap = NAT_LOG2 - h_b(0.1)
    assert br.g_bsc(0.1, 0.05, cap) == 0.0
    assert feq(br.g_bsc(0.1, 0.05, 0.0), NAT_LOG2 - h_b(conv(0.1, 0.05)), rel=1e-12)
    with pytest.raises(DomainError):
        br.g_bsc(0.1, 0.05, cap + 1e-6)
    with pytest.raises(DomainError):
        br.g_bsc(0.5, 0.05, 0.1)


@given(st.floats(0.0, 0.575), st.floats(0.0, 0.575))
def test_g_bsc_midpoint_concave(t1, t2):
    # cap for delta1 = 0.1 is log 2 - h_b(0.1) = 0.368...; 0.575 stays inside
    # the 0.18-feasible cap? use delta1 = 0.02: cap = 0.595
    mid = 0.5 * (t1 + t2)
    lhs = br.g_bsc(0.02, 0.1, mid)
    rhs = 0.5 * (br.g_bsc(0.02, 0.1, t1) + br.g_bsc(0.02, 0.1, t2))
    assert lhs >= rhs - 1e-12


def test_g_bec_values_and_endpoints():
    eps = br.ErasureParams(0.1, 0.3)
    assert feq(br.g_bec(eps, 0.2), GBEC_VAL, rel=1e-14)
    cap = 0.9 * NAT_LOG2
    assert br.g_bec(eps, cap) == 0.0
    assert feq(br.g_bec(eps, 0.0), 0.7 * NAT_LOG2, rel=1e-14)
    with pytest.raises(DomainError):
        br.g_bec(eps, cap + 1e-6)


def test_g_spherical_ub():
    got = br.g_spherical_ub(0.2, 0.125, 200, 0.1)
    want = br.g_bsc(0.2, 0.125, 0.1) + bc.gamma_corr(200, 0.125)
    assert got == want
    with pytest.raises(DomainError):
        br.g_spherical_ub(0.2, 0.125, 100, 0.1)  # n*conv = 27.5


# ---------- outer bound slack ----------


def test_slack_frozen_values():
    bp = std_bp()
    assert feq(br.outer_bound_slack(0.15, 0.2, 0.1, bp), SLACK_Q01)
    assert feq(br.outer_bound_slack(0.15, 0.2, 0.0, bp), SLACK_Q0)


def test_slack_q0_closed_form():
    bp = std_bp()
    c = conv(0.18, 0.05)
    want = 1.2 * (NAT_LOG2 - h_b(c)) - (h_b(0.5) - h_b(0.2))
    assert feq(br.outer_bound_slack(0.15, 0.2, 0.0, bp), want, rel=1e-12)


def test_slack_at_d2_equal_p_nonnegative():
    bp = std_bp()
    for q in (0.0, 0.05, 0.2, 0.3):
        assert br.outer_bound_slack(0.15, 0.5, q, bp) >= -1e-12


@given(st.floats(0.0, 0.3), st.floats(0.01, 0.5), st.floats(0.01, 0.5))
def test_slack_nondecreasing_in_d2(q, d2a, d2b):
    bp = std_bp()
    lo, hi = sorted((d2a, d2b))
    s_lo = br.outer_bound_slack(0.15, lo, q, bp)
    s_hi = br.outer_bound_slack(0.15, hi, q, bp)
    assert s_hi >= s_lo - 1e-12


def test_slack_matches_composition():
    # the binary slack is the composed threshold rho G(F(R(d1)) / rho) - Rbar(d2)
    bp = std_bp()
    q = 0.1

    def F(t):
        return br.fp_binary(0.5, q, t)

    def Rbar(d):
        return br.rbar_binary(0.5, q, d)

    def R(d):
        return h_b(0.5) - h_b(d)

    def G(t):
        return br.g_bsc(0.18, 0.05, t)

    thr = 1.2 * G(F(R(0.15)) / 1.2)
    assert feq(thr - Rbar(0.2), br.outer_bound_slack(0.15, 0.2, 0.1, bp), rel=1e-12)


def test_slack_infeasible_d1_asymptotic_vs_finite():
    bad = br.BinaryBroadcastParams(rho=0.3, p=0.5, delta1=0.4, delta2=0.05)
    with pytest.raises(DomainError):
        br.outer_bound_slack(0.01, 0.2, 0.5, bad)
    badn = br.BinaryBroadcastParams(rho=0.3, p=0.5, delta1=0.4, delta2=0.05, n=100)
    val = br.outer_bound_slack(0.01, 0.2, 0.5, badn)
    assert math.isfinite(val)


def test_slack_domain():
    bp = std_bp()
    with pytest.raises(DomainError):
        br.outer_bound_slack(0.15, 0.2, 0.6, bp)
    with pytest.raises(DomainError):
        br.outer_bound_slack(0.6, 0.2, 0.1, bp)
    with pytest.raises(DomainError):
        br.outer_bound_slack(0.15, 0.6, 0.1, bp)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return str(exc)


# The Gerber map h_b(conv(a, h_b_inv(t))), its inverse in the crossover and
# the weak user's rate need are each defined once (_mgl, _mgl_inv, _rbar).
# Below, each caller is written out with those steps inline, in the same
# float operations, so the library must agree with it exactly.


def _inline_slack(d1, d2, q, bp):
    d1 = min(max(d1, 0.0), bp.p)
    d2 = min(max(d2, 0.0), bp.p)
    a1 = h_b(bp.delta1) + (
        h_b(conv(q, d1)) - h_b(d1) - h_b(conv(q, bp.p)) + h_b(bp.p)
    ) / bp.rho
    if a1 < -1e-12:
        raise DomainError(f"A1={a1!r} fell below 0")
    if bp.n is None and a1 > NAT_LOG2 + 1e-12:
        raise DomainError(f"A1={a1!r} exceeds log 2: d1={d1!r} is infeasible at q={q!r}")
    a1 = min(max(a1, 0.0), NAT_LOG2)
    rhs = bp.rho * (NAT_LOG2 - h_b(conv(bp.delta2, h_b_inv(a1))))
    if bp.n is not None:
        rhs += bp.rho * bc.gamma_corr(bp.n, bp.delta2)
    return rhs - (h_b(conv(q, bp.p)) - h_b(conv(q, d2)))


def _inline_d2_at_q(bp, q, s0):
    if s0 >= 0.0:
        return 0.0
    t = h_b(q) - s0
    if t >= h_b(conv(q, bp.p)):
        return bp.p
    return min(max((h_b_inv(t) - q) / (1.0 - 2.0 * q), 0.0), bp.p)


def _inline_erasure_floor(eps, rho, d1, q):
    _, thr, _ = br._erasure(eps, rho, d1, q)
    if thr >= NAT_LOG2:
        return 0.0
    x = h_b_inv(NAT_LOG2 - thr)
    if x <= q or q >= 0.5:
        return 0.0
    return (x - q) / (1.0 - 2.0 * q)


_STEPS_ARGS = dict(p=0.5, rho=2.0, delta1=0.08, delta2=0.05, n=None, u1=0.0,
                   u2=0.3, q=0.1, u=0.4, s0=-0.2, eps1=0.0, eps_u=0.0)


@given(st.floats(1e-3, 0.5), st.floats(0.3, 3.0), st.floats(0.0, 0.45),
       st.floats(0.0, 0.5), st.none() | st.integers(1, 5000),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.5),
       st.floats(0.0, 1.0), st.floats(-1.0, 0.5) | st.just(-math.inf),
       st.floats(0.0, 0.95), st.floats(0.0, 1.0))
# rho (1 - eps2) >= 1 at d1 = 1/2: the erasure threshold reaches log 2
@example(**_STEPS_ARGS)
@example(**dict(_STEPS_ARGS, q=0.5, n=1000))
@example(**dict(_STEPS_ARGS, q=0.5, u1=0.5, eps1=0.2, eps_u=0.5, s0=-math.inf))
def test_factored_steps_match_the_inline_formulas(p, rho, delta1, delta2, n, u1, u2,
                                                  q, u, s0, eps1, eps_u):
    bp = br.BinaryBroadcastParams(rho=rho, p=p, delta1=delta1, delta2=delta2, n=n)
    d1, d2 = u1 * p, u2 * p
    t = u * NAT_LOG2
    assert mgl_phi(delta2, t) == h_b(conv(delta2, h_b_inv(t)))
    t = u * h_b(p)
    assert br.fp_binary(p, q, t) == t - h_b(conv(q, p)) + h_b(conv(q, h_b_inv(h_b(p) - t)))
    t = u * (NAT_LOG2 - h_b(delta1))
    assert br.g_bsc(delta1, delta2, t) == NAT_LOG2 - h_b(
        conv(delta2, h_b_inv(h_b(delta1) + t)))
    assert br.rbar_binary(p, q, d2) == h_b(conv(q, p)) - h_b(conv(q, d2))
    assert br._d2_at_q(q, s0, h_b(conv(q, p)), p, h_b(q)) == _inline_d2_at_q(bp, q, s0)
    eps = br.ErasureParams(eps1, eps1 + eps_u * (0.99 - eps1))
    d1e = 0.5 - 0.4999 * u1
    assert (_outcome(br.erasure_d2_floor, eps, rho, d1e, q)
            == _outcome(_inline_erasure_floor, eps, rho, d1e, q))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert (_outcome(br.outer_bound_slack, d1, d2, q, bp)
                == _outcome(_inline_slack, d1, d2, q, bp))


_HALF = (st.sampled_from([0.0, 0.5, math.nextafter(0.5, 0.0), 5e-324, 2.0 ** -53])
         | st.floats(0.0, 0.5))


@given(_HALF, st.sampled_from([0.0, 5e-324, bi._NEWTON_CUTOFF, NAT_LOG2, NAT_LOG2 + 1e-12])
       | st.floats(0.0, NAT_LOG2 + 1e-12), _HALF, _HALF, st.floats(0.0, NAT_LOG2))
def test_gerber_map_and_rate_need_keep_their_h_b_of_conv_forms(delta, t, q, d, hcp):
    # both take h_b(conv(., .)) in one call of binary_info._hconv, and must
    # keep the floats of the two calls
    assert bi._mgl(delta, t).hex() == h_b(conv(delta, h_b_inv(t))).hex()
    assert br._rbar(hcp, q, d).hex() == (hcp - h_b(conv(q, d))).hex()


def test_a1_clamp_warning_points_at_the_caller():
    # A1 - log 2 is 4.4e-13 here: inside the 1e-12 guard, so the asymptotic
    # bound clamps A1 and warns instead of raising
    bp = br.BinaryBroadcastParams(rho=1.0, p=0.5, delta1=0.1, delta2=0.05)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = br.outer_bound_slack(0.0999999999998, 0.2, 0.5, bp)
    assert math.isfinite(val)
    assert len(caught) == 1
    assert caught[0].category is UserWarning
    assert "exceeds log 2 within the floating guard" in str(caught[0].message)
    assert caught[0].filename == __file__
    with pytest.raises(DomainError):
        br.outer_bound_slack(0.0999999999990, 0.2, 0.5, bp)


def test_region_trace_warns_once_per_clamped_d1():
    # the clamp warning test's instance: the guard clamps A1 at dozens of the
    # q one region point searches, and the trace says so once, at its caller
    bp = br.BinaryBroadcastParams(rho=1.0, p=0.5, delta1=0.1, delta2=0.05)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pts = br.region_trace(bp, [0.0999999999998, 0.2])
    assert len(caught) == 1
    assert caught[0].category is UserWarning
    assert "exceeds log 2 within the floating guard" in str(caught[0].message)
    assert "d1=0.0999999999998" in str(caught[0].message)
    assert caught[0].filename == __file__
    # where the warning is raised moves no float operation: the frozen points
    assert [(pt.d2_min, pt.q_star, pt.slack) for pt in pts] == [
        (0.4999999999990905, 0.5, 0.0), (0.14000000000032742, 0.0, 5.977995876094155e-13)]


# ---------- region tracing ----------


def test_region_trace_boundary_points():
    bp = region_bp()
    # pass the float-computed optimum: the critical d1 is a knife edge and
    # the rounded literal lands one ulp on the wrong side of it
    d1s = bc.d_asym(1.2, 0.08)
    assert feq(d1s, D1STAR)
    pts = br.region_trace(bp, [d1s, 0.15, 0.25])
    assert [round(pt.d1, 12) for pt in pts] == [round(D1STAR, 12), 0.15, 0.25]
    # at the strong user's optimum the binding q is interior and the floor
    # sits at conv(delta2, D1*)
    assert pts[0].d2_min >= conv(0.05, D1STAR) - 1e-6
    assert abs(pts[0].d2_min - FLOOR) < 1e-4
    assert pts[0].q_star > 0.4
    # away from it the q = 0 separation constraint takes over
    for pt in pts[1:]:
        assert abs(pt.d2_min - D2STAR) < 1e-5
        assert pt.q_star == 0.0
        assert abs(pt.slack) < 1e-6
    # d2_min never improves when d1 is relaxed further
    assert pts[0].d2_min >= pts[1].d2_min >= pts[2].d2_min - 1e-9
    for pt in pts:
        assert pt.feasible


def test_region_trace_separation_floor():
    pts = br.region_trace(region_bp(), [0.1, 0.3, 0.5])
    floor = bc.d_asym(1.2, conv(0.08, 0.05))
    for pt in pts:
        assert pt.d2_min >= floor - 1e-9


def test_region_trace_finite_n_weakens():
    asym = br.region_trace(region_bp(), [0.15])[0]
    fin = br.region_trace(region_bp(n=100), [0.15])[0]
    assert fin.feasible
    assert fin.d2_min <= asym.d2_min + 1e-9


def test_g_spherical_ub_beyond_the_float_range():
    # n delta1 and n conv(delta1, delta2) have no float product here; they
    # are taken exactly, and the correction is gamma_corr's
    n = 10**400
    got = br.g_spherical_ub(0.25, 0.25, n, 0.1)
    assert got == br.g_bsc(0.25, 0.25, 0.1) + bc.gamma_corr(n, 0.25)
    with pytest.raises(DomainError, match="^n \\* delta1 must be an integer"):
        br.g_spherical_ub(0.25, 0.25, n + 1, 0.1)  # n/4 is not an integer
    # past 4300 digits the exact products print as ~2^k; 4 (10^5000 + 1) is
    # a multiple of 4 but not of 8, so n/4 is an integer and 3n/8 is not
    with pytest.raises(DomainError, match="^n \\* delta1 must be an integer, got ~2\\^16608$"):
        br.g_spherical_ub(0.25, 0.25, 10**5000 + 1, 0.1)
    with pytest.raises(DomainError,
                       match=r"^n \* conv\(delta1, delta2\) must be an integer, got ~2\^16611$"):
        br.g_spherical_ub(0.25, 0.25, 4 * (10**5000 + 1), 0.1)


def test_g_spherical_ub_takes_the_products_exactly_past_2_53():
    # n delta1 = 25000000000000000.25, whose float product is an integer
    with pytest.raises(DomainError,
                       match=r"^n \* delta1 must be an integer, got 25000000000000000\+0\.25$"):
        br.g_spherical_ub(0.25, 0.25, 10**17 + 1, 0.1)


def test_finite_n_beyond_the_float_range():
    # at n = 10^400 the finite-n term is about 2e-198: every slack and
    # region point equals the asymptotic one
    huge, asym = region_bp(n=10**400), region_bp()
    assert 0.0 < huge.rho * bc.gamma_corr(huge.n, huge.delta2) < 1e-190
    for d1, d2, q in ((0.1, 0.1, 0.1), (0.2, 0.09, 0.3), (0.05, 0.2, 0.0)):
        assert br.outer_bound_slack(d1, d2, q, huge) == br.outer_bound_slack(d1, d2, q, asym)
    assert br.region_trace(huge, [0.15, 0.2]) == br.region_trace(asym, [0.15, 0.2])


def test_region_trace_never_binding():
    bp = br.BinaryBroadcastParams(rho=20.0, p=0.5, delta1=0.01, delta2=0.01)
    pt = br.region_trace(bp, [0.4])[0]
    assert pt.d2_min == 0.0
    assert pt.slack > 0.0
    assert pt.feasible


def test_region_trace_infeasible_d1():
    bp = br.BinaryBroadcastParams(rho=0.3, p=0.5, delta1=0.4, delta2=0.05)
    pt = br.region_trace(bp, [0.01])[0]
    assert pt.slack == float("-inf")
    assert pt.d2_min == bp.p
    assert not pt.feasible


def test_region_trace_grid_validation():
    with pytest.raises(DomainError):
        br.region_trace(region_bp(), [0.0])
    with pytest.raises(DomainError):
        br.region_trace(region_bp(), [0.6])


# frozen region_trace outputs: (rho, p, delta1, delta2, n, d1) ->
# (d2_min, q_star, slack), compared with ==
REGION_FROZEN = [
    # knife edge: the closed-form d2* lies within 1e-12 of a bisection mid,
    # so the worst-slack sign has to decide that mid
    ((1.126, 0.5, 0.174, 0.032, 1444, 0.09),
     (0.21845556653170206, 0.19543330238996123, 3.960720640350246e-13)),
    # asymptotic, binding at an interior q
    ((1.359, 0.5, 0.177, 0.05, None, 0.13),
     (0.1656545829591778, 0.10897334927052013, 1.6819878823071122e-14)),
    # asymptotic, binding at q = 0
    ((1.127, 0.5, 0.023, 0.062, None, 0.05),
     (0.061847412710449134, 0.0, 1.1757261830780408e-13)),
    # the bound never binds
    ((1.871, 0.309, 0.1, 0.03, 1077, 0.05), (0.0, 0.0, 0.08779715824735035)),
    # d1 itself is infeasible
    ((1.044, 0.414, 0.183, 0.032, None, 0.05),
     (0.414, 0.1432881153307649, float("-inf"))),
]


@pytest.mark.parametrize("args,want", REGION_FROZEN)
def test_region_trace_bit_identical(args, want):
    rho, p, delta1, delta2, n, d1 = args
    bp = br.BinaryBroadcastParams(rho=rho, p=p, delta1=delta1, delta2=delta2, n=n)
    (pt,) = br.region_trace(bp, [d1])
    assert (pt.d2_min, pt.q_star, pt.slack) == want


def _pool_points():
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                      / "region.json").read_text())
    insts = {i["id"]: i for i in ref["instances"]}
    for pt in ref["points"]:
        i = insts[pt["inst"]]
        bp = br.BinaryBroadcastParams(rho=i["rho"], p=i["p"], delta1=i["delta1"],
                                      delta2=i["delta2"], n=i["n"])
        slack = float("-inf") if pt["slack"] is None else pt["slack"]
        yield bp, pt["d1"], (pt["d2_min"], pt["q_star"], slack)


def test_region_trace_bit_identical_on_reference_pool():
    # every point of the benchmark's frozen region pool (528), compared with ==
    wrong = []
    for bp, d1, want in _pool_points():
        (pt,) = br.region_trace(bp, [d1])
        if (pt.d2_min, pt.q_star, pt.slack) != want:
            wrong.append((bp, d1, (pt.d2_min, pt.q_star, pt.slack), want))
    assert wrong == []


def test_reference_pool_never_falls_back_to_the_inverse_walk(monkeypatch):
    # h_b_inv proves both sides of its window on every inverse the pool
    # makes, so neither reaches the end of the grid
    windows, real = [], bi._proved_window
    monkeypatch.setattr(bi, "_proved_window", lambda t: windows.append(real(t)) or windows[-1])
    for bp, d1, _ in _pool_points():
        br.region_trace(bp, [d1])
    assert len(windows) > 50_000
    assert all(below > 0 and b < 2 ** 46 - 1 for below, _, b in windows)


# binding at an interior q, never binding, d1 infeasible
@pytest.mark.parametrize("args", [REGION_FROZEN[i][0] for i in (1, 3, 4)])
def test_trace_point_evaluates_each_q_once(monkeypatch, args):
    rho, p, delta1, delta2, n, d1 = args
    bp = br.BinaryBroadcastParams(rho=rho, p=p, delta1=delta1, delta2=delta2, n=n)
    seen, real_rhs_at = [], br._rhs_at

    def spy_rhs_at(bp_, d1_):
        rhs = real_rhs_at(bp_, d1_)
        return lambda q, hcp: seen.append(q) or rhs(q, hcp)

    monkeypatch.setattr(br, "_rhs_at", spy_rhs_at)
    # every call below is tagged with the sweep that made it, the index of
    # its _seeded_min call (-1 before the first)
    sweeps, calls, real_min = [], [], br._seeded_min
    monkeypatch.setattr(br, "_seeded_min", lambda fn: sweeps.append(fn) or real_min(fn))

    def spy(name, real):
        monkeypatch.setattr(br, name, lambda *a: calls.append((len(sweeps) - 1, name, a))
                            or real(*a))

    for name in ("_hconv", "h_b", "_rbar", "_d2_at_q"):
        spy(name, getattr(br, name))
    (pt,) = br.region_trace(bp, [d1])
    assert len(seen) == len(set(seen)) > 0
    # per q, h_b(conv(q, p)) and h_b(q) = h_b(conv(q, 0)) once each, kept
    # in its record; a slack evaluated at d2 = p would take h_b(conv(q, p))
    # a second time. d1 lies strictly between 0 and p, so A1's
    # h_b(conv(q, d1)) is neither
    assert 0.0 < d1 < p
    for b in (p, 0.0):
        assert sorted(a[0] for _, name, a in calls if name == "_hconv" and a[1] == b) \
            == sorted(seen)
    # h_b itself only forms _rhs_at's per-point terms, before any sweep
    assert [k for k, name, _ in calls if name == "h_b"] == [-1, -1, -1]
    # a sweep at d2 > 0 takes each slack from _rbar at its d2; the d2 = 0
    # sweep reads the slack from the records, and the d2* sweep passes the
    # record's slack and h_b(q) to _d2_at_q, forming neither itself
    rbar_d2 = [{a[2] for k, name, a in calls if name == "_rbar" and k == i}
               for i in range(len(sweeps))]
    d2_star_at = [[a for k, name, a in calls if name == "_d2_at_q" and k == i]
                  for i in range(len(sweeps))]
    assert rbar_d2[0] == set() and d2_star_at[0] == []
    # the d2 = 0 sweep alone decides an infeasible or unbinding point; a
    # binding one adds the d2* sweep and at least one at d2_min
    if pt.slack == float("-inf") or pt.d2_min == 0.0:
        assert len(sweeps) == 1
        return
    assert rbar_d2[1] == set() and len(d2_star_at[1]) > 0
    assert all(len(a) == 5 for a in d2_star_at[1])
    assert len(sweeps) >= 3
    assert all(len(d2s) == 1 for d2s in rbar_d2[2:])
    assert all(d2_star_at[i] == [] for i in range(2, len(sweeps)))
    swept = [0.0] + [d2 for d2s in rbar_d2[2:] for d2 in d2s]
    # no sweep at d2 = p, whose verdict is the d2 = 0 sweep's, and no d2 swept
    # twice: the final sweep at d2_min reuses the band sweep that set it
    assert bp.p not in swept and pt.d2_min in swept
    assert len(swept) == len(set(swept))


@st.composite
def slack_inputs(draw):
    p = draw(st.floats(0.05, 0.5))
    bp = br.BinaryBroadcastParams(
        rho=draw(st.floats(0.5, 3.0)),
        p=p,
        delta1=draw(st.floats(0.0, 0.45)),
        delta2=draw(st.floats(0.0, 0.5)),
        n=draw(st.none() | st.integers(1, 5000)),
    )
    return bp, draw(st.floats(0.01 * p, p)), draw(st.floats(0.0, 0.5))


@given(slack_inputs())
# subnormal delta2: n / delta2 overflows inside the finite-n term
@example((br.BinaryBroadcastParams(rho=1.0, p=0.5, delta1=0.0, delta2=5e-324, n=2),
          0.5, 0.0))
def test_d2_at_q_inverts_the_slack(inputs):
    bp, d1, q = inputs
    d2 = br._d2_at_q(q, br._slack_no_raise(d1, 0.0, q, bp), h_b(conv(q, bp.p)),
                     bp.p, h_b(q))
    assume(0.0 < d2 < bp.p)
    assert abs(br.outer_bound_slack(d1, d2, q, bp)) <= 1e-12
    assert br.outer_bound_slack(d1, d2 - 1e-9, q, bp) < 0.0
    assert br.outer_bound_slack(d1, d2 + 1e-9, q, bp) > 0.0


@given(slack_inputs())
def test_infeasible_point_is_the_d2_p_seed_verdict(inputs):
    # only A1 can make the slack -inf, and the d2 term is finite at every q,
    # so a sweep at d2 = p would find the same infeasible seeds as the d2 = 0
    # sweep region_trace runs: the first of them is q_star
    bp, d1, _ = inputs
    (pt,) = br.region_trace(bp, [d1])
    dead = [q for q in br._Q_SEEDS
            if br._slack_no_raise(d1, bp.p, q, bp) == float("-inf")]
    assert (pt.slack == float("-inf")) == bool(dead)
    if dead:
        assert (pt.d2_min, pt.q_star) == (bp.p, dead[0])


# sweep values with ties: the sampled ones recur, and st.floats adds NaN
_SWEEP_VALUES = st.sampled_from([0.0, -0.0, -math.inf, -1.0, 1e-300, 2.5]) | st.floats()


@given(st.lists(_SWEEP_VALUES, min_size=len(br._Q_SEEDS), max_size=len(br._Q_SEEDS)))
def test_seeded_min_keeps_the_first_least_seed(vals):
    # the sweep's argmin against the key form it replaced: the lowest index
    # among equal values, -0.0 equal to 0.0; off the seeds fn is +inf, so
    # golden section finds nothing lower
    want = min(range(len(vals)), key=lambda j: (vals[j], j))
    at = dict(zip(br._Q_SEEDS, vals))
    v, q = br._seeded_min(lambda q: at.get(q, math.inf))
    assert q == br._Q_SEEDS[want]
    assert v is vals[want] or v == vals[want] or v != v


def _uncached_trace_point(bp, d1):
    # _trace_point's sweeps and bisection, each slack evaluated afresh
    def worst_slack(d2):
        return br._seeded_min(lambda q: br._slack_no_raise(d1, d2, q, bp))

    s0, q0 = worst_slack(0.0)
    if s0 == float("-inf"):
        return bp.p, q0, s0
    if s0 >= 0.0:
        return 0.0, q0, s0
    d2_star = -br._seeded_min(
        lambda q: -br._d2_at_q(q, br._slack_no_raise(d1, 0.0, q, bp),
                               h_b(conv(q, bp.p)), bp.p, h_b(q)))[0]
    lo, hi = 0.0, bp.p
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if abs(mid - d2_star) <= br._D2_BAND:
            below = worst_slack(mid)[0] < 0.0
        else:
            below = mid < d2_star
        if below:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    s, q = worst_slack(hi)
    return hi, q, s


@given(slack_inputs())
# subnormal delta2: n / delta2 overflows inside the finite-n term
@example((br.BinaryBroadcastParams(rho=1.0, p=0.5, delta1=0.0, delta2=5e-324, n=2),
          0.5, 0.0))
# A1 lands inside the clamp guard at q = 1/2 (see the clamp warning test)
@example((br.BinaryBroadcastParams(rho=1.0, p=0.5, delta1=0.1, delta2=0.05),
          0.0999999999998, 0.0))
def test_cached_trace_point_matches_an_uncached_reference(inputs):
    bp, d1, _ = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (pt,) = br.region_trace(bp, [d1])
        want = _uncached_trace_point(bp, d1)
    assert (pt.d2_min, pt.q_star, pt.slack) == want


# ---------- closed-form floors ----------


def test_d1_feasibility_margin():
    bp = region_bp()
    assert feq(br.d1_feasibility_margin(0.3, bp), MARGIN_03, rel=1e-11)
    # the condition is a lower bound on d1 strictly above the point-to-point
    # optimum: negative margin at D1*, strictly increasing towards p
    assert br.d1_feasibility_margin(D1STAR, bp) < 0.0
    m1 = br.d1_feasibility_margin(0.1, bp)
    m2 = br.d1_feasibility_margin(0.2, bp)
    m3 = br.d1_feasibility_margin(0.5, bp)
    assert m1 < m2 < m3
    with pytest.raises(DomainError):
        br.d1_feasibility_margin(0.3, region_bp(n=100))
    with pytest.raises(DomainError):
        br.d1_feasibility_margin(0.0, bp)


def test_d2_floor_and_slack():
    bp = region_bp()
    assert feq(br.d2_floor(bp), FLOOR, rel=1e-11)
    assert abs(br.d2_floor_slack(br.d2_floor(bp), bp)) < 1e-12
    assert br.d2_floor_slack(br.d2_floor(bp) + 0.01, bp) > 0.0
    assert br.d2_floor_slack(br.d2_floor(bp) - 0.01, bp) < 0.0
    with pytest.raises(DomainError):
        br.d2_floor(region_bp(n=100))
    with pytest.raises(DomainError):
        br.d2_floor(br.BinaryBroadcastParams(rho=20.0, p=0.5, delta1=0.01,
                                             delta2=0.01))


def test_d2_floor_biased_source_below_uniform():
    # p < 1/2 shrinks the floor: the quadratic term credits the source bias
    uni = br.d2_floor(region_bp())
    biased = br.d2_floor(br.BinaryBroadcastParams(rho=1.2, p=0.3, delta1=0.08,
                                                  delta2=0.05))
    assert biased < uni


# ---------- gaussian handles ----------


def gauss():
    return br.GaussianBroadcastParams(sigma2=1.0, aux_var=0.5, power=4.0,
                                      n1=1.0, n2=1.0, rho=1.0)


def test_gaussian_rate():
    gp = gauss()
    assert br.gaussian_rate(gp, 1.0) == 0.0
    assert feq(br.gaussian_rate(gp, 0.2), 0.5 * math.log(5.0), rel=1e-15)
    with pytest.raises(DomainError):
        br.gaussian_rate(gp, 0.0)
    with pytest.raises(DomainError):
        br.gaussian_rate(gp, 1.5)


def test_gaussian_fp():
    gp = gauss()
    assert br.gaussian_fp(gp, 0.0) == 0.0
    got = br.gaussian_fp(gp, br.gaussian_rate(gp, 0.2))
    assert feq(got, GAUSS_F, rel=1e-14)
    assert feq(got, 0.5 * math.log(7.0 / 3.0), rel=1e-14)
    for t in (-0.1, math.nan):
        with pytest.raises(DomainError):
            br.gaussian_fp(gp, t)


def test_gaussian_rbar():
    gp = gauss()
    assert br.gaussian_rbar(gp, 1.0) == 0.0
    assert br.gaussian_rbar(gp, 0.5) > 0.0
    with pytest.raises(DomainError):
        br.gaussian_rbar(gp, 0.0)


def test_gaussian_gq():
    gp = gauss()
    assert feq(br.gaussian_gq(gp, 0.0), GAUSS_G, rel=1e-14)
    cap = 0.5 * math.log(1.0 + 4.0)
    assert abs(br.gaussian_gq(gp, cap)) < 1e-12
    assert br.gaussian_gq(gp, cap + 0.1) < 0.0
    for t in (-0.1, math.nan):
        with pytest.raises(DomainError):
            br.gaussian_gq(gp, t)


def test_gaussian_bound_and_floor():
    gp = gauss()
    assert br.gaussian_bound(gp, 1.0) == pytest.approx(3.0, rel=1e-12)
    assert br.gaussian_d2_floor(gp, 1.0) == 0.0
    ratio = br.gaussian_bound(gp, 0.9)
    floor = br.gaussian_d2_floor(gp, 0.9)
    assert floor > 0.0
    assert feq(floor, (0.5 + 1.0) / ratio - 0.5, rel=1e-12)
    with pytest.raises(DomainError):
        br.gaussian_d2_floor(gp, 0.01)


def test_gaussian_floor_monotone_in_d1():
    gp = gauss()
    floors = [br.gaussian_d2_floor(gp, d) for d in (0.7, 0.8, 0.9)]
    # tightening user 1 squeezes user 2 harder
    assert floors[0] >= floors[1] >= floors[2]


def test_gaussian_gq_stays_finite_where_exp_2t_overflows():
    gp = br.GaussianBroadcastParams(sigma2=1.0, aux_var=0.5, power=1.0, n1=0.5,
                                    n2=1.0, rho=0.5)
    # N1 e^{2t} swamps N2: gq = (1/2)(log(P + N1 + N2) - log N1 - 2t)
    for t in (355.0, 400.0, 1e4):
        assert feq(br.gaussian_gq(gp, t), 0.5 * (math.log(2.5 / 0.5) - 2.0 * t),
                   rel=1e-15)
    # no jump where the log domain takes over
    edge = 0.5 * math.log(1.7976931348623157e308)
    below, above = br.gaussian_gq(gp, edge * (1 - 1e-15)), br.gaussian_gq(gp, edge)
    assert feq(below, above, rel=1e-14)
    # fields near the float ceiling: P + N1 + N2 or N1 e^{2t} overflows
    big = br.GaussianBroadcastParams(sigma2=1.0, aux_var=0.5, power=1e308, n1=1e308,
                                     n2=1e308, rho=1.0)
    assert feq(br.gaussian_gq(big, 0.0), 0.5 * math.log(1.5), rel=1e-12)
    wide = br.GaussianBroadcastParams(sigma2=1.0, aux_var=0.5, power=1.0, n1=1e300,
                                      n2=1.0, rho=1.0)
    assert feq(br.gaussian_gq(wide, 10.0), -10.0, rel=1e-12)
    # fp / rho ~ 690 here: the pair is infeasible, not an overflow
    with pytest.raises(DomainError, match="< 1"):
        br.gaussian_d2_floor(gp, 1e-300)


def test_gaussian_bound_past_the_float_range_does_not_bind():
    # 2 rho G(...) ~ 6216: exp of it overflows
    for aux_var in (0.5, 0.0):
        gp = br.GaussianBroadcastParams(sigma2=1.0, aux_var=aux_var, power=1000.0,
                                        n1=1.0, n2=1.0, rho=1000.0)
        assert br.gaussian_d2_floor(gp, 0.3) == 0.0
        with pytest.raises(DomainError, match="float range"):
            br.gaussian_bound(gp, 0.3)


def test_gaussian_fp_stays_finite_where_exp_minus_2t_underflows():
    # aux_var = 0: fp is (1/2) log(sigma2 / sigma2) = 0 for every t; past
    # t ~ 355 the ratio overflowed to -inf and past ~372 the denominator
    # underflowed to 0 (ZeroDivisionError)
    gp = br.GaussianBroadcastParams(1.0, 0.0, 1.0, 0.5, 1.0, 1.0)
    for t in (360.0, 372.0, 400.0, 1e6):
        assert br.gaussian_fp(gp, t) == 0.0
    # aux_var + sigma2 overflows: fp = (1/2) log((e^2 + 1) / 2) at t = 1
    big = br.GaussianBroadcastParams(1e308, 1e308, 1.0, 0.5, 1.0, 1.0)
    assert feq(br.gaussian_fp(big, 1.0), 0.5 * math.log((math.e ** 2 + 1.0) / 2.0),
               rel=1e-14)
    # a positive aux_var keeps the first form, whose denominator is aux_var
    tiny = br.GaussianBroadcastParams(1.0, 1e-300, 1.0, 0.5, 1.0, 1.0)
    assert br.gaussian_fp(tiny, 400.0) == 400.0 - 0.5 * math.log(1.0 / 1e-300)


def test_gaussian_rbar_and_floor_stay_finite_where_aux_var_plus_sigma2_overflows():
    # aux_var + sigma2 = 2e308 is inf: its log is formed in the log domain
    gp = br.GaussianBroadcastParams(1e308, 1e308, 1.0, 0.5, 1.0, 1.0)
    assert br.gaussian_rbar(gp, 1e308) == 0.0
    assert feq(br.gaussian_rbar(gp, 1.0), 0.5 * math.log(2.0), rel=1e-12)
    # d1 = sigma2: the ratio bound is 5/3, and the floor 2e308 / (5/3) - 1e308
    assert feq(br.gaussian_bound(gp, 1e308), 5.0 / 3.0, rel=1e-14)
    assert feq(br.gaussian_d2_floor(gp, 1e308), 2e307, rel=1e-12)


def _decimal_gaussian(gp, d1, t, d):
    # the Gaussian handles at 60 digits, from the same floats
    with localcontext() as ctx:
        ctx.prec = 60
        s2, a2, p, n1, n2, rho = map(Decimal, gp)
        d1, t, d = Decimal(d1), Decimal(t), Decimal(d)

        def fp(t):
            return t - ((a2 + s2) / (a2 + s2 * (-2 * t).exp())).ln() / 2

        def gq(t):
            return ((p + n1 + n2) / (n1 * (2 * t).exp() + n2)).ln() / 2

        ratio = (2 * rho * gq(fp((s2 / d1).ln() / 2) / rho)).exp()
        return {"rate": (s2 / d1).ln() / 2, "fp": fp(t), "rbar": ((a2 + s2) / (a2 + d)).ln() / 2,
                "gq": gq(t), "bound": ratio, "floor": max(0, (a2 + s2) / ratio - a2)}


def test_gaussian_handles_match_a_decimal_reference():
    # a fixed sample; each value is a log, or the exp of one, of ratios the
    # floats round once, so its error is a few ulps of the terms it is
    # formed from: t for fp, aux_var + sigma2 for the floor
    rng = random.Random(43)
    checked = 0
    for _ in range(300):
        s2, a2 = 10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3) * (rng.random() < 0.9)
        gp = br.GaussianBroadcastParams(s2, a2, 10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 1),
                                        10 ** rng.uniform(-2, 1), rng.uniform(0.2, 3.0))
        d1, t, d = s2 * rng.uniform(0.01, 1.0), rng.uniform(0.0, 5.0), s2 * rng.uniform(0.01, 1.0)
        ref = _decimal_gaussian(gp, d1, t, d)
        scale = {"rate": 1.0, "fp": max(1.0, t), "rbar": 1.0, "gq": max(1.0, t),
                 "bound": ref["bound"], "floor": a2 + s2}
        got = {"rate": br.gaussian_rate(gp, d1), "fp": br.gaussian_fp(gp, t),
               "rbar": br.gaussian_rbar(gp, d), "gq": br.gaussian_gq(gp, t),
               "bound": br.gaussian_bound(gp, d1)}
        if ref["bound"] >= 1:
            got["floor"] = br.gaussian_d2_floor(gp, d1)
        for name, v in got.items():
            # the ratio bound is exp(2 thr): thr's error, times 2 thr
            tol = Decimal("4e-15" if name == "bound" else "1e-15")
            assert abs(Decimal(v) - ref[name]) / Decimal(scale[name]) < tol, (name, gp, d1, t, d)
            checked += 1
    assert checked > 1700


def test_gaussian_rate_stays_finite_where_the_ratio_overflows():
    gp = br.GaussianBroadcastParams(1e300, 0.0, 1.0, 0.5, 1.0, 0.5)
    assert feq(br.gaussian_rate(gp, 1e-300), 300.0 * math.log(10.0), rel=1e-14)


# ---------- erasure instantiation ----------


def test_erasure_floor_frozen():
    eps = br.ErasureParams(0.1, 0.3)
    got = br.erasure_d2_floor(eps, 1.0, 0.1, 0.05)
    assert feq(got, ERASURE_FLOOR, rel=1e-11)


def test_erasure_floor_threshold_identity():
    eps = br.ErasureParams(0.1, 0.3)
    fhat = br.fp_binary(0.5, 0.05, NAT_LOG2 - h_b(0.1))
    assert feq(fhat, ERASURE_FP)
    thr = 1.0 * br.g_bec(eps, fhat / 1.0)
    assert feq(thr, ERASURE_THR)
    x = h_b_inv(NAT_LOG2 - thr)
    want = (x - 0.05) / 0.9
    assert feq(br.erasure_d2_floor(eps, 1.0, 0.1, 0.05), want, rel=1e-11)


def test_erasure_floor_releases():
    eps = br.ErasureParams(0.1, 0.3)
    # q = 1/2 erases the auxiliary channel entirely
    assert br.erasure_d2_floor(eps, 1.0, 0.1, 0.5) == 0.0
    # a heavily smoothed auxiliary drops the requirement to zero too
    assert br.erasure_d2_floor(eps, 1.0, 0.1, 0.4) == 0.0


def test_erasure_floor_infeasible():
    eps = br.ErasureParams(0.95, 0.96)
    with pytest.raises(DomainError):
        br.erasure_d2_floor(eps, 1.0, 0.05, 0.4)
