import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from jsccbounds import bounds_core as bc
from jsccbounds import broadcast_region as br
from jsccbounds.binary_info import NAT_LOG2, DomainError, beta, conv, h_b, h_b_inv

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
    for kw in ({"sigma2": 0.0}, {"power": 0.0}, {"n1": 0.0}):
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


@given(st.floats(0.05, 0.5), st.floats(0.3, 3.0), st.floats(0.0, 0.45),
       st.floats(0.0, 0.5), st.none() | st.integers(1, 5000),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 0.5))
def test_slack_is_rhs_minus_lhs(p, rho, delta1, delta2, n, u1, u2, q):
    bp = br.BinaryBroadcastParams(rho=rho, p=p, delta1=delta1, delta2=delta2, n=n)
    d1, d2 = u1 * p, u2 * p
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = _outcome(br.outer_bound_slack, d1, d2, q, bp)
        got = _outcome(lambda: br._slack_rhs(d1, q, bp) - br._slack_lhs(d2, q, bp))
    assert got == want


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


# binding at an interior q, never binding, d1 infeasible
@pytest.mark.parametrize("args", [REGION_FROZEN[i][0] for i in (1, 3, 4)])
def test_trace_point_evaluates_each_q_once(monkeypatch, args):
    rho, p, delta1, delta2, n, d1 = args
    bp = br.BinaryBroadcastParams(rho=rho, p=p, delta1=delta1, delta2=delta2, n=n)
    seen = []
    real = br._slack_rhs

    def spy(d1_arg, q, bp_arg):
        seen.append(q)
        return real(d1_arg, q, bp_arg)

    monkeypatch.setattr(br, "_slack_rhs", spy)
    br.region_trace(bp, [d1])
    assert len(seen) == len(set(seen)) > 0


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
    d2 = br._d2_at_q(bp, q, br._slack_no_raise(d1, 0.0, q, bp))
    assume(0.0 < d2 < bp.p)
    assert abs(br.outer_bound_slack(d1, d2, q, bp)) <= 1e-12
    assert br.outer_bound_slack(d1, d2 - 1e-9, q, bp) < 0.0
    assert br.outer_bound_slack(d1, d2 + 1e-9, q, bp) > 0.0


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
    with pytest.raises(DomainError):
        br.gaussian_fp(gp, -0.1)


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
