"""Outer bounds for broadcasting a binary source to two users.

User 1 sees a BSC(delta1); user 2 sees the same output further degraded by an
independent BSC(delta2). The composition threshold

    rho * G(F(R(d1)) / rho)

limits the rate the weak user can still receive once user 1 is promised
distortion d1, and every closed form here (binary, erasure, Gaussian,
spherical) factors through it. region_trace inverts the binary bound into a
(d1, d2_min) curve.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import namedtuple

from . import bounds_core
from ._scalar_opt import golden_min
from .binary_info import (NAT_LOG2, _X_MIN, DomainError, _clamp, _count, _hconv, _mgl, _mgl_inv,
                          _real, conv, g, h_b)

_A1_FLOAT_GUARD = 1e-12


class BinaryBroadcastParams(namedtuple("BinaryBroadcastParams", "rho p delta1 delta2 n")):
    """Binary broadcast instance.

    p is the source bias (uniform source at p = 1/2); delta1 is user 1's
    crossover; delta2 is the extra crossover degrading user 2. n switches on
    the finite-blocklength correction term; without it the bound is
    asymptotic. Degenerate edges delta1 = 0 (noiseless strong user) and
    delta2 = 1/2 (weak user sees pure noise) are allowed; they arise in the
    exhaustive sphere-noise instances.
    """

    __slots__ = ()

    def __new__(cls, rho: float, p: float, delta1: float, delta2: float, n: int | None = None):
        rho = _real("rho", rho, 0.0, ends="()")
        p = _real("p", p, 0.0, 0.5, "(]")
        delta1 = _real("delta1", delta1, 0.0, 0.5, "[)")
        delta2 = _real("delta2", delta2, 0.0, 0.5)
        if n is not None:
            n = _count("n", n)
        return super().__new__(cls, rho, p, delta1, delta2, n)


class GaussianBroadcastParams(namedtuple("GaussianBroadcastParams",
                                         "sigma2 aux_var power n1 n2 rho")):
    """Gaussian broadcast instance: source variance sigma2, auxiliary noise
    variance aux_var, transmit power, and the two users' noise powers."""

    __slots__ = ()

    def __new__(cls, sigma2: float, aux_var: float, power: float, n1: float, n2: float,
                rho: float):
        sigma2 = _real("sigma2", sigma2, 0.0, ends="()")
        aux_var = _real("aux_var", aux_var, 0.0)
        power = _real("power", power, 0.0, ends="()")
        n1 = _real("n1", n1, 0.0, ends="()")
        n2 = _real("n2", n2, 0.0)
        rho = _real("rho", rho, 0.0, ends="()")
        return super().__new__(cls, sigma2, aux_var, power, n1, n2, rho)


class ErasureParams(namedtuple("ErasureParams", "eps1 eps2")):
    """Erasure broadcast instance; eps1 <= eps2 keeps user 2 degraded."""

    __slots__ = ()

    def __new__(cls, eps1: float, eps2: float):
        eps1 = _real("eps1", eps1, 0.0, 1.0, "[)")
        eps2 = _real("eps2", eps2, eps1, 1.0, "[)")
        return super().__new__(cls, eps1, eps2)


class RegionPoint(namedtuple("RegionPoint", "d1 d2_min q_star slack")):
    """One traced boundary point: the smallest d2 compatible with d1.

    q_star is the binding auxiliary parameter and slack the worst-case bound
    slack there (about 0 at a genuine boundary, -inf when d1 itself is
    infeasible, positive when the bound never binds and d2_min = 0).
    """

    __slots__ = ()

    @property
    def feasible(self) -> bool:
        return self.slack != float("-inf")


def fp_binary(p: float, q: float, t: float) -> float:
    """Lower bound on the strong user's forward rate cost at source rate t.

    t - h_b(conv(q, p)) + mgl_phi(q, h_b(p) - t); exact at p = 1/2.
    """
    p = _real("p", p, 0.0, 0.5, "(]")
    q = _real("q", q, 0.0, 0.5)
    t = _clamp("t", t, 0.0, h_b(p))
    return t - _hconv(q, p) + _mgl(q, h_b(p) - t)


def rbar_binary(p: float, q: float, d: float) -> float:
    """Weak user's remaining rate need at distortion d: h_b(conv(q, p)) - h_b(conv(q, d))."""
    p = _real("p", p, 0.0, 0.5, "(]")
    q = _real("q", q, 0.0, 0.5)
    d = _clamp("d", d, 0.0, p, 1e-15)
    return _rbar(_hconv(q, p), q, d)


def _rbar(hcp: float, q: float, d: float) -> float:
    # rbar_binary from hcp = h_b(conv(q, p)), without its checks and clamp:
    # d already in [0, p]
    return hcp - _hconv(q, d)


def g_bsc(delta1: float, delta2: float, t: float) -> float:
    """Weak user's rate ceiling once the strong user consumes rate t.

    log 2 - mgl_phi(delta2, h_b(delta1) + t); concave and
    nonincreasing in t on [0, log 2 - h_b(delta1)].
    """
    delta1 = _real("delta1", delta1, 0.0, 0.5, "[)")
    delta2 = _real("delta2", delta2, 0.0, 0.5)
    t = _clamp("t", t, 0.0, NAT_LOG2 - h_b(delta1))
    return NAT_LOG2 - _mgl(delta2, h_b(delta1) + t)


def g_bec(eps: ErasureParams, t: float) -> float:
    """Erasure counterpart of g_bsc: ((1-eps2)/(1-eps1)) ((1-eps1) log 2 - t).

    Linear in t; endpoints give the weak-user capacity (1-eps2) log 2 at t=0
    and 0 at the strong-user capacity t = (1-eps1) log 2.
    """
    cap = (1.0 - eps.eps1) * NAT_LOG2
    t = _clamp("t", t, 0.0, cap)
    return ((1.0 - eps.eps2) / (1.0 - eps.eps1)) * (cap - t)


def g_spherical_ub(delta1: float, delta2: float, n: int, t: float) -> float:
    """Finite-n upper bound on the weak user's normalized rate ceiling.

    g_bsc plus the correction gamma_corr(n, delta2); the sphere semantics
    require n delta1 and n conv(delta1, delta2) to be integers, which are
    taken exactly.
    """
    n = _count("n", n)
    delta1 = _real("delta1", delta1, 0.0, 0.5, "[)")
    delta2 = _real("delta2", delta2, 0.0, 0.5)
    bounds_core._whole("n * delta1", n, delta1)
    bounds_core._whole("n * conv(delta1, delta2)", n, conv(delta1, delta2))
    return g_bsc(delta1, delta2, t) + bounds_core.gamma_corr(n, delta2)


def outer_bound_slack(d1: float, d2: float, q: float, bp: BinaryBroadcastParams) -> float:
    """Slack of the broadcast outer bound at distortion pair (d1, d2) and parameter q.

    Achievable pairs keep this nonnegative for every q in [0, 1/2]. The inner
    argument A1 = h_b(delta1) + (h_b(conv(q,d1)) - h_b(d1) - h_b(conv(q,p)) +
    h_b(p))/rho is an average conditional channel-output entropy, so it can
    never truly exceed log 2. In finite-n mode A1 is therefore capped at
    log 2 (the bound stays a valid converse; the ceiling term vanishes and
    only the correction term remains). In asymptotic mode an A1 above log 2
    means no blocklength sequence can achieve d1, and it raises DomainError
    beyond a 1e-12 floating guard.
    """
    q = _real("q", q, 0.0, 0.5)
    d1 = _clamp("d1", d1, 0.0, bp.p, 1e-15)
    d2 = _clamp("d2", d2, 0.0, bp.p, 1e-15)
    hcp = _hconv(q, bp.p)
    rhs, a1 = _rhs_at(bp, d1)(q, hcp)
    if bp.n is None and a1 > NAT_LOG2:
        warnings.warn(f"A1={a1!r} exceeds log 2 within the floating guard; clamping",
                      stacklevel=2)
    return rhs - _rbar(hcp, q, d2)


def _rhs_at(bp: BinaryBroadcastParams, d1: float):
    """The d2-free half of the slack at d1, already clamped to [0, p]: a
    function rhs(q, hcp) of q and hcp = h_b(conv(q, p)) that returns
    (rho times the weak user's rate ceiling at A1 plus the finite-n term, A1).

    h_b(delta1), h_b(d1), h_b(p) and the finite-n term are computed here,
    once per d1. rhs raises DomainError where A1 is out of range, and clamps
    an A1 in (log 2, log 2 + guard] in asymptotic mode; each caller warns of
    that clamp its own way.
    """
    # a record's field read costs a lookup, so the closure keeps locals
    rho, delta2 = bp.rho, bp.delta2
    hd1, h1, hp = h_b(bp.delta1), h_b(d1), h_b(bp.p)
    corr = None if bp.n is None else rho * bounds_core.gamma_corr(bp.n, delta2)

    def rhs(q: float, hcp: float) -> tuple[float, float]:
        a1 = hd1 + (_hconv(q, d1) - h1 - hcp + hp) / rho
        if a1 < -_A1_FLOAT_GUARD:
            raise DomainError(f"A1={a1!r} fell below 0")
        if corr is None and a1 > NAT_LOG2 + _A1_FLOAT_GUARD:
            raise DomainError(
                f"A1={a1!r} exceeds log 2: d1={d1!r} is infeasible at q={q!r}"
            )
        out = rho * (NAT_LOG2 - _mgl(delta2, min(max(a1, 0.0), NAT_LOG2)))
        if corr is not None:
            out += corr
        return out, a1

    return rhs


# 64 geometric seeds plus both analytic endpoints; interior maxima of the
# binding q are common, endpoints catch the separation-type constraints.
_Q_LO, _Q_HI = 1e-6, 0.5 - 1e-6
_Q_SEEDS = (
    [0.0]
    + [_Q_LO * (_Q_HI / _Q_LO) ** (i / 63.0) for i in range(64)]
    + [0.5]
)


def _slack_no_raise(d1: float, d2: float, q: float, bp: BinaryBroadcastParams) -> float:
    try:
        return outer_bound_slack(d1, d2, q, bp)
    except DomainError:
        return float("-inf")


def _seeded_min(fn):
    """Minimum of fn over q in [0, 1/2]: the _Q_SEEDS sweep, then golden
    section to 1e-10 in the bracket around the best seed; returns (value, q)."""
    vals = [fn(q) for q in _Q_SEEDS]
    # the first least seed: min keeps the first of equal values, and index
    # finds the first one equal to it
    i = vals.index(min(vals))
    best_q, best_v = _Q_SEEDS[i], vals[i]
    if best_v == float("-inf"):
        return best_v, best_q
    lo = _Q_SEEDS[i - 1] if i > 0 else 0.0
    hi = _Q_SEEDS[i + 1] if i + 1 < len(_Q_SEEDS) else 0.5
    q_ref, v_ref = golden_min(fn, lo, hi)
    if v_ref < best_v:
        return v_ref, q_ref
    return best_v, best_q


def _d2_at_q(q: float, s0: float, hcp: float, p: float, hq: float) -> float:
    """Smallest d2 in [0, p] whose slack at this q is nonnegative, given the
    slack s0 at d2 = 0 (-inf where d1 is infeasible at q),
    hcp = h_b(conv(q, p)) and hq = h_b(q).

    Only the h_b(conv(q, d2)) term of the slack moves with d2, so the
    threshold solves h_b(conv(q, d2)) = h_b(q) - s0. p when even d2 = p
    falls short, which includes a q at which d1 itself is infeasible.
    """
    if s0 >= 0.0:
        return 0.0
    t = hq - s0
    if t >= hcp:
        return p
    return _mgl_inv(q, t, p)


# Bisection mids this close to the closed-form threshold are decided by the
# slack's sign instead: h_b_inv's 7.1e-15 grid leaves the threshold within
# noise of a mid there.
_D2_BAND = 1e-12


def _trace_point(bp: BinaryBroadcastParams, d1: float, clamped: list) -> RegionPoint:
    # per q, one record (rhs, hcp, hq, s0) of the slack's d2-free half at
    # this d1: rhs (-inf where A1 is out of range), hcp = h_b(conv(q, p)),
    # hq = h_b(q), the slack at d2 = 0; A1s the guard clamps go to clamped,
    # once per q. bp's fields are read once, for the sweeps' hundreds of reads
    p, asymptotic = bp.p, bp.n is None
    rhs_at = _rhs_at(bp, d1)
    by_q = {}

    def record(q):
        hcp = _hconv(q, p)
        try:
            rhs, a1 = rhs_at(q, hcp)
        except DomainError:
            rhs = float("-inf")
        else:
            if asymptotic and a1 > NAT_LOG2:
                clamped.append(a1)
        # conv(q, 0) is q, so hq is _rbar's h_b(conv(q, 0)) and s0 the slack
        # _rbar gives at d2 = 0
        hq = _hconv(q, 0.0)
        got = by_q[q] = (rhs, hcp, hq, rhs - (hcp - hq))
        return got

    def s0_at(q):
        return (by_q.get(q) or record(q))[3]

    # the final sweep at hi repeats the band sweep that set hi, if one did
    by_d2 = {}

    def worst_slack(d2):
        if d2 not in by_d2:
            def slack(q):
                got = by_q.get(q) or record(q)
                return got[0] - _rbar(got[1], q, d2)
            by_d2[d2] = _seeded_min(slack)
        return by_d2[d2]

    s0, q0 = _seeded_min(s0_at)
    if s0 == float("-inf"):
        return RegionPoint(d1=d1, d2_min=p, q_star=q0, slack=s0)
    if s0 >= 0.0:
        return RegionPoint(d1=d1, d2_min=0.0, q_star=q0, slack=s0)

    def neg_d2_at(q):
        _, hcp, hq, s0 = by_q.get(q) or record(q)
        return -_d2_at_q(q, s0, hcp, p, hq)

    d2_star = -_seeded_min(neg_d2_at)[0]
    lo, hi = 0.0, p
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if abs(mid - d2_star) <= _D2_BAND:
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
    return RegionPoint(d1=d1, d2_min=hi, q_star=q, slack=s)


def region_trace(bp: BinaryBroadcastParams, d1_grid) -> list[RegionPoint]:
    """For each d1, the smallest d2 the outer bound still allows.

    Each worst-slack sweep runs the q seeds, refined by golden section to
    1e-10. The worst slack at d2 = 0 is -inf only where A1 is out of range
    at some q, which no d2 repairs: d1 is infeasible, and d2_min = p. When
    it is nonnegative the bound never binds, and d2_min = 0. Either way that
    one sweep decides the point. Otherwise, as the slack is nondecreasing in
    d2 and at a fixed q only h_b(conv(q, d2)) moves with d2, each q's
    threshold has a closed form through h_b_inv, and d2* is their maximum,
    found by a second sweep. d2_min is the upper end of a bisection on
    [0, p] stopped at width 1e-12, each mid decided against d2* or, within
    1e-12 of it, by the sign of a further sweep, since d2* is only good to
    h_b_inv's tolerance. q_star and slack come from a sweep at d2_min, which
    repeats, and reuses, the band sweep that set d2_min when one did.

    _trace_point keeps one record per q of the slack's parts that do not
    move with d2, so a q that a sweep revisits costs at most one
    h_b(conv(q, d2)). These caches live for one d1, and the slack is formed
    from them by _rhs_at and _rbar, as outer_bound_slack forms it, so
    every point is bit-identical to evaluating it directly.
    """
    pts = []
    for d1 in d1_grid:
        d1 = _real("d1", d1, 0.0, bp.p, "(]")
        clamped = []
        pts.append(_trace_point(bp, d1, clamped))
        if clamped:
            warnings.warn(f"A1 exceeds log 2 within the floating guard at {len(clamped)} "
                          f"of the q searched at d1={d1!r}, up to A1={max(clamped)!r}; "
                          "clamping", stacklevel=2)
    return pts


def _g_closed(t: float) -> float:
    # g extended by continuity to t = 1/2 (both factors vanish)
    if t == 0.5:
        return 0.0
    return g(t)


def d1_feasibility_margin(d1: float, bp: BinaryBroadcastParams) -> float:
    """Margin of the strong-user feasibility condition when the weak user is
    pinned at its asymptotic optimum D2* = d_asym(rho, conv(delta1, delta2)).

    Returns g(p) + (g(delta1)/g(conv)) (g(D2*) - g(p)) - g(D1). Achievable d1
    make this nonnegative; since g decreases, the condition is a lower bound
    on d1. Asymptotic mode only.
    """
    _asymptotic(bp)
    d1 = _real("d1", d1, _X_MIN, bp.p)
    _real("delta1", bp.delta1, _X_MIN, 0.5, "[)")
    c = _real("conv(delta1, delta2)", conv(bp.delta1, bp.delta2), 0.0, 0.5, "[)")
    d2s = bounds_core._d_star(bp.rho, c, "d_asym(rho, conv(delta1, delta2))", 0.0, "(]")
    ratio = g(bp.delta1) / g(c)
    return (
        _g_closed(bp.p)
        + ratio * (_g_closed(d2s) - _g_closed(bp.p))
        - _g_closed(d1)
    )


def _asymptotic(bp: BinaryBroadcastParams) -> None:
    """DomainError when bp has an n: the floors are asymptotic statements."""
    if bp.n is not None:
        raise DomainError(f"n must be None for an asymptotic statement, got {bp.n}")


def _d2_floor_k(bp: BinaryBroadcastParams) -> float:
    """Right side (1-2c)^2 + (1-2p)^2 (1 - (1-2c)^2) of the quadratic
    weak-user bound, c = conv(delta2, D1*)."""
    _asymptotic(bp)
    c = conv(bp.delta2, bounds_core._d_star(bp.rho, bp.delta1, "d_asym(rho, delta1)", 0.0, "(]"))
    k = (1.0 - 2.0 * c) ** 2
    return k + (1.0 - 2.0 * bp.p) ** 2 * (1.0 - k)


def d2_floor(bp: BinaryBroadcastParams) -> float:
    """Smallest d2 the quadratic weak-user bound allows when the strong user
    runs at its optimum D1* = d_asym(rho, delta1). Asymptotic mode only.

    With c = conv(delta2, D1*), the bound reads (1-2 d2)^2 <= (1-2c)^2 +
    (1-2p)^2 (1 - (1-2c)^2); at p = 1/2 the floor is exactly c.
    """
    return 0.5 * (1.0 - math.sqrt(_d2_floor_k(bp)))


def d2_floor_slack(d2_probe: float, bp: BinaryBroadcastParams) -> float:
    """Slack of the quadratic weak-user bound at d2_probe (>= 0 iff allowed)."""
    d2_probe = _real("d2_probe", d2_probe, 0.0, 0.5)
    return _d2_floor_k(bp) - (1.0 - 2.0 * d2_probe) ** 2


# ---------- Gaussian instantiation ----------


def gaussian_rate(gp: GaussianBroadcastParams, d: float) -> float:
    """Gaussian source rate at distortion d: (1/2) log(sigma2/d)."""
    d = _real("d", d, 0.0, gp.sigma2, "(]")
    # log sigma2 - log d only past the float range: where sigma2 and d are
    # close it is the less accurate form
    ratio = gp.sigma2 / d
    if ratio < math.inf:
        return 0.5 * math.log(ratio)
    return 0.5 * (math.log(gp.sigma2) - math.log(d))


def gaussian_fp(gp: GaussianBroadcastParams, t: float) -> float:
    """t - (1/2) log((aux_var + sigma2)/(aux_var + sigma2 e^{-2t})), which is
    (1/2) log((aux_var e^{2t} + sigma2)/(aux_var + sigma2)): 0 at aux_var = 0."""
    t = _real("t", t, 0.0)
    s2, a2 = gp.sigma2, gp.aux_var
    den = a2 + s2 * math.exp(-2.0 * t)
    ratio = (a2 + s2) / den if den > 0.0 else math.inf
    if ratio < math.inf:
        return t - 0.5 * math.log(ratio)
    # e^{-2t} underflows to 0 or the ratio overflows: the second form, in
    # the log domain
    return 0.5 * (_log_sum_exp(_log(a2) + 2.0 * t, math.log(s2))
                  - _log_sum_exp(_log(a2), math.log(s2)))


def gaussian_rbar(gp: GaussianBroadcastParams, d: float) -> float:
    """(1/2) log((aux_var + sigma2)/(aux_var + d))."""
    d = _real("d", d, 0.0, gp.sigma2, "(]")
    ratio = (gp.aux_var + gp.sigma2) / (gp.aux_var + d)
    if ratio < math.inf:
        return 0.5 * math.log(ratio)
    # aux_var + sigma2 overflows (the ratio is inf, or NaN): the log domain
    log_a2 = _log(gp.aux_var)
    return 0.5 * (_log_sum_exp(log_a2, math.log(gp.sigma2)) - _log_sum_exp(log_a2, math.log(d)))


# math.exp(x) overflows for x above this
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _log_sum_exp(*logs: float) -> float:
    """log(sum of e^l) without overflow; the largest l must be finite."""
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def _log(x: float) -> float:
    # log x of an x >= 0, -inf at 0
    return math.log(x) if x > 0.0 else -math.inf


def gaussian_gq(gp: GaussianBroadcastParams, t: float) -> float:
    """(1/2) log((P + N1 + N2)/(N1 e^{2t} + N2)); negative past the strong
    user's capacity, which signals an empty bound."""
    t = _real("t", t, 0.0)
    if 2.0 * t < _LOG_FLOAT_MAX:
        ratio = (gp.power + gp.n1 + gp.n2) / (gp.n1 * math.exp(2.0 * t) + gp.n2)
        if 0.0 < ratio < math.inf:
            return 0.5 * math.log(ratio)
    # e^{2t} or the ratio leaves the float range: compare log(N1) + 2t with
    # log(N2) in the log domain instead
    log_n2 = _log(gp.n2)
    return 0.5 * (_log_sum_exp(math.log(gp.power), math.log(gp.n1), log_n2)
                  - _log_sum_exp(math.log(gp.n1) + 2.0 * t, log_n2))


def _gaussian_threshold(gp: GaussianBroadcastParams, d1: float) -> float:
    """rho G(F(R(d1))/rho), half the log of gaussian_bound."""
    t = gaussian_rate(gp, _real("d1", d1, 0.0, gp.sigma2, "(]"))
    return gp.rho * gaussian_gq(gp, _real("F(R(d1))/rho", gaussian_fp(gp, t) / gp.rho, 0.0))


def gaussian_bound(gp: GaussianBroadcastParams, d1: float) -> float:
    """Upper bound on (aux_var + sigma2)/(aux_var + d2) given user 1 gets d1.

    exp(2 rho G(F(R(d1))/rho)) with the Gaussian handles above. A value below
    1 means no d2 satisfies the bound (the pair is infeasible). DomainError
    when the value exceeds the float range; the bound does not bind there.
    """
    thr = _gaussian_threshold(gp, d1)
    if not 2.0 * thr < _LOG_FLOAT_MAX:
        raise DomainError(
            f"ratio bound exp(2 * {thr!r}) exceeds the float range; "
            "the bound does not bind")
    return math.exp(2.0 * thr)


def gaussian_d2_floor(gp: GaussianBroadcastParams, d1: float) -> float:
    """Smallest d2 compatible with gaussian_bound; DomainError when empty."""
    thr = _gaussian_threshold(gp, d1)
    if 2.0 * thr < _LOG_FLOAT_MAX:
        ratio = math.exp(2.0 * thr)
        if ratio < 1.0:
            raise DomainError(
                f"ratio bound {ratio!r} < 1: no distortion pair satisfies the bound"
            )
        floor = (gp.aux_var + gp.sigma2) / ratio - gp.aux_var
        if floor < math.inf:
            return max(0.0, floor)
    # the ratio or aux_var + sigma2 overflows: the log domain
    log_sum = _log_sum_exp(_log(gp.aux_var), math.log(gp.sigma2))
    return max(0.0, math.exp(log_sum - 2.0 * thr) - gp.aux_var)


# ---------- erasure instantiation ----------


def _erasure(eps: ErasureParams, rho: float, d1: float, q: float):
    """(fp, threshold, d2_floor) of the erasure bound at auxiliary q: fp =
    fp_binary(1/2, q, R(d1)), threshold = rho g_bec(fp / rho), and d2_floor
    the d2 that h_b(conv(q, d2)) = log 2 - threshold gives. DomainError when
    fp / rho exceeds the strong user's capacity (1 - eps1) log 2."""
    rho = _real("rho", rho, 0.0, ends="()")
    q = _real("q", q, 0.0, 0.5)
    d1 = _real("d1", d1, 0.0, 0.5, "(]")
    fhat = fp_binary(0.5, q, NAT_LOG2 - h_b(d1))
    cap = (1.0 - eps.eps1) * NAT_LOG2
    thr = rho * g_bec(eps, _clamp("F(R(d1))/rho", fhat / rho, 0.0, cap))
    # q = 1/2 leaves d2 free, and _mgl_inv would divide by 1 - 2q = 0 there
    return fhat, thr, 0.0 if q >= 0.5 else _mgl_inv(q, NAT_LOG2 - thr, 0.5)


def erasure_d2_floor(eps: ErasureParams, rho: float, d1: float, q: float) -> float:
    """Weak-user distortion floor over the erasure pair at auxiliary q.

    Uniform source: composes fp_binary at p = 1/2 with g_bec, then inverts
    h_b(conv(q, d2)) >= log 2 - threshold. DomainError when even user 1's
    constraint alone is infeasible.
    """
    return _erasure(eps, rho, d1, q)[2]
