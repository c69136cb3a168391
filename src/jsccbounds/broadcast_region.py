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
import warnings
from dataclasses import dataclass

from . import bounds_core
from ._scalar_opt import golden_min
from .binary_info import NAT_LOG2, DomainError, conv, g, h_b, h_b_inv

_A1_FLOAT_GUARD = 1e-12


@dataclass(frozen=True)
class BinaryBroadcastParams:
    """Binary broadcast instance.

    p is the source bias (uniform source at p = 1/2); delta1 is user 1's
    crossover; delta2 is the extra crossover degrading user 2. n switches on
    the finite-blocklength correction term; without it the bound is
    asymptotic. Degenerate edges delta1 = 0 (noiseless strong user) and
    delta2 = 1/2 (weak user sees pure noise) are allowed; they arise in the
    exhaustive sphere-noise instances.
    """

    rho: float
    p: float
    delta1: float
    delta2: float
    n: int | None = None

    def __post_init__(self):
        if self.rho <= 0.0:
            raise DomainError(f"rho must be positive, got {self.rho!r}")
        if not 0.0 < self.p <= 0.5:
            raise DomainError(f"p must lie in (0, 1/2], got {self.p!r}")
        if not 0.0 <= self.delta1 < 0.5:
            raise DomainError(f"delta1 must lie in [0, 1/2), got {self.delta1!r}")
        if not 0.0 <= self.delta2 <= 0.5:
            raise DomainError(f"delta2 must lie in [0, 1/2], got {self.delta2!r}")
        if self.n is not None and (self.n < 1 or int(self.n) != self.n):
            raise DomainError(f"n must be a positive integer, got {self.n!r}")


@dataclass(frozen=True)
class GaussianBroadcastParams:
    """Gaussian broadcast instance: source variance sigma2, auxiliary noise
    variance aux_var, transmit power, and the two users' noise powers."""

    sigma2: float
    aux_var: float
    power: float
    n1: float
    n2: float
    rho: float

    def __post_init__(self):
        if self.sigma2 <= 0.0 or self.power <= 0.0 or self.n1 <= 0.0:
            raise DomainError("sigma2, power, n1 must be positive")
        if self.aux_var < 0.0 or self.n2 < 0.0:
            raise DomainError("aux_var, n2 must be nonnegative")
        if self.rho <= 0.0:
            raise DomainError("rho must be positive")


@dataclass(frozen=True)
class ErasureParams:
    """Erasure broadcast instance; eps1 <= eps2 keeps user 2 degraded."""

    eps1: float
    eps2: float

    def __post_init__(self):
        if not 0.0 <= self.eps1 <= self.eps2 < 1.0:
            raise DomainError(
                f"need 0 <= eps1 <= eps2 < 1, got {self.eps1!r}, {self.eps2!r}"
            )


@dataclass(frozen=True)
class RegionPoint:
    """One traced boundary point: the smallest d2 compatible with d1.

    q_star is the binding auxiliary parameter and slack the worst-case bound
    slack there (about 0 at a genuine boundary, -inf when d1 itself is
    infeasible, positive when the bound never binds and d2_min = 0).
    """

    d1: float
    d2_min: float
    q_star: float
    slack: float

    @property
    def feasible(self) -> bool:
        return self.slack != float("-inf")


def fp_binary(p: float, q: float, t: float) -> float:
    """Lower bound on the strong user's forward rate cost at source rate t.

    t - h_b(conv(q, p)) + h_b(conv(q, h_b_inv(h_b(p) - t))); exact at p = 1/2.
    """
    if not 0.0 < p <= 0.5:
        raise DomainError(f"p must lie in (0, 1/2], got {p!r}")
    if not 0.0 <= q <= 0.5:
        raise DomainError(f"q must lie in [0, 1/2], got {q!r}")
    if not -1e-12 <= t <= h_b(p) + 1e-12:
        raise DomainError(f"t must lie in [0, h_b(p)], got {t!r}")
    t = min(max(t, 0.0), h_b(p))
    return t - h_b(conv(q, p)) + h_b(conv(q, h_b_inv(h_b(p) - t)))


def rbar_binary(p: float, q: float, d: float) -> float:
    """Weak user's remaining rate need at distortion d: h_b(conv(q, p)) - h_b(conv(q, d))."""
    if not 0.0 < p <= 0.5:
        raise DomainError(f"p must lie in (0, 1/2], got {p!r}")
    if not 0.0 <= q <= 0.5:
        raise DomainError(f"q must lie in [0, 1/2], got {q!r}")
    if not -1e-15 <= d <= p + 1e-12:
        raise DomainError(f"d must lie in [0, p], got {d!r}")
    d = min(max(d, 0.0), p)
    return h_b(conv(q, p)) - h_b(conv(q, d))


def g_bsc(delta1: float, delta2: float, t: float) -> float:
    """Weak user's rate ceiling once the strong user consumes rate t.

    log 2 - h_b(conv(delta2, h_b_inv(h_b(delta1) + t))); concave and
    nonincreasing in t on [0, log 2 - h_b(delta1)].
    """
    if not 0.0 <= delta1 < 0.5:
        raise DomainError(f"delta1 must lie in [0, 1/2), got {delta1!r}")
    if not 0.0 <= delta2 <= 0.5:
        raise DomainError(f"delta2 must lie in [0, 1/2], got {delta2!r}")
    cap = NAT_LOG2 - h_b(delta1)
    if not -1e-12 <= t <= cap + 1e-12:
        raise DomainError(f"t must lie in [0, log 2 - h_b(delta1)], got {t!r}")
    t = min(max(t, 0.0), cap)
    return NAT_LOG2 - h_b(conv(delta2, h_b_inv(h_b(delta1) + t)))


def g_bec(eps: ErasureParams, t: float) -> float:
    """Erasure counterpart of g_bsc: ((1-eps2)/(1-eps1)) ((1-eps1) log 2 - t).

    Linear in t; endpoints give the weak-user capacity (1-eps2) log 2 at t=0
    and 0 at the strong-user capacity t = (1-eps1) log 2.
    """
    cap = (1.0 - eps.eps1) * NAT_LOG2
    if not -1e-12 <= t <= cap + 1e-12:
        raise DomainError(f"t must lie in [0, (1-eps1) log 2], got {t!r}")
    t = min(max(t, 0.0), cap)
    return ((1.0 - eps.eps2) / (1.0 - eps.eps1)) * (cap - t)


def g_spherical_ub(delta1: float, delta2: float, n: int, t: float) -> float:
    """Finite-n upper bound on the weak user's normalized rate ceiling.

    g_bsc plus the correction gamma_corr(n, delta2); the sphere semantics
    require n delta1 and n conv(delta1, delta2) to be integers.
    """
    w1 = n * delta1
    w2 = n * conv(delta1, delta2)
    if abs(w1 - round(w1)) > 1e-9 or abs(w2 - round(w2)) > 1e-9:
        raise DomainError(
            f"sphere semantics need n*delta1={w1!r} and n*conv={w2!r} integral"
        )
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
    _check_slack_args(d1, d2, q, bp)
    d1 = min(max(d1, 0.0), bp.p)
    d2 = min(max(d2, 0.0), bp.p)
    return _slack_rhs(d1, q, bp) - _slack_lhs(d2, q, bp)


def _check_slack_args(d1: float, d2: float, q: float, bp: BinaryBroadcastParams) -> None:
    if not 0.0 <= q <= 0.5:
        raise DomainError(f"q must lie in [0, 1/2], got {q!r}")
    if not -1e-15 <= d1 <= bp.p + 1e-12 or not -1e-15 <= d2 <= bp.p + 1e-12:
        raise DomainError("outer_bound_slack needs d1 <= p and d2 <= p")


def _slack_rhs(d1: float, q: float, bp: BinaryBroadcastParams) -> float:
    """The d2-free part of the slack: rho times the weak user's rate ceiling
    at A1, plus the finite-n correction. Takes d1 already clamped to [0, p];
    DomainError and the clamp warning as documented on outer_bound_slack."""
    a1 = h_b(bp.delta1) + (
        h_b(conv(q, d1)) - h_b(d1) - h_b(conv(q, bp.p)) + h_b(bp.p)
    ) / bp.rho
    if a1 < -_A1_FLOAT_GUARD:
        raise DomainError(f"A1={a1!r} fell below 0")
    if bp.n is not None:
        a1 = min(max(a1, 0.0), NAT_LOG2)
        rhs = bp.rho * (NAT_LOG2 - h_b(conv(bp.delta2, h_b_inv(a1))))
        rhs += bp.rho * bounds_core.gamma_corr(bp.n, bp.delta2)
    else:
        if a1 > NAT_LOG2 + _A1_FLOAT_GUARD:
            raise DomainError(
                f"A1={a1!r} exceeds log 2: d1={d1!r} is infeasible at q={q!r}"
            )
        if a1 > NAT_LOG2:
            # 3: past this helper and outer_bound_slack, to its caller
            warnings.warn(
                f"A1={a1!r} exceeds log 2 within the floating guard; clamping",
                stacklevel=3,
            )
        a1 = min(max(a1, 0.0), NAT_LOG2)
        rhs = bp.rho * (NAT_LOG2 - h_b(conv(bp.delta2, h_b_inv(a1))))
    return rhs


def _slack_lhs(d2: float, q: float, bp: BinaryBroadcastParams) -> float:
    """The weak user's rate need h_b(conv(q, p)) - h_b(conv(q, d2)), d2 in [0, p]."""
    return h_b(conv(q, bp.p)) - h_b(conv(q, d2))


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
    i = min(range(len(_Q_SEEDS)), key=lambda j: (vals[j], j))
    best_q, best_v = _Q_SEEDS[i], vals[i]
    if best_v == float("-inf"):
        return best_v, best_q
    lo = _Q_SEEDS[i - 1] if i > 0 else 0.0
    hi = _Q_SEEDS[i + 1] if i + 1 < len(_Q_SEEDS) else 0.5
    q_ref, v_ref = golden_min(fn, lo, hi, tol=1e-10)
    if v_ref < best_v:
        return v_ref, q_ref
    return best_v, best_q


def _d2_at_q(bp: BinaryBroadcastParams, q: float, s0: float) -> float:
    """Smallest d2 in [0, p] whose slack at this q is nonnegative, given the
    slack s0 at d2 = 0 (-inf where d1 is infeasible at q).

    Only the h_b(conv(q, d2)) term of the slack moves with d2, so the
    threshold solves h_b(conv(q, d2)) = h_b(q) - s0: the inversion
    erasure_d2_floor uses. p when even d2 = p falls short, which includes a
    q at which d1 itself is infeasible.
    """
    if s0 >= 0.0:
        return 0.0
    t = h_b(q) - s0
    if t >= h_b(conv(q, bp.p)):
        return bp.p
    return min(max((h_b_inv(t) - q) / (1.0 - 2.0 * q), 0.0), bp.p)


# Bisection mids this close to the closed-form threshold are decided by the
# slack's sign instead: h_b_inv's 7.1e-15 grid leaves the threshold within
# noise of a mid there.
_D2_BAND = 1e-12


def _trace_point(bp: BinaryBroadcastParams, d1: float) -> RegionPoint:
    # the d2-free half of the slack at this d1, by q: every sweep below
    # revisits the same q, and only the lhs moves with d2
    rhs_by_q = {}

    def slack(d2, q):
        rhs = rhs_by_q.get(q)
        if rhs is None:
            try:
                rhs = _slack_rhs(d1, q, bp)
            except DomainError:
                rhs = float("-inf")
            rhs_by_q[q] = rhs
        return rhs - _slack_lhs(d2, q, bp)

    def worst_slack(d2):
        return _seeded_min(lambda q: slack(d2, q))

    s_top, q_top = worst_slack(bp.p)
    if s_top == float("-inf"):
        # only an A1 overflow can fail at d2 = p: d1 itself is infeasible
        return RegionPoint(d1=d1, d2_min=bp.p, q_star=q_top, slack=float("-inf"))
    s0, q0 = worst_slack(0.0)
    if s0 >= 0.0:
        return RegionPoint(d1=d1, d2_min=0.0, q_star=q0, slack=s0)
    d2_star = -_seeded_min(lambda q: -_d2_at_q(bp, q, slack(0.0, q)))[0]
    lo, hi = 0.0, bp.p
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

    The slack is nondecreasing in d2 (the weak user's need shrinks) and, at a
    fixed q, only h_b(conv(q, d2)) depends on d2, so the threshold at each q
    has a closed form through h_b_inv. Its maximum over q, taken over the q
    seeds and refined by golden section to 1e-10, is the boundary d2*. The
    reported d2_min is the upper end of a bisection on [0, p] stopped at
    width 1e-12, each mid decided against d2*; a mid within 1e-12 of d2* is
    decided by the sign of the worst slack over q instead, because d2* is
    itself only good to h_b_inv's tolerance. q_star and slack are the worst
    q and slack at d2_min. Points whose d1 the bound rules out entirely come
    back with d2_min = p and slack = -inf; points where the bound never binds
    come back with d2_min = 0.

    Each point keeps a per-q cache of the slack's right-hand side (A1, its
    h_b_inv and the finite-n term, -inf where A1 is out of range), which no
    d2 moves, so each q the sweeps revisit costs only the d2 term. The
    cache lives for one d1 and holds the values outer_bound_slack would
    compute, so every point is bit-identical to evaluating it directly.
    """
    pts = []
    for d1 in d1_grid:
        d1 = float(d1)
        if not 0.0 < d1 <= bp.p:
            raise DomainError(f"d1 grid values must lie in (0, p], got {d1!r}")
        pts.append(_trace_point(bp, d1))
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
    if bp.n is not None:
        raise DomainError("d1_feasibility_margin is an asymptotic statement; drop n")
    if not 0.0 < d1 <= bp.p:
        raise DomainError(f"d1 must lie in (0, p], got {d1!r}")
    c = conv(bp.delta1, bp.delta2)
    if bp.delta1 <= 0.0 or c >= 0.5:
        raise DomainError("needs delta1 > 0 and conv(delta1, delta2) < 1/2")
    d2s = bounds_core.d_asym(bp.rho, c)
    if d2s <= 0.0:
        raise DomainError("weak-user optimum D2* is 0; the condition degenerates")
    ratio = g(bp.delta1) / g(c)
    return (
        _g_closed(bp.p)
        + ratio * (_g_closed(d2s) - _g_closed(bp.p))
        - _g_closed(d1)
    )


def _d2_floor_k(bp: BinaryBroadcastParams, name: str) -> float:
    """Right side (1-2c)^2 + (1-2p)^2 (1 - (1-2c)^2) of the quadratic
    weak-user bound, c = conv(delta2, D1*); name is the caller, for errors."""
    if bp.n is not None:
        raise DomainError(f"{name} is an asymptotic statement; drop n")
    d1s = bounds_core.d_asym(bp.rho, bp.delta1)
    if d1s <= 0.0:
        raise DomainError("strong-user optimum D1* is 0; the floor degenerates")
    c = conv(bp.delta2, d1s)
    k = (1.0 - 2.0 * c) ** 2
    return k + (1.0 - 2.0 * bp.p) ** 2 * (1.0 - k)


def d2_floor(bp: BinaryBroadcastParams) -> float:
    """Smallest d2 the quadratic weak-user bound allows when the strong user
    runs at its optimum D1* = d_asym(rho, delta1). Asymptotic mode only.

    With c = conv(delta2, D1*), the bound reads (1-2 d2)^2 <= (1-2c)^2 +
    (1-2p)^2 (1 - (1-2c)^2); at p = 1/2 the floor is exactly c.
    """
    return 0.5 * (1.0 - math.sqrt(_d2_floor_k(bp, "d2_floor")))


def d2_floor_slack(d2_probe: float, bp: BinaryBroadcastParams) -> float:
    """Slack of the quadratic weak-user bound at d2_probe (>= 0 iff allowed)."""
    if not 0.0 <= d2_probe <= 0.5:
        raise DomainError(f"d2_probe must lie in [0, 1/2], got {d2_probe!r}")
    return _d2_floor_k(bp, "d2_floor_slack") - (1.0 - 2.0 * d2_probe) ** 2


# ---------- Gaussian instantiation ----------


def gaussian_rate(gp: GaussianBroadcastParams, d: float) -> float:
    """Gaussian source rate at distortion d: (1/2) log(sigma2/d)."""
    if not 0.0 < d <= gp.sigma2:
        raise DomainError(f"d must lie in (0, sigma2], got {d!r}")
    return 0.5 * math.log(gp.sigma2 / d)


def gaussian_fp(gp: GaussianBroadcastParams, t: float) -> float:
    """t - (1/2) log((aux_var + sigma2)/(aux_var + sigma2 e^{-2t}))."""
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t!r}")
    s2, a2 = gp.sigma2, gp.aux_var
    return t - 0.5 * math.log((a2 + s2) / (a2 + s2 * math.exp(-2.0 * t)))


def gaussian_rbar(gp: GaussianBroadcastParams, d: float) -> float:
    """(1/2) log((aux_var + sigma2)/(aux_var + d))."""
    if not 0.0 < d <= gp.sigma2:
        raise DomainError(f"d must lie in (0, sigma2], got {d!r}")
    return 0.5 * math.log((gp.aux_var + gp.sigma2) / (gp.aux_var + d))


def gaussian_gq(gp: GaussianBroadcastParams, t: float) -> float:
    """(1/2) log((P + N1 + N2)/(N1 e^{2t} + N2)); negative past the strong
    user's capacity, which signals an empty bound."""
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t!r}")
    return 0.5 * math.log(
        (gp.power + gp.n1 + gp.n2) / (gp.n1 * math.exp(2.0 * t) + gp.n2)
    )


def gaussian_bound(gp: GaussianBroadcastParams, d1: float) -> float:
    """Upper bound on (aux_var + sigma2)/(aux_var + d2) given user 1 gets d1.

    exp(2 rho G(F(R(d1))/rho)) with the Gaussian handles above. A value below
    1 means no d2 satisfies the bound (the pair is infeasible).
    """
    t = gaussian_rate(gp, d1)
    thr = gp.rho * gaussian_gq(gp, gaussian_fp(gp, t) / gp.rho)
    return math.exp(2.0 * thr)


def gaussian_d2_floor(gp: GaussianBroadcastParams, d1: float) -> float:
    """Smallest d2 compatible with gaussian_bound; DomainError when empty."""
    ratio = gaussian_bound(gp, d1)
    if ratio < 1.0:
        raise DomainError(
            f"ratio bound {ratio!r} < 1: no distortion pair satisfies the bound"
        )
    return max(0.0, (gp.aux_var + gp.sigma2) / ratio - gp.aux_var)


# ---------- erasure instantiation ----------


def _erasure_threshold(eps: ErasureParams, rho: float, d1: float, q: float):
    """(fp, threshold) of the erasure bound: fp = fp_binary(1/2, q, R(d1))
    and threshold = rho g_bec(fp / rho). DomainError when fp / rho exceeds
    the strong user's capacity (1 - eps1) log 2."""
    if rho <= 0.0:
        raise DomainError(f"rho must be positive, got {rho!r}")
    if not 0.0 <= q <= 0.5:
        raise DomainError(f"q must lie in [0, 1/2], got {q!r}")
    if not 0.0 < d1 <= 0.5:
        raise DomainError(f"d1 must lie in (0, 1/2], got {d1!r}")
    fhat = fp_binary(0.5, q, NAT_LOG2 - h_b(d1))
    arg = fhat / rho
    cap = (1.0 - eps.eps1) * NAT_LOG2
    if arg > cap + 1e-12:
        raise DomainError(
            f"strong-user rate need {arg!r} exceeds its capacity {cap!r}"
        )
    return fhat, rho * g_bec(eps, min(arg, cap))


def erasure_d2_floor(eps: ErasureParams, rho: float, d1: float, q: float) -> float:
    """Weak-user distortion floor over the erasure pair at auxiliary q.

    Uniform source: composes fp_binary at p = 1/2 with g_bec, then inverts
    h_b(conv(q, d2)) >= log 2 - threshold. DomainError when even user 1's
    constraint alone is infeasible.
    """
    _, thr = _erasure_threshold(eps, rho, d1, q)
    if thr >= NAT_LOG2:
        return 0.0
    x = h_b_inv(NAT_LOG2 - thr)
    if x <= q or q >= 0.5:
        return 0.0
    return (x - q) / (1.0 - 2.0 * q)
