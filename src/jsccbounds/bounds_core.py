"""Point-to-point distortion bounds for a uniform binary source over a BSC.

The central objects are the asymptotic distortion d_asym(rho, delta), the
curvature factor f, the excess-distortion coefficient eta, and the finite-n
sphere-noise floors. All rates are in nats, all distortions are per-symbol
Hamming values in [0, 1/2].
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import namedtuple
from itertools import takewhile

from .binary_info import (
    NAT_LOG2,
    _X_MIN,
    DomainError,
    _conv,
    _count,
    _end,
    _g,
    _hp,
    _Phi,
    _real,
    h_b,
    h_b_inv,
)


class SystemParams(namedtuple("SystemParams", "n rho delta m")):
    """A point-to-point instance: n channel uses for m source bits, rho = n/m.

    m is optional; when present, rho must equal n/m exactly. delta is the
    channel crossover probability.
    """

    __slots__ = ()

    def __new__(cls, n: int, rho: float, delta: float, m: int | None = None):
        # counts are stored as int, so an integral float n or m counts too
        n = _count("n", n)
        rho = _real("rho", rho, 0.0, ends="()")
        delta = _real("delta", delta, 0.0, 0.5, "()")
        if m is not None:
            m = _count("m", m)
            if rho != _ratio(n, m):
                raise DomainError(f"rho={rho!r} does not equal n/m={_end(n)}/{_end(m)}")
        return super().__new__(cls, n, rho, delta, m)

    @classmethod
    def from_counts(cls, m: int, n: int, delta: float) -> "SystemParams":
        rho = _real("n/m", _ratio(n, _count("m", m)), 0.0, ends="()")
        return cls(n=n, rho=rho, delta=delta, m=m)


def _ratio(n: int, m: int) -> float:
    """n / m; DomainError where it is beyond the float range, since no
    float rho equals it there."""
    try:
        return n / m
    except OverflowError:
        raise DomainError(f"n/m={_end(n)}/{_end(m)} is beyond the float range") from None


# the order of the gap bound's remainder, which no explicit constant backs
_CORRECTION_ORDER = "O(n^{-3/4} log n)"


class LowerBoundReport(namedtuple("LowerBoundReport", "d_asym eta leading_term correction_order "
                                  "correction_constant_known",
                                  defaults=(_CORRECTION_ORDER, False))):
    """Leading term of the distortion-gap lower bound at blocklength n.

    leading_term = sqrt(delta(1-delta)/(2 pi n)) * eta, by construction.
    The remainder is known only up to order; correction_constant_known stays
    False because no explicit constant is available for it.
    """

    __slots__ = ()


def d_asym(rho: float, delta: float) -> float:
    """Asymptotic optimal distortion h_b_inv(log 2 - rho (log 2 - h_b(delta))).

    Uses the extended inverse, so expansion factors large enough to drive the
    argument nonpositive return exactly 0.
    """
    rho = _real("rho", rho, 0.0, ends="()")
    delta = _real("delta", delta, 0.0, 0.5)
    return _d_asym(rho, delta)


def _d_asym(rho: float, delta: float) -> float:
    # d_asym of checked floats
    return h_b_inv(NAT_LOG2 - rho * (NAT_LOG2 - h_b(delta)))


def _d_star(rho: float, delta: float, name: str = "d_asym(rho, delta)", lo: float = _X_MIN,
            ends: str = "[)") -> float:
    """D* = d_asym(rho, delta) of checked floats, checked as name on [lo, 1/2]
    with ends: h_b'(D*) and Phi(D*) are finite and positive on [_X_MIN, 1/2)."""
    return _real(name, _d_asym(rho, delta), lo, 0.5, ends)


def _chain(rho: float, delta: float) -> tuple[float, float, float, float]:
    """(rho, delta, D*, f) for the bounds: rho and delta checked once, D*
    formed once, and f = Phi(delta) / (rho Phi(D*))."""
    rho = _real("rho", rho, 0.0, ends="()")
    delta = _real("delta", delta, _X_MIN, 0.5, "[)")
    D = _d_star(rho, delta)
    return rho, delta, D, _Phi(delta, math.log) / (rho * _Phi(D, math.log))


def d_asym_deriv(rho: float, delta: float) -> float:
    """Derivative of d_asym in delta: rho h_b'(delta)/h_b'(D); needs D in
    [_X_MIN, 1/2), where h_b'(D) > 0."""
    rho, delta, D, _ = _chain(rho, delta)
    return rho * _hp(delta, math.log) / _hp(D, math.log)


def f_factor(rho: float, delta: float) -> float:
    """Curvature ratio Phi(delta) / (rho Phi(D)); needs D in [_X_MIN, 1/2).

    Equals 1 at rho = 1, drops below 1 for rho > 1 (when D > 0), and sits at
    or above 1 for rho <= 1.
    """
    return _chain(rho, delta)[3]


def eta(rho: float, delta: float) -> float:
    """Excess-distortion coefficient for rho > 1 with d_asym > 0.

    2 rho [h_b'(delta)/h_b'(D)] [D(1-f)^2 / (2f + 4D(1-f))] [(1+f)/f]
    with D = d_asym and f = f_factor. Strictly positive on its domain.
    """
    return _eta(rho, delta)[1]


def _eta(rho: float, delta: float) -> tuple[float, float]:
    # (D*, eta) from one chain
    rho, delta, D, f = _chain(rho, delta)
    f = _real("f_factor(rho, delta)", f, 0.0, 1.0, "()")
    return D, (
        2.0
        * rho
        * (_hp(delta, math.log) / _hp(D, math.log))
        * (D * (1.0 - f) ** 2 / (2.0 * f + 4.0 * D * (1.0 - f)))
        * ((1.0 + f) / f)
    )


def tau_star(rho: float, delta: float) -> float:
    """(1 - f)/(2 f); positive exactly when f < 1."""
    f = _real("f_factor(rho, delta)", _chain(rho, delta)[3], 0.0, 1.0, "()")
    return (1.0 - f) / (2.0 * f)


def _split_n(n: int) -> tuple[float, int]:
    """(f, e) with n = f 4^e: f = float(n) and e = 0 when n fits a float,
    and f a float below 2^54 otherwise (n >> 2e, rounded), so that a formula
    in n can be evaluated at f and scaled back by math.ldexp."""
    if n <= sys.float_info.max:
        return float(n), 0
    e = (n.bit_length() - 53) // 2
    return float(n >> (2 * e)), e


def _whole(name: str, n: int, x: float) -> int:
    """n x as an int w, when n x lies within 1e-9 of it (compared exactly,
    in integers); else DomainError naming it as name, showing n x as its
    float, as w and the distance where that float lost the fraction, or as
    ~2^k past the float range (int-to-str converts at most 4300 digits)."""
    num, den = x.as_integer_ratio()
    w = (2 * n * num + den) // (2 * den)
    rem = n * num - w * den
    if abs(rem) * 10**9 > den:
        if w > sys.float_info.max:
            got = _end(w)
        elif not (f := n * num / den).is_integer():
            got = repr(f)
        else:
            got = _end(w) + format(rem / den, "+")
        raise DomainError("%s must be an integer, got %s" % (name, got))
    return w


def gamma_corr(n: int, delta2: float) -> float:
    """Finite-n correction sqrt(delta2/n) log(n/delta2) + (log n + 1)/(2n).

    At delta2 = 0 the first term is taken at its limit, 0. An integer n
    beyond the float range is scaled by powers of two rather than converted.
    """
    n = _count("n", n)
    delta2 = _real("delta2", delta2, 0.0, 0.5)
    f, e = _split_n(n)
    # ldexp rounds an underflow to 0
    second = math.ldexp((math.log(n) + 1.0) / (2.0 * f), -2 * e)
    if delta2 == 0.0:
        return second
    if e or (ratio := n / delta2) == math.inf:
        # n has no float, or a subnormal delta2 overflows n / delta2
        first = math.sqrt(delta2) / math.sqrt(f) * (math.log(n) - math.log(delta2))
        return math.ldexp(first, -e) + second
    return math.sqrt(delta2 / n) * math.log(ratio) + second


def gap_lower_bound(params: SystemParams) -> LowerBoundReport:
    """Leading term of the gap between the best code at n and d_asym.

    Valid for rho > 1 with d_asym > 0; the remainder of the bound is known
    only as a symbolic order, carried in correction_order. An n beyond the
    float range is scaled as in gamma_corr.
    """
    _real("rho", params.rho, 1.0, ends="()")
    D, e = _eta(params.rho, params.delta)
    f, k = _split_n(params.n)
    lead = math.ldexp(
        math.sqrt(params.delta * (1.0 - params.delta) / (2.0 * math.pi * f)) * e, -k)
    return LowerBoundReport(d_asym=D, eta=e, leading_term=lead)


def sphere_floor_at_weight(params: SystemParams, w: int) -> float:
    """Distortion floor when the channel noise is uniform on the weight-w sphere.

    h_b_inv(log 2 - rho (log 2 - h_b(w/n)) - rho (log n + 1)/(2n)); depends on
    (n, rho, w) only, so it needs no integrality of n delta. Extended inverse
    clamps to 0. An n beyond the float range is scaled as in gamma_corr.
    """
    n = params.n
    w = _count("weight", w, 0, n)
    f, k = _split_n(n)
    arg = (
        NAT_LOG2
        - params.rho * (NAT_LOG2 - h_b(w / n))
        - math.ldexp(params.rho * (math.log(n) + 1.0) / (2.0 * f), -2 * k)
    )
    return h_b_inv(min(arg, NAT_LOG2))


def sphere_floor(params: SystemParams, k: int = 0) -> float:
    """Sphere floor at the offset-k weight n delta + k; needs n delta
    integral, taken exactly."""
    w0 = _whole("n * delta", params.n, params.delta)
    return sphere_floor_at_weight(params, w0 + _count("k", k, -w0, params.n - w0))


# most weights expected_sphere_floor may sum, at about 8 us each
_FLOOR_TERMS = 1 << 18


def expected_sphere_floor(params: SystemParams) -> float:
    """Binomial(n, delta) average of the per-weight sphere floors.

    A valid lower bound on the expected distortion of every code, with no
    integrality requirement on n delta. The binomial weights are formed in
    the log domain, and only those whose float is nonzero are summed, in
    order of w: they are log-concave, so walking out from the mode to the
    first 0.0 on each side skips only terms of 0.0. A weight k from n delta
    is below exp(-2 k^2 / n) (Hoeffding), 0.0 once k^2 > 375 n, so an n with
    1500 n > _FLOOR_TERMS^2 is a DomainError.
    """
    n, d = params.n, params.delta
    if 1500 * n > _FLOOR_TERMS ** 2:
        raise DomainError(f"expected_sphere_floor sums up to sqrt(1500 n) weights, over "
                          f"{_FLOOR_TERMS} at n ~ 2^{n.bit_length()}")
    log_d, log_1md = math.log(d), math.log1p(-d)
    log_n_fact = math.lgamma(n + 1)

    def nonzero(ws):
        # (w, weight) for each w in ws up to the first weight that is 0.0
        return takewhile(lambda wp: wp[1] > 0.0, ((w, math.exp(
            log_n_fact - math.lgamma(w + 1) - math.lgamma(n - w + 1)
            + w * log_d + (n - w) * log_1md)) for w in ws))

    mode = min(int((n + 1) * d), n)
    below = [*nonzero(range(mode - 1, -1, -1))][::-1]
    total = 0.0
    for w, pw in below + [*nonzero(range(mode, n + 1))]:
        total += pw * sphere_floor_at_weight(params, w)
    return total


def gap_rhs(d1: float, d2: float, bparams, tau: float) -> float:
    """Right-hand side of the distortion-gap inequality at split (d1, d2).

    bparams carries rho, delta1, delta2, and n; with n None the
    correction term is 0 (asymptotic mode). Requires d1, d2 and delta1 in
    [_X_MIN, 1/2), where g and h_b' are finite, and tau > 0; DomainError
    when 2 d2 tau underflows to 0 or the value is not finite.
    """
    tau = _real("tau", tau, 0.0, ends="()")
    d1 = _real("d1", d1, _X_MIN, 0.5, "[)")
    d2 = _real("d2", d2, _X_MIN, 0.5, "[)")
    delta1 = _real("delta1", bparams.delta1, _X_MIN, 0.5, "[)")
    two_d2_tau = 2.0 * d2 * tau
    if two_d2_tau == 0.0:
        raise DomainError(f"2*d2*tau underflows to 0 at d2={d2!r}, tau={tau!r}")
    rho = bparams.rho
    c = _conv(delta1, bparams.delta2)
    gamma = 0.0 if bparams.n is None else gamma_corr(bparams.n, bparams.delta2)
    # d1, d2 and delta1 are checked into [_X_MIN, 1/2), where _hp and _g are
    # finite and _hp positive
    L2 = _hp(d2, math.log)
    first = (
        ((1.0 + two_d2_tau) / two_d2_tau)
        * (rho * (NAT_LOG2 - h_b(c)) - (NAT_LOG2 - h_b(d2)) + rho * gamma)
        / L2
    )
    second = (
        (c - delta1)
        * (_hp(delta1, math.log) / L2)
        * (_Phi(delta1, math.log) / _Phi(d2, math.log))
        * (1.0 + tau)
        * _g(d1, math.log)
        / _g(d2, math.log)
    )
    rhs = first + second
    if not -math.inf < rhs < math.inf:
        raise DomainError(f"the gap bound is not finite at d2={d2!r}, tau={tau!r}")
    return rhs


def sum_distortion_lb(a: float, params: SystemParams) -> float:
    """Sum-distortion lower bound 2 d_asym + (a/sqrt(n)) eta for rho > 1.

    Warns (without failing) when a >= log^2(n), where the guarantee backing
    the formula no longer applies. An n beyond the float range is scaled as
    in gamma_corr.
    """
    a = _real("a", a, 0.0)
    _real("rho", params.rho, 1.0, ends="()")
    D, e = _eta(params.rho, params.delta)
    if a >= math.log(params.n) ** 2:
        warnings.warn(
            f"a={a!r} is at or above log^2(n)={math.log(params.n) ** 2:.6g}; "
            "the bound's validity range is exceeded",
            stacklevel=2,
        )
    f, k = _split_n(params.n)
    return 2.0 * D + math.ldexp((a / math.sqrt(f)) * e, -k)


def separation_upper(d0: float, p_err: float) -> float:
    """Distortion achieved by separate compression and coding: (1-p_err) d0 + p_err."""
    d0 = _real("d0", d0, 0.0, 1.0)
    p_err = _real("p_err", p_err, 0.0, 1.0)
    return (1.0 - p_err) * d0 + p_err
