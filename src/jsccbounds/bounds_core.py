"""Point-to-point distortion bounds for a uniform binary source over a BSC.

The central objects are the asymptotic distortion d_asym(rho, delta), the
curvature factor f, the excess-distortion coefficient eta, and the finite-n
sphere-noise floors. All rates are in nats, all distortions are per-symbol
Hamming values in [0, 1/2].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .binary_info import (
    NAT_LOG2,
    DomainError,
    Phi,
    conv,
    g,
    h_b,
    h_b_inv,
    h_b_prime,
)


def _check_count(name: str, v) -> None:
    if v < 1 or int(v) != v:
        raise DomainError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class SystemParams:
    """A point-to-point instance: n channel uses for m source bits, rho = n/m.

    m is optional; when present, rho must equal n/m exactly. delta is the
    channel crossover probability.
    """

    n: int
    rho: float
    delta: float
    m: int | None = None

    def __post_init__(self):
        _check_count("n", self.n)
        if self.rho <= 0.0:
            raise DomainError(f"rho must be positive, got {self.rho!r}")
        if not 0.0 < self.delta < 0.5:
            raise DomainError(f"delta must lie in (0, 1/2), got {self.delta!r}")
        if self.m is not None:
            _check_count("m", self.m)
            if self.rho != self.n / self.m:
                raise DomainError(
                    f"rho={self.rho!r} does not equal n/m={self.n}/{self.m}"
                )

    @classmethod
    def from_counts(cls, m: int, n: int, delta: float) -> "SystemParams":
        _check_count("m", m)
        return cls(n=n, rho=n / m, delta=delta, m=m)


@dataclass(frozen=True)
class LowerBoundReport:
    """Leading term of the distortion-gap lower bound at blocklength n.

    leading_term = sqrt(delta(1-delta)/(2 pi n)) * eta, by construction.
    The remainder is known only up to order; correction_constant_known stays
    False because no explicit constant is available for it.
    """

    d_asym: float
    eta: float
    leading_term: float
    correction_order: str = "O(n^{-3/4} log n)"
    correction_constant_known: bool = field(default=False)


def d_asym(rho: float, delta: float) -> float:
    """Asymptotic optimal distortion h_b_inv(log 2 - rho (log 2 - h_b(delta))).

    Uses the extended inverse, so expansion factors large enough to drive the
    argument nonpositive return exactly 0.
    """
    if rho <= 0.0:
        raise DomainError(f"rho must be positive, got {rho!r}")
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"delta must lie in [0, 1/2], got {delta!r}")
    return h_b_inv(NAT_LOG2 - rho * (NAT_LOG2 - h_b(delta)))


def d_asym_deriv(rho: float, delta: float) -> float:
    """Derivative of d_asym in delta: rho h_b'(delta)/h_b'(D); needs D > 0."""
    D = d_asym(rho, delta)
    if D <= 0.0:
        raise DomainError("d_asym_deriv needs d_asym(rho, delta) > 0")
    return rho * h_b_prime(delta) / h_b_prime(D)


def f_factor(rho: float, delta: float) -> float:
    """Curvature ratio Phi(delta) / (rho Phi(D)); needs D > 0.

    Equals 1 at rho = 1, drops below 1 for rho > 1 (when D > 0), and sits at
    or above 1 for rho <= 1.
    """
    D = d_asym(rho, delta)
    if D <= 0.0:
        raise DomainError("f_factor needs d_asym(rho, delta) > 0")
    return Phi(delta) / (rho * Phi(D))


def eta(rho: float, delta: float) -> float:
    """Excess-distortion coefficient for rho > 1 with d_asym > 0.

    2 rho [h_b'(delta)/h_b'(D)] [D(1-f)^2 / (2f + 4D(1-f))] [(1+f)/f]
    with D = d_asym and f = f_factor. Strictly positive on its domain.
    """
    D = d_asym(rho, delta)
    if D <= 0.0:
        raise DomainError("eta needs d_asym(rho, delta) > 0")
    f = f_factor(rho, delta)
    if f >= 1.0:
        raise DomainError(f"eta needs f < 1, got f={f!r}")
    return (
        2.0
        * rho
        * (h_b_prime(delta) / h_b_prime(D))
        * (D * (1.0 - f) ** 2 / (2.0 * f + 4.0 * D * (1.0 - f)))
        * ((1.0 + f) / f)
    )


def tau_star(rho: float, delta: float) -> float:
    """(1 - f)/(2 f); positive exactly when f < 1."""
    f = f_factor(rho, delta)
    if f >= 1.0:
        raise DomainError(f"tau_star needs f < 1, got f={f!r}")
    return (1.0 - f) / (2.0 * f)


def gamma_corr(n: int, delta2: float) -> float:
    """Finite-n correction sqrt(delta2/n) log(n/delta2) + (log n + 1)/(2n).

    At delta2 = 0 the first term is taken at its limit, 0.
    """
    if n < 1 or int(n) != n:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not 0.0 <= delta2 <= 0.5:
        raise DomainError(f"delta2 must lie in [0, 1/2], got {delta2!r}")
    second = (math.log(n) + 1.0) / (2.0 * n)
    if delta2 == 0.0:
        return second
    ratio = n / delta2
    if ratio == math.inf:
        # subnormal delta2: n / delta2 overflows and delta2 / n may flush to 0
        return math.sqrt(delta2) / math.sqrt(n) * (math.log(n) - math.log(delta2)) + second
    return math.sqrt(delta2 / n) * math.log(ratio) + second


def gap_lower_bound(params: SystemParams) -> LowerBoundReport:
    """Leading term of the gap between the best code at n and d_asym.

    Valid for rho > 1 with d_asym > 0; the remainder of the bound is known
    only as a symbolic order, carried in correction_order.
    """
    if params.rho <= 1.0:
        raise DomainError("gap_lower_bound needs rho > 1")
    D = d_asym(params.rho, params.delta)
    e = eta(params.rho, params.delta)
    lead = math.sqrt(params.delta * (1.0 - params.delta) / (2.0 * math.pi * params.n)) * e
    return LowerBoundReport(d_asym=D, eta=e, leading_term=lead)


def sphere_floor_at_weight(params: SystemParams, w: int) -> float:
    """Distortion floor when the channel noise is uniform on the weight-w sphere.

    h_b_inv(log 2 - rho (log 2 - h_b(w/n)) - rho (log n + 1)/(2n)); depends on
    (n, rho, w) only, so it needs no integrality of n delta. Extended inverse
    clamps to 0.
    """
    n = params.n
    if not 0 <= w <= n:
        raise DomainError(f"weight must lie in [0, n], got {w!r}")
    arg = (
        NAT_LOG2
        - params.rho * (NAT_LOG2 - h_b(w / n))
        - params.rho * (math.log(n) + 1.0) / (2.0 * n)
    )
    return h_b_inv(min(arg, NAT_LOG2))


def sphere_floor(params: SystemParams, k: int = 0) -> float:
    """Sphere floor at the offset-k weight n delta + k; needs n delta integral."""
    w0 = params.n * params.delta
    if abs(w0 - round(w0)) > 1e-9:
        raise DomainError(f"sphere_floor needs n*delta integral, got {w0!r}")
    w = int(round(w0)) + k
    if not -round(w0) <= k <= params.n - round(w0):
        raise DomainError(f"offset k={k!r} pushes the weight outside [0, n]")
    return sphere_floor_at_weight(params, w)


def expected_sphere_floor(params: SystemParams) -> float:
    """Binomial(n, delta) average of the per-weight sphere floors.

    A valid lower bound on the expected distortion of every code, with no
    integrality requirement on n delta. The binomial weights are formed in
    the log domain, so no term overflows at large n.
    """
    n, d = params.n, params.delta
    log_d, log_1md = math.log(d), math.log1p(-d)
    log_n_fact = math.lgamma(n + 1)
    total = 0.0
    for w in range(n + 1):
        pw = math.exp(
            log_n_fact - math.lgamma(w + 1) - math.lgamma(n - w + 1)
            + w * log_d + (n - w) * log_1md
        )
        total += pw * sphere_floor_at_weight(params, w)
    return total


def gap_rhs(d1: float, d2: float, bparams, tau: float) -> float:
    """Right-hand side of the distortion-gap inequality at split (d1, d2).

    bparams carries rho, delta1, delta2, and an optional n; with n absent the
    correction term is 0 (asymptotic mode). Requires d1, d2 in (0, 1/2) and
    tau > 0.
    """
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau!r}")
    if not (0.0 < d1 < 0.5 and 0.0 < d2 < 0.5):
        raise DomainError("gap_rhs needs d1, d2 in (0, 1/2)")
    rho = bparams.rho
    c = conv(bparams.delta1, bparams.delta2)
    n = getattr(bparams, "n", None)
    gamma = gamma_corr(n, bparams.delta2) if n is not None else 0.0
    L2 = h_b_prime(d2)
    first = (
        ((1.0 + 2.0 * d2 * tau) / (2.0 * d2 * tau))
        * (rho * (NAT_LOG2 - h_b(c)) - (NAT_LOG2 - h_b(d2)) + rho * gamma)
        / L2
    )
    second = (
        (c - bparams.delta1)
        * (h_b_prime(bparams.delta1) / L2)
        * (Phi(bparams.delta1) / Phi(d2))
        * (1.0 + tau)
        * g(d1)
        / g(d2)
    )
    return first + second


def sum_distortion_lb(a: float, params: SystemParams) -> float:
    """Sum-distortion lower bound 2 d_asym + (a/sqrt(n)) eta for rho > 1.

    Warns (without failing) when a >= log^2(n), where the guarantee backing
    the formula no longer applies.
    """
    if a < 0.0:
        raise DomainError(f"a must be nonnegative, got {a!r}")
    if params.rho <= 1.0:
        raise DomainError("sum_distortion_lb needs rho > 1")
    if a >= math.log(params.n) ** 2:
        warnings.warn(
            f"a={a!r} is at or above log^2(n)={math.log(params.n) ** 2:.6g}; "
            "the bound's validity range is exceeded",
            stacklevel=2,
        )
    return 2.0 * d_asym(params.rho, params.delta) + (a / math.sqrt(params.n)) * eta(
        params.rho, params.delta
    )


def separation_upper(d0: float, p_err: float) -> float:
    """Distortion achieved by separate compression and coding: (1-p_err) d0 + p_err."""
    if not (0.0 <= d0 <= 1.0 and 0.0 <= p_err <= 1.0):
        raise DomainError("separation_upper needs d0, p_err in [0, 1]")
    return (1.0 - p_err) * d0 + p_err
