"""Scalar information measures for binary sources and symmetric channels.

Everything is in nats. Probabilities are plain floats; functions state the
sub-range of [0, 1] they accept and raise DomainError outside it.

Each measure is defined once, as a private formula that takes the log to
apply: public functions check their domain and pass math.log, the grid
verifiers in oracles pass np.log on arrays. The two logs differ in the last
bit on a few inputs per thousand, so each path keeps its own printed digits.
"""

from __future__ import annotations

import math

NAT_LOG2 = math.log(2.0)


class DomainError(ValueError):
    """An argument left the domain where the requested quantity is defined."""


# ---------- one formula per measure, for floats and arrays alike ----------
# No checks: callers keep every log argument positive.


def _h(x, log):
    return -x * log(x) - (1.0 - x) * log(1.0 - x)


def _conv(a, b):
    return a + b - 2.0 * a * b


def _hp(x, log):
    return log((1.0 - x) / x)


def _g(t, log):
    return (1.0 - 2.0 * t) * _hp(t, log)


def _kappa(t, log):
    return 2.0 * _hp(t, log) + (1.0 - 2.0 * t) / (t * (1.0 - t))


def _Phi(t, log):
    L = _hp(t, log)
    return 2.0 / ((1.0 - 2.0 * t) * L) + 1.0 / (t * (1.0 - t) * L * L)


def _phi(q, t, log):
    r = 1.0 - 2.0 * t
    return 2.0 * q * _hp(t, log) + (1.0 - 2.0 * q) * log(
        (1.0 + q * r / t) / (1.0 - q * r / (1.0 - t))
    )


def _nu(q, t):
    return (1.0 - 2.0 * q) / (1.0 + q * (1.0 - 2.0 * t) / t)


def h_b(x: float) -> float:
    """Binary entropy in nats, with 0 log 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"h_b needs x in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return _h(x, math.log)


# The bisection below stops after 46 halvings of [0, 1/2] (the first width
# <= 1e-14), so its answers are midpoints of cells 2^-47 wide. Below
# h_b(5 cells) ~ 1.1e-12 those cells are coarse against the root, so h_b_inv
# takes a Newton root there. The cutoff sits at h_b of a cell edge: every
# Newton root is at most that edge, every bisection answer above the cutoff
# at least half a cell beyond it, so h_b_inv stays nondecreasing across it.
_NEWTON_EDGE = 5.0 * 2.0 ** -47
_NEWTON_CUTOFF = h_b(_NEWTON_EDGE)


def h_b_inv(t: float) -> float:
    """Inverse of h_b on [0, 1/2], extended to return 0 for every t <= 0.

    Returns the midpoint of the 2^-47-wide cell that 46 halvings of [0, 1/2]
    leave around the root, so within 7.1e-15 of it, except for
    0 < t <= ~1.1e-12, where a Newton root keeps the relative accuracy that
    h_b itself has there. NaN raises DomainError.
    """
    if t <= 0.0:
        return 0.0
    if not t <= NAT_LOG2 + 1e-12:
        raise DomainError(f"h_b_inv needs t <= log 2, got {t!r}")
    if t >= NAT_LOG2:
        return 0.5
    if t <= _NEWTON_CUTOFF:
        return _h_b_inv_newton(t)
    lo, hi = 0.0, 0.5
    for _ in range(46):
        mid = 0.5 * (lo + hi)
        if _h(mid, math.log) < t:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _h_b_inv_newton(t: float) -> float:
    """Root of h_b(x) = t for 0 < t <= _NEWTON_CUTOFF.

    Newton steps from t / (1 - 2 log t), which lies left of the root, kept
    inside a bracket [lo, hi] with h_b(lo) < t <= h_b(hi) that each step
    shrinks; a step that would leave it bisects instead. Stops when a step
    no longer moves x or the bracket has no float left inside. The result
    is 0.0 only where the root underflows.
    """
    lo, hi = 0.0, _NEWTON_EDGE
    x = t / (1.0 - 2.0 * math.log(t))
    for _ in range(200):
        if not lo < x < hi:
            break
        f = _h(x, math.log) - t
        if f < 0.0:
            lo = x
        elif f > 0.0:
            hi = x
        else:
            break
        step = x - f / (math.log(1.0 - x) - math.log(x))
        if step == x:
            break
        x = step if lo < step < hi else 0.5 * (lo + hi)
    return x


def conv(a: float, b: float) -> float:
    """Binary convolution a(1-b) + b(1-a)."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise DomainError(f"conv needs arguments in [0, 1], got {a!r}, {b!r}")
    return _conv(a, b)


def h_b_prime(x: float) -> float:
    """Derivative of h_b: log((1-x)/x), for x in (0, 1)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"h_b_prime needs x in (0, 1), got {x!r}")
    return _hp(x, math.log)


def mgl_phi(delta: float, t: float) -> float:
    """h_b(conv(delta, h_b_inv(t))): convex and nondecreasing in t."""
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"mgl_phi needs delta in [0, 1/2], got {delta!r}")
    if not 0.0 <= t <= NAT_LOG2 + 1e-12:
        raise DomainError(f"mgl_phi needs t in [0, log 2], got {t!r}")
    return h_b(conv(delta, h_b_inv(t)))


def mgl_phi_deriv(delta: float, t: float) -> float:
    """d/dt of mgl_phi(delta, .), in (0, 1] on the open interval t in (0, log 2)."""
    if not 0.0 <= delta < 0.5:
        raise DomainError(f"mgl_phi_deriv needs delta in [0, 1/2), got {delta!r}")
    if not 0.0 < t < NAT_LOG2:
        # singular at t=0, indeterminate 0/0 at t=log 2
        raise DomainError(f"mgl_phi_deriv needs t in (0, log 2), got {t!r}")
    x = h_b_inv(t)
    return (1.0 - 2.0 * delta) * h_b_prime(conv(delta, x)) / h_b_prime(x)


# ---------- catalog of derived scalar functions ----------
# t-arguments live in (0, 1/2); beta and R additionally accept t = 1/2,
# where both are finite (0). q-arguments live in [0, 1/2].


def _check_t_open(name: str, t: float) -> None:
    if not 0.0 < t < 0.5:
        raise DomainError(f"{name} needs t in (0, 1/2), got {t!r}")


def _check_t_closed_right(name: str, t: float) -> None:
    if not 0.0 < t <= 0.5:
        raise DomainError(f"{name} needs t in (0, 1/2], got {t!r}")


def _check_q(name: str, q: float) -> None:
    if not 0.0 <= q <= 0.5:
        raise DomainError(f"{name} needs q in [0, 1/2], got {q!r}")


def g(t: float) -> float:
    _check_t_open("g", t)
    return _g(t, math.log)


def kappa(t: float) -> float:
    """Negative derivative of g."""
    _check_t_open("kappa", t)
    return _kappa(t, math.log)


def Phi(t: float) -> float:
    _check_t_open("Phi", t)
    return _Phi(t, math.log)


def beta(q: float, t: float) -> float:
    """h_b(conv(q, t)) - h_b(t); vanishes at t = 1/2 and at q = 0."""
    _check_q("beta", q)
    _check_t_closed_right("beta", t)
    return h_b(conv(q, t)) - h_b(t)


def phi(q: float, t: float) -> float:
    """Negative t-derivative of beta(q, .)."""
    _check_q("phi", q)
    _check_t_open("phi", t)
    return _phi(q, t, math.log)


def nu(q: float, t: float) -> float:
    _check_q("nu", q)
    _check_t_open("nu", t)
    return _nu(q, t)


def psi(t: float) -> float:
    _check_t_open("psi", t)
    return (1.0 - 2.0 * t) * kappa(t) / g(t)


def vartheta(t: float) -> float:
    """Phi(t) * R(t); strictly decreasing on (0, 1/2)."""
    _check_t_open("vartheta", t)
    return Phi(t) * R(t)


def R(t: float) -> float:
    """Rate log 2 - h_b(t); equals the BSC(t) capacity."""
    _check_t_closed_right("R", t)
    return NAT_LOG2 - h_b(t)


# every catalog function by name, in the order the CLI lists them
_CATALOG = {
    "h_b": h_b,
    "h_b_inv": h_b_inv,
    "conv": conv,
    "g": g,
    "kappa": kappa,
    "Phi": Phi,
    "beta": beta,
    "phi": phi,
    "nu": nu,
    "psi": psi,
    "vartheta": vartheta,
    "R": R,
    "mgl": mgl_phi,
    "mgl_deriv": mgl_phi_deriv,
}


def info_fn(name: str):
    """Look up a catalog function by name; raises DomainError on unknown names."""
    if name not in _CATALOG:
        raise DomainError(f"unknown function name {name!r}")
    return _CATALOG[name]
