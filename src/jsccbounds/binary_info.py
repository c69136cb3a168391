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


# ---------- the argument checker ----------
# Every argument check of the package goes through _real or _count, so the
# NaN and +-inf policy lives here: a comparison with NaN is False, and the
# -inf < x < inf test catches the infinities an unbounded end lets through.
# The scalar kernel leaves h_b, h_b_inv and conv keep inline comparisons: a
# checker call adds about 300 ns to h_b's ~450 ns (timeit, CPython 3.11 on
# an Intel Xeon), and a region point makes about 3,100 h_b and conv calls.


def _real(name, x, lo=-math.inf, hi=math.inf, ends="[]"):
    """x, when it is finite and lies between lo and hi; the interval is open
    at an end whose bracket in ends is a parenthesis. Else DomainError."""
    if ((lo < x if ends[0] == "(" else lo <= x)
            and (x < hi if ends[1] == ")" else x <= hi)
            and -math.inf < x < math.inf):
        return x
    raise DomainError(_outside(name, x, lo, hi, ends, False))


def _count(name, v, lo=1, hi=math.inf) -> int:
    """int(v), when v is an integer in [lo, hi]; else DomainError."""
    if lo <= v <= hi and -math.inf < v < math.inf and v == int(v):
        return int(v)
    raise DomainError(_outside(name, v, lo, hi, "[]", True))


def _outside(name, x, lo, hi, ends, integer) -> str:
    if hi == math.inf and integer and lo == 1:
        must = "a positive integer"
    elif hi == math.inf and not integer and lo == 0:
        must = ("positive" if ends[0] == "(" else "nonnegative") + " and finite"
    else:
        # an infinite end prints open: the checks reject +-inf
        must = "%sin %s%s, %s%s" % (
            "an integer " if integer else "",
            "(" if lo == -math.inf else ends[0], _end(lo),
            _end(hi), ")" if hi == math.inf else ends[1])
    return "%s must be %s, got %r" % (name, must, x)


def _end(b) -> str:
    if isinstance(b, int) and b.bit_length() > 256:
        # an encoder rank can run to thousands of digits
        return "~2^%d" % b.bit_length()
    return "%g" % b if isinstance(b, float) else str(b)


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
    return _hp(_real("x", x, 0.0, 1.0, "()"), math.log)


def _mgl(delta, t):
    return h_b(conv(delta, h_b_inv(t)))


def _mgl_inv(a, t, hi):
    # the d solving h_b(conv(a, d)) = t, clamped to [0, hi]; needs a < 1/2
    return min(max((h_b_inv(t) - a) / (1.0 - 2.0 * a), 0.0), hi)


def mgl_phi(delta: float, t: float) -> float:
    """The Gerber map h_b(conv(delta, h_b_inv(t))): convex and nondecreasing in t."""
    _real("delta", delta, 0.0, 0.5)
    _real("t", t, 0.0, NAT_LOG2 + 1e-12)
    return _mgl(delta, t)


def mgl_phi_deriv(delta: float, t: float) -> float:
    """d/dt of mgl_phi(delta, .), in (0, 1] on the open interval t in (0, log 2)."""
    _real("delta", delta, 0.0, 0.5, "[)")
    # singular at t=0, indeterminate 0/0 at t=log 2
    x = h_b_inv(_real("t", t, 0.0, NAT_LOG2, "()"))
    return (1.0 - 2.0 * delta) * h_b_prime(conv(delta, x)) / h_b_prime(x)


# ---------- catalog of derived scalar functions ----------
# t-arguments live in (0, 1/2); beta and R additionally accept t = 1/2,
# where both are finite (0). q-arguments live in [0, 1/2].


def g(t: float) -> float:
    return _g(_real("t", t, 0.0, 0.5, "()"), math.log)


def kappa(t: float) -> float:
    """Negative derivative of g."""
    return _kappa(_real("t", t, 0.0, 0.5, "()"), math.log)


def Phi(t: float) -> float:
    return _Phi(_real("t", t, 0.0, 0.5, "()"), math.log)


def beta(q: float, t: float) -> float:
    """h_b(conv(q, t)) - h_b(t); vanishes at t = 1/2 and at q = 0."""
    _real("q", q, 0.0, 0.5)
    _real("t", t, 0.0, 0.5, "(]")
    return h_b(conv(q, t)) - h_b(t)


def phi(q: float, t: float) -> float:
    """Negative t-derivative of beta(q, .)."""
    _real("q", q, 0.0, 0.5)
    return _phi(q, _real("t", t, 0.0, 0.5, "()"), math.log)


def nu(q: float, t: float) -> float:
    _real("q", q, 0.0, 0.5)
    return _nu(q, _real("t", t, 0.0, 0.5, "()"))


def psi(t: float) -> float:
    # kappa checks t
    return (1.0 - 2.0 * t) * kappa(t) / g(t)


def vartheta(t: float) -> float:
    """Phi(t) * R(t); strictly decreasing on (0, 1/2)."""
    # Phi checks t
    return Phi(t) * R(t)


def R(t: float) -> float:
    """Rate log 2 - h_b(t); equals the BSC(t) capacity."""
    return NAT_LOG2 - h_b(_real("t", t, 0.0, 0.5, "(]"))


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
