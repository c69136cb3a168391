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
import sys

NAT_LOG2 = math.log(2.0)


class DomainError(ValueError):
    """An argument left the domain where the requested quantity is defined."""


# the oracles' default work budget; each oracle says what it counts
DEFAULT_BUDGET = 2 ** 32


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive search would exceed its work budget."""


# ---------- the argument checker ----------
# Every argument check of the package goes through _real or _count, so the
# NaN and +-inf policy lives here: a comparison with NaN is False, and the
# -inf < x < inf test catches the infinities an unbounded end lets through.
# An int or a Fraction is checked exactly and through its float, which must
# exist (_float_of) and lie in the interval too: 1/2 - 10**-400 does not for
# [0, 1/2) once it rounds to 1/2. _real returns that float, and its callers
# compute on it only. The exact oracles take a rational as it is, and
# _as_fraction checks it exactly instead.
# The scalar kernel leaves h_b, h_b_inv and conv keep inline comparisons: a
# checker call adds about 300 ns to h_b's ~450 ns (timeit, CPython 3.11 on
# an Intel Xeon). The slack's h_b(conv(., .)), about 570 a binding region
# point, goes through _hconv, which checks nothing.


_FLOAT_MAX = sys.float_info.max


def _within(x, lo, hi, ends) -> bool:
    return ((lo < x if ends[0] == "(" else lo <= x)
            and (x < hi if ends[1] == ")" else x <= hi)
            and -math.inf < x < math.inf)


def _float_of(x) -> float:
    """float(x) for an int or a Fraction, or NaN where it has no float: past
    the float range (10**400), or nonzero with a float of 0 (1/10**400)."""
    if -_FLOAT_MAX <= x <= _FLOAT_MAX:
        f = float(x)
        if f or not x:
            return f
    return math.nan


def _real(name, x, lo=-math.inf, hi=math.inf, ends="[]") -> float:
    """The float of x (x itself for a float), when x and that float are
    finite and lie between lo and hi; the interval is open at an end whose
    bracket in ends is a parenthesis. Else DomainError."""
    f = x if isinstance(x, float) else _float_of(x)
    if _within(x, lo, hi, ends) and (f is x or _within(f, lo, hi, ends)):
        return f
    raise DomainError(_outside(name, x, lo, hi, ends, False))


def _clamp(name, x, lo, hi, below=1e-12):
    """x pulled into [lo, hi]. It may lie up to below under lo or 1e-12
    over hi (floating slop); beyond that _real raises DomainError."""
    return min(max(_real(name, x, lo - below, hi + 1e-12), lo), hi)


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
    return "%s must be %s, got %s" % (name, must, _repr(x))


def _repr(x) -> str:
    """repr of x, but an int, and a Fraction past the int-to-str digit limit,
    by _end: a Fraction of 5000-digit integers reads Fraction(~2^16610, 3)."""
    if isinstance(x, int):
        return _end(x)
    try:
        return repr(x)
    except ValueError:
        return "Fraction(%s, %s)" % (_end(x.numerator), _end(x.denominator))


def _end(b) -> str:
    if isinstance(b, int) and b.bit_length() > 256:
        # an encoder rank or a count can run to thousands of digits
        return "-" * (b < 0) + "~2^%d" % b.bit_length()
    return "%g" % b if isinstance(b, float) else str(b)


# ---------- one formula per measure, for floats and arrays alike ----------
# No checks: callers keep every log argument positive.


def _h(x, log):
    return -x * log(x) - (1.0 - x) * log(1.0 - x)


def _conv(a, b):
    return a + b - 2.0 * a * b


def _hp(x, log):
    return log((1.0 - x) / x)


# (1 - x) / x overflows for x below about 5.6e-309, and so does nu's
# q (1 - 2t) / t: h_b_prime takes x, and the catalog's measures of t take t,
# from the smallest normal float up. Below it they would return inf, 0 or NaN.
_X_MIN = sys.float_info.min


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
        raise DomainError(f"h_b needs x in [0, 1], got {_repr(x)}")
    if x == 0.0 or x == 1.0:
        return 0.0
    try:
        return _h(x, math.log)
    except ValueError:  # a Fraction is taken as its float, here 0 or 1
        return 0.0


# h_b_inv's answers are defined by a bisection: 46 halvings of [0, 1/2]
# (the first width <= 1e-14), each keeping the right half when _h(mid) < t,
# so every answer is the midpoint of a cell 2^-47 wide. Below h_b(5 cells)
# ~ 1.1e-12 those cells are coarse against the root, so h_b_inv takes a
# Newton root there. The cutoff sits at h_b of a cell edge: every Newton
# root is at most that edge, up to rounding, every bisection answer above
# the cutoff at least half a cell beyond it, so h_b_inv stays
# nondecreasing across it.
#
# Above the cutoff h_b_inv returns the bisection's float without making all
# of its 46 evaluations. The bisection's mids are the integers m in
# (0, 2^46), in units of 2^-47, and its answer depends only on the 46
# decisions _h(m) < t. Let fl(_h(y)) lie within H = _H_ERR of the exact
# h(y) for every float y in (0, 1/2]. Take p in (0, 1/2), F within H of
# h(p), s within e of h'(p), the Newton root x = p + (t - F) / s, w = 3H / s
# and D = (|t - F| + 3H) / s, which bounds the distance from p to x - w and
# to x + w. Then:
# - h is concave, so its tangent at p lies above it, and every mid m <= x - w
#   has fl(_h(m)) <= F + 2H + h'(p) (x - w - p) <= t - H + e D;
# - h increases on [0, 1/2] and lies at most D^2 / (2c) below that tangent
#   on [p - D, p + D] (Taylor), c the least y (1 - y) between p and x + w,
#   so every mid m in [x + w, 1/2) has fl(_h(m)) >= t + H - e D - D^2 / (2c).
# With logs within L ulps, e <= (2L + 1) u s + (4L log 2 + 1) u, so
# D + |t - F| < 2^-6 keeps e D below u for L <= 8; and as c >= (p - D) / 2,
# 2 D^2 <= H (p - D) keeps D^2 / (2c) below H / 2. Forming x -+ w rounds by
# at most u x twice, under u in h (x s < 0.3). So under the first condition
# every mid <= x - w lies left of the root, and under both every mid
# >= x + w right of it. A side whose condition fails reaches the end of the
# grid instead: a poor p only widens the window. h_b_inv takes p one Newton
# step from a fitted start (below), so two steps reach x, and the logs at p
# give both the second step and the proof.
#
# The forward error model (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., 2002, ch. 3): each float operation is exact times
# (1 + d) with |d| <= u = 2^-53, and the libm log within 1 ulp (2u
# relative). Then -x log x carries 3u of its value, (1 - x) log(1 - x) 4u
# plus u from rounding 1 - x inside the log, and the final subtraction u of
# h, so |fl(_h(x)) - h(x)| <= (5 log 2 + 1) u + O(u^2) ~ 4.5u. _H_ERR takes
# 8u, which also covers a libm log within 2 ulps. With a log within L ulps
# the bound is ((2L + 3) log 2 + 1) u, and _hinv_np's _H_ERR_NP = 16u rests
# on np.log within 8 ulps of the exact log (14.2u, so 1.8u to spare).
# tests/test_binary_info.py asserts np.log within 7 ulps of math.log, itself
# within 1 ulp. The two agree within 1 ulp on an AVX-512 Xeon (numpy 2.4),
# so np.log keeps a margin of 6 ulps there. For F and s at p, h_b_inv takes
# log2(p) log 2 and log1p(-p), both checked there to lie within 2 ulps.
_NEWTON_EDGE = 5.0 * 2.0 ** -47
_NEWTON_CUTOFF = h_b(_NEWTON_EDGE)
_H_ERR = 8.0 * 2.0 ** -53
_H_ERR_NP = 2.0 * _H_ERR


def h_b_inv(t: float) -> float:
    """Inverse of h_b on [0, 1/2], extended to return 0 for every t <= 0.

    Returns the midpoint of the 2^-47-wide cell that 46 halvings of [0, 1/2]
    leave around the root, so within 7.1e-15 of it, except for
    0 < t <= ~1.1e-12, where a Newton root keeps the relative accuracy that
    h_b itself has there. NaN raises DomainError.

    Above ~1.1e-12 the result is the bisection's float, bit for bit, from
    two Newton steps and about 0.3 evaluations of h_b instead of 46:
    _proved_window finds the few grid mids whose side of the root is in
    doubt, and the bisection is replayed on the integer grid from the
    dyadic block that holds them, as in _hinv_np. Near t = log 2, where
    h_b' vanishes, the window widens and holds more mids. A side whose
    proof fails reaches the end of the grid, and with both failing the
    replay makes all 46 evaluations of the bisection itself.
    """
    if t <= 0.0:
        return 0.0
    if not t <= NAT_LOG2 + 1e-12:
        raise DomainError(f"h_b_inv needs t <= log 2, got {_repr(t)}")
    if t >= NAT_LOG2:
        return 0.5
    if t <= _NEWTON_CUTOFF:
        # t / (1 - 2 log t) lies left of the root, and underflows to 0 only
        # where the root lies below the smallest float, as it does for a
        # Fraction whose float is 0
        x = t / (1.0 - 2.0 * math.log(t)) if float(t) else 0.0
        return _newton(t, x) if x > 0.0 else 0.0
    below, b = _proved_window(t)
    # the bisection reaches the least dyadic block (lo, hi) that holds the
    # window, as every mid on its way lies outside it, and halves from there
    k = (below ^ (b - 1)).bit_length()
    lo = below >> k << k
    hi = lo + 2 ** k
    while hi - lo > 1:
        m = (lo + hi) >> 1
        if m <= below or (m < b and _h(m * 2.0 ** -47, math.log) < t):
            lo = m
        else:
            hi = m
    return (2 * lo + 1) * 2.0 ** -48


def _proved_window(t: float):
    """(below, b) for _NEWTON_CUTOFF < t < log 2, in units of 2^-47: the
    bisection finds every grid mid m <= below left of the root and every
    m >= b right of it, and only below < m < b are in doubt; a failed side
    reaches 0 or 2^46. One Newton step from the fitted start reaches p, and
    the logs at p give both the second step, to the root x, and the proof
    that settles the mids outside [x - w, x + w] (the comment above _H_ERR)."""
    x = _start_high(t, math.sqrt) if t >= 0.1 else _start_low(t, math.log2)
    # log2 and log1p take about a third of math.log's time, whose optional
    # base is parsed on every call; the replay keeps math.log, as h_b does
    lx, l1x = math.log2(x) * NAT_LOG2, math.log1p(-x)
    p = x + (t + x * lx + (1.0 - x) * l1x) / (l1x - lx)
    if not 0.0 < p < 0.5:
        # kept inside (0, 1/2), as _newton keeps its steps
        p = 0.5 * (x + 0.5) if p > x else 0.5 * x
    xa, xb, left, right = _window(t, p, math.log2(p) * NAT_LOG2, math.log1p(-p), _H_ERR)
    below = math.floor(xa * 2.0 ** 47) if left and xa > 0.0 else 0
    return below, math.ceil(xb * 2.0 ** 47) if right and xb < 0.5 else 2 ** 46


def _window(t, p, lx, l1x, err):
    """(x - w, x + w, left, right) around the Newton root x from p, for
    floats and arrays alike, given lx ~ log p and l1x ~ log(1 - p) and err
    bounding |fl(_h) - h|: left says that every grid mid <= x - w lies left
    of the root, right that every mid >= x + w lies right of it (the
    comment above _H_ERR)."""
    s = l1x - lx
    r = t - (-p * lx - (1.0 - p) * l1x)
    x, w, d = p + r / s, 3.0 * err / s, (abs(r) + 3.0 * err) / s
    return x - w, x + w, d + abs(r) < 2.0 ** -6, 2.0 * d * d <= err * (p - d)


# The start: within 2e-4 of the root, relative to min(x, 1/2 - x), for
# every t above the cutoff, so that one Newton step leaves D^2 far below
# H p / 2 for the second. For t >= 0.1 it is 1/2 - sqrt(S) P(S) with
# S = log 2 - t, formed in two parts so that it keeps its relative accuracy
# up to t = log 2, where the root is 1/2 - sqrt(S / 2) (1 + O(S)); below
# 0.1, t / Q(log2 t), as t / x = -log x + 1 + O(x). P (degree 5) and Q
# (degree 7) are least-squares fits on 300 Chebyshev nodes, reweighted
# toward their largest errors, to roots taken to 40 digits; their largest
# errors are 5.0e-5 on [0.1, log 2) and 1.7e-4 on [1.1e-12, 0.1]
# (tools/fit_hinv_start.py refits and rechecks them).
_LN2_LO = 2.3190468138462996e-17  # log 2 - NAT_LOG2


def _start_high(t, sqrt):
    s = (NAT_LOG2 - t) + _LN2_LO
    return 0.5 - sqrt(s) * (0.7071414078176834 + s * (
        -0.12041320003327856 + s * (0.005771220697744554 + s * (
            -0.1575872149084829 + s * (0.27868152980266386 + s * -0.22836922200282322)))))


def _start_low(t, log2):
    v = log2(t)
    return t / (1.6822839484622136 + v * (-1.0747141757869194 + v * (
        -0.04401988532998535 + v * (-0.0035596664715715617 + v * (
            -0.00017677302729599646 + v * (-5.131847609832534e-06 + v * (
                -7.960091164310092e-08 + v * -5.080119779877501e-10)))))))


def _newton(t: float, x: float) -> float:
    """x after at most 200 Newton steps on h(x) = t from x in (0, 1/2). h
    is concave, so a step from the left climbs toward the root without
    passing it, and one from the right lands left of it. The steps keep to
    a bracket that starts as (0, 1/2) and shrinks to the root's side of each
    x, bisecting where rounding noise or a far first step would leave it,
    so x stays where h' > 0. The loop stops early once a step no longer
    moves x."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        # _h's arithmetic: below 1e-12 the root round-trips through h_b
        lx, l1x = math.log(x), math.log(1.0 - x)
        hp = l1x - lx
        f = -x * lx - (1.0 - x) * l1x - t
        step = x - f / hp
        if f < 0.0:
            lo = x
            if not step < hi:
                step = 0.5 * (x + hi)
        else:
            hi = x
            if not step > lo:
                step = 0.5 * (lo + x)
        if step == x:
            break
        x = step
    return x


def _hinv_np(t):
    """h_b_inv on an array, by the verify suites' own rule: the float that
    60 halvings of [0, 1/2] leave, mid = 0.5 (lo + hi) and the right half
    kept where _h(mid, np.log) < t, then 0 where t <= 0 and 1/2 where
    t >= log 2 (a NaN t gives 2^-62).

    Bit for bit, with fewer halvings: as in h_b_inv, two Newton steps from
    the fitted start and the proof at the root (the comment above _H_ERR,
    with _H_ERR_NP for np.log) settle every mid outside a window. The
    first k halvings then only walk to the level-k dyadic block that holds
    the window; for k <= 50 its ends, and the walk's sums and mids, are
    exact floats. So each cell starts from that block and makes the other
    60 - k halvings with the same float ops, or fewer where the last ones
    can no longer change its answer. A side of the window whose proof fails
    reaches 0 or 1/2, and a cell with t <= 0 or t >= log 2 makes no halving.
    """
    import numpy as np

    shape = np.shape(t)
    t = np.asarray(t, dtype=float).ravel()
    lo, hi, halvings = _start_np(t)
    # sorted by their halvings, the cells that halving i makes (more than
    # 59 - i halvings) are a suffix
    order = np.argsort(halvings)
    lo, hi, ts = lo[order], hi[order], t[order]
    starts = np.searchsorted(halvings[order], np.arange(60, 0, -1))
    for i in starts[starts < len(t)]:
        l, h = lo[i:], hi[i:]
        mid = 0.5 * (l + h)
        below = _h(mid, np.log) < ts[i:]
        lo[i:], hi[i:] = np.where(below, mid, l), np.where(below, h, mid)
    out = np.empty_like(t)
    out[order] = 0.5 * (lo + hi)
    out = np.where(t <= 0.0, 0.0, out)
    return np.where(t >= NAT_LOG2, 0.5, out).reshape(shape)


def _start_np(t):
    """Each cell's start in _hinv_np, for a 1-d array t: the dyadic block
    (lo, hi) that holds its proved window, and the halvings it makes. The
    window is _proved_window's (below, b) in units of 2^-51, from the same
    fitted start, Newton step and _window proof, with np.log and _H_ERR_NP."""
    import numpy as np

    # only a cell with 0 < t < log 2 has a window to find; any other starts
    # from [0, 1/2] and makes no halving (_hinv_np sets its answer), but a
    # NaN t, which makes all 60
    inside = (0.0 < t) & (t < NAT_LOG2)
    start = np.zeros_like(t), np.full_like(t, 0.5), np.where(np.isnan(t), 60, 0)
    t = t[inside]
    with np.errstate(all="ignore"):
        x = np.where(t >= 0.1, _start_high(t, np.sqrt), _start_low(t, np.log2))
        lx, l1x = np.log(x), np.log(1.0 - x)
        p = x + (t + x * lx + (1.0 - x) * l1x) / (l1x - lx)
        p = np.where((0.0 < p) & (p < 0.5), p, 0.5 * (x + np.where(p > x, 0.5, 0.0)))
        xa, xb, left, right = _window(t, p, np.log(p), np.log(1.0 - p), _H_ERR_NP)
        # the window in units of 2^-51, out to 0 or 2^50 on a failed side
        a = np.where(left & (xa > 0.0), np.floor(xa * 2.0 ** 51), 0.0).astype(np.int64)
        b = np.where(right & (xb < 0.5), np.ceil(xb * 2.0 ** 51), 2.0 ** 50).astype(np.int64)
    # a < b, and the block of level 50 - s holds [a, b], s the bit length
    # of a ^ (b - 1)
    s = np.frexp((a ^ (b - 1)).astype(float))[1]
    lo = np.ldexp((a >> s << s).astype(float), -51)
    # From level 50 on, a block [lo, hi] with lo in [2^(p-1), 2^p) needs at
    # most 2 - p more halvings: each mid is exact while half the width is at
    # least ulp(lo), so these leave lo and hi one float apart; 0.5 (lo + hi)
    # then rounds to lo or hi, and every later halving keeps that answer
    tail = np.where(lo > 0.0, np.minimum(10, 2 - np.frexp(lo)[1]), 10)
    for out, cells in zip(start, (lo, lo + np.ldexp(1.0, s - 51), s + tail)):
        out[inside] = cells
    return start


def conv(a: float, b: float) -> float:
    """Binary convolution a(1-b) + b(1-a)."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise DomainError(f"conv needs arguments in [0, 1], got {_repr(a)}, {_repr(b)}")
    return _conv(a, b)


def h_b_prime(x: float) -> float:
    """Derivative of h_b: log((1-x)/x), for x in [_X_MIN, 1)."""
    return _hp(_real("x", x, _X_MIN, 1.0, "[)"), math.log)


def _hconv(a, b):
    # h_b(conv(a, b)) for a and b in [0, 1], without checks, in one frame:
    # _conv's and _h's float operations in their order, so it is == to the
    # two calls. The slack and the Gerber map take one per q they visit
    x = a + b - 2.0 * a * b
    if 0.0 < x < 1.0:
        return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)
    return 0.0


def _mgl(delta, t):
    return _hconv(delta, h_b_inv(t))


def _mgl_inv(a, t, hi):
    # the d solving h_b(conv(a, d)) = t, clamped to [0, hi]; needs a < 1/2
    return min(max((h_b_inv(t) - a) / (1.0 - 2.0 * a), 0.0), hi)


def mgl_phi(delta: float, t: float) -> float:
    """The Gerber map h_b(conv(delta, h_b_inv(t))): convex and nondecreasing in t."""
    delta = _real("delta", delta, 0.0, 0.5)
    return _mgl(delta, _real("t", t, 0.0, NAT_LOG2 + 1e-12))


# h_b_inv(t) is _X_MIN here, and _hp is finite and positive from there up
_T_MIN = h_b(_X_MIN)


def mgl_phi_deriv(delta: float, t: float) -> float:
    """d/dt of mgl_phi(delta, .), in (0, 1] for t in [_T_MIN, log 2)."""
    delta = _real("delta", delta, 0.0, 0.5, "[)")
    # singular at t=0, indeterminate 0/0 at t=log 2
    x = h_b_inv(_real("t", t, _T_MIN, NAT_LOG2, "[)"))
    # x is in [_X_MIN, 1/2), and conv(delta, x) = x + delta (1 - 2x) in [x, 1/2]
    return (1.0 - 2.0 * delta) * _hp(_conv(delta, x), math.log) / _hp(x, math.log)


# ---------- catalog of derived scalar functions ----------
# t-arguments live in [_X_MIN, 1/2); beta and R accept every t in (0, 1/2],
# where both are finite (0 at t = 1/2). q-arguments live in [0, 1/2].


def _t(t):
    return _real("t", t, _X_MIN, 0.5, "[)")


def g(t: float) -> float:
    return _g(_t(t), math.log)


def kappa(t: float) -> float:
    """Negative derivative of g."""
    return _kappa(_t(t), math.log)


def Phi(t: float) -> float:
    return _Phi(_t(t), math.log)


def beta(q: float, t: float) -> float:
    """h_b(conv(q, t)) - h_b(t); vanishes at t = 1/2 and at q = 0."""
    q = _real("q", q, 0.0, 0.5)
    t = _real("t", t, 0.0, 0.5, "(]")
    return _hconv(q, t) - h_b(t)


def phi(q: float, t: float) -> float:
    """Negative t-derivative of beta(q, .)."""
    return _phi(_real("q", q, 0.0, 0.5), _t(t), math.log)


def nu(q: float, t: float) -> float:
    return _nu(_real("q", q, 0.0, 0.5), _t(t))


def psi(t: float) -> float:
    t = _t(t)
    return _kappa(t, math.log) * (1.0 - 2.0 * t) / _g(t, math.log)


def vartheta(t: float) -> float:
    """Phi(t) * R(t); strictly decreasing on (0, 1/2)."""
    t = _t(t)
    return _Phi(t, math.log) * _rate(t)


def R(t: float) -> float:
    """Rate log 2 - h_b(t); equals the BSC(t) capacity."""
    return _rate(_real("t", t, 0.0, 0.5, "(]"))


def _rate(t):
    # log 2 - h_b(t) for t in (0, 1/2]. The difference cancels toward 1/2,
    # where it keeps no digit, so from 3/16 up it is (log1p(-x^2) +
    # 2x atanh(x)) / 2 with x = 1 - 2t, exact from 1/4 up and within 2^-54
    # below. Each form keeps R within 9e-16 relative on its side of 3/16,
    # where the difference alone reached 1.4e-15 just below 1/4
    if t < 0.1875:
        return NAT_LOG2 - h_b(t)
    x = 1.0 - 2.0 * t
    return 0.5 * (math.log1p(-x * x) + 2.0 * x * math.atanh(x))


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
