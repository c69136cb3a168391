"""Independent exact and brute-force checks for the closed forms.

Tiny instances are solved outright: every encoder table is enumerated (up
to XOR translation and coordinate permutations), decoding is the exact
posterior-majority rule, and all expectations stay in integer arithmetic
until the final division.
The grid verifiers scan the scalar inequalities over dense boxes.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

from ._orbits import _orbit_costs, _scan_cells, _table_cost, _triple_costs, _type_cost, _type_costs
from ._scalar_opt import Lcg64
from .binary_info import (DEFAULT_BUDGET, NAT_LOG2, BudgetExceeded, DomainError, _clamp, _conv,
                          _count, _end, _g, _h, _hconv, _hinv_np, _hp, _kappa, _mgl_inv, _nu,
                          _outside, _phi, _Phi, _real, _repr, conv, h_b)


# ---------- result containers ----------


class ExactValue(namedtuple("ExactValue", "value")):
    """A number carried as an exact rational."""

    __slots__ = ()
    mode = "exact"

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return "ExactValue(value=%s)" % _repr(self.value)


class EncoderTable(namedtuple("EncoderTable", "m n codewords")):
    """Deterministic encoder: source word i (m bits) maps to codewords[i] (n bits)."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, codewords: tuple[int, ...]):
        # len == 2^m, without forming 2^m for an m no table can match
        size = len(codewords)
        if size.bit_length() != m + 1 or size & (size - 1):
            raise ValueError("need one codeword per source word")
        # c < 2^n, without forming 2^n for an n no budget admits
        if any(c < 0 or int(c).bit_length() > n for c in codewords):
            raise ValueError("codeword out of range")
        return super().__new__(cls, m, n, codewords)

    @property
    def index(self) -> int:
        # lexicographic rank of the full table, codewords[0] most significant
        r = 0
        for c in self.codewords:
            r = r << self.n | c
        return r

    def words(self) -> list[str]:
        return [format(c, "0%db" % self.n) for c in self.codewords]


class FrontierPoint(namedtuple("FrontierPoint", "d1 d2 encoder_index")):
    __slots__ = ()


class ViolationReport(namedtuple("ViolationReport",
                                 "inequality grid max_violation argmax violations")):
    __slots__ = ()


# ---------- exact search machinery ----------


def _as_fraction(name, x) -> Fraction:
    """A crossover probability as an exact rational in (0, 1/2). Floats are
    checked first, then read through their decimal repr, so 0.1 means 1/10.
    The rational is checked exactly, not by its float as _real checks it, so
    Fraction(1, 10**400) is taken."""
    if isinstance(x, float):
        x = str(_real(name, x, 0.0, 0.5, "()"))
    x = Fraction(x)
    if 0 < x < Fraction(1, 2):
        return x
    raise DomainError(_outside(name, x, 0, 0.5, "()", False))


def _encoder_costs(m, n, wtabs):
    """Integer decoding cost of encoder tables, one array per weight table,
    followed by the ascending int64 array of the tables' ranks; at m = 1,
    lists of Python ints, made without numpy. Callers admit the search and
    its weights (_admit) first; nothing here refuses.

    The cost of an encoder under weights w is
        sum_y sum_j min(A_j(y), S(y) - A_j(y)),
    S(y) = sum_s W[c_s, y] with W[x, y] = w[popcount(x ^ y)], and A_j the
    same sum restricted to source words with bit j set: the Bayes-optimal
    per-bit decoding error in weight units. A table's rank is its
    lexicographic rank (EncoderTable.index).

    Codeword 0 is pinned to the zero word, and a table is scanned when its
    first L = min(2^m - 1, 3) free codewords are a canonical prefix
    (_orbits._canonical_prefixes), least in their orbit under permutations
    of the n coordinates, with all of its T = 2^m - 1 - L later codewords:
    one table per orbit at m <= 2. This loses no minimum and no lowest-rank
    witness for any weight-only channel. XOR by c_0 and any permutation of
    the n coordinates keep every Hamming distance, so they keep every
    table's cost. XOR by c_0 gives c_0 = 0 and, when c_0 was not already 0,
    a smaller rank; the permutations keep c_0 = 0. A permutation that makes
    a table's prefix least either leaves it alone, so the table is scanned,
    or makes it strictly smaller, and with it the rank. So the lowest-rank
    table with any cost, or any tuple of costs under several weight tables,
    has c_0 = 0 and is scanned. The kernels in _orbits sum the costs.
    """
    if m == 1:
        return _type_costs(n, wtabs)
    if m == 2:
        return _orbit_costs(n, wtabs)
    return _triple_costs(m, n, wtabs)


_HOLDS = "search would hold %s bytes of arrays, cap is %d"
# cap on the bytes of the arrays one brute-force search holds at once
_ARRAY_BYTES = 1 << 31


def _cap(budget):
    """budget as an int, or math.inf, which never binds; NaN and -inf raise.
    An int of any size is a budget, even one with no float."""
    if isinstance(budget, int) or budget == math.inf:
        return budget
    try:
        return int(_real("budget", budget))
    except DomainError as exc:
        raise DomainError("%s; math.inf is accepted too, for no budget" % exc) from None


def _charge(budget, work, needs, *counts):
    """BudgetExceeded("<needs % counts>, budget is <budget>") when work passes
    _cap(budget); each count is shown by _end, so no digit limit can bind."""
    if work > _cap(budget):
        raise BudgetExceeded("%s, budget is %s" % (needs % tuple(map(_end, counts)), budget))


def _admit(m, n, budget, weights=1, held=0, table=None, base=1):
    """The tables S a search scans and a bound on the bytes of its arrays;
    BudgetExceeded, before any array or weight is made, when the bound passes
    _ARRAY_BYTES or the work passes budget. table is a given table's
    codewords, None for a search. At m = 1 the work (_charge) is a search's
    weights C(n + 3, 3) _orbits._type_cost terms, or a given table's (n - w
    + 1)(w + 1), w = popcount(c_0 ^ c_1), each of n (bit_length(base) + 1)
    bits. From m = 2 on it is the S N = C 2^e, e = n (2^m - 3), (encoder,
    output) pairs of _encoder_costs's scan; C = S = 1, e = n for a given
    table. Weights up to base^n (base = b - a in p2p_bruteforce, 1 on a
    sphere) must not overflow its int64 sums: m 2^m N base^n < 2^62. No
    refusal forms 2^m, 2^e or base^n. The bound is 8 bytes a cell: the
    kernel's _orbits._scan_cells, the ranks, each weight table's costs and
    held S-long arrays.
    """
    if m == 1:
        if table is None:
            tables, terms = n + 1, weights * math.comb(n + 3, 3)
        else:
            w = (int(table[0]) ^ int(table[1])).bit_count()
            tables, terms = 1, (n - w + 1) * (w + 1)
        bits = n * (base.bit_length() + 1)
        _charge(budget, terms * bits, "search needs %s orbit terms x %s bits", terms, bits)
    else:
        cap = _cap(budget)
        C = 1 if table is not None else math.comb(n + 7, n)
        # past m = 256, e >= 2^255 passes every bit length here: shown, not formed
        e = n if table is not None else n * ((1 << m) - 3) if m <= 256 else None
        shown = _end(e) if e is not None else "(%s (2^%s - 3))" % (_end(n), _end(m))
        if cap != math.inf and (e is None or e >= cap.bit_length() or C << e > budget):
            raise BudgetExceeded("search needs %s x 2^%s (encoder, output) pairs, budget is %s"
                                 % (_end(C), shown, budget))
        if e is None or e + 3 >= _ARRAY_BYTES.bit_length():
            raise BudgetExceeded(_HOLDS % ("at least 8 x 2^" + shown, _ARRAY_BYTES))
        tables = C << (e - n)
    size = 8 * (_scan_cells(m, n, weights, table is not None) + (1 + weights + held) * tables)
    if size > _ARRAY_BYTES:
        raise BudgetExceeded(_HOLDS % (size, _ARRAY_BYTES))
    if m > 1 and (m + n * base.bit_length() >= 62 or (m << m + n) * base ** n >= 1 << 62):
        raise BudgetExceeded("integer costs would overflow int64 accumulators")
    return tables, size


def encoder_from_index(m: int, n: int, index: int) -> EncoderTable:
    """Inverse of EncoderTable.index. BudgetExceeded, before 2^m is formed,
    when the 2^m codewords at 8 bytes each would pass _ARRAY_BYTES."""
    m = _count("m", m)
    n = _count("n", n)
    if m + 3 >= _ARRAY_BYTES.bit_length():
        raise BudgetExceeded(_HOLDS % ("at least 8 x 2^" + _end(m), _ARRAY_BYTES))
    K = 1 << m
    # index < N^K = 2^(n K); past 2^20 bits N^K is formed only for an index
    # that has more bits, to word the refusal
    nK = n * K
    index = _count("index", index, 0, (1 << nK) - 1 if nK <= 1 << 20 else math.inf)
    if index.bit_length() > nK:
        _count("index", index, 0, (1 << nK) - 1)
    # a mask no wider than index: 2^n is not formed
    mask = (1 << min(n, index.bit_length())) - 1
    return EncoderTable(m, n, tuple((index >> n * (K - 1 - s)) & mask for s in range(K)))


def _first_least(costs) -> int:
    """The index of the first least cost in a list or an int64 array."""
    return costs.index(min(costs)) if isinstance(costs, list) else int(costs.argmin())


def p2p_bruteforce(m, n, delta, budget=DEFAULT_BUDGET):
    """Exact optimal per-bit Hamming distortion of the best 2^m -> 2^n code
    over a memoryless flip channel with crossover delta.

    delta must be rational (floats are read as decimals). The channel weight
    of an output at distance d from the codeword is a^d (b-a)^(n-d) with
    delta = a/b, so the optimum is the integer cost minimum divided by
    m 2^m b^n. Returns (ExactValue, EncoderTable witness); the witness is
    the lowest-rank minimizing table. _admit holds the search to budget.
    """
    m = _count("m", m)
    n = _count("n", n)
    delta = _as_fraction("delta", delta)
    a, b = delta.numerator, delta.denominator
    _admit(m, n, budget, base=b - a)
    wt = [a ** d * (b - a) ** (n - d) for d in range(n + 1)]
    costs, ranks = _encoder_costs(m, n, [wt])
    best = _first_least(costs)
    value = Fraction(int(costs[best]), m * (1 << m) * b ** n)
    return ExactValue(value), encoder_from_index(m, n, int(ranks[best]))


def sphere_bruteforce(m, n, weight, encoder=None, budget=DEFAULT_BUDGET):
    """Exact per-bit Hamming distortion when the additive noise is uniform
    on the weight-`weight` sphere. Searches all encoders, as p2p_bruteforce
    does, unless one is given: one table (_admit's table).
    """
    m = _count("m", m)
    n = _count("n", n)
    weight = _count("weight", weight, 0, n)
    cw = None
    if encoder is not None:
        cw = encoder.codewords if isinstance(encoder, EncoderTable) else tuple(encoder)
        EncoderTable(m, n, cw)  # validates shape and range
    _admit(m, n, budget, table=cw)
    wt = [1 if d == weight else 0 for d in range(n + 1)]
    denom = m * (1 << m) * math.comb(n, weight)
    if cw is not None:
        # at m = 1 XOR by c_0 and the coordinate permutations keep every distance,
        # so the table costs as the orbit of (0, 2^w - 1), w = popcount(c_0 ^ c_1)
        cost = (_type_cost(n, (int(cw[0]) ^ int(cw[1])).bit_count(), wt) if m == 1
                else _table_cost(m, n, cw, wt))
        return ExactValue(Fraction(cost, denom))
    costs = _encoder_costs(m, n, [wt])[0]
    return ExactValue(Fraction(int(costs[_first_least(costs)]), denom))


def broadcast_frontier(m, n, w1, w2, budget=DEFAULT_BUDGET):
    """Pareto frontier of (d1, d2) over all encoders serving two sphere
    channels of weights w1 and w2 at once. Returns FrontierPoints sorted by
    increasing d1; each carries the lowest-rank encoder achieving the pair.
    budget is as in p2p_bruteforce; the array cap counts the sort's 5 too.
    """
    m = _count("m", m)
    n = _count("n", n)
    w1 = _count("w1", w1, 0, n)
    w2 = _count("w2", w2, 0, n)
    _admit(m, n, budget, weights=2, held=5)  # order, s2, its running min, 2 masks
    t1 = [1 if d == w1 else 0 for d in range(n + 1)]
    t2 = [1 if d == w2 else 0 for d in range(n + 1)]
    c1, c2, ranks = _encoder_costs(m, n, [t1, t2])
    den1 = m * (1 << m) * math.comb(n, w1)
    den2 = m * (1 << m) * math.comb(n, w2)
    # a table is on the frontier when its c2 beats every c2 sorted before it
    # on (c1, c2); both sorts are stable and the ranks ascend, so of tied
    # tables the lowest-rank one comes first
    if m == 1:
        front, least = [], math.inf
        for idx in sorted(range(n + 1), key=lambda i: (c1[i], c2[i])):
            if c2[idx] < least:
                front.append(idx)
                least = c2[idx]
    else:
        import numpy as np

        order = np.lexsort((c2, c1))
        s2 = c2[order]
        keep = np.ones(len(order), dtype=bool)
        keep[1:] = s2[1:] < np.minimum.accumulate(s2)[:-1]
        front = order[keep]
    return [FrontierPoint(Fraction(int(c1[idx]), den1), Fraction(int(c2[idx]), den2),
                          int(ranks[idx]))
            for idx in front]


# ---------- posterior weight ratios ----------


def _binomial_rows(n, delta, k, factors):
    """binomial_gamma_exact's up and down at 0, ..., k, each row from the last
    by four small factors and a^2, (b - a)^2, once factors factors of up to
    row k's 2 k (bit_length(n) + bit_length(b)) bits are charged (_charge)."""
    a, b = delta.numerator, delta.denominator
    bits = 2 * k * (n.bit_length() + b.bit_length())
    _charge(DEFAULT_BUDGET, factors * bits, "binomial needs %s factors x %s bits", factors, bits)
    w, up, down = n * a // b, 1, 1
    yield up, down
    for j in range(k):
        up *= (n - w + j + 1) * (n - w - j) * a * a
        down *= (w - j) * (w + j + 1) * (b - a) * (b - a)
        yield up, down


def binomial_gamma_exact(n, delta, k):
    """Exact posterior split r(k) between the +k and -k deviations of a
    Binomial(n, delta) weight around its mean, and gamma = 2 r - 1.

    n delta must be an integer w with k <= min(w, n - w). Common factors
    cancel, leaving r = C(n,w+k) a^2k / (C(n,w+k) a^2k + C(n,w-k) (b-a)^2k).
    Only the ratio C(n,w+k) / C(n,w-k), the product of (n - j) / (j + 1)
    over j from w - k to w + k - 1, is formed, so the work grows with k, not
    with n. Its 4k factors are charged before any product is formed
    (_binomial_rows, BudgetExceeded). Returns (ratio, gamma) as ExactValues.
    """
    n = _count("n", n)
    delta = _as_fraction("delta", delta)
    w = n * delta
    if w.denominator != 1:
        raise DomainError("n * delta must be an integer")
    k = _count("k", k, 0, min(int(w), n - int(w)))
    for up, down in _binomial_rows(n, delta, k, 4 * k):
        pass
    r = Fraction(up, up + down)
    return ExactValue(r), ExactValue(2 * r - 1)


def binomial_gamma_approx(n, delta, k) -> float:
    """Second-order expansion of the posterior split r(k) for small k/n.

    Needs a positive integer n, an integer k and delta in (0, 1/2). The
    formula is taken in exact rationals, at delta's float, and rounded once;
    DomainError when that value is beyond the float range.
    """
    n = _count("n", n)
    k = _count("k", k, -math.inf)
    d = Fraction(_real("delta", delta, 0.0, 0.5, "()"))
    exact = Fraction(1, 2) + (1 - 2 * d) / (4 * d * (1 - d)) * (
        Fraction(k * k, 3 * n) / (d * (1 - d)) - 1) * Fraction(k, n)
    try:
        return float(exact)
    except OverflowError:
        raise DomainError(f"the expansion at k ~ 2^{abs(k).bit_length()}, "
                          f"n ~ 2^{n.bit_length()} is beyond the float range") from None


# ---------- coupling deviation ----------


def _walk(t, m1, m2, a, b):
    """c_t = sum_j C(m1, j) C(m2, t-j) a^(m2-t+2j) (b-a)^(m1+t-2j), each term
    from the one before; every step and the last term are checked."""
    lo, hi = max(0, t - m2), min(m1, t)

    def closed(j):
        return (math.comb(m1, j) * math.comb(m2, t - j)
                * a ** (m2 - t + 2 * j) * (b - a) ** (m1 + t - 2 * j))

    up, down = a * a, (b - a) * (b - a)
    x = total = closed(lo)
    for j in range(lo, hi):
        x, rem = divmod(x * ((m1 - j) * (t - j) * up), (j + 1) * (m2 - t + j + 1) * down)
        if rem:
            raise AssertionError("inexact step %d of the c_%d walk" % (j, t))
        total += x
    if x != closed(hi):
        raise AssertionError("the c_%d walk missed its last term" % t)
    return total


def coupling_distance_exact(n, delta1, delta2, budget=DEFAULT_BUDGET):
    """Exact mean absolute deviation of T = Bin(n(1-d1), d2) + Bin(n d1, 1-d2)
    around mu = n conv(d1, d2).

    With delta2 = a/b, b^n times the pmf of T is the coefficient list c_t of
        P(x) = (q1 + p1 x)^m1 (q2 + p2 x)^m2,
    (q1, p1, m1) = (b-a, a, n - n d1) and (q2, p2, m2) = (a, b-a, n d1).
    De Moivre's closed form for a binomial carries over (P. Diaconis and
    S. Zabell, Statist. Sci. 6, 1991): F(t) = q1 q2 (t+1) c_{t+1} +
    p1 p2 (n - t) c_t has F(-1) = 0 and F(t) - F(t-1) = b^2 (mu - t) c_t,
    read off at x^t in (q1 + p1 x)(q2 + p2 x) P' = (r0 + n p1 p2 x) P, as
    q1 q2 + p1 p2 + q1 p2 + p1 q2 = b^2 and r0 + n p1 p2 = b^2 mu for
    r0 = m1 p1 q2 + m2 p2 q1. Since sum_t (t - mu) c_t = 0, E|T - mu| =
    2 sum_{t <= k} (mu - t) c_t / b^n = 2 F(k) / b^(n+2) at k = floor(mu),
    so only c_k and c_{k+1} are formed, each by a _walk of at most
    min(m1, m2) exact small-factor steps on integers below b^n.

    Their terms times n bit_length(b), at least the bits of b^n, are held
    against budget before any binomial or power is formed (BudgetExceeded),
    and an n past sys.maxsize, where b^n passes 2^63 bits and math.comb can
    refuse the walk's binomials, is a DomainError.
    Returns an ExactValue rational.
    """
    n = _count("n", n)
    d1 = _as_fraction("delta1", delta1)
    d2 = _as_fraction("delta2", delta2)
    w1 = n * d1
    if w1.denominator != 1:
        raise DomainError("n * delta1 must be an integer")
    m1, m2 = n - int(w1), int(w1)
    a, b = d2.numerator, d2.denominator
    mu = n * (d1 + d2 - 2 * d1 * d2)
    k = mu.numerator // mu.denominator
    terms = sum(min(m1, t) - max(0, t - m2) + 1 for t in (k, k + 1))
    bits = n * b.bit_length()
    _charge(budget, terms * bits, "coupling needs %s walk terms x %s bits", terms, bits)
    if n > sys.maxsize:
        raise DomainError("coupling needs b^n, over 2^63 bits, at n = %s" % _end(n))
    # q1 q2 = p1 p2 = a (b - a)
    f = a * (b - a) * ((k + 1) * _walk(k + 1, m1, m2, a, b) + (n - k) * _walk(k, m1, m2, a, b))
    return ExactValue(Fraction(2 * f, b ** (n + 2)))


# ---------- rate grid search ----------


def _xlogx(x):
    import numpy as np

    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)


def _info_uv(p, q, u01, u10):
    # I(U;V) for S ~ Ber(p), U = S xor Ber(q), test channel P(V=1|S=0)=u01,
    # P(V=0|S=1)=u10; U and V are conditionally independent given S
    p00 = (1 - p) * (1 - q) * (1 - u01) + p * q * u10
    p01 = (1 - p) * (1 - q) * u01 + p * q * (1 - u10)
    p10 = (1 - p) * q * (1 - u01) + p * (1 - q) * u10
    p11 = (1 - p) * q * u01 + p * (1 - q) * (1 - u10)
    hu = _hconv(p, q)
    hv = -_xlogx(p01 + p11) - _xlogx(p00 + p10)
    hj = -_xlogx(p00) - _xlogx(p01) - _xlogx(p10) - _xlogx(p11)
    return hu + hv - hj


# most points on an rbar_grid axis; the grid is scanned in blocks of rows
# (_ROW_CELLS), so the cap bounds time (about 0.7 s at 4,001 on a 2-vCPU
# host), not memory
_RBAR_STEPS_MAX = 4001


def rbar_grid(p, q, d, steps=2001):
    """Smallest I(U;V) over test channels S -> V with mean Hamming distortion
    at most d, by grid scan plus a dense sweep of the distortion-equality line.
    """
    import numpy as np

    p = _real("p", p, 0.0, 0.5, "(]")
    q = _real("q", q, 0.0, 0.5)
    d = _real("d", d, 0.0, p)
    ax = np.linspace(0.0, 1.0, _count("steps", steps, 1, _RBAR_STEPS_MAX))
    # a row or column whose own distortion term exceeds d holds no feasible cell
    rows = ax[(1.0 - p) * ax <= d + 1e-15]
    cols = ax[p * ax <= d + 1e-15][None, :]
    # a min over blocks of rows is the min over the grid
    best = math.inf
    step = max(1, _ROW_CELLS // cols.size)
    for lo in range(0, len(rows), step):
        r = rows[lo:lo + step, None]
        feasible = (1.0 - p) * r + p * cols <= d + 1e-15
        best = min(best, float(np.where(feasible, _info_uv(p, q, r, cols), np.inf).min()))
    hi = min(1.0, d / (1.0 - p))
    u01 = np.linspace(0.0, hi, 200001)
    u10 = np.clip((d - (1.0 - p) * u01) / p, 0.0, 1.0)
    best_line = float(_info_uv(p, q, u01, u10).min())
    return min(best, best_line)


# ---------- auxiliary-channel search ----------


def converse_search_gq(delta1, delta2, t, trials=10000, seed=0, budget=DEFAULT_BUDGET):
    """Best I(W;Y2) found over auxiliary channels W -> X with at most four
    letters, subject to I(X;Y1|W) >= t, where Y1 = X xor Ber(delta1) and
    Y2 = Y1 xor Ber(delta2).

    Runs a seeded symmetric candidate, `trials` random draws from a
    self-contained LCG, then a deterministic coordinate-descent polish of
    the incumbent. Returns -inf when nothing feasible is found. The trials'
    h_b evaluations are held against budget before the first draw
    (BudgetExceeded).
    """
    d1 = _real("delta1", delta1, 0.0, 0.5, "()")
    d2 = _real("delta2", delta2, 0.0, 0.5, "()")
    t = _clamp("t", t, 0.0, NAT_LOG2 - h_b(d1))
    trials = _count("trials", trials, -math.inf)
    _charge(budget, 9 * trials, "search needs %s trials x 9 h_b evaluations", trials)
    c = conv(d1, d2)
    h1 = h_b(d1)
    slop = 1e-12

    def score(p, x):
        i1 = sum(pw * _hconv(xw, d1) for pw, xw in zip(p, x)) - h1
        if i1 < t - slop:
            return None
        xbar = sum(pw * xw for pw, xw in zip(p, x))
        return _hconv(xbar, c) - sum(pw * _hconv(xw, c) for pw, xw in zip(p, x))

    best = -math.inf
    best_cand = None

    def consider(p, x):
        nonlocal best, best_cand
        v = score(p, x)
        if v is not None and v > best:
            best = v
            best_cand = (p, x)

    eta = _mgl_inv(d1, h1 + t, 0.5)
    consider((0.5, 0.5, 0.0, 0.0), (eta, 1.0 - eta, 0.5, 0.5))

    rng = Lcg64(seed)
    for _ in range(trials):
        raw = [rng.uniform() for _ in range(4)]
        tot = sum(raw) or 1.0
        p = tuple(r / tot for r in raw)
        x = tuple(rng.uniform() for _ in range(4))
        consider(p, x)

    if best_cand is None:
        return -math.inf

    # deterministic polish: greedy coordinate steps on the raw weights, kept
    # in [0, inf), then on the letters, kept in [0, 1]
    cur = [list(best_cand[0]), list(best_cand[1])]
    step = 0.25
    for _ in range(60):
        for i in range(4):
            for k, hi in ((0, math.inf), (1, 1.0)):
                for sgn in (1.0, -1.0):
                    cand = [list(cur[0]), list(cur[1])]
                    cand[k][i] = min(hi, max(0.0, cand[k][i] + sgn * step))
                    tot = sum(cand[0])
                    if tot <= 0.0:
                        continue
                    v = score(tuple(w / tot for w in cand[0]), tuple(cand[1]))
                    if v is not None and v > best:
                        best = v
                        cur = cand
        step *= 0.65
    return best


# ---------- grid verification of the scalar inequalities ----------

_BOX_LO = 1e-4
_BOX_HI = 0.5 - 1e-4


def _axis(step):
    import numpy as np

    ax = np.arange(_BOX_LO, _BOX_HI + 0.5 * step, step)
    return ax[ax <= _BOX_HI + 1e-12]


def _span(step):
    return "[%g, %g] step %g" % (_BOX_LO, _BOX_HI, step)


def _report(name, grid, v, axes, tol):
    """Report on the margins v, where axes[k] labels the k-th index of v:
    the first largest margin, the axis values at it, and the count above tol."""
    import numpy as np

    idx = np.unravel_index(int(np.argmax(v)), v.shape)
    return ViolationReport(name, grid, float(v[idx]),
                           tuple(float(a[i]) for a, i in zip(axes, idx)),
                           int((v > tol).sum()))


def _merge(reports):
    """The first report with the largest margin, carrying every report's count."""
    best = max(reports, key=lambda rep: rep.max_violation)
    # _replace builds through _make and skips __new__: safe only because
    # ViolationReport validates nothing; never _replace a validated record
    return best._replace(violations=sum(rep.violations for rep in reports))


# cells in one block of grid rows: a block's temporaries stay near 1 MiB
_ROW_CELLS = 1 << 14


def _scan(name, grid, rows, cols, margins, tol):
    """_merge of the part reports on rows x cols, reduced block by block: for
    rows[r], margins(r) yields each part's margins and its axes after cols."""
    best = {}
    step = max(1, _ROW_CELLS // len(cols))
    for lo in range(0, len(rows), step):
        r = slice(lo, lo + step)
        for k, (v, extra) in enumerate(margins(r)):
            rep = _report(name, grid, v, (rows[r], cols) + extra, tol)
            best[k] = _merge([best[k], rep]) if k in best else rep
    return _merge(list(best.values()))


def _run_mgl_lin(step, tol):
    import numpy as np

    ax = _axis(step)
    tvals = np.linspace(0.0, 1.0, 20) * NAT_LOG2
    us = _hinv_np(tvals)
    h1 = _h(ax, np.log)
    g1 = _g(ax, np.log)
    lhs = [_h(_conv(ax, float(u)), np.log) for u in us]
    grid = "d1,d2 in %s; 20 t values in [0, log 2]" % _span(step)
    def margins(r):
        cc = _conv(ax[r, None], ax[None, :])
        hcc = _h(cc, np.log)
        slope = _g(cc, np.log) / g1[r, None]
        for tval, lh in zip(tvals, lhs):
            yield (hcc + slope * (tval - h1[r, None]) - lh[None, :])[:, :, None], ((tval,),)
    return _scan("mgl-lin", grid, ax, ax, margins, tol)


def _run_g_convex(step, tol):
    import numpy as np

    ax = _axis(step)
    gv = _g(ax, np.log)
    v = gv[1:-1] - 0.5 * (gv[:-2] + gv[2:])
    return _report("g-convex", "t in %s" % _span(step), v, (ax[1:-1],), tol)


def _run_beta_props(step, tol):
    import numpy as np

    ax = _axis(step)
    t = ax[None, :]
    def margins(r):
        q = ax[r, None]
        yield q * _kappa(t, np.log) * _nu(q, t) - _phi(q, t, np.log), ()
        yield _h(_conv(q, t), np.log) - _h(t, np.log) - q * _g(t, np.log), ()
    return _scan("beta-props", "q,t in %s" % _span(step), ax, ax, margins, tol)


def _run_theta_dec(step, tol):
    import numpy as np

    ax = _axis(step)
    th = _Phi(ax, np.log) * (NAT_LOG2 - _h(ax, np.log))
    v = th[1:] - th[:-1]
    return _report("theta-dec", "t in %s" % _span(step), v, (ax[1:],), tol)


def _run_f_lt_1(step, tol):
    import numpy as np

    ax = _axis(step)
    rho = 1.0 + 2.0 * np.arange(1, len(ax) + 1) / len(ax)
    gap = (NAT_LOG2 - _h(ax, np.log))[None, :]
    phi = _Phi(ax, np.log)[None, :]
    def margins(r):
        D = _hinv_np(NAT_LOG2 - rho[r, None] * gap)
        ok = D > 0.0
        f = phi / (rho[r, None] * _Phi(np.where(ok, D, 0.25), np.log))
        yield np.where(ok, f - 1.0, -np.inf), ()
    return _scan("f-lt-1", "rho in (1, 3], delta in %s" % _span(step), rho, ax, margins, tol)


def _run_phi_deriv(step, tol):
    import numpy as np

    ax = _axis(step)
    x = ax[None, :]
    def margins(r):
        dd = ax[r, None]
        deriv = (1.0 - 2.0 * dd) * _hp(_conv(dd, x), np.log) / _hp(x, np.log)
        yield np.maximum(deriv - 1.0, -deriv), ()
    return _scan("phi-deriv-le-1", "delta,x in %s" % _span(step), ax, ax, margins, tol)


_SUITE_RUNNERS = {
    "mgl-lin": _run_mgl_lin,
    "g-convex": _run_g_convex,
    "beta-props": _run_beta_props,
    "theta-dec": _run_theta_dec,
    "f-lt-1": _run_f_lt_1,
    "phi-deriv-le-1": _run_phi_deriv,
}

ALL_SUITES = tuple(_SUITE_RUNNERS)


# most points one grid axis may hold; the suites scan in blocks of rows, so
# the cap bounds time (about 6 s for every suite at 2,000), not memory
_VERIFY_AXIS_MAX_POINTS = 2_000


def verify_inequalities(suites, grid_step=1e-3, tol=1e-9):
    """Scan the named inequality suites on dense grids; one report each.

    A report with violations == 0 means no grid point exceeded tol.
    grid_step must be finite and positive and put 3 to 2,000 points on an
    axis, and tol must be finite. Every argument is checked before any
    suite runs.
    """
    suites = list(suites)
    grid_step = _real("grid_step", grid_step, 0.0, ends="()")
    # the length of the np.arange that _axis builds, checked before it is built
    if ((_BOX_HI + 0.5 * grid_step - _BOX_LO) / grid_step > _VERIFY_AXIS_MAX_POINTS
            or len(_axis(grid_step)) < 3):
        raise DomainError("grid_step must put 3 to %d points on an axis, got %r"
                          % (_VERIFY_AXIS_MAX_POINTS, grid_step))
    tol = _real("tol", tol)
    for name in suites:
        if name not in _SUITE_RUNNERS:
            raise DomainError("unknown suite: %s (choose from %s)"
                              % (name, ", ".join(ALL_SUITES)))
    return [_SUITE_RUNNERS[name](grid_step, tol) for name in suites]
