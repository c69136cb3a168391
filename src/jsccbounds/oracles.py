"""Independent exact and brute-force checks for the closed forms.

Tiny instances are solved outright: every encoder table is enumerated (up
to XOR translation), decoding is the exact posterior-majority rule, and
all expectations stay in integer arithmetic until the final division.
The grid verifiers scan the scalar inequalities over dense boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._scalar_opt import Lcg64
from .binary_info import (NAT_LOG2, DomainError, _conv, _g, _h, _hp, _kappa, _nu,
                          _phi, _Phi, conv, h_b, h_b_inv)

DEFAULT_BUDGET = 2 ** 32


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive search would exceed its work budget."""


# ---------- result containers ----------


@dataclass(frozen=True)
class ExactValue:
    """A number carried either as an exact rational or as a float."""

    value: Fraction | float
    mode: str = "exact"

    def __post_init__(self):
        if self.mode not in ("exact", "float"):
            raise ValueError("mode must be 'exact' or 'float'")

    def __float__(self):
        return float(self.value)


@dataclass(frozen=True)
class EncoderTable:
    """Deterministic encoder: source word i (m bits) maps to codewords[i] (n bits)."""

    m: int
    n: int
    codewords: tuple[int, ...]

    def __post_init__(self):
        if len(self.codewords) != 1 << self.m:
            raise ValueError("need one codeword per source word")
        if any(not 0 <= c < (1 << self.n) for c in self.codewords):
            raise ValueError("codeword out of range")

    @property
    def index(self) -> int:
        # lexicographic rank of the full table, codewords[0] most significant
        N = 1 << self.n
        r = 0
        for c in self.codewords:
            r = r * N + c
        return r

    def words(self) -> list[str]:
        return [format(c, "0%db" % self.n) for c in self.codewords]


@dataclass(frozen=True)
class FrontierPoint:
    d1: Fraction
    d2: Fraction
    encoder_index: int


@dataclass(frozen=True)
class ViolationReport:
    inequality: str
    grid: str
    max_violation: float
    argmax: tuple[float, ...]
    violations: int


# ---------- exact search machinery ----------


def _as_fraction(x) -> Fraction:
    # floats are read through their decimal repr, so 0.1 means 1/10
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


# cached per m or n and shared by every caller, so the arrays are read-only
@lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    import numpy as np

    size = 1 << n
    pc = np.zeros(size, dtype=np.int64)
    for b in range(n):
        pc += (np.arange(size, dtype=np.int64) >> b) & 1
    pc.setflags(write=False)
    return pc


@lru_cache(maxsize=None)
def _bit_groups(m: int) -> tuple[np.ndarray, ...]:
    import numpy as np

    K = 1 << m
    groups = tuple(np.array([s for s in range(K) if (s >> (m - 1 - j)) & 1], dtype=np.int64)
                   for j in range(m))
    for grp in groups:
        grp.setflags(write=False)
    return groups


# cap on the cells of one block of _encoder_costs (output words x tables)
_BLOCK_CELLS = 1 << 16


def _encoder_costs(m, n, wtabs, use_symmetry, budget):
    """Integer decoding cost of every encoder table, one array per weight table.

    The cost of an encoder under weights w is
        sum_y sum_j min(A_j(y), S(y) - A_j(y)),
    S(y) = sum_s W[c_s, y] with W[x, y] = w[popcount(x ^ y)], and A_j the
    same sum restricted to source words with bit j set: the Bayes-optimal
    per-bit decoding error in weight units. Arrays are indexed by the
    lexicographic table rank (with codeword 0 pinned to the zero word when
    use_symmetry is set, which XOR translation makes lossless for any
    weight-only channel).

    With min(A, S - A) = (S - |S - 2A|) / 2, and sum_y S(y) = K sum_y W[0, y]
    the same for every table, the cost is
        (m K sum_y W[0, y] - sum_j sum_y |D_j(y)|) / 2,
    D_j(y) = sum_s sign_j(s) W[c_s, y], sign_j(s) = -1 when source word s
    has bit j set and +1 otherwise. The tables are the Cartesian product of
    the free codewords in rank order, so D_j is a broadcast sum: the
    trailing slots' part is built once as an (N, N^T) array from the
    (N, N) table W, and the leading slots are walked in blocks of prefixes
    whose (N, prefixes, N^T) sums stay within _BLOCK_CELLS cells. All of it
    is exact int64 arithmetic, so the costs equal the direct sums.
    """
    import numpy as np

    K = 1 << m
    N = 1 << n
    free = K - 1 if use_symmetry else K
    num = N ** free
    if num * N > budget:
        raise BudgetExceeded("search needs %d (encoder, output) pairs, budget is %d"
                             % (num * N, budget))
    wmax = max(max(w) for w in wtabs)
    if m * K * N * wmax >= 2 ** 62:
        raise BudgetExceeded("integer costs would overflow int64 accumulators")
    warrs = [np.array(w, dtype=np.int64) for w in wtabs]
    pc = _popcounts(n)
    y = np.arange(N, dtype=np.int64)
    slots = range(K - free, K)
    signs = [[-1 if (s >> (m - 1 - j)) & 1 else 1 for s in range(K)] for j in range(m)]
    # T trailing slots are summed once; the L leading ones are walked per block
    T = 0
    while T < free and N ** (T + 2) <= _BLOCK_CELLS:
        T += 1
    L = free - T
    NT = N ** T
    NL = N ** L
    block = max(1, _BLOCK_CELLS // (N * NT))
    # full[y, c] = popcount(c ^ y); only the trailing slots need all N columns
    full = pc[y[:, None] ^ y[None, :]] if T else None
    row0 = [w[pc] for w in warrs]  # W[0, y]; every row of W has the same sum
    total = [m * K * int(r.sum()) for r in row0]
    base = row0 if use_symmetry else [np.zeros(N, dtype=np.int64)] * len(warrs)
    tails = []
    for w in warrs:
        W = w[full] if T else None
        per_bit = []
        for sg in signs:
            Dt = np.zeros((N, 1), dtype=np.int64)
            for s in slots[L:]:
                Dt = (Dt[:, :, None] + sg[s] * W[:, None, :]).reshape(N, -1)
            per_bit.append(Dt)
        tails.append(per_bit)
    out = [np.empty(num, dtype=np.int64) for _ in wtabs]
    for start in range(0, NL, block):
        cnt = min(block, NL - start)
        e = np.arange(start, start + cnt, dtype=np.int64)
        dists = [pc[y[:, None] ^ ((e // N ** (L - 1 - l)) % N)[None, :]] for l in range(L)]
        for wi, w in enumerate(warrs):
            cols = [w[d] for d in dists]
            acc = np.zeros((cnt, NT), dtype=np.int64)
            for sg, Dt in zip(signs, tails[wi]):
                Dl = np.repeat(base[wi][:, None], cnt, axis=1)
                for s, col in zip(slots[:L], cols):
                    Dl += sg[s] * col
                D = Dl[:, :, None] + Dt[:, None, :]
                acc += np.abs(D, out=D).sum(axis=0)
            out[wi][start * NT:(start + cnt) * NT] = (total[wi] - acc.reshape(-1)) // 2
    return out


def _table_cost(m, n, codewords, wtab) -> int:
    import numpy as np

    K = 1 << m
    N = 1 << n
    pc = _popcounts(n)
    cw = np.asarray(codewords, dtype=np.int64)
    dist = pc[cw[:, None] ^ np.arange(N, dtype=np.int64)[None, :]]
    G = np.array(wtab, dtype=np.int64)[dist]
    S = G.sum(axis=0)
    cost = 0
    for grp in _bit_groups(m):
        A = G[grp].sum(axis=0)
        cost += int(np.minimum(A, S - A).sum())
    return cost


def encoder_from_index(m: int, n: int, index: int) -> EncoderTable:
    """Inverse of EncoderTable.index."""
    K = 1 << m
    N = 1 << n
    if not 0 <= index < N ** K:
        raise DomainError("encoder index out of range")
    codewords = []
    for s in range(K):
        codewords.append((index // N ** (K - 1 - s)) % N)
    return EncoderTable(m, n, tuple(codewords))


def p2p_bruteforce(m, n, delta, use_symmetry=True, budget=DEFAULT_BUDGET):
    """Exact optimal per-bit Hamming distortion of the best 2^m -> 2^n code
    over a memoryless flip channel with crossover delta.

    delta must be rational (floats are read as decimals). The channel weight
    of an output at distance d from the codeword is a^d (b-a)^(n-d) with
    delta = a/b, so the optimum is the integer cost minimum divided by
    m 2^m b^n. Returns (ExactValue, EncoderTable witness); the witness is
    the lowest-rank minimizing table.
    """
    m = int(m)
    n = int(n)
    if m < 1 or n < 1:
        raise DomainError("m and n must be positive")
    delta = _as_fraction(delta)
    if not Fraction(0) < delta < Fraction(1, 2):
        raise DomainError("delta must lie in (0, 1/2)")
    a, b = delta.numerator, delta.denominator
    wt = [a ** d * (b - a) ** (n - d) for d in range(n + 1)]
    costs = _encoder_costs(m, n, [wt], use_symmetry, budget)[0]
    best = int(costs.argmin())
    value = Fraction(int(costs[best]), m * (1 << m) * b ** n)
    return ExactValue(value), encoder_from_index(m, n, best)


def sphere_bruteforce(m, n, weight, encoder=None, budget=DEFAULT_BUDGET):
    """Exact per-bit Hamming distortion when the additive noise is uniform
    on the weight-`weight` sphere. Searches all encoders unless one is given.
    """
    m = int(m)
    n = int(n)
    weight = int(weight)
    if m < 1 or n < 1:
        raise DomainError("m and n must be positive")
    if not 0 <= weight <= n:
        raise DomainError("weight must lie in [0, n]")
    wt = [1 if d == weight else 0 for d in range(n + 1)]
    denom = m * (1 << m) * math.comb(n, weight)
    if encoder is not None:
        cw = encoder.codewords if isinstance(encoder, EncoderTable) else tuple(encoder)
        EncoderTable(m, n, tuple(cw))  # validates shape and range
        return ExactValue(Fraction(_table_cost(m, n, cw, wt), denom))
    costs = _encoder_costs(m, n, [wt], True, budget)[0]
    return ExactValue(Fraction(int(costs.min()), denom))


def broadcast_frontier(m, n, w1, w2, budget=DEFAULT_BUDGET):
    """Pareto frontier of (d1, d2) over all encoders serving two sphere
    channels of weights w1 and w2 at once. Returns FrontierPoints sorted by
    increasing d1; each carries the lowest-rank encoder achieving the pair.
    """
    import numpy as np

    m = int(m)
    n = int(n)
    w1 = int(w1)
    w2 = int(w2)
    if m < 1 or n < 1:
        raise DomainError("m and n must be positive")
    if not (0 <= w1 <= n and 0 <= w2 <= n):
        raise DomainError("weights must lie in [0, n]")
    t1 = [1 if d == w1 else 0 for d in range(n + 1)]
    t2 = [1 if d == w2 else 0 for d in range(n + 1)]
    c1, c2 = _encoder_costs(m, n, [t1, t2], True, budget)
    den1 = m * (1 << m) * math.comb(n, w1)
    den2 = m * (1 << m) * math.comb(n, w2)
    order = np.lexsort((np.arange(len(c1)), c2, c1))
    # a table is on the frontier when its c2 beats every c2 sorted before it
    s2 = c2[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = s2[1:] < np.minimum.accumulate(s2)[:-1]
    return [FrontierPoint(Fraction(int(c1[idx]), den1), Fraction(int(c2[idx]), den2), int(idx))
            for idx in order[keep]]


# ---------- posterior weight ratios ----------


def binomial_gamma_exact(n, delta, k):
    """Exact posterior split r(k) between the +k and -k deviations of a
    Binomial(n, delta) weight around its mean, and gamma = 2 r - 1.

    n delta must be an integer w with k <= min(w, n - w). Common factors
    cancel, leaving r = C(n,w+k) a^2k / (C(n,w+k) a^2k + C(n,w-k) (b-a)^2k).
    Returns (ratio, gamma) as ExactValues.
    """
    n = int(n)
    k = int(k)
    delta = _as_fraction(delta)
    if n < 1:
        raise DomainError("n must be positive")
    if not Fraction(0) < delta < Fraction(1, 2):
        raise DomainError("delta must lie in (0, 1/2)")
    w = n * delta
    if w.denominator != 1:
        raise DomainError("n * delta must be an integer")
    w = int(w)
    if not 0 <= k <= min(w, n - w):
        raise DomainError("k must lie in [0, min(w, n-w)]")
    a, b = delta.numerator, delta.denominator
    up = math.comb(n, w + k) * a ** (2 * k)
    down = math.comb(n, w - k) * (b - a) ** (2 * k)
    r = Fraction(up, up + down)
    return ExactValue(r), ExactValue(2 * r - 1)


def binomial_gamma_approx(n, delta, k) -> float:
    """Second-order expansion of the posterior split r(k) for small k/n.

    Needs n >= 1 and delta in (0, 1/2).
    """
    n = float(n)
    d = float(delta)
    k = float(k)
    if n < 1.0:
        raise DomainError("n must be positive")
    if not 0.0 < d < 0.5:
        raise DomainError("delta must lie in (0, 1/2)")
    lead = (1.0 - 2.0 * d) / (d * (1.0 - d))
    inner = k * k / (3.0 * n * d * (1.0 - d)) - 1.0
    return 0.5 + 0.25 * lead * inner * (k / n)


# ---------- coupling deviation ----------


def coupling_distance_exact(n, delta1, delta2):
    """Exact mean absolute deviation of T = Bin(n(1-d1), d2) + Bin(n d1, 1-d2)
    around n conv(d1, d2).

    The pmf numerators are the coefficients of
        ((b-a) + a x)^(n - n d1) (a + (b-a) x)^(n d1),  delta2 = a/b,
    read off one big-integer product evaluated at x = 2^B with B chosen so
    digits cannot carry. Returns an ExactValue rational.
    """
    n = int(n)
    d1 = _as_fraction(delta1)
    d2 = _as_fraction(delta2)
    if n < 1:
        raise DomainError("n must be positive")
    if not Fraction(0) < d1 < Fraction(1, 2):
        raise DomainError("delta1 must lie in (0, 1/2)")
    if not Fraction(0) < d2 < Fraction(1, 2):
        raise DomainError("delta2 must lie in (0, 1/2)")
    w1 = n * d1
    if w1.denominator != 1:
        raise DomainError("n * delta1 must be an integer")
    w1 = int(w1)
    a, b = d2.numerator, d2.denominator
    B = (b ** n).bit_length()
    base = 1 << B
    prod = ((b - a) + a * base) ** (n - w1) * (a + (b - a) * base) ** w1
    mu = n * (d1 + d2 - 2 * d1 * d2)
    pn, qd = mu.numerator, mu.denominator
    mask = base - 1
    total = 0
    for t in range(n + 1):
        coeff = prod & mask
        prod >>= B
        total += coeff * abs(t * qd - pn)
    return ExactValue(Fraction(total, qd * b ** n))


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
    hu = h_b(conv(p, q))
    hv = -_xlogx(p01 + p11) - _xlogx(p00 + p10)
    hj = -_xlogx(p00) - _xlogx(p01) - _xlogx(p10) - _xlogx(p11)
    return hu + hv - hj


def rbar_grid(p, q, d, steps=2001):
    """Smallest I(U;V) over test channels S -> V with mean Hamming distortion
    at most d, by grid scan plus a dense sweep of the distortion-equality line.
    """
    import numpy as np

    p = float(p)
    q = float(q)
    d = float(d)
    if not 0.0 < p <= 0.5:
        raise DomainError("p must lie in (0, 1/2]")
    if not 0.0 <= q <= 0.5:
        raise DomainError("q must lie in [0, 1/2]")
    if not 0.0 <= d <= p:
        raise DomainError("d must lie in [0, p]")
    ax = np.linspace(0.0, 1.0, steps)
    info = _info_uv(p, q, ax[:, None], ax[None, :])
    feasible = (1.0 - p) * ax[:, None] + p * ax[None, :] <= d + 1e-15
    best = float(np.where(feasible, info, np.inf).min())
    hi = min(1.0, d / (1.0 - p))
    u01 = np.linspace(0.0, hi, 200001)
    u10 = np.clip((d - (1.0 - p) * u01) / p, 0.0, 1.0)
    best_line = float(_info_uv(p, q, u01, u10).min())
    return min(best, best_line)


# ---------- auxiliary-channel search ----------


def converse_search_gq(delta1, delta2, t, trials=10000, seed=0):
    """Best I(W;Y2) found over auxiliary channels W -> X with at most four
    letters, subject to I(X;Y1|W) >= t, where Y1 = X xor Ber(delta1) and
    Y2 = Y1 xor Ber(delta2).

    Runs a seeded symmetric candidate, `trials` random draws from a
    self-contained LCG, then a deterministic coordinate-descent polish of
    the incumbent. Returns -inf when nothing feasible is found.
    """
    d1 = float(delta1)
    d2 = float(delta2)
    t = float(t)
    if not 0.0 < d1 < 0.5 or not 0.0 < d2 < 0.5:
        raise DomainError("delta1 and delta2 must lie in (0, 1/2)")
    cap = NAT_LOG2 - h_b(d1)
    if t < -1e-12 or t > cap + 1e-12:
        raise DomainError("t must lie in [0, log 2 - h_b(delta1)]")
    t = min(max(t, 0.0), cap)
    c = conv(d1, d2)
    h1 = h_b(d1)
    slop = 1e-12

    def score(p, x):
        i1 = sum(pw * h_b(conv(xw, d1)) for pw, xw in zip(p, x)) - h1
        if i1 < t - slop:
            return None
        xbar = sum(pw * xw for pw, xw in zip(p, x))
        return h_b(conv(xbar, c)) - sum(pw * h_b(conv(xw, c)) for pw, xw in zip(p, x))

    best = -math.inf
    best_cand = None

    def consider(p, x):
        nonlocal best, best_cand
        v = score(p, x)
        if v is not None and v > best:
            best = v
            best_cand = (p, x)

    xstar = h_b_inv(h1 + t)
    eta = min(max((xstar - d1) / (1.0 - 2.0 * d1), 0.0), 0.5)
    consider((0.5, 0.5, 0.0, 0.0), (eta, 1.0 - eta, 0.5, 0.5))

    rng = Lcg64(seed)
    for _ in range(int(trials)):
        raw = [rng.uniform() for _ in range(4)]
        tot = sum(raw) or 1.0
        p = tuple(r / tot for r in raw)
        x = tuple(rng.uniform() for _ in range(4))
        consider(p, x)

    if best_cand is None:
        return -math.inf

    # deterministic polish: greedy coordinate steps on raw weights and letters
    r = list(best_cand[0])
    x = list(best_cand[1])
    step = 0.25
    for _ in range(60):
        for i in range(4):
            for sgn in (1.0, -1.0):
                cand = list(r)
                cand[i] = max(0.0, cand[i] + sgn * step)
                tot = sum(cand)
                if tot <= 0.0:
                    continue
                p = tuple(v / tot for v in cand)
                v = score(p, tuple(x))
                if v is not None and v > best:
                    best = v
                    r = cand
            for sgn in (1.0, -1.0):
                cand = list(x)
                cand[i] = min(1.0, max(0.0, cand[i] + sgn * step))
                tot = sum(r)
                p = tuple(v / tot for v in r)
                v = score(p, tuple(cand))
                if v is not None and v > best:
                    best = v
                    x = cand
        step *= 0.65
    return best


# ---------- grid verification of the scalar inequalities ----------

_BOX_LO = 1e-4
_BOX_HI = 0.5 - 1e-4


def _axis(step):
    import numpy as np

    ax = np.arange(_BOX_LO, _BOX_HI + 0.5 * step, step)
    return ax[ax <= _BOX_HI + 1e-12]


def _hinv_np(t):
    """Array h_b_inv: 60 halvings of [0, 1/2], every mid inside (0, 1/2)."""
    import numpy as np

    t = np.asarray(t, dtype=float)
    lo = np.zeros_like(t)
    hi = np.full_like(t, 0.5)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _h(mid, np.log) < t
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    out = np.where(t <= 0.0, 0.0, out)
    return np.where(t >= NAT_LOG2, 0.5, out)


def _span(step):
    return "[%g, %g] step %g" % (_BOX_LO, _BOX_HI, step)


def _run_mgl_lin(step, tol):
    import numpy as np

    ax = _axis(step)
    fracs = np.linspace(0.0, 1.0, 20)
    us = _hinv_np(fracs * NAT_LOG2)
    h1 = _h(ax, np.log)
    g1 = _g(ax, np.log)
    cc = _conv(ax[:, None], ax[None, :])
    hcc = _h(cc, np.log)
    slope = _g(cc, np.log) / g1[:, None]
    best = -math.inf
    arg = (0.0, 0.0, 0.0)
    count = 0
    for u, fr in zip(us, fracs):
        tval = fr * NAT_LOG2
        lhs = _h(_conv(ax, float(u)), np.log)
        v = hcc + slope * (tval - h1[:, None]) - lhs[None, :]
        count += int((v > tol).sum())
        i = int(np.argmax(v))
        vi = float(v.flat[i])
        if vi > best:
            best = vi
            r, ccol = divmod(i, v.shape[1])
            arg = (float(ax[r]), float(ax[ccol]), float(tval))
    return ViolationReport("mgl-lin", "d1,d2 in %s; 20 t values in [0, log 2]" % _span(step),
                           best, arg, count)


def _run_g_convex(step, tol):
    import numpy as np

    ax = _axis(step)
    gv = _g(ax, np.log)
    v = gv[1:-1] - 0.5 * (gv[:-2] + gv[2:])
    i = int(np.argmax(v))
    return ViolationReport("g-convex", "t in %s" % _span(step),
                           float(v[i]), (float(ax[i + 1]),), int((v > tol).sum()))


def _run_beta_props(step, tol):
    import numpy as np

    ax = _axis(step)
    q = ax[:, None]
    t = ax[None, :]
    v1 = q * _kappa(t, np.log) * _nu(q, t) - _phi(q, t, np.log)
    beta = _h(_conv(q, t), np.log) - _h(t, np.log)
    v2 = beta - q * _g(t, np.log)
    count = int((v1 > tol).sum()) + int((v2 > tol).sum())
    i1 = int(np.argmax(v1))
    i2 = int(np.argmax(v2))
    if float(v1.flat[i1]) >= float(v2.flat[i2]):
        best, i = float(v1.flat[i1]), i1
    else:
        best, i = float(v2.flat[i2]), i2
    r, ccol = divmod(i, v1.shape[1])
    return ViolationReport("beta-props", "q,t in %s" % _span(step),
                           best, (float(ax[r]), float(ax[ccol])), count)


def _run_theta_dec(step, tol):
    import numpy as np

    ax = _axis(step)
    th = _Phi(ax, np.log) * (NAT_LOG2 - _h(ax, np.log))
    v = th[1:] - th[:-1]
    i = int(np.argmax(v))
    return ViolationReport("theta-dec", "t in %s" % _span(step),
                           float(v[i]), (float(ax[i + 1]),), int((v > tol).sum()))


def _run_f_lt_1(step, tol):
    import numpy as np

    ax = _axis(step)
    npts = len(ax)
    rho = 1.0 + 2.0 * np.arange(1, npts + 1) / npts
    targ = NAT_LOG2 - rho[:, None] * (NAT_LOG2 - _h(ax, np.log))[None, :]
    D = _hinv_np(targ)
    ok = D > 0.0
    phiD = _Phi(np.where(ok, D, 0.25), np.log)
    f = _Phi(ax, np.log)[None, :] / (rho[:, None] * phiD)
    v = np.where(ok, f - 1.0, -np.inf)
    i = int(np.argmax(v))
    r, ccol = divmod(i, v.shape[1])
    return ViolationReport("f-lt-1", "rho in (1, 3], delta in %s" % _span(step),
                           float(v.flat[i]), (float(rho[r]), float(ax[ccol])),
                           int((v > tol).sum()))


def _run_phi_deriv(step, tol):
    import numpy as np

    ax = _axis(step)
    dd = ax[:, None]
    x = ax[None, :]
    deriv = (1.0 - 2.0 * dd) * _hp(_conv(dd, x), np.log) / _hp(x, np.log)
    v = np.maximum(deriv - 1.0, -deriv)
    i = int(np.argmax(v))
    r, ccol = divmod(i, v.shape[1])
    return ViolationReport("phi-deriv-le-1", "delta,x in %s" % _span(step),
                           float(v.flat[i]), (float(ax[r]), float(ax[ccol])),
                           int((v > tol).sum()))


_SUITE_RUNNERS = {
    "mgl-lin": _run_mgl_lin,
    "g-convex": _run_g_convex,
    "beta-props": _run_beta_props,
    "theta-dec": _run_theta_dec,
    "f-lt-1": _run_f_lt_1,
    "phi-deriv-le-1": _run_phi_deriv,
}

ALL_SUITES = tuple(_SUITE_RUNNERS)


def verify_inequalities(suites, grid_step=1e-3, tol=1e-9):
    """Scan the named inequality suites on dense grids; one report each.

    A report with violations == 0 means no grid point exceeded tol.
    """
    reports = []
    for name in suites:
        if name not in _SUITE_RUNNERS:
            raise DomainError("unknown suite: %s" % name)
        reports.append(_SUITE_RUNNERS[name](float(grid_step), float(tol)))
    return reports
