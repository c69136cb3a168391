"""Canonical encoder tables for the brute-force oracles, and the m = 1
and m = 2 costs of their orbits.

A permutation of the n channel coordinates keeps every Hamming distance,
so the oracles scan only tables that are least in their orbit under the
n! permutations (see oracles._encoder_costs). At m = 1 an orbit's cost is
a sum over column types, and no table of output words is made. Only the
m = 2 plan is cached; every caller shares it, so its arrays are read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache


def _canonical_prefixes(n: int, L: int) -> np.ndarray:
    """Ascending ranks of the L-word prefixes (c_1, ..., c_L) that are
    lexicographically least in their orbit under permutations of the n
    coordinates, c_1 most significant.

    The column type of coordinate i is the L-bit number whose bits, c_1's
    bit on top, are bit i of c_1, ..., c_L. A permutation moves the types
    between coordinates, and the prefix is least when they do not increase
    from bit 0 upward: c_1's ones sit lowest, then c_2's within each run of
    equal c_1 bits, and so on. So the canonical prefixes are the multisets
    of n types, C(n + 2^L - 1, n) of the N^L prefixes.

    The multisets are grown one coordinate at a time from bit n - 1 down,
    each one ending in type t by every type from t up (stars and bars). A
    type t at bit i adds spread[t] << i to the rank, where spread[t] puts
    bit k of t into base-N digit k, the digit of c_(L-k).
    """
    import numpy as np

    types = np.arange(1 << L, dtype=np.int64)
    spread = sum(((types >> k) & 1) << (k * n) for k in range(L))
    rank = np.zeros(1, dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        grow = (1 << L) - last
        first = np.repeat(np.cumsum(grow) - grow, grow)
        last = np.repeat(last, grow) + np.arange(len(first)) - first
        rank = np.repeat(rank, grow) + (spread[last] << i)
    # lexsort, the sort broadcast_frontier takes too: a second sort's code
    # would add its pages to a process's resident memory
    return rank[np.lexsort((rank,))]


@lru_cache(maxsize=None)
def _orbit_plan(n: int) -> tuple[np.ndarray, ...]:
    """The m = 2 scan of oracles._encoder_costs: the ascending ranks of the
    whole tables (0, c_1, c_2, c_3) least under the n! coordinate
    permutations, each one's index into the canonical (c_1, c_2) prefixes
    and its c_3, the prefixes' c_1 and c_2, and c ^ y for the first
    min(N, 64) words c and every y.

    A table is least when its 3-bit column types do not decrease, so the
    ranks are the canonical 3-word prefixes. The top two bits of those
    types do not decrease either, so every (c_1, c_2) is a canonical pair.
    """
    import numpy as np

    N = 1 << n
    ranks = _canonical_prefixes(n, 3)
    pairs = _canonical_prefixes(n, 2)
    plan = (ranks, np.searchsorted(pairs, ranks >> n), ranks & (N - 1),
            pairs >> n, pairs & (N - 1), np.arange(min(N, 64))[:, None] ^ np.arange(N))
    for arr in plan:
        arr.setflags(write=False)
    return plan


def _orbit_costs(n, wtabs, cells):
    """The costs of oracles._encoder_costs at m = 2, one per table of
    _orbit_plan(n), summed in int32 when N max(w) < 2^31 and in int64
    otherwise, in blocks whose gathered rows take at most cells cells (or
    one table's two rows)."""
    import numpy as np

    N = 1 << n
    dt = np.int32 if N * max(map(max, wtabs)) < 2 ** 31 else np.int64
    ranks, pair_of, c3, c1s, c2s, xor = _orbit_plan(n)
    out = []
    # every block's rows of A and B are gathered into this one array
    rows = min(max(1, cells // (2 * N)), len(ranks))
    buf = np.empty((2, rows, N), dtype=dt)
    for w in wtabs:
        # W[c, y] = W[0, c ^ y], gathered len(xor) rows at a time: for c =
        # c_0 + r, with c_0 a multiple of len(xor), c ^ y = (r ^ y) ^ c_0
        W0 = np.array(w, dtype=dt).take(np.bitwise_count(xor[0]))  # xor[0] is every y
        W = np.empty((N, N), dtype=dt)
        for c0 in range(0, N, len(xor)):
            W0.take(xor ^ c0 if c0 else xor, out=W[c0:c0 + len(xor)], mode="clip")
        # 4 sum_y W[0, y], in Python integers
        total = 4 * sum(math.comb(n, d) * wd for d, wd in enumerate(w))
        A = np.abs(W.take(c1s, axis=0) - W.take(c2s, axis=0))
        # B[c_3, y] = |W[0, y] - W[c_3, y]|, built in W's place
        B = np.abs(np.subtract(W0, W, out=W), out=W)
        got = np.empty(len(ranks), dtype=np.int64)
        for start in range(0, len(ranks), rows):
            stop = min(start + rows, len(ranks))
            a, b = buf[0, :stop - start], buf[1, :stop - start]
            # every index is in range; "clip" spares take a buffered copy
            A.take(pair_of[start:stop], axis=0, out=a, mode="clip")
            B.take(c3[start:stop], axis=0, out=b, mode="clip")
            np.maximum(a, b, out=a)
            np.subtract(total, np.einsum("ij->i", a), out=got[start:stop], dtype=np.int64)
        out.append(got)
        del W, A, B  # before the next weight table's W is allocated
    return out + [ranks]


def _type_costs(n, wtabs):
    """The m = 1 costs of oracles._encoder_costs, one list of Python ints per
    weight table, then the ranks of the tables (0, 2^w - 1), w = 0, ..., n,
    one per orbit, as w = popcount(c_1) fixes the orbit of (0, c_1). Words
    are counted by type (I. Csiszar and J. Korner, Information Theory, 1981):
    C(n - w, i) C(w, j) of them have i ones where c_1 has zeros and j where
    it has ones, so W[0, y] = t[i + j] and W[c_1, y] = t[i + w - j]."""
    costs = [[_type_cost(n, w, t) for w in range(n + 1)] for t in wtabs]
    return costs + [[(1 << w) - 1 for w in range(n + 1)]]


def _type_cost(n, w, t):
    """The cost under weight table t of the orbit with w = popcount(c_1), as
    _type_costs sums it."""
    cw = [math.comb(w, j) for j in range(w + 1)]
    return sum(math.comb(n - w, i) * sum(c * min(t[i + j], t[i + w - j]) for j, c in enumerate(cw))
               for i in range(n - w + 1))
