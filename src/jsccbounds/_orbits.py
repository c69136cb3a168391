"""Canonical encoder tables for the brute-force oracles, and the kernels
that sum their costs at m = 1, at m = 2 and from m = 3 on.

A permutation of the n channel coordinates keeps every Hamming distance,
so the oracles scan only tables that are least in their orbit under the
n! permutations (see oracles._encoder_costs). At m = 1 an orbit's cost is
a sum over column types, and no table of output words is made. Only the
m = 2 plan is cached; every caller shares it, so its arrays are read-only.

From m = 2 on, as min(A, S - A) = (S - |S - 2A|) / 2 and every table has
sum_y S(y) = K sum_y W[0, y] (K = 2^m), oracles._encoder_costs's cost is
    (m K sum_y W[0, y] - sum_j sum_y |D_j(y)|) / 2,
D_j(y) = sum_s sign_j(s) W[c_s, y], sign_j(s) = -1 when source word s
has bit j set and +1 otherwise. The sums are exact in int32 below 2^31
and in int64 otherwise (oracles._admit refuses m K N max(w) >= 2^62), so
the int64 costs equal the direct sums.
"""

from __future__ import annotations

import math
from functools import lru_cache

# cells of a scan's block (output words x tables), and _scan_cells's spare
_BLOCK_CELLS = 1 << 16


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


def _orbit_costs(n, wtabs):
    """The costs of oracles._encoder_costs at m = 2, one per table of
    _orbit_plan(n), in blocks whose gathered rows take at most _BLOCK_CELLS
    cells (or one table's two rows). As D_0 +- D_1 = 2 (W[0] - W[c_3]) and
    2 (W[c_1] - W[c_2]), and |a| + |b| = max(|a + b|, |a - b|), the cost is
        4 sum_y W[0, y]
          - sum_y max(|W[c_1, y] - W[c_2, y]|, |W[0, y] - W[c_3, y]|).
    Each max is at most max(w), so the sums stay within N max(w): int32
    when N max(w) < 2^31. The constant, which can pass 2^31 when the sums
    do not, is subtracted in int64.

    It holds (_orbit_cells) W[0], its distances, the 64-row XOR plan and
    its arange; W; A's (pairs, N) rows and the two gathers that make them;
    the block array; 7 C for the plan while its C ranks are built. A plan
    an earlier call cached is not counted."""
    import numpy as np

    N = 1 << n
    dt = np.int32 if N * max(map(max, wtabs)) < 2 ** 31 else np.int64
    ranks, pair_of, c3, c1s, c2s, xor = _orbit_plan(n)
    out = []
    # every block's rows of A and B are gathered into this one array
    rows = min(max(1, _BLOCK_CELLS // (2 * N)), len(ranks))
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


def _orbit_cells(n):
    # the arrays that _orbit_costs lists
    N, C = 1 << n, math.comb(n + 7, n)
    return N * (N + 67 + 3 * math.comb(n + 3, n)) + max(_BLOCK_CELLS, 2 * N) + 6 * C


def _triple_shape(m, n):
    """The scan of _triple_costs: C = C(n + 7, n) canonical triples, the N^T
    words of T = 2^m - 4 trailing slots, and triples per block, whose (N,
    block, N^T) sums take at most _BLOCK_CELLS cells (or one triple's)."""
    N = 1 << n
    C, NT = math.comb(n + 7, n), N ** ((1 << m) - 4)
    return C, NT, min(max(1, _BLOCK_CELLS // (N * NT)), C)


def _triple_costs(m, n, wtabs):
    """The costs of oracles._encoder_costs from m = 3 on, in the blocks of
    _triple_shape(m, n): canonical triples (c_1, c_2, c_3) times all
    trailing codewords in rank order, so D_j is a broadcast sum. One weight
    table at a time, its symmetric (N, N) table W is built once, and from it
    each D_j's trailing part as an (N, N^T) array; a block's lead part is
    W[:, 0] plus its signed columns W[:, c_l], and its (N, triples, N^T)
    sums go into one array allocated once a call. As |D_j(y)| <= K max(w),
    each sum over y and the constant m K sum_y W[0, y], from which they are
    subtracted down to twice a cost, stay within m K N max(w): int32 when
    that is < 2^31.

    It holds (_triple_cells) (2 + weights) N for two aranges; the
    distances, W and one more (N, N) array (their XOR, the next W, or a
    signed W); the m (N, N^T) trailing sums of one weight table, and N^T
    for the last slot's previous sums; a block's (N, block, N^T) sums and
    two (block, N^T) ones; 11 N block for this and the last block's lead
    columns and up to four sums of them; 7 C as the prefixes are built."""
    import numpy as np

    K, N = 1 << m, 1 << n
    dt = np.int32 if m * K * N * max(map(max, wtabs)) < 2 ** 31 else np.int64
    C, NT, block = _triple_shape(m, n)
    leads = _canonical_prefixes(n, 3)
    ranks = (leads[:, None] * NT + np.arange(NT, dtype=np.int64)).reshape(-1)
    signs = [[-1 if (s >> (m - 1 - j)) & 1 else 1 for s in range(K)] for j in range(m)]
    dist = np.bitwise_count(np.arange(N)[:, None] ^ np.arange(N))
    out = [np.empty(len(ranks), dtype=np.int64) for _ in wtabs]
    # every block's sums are written into this one array
    buf = np.empty(N * block * NT, dtype=dt)
    for w, costs in zip(wtabs, out):
        W = np.array(w, dtype=dt)[dist]
        total = m * K * int(W[0].sum())  # every row of W has this sum
        tails = []
        for sg in signs:
            Dt = np.zeros((N, 1), dtype=dt)
            for s in range(4, K):
                Dt = (Dt[:, :, None] + sg[s] * W[:, None, :]).reshape(N, -1)
            tails.append(Dt)
        for start in range(0, C, block):
            ld = leads[start:start + block]
            cols = [W[:, (ld >> (2 - l) * n) & (N - 1)] for l in range(3)]  # c_1, c_2, c_3
            D = buf[:N * len(ld) * NT].reshape(N, len(ld), NT)
            acc = np.full((len(ld), NT), total, dtype=dt)
            for sg, Dt in zip(signs, tails):
                Dl = W[:, :1] + sg[1] * cols[0] + sg[2] * cols[1] + sg[3] * cols[2]  # c_0 = 0
                np.add(Dl[:, :, None], Dt[:, None, :], out=D)
                acc -= np.abs(D, out=D).sum(axis=0, dtype=dt)
            costs[start * NT:(start + len(ld)) * NT] = acc.reshape(-1) // 2
    return out + [ranks]


def _triple_cells(m, n, weights):
    # the arrays that _triple_costs lists
    N = 1 << n
    C, NT, block = _triple_shape(m, n)
    return ((2 + weights) * N + m * N * NT + 3 * N * N + NT
            + (N + 2) * block * NT + 11 * N * block + 7 * C)


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


def _table_cost(m, n, codewords, wtab) -> int:
    """One given table's cost, summed directly over K x N distances, weights
    and bit-group rows (K = 2^m) and 5 N-word arrays (_scan_cells)."""
    import numpy as np

    cw = np.asarray(codewords, dtype=np.int64)
    dist = np.bitwise_count(cw[:, None] ^ np.arange(1 << n, dtype=np.int64))
    G = np.array(wtab, dtype=np.int64)[dist]
    S = G.sum(axis=0)
    cost = 0
    src = np.arange(1 << m)
    for j in range(m):
        A = G[src >> j & 1 == 1].sum(axis=0)
        cost += int(np.minimum(A, S - A).sum())
    return cost


def _scan_cells(m, n, weights, given):
    """The cells a scan under weights weight tables, or one given table's
    cost, holds beside its costs and ranks, with _BLOCK_CELLS to spare."""
    if m == 1:
        cells = weights * (n + 1)  # the weight tables
    elif given:
        cells = (3 * (1 << m) + 5) * (1 << n)  # _table_cost's
    elif m == 2:
        cells = _orbit_cells(n)
    else:
        cells = _triple_cells(m, n, weights)
    return cells + _BLOCK_CELLS
