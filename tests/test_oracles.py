import hashlib
import itertools
import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jsccbounds import _orbits
from jsccbounds import bounds_core as bc
from jsccbounds import oracles as orc
from jsccbounds.binary_info import DomainError
from jsccbounds.broadcast_region import g_bsc

F = Fraction


# ---------- point-to-point brute force ----------


def test_p2p_identity_rate():
    for m, delta in ((1, F(1, 10)), (2, F(1, 4))):
        val, table = orc.p2p_bruteforce(m, m, delta)
        assert val.value == delta
        assert table.m == m and table.n == m


def test_p2p_frozen_values():
    cases = [
        (1, 2, F(1, 10), F(1, 10)),
        (1, 2, F(1, 4), F(1, 4)),
        (1, 3, F(1, 10), F(7, 250)),
        (1, 3, F(1, 4), F(5, 32)),
        (2, 3, F(1, 10), F(1, 10)),
        (2, 3, F(1, 4), F(1, 4)),
        (2, 4, F(1, 10), F(8, 125)),
        (2, 4, F(1, 4), F(13, 64)),
    ]
    for m, n, delta, want in cases:
        val, _ = orc.p2p_bruteforce(m, n, delta)
        assert val.value == want, (m, n, delta)


def test_p2p_witness_roundtrip():
    val, table = orc.p2p_bruteforce(2, 3, F(1, 10))
    again = orc.encoder_from_index(2, 3, table.index)
    assert again == table
    assert table.codewords[0] == 0  # symmetry pins the first codeword


def test_p2p_symmetry_reduction_is_lossless():
    # against every table with codeword 0 free, so XOR translation is covered too
    for m, n, delta in ((1, 2, F(1, 10)), (2, 2, F(1, 4)), (1, 3, F(1, 4)), (2, 3, F(1, 10))):
        a, b = delta.numerator, delta.denominator
        wt = [a ** d * (b - a) ** (n - d) for d in range(n + 1)]
        cost, rank = _pick_p2p(*_direct_costs(m, n, [wt], pinned=False))
        val, table = orc.p2p_bruteforce(m, n, delta)
        assert (val.value, table.index) == (F(cost, m * (1 << m) * b ** n), rank)


def test_p2p_float_delta_reads_as_decimal():
    a, _ = orc.p2p_bruteforce(1, 2, 0.1)
    b, _ = orc.p2p_bruteforce(1, 2, F(1, 10))
    assert a.value == b.value


def test_p2p_beats_asymptotic_floor():
    val, _ = orc.p2p_bruteforce(2, 4, F(1, 4))
    assert float(val) >= bc.d_asym(2.0, 0.25) - 1e-12


def test_p2p_domain_and_budget():
    with pytest.raises(DomainError):
        orc.p2p_bruteforce(1, 2, 0)
    with pytest.raises(DomainError):
        orc.p2p_bruteforce(1, 2, F(1, 2))
    with pytest.raises(DomainError):
        orc.p2p_bruteforce(1, 2, -0.1)
    with pytest.raises(DomainError):
        orc.p2p_bruteforce(0, 2, F(1, 10))
    with pytest.raises(orc.BudgetExceeded):
        orc.p2p_bruteforce(2, 4, F(1, 4), budget=1000)
    # m=2, n=2: the C(9, 2) = 36 canonical (c_1, c_2, c_3) tables, times 4
    # output words, is 36 x 2^2 = 144 scanned pairs; the budget is inclusive
    with pytest.raises(orc.BudgetExceeded, match=r"needs 36 x 2\^2 .* budget is 143$"):
        orc.p2p_bruteforce(2, 2, F(1, 4), budget=143)
    assert orc.p2p_bruteforce(2, 2, F(1, 4), budget=144)[0].value == F(1, 4)
    with pytest.raises(orc.BudgetExceeded):
        orc.p2p_bruteforce(1, 1, F(1, 4), budget=-1)
    assert orc.p2p_bruteforce(1, 1, F(1, 4), budget=math.inf)[0].value == F(1, 4)
    # the message gives a non-integer budget exactly, not its integer part
    with pytest.raises(orc.BudgetExceeded, match=r"needs 36 x 2\^2 .* budget is 143\.5$"):
        orc.p2p_bruteforce(2, 2, F(1, 4), budget=143.5)
    with pytest.raises(orc.BudgetExceeded, match=r"budget is -1\.5$"):
        orc.p2p_bruteforce(1, 1, F(1, 4), budget=-1.5)
    # NaN would never bind and -inf has no integer part: neither is a budget,
    # and the error names math.inf as the way to lift it
    for budget in (math.nan, -math.inf):
        with pytest.raises(DomainError,
                           match=r"^budget must be .*; math\.inf is accepted too, for no budget$"):
            orc.p2p_bruteforce(1, 1, F(1, 4), budget=budget)
        with pytest.raises(DomainError, match="budget must be"):
            orc.sphere_bruteforce(1, 1, 0, budget=budget)
        with pytest.raises(DomainError, match="budget must be"):
            orc.broadcast_frontier(1, 1, 0, 1, budget=budget)


def test_budget_is_checked_before_any_work_in_m_or_n(monkeypatch):
    # neither 2^m nor a weight table of n + 1 entries is formed before the
    # budget refuses the search, so the kernel is never reached
    def never(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(orc, "_encoder_costs", never)
    huge = 10**20
    # m = 1 charges C(n + 3, 3) orbit terms per weight table, times
    # n (bit_length(base) + 1) bits: base b - a = 3 for p2p, 1 for the spheres
    per_table = math.comb(5003, 3)
    searches = [(lambda m, n, **kw: orc.p2p_bruteforce(m, n, F(1, 4), **kw), per_table, 15000),
                (lambda m, n, **kw: orc.sphere_bruteforce(m, n, 1, **kw), per_table, 10000),
                (lambda m, n, **kw: orc.broadcast_frontier(m, n, 1, 1, **kw), 2 * per_table,
                 10000)]
    for search, terms, bits in searches:
        with pytest.raises(orc.BudgetExceeded,
                           match=r"^search needs 36 x 2\^\(2 \(2\^%d - 3\)\) .* budget is %d$"
                           % (huge, orc.DEFAULT_BUDGET)):
            search(huge, 2)
        with pytest.raises(orc.BudgetExceeded, match=r"^search needs %d orbit terms x %d bits, "
                           r"budget is %d$" % (terms, bits, orc.DEFAULT_BUDGET)):
            search(1, 5000)
        # with no budget the memory cap refuses the first, as a search from
        # m = 2 on holds at least 8 N^(T + 1) bytes; m = 1 sums Python
        # integers, which no int64 guard bounds, so the second is admitted
        with pytest.raises(orc.BudgetExceeded, match=r"^search would hold at least 8 x "
                           r"2\^\(2 \(2\^%d - 3\)\) bytes" % huge):
            search(huge, 2, budget=math.inf)
        with pytest.raises(AssertionError, match="the kernel was called"):
            search(1, 61, budget=math.inf)
    # an m past 2^256 bits is shown as such
    with pytest.raises(orc.BudgetExceeded, match=r"2\^\(2 \(2\^~2\^257 - 3\)\)"):
        orc.p2p_bruteforce(2**256, 2, F(1, 4))


_UNDER_1_GIB = """
import os
import resource
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # BLAS threads reserve address space
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from jsccbounds import cli

sys.exit(cli.main(sys.argv[1:]))
"""


# each is refused by the memory cap before any array is made. Before, the
# first was admitted and ended in MemoryError, exit code 1: m = 2 at n = 14
# holds an (N, N) table W; a given m = 2 table at n = 24 holds 17 arrays of
# 2^24 words (its distances, weights and bit-group rows), 2.3 GB; m = 4
# and m = 5 pass the work budget
_PAST_THE_MEMORY_CAP = {
    "p2p-2-14": ["p2p", "--m", "2", "--n", "14", "--delta", "1/4", "--budget", str(2**50)],
    "spherical-2-24": ["spherical", "--m", "2", "--n", "24", "--weight", "1",
                       "--encoder", ",".join(["0" * 24, "0" * 24, "1" * 24, "1" * 24])],
    "p2p-4-2": ["p2p", "--m", "4", "--n", "2", "--delta", "1/4"],
    "p2p-5-1": ["p2p", "--m", "5", "--n", "1", "--delta", "1/4"],
}


@pytest.mark.parametrize("argv", list(_PAST_THE_MEMORY_CAP.values()),
                         ids=list(_PAST_THE_MEMORY_CAP))
def test_searches_past_the_memory_cap_are_refused_before_allocating(argv):
    proc = subprocess.run([sys.executable, "-c", _UNDER_1_GIB, "oracle"] + argv,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert re.fullmatch(r"budget: search would hold (\d+|at least 8 x 2\^\d+) bytes of "
                        r"arrays, cap is 2147483648\n", proc.stderr), proc.stderr


# m = 1 sums its n + 1 orbits by column type and holds no array of 2^n
# words, so n = 25 runs in the 1 GiB child (before, it held about ten such
# arrays and was refused by the memory cap). 35174066851/847288609443 is
# P(Bin(25, 1/3) >= 13), the repetition code's majority error; on the two
# spheres the table (0, 1) has distortion 0, as y's parity names the codeword.
# A given m = 1 table costs as its orbit, so n = 28 runs too (before, its
# 2 GiB of distances were refused by the memory cap); one flip never moves
# a word of the repetition code past majority
_M1_AT_N25 = {
    "p2p-1-25": (["p2p", "--m", "1", "--n", "25", "--delta", "1/3", "--exact"],
                 "1,25,1/3,35174066851/847288609443,"),
    "frontier-1-25": (["frontier", "--m", "1", "--n", "25", "--w1", "1", "--w2", "2"],
                      "1,25,1,2,0,0,0,0,1\n"),
    "spherical-1-28": (["spherical", "--m", "1", "--n", "28", "--weight", "1",
                        "--encoder", "0" * 28 + "," + "1" * 28],
                       "1,28,1,%s;%s,0\n" % ("0" * 28, "1" * 28)),
}


@pytest.mark.parametrize("argv,line", list(_M1_AT_N25.values()), ids=list(_M1_AT_N25))
def test_m1_searches_at_n25_run_under_1_gib(argv, line):
    proc = subprocess.run([sys.executable, "-c", _UNDER_1_GIB, "oracle"] + argv,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert line in proc.stdout, proc.stdout


# m = 1 charges its orbits' Python-integer terms times their bits, not the
# 41 x 2^40 (encoder, output) pairs of a scan it does not make, and no int64
# guard bounds its sums: n = 40 runs at any budget (before, the pairs were
# refused by the default budget and a budget of 10^21 ended in the int64
# guard). The majority-vote value is P(Bin(40, 1/4) > 20) + P(Bin = 20) / 2.
# At n = 400 its C(403, 3) terms of 1200 bits each pass the default budget
_M1_DECIDED = {
    "p2p-1-40": ([], 0, "1,40,1/4,14115818193907387787/37778931862957161709568,"),
    "p2p-1-40-budget-10^21": (["--budget", str(10**21)], 0,
                              "1,40,1/4,14115818193907387787/37778931862957161709568,"),
    "p2p-1-400": (["--n", "400"], 3, "budget: search needs 10827401 orbit terms x 1200 bits, "
                                      "budget is 4294967296\n"),
}


@pytest.mark.parametrize("extra,code,line", list(_M1_DECIDED.values()), ids=list(_M1_DECIDED))
def test_m1_searches_are_decided_under_1_gib(extra, code, line):
    argv = ["p2p", "--m", "1", "--n", "40", "--delta", "1/4", "--exact"] + extra
    proc = subprocess.run([sys.executable, "-c", _UNDER_1_GIB, "oracle"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == code
    if code:
        assert (proc.stdout, proc.stderr) == ("", line)
    else:
        assert proc.stderr == "" and line in proc.stdout, proc.stdout


def test_m2_memory_refusals_at_no_budget():
    # with no work budget the memory cap decides m = 2 from n = 28: by its
    # closed-form bound there, and by bit lengths from n = 29, where one
    # 2^n-word array of 8-byte cells already passes 2^31 bytes (e + 3 >= 32)
    for n, held in ((28, "576489859727682048"), (29, "at least 8 x 2^29"),
                    (30, "at least 8 x 2^30")):
        with pytest.raises(orc.BudgetExceeded, match=r"^search would hold %s bytes of arrays, "
                           r"cap is 2147483648$" % re.escape(held)):
            orc.p2p_bruteforce(2, n, F(1, 4), budget=math.inf)


def test_memory_bound_holds_and_admission_decides(monkeypatch, time_cap):
    # the tracemalloc peak of a search from empty caches is at most the bytes
    # it was admitted with, and not far below them beside the fixed allowance
    sizes, admit = [], orc._admit
    monkeypatch.setattr(orc, "_admit", lambda *a, **k: sizes.append(admit(*a, **k)[1]))
    p2p, frontier, sphere = orc.p2p_bruteforce, orc.broadcast_frontier, orc.sphere_bruteforce
    # numpy's lazily loaded parts are not the search's
    for search, args in ((p2p, (3, 1, F(1, 4))), (p2p, (2, 1, F(1, 4))),
                         (frontier, (1, 1, 0, 1)), (sphere, (1, 1, 0, (0, 1)))):
        search(*args)
    for search, args in ((p2p, (1, 12, F(1, 4))), (p2p, (2, 6, F(1, 4))),
                         (p2p, (3, 2, F(1, 4))), (p2p, (3, 3, F(1, 4))),
                         (frontier, (2, 5, 1, 2)), (frontier, (3, 3, 1, 2)),
                         (sphere, (1, 12, 1, (0, 2**12 - 1)))):
        _orbits._orbit_plan.cache_clear()
        tracemalloc.start()
        try:
            search(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sizes[-1] <= 4 * peak + 8 * _orbits._BLOCK_CELLS, (search.__name__, args)
    monkeypatch.undo()
    # 0/1 weights pass the int64 guard, and m = 1 holds no 2^40-word array
    assert orc.sphere_bruteforce(1, 40, 1, budget=10**21).value == 0

    # only the admission runs: the kernels are never reached
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(orc, "_encoder_costs", admitted)
    monkeypatch.setattr(orc, "_table_cost", admitted)
    # m = 1 is charged its orbit terms times their bits, not 29 x 2^28 pairs,
    # so n = 28 is admitted (before, it was refused)
    for search in (lambda: orc.p2p_bruteforce(1, 24, F(1, 3)),
                   lambda: orc.p2p_bruteforce(1, 25, F(1, 3)),
                   lambda: orc.p2p_bruteforce(1, 27, F(1, 3)),
                   lambda: orc.p2p_bruteforce(1, 28, F(1, 3)),
                   lambda: orc.p2p_bruteforce(1, 302, F(1, 4)),
                   lambda: orc.broadcast_frontier(1, 25, 1, 2),
                   lambda: orc.p2p_bruteforce(2, 12, F(1, 4)),
                   lambda: orc.p2p_bruteforce(2, 13, F(1, 4)),
                   lambda: orc.p2p_bruteforce(3, 4, F(1, 4)),
                   lambda: orc.broadcast_frontier(3, 4, 1, 2)):
        with pytest.raises(Admitted):
            search()
    # C(n + 3, 3) terms of n (bit_length(3) + 1) bits: 4,242,218,160 at
    # n = 302 are within the default budget, 4,298,406,480 at n = 303 are not
    with time_cap(0.5), pytest.raises(orc.BudgetExceeded, match=r"^search needs 4728720 orbit "
                                      r"terms x 909 bits, budget is 4294967296$"):
        orc.p2p_bruteforce(1, 303, F(1, 4))
    for search in (lambda: orc.p2p_bruteforce(2, 14, F(1, 4), budget=2**50),
                   lambda: orc.sphere_bruteforce(2, 24, 1, encoder=(0, 0, 2**24 - 1, 2**24 - 1)),
                   lambda: orc.p2p_bruteforce(4, 2, F(1, 4)),
                   lambda: orc.p2p_bruteforce(5, 1, F(1, 4))):
        with pytest.raises(orc.BudgetExceeded, match="^search would hold "):
            search()


def test_encoder_table_size_check_forms_no_power():
    with pytest.raises(ValueError, match="one codeword per source word"):
        orc.EncoderTable(10**20, 2, (0, 3))
    with pytest.raises(ValueError, match="one codeword per source word"):
        orc.sphere_bruteforce(10**20, 2, 1, encoder=(0, 3))
    for m, size in ((1, 2), (2, 4), (3, 8)):
        assert len(orc.EncoderTable(m, 1, (0,) * size).codewords) == size
        for wrong in (size - 1, size + 1, 2 * size):
            with pytest.raises(ValueError):
                orc.EncoderTable(m, 1, (0,) * wrong)


def test_p2p_frozen_n5_n6():
    # copied from perfbench/reference/oracle.json (seed-commit outputs)
    cases = [
        (2, 5, F(1, 4), F(13, 64), 1487),
        (2, 5, F(1, 5), F(89, 625), 7998),
        (2, 6, F(1, 4), F(5, 32), 32319),
        # computed once by the full enumeration, before coordinate permutations
        (2, 7, F(1, 4), F(5, 32), 121919),
        # computed once by the prefix scan, before whole-table orbits
        (2, 6, F(49, 100), F(242501, 500000), 32319),  # int64 sums
        (2, 8, F(1, 4), F(133, 1024), 522495),
        # computed once with budget=2**40, when the budget counted every table
        (2, 9, F(1, 4), F(983, 8192), 8373246),
        # the per-bit sums and the one-max form of the kernel agree on it
        (2, 10, F(1, 4), F(53, 512), 33522687),
        # computed once with the budget raised, before it counted the scan
        (2, 12, F(1, 4), F(44507, 524288), 2146975740),
    ]
    for m, n, delta, want, index in cases:
        val, table = orc.p2p_bruteforce(m, n, delta)
        assert (val.value, table.index) == (want, index), (m, n, delta)


def test_int64_guard_refuses_the_weights_that_would_overflow(monkeypatch, time_cap):
    # m 2^m 2^n max(w) against 2^62: 8 2^13 12^13 is past it, 8 2^13 11^13
    # is not; the admission refuses the first before the kernel
    def reached(*args):
        raise AssertionError("reached")

    monkeypatch.setattr(orc, "_encoder_costs", reached)
    with pytest.raises(orc.BudgetExceeded, match="overflow int64"):
        orc.p2p_bruteforce(2, 13, F(1, 13))
    with pytest.raises(AssertionError, match="reached"):
        orc.p2p_bruteforce(2, 13, F(1, 12))
    # from bit lengths, m + n bit_length(b - a) >= 62: neither (10^30000 - 1)^13
    # nor the n + 1 weights are formed, which took seconds. At m = 1 the
    # charge refuses the same base from its bit length: C(27, 3) terms of
    # 24 (99658 + 1) bits
    with time_cap(0.5):
        with pytest.raises(orc.BudgetExceeded, match="overflow int64"):
            orc.p2p_bruteforce(2, 13, F(1, 10**30000))
        with pytest.raises(orc.BudgetExceeded, match="^search needs 2925 orbit terms x 2391816 "):
            orc.p2p_bruteforce(1, 24, F(1, 10**30000))
        # n + 1 weights, costs and ranks at n = 10^12 would pass the memory
        # cap; the charge refuses them first, and with no budget the cap does
        with pytest.raises(orc.BudgetExceeded, match="^search needs %d orbit terms x %d bits"
                           % (math.comb(10**12 + 3, 3), 2 * 10**12)):
            orc.sphere_bruteforce(1, 10**12, 1)
        with pytest.raises(orc.BudgetExceeded, match="^search would hold 24000000524312 bytes"):
            orc.sphere_bruteforce(1, 10**12, 1, budget=math.inf)
        with pytest.raises(orc.BudgetExceeded, match="^search would hold 24000000524312 bytes"):
            orc.p2p_bruteforce(1, 10**12, F(1, 4), budget=math.inf)
        # a given table's n + 1 weights too (before, they were built, and a
        # MemoryError ended the call)
        with pytest.raises(orc.BudgetExceeded, match="^search would hold 8000000524312 bytes"):
            orc.sphere_bruteforce(1, 10**12, 1, encoder=(0, 1), budget=math.inf)
    monkeypatch.undo()
    # m = 1 sums Python integers, so the int64 guard does not reach it: 2 2^24
    # 3^24 >= 2^62 refused p2p(1, 24, 1/4) before, and sphere(1, 61) with no
    # budget; both are answers now
    assert orc.p2p_bruteforce(1, 24, F(1, 4))[0].value == _majority_vote(24, F(1, 4))
    assert orc.sphere_bruteforce(1, 61, 1, budget=math.inf).value == 0


def _majority_vote(n, delta):
    # P(Bin(n, delta) > n / 2) + P(Bin(n, delta) = n / 2) / 2: the repetition
    # code decoded by majority, a tie split evenly
    pmf = [math.comb(n, k) * delta**k * (1 - delta)**(n - k) for k in range(n + 1)]
    return sum(pmf[n // 2 + 1:]) + (pmf[n // 2] / 2 if n % 2 == 0 else 0)


@pytest.mark.parametrize("n,w", [(100, 99), (101, 101)])
def test_m1_optimum_is_the_majority_vote(n, w):
    # at n = 100 the orbits of weight 99 and 100 tie, and the lowest rank is
    # weight 99's
    for delta in (F(1, 4), F(1, 3), F(1, 10)):
        value, table = orc.p2p_bruteforce(1, n, delta)
        assert (value.value, table.codewords) == (_majority_vote(n, delta), (0, 2**w - 1))


def test_m1_frontier_ranks_past_int64():
    # the ranks 2^w - 1 pass int64 from w = 64 on; m = 1 sorts Python ints
    assert orc.broadcast_frontier(1, 70, 1, 2) == [orc.FrontierPoint(F(0), F(0), 1)]


def test_searches_leave_no_popcounts_behind():
    # only the m = 2 plan is cached, and an m = 1 search sums by column type:
    # it holds no 2^n-word array (before, p2p(1, 22) peaked at 320 MiB)
    orc.p2p_bruteforce(1, 2, F(1, 4))  # numpy's lazily loaded parts are not the search's
    tracemalloc.start()
    try:
        for n in (22, 17):
            orc.p2p_bruteforce(1, n, F(1, 4))
            assert tracemalloc.get_traced_memory()[1] < 64 << 10, n
    finally:
        tracemalloc.stop()


def test_p2p_and_frontier_frozen_at_m3():
    # computed once by the scan of canonical (c_1, c_2) pairs, before the
    # scan took canonical triples
    for delta in (F(1, 10), F(1, 4), F(2, 5)):
        val, table = orc.p2p_bruteforce(3, 3, delta)
        assert (val.value, table.codewords) == (delta, tuple(range(8)))
    assert orc.broadcast_frontier(3, 3, 1, 2) == [orc.FrontierPoint(F(2, 9), F(2, 9), 5713)]
    assert orc.broadcast_frontier(3, 3, 0, 1) == [orc.FrontierPoint(F(0), F(2, 9), 371511)]
    # m = 4, n = 1, the one admitted m = 4 shape, after the (4, 1) case of
    # test_coordinate_permutations_keep_values_and_witnesses matched them to
    # the direct sums over every pinned table
    val, table = orc.p2p_bruteforce(4, 1, F(1, 4))
    assert (val.value, table.index) == (F(13, 32), 279)
    assert orc.broadcast_frontier(4, 1, 0, 1) == [orc.FrontierPoint(F(5, 16), F(5, 16), 279)]


@pytest.mark.parametrize("m,n,sizes", [
    (3, 1, (533328, 539488)), (3, 2, (1155904, 1598304)), (3, 3, (9873024, 33466048)),
    (3, 4, (381708080, 1419798448)), (4, 1, (2394064, 3966944)),
])
def test_admission_frozen_at_every_admitted_m3_shape(m, n, sizes):
    # tables and bytes for a p2p search (one weight table, nothing held) and
    # a frontier (two weight tables, five held arrays); the block rule and
    # the cell bound are _orbits._triple_shape's and _admit's. The frontier
    # holds the m trailing-sum arrays of one weight table at a time, so its
    # bound sits 8 m N N^T bytes below one that counted both tables'
    tables = math.comb(n + 7, n) << n * (2**m - 4)
    for (weights, held), size in zip(((1, 0), (2, 5)), sizes):
        assert orc._admit(m, n, math.inf, weights=weights, held=held) == (tables, size)
    N, NT = 1 << n, 1 << n * (2**m - 4)
    counted_twice = {(3, 1): 540256, (3, 2): 1622880, (3, 3): 34252480,
                     (3, 4): 1444964272, (4, 1): 4229088}[m, n]
    assert sizes[1] == counted_twice - 8 * m * N * NT


@pytest.mark.parametrize("m,n,size", [(3, 5, 14387059520), (4, 2, 12751211296)])
def test_memory_refusals_past_the_admitted_m3_shapes(m, n, size):
    with pytest.raises(orc.BudgetExceeded, match=r"^search would hold %d bytes of arrays, "
                       r"cap is 2147483648$" % size):
        orc._admit(m, n, math.inf)


def test_exact_value_container():
    v = orc.ExactValue(F(1, 3))
    assert float(v) == pytest.approx(1 / 3, rel=1e-15)
    assert v.mode == "exact"
    assert repr(v) == "ExactValue(value=Fraction(1, 3))"


def test_exact_value_repr_past_the_digit_limit():
    # str of a 5,001-digit numerator passes the int-to-str limit; the repr
    # shows its bit length instead, as the CLI's refusal does
    v = orc.ExactValue(F(10**5000 + 1, 3))
    assert repr(v) == "ExactValue(value=Fraction(~2^16610, 3))"
    assert repr(orc.ExactValue(1 / v.value)) == "ExactValue(value=Fraction(3, ~2^16610))"


def test_encoder_table_validation():
    t = orc.EncoderTable(1, 2, (0, 3))
    assert t.index == 3
    assert t.words() == ["00", "11"]
    assert orc.encoder_from_index(1, 2, 3) == t
    with pytest.raises(ValueError):
        orc.EncoderTable(1, 2, (0, 1, 2))  # wrong table size
    with pytest.raises(ValueError):
        orc.EncoderTable(1, 2, (0, 4))  # codeword out of range
    with pytest.raises(ValueError):
        orc.EncoderTable(1, 2, (0, -1))
    # the range is checked without forming 2^n
    assert orc.EncoderTable(1, 10**20, (0, 2**70)).codewords == (0, 2**70)


# ---------- sphere-noise brute force ----------


def test_sphere_fixed_encoder():
    got = orc.sphere_bruteforce(1, 2, 1, encoder=(0, 3))
    assert got.value == F(1, 2)
    # tuple and table forms agree
    tab = orc.EncoderTable(1, 2, (0, 3))
    assert orc.sphere_bruteforce(1, 2, 1, encoder=tab).value == F(1, 2)


def test_sphere_fixed_encoder_budget():
    # one given m = 1 table costs its own orbit's (n - w + 1)(w + 1) terms of
    # 2n bits, w = popcount(c_0 ^ c_1): 1 x 4 terms x 6 bits for (0, 7) at
    # n = 3 (before, the worst orbit's 2 x 3 terms)
    assert orc.sphere_bruteforce(1, 3, 1, encoder=(0, 7), budget=24).value == 0
    with pytest.raises(orc.BudgetExceeded, match=r"^search needs 4 orbit terms x 6 bits, "
                       r"budget is 23$"):
        orc.sphere_bruteforce(1, 3, 1, encoder=(0, 7), budget=23)
    # no array of 2^n words is formed, so n = 40 is an answer (before, its
    # 2^40 pairs were refused), and n = 10^20 is refused at once
    assert orc.sphere_bruteforce(1, 40, 1, encoder=(0, 2**40 - 1)).value == 0
    with pytest.raises(orc.BudgetExceeded, match=r"^search needs %d orbit terms x %d bits"
                       % (2 * 10**20, 2 * 10**20)):
        orc.sphere_bruteforce(1, 10**20, 1, encoder=(0, 1))
    # from m = 2 on a given table still costs 1 x 2^n pairs
    with pytest.raises(orc.BudgetExceeded, match=r"^search needs 1 x 2\^3 .* budget is 7$"):
        orc.sphere_bruteforce(2, 3, 1, encoder=(0, 1, 6, 7), budget=7)


def test_sphere_search_beats_fixed():
    assert orc.sphere_bruteforce(1, 2, 1).value == 0
    assert orc.sphere_bruteforce(1, 2, 0).value == 0


def test_sphere_floor_is_a_true_lower_bound():
    for m, n in ((1, 2), (1, 3), (2, 3)):
        params = bc.SystemParams.from_counts(m, n, 0.2)
        for w in range(n + 1):
            floor = bc.sphere_floor_at_weight(params, w)
            exact = float(orc.sphere_bruteforce(m, n, w))
            assert floor <= exact + 1e-12, (m, n, w)


def test_sphere_frozen_n5():
    assert orc.sphere_bruteforce(2, 5, 2).value == F(3, 20)


def test_sphere_domain():
    with pytest.raises(DomainError):
        orc.sphere_bruteforce(1, 2, 3)
    with pytest.raises(DomainError):
        orc.sphere_bruteforce(1, 2, -1)


# ---------- two-channel frontier ----------


def test_frontier_frozen():
    assert orc.broadcast_frontier(1, 2, 0, 1) == [
        orc.FrontierPoint(F(0), F(0), 1)
    ]
    assert orc.broadcast_frontier(1, 4, 1, 2) == [
        orc.FrontierPoint(F(0), F(0), 1)
    ]
    assert orc.broadcast_frontier(2, 4, 1, 2) == [
        orc.FrontierPoint(F(0), F(1, 4), 510),
        orc.FrontierPoint(F(1, 16), F(5, 24), 318),
        orc.FrontierPoint(F(1, 8), F(1, 6), 306),
    ]
    assert orc.broadcast_frontier(2, 5, 1, 2) == [
        orc.FrontierPoint(F(0), F(3, 20), 1518)
    ]
    # computed once by the full enumeration, before coordinate permutations
    assert orc.broadcast_frontier(2, 6, 1, 2) == [
        orc.FrontierPoint(F(0), F(0), 8127)
    ]


def test_frontier_domain():
    for m, n in ((0, 2), (-1, 2), (2, 0)):
        with pytest.raises(DomainError, match="must be a positive integer"):
            orc.broadcast_frontier(m, n, 0, 0)
    with pytest.raises(DomainError):
        orc.broadcast_frontier(1, 2, 3, 0)


def test_frontier_is_pareto():
    pts = orc.broadcast_frontier(2, 4, 1, 2)
    for a, b in zip(pts, pts[1:]):
        assert a.d1 < b.d1
        assert a.d2 > b.d2
    # endpoints are the single-channel optima
    assert pts[0].d1 == orc.sphere_bruteforce(2, 4, 1).value
    assert pts[-1].d2 == orc.sphere_bruteforce(2, 4, 2).value


def test_frontier_encoders_reproduce_their_points():
    for pt in orc.broadcast_frontier(2, 4, 1, 2):
        tab = orc.encoder_from_index(2, 4, pt.encoder_index)
        assert orc.sphere_bruteforce(2, 4, 1, encoder=tab).value == pt.d1
        assert orc.sphere_bruteforce(2, 4, 2, encoder=tab).value == pt.d2


# ---------- encoder cost kernel ----------


ENCODER_SHAPES = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


@pytest.mark.parametrize("m,n", ENCODER_SHAPES)
def test_admitted_tables_are_the_scanned_tables(m, n):
    assert orc._admit(m, n, math.inf)[0] == len(orc._encoder_costs(m, n, [[1] * (n + 1)])[-1])
    assert orc._admit(m, n, math.inf, table=(0,) * 2**m)[0] == 1


def _weight_tables(n, top=2**40):
    table = st.lists(st.integers(0, top), min_size=n + 1, max_size=n + 1)
    return st.lists(table, min_size=1, max_size=2)


def _int32_bound(m, n, wtabs):
    # the kernel sums in int32 when 2^n max(w) < 2^31 at m = 2 (the one-max
    # form) and when m 2^m 2^n max(w) < 2^31 at every other m
    return (1 if m == 2 else m * 2**m) * 2**n * max(map(max, wtabs)) < 2**31


def _costs_and_width(monkeypatch, m, n, wtabs):
    # the kernel's return value, and whether it allocated an int32 array: it
    # makes its working arrays in the width of its sums, and its costs and
    # ranks in int64
    seen, real_empty = [], np.empty
    with monkeypatch.context() as mp:
        mp.setattr(np, "empty", lambda *a, **k: seen.append(np.dtype(k["dtype"]))
                   or real_empty(*a, **k))
        got = orc._encoder_costs(m, n, wtabs)
    return got, np.dtype(np.int32) in seen


def _permuted(word, perm):
    return sum(((word >> i) & 1) << p for i, p in enumerate(perm))


def _canonical_tables(m, n):
    """The c0 = 0 tables whose first min(2^m - 1, 3) free codewords are
    least over all n! coordinate permutations, in rank order."""
    lead = min((1 << m) - 1, 3)
    perms = list(itertools.permutations(range(n)))
    return [(0,) + rest
            for rest in itertools.product(range(1 << n), repeat=(1 << m) - 1)
            if rest[:lead] == min(tuple(_permuted(c, p) for c in rest[:lead]) for p in perms)]


@pytest.mark.parametrize("m,n", ENCODER_SHAPES)
@settings(max_examples=2)
@given(data=st.data())
def test_encoder_costs_match_table_cost(m, n, data):
    # one weight of 2^40 puts every draw in the int64 width
    wtabs = data.draw(_weight_tables(n))
    wtabs[0][data.draw(st.integers(0, n))] = 2**40
    assert not _int32_bound(m, n, wtabs)
    _assert_costs_match_table_cost(m, n, wtabs)


@pytest.mark.parametrize("m,n", ENCODER_SHAPES)
@settings(max_examples=2)
@given(data=st.data())
def test_encoder_costs_match_table_cost_in_int32(m, n, data):
    # small weights make ties, and keep every shape in the int32 width
    wtabs = data.draw(_weight_tables(n, top=3))
    assert _int32_bound(m, n, wtabs)
    _assert_costs_match_table_cost(m, n, wtabs)


@settings(max_examples=25)
@given(data=st.data())
def test_m1_type_sums_match_table_cost(data):
    # the canonical m = 1 tables are (0, 2^w - 1), one per orbit; small
    # weights make ties, and one weight table may be past int32
    n = data.draw(st.integers(1, 12))
    wtabs = data.draw(st.lists(st.lists(st.integers(0, 3) | st.just(2**40),
                                        min_size=n + 1, max_size=n + 1), min_size=1, max_size=2))
    *costs, ranks = orc._encoder_costs(1, n, wtabs)
    assert _as_ints(1, ranks) == [2**w - 1 for w in range(n + 1)]
    for wt, got in zip(wtabs, costs):
        assert _as_ints(1, got) == [orc._table_cost(1, n, (0, r), wt) for r in ranks]


def _given_m1_table_matches_table_cost(n, weight, c0, c1):
    wt = [1 if d == weight else 0 for d in range(n + 1)]
    got = orc.sphere_bruteforce(1, n, weight, encoder=(c0, c1)).value
    assert got == Fraction(orc._table_cost(1, n, (c0, c1), wt), 2 * math.comb(n, weight))


def test_a_given_m1_table_costs_as_its_orbit():
    # XOR by c_0 and the coordinate permutations keep every distance, so
    # (c_0, c_1) costs as (0, 2^w - 1), w = popcount(c_0 ^ c_1): every table
    # up to n = 4, at every weight
    for n in range(1, 5):
        for weight, c0, c1 in itertools.product(range(n + 1), range(1 << n), range(1 << n)):
            _given_m1_table_matches_table_cost(n, weight, c0, c1)


@settings(max_examples=60)
@given(data=st.data())
def test_a_given_m1_table_costs_as_its_orbit_up_to_n10(data):
    n = data.draw(st.integers(5, 10))
    c0, c1 = data.draw(st.lists(st.integers(0, 2**n - 1), min_size=2, max_size=2))
    _given_m1_table_matches_table_cost(n, data.draw(st.integers(0, n)), c0, c1)


@pytest.mark.parametrize("top", [2**31 // 48, 2**31 // 48 + 1])
def test_encoder_costs_at_the_int32_edge(monkeypatch, top):
    # the general rule: at m=3, n=1 the bound is 48 max(w), so floor(2^31 / 48)
    # is the last int32 table and one more the first int64 one
    wtabs = [[top, top], [top, 0], [0, top], [top, top - 1]]
    for wt in wtabs:
        assert _int32_bound(3, 1, [wt]) == (top < 2**31 / 48)
        assert _costs_and_width(monkeypatch, 3, 1, [wt])[1] == (top < 2**31 / 48)
        _assert_costs_match_table_cost(3, 1, [wt])
    _assert_costs_match_table_cost(3, 1, wtabs[1:3])


@pytest.mark.parametrize("top", [2**29 - 1, 2**29])
def test_encoder_costs_at_the_one_max_int32_edge(monkeypatch, top):
    # at m=2, n=2 the bound is 4 max(w): 2^29 - 1 is the last int32 table and
    # 2^29 the first int64 one. Under [top, 0, 0] a table whose c_1, c_2, c_3
    # differ from each other and from 0 has maxima summing to 4 top, which
    # would wrap in int32 at 2^29
    wtabs = [[top, top, top], [top, 0, 0], [0, 1, top], [top, top - 1, 1]]
    for wt in wtabs:
        assert _int32_bound(2, 2, [wt]) == (top < 2**29)
        assert _costs_and_width(monkeypatch, 2, 2, [wt])[1] == (top < 2**29)
        _assert_costs_match_table_cost(2, 2, [wt])
    _assert_costs_match_table_cost(2, 2, wtabs[1:3])


def test_encoder_costs_one_max_constant_past_int32(monkeypatch):
    # at m=2, n=8 with weights up to 8,000,000 the sums of maxima stay within
    # 2^8 8e6 < 2^31, so they are int32, while 4 sum_y W[0, y] is 8.192e9
    flat, sloped = [8_000_000] * 9, [8_000_000 - d for d in range(9)]
    (costs, ranks), narrow = _costs_and_width(monkeypatch, 2, 8, [flat])
    assert narrow and sum(math.comb(8, d) * 8_000_000 for d in range(9)) * 4 > 2**31
    # W is constant: every max is 0 and every cost is the constant
    assert costs.tolist() == [4 * 256 * 8_000_000] * len(ranks)
    (costs, ranks), narrow = _costs_and_width(monkeypatch, 2, 8, [sloped])
    assert narrow and len(ranks) == math.comb(15, 8)
    for i in range(0, len(ranks), 149):
        cw = orc.encoder_from_index(2, 8, int(ranks[i])).codewords
        assert int(costs[i]) == orc._table_cost(2, 8, cw, sloped)


def _as_ints(m, arr):
    # the kernel's costs and ranks: exact Python ints at m = 1, made without
    # numpy, and int64 arrays from m = 2 on
    if m == 1:
        assert type(arr) is list and all(type(v) is int for v in arr)
        return arr
    assert arr.dtype.name == "int64"
    return arr.tolist()


def _assert_costs_match_table_cost(m, n, wtabs):
    *costs, ranks = orc._encoder_costs(m, n, wtabs)
    want = [orc.EncoderTable(m, n, cw).index for cw in _canonical_tables(m, n)]
    assert _as_ints(m, ranks) == want
    tables = [orc.encoder_from_index(m, n, r).codewords for r in want]
    assert len(costs) == len(wtabs)
    for wt, got in zip(wtabs, costs):
        assert _as_ints(m, got) == [orc._table_cost(m, n, cw, wt) for cw in tables]


@pytest.mark.parametrize("cells", [1, 48, 112, 192, 400, 1000, 2000])
def test_encoder_costs_block_layout(monkeypatch, cells):
    # at m=2, n=3 the 120 tables are walked in blocks of cells // 16 of
    # them, at least 1 and at most 120, whose rows of A and B (8 cells each)
    # share one array; 7, 25 and 62 leave a partial last block
    rows = {1: 1, 48: 3, 112: 7, 192: 12, 400: 25, 1000: 62, 2000: 120}[cells]
    wtabs = [[3, 1, 4, 1], [0, 2**40, 7, 5]]
    want = orc._encoder_costs(2, 3, wtabs)
    assert len(want[-1]) == math.comb(10, 3) == 120
    shapes, real_empty = [], np.empty
    monkeypatch.setattr(_orbits, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(np, "empty", lambda shape, **k: shapes.append(shape)
                        or real_empty(shape, **k))
    got = orc._encoder_costs(2, 3, wtabs)
    assert [a.tolist() for a in got] == [b.tolist() for b in want]
    # one block array per call, for both weight tables' A and B rows
    assert [sh for sh in shapes if isinstance(sh, tuple) and len(sh) == 3] == [(2, rows, 8)]


@pytest.mark.parametrize("m,n,cells", [(3, 2, 1), (3, 2, 256), (3, 2, 5120)])
def test_encoder_costs_block_layout_at_other_slot_counts(monkeypatch, m, n, cells):
    # the 2^m - 4 trailing slots are summed once whatever the cell cap: 4 at
    # m=3, n=2, whose 36 canonical triples take 4^5 = 1,024 cells each; a
    # block holds cells // 1,024 of them, at least 1, and 5 leaves a partial
    # last block
    block = {1: 1, 256: 1, 5120: 5}[cells]
    wtabs = [list(range(1, n + 2)), [2**40] + [7] * n]
    want = orc._encoder_costs(m, n, wtabs)
    sizes, real_empty = [], np.empty
    monkeypatch.setattr(_orbits, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(np, "empty", lambda shape, **k: sizes.append(shape)
                        or real_empty(shape, **k))
    got = orc._encoder_costs(m, n, wtabs)
    assert [a.tolist() for a in got] == [b.tolist() for b in want]
    trailing = 4 ** 4
    assert len(want[-1]) == 36 * trailing
    # the two weight tables' costs, then one block array
    assert sizes == [len(want[-1])] * 2 + [2 ** n * block * trailing]


def test_encoder_costs_hold_one_block_array():
    # at m=2, n=5 the 792 tables make one block, and its int32 rows of A and
    # B take 198 KiB; one more array of a block's rows (99 KiB), such as a
    # fresh array per gather or max, or take's buffered copy into its out,
    # would pass the bound
    orc.p2p_bruteforce(2, 5, F(1, 4))  # fills the cached popcounts and plan
    tracemalloc.start()
    try:
        orc.p2p_bruteforce(2, 5, F(1, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * 792 * 32 * 4 < peak < 256 * 1024


def _direct_costs(m, n, wtabs, pinned):
    """The _table_cost of every table, vectorised over the tables, in the
    kernel's return shape: one cost array per weight table, then the ranks.
    Pinned, only the c0 = 0 tables, which lead the rank order."""
    K, N = 1 << m, 1 << n
    ranks = np.arange(N ** (K - 1 if pinned else K), dtype=np.int64)
    cw = np.stack([(ranks // N ** (K - 1 - s)) % N for s in range(K)], axis=1)
    # popcounts from int.bit_count, independent of the kernel's np.bitwise_count
    pc = np.array([y.bit_count() for y in range(N)])
    dist = pc[cw[:, :, None] ^ np.arange(N)]
    out = []
    for wt in wtabs:
        G = np.array(wt, dtype=np.int64)[dist]
        S = G.sum(axis=1)
        cost = np.zeros(len(ranks), dtype=np.int64)
        for j in range(m):
            A = G[:, np.arange(K) >> j & 1 == 1].sum(axis=1)
            cost += np.minimum(A, S - A).sum(axis=1)
        out.append(cost)
    return out + [ranks]


def _pick_p2p(costs, ranks):
    # the least cost and the lowest rank that reaches it
    return min(zip(map(int, costs), map(int, ranks)))


def _pick_frontier(c1, c2, ranks):
    # each Pareto point of (c1, c2) with the lowest rank that reaches it
    points = []
    for a, b, r in sorted(zip(map(int, c1), map(int, c2), map(int, ranks))):
        if not points or b < points[-1][1]:
            points.append((a, b, r))
    return points


@pytest.mark.parametrize("m,n", ENCODER_SHAPES + [(2, 4), (2, 5), (4, 1)])
@settings(max_examples=4)
@given(data=st.data())
def test_coordinate_permutations_keep_values_and_witnesses(m, n, data):
    # small weights make ties, so the lowest-rank witness is really tested
    weight = st.integers(0, 3) | st.integers(0, 2**40)
    wtabs = data.draw(st.lists(st.lists(weight, min_size=n + 1, max_size=n + 1),
                               min_size=2, max_size=2))
    c1, c2, ranks = orc._encoder_costs(m, n, wtabs)
    f1, f2, franks = _direct_costs(m, n, wtabs, pinned=True)
    assert _pick_p2p(c1, ranks) == _pick_p2p(f1, franks)
    assert _pick_p2p(c2, ranks) == _pick_p2p(f2, franks)
    assert _pick_frontier(c1, c2, ranks) == _pick_frontier(f1, f2, franks)


# ---------- binomial posterior ratio ----------


def test_binomial_gamma_exact_frozen():
    ratio, gamma = orc.binomial_gamma_exact(4, F(1, 4), 1)
    assert ratio.value == F(2, 5)
    assert gamma.value == F(-1, 5)
    ratio0, gamma0 = orc.binomial_gamma_exact(4, F(1, 4), 0)
    assert ratio0.value == F(1, 2)
    assert gamma0.value == 0


def test_binomial_gamma_exact_past_comb():
    # C(n, w +- k) has about 10^21 bits here; the ratio of the two is
    # (n - w + 1)(n - w) / (w (w + 1)) at k = 1
    n = 10**21
    w = n // 4
    up, down = (n - w + 1) * (n - w), w * (w + 1) * 3**2
    ratio, gamma = orc.binomial_gamma_exact(n, F(1, 4), 1)
    assert ratio.value == F(up, up + down)
    assert gamma.value == F(up - down, up + down)
    # and the product route agrees with the binomials where they are cheap
    for n, delta in ((40, F(1, 4)), (60, F(2, 5)), (13, F(1, 13))):
        w = int(n * delta)
        a, b = delta.numerator, delta.denominator
        for k in range(min(w, n - w) + 1):
            up = math.comb(n, w + k) * a ** (2 * k)
            down = math.comb(n, w - k) * (b - a) ** (2 * k)
            assert orc.binomial_gamma_exact(n, delta, k)[0].value == F(up, up + down)


def test_binomial_budget_is_checked_before_any_product(time_cap):
    # 4k factors in products of 2k (bit_length(n) + bit_length(b)) bits: at
    # n = 4k, delta 1/4, k = 5461 is the last admitted and 5462 the first
    # refused; before, k = 10^20 began a product of 2 10^20 factors
    with time_cap(1.0):
        for n, k, factors, bits in ((4 * 5462, 5462, 21848, 196632),
                                    (10**21, 10**20, 4 * 10**20, 146 * 10**20)):
            with pytest.raises(orc.BudgetExceeded,
                               match=r"^binomial needs %d factors x %d bits, budget is %d$"
                               % (factors, bits, orc.DEFAULT_BUDGET)):
                orc.binomial_gamma_exact(n, F(1, 4), k)
        assert 0 < orc.binomial_gamma_exact(4 * 5461, F(1, 4), 5461)[0].value < 1


def test_binomial_gamma_relation():
    ratio, gamma = orc.binomial_gamma_exact(20, F(1, 5), 3)
    assert gamma.value == 2 * ratio.value - 1


def test_binomial_approx_close():
    ratio, _ = orc.binomial_gamma_exact(1000, F(1, 5), 5)
    err = abs(orc.binomial_gamma_approx(1000, F(1, 5), 5) - float(ratio))
    assert err < 1e-5


def _binomial_approx_exact(n, delta, k):
    # the expansion in exact rationals, from the same float delta
    d = Fraction(float(delta))
    lead = Fraction((1.0 - 2.0 * delta) / (delta * (1.0 - delta)))
    return Fraction(1, 2) + lead / 4 * (Fraction(k * k, 3 * n) / (d * (1 - d)) - 1) * Fraction(k, n)


def test_binomial_gamma_approx_beyond_the_float_range():
    # n or k has no float, or k * k overflows: one rounding of the exact
    # rational value, and a DomainError where that leaves the float range
    for n, k in ((10**400, 3), (10**400, -3), (10**308, 10**200), (10**400, 10**250)):
        got = orc.binomial_gamma_approx(n, 0.25, k)
        assert got == float(_binomial_approx_exact(n, 0.25, k))
    assert orc.binomial_gamma_approx(10**400, 0.25, 3) == 0.5
    for n, k in ((1, 10**200), (10**400, 10**400)):
        with pytest.raises(DomainError, match="beyond the float range"):
            orc.binomial_gamma_approx(n, 0.25, k)


def test_binomial_gamma_scaling():
    # max_k |gamma| shrinks like 1/sqrt(n): the rescaled maxima stay within
    # a small constant factor of each other
    scaled = []
    for n in (1000, 10000):
        top = max(
            abs(float(orc.binomial_gamma_exact(n, F(1, 5), k)[1]))
            for k in range(1, int(math.isqrt(n)) + 1)
        )
        scaled.append(top * math.sqrt(n))
    assert scaled[0] / 3.0 <= scaled[1] <= scaled[0] * 3.0


def test_binomial_domain():
    with pytest.raises(DomainError):
        orc.binomial_gamma_exact(4, F(1, 4), 2)  # k > min(w, n-w)
    with pytest.raises(DomainError):
        orc.binomial_gamma_exact(5, F(1, 4), 1)  # n delta not integral
    with pytest.raises(DomainError):
        orc.binomial_gamma_exact(4, F(1, 2), 1)
    for n in (0, -4):
        with pytest.raises(DomainError):
            orc.binomial_gamma_exact(n, F(1, 4), 0)
        with pytest.raises(DomainError):
            orc.binomial_gamma_approx(n, 0.25, 0)
    for delta in (0.0, 0.5, -0.1):
        with pytest.raises(DomainError):
            orc.binomial_gamma_approx(10, delta, 1)


# ---------- coupling deviation ----------


def test_coupling_frozen():
    got = orc.coupling_distance_exact(10, F(1, 10), F(1, 5))
    assert got.value == F(50724864, 48828125)


def test_coupling_matches_direct_enumeration():
    n, d1, d2 = 6, F(1, 3), F(1, 4)
    w1 = int(n * d1)
    x = (1 << w1) - 1  # fixed vector of weight w1
    mu = n * (d1 + d2 - 2 * d1 * d2)
    total = F(0)
    for e in range(1 << n):
        we = bin(e).count("1")
        prob = d2**we * (1 - d2) ** (n - we)
        t = bin(x ^ e).count("1")
        total += prob * abs(t - mu)
    assert orc.coupling_distance_exact(n, d1, d2).value == total


def test_coupling_deviation_bound():
    for n in (4, 8, 12):
        for d2 in (F(1, 10), F(1, 4)):
            got = float(orc.coupling_distance_exact(n, F(1, 4), d2))
            assert got <= math.sqrt(n * float(d2))


def _coupling_by_kronecker(n, d1, d2):
    # reference oracle: the pmf numerators are the base-2^B digits of one
    # big-integer product, B chosen so that no digit carries
    w1 = int(n * d1)
    a, b = d2.numerator, d2.denominator
    B = (b ** n).bit_length()
    base = 1 << B
    prod = ((b - a) + a * base) ** (n - w1) * (a + (b - a) * base) ** w1
    mu = n * (d1 + d2 - 2 * d1 * d2)
    total = 0
    for t in range(n + 1):
        total += (prod & (base - 1)) * abs(t * mu.denominator - mu.numerator)
        prod >>= B
    return F(total, mu.denominator * b ** n)


@st.composite
def _coupling_instances(draw):
    n = draw(st.integers(3, 200))
    k = draw(st.integers(1, (n - 1) // 2))
    b = draw(st.integers(3, 300))
    a = draw(st.integers(1, (b - 1) // 2))
    return n, F(k, n), F(a, b)


@settings(max_examples=200)
@given(inst=_coupling_instances())
def test_coupling_closed_form_matches_kronecker_product(inst):
    n, d1, d2 = inst
    assert orc.coupling_distance_exact(n, d1, d2).value == _coupling_by_kronecker(n, d1, d2)


@pytest.mark.parametrize("n,d1,d2", [
    (10, F(1, 10), F(1, 8)),  # mu = 2: the t = mu term is zero
    (9, F(1, 9), F(2, 7)),  # w1 = 1: one step per walk
    (12, F(1, 4), F(3, 2**40 + 15)),  # (b - a)^2, a divisor factor, is past 2^30
    (12, F(1, 4), F(2**39, 2**40 + 15)),  # so are a^2 and (b - a)^2
])
def test_coupling_edges_match_kronecker_product(n, d1, d2):
    assert orc.coupling_distance_exact(n, d1, d2).value == _coupling_by_kronecker(n, d1, d2)


@pytest.mark.parametrize("n,d1,d2,msg", [
    (20, F(1, 4), F(1, 3), "inexact step 5 of the c_9 walk"),
    (10, F(3, 10), F(1, 5), "the c_4 walk missed its last term"),
])
def test_coupling_walks_check_their_steps_and_last_term(monkeypatch, n, d1, d2, msg):
    # with every binomial read as 1, each walk starts from a wrong first term
    monkeypatch.setattr(orc.math, "comb", lambda m, j: 1)
    with pytest.raises(AssertionError, match="^%s$" % msg):
        orc.coupling_distance_exact(n, d1, d2)


def test_coupling_budget_is_checked_before_any_binomial_or_power(monkeypatch, time_cap):
    def never(*args):
        raise AssertionError("a binomial was formed")

    # n = 10^6 first: work that grows with n shows at the cap there, while at
    # n = 10^21 it could sit in one power that no alarm interrupts
    with monkeypatch.context() as patch, time_cap(2.0):
        patch.setattr(orc.math, "comb", never)
        for n, terms, bits in ((10**6, 200002, 4 * 10**6),
                               (10**21, 2 * 10**20 + 2, 4 * 10**21)):
            with pytest.raises(orc.BudgetExceeded,
                               match=r"^coupling needs %d walk terms x %d bits, budget is %d$"
                               % (terms, bits, orc.DEFAULT_BUDGET)):
                orc.coupling_distance_exact(n, F(1, 10), F(1, 10))
    # k = 2: c_2 and c_3 have 2 terms each, and 10 bit_length(5) = 30
    with pytest.raises(orc.BudgetExceeded,
                       match=r"^coupling needs 4 walk terms x 30 bits, budget is 119$"):
        orc.coupling_distance_exact(10, F(1, 10), F(1, 5), budget=119)
    assert orc.coupling_distance_exact(10, F(1, 10), F(1, 5), budget=120).value == F(
        50724864, 48828125)
    # the default budget admits n = 10^4
    assert orc.coupling_distance_exact(10**4, F(3, 10), F(1, 7)).value > 0


def test_coupling_refuses_n_past_maxsize(monkeypatch, time_cap):
    # with no budget, n = 10^21 walks from C(9 10^20, 1.8 10^20 + 1), which
    # math.comb refuses with OverflowError; at n = 2^64, delta1 = delta2 =
    # 2^-64 the binomials are small, but the walk's powers have about 2^70
    # bits. Both are refused before any binomial or power is formed
    def never(*args):
        raise AssertionError("a binomial was formed")

    with monkeypatch.context() as patch, time_cap(2.0):
        patch.setattr(orc.math, "comb", never)
        for n, d in ((10**21, F(1, 10)), (2**64, F(1, 2**64))):
            with pytest.raises(DomainError, match=r"^coupling needs b\^n, over 2\^63 bits, "
                               r"at n = %d$" % n):
                orc.coupling_distance_exact(n, d, d, budget=math.inf)


def test_coupling_frozen_digest_at_n2000():
    got = orc.coupling_distance_exact(2000, F(3, 10), F(1, 7))
    digest = hashlib.sha256(str(got.value).encode()).hexdigest()
    assert digest == "cd459332c55053c73dd9a051911b394678daf6a2318047b4385608e2d3f861b3"


def test_coupling_domain():
    with pytest.raises(DomainError):
        orc.coupling_distance_exact(10, F(1, 3), F(1, 5))  # n delta1 = 10/3
    with pytest.raises(DomainError):
        orc.coupling_distance_exact(10, F(1, 10), F(1, 2))


# ---------- auxiliary-channel searches ----------


def test_rbar_grid_close_to_closed_form():
    from jsccbounds.broadcast_region import rbar_binary

    for p, q, d in ((0.3, 0.1, 0.1), (0.5, 0.2, 0.2), (0.4, 0.05, 0.15)):
        grid = orc.rbar_grid(p, q, d)
        assert abs(grid - rbar_binary(p, q, d)) < 1e-4


def test_rbar_grid_refuses_steps_past_its_cap(time_cap):
    # before any array: numpy refused 10^21 with a bare ValueError, and 2^40
    # points an axis would have asked for 8 TiB
    with time_cap(1):
        for steps in (4002, 2**40, 10**21):
            with pytest.raises(orc.DomainError,
                               match=r"^steps must be an integer in \[1, 4001\], got %d$" % steps):
                orc.rbar_grid(0.5, 0.1, 0.2, steps=steps)


def test_gq_search_deterministic():
    a = orc.converse_search_gq(0.1, 0.05, 0.2, trials=300, seed=3)
    b = orc.converse_search_gq(0.1, 0.05, 0.2, trials=300, seed=3)
    assert a == b


def test_gq_search_brackets_closed_form():
    for t in (0.0, 0.1, 0.3):
        best = orc.converse_search_gq(0.1, 0.05, t, trials=300, seed=1)
        closed = g_bsc(0.1, 0.05, t)
        assert best <= closed + 1e-6
        assert best >= closed - 1e-3


def test_gq_search_exact_at_zero_rate():
    best = orc.converse_search_gq(0.1, 0.05, 0.0, trials=100, seed=0)
    assert abs(best - g_bsc(0.1, 0.05, 0.0)) < 1e-9


def test_gq_search_budget_is_checked_before_the_first_draw(time_cap):
    with time_cap(2.0):
        with pytest.raises(orc.BudgetExceeded,
                           match=r"^search needs %d trials x 9 h_b evaluations, budget is %d$"
                           % (10**21, orc.DEFAULT_BUDGET)):
            orc.converse_search_gq(0.1, 0.05, 0.1, trials=10**21)
    with pytest.raises(orc.BudgetExceeded, match="search needs 12 trials"):
        orc.converse_search_gq(0.1, 0.05, 0.1, trials=12, budget=107)
    assert orc.converse_search_gq(0.1, 0.05, 0.1, trials=12, budget=108) == \
        orc.converse_search_gq(0.1, 0.05, 0.1, trials=12)


def test_gq_search_domain():
    cap = math.log(2) - (-0.1 * math.log(0.1) - 0.9 * math.log(0.9))
    with pytest.raises(DomainError):
        orc.converse_search_gq(0.1, 0.05, cap + 1e-6)
    with pytest.raises(DomainError):
        orc.converse_search_gq(0.1, 0.05, -0.1)
    with pytest.raises(DomainError):
        orc.converse_search_gq(0.0, 0.05, 0.1)


# ---------- inequality verification ----------


def test_verify_all_suites_clean_on_coarse_grid():
    reports = orc.verify_inequalities(orc.ALL_SUITES, grid_step=0.01, tol=1e-9)
    assert len(reports) == len(orc.ALL_SUITES)
    for rep in reports:
        assert rep.violations == 0, rep.inequality
        assert rep.max_violation < 1e-9
        assert rep.argmax  # a witness point is always reported


def test_verify_unknown_suite():
    with pytest.raises(DomainError):
        orc.verify_inequalities(["nope"])


def test_verify_checks_every_suite_name_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setitem(orc._SUITE_RUNNERS, "mgl-lin", lambda step, tol: ran.append(step))
    with pytest.raises(DomainError):
        orc.verify_inequalities(["mgl-lin", "nope"])
    assert ran == []


@pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf])
def test_verify_rejects_bad_grid_step(step):
    with pytest.raises(DomainError):
        orc.verify_inequalities(["beta-props"], grid_step=step)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_verify_rejects_non_finite_tol(tol):
    # every comparison with NaN is False, so a NaN tol would pass every grid
    with pytest.raises(DomainError):
        orc.verify_inequalities(["g-convex"], grid_step=0.01, tol=tol)


def test_verify_axis_cap_boundary():
    cap = orc._VERIFY_AXIS_MAX_POINTS
    span = orc._BOX_HI - orc._BOX_LO
    assert len(orc._axis(span / (cap - 1))) == cap
    (rep,) = orc.verify_inequalities(["g-convex"], grid_step=span / (cap - 1))
    assert rep.violations == 0
    assert len(orc._axis(span / cap)) == cap + 1
    with pytest.raises(DomainError):
        orc.verify_inequalities(["g-convex"], grid_step=span / cap)


def test_verify_three_point_floor_boundary():
    # g-convex needs 3 points for one second difference, theta-dec 2 for one
    # first difference; one floor of 3 holds for every suite
    span = orc._BOX_HI - orc._BOX_LO
    assert len(orc._axis(span / 2)) == 3
    reports = orc.verify_inequalities(orc.ALL_SUITES, grid_step=span / 2)
    assert [len(rep.argmax) for rep in reports] == [3, 1, 2, 1, 2, 2]
    assert len(orc._axis(span / 1.5)) == 2
    for name in orc.ALL_SUITES:
        with pytest.raises(DomainError):
            orc.verify_inequalities([name], grid_step=span / 1.5)


@pytest.mark.parametrize("step", [0.3, 0.5, 1e300])
def test_verify_refuses_a_coarse_step_before_any_suite_runs(monkeypatch, step):
    ran = []
    monkeypatch.setitem(orc._SUITE_RUNNERS, "mgl-lin", lambda step, tol: ran.append(step))
    with pytest.raises(DomainError, match="must put 3 to"):
        orc.verify_inequalities(["mgl-lin"], grid_step=step)
    assert ran == []


# every suite at grid step 0.02 with tol = -1, so every count is nonzero
_FROZEN_REPORTS_002 = [
    orc.ViolationReport("mgl-lin", "d1,d2 in [0.0001, 0.4999] step 0.02; 20 t values in [0, log 2]",
                        -8.376566107415329e-11, (0.48009999999999997, 0.0001, 0.6931471805599453),
                        12500),
    orc.ViolationReport("g-convex", "t in [0.0001, 0.4999] step 0.02",
                        -0.0032429565310716658, (0.4601,), 22),
    orc.ViolationReport("beta-props", "q,t in [0.0001, 0.4999] step 0.02",
                        -3.173117894265859e-11, (0.0001, 0.48009999999999997), 1066),
    orc.ViolationReport("theta-dec", "t in [0.0001, 0.4999] step 0.02",
                        -0.0008032878408799071, (0.48009999999999997,), 23),
    orc.ViolationReport("f-lt-1", "rho in (1, 3], delta in [0.0001, 0.4999] step 0.02",
                        -2.1173538161112226e-05, (1.08, 0.48009999999999997), 483),
    orc.ViolationReport("phi-deriv-le-1", "delta,x in [0.0001, 0.4999] step 0.02",
                        -0.00034408654202332456, (0.48009999999999997, 0.0001), 625),
]


def test_verify_frozen_reports_at_negative_tol():
    reports = orc.verify_inequalities(orc.ALL_SUITES, grid_step=0.02, tol=-1.0)
    assert reports == _FROZEN_REPORTS_002


# every suite at grid step 1e-3 with tol = -1; mgl-lin's largest margin, 0.0,
# sits at six cells of two grid rows, and the first one is reported
_FROZEN_REPORTS_0001 = [
    orc.ViolationReport("mgl-lin", "d1,d2 in [0.0001, 0.4999] step 0.001; 20 t values in [0, log 2]",
                        0.0, (0.4981, 0.4991, 0.6931471805599453), 5000000),
    orc.ViolationReport("g-convex", "t in [0.0001, 0.4999] step 0.001",
                        -8.000241713082595e-06, (0.4981,), 498),
    orc.ViolationReport("beta-props", "q,t in [0.0001, 0.4999] step 0.001",
                        -6.477270752380532e-14, (0.0001, 0.4991), 431951),
    orc.ViolationReport("theta-dec", "t in [0.0001, 0.4999] step 0.001",
                        -1.8667191725718624e-06, (0.4991,), 495),
    orc.ViolationReport("f-lt-1", "rho in (1, 3], delta in [0.0001, 0.4999] step 0.001",
                        -2.090729034343042e-09, (1.004, 0.4991), 198804),
    orc.ViolationReport("phi-deriv-le-1", "delta,x in [0.0001, 0.4999] step 0.001",
                        -7.034247463774827e-07, (0.4991, 0.0001), 250000),
]


def test_verify_frozen_reports_at_grid_1e3():
    reports = orc.verify_inequalities(orc.ALL_SUITES, grid_step=1e-3, tol=-1.0)
    assert reports == _FROZEN_REPORTS_0001


# 25 rows at step 0.02: blocks of one row, and of 7 rows (the last holds 4)
@pytest.mark.parametrize("cells", [1, 7 * 25])
def test_verify_reports_do_not_depend_on_the_block_size(monkeypatch, cells):
    monkeypatch.setattr(orc, "_ROW_CELLS", cells)
    reports = orc.verify_inequalities(orc.ALL_SUITES, grid_step=0.02, tol=-1.0)
    assert reports == _FROZEN_REPORTS_002


def test_verify_keeps_the_first_largest_margin_across_blocks(monkeypatch):
    # with one row per block, mgl-lin's six tied cells fall in two blocks
    monkeypatch.setattr(orc, "_ROW_CELLS", 1)
    assert orc.verify_inequalities(["mgl-lin"], grid_step=1e-3, tol=-1.0) == \
        _FROZEN_REPORTS_0001[:1]


def test_scan_ties_go_to_the_first_block_then_the_first_part(monkeypatch):
    monkeypatch.setattr(orc, "_ROW_CELLS", 3)
    rows, cols = np.arange(4.0), np.arange(3.0)

    def margins(r):
        yield np.where(rows[r, None] >= 1.0, 1.0, 0.0) + 0.0 * cols, ()
        yield np.ones((len(rows[r]), len(cols))), ()
    rep = orc._scan("tie", "grid", rows, cols, margins, 0.5)
    assert rep == orc.ViolationReport("tie", "grid", 1.0, (1.0, 0.0), 21)


@pytest.mark.parametrize("suite, step", [
    ("f-lt-1", 1e-3),
    ("phi-deriv-le-1", (orc._BOX_HI - orc._BOX_LO) / (orc._VERIFY_AXIS_MAX_POINTS - 1)),
])
def test_verify_blocks_bound_the_working_set(suite, step):
    # a block holds about 2^14 cells, so a suite's temporaries stay near 1 MiB;
    # the whole grid at once would take 15.5 MiB for f-lt-1 at 1e-3 and
    # 122 MiB for phi-deriv-le-1 at the axis cap
    tracemalloc.start()
    try:
        orc.verify_inequalities([suite], step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_verify_report_shape():
    (rep,) = orc.verify_inequalities(["beta-props"], grid_step=0.02)
    assert rep.inequality == "beta-props"
    assert rep.violations == 0
    assert all(isinstance(a, float) for a in rep.argmax)
