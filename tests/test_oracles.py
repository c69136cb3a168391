import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    for m, n, delta in ((1, 2, F(1, 10)), (2, 2, F(1, 4)), (1, 3, F(1, 4))):
        full, _ = orc.p2p_bruteforce(m, n, delta, use_symmetry=False)
        red, _ = orc.p2p_bruteforce(m, n, delta, use_symmetry=True)
        assert full.value == red.value


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


def test_p2p_frozen_n5_n6():
    # copied from perfbench/reference/oracle.json (seed-commit outputs)
    cases = [
        (2, 5, F(1, 4), F(13, 64), 1487),
        (2, 5, F(1, 5), F(89, 625), 7998),
        (2, 6, F(1, 4), F(5, 32), 32319),
    ]
    for m, n, delta, want, index in cases:
        val, table = orc.p2p_bruteforce(m, n, delta)
        assert (val.value, table.index) == (want, index), (m, n, delta)


def test_exact_value_container():
    v = orc.ExactValue(F(1, 3))
    assert float(v) == pytest.approx(1 / 3, rel=1e-15)
    assert v.mode == "exact"
    w = orc.ExactValue(0.25, mode="float")
    assert float(w) == 0.25
    with pytest.raises(ValueError):
        orc.ExactValue(0.25, mode="fancy")


def test_encoder_table_validation():
    t = orc.EncoderTable(1, 2, (0, 3))
    assert t.index == 3
    assert t.words() == ["00", "11"]
    assert orc.encoder_from_index(1, 2, 3) == t
    with pytest.raises(ValueError):
        orc.EncoderTable(1, 2, (0, 1, 2))  # wrong table size
    with pytest.raises(ValueError):
        orc.EncoderTable(1, 2, (0, 4))  # codeword out of range


# ---------- sphere-noise brute force ----------


def test_sphere_fixed_encoder():
    got = orc.sphere_bruteforce(1, 2, 1, encoder=(0, 3))
    assert got.value == F(1, 2)
    # tuple and table forms agree
    tab = orc.EncoderTable(1, 2, (0, 3))
    assert orc.sphere_bruteforce(1, 2, 1, encoder=tab).value == F(1, 2)


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


def test_frontier_domain():
    for m, n in ((0, 2), (-1, 2), (2, 0)):
        with pytest.raises(DomainError, match="m and n must be positive"):
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


def _weight_tables(n):
    table = st.lists(st.integers(0, 2**40), min_size=n + 1, max_size=n + 1)
    return st.lists(table, min_size=1, max_size=2)


@pytest.mark.parametrize("use_symmetry", [True, False])
@pytest.mark.parametrize("m,n", ENCODER_SHAPES)
@settings(max_examples=2)
@given(data=st.data())
def test_encoder_costs_match_table_cost(m, n, use_symmetry, data):
    # (3, 2) without symmetry walks its leading slot in several blocks
    wtabs = data.draw(_weight_tables(n))
    costs = orc._encoder_costs(m, n, wtabs, use_symmetry, orc.DEFAULT_BUDGET)
    K = 1 << m
    pinned = (0,) if use_symmetry else ()
    tables = [pinned + rest
              for rest in itertools.product(range(1 << n), repeat=K - len(pinned))]
    for wt, got in zip(wtabs, costs):
        assert got.tolist() == [orc._table_cost(m, n, cw, wt) for cw in tables]


@pytest.mark.parametrize("cells", [1, 48, 192, 1000])
def test_encoder_costs_block_layout(monkeypatch, cells):
    # at m=2, n=3 these caps give 0, 0, 1 and 2 trailing slots, and blocks
    # of 1, 6, 3 and 1 prefixes (6 and 3 leave a partial last block)
    wtabs = [[3, 1, 4, 1], [0, 2**40, 7, 5]]
    want = {sym: orc._encoder_costs(2, 3, wtabs, sym, orc.DEFAULT_BUDGET)
            for sym in (True, False)}
    monkeypatch.setattr(orc, "_BLOCK_CELLS", cells)
    for sym in (True, False):
        got = orc._encoder_costs(2, 3, wtabs, sym, orc.DEFAULT_BUDGET)
        assert all((a == b).all() for a, b in zip(got, want[sym]))


# ---------- binomial posterior ratio ----------


def test_binomial_gamma_exact_frozen():
    ratio, gamma = orc.binomial_gamma_exact(4, F(1, 4), 1)
    assert ratio.value == F(2, 5)
    assert gamma.value == F(-1, 5)
    ratio0, gamma0 = orc.binomial_gamma_exact(4, F(1, 4), 0)
    assert ratio0.value == F(1, 2)
    assert gamma0.value == 0


def test_binomial_gamma_relation():
    ratio, gamma = orc.binomial_gamma_exact(20, F(1, 5), 3)
    assert gamma.value == 2 * ratio.value - 1


def test_binomial_approx_close():
    ratio, _ = orc.binomial_gamma_exact(1000, F(1, 5), 5)
    err = abs(orc.binomial_gamma_approx(1000, F(1, 5), 5) - float(ratio))
    assert err < 1e-5


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


def test_verify_report_shape():
    (rep,) = orc.verify_inequalities(["beta-props"], grid_step=0.02)
    assert rep.inequality == "beta-props"
    assert rep.violations == 0
    assert all(isinstance(a, float) for a in rep.argmax)
