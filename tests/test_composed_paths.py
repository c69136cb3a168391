"""The composed bounds call the private formulas on the floats their checks
returned, and form each shared value once: gap_rhs, mgl_phi_deriv,
fp_binary, g_bsc, converse_search_gq and the beta-props and phi-deriv-le-1
grid suites. A spy pins the checks and formula calls each one makes, and a
sha256 pin over seeded draws, refusals included, pins their outputs."""

import hashlib
import math
import random
import sys

import pytest

from jsccbounds import binary_info as bi
from jsccbounds import bounds_core as bc
from jsccbounds import broadcast_region as br
from jsccbounds import oracles as orc
from jsccbounds.binary_info import NAT_LOG2, DomainError


def _counting(calls, name, fn):
    def spy(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return spy


def _spy(monkeypatch, module, *names):
    """A dict that counts the calls to each name in module, from module's
    own functions."""
    calls = {}
    for name in names:
        monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
    return calls


def test_gap_rhs_checks_each_argument_once(monkeypatch):
    # tau, d1, d2, delta1 and gamma_corr's delta2; the formulas check nothing
    calls = {}
    for module in (bc, bi):
        monkeypatch.setattr(module, "_real", _counting(calls, "_real", module._real))
    bp = br.BinaryBroadcastParams(1.2, 0.5, 0.08, 0.05, n=1000)
    bc.gap_rhs(0.15, 0.2, bp, 1.0)
    assert calls == {"_real": 5}


def test_mgl_phi_deriv_checks_delta_and_t_once(monkeypatch):
    calls = _spy(monkeypatch, bi, "_real")
    bi.mgl_phi_deriv(0.1, 0.3)
    assert calls == {"_real": 2}


@pytest.mark.parametrize("module, call", [
    (br, lambda: br.fp_binary(0.3, 0.1, 0.2)),
    (br, lambda: br.g_bsc(0.1, 0.05, 0.1)),
    (orc, lambda: orc.converse_search_gq(0.1, 0.05, 0.2, trials=0)),
], ids=["fp_binary", "g_bsc", "converse_search_gq"])
def test_one_h_b_for_the_clamp_and_the_formula(monkeypatch, module, call):
    calls = _spy(monkeypatch, module, "h_b")
    call()
    assert calls == {"h_b": 1}


@pytest.mark.parametrize("suite, names, want", [
    # the column axis's kappa, h and g once, and h(conv(q, t)) per block of
    # rows: 16 blocks of 32 rows at step 1e-3
    ("beta-props", ("_h", "_g", "_kappa"), {"_kappa": 1, "_g": 1, "_h": 17}),
    # h'(x) once, and h'(conv(delta, x)) per block
    ("phi-deriv-le-1", ("_hp",), {"_hp": 17}),
])
def test_grid_suites_form_the_column_axis_once(monkeypatch, suite, names, want):
    calls = _spy(monkeypatch, orc, *names)
    orc.verify_inequalities([suite], 1e-3)
    assert calls == want


def _value_or_refusal(f, *args):
    try:
        return repr(f(*args))
    except DomainError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


# non-finite values and the edges of the kernels' domains
_EDGES = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, sys.float_info.min, 1e-300,
          bi._T_MIN, 0.25, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), NAT_LOG2, 1.0)


def _draw(rng, lo, hi):
    # one time in five an edge, one in five log-uniform in (0, hi), else
    # uniform in [lo, hi]
    u = rng.random()
    if u < 0.2:
        return rng.choice(_EDGES)
    if u < 0.4:
        return hi * 10.0 ** rng.uniform(-320.0, 0.0)
    return rng.uniform(lo, hi)


def _probe_lines():
    """One value or refusal text a line, from seeded draws of each composed
    function, t from _T_MIN up for mgl_phi_deriv, seeded searches, and the
    two suites' reports at five grid steps."""
    rng = random.Random(45)
    d = _draw
    for _ in range(3000):
        n = rng.choice([None, rng.randint(1, 10**6), 10**400])
        d1, d2, rho, p, delta1, delta2, tau = (d(rng, 0.0, hi) for hi in (0.5, 0.5, 3.0, 0.5,
                                                                          0.5, 0.5, 5.0))
        yield _value_or_refusal(lambda: bc.gap_rhs(
            d1, d2, br.BinaryBroadcastParams(rho, p, delta1, delta2, n), tau))
    for _ in range(3000):
        yield _value_or_refusal(bi.mgl_phi_deriv, d(rng, 0.0, 0.5), d(rng, 0.0, NAT_LOG2))
    for _ in range(3000):
        p = d(rng, 0.0, 0.5)
        hp = bi.h_b(p) if 0.0 <= p <= 1.0 else 0.5
        yield _value_or_refusal(br.fp_binary, p, d(rng, 0.0, 0.5),
                                rng.choice([d(rng, 0.0, NAT_LOG2), hp, hp + 1e-12, -1e-12]))
    for _ in range(3000):
        yield _value_or_refusal(br.g_bsc, d(rng, 0.0, 0.5), d(rng, 0.0, 0.5),
                                d(rng, -1e-12, NAT_LOG2))
    for _ in range(3000):
        # n delta1 and n conv(delta1, delta2) whole where delta2 is 0 or 1/2
        n = rng.randint(1, 64)
        delta1 = rng.choice([rng.randint(0, n // 2) / n, d(rng, 0.0, 0.5)])
        yield _value_or_refusal(br.g_spherical_ub, delta1,
                                rng.choice([0.0, 0.5, d(rng, 0.0, 0.5)]),
                                rng.choice([n, 2 * n, d(rng, 0.0, 100.0)]),
                                d(rng, -1e-12, NAT_LOG2))
    for _ in range(3000):
        eps, rho, d1, q = sorted([rng.random(), rng.random()]), d(rng, 0.0, 3.0), \
            d(rng, 0.0, 0.5), d(rng, 0.0, 0.5)
        yield _value_or_refusal(lambda: br.erasure_d2_floor(br.ErasureParams(*eps), rho, d1, q))
    # 1,000 floats from _T_MIN up, then 19,000 log-spaced t up to log 2
    t = bi._T_MIN
    for i in range(20000):
        yield _value_or_refusal(bi.mgl_phi_deriv, (0.0, 0.1, 0.3, math.nextafter(0.5, 0.0))[i % 4],
                                t)
        t = math.nextafter(t, 1.0) if i < 1000 else min(
            bi._T_MIN * (NAT_LOG2 / bi._T_MIN) ** ((i - 999) / 19000),
            math.nextafter(NAT_LOG2, 0.0))
    for i in range(200):
        t = 0.0 if i % 10 == 0 else rng.uniform(0.0, 0.7)
        yield _value_or_refusal(orc.converse_search_gq, rng.uniform(0.0, 0.5),
                                rng.uniform(0.0, 0.5), t, rng.randint(0, 40), rng.randrange(2**32))
    for step in (0.1, 0.05, 1e-2, 7e-3, 1e-3):
        yield repr(orc.verify_inequalities(["beta-props", "phi-deriv-le-1"], step))


def test_composed_paths_keep_their_outputs():
    digest = hashlib.sha256()
    for line in _probe_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == \
        "c33f60e2bea7a8d53fda04a03aa095b12270e0d8ea648b0ad92acf9957b6a81f"
