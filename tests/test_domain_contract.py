"""The domain contract of the public API: every function and params class
exported from jsccbounds returns a finite value or raises DomainError, for
NaN and +-inf in any real or count argument and a non-integer count, at the
kernel's edges, at n = 10^6, at the rho where d_asym reaches 0 and at the
option sweeps' extreme values, and a count given as an integral float means
the same as the int. The ten result records keep their reprs, fields and
defaults, are immutable, and compare and hash by value."""

import math
import re
from fractions import Fraction

import pytest

import jsccbounds as jb
from jsccbounds import DomainError
from jsccbounds.binary_info import NAT_LOG2, _NEWTON_CUTOFF, _end, h_b

_BP = dict(rho=1.2, p=0.5, delta1=0.08, delta2=0.05)
_GP = dict(sigma2=1.0, aux_var=0.5, power=1.0, n1=0.5, n2=1.0, rho=1.0)
_SP = dict(n=10, rho=1.5, delta=0.2)


def _bp(rho, p, delta1, delta2, n=None):
    return jb.BinaryBroadcastParams(rho=rho, p=p, delta1=delta1, delta2=delta2, n=n)


def _gp(sigma2, aux_var, power, n1, n2, rho):
    return jb.GaussianBroadcastParams(sigma2, aux_var, power, n1, n2, rho)


# name: (callable taking keyword arguments, a valid point); every keyword is
# a real or a count argument, and the params fields are arguments too
_TABLE = {
    "h_b": (jb.h_b, dict(x=0.3)),
    "h_b_inv": (jb.h_b_inv, dict(t=0.3)),
    "h_b_prime": (jb.h_b_prime, dict(x=0.3)),
    "conv": (jb.conv, dict(a=0.1, b=0.2)),
    "g": (jb.g, dict(t=0.2)),
    "kappa": (jb.kappa, dict(t=0.2)),
    "Phi": (jb.Phi, dict(t=0.2)),
    "psi": (jb.psi, dict(t=0.2)),
    "vartheta": (jb.vartheta, dict(t=0.2)),
    "R": (jb.R, dict(t=0.2)),
    "beta": (jb.beta, dict(q=0.1, t=0.2)),
    "phi": (jb.phi, dict(q=0.1, t=0.2)),
    "nu": (jb.nu, dict(q=0.1, t=0.2)),
    "mgl_phi": (jb.mgl_phi, dict(delta=0.1, t=0.3)),
    "mgl_phi_deriv": (jb.mgl_phi_deriv, dict(delta=0.1, t=0.3)),
    "SystemParams": (jb.SystemParams, dict(n=200, rho=2.0, delta=0.1, m=100)),
    "SystemParams.from_counts": (jb.SystemParams.from_counts,
                                 dict(m=100, n=200, delta=0.1)),
    "d_asym": (jb.d_asym, dict(rho=1.5, delta=0.1)),
    "d_asym_deriv": (jb.d_asym_deriv, dict(rho=1.5, delta=0.1)),
    "f_factor": (jb.f_factor, dict(rho=1.5, delta=0.1)),
    "eta": (jb.eta, dict(rho=1.5, delta=0.1)),
    "tau_star": (jb.tau_star, dict(rho=1.5, delta=0.1)),
    "gamma_corr": (jb.gamma_corr, dict(n=100, delta2=0.1)),
    "gap_lower_bound": (lambda **kw: jb.gap_lower_bound(jb.SystemParams(**kw)),
                        dict(n=1000, rho=1.5, delta=0.1)),
    "sphere_floor_at_weight": (
        lambda weight, **kw: jb.sphere_floor_at_weight(jb.SystemParams(**kw), weight),
        dict(_SP, weight=1)),
    "sphere_floor": (lambda k, **kw: jb.sphere_floor(jb.SystemParams(**kw), k),
                     dict(_SP, k=1)),
    "expected_sphere_floor": (lambda **kw: jb.expected_sphere_floor(jb.SystemParams(**kw)),
                              dict(_SP)),
    "gap_rhs": (lambda d1, d2, tau, **kw: jb.gap_rhs(d1, d2, _bp(**kw), tau),
                dict(_BP, n=1000, d1=0.1, d2=0.2, tau=0.5)),
    "sum_distortion_lb": (lambda a, **kw: jb.sum_distortion_lb(a, jb.SystemParams(**kw)),
                          dict(a=1.0, n=1000, rho=1.5, delta=0.1)),
    "separation_upper": (jb.separation_upper, dict(d0=0.1, p_err=0.2)),
    "BinaryBroadcastParams": (_bp, dict(_BP, n=1000)),
    "GaussianBroadcastParams": (_gp, dict(_GP)),
    "ErasureParams": (jb.ErasureParams, dict(eps1=0.1, eps2=0.2)),
    "fp_binary": (jb.fp_binary, dict(p=0.5, q=0.1, t=0.2)),
    "rbar_binary": (jb.rbar_binary, dict(p=0.5, q=0.1, d=0.2)),
    "g_bsc": (jb.g_bsc, dict(delta1=0.1, delta2=0.05, t=0.1)),
    "g_bec": (lambda t, **kw: jb.g_bec(jb.ErasureParams(**kw), t),
              dict(eps1=0.1, eps2=0.2, t=0.3)),
    "g_spherical_ub": (jb.g_spherical_ub, dict(delta1=0.2, delta2=0.25, n=20, t=0.1)),
    "outer_bound_slack": (lambda d1, d2, q, **kw: jb.outer_bound_slack(d1, d2, q, _bp(**kw)),
                          dict(_BP, n=1000, d1=0.1, d2=0.2, q=0.3)),
    "region_trace": (lambda d1, **kw: jb.region_trace(_bp(**kw), [d1]), dict(_BP, d1=0.2)),
    "d1_feasibility_margin": (lambda d1, **kw: jb.d1_feasibility_margin(d1, _bp(**kw)),
                              dict(_BP, d1=0.2)),
    "d2_floor": (lambda **kw: jb.d2_floor(_bp(**kw)), dict(_BP)),
    "d2_floor_slack": (lambda d2_probe, **kw: jb.d2_floor_slack(d2_probe, _bp(**kw)),
                       dict(_BP, d2_probe=0.2)),
    "gaussian_rate": (lambda d, **kw: jb.gaussian_rate(_gp(**kw), d), dict(_GP, d=0.3)),
    "gaussian_rbar": (lambda d, **kw: jb.gaussian_rbar(_gp(**kw), d), dict(_GP, d=0.3)),
    "gaussian_fp": (lambda t, **kw: jb.gaussian_fp(_gp(**kw), t), dict(_GP, t=0.2)),
    "gaussian_gq": (lambda t, **kw: jb.gaussian_gq(_gp(**kw), t), dict(_GP, t=0.2)),
    "gaussian_bound": (lambda d1, **kw: jb.gaussian_bound(_gp(**kw), d1), dict(_GP, d1=0.3)),
    "gaussian_d2_floor": (lambda d1, **kw: jb.gaussian_d2_floor(_gp(**kw), d1),
                          dict(_GP, d1=0.3)),
    "erasure_d2_floor": (
        lambda eps1, eps2, **kw: jb.erasure_d2_floor(jb.ErasureParams(eps1, eps2), **kw),
        dict(eps1=0.1, eps2=0.2, rho=1.0, d1=0.2, q=0.1)),
    "encoder_from_index": (jb.encoder_from_index, dict(m=1, n=2, index=3)),
    "p2p_bruteforce": (jb.p2p_bruteforce, dict(m=1, n=2, delta=0.25)),
    "sphere_bruteforce": (jb.sphere_bruteforce, dict(m=1, n=2, weight=1)),
    "broadcast_frontier": (jb.broadcast_frontier, dict(m=1, n=2, w1=1, w2=1)),
    "binomial_gamma_exact": (jb.binomial_gamma_exact, dict(n=8, delta=0.25, k=1)),
    "binomial_gamma_approx": (jb.binomial_gamma_approx, dict(n=8, delta=0.25, k=1)),
    "coupling_distance_exact": (jb.coupling_distance_exact,
                                dict(n=10, delta1=0.2, delta2=0.25, budget=2**32)),
    "rbar_grid": (jb.rbar_grid, dict(p=0.5, q=0.1, d=0.2, steps=11)),
    "converse_search_gq": (jb.converse_search_gq,
                           dict(delta1=0.1, delta2=0.05, t=0.1, trials=10, budget=2**32)),
    "verify_inequalities": (
        lambda **kw: jb.verify_inequalities(["g-convex"], **kw),
        dict(grid_step=0.01, tol=1e-9)),
}

_COUNTS = {"m", "n", "k", "weight", "w1", "w2", "index", "steps", "trials"}


def _cases():
    for name, (_, base) in _TABLE.items():
        yield pytest.param(name, None, None, id=name)
        for arg, v in base.items():
            values = [math.nan, math.inf, -math.inf]
            if arg in _COUNTS:
                values += [v + 0.7, float(v)]
            for value in values:
                yield pytest.param(name, arg, value, id="%s-%s=%r" % (name, arg, value))


def _finite(out) -> bool:
    if isinstance(out, float):
        return math.isfinite(out)
    if isinstance(out, (list, tuple)):  # the result records are named tuples
        return all(map(_finite, out))
    return out is None or isinstance(out, (int, Fraction, str))


@pytest.mark.parametrize("name,arg,value", list(_cases()))
def test_finite_result_or_domain_error(name, arg, value):
    fn, base = _TABLE[name]
    kw = dict(base)
    if arg is None:
        # the valid point itself, so every probe below moves one argument off it
        assert _finite(fn(**kw))
        return
    kw[arg] = value
    if arg in _COUNTS and value == int(base[arg]):
        assert fn(**kw) == fn(**base)
        return
    if arg in _COUNTS and math.isfinite(value):
        with pytest.raises(DomainError):
            fn(**kw)
        return
    try:
        out = fn(**kw)
    except DomainError:
        return
    assert _finite(out), out


# the kernel's edges: t at 0, at h_b_inv's Newton cutoff and the float
# above it, where its fitted start begins to count, at 0.03, at log 2 and
# the float below, and at the 1e-12 of slop past log 2 and the float beyond;
# q at both ends of [0, 1/2]
_T_EDGES = [0.0, _NEWTON_CUTOFF, math.nextafter(_NEWTON_CUTOFF, 1.0), 0.03,
            math.nextafter(NAT_LOG2, 0.0), NAT_LOG2, NAT_LOG2 + 1e-12,
            math.nextafter(NAT_LOG2 + 1e-12, 1.0)]
_EDGES = ([(name, "t", t) for name in ("h_b_inv", "mgl_phi", "mgl_phi_deriv") for t in _T_EDGES]
          + [(name, "q", q) for name in ("beta", "phi", "nu", "fp_binary", "rbar_binary",
                                         "outer_bound_slack") for q in (0.0, 0.5)])


@pytest.mark.parametrize("name,arg,value", [
    pytest.param(*case, id="%s-%s=%r" % case) for case in _EDGES])
def test_finite_result_or_domain_error_at_the_kernel_edges(name, arg, value):
    fn, base = _TABLE[name]
    try:
        out = fn(**dict(base, **{arg: value}))
    except DomainError:
        return
    assert _finite(out), out


# n = 10^6 wherever n is not a brute-force size: every function with an n,
# and the broadcast ones through their params, but the exhaustive and exact
# oracles, which meet their work budget there (BudgetExceeded)
_N_BRUTE = {"encoder_from_index", "p2p_bruteforce", "sphere_bruteforce", "broadcast_frontier",
            "binomial_gamma_exact", "coupling_distance_exact"}
_N_BIG = [name for name, (_, base) in _TABLE.items() if "n" in base and name not in _N_BRUTE] + [
    "region_trace", "d1_feasibility_margin", "d2_floor", "d2_floor_slack"]
# SystemParams checks n against m rho, so m moves with n
_N_BIG_WITH = {"SystemParams": dict(m=500_000)}


# rho at the d_asym = 0 edge, log 2 / (log 2 - h_b(delta)), and the float on
# either side of it, where D* > 0 decides between a value and DomainError
def _rho_edges(delta):
    edge = NAT_LOG2 / (NAT_LOG2 - h_b(delta))
    return [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]


_BIG_CASES = ([(name, "n", 10 ** 6) for name in _N_BIG]
              + [(name, "rho", rho)
                 for name in ("d_asym", "d_asym_deriv", "eta", "tau_star", "gap_lower_bound")
                 for rho in _rho_edges(_TABLE[name][1]["delta"])])


@pytest.mark.parametrize("name,arg,value", [
    pytest.param(*case, id="%s-%s=%r" % case) for case in _BIG_CASES])
def test_finite_result_or_domain_error_at_large_n_and_the_rho_edge(name, arg, value):
    fn, base = _TABLE[name]
    try:
        out = fn(**dict(base, **{arg: value}, **_N_BIG_WITH.get(name, {})))
    except DomainError:
        return
    assert _finite(out), out


# the option sweeps' extreme values (tests/test_cli.py) in library form, one
# argument at a time: each real at each float, at four reals with no float,
# at two rationals and at the rationals near its valid value v (_near), and
# each count or budget at each integer; the exact oracles may also refuse by
# their work budget or array cap (BudgetExceeded), and so may
# converse_search_gq by its budget
_TINY = Fraction(1, 10**400)
_REAL_EXTREMES = [5e-324, 1e-300, 0.5 - 2.0 ** -54, 0.0, -1.0, 1.0, 0.5, 1e21,
                  10**400, -10**400, _TINY, -Fraction(1, 10**5000),
                  Fraction(1, 3), Fraction(1, 2) - _TINY]
_COUNT_EXTREMES = [0, -1, 1, 10**21, 10**400]
_BUDGETED = _N_BRUTE | {"converse_search_gq"}


def _near(v):
    """v as a Fraction, and the rationals 10^-400 either side of it"""
    return [Fraction(v) - _TINY, Fraction(v) + _TINY, Fraction(v)]


def _values(arg, v):
    if arg in _COUNTS | {"budget"}:
        return _COUNT_EXTREMES
    # 1/2 - 10^-400 is v - 10^-400 at v = 1/2, and 0.5 == Fraction(1, 2)
    # as values, so equal values of one type are kept once
    return list({(type(x), x): x for x in _REAL_EXTREMES + _near(v)}.values())


_SWEEP = [(name, arg, value) for name, (_, base) in _TABLE.items() for arg, v in base.items()
          for value in _values(arg, v)]

# what a refusal may name besides the entry's own arguments: a value derived
# from them, in the caller's terms
_DERIVED = {"n/m", "d_asym(rho, delta)", "conv(delta1, delta2)", "F(R(d1))/rho", "n * delta",
            "n * delta1"}


def _named(exc) -> str:
    """what a DomainError says must hold: the text before " must ", or the
    whole message where it has none"""
    said = re.match(r"(.+?) must ", str(exc))
    return said.group(1) if said else str(exc)


def _shown(value) -> str:
    """a test id's value: an int or a Fraction's ends by _end, a float by
    repr, and a Fraction of long ends near a nonzero float as that float
    and the offset"""
    if isinstance(value, Fraction):
        f = float(value)
        if f and value.denominator.bit_length() > 256:
            off = value - Fraction(f)
            return "%r%s%s" % (f, "-" if off < 0 else "+", _shown(abs(off)))
        return "%s/%s" % (_end(value.numerator), _end(value.denominator))
    return _end(value) if isinstance(value, int) else repr(value)


@pytest.mark.filterwarnings("ignore:.*validity range:UserWarning")
@pytest.mark.parametrize("name,arg,value", [
    pytest.param(name, arg, value, id="%s-%s=%s" % (name, arg, _shown(value)))
    for name, arg, value in _SWEEP])
def test_finite_result_or_domain_error_at_the_sweep_extremes(name, arg, value, time_cap):
    fn, base = _TABLE[name]
    refusals = (DomainError, jb.BudgetExceeded) if name in _BUDGETED else DomainError
    with time_cap(10.0):
        try:
            out = fn(**dict(base, **{arg: value}))
        except refusals as exc:
            # a refusal names what the caller passed, or a value derived from it
            assert " must " not in str(exc) or _named(exc) in set(base) | _DERIVED, exc
            return
    if name == "region_trace":
        # slack -inf is a RegionPoint's mark of an infeasible d1, with d2_min = p
        out = [pt[:3] if pt.slack == -math.inf else pt for pt in out]
    assert _finite(out), out


def test_a_real_whose_float_is_an_open_end_is_refused():
    # 1/2 - 10^-400 lies in [_X_MIN, 1/2) and (0, 1/2), but its float is 1/2,
    # where g and log 2 - h_b vanish: before _real checked the float too,
    # these divided by that 0 (ZeroDivisionError)
    t = Fraction(1, 2) - Fraction(1, 10**400)
    for call in (lambda: jb.psi(t), lambda: jb.eta(1.5, t),
                 lambda: jb.gap_lower_bound(jb.SystemParams(1000, 1.5, t))):
        with pytest.raises(DomainError, match=r"got Fraction\(4999"):
            call()
    # the exact oracles take it as it is
    assert type(jb.p2p_bruteforce(1, 2, t)[0].value) is Fraction


# every entry but the exact oracles computes with the float its check
# accepted, so a rational gives the answer of its float, or both are refused
# for the same parameter
_RATIONALS = [(name, arg, value) for name, (_, base) in _TABLE.items() if name not in _N_BRUTE
              for arg, v in base.items() if arg not in _COUNTS | {"budget"}
              for value in dict.fromkeys([Fraction(1, 3), Fraction(1, 2) - _TINY] + _near(v))]


def _outcome(fn, kw):
    try:
        return fn(**kw)
    except DomainError as exc:
        return DomainError, _named(exc)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name,arg,value", [
    pytest.param(name, arg, value, id="%s-%s=%s" % (name, arg, _shown(value)))
    for name, arg, value in _RATIONALS])
def test_a_rational_gives_the_answer_of_its_float(name, arg, value):
    fn, base = _TABLE[name]
    got = _outcome(fn, dict(base, **{arg: value}))
    want = _outcome(fn, dict(base, **{arg: float(value)}))
    if got != want:
        # the exact check alone may refuse more: a rational just past a closed
        # end, whose float is that end, as 1/2 + 10^-400 is for p in (0, 1/2]
        assert got == (DomainError, arg) and value != float(value), (got, want)


def test_a_rational_that_rounds_onto_an_end_is_computed_as_that_float():
    # the branches and the arithmetic read one float: before, q >= 0.5 read
    # the exact q while 1 - 2q read its float (ZeroDivisionError), and p or d1
    # reached g as 1/2 through an inner check that refused it, naming its t
    t = Fraction(1, 2) - _TINY
    assert jb.erasure_d2_floor(jb.ErasureParams(0.1, 0.2), 1.0, 0.2, t) == 0.0
    assert jb.d1_feasibility_margin(0.2, _bp(**dict(_BP, p=t))) == 1.7430226511385727
    assert jb.d1_feasibility_margin(t, _bp(**_BP)) == 2.574799267810507
    with pytest.raises(DomainError, match=r"^delta must be in \[2\.22507e-308, 0\.5\), got Fr"):
        jb.eta(1.5, t)


def test_encoder_from_index_refuses_an_m_past_the_memory_cap(time_cap):
    # 2^m codewords at 8 bytes each pass the 2 GiB array cap from m = 29 on:
    # refused from bit lengths, before 2^m or N^K is formed (before, m = 10^21
    # raised OverflowError and m = 2^63 MemoryError)
    with time_cap(0.5):
        for m in (10**21, 2**63, 29):
            with pytest.raises(jb.BudgetExceeded,
                               match=r"^search would hold at least 8 x 2\^%d bytes" % m):
                jb.encoder_from_index(m, 1, 0)
        # a long n forms no 2^n either
        assert jb.encoder_from_index(1, 10**21, 3).codewords == (0, 3)
        with pytest.raises(DomainError, match=r"in \[0, inf\), got -1$"):
            jb.encoder_from_index(1, 10**21, -1)


# ---------- result records ----------

_ORDER = "O(n^{-3/4} log n)"

# each record: a valid instance's arguments, in field order; its repr; its
# defaults; and arguments it refuses, or None where it checks none
_RECORDS = {
    "SystemParams": (
        jb.SystemParams, dict(n=100, rho=1.25, delta=0.2, m=80),
        "SystemParams(n=100, rho=1.25, delta=0.2, m=80)", dict(m=None),
        dict(n=100, rho=1.2, delta=0.2, m=80)),
    "LowerBoundReport": (
        jb.LowerBoundReport, dict(d_asym=0.1, eta=0.25, leading_term=1e-3,
                                  correction_order=_ORDER, correction_constant_known=False),
        "LowerBoundReport(d_asym=0.1, eta=0.25, leading_term=0.001, "
        "correction_order='O(n^{-3/4} log n)', correction_constant_known=False)",
        dict(correction_order=_ORDER, correction_constant_known=False), None),
    "BinaryBroadcastParams": (
        jb.BinaryBroadcastParams, dict(rho=1.2, p=0.5, delta1=0.08, delta2=0.05, n=1000),
        "BinaryBroadcastParams(rho=1.2, p=0.5, delta1=0.08, delta2=0.05, n=1000)",
        dict(n=None), dict(rho=1.2, p=0.5, delta1=0.5, delta2=0.05, n=1000)),
    "GaussianBroadcastParams": (
        jb.GaussianBroadcastParams, dict(sigma2=1.0, aux_var=0.5, power=1.0, n1=0.5, n2=1.0,
                                         rho=2.0),
        "GaussianBroadcastParams(sigma2=1.0, aux_var=0.5, power=1.0, n1=0.5, n2=1.0, rho=2.0)",
        {}, dict(sigma2=1.0, aux_var=0.5, power=1.0, n1=0.0, n2=1.0, rho=2.0)),
    "ErasureParams": (
        jb.ErasureParams, dict(eps1=0.1, eps2=0.2), "ErasureParams(eps1=0.1, eps2=0.2)", {},
        dict(eps1=0.2, eps2=0.1)),
    "RegionPoint": (
        jb.RegionPoint, dict(d1=0.1, d2_min=0.2, q_star=0.0, slack=-math.inf),
        "RegionPoint(d1=0.1, d2_min=0.2, q_star=0.0, slack=-inf)", {}, None),
    "ExactValue": (
        jb.ExactValue, dict(value=Fraction(1, 3)), "ExactValue(value=Fraction(1, 3))", {}, None),
    "EncoderTable": (
        jb.EncoderTable, dict(m=1, n=2, codewords=(0, 3)),
        "EncoderTable(m=1, n=2, codewords=(0, 3))", {}, dict(m=1, n=2, codewords=(0, 4))),
    "FrontierPoint": (
        jb.FrontierPoint, dict(d1=Fraction(1, 6), d2=Fraction(1, 6), encoder_index=90),
        "FrontierPoint(d1=Fraction(1, 6), d2=Fraction(1, 6), encoder_index=90)", {}, None),
    "ViolationReport": (
        jb.ViolationReport, dict(inequality="g-convex", grid="grid", max_violation=0.0,
                                 argmax=(0.1, 0.2), violations=0),
        "ViolationReport(inequality='g-convex', grid='grid', max_violation=0.0, "
        "argmax=(0.1, 0.2), violations=0)", {}, None),
}


@pytest.mark.parametrize("name", list(_RECORDS))
def test_result_record_contract(name):
    cls, kw, text, defaults, bad = _RECORDS[name]
    rec = cls(**kw)
    assert repr(rec) == text
    assert rec._fields == tuple(kw)
    # by value: equal to a second instance and to the plain tuple, same hash
    twin = cls(*kw.values())
    assert rec == twin == tuple(kw.values()) and rec is not twin
    assert hash(rec) == hash(twin)
    assert cls(**{k: v for k, v in kw.items() if k not in defaults}) == cls(**dict(kw, **defaults))
    for attr in (rec._fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(rec, attr, kw[rec._fields[0]])
    assert rec == twin
    if bad is not None:
        with pytest.raises(ValueError if cls is jb.EncoderTable else DomainError):
            cls(**bad)


def test_result_records_keep_their_behaviour():
    from jsccbounds import bounds_core, oracles

    assert jb.LowerBoundReport(0.1, 0.25, 1e-3).correction_order == _ORDER
    assert bounds_core._CORRECTION_ORDER == _ORDER
    # counts are stored as int
    assert type(jb.SystemParams(100.0, 1.25, 0.2, 80.0).m) is int
    assert jb.SystemParams.from_counts(80, 100, 0.2) == (100, 1.25, 0.2, 80)
    value = jb.ExactValue(Fraction(2**16610, 3))
    assert repr(value) == "ExactValue(value=Fraction(~2^16611, 3))"  # past the digit limit
    assert value.mode == "exact" and float(jb.ExactValue(Fraction(1, 4))) == 0.25
    assert not jb.RegionPoint(0.1, 0.2, 0.0, -math.inf).feasible
    assert jb.RegionPoint(0.1, 0.2, 0.0, 0.0).feasible
    table = jb.EncoderTable(2, 3, (0, 3, 5, 6))
    assert (table.index, table.words()) == (0o356, ["000", "011", "101", "110"])
    # _merge keeps the first largest margin and sums every report's count
    reps = [jb.ViolationReport("s", "g", v, (k,), k) for v, k in ((0.5, 2), (0.7, 3), (0.7, 4))]
    merged = oracles._merge(reps)
    assert type(merged) is jb.ViolationReport
    assert merged == jb.ViolationReport("s", "g", 0.7, (3,), 9)
