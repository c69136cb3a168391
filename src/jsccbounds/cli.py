"""Command line front end.

Every subcommand prints one table (CSV by default, JSON with --format
json). Exit codes: 0 on success, 1 on usage errors, 2 when a verify run
finds violations beyond tolerance, 3 when the requested instance is
infeasible or empty (domain errors, exhausted budgets).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

from .binary_info import (_CATALOG, DEFAULT_BUDGET, NAT_LOG2, BudgetExceeded, DomainError,
                          _end, info_fn)

# each handler imports the bounds_core, broadcast_region or oracles module it
# calls, so a command compiles only the modules it runs; json and fractions,
# too, are imported where a JSON table is written or a rational is read

_NAT_VALUED_FNS = ("h_b", "g", "kappa", "beta", "phi", "R", "mgl")

# the flag each two-argument catalog function takes before x
_FIRST_ARG_FLAG = {"conv": "q", "beta": "q", "phi": "q", "nu": "q",
                   "mgl": "delta", "mgl_deriv": "delta"}


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _rational(text: str):
    from fractions import Fraction

    return Fraction(text)


def _tau_auto(text: str) -> str:
    if text != "auto":
        raise argparse.ArgumentTypeError("only 'auto' is supported")
    return text


# ---------- output ----------


def _exact_text(v) -> str:
    """str of an int or Fraction; DomainError past the int-to-str digit limit."""
    try:
        return str(v)
    except ValueError:
        size = _end(v.numerator) + ("/" + _end(v.denominator)) * (v.denominator != 1)
        raise DomainError("the exact value %s has too many digits to print" % size) from None


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.12g" % v
    return _exact_text(v)


def _json_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return float("%.12g" % v) if math.isfinite(v) else "%.12g" % v
    if isinstance(v, (int, str)):
        return v
    from fractions import Fraction

    return _exact_text(v) if isinstance(v, Fraction) else v


def _emit(columns, rows, args):
    if args.format == "json":
        import json

        text = json.dumps({"columns": list(columns),
                           "rows": [[_json_cell(v) for v in r] for r in rows]}) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([_csv_cell(v) for v in r])
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _Usage("cannot write --out %s: %s" % (args.out, exc.strerror or exc)) from None
    else:
        sys.stdout.write(text)


def _to_bits(columns, rows, bits_cols):
    idx = [i for i, c in enumerate(columns) if c in bits_cols]
    for r in rows:
        for i in idx:
            if isinstance(r[i], float):
                r[i] = r[i] / NAT_LOG2


# ---------- subcommand handlers ----------


def _run_eval(args):
    name = args.fn
    fn = info_fn(name)
    cells = {"q": None, "delta": None}
    flag = _FIRST_ARG_FLAG.get(name)
    if flag is None:
        value = fn(args.x)
    else:
        first = getattr(args, flag)
        if first is None:
            raise _Usage("eval --fn %s needs --%s" % (name, flag))
        cells[flag] = first
        value = fn(first, args.x)
    bits = {"value"} if name in _NAT_VALUED_FNS else set()
    return (["fn", "x", "q", "delta", "value"],
            [[name, args.x, cells["q"], cells["delta"], value]], bits, 0)


def _run_lower(args):
    from . import bounds_core as bc

    params = bc.SystemParams(n=args.n, rho=args.rho, delta=args.delta)
    rep = bc.gap_lower_bound(params)
    row = [args.n, args.rho, args.delta, rep.d_asym, rep.eta,
           rep.leading_term, rep.correction_order, rep.correction_constant_known]
    return (["n", "rho", "delta", "d_asym", "eta", "leading_term",
             "correction_order", "constant_known"], [row], set(), 0)


def _run_psi(args):
    from . import bounds_core as bc

    params = bc.SystemParams.from_counts(args.m, args.n, args.delta)
    value = bc.sphere_floor(params, args.k)
    return (["n", "m", "delta", "k", "value"],
            [[args.n, args.m, args.delta, args.k, value]], set(), 0)


def _run_sum(args):
    from . import bounds_core as bc

    params = bc.SystemParams(n=args.n, rho=args.rho, delta=args.delta)
    value = bc.sum_distortion_lb(args.a, params)
    row = [args.n, args.rho, args.delta, args.a, "auto", value, bc._CORRECTION_ORDER]
    return (["n", "rho", "delta", "a", "tau", "value", "correction_order"],
            [row], set(), 0)


def _run_gap(args):
    from . import bounds_core as bc
    from . import broadcast_region as br

    bp = br.BinaryBroadcastParams(rho=args.rho, p=0.5, delta1=args.delta1,
                                  delta2=args.delta2, n=args.n)
    rhs = bc.gap_rhs(args.d1, args.d2, bp, args.tau)
    row = [args.rho, args.delta1, args.delta2, args.d1, args.d2, args.tau,
           args.n, rhs]
    return (["rho", "delta1", "delta2", "d1", "d2", "tau", "n", "rhs"],
            [row], set(), 0)


# most points a bound region grid may hold
_D1_GRID_MAX_POINTS = 100_000


def _d1_grid(lo, hi, step):
    if not all(map(math.isfinite, (lo, hi, step))):
        raise _Usage("--d1-min, --d1-max and --d1-step must be finite")
    if step <= 0.0:
        raise _Usage("--d1-step must be positive")
    # the grid holds floor((hi - lo + 1e-12) / step) + 1 points
    if (hi - lo + 1e-12) / step >= _D1_GRID_MAX_POINTS:
        raise _Usage("the d1 grid would hold more than %d points" % _D1_GRID_MAX_POINTS)
    vals = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-12:
            break
        vals.append(min(v, hi))
        k += 1
    if not vals:
        raise _Usage("empty d1 grid")
    return vals


def _run_region(args):
    from . import broadcast_region as br

    bp = br.BinaryBroadcastParams(rho=args.rho, p=args.p, delta1=args.delta1,
                                  delta2=args.delta2, n=args.n)
    points = br.region_trace(bp, _d1_grid(args.d1_min, args.d1_max, args.d1_step))
    code = 3 if all(not pt.feasible for pt in points) else 0
    if args.plot_data:
        rows = []
        for pt in points:
            for q in br._Q_SEEDS:
                rows.append([pt.d1, q, br._slack_no_raise(pt.d1, pt.d2_min, q, bp)])
        return (["d1", "q", "slack"], rows, {"slack"}, code)
    rows = [[pt.d1, pt.d2_min, pt.q_star, pt.slack] for pt in points]
    return (["d1", "d2_min", "q_star", "slack"], rows, {"slack"}, code)


def _run_gaussian(args):
    from . import broadcast_region as br

    gp = br.GaussianBroadcastParams(sigma2=args.sigma2, aux_var=args.aux_var,
                                    power=args.power, n1=args.n1, n2=args.n2,
                                    rho=args.rho)
    floor = br.gaussian_d2_floor(gp, args.d1)
    ratio = br.gaussian_bound(gp, args.d1)
    row = [args.sigma2, args.aux_var, args.power, args.n1, args.n2, args.rho,
           args.d1, ratio, floor, 0.5 * math.log(ratio)]
    return (["sigma2", "aux_var", "power", "n1", "n2", "rho", "d1",
             "ratio_bound", "d2_floor", "threshold_nats"],
            [row], {"threshold_nats"}, 0)


def _run_erasure(args):
    from . import broadcast_region as br

    eps = br.ErasureParams(eps1=args.eps1, eps2=args.eps2)
    fhat, thr, floor = br._erasure(eps, args.rho, args.d1, args.q)
    row = [args.eps1, args.eps2, args.rho, args.d1, args.q, fhat, thr, floor]
    return (["eps1", "eps2", "rho", "d1", "q", "fp", "threshold", "d2_floor"],
            [row], {"fp", "threshold"}, 0)


def _run_verify(args):
    from . import oracles as orc

    names = [s for s in args.suite.split(",") if s]
    if not names:
        raise _Usage("--suite needs at least one suite name")
    try:
        reports = orc.verify_inequalities(names, args.grid_step, args.tol)
    except DomainError as exc:  # a bad suite name, grid step or tol
        raise _Usage(str(exc))
    rows = []
    for rep in reports:
        rows.append([rep.inequality, args.grid_step, args.tol, rep.max_violation,
                     ";".join("%.12g" % a for a in rep.argmax), rep.violations])
    code = 2 if any(rep.violations > 0 for rep in reports) else 0
    return (["suite", "grid_step", "tol", "max_violation", "argmax", "violations"],
            rows, set(), code)


def _run_p2p(args):
    from . import oracles as orc

    value, table = orc.p2p_bruteforce(args.m, args.n, args.delta,
                                      budget=args.budget)
    cell = value.value if args.exact else float(value)
    row = [args.m, args.n, args.delta, cell, ";".join(table.words())]
    return (["m", "n", "delta", "value", "witness"], [row], set(), 0)


def _run_spherical(args):
    from . import oracles as orc

    enc_cell = None
    encoder = None
    if args.encoder is not None:
        words = args.encoder.split(",")
        # only 0s and 1s: int(w, 2) would take a sign, spaces and underscores
        if not all(w and set(w) <= {"0", "1"} for w in words):
            raise _Usage("--encoder wants comma-separated binary words")
        if any(len(w) != args.n for w in words):
            raise _Usage("each encoder word must have exactly n bits")
        encoder = tuple(int(w, 2) for w in words)
        enc_cell = ";".join(words)
    try:
        value = orc.sphere_bruteforce(args.m, args.n, args.weight, encoder=encoder)
    except DomainError:
        raise
    except ValueError as exc:  # the encoder table's shape check
        raise _Usage(str(exc))
    row = [args.m, args.n, args.weight, enc_cell, value.value]
    return (["m", "n", "weight", "encoder", "value"], [row], set(), 0)


def _run_frontier(args):
    from . import oracles as orc

    points = orc.broadcast_frontier(args.m, args.n, args.w1, args.w2)
    rows = []
    for pt in points:
        rows.append([args.m, args.n, args.w1, args.w2,
                     float(pt.d1), float(pt.d2), pt.d1, pt.d2, pt.encoder_index])
    return (["m", "n", "w1", "w2", "d1", "d2", "d1_exact", "d2_exact",
             "encoder_index"], rows, set(), 0)


def _run_binomial(args):
    from fractions import Fraction

    from . import oracles as orc

    # k = 0 rejects an invalid n or delta, even for a negative --k-max (no rows)
    orc.binomial_gamma_exact(args.n, args.delta, 0)
    w = int(args.n * args.delta)
    top = max(0, min(args.k_max, w, args.n - w))
    rows = []
    products = orc._binomial_rows(args.n, args.delta, top, 2 * top * (top + 1))
    for k, (up, down) in zip(range(args.k_max + 1), products):
        ratio = Fraction(up, up + down)
        approx = orc.binomial_gamma_approx(args.n, float(args.delta), k)
        rows.append([k, ratio, 2 * ratio - 1, approx, abs(approx - float(ratio))])
    return (["k", "ratio", "gamma", "ratio_approx", "abs_err"], rows, set(), 0)


def _run_coupling(args):
    from . import oracles as orc

    dev = orc.coupling_distance_exact(args.n, args.delta1, args.delta2, budget=args.budget)
    bound = math.sqrt(args.n * float(args.delta2))
    try:
        cell = _exact_text(dev.value)
    except DomainError:  # past the digit limit: the correctly rounded float
        cell = float(dev.value)
        if cell == 0.0 and dev.value:  # a 0 would hide that e_dev > 0
            raise
    row = [args.n, args.delta1, args.delta2, cell, bound]
    return (["n", "delta1", "delta2", "e_dev", "bound"], [row], set(), 0)


def _run_gq_search(args):
    from . import broadcast_region as br
    from . import oracles as orc

    best = orc.converse_search_gq(args.delta1, args.delta2, args.t,
                                  trials=args.trials, seed=args.seed)
    gb = br.g_bsc(args.delta1, args.delta2, args.t)
    row = [args.delta1, args.delta2, args.t, args.trials, args.seed,
           best, gb, gb - best]
    return (["delta1", "delta2", "t", "trials", "seed", "best", "g_bsc", "gap"],
            [row], {"best", "g_bsc", "gap"}, 0)


# ---------- parser wiring ----------

# every command, in the order --help lists them: eval and verify are leaves,
# bound and oracle groups of leaves, and a leaf is its handler and options.
# An option is (flag, type) when it is required, (flag, type, default) when
# it is not, and (flag,) for a switch; a list in place of the type gives a
# required option's choices. argparse derives each dest from the flag.
_COMMANDS = {
    "eval": (_run_eval, ("--fn", list(_CATALOG)), ("--x", float), ("--q", float, None),
             ("--delta", float, None)),
    "bound": {
        "lower": (_run_lower, ("--n", int), ("--rho", float), ("--delta", float)),
        "psi": (_run_psi, ("--n", int), ("--m", int), ("--delta", float), ("--k", int)),
        "sum": (_run_sum, ("--n", int), ("--rho", float), ("--delta", float), ("--a", float),
                ("--tau", _tau_auto, "auto")),
        "gap": (_run_gap, ("--rho", float), ("--delta1", float), ("--delta2", float),
                ("--d1", float), ("--d2", float), ("--tau", float), ("--n", int, None)),
        "region": (_run_region, ("--rho", float), ("--delta1", float), ("--delta2", float),
                   ("--p", float, 0.5), ("--n", int, None), ("--d1-min", float),
                   ("--d1-max", float), ("--d1-step", float), ("--plot-data",)),
        "gaussian": (_run_gaussian, ("--sigma2", float), ("--aux-var", float),
                     ("--power", float), ("--n1", float), ("--n2", float), ("--rho", float),
                     ("--d1", float)),
        "erasure": (_run_erasure, ("--eps1", float), ("--eps2", float), ("--rho", float),
                    ("--d1", float), ("--q", float)),
    },
    "verify": (_run_verify, ("--suite", None), ("--grid-step", float, 1e-3),
               ("--tol", float, 1e-9)),
    "oracle": {
        "p2p": (_run_p2p, ("--m", int), ("--n", int), ("--delta", _rational), ("--exact",),
                ("--budget", int, DEFAULT_BUDGET)),
        "spherical": (_run_spherical, ("--m", int), ("--n", int), ("--weight", int),
                      ("--encoder", None, None)),
        "frontier": (_run_frontier, ("--m", int), ("--n", int), ("--w1", int), ("--w2", int)),
        "binomial": (_run_binomial, ("--n", int), ("--delta", _rational), ("--k-max", int)),
        "coupling": (_run_coupling, ("--n", int), ("--delta1", _rational),
                     ("--delta2", _rational), ("--budget", int, DEFAULT_BUDGET)),
        "gq-search": (_run_gq_search, ("--delta1", float), ("--delta2", float), ("--t", float),
                      ("--trials", int), ("--seed", int)),
    },
}

# the two command groups and their leaves
_LEAVES = {name: leaves for name, leaves in _COMMANDS.items() if isinstance(leaves, dict)}


def _path(argv):
    """The leaf that argv opens with, such as ("bound", "lower"), or None
    when it opens with anything else: an option, a group's --help, a typo."""
    if argv and isinstance(_COMMANDS.get(argv[0]), tuple):
        return (argv[0],)
    if len(argv) > 1 and argv[1] in _LEAVES.get(argv[0], ()):
        return (argv[0], argv[1])
    return None


def _add_leaf(sub, name, common, handler, *options):
    """Add the leaf name, its handler and its options to the subcommands sub."""
    p = sub.add_parser(name, parents=[common])
    for flag, *kind in options:
        if not kind:
            p.add_argument(flag, action="store_true")
        elif isinstance(kind[0], list):
            p.add_argument(flag, required=True, choices=kind[0])
        elif len(kind) == 1:
            p.add_argument(flag, required=True, type=kind[0])
        else:
            p.add_argument(flag, type=kind[0], default=kind[1])
    p.set_defaults(handler=handler)


def _build_parser(path=None) -> _Parser:
    """The whole command line parser or, given the leaf path argv opens with
    (`_path`), the parser that argv consults: the top parser and its four
    names, both group parsers, and that one leaf.

    On such an argv argparse reads only the top parser, the group parser,
    which dispatches argv[1], and the leaf, and none of them changes, so
    stdout, stderr and the exit code are those of the whole parser.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["csv", "json"],
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--bits", action="store_true", default=argparse.SUPPRESS)

    parser = _Parser(prog="jsccbounds")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None)
    parser.add_argument("--bits", action="store_true", default=False)
    top = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, spec in _COMMANDS.items():
        if name in _LEAVES:
            group = top.add_parser(name).add_subparsers(dest=name + "_command",
                                                         required=True,
                                                         parser_class=_Parser)
            for leaf, leaf_spec in spec.items():
                if path in (None, (name, leaf)):
                    _add_leaf(group, leaf, common, *leaf_spec)
        elif path in (None, (name,)):
            _add_leaf(top, name, common, *spec)
        else:
            top.add_parser(name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(_path(argv)).parse_args(argv)
    try:
        columns, rows, bits_cols, code = args.handler(args)
        if args.bits:
            _to_bits(columns, rows, bits_cols)
        _emit(columns, rows, args)
    except _Usage as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except DomainError as exc:
        sys.stderr.write("infeasible: %s\n" % exc)
        return 3
    except BudgetExceeded as exc:
        sys.stderr.write("budget: %s\n" % exc)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
