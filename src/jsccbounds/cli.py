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
import json
import math
import sys
from fractions import Fraction

from . import bounds_core as bc
from . import broadcast_region as br
from . import oracles as orc
from .binary_info import _ONE_ARG, NAT_LOG2, DomainError, conv, info_fn

_NAT_VALUED_FNS = ("h_b", "g", "kappa", "beta", "phi", "R", "mgl")


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _rational(text: str) -> Fraction:
    return Fraction(text)


def _tau_auto(text: str) -> str:
    if text != "auto":
        raise argparse.ArgumentTypeError("only 'auto' is supported")
    return text


# ---------- output ----------


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _json_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return float("%.12g" % v) if math.isfinite(v) else "%.12g" % v
    if isinstance(v, Fraction):
        return str(v)
    return v


def _emit(columns, rows, args):
    if args.format == "json":
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
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
    qcell = dcell = None
    if name in _ONE_ARG:
        value = fn(args.x)
    elif name == "conv":
        if args.q is None:
            raise _Usage("eval --fn conv needs --q")
        value = conv(args.x, args.q)
        qcell = args.q
    elif name in ("beta", "phi", "nu"):
        if args.q is None:
            raise _Usage("eval --fn %s needs --q" % name)
        value = fn(args.q, args.x)
        qcell = args.q
    else:  # mgl, mgl_deriv
        if args.delta is None:
            raise _Usage("eval --fn %s needs --delta" % name)
        value = fn(args.delta, args.x)
        dcell = args.delta
    bits = {"value"} if name in _NAT_VALUED_FNS else set()
    return (["fn", "x", "q", "delta", "value"],
            [[name, args.x, qcell, dcell, value]], bits, 0)


def _run_lower(args):
    params = bc.SystemParams(n=args.n, rho=args.rho, delta=args.delta)
    rep = bc.gap_lower_bound(params)
    row = [args.n, args.rho, args.delta, rep.d_asym, rep.eta,
           rep.leading_term, rep.correction_order, rep.correction_constant_known]
    return (["n", "rho", "delta", "d_asym", "eta", "leading_term",
             "correction_order", "constant_known"], [row], set(), 0)


def _run_psi(args):
    params = bc.SystemParams.from_counts(args.m, args.n, args.delta)
    value = bc.sphere_floor(params, args.k)
    return (["n", "m", "delta", "k", "value"],
            [[args.n, args.m, args.delta, args.k, value]], set(), 0)


def _run_sum(args):
    params = bc.SystemParams(n=args.n, rho=args.rho, delta=args.delta)
    rep = bc.gap_lower_bound(params)
    value = bc.sum_distortion_lb(args.a, params)
    row = [args.n, args.rho, args.delta, args.a, "auto", value, rep.correction_order]
    return (["n", "rho", "delta", "a", "tau", "value", "correction_order"],
            [row], set(), 0)


def _run_gap(args):
    bp = br.BinaryBroadcastParams(rho=args.rho, p=0.5, delta1=args.delta1,
                                  delta2=args.delta2, n=args.n)
    rhs = bc.gap_rhs(args.d1, args.d2, bp, args.tau)
    row = [args.rho, args.delta1, args.delta2, args.d1, args.d2, args.tau,
           args.n, rhs]
    return (["rho", "delta1", "delta2", "d1", "d2", "tau", "n", "rhs"],
            [row], set(), 0)


def _d1_grid(lo, hi, step):
    if not all(map(math.isfinite, (lo, hi, step))):
        raise _Usage("--d1-min, --d1-max and --d1-step must be finite")
    if step <= 0.0:
        raise _Usage("--d1-step must be positive")
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
    eps = br.ErasureParams(eps1=args.eps1, eps2=args.eps2)
    fhat, thr = br._erasure_threshold(eps, args.rho, args.d1, args.q)
    floor = br.erasure_d2_floor(eps, args.rho, args.d1, args.q)
    row = [args.eps1, args.eps2, args.rho, args.d1, args.q, fhat, thr, floor]
    return (["eps1", "eps2", "rho", "d1", "q", "fp", "threshold", "d2_floor"],
            [row], {"fp", "threshold"}, 0)


def _run_verify(args):
    names = [s for s in args.suite.split(",") if s]
    if not names:
        raise _Usage("--suite needs at least one suite name")
    for nm in names:
        if nm not in orc.ALL_SUITES:
            raise _Usage("unknown suite: %s (choose from %s)"
                         % (nm, ", ".join(orc.ALL_SUITES)))
    reports = orc.verify_inequalities(names, args.grid_step, args.tol)
    rows = []
    for rep in reports:
        rows.append([rep.inequality, args.grid_step, args.tol, rep.max_violation,
                     ";".join("%.12g" % a for a in rep.argmax), rep.violations])
    code = 2 if any(rep.violations > 0 for rep in reports) else 0
    return (["suite", "grid_step", "tol", "max_violation", "argmax", "violations"],
            rows, set(), code)


def _run_p2p(args):
    value, table = orc.p2p_bruteforce(args.m, args.n, args.delta,
                                      budget=args.budget)
    cell = value.value if args.exact else float(value)
    row = [args.m, args.n, args.delta, cell, ";".join(table.words())]
    return (["m", "n", "delta", "value", "witness"], [row], set(), 0)


def _run_spherical(args):
    enc_cell = None
    encoder = None
    if args.encoder:
        words = args.encoder.split(",")
        try:
            encoder = tuple(int(w, 2) for w in words)
        except ValueError:
            raise _Usage("--encoder wants comma-separated binary words")
        if any(len(w) != args.n for w in words):
            raise _Usage("each encoder word must have exactly n bits")
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
    points = orc.broadcast_frontier(args.m, args.n, args.w1, args.w2)
    rows = []
    for pt in points:
        rows.append([args.m, args.n, args.w1, args.w2,
                     float(pt.d1), float(pt.d2), pt.d1, pt.d2, pt.encoder_index])
    return (["m", "n", "w1", "w2", "d1", "d2", "d1_exact", "d2_exact",
             "encoder_index"], rows, set(), 0)


def _run_binomial(args):
    w = args.n * args.delta
    if w.denominator != 1:
        raise DomainError("n * delta must be an integer")
    # an invalid n or delta still reaches the oracles at k = 0, which reject it
    k_cap = min(args.k_max, max(0, min(int(w), args.n - int(w))))
    rows = []
    for k in range(k_cap + 1):
        ratio, gamma = orc.binomial_gamma_exact(args.n, args.delta, k)
        approx = orc.binomial_gamma_approx(args.n, float(args.delta), k)
        rows.append([k, ratio.value, gamma.value, approx,
                     abs(approx - float(ratio))])
    return (["k", "ratio", "gamma", "ratio_approx", "abs_err"], rows, set(), 0)


def _run_coupling(args):
    dev = orc.coupling_distance_exact(args.n, args.delta1, args.delta2)
    bound = math.sqrt(args.n * float(args.delta2))
    row = [args.n, args.delta1, args.delta2, dev.value, bound]
    return (["n", "delta1", "delta2", "e_dev", "bound"], [row], set(), 0)


def _run_gq_search(args):
    best = orc.converse_search_gq(args.delta1, args.delta2, args.t,
                                  trials=args.trials, seed=args.seed)
    gb = br.g_bsc(args.delta1, args.delta2, args.t)
    row = [args.delta1, args.delta2, args.t, args.trials, args.seed,
           best, gb, gb - best]
    return (["delta1", "delta2", "t", "trials", "seed", "best", "g_bsc", "gap"],
            [row], {"best", "g_bsc", "gap"}, 0)


# ---------- parser wiring ----------


def _build_parser() -> _Parser:
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

    p = top.add_parser("eval", parents=[common])
    p.add_argument("--fn", required=True,
                   choices=["h_b", "h_b_inv", "conv", "g", "kappa", "Phi",
                            "beta", "phi", "nu", "psi", "vartheta", "R",
                            "mgl", "mgl_deriv"])
    p.add_argument("--x", required=True, type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--delta", type=float)
    p.set_defaults(handler=_run_eval)

    bound = top.add_parser("bound").add_subparsers(dest="bound_command",
                                                   required=True,
                                                   parser_class=_Parser)

    p = bound.add_parser("lower", parents=[common])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--rho", required=True, type=float)
    p.add_argument("--delta", required=True, type=float)
    p.set_defaults(handler=_run_lower)

    p = bound.add_parser("psi", parents=[common])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(handler=_run_psi)

    p = bound.add_parser("sum", parents=[common])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--rho", required=True, type=float)
    p.add_argument("--delta", required=True, type=float)
    p.add_argument("--a", required=True, type=float)
    p.add_argument("--tau", type=_tau_auto, default="auto")
    p.set_defaults(handler=_run_sum)

    p = bound.add_parser("gap", parents=[common])
    p.add_argument("--rho", required=True, type=float)
    p.add_argument("--delta1", required=True, type=float)
    p.add_argument("--delta2", required=True, type=float)
    p.add_argument("--d1", required=True, type=float)
    p.add_argument("--d2", required=True, type=float)
    p.add_argument("--tau", required=True, type=float)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(handler=_run_gap)

    p = bound.add_parser("region", parents=[common])
    p.add_argument("--rho", required=True, type=float)
    p.add_argument("--delta1", required=True, type=float)
    p.add_argument("--delta2", required=True, type=float)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d1-min", required=True, type=float, dest="d1_min")
    p.add_argument("--d1-max", required=True, type=float, dest="d1_max")
    p.add_argument("--d1-step", required=True, type=float, dest="d1_step")
    p.add_argument("--plot-data", action="store_true", dest="plot_data")
    p.set_defaults(handler=_run_region)

    p = bound.add_parser("gaussian", parents=[common])
    p.add_argument("--sigma2", required=True, type=float)
    p.add_argument("--aux-var", required=True, type=float, dest="aux_var")
    p.add_argument("--power", required=True, type=float)
    p.add_argument("--n1", required=True, type=float)
    p.add_argument("--n2", required=True, type=float)
    p.add_argument("--rho", required=True, type=float)
    p.add_argument("--d1", required=True, type=float)
    p.set_defaults(handler=_run_gaussian)

    p = bound.add_parser("erasure", parents=[common])
    p.add_argument("--eps1", required=True, type=float)
    p.add_argument("--eps2", required=True, type=float)
    p.add_argument("--rho", required=True, type=float)
    p.add_argument("--d1", required=True, type=float)
    p.add_argument("--q", required=True, type=float)
    p.set_defaults(handler=_run_erasure)

    p = top.add_parser("verify", parents=[common])
    p.add_argument("--suite", required=True)
    p.add_argument("--grid-step", type=float, default=1e-3, dest="grid_step")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_run_verify)

    oracle = top.add_parser("oracle").add_subparsers(dest="oracle_command",
                                                     required=True,
                                                     parser_class=_Parser)

    p = oracle.add_parser("p2p", parents=[common])
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--delta", required=True, type=_rational)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--budget", type=int, default=orc.DEFAULT_BUDGET)
    p.set_defaults(handler=_run_p2p)

    p = oracle.add_parser("spherical", parents=[common])
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--weight", required=True, type=int)
    p.add_argument("--encoder", default=None)
    p.set_defaults(handler=_run_spherical)

    p = oracle.add_parser("frontier", parents=[common])
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--w1", required=True, type=int)
    p.add_argument("--w2", required=True, type=int)
    p.set_defaults(handler=_run_frontier)

    p = oracle.add_parser("binomial", parents=[common])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--delta", required=True, type=_rational)
    p.add_argument("--k-max", required=True, type=int, dest="k_max")
    p.set_defaults(handler=_run_binomial)

    p = oracle.add_parser("coupling", parents=[common])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--delta1", required=True, type=_rational)
    p.add_argument("--delta2", required=True, type=_rational)
    p.set_defaults(handler=_run_coupling)

    p = oracle.add_parser("gq-search", parents=[common])
    p.add_argument("--delta1", required=True, type=float)
    p.add_argument("--delta2", required=True, type=float)
    p.add_argument("--t", required=True, type=float)
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(handler=_run_gq_search)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        columns, rows, bits_cols, code = args.handler(args)
    except _Usage as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except DomainError as exc:
        sys.stderr.write("infeasible: %s\n" % exc)
        return 3
    except orc.BudgetExceeded as exc:
        sys.stderr.write("budget: %s\n" % exc)
        return 3
    if args.bits:
        _to_bits(columns, rows, bits_cols)
    _emit(columns, rows, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
