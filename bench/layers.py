"""Time the package layer by layer, on a fixed list of cases.

    python bench/layers.py [--case NAME ...] [--repeats R] [--rounds K]
                           [--parent DIR]

Each case is a fixed batch of calls into one layer: the scalar kernel
(h_b, conv, h_b_inv in three t bands, the verify suites' array inverse on
f-lt-1's cells), a bound evaluator (outer_bound_slack on a grid of d2 and
q, and one worst-q sweep at d2 = 0, both at the first binding point of
perfbench/reference/region.json) or a driver (region_trace on that point
and on the first unbinding and the first infeasible one). A sample times
one batch after a warm-up batch. Every round runs each side in a fresh
process: this checkout's src/ and, with --parent, DIR's src/, alternating
which side goes first. The script prints one JSON object: per case and
side, the median and quartiles of the time per call over all samples
(statistics.quantiles, n=4), in microseconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _region_point(kind):
    # the first reference point of this kind, as region_trace's arguments
    data = json.loads((ROOT / "perfbench" / "reference" / "region.json").read_text())
    insts = {i["id"]: i for i in data["instances"]}
    pt = next(p for p in data["points"] if p["kind"] == kind)
    inst = insts[pt["inst"]]
    return {k: inst[k] for k in ("rho", "p", "delta1", "delta2", "n")}, pt["d1"]


def _cases():
    """name -> (layer, a function that builds the batch and returns it as
    (callable, calls per batch))."""
    def scalar(fn_name, args):
        def build():
            from jsccbounds import binary_info as bi
            fn = getattr(bi, fn_name)
            xs = args(bi)
            return (lambda: [fn(*a) for a in xs]), len(xs)
        return build

    rng = random.Random(36)
    unit = [rng.random() for _ in range(1000)]
    pairs = [(0.5 * a, b) for a, b in zip(unit, reversed(unit))]

    def f_lt_1():
        import numpy as np
        from jsccbounds import binary_info as bi
        from jsccbounds import oracles as orc
        ax = orc._axis(1e-2)
        rho = 1.0 + 2.0 * np.arange(1, len(ax) + 1) / len(ax)
        t = bi.NAT_LOG2 - rho[:, None] * (bi.NAT_LOG2 - bi._h(ax, np.log))[None, :]
        return (lambda: bi._hinv_np(t)), 1

    def point(kind):
        from jsccbounds import broadcast_region as br
        params, d1 = _region_point(kind)
        return br, br.BinaryBroadcastParams(**params), d1

    def region(kind):
        def build():
            br, bp, d1 = point(kind)
            return (lambda: br.region_trace(bp, [d1])), 1
        return build

    def slack_grid():
        # the q seeds at ten d2 in (0, p]: d1 binds, so every seed's A1 is
        # in range at every d2
        br, bp, d1 = point("binding")
        xs = [(d1, bp.p * k / 10, q, bp) for k in range(1, 11) for q in br._Q_SEEDS]
        return (lambda: [br.outer_bound_slack(*x) for x in xs]), len(xs)

    def worst_q_sweep():
        # the seeds and the golden section, each slack evaluated afresh
        br, bp, d1 = point("binding")
        return (lambda: br._seeded_min(lambda q: br._slack_no_raise(d1, 0.0, q, bp))), 1

    return {
        "kernel/h_b": ("kernel", scalar("h_b", lambda bi: [(x,) for x in unit])),
        "kernel/conv": ("kernel", scalar("conv", lambda bi: pairs)),
        # 200 log-spaced t in [1e-300, the Newton cutoff], 1000 uniform above
        "kernel/h_b_inv/below-cutoff": ("kernel", scalar("h_b_inv", lambda bi: [
            (10.0 ** (-300.0 + (math.log10(bi._NEWTON_CUTOFF) + 300.0) * u),) for u in unit[:200]])),
        "kernel/h_b_inv/0.03-0.2": ("kernel", scalar("h_b_inv", lambda bi: [
            (0.03 + 0.17 * u,) for u in unit])),
        "kernel/h_b_inv/0.2-log2": ("kernel", scalar("h_b_inv", lambda bi: [
            (0.2 + (bi.NAT_LOG2 - 0.2) * u,) for u in unit])),
        "kernel/_hinv_np/f-lt-1-1e-2": ("kernel", f_lt_1),
        "evaluator/outer_bound_slack": ("evaluator", slack_grid),
        "evaluator/worst_q_sweep": ("evaluator", worst_q_sweep),
        "driver/region_trace/binding": ("driver", region("binding")),
        "driver/region_trace/unbinding": ("driver", region("unbinding")),
        "driver/region_trace/infeasible": ("driver", region("infeasible")),
    }


def _worker(names, repeats):
    """Each case's samples, in microseconds per call, from this process."""
    out = {}
    cases = _cases()
    for name in names:
        run, calls = cases[name][1]()
        run()
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            run()
            samples.append((time.perf_counter() - t0) / calls * 1e6)
        out[name] = samples
    return out


def _side(src, names, repeats):
    env = dict(os.environ, PYTHONPATH=str(Path(src) / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--repeats", str(repeats)]
    for name in names:
        cmd += ["--case", name]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cases = _cases()
    ap.add_argument("--case", action="append", choices=sorted(cases),
                    help="a case to run (repeatable; default: all)")
    ap.add_argument("--repeats", type=int, default=15, help="samples per case per round")
    ap.add_argument("--rounds", type=int, default=3, help="fresh processes per side")
    ap.add_argument("--parent", help="a second checkout to alternate with this one")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    names = args.case or list(cases)
    if args.worker:
        print(json.dumps(_worker(names, args.repeats)))
        return 0
    sides = {"change": ROOT} if args.parent is None else {"change": ROOT, "parent": Path(args.parent)}
    samples = {side: {name: [] for name in names} for side in sides}
    for k in range(args.rounds):
        for side in (list(sides) if k % 2 == 0 else list(sides)[::-1]):
            for name, got in _side(sides[side], names, args.repeats).items():
                samples[side][name] += got
    print(json.dumps({
        "about": "microseconds per call: median and quartiles over %d rounds of %d samples "
                 "per side, each round a fresh process per side, sides alternating"
                 % (args.rounds, args.repeats),
        "host": "%s, Python %s" % (platform.machine(), platform.python_version()),
        "sides": {side: str(path) for side, path in sides.items()},
        "cases": {name: dict({"layer": cases[name][0]},
                             **{side: _summary(samples[side][name]) for side in sides})
                  for name in names},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
