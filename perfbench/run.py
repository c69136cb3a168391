#!/usr/bin/env python3
"""jsccbounds benchmark: one workload, one run.

    python3 perfbench/run.py --workload region|oracle|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. The seed
draws a batch of operations from the workload's pool
(perfbench/reference/<workload>.json); the package sees only those inputs.
Every output is checked against the reference, after the timed calls.

Every round and every traced pass runs the batch once in a fresh child
process, so no input reaches a process twice and a cache of repeated inputs
cannot make a later round cheaper. The number of rounds depends only on S
and on the workload's nominal round length (workloads.py), never on how
fast the code under test is.

--trace 0 runs the rounds and reports the end-to-end metrics. The machine
the benchmark was defined on (2 vCPUs of a shared host) runs the same code
up to about twice as slowly for seconds or minutes at a time, and process
CPU time slows with it, so a raw latency follows the host more than the
code. Each round therefore times the workload's reference kernels
(calibrate.py: fixed work of the same kinds, using no package code) before
the first operation and after every operation (cli: every second one), and
every latency is scaled by its kind's nominal / (median of the up to
2 * KERNEL_WINDOW timings of that kernel beside it).
A scaled latency reads as seconds on that machine in its fast state; a
change to the package moves it as it moves the raw latency, while a slow
spell of the host moves operation and kernel alike and cancels out.
  wall_s       sum over the batch's operations of each one's median scaled
               latency over the rounds
  op_p50_ms    median over the batch's operations of that median
  op_tail_ms   the same at the highest of the percentiles 99.9, 99, 95,
               90, 80, 75 that has at least ten operations beyond it (the
               run record names the percentile and the sample count); for
               a batch of 40 operations that is the 75th, for 57 the 80th
  setup_s      median over set-up-only child processes (SETUP_SAMPLES of
               them, a few after each round) of the time from spawning the
               process until it is ready to time its first operation:
               interpreter, imports, pool load, batch draw and one fixed
               warm-up operation; each is scaled like a latency, the
               warm-up by its kernel and the rest by the spawn kernel
  peak_rss_mib largest peak resident memory of a round's process (cli:
               plus its largest child)
fail_frac = failed / attempted is printed too and is carried in the result
line as `failed` and `attempted`; it is not a gated metric because it is 0
on a healthy workload. The run record keeps the raw latencies and kernel
times, so the unscaled figures can be recomputed from it.

--trace 1 runs the seed's batch in pairs of fresh processes, one
untraced and one traced, and reports the per-layer metrics (see tracer.py).
Both call the cli workload's main() in-process, so the overhead compares
like with like. Counts come from the first traced pass and must repeat
exactly in every later pass; per-layer timings are medians over the passes,
and the overhead compares the fastest traced and untraced passes.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics, with each metric's unit taken from BENCHMARK.json. `correct` is
true when every timed operation passed its check. The region workload also
runs known-defect probes (untimed, see workloads.py); they count in
attempted and failed, so the defects show in fail_frac until they are
fixed, but they do not clear `correct`. The run record goes to
perfbench/results/, and a traced run's spans to
perfbench/results/*-spans.json.gz.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
from tracer import LAYERS, Tracer, dump_spans, layer_metrics  # noqa: E402
from workloads import WORKLOADS, src_digest, src_env  # noqa: E402

BASELINE_SEED = 1
# never used while writing a change; a claimed gain must also hold on it
HELD_OUT_SEED = 9973
MIN_ROUNDS = 2
MIN_TRACE_PAIRS = 2
# set-up-only child processes per run, spread over the rounds
SETUP_SAMPLES = 8
IMPORT_REPEATS = 5
# kernel times on each side of an operation that scale its latency
KERNEL_WINDOW = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)
CHILD_TIMEOUT_S = 170


def fail(msg: str) -> None:
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def declared_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def import_package() -> dict:
    src = ROOT / "src"
    if not (src / "jsccbounds" / "__init__.py").is_file():
        fail("no package at %s; run from a checkout of the repository" % src)
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("jsccbounds")
    if Path(pkg.__file__).resolve().parent != (src / "jsccbounds").resolve():
        fail("imported jsccbounds from %s, not from %s" % (pkg.__file__, src))
    mods = {"": pkg}
    for name in LAYERS:
        mods[name] = importlib.import_module("jsccbounds." + name)
    return mods


# ---------- run record ----------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def record(args, wl, extra: dict) -> dict:
    import numpy

    rec = {
        "workload": args.workload, "why": wl.why, "seed": args.seed,
        "baseline_seed": BASELINE_SEED, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "loop": "closed, 1 caller, 1 fresh process per round",
        "batch": dict(sorted(wl.strata.items())),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": git_commit(),
        "src_sha256": src_digest(ROOT),
    }
    rec.update(extra)
    return rec


# ---------- one round, in a child process ----------


def run_batch(wl, ops, in_process=False, with_kernels=False):
    """Run ops closed-loop; return (latencies, outputs, kernel times, kernel
    positions). An output is ("ok", value) or ("raised", reason). With
    with_kernels, each of the workload's reference kernels is timed before
    the first operation and after every wl.kernel_every-th one and the last;
    position i is how many kernel timings came before operation i."""
    clock = time.perf_counter
    call = wl.run_in_process if in_process else wl.run
    lat, outs, pos = [], [], []
    cal = {name: [] for name in wl.kernels} if with_kernels else {}

    def kernels():
        for name, times in cal.items():
            t0 = clock()
            wl.run_kernel(name)
            times.append(clock() - t0)

    kernels()
    for i, op in enumerate(ops):
        pos.append(len(cal[wl.kernels[0]]) if cal else 0)
        t0 = clock()
        try:
            out = ("ok", call(op))
        except Exception as exc:  # any raise is a failed operation
            out = ("raised", "raised %s: %s" % (type(exc).__name__, exc))
        lat.append(clock() - t0)
        outs.append(out)
        if (i + 1) % wl.kernel_every == 0 or i + 1 == len(ops):
            kernels()
    return lat, outs, cal, pos


def check_batch(wl, ops, outs) -> list:
    failures = []
    for op, (kind, val) in zip(ops, outs):
        reason = val if kind == "raised" else wl.check(op, val)
        if reason is not None:
            failures.append({"op": op.get("id"), "stratum": op.get("stratum"),
                             "reason": reason})
    return failures


def child(args) -> int:
    """Set up, say `ready`, run one batch, print its result as JSON."""
    mods = import_package()
    wl = WORKLOADS[args.workload](ROOT, mods)
    batch = wl.batch(args.seed)
    warm_op = wl.warmup_op()
    t0 = time.perf_counter()
    wl.run(warm_op)
    warm_s = time.perf_counter() - t0
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        # the warm-up's own kernel, timed once, scales the warm-up's share
        kernel = wl.kernel_of(warm_op)
        t0 = time.perf_counter()
        wl.run_kernel(kernel)
        sys.stdout.write(json.dumps({"warmup_s": warm_s, "kernel": kernel,
                                     "kernel_s": time.perf_counter() - t0}) + "\n")
        return 0
    in_process = args.traced or args.in_process
    if args.traced:
        with Tracer(mods) as trace:
            lat, outs, cal, pos = run_batch(wl, batch, in_process)
    else:
        lat, outs, cal, pos = run_batch(wl, batch, in_process,
                                        with_kernels=not in_process)
    res = {
        "lat": lat, "cal": cal, "kernel_pos": pos,
        "kernel_of": [wl.kernel_of(op) for op in batch],
        "failures": check_batch(wl, batch, outs),
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_rss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if args.traced:
        res["layers"] = layer_metrics(trace)
        if args.spans:
            with gzip.open(args.spans, "wt") as fh:
                json.dump(dump_spans(trace), fh)
    sys.stdout.write(json.dumps(res) + "\n")
    return 0


# ---------- the parent ----------


def spawn(args, *flags) -> tuple:
    """Run one child; return (seconds from spawn to `ready`, its result)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--child"]
    cmd += list(flags)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("child %s timed out" % " ".join(flags))
    if line.strip() != b"ready" or proc.returncode != 0:
        fail("child %s failed (exit %r)" % (" ".join(flags), proc.returncode))
    return setup, json.loads(rest.decode().strip().splitlines()[-1])


def tail(lat: list) -> tuple:
    """(percentile, value, samples beyond): the highest ladder percentile,
    by nearest rank, with at least ten samples above it."""
    xs = sorted(lat)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return pct, xs[rank - 1], n - rank
    return 50.0, statistics.median(xs), n - math.ceil(n / 2)


def run_probes(wl, seed) -> list:
    DomainError = wl.mods["binary_info"].DomainError
    results = []
    for name, probe in wl.probes(seed):
        try:
            reason = probe()
        except DomainError:
            reason = None
        except Exception as exc:  # the defect under test may raise anything
            reason = "raised %s: %s" % (type(exc).__name__, exc)
        results.append({"probe": name, "ok": reason is None, "reason": reason})
    return results


def import_seconds(module: str) -> float:
    """Median time a fresh interpreter takes to import `module`."""
    env = src_env(ROOT)
    code = ("import time; t = time.perf_counter(); import %s; "
            "print(repr(time.perf_counter() - t))" % module)
    vals = []
    for _ in range(IMPORT_REPEATS):
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           env=env, cwd=ROOT, timeout=120, check=True)
        vals.append(float(r.stdout))
    return statistics.median(vals)


def scaled(times: list, cal: dict, kernel_of: list, pos: list) -> list:
    """times[i] scaled by its kernel's nominal time over the median of that
    kernel's timings beside it: up to KERNEL_WINDOW before it and as many
    after (cal[k][pos[i] - 1] is the one just before, cal[k][pos[i]] the
    one just after)."""
    out = []
    for t, k, p in zip(times, kernel_of, pos):
        near = cal[k][max(0, p - KERNEL_WINDOW):p + KERNEL_WINDOW]
        out.append(t * calibrate.NOMINAL_S[k] / statistics.median(near))
    return out


def setup_block(args, wl, count: int) -> tuple:
    """`count` set-up-only children, each between two timings of the spawn
    kernel; return (scaled set-up times, raw figures). A set-up time is
    scaled in two parts: its warm-up operation by the warm-up's kernel,
    timed in the same child, and the rest (interpreter, imports, pool load)
    by the spawn kernel beside it."""
    cal, setups, warm = [], [], []

    def kernel():
        t0 = time.perf_counter()
        wl.run_kernel("spawn")
        cal.append(time.perf_counter() - t0)

    kernel()
    for _ in range(count):
        setup, res = spawn(args, "--setup-only")
        setups.append(setup)
        warm.append(res)
        kernel()
    out = []
    for i, (setup, w) in enumerate(zip(setups, warm)):
        near = cal[max(0, i + 1 - KERNEL_WINDOW):i + 1 + KERNEL_WINDOW]
        rest = (setup - w["warmup_s"]) * calibrate.NOMINAL_S["spawn"]
        out.append(rest / statistics.median(near) + w["warmup_s"]
                   * calibrate.NOMINAL_S[w["kernel"]] / w["kernel_s"])
    return out, {"setup_s": setups, "warmup": warm, "spawn_kernel_s": cal}


def untraced(args, wl):
    n = max(MIN_ROUNDS, round(args.seconds / wl.round_s))
    t_start = time.perf_counter()
    rounds, raw_rounds, cals, setups, failures, rss = [], [], [], [], [], []
    raw_setups = []
    for k in range(n):
        _, res = spawn(args)
        rounds.append(scaled(res["lat"], res["cal"], res["kernel_of"],
                             res["kernel_pos"]))
        raw_rounds.append(res["lat"])
        cals.append(res["cal"])
        kernel_of, kernel_pos = res["kernel_of"], res["kernel_pos"]
        failures.extend(res["failures"])
        rss.append(res["rss_kib"] + res["child_rss_kib"])
        count = SETUP_SAMPLES // n + (k < SETUP_SAMPLES % n)
        block, raw = setup_block(args, wl, count)
        setups.extend(block)
        raw_setups.append(raw)
    measured = time.perf_counter() - t_start
    probes = run_probes(wl, args.seed)
    per_op = [statistics.median(x) for x in zip(*rounds)]
    lat = [x for r in rounds for x in r]
    pct, tail_value, beyond = tail(per_op)
    all_pct, all_tail, all_beyond = tail(lat)
    metrics = {
        "wall_s": math.fsum(per_op),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": max(rss) / 1024.0,
    }
    attempted = len(lat) + len(probes)
    failed = len(failures) + sum(not p["ok"] for p in probes)
    extra = {
        "rounds": n, "ops_per_round": len(per_op), "measured_s": measured,
        "kernels": {k: {"nominal_s": calibrate.NOMINAL_S[k], "median_s":
                        statistics.median(x for c in cals for x in c[k])}
                    for k in wl.kernels},
        "op_tail": {"percentile": pct, "samples": len(per_op), "beyond": beyond},
        "op_tail_all_rounds": {"percentile": all_pct, "ms": 1e3 * all_tail,
                               "samples": len(lat), "beyond": all_beyond},
        "round_wall_s": [math.fsum(r) for r in rounds], "setup_runs_s": setups,
        "latencies_s": raw_rounds, "kernel_s": cals, "kernel_of": kernel_of,
        "kernel_pos": kernel_pos,
        "raw_setups": raw_setups,
        "probes": probes, "failures": failures[:20],
        "fail_frac": failed / attempted,
    }
    return metrics, attempted, failed, not failures, extra


def traced(args, wl, counted: set):
    n = max(MIN_TRACE_PAIRS, round(args.seconds / wl.trace_pair_s))
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / ("%s-seed%d-trace1-spans.json.gz" % (args.workload, args.seed))
    failures, plain, with_trace, passes = [], [], [], []
    ops = 0
    for k in range(n):
        _, res = spawn(args, "--in-process")
        plain.append(math.fsum(res["lat"]))
        failures.extend(res["failures"])
        ops += len(res["lat"])
        flags = ["--traced"] + (["--spans", str(spans)] if k == 0 else [])
        _, res = spawn(args, *flags)
        with_trace.append(math.fsum(res["lat"]))
        failures.extend(res["failures"])
        ops += len(res["lat"])
        passes.append(res["layers"])
    counts = {k: v for k, v in passes[0].items() if k in counted}
    repeat_ok = all({k: p[k] for k in counts} == counts for p in passes)
    metrics = {}
    for key in passes[0]:
        if key in counts:
            metrics[key] = counts[key]
        else:
            metrics[key] = statistics.median(p[key] for p in passes)
    metrics["cli.import_s"] = import_seconds("jsccbounds.cli")
    metrics["cli.numpy_import_s"] = import_seconds("numpy")
    base = min(plain)
    metrics["trace.overhead_s"] = min(with_trace) - base
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / base
    probes = run_probes(wl, args.seed)
    attempted = ops + len(probes)
    failed = len(failures) + sum(not p["ok"] for p in probes)
    extra = {
        "passes": n, "untraced_wall_s": plain, "traced_wall_s": with_trace,
        "counts_repeat_exactly": repeat_ok, "probes": probes,
        "failures": failures[:20], "fail_frac": failed / attempted,
    }
    return metrics, attempted, failed, not failures and repeat_ok, extra


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=BASELINE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a child process runs the batch once
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spans", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return child(args)

    end_to_end, per_layer = declared_units()
    units = per_layer if args.trace else end_to_end
    mods = import_package()
    wl = WORKLOADS[args.workload](ROOT, mods)
    if args.trace:
        counted = {k for k, u in per_layer.items() if u == "count"}
        metrics, attempted, failed, correct, extra = traced(args, wl, counted)
    else:
        metrics, attempted, failed, correct, extra = untraced(args, wl)
    if set(metrics) != set(units):
        fail("metrics %s do not match BENCHMARK.json" %
             sorted(set(metrics) ^ set(units)))
    raw = {k: extra.pop(k, None) for k in
           ("latencies_s", "kernel_s", "kernel_of", "kernel_pos",
            "raw_setups")}
    rec = record(args, wl, extra)

    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    rec_out = dict(rec, metrics=metrics, attempted=attempted, failed=failed,
                   correct=correct, **raw)
    (out_dir / (stem + ".json")).write_text(json.dumps(rec_out, indent=1) + "\n")

    print("workload %s (seed %d): %s" % (args.workload, args.seed, wl.why))
    for key, val in metrics.items():
        print("  %-55s %.6g %s" % (key, val, units[key]))
    print("  %-55s %.6g fraction (%d of %d)" % ("fail_frac", failed / attempted,
                                                failed, attempted))
    for p in extra.get("probes", []):
        print("  probe %-49s %s" % (p["probe"], "ok" if p["ok"] else
                                      "FAIL: " + p["reason"]))
    for f in extra.get("failures", []):
        print("  failed op %s (%s): %s" % (f["op"], f["stratum"], f["reason"]))
    print("record " + json.dumps(rec, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
