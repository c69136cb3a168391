#!/usr/bin/env python3
"""Steadiness check: run every workload once per seed and report, for each
end-to-end metric, the median, the quartiles and the run-to-run spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json. Then run
the traced benchmark twice on one seed and require every count to repeat
exactly.

    python3 perfbench/steady.py [--seeds 1-10] [--workloads region,cli]
                                [--seconds S] [--out FILE]

A spread within a third of the bound is reported as steady. Each
workload's runs go one after another, seed by seed. The exit code is 1 when
a spread exceeds its bound, a run fails, or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] in ("python3", "python") else cmd[0]
    t0 = time.perf_counter()
    r = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=900)
    took = time.perf_counter() - t0
    if r.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s" % (
            workload, seed, r.returncode, r.stderr.decode()[-500:]))
    result = json.loads(r.stdout.decode().strip().splitlines()[-1])
    result["took_s"] = took
    return result


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace-seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    runs = {w: [] for w in workloads}
    ok = True
    for w in workloads:
        for seed in seeds:
            res = run_once(bench, w, seed, seconds, 0)
            runs[w].append(dict(res, seed=seed))
            ok = ok and res["correct"]
            print("%-7s seed %-5d %s  (%.0f s)" % (w, seed, "  ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in res["metrics"].items()),
                res["took_s"]), flush=True)

    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    print("\n%-7s %-13s %11s %11s %11s %8s %6s  verdict" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        entry = {"attempted": [r["attempted"] for r in runs[w]],
                 "failed": [r["failed"] for r in runs[w]], "metrics": {}}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in runs[w]])
            if s["spread"] <= bound / 3:
                verdict = "steady"
            elif s["spread"] <= bound:
                verdict = "within bound"
            else:
                verdict = "too wide"
                ok = False
            s.update(bound=bound, verdict=verdict,
                     unit=runs[w][0]["metrics"][name]["unit"])
            entry["metrics"][name] = s
            print("%-8s %-13s %11.5g %11.5g %11.5g %8.4f %6.3f  %s" % (
                w, name, s["median"], s["q1"], s["q3"], s["spread"], bound, verdict))
        summary["workloads"][w] = entry

    print("\ntraced runs, seed %d, twice each:" % args.trace_seed)
    summary["trace"] = {}
    for w in workloads:
        a, b = (run_once(bench, w, args.trace_seed, seconds, 1) for _ in range(2))
        counts = {k: v["value"] for k, v in a["metrics"].items() if v["unit"] == "count"}
        again = {k: b["metrics"][k]["value"] for k in counts}
        same = counts == again
        ok = ok and same and a["correct"] and b["correct"]
        summary["trace"][w] = {"counts_repeat": same, "counts": counts,
                               "metrics": {k: v["value"] for k, v in a["metrics"].items()}}
        print("%-7s %d counts %s; overhead %.3g s (%.0f%%)" % (
            w, len(counts), "repeat exactly" if same else "DIFFER",
            a["metrics"]["trace.overhead_s"]["value"],
            100 * a["metrics"]["trace.overhead_frac"]["value"]))

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
