#!/usr/bin/env python3
"""Build the benchmark's input pools and their reference outputs.

    python3 perfbench/make_reference.py [--only region|oracle|cli]

Each workload draws its operations from a fixed pool written to
perfbench/reference/<workload>.json. The file holds the inputs and the
outputs the package gave for them when the benchmark was defined, so later
commits are checked against that commit's answers: exact rationals and
encoder indices for the oracles, d2_min within a tolerance for the region
trace, and exit code plus stdout bytes for the command line. Run this only
to define a new pool; rerunning it on a changed package would move the
reference along with the code it is meant to check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import src_digest, src_env  # noqa: E402

REF_DIR = ROOT / "perfbench" / "reference"
POOL_SEED = 20190221

# d2_min may move by this much (absolute) before a region point counts as
# wrong: the trace bisects d2 to 1e-12 and refines q to 1e-10, and a
# closed-form inversion prototype agreed with it to 1.5e-13.
D2_TOL = 1e-9


def d1_grid(lo: float, hi: float, step: float) -> list[float]:
    """The CLI's `bound region` grid: lo + k*step up to hi, last value clamped."""
    vals = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-12:
            break
        vals.append(min(v, hi))
        k += 1
    return vals


def _rationals(max_den: int) -> list[str]:
    out = []
    for b in range(2, max_den + 1):
        for a in range(1, b):
            if 2 * a < b and math.gcd(a, b) == 1:
                out.append("%d/%d" % (a, b))
    return out


# ---------- region ----------


def region_pool(rng: random.Random) -> list[dict]:
    """48 binary-broadcast instances: asymptotic and finite-n alternate, and
    p = 1/2 and p < 1/2 alternate in pairs."""
    insts = []
    for i in range(48):
        finite = i % 2 == 1
        p = 0.5 if (i // 2) % 2 == 0 else round(rng.uniform(0.3, 0.45), 3)
        insts.append({
            "id": i,
            "rho": round(rng.uniform(1.0, 2.0), 3),
            "p": p,
            "delta1": round(rng.uniform(0.02, 0.2), 3),
            "delta2": round(rng.uniform(0.02, 0.15), 3),
            "n": int(10 ** rng.uniform(2.0, 3.7)) if finite else None,
        })
    return insts


def build_region(rng: random.Random) -> dict:
    from jsccbounds import broadcast_region as br

    insts = region_pool(rng)
    points = []
    for inst in insts:
        bp = br.BinaryBroadcastParams(rho=inst["rho"], p=inst["p"],
                                      delta1=inst["delta1"],
                                      delta2=inst["delta2"], n=inst["n"])
        for d1 in d1_grid(0.05, min(0.25, inst["p"]), 0.02):
            (pt,) = br.region_trace(bp, [d1])
            if not pt.feasible:
                kind = "infeasible"
            elif pt.d2_min == 0.0:
                kind = "unbinding"
            else:
                kind = "binding"
            points.append({"id": len(points), "inst": inst["id"], "d1": d1,
                           "kind": kind, "d2_min": pt.d2_min,
                           "q_star": pt.q_star,
                           "slack": pt.slack if pt.feasible else None})
        print("region instance %d done" % inst["id"], file=sys.stderr)
    return {"d2_tol": D2_TOL, "instances": insts, "points": points}


# ---------- oracle ----------


def oracle_pool(rng: random.Random) -> list[dict]:
    ops = []
    for d in _rationals(12):
        ops.append({"stratum": "p2p5", "fn": "p2p_bruteforce",
                    "args": {"m": 2, "n": 5, "delta": d}})
    for w in range(6):
        ops.append({"stratum": "sphere5", "fn": "sphere_bruteforce",
                    "args": {"m": 2, "n": 5, "weight": w}})
    for w1 in range(6):
        for w2 in range(6):
            ops.append({"stratum": "frontier5", "fn": "broadcast_frontier",
                        "args": {"m": 2, "n": 5, "w1": w1, "w2": w2}})
    for d in _rationals(8):
        ops.append({"stratum": "n6", "fn": "p2p_bruteforce",
                    "args": {"m": 2, "n": 6, "delta": d}})
    for w in range(7):
        ops.append({"stratum": "n6", "fn": "sphere_bruteforce",
                    "args": {"m": 2, "n": 6, "weight": w}})
    dens = [d for d in _rationals(10) if int(d.split("/")[1]) >= 5]
    for lo, hi, tag in ((100, 400, "a"), (400, 700, "b"), (700, 1000, "c")):
        for _ in range(20):
            n = 20 * rng.randint(lo // 20, hi // 20)
            ops.append({"stratum": "coupling_" + tag,
                        "fn": "coupling_distance_exact",
                        "args": {"n": n, "delta1": "%d/20" % rng.randint(1, 9),
                                 "delta2": rng.choice(dens)}})
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def oracle_expect(orc, op: dict) -> dict:
    a = op["args"]
    fn = op["fn"]
    if fn == "p2p_bruteforce":
        value, table = orc.p2p_bruteforce(a["m"], a["n"], Fraction(a["delta"]))
        return {"value": str(value.value), "witness_index": table.index}
    if fn == "sphere_bruteforce":
        return {"value": str(orc.sphere_bruteforce(a["m"], a["n"],
                                                   a["weight"]).value)}
    if fn == "broadcast_frontier":
        pts = orc.broadcast_frontier(a["m"], a["n"], a["w1"], a["w2"])
        return {"points": [[str(p.d1), str(p.d2), p.encoder_index] for p in pts]}
    if fn == "coupling_distance_exact":
        v = orc.coupling_distance_exact(a["n"], Fraction(a["delta1"]),
                                        Fraction(a["delta2"]))
        return {"value_sha256": hashlib.sha256(str(v.value).encode()).hexdigest()}
    raise ValueError(fn)


def build_oracle(rng: random.Random) -> dict:
    from jsccbounds import oracles as orc

    ops = oracle_pool(rng)
    for op in ops:
        op["expect"] = oracle_expect(orc, op)
    print("oracle pool done", file=sys.stderr)
    return {"ops": ops}


# ---------- cli ----------


def _f(rng, lo, hi, nd=3):
    return "%.*f" % (nd, rng.uniform(lo, hi))


def cli_pool(rng: random.Random) -> list[dict]:
    """Seeded variants of the README commands, grouped by stratum."""
    from jsccbounds.binary_info import NAT_LOG2, h_b

    ops = []

    def add(stratum, argv):
        if rng.random() < 0.25:
            argv = argv + ["--format", "json"]
        ops.append({"stratum": stratum, "argv": argv})

    one = ["h_b", "g", "kappa", "Phi", "psi", "vartheta", "R"]
    for i in range(16):
        fn = rng.choice(one + ["h_b_inv", "conv", "beta", "phi", "nu", "mgl",
                               "mgl_deriv"])
        x = _f(rng, 0.01, 0.49, 4)
        argv = ["eval", "--fn", fn, "--x", x]
        if fn in ("conv", "beta", "phi", "nu"):
            argv += ["--q", _f(rng, 0.0, 0.5, 4)]
        elif fn.startswith("mgl"):
            argv += ["--delta", _f(rng, 0.01, 0.49, 4)]
        add("eval", argv)
    for i in range(8):
        add("bound", ["bound", "lower", "--n", str(rng.randint(100, 100000)),
                      "--rho", _f(rng, 1.05, 2.0), "--delta", _f(rng, 0.02, 0.3)])
        n = rng.randint(8, 40)
        w = rng.randint(1, n // 3)
        add("bound", ["bound", "psi", "--n", str(n),
                      "--m", str(rng.randint((n + 1) // 2, n)),
                      "--delta", repr(w / n), "--k", str(rng.randint(-1, 1))])
        add("bound", ["bound", "sum", "--n", str(rng.randint(1000, 100000)),
                      "--rho", _f(rng, 1.05, 2.0), "--delta", _f(rng, 0.02, 0.3),
                      "--a", _f(rng, 0.5, 2.0, 2)])
        argv = ["bound", "gap", "--rho", _f(rng, 1.05, 2.0),
                "--delta1", _f(rng, 0.05, 0.3), "--delta2", _f(rng, 0.02, 0.15),
                "--d1", _f(rng, 0.05, 0.45), "--d2", _f(rng, 0.05, 0.45),
                "--tau", _f(rng, 0.5, 2.0, 2)]
        if rng.random() < 0.5:
            argv += ["--n", str(rng.randint(1000, 100000))]
        add("bound", argv)
        add("bound", ["bound", "gaussian", "--sigma2", "1",
                      "--aux-var", _f(rng, 0.1, 1.0, 2),
                      "--power", _f(rng, 1.0, 10.0, 2), "--n1", "1",
                      "--n2", _f(rng, 0.1, 2.0, 2), "--rho", _f(rng, 0.5, 2.0, 2),
                      "--d1", _f(rng, 0.1, 0.9, 2)])
        e1 = rng.uniform(0.0, 0.3)
        add("bound", ["bound", "erasure", "--eps1", "%.3f" % e1,
                      "--eps2", "%.3f" % rng.uniform(e1, 0.6),
                      "--rho", _f(rng, 0.5, 2.0, 2), "--d1", _f(rng, 0.05, 0.45),
                      "--q", _f(rng, 0.0, 0.5)])
    for i in range(12):
        lo = 0.05 + 0.01 * rng.randint(0, 10)
        argv = ["bound", "region", "--rho", _f(rng, 1.0, 2.0),
                "--delta1", _f(rng, 0.02, 0.15), "--delta2", _f(rng, 0.02, 0.15),
                "--d1-min", "%.2f" % lo, "--d1-max", "%.2f" % (lo + 0.1),
                "--d1-step", "0.05"]
        if i % 2:
            argv += ["--n", str(int(10 ** rng.uniform(2.5, 4.0)))]
        add("region", argv)
    for i in range(8):
        m = rng.randint(1, 2)
        argv = ["oracle", "p2p", "--m", str(m), "--n", str(rng.randint(m, 4)),
                "--delta", rng.choice(_rationals(10))]
        if rng.random() < 0.5:
            argv.append("--exact")
        add("oracle", argv)
        n = rng.randint(4, 60)
        w = rng.randint(1, n // 3)
        g = math.gcd(w, n)
        add("oracle", ["oracle", "binomial", "--n", str(n),
                       "--delta", "%d/%d" % (w // g, n // g),
                       "--k-max", str(rng.randint(1, 4))])
        add("oracle", ["oracle", "coupling", "--n", str(10 * rng.randint(2, 20)),
                       "--delta1", "%d/10" % rng.randint(1, 4),
                       "--delta2", rng.choice(_rationals(10))])
        d1 = rng.uniform(0.05, 0.3)
        d2 = rng.uniform(0.02, 0.15)
        t = rng.uniform(0.0, 0.95) * (NAT_LOG2 - h_b(round(d1, 3)))
        add("oracle", ["oracle", "gq-search", "--delta1", "%.3f" % d1,
                       "--delta2", "%.3f" % d2, "--t", "%.4f" % t,
                       "--trials", str(rng.choice([500, 1000, 2000])),
                       "--seed", str(rng.randint(0, 99))])
    suites = ["mgl-lin", "g-convex", "beta-props", "theta-dec", "f-lt-1",
              "phi-deriv-le-1"]
    for i in range(12):
        pick = rng.sample(suites, rng.randint(1, len(suites)))
        add("verify2", ["verify", "--suite", ",".join(pick), "--grid-step", "1e-2"])
    for fmt in ([], ["--format", "json"]):
        ops.append({"stratum": "verify3",
                    "argv": ["verify", "--suite", ",".join(suites),
                             "--grid-step", "1e-3"] + fmt})
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def build_cli(rng: random.Random) -> dict:
    env = src_env(ROOT)
    ops = cli_pool(rng)
    for op in ops:
        r = subprocess.run([sys.executable, "-m", "jsccbounds.cli"] + op["argv"],
                           capture_output=True, env=env, cwd=ROOT, timeout=120)
        op["returncode"] = r.returncode
        op["stdout"] = r.stdout.decode("utf-8")
    print("cli pool done", file=sys.stderr)
    return {"ops": ops}


POOLS = {"region": build_region, "oracle": build_oracle, "cli": build_cli}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=sorted(POOLS))
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    REF_DIR.mkdir(parents=True, exist_ok=True)
    for i, (name, build) in enumerate(sorted(POOLS.items())):
        if args.only and name != args.only:
            continue
        data = build(random.Random(POOL_SEED + i))
        data["src_sha256"] = src_digest(ROOT)
        text = json.dumps(data, indent=1, allow_nan=False) + "\n"
        (REF_DIR / ("%s.json" % name)).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
