"""The three workloads: what one operation is, how a batch of them is drawn
from the seed, and how each output is checked.

Every workload runs closed-loop: one caller in one process starts the next
operation when the previous one returns. The seed draws one batch: a fixed
number of distinct operations from each stratum of the workload's pool (the
strata and counts are part of the definitions below), so the cost of a
batch depends on the seed only through the inputs inside each stratum. A
batch has 40 operations (oracle: 57).

`round_s` and `trace_pair_s` are the nominal lengths of one untraced round
(with its reference-kernel timings and its share of the set-up samples) and
of one untraced-plus-traced pair, set-up included, measured when the
benchmark was defined; run.py divides its --seconds by them to fix the
number of rounds, so that number never depends on the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from calibrate import KERNELS


def batch_rng(seed: int, tag) -> random.Random:
    return random.Random("%d/%s" % (seed, tag))


def src_env(root: Path) -> dict:
    """This process's environment with the checkout's src/ first on
    PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


def src_digest(root: Path) -> str:
    """sha256 over the package's source files, naming the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "jsccbounds").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    why = ""
    # stratum -> operations per batch
    strata: dict = {}

    def __init__(self, root: Path, mods: dict):
        self.root = root
        self.mods = mods
        data = json.loads((root / "perfbench" / "reference" /
                           ("%s.json" % self.name)).read_text(encoding="utf-8"))
        self.by_stratum = {}
        for op in self.pool(data):
            self.by_stratum.setdefault(op["stratum"], []).append(op)

    def pool(self, data: dict) -> list:
        return data["ops"]

    def batch(self, seed: int) -> list:
        rng = batch_rng(seed, "batch")
        ops = []
        for stratum, count in sorted(self.strata.items()):
            ops.extend(rng.sample(self.by_stratum[stratum], count))
        rng.shuffle(ops)
        return [self.prepare(op) for op in ops]

    def prepare(self, op: dict) -> dict:
        return op

    def run_kernel(self, name: str) -> None:
        """Run one of the workload's reference kernels (calibrate.py), which
        are timed next to each operation."""
        if name == "spawn":
            KERNELS[name](src_env(self.root), self.root)
        else:
            KERNELS[name]()

    # kernels are timed after every kernel_every-th operation
    kernel_every = 1

    def kernel_of(self, op: dict) -> str:
        """The kernel whose time scales this operation's latency."""
        return self.kernels[0]

    def warmup_op(self) -> dict:
        """One fixed, seed-independent operation run before timing starts."""
        return self.prepare(self.by_stratum[self.warmup_stratum][0])

    def run(self, op: dict):
        raise NotImplementedError

    def run_in_process(self, op: dict):
        return self.run(op)

    def check(self, op: dict, out) -> str | None:
        """None when the output is right, else the reason it is wrong."""
        raise NotImplementedError

    def probes(self, seed: int) -> list:
        return []


# ---------- region ----------


class Region(Workload):
    name = "region"
    why = ("region_trace points: h_b/h_b_inv inside the nested d2 bisection "
           "and q search dominate; oracles is idle (closed-form and kernel "
           "work should show here)")
    # Point kinds in the proportions the pool has them: 415 binding, 66
    # unbinding and 47 infeasible of 528 points at 0.02 steps over the CLI's
    # 0.05..0.25 sweep.
    strata = {"binding": 32, "unbinding": 5, "infeasible": 3}
    warmup_stratum = "binding"
    kernels = ("scalar",)
    round_s = 5.0
    trace_pair_s = 13.5

    def pool(self, data):
        self.tol = data["d2_tol"]
        insts = {i["id"]: i for i in data["instances"]}
        out = []
        for pt in data["points"]:
            out.append(dict(pt, stratum=pt["kind"], instance=insts[pt["inst"]]))
        return out

    def run(self, op):
        br = self.mods["broadcast_region"]
        inst = op["instance"]
        bp = br.BinaryBroadcastParams(rho=inst["rho"], p=inst["p"],
                                      delta1=inst["delta1"],
                                      delta2=inst["delta2"], n=inst["n"])
        return bp, br.region_trace(bp, [op["d1"]])

    def check(self, op, out):
        br = self.mods["broadcast_region"]
        DomainError = self.mods["binary_info"].DomainError
        bp, pts = out
        if len(pts) != 1:
            return "expected 1 point, got %d" % len(pts)
        pt = pts[0]
        want_feasible = op["kind"] != "infeasible"
        if pt.d1 != op["d1"]:
            return "d1 %r != %r" % (pt.d1, op["d1"])
        if pt.feasible != want_feasible:
            return "feasible=%s, reference says %s" % (pt.feasible, want_feasible)
        if not (math.isfinite(pt.d2_min) and math.isfinite(pt.q_star)):
            return "non-finite d2_min or q_star"
        if abs(pt.d2_min - op["d2_min"]) > self.tol:
            return "d2_min %r differs from reference %r by more than %g" % (
                pt.d2_min, op["d2_min"], self.tol)
        try:
            s = br.outer_bound_slack(pt.d1, pt.d2_min, pt.q_star, bp)
        except DomainError:
            s = None
        if want_feasible:
            if s is None or not math.isfinite(s) or s < -self.tol:
                return "slack at (d1, d2_min, q_star) is %r on a feasible point" % s
            if not math.isfinite(pt.slack):
                return "feasible point with non-finite slack"
        elif s is not None and s >= 0.0:
            return "infeasible point, yet slack at q_star is %r" % s
        return None

    def probes(self, seed):
        """Known defects, run untimed and counted as attempted operations."""
        bc = self.mods["bounds_core"]
        bi = self.mods["binary_info"]
        br = self.mods["broadcast_region"]
        rng = batch_rng(seed, "probes")
        n = rng.randint(1030, 1400)
        rho = round(rng.uniform(1.1, 2.0), 3)
        delta = round(rng.uniform(0.05, 0.3), 3)

        def sphere_floor():
            params = bc.SystemParams(n=n, rho=rho, delta=delta)
            got = bc.expected_sphere_floor(params)
            want = math.fsum(
                math.exp(math.lgamma(n + 1) - math.lgamma(w + 1)
                         - math.lgamma(n - w + 1) + w * math.log(delta)
                         + (n - w) * math.log1p(-delta))
                * bc.sphere_floor_at_weight(params, w)
                for w in range(n + 1))
            if not math.isfinite(got) or abs(got - want) > 1e-9 * want + 1e-15:
                return "expected_sphere_floor=%r, log-domain sum %r" % (got, want)
            return None

        def round_trip(t):
            def probe():
                ratio = bi.h_b(bi.h_b_inv(t)) / t
                if not abs(ratio - 1.0) <= 1e-9:
                    return "h_b(h_b_inv(t))/t = %.6g" % ratio
                return None
            return probe

        def floor_margin():
            # acceptance #7's knife edge: d1 at the strong user's optimum,
            # where the weak user's floor is exactly conv(delta2, d1)
            bp = br.BinaryBroadcastParams(rho=1.2, p=0.5, delta1=0.08, delta2=0.05)
            d1 = bc.d_asym(1.2, 0.08)
            (pt,) = br.region_trace(bp, [d1])
            margin = pt.d2_min - bi.conv(0.05, d1)
            if not margin >= -1e-12:
                return "floor margin %.3g below the advertised 1e-12" % margin
            return None

        t_seeded = 10.0 ** rng.uniform(-18.0, -12.0)
        return [
            ("expected_sphere_floor n=%d rho=%g delta=%g" % (n, rho, delta),
             sphere_floor),
            ("h_b_inv round trip t=1e-15", round_trip(1e-15)),
            ("h_b_inv round trip t=1e-18", round_trip(1e-18)),
            ("h_b_inv round trip t=%.3g" % t_seeded, round_trip(t_seeded)),
            ("region_trace floor margin at d1 = d_asym(1.2, 0.08)", floor_margin),
        ]


# ---------- oracle ----------


class Oracle(Workload):
    name = "oracle"
    why = ("exact oracles: numpy table enumeration and big-integer coupling; "
           "the scalar kernel is idle (orbit enumeration and coupling work "
           "should show here, region work should not)")
    # mostly m=2 n=5 (every sphere weight once), one m=2 n=6 call, and
    # coupling at n in [100, 400), [400, 700) and [700, 1000]; six of each
    # coupling band, because a coupling call's cost varies fivefold with its
    # inputs and fewer draws let the seed move wall_s by several percent.
    # The 26 p2p5 and sphere5 calls (70-90 ms each) hold the median well
    # inside their cluster, away from the gap up to frontier5's 120-150 ms.
    strata = {"p2p5": 20, "sphere5": 6, "frontier5": 12, "n6": 1,
              "coupling_a": 6, "coupling_b": 6, "coupling_c": 6}
    warmup_stratum = "p2p5"
    # numpy tables and big-integer products slow down differently when the
    # host is busy, so each kind of call is scaled by its own kernel
    kernels = ("enumeration", "bigint")
    round_s = 8.5
    trace_pair_s = 19.0

    def prepare(self, op):
        a = op["args"]
        if op["fn"] == "p2p_bruteforce":
            call = (a["m"], a["n"], Fraction(a["delta"]))
        elif op["fn"] == "sphere_bruteforce":
            call = (a["m"], a["n"], a["weight"])
        elif op["fn"] == "broadcast_frontier":
            call = (a["m"], a["n"], a["w1"], a["w2"])
        else:
            call = (a["n"], Fraction(a["delta1"]), Fraction(a["delta2"]))
        return dict(op, call=call)

    def kernel_of(self, op):
        return "bigint" if op["fn"] == "coupling_distance_exact" else "enumeration"

    def run(self, op):
        return getattr(self.mods["oracles"], op["fn"])(*op["call"])

    def check(self, op, out):
        want = op["expect"]
        fn = op["fn"]
        if fn == "p2p_bruteforce":
            value, table = out
            if value.value != Fraction(want["value"]):
                return "value %s != %s" % (value.value, want["value"])
            if table.index != want["witness_index"]:
                return "witness index %d != %d" % (table.index, want["witness_index"])
        elif fn == "sphere_bruteforce":
            if out.value != Fraction(want["value"]):
                return "value %s != %s" % (out.value, want["value"])
        elif fn == "broadcast_frontier":
            got = [[str(p.d1), str(p.d2), p.encoder_index] for p in out]
            if got != want["points"]:
                return "frontier differs from reference"
        else:
            if out.mode != "exact" or not isinstance(out.value, Fraction):
                return "coupling value is not an exact rational"
            digest = hashlib.sha256(str(out.value).encode()).hexdigest()
            if digest != want["value_sha256"]:
                return "coupling value differs from reference"
        return None


# ---------- cli ----------


class Cli(Workload):
    name = "cli"
    why = ("one `python -m jsccbounds.cli` process per operation: start-up "
           "dominates, and verify takes the kernel through numpy arrays (import "
           "cost and array paths show here)")
    strata = {"eval": 6, "bound": 13, "region": 3, "oracle": 12, "verify2": 5,
              "verify3": 1}
    warmup_stratum = "eval"
    kernels = ("spawn",)
    # the spawn kernel costs most of a short command, so it runs half as often
    kernel_every = 2
    round_s = 13.0
    trace_pair_s = 6.0

    def __init__(self, root, mods):
        super().__init__(root, mods)
        self.env = src_env(root)

    def run(self, op):
        r = subprocess.run([sys.executable, "-m", "jsccbounds.cli"] + op["argv"],
                           capture_output=True, env=self.env, cwd=self.root,
                           timeout=120)
        return r.returncode, r.stdout

    def run_in_process(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.mods["cli"].main(list(op["argv"]))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue().encode("utf-8")

    def check(self, op, out):
        code, stdout = out
        if code != op["returncode"]:
            return "exit code %r != %r" % (code, op["returncode"])
        if stdout != op["stdout"].encode("utf-8"):
            return "stdout differs from reference"
        return None


WORKLOADS = {w.name: w for w in (Region, Oracle, Cli)}
