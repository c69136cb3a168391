"""Smoke test of the layer harness, bench/layers.py: one case per layer,
both sides alternating, and the JSON it prints."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_harness_prints_one_json_object_per_run():
    cases = ["kernel/h_b_inv/0.2-log2", "evaluator/worst_q_sweep", "driver/region_trace/binding"]
    cmd = [sys.executable, str(ROOT / "bench" / "layers.py"), "--repeats", "2", "--rounds", "2",
           "--parent", str(ROOT)]
    for case in cases:
        cmd += ["--case", case]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    out = json.loads(proc.stdout)
    assert list(out["cases"]) == cases
    assert out["sides"] == {"change": str(ROOT), "parent": str(ROOT)}
    for case in cases:
        row = out["cases"][case]
        assert row["layer"] == case.split("/")[0]
        for side in ("change", "parent"):
            s = row[side]
            assert s["n"] == 4 and 0.0 < s["q1"] <= s["median"] <= s["q3"]
