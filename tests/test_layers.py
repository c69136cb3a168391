"""Smoke test of the layer harness, bench/layers.py: every case built and
run once in process, one case per layer timed on both sides alternating,
and the JSON it prints."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from jsccbounds import oracles as orc

ROOT = Path(__file__).resolve().parents[1]


def test_every_case_builds_and_runs_in_process():
    # a private name a case reads (orc._axis, br._slack_no_raise,
    # bi._NEWTON_CUTOFF) fails here when it is renamed
    spec = importlib.util.spec_from_file_location("layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    cases = layers._cases()
    assert [name for name in cases if name.startswith("driver/verify/")] == \
        ["driver/verify/" + suite for suite in orc.ALL_SUITES]
    for name, (layer, build) in cases.items():
        assert name.split("/")[0] == layer
        run, calls = build()
        assert calls >= 1
        run()


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
            assert len(s["round_medians"]) == 2 and min(s["round_medians"]) > 0.0
        assert row["change_won"] in (0, 1, 2)
