"""Command line surface: exit codes, formats, flag plumbing.

Everything here drives cli.main() directly with argv lists, except the
start-up test, which needs a fresh interpreter to see what gets imported.
"""

import csv
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jsccbounds import binary_info as bi
from jsccbounds import broadcast_region as br
from jsccbounds import oracles as orc
from jsccbounds import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------- happy-path rows ----------


def test_eval_h_b_csv_row(capsys):
    code, out, err = run_cli(["eval", "--fn", "h_b", "--x", "0.25"], capsys)
    assert code == 0
    assert err == ""
    header, rows = parse_csv(out)
    assert header == ["fn", "x", "q", "delta", "value"]
    assert len(rows) == 1
    fn, x, q, delta, value = rows[0]
    assert fn == "h_b"
    assert x == "0.25"
    # unused argument cells stay empty, not "None"
    assert q == "" and delta == ""
    assert value == "%.12g" % bi.h_b(0.25)


def test_eval_two_arg_fns(capsys):
    code, out, _ = run_cli(
        ["eval", "--fn", "beta", "--x", "0.2", "--q", "0.1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][4] == "%.12g" % bi.beta(0.1, 0.2)

    code, out, _ = run_cli(
        ["eval", "--fn", "mgl", "--x", "0.3", "--delta", "0.1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][3] == "0.1"
    assert rows[0][4] == "%.12g" % bi.mgl_phi(0.1, 0.3)


def test_bound_lower_row(capsys):
    code, out, _ = run_cli(
        ["bound", "lower", "--n", "10000", "--rho", "1.2", "--delta", "0.2"],
        capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "rho", "delta", "d_asym", "eta", "leading_term",
                      "correction_order", "constant_known"]
    assert rows[0][6] == "O(n^{-3/4} log n)"
    assert rows[0][7] == "false"


def test_sum_auto_tau_cell(capsys):
    code, out, _ = run_cli(
        ["bound", "sum", "--n", "10000", "--rho", "1.2", "--delta", "0.2",
         "--a", "1.0"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][4] == "auto"


def test_frontier_rows_increasing(capsys):
    code, out, _ = run_cli(
        ["oracle", "frontier", "--m", "2", "--n", "4",
         "--w1", "1", "--w2", "2"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "n", "w1", "w2", "d1", "d2", "d1_exact",
                      "d2_exact", "encoder_index"]
    assert len(rows) == 3
    d1s = [float(r[4]) for r in rows]
    d2s = [float(r[5]) for r in rows]
    assert d1s == sorted(d1s) and len(set(d1s)) == 3
    assert d2s == sorted(d2s, reverse=True)
    assert rows[0][6] == "0"
    assert rows[0][7] == "1/4"


def test_bound_erasure_row(capsys):
    code, out, _ = run_cli(
        ["bound", "erasure", "--eps1", "0.1", "--eps2", "0.3", "--rho", "1",
         "--d1", "0.1", "--q", "0.05"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["eps1", "eps2", "rho", "d1", "q", "fp", "threshold",
                      "d2_floor"]
    eps = br.ErasureParams(0.1, 0.3)
    fp, thr = br._erasure_threshold(eps, 1.0, 0.1, 0.05)
    floor = br.erasure_d2_floor(eps, 1.0, 0.1, 0.05)
    assert floor > 0.0
    assert rows[0][5:] == ["%.12g" % fp, "%.12g" % thr, "%.12g" % floor]


# ---------- formats and plumbing ----------


def test_csv_json_same_numbers(capsys):
    args = ["bound", "lower", "--n", "400", "--rho", "1.3", "--delta", "0.17"]
    code, out_csv, _ = run_cli(args, capsys)
    assert code == 0
    code, out_json, _ = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    _, rows = parse_csv(out_csv)
    doc = json.loads(out_json)
    assert doc["columns"][3] == "d_asym"
    for i in (3, 4, 5):
        assert float(rows[0][i]) == doc["rows"][0][i]


def test_global_flags_before_or_after_subcommand(capsys):
    code_a, out_a, _ = run_cli(
        ["--format", "json", "eval", "--fn", "R", "--x", "0.2"], capsys)
    code_b, out_b, _ = run_cli(
        ["eval", "--fn", "R", "--x", "0.2", "--format", "json"], capsys)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_bits_divides_nat_columns(capsys):
    code, out, _ = run_cli(
        ["eval", "--fn", "h_b", "--x", "0.5", "--bits"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][4] == "1"


def test_bits_leaves_probability_outputs_alone(capsys):
    code, plain, _ = run_cli(["eval", "--fn", "h_b_inv", "--x", "0.3"], capsys)
    assert code == 0
    code, bits, _ = run_cli(
        ["eval", "--fn", "h_b_inv", "--x", "0.3", "--bits"], capsys)
    assert code == 0
    assert plain == bits


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, err = run_cli(
        ["eval", "--fn", "g", "--x", "0.2", "--out", str(target)], capsys)
    assert code == 0
    assert out == "" and err == ""
    header, rows = parse_csv(target.read_text(encoding="utf-8"))
    assert header[0] == "fn"
    assert rows[0][4] == "%.12g" % bi.g(0.2)


def test_p2p_exact_cells(capsys):
    code, out, _ = run_cli(
        ["oracle", "p2p", "--m", "1", "--n", "2", "--delta", "1/10",
         "--exact"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "n", "delta", "value", "witness"]
    assert rows[0][2] == "1/10"
    assert rows[0][3] == "1/10"
    value, table = orc.p2p_bruteforce(1, 2, Fraction(1, 10))
    assert rows[0][4] == ";".join(table.words())
    words = rows[0][4].split(";")
    assert len(words) == 2 and all(len(w) == 2 for w in words)
    assert words[0] == "00"


def test_p2p_float_cell_without_exact(capsys):
    code, out, _ = run_cli(
        ["oracle", "p2p", "--m", "1", "--n", "2", "--delta", "1/10"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][3] == "0.1"


def test_region_plot_data_long_format(capsys):
    code, out, _ = run_cli(
        ["bound", "region", "--rho", "1.2", "--delta1", "0.08",
         "--delta2", "0.05", "--d1-min", "0.15", "--d1-max", "0.15",
         "--d1-step", "0.01", "--plot-data"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d1", "q", "slack"]
    assert len(rows) == len(br._Q_SEEDS)
    assert all(r[0] == "0.15" for r in rows)
    # slack at the traced d2 is nonnegative for every probe q
    assert all(float(r[2]) >= -1e-9 for r in rows)


def test_verify_clean_suite_exit_0(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "f-lt-1", "--grid-step", "0.02"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["suite", "grid_step", "tol", "max_violation",
                      "argmax", "violations"]
    assert rows[0][5] == "0"


# ---------- failure-path exit codes ----------


def test_eval_conv_missing_q_returns_1(capsys):
    code, out, err = run_cli(["eval", "--fn", "conv", "--x", "0.2"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_unknown_verify_suite_returns_1(capsys):
    code, _, err = run_cli(["verify", "--suite", "nope"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_eval_domain_error_returns_3(capsys):
    code, _, err = run_cli(["eval", "--fn", "h_b", "--x", "1.5"], capsys)
    assert code == 3
    assert err.startswith("infeasible:")


def test_gaussian_floor_infeasible_returns_3(capsys):
    code, _, err = run_cli(
        ["bound", "gaussian", "--sigma2", "1", "--aux-var", "0.5",
         "--power", "4", "--n1", "1", "--n2", "1", "--rho", "1",
         "--d1", "0.01"], capsys)
    assert code == 3
    assert err.startswith("infeasible:")


def test_erasure_infeasible_returns_3(capsys):
    code, out, err = run_cli(
        ["bound", "erasure", "--eps1", "0.95", "--eps2", "0.96", "--rho", "1",
         "--d1", "0.05", "--q", "0.4"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("infeasible:")


def test_spherical_domain_error_returns_3(capsys):
    for argv in (["--m", "1", "--n", "2", "--weight", "5"],
                 ["--m", "0", "--n", "2", "--weight", "1"]):
        code, out, err = run_cli(["oracle", "spherical"] + argv, capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("infeasible:")


def test_budget_overflow_returns_3(capsys):
    code, _, err = run_cli(
        ["oracle", "p2p", "--m", "2", "--n", "4", "--delta", "1/4",
         "--budget", "1000"], capsys)
    assert code == 3
    assert err.startswith("budget:")


def test_region_all_infeasible_returns_3(capsys):
    code, out, _ = run_cli(
        ["bound", "region", "--rho", "0.3", "--delta1", "0.4",
         "--delta2", "0.05", "--d1-min", "0.01", "--d1-max", "0.01",
         "--d1-step", "0.01"], capsys)
    assert code == 3
    _, rows = parse_csv(out)
    assert rows[0][1] == "0.5"
    assert rows[0][3] == "-inf"


def test_verify_negative_tol_flags_violations(capsys):
    # a tolerance below every achievable margin forces the violation path
    code, out, _ = run_cli(
        ["verify", "--suite", "mgl-lin", "--grid-step", "0.05",
         "--tol", "-1"], capsys)
    assert code == 2
    _, rows = parse_csv(out)
    assert int(rows[0][5]) > 0
    assert rows[0][4] != ""


def test_argparse_level_failures_raise_systemexit():
    # unknown subcommand
    with pytest.raises(SystemExit) as exc:
        cli.main(["nope"])
    assert exc.value.code == 1
    # missing required flag
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--x", "0.5"])
    assert exc.value.code == 1
    # the sum bound only accepts the literal "auto" for --tau
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "sum", "--n", "100", "--rho", "1.2",
                  "--delta", "0.2", "--a", "1.0", "--tau", "0.5"])
    assert exc.value.code == 1


def test_bad_encoder_string_returns_1(capsys):
    code, _, err = run_cli(
        ["oracle", "spherical", "--m", "1", "--n", "2", "--weight", "1",
         "--encoder", "0x,11"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_region_bad_grid_returns_1(capsys):
    code, _, err = run_cli(
        ["bound", "region", "--rho", "1.2", "--delta1", "0.08",
         "--delta2", "0.05", "--d1-min", "0.2", "--d1-max", "0.1",
         "--d1-step", "0.01"], capsys)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("flag", ["--d1-min", "--d1-max", "--d1-step"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_region_non_finite_grid_returns_1(capsys, flag, value):
    grid = {"--d1-min": "0.05", "--d1-max": "0.3", "--d1-step": "0.01"}
    grid[flag] = value
    argv = ["bound", "region", "--rho", "1.2", "--delta1", "0.08", "--delta2", "0.05"]
    code, out, err = run_cli(argv + ["%s=%s" % kv for kv in grid.items()], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", "h_b_inv", "--x", "nan"],
    ["bound", "psi", "--n", "3", "--m", "0", "--delta", "0.11", "--k", "1"],
    ["oracle", "binomial", "--n", "0", "--delta", "1/4", "--k-max", "0"],
    ["oracle", "binomial", "--n", "-4", "--delta", "1/4", "--k-max", "2"],
])
def test_out_of_domain_counts_and_nan_return_3(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("infeasible:")


def test_reference_commands_reproduce_their_stdout(capsys):
    # every command of the benchmark's frozen cli pool, run in-process
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                      / "cli.json").read_text())
    wrong = []
    for op in ref["ops"]:
        code, out, _ = run_cli(list(op["argv"]), capsys)
        if (code, out) != (op["returncode"], op["stdout"]):
            wrong.append(op["argv"])
    assert len(ref["ops"]) == 122
    assert wrong == []


# ---------- start-up ----------


_START_UP = """
import json
import sys

import jsccbounds
from jsccbounds import cli

loaded = ["numpy" in sys.modules]
for argv in (["eval", "--fn", "h_b", "--x", "0.11"],
             ["bound", "lower", "--n", "10000", "--rho", "1.2", "--delta", "0.2"],
             ["oracle", "coupling", "--n", "10", "--delta1", "1/5", "--delta2", "1/4"]):
    assert cli.main(argv) == 0
loaded.append("numpy" in sys.modules)
assert cli.main(["oracle", "p2p", "--m", "1", "--n", "2", "--delta", "1/4"]) == 0
loaded.append("numpy" in sys.modules)
sys.stderr.write(json.dumps(loaded))
"""


def test_scalar_commands_start_without_numpy():
    # numpy loads on the first array call, not on import or for scalar commands
    proc = subprocess.run([sys.executable, "-c", _START_UP], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == [False, False, True]
    assert proc.stdout.endswith("m,n,delta,value,witness\n1,2,1/4,0.25,00;01\n")
