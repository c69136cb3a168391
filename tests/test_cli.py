"""Command line surface: exit codes, formats, flag plumbing.

Everything here drives cli.main() directly with argv lists, except the
start-up tests, which need a fresh interpreter to see what gets imported.
"""

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import subprocess
import sys
import time
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


def test_eval_reaches_every_catalog_function(capsys):
    for name, fn in bi._CATALOG.items():
        flag = cli._FIRST_ARG_FLAG.get(name)
        argv = ["eval", "--fn", name, "--x", "0.3"]
        args = (0.3,)
        if flag is not None:
            argv += ["--" + flag, "0.1"]
            args = (0.1, 0.3)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, name
        assert parse_csv(out)[1][0][4] == "%.12g" % fn(*args), name


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


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_out_that_cannot_be_written_returns_1(tmp_path, capsys, where):
    # an unwritable --out is a usage error naming the path, not a traceback
    target = tmp_path / "no" / "row.csv" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(["eval", "--fn", "h_b", "--x", "0.1", "--out", str(target)], capsys)
    reason = "No such file or directory" if where == "missing-dir" else "Is a directory"
    assert (code, out, err) == (1, "", "error: cannot write --out %s: %s\n" % (target, reason))


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


@pytest.mark.parametrize("n_args,digest", [
    ([], "0ec53365ec61ef80d139c68bca7cee58e63150fdccc2ffb68a361f3227ec386a"),
    (["--n", "1000"], "7660c36d09be91827fe839d34f1d53834dcc008c1eb47ad8f2700a88214fb568"),
], ids=["asymptotic", "n1000"])
def test_region_plot_data_frozen(capsys, n_args, digest):
    # --plot-data is the CLI's route into outer_bound_slack: its full stdout
    # (2 d1 x 66 q rows) is frozen by sha256
    code, out, _ = run_cli(
        ["bound", "region", "--rho", "1.2", "--delta1", "0.08", "--delta2", "0.05",
         *n_args, "--d1-min", "0.15", "--d1-max", "0.2", "--d1-step", "0.05",
         "--plot-data"], capsys)
    assert code == 0
    assert out.count("\n") == 1 + 2 * len(br._Q_SEEDS)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("argv, msg", [
    # exp(2t) and exp(2 thr) overflow a float, 2 d2 tau underflows to 0
    (["bound", "gaussian", "--sigma2", "1", "--aux-var", "0.5", "--power", "1",
      "--n1", "0.5", "--n2", "1", "--rho", "0.5", "--d1", "1e-300"], "< 1"),
    (["bound", "gaussian", "--sigma2", "1", "--aux-var", "0.5", "--power", "1000",
      "--n1", "1", "--n2", "1", "--rho", "1000", "--d1", "0.3"], "float range"),
    (["bound", "gap", "--rho", "1.2", "--delta1", "0.08", "--delta2", "0.05",
      "--d1", "0.1", "--d2", "1e-200", "--tau", "1e-200"], "underflows"),
])
def test_float_range_edges_return_3(capsys, argv, msg):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("infeasible:") and msg in err


def test_gaussian_with_an_overflowing_rate_ratio_prints_its_row(capsys):
    # sigma2 / d1 = 1e600 overflows; the rate is (1/2)(log sigma2 - log d1),
    # and at aux_var = 0 the channel map F returns 0, so the ratio bound is
    # sqrt((P + N1 + N2) / (N1 + N2)) = sqrt(2.5 / 1.5)
    code, out, err = run_cli(
        ["bound", "gaussian", "--sigma2", "1e300", "--aux-var", "0", "--power", "1",
         "--n1", "0.5", "--n2", "1", "--rho", "0.5", "--d1", "1e-300"], capsys)
    assert (code, err) == (0, "")
    row = out.splitlines()[1].split(",")
    assert row[7] == "1.29099444874"
    assert float(row[8]) == pytest.approx(1e300 / math.sqrt(2.5 / 1.5), rel=1e-11)


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


@pytest.mark.parametrize("argv,prefixes,exp", [
    (["p2p", "--m", "12", "--n", "4", "--delta", "1/4"], 330, 4 * 4093),
    (["frontier", "--m", "12", "--n", "4", "--w1", "1", "--w2", "2"], 330, 4 * 4093),
    (["spherical", "--m", "14", "--n", "1", "--weight", "0"], 8, 16381),
])
def test_budget_message_for_large_m(capsys, argv, prefixes, exp):
    # (scanned tables x output words) has over 4,300 digits here, past the
    # limit of Python's int-to-str conversion, so the message gives it as
    # canonical (c_1, c_2, c_3) prefixes times a power of 2
    code, out, err = run_cli(["oracle"] + argv, capsys)
    assert (code, out) == (3, "")
    assert err == ("budget: search needs %d x 2^%d (encoder, output) pairs, budget is %d\n"
                   % (prefixes, exp, orc.DEFAULT_BUDGET))


def test_fixed_encoder_past_the_budget_returns_3(capsys):
    def spherical(n, ones):
        words = ["0" * n, "0" * (n - ones) + "1" * ones]
        return ";".join(words), run_cli(["oracle", "spherical", "--m", "1", "--n", str(n),
                                         "--weight", "1", "--encoder", ",".join(words)], capsys)

    # a given m = 1 table costs as its own orbit, (n - w + 1)(w + 1) terms of
    # 2n bits: at n = 3000 the half-weight table's 1501 x 1501 terms of 6000
    # bits are refused before any term is formed
    _, got = spherical(3000, 1500)
    assert got == (3, "", "budget: search needs 2253001 orbit terms x 6000 bits, budget is %d\n"
                   % orc.DEFAULT_BUDGET)
    # the all-ones table's 1 x 3001 terms are an answer (before, it was
    # charged the worst orbit's 2253001 and refused)
    cell, got = spherical(3000, 3000)
    assert got == (0, "m,n,weight,encoder,value\n1,3000,1,%s,0\n" % cell, "")
    # at n = 40 its 2^40 (encoder, output) pairs were refused; now it is an answer
    cell, got = spherical(40, 40)
    assert got == (0, "m,n,weight,encoder,value\n1,40,1,%s,0\n" % cell, "")


def test_coupling_and_gq_search_budgets_return_3(capsys, time_cap):
    argv = ["oracle", "coupling", "--n", "10", "--delta1", "1/10", "--delta2", "1/5"]
    code, out, err = run_cli(argv + ["--budget", "119"], capsys)
    assert (code, out, err) == (3, "", "budget: coupling needs 4 walk terms x 30 bits, "
                                       "budget is 119\n")
    assert run_cli(argv + ["--budget", "120"], capsys) == run_cli(argv, capsys)
    # n = 10^6 first: work that grows with n shows at the cap there, while at
    # n = 10^21 it could sit in one power that no alarm interrupts
    with time_cap(2.0):
        for n, terms, bits in (("1" + "0" * 6, 200002, 4 * 10**6),
                               ("1" + "0" * 21, 2 * 10**20 + 2, 4 * 10**21)):
            code, out, err = run_cli(["oracle", "coupling", "--n", n, "--delta1", "1/10",
                                      "--delta2", "1/10"], capsys)
            assert (code, out, err) == (3, "", "budget: coupling needs %d walk terms x %d "
                                        "bits, budget is %d\n"
                                        % (terms, bits, orc.DEFAULT_BUDGET))
        code, out, err = run_cli(["oracle", "gq-search", "--delta1", "0.1", "--delta2", "0.05",
                                  "--t", "0.1", "--trials", "1" + "0" * 21, "--seed", "0"],
                                 capsys)
    assert (code, out) == (3, "")
    assert err == ("budget: search needs %d trials x 9 h_b evaluations, budget is %d\n"
                   % (10**21, orc.DEFAULT_BUDGET))


def test_coupling_past_maxsize_returns_3(capsys, time_cap):
    # a budget past the walks' work takes n = 10^21 to the sys.maxsize refusal:
    # one line and exit 3, not math.comb's OverflowError traceback
    with time_cap(2.0):
        code, out, err = run_cli(["oracle", "coupling", "--n", "1" + "0" * 21, "--delta1", "1/10",
                                  "--delta2", "1/10", "--budget", "1" + "0" * 400], capsys)
    assert (code, out) == (3, "")
    assert err == "infeasible: coupling needs b^n, over 2^63 bits, at n = %d\n" % 10**21


def test_binomial_rows_budget_returns_3(capsys, monkeypatch, time_cap):
    # the rows k = 0..K need 2 K (K + 1) factors in products of at most
    # 2 K (bit_length(n) + bit_length(b)) bits, held against the default
    # budget before any row; at n = 4 k-max, delta 1/4, k-max 424 is the last
    # admitted and 425 the first refused (before, n = 8000 and k-max 2000 took
    # 12.5 s, and n = k-max = 10^21 did not end)
    with time_cap(2.0):
        for n, k, factors, bits in (("1700", "425", 362100, 11900),
                                    ("8000", "2000", 8004000, 64000),
                                    ("1" + "0" * 21, "1" + "0" * 21,
                                     125 * 10**39 + 5 * 10**20, 365 * 10**20)):
            code, out, err = run_cli(["oracle", "binomial", "--n", n, "--delta", "1/4",
                                      "--k-max", k], capsys)
            assert (code, out, err) == (3, "", "budget: binomial needs %d factors x %d bits, "
                                        "budget is %d\n" % (factors, bits, orc.DEFAULT_BUDGET))

    class Admitted(Exception):
        pass

    def admitted(*args, real=orc._binomial_rows):
        next(real(*args))  # the charge, then row 0
        raise Admitted

    monkeypatch.setattr(orc, "_binomial_rows", admitted)
    with pytest.raises(Admitted):
        cli.main(["oracle", "binomial", "--n", "1696", "--delta", "1/4", "--k-max", "424"])
    monkeypatch.undo()
    # the charge runs before the first row is built
    with pytest.raises(orc.BudgetExceeded, match="^binomial needs 362100 factors x 11900 bits"):
        next(orc._binomial_rows(1700, Fraction(1, 4), 425, 2 * 425 * 426))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_cell_past_the_digit_limit_returns_3(capsys, fmt):
    # the optimum's denominator, 2 (10^400)^11, has more digits than
    # int-to-str prints
    code, out, err = run_cli(["oracle", "p2p", "--m", "1", "--n", "11", "--delta",
                              "1/1" + "0" * 400, "--exact", "--format", fmt], capsys)
    assert (code, out) == (3, "")
    assert err == "infeasible: the exact value ~2^6651/~2^14615 has too many digits to print\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n,delta1,delta2", [
    ("10000", "3/10", "1/7"),
    # about 10^-398: the float underflows to 0, so this one is refused
    ("100", "1/10", "1/1" + "0" * 400),
])
def test_coupling_prints_the_float_past_the_digit_limit(capsys, fmt, n, delta1, delta2):
    # e_dev has more digits than int-to-str prints, so its cell is the
    # correctly rounded float, unless that float is 0 and would hide e_dev > 0
    exact = orc.coupling_distance_exact(int(n), Fraction(delta1), Fraction(delta2)).value
    with pytest.raises(ValueError):
        str(exact)
    code, out, err = run_cli(["oracle", "coupling", "--n", n, "--delta1", delta1,
                              "--delta2", delta2, "--format", fmt], capsys)
    if float(exact) == 0.0:
        assert exact > 0
        assert (code, out) == (3, "")
        assert err == ("infeasible: the exact value ~2^132876/~2^134197 has too many digits"
                       " to print\n")
        return
    assert (code, err) == (0, "")
    bound = math.sqrt(int(n) * float(Fraction(delta2)))
    if fmt == "csv":
        assert out == "n,delta1,delta2,e_dev,bound\n%s,%s,%s,%.12g,%.12g\n" % (
            n, delta1, delta2, float(exact), bound)
    else:
        assert json.loads(out)["rows"] == [[int(n), delta1, delta2, float("%.12g" % float(exact)),
                                            float("%.12g" % bound)]]


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
    # int(w, 2) takes a sign, spaces and underscores; each word must be n 0s and
    # 1s, and an empty value is no table
    for n, encoder in (("2", "0x,11"), ("3", "0_1,110"), ("3", " 01,110"), ("3", "+01,110"),
                       ("3", "")):
        got = run_cli(["oracle", "spherical", "--m", "1", "--n", n, "--weight", "1",
                       "--encoder", encoder], capsys)
        assert got == (1, "", "error: --encoder wants comma-separated binary words\n"), encoder


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


def test_region_grid_over_the_point_cap_returns_1_at_once(capsys):
    argv = ["bound", "region", "--rho", "1.2", "--delta1", "0.08", "--delta2", "0.05",
            "--d1-min", "0.05", "--d1-max", "0.3", "--d1-step", "1e-10"]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_d1_grid_cap_boundary():
    cap = cli._D1_GRID_MAX_POINTS
    assert len(cli._d1_grid(0.0, 1.0, 1.0 / (cap - 1))) == cap
    with pytest.raises(cli._Usage):
        cli._d1_grid(0.0, 1.0, 1.0 / cap)


# 0.3, 0.5 and 1e300 leave 2, 1 and 1 points on an axis, fewer than the 3 every
# suite needs
@pytest.mark.parametrize("step", ["0", "-0.01", "nan", "inf", "0.3", "0.5", "1e300"])
def test_verify_bad_grid_step_returns_1(capsys, step):
    code, out, err = run_cli(["verify", "--suite", "beta-props",
                              "--grid-step=%s" % step], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_verify_non_finite_tol_returns_1(capsys, tol):
    code, out, err = run_cli(["verify", "--suite", "g-convex", "--grid-step", "0.01",
                              "--tol=%s" % tol], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_verify_grid_over_the_axis_cap_returns_1_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["verify", "--suite", "beta-props", "--grid-step", "1e-5"],
                             capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["bound", "region", "--rho", "nan", "--delta1", "0.08", "--delta2", "0.05",
     "--d1-min", "0.05", "--d1-max", "0.06", "--d1-step", "0.01"],
    ["bound", "lower", "--n", "100", "--rho", "nan", "--delta", "0.11"],
])
def test_nan_rho_returns_3_naming_rho(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("infeasible: rho must be positive")


_GAUSSIAN = ["bound", "gaussian", "--sigma2", "1", "--aux-var", "0.5", "--power", "1",
             "--n1", "0.5", "--n2", "1", "--rho", "1", "--d1", "0.3"]


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", "h_b_inv", "--x", "nan"],
    ["bound", "psi", "--n", "3", "--m", "0", "--delta", "0.11", "--k", "1"],
    ["oracle", "binomial", "--n", "0", "--delta", "1/4", "--k-max", "0"],
    ["oracle", "binomial", "--n", "-4", "--delta", "1/4", "--k-max", "2"],
    ["bound", "gap", "--rho", "1.2", "--delta1", "0.08", "--delta2", "0.05",
     "--d1", "0.1", "--d2", "0.2", "--tau", "nan"],
    ["bound", "sum", "--n", "100", "--rho", "1.2", "--delta", "0.2", "--a", "nan"],
] + [
    # a repeated flag takes its last value
    _GAUSSIAN + [flag, "nan"] for flag in ("--rho", "--aux-var", "--power", "--n1", "--n2")
] + [
    # an infinite real is out of every domain
    ["bound", "gap", "--rho", "1.2", "--delta1", "0.08", "--delta2", "0.05",
     "--d1", "0.1", "--d2", "0.2", "--tau", "inf"],
    _GAUSSIAN + ["--rho", "inf"],
    _GAUSSIAN + ["--sigma2", "inf"],
    ["bound", "sum", "--n", "100", "--rho", "1.2", "--delta", "0.2", "--a", "inf"],
    ["bound", "erasure", "--eps1", "0.1", "--eps2", "0.2", "--rho", "inf",
     "--d1", "0.2", "--q", "0.1"],
    ["bound", "region", "--rho", "inf", "--delta1", "0.08", "--delta2", "0.05",
     "--d1-min", "0.05", "--d1-max", "0.06", "--d1-step", "0.01"],
])
def test_out_of_domain_counts_and_nan_return_3(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("infeasible:")


def test_infinite_sigma2_names_sigma2(capsys):
    code, out, err = run_cli(_GAUSSIAN + ["--sigma2", "inf"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("infeasible: sigma2 ")


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
import sys

seen = set()


def stage():
    # the package's modules, numpy, dataclasses and inspect (about 10 ms of
    # start-up), and json, fractions and decimal (about 6 ms), loaded since
    # the last stage
    new = sorted(m for m in sys.modules
                 if (m in ("numpy", "dataclasses", "inspect", "json", "fractions", "decimal")
                     or m.split(".")[0] == "jsccbounds")
                 and m not in seen)
    seen.update(new)
    return new


import jsccbounds
from jsccbounds import cli

stages = [stage()]
for argv in (["eval", "--fn", "h_b", "--x", "0.11"],
             ["bound", "lower", "--n", "10000", "--rho", "1.2", "--delta", "0.2"],
             ["bound", "region", "--rho", "1.2", "--delta1", "0.08", "--delta2", "0.05",
              "--d1-min", "0.15", "--d1-max", "0.15", "--d1-step", "0.05"],
             ["oracle", "coupling", "--n", "10", "--delta1", "1/5", "--delta2", "1/4"],
             ["oracle", "p2p", "--m", "1", "--n", "2", "--delta", "1/4"],
             ["oracle", "spherical", "--m", "1", "--n", "3", "--weight", "1",
              "--encoder", "000,111"],
             ["oracle", "frontier", "--m", "1", "--n", "3", "--w1", "1", "--w2", "2"],
             ["oracle", "p2p", "--m", "2", "--n", "2", "--delta", "1/4"]):
    assert cli.main(argv) == 0
    stages.append(stage())
import json  # only now, so that no stage counts it

sys.stderr.write(json.dumps(stages))
"""


def test_scalar_commands_start_without_numpy():
    # each command loads the modules it calls, and numpy only on the first
    # array call: not on import, nor for scalar commands, nor for m = 1,
    # whose search, given table and frontier stay in Python integers. The
    # result records are named tuples, so no command loads dataclasses, and
    # only numpy brings in inspect. A CSV table needs no json, and fractions
    # (with decimal) comes only with a rational: here, with oracles
    proc = subprocess.run([sys.executable, "-c", _START_UP], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == [
        ["jsccbounds", "jsccbounds.binary_info", "jsccbounds.cli"],  # import
        [],  # eval
        ["jsccbounds.bounds_core"],  # bound lower
        ["jsccbounds._scalar_opt", "jsccbounds.broadcast_region"],  # bound region
        ["decimal", "fractions", "jsccbounds._orbits", "jsccbounds.oracles"],  # coupling
        [],  # p2p at m = 1
        [],  # spherical at m = 1 with a given table
        [],  # frontier at m = 1
        ["inspect", "numpy"],  # p2p at m = 2
    ]
    assert proc.stdout.endswith("m,n,delta,value,witness\n1,2,1/4,0.25,00;01\n"
                                "m,n,weight,encoder,value\n1,3,1,000;111,0\n"
                                "m,n,w1,w2,d1,d2,d1_exact,d2_exact,encoder_index\n"
                                "1,3,1,2,0,0,0,0,1\n"
                                "m,n,delta,value,witness\n2,2,1/4,0.25,00;01;10;11\n")


def _one_command_per_subcommand():
    """(name, argv, exit code, stdout) for each of the 15 subcommands: the
    first of its commands in the benchmark's frozen cli pool, which has none
    for spherical and frontier."""
    ref = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference"
                      / "cli.json").read_text())
    first = {}
    for op in ref["ops"]:
        argv = op["argv"]
        name = " ".join(argv[:1 + (argv[0] in ("bound", "oracle"))])
        first.setdefault(name, (name, argv, op["returncode"], op["stdout"]))
    first["oracle spherical"] = (
        "oracle spherical",
        ["oracle", "spherical", "--m", "2", "--n", "3", "--weight", "1",
         "--encoder", "000,011,101,110"],
        0, "m,n,weight,encoder,value\n2,3,1,000;011;101;110,1/3\n")
    first["oracle frontier"] = (
        "oracle frontier", ["oracle", "frontier", "--m", "2", "--n", "3", "--w1", "1", "--w2", "2"],
        0, "m,n,w1,w2,d1,d2,d1_exact,d2_exact,encoder_index\n"
           "2,3,1,2,0.166666666667,0.166666666667,1/6,1/6,90\n")
    return sorted(first.values())


@pytest.mark.parametrize("name, argv, code, stdout",
                         [pytest.param(*case, id=case[0].replace(" ", "-"))
                          for case in _one_command_per_subcommand()])
def test_every_handler_runs_in_a_fresh_process(name, argv, code, stdout):
    # in this process every module is loaded already, so only a fresh
    # interpreter shows a handler that forgot to import the module it calls
    proc = subprocess.run([sys.executable, "-m", "jsccbounds.cli"] + argv, capture_output=True)
    assert (proc.returncode, proc.stdout.decode("utf-8")) == (code, stdout), proc.stderr


def test_the_fifteen_subcommands_are_all_run_fresh():
    names = [case[0] for case in _one_command_per_subcommand()]
    assert names == sorted(["eval", "verify"]
                           + ["bound " + b for b in ("lower", "psi", "sum", "gap", "region",
                                                     "gaussian", "erasure")]
                           + ["oracle " + o for o in ("p2p", "spherical", "frontier",
                                                      "binomial", "coupling", "gq-search")])


# ---------- one leaf parser ----------


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _leaf_parsers():
    """{path: parser} for the 15 leaves of the whole parser, by the path
    that reaches each, such as ("bound", "lower")."""
    leaves = {}
    for name, p in _subcommands(cli._build_parser()).items():
        if name in cli._LEAVES:
            leaves.update(((name, leaf), q) for leaf, q in _subcommands(p).items())
        else:
            leaves[(name,)] = p
    return leaves


def _parse(parser, argv, capsys):
    """(the parsed options or the exit code, stdout, stderr) of parser on argv"""
    try:
        parsed = vars(parser.parse_args(argv))
    except SystemExit as exc:
        parsed = exc.code
    cap = capsys.readouterr()
    return parsed, cap.out, cap.err


def test_a_leaf_path_parses_as_the_whole_parser(capsys):
    # argparse reads only the top parser, the group parser and the leaf on a
    # leaf's path, so the parser built for that path alone answers every argv
    # on it as the whole parser does: the same options, or the same output
    # and exit code
    leaves = _leaf_parsers()
    assert sorted(leaves) == sorted(
        [("eval",), ("verify",)] + [(g, leaf) for g in cli._LEAVES for leaf in cli._LEAVES[g]])
    valid = {tuple(name.split()): argv[len(name.split()):]
             for name, argv, _, _ in _one_command_per_subcommand()}
    for path, leaf in leaves.items():
        assert cli._path(list(path) + valid[path]) == path
        tails = [[], ["-h"], ["--nope"], ["extra"], ["--format", "xml"], valid[path],
                 valid[path] + ["extra"]]
        tails += [valid[path] + [a.option_strings[0], "zz"]
                  for a in leaf._actions if a.option_strings and a.nargs != 0]
        for tail in tails:
            argv = list(path) + tail
            assert (_parse(cli._build_parser(path), argv, capsys)
                    == _parse(cli._build_parser(), argv, capsys)), argv


@pytest.mark.parametrize("argv", [
    ["--format", "json", "bound", "lower", "--n", "10", "--rho", "1.2", "--delta", "0.2"],
    ["--help"], [], ["bound", "--help"], ["bound", "lowr"], ["bound"], ["eva"], ["lower"],
])
def test_argv_off_a_leaf_path_gets_the_whole_parser(argv):
    assert cli._path(argv) is None


# ---------- option sweep ----------


# the extreme values each option is set to, one option at a time
_EXTREMES = ["5e-324", "1e-300", repr(0.5 - 2.0 ** -54), "0", "-1", "1", "1/2", "inf", "-inf",
             "nan", "1" + "0" * 21, "1" + "0" * 400, "1/1" + "0" * 400]


def _sweep_bases():
    """One valid argv per leaf, and one per catalog function for eval."""
    bases = [argv for name, argv, _, _ in _one_command_per_subcommand() if name != "eval"]
    for fn in bi._CATALOG:
        flag = cli._FIRST_ARG_FLAG.get(fn)
        bases.append(["eval", "--fn", fn, "--x", "0.2"] + (["--" + flag, "0.1"] if flag else []))
    return bases


def _set(argv, option, value):
    """argv with option set to value (and no other setting of it)"""
    out = []
    skip = False
    for a in argv:
        if skip:
            skip = False
        elif a == option:
            skip = True
        else:
            out.append(a)
    return out + ["%s=%s" % (option, value)]


def _faults(argvs, capsys):
    """(argv, outcome) for each argv whose exit code is not in 0..3, that
    lets an exception out (a traceback on the command line), or that prints
    a NaN at exit 0."""
    bad = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = repr(exc)
        out = capsys.readouterr().out
        if code not in (0, 1, 2, 3) or (code == 0 and "nan" in out.lower()):
            bad.append((argv, code))
    return bad


@pytest.mark.filterwarnings("ignore:.*validity range:UserWarning")
def test_every_option_at_every_extreme_exits_0_to_3(capsys, time_cap):
    # one option at a time at each extreme value, from a valid command of
    # every leaf: an exit code in 0..3, never a traceback, and no NaN printed
    leaves = _leaf_parsers()
    argvs = [_set(base, action.option_strings[0], value)
             for base in _sweep_bases() for action in leaves[cli._path(base)]._actions
             if action.nargs != 0 and action.dest not in ("out", "format")  # -h and flags
             for value in _EXTREMES]
    with time_cap(60.0):
        assert _faults(argvs, capsys) == []


# the integer counts, and the values each pair of them is set to; every call
# these admit finishes (5000 with a budget past 10^21 would admit minutes of
# work, as the budget allows)
_COUNTS = {"--m", "--n", "--k", "--k-max", "--weight", "--w1", "--w2", "--trials", "--seed",
           "--budget"}
_COUNT_VALUES = ["0", "-1", "1", "1" + "0" * 21, "1" + "0" * 400]


@pytest.mark.filterwarnings("ignore:.*validity range:UserWarning")
def test_every_pair_of_count_options_exits_0_to_3(capsys, time_cap):
    # two counts of a leaf at a time, at each pair of values, from the same
    # valid commands: an exit code in 0..3, never a traceback, and no NaN
    leaves = _leaf_parsers()
    argvs = []
    for base in _sweep_bases():
        counts = [a.option_strings[0] for a in leaves[cli._path(base)]._actions
                  if a.option_strings and a.option_strings[0] in _COUNTS]
        for first, second in itertools.combinations(counts, 2):
            argvs += [_set(_set(base, first, v1), second, v2)
                      for v1, v2 in itertools.product(_COUNT_VALUES, repeat=2)]
    assert {a.split("=")[0] for argv in argvs for a in argv[-2:]} == _COUNTS
    with time_cap(30.0):
        assert _faults(argvs, capsys) == []


# ---------- public names ----------


# every public name of the package, by the submodule it was first defined in
_PUBLIC = {
    "binary_info": [
        "DomainError", "NAT_LOG2", "Phi", "R", "beta", "conv", "g", "h_b", "h_b_inv",
        "h_b_prime", "info_fn", "kappa", "mgl_phi", "mgl_phi_deriv", "nu", "phi", "psi",
        "vartheta"],
    "bounds_core": [
        "LowerBoundReport", "SystemParams", "d_asym", "d_asym_deriv", "eta",
        "expected_sphere_floor", "f_factor", "gamma_corr", "gap_lower_bound", "gap_rhs",
        "separation_upper", "sphere_floor", "sphere_floor_at_weight", "sum_distortion_lb",
        "tau_star"],
    "broadcast_region": [
        "BinaryBroadcastParams", "ErasureParams", "GaussianBroadcastParams", "RegionPoint",
        "d1_feasibility_margin", "d2_floor", "d2_floor_slack", "erasure_d2_floor",
        "fp_binary", "g_bec", "g_bsc", "g_spherical_ub", "gaussian_bound",
        "gaussian_d2_floor", "gaussian_fp", "gaussian_gq", "gaussian_rate", "gaussian_rbar",
        "outer_bound_slack", "rbar_binary", "region_trace"],
    "oracles": [
        "ALL_SUITES", "BudgetExceeded", "DEFAULT_BUDGET", "EncoderTable", "ExactValue",
        "FrontierPoint", "ViolationReport", "binomial_gamma_approx", "binomial_gamma_exact",
        "broadcast_frontier", "converse_search_gq", "coupling_distance_exact",
        "encoder_from_index", "p2p_bruteforce", "rbar_grid", "sphere_bruteforce",
        "verify_inequalities"],
}


def test_public_names_are_frozen():
    import importlib

    import jsccbounds

    names = sorted(n for group in _PUBLIC.values() for n in group)
    assert len(names) == 71
    assert sorted(jsccbounds.__all__) == names
    for mod, group in _PUBLIC.items():
        sub = importlib.import_module("jsccbounds." + mod)
        for name in group:
            assert getattr(jsccbounds, name) is getattr(sub, name), name
    star = {}
    exec("from jsccbounds import *", star)
    assert all(star[name] is getattr(jsccbounds, name) for name in names)
    assert set(names) <= set(dir(jsccbounds))
    assert jsccbounds.BudgetExceeded is orc.BudgetExceeded is bi.BudgetExceeded
    assert jsccbounds.DEFAULT_BUDGET is orc.DEFAULT_BUDGET is bi.DEFAULT_BUDGET
    for name in ("no_such_name", "_real"):
        assert not hasattr(jsccbounds, name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        jsccbounds.no_such_name


_FIRST_USE = """
import json
import sys



def submodules():
    return sorted(m for m in sys.modules if m.startswith("jsccbounds."))


import jsccbounds

stages = [submodules()]
jsccbounds.h_b
stages.append(submodules())
from jsccbounds import SystemParams
stages.append(submodules())
sys.stderr.write(json.dumps(stages))
"""


def test_a_public_name_loads_its_submodule_on_first_use():
    proc = subprocess.run([sys.executable, "-c", _FIRST_USE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == [
        [],
        ["jsccbounds.binary_info"],
        ["jsccbounds.binary_info", "jsccbounds.bounds_core"],
    ]
