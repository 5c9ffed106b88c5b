import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import REPORT_SCHEMA, check_report
from stochastic_gronwall.cli import (
    EXIT_CONFIG,
    EXIT_CONTRACT,
    EXIT_OK,
    SEED_ENV_VAR,
    build_parser,
    main,
)


def load_report(path) -> dict:
    """The report a test wrote, checked against its schema."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    check_report(payload)
    return payload


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out, key):
    for line in out.splitlines():
        if line.startswith(key):
            return float(line.split()[-1])
    raise AssertionError(f"{key} not found in output:\n{out}")


class TestBoundCommand:
    def test_deterministic_g_zero_weights(self, capsys):
        code, out, _ = run(capsys, "bound", "--form", "deterministic-G",
                           "--p", "0.5", "--G", "0,0,0", "--e-sup-f", "1")
        assert code == EXIT_OK
        assert grab(out, "bound") == 3.0

    def test_apriori_reference(self, capsys):
        code, out, _ = run(capsys, "bound", "--form", "apriori", "--p", "0.5",
                           "--L", "1", "--T", "1", "--h0", "0.25",
                           "--x0sq", "1", "--gx0sq", "0")
        assert code == EXIT_OK
        assert grab(out, "bound") == pytest.approx(3 * math.exp(2) * math.sqrt(5), rel=1e-12)

    def test_holder(self, capsys):
        code, out, _ = run(capsys, "bound", "--form", "holder", "--p", "0.25", "--nu", "2")
        assert code == EXIT_OK
        assert grab(out, "bound") == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_random_g(self, capsys):
        code, out, _ = run(capsys, "bound", "--form", "random-G", "--p", "0.25",
                           "--nu", "2", "--g-norm", "2", "--e-sup-f", "16")
        assert code == EXIT_OK
        assert grab(out, "bound") == pytest.approx(4 * math.sqrt(3), rel=1e-12)

    def test_apriori_growth_factor_overflow(self, capsys):
        code, out, err = run(capsys, "bound", "--form", "apriori", "--p", "0.5",
                             "--L", "1", "--T", "1000", "--h0", "0.25",
                             "--x0sq", "1", "--gx0sq", "0")
        assert code == EXIT_OK, err
        assert grab(out, "growth_factor") == math.inf
        assert grab(out, "bound") == math.inf

    def test_invalid_params_exit_code(self, capsys):
        code, _, err = run(capsys, "bound", "--form", "holder", "--p", "1.5", "--nu", "1")
        assert code == EXIT_CONTRACT
        assert "p must lie in (0,1)" in err

    def test_missing_flag_is_config_error(self, capsys):
        code, _, err = run(capsys, "bound", "--form", "apriori", "--p", "0.5")
        assert code == EXIT_CONFIG
        assert "--L" in err


class TestGronwallCommand:
    def test_inline_envelope(self, capsys):
        code, out, _ = run(capsys, "gronwall", "--f", "1,1,1", "--g", "1,1,1")
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.splitlines()))
        assert [float(r["envelope"]) for r in rows] == [1.0, 2.0, 4.0]
        assert [float(r["closed_form"]) for r in rows] == [1.0, 2.0, 4.0]

    def test_zero_weights_equal_f(self, capsys):
        code, out, _ = run(capsys, "gronwall", "--f", "2,3,4", "--g", "0,0,0")
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.splitlines()))
        assert [float(r["closed_form"]) for r in rows] == [2.0, 3.0, 4.0]

    def test_negative_weight_file_names_index(self, capsys, tmp_path):
        path = tmp_path / "fg.csv"
        path.write_text("f,g\n1.0,0.5\n1.0,-0.25\n1.0,0.5\n")
        code, _, err = run(capsys, "gronwall", "--csv", str(path))
        assert code == EXIT_CONTRACT
        assert "entry 1" in err

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "out.csv"
        code, _, _ = run(capsys, "gronwall", "--f", "1,1", "--g", "1,1",
                         "--output", str(out_path))
        assert code == EXIT_OK
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert [float(r["envelope"]) for r in rows] == [1.0, 2.0]


class TestMartingaleCommand:
    def test_remark_constants(self, capsys):
        code, out, _ = run(capsys, "martingale", "remark-constants", "--p", "0.5")
        assert code == EXIT_OK
        assert grab(out, "lower") == pytest.approx(math.pi / 2, rel=1e-12)
        assert grab(out, "upper") == 2.0
        assert grab(out, "ratio") == pytest.approx(4 / math.pi, rel=1e-12)

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "martingale", "enumerate", "--p", "0.5", "--n", "2")
        assert code == EXIT_OK
        assert grab(out, "e_sup_p") == pytest.approx((math.sqrt(2) + 1) / 4, rel=1e-14)
        assert "holds            True" in out

    def test_estimate_sup_report(self, capsys, tmp_path):
        out_path = tmp_path / "est.json"
        code, out, _ = run(capsys, "martingale", "estimate-sup", "--p", "0.5",
                           "--samples", "20000", "--seed", "5",
                           "--output", str(out_path))
        assert code == EXIT_OK
        payload = load_report(out_path)
        assert payload["inputs"]["master_seed"] == 5
        assert payload["estimate"]["n_samples"] == 20000


class TestBemCommand:
    def test_simulate_linear_decay(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "bem", "simulate", "--problem", "linear",
                         "--lambda", "1", "--sigma", "0", "--h", "0.1",
                         "--T", "1", "--seed", "1", "--output", str(out_path))
        assert code == EXIT_OK
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert len(rows) == 11
        for j, row in enumerate(rows):
            assert float(row["y0"]) == pytest.approx(1.1 ** (-j), abs=1e-12)

    def test_simulate_respects_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "linear", "lam": 1.0, "sigma": 0.0,
                                   "h": 0.1, "T": 1.0, "seed": 1}))
        out_path = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "bem", "simulate", "--config", str(cfg),
                         "--output", str(out_path))
        assert code == EXIT_OK
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        assert float(rows[1]["y0"]) == pytest.approx(1 / 1.1, abs=1e-12)

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "linear", "stepsize": 0.1}))
        code, _, err = run(capsys, "bem", "simulate", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "stepsize" in err


class TestVerifyCommand:
    def test_theorem_small(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "theorem", "--p", "0.5",
                           "--paths", "2000", "--horizon", "6", "--seed", "3",
                           "--output", str(out_path))
        assert code == EXIT_OK
        assert "all_passed: True" in out
        payload = load_report(out_path)
        assert payload["all_passed"] is True
        assert len(payload["rows"]) == 3

    def test_apriori_small_and_reproducible(self, capsys, tmp_path):
        args = ["verify", "apriori", "--problem", "ginzburg-landau",
                "--sigma", "0.5", "--p", "0.5", "--T", "1", "--h0", "0.25",
                "--h-grid", "0.125,0.015625", "--paths", "1000", "--seed", "42"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        code1, _, _ = run(capsys, *args, "--output", str(first))
        code2, _, _ = run(capsys, *args, "--output", str(second), "--workers", "4")
        assert code1 == code2 == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        payload = load_report(first)
        assert payload["inputs"]["master_seed"] == 42
        assert payload["all_passed"] is True

    @pytest.mark.parametrize("argv", [
        ["verify", "theorem", "--p", "0.5", "--paths", "9000", "--seed", "8"],
        ["martingale", "estimate-sup", "--p", "0.5", "--samples", "9000", "--seed", "8"],
        ["verify", "apriori", "--problem", "bounded-rotation", "--kappa", "0.2", "--p", "0.5",
         "--T", "1", "--h0", "0.25", "--h-grid", "0.125,0.015625", "--paths", "9000",
         "--seed", "8"],
    ], ids=["theorem", "estimate-sup", "rotation"])
    def test_reports_identical_across_workers(self, capsys, tmp_path, argv):
        # 9000 samples are three chunks, the last one short
        reports = []
        for workers in ("1", "2", "3"):
            out_path = tmp_path / f"w{workers}.json"
            code, _, err = run(capsys, *argv, "--workers", workers, "--output", str(out_path))
            assert code == EXIT_OK, err
            load_report(out_path)
            reports.append(out_path.read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_apriori_infinite_bound_reported(self, capsys, tmp_path):
        # L = 1, h0 = 0.45: the growth factor exp(0.5 * 10 * 2 * 100) overflows
        out_path = tmp_path / "r.json"
        code, out, err = run(capsys, "verify", "apriori", "--problem", "linear", "--sigma", "0.5",
                             "--p", "0.5", "--T", "100", "--h0", "0.45", "--h-grid", "0.4",
                             "--paths", "8", "--seed", "1", "--output", str(out_path))
        assert code == EXIT_OK, err
        payload = load_report(out_path)
        assert payload["bound"] == payload["bound_parts"]["growth_factor"] == math.inf
        assert payload["all_passed"] is True

    def test_apriori_from_a_large_state(self, capsys, tmp_path):
        # from x0 = 1e5 rounding keeps the step's residual above 1e-12; Newton
        # stops on its rounding-level update instead of failing 44 of 64 paths
        out_path = tmp_path / "r.json"
        code, _, err = run(capsys, "verify", "apriori", "--problem", "ginzburg-landau",
                           "--sigma", "0.5", "--x0", "1e5", "--p", "0.5", "--T", "1",
                           "--h0", "0.25", "--h-grid", "0.125,0.015625", "--paths", "64",
                           "--seed", "1", "--output", str(out_path))
        assert code == EXIT_OK, err
        assert [row["n_failures"] for row in load_report(out_path)["rows"]] == [0, 0]

    def test_non_nested_grid_report(self, capsys, tmp_path):
        # 0.25 is no multiple of the float 0.03: both rows come from one draw on
        # the union of the two grids, every path in each, at any worker count
        argv = ["verify", "apriori", "--problem", "ginzburg-landau", "--sigma", "0.5",
                "--p", "0.5", "--T", "1", "--h0", "0.3", "--h-grid", "0.25,0.03",
                "--paths", "9000", "--seed", "8"]
        reports = []
        for workers in ("1", "2", "3"):
            out_path = tmp_path / f"w{workers}.json"
            code, _, err = run(capsys, *argv, "--workers", workers, "--output", str(out_path))
            assert code == EXIT_OK, err
            reports.append(out_path.read_bytes())
        assert reports[0] == reports[1] == reports[2]
        rows = load_report(tmp_path / "w1.json")["rows"]
        assert [(row["h"], row["n_steps"], row["n_samples"]) for row in rows] == [
            (0.25, 4, 9000), (0.03, 33, 9000)]

    @pytest.mark.filterwarnings("error")
    def test_apriori_from_a_huge_state_without_overflow(self, capsys, tmp_path):
        # |x0|^2 = 1e308 is finite, L*(1+|x0|^2) is not: the coercivity check
        # runs divided by 1+|x|^2, with no overflow warning
        out_path = tmp_path / "r.json"
        code, _, err = run(capsys, "verify", "apriori", "--problem", "linear", "--lambda", "2",
                           "--x0", "1e154", "--T", "1", "--h0", "0.2",
                           "--h-grid", "0.125,0.015625", "--paths", "64", "--p", "0.5",
                           "--seed", "1", "--output", str(out_path))
        assert code == EXIT_OK, err
        assert err == ""
        assert load_report(out_path)["all_passed"] is True

    def test_csv_mirror(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "verify", "theorem", "--p", "0.5",
                         "--paths", "500", "--horizon", "4", "--seed", "0",
                         "--csv", str(csv_path))
        assert code == EXIT_OK
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert {r["system"] for r in rows} == {"constant", "walk", "walk-coupled"}
        assert all(r["passed"] == "True" for r in rows)

    def test_bad_p_is_config_error(self, capsys):
        code, _, err = run(capsys, "verify", "theorem", "--p", "1.5",
                           "--paths", "100", "--seed", "0")
        assert code == EXIT_CONFIG
        assert "(0,1)" in err

    def test_env_seed_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "77")
        out_path = tmp_path / "r.json"
        code, _, _ = run(capsys, "verify", "theorem", "--p", "0.5",
                         "--paths", "500", "--horizon", "4",
                         "--output", str(out_path))
        assert code == EXIT_OK
        assert load_report(out_path)["inputs"]["master_seed"] == 77

    def test_unknown_system(self, capsys):
        code, _, err = run(capsys, "verify", "theorem", "--p", "0.5",
                           "--paths", "100", "--seed", "0", "--systems", "bogus")
        assert code == EXIT_CONFIG
        assert "bogus" in err


GOLDEN = Path(__file__).parent / "golden"
APRIORI_GRID = ["verify", "apriori", "--sigma", "0.5", "--p", "0.5", "--T", "1",
                "--h0", "0.25", "--h-grid", "0.125,0.0625,0.03125,0.015625",
                "--paths", "512", "--seed", "42"]
THEOREM_ARGV = ["verify", "theorem", "--p", "0.5", "--paths", "512", "--seed", "42"]


class TestGoldenReports:
    """Seeded apriori, theorem and estimate-sup reports pinned byte for byte,
    and the stdout table and ``--csv`` file of the two verify commands.

    Regenerate a file only for an intended change of results, with the
    command in the test's argv and ``--output tests/golden/<name>`` (or
    ``--csv``, with stdout redirected to the ``_table.txt`` file).
    """

    @pytest.mark.parametrize("name, problem_args", [
        ("apriori_ginzburg_landau.json", ["--problem", "ginzburg-landau"]),
        ("apriori_linear.json", ["--problem", "linear", "--lambda", "1"]),
        ("apriori_bounded_rotation.json", ["--problem", "bounded-rotation"]),
    ])
    def test_report_bytes(self, capsys, tmp_path, name, problem_args):
        out_path = tmp_path / name
        code, _, _ = run(capsys, *APRIORI_GRID, *problem_args, "--output", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_bytes() == (GOLDEN / name).read_bytes()

    def test_theorem_report_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "theorem_synthetic.json"
        code, _, _ = run(capsys, *THEOREM_ARGV, "--output", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_bytes() == (GOLDEN / "theorem_synthetic.json").read_bytes()

    @pytest.mark.parametrize("name, argv", [
        ("apriori_ginzburg_landau", [*APRIORI_GRID, "--problem", "ginzburg-landau"]),
        ("theorem_synthetic", THEOREM_ARGV),
    ])
    def test_table_and_csv_bytes(self, capsys, tmp_path, name, argv):
        csv_path = tmp_path / f"{name}.csv"
        code, out, _ = run(capsys, *argv, "--csv", str(csv_path))
        assert code == EXIT_OK
        assert out.encode() == (GOLDEN / f"{name}_table.txt").read_bytes()
        assert csv_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()

    def test_estimate_sup_report_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "sup_estimate.json"
        code, _, _ = run(capsys, "martingale", "estimate-sup", "--p", "0.5", "--samples", "20000",
                         "--seed", "42", "--output", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_bytes() == (GOLDEN / "sup_estimate.json").read_bytes()

    @pytest.mark.parametrize("name, argv", [
        ("bound_holder", ["--form", "holder", "--p", "0.25", "--nu", "2"]),
        ("bound_deterministic_G", ["--form", "deterministic-G", "--p", "0.3",
                                   "--G", "0.1,0.2,0.7", "--e-sup-f", "2.5"]),
        # (1 + 1e100)^4 passes OVERFLOW_GUARD: the product term comes from log space
        ("bound_deterministic_G_log_space", ["--form", "deterministic-G", "--p", "0.5",
                                             "--G", "1e100,1e100,1e100,1e100",
                                             "--e-sup-f", "2"]),
        ("bound_random_G", ["--form", "random-G", "--p", "0.3", "--nu", "2", "--g-norm", "1.7",
                            "--e-sup-f", "3", "--n", "5"]),
        ("bound_apriori", ["--form", "apriori", "--p", "0.3", "--L", "1.5", "--T", "2",
                           "--h0", "0.1", "--x0sq", "0.7", "--gx0sq", "0.2"]),
    ])
    def test_bound_stdout_bytes(self, capsys, name, argv):
        code, out, _ = run(capsys, "bound", *argv)
        assert code == EXIT_OK
        assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()

    @pytest.mark.parametrize("name, argv", [
        ("gronwall", ["--f", "1,0.5,2,0.25,3", "--g", "0.1,0.2,0.3,0.4,0.5"]),
        # products of (1 + 1e160) pass OVERFLOW_GUARD in the closed form, while
        # the tiny f keeps every envelope entry finite
        ("gronwall_large_weights", ["--f", "1e-300,0,0,0", "--g", "1e160,1e160,1e160,1e160"]),
    ])
    def test_gronwall_csv_bytes(self, capsys, tmp_path, name, argv):
        out_path = tmp_path / f"{name}.csv"
        code, _, err = run(capsys, "gronwall", *argv, "--output", str(out_path))
        assert code == EXIT_OK, err
        assert out_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


# Every command that takes --workers and --z, with enough flags to run.
_POSITIVE_FLAG_COMMANDS = {
    "estimate-sup": ["martingale", "estimate-sup", "--p", "0.5", "--samples", "2000",
                     "--seed", "1"],
    "theorem": ["verify", "theorem", "--p", "0.5", "--paths", "200", "--horizon", "3",
                "--seed", "1"],
    "apriori": ["verify", "apriori", "--problem", "linear", "--p", "0.5", "--T", "1",
                "--h0", "0.25", "--h-grid", "0.125,0.015625", "--paths", "64",
                "--seed", "1"],
}


class TestPositiveFlags:
    @pytest.mark.parametrize("command", sorted(_POSITIVE_FLAG_COMMANDS))
    @pytest.mark.parametrize("flags, expected", [
        ((), EXIT_OK),
        (("--workers", "1", "--z", "2.5"), EXIT_OK),
        (("--workers", "0"), EXIT_CONFIG),
        (("--workers", "-1"), EXIT_CONFIG),
        (("--z", "0"), EXIT_CONFIG),
        (("--z", "-1.96"), EXIT_CONFIG),
        (("--z", "nan"), EXIT_CONFIG),
        (("--workers", "0", "--z", "0"), EXIT_CONFIG),
    ])
    def test_exit_code(self, capsys, command, flags, expected):
        code, _, err = run(capsys, *_POSITIVE_FLAG_COMMANDS[command], *flags)
        assert code == expected, err
        if expected == EXIT_CONFIG:
            assert "must be a positive" in err

    def test_zero_from_config_file_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 0}))
        code, _, err = run(capsys, *_POSITIVE_FLAG_COMMANDS["theorem"], "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "--workers" in err

    def test_explicit_z_reaches_report(self, capsys, tmp_path):
        out_path = tmp_path / "est.json"
        code, _, _ = run(capsys, *_POSITIVE_FLAG_COMMANDS["estimate-sup"], "--z", "3",
                         "--output", str(out_path))
        assert code == EXIT_OK
        est = load_report(out_path)["estimate"]
        assert est["z_value"] == 3.0
        assert est["ci_halfwidth"] == 3.0 * est["std_error"]


# Outside input that is out of range or of the wrong type: argv, config
# file contents (or None), $SGRONWALL_SEED (or None), exit code, and a
# fragment the error message must contain.
_THEOREM = ["verify", "theorem", "--p", "0.5", "--horizon", "3"]
_APRIORI = ["verify", "apriori", "--T", "1", "--h0", "0.25", "--h-grid", "0.125,0.015625",
            "--paths", "64"]
_GL = [*_APRIORI, "--problem", "ginzburg-landau", "--p", "0.5", "--seed", "1"]
_INPUT_CASES = {
    "config-paths-text": ([*_THEOREM, "--seed", "1"], {"paths": "100"}, None,
                          EXIT_CONFIG, "'paths'"),
    "config-p-text": ([*_APRIORI, "--problem", "ginzburg-landau", "--seed", "1"],
                      {"p": "0.5"}, None, EXIT_CONFIG, "'p'"),
    "config-sigma-text": (_GL, {"sigma": "0.5"}, None, EXIT_CONFIG, "'sigma'"),
    "config-sigma-number": (_GL, {"sigma": 0.5}, None, EXIT_OK, ""),
    "config-seed-bool": ([*_THEOREM, "--paths", "200"], {"seed": True}, None,
                         EXIT_CONFIG, "'seed'"),
    "config-output-number": ([*_THEOREM, "--paths", "200", "--seed", "1"], {"output": 5},
                             None, EXIT_CONFIG, "'output'"),
    "config-x0-text": ([*_APRIORI, "--problem", "bounded-rotation", "--p", "0.5",
                        "--seed", "1"], {"x0": "1,0"}, None, EXIT_OK, ""),
    "foreign-problem-flags": ([*_GL, "--omega", "7", "--lambda", "3"], None, None,
                              EXIT_CONFIG, "does not take --lambda, --omega"),
    "foreign-problem-key": (_GL, {"kappa": 0.1}, None, EXIT_CONFIG, "does not take --kappa"),
    "x0-length": ([*_GL, "--x0", "1,0"], None, None, EXIT_CONFIG, "--x0"),
    "negative-seed": ([*_THEOREM, "--paths", "200", "--seed", "-1"], None, None,
                      EXIT_CONFIG, "--seed"),
    "seed-too-large": ([*_THEOREM, "--paths", "200", "--seed", str(2**64)], None, None,
                       EXIT_CONFIG, "--seed"),
    "negative-env-seed": ([*_THEOREM, "--paths", "200"], None, "-5",
                          EXIT_CONFIG, SEED_ENV_VAR),
    "one-apriori-path": ([*_GL, "--paths", "1"], None, None, EXIT_CONFIG, "--paths"),
    "one-theorem-path": ([*_THEOREM, "--paths", "1", "--seed", "1"], None, None,
                         EXIT_CONFIG, "--paths"),
    "two-theorem-paths": ([*_THEOREM, "--paths", "2", "--seed", "1"], None, None,
                          EXIT_OK, ""),
    "one-sample": (["martingale", "estimate-sup", "--p", "0.5", "--samples", "1",
                    "--seed", "1"], None, None, EXIT_CONFIG, "--samples"),
    "negative-horizon": ([*_THEOREM[:-1], "-1", "--paths", "100", "--seed", "1"], None, None,
                         EXIT_CONFIG, "--horizon"),
    "zero-horizon": ([*_THEOREM[:-1], "0", "--paths", "100", "--seed", "1"], None, None,
                     EXIT_OK, ""),
    "negative-fail-threshold": ([*_GL, "--fail-threshold", "-1"], None, None, EXIT_CONFIG,
                                "--fail-threshold"),
    "fail-threshold-above-one": ([*_GL, "--fail-threshold", "1.5"], None, None, EXIT_CONFIG,
                                 "--fail-threshold"),
    "fail-threshold-one": ([*_GL, "--fail-threshold", "1"], None, None, EXIT_OK, ""),
    "config-fail-threshold-zero": (_GL, {"fail_threshold": 0}, None, EXIT_OK, ""),
    "estimate-sup-p-above-one": (["martingale", "estimate-sup", "--p", "1.5", "--samples", "100",
                                  "--seed", "1"], None, None, EXIT_CONFIG, "--p"),
    "estimate-sup-p-nan": (["martingale", "estimate-sup", "--p", "nan", "--samples", "100",
                            "--seed", "1"], None, None, EXIT_CONFIG, "--p"),
    "sigma-nan": ([*_APRIORI, "--problem", "linear", "--p", "0.5", "--seed", "1", "--sigma", "nan"],
                  None, None, EXIT_CONFIG, "--sigma must be finite"),
    "config-sigma-nan": (_GL, {"sigma": math.nan}, None, EXIT_CONFIG, "--sigma must be finite"),
    "config-sigma-infinity": (_GL, {"sigma": math.inf}, None, EXIT_CONFIG,
                              "--sigma must be finite"),
    "config-sigma-beyond-float": (_GL, {"sigma": 10**400}, None, EXIT_CONFIG,
                                  "--sigma must be finite"),
    "lambda-infinite": ([*_APRIORI, "--problem", "linear", "--p", "0.5", "--seed", "1",
                         "--lambda", "inf"], None, None, EXIT_CONFIG, "--lambda must be finite"),
    "h-grid-nan": ([*_GL, "--h-grid", "0.125,nan"], None, None, EXIT_CONFIG,
                   "--h-grid must be finite"),
    "estimate-sup-z-infinite": (["martingale", "estimate-sup", "--p", "0.5", "--samples", "1000",
                                 "--seed", "1", "--z", "inf"], None, None, EXIT_CONFIG,
                                "--z must be finite"),
    "theorem-z-infinite": ([*_THEOREM, "--paths", "100", "--seed", "1", "--z", "inf"], None, None,
                           EXIT_CONFIG, "--z must be finite"),
    "simulate-x0-nan": (["bem", "simulate", "--problem", "bounded-rotation", "--x0", "nan,0",
                         "--h", "0.1", "--T", "1", "--seed", "1"], None, None, EXIT_CONFIG,
                        "--x0 must be finite"),
    # |x0|^2 = 1e310 overflows; rejected before any path is sampled
    "apriori-x0-norm-overflow": ([*_APRIORI, "--problem", "linear", "--x0", "1e155", "--p", "0.5",
                                  "--seed", "1"], None, None, EXIT_CONTRACT,
                                 "|x0|^2 and |g(x0)|^2 must be finite"),
    "simulate-x0-norm-overflow": (["bem", "simulate", "--problem", "linear", "--x0", "1e155",
                                   "--h", "0.125", "--T", "1", "--p-list", "0.5", "--seed", "1"],
                                  None, None, EXIT_CONTRACT,
                                  "|x0|^2 and |g(x0)|^2 must be finite"),
    "config-simulate-T-nan": (["bem", "simulate", "--problem", "linear", "--h", "0.1",
                               "--seed", "1"], {"T": math.nan}, None, EXIT_CONFIG,
                              "--T must be finite"),
    "config-problem-unknown": ([*_APRIORI, "--p", "0.5", "--seed", "1"], {"problem": "bogus"},
                               None, EXIT_CONFIG, "--problem must be one of"),
    "config-seed-too-large": ([*_THEOREM, "--paths", "200"], {"seed": 2**64}, None, EXIT_CONFIG,
                              "--seed must lie in"),
    # checked before the n = 0 walk is built, as for any other n
    "enumerate-zero-steps-stop-level": (["martingale", "enumerate", "--p", "0.5", "--n", "0",
                                         "--stop-level", "1"], None, None, EXIT_CONTRACT,
                                        "stop_level must be < 0"),
    "deterministic-G-negative-horizon": (["bound", "--form", "deterministic-G", "--p", "0.5",
                                          "--G", "0.1,0.2", "--n", "-1", "--e-sup-f", "1"],
                                         None, None, EXIT_CONTRACT, "horizon n must be >= 0"),
    # 4096 paths times 1e12 + 8 steps: over the work limit before any point is listed
    "apriori-grid-over-work-limit": ([*_APRIORI, "--problem", "linear", "--p", "0.5",
                                      "--seed", "1", "--paths", "2", "--h-grid", "0.125,1e-12"],
                                     None, None, EXIT_CONTRACT, "Brownian increments"),
    # 1e12 steps of one trajectory, and 4096 walks of 1e10 + 1 values: over the work
    # limit before anything is allocated
    "simulate-over-work-limit": (["bem", "simulate", "--problem", "linear", "--h", "1e-12",
                                  "--T", "1", "--seed", "1"], None, None, EXIT_CONTRACT,
                                 "values for one trajectory"),
    "theorem-horizon-over-work-limit": ([*_THEOREM[:-1], "10000000000", "--paths", "2",
                                         "--seed", "1"], None, None, EXIT_CONTRACT,
                                        "values for one chunk"),
    # T/h is infinite: rejected before the steps are counted
    "simulate-subnormal-step": (["bem", "simulate", "--problem", "linear", "--h", "5e-324",
                                 "--T", "1", "--seed", "1"], None, None, EXIT_CONTRACT,
                                "T/h overflows"),
    # 2*h0*L < 1 is the library's rule (L = 1.125 for ginzburg-landau)
    "apriori-h0-too-large": ([*_GL, "--h0", "0.9"], None, None, EXIT_CONTRACT,
                             "need 2*h0*L < 1"),
    "simulate-h0-too-large": (["bem", "simulate", "--problem", "ginzburg-landau", "--h", "0.1",
                               "--h0", "0.9", "--T", "1", "--seed", "1"], None, None,
                              EXIT_CONTRACT, "need 2*h0*L < 1"),
    "bound-foreign-flags": (["bound", "--form", "apriori", "--p", "0.5", "--L", "1", "--T", "1",
                             "--h0", "0.25", "--x0sq", "1", "--gx0sq", "0",
                             "--nu", "7", "--n", "4"], None, None, EXIT_CONFIG,
                            "form 'apriori' does not take --n, --nu"),
    # rejected before the file is read
    "gronwall-csv-and-inline": (["gronwall", "--csv", "fg.csv", "--f", "9,9", "--g", "9,9"],
                                None, None, EXIT_CONFIG,
                                "provide either --csv or both --f and --g"),
}
# Every float or list flag of each bound form, given as NaN or inf.
_BOUND_FORMS = {
    "holder": {"--p": "0.25", "--nu": "2"},
    "deterministic-G": {"--p": "0.5", "--G": "0,0,0", "--e-sup-f": "1"},
    "random-G": {"--p": "0.25", "--nu": "2", "--g-norm": "2", "--e-sup-f": "16"},
    "apriori": {"--p": "0.5", "--L": "1", "--T": "1", "--h0": "0.25", "--x0sq": "1",
                "--gx0sq": "0"},
}
for _form, _flags in _BOUND_FORMS.items():
    for _flag in _flags:
        for _bad in ("nan", "inf"):
            _argv = ["bound", "--form", _form,
                     *(tok for item in {**_flags, _flag: _bad}.items() for tok in item)]
            _INPUT_CASES[f"bound-{_form}{_flag}-{_bad}"] = (
                _argv, None, None, EXIT_CONFIG, f"{_flag} must be finite")
# Every float or list flag of gronwall and of the martingale actions that
# had no such rows, given as NaN or an infinity.
_FLOAT_FLAG_COMMANDS = {
    "gronwall": (["gronwall"], {"--f": "1,2", "--g": "0,1"}),
    "remark-constants": (["martingale", "remark-constants"], {"--p": "0.5"}),
    "enumerate": (["martingale", "enumerate", "--n", "3"], {"--p": "0.5", "--stop-level": "-1"}),
}
for _name, (_command, _flags) in _FLOAT_FLAG_COMMANDS.items():
    for _flag in _flags:
        for _bad in ("nan", "inf", "-inf"):
            _argv = [*_command, *(f"{k}={v}" for k, v in {**_flags, _flag: _bad}.items())]
            _INPUT_CASES[f"{_name}{_flag}-{_bad}"] = (
                _argv, None, None, EXIT_CONFIG, f"{_flag} must be finite")


class TestNegativeNumbers:
    """A negative number is a flag's value however float() spells it."""

    @pytest.mark.parametrize("value, expected", [
        ("-1e0", EXIT_OK), ("-2.5E-3", EXIT_OK), ("-inf", EXIT_CONFIG), ("-nan", EXIT_CONFIG),
    ])
    def test_spaced_value_acts_like_equals_form(self, capsys, value, expected):
        argv = ["martingale", "enumerate", "--p", "0.5", "--n", "3"]
        spaced = run(capsys, *argv, "--stop-level", value)
        assert spaced == run(capsys, *argv, f"--stop-level={value}")
        code, _, err = spaced
        assert code == expected, err
        if expected == EXIT_CONFIG:
            assert "--stop-level must be finite" in err


class TestInputExitCodes:
    @pytest.mark.parametrize("case", sorted(_INPUT_CASES))
    def test_exit_code(self, capsys, tmp_path, monkeypatch, case):
        argv, config, env_seed, expected, fragment = _INPUT_CASES[case]
        argv = list(argv)
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        if env_seed is not None:
            monkeypatch.setenv(SEED_ENV_VAR, env_seed)
        code, _, err = run(capsys, *argv)
        assert code == expected, err
        assert fragment in err


class TestProblemFlags:
    def test_every_zoo_parameter_has_a_flag(self):
        from stochastic_gronwall.cli import build_parser
        from stochastic_gronwall.sde import zoo_parameters

        names = {name for params in zoo_parameters().values() for name in params}
        parser = build_parser()
        for command in (["bem", "simulate"], ["verify", "apriori"]):
            args = parser.parse_args(command)
            assert names <= set(args.config_flags)
            assert "config" not in args.config_flags


def _leaves(parser, path=()):
    """(argv prefix, parser) of every leaf subcommand under ``parser``."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield list(path), parser
    for group in groups:
        for name, child in group.choices.items():
            yield from _leaves(child, (*path, name))


_LEAVES = list(_leaves(build_parser()))


class TestFlagDomains:
    """Every typed flag of every leaf command is a declared flag with a
    domain, so a flag added later cannot bypass the check."""

    def test_every_leaf_is_walked(self):
        assert sorted(" ".join(path) for path, _ in _LEAVES) == [
            "bem simulate", "bound", "gronwall", "martingale enumerate",
            "martingale estimate-sup", "martingale remark-constants",
            "verify apriori", "verify theorem"]

    @pytest.mark.parametrize("path, leaf", _LEAVES, ids=[" ".join(p) for p, _ in _LEAVES])
    def test_typed_flags_are_declared(self, path, leaf):
        flags = leaf.get_default("flags")
        typed = [a for a in leaf._actions if a.type not in (None, str)]
        assert typed
        for action in typed:
            flag = flags[action.dest]
            assert flag.option in action.option_strings
            assert flag.domain.type is action.type

    @pytest.mark.parametrize("path, leaf", _LEAVES, ids=[" ".join(p) for p, _ in _LEAVES])
    def test_nan_is_a_config_error_naming_the_flag(self, capsys, path, leaf):
        for action in leaf._actions:
            if action.type not in (None, str, int):
                option = action.option_strings[0]
                code, _, err = run(capsys, *path, f"{option}=nan")
                assert code == EXIT_CONFIG, (option, err)
                assert f"{option} must" in err

    @pytest.mark.parametrize("path, leaf", _LEAVES, ids=[" ".join(p) for p, _ in _LEAVES])
    def test_help_states_each_domain(self, path, leaf):
        text = "".join(leaf.format_help().split())
        for flag in leaf.get_default("flags").values():
            assert "".join(flag.help.split()) in text
            for _, rule in flag.domain.rules:
                assert "".join(f"must {rule}".split()) in text


class TestReportSchema:
    """The schema in ``oracles`` accepts every golden report and rejects a
    report with a key missing, added or out of its range."""

    @pytest.mark.parametrize("name", sorted(path.name for path in GOLDEN.glob("*.json")))
    def test_every_golden_matches(self, name):
        assert load_report(GOLDEN / name)["kind"] in REPORT_SCHEMA

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="known kind"):
            check_report({"kind": "mystery"})

    def test_rejects_missing_seed(self):
        report = load_report(GOLDEN / "apriori_linear.json")
        del report["inputs"]["master_seed"]
        with pytest.raises(ValueError, match=r"report\.inputs: keys"):
            check_report(report)

    @pytest.mark.parametrize("path, value, fragment", [
        (("rows", 0, "mean"), math.nan, r"report\.rows\[0\]\.mean"),
        (("rows", 1, "n_samples"), 512.0, r"report\.rows\[1\]\.n_samples"),
        (("rows", 0, "passed"), 1, r"report\.rows\[0\]\.passed"),
        (("bound_parts", "growth_factor"), 0.5, r"report\.bound_parts\.growth_factor"),
        (("inputs", "p"), 1.0, r"report\.inputs\.p"),
        (("inputs", "problem_params", "kappa"), 0.1, "problem_params"),
        (("diagnostics",), {}, r"report: keys"),
    ])
    def test_rejects_a_value_out_of_place(self, path, value, fragment):
        report = load_report(GOLDEN / "apriori_linear.json")
        *parents, key = path
        target = report
        for step in parents:
            target = target[step]
        target[key] = value
        with pytest.raises(ValueError, match=fragment):
            check_report(report)

    def test_roundtrip_revalidates(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        run(capsys, "verify", "theorem", "--p", "0.5", "--paths", "500",
            "--horizon", "4", "--seed", "0", "--output", str(out_path))
        assert len(load_report(out_path)["rows"]) == 3


class TestMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    def test_float_17_digits_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "t.csv"
        run(capsys, "gronwall", "--f", "0.1,0.2", "--g", "0.3,0.7",
            "--output", str(out_path))
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
        # 17 significant digits reparse to the exact same float64
        val = float(rows[1]["closed_form"])
        from stochastic_gronwall.sequences import gronwall_closed_form

        assert val == gronwall_closed_form([0.1, 0.2], [0.3, 0.7], 1)


# Run in a fresh interpreter: this test process has imported multiprocessing.
_POOL_STACK_SCRIPT = """
import contextlib, io, sys
from pathlib import Path
from stochastic_gronwall.cli import main

out = Path(sys.argv[1])
apriori = ["verify", "apriori", "--sigma", "0.5", "--p", "0.5", "--T", "1", "--h0", "0.25",
           "--h-grid", "0.125,0.015625", "--seed", "3"]
runs = {
    "gl": [*apriori, "--problem", "ginzburg-landau", "--paths", "64"],
    "rotation": [*apriori, "--problem", "bounded-rotation", "--paths", "64"],
    "theorem": ["verify", "theorem", "--p", "0.5", "--paths", "200", "--seed", "3"],
    "sup": ["martingale", "estimate-sup", "--p", "0.5", "--samples", "1000", "--seed", "3"],
    "two-chunks": [*apriori, "--problem", "ginzburg-landau", "--paths", "8192"],
}
with contextlib.redirect_stdout(io.StringIO()):
    for name, argv in runs.items():
        assert main([*argv, "--workers", "1", "--output", str(out / f"{name}-1.json")]) == 0, name
    loaded = [m for m in ("concurrent.futures", "multiprocessing", "logging") if m in sys.modules]
    assert loaded == [], f"a --workers 1 run loaded {loaded}"
    argv = [*runs["two-chunks"], "--workers", "2", "--output", str(out / "two-chunks-2.json")]
    assert main(argv) == 0
    assert "concurrent.futures" in sys.modules
"""


def test_single_process_runs_never_load_the_pool_stack(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-W", "error", "-c", _POOL_STACK_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    one, two = (tmp_path / f"two-chunks-{w}.json" for w in (1, 2))
    assert one.read_bytes() == two.read_bytes()
