import argparse
import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import REPORT_SCHEMA, SpoiledStream, check_report, cliff_problem
from stochastic_gronwall.cli import (
    COUNT,
    EXIT_CONFIG,
    EXIT_CONTRACT,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_SOLVER,
    EXIT_VERIFY,
    PAIRS,
    REQUIRED,
    SEED_ENV_VAR,
    _NEGATIVE_NUMBER,
    build_parser,
    main,
)
from stochastic_gronwall import cli, mc
from stochastic_gronwall.mc import SyntheticSupXpSampler
from stochastic_gronwall.streams import CHUNK_SIZE, MAX_CHUNK_VALUES, MAX_WORKERS, StreamPlan

ROOT = Path(__file__).resolve().parents[1]


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

    def test_zero_e_sup_f_bounds_an_overflowing_product_by_zero(self, capsys):
        # the weight product is finite, only its float64 value overflows
        code, out, err = run(capsys, "bound", "--form", "deterministic-G", "--p", "0.5",
                             "--G", "1e308,1e308,1e308", "--e-sup-f", "0")
        assert code == EXIT_OK, err
        assert grab(out, "product_term") == math.inf
        assert grab(out, "bound") == 0.0

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

    def test_overflow_names_the_last_finite_index(self, capsys):
        # the envelope of f = 1, g = 9 is 10^n, beyond float64 from n = 309 on
        ones, nines = ",".join(["1"] * 400), ",".join(["9"] * 400)
        code, _, err = run(capsys, "gronwall", "--f", ones, "--g", nines)
        assert code == EXIT_CONTRACT
        assert "at index 309; it is finite up to n = 308" in err
        code, out, err = run(capsys, "gronwall", "--f", ones, "--g", nines, "--n", "308")
        assert code == EXIT_OK, err
        last = list(csv.DictReader(out.splitlines()))[-1]
        assert last["index"] == "308"
        assert math.isfinite(float(last["envelope"])) and math.isfinite(float(last["closed_form"]))

    def test_long_sequence_is_one_pass(self, capsys, tmp_path):
        # a closed form evaluated afresh for each index is quadratic in the
        # length: about 20 s for these 20,000 rows
        path = tmp_path / "fg.csv"
        path.write_text("f,g\n" + "1,0.0001\n" * 20_000)
        start = time.perf_counter()
        code, _, _ = run(capsys, "gronwall", "--csv", str(path), "--output",
                         str(tmp_path / "out.csv"))
        assert code == EXIT_OK
        assert time.perf_counter() - start < 2.0

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

    @pytest.mark.parametrize("stop", [(), ("--stop-level", "-1")])
    def test_enumerate_zero_steps(self, capsys, stop):
        code, out, _ = run(capsys, "martingale", "enumerate", "--p", "0.5", "--n", "0", *stop)
        assert code == EXIT_OK
        assert out == ("e_sup_p          0\ne_neg_inf        0\nratio            nan\n"
                       "upper            2\nholds            True\n")

    def test_enumerate_over_work_limit_allocates_nothing(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "martingale", "enumerate", "--p", "0.5",
                               "--n", "9223372036854775807")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONTRACT
        assert "over the work limit of 8191 steps" in err
        assert peak < 2**20

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

    def test_simulate_streams_its_rows(self, capsys, tmp_path):
        # from 2^10 to 2^15 rotation steps the peak grows by what the trajectory holds
        # (states, increments and noise terms: 2.5 times the states) and the
        # temporaries of its noise terms, 6 times the growth of the states; a list of every
        # CSV row, built before the first was written, grew it by 21 times
        def peak(steps):
            out_path = tmp_path / f"{steps}.csv"
            tracemalloc.start()
            try:
                code, _, _ = run(capsys, "bem", "simulate", "--problem", "bounded-rotation",
                                 "--h", str(1 / steps), "--T", "1", "--seed", "1",
                                 "--output", str(out_path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
            with out_path.open() as fh:
                assert sum(1 for _ in fh) == steps + 2
            return peak

        growth = peak(2**15) - peak(2**10)
        states_bytes = (2**15 - 2**10) * 2 * 8
        assert growth < 8 * states_bytes, f"peak grew {growth / states_bytes:.1f} times the states"

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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_failed_rotation_path_is_a_solver_failure(self, capsys, monkeypatch, value):
        # a rotation state that is not finite is a failed path, as in verify apriori,
        # and not an overflow of its noise term
        path_stream = StreamPlan.path_stream
        monkeypatch.setattr(StreamPlan, "path_stream",
                            lambda self, i: SpoiledStream(path_stream(self, i), 37, value))
        assert run(capsys, "bem", "simulate", "--problem", "bounded-rotation", "--h", "0.01",
                   "--T", "1", "--h0", "0.25", "--p-list", "0.5") == (
            EXIT_SOLVER, "", "solver failure: step 38 of 100 failed for problem "
            "'bounded-rotation': implicit step gave no finite state\n")

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "linear", "stepsize": 0.1}))
        code, _, err = run(capsys, "bem", "simulate", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "stepsize" in err


# (--h, --h0, --T) that break one step-size rule each, with the message of that rule
# (the linear problem's L is 1)
_BAD_STEP_SIZES = {
    "h-not-positive": ("0", "0.25", "1", "need 0 < h < h0, got h=0.0, h0=0.25"),
    "h-at-h0": ("0.25", "0.25", "1", "need 0 < h < h0, got h=0.25, h0=0.25"),
    "h-at-one": ("1", "2", "1", "step size must be < 1, got 1.0"),
    "T-not-positive": ("0.125", "0.25", "0", "T must be > 0, got 0.0"),
    "T-over-h-overflows": ("5e-324", "0.25", "1e308", "T/h overflows for h=5e-324, T=1e+308"),
    "no-step-fits": ("0.125", "0.25", "0.1", "h=0.125 exceeds the horizon T=0.1 (no steps fit)"),
    "h0-times-L": ("0.125", "0.5", "1", "need 2*h0*L < 1, got 1.0 for problem 'linear'"),
}


@pytest.mark.parametrize("case", list(_BAD_STEP_SIZES))
def test_one_step_size_rule_on_both_code_paths(capsys, case):
    h, h0, horizon, message = _BAD_STEP_SIZES[case]
    common = ["--problem", "linear", "--h0", h0, "--T", horizon, "--seed", "1"]
    results = [run(capsys, "bem", "simulate", *common, "--h", h),
               run(capsys, "verify", "apriori", *common, "--h-grid", h, "--p", "0.5",
                   "--paths", "64")]
    assert results == [(EXIT_CONTRACT, "", f"contract violation: {message}\n")] * 2


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
        # from x0 = 1e5 the exact step fails no path (a Newton solve stopped at an
        # absolute residual of 1e-12 once failed 44 of 64 here)
        out_path = tmp_path / "r.json"
        code, _, err = run(capsys, "verify", "apriori", "--problem", "ginzburg-landau",
                           "--sigma", "0.5", "--x0", "1e5", "--p", "0.5", "--T", "1",
                           "--h0", "0.25", "--h-grid", "0.125,0.015625", "--paths", "64",
                           "--seed", "1", "--output", str(out_path))
        assert code == EXIT_OK, err
        assert [row["n_failures"] for row in load_report(out_path)["rows"]] == [0, 0]

    def test_apriori_at_the_largest_ginzburg_landau_state_fails_no_path(self, capsys, tmp_path):
        # x0 = 5.6e102 is near the largest with x0^3 finite, and sigma = 2e51 near the
        # largest with |g(x0)|^2 finite; 2*h0*L < 1 then keeps sigma*dW of order 1, so
        # y + g(y)dW stays finite and the exact step fails no path, with no warning
        out_path = tmp_path / "r.json"
        code, _, err = run(capsys, "verify", "apriori", "--problem", "ginzburg-landau",
                           "--sigma", "2e51", "--x0", "5.6e102", "--p", "0.5", "--T", "1e-102",
                           "--h0", "1.2e-103", "--h-grid", "1e-103,1.25e-104", "--paths", "4096",
                           "--seed", "1", "--output", str(out_path))
        assert code == EXIT_OK and err == ""
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
                            "--e-sup-f", "3"]),
        ("bound_apriori", ["--form", "apriori", "--p", "0.3", "--L", "1.5", "--T", "2",
                           "--h0", "0.1", "--x0sq", "0.7", "--gx0sq", "0.2"]),
    ])
    def test_bound_stdout_bytes(self, capsys, name, argv):
        code, out, _ = run(capsys, "bound", *argv)
        assert code == EXIT_OK
        assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()

    @pytest.mark.parametrize("name, argv", [
        ("gronwall", ["--f", "1,0.5,2,0.25,3", "--g", "0.1,0.2,0.3,0.4,0.5"]),
        # products of (1 + 1e160) overflow float64 beyond two factors, while the
        # tiny f keeps every closed-form and envelope entry finite
        ("gronwall_large_weights", ["--f", "1e-300,0,0,0", "--g", "1e160,1e160,1e160,1e160"]),
    ])
    def test_gronwall_csv_bytes(self, capsys, tmp_path, name, argv):
        out_path = tmp_path / f"{name}.csv"
        code, _, err = run(capsys, "gronwall", *argv, "--output", str(out_path))
        assert code == EXIT_OK, err
        assert out_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize("name, argv", [
        ("bem_simulate_ginzburg_landau", ["--problem", "ginzburg-landau", "--sigma", "0.5"]),
        ("bem_simulate_bounded_rotation", ["--problem", "bounded-rotation", "--omega", "1.5",
                                           "--kappa", "0.2", "--sigma", "0.4"]),
    ])
    def test_bem_simulate_csv_bytes(self, capsys, tmp_path, name, argv):
        out_path = tmp_path / f"{name}.csv"
        code, _, err = run(capsys, "bem", "simulate", *argv, "--h", "0.0625", "--T", "2",
                           "--seed", "42", "--p-list", "0.25,0.5", "--output", str(out_path))
        assert code == EXIT_OK, err
        assert out_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize("name, sha256", [
        ("bem_simulate_ginzburg_landau",
         "41bbf2e82240acb87990400bfdc7a028fe48e1775fa43645e3fd8be96ae5f79e"),
        ("bem_simulate_bounded_rotation",
         "604b807a9294a0cd9517387c1060d80900293b0dabb46e43ac4b67470a219006"),
    ])
    def test_bem_simulate_csv_lost_only_its_iterations_column(self, name, sha256):
        # these files were pinned with a last column, iterations, that read 1 at every
        # step; with it put back, every byte is the former file's
        lines = (GOLDEN / f"{name}.csv").read_bytes().split(b"\r\n")
        assert lines.pop() == b""
        ends = [b",iterations", b","] + [b",1"] * (len(lines) - 2)
        former = b"".join(line + end + b"\r\n" for line, end in zip(lines, ends))
        assert hashlib.sha256(former).hexdigest() == sha256


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

    @pytest.mark.parametrize("command", sorted(_POSITIVE_FLAG_COMMANDS))
    @pytest.mark.parametrize("workers", [MAX_WORKERS + 1, 100_000])
    def test_workers_over_the_cap_start_no_pool(self, capsys, monkeypatch, command, workers):
        # 409,600,000 samples are 100,000 chunks: uncapped, --workers 100000 would fork
        # 99,999 children
        def refuse(max_workers):
            raise AssertionError(f"a pool of {max_workers} workers was started")

        monkeypatch.setattr(mc, "ProcessPoolExecutor", refuse)
        argv = [*_POSITIVE_FLAG_COMMANDS[command], "--workers", str(workers)]
        if command == "estimate-sup":
            argv[argv.index("--samples") + 1] = "409600000"
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG and out == ""
        assert f"--workers must be at most {MAX_WORKERS}, got {workers}" in err

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
_PAIRS_RULE = "--paths must be even and at least 4, as paths come in antithetic pairs"
_INPUT_CASES = {
    "config-paths-text": ([*_THEOREM, "--seed", "1"], {"paths": "100"}, None,
                          EXIT_CONFIG, "'paths'"),
    "config-odd-apriori-paths": ([*_APRIORI[:-2], "--problem", "ginzburg-landau", "--p", "0.5",
                                  "--seed", "1"], {"paths": 65}, None, EXIT_CONFIG,
                                 _PAIRS_RULE),
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
    # paths come in antithetic pairs, and a standard error needs two pair means
    "odd-apriori-paths": ([*_GL, "--paths", "3"], None, None, EXIT_CONFIG, _PAIRS_RULE),
    "one-apriori-pair": ([*_GL, "--paths", "2"], None, None, EXIT_CONFIG, _PAIRS_RULE),
    "two-apriori-pairs": ([*_GL, "--paths", "4"], None, None, EXIT_OK, ""),
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
    # 8193 values times 4096, as for a synthetic horizon: over the work limit
    "enumerate-over-work-limit": (["martingale", "enumerate", "--p", "0.5", "--n", "8192",
                                   "--stop-level", "-1"], None, None, EXIT_CONTRACT,
                                  "over the work limit of 8191 steps"),
    "deterministic-G-negative-horizon": (["bound", "--form", "deterministic-G", "--p", "0.5",
                                          "--G", "0.1,0.2", "--n", "-1", "--e-sup-f", "1"],
                                         None, None, EXIT_CONTRACT, "horizon n must be >= 0"),
    # 4096 paths times 1e12 + 8 steps: over the work limit before any point is listed
    "apriori-grid-over-work-limit": ([*_APRIORI, "--problem", "linear", "--p", "0.5",
                                      "--seed", "1", "--paths", "4", "--h-grid", "0.125,1e-12"],
                                     None, None, EXIT_CONTRACT, "Brownian increments"),
    # 1e12 steps of one trajectory, and 4096 walks of 1e10 + 1 values: over the work
    # limit before anything is allocated
    "simulate-over-work-limit": (["bem", "simulate", "--problem", "linear", "--h", "1e-12",
                                  "--T", "1", "--seed", "1"], None, None, EXIT_CONTRACT,
                                 "values for one trajectory"),
    "theorem-horizon-over-work-limit": ([*_THEOREM[:-1], "10000000000", "--paths", "2",
                                         "--seed", "1"], None, None, EXIT_CONTRACT,
                                        "values for one chunk"),
    # the walk-coupled system's X_n reaches (2*horizon + 1) * 1.1^horizon, a finite
    # float64 up to horizon 7346; a larger horizon is rejected before any draw
    "theorem-horizon-largest-finite": ([*_THEOREM[:-1], "7346", "--paths", "2", "--seed", "1"],
                                       None, None, EXIT_OK, ""),
    "theorem-horizon-overflows": ([*_THEOREM[:-1], "7347", "--paths", "2", "--seed", "1"],
                                  None, None, EXIT_CONTRACT, "beyond the float64 range"),
    # X_n stays finite, but at p = 0.9 the squared deviations of sup X^p overflow
    # float64 (horizon 4000 still runs)
    **{f"theorem-moments-overflow-workers-{w}": (
        ["verify", "theorem", "--p", "0.9", "--paths", "64", "--horizon", "4500", "--seed", "1",
         "--workers", str(w)], None, None, EXIT_CONTRACT, "overflows float64") for w in (1, 2)},
    "theorem-moments-finite-p-0.9": (["verify", "theorem", "--p", "0.9", "--paths", "64",
                                       "--horizon", "4000", "--seed", "1"], None, None,
                                      EXIT_OK, ""),
    "theorem-horizon-work-limit-overflows": ([*_THEOREM[:-1], "8191", "--paths", "2",
                                              "--seed", "1"], None, None, EXIT_CONTRACT,
                                             "'walk-coupled' at horizon 8191"),
    # T/h is infinite: rejected before the steps are counted
    "simulate-subnormal-step": (["bem", "simulate", "--problem", "linear", "--h", "5e-324",
                                 "--T", "1", "--seed", "1"], None, None, EXIT_CONTRACT,
                                "T/h overflows"),
    "apriori-empty-h-grid": ([*_APRIORI[:-3], "", "--paths", "64", "--problem", "linear",
                              "--p", "0.5", "--seed", "1"], None, None, EXIT_CONTRACT,
                             "contract violation: need at least one step size\n"),
    # the exact Ginzburg-Landau step at both ends of (0, 1): h = 1e-301, and the float
    # below 1 from x0 = 5.6e102, which sigma = 0 and L = 0.2 allow
    "apriori-tiny-step": ([*_APRIORI[:3], "1e-300", "--h0", "0.25", "--h-grid", "1e-301",
                           "--paths", "64", "--problem", "ginzburg-landau", "--p", "0.5",
                           "--seed", "1"], None, None, EXIT_OK, ""),
    "simulate-step-below-one": (["bem", "simulate", "--problem", "ginzburg-landau", "--sigma", "0",
                                 "--L", "0.2", "--x0", "5.6e102", "--h", "0.9999999999999999",
                                 "--h0", "2.4", "--T", "3", "--seed", "1"], None, None,
                                EXIT_OK, ""),
    # 2*h0*L < 1 is the library's rule (L = 1.125 for ginzburg-landau)
    "apriori-h0-too-large": ([*_GL, "--h0", "0.9"], None, None, EXIT_CONTRACT,
                             "need 2*h0*L < 1"),
    "bound-h0-too-large": (["bound", "--form", "apriori", "--p", "0.5", "--L", "1", "--T", "1",
                            "--h0", "0.5", "--x0sq", "1", "--gx0sq", "0"], None, None,
                           EXIT_CONTRACT,
                           "contract violation: need 2*h0*L < 1, got 1.0 for h0=0.5, L=1.0\n"),
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
    # two documents on one stdout would parse as neither; rejected before any work
    **{f"{command}-output-and-csv-on-stdout": (
        [*argv, "--output", "-", "--csv", "-"], None, None, EXIT_CONFIG,
        "config error: --output and --csv cannot both be - (stdout)\n")
       for command, argv in (("theorem", [*_THEOREM, "--seed", "1"]), ("apriori", _GL))},
    # finite states whose sup functional |y|^2 + h|g(y)|^2 (or, for one trajectory,
    # whose noise term) overflows float64: not a solver failure
    "apriori-sup-functional-overflows": (
        ["verify", "apriori", "--problem", "linear", "--lambda", "1", "--sigma", "100",
         "--x0", "1e150", "--p", "0.5", "--T", "0.05", "--h0", "9.9e-5", "--h-grid", "8e-5,1e-5",
         "--paths", "256", "--seed", "1"], None, None, EXIT_CONTRACT, "overflows float64"),
    # at p = 0.99 the sups stay finite, but their squared deviations overflow float64;
    # the advice names only flags that verify apriori takes
    **{f"apriori-moments-overflow-workers-{w}": (
        ["verify", "apriori", "--problem", "linear", "--lambda", "1", "--sigma", "100",
         "--x0", "1e140", "--p", "0.99", "--T", "0.05", "--h0", "9.9e-5", "--h-grid", "8e-5,1e-5",
         "--paths", "256", "--seed", "1", "--workers", str(w)], None, None, EXIT_CONTRACT,
        "overflows float64") for w in (1, 2)},
    "simulate-overflows": (["bem", "simulate", "--problem", "linear", "--lambda", "1", "--sigma",
                            "100", "--x0", "1e150", "--h", "5e-5", "--T", "0.05", "--seed", "32",
                            "--p-list", "0.5"], None, None, EXIT_CONTRACT, "overflows float64"),
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
# Finite values that the closed-form layer rejects (exit 3), each a change to
# one of the valid runs above: a flag the run lacks is added.
_CLOSED_FORM_RUNS = {**{f"bound-{form}": (["bound", "--form", form], flags)
                        for form, flags in _BOUND_FORMS.items()}, **_FLOAT_FLAG_COMMANDS}
for _name, _changes, _fragment in [
    ("bound-apriori", {"--p": "1.5"}, "p must lie in (0,1), got 1.5"),
    ("bound-apriori", {"--L": "-1"}, "L must be >= 0, got -1.0"),
    ("bound-apriori", {"--T": "0"}, "T must be > 0, got 0.0"),
    ("bound-apriori", {"--h0": "0"}, "h0 must be > 0, got 0.0"),
    ("bound-apriori", {"--x0sq": "-1"}, "squared norms must be nonnegative"),
    ("bound-apriori", {"--h0": "0.5", "--L": "1"}, "need 2*h0*L < 1, got 1.0"),
    ("bound-random-G", {"--g-norm": "-1"}, "the weight-product norm must be >= 0"),
    ("bound-random-G", {"--e-sup-f": "-1"}, "e_sup_f must be >= 0, got -1.0"),
    ("bound-deterministic-G", {"--e-sup-f": "-1"}, "e_sup_f must be >= 0, got -1.0"),
    ("bound-deterministic-G", {"--G": "1,-1"}, "weight sequence G must be nonnegative"),
    ("bound-deterministic-G", {"--G": "1,1", "--n": "3"},
     "weight sequence G has length 2, need at least 3"),
    ("bound-holder", {"--p": "0.5", "--nu": "2"}, "need p*nu < 1, got p*nu = 1.0"),
    ("bound-holder", {"--p": "1.5"}, "p must lie in (0,1), got 1.5"),
    ("remark-constants", {"--p": "1.5"}, "p must lie in (0,1), got 1.5"),
    ("enumerate", {"--p": "1.5"}, "p must lie in (0,1), got 1.5"),
    ("enumerate", {"--n": "-1"}, "n must be >= 0, got -1"),
    ("gronwall", {"--f": "1,2,3"}, "sequence g has length 2, need at least 3 for horizon 2"),
    ("gronwall", {"--g": "0,-1"}, "weight sequence g must be nonnegative, entry 1 is -1.0"),
    ("gronwall", {"--n": "-1"}, "index n must be nonnegative, got -1"),
]:
    _command, _flags = _CLOSED_FORM_RUNS[_name]
    _argv = [*_command, *(f"{k}={v}" for k, v in {**_flags, **_changes}.items())]
    _INPUT_CASES[_name + "".join(f"{k}={v}" for k, v in _changes.items())] = (
        _argv, None, None, EXIT_CONTRACT, _fragment)
# random-G takes no horizon: the norm of the weight product carries it
_INPUT_CASES["bound-random-G--n=5"] = (
    ["bound", "--form", "random-G",
     *(f"{k}={v}" for k, v in {**_BOUND_FORMS["random-G"], "--n": "5"}.items())],
    None, None, EXIT_CONFIG, "form 'random-G' does not take --n")


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

    @pytest.mark.parametrize("argv, option, value, expected", [
        (["gronwall", "--g", "0,1"], "--f", "-1,2", EXIT_OK),
        (["bem", "simulate", "--problem", "bounded-rotation", "--h", "0.1", "--T", "0.2"],
         "--x0", "-0.3,-2.0", EXIT_OK),
        (["gronwall", "--g", "0,1"], "--f", "-inf,1", EXIT_CONFIG),
    ])
    def test_spaced_list_acts_like_equals_form(self, capsys, argv, option, value, expected):
        spaced = run(capsys, *argv, option, value)
        assert spaced == run(capsys, *argv, f"{option}={value}")
        assert spaced[0] == expected, spaced[2]

    def test_no_option_looks_like_a_number(self):
        for _, leaf in _leaves(build_parser()):
            for option in leaf._option_string_actions:
                assert not _NEGATIVE_NUMBER.match(option), option


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
        # a message names only options of the command that ran
        (leaf,) = [leaf for path, leaf in _LEAVES if argv[:len(path)] == path]
        assert set(re.findall(r"--[a-z][a-z0-9-]*", err)) <= set(leaf._option_string_actions)


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


def _parser_main_builds(monkeypatch, argv):
    """The parser ``main`` builds for ``argv`` (a help request, which exits)."""
    built = []

    def spy(*args):
        built.append(build_parser(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit):
        main(argv)
    (parser,) = built
    return parser


def _declared(flags):
    """A leaf's flag table with each rule's test, a new function per build, left out."""
    return {key: flag._replace(domain=flag.domain._replace(
        rules=tuple(rule for _, rule in flag.domain.rules))) for key, flag in flags.items()}


class TestParserForOneRun:
    """``main`` builds the zoo's leaves only for a command line that names
    their group; every parser on the way to each leaf is still the one
    ``build_parser()`` builds."""

    def test_top_level_help(self, monkeypatch):
        assert (_parser_main_builds(monkeypatch, ["--help"]).format_help()
                == build_parser().format_help())

    @pytest.mark.parametrize("path", [path for path, _ in _LEAVES], ids=" ".join)
    def test_each_leaf_equals_the_full_parsers(self, monkeypatch, path):
        built, full = _parser_main_builds(monkeypatch, [*path, "--help"]), build_parser()
        for depth, name in enumerate(path):  # the top level, then each group on the way
            assert built.format_help() == full.format_help(), path[:depth]
            built, full = (next(a for a in parser._actions
                                if isinstance(a, argparse._SubParsersAction)).choices[name]
                           for parser in (built, full))
        assert sorted(built._option_string_actions) == sorted(full._option_string_actions)
        assert _declared(built.get_default("flags")) == _declared(full.get_default("flags"))
        assert built.format_help() == full.format_help()


# Values at the edges of float64 and int64, for the generative test below.
_EDGE_FLOATS = ["0", "5e-324", "-5e-324", "1", "-1", "1e154", "1e308", "-1e308",
                str(2**63 - 1)]
_EDGE_INTS = ["0", "1", "-1", str(2**63 - 1)]
# enumerate's longest walk, the first one rejected, and the largest int64
_WALK_EDGES = [str(MAX_CHUNK_VALUES // CHUNK_SIZE - 1), str(MAX_CHUNK_VALUES // CHUNK_SIZE),
               str(2**63 - 1)]
_CLOSED_FORM_LEAVES = [(path, leaf) for path, leaf in _LEAVES if path in (
    ["bound"], ["gronwall"], ["martingale", "remark-constants"], ["martingale", "enumerate"])]


def _edge_value(path, flag):
    """Text of a value of the flag's domain; nothing for a file or text flag."""
    kind = flag.domain.type
    if kind is float:
        return st.sampled_from(_EDGE_FLOATS)
    if kind is int:
        return (st.integers(-1, 64).map(str) | st.sampled_from(_WALK_EDGES)
                if path[-1] == "enumerate" else st.sampled_from(_EDGE_INTS))
    if kind is str:
        return st.nothing()
    return st.lists(st.sampled_from(_EDGE_FLOATS), max_size=4).map(",".join)


@st.composite
def _closed_form_command(draw):
    """A closed-form leaf's path and (option, value) pairs: a form, where the
    leaf has one, then each flag it takes drawn from its domain or omitted."""
    path, leaf = draw(st.sampled_from(_CLOSED_FORM_LEAVES))
    flags = leaf.get_default("flags")
    pairs, keys = [], list(flags)
    selector = next((flag for flag in flags.values() if flag.domain.choices), None)
    if selector is not None:
        choice = draw(st.sampled_from(sorted(selector.domain.choices)))
        pairs, keys = [(selector.option, choice)], list(selector.domain.choices[choice])
    for key in keys:
        value = draw(st.none() | _edge_value(path, flags[key]))
        if value is not None:
            pairs.append((flags[key].option, value))
    return path, pairs


def _run_quietly(argv):
    """(exit code, stdout, stderr) of main(argv) with warnings as errors; an
    argparse exit is its code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestClosedFormLeaves:
    """Any command of the closed-form leaves, built from edge values of each
    flag's domain, ends in a documented exit code, without a warning or a
    traceback, and its value reads the same spaced or after an equals sign."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(command=_closed_form_command())
    @example(command=(["bound"], [("--form", "deterministic-G"), ("--p", "0.5"),
                                  ("--G", "1e308,1e308,1e308"), ("--e-sup-f", "0")]))
    @example(command=(["gronwall"], [("--f", "-1,2"), ("--g", "0,1")]))
    def test_exit_is_documented(self, command):
        path, pairs = command
        spaced = _run_quietly([*path, *(token for pair in pairs for token in pair)])
        assert spaced == _run_quietly([*path, *(f"{option}={value}" for option, value in pairs)])
        code, out, err = spaced
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CONTRACT, EXIT_VERIFY), err
        # enumerate prints a nan ratio for a degenerate walk, as documented
        if code == EXIT_OK and path == ["bound"]:
            assert "nan" not in out


_BEM_SIMULATE = ["bem", "simulate"]
# Values inside the flags' domains besides the edges, so that runs also get past the checks.
_ORDINARY_FLOATS = ["0.5", "0.25", "0.1", "0.01"]
# Path and sample counts: the fewest with a standard error, and one chunk and a short one.
_ORDINARY_COUNTS = ["2", "64", str(CHUNK_SIZE + 1)]
# verify apriori's paths, which come in antithetic pairs: two pairs, and the same chunks.
_ORDINARY_PAIRS = ["4", "64", str(CHUNK_SIZE + 2)]


def _mc_value(flag):
    """Text of an ordinary or an edge value of the flag's domain, as for
    the closed-form leaves; nothing for a file or text flag."""
    values = st.sampled_from(_ORDINARY_FLOATS) | st.sampled_from(_EDGE_FLOATS)
    kind = flag.domain.type
    if kind is float:
        return values
    if kind is int:
        ordinary = (_ORDINARY_COUNTS if flag.domain is COUNT
                    else _ORDINARY_PAIRS if flag.domain is PAIRS else [])
        return st.sampled_from(_EDGE_INTS + ordinary)
    if kind is str:
        return st.nothing()
    return st.lists(values, max_size=4).map(",".join)


@st.composite
def _mc_command(draw, path=_BEM_SIMULATE):
    """A Monte Carlo leaf's (option, value) pairs: a problem where the leaf
    takes one, then each flag that problem and the leaf take, drawn from
    its domain, or omitted where the flag is not required."""
    leaf = next(leaf for leaf_path, leaf in _LEAVES if leaf_path == path)
    flags = dict(leaf.get_default("flags"))
    keys, pairs = list(flags), []
    if "problem" in flags:
        problems = flags.pop("problem").domain.choices
        label = draw(st.sampled_from(sorted(problems)))
        keys = [*problems[label], *(key for key in flags
                                    if not any(key in params for params in problems.values()))]
        pairs = [("--problem", label)]
    for key in keys:
        omitted = st.nothing() if flags[key].default is REQUIRED else st.none()
        value = draw(omitted | _mc_value(flags[key]))
        if value is not None:
            pairs.append((flags[key].option, value))
    return pairs


def _steps(pairs, option="--h"):
    """T/h of the drawn --T and --h, where both are positive, else 0; for
    --h-grid, the sum over its positive entries."""
    given = dict(pairs)
    hs = [float(h) for h in given.get(option, "").split(",") if h and float(h) > 0]
    horizon = float(given.get("--T", 0))
    return sum(horizon / h for h in hs) if horizon > 0 else 0


_ESTIMATES = [["martingale", "estimate-sup"], ["verify", "theorem"], ["verify", "apriori"]]


class TestMonteCarloLeaves:
    """The Monte Carlo leaves, built from edge and ordinary values of each
    flag's domain, end in a documented exit code without a warning or a
    traceback; an exit-0 bem simulate prints its CSV, and an estimate or a
    verify report that completes prints its table."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(pairs=_mc_command())
    @example(pairs=[("--problem", "linear"), ("--h", "1e-8"), ("--T", "1")])
    @example(pairs=[("--problem", "linear"), ("--h", "0.5"), ("--T", "1e154")])
    @example(pairs=[("--problem", "bounded-rotation"), ("--kappa", "1e200"), ("--h", "0.25"),
                    ("--T", "1")])
    @example(pairs=[("--problem", "ginzburg-landau"), ("--sigma", "1e154"), ("--h", "0.25"),
                    ("--T", "1")])
    def test_bem_simulate_exit_is_documented(self, pairs):
        # at most 1,024 steps, or more than any trajectory may take
        assume(not 1024 < _steps(pairs) <= MAX_CHUNK_VALUES)
        code, out, err = _run_quietly([*_BEM_SIMULATE, *(token for pair in pairs for token in pair)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CONTRACT, EXIT_SOLVER), err
        if _steps(pairs) > MAX_CHUNK_VALUES:  # refused, nothing stepped
            assert code in (EXIT_CONFIG, EXIT_CONTRACT), err
        if code == EXIT_OK:
            rows = list(csv.reader(io.StringIO(out)))
            d = len(rows[0]) - 3
            assert rows[0] == ["j", "t", *(f"y{i}" for i in range(d)), "z_increment"]
            assert d == (2 if dict(pairs)["--problem"] == "bounded-rotation" else 1)
            assert rows[1][-1] == "" and all(len(row) == d + 3 for row in rows)
            assert [int(row[0]) for row in rows[1:]] == list(range(len(rows) - 1))
            for row in rows[1:]:
                assert all(math.isfinite(float(v)) for v in row[1:d + 2])
            for row in rows[2:]:
                assert math.isfinite(float(row[-1]))

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(command=st.sampled_from(_ESTIMATES).flatmap(
        lambda path: _mc_command(path).map(lambda pairs: (path, pairs))))
    @example(command=(["martingale", "estimate-sup"], [
        ("--p", "0.5"), ("--samples", str(CHUNK_SIZE + 1)), ("--z", "5e-324")]))
    @example(command=(["verify", "theorem"], [("--p", "0.01"), ("--paths", "2"),
                                              ("--horizon", "0")]))
    @example(command=(["verify", "apriori"], [
        ("--problem", "linear"), ("--x0", "1e154"), ("--sigma", "0.5"), ("--p", "0.5"),
        ("--T", "1"), ("--h0", "0.25"), ("--h-grid", "0.1"), ("--paths", "64"),
        ("--z", "1e308")]))
    @example(command=(["verify", "apriori"], [
        ("--problem", "bounded-rotation"), ("--omega", "1e154"), ("--p", "0.5"), ("--T", "1"),
        ("--h0", "0.5"), ("--h-grid", "0.25,0.01"), ("--paths", "64")]))
    def test_estimates_exit_is_documented(self, command):
        path, pairs = command
        given = dict(pairs)
        # a few paths or samples, and at most 1,024 steps of a grid or more than a
        # chunk may take: at the default count or at 2**63 - 1 a run takes long
        count = given.get("--paths", given.get("--samples"))
        assume(count is not None and int(count) <= CHUNK_SIZE + 1)
        assume(not 1024 < _steps(pairs, "--h-grid") <= MAX_CHUNK_VALUES / CHUNK_SIZE)
        code, out, err = _run_quietly([*path, *(token for pair in pairs for token in pair)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_CONTRACT, EXIT_SOLVER, EXIT_VERIFY), err
        if code not in (EXIT_OK, EXIT_VERIFY):
            return
        lines = [line.split() for line in out.splitlines()]
        if path[0] == "martingale":
            assert code == EXIT_OK
            assert [line[0] for line in lines] == ["mean", "std_error", "ci_halfwidth",
                                                   "reference"]
            assert all(len(line) == 2 and math.isfinite(float(line[1])) for line in lines)
            return
        header, *rows, verdict = lines
        assert verdict == ["all_passed:", str(code == EXIT_OK)]
        assert rows and all(len(row) == len(header) for row in rows)
        for row in rows:
            values = dict(zip(header, row))
            assert values.pop("passed") in ("True", "False")
            values.pop("system", None)  # verify theorem's label
            assert all(math.isfinite(float(v)) for v in values.values()), row


# The other flags of a valid run, for each leaf's file flag. gronwall's
# --csv is the file it reads, so it runs alone.
_FILE_FLAG_RUNS = {
    ("gronwall", "--csv"): [],
    ("gronwall", "--output"): ["--f", "1,2", "--g", "0.1,0.1"],
    ("martingale estimate-sup", "--output"): ["--p", "0.5", "--samples", "64", "--seed", "1"],
    ("bem simulate", "--output"): ["--problem", "linear", "--h", "0.25", "--T", "1",
                                   "--seed", "1"],
    **{("verify theorem", flag): [*_THEOREM[2:], "--paths", "64", "--seed", "1"]
       for flag in ("--output", "--csv")},
    **{("verify apriori", flag): _GL[2:] for flag in ("--output", "--csv")},
}


class TestFileFlags:
    """Every leaf's --output and --csv flag, found by walking the parser:
    a path that cannot be opened is exit 2 with a config error, never a
    traceback, and so is an empty path."""

    def test_every_file_flag_has_a_run(self):
        found = {(" ".join(path), option) for path, leaf in _LEAVES
                 for option in ("--output", "--csv")
                 if any(flag.option == option for flag in leaf.get_default("flags").values())}
        assert found == set(_FILE_FLAG_RUNS)

    @pytest.mark.parametrize("command, option", sorted(_FILE_FLAG_RUNS))
    @pytest.mark.parametrize("target", ["missing-dir", "empty"])
    def test_unopenable_path_is_a_config_error(self, capsys, tmp_path, command, option, target):
        path = str(tmp_path / "missing" / "out") if target == "missing-dir" else ""
        argv = [*command.split(), *_FILE_FLAG_RUNS[command, option], f"{option}={path}"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG, err
        assert err.startswith("config error: cannot ") and f"{path}: " in err
        assert out == ""
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command, option",
                             sorted(key for key in _FILE_FLAG_RUNS if key != ("gronwall", "--csv")))
    def test_a_directory_is_refused_before_the_run(self, capsys, tmp_path, command, option):
        argv = [*command.split(), *_FILE_FLAG_RUNS[command, option], f"{option}={tmp_path}"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_CONFIG, err
        assert f"cannot write {tmp_path}: not a writable file path" in err
        assert out == ""

    def test_a_bad_path_is_refused_before_sampling(self, capsys, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(SyntheticSupXpSampler, "sample_chunk", refuse)
        code, out, err = run(capsys, "verify", "theorem", "--p", "0.5", "--horizon", "2000",
                             "--paths", "4096", "--output", str(tmp_path / "missing" / "r.json"))
        assert (code, out) == (EXIT_CONFIG, ""), err

    @pytest.mark.parametrize("option", ["--output", "--csv"])
    def test_a_run_that_fails_later_leaves_the_file(self, capsys, tmp_path, option):
        target = tmp_path / "kept"
        target.write_bytes(b"old bytes\n")
        code, _, err = run(capsys, *_THEOREM[:-1], "7347", "--paths", "2",
                           option, str(target))
        assert code == EXIT_CONTRACT, err
        assert target.read_bytes() == b"old bytes\n"
        code, _, err = run(capsys, *_THEOREM[:-1], "7347", "--paths", "2",
                           option, str(tmp_path / "new"))
        assert code == EXIT_CONTRACT, err
        assert not (tmp_path / "new").exists()


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
        from stochastic_gronwall.bounds import gronwall_closed_form

        assert val == gronwall_closed_form([0.1, 0.2], [0.3, 0.7])[1]


# Two chunks: at --workers 2 the caller steps chunk 0 and one forked child chunk 1.
_TWO_CHUNKS = ["verify", "apriori", "--problem", "ginzburg-landau", "--sigma", "0.5", "--p", "0.5",
               "--T", "1", "--h0", "0.25", "--h-grid", "0.125,0.015625", "--paths", "8192",
               "--seed", "1"]


class TestPoolChildren:
    def test_childs_contract_violation_exits_as_in_one_process(self, capsys, monkeypatch):
        sample_chunk = mc.BemSupFunctionalSampler.sample_chunk

        def overflow_chunk_1(self, plan, chunk_index, count):
            vals = sample_chunk(self, plan, chunk_index, count)
            if chunk_index == 1:  # finite values whose moments overflow
                vals[0, ::2], vals[0, 1::2] = 1e308, -1e308
            return vals

        monkeypatch.setattr(mc.BemSupFunctionalSampler, "sample_chunk", overflow_chunk_1)
        one, two = (run(capsys, *_TWO_CHUNKS, "--workers", w) for w in ("1", "2"))
        assert one == two
        assert one[:2] == (EXIT_CONTRACT, "")
        assert one[2].startswith("contract violation: chunk 1: the mean or sum")

    def test_killed_child_fails_the_run_without_a_report(self, capsys, monkeypatch, tmp_path,
                                                         deadline):
        sample_chunk = mc.BemSupFunctionalSampler.sample_chunk

        def die_on_chunk_1(self, plan, chunk_index, count):
            if chunk_index == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return sample_chunk(self, plan, chunk_index, count)

        monkeypatch.setattr(mc.BemSupFunctionalSampler, "sample_chunk", die_on_chunk_1)
        report = tmp_path / "report.json"
        pattern = rf"pool child \d+ was killed by signal {int(signal.SIGKILL)} before"
        with pytest.raises(ChildProcessError, match=pattern):
            main([*_TWO_CHUNKS, "--workers", "2", "--output", str(report)])
        assert not report.exists()
        assert capsys.readouterr() == ("", "")

    def test_failed_paths_exit_4_alike_without_files(self, capsys, monkeypatch, tmp_path,
                                                     deadline):
        # no zoo input fails a path, so the run's problem is one whose step can fail
        monkeypatch.setattr(cli, "_build_problem", lambda args: cliff_problem())
        report, table = tmp_path / "report.json", tmp_path / "table.csv"
        argv = ["verify", "apriori", "--problem", "linear", "--p", "0.5", "--T", "1",
                "--h0", "0.25", "--h-grid", "0.125,0.0625,0.03125,0.015625", "--paths", "9000",
                "--seed", "5", "--output", str(report), "--csv", str(table)]
        results = [run(capsys, *argv, "--workers", str(w)) for w in (1, 2, 3)]
        assert results == [(EXIT_SOLVER, "", "solver failure: chunk 0, column 0: 101 of its 2048 "
                                             "pair means are not finite\n")] * 3
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # no child left, running or unreaped

    def test_workers_without_fork_are_a_contract_violation(self, capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert run(capsys, *_TWO_CHUNKS, "--workers", "2") == (
            EXIT_CONTRACT, "", "contract violation: workers > 1 needs os.fork, which this system "
            "lacks; got 2\n")
        assert run(capsys, *_TWO_CHUNKS, "--workers", "1")[0] == 0


# Run in a fresh interpreter: this test process has imported multiprocessing, fractions
# and decimal. No run, the forking --workers 2 one included, loads the stdlib pool stack.
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
    before = set(sys.modules)
    argv = [*runs["two-chunks"], "--workers", "2", "--output", str(out / "two-chunks-2.json")]
    assert main(argv) == 0
    assert set(sys.modules) == before, f"the pool loaded {sorted(set(sys.modules) - before)}"
    argv = ["martingale", "enumerate", "--p", "0.5", "--n", "8191", "--stop-level", "-1"]
    assert main(argv) == 0
loaded = [m for m in ("concurrent.futures", "multiprocessing", "logging", "fractions", "decimal",
                      "dataclasses", "csv") if m in sys.modules]
assert loaded == [], f"these runs loaded {loaded}"
"""


def fresh_interpreter(script, *argv):
    """Run a script in a fresh interpreter with warnings as errors, on this checkout's src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-W", "error", "-c", script, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_no_run_loads_the_pool_stack(tmp_path):
    done = fresh_interpreter(_POOL_STACK_SCRIPT, str(tmp_path))
    assert done.returncode == 0, done.stderr
    one, two = (tmp_path / f"two-chunks-{w}.json" for w in (1, 2))
    assert one.read_bytes() == two.read_bytes()


# Run in a fresh interpreter, which has loaded no numpy: neither importing the CLI nor
# running a closed-form command loads it. A Monte Carlo command run after them does.
_CLOSED_FORM_SCRIPT = """
import contextlib, io, json, sys
import stochastic_gronwall.cli
assert "numpy" not in sys.modules, "import stochastic_gronwall.cli loaded numpy"
from stochastic_gronwall.cli import main

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and --version
            code = exc.code
    assert code == 0, (argv, code)
    assert "numpy" not in sys.modules, f"{argv} loaded numpy"
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["martingale", "estimate-sup", "--p", "0.5", "--samples", "1000"]) == 0
assert "numpy" in sys.modules
"""


def test_closed_form_commands_load_no_numpy(tmp_path):
    fg = tmp_path / "fg.csv"
    fg.write_text("f,g\n1,0.1\n0.5,0.2\n2,0.3\n", encoding="utf-8")
    runs = [
        ["--help"], ["--version"],
        ["bound", "--form", "holder", "--p", "0.25", "--nu", "2"],
        ["bound", "--form", "deterministic-G", "--p", "0.3", "--G", "0.1,0.2,0.7",
         "--e-sup-f", "2.5"],
        # the log-space golden: its product term is the fsum of log1p
        ["bound", "--form", "deterministic-G", "--p", "0.5", "--G", "1e100,1e100,1e100,1e100",
         "--e-sup-f", "2"],
        ["bound", "--form", "random-G", "--p", "0.3", "--nu", "2", "--g-norm", "1.7",
         "--e-sup-f", "3"],
        ["bound", "--form", "apriori", "--p", "0.3", "--L", "1.5", "--T", "2", "--h0", "0.1",
         "--x0sq", "0.7", "--gx0sq", "0.2"],
        ["gronwall", "--f", "1,0.5,2,0.25,3", "--g", "0.1,0.2,0.3,0.4,0.5"],
        ["gronwall", "--csv", str(fg), "--output", str(tmp_path / "envelope.csv")],
        ["martingale", "remark-constants", "--p", "0.5"],
        ["martingale", "enumerate", "--p", "0.5", "--n", "1000"],
        ["martingale", "enumerate", "--p", "0.5", "--n", "1000", "--stop-level", "-1"],
    ]
    done = fresh_interpreter(_CLOSED_FORM_SCRIPT, json.dumps(runs))
    assert done.returncode == 0, done.stderr


# The module entry as `python -m stochastic_gronwall.cli` runs it, under a wrapper whose
# exit hook would write a last line to stderr: the entry ends the process before it runs.
_ENTRY_SCRIPT = """
import atexit, runpy, sys
atexit.register(lambda: print("exit hook ran", file=sys.stderr))
runpy.run_module("stochastic_gronwall.cli", run_name="__main__", alter_sys=True)
"""
_ENTRY_CASES = {
    "gl": (_GL, EXIT_OK),
    "horizon-overflows": ([*_THEOREM[:-1], "7347", "--paths", "2", "--seed", "1"], EXIT_CONTRACT),
}


@pytest.mark.parametrize("case", sorted(_ENTRY_CASES))
def test_module_entry_equals_main_and_skips_exit_hooks(capsys, tmp_path, case):
    argv, expected = _ENTRY_CASES[case]
    report = tmp_path / "report.json"
    argv = [*argv, "--output", str(report)]
    done = fresh_interpreter(_ENTRY_SCRIPT, *argv)
    assert "exit hook ran" not in done.stderr
    entry_report = report.read_bytes() if report.exists() else None
    report.unlink(missing_ok=True)
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
    assert done.returncode == expected, done.stderr
    assert entry_report == (report.read_bytes() if report.exists() else None)
    assert (entry_report is not None) == (expected == EXIT_OK)


def test_console_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    module, _, entry = project["scripts"]["sgronwall"].partition(":")
    assert module == "stochastic_gronwall.cli"
    tree = ast.parse((ROOT / "src" / "stochastic_gronwall" / "cli.py").read_text(encoding="utf-8"))
    (block,) = [stmt for stmt in tree.body if isinstance(stmt, ast.If)
                and ast.unparse(stmt.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"sys.exit({entry}())"]


_THEOREM_RUN = [*_THEOREM, "--paths", "200", "--seed", "1"]
_SUP_RUN = ["martingale", "estimate-sup", "--p", "0.5", "--samples", "2000", "--seed", "1"]
# Commands whose reader closes stdout early, with the lines it reads first. A
# trajectory's CSV fills the pipe; verify theorem's few lines leave in one write at
# exit, so its reader closes stdout before the run starts.
_CLOSED_STDOUT_CASES = {
    "bem-simulate": (["bem", "simulate", "--problem", "linear", "--sigma", "0.5",
                      "--h", "0.0001", "--T", "1", "--seed", "1"], 1),
    "verify-theorem": (_THEOREM_RUN, 0),
}


@pytest.mark.parametrize("case", sorted(_CLOSED_STDOUT_CASES))
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_ends_the_run_quietly(case, unbuffered):
    # as in `sgronwall ... | head -1`: EXIT_PIPE, with no traceback and no
    # "Exception ignored" line at interpreter exit. A buffered stdout fails when it
    # is flushed, an unbuffered one ($PYTHONUNBUFFERED) at the first write.
    argv, lines = _CLOSED_STDOUT_CASES[case]
    read, write = os.pipe()
    if not lines:
        os.close(read)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered}
    with subprocess.Popen([sys.executable, "-m", "stochastic_gronwall.cli", *argv],
                          stdout=write, stderr=subprocess.PIPE, env=env) as proc:
        os.close(write)
        if lines:
            with open(read, "rb") as pipe:
                assert pipe.readline() == b"j,t,y0,z_increment\r\n"
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (EXIT_PIPE, b"")


def test_every_exit_code_is_documented():
    codes = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    epilog = build_parser().epilog
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    listed = readme[readme.index("Exit codes: "):].partition(".")[0]
    assert len(codes) == 6
    for name, value in codes.items():
        assert f"\n  {value}  " in epilog, name
        assert f" {value} " in f" {listed} ", name


@pytest.mark.parametrize("argv, option", [
    (_THEOREM_RUN, "--output"), (_THEOREM_RUN, "--csv"), (_GL, "--output"), (_GL, "--csv"),
    (_SUP_RUN, "--output"),
], ids=["theorem-output", "theorem-csv", "apriori-output", "apriori-csv", "estimate-sup-output"])
def test_a_document_on_stdout_is_all_of_stdout(capsys, tmp_path, argv, option):
    # the lines a run prints for people move to stderr, so that stdout parses
    path = tmp_path / "document"
    code, lines, err = run(capsys, *argv, option, str(path))
    assert (code, err) == (EXIT_OK, "")
    code, out, err = run(capsys, *argv, option, "-")
    assert (code, out, err) == (EXIT_OK, path.read_bytes().decode(), lines)
    if option == "--output":
        check_report(json.loads(out))
