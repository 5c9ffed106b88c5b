"""The benchmark's span tracer must still bind every entry point it names
and see the process pool.

A renamed or removed entry point would otherwise only show up as zeros
in the per-layer benchmark metrics.
"""

import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

from stochastic_gronwall import cli, kernels

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_finds_every_entry_point():
    tracer = _load_tracer()
    original = kernels.bem_scalar_batch
    patches, absent = tracer.install(tracer.Tracer("tier-1"))
    try:
        assert kernels.bem_scalar_batch is not original
        assert absent == []
    finally:
        tracer.uninstall(patches)
    assert kernels.bem_scalar_batch is original


# Run in a fresh interpreter, where no pool has been used yet: the tracer
# must find mc's pool class, replace it and put it back.
_POOL_SCRIPT = """
import contextlib, importlib.util, io, sys
from stochastic_gronwall import cli, mc

pool_class = mc.ProcessPoolExecutor
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
run = tracer.Tracer("tier-1")
patches, absent = tracer.install(run)
try:
    assert absent == [], absent
    traced = mc.ProcessPoolExecutor
    assert traced.__name__ == "TracedPool", traced
    assert issubclass(traced, pool_class) and traced is not pool_class
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["martingale", "estimate-sup", "--p", "0.5", "--samples", "1000",
                         "--seed", "3", "--workers", "1"]) == 0
finally:
    tracer.uninstall(patches)
assert mc.ProcessPoolExecutor is pool_class
metrics, _ = tracer.layer_metrics(run.spans, 0.0)
assert metrics["mc.pool.startups"] == 0, metrics["mc.pool.startups"]
assert metrics["martingales.sup_exact.samples"] == 1000, metrics["martingales.sup_exact.samples"]
"""


def test_tracer_replaces_and_restores_the_pool_class():
    env = {**os.environ, "PYTHONPATH": str(TRACER.parents[1] / "src")}
    done = subprocess.run([sys.executable, "-W", "error", "-c", _POOL_SCRIPT, str(TRACER)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _run_twice(tracer, argv, reports):
    """The CLI run untraced, then traced; returns the traced run's metrics."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--output", str(reports[0])]) == 0
        run = tracer.Tracer("tier-1")
        patches, absent = tracer.install(run)
        try:
            assert cli.main([*argv, "--output", str(reports[1])]) == 0
        finally:
            tracer.uninstall(patches)
    assert absent == []
    assert reports[0].read_bytes() == reports[1].read_bytes()
    metrics, _ = tracer.layer_metrics(run.spans, 0.0)
    return metrics


def test_traced_pool_run_matches_untraced(tmp_path):
    # two chunks and two h rows at --workers 2: one pool, one child, one task per report
    tracer = _load_tracer()
    argv = ["verify", "apriori", "--problem", "ginzburg-landau", "--sigma", "0.5", "--p", "0.5",
            "--T", "1", "--h0", "0.25", "--h-grid", "0.125,0.015625", "--paths", "8192",
            "--seed", "3", "--workers", "2"]
    metrics = _run_twice(tracer, argv, [tmp_path / "untraced.json", tmp_path / "traced.json"])
    assert metrics["mc.pool.startups"] == 1
    assert metrics["mc.pool.tasks"] == 1
    assert metrics["trace.worker_busy_s"] > 0  # the child's spans reached the tracer
    # the parent's one build: the child inherits the sampler, problem and all
    assert metrics["sde.make_problem.calls"] == 1


def test_traced_rotation_draws_the_finest_grid_once(tmp_path):
    # two chunks and two h rows at --workers 2: every row from one draw per chunk
    tracer = _load_tracer()
    paths, finest_steps = 8192, 64
    argv = ["verify", "apriori", "--problem", "bounded-rotation", "--sigma", "0.5", "--p", "0.5",
            "--T", "1", "--h0", "0.25", "--h-grid", "0.125,0.015625", "--paths", str(paths),
            "--seed", "3", "--workers", "2"]
    metrics = _run_twice(tracer, argv, [tmp_path / "untraced.json", tmp_path / "traced.json"])
    assert metrics["streams.draw.values"] == paths * finest_steps * 2
    assert metrics["mc.sample_chunk.calls"] == 2  # one per chunk
    assert metrics["mc.pool.tasks"] == 1
    assert metrics["kernels.welford_chunk.samples"] == paths * 2  # one column per row
    assert metrics["mc.estimate_expectation.calls"] == 2  # one per row


def test_benchmark_harness_selftest_passes():
    # every metric BENCHMARK.json declares is emitted with its unit, forced failures are
    # counted and absent entry points reported, at tiny sizes
    root = TRACER.parents[1]
    done = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest passed" in done.stdout.splitlines()
