"""The benchmark's span tracer must still bind every entry point it names
and see the process pool.

A renamed or removed entry point would otherwise only show up as zeros
in the per-layer benchmark metrics.
"""

import contextlib
import importlib.util
import io
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


def test_traced_pool_run_matches_untraced(tmp_path, monkeypatch):
    # two chunks and two h rows at --workers 2: one pool, one child, one task per row
    tracer = _load_tracer()
    # the pool pickles the tracer's task function by module name
    monkeypatch.setitem(sys.modules, tracer.__name__, tracer)
    argv = ["verify", "apriori", "--problem", "ginzburg-landau", "--sigma", "0.5", "--p", "0.5",
            "--T", "1", "--h0", "0.25", "--h-grid", "0.125,0.015625", "--paths", "8192",
            "--seed", "3", "--workers", "2"]
    reports = [tmp_path / "untraced.json", tmp_path / "traced.json"]
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
    assert metrics["mc.pool.startups"] == 1
    assert metrics["mc.pool.tasks"] == 2
    assert metrics["trace.worker_busy_s"] > 0  # the child's spans reached the tracer
    assert metrics["sde.make_problem.calls"] == 1  # the child inherits the built problem
