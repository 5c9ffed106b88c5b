"""The benchmark's span tracer must still bind every entry point it names.

A renamed or removed entry point would otherwise only show up as zeros
in the per-layer benchmark metrics.
"""

import importlib.util
from pathlib import Path

from stochastic_gronwall import kernels

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_entry_point():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = kernels.bem_scalar_batch
    patches, absent = tracer.install(tracer.Tracer("tier-1"))
    try:
        assert kernels.bem_scalar_batch is not original
        assert absent == []
    finally:
        tracer.uninstall(patches)
    assert kernels.bem_scalar_batch is original
