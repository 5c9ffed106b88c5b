#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once in each mode with a few dozen paths and checks
that each metric BENCHMARK.json names is emitted with its unit, that the
end-to-end table also prints failed_fraction, and that a run forced to
fail, by exit code or by a failed report check, is counted in
failed_fraction. Exits 1 on the first mismatch.
"""

import dataclasses
import json
import sys
import time

import run


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def expect_metrics(result, declared):
    for entry in declared:
        got = result["metrics"].get(entry["name"])
        if got is None:
            fail(f"{result['workload']}: metric {entry['name']} missing")
        if got["unit"] != entry["unit"]:
            fail(f"{result['workload']}: {entry['name']} has unit {got['unit']}, "
                 f"declared {entry['unit']}")
        if not isinstance(got["value"], (int, float)):
            fail(f"{result['workload']}: {entry['name']} is not a number")


def check_absent_entry_points():
    """A vanished entry point is reported as absent and the rest still bind."""
    sys.path.insert(0, str(run.SRC))
    import stochastic_gronwall.cli as cli
    import tracer

    original = cli.main
    gone = ("kernels_removed.bem_scalar_batch", "mc.NoSuchSampler.sample_chunk",
            "sde.no_such_function")
    entry_points = (*tracer.ENTRY_POINTS, ("gone", gone, None))
    patches, absent = tracer.install(tracer.Tracer("selftest"), entry_points)
    bound = cli.main is not original
    tracer.uninstall(patches)
    if list(gone) != absent or not bound or cli.main is not original:
        fail(f"absent entry points: got {absent}, cli.main bound={bound}")
    print("ok  missing entry points are reported as absent")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    deadline = time.perf_counter() + 600.0
    tiny = {name: dataclasses.replace(w, size=run.SMALL_SIZE[w.size_flag])
            for name, w in run.WORKLOADS.items()}

    for workload in tiny.values():
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run.run_workload(workload, 7, 0, trace, deadline)
            if not result["correct"]:
                fail(f"{workload.name} trace {trace}: {result['errors']}")
            expect_metrics(result, declared)
            if trace == 0 and "failed_fraction" not in [row[0] for row in result["table"]]:
                fail(f"{workload.name}: failed_fraction not printed")
        print(f"ok  {workload.name}: every declared metric emitted with its unit")

    gl = tiny["apriori-gl"]
    broken = {
        "exit code": dataclasses.replace(gl, args=(*gl.args, "--p", "1.5")),
        "report check": dataclasses.replace(gl, check=lambda report, size: ["forced"]),
    }
    for how, workload in broken.items():
        result = run.run_workload(workload, 7, 0, 0, deadline)
        fraction = {row[0]: row[1] for row in result["table"]}["failed_fraction"]
        if result["correct"] or result["failed"] != result["attempted"] or fraction != 1.0:
            fail(f"a run failed by {how} was not counted: {result['failed']} of "
                 f"{result['attempted']} failed, correct={result['correct']}")
        print(f"ok  a run failed by {how} counts all its samples in failed_fraction")
    check_absent_entry_points()
    print("selftest passed")


if __name__ == "__main__":
    main()
