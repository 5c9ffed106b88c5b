#!/usr/bin/env python3
"""Benchmark of the ``sgronwall`` command line on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each of them in
turn. Every workload is a closed loop: one CLI process at a time, the
next started when the previous one has exited, each given the seed from
``--seed`` and an explicit worker count.

With ``--trace 0`` the CLI runs as a child process, repeatedly for
``--seconds`` seconds, and the end-to-end metrics are medians over those
runs: ``wall_s`` (exec to exit), ``samples_per_s``, ``peak_rss_mb`` (the
peak resident sizes of the CLI's process tree, summed) and ``setup_s`` (a
fresh interpreter importing the CLI and building the workload's problem,
run nine times between the CLI runs). A table before the result gives
each metric with its unit, the number of runs, the quartile spread, and
``failed_fraction``. With ``--trace 1`` a child interpreter runs the same
command in-process, untraced and then traced (see ``tracer.py``), and the
metrics are the per-layer ones.

Every report is checked: the a priori runs must pass with zero failed
paths, the supremum estimate must lie within 4 standard errors of
pi*p/sin(pi*p), repeats must be byte-identical, and the two-worker
report must equal the one-worker report byte for byte. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (Monte Carlo samples) and ``metrics``. The exit code is 0
only if every check passed.

Children run in a hermetic environment: PYTHONPATH is the checkout's
``src``, the package's own environment variables are dropped and BLAS
and OpenMP use one thread. Reports, spans and a record of each run with
its machine provenance go to ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import UNITS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

# A child still running this long after the benchmark started is killed,
# so the benchmark always ends within its 180 s allowance.
HARD_LIMIT_S = 170.0
SETUP_REPEATS = 9
RSS_POLL_S = 0.02
# Paths or samples of the unmeasured warm-up run before a traced pair.
SMALL_SIZE = {"--paths": 64, "--samples": 20_000}

APRIORI_ARGS = ("verify", "apriori", "--sigma", "0.5", "--p", "0.5", "--T", "1", "--h0", "0.25",
                "--h-grid", "0.125,0.0625,0.03125,0.015625")
GL_ARGS = (*APRIORI_ARGS, "--problem", "ginzburg-landau")
ROTATION_ARGS = (*APRIORI_ARGS, "--problem", "bounded-rotation")
SUP_ARGS = ("martingale", "estimate-sup", "--p", "0.5")
H_ROWS = 4
BUILD_GL = "sde.make_problem('ginzburg-landau', sigma=0.5)"
BUILD_ROTATION = "sde.make_problem('bounded-rotation', sigma=0.5)"


def check_apriori(report, size):
    errors = []
    if report.get("all_passed") is not True:
        errors.append("all_passed is not true")
    if report.get("h_robust") is not True:
        errors.append("h_robust is not true")
    rows = report.get("rows", [])
    if len(rows) != H_ROWS:
        errors.append(f"expected {H_ROWS} rows, got {len(rows)}")
    for row in rows:
        if row.get("n_failures") != 0:
            errors.append(f"h={row.get('h')}: n_failures={row.get('n_failures')}")
        if row.get("n_samples") != size:
            errors.append(f"h={row.get('h')}: n_samples={row.get('n_samples')}, want {size}")
    return errors


def check_sup(report, size):
    p = report["inputs"]["p"]
    reference = math.pi * p / math.sin(math.pi * p)
    est = report["estimate"]
    errors = []
    if abs(report.get("reference", math.nan) - reference) > 1e-12 * reference:
        errors.append(f"reference {report.get('reference')} != pi*p/sin(pi*p) = {reference}")
    if not abs(est["mean"] - reference) <= 4.0 * est["std_error"]:
        errors.append(f"mean {est['mean']} is more than 4 SE ({est['std_error']}) "
                      f"from {reference}")
    if est.get("n_failures") != 0:
        errors.append(f"n_failures={est.get('n_failures')}")
    if est.get("n_samples") != size:
        errors.append(f"n_samples={est.get('n_samples')}, want {size}")
    return errors


def largest_self_is_kernel(metrics, self_by_span):
    top = max(self_by_span, key=self_by_span.get)
    return f"largest self time is kernels.bem_scalar_batch (it is {top})", \
        top == "kernels.bem_scalar_batch"


def kernel_idle(metrics, self_by_span):
    busy = metrics["kernels.bem_scalar_batch.busy_s"]
    return f"kernels.bem_scalar_batch.busy_s reads 0 (it is {busy})", busy == 0


def pool_startups(expected):
    def prediction(metrics, self_by_span):
        got = metrics["mc.pool.startups"]
        return f"mc.pool.startups is {expected} per report (it is {got})", got == expected
    return prediction


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI arguments without size, seed, workers and output
    size_flag: str
    size: int
    workers: int
    rows: int  # Monte Carlo estimates per report, each of `size` samples
    build: str  # problem built in the set-up measurement, after the import
    check: object  # (report, size) -> list of errors
    predictions: tuple  # (metrics, self_by_span) -> (text, holds)
    same_as_workers: int | None = None  # report must equal this worker count's

    @property
    def samples(self):
        return self.size * self.rows

    def argv(self, seed, workers=None):
        workers = self.workers if workers is None else workers
        return [*self.args, self.size_flag, str(self.size), "--seed", str(seed),
                "--workers", str(workers)]


# apriori-gl runs one 4096-path chunk per step size, so a run is short and
# a measurement holds several. apriori-gl-w2 needs 8192 paths, two chunks,
# the fewest that reach the process pool at --workers 2; its report is
# compared byte for byte with a --workers 1 run of the same size.
WORKLOADS = {w.name: w for w in (
    Workload("apriori-gl", GL_ARGS, "--paths", 4096, 1, H_ROWS, BUILD_GL, check_apriori,
             (largest_self_is_kernel, pool_startups(0))),
    Workload("apriori-gl-w2", GL_ARGS, "--paths", 8192, 2, H_ROWS, BUILD_GL, check_apriori,
             (pool_startups(H_ROWS),), same_as_workers=1),
    Workload("apriori-rotation", ROTATION_ARGS, "--paths", 65536, 1, H_ROWS, BUILD_ROTATION,
             check_apriori, (kernel_idle, pool_startups(0))),
    Workload("sup-estimate", SUP_ARGS, "--samples", 4_000_000, 1, 1, "", check_sup,
             (kernel_idle, pool_startups(0))),
)}


# ---------------------------------------------------------------------------
# Child processes


def hermetic_env():
    """Environment of every child: nothing inherited that changes results."""
    env = {key: os.environ[key] for key in ("PATH", "HOME", "LANG") if key in os.environ}
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "TMPDIR": str(tmp),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
        "BLIS_NUM_THREADS": "1",
    })
    return env


def _tree_hwm_kib(root_pid):
    """Sum of the peak resident sizes of the live processes under root_pid."""
    total, todo = 0, [root_pid]
    while todo:
        pid = todo.pop()
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


@dataclasses.dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv, env, deadline, tag):
    """Run one child in its own session; time it and track its tree's RSS.

    The child and anything it started are killed at ``deadline`` and are
    gone when this returns.
    """
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, start_new_session=True)
    peak = [0]
    done = threading.Event()

    def watch():
        while not done.wait(RSS_POLL_S):
            peak[0] = max(peak[0], _tree_hwm_kib(proc.pid))
            if time.perf_counter() > deadline:
                _kill_group(proc.pid)

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        done.set()
        watcher.join()
        _kill_group(proc.pid)
        _wait_group_gone(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_kib = max(peak[0], usage.ru_maxrss)
    stdout, stderr = out_path.read_text(errors="replace"), err_path.read_text(errors="replace")
    out_path.unlink()
    err_path.unlink()
    return ChildResult(proc.returncode, wall, peak_kib / 1024.0, stdout, stderr)


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _wait_group_gone(pgid, timeout=10.0):
    end = time.perf_counter() + timeout
    while time.perf_counter() < end:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def python_child(args, env, deadline, tag):
    return run_child([sys.executable, *args], env, deadline, tag)


# ---------------------------------------------------------------------------
# Provenance

PROBE = """
import importlib.util, json, numpy, stochastic_gronwall, stochastic_gronwall.cli
print(json.dumps({
    "package_file": stochastic_gronwall.__file__,
    "package_version": getattr(stochastic_gronwall, "__version__", None),
    "numpy": numpy.__version__,
    "numba_importable": importlib.util.find_spec("numba") is not None,
}))
"""


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_provenance():
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    if cache_dir.is_dir():
        for index in sorted(cache_dir.glob("index*")):
            caches.append({"level": _read(index / "level"), "type": _read(index / "type"),
                           "size": _read(index / "size")})
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
    }


# ---------------------------------------------------------------------------
# Measurement


def quartile_spread(values):
    """Distance between first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def read_report(path):
    try:
        raw = Path(path).read_bytes()
        return raw, json.loads(raw)
    except (OSError, ValueError):
        return None, None


def check_run(workload, returncode, stderr, path, expected_bytes):
    """Errors of one CLI run: exit code, report checks, byte identity."""
    if returncode != 0:
        return [f"exit code {returncode}: {stderr.strip()[-300:]}"], None
    raw, report = read_report(path)
    if report is None:
        return ["no readable report"], None
    try:
        errors = workload.check(report, workload.size)
    except (KeyError, TypeError) as exc:
        errors = [f"malformed report: {exc!r}"]
    if expected_bytes is not None and raw != expected_bytes:
        errors.append("report bytes differ from the reference report")
    return errors, raw


class SetupError(Exception):
    """The set-up measurement could not import the package or build the problem."""


def measure_setup(workload, env, deadline, tag):
    """Seconds a fresh interpreter takes to import the CLI and build the problem."""
    build = f"from stochastic_gronwall import sde; {workload.build}" if workload.build else "pass"
    code = ("import time; t = time.perf_counter(); import stochastic_gronwall.cli; "
            f"{build}; print(repr(time.perf_counter() - t))")
    res = python_child(["-c", code], env, deadline, f"{tag}-setup")
    if res.returncode != 0:
        raise SetupError(f"set-up run failed: {res.stderr.strip()[-300:]}")
    return float(res.stdout.strip().splitlines()[-1])


def cli_argv(workload, seed, report, workers=None):
    return ["-m", "stochastic_gronwall.cli", *workload.argv(seed, workers), "--output", str(report)]


def run_end_to_end(workload, seed, seconds, env, deadline, tag):
    errors = []
    expected = None
    if workload.same_as_workers is not None:
        path = OUT / f"{tag}-reference.json"
        res = python_child(cli_argv(workload, seed, path, workload.same_as_workers),
                           env, deadline, f"{tag}-reference")
        ref_errors, expected = check_run(workload, res.returncode, res.stderr, path, None)
        errors += [f"reference run at --workers {workload.same_as_workers}: {e}"
                   for e in ref_errors]
    setup, walls, rss = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    stop = start + seconds
    while not walls or time.perf_counter() < min(stop, deadline):
        # Set-up runs are spread evenly over the measurement, so that their
        # median sees the same machine load as the CLI runs do.
        share = min(1.0, (time.perf_counter() - start) / seconds) if seconds else 1.0
        while len(setup) < max(1, SETUP_REPEATS * share):
            setup.append(measure_setup(workload, env, deadline, tag))
        path = OUT / f"{tag}-rep{len(walls)}.json"
        res = python_child(cli_argv(workload, seed, path), env, deadline,
                           f"{tag}-rep{len(walls)}")
        rep_errors, raw = check_run(workload, res.returncode, res.stderr, path, expected)
        path.unlink(missing_ok=True)
        if expected is None and not rep_errors:
            expected = raw
        errors += [f"rep {len(walls)}: {e}" for e in rep_errors]
        attempted += workload.samples
        failed += workload.samples if rep_errors else 0
        walls.append(res.wall_s)
        rss.append(res.peak_rss_mb)
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(workload, env, deadline, tag))
    wall = statistics.median(walls)
    series = {
        "wall_s": (walls, "s"),
        "samples_per_s": ([workload.samples / w for w in walls], "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    metrics = {name: {"value": statistics.median(vals), "unit": unit}
               for name, (vals, unit) in series.items()}
    metrics["samples_per_s"]["value"] = workload.samples / wall
    table = [(name, metrics[name]["value"], unit, len(vals), quartile_spread(vals))
             for name, (vals, unit) in series.items()]
    table.append(("failed_fraction", failed / attempted, "ratio", len(walls), 0.0))
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors,
            "table": table, "series": series}


def run_traced(workload, seed, seconds, env, deadline, tag):
    errors, good, notes = [], [], []
    attempted = failed = pairs = 0
    tracer = Path(__file__).resolve().parent / "tracer.py"
    warmup = dataclasses.replace(workload, size=SMALL_SIZE[workload.size_flag])
    stop = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < min(stop, deadline):
        pair = f"{tag}-pair{pairs}"
        res = python_child([str(tracer), "--argv", json.dumps(workload.argv(seed)),
                            "--warmup-argv", json.dumps(warmup.argv(seed)),
                            "--out-dir", str(OUT), "--tag", pair,
                            "--run-id", f"{workload.name}:{seed}:{pairs}"],
                           env, deadline, pair)
        pairs += 1
        attempted += 2 * workload.samples
        try:
            out = json.loads(res.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            errors.append(f"{pair}: traced run failed ({res.returncode}): "
                          f"{res.stderr.strip()[-300:]}")
            failed += 2 * workload.samples
            continue
        pair_errors = []
        reports = {}
        for kind in ("untraced", "traced"):
            errs, reports[kind] = check_run(workload, out[f"rc_{kind}"], res.stderr,
                                            out[f"{kind}_report"], None)
            Path(out[f"{kind}_report"]).unlink(missing_ok=True)
            pair_errors += [f"{kind}: {e}" for e in errs]
        if reports["untraced"] != reports["traced"]:
            pair_errors.append("traced report differs from the untraced report")
        m = out["metrics"]
        expected_sum = m["trace.wall_s"] + m["trace.worker_busy_s"]
        if abs(m["trace.self_sum_s"] - expected_sum) > 1e-6 * max(1.0, expected_sum):
            pair_errors.append(f"layer self times sum to {m['trace.self_sum_s']}, "
                               f"not the traced wall plus worker time {expected_sum}")
        errors += [f"{pair}: {e}" for e in pair_errors]
        failed += 2 * workload.samples if pair_errors else 0
        good.append(out)
    if not good:
        return {"metrics": {}, "attempted": attempted, "failed": failed, "errors": errors}
    series = {name: [s["metrics"][name] for s in good] for name in UNITS}
    metrics = {name: {"value": statistics.median(vals), "unit": UNITS[name]}
               for name, vals in series.items()}
    table = [(name, metrics[name]["value"], UNITS[name], len(vals), quartile_spread(vals))
             for name, vals in series.items()]
    last = good[-1]
    if last["absent"]:
        notes.append(f"absent entry points: {', '.join(last['absent'])}")
    flat = {name: m["value"] for name, m in metrics.items()}
    for prediction in workload.predictions:
        text, holds = prediction(flat, last["self_by_span"])
        notes.append(f"prediction {'holds' if holds else 'FAILS'}: {text}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors,
            "table": table, "notes": notes, "series": series}


def run_workload(workload, seed, seconds, trace, deadline):
    tag = f"{workload.name}-seed{seed}-trace{trace}"
    env = hermetic_env()
    measure = run_traced if trace else run_end_to_end
    result = {"workload": workload.name, "seed": seed, "trace": trace,
              "table": [], "notes": [], "series": {}}
    try:
        result.update(measure(workload, seed, seconds, env, deadline, tag))
    except SetupError as exc:
        result.update(metrics={}, attempted=1, failed=1, errors=[str(exc)])
    result["correct"] = not result["errors"] and bool(result["metrics"])
    return result


def print_result(result):
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']})")
    print(f"   {'metric':<44} {'median':>14} {'unit':<6} {'n':>3} {'spread':>7}")
    for name, value, unit, n, spread in result["table"]:
        print(f"   {name:<44} {value:>14.6g} {unit:<6} {n:>3} {spread:>7.2%}")
    for note in result["notes"]:
        print(f"   {note}")
    for error in result["errors"]:
        print(f"   CHECK FAILED: {error}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Leave through SystemExit, so that run_child kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.perf_counter() + HARD_LIMIT_S * len(names)

    if not (SRC / "stochastic_gronwall" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    provenance = machine_provenance()
    provenance["loadavg_start"] = _read("/proc/loadavg")
    probe = python_child(["-c", PROBE], hermetic_env(), deadline, "probe")
    if probe.returncode != 0:
        print(f"error: cannot import the package: {probe.stderr.strip()[-500:]}", file=sys.stderr)
        return 2
    found = json.loads(probe.stdout.strip().splitlines()[-1])
    if not Path(found["package_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {found['package_file']}, not the checkout's copy", file=sys.stderr)
        return 2
    provenance.update(found)

    results = [run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, deadline)
               for name in names]
    provenance["loadavg_end"] = _read("/proc/loadavg")

    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for result in results:
        print_result(result)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, "results": results}, indent=1))
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {
            f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
