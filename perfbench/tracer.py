"""In-process span tracer for the layers of the ``stochastic_gronwall`` package.

Run as a script, it executes one ``sgronwall`` command twice inside this
process, first untraced and then traced, after an unmeasured smaller
warm-up run of the same command. It writes the spans of the traced
run to a JSON-lines file and prints the per-layer metrics as one JSON
object on its last line of standard output:

    python3 perfbench/tracer.py --argv '["verify", "apriori", ...]' \\
        --warmup-argv '[...]' --out-dir DIR --tag NAME --run-id ID

The traced run wraps the public entry point of each package module,
bound by dotted name (``ENTRY_POINTS``). The package itself is not
changed: the wrappers replace module and class attributes for the
duration of the run and are removed afterwards. An entry point that no
longer exists is reported as absent and its metrics read zero.

Pool workers forked by ``mc`` inherit the wrappers; their spans travel
back with each task result and are merged into the parent's span list.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import pickle
import sys
import time

PACKAGE = "stochastic_gronwall"

# The tracer of the current traced run. Forked pool workers reach it
# through this name, because a task function is pickled by reference
# and cannot carry the tracer's closures.
_ACTIVE = None


class Tracer:
    """Keeps spans in memory: name, start, end, parent span and run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._next = 0

    def open(self, name):
        sid = f"{self.pid}:{self._next}"
        self._next += 1
        span = {"name": name, "id": sid, "parent": self._stack[-1]["id"] if self._stack else None,
                "run_id": self.run_id, "pid": self.pid, "counts": {}, "end": None}
        self._stack.append(span)
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def restart_in_worker(self):
        """Forget the spans copied from the parent at fork time."""
        self.pid = os.getpid()
        self.spans = []
        self._stack = []


def _wrap(tracer, name, fn, count=None, result_hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            span["counts"] = count(args, kwargs, result)
        return result if result_hook is None else result_hook(result)
    return traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_bem(args, kwargs, result):
    d_w = _arg(args, kwargs, 4, "d_w")
    states, iters, failed = result
    return {
        "path_steps": int(d_w.size),
        "solver_iters": int(iters.sum()),
        "failed_paths": int(failed.sum()),
        "bytes": int(d_w.nbytes + states.nbytes + iters.nbytes + failed.nbytes),
    }


def _count_welford(args, kwargs, result):
    return {"samples": int(len(_arg(args, kwargs, 0, "values")))}


def _count_sup_exact(args, kwargs, result):
    return {"samples": int(len(result))}


def _count_estimate(args, kwargs, result):
    return {"drawn": int(_arg(args, kwargs, 1, "n")), "finite": int(result.n_samples)}


# Span name -> dotted targets inside the package, and an optional counter.
# A class attribute is named as module.Class.attribute.
ENTRY_POINTS = (
    ("cli.main", ("cli.main",), None),
    ("mc.verify_apriori", ("mc.verify_apriori",), None),
    ("mc.estimate_expectation", ("mc.estimate_expectation",), _count_estimate),
    ("mc.sample_chunk", ("mc.BemSupFunctionalSampler.sample_chunk",
                         "mc.SupStoppedBmPowerSampler.sample_chunk"), None),
    ("sde.make_problem", ("sde.make_problem",), None),
    ("sde.check_coercivity", ("sde.check_coercivity",), None),
    ("kernels.bem_scalar_batch", ("kernels.bem_scalar_batch",), _count_bem),
    ("kernels.welford_chunk", ("kernels.welford_chunk",), _count_welford),
    ("martingales.sup_exact", ("martingales.sample_sup_stopped_bm_exact_batch",),
     _count_sup_exact),
    ("bounds", ("bounds.apriori_bound", "bounds.apriori_bound_parts",
                "bounds.theorem_bound_deterministic_G"), None),
)
# Wrapped specially: the generator chunk_stream returns is wrapped so its
# draws become "streams.draw" spans, and the pool class is replaced.
CHUNK_STREAM = "streams.StreamPlan.chunk_stream"
POOL = "mc.ProcessPoolExecutor"


def _resolve(dotted):
    """(owner, attribute, value) for a dotted target, or None if absent."""
    module_name, *path = dotted.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ModuleNotFoundError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    if not hasattr(owner, path[-1]):
        return None
    return owner, path[-1], getattr(owner, path[-1])


class _Patches:
    """Attribute replacements that can be undone."""

    _INHERITED = object()

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner).get(attr, self._INHERITED)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, value):
        """Rebind every package module name that holds ``original``."""
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, held in list(vars(module).items()):
                    if held is original:
                        self.replace(module, attr, value)

    def undo(self):
        for owner, attr, value in reversed(self._saved):
            if value is self._INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._saved.clear()


class _TracedGenerator:
    """Forwards to a numpy Generator and records each draw as a span."""

    def __init__(self, generator, tracer):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if name.startswith("_") or not callable(attr):
            return attr

        def draw(*args, **kwargs):
            span = self._tracer.open("streams.draw")
            try:
                out = attr(*args, **kwargs)
            finally:
                self._tracer.close(span)
            nbytes = getattr(out, "nbytes", 8)
            span["counts"] = {"values": int(getattr(out, "size", 1)), "bytes": int(nbytes)}
            return out
        return draw


def _run_task(fn, item):
    """Pool task body: runs one task and returns its result with its spans."""
    tracer = _ACTIVE
    if tracer is None:  # the worker did not inherit the tracer
        return fn(*item), []
    tracer.restart_in_worker()
    span = tracer.open("mc.pool.task")
    try:
        result = fn(*item)
    finally:
        tracer.close(span)
    return result, tracer.spans


def _traced_pool_class(base, tracer):
    class TracedPool(base):
        """Records startup, submission, waiting and pickled bytes parent-side."""

        def __init__(self, *args, **kwargs):
            span = tracer.open("mc.pool.startup")
            span["counts"] = {"startups": 1}
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(span)

        def map(self, fn, *iterables, timeout=None, chunksize=1):
            items = list(zip(*iterables))
            span = tracer.open("mc.pool.startup")  # workers fork at first submit
            try:
                futures = [self.submit(_run_task, fn, item) for item in items]
            finally:
                tracer.close(span)
            sent = sum(len(pickle.dumps((fn, item))) for item in items)
            span["counts"] = {"tasks": len(items), "pickled_bytes": sent}
            wait = tracer.open("mc.pool.wait")
            try:
                results = []
                for future in futures:
                    result, spans = future.result(timeout)
                    for child in spans:
                        if child["parent"] is None:
                            child["parent"] = wait["id"]
                    tracer.spans.extend(spans)
                    results.append(result)
            finally:
                tracer.close(wait)
            wait["counts"] = {"pickled_bytes": sum(len(pickle.dumps(r)) for r in results)}
            return iter(results)

        def shutdown(self, *args, **kwargs):
            span = tracer.open("mc.pool.wait")
            try:
                return super().shutdown(*args, **kwargs)
            finally:
                tracer.close(span)

    return TracedPool


def install(tracer, entry_points=ENTRY_POINTS):
    """Wrap every entry point that exists; returns (patches, absent targets)."""
    global _ACTIVE
    patches = _Patches()
    absent = []
    for name, targets, count in entry_points:
        for dotted in targets:
            found = _resolve(dotted)
            if found is None:
                absent.append(dotted)
                continue
            owner, attr, original = found
            wrapped = _wrap(tracer, name, original, count)
            if isinstance(owner, type):
                patches.replace(owner, attr, wrapped)
            else:
                patches.replace_everywhere(original, wrapped)
    found = _resolve(CHUNK_STREAM)
    if found is None:
        absent.append(CHUNK_STREAM)
    else:
        owner, attr, original = found
        patches.replace(owner, attr, _wrap(
            tracer, "streams.chunk_stream", original,
            result_hook=lambda gen: _TracedGenerator(gen, tracer)))
    found = _resolve(POOL)
    if found is None:
        absent.append(POOL)
    else:
        patches.replace_everywhere(found[2], _traced_pool_class(found[2], tracer))
    _ACTIVE = tracer
    return patches, absent


def uninstall(patches):
    global _ACTIVE
    patches.undo()
    _ACTIVE = None


# ---------------------------------------------------------------------------
# Metrics from spans

LAYERS = ("cli", "mc", "sde", "kernels", "streams", "martingales", "bounds")

# Per-layer metrics and their units; BENCHMARK.json lists the same names.
UNITS = {
    "kernels.bem_scalar_batch.busy_s": "s",
    "kernels.bem_scalar_batch.path_steps": "count",
    "kernels.bem_scalar_batch.us_per_path_step": "us",
    "kernels.bem_scalar_batch.solver_iters": "count",
    "kernels.bem_scalar_batch.failed_paths": "count",
    "kernels.bem_scalar_batch.bytes": "B",
    "kernels.welford_chunk.busy_s": "s",
    "kernels.welford_chunk.samples": "count",
    "kernels.welford_chunk.ns_per_sample": "ns",
    "sde.make_problem.calls": "count",
    "sde.make_problem.busy_s": "s",
    "sde.check_coercivity.calls": "count",
    "sde.check_coercivity.busy_s": "s",
    "streams.chunk_stream.calls": "count",
    "streams.chunk_stream.busy_s": "s",
    "streams.draw.busy_s": "s",
    "streams.draw.values": "count",
    "streams.draw.bytes": "B",
    "mc.sample_chunk.calls": "count",
    "mc.sample_chunk.self_s": "s",
    "mc.estimate_expectation.calls": "count",
    "mc.estimate_expectation.self_s": "s",
    "mc.useful_ratio": "ratio",
    "mc.pool.startups": "count",
    "mc.pool.startup_s": "s",
    "mc.pool.tasks": "count",
    "mc.pool.wait_s": "s",
    "mc.pool.pickled_bytes": "B",
    "martingales.sup_exact.busy_s": "s",
    "martingales.sup_exact.samples": "count",
    "bounds.busy_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.worker_busy_s": "s",
}


def self_times(spans):
    """Span id -> duration minus the time its same-process children cover.

    Spans of one process never overlap unless nested, so the covered
    time is the sum of the children's durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            own[parent["id"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans, untraced_wall):
    own = self_times(spans)
    busy, self_, calls, counts = {}, {}, {}, {}
    for s in spans:
        name = s["name"]
        busy[name] = busy.get(name, 0.0) + s["end"] - s["start"]
        self_[name] = self_.get(name, 0.0) + own[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        for key, value in s["counts"].items():
            counts[(name, key)] = counts.get((name, key), 0) + value

    def count(name, key):
        return counts.get((name, key), 0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    # Worker task spans hang under the parent's wait span, so the spans
    # without a parent are the traced run's top level: cli.main.
    wall = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    worker_busy = busy.get("mc.pool.task", 0.0)
    bem, wf = "kernels.bem_scalar_batch", "kernels.welford_chunk"
    m = {
        f"{bem}.busy_s": busy.get(bem, 0.0),
        f"{bem}.path_steps": count(bem, "path_steps"),
        f"{bem}.us_per_path_step": ratio(busy.get(bem, 0.0), count(bem, "path_steps"), 1e6),
        f"{bem}.solver_iters": count(bem, "solver_iters"),
        f"{bem}.failed_paths": count(bem, "failed_paths"),
        f"{bem}.bytes": count(bem, "bytes"),
        f"{wf}.busy_s": busy.get(wf, 0.0),
        f"{wf}.samples": count(wf, "samples"),
        f"{wf}.ns_per_sample": ratio(busy.get(wf, 0.0), count(wf, "samples"), 1e9),
        "mc.useful_ratio": ratio(count("mc.estimate_expectation", "finite"),
                                 count("mc.estimate_expectation", "drawn")),
        "mc.pool.startups": count("mc.pool.startup", "startups"),
        "mc.pool.startup_s": busy.get("mc.pool.startup", 0.0),
        "mc.pool.tasks": count("mc.pool.startup", "tasks"),
        "mc.pool.wait_s": busy.get("mc.pool.wait", 0.0),
        "mc.pool.pickled_bytes": count("mc.pool.startup", "pickled_bytes")
        + count("mc.pool.wait", "pickled_bytes"),
        "streams.draw.values": count("streams.draw", "values"),
        "streams.draw.bytes": count("streams.draw", "bytes"),
        "martingales.sup_exact.samples": count("martingales.sup_exact", "samples"),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.worker_busy_s": worker_busy,
    }
    for name in ("sde.make_problem", "sde.check_coercivity", "streams.chunk_stream",
                 "mc.sample_chunk", "mc.estimate_expectation"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("sde.make_problem", "sde.check_coercivity", "streams.chunk_stream",
                 "streams.draw", "martingales.sup_exact"):
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    m["bounds.busy_s"] = busy.get("bounds", 0.0)
    for name in ("mc.sample_chunk", "mc.estimate_expectation"):
        m[f"{name}.self_s"] = self_.get(name, 0.0)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_.items():
        layer_self[name.split(".")[0]] += value
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = value
    m["trace.self_sum_s"] = sum(layer_self.values())
    return m, self_


def _run_cli(cli, argv):
    """(exit code, wall seconds) of one in-process CLI run, output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    return rc, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--argv", required=True, help="CLI arguments as a JSON list")
    parser.add_argument("--warmup-argv", required=True,
                        help="a smaller run of the same command, made first and not measured")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args()
    argv = json.loads(args.argv)
    cli = importlib.import_module(f"{PACKAGE}.cli")

    untraced_report = os.path.join(args.out_dir, f"{args.tag}-untraced.json")
    traced_report = os.path.join(args.out_dir, f"{args.tag}-traced.json")
    _run_cli(cli, json.loads(args.warmup_argv))  # first-call costs stay out of both runs
    rc_untraced, untraced_wall = _run_cli(cli, argv + ["--output", untraced_report])

    tracer = Tracer(args.run_id)
    patches, absent = install(tracer)
    try:
        rc_traced, _ = _run_cli(cli, argv + ["--output", traced_report])
    finally:
        uninstall(patches)

    metrics, self_by_span = layer_metrics(tracer.spans, untraced_wall)
    with open(os.path.join(args.out_dir, f"{args.tag}-spans.jsonl"), "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
    print(json.dumps({
        "rc_untraced": rc_untraced,
        "rc_traced": rc_traced,
        "untraced_report": untraced_report,
        "traced_report": traced_report,
        "absent": absent,
        "self_by_span": self_by_span,
        "metrics": metrics,
    }, sort_keys=True))


if __name__ == "__main__":
    main()
