import functools
import json
import math
import operator
import os
import re
import signal
import time
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    NegatedStream,
    SpoiledStream,
    antithetic_normals,
    check_report,
    cliff_problem,
    freeze_paths,
    pair_means,
    per_row_increments,
    per_row_sample_chunk,
    per_row_sup,
    synthetic_sup_xp_reference,
    tanh_well_problem,
    whole_union_sample_chunk,
)

from stochastic_gronwall import kernels, mc
from stochastic_gronwall.errors import ContractViolationError, SolverError
from stochastic_gronwall.martingales import walk_functional_expectations
from stochastic_gronwall.mc import (
    BemSupFunctionalSampler,
    SupStoppedBmPowerSampler,
    SyntheticSupXpSampler,
    SyntheticSystem,
    estimate_expectation,
    sample_columns,
    standard_synthetic_systems,
    verify_apriori,
    verify_theorem_on_synthetic,
)
from stochastic_gronwall.sde import (
    SdeProblem,
    make_problem,
    simulate_trajectory,
    step_count,
    zoo_labels,
    zoo_parameters,
)
from stochastic_gronwall.streams import CHUNK_SIZE, StreamPlan


@dataclass(frozen=True)
class ConstantSampler:
    value: float

    def sample_chunk(self, plan, chunk_index, count):
        return np.full(count, self.value)


@dataclass(frozen=True)
class FairCoinSampler:
    """Samples +-1 with equal probability."""

    def sample_chunk(self, plan, chunk_index, count):
        stream = plan.chunk_stream(chunk_index)
        return stream.integers(0, 2, size=count).astype(np.float64) * 2.0 - 1.0


@dataclass(frozen=True)
class GaussianSampler:
    mean: float = 0.0
    std: float = 1.0

    def sample_chunk(self, plan, chunk_index, count):
        stream = plan.chunk_stream(chunk_index)
        return stream.standard_normal(count) * self.std + self.mean


@dataclass(frozen=True)
class WalkSupPowerSampler:
    """(sup of a +-1 walk)^p, optionally stopped at a negative level."""

    steps: int
    p: float
    stop_level: float | None = None

    def sample_chunk(self, plan, chunk_index, count):
        stream = plan.chunk_stream(chunk_index)
        signs = stream.integers(0, 2, size=(count, self.steps)).astype(np.float64) * 2.0 - 1.0
        paths = np.zeros((count, self.steps + 1))
        paths[:, 1:] = np.cumsum(signs, axis=1)
        if self.stop_level is not None:
            freeze_paths(paths, self.stop_level)
        return paths.max(axis=1) ** self.p


@dataclass(frozen=True)
class FlakySampler:
    """Returns NaN for a fixed fraction of each chunk."""

    fail_every: int

    def sample_chunk(self, plan, chunk_index, count):
        vals = np.ones(count)
        vals[:: self.fail_every] = np.nan
        return vals


@dataclass(frozen=True)
class FixedSampler:
    """Serves fixed values: chunk c of a column is its entries c*CHUNK_SIZE onward."""

    values: tuple

    def sample_chunk(self, plan, chunk_index, count):
        start = chunk_index * CHUNK_SIZE
        return np.array(self.values[start:start + count])


def mask_first_range_stats(sampler, plan, n, lo, hi):
    """The reference for ``mc._chunk_range_stats``: every column of a chunk
    masked for non-finite values first, the first column that holds one
    raising its ``SolverError``, and the moments taken of the others."""
    out = []
    for c in range(lo, hi):
        count = plan.chunk_count(c, n)
        if count == 0:
            continue
        columns = np.atleast_2d(np.asarray(sampler.sample_chunk(plan, c, count), dtype=np.float64))
        stats = []
        for column, vals in enumerate(columns):
            n_bad = int(count - np.isfinite(vals).sum())
            if n_bad:
                raise SolverError(f"chunk {c}, column {column}: {n_bad} of its {count} samples "
                                  "are not finite")
            stats.append(kernels.welford_chunk(vals))
        out.append(stats)
    return out


def _chunk_columns():
    """Named columns of two chunks, with NaN, infinities or moments that overflow."""
    rng = np.random.default_rng(8)
    clean = rng.standard_normal(CHUNK_SIZE + 904)
    cases = {"clean": clean, "nan": clean.copy(), "plus-inf": clean.copy(),
             "minus-inf": clean.copy(), "mixed": clean.copy(), "inf-first": clean.copy(),
             "all-nan": np.full(clean.size, np.nan),
             # all finite: M2 overflows to inf, or the deviations from the first value do
             "m2-overflow": clean * 1e160,
             "deviation-overflow": rng.uniform(-1.0, 1.0, clean.size) * 1.7e308}
    cases["nan"][[3, 4500]] = np.nan
    cases["plus-inf"][[7, 4200]] = np.inf
    cases["minus-inf"][[11, 4097]] = -np.inf
    cases["mixed"][[1, 2, 3, 4096]] = [np.inf, -np.inf, np.nan, np.inf]
    cases["inf-first"][[0, 9]] = np.inf
    return {name: tuple(values) for name, values in cases.items()}


_CHUNK_COLUMNS = _chunk_columns()


def estimate(sampler, n, plan, **kwargs):
    """The estimate of a one-column sampler's mean from one pass."""
    (chunks,) = sample_columns(sampler, n, plan)
    return estimate_expectation(chunks, n, **kwargs)


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every pool the package constructs."""
    requested = []

    class RecordingPool(mc.ProcessPoolExecutor):
        def __init__(self, max_workers):
            requested.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingPool)
    return requested


def refuse_stream(plan, chunk_index):
    raise AssertionError(f"chunk {chunk_index} drawn")


def no_children_left():
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_pool_class_is_the_modules_fork_pool():
    assert mc.ProcessPoolExecutor.__module__ == mc.__name__
    with pytest.raises(AttributeError, match="no attribute 'ThreadPoolExecutor'"):
        mc.ThreadPoolExecutor


class TestEstimator:
    def test_constant_degenerate(self):
        est = estimate(ConstantSampler(2.5), 1000, StreamPlan(0))
        assert est.mean == 2.5
        assert est.std_error == 0.0
        assert est.degenerate_flag
        assert est.ci_halfwidth == 0.0

    @pytest.mark.parametrize("n, workers", [(1000, 1), (10_000, 1), (10_000, 2)])
    def test_constant_non_dyadic_degenerate(self, n, workers):
        # sums of 0.1 round; the other constant samples here (2.5, 1.0) sum exactly
        est = estimate(ConstantSampler(0.1), n, StreamPlan(0, workers=workers))
        assert est.mean == 0.1
        assert est.std_error == 0.0
        assert est.degenerate_flag

    def test_fair_coin(self):
        est = estimate(FairCoinSampler(), 1_000_000, StreamPlan(3))
        assert abs(est.mean) <= 4e-3
        assert est.std_error == pytest.approx(1e-3, rel=0.02)

    def test_needs_two_samples(self):
        with pytest.raises(ContractViolationError):
            estimate(ConstantSampler(1.0), 1, StreamPlan(0))

    @pytest.mark.parametrize("n", [100, 4096, 5000, 12289])
    def test_worker_counts_bit_identical(self, n):
        plans = [StreamPlan(11, workers=w) for w in (1, 2, 5)]
        results = [estimate(GaussianSampler(0.5, 1.5), n, p) for p in plans]
        assert results[0] == results[1] == results[2]

    def test_pool_sized_to_its_tasks(self, pools):
        n = 5000  # two chunks: the caller works one, a single child the other
        wide = estimate(GaussianSampler(), n, StreamPlan(7, workers=64))
        assert pools == [1]
        assert wide == estimate(GaussianSampler(), n, StreamPlan(7))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_sample_stops_at_its_first_chunk(self, monkeypatch, workers):
        # every chunk holds NaN; the run stops at chunk 0, whichever process works the rest
        drawn = []
        sample_chunk = FlakySampler.sample_chunk
        monkeypatch.setattr(FlakySampler, "sample_chunk",
                            lambda self, plan, c, count: drawn.append(c) or sample_chunk(
                                self, plan, c, count))
        with pytest.raises(SolverError) as info:
            estimate(FlakySampler(10), POOL_N, StreamPlan(0, workers=workers))
        assert str(info.value) == "chunk 0, column 0: 410 of its 4096 samples are not finite"
        assert drawn == [0]  # this process's chunks; a child's are its own

    def test_chunks_short_of_n_samples_are_a_contract_violation(self):
        with pytest.raises(ContractViolationError, match="hold 4195 samples, not the 9000"):
            estimate(FixedSampler(_CHUNK_COLUMNS["clean"][:4195]), POOL_N, StreamPlan(0))

    @pytest.mark.parametrize("case", sorted(_CHUNK_COLUMNS))
    def test_moments_first_equals_mask_first(self, case):
        # the moments of both chunks repr-equal, or the same SolverError is raised for
        # the first chunk that holds a value that is not finite, with no floating-point
        # warning; finite values whose moments overflow are a contract violation
        values = _CHUNK_COLUMNS[case]

        def outcome(func):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = func(FixedSampler(values), StreamPlan(0), len(values), 0, 2)
                except (SolverError, ContractViolationError) as exc:
                    result = exc
            assert caught == []
            return repr(result)

        result = outcome(mc._chunk_range_stats)
        if case.endswith("overflow"):
            assert result.startswith("ContractViolationError(") and "overflows float64" in result
        else:
            assert result == outcome(mask_first_range_stats)
            assert result.startswith("SolverError(") == (case != "clean")

    @pytest.mark.parametrize("chunks", [
        [(2, 1e308, 0.0), (2, -1e308, 0.0)],  # the mean's delta overflows
        [(2, 1e200, 0.0), (2, -1e200, 0.0)],  # the mean is 0.0, M2 overflows
        [(2, 1.0, 1.7e308), (2, 1.0, 1.7e308)],  # two finite M2 add to inf
    ], ids=["mean", "delta-squared", "m2-sum"])
    def test_merged_overflow_is_a_contract_violation(self, chunks):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ContractViolationError, match="overflows float64"):
                estimate_expectation(chunks, 4)
        assert caught == []

    @pytest.mark.parametrize("moments, z", [
        ((2, 0.0, 8.0), 1e308),  # std_error 2: z*std_error overflows
        ((2, 1e308, 8.0), 1e308),  # mean + z*std_error overflows
    ], ids=["halfwidth", "upper-bound"])
    def test_upper_confidence_bound_overflow_is_a_contract_violation(self, moments, z):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ContractViolationError, match=r"mean \+ z\*std_error overflows"):
                estimate_expectation([moments], 2, z=z)
        assert caught == []

    def test_ci_uses_z(self):
        est = estimate(GaussianSampler(), 5000, StreamPlan(1), z=2.576)
        assert est.ci_halfwidth == pytest.approx(2.576 * est.std_error, rel=1e-15)

    def test_coverage_of_known_mean(self):
        # 95% CI must contain the truth in at least 93% of replications
        hits = 0
        reps = 1000
        for i in range(reps):
            est = estimate(GaussianSampler(1.0, 2.0), 1000, StreamPlan(10_000 + i))
            hits += abs(est.mean - 1.0) <= est.ci_halfwidth
        assert hits / reps >= 0.93

    def test_agreement_with_enumeration(self):
        # Monte Carlo E[(sup M)^p] against its exact value over all sign walks
        for n, p, stop in [(8, 0.5, None), (12, 0.25, None), (10, 0.5, -1.0)]:
            exact, _ = walk_functional_expectations(n, p, stop_level=stop)
            est = estimate(
                WalkSupPowerSampler(n, p, stop), 100_000, StreamPlan(77)
            )
            assert abs(est.mean - exact) <= 4 * est.std_error

    def test_sup_power_sampler_heavy_tail_mean(self):
        est = estimate(SupStoppedBmPowerSampler(0.5), 400_000, StreamPlan(5))
        assert abs(est.mean - math.pi / 2) <= 4 * est.std_error


# 9000 samples are three chunks, the last one short.
POOL_N = 9000
GL_GRID = [0.125, 0.0625, 0.03125, 0.015625]
CUSTOM_GRID = [0.25, 0.03125]


def _reports(workers):
    """The apriori (4 rows) and theorem (3 systems) reports at a worker count."""
    plan = StreamPlan(5, workers=workers)
    apriori = verify_apriori(make_problem("ginzburg-landau", sigma=0.5), GL_GRID, 0.25, 1.0,
                             0.5, POOL_N, plan)
    theorem = verify_theorem_on_synthetic(standard_synthetic_systems(10), 0.5, POOL_N, plan)
    return [json.dumps(r, sort_keys=True) for r in (apriori, theorem)]


@dataclass(frozen=True)
class RaisingSampler:
    """Raises a contract violation, naming its process, on the given chunks."""

    chunks: tuple

    def sample_chunk(self, plan, chunk_index, count):
        if chunk_index in self.chunks:
            raise ContractViolationError(f"chunk {chunk_index} failed in pid {os.getpid()}")
        return np.ones(count)


class TestReportPool:
    @pytest.mark.parametrize("workers", [2, 64])
    def test_one_pool_per_report(self, pools, workers):
        single = _reports(1)
        assert pools == []
        assert _reports(workers) == single
        # one pool per report, the caller working one of the three chunk ranges
        assert pools == [min(workers, 3) - 1] * 2
        assert no_children_left()

    def test_failing_middle_row_aborts_alike(self, monkeypatch):
        sample_chunk = BemSupFunctionalSampler.sample_chunk

        def fail_half_of_one_row(self, plan, chunk_index, count):
            vals = sample_chunk(self, plan, chunk_index, count)
            vals[self.hs.index(0.0625), ::2] = np.nan
            return vals

        monkeypatch.setattr(BemSupFunctionalSampler, "sample_chunk", fail_half_of_one_row)
        messages = []
        for workers in (1, 2, 3):
            with pytest.raises(SolverError) as info:
                verify_apriori(make_problem("ginzburg-landau", sigma=0.5), GL_GRID, 0.25, 1.0,
                               0.5, POOL_N, StreamPlan(5, workers=workers))
            messages.append(str(info.value))
        assert messages == ["chunk 0, column 1: 1024 of its 2048 pair means are not finite"] * 3
        assert no_children_left()

    def test_failing_paths_of_a_custom_problem_abort_alike(self, deadline):
        # a scalar problem whose exact step has no root for b > 1.5: the first chunk
        # with a failed path stops the report, alike at any worker count
        messages = []
        for workers in (1, 2, 3):
            with pytest.raises(SolverError) as info:
                verify_apriori(cliff_problem(), GL_GRID, 0.25, 1.0, 0.5, POOL_N,
                               StreamPlan(5, workers=workers))
            messages.append(str(info.value))
        assert messages == ["chunk 0, column 0: 101 of its 2048 pair means are not finite"] * 3
        assert no_children_left()

    def test_a_failing_later_chunk_stops_the_report_alike(self, monkeypatch, deadline):
        # chunks 1 and 2 fail: at two workers both are a child's, at three one each
        sample_chunk = BemSupFunctionalSampler.sample_chunk

        def fail_later_chunks(self, plan, chunk_index, count):
            vals = sample_chunk(self, plan, chunk_index, count)
            vals[-1, :chunk_index] = np.inf
            return vals

        monkeypatch.setattr(BemSupFunctionalSampler, "sample_chunk", fail_later_chunks)
        messages = []
        for workers in (1, 2, 3):
            with pytest.raises(SolverError) as info:
                verify_apriori(make_problem("ginzburg-landau", sigma=0.5), GL_GRID, 0.25, 1.0,
                               0.5, POOL_N, StreamPlan(5, workers=workers))
            messages.append(str(info.value))
        assert messages == ["chunk 1, column 3: 1 of its 2048 pair means are not finite"] * 3
        assert no_children_left()

    @pytest.mark.parametrize("label", ["bounded-rotation", "ginzburg-landau"])
    def test_a_nan_draw_fails_its_path_alike(self, monkeypatch, deadline, label):
        # one NaN normal of chunk 1, which at two workers the child steps, fails one
        # path of either stepper kind, and the report stops as in one process
        chunk_stream = StreamPlan.chunk_stream

        def spoil_chunk_1(self, chunk_index):
            stream = chunk_stream(self, chunk_index)
            return SpoiledStream(stream, (0, 5), np.nan) if chunk_index == 1 else stream

        monkeypatch.setattr(StreamPlan, "chunk_stream", spoil_chunk_1)
        messages = []
        for workers in (1, 2):
            with pytest.raises(SolverError) as info:
                verify_apriori(make_problem(label), GL_GRID, 0.25, 1.0, 0.5, POOL_N,
                               StreamPlan(5, workers=workers))
            messages.append(str(info.value))
        # the NaN normal drives path 5 and its mirror, so it fails one pair
        assert messages == ["chunk 1, column 0: 1 of its 2048 pair means are not finite"] * 2
        assert no_children_left()

    @pytest.mark.parametrize("chunks", [(0,), (2,)])
    def test_contract_violation_surfaces_from_any_process(self, chunks):
        # at two workers the caller works chunk 0 and the child chunks 1 and 2
        plan = StreamPlan(0, workers=2)
        with pytest.raises(ContractViolationError, match=f"chunk {chunks[0]} failed") as info:
            estimate(RaisingSampler(chunks), POOL_N, plan)
        in_caller = f"pid {os.getpid()}" in str(info.value)
        assert in_caller == (chunks == (0,))
        assert no_children_left()


@dataclass(frozen=True)
class OverflowingSampler:
    """Finite values whose chunk moments overflow, on the given chunks."""

    chunks: tuple

    def sample_chunk(self, plan, chunk_index, count):
        if chunk_index in self.chunks:
            return np.resize([1e308, -1e308], count)
        return np.ones(count)


@dataclass(frozen=True)
class KillingSampler:
    """Leaves a file named by its pid in ``pids``, then kills itself
    (SIGKILL) on chunks 1.."""

    pids: str

    def sample_chunk(self, plan, chunk_index, count):
        if chunk_index > 0:
            open(os.path.join(self.pids, str(os.getpid())), "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return np.ones(count)


@dataclass(frozen=True)
class StallingSampler:
    """Chunks 1.. leave a file named by their pid in ``pids`` and sleep
    for 10 minutes; chunk 0 waits for such a file, then raises."""

    pids: str

    def sample_chunk(self, plan, chunk_index, count):
        if chunk_index > 0:
            open(os.path.join(self.pids, str(os.getpid())), "w").close()
            time.sleep(600)
        while not os.listdir(self.pids):  # the test's deadline bounds this wait
            time.sleep(0.01)
        raise ContractViolationError("the caller's chunk failed")


class TestForkPool:
    def test_child_contract_violation_is_the_one_worker_error(self, deadline):
        errors = []
        for workers in (1, 2):
            # at two workers the caller works chunk 0 and the child chunks 1 and 2
            with pytest.raises(ContractViolationError) as info:
                estimate(OverflowingSampler((1,)), POOL_N, StreamPlan(0, workers=workers))
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert errors[0][1].startswith("chunk 1: the mean or sum of squared deviations")
        (note,) = info.value.__notes__  # the child's traceback
        assert re.match(r"in pool child \d+:\nTraceback", note)
        assert "in _chunk_range_stats" in note and note.endswith(f"{info.value}\n")
        assert no_children_left()

    def test_killed_child_raises_naming_it(self, tmp_path, deadline):
        with pytest.raises(ChildProcessError) as info:
            estimate(KillingSampler(str(tmp_path)), POOL_N, StreamPlan(0, workers=2))
        (pid,) = os.listdir(tmp_path)
        assert str(info.value) == (f"pool child {pid} was killed by signal {int(signal.SIGKILL)} "
                                   "before sending its result")
        assert no_children_left()

    def test_callers_error_kills_and_reaps_a_running_child(self, tmp_path, deadline):
        with pytest.raises(ContractViolationError, match="the caller's chunk failed"):
            estimate(StallingSampler(str(tmp_path)), POOL_N, StreamPlan(0, workers=2))
        (pid,) = os.listdir(tmp_path)
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)
        assert no_children_left()

    def test_result_beyond_the_pipe_buffer_arrives_intact(self, deadline):
        pool = mc.ProcessPoolExecutor(max_workers=2)
        try:
            big, small = pool.map(np.arange, [300_000, 5])  # 2.4 MB and 40 bytes
        finally:
            pool.shutdown()
        assert np.array_equal(big, np.arange(300_000)) and np.array_equal(small, np.arange(5))
        assert no_children_left()

    def test_unpicklable_outcomes_arrive_as_runtime_errors(self, deadline):
        pool = mc.ProcessPoolExecutor(max_workers=2)
        try:
            error, result = (pool.submit(fn) for fn in (raise_unpicklable, lambda: lambda: 0))
            with pytest.raises(RuntimeError) as info:
                error.result()
            message = str(info.value)
            assert message.startswith(f"pool child {error.pid} could not send its exception "
                                      "UnpicklableError('holds a function'): ")
            assert "Can't pickle local object" in message
            assert "in raise_unpicklable" in message  # the traceback of the raise itself
            with pytest.raises(RuntimeError, match=f"pool child {result.pid} could not send its "
                                                   "result of type function: "):
                result.result()
        finally:
            pool.shutdown()
        assert no_children_left()

    def test_solver_error_crosses_with_its_message(self, deadline):
        pool = mc.ProcessPoolExecutor(max_workers=1)
        try:
            child = pool.submit(raise_solver_error)
            with pytest.raises(SolverError) as info:
                child.result()
        finally:
            pool.shutdown()
        assert info.value.args == ("chunk 2, column 1: 5 of its 4096 samples are not finite",)
        (note,) = info.value.__notes__  # the child's traceback
        assert note.startswith(f"in pool child {child.pid}:\nTraceback")
        assert no_children_left()


class UnpicklableError(Exception):
    def __init__(self):
        super().__init__("holds a function")
        self.fn = lambda: None


def raise_unpicklable():
    raise UnpicklableError()


def raise_solver_error():
    raise SolverError("chunk 2, column 1: 5 of its 4096 samples are not finite")


class TestSyntheticSystems:
    def test_standard_labels(self):
        systems = standard_synthetic_systems(10)
        assert [s.label for s in systems] == ["constant", "walk", "walk-coupled"]
        assert all(s.horizon == 10 for s in systems)

    def test_nonnegativity_guard(self):
        with pytest.raises(ContractViolationError, match="F_n >= n"):
            SyntheticSystem("bad", (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), "pm1-walk")

    def test_sampler_constant_system(self):
        system = standard_synthetic_systems(10)[0]
        vals = SyntheticSupXpSampler((system,), 0.5).sample_chunk(StreamPlan(0), 0, 100)
        assert np.all(vals == 1.0)

    def test_walk_systems_share_one_draw_per_chunk(self, monkeypatch):
        streams = []
        chunk_stream = StreamPlan.chunk_stream
        monkeypatch.setattr(StreamPlan, "chunk_stream",
                            lambda plan, c: streams.append(c) or chunk_stream(plan, c))
        systems = standard_synthetic_systems(5)
        vals = SyntheticSupXpSampler(systems, 0.5).sample_chunk(StreamPlan(4), 3, 64)
        assert streams == [3]
        alone = [SyntheticSupXpSampler((s,), 0.5).sample_chunk(StreamPlan(4), 3, 64)[0]
                 for s in systems]
        assert np.array_equal(vals, np.stack(alone))

    def test_walk_coupled_horizon_limit_is_inclusive(self):
        SyntheticSupXpSampler(standard_synthetic_systems(7346), 0.5)
        with pytest.raises(ContractViolationError, match="'walk-coupled' at horizon 7347"):
            SyntheticSupXpSampler(standard_synthetic_systems(7347), 0.5)
        # without weights, X_n stays finite up to the work limit
        SyntheticSupXpSampler(standard_synthetic_systems(8191)[:2], 0.5)

    @pytest.mark.parametrize("f, g", [
        ((1.0, math.nan, 3.0), (0.0, 0.0, 0.0)),
        ((1.0, 2.0, 3.0), (0.0, math.nan, 0.0)),
        ((1.0, math.inf, 3.0), (0.0, 0.0, 0.0)),
    ], ids=["nan-F", "nan-G", "inf-F"])
    def test_non_finite_f_or_g_is_rejected(self, f, g):
        with pytest.raises(ContractViolationError, match="F and G must be finite and nonnegative"):
            SyntheticSystem("bad", f, g, "zero")

    def test_empty_f_is_rejected(self):
        with pytest.raises(ContractViolationError, match="at least 1"):
            SyntheticSystem("empty", (), (), "zero")

    def test_empty_system_tuple_is_rejected(self):
        with pytest.raises(ContractViolationError, match="at least one system"):
            verify_theorem_on_synthetic([], 0.5, 100, StreamPlan(1))

    def test_systems_share_one_horizon(self):
        with pytest.raises(ContractViolationError, match="one horizon"):
            SyntheticSupXpSampler((standard_synthetic_systems(4)[1],
                                   standard_synthetic_systems(5)[1]), 0.5)

    def test_sampler_walk_equality_construction(self):
        # rebuild one chunk by hand and confirm equality in the recursion
        system = standard_synthetic_systems(5)[2]
        plan = StreamPlan(123)
        (vals,) = SyntheticSupXpSampler((system,), 0.5).sample_chunk(plan, 0, 64)
        stream = plan.chunk_stream(0)
        signs = stream.integers(0, 2, size=(64, 5)).astype(np.float64) * 2.0 - 1.0
        m = np.zeros((64, 6))
        m[:, 1:] = np.cumsum(signs, axis=1)
        f = np.arange(1.0, 7.0)
        x = np.empty((64, 6))
        x[:, 0] = f[0] + m[:, 0]
        acc = np.zeros(64)
        for n in range(1, 6):
            acc += 0.1 * x[:, n - 1]
            x[:, n] = f[n] + m[:, n] + acc
        assert np.array_equal(vals, x.max(axis=1) ** 0.5)


def custom_synthetic_systems(horizon):
    """Two systems with non-constant F and nonzero G, one with a zero
    martingale and one with the walk."""
    steps = range(horizon + 1)
    return (
        SyntheticSystem("wavy", tuple(1.0 + 0.5 * (n % 3) + 0.01 * n for n in steps),
                        tuple(0.05 * (n % 4) for n in steps), "zero"),
        SyntheticSystem("wavy-walk", tuple(n + 2.0 + 0.25 * (n % 5) for n in steps),
                        tuple(0.02 * (1 + n % 3) for n in steps), "pm1-walk"),
    )


class TestSyntheticMatchesOracle:
    """The streamed sampler's columns equal those of the former matrix
    sampler bit for bit: all five systems together, the zero-martingale
    ones alone (no draw), and the walk ones in another order."""

    @pytest.mark.parametrize("horizon", [0, 1, 10, 257])
    @pytest.mark.parametrize("count", [1, 3, CHUNK_SIZE])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_columns_equal_the_matrix_sampler(self, horizon, count, p):
        systems = standard_synthetic_systems(horizon) + custom_synthetic_systems(horizon)
        plan = StreamPlan(11)
        for chosen in (systems, systems[::3], systems[:0:-2] + systems[1:2]):
            vals = SyntheticSupXpSampler(chosen, p).sample_chunk(plan, 2, count)
            expected = synthetic_sup_xp_reference(chosen, p, plan, 2, count)
            assert vals.shape == expected.shape == (len(chosen), count)
            assert vals.tobytes() == expected.tobytes(), [s.label for s in chosen]


def chunk_peak(sampler):
    """The tracemalloc peak, in bytes, of one CHUNK_SIZE-path chunk."""
    plan = StreamPlan(1)
    sampler.sample_chunk(plan, 0, 2)  # one-time costs stay out of the measurement
    tracemalloc.start()
    try:
        sampler.sample_chunk(plan, 0, CHUNK_SIZE)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synthetic_chunk_holds_its_sign_block_and_little_else():
    # the matrix sampler held about five (count, horizon + 1) arrays at once
    horizon = 2000
    peak = chunk_peak(SyntheticSupXpSampler(standard_synthetic_systems(horizon), 0.5))
    assert peak < 1.25 * CHUNK_SIZE * horizon * 8, f"peak {peak / 2**20:.2f} MiB"


class TestVerifyTheorem:
    def test_all_three_pass(self):
        report = verify_theorem_on_synthetic(
            standard_synthetic_systems(10), 0.5, 20_000, StreamPlan(42)
        )
        assert report["all_passed"]
        assert [r["system"] for r in report["rows"]] == ["constant", "walk", "walk-coupled"]

    def test_constant_system_values(self):
        report = verify_theorem_on_synthetic(
            standard_synthetic_systems(10)[:1], 0.5, 5000, StreamPlan(1)
        )
        row = report["rows"][0]
        assert row["mean"] == 1.0
        assert row["bound"] == 3.0
        assert row["degenerate_flag"]

    def test_bound_values_match_formula(self):
        systems = standard_synthetic_systems(10)
        report = verify_theorem_on_synthetic(systems, 0.5, 2000, StreamPlan(2))
        assert report["rows"][1]["bound"] == pytest.approx(3.0 * math.sqrt(11.0), rel=1e-12)
        assert report["rows"][2]["bound"] == pytest.approx(
            3.0 * 1.1**5 * math.sqrt(11.0), rel=1e-12
        )

    def test_report_serializes(self):
        report = verify_theorem_on_synthetic(
            standard_synthetic_systems(4)[:1], 0.5, 100, StreamPlan(0)
        )
        text = json.dumps(report, sort_keys=True)
        assert "master_seed" in text and "all_passed" in text


class TestVerifyApriori:
    def test_zero_noise_linear(self):
        prob = make_problem("linear", lam=1.0, sigma=0.0)
        report = verify_apriori(prob, [0.2, 0.025], 0.4, 1.0, 0.5, 500, StreamPlan(0))
        assert report["all_passed"]
        # deterministic decay: the functional is 1 at j = 0 on every path
        for row in report["rows"]:
            assert row["mean"] == 1.0
            assert row["degenerate_flag"]
        assert report["bound"] > 1.0

    def test_ginzburg_landau_small(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)
        report = verify_apriori(prob, [0.125, 0.125 / 8], 0.25, 1.0, 0.5, 4000, StreamPlan(7))
        assert report["all_passed"]
        assert report["h_robust"]
        assert report["bound"] == pytest.approx(
            3.0
            * math.exp(0.5 / (1 - 0.5625) * 2 * 1.125)
            * (1.0 + (0.0625 + 2.25) / (1 - 0.5625)) ** 0.5,
            rel=1e-12,
        )

    def test_grid_contracts(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)
        with pytest.raises(ContractViolationError, match="factor of 8"):
            verify_apriori(prob, [0.125, 0.0625], 0.25, 1.0, 0.5, 100, StreamPlan(0))

    def test_h0_constraint_checked(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)  # L = 1.125
        with pytest.raises(ContractViolationError, match="2\\*h0\\*L"):
            verify_apriori(prob, [0.1], 0.5, 1.0, 0.5, 100, StreamPlan(0))

    def test_rotation_batch_matches_trajectory(self):
        # each pair mean of a chunk is, bit for bit, the mean of the trajectories
        # driven by its column of the chunk's step-major draws and by their
        # negation, whatever pairs share the chunk
        class Row:
            def __init__(self, normals):
                self.normals = normals

            def standard_normal(self, shape):
                return self.normals.reshape(shape).copy()

        prob = make_problem("bounded-rotation", omega=1.5, kappa=0.2, sigma=0.4)
        sampler = BemSupFunctionalSampler(prob, [0.1], 1.0, 0.5)
        plan = StreamPlan(13)
        (vals,) = sampler.sample_chunk(plan, 0, 8)
        normals = plan.chunk_stream(0).standard_normal((step_count(0.1, 1.0) * 2, 4))
        for i in range(4):
            assert vals[i] == _mirrored_trajectories(prob, 0.1, 0.5, 1.0, 0.5,
                                                     lambda: Row(normals[:, i]))

    def test_custom_problem_report(self):
        # a problem outside the zoo, with its own exact step, runs alike at any worker count
        reports = [json.dumps(verify_apriori(tanh_well_problem(), CUSTOM_GRID, 0.5, 1.0, 0.5,
                                             5000, StreamPlan(3, workers=w)), sort_keys=True)
                   for w in (1, 2)]
        assert reports[0] == reports[1]
        report = json.loads(reports[1])
        check_report(report)
        assert report["inputs"]["problem"] == "tanh-well"
        assert report["inputs"]["problem_params"] == {}
        assert no_children_left()

    def test_custom_problem_coercivity_checked_before_drawing(self, monkeypatch):
        # L = 0.01 is below |g|^2/2 = 0.045 at the origin; make_problem never saw it
        monkeypatch.setattr(StreamPlan, "chunk_stream", refuse_stream)
        with pytest.raises(ContractViolationError, match="'tanh-well' fails coercivity"):
            verify_apriori(tanh_well_problem(L=0.01), CUSTOM_GRID, 0.5, 1.0, 0.5, 5000,
                           StreamPlan(3, workers=2))

    def test_unsteppable_problem_rejected_before_any_chunk(self, monkeypatch, pools):
        # a coercive planar problem that is not the zoo's rotation has no stepper
        prob = SdeProblem(label="planar", drift=lambda x: -x,
                          diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
                          x0=np.array([1.0, 0.0]), L=0.5)
        monkeypatch.setattr(StreamPlan, "chunk_stream", refuse_stream)
        with pytest.raises(ContractViolationError, match="'planar' has d = 2 and m = 1"):
            verify_apriori(prob, CUSTOM_GRID, 0.5, 1.0, 0.5, POOL_N, StreamPlan(3, workers=2))
        assert pools == [] and no_children_left()


_FINITE = st.floats(min_value=-20.0, max_value=20.0)


def _zoo_params(label):
    """Finite parameters for a zoo problem: each one drawn or left at its
    default, x0 a number or a list (a tuple or a list where the default is
    a tuple), L left to the factory or given, negative values included."""
    fields = {}
    for name, default in zoo_parameters()[label].items():
        if isinstance(default, tuple):
            value = st.lists(_FINITE, min_size=len(default), max_size=len(default))
            value = value | value.map(tuple)
        elif name == "x0":
            value = _FINITE | st.lists(_FINITE, min_size=1, max_size=1)
        else:
            value = _FINITE
        fields[name] = value
    return st.fixed_dictionaries({}, optional=fields)


@pytest.mark.parametrize("label", zoo_labels())
@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_zoo_problem_round_trips_and_matches_its_trajectory(label, data):
    """make_problem rejects a parameter set or builds a problem whose spec
    holds x0 as a tuple exactly for a planar problem, and whose one-pair
    chunk is its trajectory and its mirror's and survives pickling the
    problem."""
    import pickle

    params = data.draw(_zoo_params(label))
    try:
        prob = make_problem(label, **params)
    except ContractViolationError:
        return
    spec = prob.zoo_spec[1]
    copy = pickle.loads(pickle.dumps(prob))
    assert copy.zoo_spec == prob.zoo_spec
    assert set(spec) == set(zoo_parameters()[label]) and spec["L"] == prob.L
    assert isinstance(spec["x0"], tuple) == (prob.d == 2)
    h0 = 0.999 * 0.5 / max(prob.L, 1.0)
    plan = StreamPlan(5)
    ((chunk,),) = BemSupFunctionalSampler(prob, [h0 / 2], 2 * h0, 0.5).sample_chunk(plan, 0, 2)
    assert chunk == _mirrored_trajectories(prob, h0 / 2, h0, 2 * h0, 0.5,
                                           lambda: plan.chunk_stream(0))
    # the zoo's f, g and step pickle by reference, so a loaded problem steps the same bits
    ((again,),) = BemSupFunctionalSampler(copy, [h0 / 2], 2 * h0, 0.5).sample_chunk(plan, 0, 2)
    assert again == chunk


# Zoo problems for the trajectory-sampler match; a zoo label not named here
# runs at its defaults, so every registered problem is covered.
MATCH_CASES = [
    ("ginzburg-landau", {"sigma": 0.3}),
    ("linear", {"lam": 1.3, "sigma": 0.7}),
    ("ginzburg-landau", {"sigma": 2.0, "L": 3.0, "x0": 1e6}),
    ("bounded-rotation", {}),
    ("bounded-rotation", {"omega": 1.5, "kappa": 0.2, "sigma": 0.4}),
    ("bounded-rotation", {"x0": (0.3, -2.0), "sigma": 2.0, "L": 4.0}),
]
MATCH_CASES += [(label, {}) for label in zoo_labels()
                if label not in {named for named, _ in MATCH_CASES}]


def _mirrored_trajectories(prob, h, h0, T, p, stream_of):
    """The pair mean of the trajectories on a stream and on its negation."""
    path, mirror = (simulate_trajectory(prob, h, h0, T, [p], stream).sup_functional_p[p]
                    for stream in (stream_of(), NegatedStream(stream_of())))
    return pair_means(np.array([path, mirror]))[0]


class TestSamplerMatchesTrajectory:
    """Every zoo problem takes the same implicit steps in one trajectory as
    in a chunk of the sampler: a chunk of one path and its mirror (one
    antithetic pair) is, bit for bit, the mean of the trajectory on the
    chunk stream and of the one on that stream negated."""

    @pytest.mark.parametrize("label, params", MATCH_CASES)
    @pytest.mark.parametrize("h", [0.1, 0.07, 0.015625])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_one_path_chunk_bit_identical(self, label, params, h, p):
        prob = make_problem(label, **params)
        h0 = 0.999 * 0.5 / max(prob.L, 4.0)
        sampler = BemSupFunctionalSampler(prob, [h], 1.0, p)
        plan = StreamPlan(7)
        for c in range(10):
            ((pair,),) = sampler.sample_chunk(plan, c, 2)
            assert pair == _mirrored_trajectories(prob, h, h0, 1.0, p,
                                                  lambda: plan.chunk_stream(c))


class TestRotationMatchesOracle:
    """A lone step size's rotation column equals the former (count, 2)
    loop bit for bit. The damped problem has a != 1, which the kappa = 0
    golden never exercises."""

    @pytest.mark.parametrize("params", [
        {},
        {"omega": 1.5, "kappa": 0.2, "sigma": 0.4},
        {"sigma": 0.0, "x0": (0.3, -2.0)},
    ], ids=["defaults", "damped", "noiseless"])
    @pytest.mark.parametrize("h", [0.125, 0.0625, 0.03125, 0.015625, 0.01])
    def test_bit_identical(self, params, h):
        prob = make_problem("bounded-rotation", **params)
        sampler = BemSupFunctionalSampler(prob, [h], 1.0, 0.5)
        for seed in (0, 7):
            plan = StreamPlan(seed)
            for count in (2, 4, 4094, 4096):
                expected = per_row_sample_chunk(prob, plan, 0, count, h, step_count(h, 1.0), 0.5)
                assert np.array_equal(sampler.sample_chunk(plan, 0, count)[0], expected)


ONE_PASS_PROBLEMS = {
    "ginzburg-landau": ("ginzburg-landau", {"sigma": 0.5}),
    "linear": ("linear", {"lam": 1.3, "sigma": 0.7}),
    "rotation": ("bounded-rotation", {}),
    "rotation-damped": ("bounded-rotation", {"omega": 1.5, "kappa": 0.2, "sigma": 0.4}),
}
# the workload grid given out of order, and a grid nested by factors 2 and 4
UNSORTED_GRID = (0.03125, 0.125, 0.015625, 0.0625)
MIXED_GRID = (0.125, 0.015625, 0.03125)


def _summed(d_w, ratio):
    """Each run of `ratio` increments along axis 1, added left to right."""
    blocks = d_w.reshape(d_w.shape[0], d_w.shape[1] // ratio, ratio, d_w.shape[2])
    return functools.reduce(operator.add, (blocks[:, :, m] for m in range(ratio)))


class TestOnePassMatchesOracle:
    """Every column of the one-pass sampler against the former per-row
    sampler: the finest draws and steps exactly as a lone step size did,
    and each coarser column steps the sums of the next finer increments."""

    @pytest.mark.parametrize("name", ONE_PASS_PROBLEMS)
    @pytest.mark.parametrize("grid", [UNSORTED_GRID, MIXED_GRID], ids=["unsorted", "mixed"])
    def test_columns_bit_identical(self, name, grid):
        label, params = ONE_PASS_PROBLEMS[name]
        prob = make_problem(label, **params)
        sampler = BemSupFunctionalSampler(prob, grid, 1.0, 0.5)
        n_steps = [step_count(h, 1.0) for h in grid]
        order = sorted(range(len(grid)), key=grid.__getitem__)
        finest = order[0]
        for seed in (0, 7):
            plan = StreamPlan(seed)
            for count in (2, 4, 4094, 4096):
                columns = sampler.sample_chunk(plan, 0, count)
                assert columns.shape == (len(grid), count // 2)
                d_w = per_row_increments(plan, 0, count, grid[finest], n_steps[finest], prob.d)
                assert np.array_equal(columns[order[0]],
                                      per_row_sample_chunk(prob, plan, 0, count, grid[finest],
                                                           n_steps[finest], 0.5))
                for finer, k in zip(order, order[1:]):
                    d_w = _summed(d_w, n_steps[finer] // n_steps[k])
                    assert np.array_equal(columns[k],
                                          pair_means(per_row_sup(prob, d_w, grid[k], 0.5)))

    def test_non_nested_grid_draws_once_on_the_union(self):
        # 0.25 is no multiple of the float 0.03: the union has 5 + 34 - 1 points, and
        # the grids share no point but 0, so the chunk is one block
        roots, columns, blocks = mc._increment_blocks((0.25, 0.03), (4, 33), 1)
        assert roots.shape == (37,) and columns == [1, 0]
        ((lo, hi, levels),) = blocks
        assert (lo, hi) == (0, 37) and [from_union for from_union, _, _ in levels] == [True, True]
        prob = make_problem("ginzburg-landau", sigma=0.5)
        hs = (0.25, 0.03)
        sampler = BemSupFunctionalSampler(prob, hs, 1.0, 0.5)
        plan = StreamPlan(3)
        chunk = sampler.sample_chunk(plan, 0, 64)
        union = (antithetic_normals(plan.chunk_stream(0), 37, 64) * roots[:, None]).T[:, :, None]
        for column, (_, _, bounds) in zip(columns, levels):
            # the same sums, up to the order of the additions
            d_w = np.stack([union[:, lo:hi].sum(axis=1) for lo, hi in zip(bounds, bounds[1:])],
                           axis=1)
            assert np.allclose(chunk[column], pair_means(per_row_sup(prob, d_w, hs[column], 0.5)),
                               rtol=1e-13, atol=0.0)


class TestSumSteps:
    """A nested coarser level's increments are the sums of its source's,
    added left to right into the leading steps of a C-ordered buffer."""

    @pytest.mark.parametrize("stride", [2, 4, 8])
    @pytest.mark.parametrize("steps", [1, 3, 24, 64])
    def test_equals_summed(self, stride, steps):
        src = np.random.default_rng(stride * steps).standard_normal((steps * stride, 2, 5))
        expected = _summed(src.transpose(2, 0, 1), stride).transpose(1, 2, 0)
        buffer = np.full((steps + 2, 2, 5), np.nan)
        summed = mc._sum_steps(src, stride, list(range(0, steps * stride + 1, stride)), buffer)
        assert summed.flags.c_contiguous and np.shares_memory(summed, buffer)
        assert np.array_equal(summed, expected) and np.isnan(buffer[steps:]).all()

    @pytest.mark.parametrize("name", ONE_PASS_PROBLEMS)
    def test_from_union_level_after_a_nested_one(self, name):
        # 1/128 is the union, 2/128 is nested in it, and 3/128 is not in the 2/128
        # grid: it sums the union, block by block, after the 2/128 level has stepped
        label, params = ONE_PASS_PROBLEMS[name]
        prob = make_problem(label, **params)
        hs = (3 / 128, 1 / 128, 2 / 128)
        sampler = BemSupFunctionalSampler(prob, hs, 0.75, 0.5)
        _, columns, blocks = mc._increment_blocks(sampler.hs, sampler.n_steps, prob.d)
        # the grids share every sixth point of the union: 16 blocks of 6 union steps
        assert columns == [1, 2, 0] and len(blocks) == 16
        assert all((hi - lo) == 6 * prob.d for lo, hi, _ in blocks)
        assert [(from_union, stride) for from_union, stride, _ in blocks[0][2]] == [
            (True, 1), (False, 2), (True, 3)]
        plan = StreamPlan(5)
        for count in (2, 64):
            chunk = sampler.sample_chunk(plan, 0, count)
            union = per_row_increments(plan, 0, count, 1 / 128, 96, prob.d)
            for column, stride in zip(columns, (1, 2, 3)):
                d_w = _summed(union, stride) if stride > 1 else union
                assert np.array_equal(chunk[column],
                                      pair_means(per_row_sup(prob, d_w, hs[column], 0.5)))


# (step sizes, T) of the streamed chunks checked against the whole-union one:
# the benchmark's grid, a wide dyadic grid, grids that share no point but 0,
# one nested by factors 2 and 3, and one whose grids end at different points
STREAMED_GRIDS = {
    "benchmark": ((0.125, 0.0625, 0.03125, 0.015625), 1.0),
    "dyadic-8-to-1024": (tuple(2.0**-k for k in range(3, 11)), 1.0),
    "non-nested": ((0.25, 0.03), 1.0),
    "decimal": ((0.1, 0.01), 1.0),
    "mixed": ((3 / 128, 1 / 128, 2 / 128), 0.75),
    "uneven-ends": ((0.25, 0.125, 0.03125), 0.9),
}


class TestStreamedMatchesWholeUnion:
    """A chunk stepped one block at a time equals, bit for bit, the
    former chunk that drew and stepped the whole union at once."""

    @pytest.mark.parametrize("name", ONE_PASS_PROBLEMS)
    @pytest.mark.parametrize("grid", STREAMED_GRIDS)
    def test_columns_bit_identical(self, name, grid):
        label, params = ONE_PASS_PROBLEMS[name]
        hs, T = STREAMED_GRIDS[grid]
        sampler = BemSupFunctionalSampler(make_problem(label, **params), hs, T, 0.5)
        for seed in (0, 7):
            plan = StreamPlan(seed)
            for count in (2, 4, 4094, 4096):
                assert np.array_equal(sampler.sample_chunk(plan, 1, count),
                                      whole_union_sample_chunk(sampler, plan, 1, count))

    @pytest.mark.parametrize("grid, sizes", [
        ("benchmark", [8] * 8),
        ("dyadic-8-to-1024", [128] * 8),
        ("non-nested", [37]),
        ("decimal", [110]),
        ("uneven-ends", [8, 8, 8, 4]),
    ])
    def test_blocks_end_at_the_shared_points(self, grid, sizes):
        hs, T = STREAMED_GRIDS[grid]
        n_steps = tuple(step_count(h, T) for h in hs)
        _, _, blocks = mc._increment_blocks(hs, n_steps, 2)
        assert [(hi - lo) // 2 for lo, hi, _ in blocks] == sizes
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        if grid == "uneven-ends":
            # the 0.25 grid ends at 0.75: it has no step in the last block
            assert [len(bounds) - 1 for _, _, bounds in blocks[-1][2]] == [4, 1, 0]


class TestScalarPathFailingInALaterBlock:
    """A scalar path that fails is NaN, which later blocks carry and count
    at no step, and the blocks' step counts and failures sum to those of
    one whole run."""

    def test_carried_as_nan_after_its_block(self, monkeypatch):
        from stochastic_gronwall.sde import ScalarPaths, SdeProblem

        def drift(x):
            """f(x) = -x, NaN beyond |x| = 5: a path fails where an increment pushes it there."""
            return np.where(np.abs(x) > 5.0, np.nan, -x)

        def solve(h, b):
            z = b / (1.0 + h)
            return np.where(np.abs(z) > 5.0, np.nan, z)

        problem = SdeProblem("nan-beyond-5", drift, lambda x: np.ones(np.shape(x) + (1,)), 1.0, 1.0,
                             solve=solve)
        h, count = 0.1, 6
        d_w = StreamPlan(24).chunk_stream(0).standard_normal((12, 1, count)) * 0.1
        d_w[6, 0, 2] = 10.0  # path 2 fails at step 7, in the second of three blocks
        d_w[1, 0, 4] = 10.0  # path 4 fails in the first
        calls = []
        batch = kernels.bem_scalar_batch

        def recorded(*args):
            states, iters, failed = batch(*args)
            calls.append((np.broadcast_to(args[2], count).copy(), args[4].copy(), states.copy(),
                          iters, failed))
            return states, iters, failed

        monkeypatch.setattr(kernels, "bem_scalar_batch", recorded)
        paths = ScalarPaths(problem, h, count)
        for lo in (0, 4, 8):
            paths.step(d_w[lo:lo + 4])
        sup = paths.sup(0.5)
        monkeypatch.undo()

        # every call steps all 6 paths; a path that failed in an earlier block arrives
        # as NaN, stays NaN, counts at no step and is not failed again
        arrived_nan, failed_in = [[], [4], [2, 4]], [[4], [2], []]
        for (x0, got, states, iters, failed), nan, fails, lo in zip(
                calls, arrived_nan, failed_in, (0, 4, 8)):
            assert np.array_equal(got, d_w[lo:lo + 4, 0])
            assert np.flatnonzero(np.isnan(x0)).tolist() == nan
            assert np.isnan(states[:, nan]).all()
            assert np.flatnonzero(failed).tolist() == fails
            rest = [i for i in range(count) if i not in nan]
            _, rest_iters, _ = batch(problem.solve, problem.diffusion, x0[rest], h, got[:, rest])
            assert np.array_equal(iters, rest_iters)
        states, iters, failed = batch(problem.solve, problem.diffusion, 1.0, h, d_w[:, 0])
        assert np.flatnonzero(failed).tolist() == [2, 4]
        assert np.flatnonzero(np.isnan(sup)).tolist() == [2, 4]
        expected = np.nanmax(h * states * states + states * states, axis=0) ** 0.5
        assert np.array_equal(sup[~failed], expected[~failed])
        assert sum(call[3].sum() for call in calls) == iters.sum()
        assert sum(call[4].sum() for call in calls) == failed.sum() == 2


def test_rotation_chunk_holds_one_block_of_increments():
    # the benchmark's grid: a 4096-path chunk draws 8 blocks of 8 fine steps, and
    # holds one of them, its coarser sums and a few path-sized rows per level; the
    # union of all 64 steps alone would be 8 blocks
    prob = make_problem("bounded-rotation", sigma=0.5)
    hs = (0.125, 0.0625, 0.03125, 0.015625)
    peak = chunk_peak(BemSupFunctionalSampler(prob, hs, 1.0, 0.5))
    assert peak <= 4 * 8 * 2 * CHUNK_SIZE * 8, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("label", ["ginzburg-landau", "bounded-rotation"])
def test_wide_grid_chunk_peaks_at_a_few_blocks(label):
    # 1/8..1/1024: 8 blocks of 128 fine steps; the whole union held at once peaked at
    # 24 blocks (Ginzburg-Landau) and 8 (rotation)
    prob = make_problem(label, sigma=0.5)
    hs = [2.0**-k for k in range(3, 11)]
    peak = chunk_peak(BemSupFunctionalSampler(prob, hs, 1.0, 0.5))
    assert peak <= 5 * 128 * prob.d * CHUNK_SIZE * 8, f"peak {peak / 2**20:.2f} MiB"


def test_later_chunks_reuse_the_block_buffer():
    # block arrays allocated per chunk go back to the system at the chunk's end and
    # are faulted in again by the next chunk, so the sampler keeps one buffer
    prob = make_problem("bounded-rotation", sigma=0.5)
    hs = (0.125, 0.0625, 0.03125, 0.015625)
    sampler, plan = BemSupFunctionalSampler(prob, hs, 1.0, 0.5), StreamPlan(1)
    sampler.sample_chunk(plan, 0, CHUNK_SIZE)
    buffer = sampler._scratch
    # a block's 16 rows of normals for half the paths, its 16 rows of increments
    # and mirrors, and the 4 + 2 + 1 steps of the summed levels
    assert buffer.nbytes == (8 + 16 + 2 * 7) * CHUNK_SIZE * 8
    tracemalloc.start()
    try:
        for c in (1, 2):
            sampler.sample_chunk(plan, c, CHUNK_SIZE)
            sampler.sample_chunk(plan, c, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampler._scratch is buffer and peak < buffer.nbytes


class TestCoupling:
    """The rows of a grid share their Brownian paths, so the coarsest and
    finest columns move together: independent draws would give a
    difference variance near var(coarsest) + var(finest)."""

    @pytest.mark.parametrize("label", ["ginzburg-landau", "bounded-rotation"])
    def test_coarsest_minus_finest_variance(self, label):
        prob = make_problem(label, sigma=0.5)
        grid = (0.125, 0.0625, 0.03125, 0.015625)
        sampler = BemSupFunctionalSampler(prob, grid, 1.0, 0.5)
        columns = sampler.sample_chunk(StreamPlan(11), 0, 4096)
        coarsest, finest = columns[0], columns[-1]
        assert np.var(coarsest - finest, ddof=1) <= 0.25 * (
            np.var(coarsest, ddof=1) + np.var(finest, ddof=1))


class TestAntitheticPairs:
    """A verify apriori row is the mean and standard error of the pair
    means that the chunks return: paths come in antithetic pairs, n/2
    of them, and ``n_samples`` still counts paths."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("label", ["ginzburg-landau", "bounded-rotation"])
    def test_rows_are_those_of_the_raw_pair_means(self, label, workers):
        prob, n = make_problem(label, sigma=0.5), 2 * CHUNK_SIZE  # two chunks
        report = verify_apriori(prob, GL_GRID, 0.25, 1.0, 0.5, n, StreamPlan(9, workers=workers))
        sampler = BemSupFunctionalSampler(prob, GL_GRID, 1.0, 0.5)
        means = np.concatenate([sampler.sample_chunk(StreamPlan(9), c, CHUNK_SIZE)
                                for c in (0, 1)], axis=1)
        assert means.shape == (len(GL_GRID), n // 2)
        for row, values in zip(report["rows"], means):
            mean = math.fsum(values) / values.size
            variance = math.fsum((values - mean) ** 2) / (values.size - 1)
            assert row["n_samples"] == n
            assert row["mean"] == pytest.approx(mean, rel=1e-13)
            assert row["std_error"] == pytest.approx(math.sqrt(variance / values.size), rel=1e-10)
        assert report["inputs"]["increments"] == "antithetic pairs"
        assert no_children_left()

    @pytest.mark.parametrize("count", [0, 1, 3, 4095])
    def test_a_chunk_of_unpaired_paths_is_a_contract_violation(self, count):
        sampler = BemSupFunctionalSampler(make_problem("linear"), [0.125], 1.0, 0.5)
        with pytest.raises(ContractViolationError, match=f"must be even and positive; got {count}"):
            sampler.sample_chunk(StreamPlan(0), 0, count)

    @pytest.mark.parametrize("n", [2, 3, 9001])
    def test_unpaired_or_single_pair_count_rejected_before_drawing(self, monkeypatch, n):
        monkeypatch.setattr(StreamPlan, "chunk_stream", refuse_stream)
        with pytest.raises(ContractViolationError, match=f"even and at least 4 .*; got {n}"):
            verify_apriori(make_problem("linear"), GL_GRID, 0.25, 1.0, 0.5, n, StreamPlan(0))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sups_in_place_of_pair_means_are_a_contract_violation(self, monkeypatch, workers):
        # chunks that return every path's sup hold n samples, where verify apriori
        # estimates from n/2 pair means
        def every_sup(self, plan, chunk_index, count):
            return np.array([per_row_sup(self.problem, per_row_increments(
                plan, chunk_index, count, h, n_steps, self.problem.d), h, self.p)
                for h, n_steps in zip(self.hs, self.n_steps)])

        monkeypatch.setattr(BemSupFunctionalSampler, "sample_chunk", every_sup)
        n = 2 * CHUNK_SIZE  # two chunks
        with pytest.raises(ContractViolationError, match=f"hold {n} samples, not the {n // 2} "):
            verify_apriori(make_problem("linear"), GL_GRID, 0.25, 1.0, 0.5, n,
                           StreamPlan(0, workers=workers))
        assert no_children_left()

    def test_chunks_short_of_n_values_are_a_contract_violation(self):
        with pytest.raises(ContractViolationError, match="hold 4 samples, not the 5 requested"):
            estimate_expectation([(4, 1.0, 2.0)], 5)
        assert estimate_expectation([(5, 1.0, 2.0)], 5).n_samples == 5


class TestWorkLimit:
    def test_limit_checked_before_the_union_is_listed(self):
        # a 1e-12 step would list 1e12 time points; the bound needs none
        prob = make_problem("linear")
        with pytest.raises(ContractViolationError, match="Brownian increments"):
            BemSupFunctionalSampler(prob, (0.125, 1e-12), 1.0, 0.5)

    @pytest.mark.parametrize("label, d", [("linear", 1), ("bounded-rotation", 2)])
    def test_limit_is_inclusive(self, label, d):
        prob = make_problem(label)
        steps = mc.MAX_CHUNK_VALUES // (CHUNK_SIZE * d)
        BemSupFunctionalSampler(prob, [1.0 / steps], 1.0, 0.5)
        with pytest.raises(ContractViolationError, match="Brownian increments"):
            BemSupFunctionalSampler(prob, [1.0 / (steps + 1)], 1.0, 0.5)

    def test_synthetic_horizon_limit_is_inclusive(self):
        horizon = mc.MAX_CHUNK_VALUES // CHUNK_SIZE - 1
        assert len(standard_synthetic_systems(horizon)[0].f_values) == horizon + 1
        with pytest.raises(ContractViolationError, match="values for one chunk"):
            standard_synthetic_systems(horizon + 1)

    def test_custom_synthetic_system_over_the_limit_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(StreamPlan, "chunk_stream", refuse_stream)
        horizon = mc.MAX_CHUNK_VALUES // CHUNK_SIZE
        steps = range(horizon + 1)
        long = SyntheticSystem("long", tuple(float(n + 1) for n in steps), (0.0,) * (horizon + 1),
                               "pm1-walk")
        with pytest.raises(ContractViolationError, match="values for one chunk"):
            verify_theorem_on_synthetic([long], 0.5, 100, StreamPlan(0))
        # one step shorter is within the limit
        SyntheticSupXpSampler((SyntheticSystem("short", long.f_values[:-1],
                                               long.g_values[:-1], "pm1-walk"),), 0.5)

    @pytest.mark.parametrize("label, width", [("linear", 1), ("bounded-rotation", 2)])
    def test_trajectory_limit_checked_before_drawing(self, label, width):
        class Undrawn:
            def standard_normal(self, shape):
                raise LookupError(shape)

        prob = make_problem(label)
        h = 2.0**-25 * width
        # a horizon of exactly the limit passes the check and reaches the draw
        with pytest.raises(LookupError):
            simulate_trajectory(prob, h, 0.25, 1.0, [], Undrawn())
        with pytest.raises(ContractViolationError, match="values for one trajectory"):
            simulate_trajectory(prob, h, 0.25, 1.0 + h, [], Undrawn())


class TestZMartingaleBuckets:
    def test_conditional_mean_zero_by_bucket(self):
        # Z^{j+1} must be centered given the current state; bucket the
        # (state, noise scale) pairs and demand |mean| <= 4 SE per bucket
        from stochastic_gronwall import kernels

        prob = make_problem("ginzburg-landau", sigma=0.5)
        h = 0.125
        plan = StreamPlan(55)
        stream = plan.chunk_stream(0)
        n_paths, n_steps = 40_000, 8
        d_w = stream.standard_normal((n_paths, n_steps)) * math.sqrt(h)
        states, _, failed = kernels.bem_scalar_batch(prob.solve, prob.diffusion, 1.0, h, d_w.T)
        states = states.T
        assert not failed.any()
        y = states[:, :-1].ravel()
        noise = 0.5 * states[:, :-1] * d_w
        z = (noise**2 - h * (0.5 * states[:, :-1]) ** 2 + 2 * noise * states[:, :-1]).ravel()
        edges = np.quantile(y, np.linspace(0, 1, 9))
        idx = np.clip(np.searchsorted(edges, y, side="right") - 1, 0, 7)
        for b in range(8):
            sel = idx == b
            if sel.sum() < 1000:
                continue
            zb = z[sel]
            se = zb.std(ddof=1) / math.sqrt(sel.sum())
            assert abs(zb.mean()) <= 4 * se
