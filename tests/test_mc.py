import functools
import json
import math
import operator
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import per_row_increments, per_row_sample_chunk, per_row_sup

from stochastic_gronwall import mc
from stochastic_gronwall.errors import ContractViolationError, EstimateAbortedError
from stochastic_gronwall.martingales import _freeze_paths, walk_functional_expectations
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
from stochastic_gronwall.sde import BemConfig, make_problem, simulate_trajectory
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
            _freeze_paths(paths, self.stop_level)
        return paths.max(axis=1) ** self.p


@dataclass(frozen=True)
class FlakySampler:
    """Returns NaN for a fixed fraction of each chunk."""

    fail_every: int

    def sample_chunk(self, plan, chunk_index, count):
        vals = np.ones(count)
        vals[:: self.fail_every] = np.nan
        return vals


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


def test_pool_class_is_a_lazy_module_attribute():
    from concurrent.futures import ProcessPoolExecutor

    assert mc.ProcessPoolExecutor is ProcessPoolExecutor
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

    def test_failure_threshold_aborts(self):
        with pytest.raises(EstimateAbortedError) as info:
            estimate(FlakySampler(10), 1000, StreamPlan(0))
        assert info.value.n_failures == 100

    def test_failure_threshold_tolerates(self):
        est = estimate(
            FlakySampler(10), 1000, StreamPlan(0), fail_threshold=0.2
        )
        assert est.n_failures == 100
        assert est.n_samples == 900
        assert est.mean == 1.0

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
        # Monte Carlo E[(sup M)^p] against the exact enumeration oracle
        for n, p, stop in [(8, 0.5, None), (12, 0.25, None), (10, 0.5, -1.0)]:
            exact = walk_functional_expectations(n, [p], stop_level=stop).e_sup_p[p]
            est = estimate(
                WalkSupPowerSampler(n, p, stop), 100_000, StreamPlan(77)
            )
            assert abs(est.mean - exact) <= 4 * est.std_error

    def test_sup_power_sampler_heavy_tail_mean(self):
        est = estimate(SupStoppedBmPowerSampler(0.5), 400_000, StreamPlan(5))
        assert abs(est.mean - math.pi / 2) <= 4 * est.std_error


# 9000 samples are three chunks, the last one short.
POOL_N = 9000
GL_GRID = [BemConfig(h=h, h0=0.25, T=1.0) for h in (0.125, 0.0625, 0.03125, 0.015625)]


def _reports(workers):
    """The apriori (4 rows) and theorem (3 systems) reports at a worker count."""
    plan = StreamPlan(5, workers=workers)
    apriori = verify_apriori(make_problem("ginzburg-landau", sigma=0.5), GL_GRID, 0.5,
                             POOL_N, plan)
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
        assert multiprocessing.active_children() == []

    def test_failing_middle_row_aborts_alike(self, monkeypatch):
        sample_chunk = BemSupFunctionalSampler.sample_chunk

        def fail_half_of_one_row(self, plan, chunk_index, count):
            vals = sample_chunk(self, plan, chunk_index, count)
            vals[self.hs.index(0.0625), ::2] = np.nan
            return vals

        monkeypatch.setattr(BemSupFunctionalSampler, "sample_chunk", fail_half_of_one_row)
        messages = []
        for workers in (1, 2):
            with pytest.raises(EstimateAbortedError) as info:
                verify_apriori(make_problem("ginzburg-landau", sigma=0.5), GL_GRID, 0.5,
                               POOL_N, StreamPlan(5, workers=workers))
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "4500 of 9000 samples failed (threshold 0.0)"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("chunks", [(0,), (2,)])
    def test_contract_violation_surfaces_from_any_process(self, chunks):
        # at two workers the caller works chunk 0 and the child chunks 1 and 2
        plan = StreamPlan(0, workers=2)
        with pytest.raises(ContractViolationError, match=f"chunk {chunks[0]} failed") as info:
            estimate(RaisingSampler(chunks), POOL_N, plan)
        in_caller = f"pid {os.getpid()}" in str(info.value)
        assert in_caller == (chunks == (0,))
        assert multiprocessing.active_children() == []


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
        cfgs = [BemConfig(h=h, h0=0.4, T=1.0) for h in (0.2, 0.025)]
        report = verify_apriori(prob, cfgs, 0.5, 500, StreamPlan(0))
        assert report["all_passed"]
        # deterministic decay: the functional is 1 at j = 0 on every path
        for row in report["rows"]:
            assert row["mean"] == 1.0
            assert row["degenerate_flag"]
        assert report["bound"] > 1.0

    def test_ginzburg_landau_small(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)
        cfgs = [BemConfig(h=h, h0=0.25, T=1.0) for h in (0.125, 0.125 / 8)]
        report = verify_apriori(prob, cfgs, 0.5, 4000, StreamPlan(7))
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
            verify_apriori(
                prob,
                [BemConfig(h=0.125, h0=0.25, T=1.0), BemConfig(h=0.0625, h0=0.25, T=1.0)],
                0.5,
                100,
                StreamPlan(0),
            )
        with pytest.raises(ContractViolationError, match="share h0"):
            verify_apriori(
                prob,
                [BemConfig(h=0.125, h0=0.25, T=1.0), BemConfig(h=0.0125, h0=0.2, T=1.0)],
                0.5,
                100,
                StreamPlan(0),
            )

    def test_h0_constraint_checked(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)  # L = 1.125
        with pytest.raises(ContractViolationError, match="2\\*h0\\*L"):
            verify_apriori(
                prob, [BemConfig(h=0.1, h0=0.5, T=1.0)], 0.5, 100, StreamPlan(0)
            )

    def test_rotation_batch_matches_trajectory(self):
        # the closed-form batch stepper agrees with the generic solver
        prob = make_problem("bounded-rotation", omega=1.5, kappa=0.2, sigma=0.4)
        cfg = BemConfig(h=0.1, h0=0.5, T=1.0)
        sampler = BemSupFunctionalSampler.for_problem(prob, [cfg], 0.5)
        plan = StreamPlan(13)
        (vals,) = sampler.sample_chunk(plan, 0, 8)
        stream = plan.chunk_stream(0)
        d_w = stream.standard_normal((8, cfg.n_steps, 2)) * math.sqrt(cfg.h)
        for i in range(8):
            y = prob.x0.copy()
            best = float(y @ y) + cfg.h * 2 * 0.4**2
            for j in range(cfg.n_steps):
                y, _ = simulate_step(prob, y, d_w[i, j], cfg)
                best = max(best, float(y @ y) + cfg.h * 2 * 0.4**2)
            assert vals[i] == pytest.approx(best**0.5, rel=1e-10)

    def test_sampler_builds_problem_once(self, monkeypatch):
        """At most one build per process per zoo spec."""
        import pickle

        from stochastic_gronwall import sde

        monkeypatch.setattr(mc, "_PROBLEMS", {})
        prob = make_problem("ginzburg-landau", sigma=0.5)
        cfg = BemConfig(h=0.125, h0=0.25, T=1.0)
        sampler = BemSupFunctionalSampler.for_problem(prob, [cfg], 0.5)
        calls = []
        build = sde.make_problem
        monkeypatch.setattr(sde, "make_problem", lambda *a, **k: calls.append(a) or build(*a, **k))
        plan = StreamPlan(3)
        first = [sampler.sample_chunk(plan, c, 16) for c in range(3)]
        assert sampler.problem is prob  # the caller's problem is reused
        copy = pickle.loads(pickle.dumps(sampler))  # what a pool worker receives
        assert set(vars(copy)) == {"zoo_label", "zoo_params", "hs", "n_steps", "p"}
        again = [copy.sample_chunk(plan, c, 16) for c in range(3)]
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        # another step size of the same problem is the same spec
        BemSupFunctionalSampler.for_problem(prob, [BemConfig(h=0.0625, h0=0.25, T=1.0)], 0.5)
        assert calls == []

        # a spec this process has not seen is built once, for every copy
        mc._PROBLEMS.clear()
        for _ in range(2):
            pickle.loads(pickle.dumps(sampler)).sample_chunk(plan, 0, 4)
        sampler.sample_chunk(plan, 0, 4)
        assert len(calls) == 1

    def test_batch_requires_zoo_problem(self):
        from stochastic_gronwall.sde import SdeProblem

        prob = SdeProblem(
            label="custom",
            drift=lambda x: -x,
            drift_jacobian=lambda x: np.full(np.shape(x) + (1,), -1.0),
            diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
            x0=np.array([1.0]), L=1.0,
        )
        with pytest.raises(ContractViolationError, match="zoo"):
            BemSupFunctionalSampler.for_problem(prob, [BemConfig(h=0.1, h0=0.4, T=1.0)], 0.5)


class TestSamplerMatchesTrajectory:
    @pytest.mark.parametrize("label, params", [
        ("ginzburg-landau", {"sigma": 0.3}),
        ("linear", {"lam": 1.3, "sigma": 0.7}),
    ])
    @pytest.mark.parametrize("h", [0.1, 0.07])
    @pytest.mark.parametrize("p", [0.3, 0.5])
    def test_one_path_chunk_bit_identical(self, label, params, h, p):
        # the sup functional uses the problem's own g on both routes
        prob = make_problem(label, **params)
        cfg = BemConfig(h=h, h0=0.25, T=1.0)
        sampler = BemSupFunctionalSampler.for_problem(prob, [cfg], p)
        plan = StreamPlan(7)
        for c in range(10):
            traj = simulate_trajectory(prob, cfg, [p], plan.chunk_stream(c))
            assert sampler.sample_chunk(plan, c, 1)[0, 0] == traj.sup_functional_p[p]


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
        cfg = BemConfig(h=h, h0=0.25, T=1.0)
        sampler = BemSupFunctionalSampler.for_problem(prob, [cfg], 0.5)
        for seed in (0, 7):
            plan = StreamPlan(seed)
            for count in (1, 2, 4095, 4096):
                expected = per_row_sample_chunk(prob, plan, 0, count, h, cfg.n_steps, 0.5)
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
        cfgs = [BemConfig(h=h, h0=0.25, T=1.0) for h in grid]
        sampler = BemSupFunctionalSampler.for_problem(prob, cfgs, 0.5)
        order = sorted(range(len(grid)), key=grid.__getitem__)
        finest = cfgs[order[0]]
        for seed in (0, 7):
            plan = StreamPlan(seed)
            for count in (1, 2, 4095, 4096):
                columns = sampler.sample_chunk(plan, 0, count)
                assert columns.shape == (len(grid), count)
                d_w = per_row_increments(plan, 0, count, finest.h, finest.n_steps, prob.d)
                assert np.array_equal(columns[order[0]],
                                      per_row_sample_chunk(prob, plan, 0, count, finest.h,
                                                           finest.n_steps, 0.5))
                for finer, k in zip(order, order[1:]):
                    d_w = _summed(d_w, cfgs[finer].n_steps // cfgs[k].n_steps)
                    assert np.array_equal(columns[k], per_row_sup(prob, d_w, cfgs[k].h, 0.5))

    def test_non_nested_grid_draws_once_on_the_union(self):
        # 0.25 is no multiple of the float 0.03: the union has 5 + 34 - 1 points
        roots, levels = mc._increment_levels((0.25, 0.03), (4, 33), 1)
        assert roots.shape == (37,)
        assert [(column, from_union) for column, from_union, _, _ in levels] == [
            (1, True), (0, True)]
        prob = make_problem("ginzburg-landau", sigma=0.5)
        cfgs = [BemConfig(h=h, h0=0.3, T=1.0) for h in (0.25, 0.03)]
        sampler = BemSupFunctionalSampler.for_problem(prob, cfgs, 0.5)
        plan = StreamPlan(3)
        columns = sampler.sample_chunk(plan, 0, 64)
        union = (plan.chunk_stream(0).standard_normal((64, 37)) * roots)[:, :, None]
        for column, _, _, bounds in levels:
            # the same sums, up to the order of the additions
            d_w = np.stack([union[:, lo:hi].sum(axis=1) for lo, hi in zip(bounds, bounds[1:])],
                           axis=1)
            assert np.allclose(columns[column], per_row_sup(prob, d_w, cfgs[column].h, 0.5),
                               rtol=1e-13, atol=0.0)


class TestCoupling:
    """The rows of a grid share their Brownian paths, so the coarsest and
    finest columns move together: independent draws would give a
    difference variance near var(coarsest) + var(finest)."""

    @pytest.mark.parametrize("label", ["ginzburg-landau", "bounded-rotation"])
    def test_coarsest_minus_finest_variance(self, label):
        prob = make_problem(label, sigma=0.5)
        grid = (0.125, 0.0625, 0.03125, 0.015625)
        sampler = BemSupFunctionalSampler.for_problem(
            prob, [BemConfig(h=h, h0=0.25, T=1.0) for h in grid], 0.5)
        columns = sampler.sample_chunk(StreamPlan(11), 0, 4096)
        coarsest, finest = columns[0], columns[-1]
        assert np.var(coarsest - finest, ddof=1) <= 0.25 * (
            np.var(coarsest, ddof=1) + np.var(finest, ddof=1))


class TestWorkLimit:
    def test_limit_checked_before_the_union_is_listed(self):
        # a 1e-12 step would list 1e12 time points; the bound needs none
        prob = make_problem("linear")
        cfgs = [BemConfig(h=h, h0=0.25, T=1.0) for h in (0.125, 1e-12)]
        with pytest.raises(ContractViolationError, match="Brownian increments"):
            BemSupFunctionalSampler.for_problem(prob, cfgs, 0.5)

    @pytest.mark.parametrize("label, d", [("linear", 1), ("bounded-rotation", 2)])
    def test_limit_is_inclusive(self, label, d):
        prob = make_problem(label)
        steps = mc.MAX_CHUNK_VALUES // (CHUNK_SIZE * d)
        BemSupFunctionalSampler.for_problem(prob, [BemConfig(h=1.0 / steps, h0=0.25, T=1.0)], 0.5)
        with pytest.raises(ContractViolationError, match="Brownian increments"):
            BemSupFunctionalSampler.for_problem(
                prob, [BemConfig(h=1.0 / (steps + 1), h0=0.25, T=1.0)], 0.5)

    def test_synthetic_horizon_limit_is_inclusive(self):
        horizon = mc.MAX_CHUNK_VALUES // CHUNK_SIZE - 1
        assert len(standard_synthetic_systems(horizon)[0].f_values) == horizon + 1
        with pytest.raises(ContractViolationError, match="values for one chunk"):
            standard_synthetic_systems(horizon + 1)

    @pytest.mark.parametrize("label, width", [("linear", 1), ("bounded-rotation", 2)])
    def test_trajectory_limit_checked_before_drawing(self, label, width):
        class Undrawn:
            def standard_normal(self, shape):
                raise LookupError(shape)

        prob = make_problem(label)
        h = 2.0**-25 * width
        # a horizon of exactly the limit passes the check and reaches the draw
        with pytest.raises(LookupError):
            simulate_trajectory(prob, BemConfig(h=h, h0=0.25, T=1.0), [], Undrawn())
        with pytest.raises(ContractViolationError, match="values for one trajectory"):
            simulate_trajectory(prob, BemConfig(h=h, h0=0.25, T=1.0 + h), [], Undrawn())


def simulate_step(prob, y, d_w, cfg):
    from stochastic_gronwall.sde import bem_step

    return bem_step(prob, y, d_w, cfg.h)


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
        states, _, failed = kernels.bem_scalar_batch(
            prob.drift, prob.drift_jacobian, prob.diffusion, 1.0, d_w, h
        )
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
