import math
import tracemalloc
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from oracles import (
    enumerate_sign_walks,
    exact_walk_expectations,
    freeze_paths,
    sign_walk_expectations,
)
from stochastic_gronwall import martingales
from stochastic_gronwall.errors import ContractViolationError
from stochastic_gronwall.martingales import (
    lemma_bound_ratio,
    remark_constants,
    sample_sup_stopped_bm_exact_batch,
    walk_functional_expectations,
)
from stochastic_gronwall.streams import CHUNK_SIZE, MAX_CHUNK_VALUES, StreamPlan


def gen_stopped_random_walk(
    steps: int, stop_level: float, rng_stream: np.random.Generator
) -> np.ndarray:
    """Symmetric +-1 walk (0 included) frozen at its first visit <= stop_level.

    ``stop_level`` must be negative; pass ``-math.inf`` for a plain
    (never stopped) walk.
    """
    if steps < 0:
        raise ContractViolationError(f"steps must be >= 0, got {steps}")
    if not stop_level < 0.0:
        raise ContractViolationError(f"stop_level must be < 0, got {stop_level}")
    vals = np.zeros((1, steps + 1))
    if steps:
        signs = rng_stream.integers(0, 2, size=steps).astype(np.float64) * 2.0 - 1.0
        vals[0, 1:] = np.cumsum(signs)
        if stop_level > -math.inf:
            freeze_paths(vals, stop_level)
    return vals[0]


def walk_conditional_increment_bias(n: int, stop_level: float | None = None) -> float:
    """Largest |E[M_{k+1} - M_k | prefix]| over all k and prefixes.

    Exact enumeration check of the martingale property of (stopped)
    sign walks; zero up to rounding.
    """
    paths = enumerate_sign_walks(n, stop_level)
    worst = 0.0
    for k in range(n):
        increments = paths[:, k + 1] - paths[:, k]
        _, inverse = np.unique(paths[:, : k + 1], axis=0, return_inverse=True)
        sums = np.bincount(inverse, weights=increments)
        counts = np.bincount(inverse)
        worst = max(worst, float(np.max(np.abs(sums / counts))))
    return worst


class StoppedBmBatch(NamedTuple):
    sup: np.ndarray
    neg_inf: np.ndarray
    final: np.ndarray
    truncated_fraction: float


def stopped_bm_batch_functionals(
    h: float,
    t_max: float,
    rng_stream: np.random.Generator,
    n_paths: int,
    block_steps: int = 1024,
) -> StoppedBmBatch:
    """Sup, -inf, and final value for a batch of stopped-BM paths.

    Steps all still-active paths in blocks and freezes rows as they
    cross -1, so memory stays bounded by the block size. The truncated
    fraction counts paths that never crossed before t_max.
    """
    if not h > 0.0:
        raise ContractViolationError(f"h must be > 0, got {h}")
    if t_max < h:
        raise ContractViolationError(f"t_max must be >= h, got {t_max}")
    n_steps = int(math.floor(t_max / h + 1e-9))
    sqrt_h = math.sqrt(h)

    cur = np.zeros(n_paths)
    sup = np.zeros(n_paths)
    low = np.zeros(n_paths)
    frozen = np.zeros(n_paths, dtype=bool)
    done = 0
    while done < n_steps and not frozen.all():
        m = min(block_steps, n_steps - done)
        active = np.nonzero(~frozen)[0]
        inc = rng_stream.standard_normal((active.size, m)) * sqrt_h
        seg = cur[active, None] + np.cumsum(inc, axis=1)
        hit = seg <= -1.0
        any_hit = hit.any(axis=1)
        if any_hit.any():
            rows = np.nonzero(any_hit)[0]
            first = hit[rows].argmax(axis=1)
            frozen_vals = seg[rows, first]
            cols = np.arange(m)[None, :]
            seg[rows] = np.where(cols > first[:, None], frozen_vals[:, None], seg[rows])
            frozen[active[rows]] = True
        sup[active] = np.maximum(sup[active], seg.max(axis=1))
        low[active] = np.minimum(low[active], seg.min(axis=1))
        cur[active] = seg[:, -1]
        done += m
    return StoppedBmBatch(sup, -low, cur, float(np.mean(~frozen)))


def stopped_bm_paths_matrix(
    h: float, n_steps: int, rng_stream: np.random.Generator, n_paths: int
) -> np.ndarray:
    """Matrix of stopped-BM paths on a fixed grid (row per path).

    Unlike the block stepper this draws every increment up front, which
    keeps all rows on a common time grid for regression-style checks.
    """
    paths = np.zeros((n_paths, n_steps + 1))
    inc = rng_stream.standard_normal((n_paths, n_steps)) * math.sqrt(h)
    paths[:, 1:] = np.cumsum(inc, axis=1)
    return freeze_paths(paths, -1.0)


class _FixedUniform:
    """Stream stub whose uniform draws are prescribed."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestStoppedRandomWalk:
    def test_zero_steps(self):
        path = gen_stopped_random_walk(0, -1.0, StreamPlan(0).path_stream(0))
        assert list(path) == [0.0]

    def test_freezing_rule(self):
        plan = StreamPlan(7)
        for i in range(50):
            path = gen_stopped_random_walk(30, -1.0, plan.path_stream(i))
            hits = np.nonzero(path <= -1.0)[0]
            if hits.size:
                k = hits[0]
                assert np.all(path[k:] == path[k])

    def test_plain_walk_unbounded_level(self):
        path = gen_stopped_random_walk(10, -math.inf, StreamPlan(3).path_stream(0))
        steps = np.diff(path)
        assert set(np.unique(steps)) <= {-1.0, 1.0}

    def test_contract(self):
        stream = StreamPlan(0).path_stream(0)
        with pytest.raises(ContractViolationError):
            gen_stopped_random_walk(5, 0.0, stream)
        with pytest.raises(ContractViolationError):
            gen_stopped_random_walk(-1, -1.0, stream)


def binomial_tail(n: int, m: int) -> Fraction:
    """P(S_n >= m) for the free +-1 walk S, exactly."""
    return Fraction(sum(math.comb(n, k) for k in range(n + 1) if 2 * k - n >= m), 2**n)


class TestEnumeration:
    """Exact walk expectations, and the enumeration oracle they are checked against."""

    def test_two_step_paths(self):
        paths = enumerate_sign_walks(2)
        expected = {(0.0, 1.0, 2.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (0.0, -1.0, -2.0)}
        assert {tuple(row) for row in paths} == expected
        assert paths.shape == (4, 3)

    def test_stopped_two_step(self):
        paths = enumerate_sign_walks(2, stop_level=-1.0)
        # the two down-first patterns freeze at -1
        expected = {(0.0, 1.0, 2.0), (0.0, 1.0, 0.0), (0.0, -1.0, -1.0)}
        assert {tuple(row) for row in paths} == expected

    def test_two_step_hand_expectations(self):
        assert walk_functional_expectations(2, 0.5) == ((math.sqrt(2.0) + 1.0) / 4.0, 0.75)

    @pytest.mark.parametrize("stop", [None, -1.0, -2.5])
    def test_agrees_with_enumeration(self, stop):
        p_values = (0.1, 0.5, 0.9)
        for n in range(0, 19):
            e_sup_p, e_neg_inf = sign_walk_expectations(n, p_values, stop)
            for p in p_values:
                got_sup, got_inf = walk_functional_expectations(n, p, stop)
                assert got_sup == pytest.approx(e_sup_p[p], rel=1e-13, abs=0.0), (n, p)
                assert got_inf == pytest.approx(e_neg_inf, rel=1e-13, abs=0.0), (n, p)

    @pytest.mark.parametrize("stop", [None, -1.0, -2.5, -7.0, "below"])
    def test_agrees_with_exact_counts(self, stop):
        # e_neg_inf is the correctly rounded exact value, e_sup_p a dot product of
        # correctly rounded tails with rounded weights
        p_values = (0.1, 0.5, 0.9)
        for n in (0, 1, 2, 3, 10, 63, 200):
            level = -n - 5.0 if stop == "below" else stop
            e_sup_p, e_neg_inf = exact_walk_expectations(n, p_values, level)
            for p in p_values:
                got_sup, got_inf = walk_functional_expectations(n, p, level)
                assert got_inf == float(e_neg_inf), (n, p)
                assert got_sup == pytest.approx(float(e_sup_p[p]), rel=1e-14, abs=0.0), (n, p)

    def test_unreachable_stop_level_is_the_free_walk(self):
        for stop in (-6.0, -6.5, -1e300, -math.inf):
            assert walk_functional_expectations(5, 0.5, stop) == walk_functional_expectations(5, 0.5)

    def test_long_walks_against_binomial_tails(self):
        # a walk stopped at -1 has -inf in {0, 1}, and it stays >= 0 for n
        # steps with probability C(n, n//2) / 2^n; the free walk's
        # P(inf <= -m) = P(sup >= m) = P(S_n >= m) + P(S_n > m) by reflection
        n = 400
        _, e_neg_inf = walk_functional_expectations(n, 0.5, -1.0)
        assert e_neg_inf == float(1 - Fraction(math.comb(n, n // 2), 2**n))
        _, e_neg_inf = walk_functional_expectations(n, 0.5)
        exact = sum(binomial_tail(n, m) + binomial_tail(n, m + 1) for m in range(1, n + 1))
        assert e_neg_inf == float(exact)

    @pytest.mark.parametrize("stop", [None, -1.0, -2.0])
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_inequality_small_n(self, stop, p):
        for n in range(0, 9):
            e_sup_p, e_neg_inf = walk_functional_expectations(n, p, stop_level=stop)
            assert e_sup_p <= e_neg_inf**p / (1.0 - p) + 1e-12

    @pytest.mark.parametrize("stop", [None, -1.0, -3.0])
    def test_martingale_property_exact(self, stop):
        assert walk_conditional_increment_bias(8, stop_level=stop) <= 1e-12

    def test_contract(self):
        with pytest.raises(ContractViolationError, match="n must be >= 0"):
            walk_functional_expectations(-1, 0.5)
        with pytest.raises(ContractViolationError, match="stop_level must be < 0"):
            walk_functional_expectations(3, 0.5, 0.0)
        for p in (0.0, 1.0, -0.5):
            with pytest.raises(ContractViolationError, match="p must lie in"):
                walk_functional_expectations(3, p)

    def test_small_walk_allocates_little(self):
        # listing the 2^22 walks would take 2^22 * 23 values, 736 MiB
        tracemalloc.start()
        try:
            walk_functional_expectations(22, 0.5, -1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_work_limit(self, monkeypatch):
        # the longest synthetic horizon, the same for every stop level
        limit = MAX_CHUNK_VALUES // CHUNK_SIZE - 1
        assert limit == 8191
        with monkeypatch.context() as patch:
            # the same rule at a limit small enough to run both sides of it
            patch.setattr(martingales, "MAX_CHUNK_VALUES", 7 * CHUNK_SIZE)
            for stop in (None, -1.0, -2.5):
                walk_functional_expectations(6, 0.5, stop)
                with pytest.raises(ContractViolationError, match="over the work limit of 6 steps"):
                    walk_functional_expectations(7, 0.5, stop)
        for n, stop in ((limit + 1, None), (limit + 1, -1.0), (2**63 - 1, -1.0)):
            tracemalloc.start()
            try:
                with pytest.raises(ContractViolationError, match=f"over the work limit of {limit}"):
                    walk_functional_expectations(n, 0.5, stop)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**16


class TestExactSupSampler:
    def test_inverse_survival_at_half(self):
        assert sample_sup_stopped_bm_exact_batch(_FixedUniform(0.5), 1)[0] == 1.0

    def test_tail_probability(self):
        stream = StreamPlan(11).path_stream(0)
        draws = sample_sup_stopped_bm_exact_batch(stream, 1_000_000)
        frac = float(np.mean(draws >= 1.0))
        # P(sup >= 1) = 1/2, standard error 5e-4
        assert abs(frac - 0.5) <= 4 * 5e-4

    def test_mean_sqrt_near_half_pi(self):
        stream = StreamPlan(5).path_stream(0)
        vals = np.sqrt(sample_sup_stopped_bm_exact_batch(stream, 200_000))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - math.pi / 2.0) <= 4 * se

    def test_kolmogorov_smirnov(self):
        stream = StreamPlan(17).path_stream(0)
        draws = np.sort(sample_sup_stopped_bm_exact_batch(stream, 100_000))
        cdf = draws / (1.0 + draws)
        n = draws.size
        upper = np.arange(1, n + 1) / n - cdf
        lower = cdf - np.arange(0, n) / n
        d_stat = max(upper.max(), lower.max())
        assert d_stat <= 0.01


class TestLemmaRatio:
    def test_two_step_enumeration(self):
        check = lemma_bound_ratio(0.5, *walk_functional_expectations(2, 0.5))
        assert check.ratio == pytest.approx(0.6969, abs=1e-4)
        assert check.upper == 2.0
        assert not check.degenerate

    def test_degenerate(self):
        check = lemma_bound_ratio(0.5, 0.0, 0.0)
        assert check.degenerate and math.isnan(check.ratio)
        check2 = lemma_bound_ratio(0.5, 1.0, 0.0)
        assert check2.degenerate

    def test_stopped_bm_limit_value(self):
        # exact sampler mean over a large batch approaches pi/2 <= 2
        stream = StreamPlan(23).path_stream(0)
        e_sup_p = float(np.mean(np.sqrt(sample_sup_stopped_bm_exact_batch(stream, 500_000))))
        check = lemma_bound_ratio(0.5, e_sup_p, 1.0)
        assert check.ratio == pytest.approx(math.pi / 2.0, abs=0.02)
        assert check.ratio <= check.upper


class TestRemarkConstants:
    def test_at_half(self):
        rc = remark_constants(0.5)
        assert rc.lower == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert rc.upper == 2.0
        assert rc.ratio == pytest.approx(4.0 / math.pi, rel=1e-15)

    def test_limits(self):
        assert remark_constants(0.001).ratio == pytest.approx(1.0, abs=0.01)
        assert remark_constants(0.999).ratio == pytest.approx(1.0, abs=0.01)

    def test_ordering_grid(self):
        for p in np.linspace(0.01, 0.99, 99):
            rc = remark_constants(float(p))
            assert rc.lower <= rc.upper


class TestStoppedWiener:
    def test_freezing_rule(self):
        plan = StreamPlan(29)
        for i in range(20):
            vals = stopped_bm_paths_matrix(0.5, 100, plan.path_stream(i), 1)[0]
            hits = np.nonzero(vals <= -1.0)[0]
            if hits.size:
                k = hits[0]
                assert np.all(vals[k:] == vals[k])
                assert vals[k] <= -1.0

    def test_zero_mean_martingale(self):
        # E[M at truncation] = 0 by optional stopping on a bounded horizon
        stream = StreamPlan(31).path_stream(0)
        batch = stopped_bm_batch_functionals(0.25, 100.0, stream, 100_000)
        se = batch.final.std(ddof=1) / math.sqrt(batch.final.size)
        assert abs(batch.final.mean()) <= 4 * se

    def test_neg_inf_approaches_one_from_above(self):
        # overshoot shrinks like sqrt(h); truncation bias is far smaller
        stream = StreamPlan(37).path_stream(0)
        means = []
        for h in (1.0, 0.25, 0.0625):
            batch = stopped_bm_batch_functionals(h, 1e4, stream, 4000)
            means.append(batch.neg_inf.mean())
        assert means[0] > means[1] > means[2] > 1.0

    def test_truncated_fraction_reported(self):
        stream = StreamPlan(41).path_stream(0)
        batch = stopped_bm_batch_functionals(0.5, 10.0, stream, 2000)
        assert 0.0 < batch.truncated_fraction < 1.0

    def test_increment_regression_slope(self):
        # conditional mean of the next increment given the present value
        # is zero; regression slope over paths must be statistically zero
        stream = StreamPlan(43).path_stream(0)
        paths = stopped_bm_paths_matrix(1.0, 20, stream, 20_000)
        k = 10
        x = paths[:, k]
        y = paths[:, k + 1] - paths[:, k]
        slope = np.cov(x, y, ddof=1)[0, 1] / np.var(x, ddof=1)
        resid = y - slope * x
        se = resid.std(ddof=2) / (math.sqrt(x.size) * x.std(ddof=1))
        assert abs(slope) <= 4 * se
