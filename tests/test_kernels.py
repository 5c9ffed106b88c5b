import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochastic_gronwall import kernels
from stochastic_gronwall.sde import make_problem
from stochastic_gronwall.streams import StreamPlan


def batch(problem, x0, h, d_w):
    return kernels.bem_scalar_batch(problem.solve, problem.diffusion, x0, h, d_w)


def reference_batch(solve, diffusion, x0, h, d_w):
    """Path by path and step by step from one finite x0, each step a
    solve of a one-entry array: the oracle for the batch stepper. d_w is
    (paths, steps). A path is NaN from its first state that is not
    finite on. Returns the (paths, steps+1) states, each step's count of
    finite path-steps and the failed paths."""
    n_paths, n_steps = d_w.shape
    states = np.full((n_paths, n_steps + 1), np.nan)
    iters = np.zeros(n_steps, dtype=np.int64)
    for ip in range(n_paths):
        y = np.array([x0])
        states[ip, 0] = x0
        for j in range(n_steps):
            with np.errstate(all="ignore"):
                y = solve(h, y + diffusion(y)[..., 0] * d_w[ip, j])
            if not np.isfinite(y[0]):
                break
            states[ip, j + 1] = y[0]
            iters[j] += 1
    failed = np.isnan(states[:, -1])
    return states, iters, failed


def _nan_beyond_5(calls=None):
    """f(x) = -x, NaN beyond |x| = 5, with g = 1: its exact step z = b/(1 + h)
    is NaN where it leaves [-5, 5], so a path fails at the step where a large
    increment pushes it there. ``calls`` records the size of each solve."""
    def solve(h, b):
        if calls is not None:
            calls.append(b.size)
        z = b / (1.0 + h)
        return np.where(np.abs(z) > 5.0, np.nan, z)

    def diffusion(x):
        return np.ones(np.shape(x) + (1,))

    return solve, diffusion


class TestBemScalarBatch:
    def test_residuals_at_rounding_level(self):
        plan = StreamPlan(21)
        h = 0.125
        d_w = (plan.chunk_stream(0).standard_normal((256, 16)) * math.sqrt(h)).T
        states, iters, failed = batch(make_problem("ginzburg-landau", sigma=0.5), 1.0, h, d_w)
        assert not failed.any()
        y_prev, y_next = states[:-1], states[1:]
        b = y_prev + 0.5 * y_prev * d_w
        residual = y_next - h * (y_next - y_next**3) - b
        scale = np.maximum.reduce([np.abs(b), np.abs(y_next), h * np.abs(y_next) ** 3])
        assert np.all(np.abs(residual) <= 8.0 * np.finfo(np.float64).eps * scale)

    def test_linear_steps_are_the_closed_form(self):
        # each state is b/(1 + h*lam) bit for bit, b = y + (sigma*y)*dW
        plan = StreamPlan(22)
        h, lam = 0.1, 1.5
        d_w = (plan.chunk_stream(0).standard_normal((64, 10)) * math.sqrt(h)).T
        states, iters, failed = batch(make_problem("linear", lam=lam, sigma=0.5), 2.0, h, d_w)
        assert not failed.any()
        y = np.full(64, 2.0)
        for j in range(10):
            y = (y + 0.5 * y * d_w[j]) / (1.0 + h * lam)
            assert np.array_equal(states[j + 1], y)
        assert iters.tolist() == [64] * 10

    @pytest.mark.parametrize("label, params, x0, h", [
        ("ginzburg-landau", {"sigma": 0.5}, 1.0, 0.125),
        ("ginzburg-landau", {"sigma": 3.0}, 2.0, 0.5),
        ("ginzburg-landau", {"sigma": 0.5}, 1e100, 0.5),  # roots beyond the cubic's far limit
        ("linear", {"lam": 1.0, "sigma": 0.5}, 1.0, 0.1),
        # b = 1.5e308 * (1 + 0.5*dW) overflows on some paths: they fail at that step
        ("linear", {"lam": 1.0, "sigma": 0.5}, 1.5e308, 0.1),
    ])
    def test_equals_path_by_path_reference(self, label, params, x0, h):
        problem = make_problem(label, **params)
        d_w = StreamPlan(23).chunk_stream(0).standard_normal((96, 6)) * math.sqrt(h)
        states, iters, failed = batch(problem, x0, h, d_w.T)
        expected = reference_batch(problem.solve, problem.diffusion, x0, h, d_w)
        for a, b in zip((states.T, iters, failed), expected):
            assert np.array_equal(a, b, equal_nan=True)
        if x0 == 1.5e308:
            assert 0 < failed.sum() < 96 and iters[0] < 96

    def test_paths_failing_mid_run(self):
        # the paths that do not fail step on unchanged
        solve, diffusion = _nan_beyond_5()
        d_w = StreamPlan(24).chunk_stream(0).standard_normal((8, 6)) * 0.1
        fails_at = {1: 2, 4: 0, 6: 5}
        for path, step in fails_at.items():
            d_w[path, step] = 10.0
        states, iters, failed = kernels.bem_scalar_batch(solve, diffusion, 1.0, 0.1, d_w.T)
        assert np.flatnonzero(failed).tolist() == sorted(fails_at)
        for path, step in fails_at.items():
            assert np.isfinite(states[:step + 1, path]).all()
            assert np.isnan(states[step + 1:, path]).all()
        # each path, failing or not, is its own batch of one, and the batch's
        # per-step counts are the sums of theirs
        alone = [kernels.bem_scalar_batch(solve, diffusion, 1.0, 0.1, row[:, None])
                 for row in d_w]
        for path, (one, _, one_failed) in enumerate(alone):
            assert np.array_equal(states[:, path], one[:, 0], equal_nan=True)
            assert one_failed[0] == failed[path]
        assert np.array_equal(iters, np.sum([one_iters for _, one_iters, _ in alone], axis=0))
        assert np.array_equal(iters, 8 - np.isnan(states[1:]).sum(axis=1))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_path_is_nan_from_its_first_non_finite_state(self, bad):
        # a solve that gives inf, or a finite value after a NaN, does not revive the
        # path: it is NaN from its first state that is not finite
        def solve(h, b):
            z = b / (1.0 + h)
            z[(b > 2.0) & (b < 3.0)] = bad
            return np.where(np.isnan(b), 1.0, z)

        d_w = np.zeros((4, 3))
        d_w[1, 1] = 1.0  # path 1 reaches b = 2.5 at step 2
        states, iters, failed = kernels.bem_scalar_batch(
            solve, lambda x: np.full(np.shape(x) + (1,), 1.5), 1.0, 0.1, d_w)
        assert failed.tolist() == [False, True, False]
        assert np.isnan(states[2:, 1]).all() and np.isfinite(np.delete(states, 1, axis=1)).all()
        assert iters.tolist() == [3, 2, 2, 2]

    def test_nan_start_carried_at_no_cost(self):
        # a path that arrives as NaN, as a failed path does in a later block, stays NaN,
        # is counted at no step and is not reported as failed in this call; the other
        # paths step as each would alone
        problem = make_problem("ginzburg-landau", sigma=0.5)
        d_w = (StreamPlan(26).chunk_stream(0).standard_normal((5, 9)) * math.sqrt(0.125)).T
        x0 = np.array([1.0, np.nan, -0.5, np.nan, 2.0])
        states, iters, failed = batch(problem, x0, 0.125, d_w)
        assert np.isnan(states[:, [1, 3]]).all()
        assert not failed.any()
        finite = [0, 2, 4]
        alone = [batch(problem, x0[i], 0.125, d_w[:, i:i + 1]) for i in finite]
        for i, (one, _, one_failed) in zip(finite, alone):
            assert np.array_equal(states[:, i], one[:, 0])
            assert not one_failed[0]
        assert np.array_equal(iters, np.sum([one_iters for _, one_iters, _ in alone], axis=0))
        _, nan_iters, nan_failed = batch(problem, x0[[1, 3]], 0.125, d_w[:, [1, 3]])
        assert not nan_iters.any() and not nan_failed.any()

    def test_one_solve_per_step(self):
        calls = []
        solve, diffusion = _nan_beyond_5(calls)
        d_w = np.zeros((7, 4))
        d_w[0] = 10.0  # every path fails at step 1; the later steps still solve all 4
        states, iters, failed = kernels.bem_scalar_batch(solve, diffusion, 1.0, 0.1, d_w)
        assert calls == [4] * 7
        assert failed.all() and np.isnan(states[1:]).all() and not iters.any()

    def test_output_shapes(self):
        states, iters, failed = batch(make_problem("linear", sigma=0.0), 1.0, 0.1, np.zeros((5, 3)))
        assert states.shape == (6, 3)
        assert iters.shape == (5,) and iters.tolist() == [3] * 5
        assert failed.dtype == np.bool_

    @pytest.mark.parametrize("split", [1, 5, 11])
    def test_continues_from_given_states(self, split):
        # a run from the last states of an earlier one, one per path, takes the
        # steps of one whole run
        problem = make_problem("ginzburg-landau", sigma=0.5)
        d_w = (StreamPlan(25).chunk_stream(0).standard_normal((7, 12)) * math.sqrt(0.125)).T
        states, iters, _ = batch(problem, 1.0, 0.125, d_w)
        head, head_iters, _ = batch(problem, 1.0, 0.125, d_w[:split])
        tail, tail_iters, _ = batch(problem, head[-1], 0.125, d_w[split:])
        assert np.array_equal(np.vstack([head, tail[1:]]), states)
        assert np.array_equal(np.concatenate([head_iters, tail_iters]), iters)


class TestWelfordChunk:
    def test_matches_two_pass(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(3.0, 2.0, 10_001)
        n, mean, m2 = kernels.welford_chunk(vals)
        assert n == vals.size
        assert mean == pytest.approx(vals.mean(), rel=1e-12)
        assert m2 == pytest.approx(((vals - vals.mean()) ** 2).sum(), rel=1e-9)

    def test_empty_and_single(self):
        n, mean, m2 = kernels.welford_chunk(np.array([], dtype=np.float64))
        assert (n, mean, m2) == (0, 0.0, 0.0)
        n, mean, m2 = kernels.welford_chunk(np.array([7.5]))
        assert (n, mean, m2) == (1, 7.5, 0.0)

    @pytest.mark.parametrize("c", [0.1, 0.3, 1 / 3, 2.7, math.pi, -7.1, 1e-300, 3e300])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 100, 127, 128, 129, 1000, 4095, 4096])
    def test_constant_chunk_exact(self, c, n):
        assert kernels.welford_chunk(np.full(n, c)) == (n, c, 0.0)

    def test_layout_does_not_change_bits(self):
        vals = np.random.default_rng(5).normal(0.1, 3.0, 4096)
        expected = kernels.welford_chunk(vals)
        offset = np.concatenate([[99.0], vals])[1:]
        raw = np.empty(vals.nbytes + 1, dtype=np.uint8)
        misaligned = raw[1:].view(np.float64)
        misaligned[:] = vals
        strided = np.repeat(vals, 3)[::3]
        assert not misaligned.flags.aligned and not strided.flags.c_contiguous
        for copy in (offset, misaligned, strided):
            assert np.array_equal(copy, vals)
            assert kernels.welford_chunk(copy) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
        shift=st.floats(-1e8, 1e8),
    )
    def test_matches_exact_rationals(self, xs, shift):
        vals = np.array(xs) + shift
        n, mean, m2 = kernels.welford_chunk(vals)
        exact = [Fraction(x) for x in vals]
        exact_mean = sum(exact) / n
        dev = [abs(x - exact_mean) for x in exact]
        exact_m2 = sum(d * d for d in dev)
        eps = Fraction(np.finfo(np.float64).eps)
        # a few ulps, plus half the smallest subnormal for each rounding that may underflow
        tiny = Fraction(1, 2**1075)
        assert n == vals.size
        assert abs(Fraction(mean) - exact_mean) <= 4 * eps * max(abs(x) for x in exact) + 2 * tiny
        m2_tol = 4 * eps * (exact_m2 + max(dev) * sum(dev)) + 2 * n * tiny
        assert abs(Fraction(m2) - exact_m2) <= m2_tol
