import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochastic_gronwall import kernels
from stochastic_gronwall.sde import make_problem
from stochastic_gronwall.streams import StreamPlan


def scalar_oracle(label, **params):
    """A scalar zoo problem with its f, f' and diffusion coefficient
    written out by hand, independently of the problem's callables."""
    problem = make_problem(label, **params)
    if label == "linear":
        lam = problem.zoo_spec[1]["lam"]
        return problem, (lambda x: -lam * x), (lambda x: -lam), problem.zoo_spec[1]["sigma"]
    return problem, (lambda x: x - x * x * x), (lambda x: 1.0 - 3.0 * x * x), \
        problem.zoo_spec[1]["sigma"]


def reference_step(f, df, h, b, tol, max_iter):
    """Scalar solve of z - h*f(z) = b, one path at a time.

    The oracle for the batch solver: Newton from the predictor, stopped
    at the residual tolerance or at an update of at most 2*eps times the
    iterate, then bisection on a doubled bracket, with the
    stalled-bisection acceptance at 10*tol*max(1, |b|). A non-finite b
    fails at once. Returns (root, iterations, converged).
    """
    if not np.isfinite(b):
        return np.nan, 0, False
    z = b
    iters = 0
    for _ in range(max_iter):
        r = z - h * f(z) - b
        if abs(r) <= tol:
            return z, iters, True
        denom = 1.0 - h * df(z)
        if denom <= 1e-14 or not np.isfinite(denom):
            break
        dz = r / denom
        settled = abs(dz) <= 2.0 * np.finfo(np.float64).eps * abs(z)
        z = z - dz
        iters += 1
        if settled:
            return z, iters, True
        if not np.isfinite(z):
            break
    span = 1.0 + 2.0 * abs(b)
    lo, hi = -span, span
    grew = 0
    while lo - h * f(lo) - b > 0.0 and grew < 600:
        lo *= 2.0
        grew += 1
    while hi - h * f(hi) - b < 0.0 and grew < 600:
        hi *= 2.0
        grew += 1
    if grew >= 600:
        return z, iters, False
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        r = mid - h * f(mid) - b
        iters += 1
        if abs(r) <= tol:
            return mid, iters, True
        if r < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-300 + 4e-16 * (abs(lo) + abs(hi)):
            break
    mid = 0.5 * (lo + hi)
    r = mid - h * f(mid) - b
    return mid, iters, abs(r) <= 10.0 * tol * max(1.0, abs(b))


def reference_batch(f, df, sigma, x0, h, d_w, tol, max_iter):
    """Path-by-path loop over :func:`reference_step` for g(x) = sigma*x,
    with the iterations of each step summed over the paths."""
    n_paths, n_steps = d_w.shape
    states = np.full((n_paths, n_steps + 1), np.nan)
    iters = np.zeros(n_steps, dtype=np.int64)
    failed = np.zeros(n_paths, dtype=np.bool_)
    for ip in range(n_paths):
        y = states[ip, 0] = x0
        for j in range(n_steps):
            z, used, ok = reference_step(f, df, h, y + sigma * y * d_w[ip, j], tol, max_iter)
            iters[j] += used
            if not ok:
                failed[ip] = True
                break
            y = states[ip, j + 1] = z
    return states, iters, failed


def batch_step(problem, h, b):
    return kernels.implicit_solve(
        problem.drift, lambda x: problem.drift_jacobian(x)[..., 0], h, b
    )


def batch(problem, x0, h, d_w):
    return kernels.bem_scalar_batch(
        problem.drift, problem.drift_jacobian, problem.diffusion, x0, d_w, h
    )


_ORACLES = {
    "linear": scalar_oracle("linear", lam=1.0, sigma=0.5),
    "ginzburg-landau": scalar_oracle("ginzburg-landau", sigma=0.5),
}
_moderate = st.floats(-50.0, 50.0, allow_nan=False)
_wide = st.one_of(_moderate, st.floats(-1e120, 1e120, allow_nan=False))


class TestImplicitSolve:
    @settings(max_examples=200, deadline=None)
    @given(
        label=st.sampled_from(sorted(_ORACLES)),
        h=st.floats(1e-4, 0.95),
        ys=st.lists(_wide, min_size=1, max_size=12),
        d_ws=st.lists(st.floats(-4.0, 4.0), min_size=12, max_size=12),
    )
    def test_batch_equals_scalar_reference(self, label, h, ys, d_ws):
        problem, f, df, sigma = _ORACLES[label]
        y = np.array(ys)
        b = y + sigma * y * np.array(d_ws[: y.size]) * math.sqrt(h)
        with np.errstate(over="ignore", invalid="ignore"):
            z, iters, ok = batch_step(problem, h, b)
            expected = [reference_step(f, df, h, bi, 1e-12, 50) for bi in b]
        assert ok.tolist() == [e[2] for e in expected]
        assert iters.tolist() == [e[1] for e in expected]
        assert np.array_equal(z[ok], np.array([e[0] for e in expected])[ok])
        assert np.isnan(z[~ok]).all()

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.floats(0.0, 20.0),
        sigma=st.floats(0.0, 2.0),
        h=st.floats(1e-4, 0.95),
        y=_moderate,
        d_w=st.floats(-4.0, 4.0),
    )
    def test_linear_matches_closed_form(self, lam, sigma, h, y, d_w):
        b = np.array([y + sigma * y * d_w])
        z, _, ok = batch_step(make_problem("linear", lam=lam, sigma=sigma), h, b)
        assert ok[0]
        assert z[0] == pytest.approx(y * (1.0 + sigma * d_w) / (1.0 + h * lam), abs=1e-10)

    def test_bisection_fallback_only_where_newton_gives_up(self):
        # h > 1 makes 1 - h*f'(z) vanish near |z| = 1/3 for Ginzburg-Landau
        problem, f, df, _ = _ORACLES["ginzburg-landau"]
        b = np.array([0.0, 0.3, 2.0, -5.0, 1e103])
        with np.errstate(over="ignore", invalid="ignore"):
            z, iters, ok = batch_step(problem, 1.5, b)
            expected = [reference_step(f, df, 1.5, bi, 1e-12, 50) for bi in b]
        assert iters.tolist() == [e[1] for e in expected]
        assert ok.tolist() == [e[2] for e in expected]
        assert np.array_equal(z, np.array([e[0] for e in expected]))
        # 0.3 and 1e103 need bisection; the others converge by Newton alone
        assert iters[1] > 30 and iters[4] > 100
        assert iters[[0, 2, 3]].max() <= 10

    def test_non_finite_right_hand_side_fails_at_once(self):
        problem, f, df, _ = _ORACLES["ginzburg-landau"]
        b = np.array([1.0, np.nan, np.inf, -np.inf, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, iters, ok = batch_step(problem, 0.1, b)
            alone = [batch_step(problem, 0.1, b[[i]]) for i in (0, 4)]
        assert np.isnan(z[1:4]).all()
        assert ok.tolist() == [True, False, False, False, True]
        assert iters[1:4].tolist() == [0, 0, 0]
        for i, (one_z, one_iters, one_ok) in zip((0, 4), alone):
            assert (z[i], iters[i], ok[i]) == (one_z[0], one_iters[0], one_ok[0])

    def test_masked_iterations_raise_no_warning(self):
        # no errstate here: an entry that has stopped iterating must not warn
        problem, f, df, _ = _ORACLES["ginzburg-landau"]
        drift, jacobian, _ = TestBemScalarBatch._nan_beyond_5()
        cases = [
            # 0.3 gives up where 1 - h*f'(z) reaches the minimum slope
            ((problem.drift, lambda x: problem.drift_jacobian(x)[..., 0], f, df), 1.5,
             [0.0, 0.3, 2.0, -5.0]),
            # the iterate of 9.0 turns NaN beyond |x| = 5
            ((drift, lambda x: jacobian(x)[..., 0], drift, lambda x: -1.0), 0.1, [1.0, 9.0, -0.5]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for (drift, slope, f, df), h, b in cases:
                z, iters, ok = kernels.implicit_solve(drift, slope, h, np.array(b))
                expected = [reference_step(f, df, h, bi, 1e-12, 50) for bi in b]
                assert iters.tolist() == [e[1] for e in expected]
                assert ok.tolist() == [e[2] for e in expected]
                assert np.array_equal(z[ok], np.array([e[0] for e in expected])[ok])
                assert np.isnan(z[~ok]).all()

    def test_empty_batch(self):
        z, iters, ok = batch_step(_ORACLES["linear"][0], 0.1, np.empty(0))
        assert z.shape == iters.shape == ok.shape == (0,)


class TestBemScalarBatch:
    def test_residuals_below_tolerance(self):
        plan = StreamPlan(21)
        h = 0.125
        d_w = (plan.chunk_stream(0).standard_normal((256, 16)) * math.sqrt(h)).T
        states, iters, failed = batch(_ORACLES["ginzburg-landau"][0], 1.0, h, d_w)
        assert not failed.any()
        y_prev = states[:-1]
        y_next = states[1:]
        residual = y_next - h * (y_next - y_next**3) - (y_prev + 0.5 * y_prev * d_w)
        assert np.abs(residual).max() <= 1e-12

    def test_linear_closed_form(self):
        plan = StreamPlan(22)
        h = 0.1
        d_w = (plan.chunk_stream(0).standard_normal((64, 10)) * math.sqrt(h)).T
        states, _, failed = batch(_ORACLES["linear"][0], 2.0, h, d_w)
        assert not failed.any()
        y = np.full(64, 2.0)
        for j in range(10):
            y = y * (1.0 + 0.5 * d_w[j]) / 1.1
            assert np.allclose(states[j + 1], y, atol=1e-10)

    @pytest.mark.parametrize("label, params, x0, h", [
        ("ginzburg-landau", {"sigma": 0.5}, 1.0, 0.125),
        ("ginzburg-landau", {"sigma": 3.0}, 2.0, 0.5),
        ("ginzburg-landau", {"sigma": 0.5}, 1.0, 1.5),  # bisection fallback
        ("ginzburg-landau", {"sigma": 0.5}, 1e160, 0.5),  # every path fails
        ("linear", {"lam": 1.0, "sigma": 0.5}, 1.0, 0.1),
        ("linear", {"lam": 1.0, "sigma": 0.5}, 1e300, 0.1),  # no path fails: Newton stops on rounding-level updates
    ])
    def test_equals_path_by_path_reference(self, label, params, x0, h):
        problem, f, df, sigma = scalar_oracle(label, **params)
        d_w = StreamPlan(23).chunk_stream(0).standard_normal((96, 6)) * math.sqrt(h)
        with np.errstate(over="ignore", invalid="ignore"):
            states, iters, failed = batch(problem, x0, h, d_w.T)
            got = states.T, iters, failed
            expected = reference_batch(f, df, sigma, x0, h, d_w, 1e-12, 50)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b, equal_nan=True)

    @staticmethod
    def _nan_beyond_5(calls=None):
        """f(x) = -x, NaN beyond |x| = 5, with g = 1: a path fails at the
        step where a large increment pushes it there. ``calls`` records
        the size of each drift evaluation."""
        def drift(x):
            if calls is not None:
                calls.append(x.size)
            return np.where(np.abs(x) > 5.0, np.nan, -x)

        def jacobian(x):
            return np.full(x.shape + (1,), -1.0)

        def diffusion(x):
            return np.ones(x.shape + (1,))

        return drift, jacobian, diffusion

    def test_paths_failing_mid_run(self):
        # the paths that do not fail step on unchanged
        drift, jacobian, diffusion = self._nan_beyond_5()
        d_w = StreamPlan(24).chunk_stream(0).standard_normal((8, 6)) * 0.1
        fails_at = {1: 2, 4: 0, 6: 5}
        for path, step in fails_at.items():
            d_w[path, step] = 10.0
        states, iters, failed = kernels.bem_scalar_batch(drift, jacobian, diffusion, 1.0, d_w.T,
                                                         0.1)
        assert np.flatnonzero(failed).tolist() == sorted(fails_at)
        for path, step in fails_at.items():
            assert np.isfinite(states[:step + 1, path]).all()
            assert np.isnan(states[step + 1:, path]).all()
        # each path, failing or not, is its own batch of one, and the batch's
        # per-step iterations are the sums of theirs
        alone = [kernels.bem_scalar_batch(drift, jacobian, diffusion, 1.0, row[:, None], 0.1)
                 for row in d_w]
        for path, (one, _, one_failed) in enumerate(alone):
            assert np.array_equal(states[:, path], one[:, 0], equal_nan=True)
            assert one_failed[0] == failed[path]
        assert np.array_equal(iters, np.sum([one_iters for _, one_iters, _ in alone], axis=0))

    def test_nan_start_carried_at_no_cost(self):
        # a path that arrives as NaN, as a failed path does in a later block, stays NaN
        # at 0 iterations and is not reported as failed in this call; the other paths
        # step as each would alone
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

    def test_stops_once_every_path_failed(self):
        # every path fails at step 1 of 10,000: the drift is called for that step only
        calls = []
        drift, jacobian, diffusion = self._nan_beyond_5(calls)

        def run(n_steps):
            calls.clear()
            d_w = np.zeros((n_steps, 4))
            d_w[0] = 10.0
            return kernels.bem_scalar_batch(drift, jacobian, diffusion, 1.0, d_w, 0.1), len(calls)

        (states, iters, failed), n_calls = run(10_000)
        assert failed.all() and np.isnan(states[1:]).all()
        assert iters[0] > 0 and not iters[1:].any()
        assert n_calls == run(1)[1]

    def test_output_shapes(self):
        states, iters, failed = batch(make_problem("linear", sigma=0.0), 1.0, 0.1, np.zeros((5, 3)))
        assert states.shape == (6, 3)
        assert iters.shape == (5,)
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


class TestBemRotationRows:
    @staticmethod
    def _coefficients(**params):
        problem = make_problem("bounded-rotation", **params)
        return problem, problem.drift_jacobian(problem.x0), problem.diffusion(problem.x0)

    def test_steps_the_given_state_in_place(self):
        problem, jac, g = self._coefficients(omega=1.5, kappa=0.2, sigma=0.4)
        y = np.repeat(problem.x0[:, None], 3, axis=1)
        d_w = StreamPlan(26).chunk_stream(0).standard_normal((4, 2, 3)) * math.sqrt(0.1)
        for row in kernels.bem_rotation_rows(jac, g, y, d_w, 0.1):
            assert row is y

    @pytest.mark.parametrize("split", [1, 6])
    def test_blocks_from_the_carried_state_equal_one_pass(self, split):
        problem, jac, g = self._coefficients(omega=1.5, kappa=0.2, sigma=0.4)
        d_w = StreamPlan(27).chunk_stream(0).standard_normal((9, 2, 5)) * math.sqrt(0.1)
        whole = np.repeat(problem.x0[:, None], 5, axis=1)
        expected = [row.copy() for row in kernels.bem_rotation_rows(jac, g, whole, d_w, 0.1)]
        y = np.repeat(problem.x0[:, None], 5, axis=1)
        rows = [row.copy() for part in (d_w[:split], d_w[split:])
                for row in kernels.bem_rotation_rows(jac, g, y, part, 0.1)]
        assert np.array_equal(rows, expected)

    def test_equals_the_two_row_step(self):
        # a*r0 + (-b)*r1 has the bits of a*r0 - b*r1, and b*r0 + a*r1 those of a*r1 + b*r0
        problem, jac, g = self._coefficients(omega=1.5, kappa=0.2, sigma=0.4, x0=(0.3, -2.0))
        h = 0.1
        a, b = 1.0 - h * jac[0, 0], h * jac[1, 0]
        det = a * a + b * b
        a, b = a / det, b / det
        d_w = StreamPlan(28).chunk_stream(0).standard_normal((16, 2, 64)) * math.sqrt(h)
        y0, y1 = np.full(64, 0.3), np.full(64, -2.0)
        y = np.repeat(problem.x0[:, None], 64, axis=1)
        for j, row in enumerate(kernels.bem_rotation_rows(jac, g, y, d_w, h)):
            r0, r1 = d_w[j, 0] * g[0, 0] + y0, d_w[j, 1] * g[0, 0] + y1
            y0, y1 = r0 * a - r1 * b, r0 * b + r1 * a
            assert np.array_equal(row, [y0, y1])


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
