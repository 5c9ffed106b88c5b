import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    SpoiledStream,
    cubic_root_reference,
    rotation_matrix,
    tanh_well_problem,
    trajectory_increments,
    ulps_from,
)

from stochastic_gronwall import kernels, sde
from stochastic_gronwall.errors import ContractViolationError, SolverError
from stochastic_gronwall.sde import (
    BemTrajectory,
    RotationPaths,
    SdeProblem,
    check_coercivity,
    check_step_sizes,
    make_problem,
    simulate_trajectory,
    step_count,
    zoo_labels,
    zoo_parameters,
)
from stochastic_gronwall.streams import StreamPlan


@dataclass(frozen=True)
class RecursionCheckReport:
    """Outcome of the pathwise squared-norm recursion check."""

    passed: bool
    first_violation: int | None
    max_excess: float


def pathwise_recursion_check(
    traj: BemTrajectory, problem: SdeProblem, h: float, rtol: float = 1e-8
) -> RecursionCheckReport:
    """Check the iterated squared-norm inequality along one trajectory:

        (1-2hL)|Y^n|^2 + h|g(Y^n)|^2
            <= (1-2hL)|Y^0|^2 + h|g(Y^0)|^2 + 2L t_n
               + sum_{j<n} Z^{j+1} + 2hL sum_{j<n} |Y^j|^2

    for every n up to N_h, with relative slack ``rtol``.
    """
    L = problem.L
    states = traj.states
    norms_sq = np.sum(states * states, axis=1)
    g = problem.diffusion(states)
    g_norms_sq = np.sum(g * g, axis=(1, 2))
    n_total = states.shape[0] - 1
    t = h * np.arange(n_total + 1)
    lhs = (1.0 - 2.0 * h * L) * norms_sq + h * g_norms_sq
    z_cum = np.concatenate(([0.0], np.cumsum(traj.z_increments)))
    y_cum = np.concatenate(([0.0], np.cumsum(norms_sq[:-1])))
    rhs = lhs[0] + 2.0 * L * t + z_cum + 2.0 * h * L * y_cum
    excess = lhs - rhs - rtol * np.maximum(1.0, np.abs(rhs))
    bad = np.nonzero(excess > 0.0)[0]
    max_excess = float(np.max(lhs - rhs))
    if bad.size:
        return RecursionCheckReport(False, int(bad[0]), max_excess)
    return RecursionCheckReport(True, None, max_excess)


def z_increment(y, g_y, d_w, h: float) -> float:
    """Centered noise term of the squared-norm recursion at one step, the
    reference for the trajectory's ``z_increments``."""
    noise = g_y @ d_w
    return (
        float(np.dot(noise, noise))
        - h * float(np.sum(g_y * g_y))
        + 2.0 * float(np.dot(noise, y))
    )


# The sweep of the exact steps: step sizes from the smallest subnormal to the float just
# below 1, both ends included, and right-hand sides from the smallest normal to 1e300
# with 0, plus seeded log-uniform draws of each.
_TINY = float(np.finfo(np.float64).tiny)
_HS = [5e-324, 1e-310, 1e-301, 1e-200, 1e-100, 1e-30, 1e-16, 1e-8, 1e-4, 1.0 / 64.0, 0.125,
       0.25, 1.0 / 3.0, 0.5, 0.75, 0.9, 0.999, 1.0 - 1e-8, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
_BS = [0.0, _TINY, 1e-300, 1e-200, 1e-100, 1e-20, 1e-8, 1e-3, 0.1, 0.5, 1.0, 1.5, 3.0, 10.0,
       1e3, 1e8, 1e20, 1e50, 1e100, 1e150, 1e200, 1e250, 1e300]


def _sweep():
    rng = np.random.default_rng(2016)
    hs = _HS + (10.0 ** rng.uniform(-323.0, 0.0, 12)).tolist() + rng.random(12).tolist() \
        + (1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 12)).tolist()
    bs = np.array(_BS + (10.0 ** rng.uniform(-307.6, 300.0, 60)).tolist())
    return [h for h in hs if 0.0 < h < 1.0], bs


class TestExactSteps:
    """Each scalar zoo problem steps by its exact root of z - h*f(z) = b."""

    def test_ginzburg_landau_roots_within_4_ulps(self):
        cubic = make_problem("ginzburg-landau").solve
        hs, bs = _sweep()
        worst = max((ulps_from(float(z), cubic_root_reference(h, b)), h, b)
                    for h in hs for b, z in zip(bs, cubic(h, bs)))
        assert worst[0] <= 4.0, f"{worst[0]:.2f} ulps at h={worst[1]!r}, b={worst[2]!r}"

    @pytest.mark.parametrize("label", ["ginzburg-landau", "linear"])
    def test_odd_in_b_bit_for_bit(self, label):
        solve = make_problem(label).solve
        hs, bs = _sweep()
        bs = np.concatenate([bs, [1e305, np.finfo(np.float64).max]])
        for h in hs:
            z, mirrored = solve(h, bs), solve(h, -bs)
            assert np.array_equal(mirrored, -z)
            assert np.array_equal(np.signbit(mirrored), ~np.signbit(z))

    @pytest.mark.parametrize("h, b", [
        # T = 1e-300 with h = 1e-301 passes check_step_sizes
        (1e-301, 1.0), (1e-301, 1e300),
        # ginzburg-landau with sigma = 0 and L = 0.2 takes any h < 1
        (1.0 - 2.0**-53, 1e300), (1.0 - 2.0**-53, _TINY),
        # the root of b = 1.7e308 at h = 0.5 is about 7e102
        (0.5, 1.7e308), (0.5, np.finfo(np.float64).max),
    ])
    def test_extreme_roots_are_exact(self, h, b):
        problem = make_problem("ginzburg-landau", sigma=0.0, L=0.2)
        check_step_sizes(problem, [h], 1.0, 10.0 * h)
        (z,) = problem.solve(h, np.array([b]))
        assert ulps_from(float(z), cubic_root_reference(h, b)) <= 4.0

    @settings(max_examples=200, deadline=None)
    @given(lam=st.floats(0.0, 1e6), h=st.floats(1e-300, 0.999),
           b=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8))
    def test_linear_step_is_the_closed_form(self, lam, h, b):
        b = np.array(b)
        assert np.array_equal(make_problem("linear", lam=lam).solve(h, b), b / (1.0 + h * lam))

    @pytest.mark.parametrize("label", ["ginzburg-landau", "linear"])
    def test_non_finite_right_hand_side_gives_no_finite_root(self, label):
        solve = make_problem(label).solve
        z = solve(0.125, np.array([np.nan, np.inf, -np.inf, 2.0]))
        assert not np.isfinite(z[:3]).any() and np.isfinite(z[3])

    @pytest.mark.parametrize("label", ["ginzburg-landau", "linear"])
    def test_each_root_independent_of_its_batch(self, label):
        # a NaN or infinite entry, such as a failed path's, changes no other entry
        solve = make_problem(label).solve
        b = np.array([np.nan, 1e300, np.inf, 1.0, -1.7e308, -np.inf, 0.0, 3e-300])
        together = solve(0.5, b)
        alone = np.concatenate([solve(0.5, b[i:i + 1]) for i in range(b.size)])
        assert np.array_equal(together, alone, equal_nan=True)
        assert np.isfinite(together[[1, 3, 4, 6, 7]]).all()

    def test_equilibrium_fixed_point(self):
        (z,) = make_problem("ginzburg-landau").solve(0.1, np.array([1.0]))
        assert abs(z - 1.0) <= 4.0 * math.ulp(1.0)

    def test_scalar_problem_without_exact_step_rejected_before_drawing(self):
        class Undrawn:
            def standard_normal(self, shape):
                raise LookupError(shape)

        prob = SdeProblem(label="no-step", **_scalar_callables(), x0=[0.5], L=1.0)
        with pytest.raises(ContractViolationError, match="'no-step' has no exact implicit step"):
            simulate_trajectory(prob, 0.125, 0.25, 1.0, [], Undrawn())


class TestBemStep:
    def test_rotation_newton_matches_direct_solve(self):
        # the closed form is Newton's first update, exact for the linear drift
        h, h0, T = 0.1, 0.12, 1.0
        for params in ({"omega": 2.0, "kappa": 0.3, "sigma": 0.5},
                       {"x0": (1e6, -3e5), "sigma": 2.0, "L": 4.0}):
            prob = make_problem("bounded-rotation", **params)
            traj = simulate_trajectory(prob, h, h0, T, [], StreamPlan(3).path_stream(0))
            d_w = trajectory_increments(prob, h, T, 3)
            mat = np.eye(2) - h * rotation_matrix(prob)
            g = prob.diffusion(prob.x0)
            for j in range(step_count(h, T)):
                expected = np.linalg.solve(mat, traj.states[j] + g @ d_w[j])
                gap = np.abs(traj.states[j + 1] - expected).max()
                assert gap <= 1e-12 * np.abs(expected).max()

    def test_other_planar_problem_rejected_before_drawing(self):
        class Undrawn:
            def standard_normal(self, shape):
                raise LookupError(shape)

        prob = SdeProblem(
            label="planar-cubic",
            drift=lambda x: x - np.sum(x * x, axis=-1, keepdims=True) * x,
            diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
            x0=np.array([1.0, 0.0]), L=1.0,
        )
        with pytest.raises(ContractViolationError, match="'planar-cubic' has d = 2"):
            simulate_trajectory(prob, 0.125, 0.25, 1.0, [], Undrawn())


class TestRotationPaths:
    @staticmethod
    def _paths(count, h=0.1, x0=(1.0, 0.0)):
        problem = make_problem("bounded-rotation", omega=1.5, kappa=0.2, sigma=0.4, x0=x0)
        return RotationPaths(problem, h, count)

    def test_steps_its_state_in_place(self):
        paths = self._paths(3)
        y = paths.y
        d_w = StreamPlan(26).chunk_stream(0).standard_normal((4, 2, 3)) * math.sqrt(0.1)
        out = np.empty_like(d_w)
        paths.step(d_w, out)
        assert paths.y is y and np.array_equal(out[-1], y)

    @pytest.mark.parametrize("split", [1, 6])
    def test_blocks_from_the_carried_state_equal_one_pass(self, split):
        d_w = StreamPlan(27).chunk_stream(0).standard_normal((9, 2, 5)) * math.sqrt(0.1)
        whole = self._paths(5)
        expected = np.empty_like(d_w)
        whole.step(d_w, expected)
        paths = self._paths(5)
        rows = np.empty_like(d_w)
        paths.step(d_w[:split], rows[:split])
        paths.step(d_w[split:], rows[split:])
        assert np.array_equal(rows, expected)
        assert np.array_equal(paths.best, whole.best)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coefficients_rejected(self):
        # (1 + h*kappa)^2 overflows float64, which would make every step 0
        problem = make_problem("bounded-rotation", kappa=1e200)
        with pytest.raises(ContractViolationError, match="overflows float64 at h=0.25"):
            RotationPaths(problem, 0.25, 4)

    @pytest.mark.parametrize("h", [1e-9, 0.015625, 0.5])
    @pytest.mark.parametrize("kappa", [0.0, 0.2, 1e100])
    @pytest.mark.parametrize("omega", [-0.0, 0.0, 1.5, 1e154])
    def test_coefficients_are_the_drift_matrix_ones(self, omega, kappa, h):
        # a/det and the turn (-b/det, b/det), a = 1 - h*A[0, 0] and b = h*A[1, 0], bit
        # for bit, the signs of zeros included
        problem = make_problem("bounded-rotation", omega=omega, kappa=kappa)
        A = rotation_matrix(problem)
        a, b = 1.0 - h * A[0, 0], h * A[1, 0]
        det = a * a + b * b
        paths = RotationPaths(problem, h, 1)
        assert np.float64(paths.a).tobytes() == np.float64(a / det).tobytes()
        assert paths.turn.tobytes() == np.array([[-(b / det)], [b / det]]).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_path_fails_quietly_at_its_first_state_not_finite(self, value):
        # an increment that is not finite makes state 38 of path 1 not finite, and
        # every later one too, soon NaN (inf - inf) with no warning, which its running
        # maximum keeps; the other paths step on
        d_w = StreamPlan(29).chunk_stream(0).standard_normal((64, 2, 3)) * math.sqrt(0.1)
        d_w[37, 0, 1] = value
        paths = self._paths(3)
        out = np.empty_like(d_w)
        paths.step(d_w, out)
        finite = np.isfinite(out).all(axis=1)
        assert finite[:, [0, 2]].all() and finite[:37, 1].all() and not finite[37:, 1].any()
        assert np.isnan(paths.sup(0.5)).tolist() == [False, True, False]

    def test_equals_the_two_row_step(self):
        # a*r0 + (-b)*r1 has the bits of a*r0 - b*r1, and b*r0 + a*r1 those of a*r1 + b*r0
        h = 0.1
        paths = self._paths(64, h, x0=(0.3, -2.0))
        a, b = 1.0 + h * 0.2, h * 1.5
        det = a * a + b * b
        a, b = a / det, b / det
        d_w = StreamPlan(28).chunk_stream(0).standard_normal((16, 2, 64)) * math.sqrt(h)
        y0, y1 = np.full(64, 0.3), np.full(64, -2.0)
        best = y0 * y0 + y1 * y1
        out = np.empty_like(d_w)
        paths.step(d_w, out)
        for j, row in enumerate(out):
            r0, r1 = d_w[j, 0] * 0.4 + y0, d_w[j, 1] * 0.4 + y1
            y0, y1 = r0 * a - r1 * b, r0 * b + r1 * a
            best = np.maximum(best, y0 * y0 + y1 * y1)
            assert np.array_equal(row, [y0, y1])
        assert np.array_equal(paths.best, best)


class TestScalarStepMatchesKernel:
    @pytest.mark.parametrize("label, params, h", [
        ("ginzburg-landau", {"sigma": 0.5}, 0.125),
        ("ginzburg-landau", {"sigma": 2.0, "L": 3.0}, 0.1),
        ("linear", {"lam": 1.0, "sigma": 0.5}, 0.1),
    ])
    def test_paths_bit_identical(self, label, params, h):
        # a trajectory's steps are those of its row in the batch kernel, and the
        # batch counts each of its path-steps once
        prob = make_problem(label, **params)
        h0 = 0.999 * 0.5 / prob.L
        plan = StreamPlan(13)
        trajs = [simulate_trajectory(prob, h, h0, 8 * h, [], plan.path_stream(i))
                 for i in range(40)]
        d_w = np.array([trajectory_increments(prob, h, 8 * h, 13, i)[:, 0] for i in range(40)])
        states, iters, failed = kernels.bem_scalar_batch(
            prob.solve, prob.diffusion, float(prob.x0[0]), h, d_w.T)
        assert not failed.any()
        assert np.array_equal(np.array([traj.states[:, 0] for traj in trajs]), states.T)
        assert np.array_equal(iters, np.full(8, len(trajs)))

    def test_solver_error_where_kernel_fails(self):
        # g(x) = 1e30*x multiplies the state by about 1e30 a step, so it overflows
        # float64 within ten steps; the trajectory raises at the step the kernel marks
        # failed
        prob = SdeProblem(
            label="loud-growth",
            drift=lambda x: x,
            diffusion=lambda x: 1e30 * np.asarray(x)[..., None],
            x0=np.array([1e100]), L=1.0, solve=lambda h, b: b / (1.0 - h),
        )
        h, h0, T = 0.4, 0.45, 4.0
        d_w = StreamPlan(0).path_stream(0).standard_normal((step_count(h, T), 1)) * math.sqrt(h)
        states, _, failed = kernels.bem_scalar_batch(prob.solve, prob.diffusion, 1e100, h, d_w)
        assert failed[0]
        step = int(np.flatnonzero(np.isnan(states[:, 0]))[0])
        with pytest.raises(SolverError, match=f"step {step} of {step_count(h, T)} failed "
                                              r"for problem 'loud-growth': implicit step"):
            simulate_trajectory(prob, h, h0, T, [], StreamPlan(0).path_stream(0))

    def test_trajectory_reports_failing_step(self):
        # f(x0) is finite, but z - h*f(z) = z - 8hz is 0 at h = 0.125, so the
        # first implicit step has no solution
        prob = SdeProblem(
            label="no-root",
            drift=lambda x: 8.0 * x,
            diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
            x0=np.array([1.0]), L=1.0, solve=lambda h, b: b / (1.0 - 8.0 * h),
        )
        with pytest.raises(SolverError, match="step 1 of 8 failed for problem 'no-root': "
                                              "implicit step gave no finite state$"):
            simulate_trajectory(prob, 0.125, 0.25, 1.0, [], StreamPlan(0).path_stream(0))

    @pytest.mark.parametrize("block", [1, 7, 16, 17, 64])
    def test_solver_error_names_the_step_in_any_block(self, monkeypatch, block):
        # y' = y/(1 - h) grows past 5 at step 16, where the drift is NaN, so that
        # step fails; a block that ends before it, or starts or ends with it, gives
        # the message of one whole block
        def solve(h, b):
            z = b / (1.0 - h)
            return np.where(np.abs(z) > 5.0, np.nan, z)

        prob = SdeProblem(
            label="nan-beyond-5",
            drift=lambda x: np.where(np.abs(x) > 5.0, np.nan, x),
            diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
            x0=np.array([1.0]), L=1.0, solve=solve,
        )
        monkeypatch.setattr(sde, "TRAJECTORY_BLOCK", block)
        with pytest.raises(SolverError, match="^step 16 of 30 failed for problem 'nan-beyond-5'"):
            simulate_trajectory(prob, 0.1, 0.45, 3.0, [], StreamPlan(0).path_stream(0))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("label", ["bounded-rotation", "ginzburg-landau"])
def test_a_state_not_finite_fails_the_trajectory_on_either_stepper(label, value):
    # increment row 37 is dW^38, so state 38 is the first that is not finite; the
    # rotation's inf - inf at step 39 raises no warning
    stream = SpoiledStream(StreamPlan(0).path_stream(0), 37, value)
    with pytest.raises(SolverError, match=f"^step 38 of 100 failed for problem '{label}': "
                                          "implicit step gave no finite state$"):
        simulate_trajectory(make_problem(label), 0.01, 0.25, 1.0, [0.5], stream)


class TestStepSizes:
    def test_step_count_convention(self):
        assert step_count(0.3, 1.0) == 3
        assert step_count(0.25, 1.0) == 4
        assert step_count(1.0 / 64.0, 1.0) == 64

    def test_step_count_beyond_the_float_integers(self):
        # T/h = 2e154: n and n + 1 times h are one float there, so counting up to the
        # last step that fits never ended
        assert step_count(0.5, 1e154) == int(2e154)

    def test_rejects_degenerate(self):
        prob = make_problem("linear", lam=0.1)  # L = 0.1
        with pytest.raises(ContractViolationError):
            check_step_sizes(prob, [0.3], 0.2, 1.0)  # h >= h0
        with pytest.raises(ContractViolationError):
            check_step_sizes(prob, [0.3], 0.45, 0.2)  # no steps fit
        with pytest.raises(ContractViolationError):
            check_step_sizes(prob, [-0.1], 0.2, 1.0)

    def test_rejects_an_empty_grid(self):
        with pytest.raises(ContractViolationError, match="^need at least one step size$"):
            check_step_sizes(make_problem("linear"), [], 0.25, 1.0)

    def test_validate_against_problem(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)  # L = 1.125
        with pytest.raises(ContractViolationError, match="2\\*h0\\*L"):
            check_step_sizes(prob, [0.3], 0.45, 1.0)


class TestCoercivity:
    def test_zoo_registration_passes(self):
        for label in zoo_labels():
            make_problem(label)

    def test_l_zero_with_noise_rejected(self):
        # lam = 0, sigma = 1, L = 0: sigma^2 x^2 / 2 > 0 breaks coercivity
        with pytest.raises(ContractViolationError, match="coercivity"):
            make_problem("linear", lam=0.0, sigma=1.0, L=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega", [1e16, 1e40, 1e154])
    def test_fast_rotation_accepted(self, omega):
        # the rotation's terms of <f(x), x> cancel exactly, but each is rounded by
        # about omega*|x|^2*eps, which once exceeded L*(1+|x|^2)
        assert make_problem("bounded-rotation", omega=omega).L == 0.25

    def test_l_zero_noiseless_ok(self):
        prob = make_problem("linear", lam=1.0, sigma=0.0, L=0.0)
        assert prob.L == 0.0

    def test_envelope_documentation_value(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)
        assert prob.L == 1.0 + 0.125
        check_coercivity(prob)

    def test_first_violation_reported(self):
        prob = SdeProblem(
            label="push-out",
            drift=lambda x: 2.0 * x,
            diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
            x0=np.array([0.0]), L=1.0,
        )
        with pytest.raises(ContractViolationError, match=r"'push-out' fails coercivity with L=1.0 at \|x\|="):
            check_coercivity(prob)

    @pytest.mark.filterwarnings("error")
    def test_violation_at_a_huge_x0_found_without_overflow(self):
        # inward inside the sampled ball, outward at x0 = 1e154; L*(1+|x0|^2)
        # overflows, so only the check divided by 1+|x|^2 sees the violation
        prob = SdeProblem(
            label="far-push-out",
            drift=lambda x: np.where(np.abs(x) > 1e100, 3.0 * x, -x),
            diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
            x0=np.array([1e154]), L=2.0,
        )
        with pytest.raises(ContractViolationError,
                           match=r"'far-push-out' fails coercivity with L=2.0 at \|x\|=1e\+154"):
            check_coercivity(prob)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("label, params", [("linear", {"lam": 1e308}),
                                               ("ginzburg-landau", {"sigma": 1e154}),
                                               ("bounded-rotation", {"omega": 1e308})])
    def test_overflow_inside_the_ball_is_reported(self, label, params):
        # f(x) or |g(x)|^2 overflows float64 at sampled points, where the check would
        # warn and compare inf or NaN
        with pytest.raises(ContractViolationError, match=f"'{label}' cannot be spot-checked"):
            make_problem(label, **params)

    @pytest.mark.filterwarnings("error")
    def test_zoo_problem_at_a_huge_x0_passes(self):
        make_problem("linear", lam=2.0, x0=1e154)

    def test_unknown_label(self):
        with pytest.raises(ContractViolationError, match="unknown problem"):
            make_problem("heat-bath")


class TestZooCallables:
    @pytest.mark.parametrize("label", zoo_labels())
    def test_stack_equals_state_by_state(self, label):
        # drift and diffusion on an (n, d) stack are the per-state values stacked
        prob = make_problem(label)
        stack = np.random.default_rng(3).uniform(-2.0, 2.0, (7, prob.d))
        for func, shape in ((prob.drift, (prob.d,)), (prob.diffusion, (prob.d, prob.m))):
            rows = np.array([np.asarray(func(x), dtype=np.float64) for x in stack])
            assert rows.shape == (7, *shape)
            assert np.array_equal(np.asarray(func(stack)), rows)

    @pytest.mark.parametrize("label", ["linear", "ginzburg-landau"])
    def test_scalar_problems_act_elementwise(self, label):
        prob = make_problem(label, sigma=0.7)
        states = np.random.default_rng(4).uniform(-2.0, 2.0, (5, 3))
        assert prob.drift(states).shape == states.shape
        assert np.array_equal(prob.diffusion(states), prob.diffusion(states[..., None])[..., 0])

    def test_parameters_are_the_factory_arguments(self):
        zoo = zoo_parameters()
        assert list(zoo) == list(zoo_labels())
        assert zoo["linear"] == {"lam": 1.0, "sigma": 0.0, "x0": 1.0, "L": None}
        assert zoo["bounded-rotation"]["x0"] == (1.0, 0.0)


class TestZIncrement:
    def test_zero_increment(self):
        g = np.array([[2.0], [1.0]])
        val = z_increment(np.array([1.0, 1.0]), g, np.array([0.0]), 0.1)
        assert val == pytest.approx(-0.1 * 5.0, rel=1e-15)

    def test_zero_diffusion(self):
        val = z_increment(np.array([1.0]), np.array([[0.0]]), np.array([0.5]), 0.1)
        assert val == 0.0

    def test_zero_mean_monte_carlo(self):
        # Ito isometry makes E[Z] = 0: E|g dW|^2 = h |g|^2
        rng = np.random.default_rng(99)
        y = np.array([0.7, -0.2])
        g = np.array([[1.0, 0.5], [0.0, 2.0]])
        h = 0.25
        n = 1_000_000
        d_w = rng.normal(0, math.sqrt(h), (n, 2))
        noise = d_w @ g.T
        z = (noise**2).sum(axis=1) - h * np.sum(g * g) + 2.0 * noise @ y
        se = z.std(ddof=1) / math.sqrt(n)
        assert abs(z.mean()) <= 4 * se
        # the vectorized oracle agrees with the scalar operation
        for i in range(20):
            assert z_increment(y, g, d_w[i], h) == pytest.approx(z[i], rel=1e-12, abs=1e-12)


class TestSimulateTrajectory:
    def test_zero_diffusion_decay(self):
        prob = make_problem("linear", lam=1.0, sigma=0.0)
        traj = simulate_trajectory(prob, 0.1, 0.25, 1.0, [0.5], StreamPlan(1).path_stream(0))
        expected = (1.0 / 1.1) ** np.arange(11)
        assert np.allclose(traj.states[:, 0], expected, atol=1e-12)
        assert np.all(np.diff(traj.states[:, 0]) < 0)

    def test_constant_trajectory_zero_dynamics(self):
        prob = make_problem("linear", lam=0.0, sigma=0.0, L=0.0)
        traj = simulate_trajectory(prob, 0.2, 0.5, 1.0, [], StreamPlan(2).path_stream(0))
        assert np.all(traj.states == 1.0)
        assert np.all(traj.z_increments == 0.0)

    def test_z_recomputable_from_states(self):
        h, h0, T = 0.125, 0.25, 1.0
        for label in zoo_labels():
            prob = make_problem(label, sigma=0.5)
            traj = simulate_trajectory(prob, h, h0, T, [0.5], StreamPlan(5).path_stream(3))
            d_w = trajectory_increments(prob, h, T, 5, 3)
            for j in range(step_count(h, T)):
                y = traj.states[j]
                g_y = prob.diffusion(y)
                assert traj.z_increments[j] == pytest.approx(
                    z_increment(y, g_y, d_w[j], h), rel=1e-12, abs=1e-14
                ), label

    def test_sup_functional_recorded(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)
        h = 0.125
        traj = simulate_trajectory(prob, h, 0.25, 1.0, [0.25, 0.5], StreamPlan(5).path_stream(3))
        vals = (traj.states[:, 0] ** 2) * (1.0 + h * 0.25)
        assert traj.sup_functional_p[0.5] == pytest.approx(vals.max() ** 0.5, rel=1e-12)
        assert traj.sup_functional_p[0.25] == pytest.approx(vals.max() ** 0.25, rel=1e-12)

    def test_rejects_bad_p(self):
        prob = make_problem("linear")
        with pytest.raises(ContractViolationError):
            simulate_trajectory(prob, 0.1, 0.25, 1.0, [1.5], StreamPlan(0).path_stream(0))

    @pytest.mark.parametrize("label", ["ginzburg-landau", "bounded-rotation"])
    def test_redrawn_increments_reproduce_the_trajectory(self, label):
        # each state is the implicit step from the one before it on the re-drawn
        # increment, bit for bit: the scalar problem's solve, or the rotation's
        # closed form with the coefficients of its drift matrix
        h, T = 0.03125, 1.0
        prob = make_problem(label, sigma=0.5)
        traj = simulate_trajectory(prob, h, 0.25, T, [], StreamPlan(6).path_stream(2))
        d_w = trajectory_increments(prob, h, T, 6, 2)
        if label == "bounded-rotation":
            g = prob.diffusion(prob.x0)[0, 0]
            A = rotation_matrix(prob)
            a, b = 1.0 - h * A[0, 0], h * A[1, 0]
            det = a * a + b * b
            a, b = a / det, b / det
        for j, y in enumerate(traj.states[:-1]):
            if label == "bounded-rotation":
                r0, r1 = d_w[j] * g + y
                expected = [r0 * a - r1 * b, r0 * b + r1 * a]
            else:
                expected = prob.solve(h, y + prob.diffusion(y)[..., 0] * d_w[j])
            assert np.array_equal(traj.states[j + 1], expected), f"step {j + 1}"

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("label", ["bounded-rotation", "ginzburg-landau", "linear"])
    def test_blocks_do_not_change_the_trajectory(self, monkeypatch, label, block):
        prob = make_problem(label, sigma=0.5)
        h0 = 0.999 * 0.5 / prob.L

        def trajectory():
            traj = simulate_trajectory(prob, 1 / 100, h0, 1.0, [0.25, 0.5],
                                       StreamPlan(9).path_stream(1))
            return traj.states, traj.z_increments, traj.sup_functional_p

        whole = trajectory()
        monkeypatch.setattr(sde, "TRAJECTORY_BLOCK", block)
        parts = trajectory()
        for got, expected in zip(parts[:2], whole[:2]):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert parts[2] == whole[2]

    @pytest.mark.parametrize("block", [1, 7])
    def test_noise_overflow_names_its_step_in_any_block(self, monkeypatch, block):
        # finite states whose noise term overflows float64 from some step on
        prob = make_problem("linear", lam=1.0, sigma=100.0, x0=1e150)
        steps = (5e-5, 0.999 * 0.5 / prob.L, 0.05)
        with pytest.raises(ContractViolationError, match="overflows float64 at step") as whole:
            simulate_trajectory(prob, *steps, [], StreamPlan(32).path_stream(0))
        monkeypatch.setattr(sde, "TRAJECTORY_BLOCK", block)
        with pytest.raises(ContractViolationError) as parts:
            simulate_trajectory(prob, *steps, [], StreamPlan(32).path_stream(0))
        assert str(parts.value) == str(whole.value)

    @pytest.mark.parametrize("block", [1, 2])
    def test_failed_step_raised_over_an_earlier_noise_overflow(self, monkeypatch, block):
        # g(x) = 1e150*x: Z^2 overflows float64 in an earlier block than the third
        # state, which is not finite; the failed step is what the trajectory raises
        prob = SdeProblem(
            label="overflow-then-fail",
            drift=lambda x: 0.0 * x,
            diffusion=lambda x: 1e150 * np.asarray(x)[..., None],
            x0=np.array([1.0]), L=1.0, solve=lambda h, b: b,
        )
        d_w = trajectory_increments(prob, 0.1, 1.0, 0)[:, 0]
        y1 = 1.0 + 1e150 * d_w[0]
        with np.errstate(over="ignore"):
            assert np.isfinite(y1 + 1e150 * y1 * d_w[1]) and np.isinf((1e150 * y1 * d_w[1])**2)
        monkeypatch.setattr(sde, "TRAJECTORY_BLOCK", block)
        with pytest.raises(SolverError, match="^step 3 of 10 failed for problem 'overflow-then"):
            simulate_trajectory(prob, 0.1, 0.45, 1.0, [], StreamPlan(0).path_stream(0))

    @pytest.mark.parametrize("label", ["bounded-rotation", "ginzburg-landau"])
    def test_holds_its_arrays_and_one_block(self, monkeypatch, label):
        # beyond the arrays it returns, a trajectory holds one block's increments and
        # temporaries, 7-9 block-length rows of states; with its increments drawn whole
        # it held 15-17
        block = 512
        monkeypatch.setattr(sde, "TRAJECTORY_BLOCK", block)
        prob = make_problem(label, sigma=0.5)
        steps = (1 / 4096, 0.999 * 0.5 / prob.L, 1.0)
        simulate_trajectory(prob, *steps, [0.5], StreamPlan(1).path_stream(0))
        tracemalloc.start()
        try:
            traj = simulate_trajectory(prob, *steps, [0.5], StreamPlan(1).path_stream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = traj.states.nbytes + traj.z_increments.nbytes
        rows = (peak - held) / (block * prob.d * 8)
        assert rows <= 10, f"{rows:.1f} block rows beyond the returned arrays"


class TestRecursionCheck:
    def test_zero_diffusion_strict_slack(self):
        prob = make_problem("linear", lam=1.0, sigma=0.0)
        h, h0, T = 0.1, 0.25, 1.0
        traj = simulate_trajectory(prob, h, h0, T, [], StreamPlan(1).path_stream(0))
        report = pathwise_recursion_check(traj, prob, h)
        assert report.passed
        # both sides coincide at n = 0; every later index has strict slack
        L = prob.L
        y_sq = traj.states[:, 0] ** 2
        n = step_count(h, T)
        lhs = (1 - 2 * h * L) * y_sq[n]
        rhs = (1 - 2 * h * L) * y_sq[0] + 2 * L * h * n + 2 * h * L * y_sq[:n].sum()
        assert lhs < rhs

    def test_zero_dynamics_equality(self):
        prob = make_problem("linear", lam=0.0, sigma=0.0, L=0.0)
        traj = simulate_trajectory(prob, 0.2, 0.5, 1.0, [], StreamPlan(2).path_stream(0))
        report = pathwise_recursion_check(traj, prob, 0.2)
        assert report.passed
        assert report.max_excess == pytest.approx(0.0, abs=1e-14)

    def test_random_ginzburg_landau_paths(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)
        plan = StreamPlan(7)
        for i in range(300):
            traj = simulate_trajectory(prob, 0.125, 0.25, 1.0, [], plan.path_stream(i))
            report = pathwise_recursion_check(traj, prob, 0.125)
            assert report.passed, f"violation on path {i}: {report}"

    def test_rotation_paths(self):
        prob = make_problem("bounded-rotation", omega=1.5, kappa=0.1, sigma=0.4)
        plan = StreamPlan(9)
        for i in range(50):
            traj = simulate_trajectory(prob, 0.1, 0.5, 2.0, [], plan.path_stream(i))
            assert pathwise_recursion_check(traj, prob, 0.1).passed

    def test_ten_thousand_ginzburg_landau_paths_vectorized(self):
        # batch form of the recursion check over 10^4 kernel-stepped paths
        from stochastic_gronwall import kernels, sde

        sigma, h = 0.5, 0.125
        prob = make_problem("ginzburg-landau", sigma=sigma)
        n_paths, n_steps = 10_000, 8
        d_w = StreamPlan(11).chunk_stream(0).standard_normal((n_paths, n_steps))
        d_w *= math.sqrt(h)
        states, _, failed = kernels.bem_scalar_batch(prob.solve, prob.diffusion, 1.0, h, d_w.T)
        states = states.T
        assert not failed.any()
        y_sq = states**2
        g_sq = (sigma * states) ** 2
        noise = sigma * states[:, :-1] * d_w
        z = noise**2 - h * g_sq[:, :-1] + 2.0 * noise * states[:, :-1]
        lhs = (1 - 2 * h * prob.L) * y_sq + h * g_sq
        t = h * np.arange(n_steps + 1)
        z_cum = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(z, axis=1)], axis=1)
        y_cum = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(y_sq[:, :-1], axis=1)], axis=1)
        rhs = lhs[:, :1] + 2 * prob.L * t[None, :] + z_cum + 2 * h * prob.L * y_cum
        excess = lhs - rhs - 1e-8 * np.maximum(1.0, np.abs(rhs))
        assert excess.max() <= 0.0, f"violations on {int((excess > 0).any(axis=1).sum())} paths"


class TestCustomProblem:
    def test_user_problem_with_spot_check(self):
        # bounded drift toward the origin, additive noise, and its own exact step
        prob = tanh_well_problem()
        check_coercivity(prob)
        traj = simulate_trajectory(prob, 0.2, 0.25, 1.0, [], StreamPlan(4).path_stream(0))
        y = traj.states[:, 0]
        d_w = trajectory_increments(prob, 0.2, 1.0, 4)
        residual = y[1:] + 0.2 * np.tanh(y[1:]) - (y[:-1] + 0.3 * d_w[:, 0])
        assert np.abs(residual).max() <= 1e-12


def _scalar_callables():
    return {
        "drift": lambda x: -x,
        "diffusion": lambda x: 0.5 * np.asarray(x)[..., None],
    }


class TestProblemContract:
    def test_dimensions_read_off_x0_and_g(self):
        prob = SdeProblem(label="planar-noise", **{
            **_scalar_callables(), "diffusion": lambda x: np.ones(np.shape(x) + (3,))},
            x0=[0.5], L=1.0)
        assert (prob.d, prob.m) == (1, 3)
        rot = make_problem("bounded-rotation")
        assert (rot.d, rot.m) == (2, 2)

    def test_scalar_state_with_several_noises_rejected_before_drawing(self):
        # the scalar kernel reads one noise column, so d = 1 needs m = 1
        class Undrawn:
            def standard_normal(self, shape):
                raise LookupError(shape)

        prob = SdeProblem(label="planar-noise", **{
            **_scalar_callables(), "diffusion": lambda x: np.ones(np.shape(x) + (3,))},
            x0=[0.5], L=1.0)
        with pytest.raises(ContractViolationError, match="'planar-noise' has d = 1 and m = 3"):
            simulate_trajectory(prob, 0.125, 0.25, 1.0, [], Undrawn())

    @pytest.mark.parametrize("name, func", [
        ("drift", lambda x: float(-x[0])),
        ("drift", lambda x: np.stack([-x, -x], axis=-1)),
        ("diffusion", lambda x: 0.5 * x),
        ("diffusion", lambda x: np.ones((2, 1))),
    ])
    def test_wrong_shape_rejected_at_construction(self, name, func):
        callables = {**_scalar_callables(), name: func}
        with pytest.raises(ContractViolationError, match="must have shapes"):
            SdeProblem(label="bad", **callables, x0=np.array([1.0]), L=1.0)

    def test_x0_must_be_one_state(self):
        with pytest.raises(ContractViolationError, match="x0"):
            SdeProblem(label="bad", **_scalar_callables(), x0=np.ones((2, 1)), L=1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("label, name", [
        (label, name) for label, params in zoo_parameters().items() for name in params])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_zoo_parameter_rejected(self, label, name, value):
        default = zoo_parameters()[label][name]
        if isinstance(default, tuple):
            value = (value, *default[1:])
        with pytest.raises(ContractViolationError, match="must be finite"):
            make_problem(label, **{name: value})

    def test_non_finite_problem_message_names_f_and_g_at_x0(self):
        with pytest.raises(ContractViolationError) as err:
            SdeProblem(label="nan-g", **{**_scalar_callables(),
                                         "diffusion": lambda x: np.full(np.shape(x) + (1,), np.nan)},
                       x0=[0.5], L=1.0)
        assert str(err.value) == ("problem 'nan-g': x0, L, f(x0), g(x0), |x0|^2 and |g(x0)|^2 "
                                  "must be finite; got x0=[0.5], L=1.0")

    def test_drift_overflowing_at_x0_rejected(self):
        # f(1e160) = 1e160 - 1e480 is -inf
        with pytest.raises(ContractViolationError, match="must be finite"):
            make_problem("ginzburg-landau", x0=1e160)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("label, params", [
        ("linear", {"x0": 1e155}),  # |x0|^2 = 1e310
        ("bounded-rotation", {"x0": (1e155, 0.0)}),
        ("linear", {"x0": 1e100, "sigma": 1e60}),  # |x0|^2 = 1e200, |g(x0)|^2 = 1e320
    ], ids=["x0-scalar", "x0-planar", "g-x0"])
    def test_squared_norm_overflowing_at_x0_rejected(self, label, params):
        with pytest.raises(ContractViolationError, match=r"\|x0\|\^2 and \|g\(x0\)\|\^2"):
            make_problem(label, **params)

    def test_problem_is_frozen(self):
        prob = make_problem("linear")
        with pytest.raises(AttributeError):
            prob.drift = None
        with pytest.raises(AttributeError):
            del prob.x0
