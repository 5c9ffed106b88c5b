import math
from dataclasses import dataclass

import numpy as np
import pytest

from stochastic_gronwall import kernels
from stochastic_gronwall.errors import ContractViolationError, SolverError
from stochastic_gronwall.sde import (
    BemConfig,
    BemTrajectory,
    SdeProblem,
    check_coercivity,
    make_problem,
    simulate_trajectory,
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
    traj: BemTrajectory, problem: SdeProblem, cfg: BemConfig, rtol: float = 1e-8
) -> RecursionCheckReport:
    """Check the iterated squared-norm inequality along one trajectory:

        (1-2hL)|Y^n|^2 + h|g(Y^n)|^2
            <= (1-2hL)|Y^0|^2 + h|g(Y^0)|^2 + 2L t_n
               + sum_{j<n} Z^{j+1} + 2hL sum_{j<n} |Y^j|^2

    for every n up to N_h, with relative slack ``rtol``.
    """
    h, L = cfg.h, problem.L
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


def scalar_step(prob, y, d_w, h):
    """Implicit steps of a scalar problem from the states y with the
    increments d_w, entry by entry: (states, iterations, converged)."""
    b = y + prob.diffusion(y)[..., 0] * d_w
    return kernels.implicit_solve(prob.drift, lambda x: prob.drift_jacobian(x)[..., 0], h, b)


def linear_step_closed_form(y, lam, sigma, d_w, h):
    return y * (1.0 + sigma * d_w) / (1.0 + h * lam)


def cubic_root_bisection(y, sigma, d_w, h, tol=1e-14):
    """Independent root finder for the Ginzburg-Landau implicit step."""
    b = y + sigma * y * d_w

    def residual(z):
        return z - h * (z - z**3) - b

    lo, hi = -1.0 - 2 * abs(b), 1.0 + 2 * abs(b)
    while residual(lo) > 0:
        lo *= 2
    while residual(hi) < 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestBemStep:
    def test_linear_matches_closed_form(self, rng):
        prob = make_problem("linear", lam=1.0, sigma=0.5)
        for h in (0.2, 0.1, 0.05, 0.01):
            y = rng.uniform(-3, 3, 25)
            d_w = rng.normal(0, math.sqrt(h), 25)
            out, _, ok = scalar_step(prob, y, d_w, h)
            assert ok.all()
            assert np.allclose(out, linear_step_closed_form(y, 1.0, 0.5, d_w, h),
                               rtol=0.0, atol=1e-10)

    def test_equilibrium_fixed_point(self):
        prob = make_problem("ginzburg-landau", sigma=0.5, x0=1.0)
        out, _, _ = scalar_step(prob, np.array([1.0]), np.array([0.0]), 0.1)
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_ginzburg_landau_vs_bisection_oracle(self, rng):
        prob = make_problem("ginzburg-landau", sigma=0.5)
        for _ in range(50):
            y = rng.uniform(-2, 2)
            h = rng.uniform(0.01, 0.5)
            d_w = rng.normal(0, math.sqrt(h))
            (out,), _, _ = scalar_step(prob, np.array([y]), np.array([d_w]), h)
            oracle = cubic_root_bisection(y, 0.5, d_w, h)
            assert out == pytest.approx(oracle, abs=1e-10)
            residual = out - h * (out - out**3) - (y + 0.5 * y * d_w)
            assert abs(residual) <= 1e-12

    def test_rotation_newton_matches_direct_solve(self):
        # the closed form is Newton's first update, exact for the linear drift
        cfg = BemConfig(h=0.1, h0=0.12, T=1.0)
        for params in ({"omega": 2.0, "kappa": 0.3, "sigma": 0.5},
                       {"x0": (1e6, -3e5), "sigma": 2.0, "L": 4.0}):
            prob = make_problem("bounded-rotation", **params)
            traj = simulate_trajectory(prob, cfg, [], StreamPlan(3).path_stream(0))
            mat = np.eye(2) - cfg.h * prob.drift_jacobian(prob.x0)
            g = prob.diffusion(prob.x0)
            for j in range(cfg.n_steps):
                expected = np.linalg.solve(mat, traj.states[j] + g @ traj.d_w[j])
                gap = np.abs(traj.states[j + 1] - expected).max()
                assert gap <= 1e-12 * np.abs(expected).max()
            assert np.all(traj.solver_iterations == 1)

    def test_other_planar_problem_rejected_before_drawing(self):
        class Undrawn:
            def standard_normal(self, shape):
                raise LookupError(shape)

        prob = SdeProblem(
            label="planar-cubic",
            drift=lambda x: x - np.sum(x * x, axis=-1, keepdims=True) * x,
            drift_jacobian=lambda x: (np.eye(2) * (1.0 - np.sum(x * x, axis=-1))[..., None, None]
                                      - 2.0 * x[..., :, None] * x[..., None, :]),
            diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
            x0=np.array([1.0, 0.0]), L=1.0,
        )
        with pytest.raises(ContractViolationError, match="'planar-cubic' has d = 2"):
            simulate_trajectory(prob, BemConfig(h=0.125, h0=0.25, T=1.0), [], Undrawn())


class TestScalarStepMatchesKernel:
    @pytest.mark.parametrize("label, params, h", [
        ("ginzburg-landau", {"sigma": 0.5}, 0.125),
        ("ginzburg-landau", {"sigma": 2.0, "L": 3.0}, 0.1),
        ("linear", {"lam": 1.0, "sigma": 0.5}, 0.1),
    ])
    def test_paths_bit_identical(self, label, params, h):
        # a trajectory's steps are those of its row in the batch kernel, and the
        # batch's per-step iterations are the trajectories' summed
        prob = make_problem(label, **params)
        cfg = BemConfig(h=h, h0=0.999 * 0.5 / prob.L, T=8 * h)
        plan = StreamPlan(13)
        trajs = [simulate_trajectory(prob, cfg, [], plan.path_stream(i)) for i in range(40)]
        d_w = np.array([traj.d_w[:, 0] for traj in trajs])
        states, iters, failed = kernels.bem_scalar_batch(
            prob.drift, prob.drift_jacobian, prob.diffusion, float(prob.x0[0]), d_w.T, h
        )
        assert not failed.any()
        assert np.array_equal(np.array([traj.states[:, 0] for traj in trajs]), states.T)
        assert np.array_equal(np.sum([traj.solver_iterations for traj in trajs], axis=0), iters)

    def test_solver_error_where_kernel_fails(self):
        # g(x0) = 1e130 puts the first step's b near 1e129, where the Ginzburg-Landau
        # solve fails; the trajectory raises at the step the kernel marks failed
        prob = SdeProblem(
            label="loud-cubic",
            drift=lambda x: x - x * x * x,
            drift_jacobian=lambda x: (1.0 - 3.0 * x * x)[..., None],
            diffusion=lambda x: 1e30 * np.asarray(x)[..., None],
            x0=np.array([1e100]), L=1.0,
        )
        cfg = BemConfig(h=0.4, h0=0.45, T=0.8)
        d_w = StreamPlan(0).path_stream(0).standard_normal((cfg.n_steps, 1)) * math.sqrt(cfg.h)
        with np.errstate(all="ignore"):
            states, _, failed = kernels.bem_scalar_batch(
                prob.drift, prob.drift_jacobian, prob.diffusion, 1e100, d_w, cfg.h
            )
            assert failed[0]
            step = int(np.flatnonzero(np.isnan(states[:, 0]))[0])
            with pytest.raises(SolverError, match=f"step {step} of {cfg.n_steps} failed "
                                                  r"for problem 'loud-cubic': implicit step"):
                simulate_trajectory(prob, cfg, [], StreamPlan(0).path_stream(0))

    def test_trajectory_reports_failing_step(self):
        # f(x0) is finite, but z - h*f(z) = z - 8hz is 0 at h = 0.125, so the
        # first implicit step has no solution
        prob = SdeProblem(
            label="no-root",
            drift=lambda x: 8.0 * x,
            drift_jacobian=lambda x: np.full(np.shape(x) + (1,), 8.0),
            diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
            x0=np.array([1.0]), L=1.0,
        )
        cfg = BemConfig(h=0.125, h0=0.25, T=1.0)
        with pytest.raises(SolverError, match="step 1 of 8"):
            simulate_trajectory(prob, cfg, [], StreamPlan(0).path_stream(0))


class TestStoppingRuleAtEveryScale:
    """Newton also stops once its update is at rounding level, so a large
    state converges by Newton alone: from |y| of about 1e4 on, rounding
    keeps the residual above the absolute tolerance."""

    def test_scalar_sweep_needs_no_fallback(self, monkeypatch):
        def no_fallback(*args):
            raise AssertionError("bisection fallback taken")

        monkeypatch.setattr(kernels, "_bisect", no_fallback)
        prob = make_problem("ginzburg-landau", sigma=0.5)
        y = np.logspace(2, 8, 13)
        z, iters, ok = scalar_step(prob, y, np.zeros_like(y), 0.125)
        assert ok.all()
        assert iters.max() < kernels.MAX_ITER
        residual = z - 0.125 * (z - z**3) - y
        assert np.all(np.abs(residual) <= 4.0 * np.finfo(np.float64).eps * y)


class TestBemConfig:
    def test_step_count_convention(self):
        assert BemConfig(h=0.3, h0=0.45, T=1.0).n_steps == 3
        assert BemConfig(h=0.25, h0=0.3, T=1.0).n_steps == 4
        assert BemConfig(h=1.0 / 64.0, h0=0.25, T=1.0).n_steps == 64

    def test_rejects_degenerate(self):
        with pytest.raises(ContractViolationError):
            BemConfig(h=0.3, h0=0.2, T=1.0)  # h >= h0
        with pytest.raises(ContractViolationError):
            BemConfig(h=0.3, h0=0.45, T=0.2)  # no steps fit
        with pytest.raises(ContractViolationError):
            BemConfig(h=-0.1, h0=0.2, T=1.0)

    def test_validate_against_problem(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)  # L = 1.125
        cfg = BemConfig(h=0.3, h0=0.45, T=1.0)
        with pytest.raises(ContractViolationError, match="2\\*h0\\*L"):
            cfg.validate_for(prob)


class TestCoercivity:
    def test_zoo_registration_passes(self):
        for label in zoo_labels():
            make_problem(label)

    def test_l_zero_with_noise_rejected(self):
        # lam = 0, sigma = 1, L = 0: sigma^2 x^2 / 2 > 0 breaks coercivity
        with pytest.raises(ContractViolationError, match="coercivity"):
            make_problem("linear", lam=0.0, sigma=1.0, L=0.0)

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
            drift_jacobian=lambda x: np.full(np.shape(x) + (1,), 2.0),
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
            drift_jacobian=lambda x: np.where(np.abs(x) > 1e100, 3.0, -1.0)[..., None],
            diffusion=lambda x: np.zeros(np.shape(x) + (1,)),
            x0=np.array([1e154]), L=2.0,
        )
        with pytest.raises(ContractViolationError,
                           match=r"'far-push-out' fails coercivity with L=2.0 at \|x\|=1e\+154"):
            check_coercivity(prob)

    @pytest.mark.filterwarnings("error")
    def test_zoo_problem_at_a_huge_x0_passes(self):
        make_problem("linear", lam=2.0, x0=1e154)

    def test_unknown_label(self):
        with pytest.raises(ContractViolationError, match="unknown problem"):
            make_problem("heat-bath")


class TestZooCallables:
    @pytest.mark.parametrize("label", zoo_labels())
    def test_stack_equals_state_by_state(self, label):
        # drift, Jacobian and diffusion on an (n, d) stack are the per-state values stacked
        prob = make_problem(label)
        stack = np.random.default_rng(3).uniform(-2.0, 2.0, (7, prob.d))
        for func, shape in ((prob.drift, (prob.d,)), (prob.drift_jacobian, (prob.d, prob.d)),
                            (prob.diffusion, (prob.d, prob.m))):
            rows = np.array([np.asarray(func(x), dtype=np.float64) for x in stack])
            assert rows.shape == (7, *shape)
            assert np.array_equal(np.asarray(func(stack)), rows)

    @pytest.mark.parametrize("label", ["linear", "ginzburg-landau"])
    def test_scalar_problems_act_elementwise(self, label):
        prob = make_problem(label, sigma=0.7)
        states = np.random.default_rng(4).uniform(-2.0, 2.0, (5, 3))
        assert prob.drift(states).shape == states.shape
        for func in (prob.drift_jacobian, prob.diffusion):
            assert np.array_equal(func(states), func(states[..., None])[..., 0])

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
        cfg = BemConfig(h=0.1, h0=0.25, T=1.0)
        traj = simulate_trajectory(prob, cfg, [0.5], StreamPlan(1).path_stream(0))
        expected = (1.0 / 1.1) ** np.arange(11)
        assert np.allclose(traj.states[:, 0], expected, atol=1e-12)
        assert np.all(np.diff(traj.states[:, 0]) < 0)

    def test_constant_trajectory_zero_dynamics(self):
        prob = make_problem("linear", lam=0.0, sigma=0.0, L=0.0)
        cfg = BemConfig(h=0.2, h0=0.5, T=1.0)
        traj = simulate_trajectory(prob, cfg, [], StreamPlan(2).path_stream(0))
        assert np.all(traj.states == 1.0)
        assert np.all(traj.z_increments == 0.0)

    def test_z_recomputable_from_states(self):
        cfg = BemConfig(h=0.125, h0=0.25, T=1.0)
        for label in zoo_labels():
            prob = make_problem(label, sigma=0.5)
            traj = simulate_trajectory(prob, cfg, [0.5], StreamPlan(5).path_stream(3))
            for j in range(cfg.n_steps):
                y = traj.states[j]
                g_y = prob.diffusion(y)
                assert traj.z_increments[j] == pytest.approx(
                    z_increment(y, g_y, traj.d_w[j], cfg.h), rel=1e-12, abs=1e-14
                ), label

    def test_sup_functional_recorded(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)
        cfg = BemConfig(h=0.125, h0=0.25, T=1.0)
        traj = simulate_trajectory(prob, cfg, [0.25, 0.5], StreamPlan(5).path_stream(3))
        vals = (traj.states[:, 0] ** 2) * (1.0 + cfg.h * 0.25)
        assert traj.sup_functional_p[0.5] == pytest.approx(vals.max() ** 0.5, rel=1e-12)
        assert traj.sup_functional_p[0.25] == pytest.approx(vals.max() ** 0.25, rel=1e-12)

    def test_rejects_bad_p(self):
        prob = make_problem("linear")
        cfg = BemConfig(h=0.1, h0=0.25, T=1.0)
        with pytest.raises(ContractViolationError):
            simulate_trajectory(prob, cfg, [1.5], StreamPlan(0).path_stream(0))


class TestRecursionCheck:
    def test_zero_diffusion_strict_slack(self):
        prob = make_problem("linear", lam=1.0, sigma=0.0)
        cfg = BemConfig(h=0.1, h0=0.25, T=1.0)
        traj = simulate_trajectory(prob, cfg, [], StreamPlan(1).path_stream(0))
        report = pathwise_recursion_check(traj, prob, cfg)
        assert report.passed
        # both sides coincide at n = 0; every later index has strict slack
        h, L = cfg.h, prob.L
        y_sq = traj.states[:, 0] ** 2
        n = cfg.n_steps
        lhs = (1 - 2 * h * L) * y_sq[n]
        rhs = (1 - 2 * h * L) * y_sq[0] + 2 * L * h * n + 2 * h * L * y_sq[:n].sum()
        assert lhs < rhs

    def test_zero_dynamics_equality(self):
        prob = make_problem("linear", lam=0.0, sigma=0.0, L=0.0)
        cfg = BemConfig(h=0.2, h0=0.5, T=1.0)
        traj = simulate_trajectory(prob, cfg, [], StreamPlan(2).path_stream(0))
        report = pathwise_recursion_check(traj, prob, cfg)
        assert report.passed
        assert report.max_excess == pytest.approx(0.0, abs=1e-14)

    def test_random_ginzburg_landau_paths(self):
        prob = make_problem("ginzburg-landau", sigma=0.5)
        cfg = BemConfig(h=0.125, h0=0.25, T=1.0)
        plan = StreamPlan(7)
        for i in range(300):
            traj = simulate_trajectory(prob, cfg, [], plan.path_stream(i))
            report = pathwise_recursion_check(traj, prob, cfg)
            assert report.passed, f"violation on path {i}: {report}"

    def test_rotation_paths(self):
        prob = make_problem("bounded-rotation", omega=1.5, kappa=0.1, sigma=0.4)
        cfg = BemConfig(h=0.1, h0=0.5, T=2.0)
        plan = StreamPlan(9)
        for i in range(50):
            traj = simulate_trajectory(prob, cfg, [], plan.path_stream(i))
            assert pathwise_recursion_check(traj, prob, cfg).passed

    def test_ten_thousand_ginzburg_landau_paths_vectorized(self):
        # batch form of the recursion check over 10^4 kernel-stepped paths
        from stochastic_gronwall import kernels

        sigma, h = 0.5, 0.125
        prob = make_problem("ginzburg-landau", sigma=sigma)
        n_paths, n_steps = 10_000, 8
        d_w = StreamPlan(11).chunk_stream(0).standard_normal((n_paths, n_steps))
        d_w *= math.sqrt(h)
        states, _, failed = kernels.bem_scalar_batch(
            prob.drift, prob.drift_jacobian, prob.diffusion, 1.0, d_w.T, h
        )
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
        # bounded drift toward the origin, additive noise
        prob = SdeProblem(
            label="tanh-well",
            drift=lambda x: -np.tanh(x),
            drift_jacobian=lambda x: (np.tanh(x) ** 2 - 1.0)[..., None],
            diffusion=lambda x: np.full(np.shape(x) + (1,), 0.3),
            x0=np.array([0.5]),
            L=0.045,
        )
        check_coercivity(prob)
        cfg = BemConfig(h=0.2, h0=0.25, T=1.0)
        traj = simulate_trajectory(prob, cfg, [], StreamPlan(4).path_stream(0))
        y = traj.states[:, 0]
        residual = y[1:] + 0.2 * np.tanh(y[1:]) - (y[:-1] + 0.3 * traj.d_w[:, 0])
        assert np.abs(residual).max() <= 1e-12


def _scalar_callables():
    return {
        "drift": lambda x: -x,
        "drift_jacobian": lambda x: np.full(np.shape(x) + (1,), -1.0),
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
            simulate_trajectory(prob, BemConfig(h=0.125, h0=0.25, T=1.0), [], Undrawn())

    @pytest.mark.parametrize("name, func", [
        ("drift", lambda x: float(-x[0])),
        ("drift", lambda x: np.stack([-x, -x], axis=-1)),
        ("drift_jacobian", lambda x: -np.ones_like(x)),
        ("drift_jacobian", lambda x: np.ones(np.shape(x) + (2,))),
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
        import dataclasses

        prob = make_problem("linear")
        with pytest.raises(dataclasses.FrozenInstanceError):
            prob.drift_jacobian = None
