"""Drift-implicit (backward) Euler-Maruyama integration for coercive SDEs.

The scheme advances Y^{j+1} = Y^j + h f(Y^{j+1}) + g(Y^j) dW^{j+1} with
equidistant steps. Registered problems must satisfy the coercivity
condition <f(x), x> + |g(x)|^2/2 <= L(1+|x|^2) (spot-checked on random
states) and a one-sided Lipschitz condition on the drift, which makes
the implicit step uniquely solvable for h below the Lipschitz threshold.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import ContractViolationError, SolverError

COERCIVITY_POINTS = 10_000
COERCIVITY_RADIUS = 100.0
COERCIVITY_SEED = 2024
#: Slack for the coercivity spot-check, relative to L*(1+|x|^2) scale.
COERCIVITY_RTOL = 1e-9


@dataclass(frozen=True)
class SdeProblem:
    """Autonomous SDE dX = f(X) dt + g(X) dW with deterministic X_0.

    ``drift``, ``drift_jacobian`` and ``diffusion`` are f, f' and g,
    evaluated on a stack of states: an (n, d) array maps to (n, d),
    (n, d, d) and (n, d, m) arrays, and a single (d,) state to (d,),
    (d, d) and (d, m). The state dimension d is ``x0.size`` and the
    noise dimension m is read off ``diffusion(x0)``; construction checks
    these shapes at x0, and that x0, ``L`` and f, f' and g at x0 are
    finite. The scalar zoo problems act elementwise on
    states of any shape, appending one axis for the Jacobian and the
    diffusion. ``L`` is the registered coercivity constant;
    ``zoo_spec`` allows worker processes to rebuild the problem from
    plain data.
    """

    label: str
    drift: Callable[[np.ndarray], np.ndarray]
    drift_jacobian: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    L: float
    zoo_spec: tuple | None = None

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=np.float64))
        object.__setattr__(self, "x0", x0)
        if x0.ndim != 1:
            raise ContractViolationError(f"x0 must be one state of shape (d,), got {x0.shape}")
        if self.L < 0.0:
            raise ContractViolationError(f"L must be >= 0, got {self.L}")
        d = x0.size
        with np.errstate(all="ignore"):  # a non-finite value is reported below
            values = [np.asarray(func(x0)) for func in (self.drift, self.drift_jacobian,
                                                        self.diffusion)]
            norms = [self.x0_norm_sq(), self.g_x0_norm_sq()]
        f, jac, g = (v.shape for v in values)
        if f != (d,) or jac != (d, d) or len(g) != 2 or g[0] != d:
            raise ContractViolationError(
                f"problem {self.label!r}: at x0 of shape ({d},), f, f' and g must have "
                f"shapes ({d},), ({d}, {d}) and ({d}, m); got {f}, {jac} and {g}"
            )
        if not (math.isfinite(self.L)
                and all(np.isfinite(v).all() for v in [x0, *values, *norms])):
            raise ContractViolationError(
                f"problem {self.label!r}: x0, L, f(x0), f'(x0), g(x0), |x0|^2 and |g(x0)|^2 "
                f"must be finite; got x0={x0.tolist()}, L={self.L}"
            )

    @property
    def d(self) -> int:
        return self.x0.size

    @property
    def m(self) -> int:
        return np.shape(self.diffusion(self.x0))[1]

    def x0_norm_sq(self) -> float:
        return float(np.dot(self.x0, self.x0))

    def g_x0_norm_sq(self) -> float:
        g0 = self.diffusion(self.x0)
        return float(np.sum(g0 * g0))


def check_coercivity(problem: SdeProblem) -> None:
    """Spot-check <f(x),x> + |g(x)|^2/2 <= L(1+|x|^2) on random states.

    Draws ``COERCIVITY_POINTS`` points uniformly in the ball of radius
    ``COERCIVITY_RADIUS`` from the fixed ``COERCIVITY_SEED`` (plus the
    origin and x0) and raises on the first violation found. Drift and
    diffusion are evaluated on all points at once. The inequality is
    checked divided by s = 1+|x|^2, as
    <f(x), x/s> + |g(x)|^2/(2s) <= L, whose terms stay finite wherever
    |x|^2, f(x) and |g(x)|^2 are, as the problem contract requires at x0.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(COERCIVITY_SEED)))
    directions = rng.standard_normal((COERCIVITY_POINTS, problem.d))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms == 0.0] = 1.0
    radii = COERCIVITY_RADIUS * rng.random(COERCIVITY_POINTS) ** (1.0 / problem.d)
    points = directions / norms[:, None] * radii[:, None]
    points = np.vstack([points, np.zeros(problem.d), problem.x0])
    gx = problem.diffusion(points)
    s = 1.0 + np.sum(points * points, axis=1)
    lhs = np.sum(problem.drift(points) * (points / s[:, None]), axis=1) \
        + 0.5 * np.sum(gx * gx, axis=(1, 2)) / s
    bad = np.flatnonzero(lhs > problem.L + COERCIVITY_RTOL * np.maximum(1.0 / s, abs(problem.L)))
    if bad.size:
        i = bad[0]
        raise ContractViolationError(
            f"problem {problem.label!r} fails coercivity with L={problem.L} "
            f"at |x|={float(np.linalg.norm(points[i])):.3g}: "
            f"lhs={float(lhs[i]) * float(s[i]):.6g} > rhs={float(problem.L) * float(s[i]):.6g}"
        )


@dataclass(frozen=True)
class BemConfig:
    """Step size, cap and horizon for one run.

    N_h is the largest integer with N_h*h <= T; configurations with
    N_h = 0 are rejected. The coercivity constraint 2*h0*L < 1 is
    checked against the problem at simulation time.
    """

    h: float
    h0: float
    T: float

    def __post_init__(self):
        if not 0.0 < self.h < self.h0:
            raise ContractViolationError(
                f"need 0 < h < h0, got h={self.h}, h0={self.h0}"
            )
        if self.h >= 1.0:
            raise ContractViolationError(f"step size must be < 1, got {self.h}")
        if not self.T > 0.0:
            raise ContractViolationError(f"T must be > 0, got {self.T}")
        if self.n_steps < 1:
            raise ContractViolationError(
                f"h={self.h} exceeds the horizon T={self.T} (no steps fit)"
            )

    @property
    def n_steps(self) -> int:
        n = int(math.floor(self.T / self.h))
        while (n + 1) * self.h <= self.T:
            n += 1
        while n > 0 and n * self.h > self.T:
            n -= 1
        return n

    def validate_for(self, problem: SdeProblem) -> None:
        if not 2.0 * self.h0 * problem.L < 1.0:
            raise ContractViolationError(
                f"need 2*h0*L < 1, got {2.0 * self.h0 * problem.L} "
                f"for problem {problem.label!r}"
            )


@dataclass
class BemTrajectory:
    """One realized trajectory with its verification payload.

    ``z_increments`` are the centered noise terms
    Z^{j+1} = |g(Y^j) dW|^2 - h|g(Y^j)|^2 + 2<g(Y^j) dW, Y^j>, and
    ``sup_functional_p`` maps each requested exponent p to the realized
    sup_j (|Y^j|^2 + h |g(Y^j)|^2)^p.
    """

    states: np.ndarray
    d_w: np.ndarray
    z_increments: np.ndarray
    sup_functional_p: dict
    solver_iterations: np.ndarray


def z_increment(y, g_y, d_w, h: float) -> float:
    """Centered noise term of the squared-norm recursion at one step."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    g_y = np.atleast_2d(np.asarray(g_y, dtype=np.float64))
    d_w = np.atleast_1d(np.asarray(d_w, dtype=np.float64))
    if g_y.shape != (y.size, d_w.size):
        raise ContractViolationError(
            f"diffusion shape {g_y.shape} does not match state {y.size} "
            f"and increment {d_w.size}"
        )
    noise = g_y @ d_w
    return (
        float(np.dot(noise, noise))
        - h * float(np.sum(g_y * g_y))
        + 2.0 * float(np.dot(noise, y))
    )


def bem_step(problem: SdeProblem, y, d_w, h: float):
    """One implicit step: solve Y' = y + h f(Y') + g(y) dW.

    Newton iteration from the explicit predictor with the problem's
    drift Jacobian, to the residual tolerance ``kernels.TOL`` or an update
    of at most ``kernels.STEP_RTOL`` times the iterate (in norm), within
    ``kernels.MAX_ITER`` iterations. Returns (y_next, iterations).

    Scalar problems are solved by :func:`kernels.implicit_solve` on a
    batch of one path, the solver of :func:`kernels.bem_scalar_batch`,
    and share its failure rule: Newton falls back to safeguarded
    bisection, which is accepted at the tolerance or, once the bracket
    has collapsed, at 10*max(1, |b|) times the tolerance. This step
    raises :class:`SolverError` exactly where the batch kernel marks a
    path failed. Problems with d > 1 raise when Newton meets neither
    stopping rule.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    d_w = np.atleast_1d(np.asarray(d_w, dtype=np.float64))
    b = y + problem.diffusion(y) @ d_w

    if problem.d == 1:
        z, iters, ok = kernels.implicit_solve(
            problem.drift, lambda x: problem.drift_jacobian(x)[..., 0], h, b
        )
        if not ok[0]:
            raise SolverError(
                "implicit step did not converge (Newton and bisection fallback)",
                iterations=int(iters[0]),
            )
        return z, int(iters[0])

    z = b.copy()
    iters = 0
    residual = math.inf
    eye = np.eye(problem.d)
    for _ in range(kernels.MAX_ITER):
        r = z - h * problem.drift(z) - b
        residual = float(np.linalg.norm(r))
        if residual <= kernels.TOL:
            return z, iters
        try:
            delta = np.linalg.solve(eye - h * problem.drift_jacobian(z), r)
        except np.linalg.LinAlgError:
            break
        settled = np.linalg.norm(delta) <= kernels.STEP_RTOL * np.linalg.norm(z)
        z = z - delta
        iters += 1
        if settled:
            return z, iters
        if not np.all(np.isfinite(z)):
            break
    raise SolverError(
        f"implicit step did not converge after {iters} Newton iterations",
        residual=residual,
        iterations=iters,
    )


def simulate_trajectory(
    problem: SdeProblem,
    cfg: BemConfig,
    p_list: Sequence[float],
    rng_stream: np.random.Generator,
) -> BemTrajectory:
    """Integrate one path, recording states, noise terms, and functionals.

    Increments dW^{j+1} are N(0, h I_m) draws from the supplied stream.
    Solver failures propagate as :class:`SolverError` with the step index.
    """
    cfg.validate_for(problem)
    for p in p_list:
        if not 0.0 < p < 1.0:
            raise ContractViolationError(f"every p must lie in (0,1), got {p}")
    n = cfg.n_steps
    d_w = rng_stream.standard_normal((n, problem.m)) * math.sqrt(cfg.h)

    states = np.empty((n + 1, problem.d))
    states[0] = problem.x0
    z_vals = np.empty(n)
    iter_counts = np.empty(n, dtype=np.int64)
    func_vals = np.empty(n + 1)

    y = problem.x0.copy()
    g_y = problem.diffusion(y)
    func_vals[0] = float(np.dot(y, y)) + cfg.h * float(np.sum(g_y * g_y))
    for j in range(n):
        z_vals[j] = z_increment(y, g_y, d_w[j], cfg.h)
        try:
            y, iter_counts[j] = bem_step(problem, y, d_w[j], cfg.h)
        except SolverError as exc:
            raise SolverError(
                f"step {j + 1} of {n} failed for problem {problem.label!r}: {exc}",
                residual=exc.residual,
                iterations=exc.iterations,
            ) from exc
        states[j + 1] = y
        g_y = problem.diffusion(y)
        func_vals[j + 1] = float(np.dot(y, y)) + cfg.h * float(np.sum(g_y * g_y))

    # an array power, as in the batch sampler, so a one-path chunk there gives these bits
    sup_val = func_vals.max(keepdims=True)
    sup_p = {float(p): float((sup_val ** float(p))[0]) for p in p_list}
    return BemTrajectory(states, d_w, z_vals, sup_p, iter_counts)


# ---------------------------------------------------------------------------
# Problem zoo


def make_linear(lam: float = 1.0, sigma: float = 0.0, x0=1.0, L: float | None = None) -> SdeProblem:
    """Scalar linear problem f(x) = -lam*x, g(x) = sigma*x.

    The registered envelope L = max(lam, sigma^2/2) always dominates
    (-lam + sigma^2/2) x^2 <= L (1 + x^2); pass L explicitly to tighten
    or to exercise the coercivity check.
    """
    if lam < 0.0:
        raise ContractViolationError(f"lambda must be >= 0, got {lam}")
    if L is None:
        L = max(lam, 0.5 * sigma * sigma)
    problem = SdeProblem(
        label="linear",
        drift=lambda x: -lam * x,
        drift_jacobian=lambda x: np.full(np.shape(x) + (1,), -lam),
        diffusion=lambda x: sigma * np.asarray(x, dtype=np.float64)[..., None],
        x0=x0,
        L=L,
        zoo_spec=("linear", {"lam": lam, "sigma": sigma, "x0": float(np.atleast_1d(x0)[0]), "L": L}),
    )
    check_coercivity(problem)
    return problem


def make_ginzburg_landau(sigma: float = 0.5, x0=1.0, L: float | None = None) -> SdeProblem:
    """Scalar Ginzburg-Landau problem f(x) = x - x^3, g(x) = sigma*x.

    x^2 - x^4 + sigma^2 x^2 / 2 <= (1 + sigma^2/2)(1 + x^2), so
    L = 1 + sigma^2/2 suffices. The drift is one-sided Lipschitz with
    constant 1, which keeps the implicit step monotone for h < 1.
    """
    if L is None:
        L = 1.0 + 0.5 * sigma * sigma
    problem = SdeProblem(
        label="ginzburg-landau",
        drift=lambda x: x - x * x * x,
        drift_jacobian=lambda x: (1.0 - 3.0 * x * x)[..., None],
        diffusion=lambda x: sigma * np.asarray(x, dtype=np.float64)[..., None],
        x0=x0,
        L=L,
        zoo_spec=("ginzburg-landau", {"sigma": sigma, "x0": float(np.atleast_1d(x0)[0]), "L": L}),
    )
    check_coercivity(problem)
    return problem


def make_bounded_rotation(
    omega: float = 1.0, kappa: float = 0.0, sigma: float = 0.5, x0=(1.0, 0.0), L: float | None = None
) -> SdeProblem:
    """Planar rotation with damping and constant diffusion.

    f(x) = omega*(-x2, x1) - kappa*x contributes nothing (rotation) or
    a negative amount (damping) to <f(x), x>, and g = sigma*I_2 is
    bounded, so L = sigma^2 suffices. The drift is linear, hence the
    implicit step is a constant 2x2 solve.
    """
    if kappa < 0.0:
        raise ContractViolationError(f"kappa must be >= 0, got {kappa}")
    if L is None:
        L = sigma * sigma

    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        return np.stack(
            [-omega * x[..., 1] - kappa * x[..., 0], omega * x[..., 0] - kappa * x[..., 1]],
            axis=-1,
        )

    def diffusion(x):
        return np.broadcast_to(sigma * np.eye(2), np.shape(x)[:-1] + (2, 2))

    jac = np.array([[-kappa, -omega], [omega, -kappa]])
    problem = SdeProblem(
        label="bounded-rotation",
        drift=drift,
        drift_jacobian=lambda x: np.broadcast_to(jac, np.shape(x)[:-1] + (2, 2)),
        diffusion=diffusion,
        x0=x0,
        L=L,
        zoo_spec=(
            "bounded-rotation",
            {"omega": omega, "kappa": kappa, "sigma": sigma,
             "x0": tuple(float(v) for v in np.asarray(x0, dtype=np.float64)), "L": L},
        ),
    )
    check_coercivity(problem)
    return problem


_ZOO = {
    "linear": make_linear,
    "ginzburg-landau": make_ginzburg_landau,
    "bounded-rotation": make_bounded_rotation,
}


def zoo_labels() -> tuple:
    return tuple(sorted(_ZOO))


def zoo_parameters() -> dict:
    """Each registered problem's parameters, mapped to their defaults."""
    return {
        label: {name: par.default for name, par in inspect.signature(factory).parameters.items()}
        for label, factory in sorted(_ZOO.items())
    }


def make_problem(label: str, **params) -> SdeProblem:
    """Build a registered problem by label; see :func:`zoo_labels`."""
    try:
        factory = _ZOO[label]
    except KeyError:
        raise ContractViolationError(
            f"unknown problem {label!r}; registered: {', '.join(zoo_labels())}"
        ) from None
    return factory(**params)
