"""Drift-implicit (backward) Euler-Maruyama integration for coercive SDEs.

The scheme advances Y^{j+1} = Y^j + h f(Y^{j+1}) + g(Y^j) dW^{j+1} with
equidistant steps. Registered problems must satisfy the coercivity
condition <f(x), x> + |g(x)|^2/2 <= L(1+|x|^2) (spot-checked on random
states) and a one-sided Lipschitz condition on the drift, which makes
the implicit step uniquely solvable for h below the Lipschitz threshold.
Paths are stepped by the class :func:`implicit_step` returns, one per
kind of step, for one trajectory and the batch sampler alike: Newton
with a bisection fallback for scalar problems, and a closed form for
the zoo's planar bounded rotation.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import ContractViolationError, SolverError
from .streams import MAX_CHUNK_VALUES, keyed_generator

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
    finite. A problem can be stepped only if d = m = 1 or it is the
    zoo's bounded rotation (see :func:`implicit_step`). The scalar zoo
    problems act elementwise on states of any shape, appending one axis
    for the Jacobian and the diffusion. ``L`` is the registered
    coercivity constant. ``zoo_spec`` is a zoo problem's label and
    parameters: such a problem pickles as that plain data, and loading
    it rebuilds the problem with :func:`make_problem`, coercivity check
    included. Any other problem pickles field by field.
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

    def __reduce_ex__(self, protocol):
        if self.zoo_spec is None:
            return super().__reduce_ex__(protocol)
        label, params = self.zoo_spec
        return functools.partial(make_problem, label, **params), ()

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
    rng = keyed_generator(COERCIVITY_SEED, 0)
    directions = rng.standard_normal((COERCIVITY_POINTS, problem.d))
    norms = np.sqrt(np.sum(directions * directions, axis=1))
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
            f"at |x|={math.sqrt(np.dot(points[i], points[i])):.3g}: "
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
        if not math.isfinite(self.T / self.h):
            raise ContractViolationError(f"T/h overflows for h={self.h}, T={self.T}")
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


class ScalarPaths:
    """Paths of a scalar problem at one step size, stepped block by block
    with :func:`kernels.bem_scalar_batch`. Carries the last state of each
    path, the running maximum of |y|^2 + h|g(y)|^2, which paths failed
    and the last block's iterations per step. A path that fails is NaN
    from that step on; later blocks carry it at no iteration cost."""

    def __init__(self, problem, h, count):
        self.problem, self.h = problem, h
        self.y = float(problem.x0[0])
        self.best = np.full(count, -np.inf)
        self.failed = np.zeros(count, dtype=np.bool_)

    def step(self, d_w):
        """Step every path over one block's (steps, 1, paths) increments,
        yielding each step's (1, paths) states: views that are
        overwritten once the block's last one is taken."""
        problem = self.problem
        states, self.iters, failed = kernels.bem_scalar_batch(
            problem.drift, problem.drift_jacobian, problem.diffusion, self.y, d_w[:, 0], self.h)
        yield from states[1:, None]
        self.y = states[-1].copy()
        self.failed |= failed
        # |y|^2 + h|g(y)|^2, computed in place to keep one extra states-sized array;
        # a value beyond float64 is inf, which sup() rejects
        with np.errstate(over="ignore"):
            vals = problem.diffusion(states)[..., 0]
            vals *= vals
            vals *= self.h
            states *= states
            vals += states
        # one step row at a time; fmax, like nanmax, skips the NaN states of a failed path
        for row in vals:
            np.fmax(self.best, row, out=self.best)

    def sup(self, p):
        sup = self.best**p
        sup[self.failed] = np.nan
        return _finite_sup(sup, self.h)


class RotationPaths:
    """Paths of the zoo's bounded rotation at one step size, stepped
    block by block in closed form with :func:`kernels.bem_rotation_rows`,
    one iteration per step. Carries the state, one (2, paths) array, and
    the running maximum of |y|^2; no path fails."""

    def __init__(self, problem, h, count):
        x0 = problem.x0
        self.h, self.jac, self.g = h, problem.drift_jacobian(x0), problem.diffusion(x0)
        # h|g|^2 is constant (the diffusion is g*I_2), and rounding is monotone, so adding
        # it after the maximum gives the bits of adding it at every step
        self.g_term = h * problem.g_x0_norm_sq()
        self.y = np.repeat(x0[:, None], count, axis=1)
        self.best = np.full(count, problem.x0_norm_sq())
        self.sq = np.empty(self.y.shape)
        self.failed = np.zeros(count, dtype=np.bool_)

    def step(self, d_w):
        """Step every path over one block's (steps, 2, paths) increments,
        yielding each step's (2, paths) states, one array stepped in place."""
        self.iters = np.ones(d_w.shape[0], dtype=np.int64)
        best, sq = self.best, self.sq
        for y in kernels.bem_rotation_rows(self.jac, self.g, self.y, d_w, self.h):
            np.multiply(y, y, out=sq)
            np.add(sq[0], sq[1], out=sq[0])
            np.maximum(best, sq[0], out=best)
            yield y

    def sup(self, p):
        with np.errstate(over="ignore"):
            return _finite_sup((self.best + self.g_term)**p, self.h)


def _finite_sup(sup, h):
    """``sup``, NaN on failed paths, unless it overflowed float64 on a path."""
    if np.isinf(sup).any():
        raise ContractViolationError(f"the sup functional |y|^2 + h|g(y)|^2 overflows float64 "
                                     f"on {np.isinf(sup).sum()} of {sup.size} paths at h={h}")
    return sup


def implicit_step(problem: SdeProblem) -> type:
    """The class that steps ``problem``'s paths on every code path:
    :class:`ScalarPaths` for d = m = 1, :class:`RotationPaths` for the
    zoo's bounded rotation. Any other problem is rejected, a d = 1
    problem with m > 1 noise columns included. Each class is built as
    ``(problem, h, paths)``; its generator ``step(d_w)`` steps one
    block's (steps, d, paths) increments and yields each step's
    (d, paths) states, and it has ``iters``, ``failed`` and ``sup(p)``.
    """
    if problem.d == problem.m == 1:
        return ScalarPaths
    if problem.zoo_spec is not None and problem.zoo_spec[0] == "bounded-rotation":
        return RotationPaths
    raise ContractViolationError(
        f"problem {problem.label!r} has d = {problem.d} and m = {problem.m}: the implicit "
        "step is implemented for scalar problems (d = m = 1) and for the zoo's bounded-rotation"
    )


def simulate_trajectory(
    problem: SdeProblem,
    cfg: BemConfig,
    p_list: Sequence[float],
    rng_stream: np.random.Generator,
) -> BemTrajectory:
    """Integrate one path, recording states, noise terms, and functionals.

    Increments dW^{j+1} are N(0, h I_m) draws from the supplied stream.
    A trajectory whose steps times the larger of d and m exceed
    ``MAX_CHUNK_VALUES`` is rejected before anything is allocated, as
    is a problem :func:`implicit_step` rejects. The path is one path of
    the class :func:`implicit_step` returns, stepped as one block, so it
    is the batch sampler's (``mc.BemSupFunctionalSampler``) on a batch
    of one, and its sup functional is that class's. A path that fails
    raises :class:`SolverError` naming the step of its first NaN state;
    a noise term or sup functional beyond float64 raises
    :class:`ContractViolationError`.
    """
    kind = implicit_step(problem)
    cfg.validate_for(problem)
    for p in p_list:
        if not 0.0 < p < 1.0:
            raise ContractViolationError(f"every p must lie in (0,1), got {p}")
    n, h = cfg.n_steps, cfg.h
    width = max(problem.d, problem.m)
    if n * width > MAX_CHUNK_VALUES:
        raise ContractViolationError(
            f"{n} steps of h={h} up to T={cfg.T}, times {width} (the larger of d and m), "
            f"are over {MAX_CHUNK_VALUES} values for one trajectory"
        )
    d_w = rng_stream.standard_normal((n, problem.m)) * math.sqrt(h)

    paths = kind(problem, h, 1)
    states = np.empty((n + 1, problem.d))
    states[0] = problem.x0
    for j, y in enumerate(paths.step(d_w[:, :, None]), 1):
        states[j] = y[:, 0]
    if paths.failed[0]:
        raise SolverError(
            f"step {np.isnan(states[:, 0]).argmax()} of {n} failed for problem "
            f"{problem.label!r}: implicit step did not converge (Newton and bisection fallback)"
        )

    # the states are finite, so a non-finite Z^j (inf, or inf - inf) overflowed float64
    with np.errstate(over="ignore", invalid="ignore"):
        g = problem.diffusion(states[:-1])
        noise = (g @ d_w[:, :, None])[..., 0]
        z_vals = np.sum(noise * noise, axis=1) - h * np.sum(g * g, axis=(1, 2)) \
            + 2.0 * np.sum(noise * states[:-1], axis=1)
    if not np.isfinite(z_vals).all():
        step = np.isfinite(z_vals).argmin() + 1
        raise ContractViolationError(f"the noise term Z^j overflows float64 at step {step} of {n}")
    sup_p = {float(p): float(paths.sup(float(p))[0]) for p in p_list}
    return BemTrajectory(states, d_w, z_vals, sup_p, paths.iters)


# ---------------------------------------------------------------------------
# Problem zoo


def make_linear(lam: float = 1.0, sigma: float = 0.0, x0=1.0, L: float | None = None) -> tuple:
    """Scalar linear problem f(x) = -lam*x, g(x) = sigma*x.

    The registered envelope L = max(lam, sigma^2/2) always dominates
    (-lam + sigma^2/2) x^2 <= L (1 + x^2); pass L explicitly to tighten
    or to exercise the coercivity check.
    """
    if lam < 0.0:
        raise ContractViolationError(f"lambda must be >= 0, got {lam}")
    if L is None:
        L = max(lam, 0.5 * sigma * sigma)
    return (lambda x: -lam * x,
            lambda x: np.full(np.shape(x) + (1,), -lam),
            lambda x: sigma * np.asarray(x, dtype=np.float64)[..., None],
            L)


def make_ginzburg_landau(sigma: float = 0.5, x0=1.0, L: float | None = None) -> tuple:
    """Scalar Ginzburg-Landau problem f(x) = x - x^3, g(x) = sigma*x.

    x^2 - x^4 + sigma^2 x^2 / 2 <= (1 + sigma^2/2)(1 + x^2), so
    L = 1 + sigma^2/2 suffices. The drift is one-sided Lipschitz with
    constant 1, which keeps the implicit step monotone for h < 1.
    """
    if L is None:
        L = 1.0 + 0.5 * sigma * sigma
    return (lambda x: x - x * x * x,
            lambda x: (1.0 - 3.0 * x * x)[..., None],
            lambda x: sigma * np.asarray(x, dtype=np.float64)[..., None],
            L)


def make_bounded_rotation(
    omega: float = 1.0, kappa: float = 0.0, sigma: float = 0.5, x0=(1.0, 0.0), L: float | None = None
) -> tuple:
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

    jac = np.array([[-kappa, -omega], [omega, -kappa]])
    return (drift,
            lambda x: np.broadcast_to(jac, np.shape(x)[:-1] + (2, 2)),
            lambda x: np.broadcast_to(sigma * np.eye(2), np.shape(x)[:-1] + (2, 2)),
            L)


# Each factory checks its parameters and returns f, f', g and L; make_problem applies x0.
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
    """Build a registered problem by label, see :func:`zoo_labels`, and
    spot-check its coercivity. Its ``zoo_spec`` holds every parameter,
    L resolved and x0 a float, or a tuple where the default is one."""
    try:
        factory = _ZOO[label]
    except KeyError:
        raise ContractViolationError(
            f"unknown problem {label!r}; registered: {', '.join(zoo_labels())}"
        ) from None
    defaults = zoo_parameters()[label]
    params = {**defaults, **params}
    drift, drift_jacobian, diffusion, L = factory(**params)
    x0 = np.atleast_1d(np.asarray(params["x0"], dtype=np.float64))
    spec = {**params, "x0": tuple(x0.tolist()) if isinstance(defaults["x0"], tuple)
            else float(x0[0]), "L": L}
    problem = SdeProblem(label, drift, drift_jacobian, diffusion, x0, L, zoo_spec=(label, spec))
    check_coercivity(problem)
    return problem
