"""Drift-implicit (backward) Euler-Maruyama integration for coercive SDEs.

The scheme advances Y^{j+1} = Y^j + h f(Y^{j+1}) + g(Y^j) dW^{j+1} with
equidistant steps. Registered problems must satisfy the coercivity
condition <f(x), x> + |g(x)|^2/2 <= L(1+|x|^2) (spot-checked on random
states) and a one-sided Lipschitz condition on the drift, which makes
the implicit step uniquely solvable for h below the Lipschitz threshold.
A problem is f and g alone: every step is in closed form, so none needs
the derivative of f. Paths are stepped by the class :func:`implicit_step`
returns, one per kind of step, for one trajectory and the batch sampler
alike: a scalar problem's exact step ``solve(h, b)`` (:class:`ScalarPaths`,
through :func:`kernels.bem_scalar_batch`), which every scalar zoo problem
has in closed form, and for the zoo's planar bounded rotation a closed
form that :class:`RotationPaths` owns. Each folds a block of steps into its
running maximum of the sup functional, NaN once a path has failed.
Step sizes are plain numbers: :func:`check_step_sizes` checks a run's
step sizes, cap h0 and horizon T, and :func:`step_count` gives N_h.
"""

from __future__ import annotations

import functools
import inspect
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import ContractViolationError, SolverError
from .streams import MAX_CHUNK_VALUES, keyed_generator

COERCIVITY_POINTS = 10_000
COERCIVITY_RADIUS = 100.0
COERCIVITY_SEED = 2024
#: Slack for the coercivity spot-check, relative to L*(1+|x|^2) scale.
COERCIVITY_RTOL = 1e-9
#: Steps of a trajectory drawn, stepped and given their noise terms at a time.
TRAJECTORY_BLOCK = 2**16


class SdeProblem:
    """Autonomous SDE dX = f(X) dt + g(X) dW with deterministic X_0.

    ``drift`` and ``diffusion`` are f and g, evaluated on a stack of
    states: an (n, d) array maps to (n, d) and (n, d, m) arrays, and a
    single (d,) state to (d,) and (d, m). The state dimension d is
    ``x0.size`` and the noise dimension m is read off ``diffusion(x0)``;
    construction checks these shapes at x0, and that x0, ``L`` and f
    and g at x0 are finite. ``solve(h, b)`` is the exact implicit step
    of a scalar problem: the root z of z - h*f(z) = b, entry by entry,
    for an array b, NaN or infinite where there is none and for a b
    that is not finite. A problem can be stepped only if it is scalar
    (d = m = 1) with a ``solve``, or the zoo's bounded rotation (see
    :func:`implicit_step`). The scalar zoo problems act elementwise on
    states of any shape, appending one axis for the diffusion. ``L`` is
    the registered coercivity constant. ``zoo_spec`` is a zoo problem's
    label and parameters. A problem is immutable: assigning or deleting
    an attribute raises ``AttributeError``.
    """

    label: str
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    L: float
    zoo_spec: tuple | None
    solve: Callable[[float, np.ndarray], np.ndarray] | None

    def __init__(self, label, drift, diffusion, x0, L, zoo_spec=None, solve=None):
        x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
        vars(self).update(label=label, drift=drift, diffusion=diffusion, x0=x0, L=L,
                          zoo_spec=zoo_spec, solve=solve)
        if x0.ndim != 1:
            raise ContractViolationError(f"x0 must be one state of shape (d,), got {x0.shape}")
        if self.L < 0.0:
            raise ContractViolationError(f"L must be >= 0, got {self.L}")
        d = x0.size
        with np.errstate(all="ignore"):  # a non-finite value is reported below
            values = [np.asarray(self.drift(x0)), np.asarray(self.diffusion(x0))]
            norms = [self.x0_norm_sq(), self.g_x0_norm_sq()]
        f, g = (v.shape for v in values)
        if f != (d,) or len(g) != 2 or g[0] != d:
            raise ContractViolationError(
                f"problem {self.label!r}: at x0 of shape ({d},), f and g must have "
                f"shapes ({d},) and ({d}, m); got {f} and {g}"
            )
        if not (math.isfinite(self.L)
                and all(np.isfinite(v).all() for v in [x0, *values, *norms])):
            raise ContractViolationError(
                f"problem {self.label!r}: x0, L, f(x0), g(x0), |x0|^2 and |g(x0)|^2 "
                f"must be finite; got x0={x0.tolist()}, L={self.L}"
            )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: an SdeProblem is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: an SdeProblem is immutable")

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
    s = 1.0 + np.sum(points * points, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite term is reported below
        gx = problem.diffusion(points)
        terms = problem.drift(points) * (points / s[:, None])
        lhs = np.sum(terms, axis=1) + 0.5 * np.sum(gx * gx, axis=(1, 2)) / s
    if not np.isfinite(lhs).all():
        i = np.isfinite(lhs).argmin()
        raise ContractViolationError(
            f"problem {problem.label!r} cannot be spot-checked for coercivity: f(x), g(x) or "
            f"|g(x)|^2 overflows float64 at |x|={math.sqrt(np.dot(points[i], points[i])):.3g}"
        )
    # The terms f_i(x)*x_i/s of <f(x), x/s> can cancel exactly, as a rotation's do, and
    # the computed sum is then all rounding: x_i/s and the product (eps/2 each), f_i(x)
    # (eps for the zoo's one product and one sum per coordinate), s (1.5*eps for d <= 2)
    # and the sum over d (eps/2) come to under 4*eps of sum_i |f_i(x)*x_i/s| to first
    # order, and 8*eps covers that twice over
    rounding = np.sum(8.0 * np.finfo(np.float64).eps * np.abs(terms), axis=1)
    bad = np.flatnonzero(lhs > problem.L + rounding
                         + COERCIVITY_RTOL * np.maximum(1.0 / s, abs(problem.L)))
    if bad.size:
        i = bad[0]
        raise ContractViolationError(
            f"problem {problem.label!r} fails coercivity with L={problem.L} "
            f"at |x|={math.sqrt(np.dot(points[i], points[i])):.3g}: "
            f"lhs={float(lhs[i]) * float(s[i]):.6g} > rhs={float(problem.L) * float(s[i]):.6g}"
        )


def step_count(h: float, T: float) -> int:
    """N_h, the largest integer with N_h*h <= T, computed exactly."""
    n = int(math.floor(T / h))
    if n >= 2**53:  # n and n + 1 times h are one float, and far over any work limit
        return n
    while (n + 1) * h <= T:
        n += 1
    while n > 0 and n * h > T:
        n -= 1
    return n


def check_step_sizes(problem: SdeProblem, hs: Sequence[float], h0: float, T: float) -> list:
    """The step counts N_h (:func:`step_count`) of the step sizes ``hs``
    with cap ``h0`` up to the horizon ``T``. There must be at least one
    h, and each in order must have 0 < h < h0, h < 1, T > 0, a finite
    T/h and N_h >= 1; then the coercivity constraint 2*h0*L < 1 must
    hold for ``problem``."""
    if not hs:
        raise ContractViolationError("need at least one step size")
    counts = []
    for h in hs:
        if not 0.0 < h < h0:
            raise ContractViolationError(f"need 0 < h < h0, got h={h}, h0={h0}")
        if h >= 1.0:
            raise ContractViolationError(f"step size must be < 1, got {h}")
        if not T > 0.0:
            raise ContractViolationError(f"T must be > 0, got {T}")
        if not math.isfinite(T / h):
            raise ContractViolationError(f"T/h overflows for h={h}, T={T}")
        counts.append(step_count(h, T))
        if counts[-1] < 1:
            raise ContractViolationError(f"h={h} exceeds the horizon T={T} (no steps fit)")
    if not 2.0 * h0 * problem.L < 1.0:
        raise ContractViolationError(f"need 2*h0*L < 1, got {2.0 * h0 * problem.L} "
                                     f"for problem {problem.label!r}")
    return counts


class BemTrajectory(NamedTuple):
    """One realized trajectory with its verification payload.

    ``z_increments`` are the centered noise terms
    Z^{j+1} = |g(Y^j) dW|^2 - h|g(Y^j)|^2 + 2<g(Y^j) dW, Y^j>, and
    ``sup_functional_p`` maps each requested exponent p to the realized
    sup_j (|Y^j|^2 + h |g(Y^j)|^2)^p.
    """

    states: np.ndarray
    z_increments: np.ndarray
    sup_functional_p: dict


class ScalarPaths:
    """Paths of a scalar problem at one step size, stepped block by block
    with :func:`kernels.bem_scalar_batch` and the problem's exact step
    ``solve``. Carries the last state of each path and the running maximum
    of |y|^2 + h|g(y)|^2. A path that fails is NaN from that step on, in
    its states, in later blocks and in its running maximum."""

    def __init__(self, problem, h, count):
        self.problem, self.h = problem, h
        self.y = float(problem.x0[0])
        self.best = np.full(count, -np.inf)

    def step(self, d_w, out=None):
        """Step every path over one block's (steps, 1, paths) increments,
        writing each step's (1, paths) states into ``out``, a (steps, 1,
        paths) array, if one is given."""
        problem = self.problem
        states = kernels.bem_scalar_batch(
            problem.solve, problem.diffusion, self.y, self.h, d_w[:, 0])[0]
        if out is not None:
            out[:, 0] = states[1:]
        self.y = states[-1].copy()
        # |y|^2 + h|g(y)|^2, computed in place to keep one extra states-sized array;
        # a value beyond float64 is inf, which sup() rejects
        with np.errstate(over="ignore"):
            vals = problem.diffusion(states)[..., 0]
            vals *= vals
            vals *= self.h
            states *= states
            vals += states
        # maximum keeps the NaN states of a failed path, and is exact, so reducing
        # the block first gives the bits of folding in a row at a time
        np.maximum(self.best, np.maximum.reduce(vals, axis=0), out=self.best)

    def sup(self, p):
        return _finite_sup(self.best**p, self.h)


class RotationPaths:
    """Paths of the zoo's bounded rotation at one step size, stepped
    block by block in closed form. Carries the state, one (2, paths)
    array, and the running maximum of |y|^2, NaN once a path fails: only
    an increment that is not finite fails one, for a finite |x0|^2 bounds
    the steps. The drift is y -> A y, A = [[-k, -w], [w, -k]], and the
    diffusion g*I_2, so a step solves (I - hA) y' = r, r = y + g dW,
    exactly (Newton's first update): with a = 1 + hk and b = hw, read off
    the first column of A, f(e1) = (-k, w), and det = a^2 + b^2,
    y' = (a/det) r + (b/det) J r, J the quarter turn, the coefficients
    divided once per stepper. J r is the rows of r reversed, times
    (-b/det, b/det): a*r0 + (-b)*r1 has the bits of a*r0 - b*r1."""

    def __init__(self, problem, h, count):
        x0 = problem.x0
        column = problem.drift(np.array([1.0, 0.0]))
        a = 1.0 - h * column[0]
        b = h * column[1]
        with np.errstate(over="ignore"):
            det = a * a + b * b
        if not np.isfinite(det):
            raise ContractViolationError(f"the implicit step of {problem.label!r} overflows float64 "
                                         f"at h={h}: (1 + h*kappa)^2 + (h*omega)^2 is {det}")
        self.a, b = a / det, b / det
        self.turn = np.array([[-b], [b]])
        self.h, self.g = h, problem.diffusion(x0)[0, 0]  # the diffusion is g*I_2
        # h|g|^2 is constant, and rounding is monotone, so adding it after the
        # maximum gives the bits of adding it at every step
        self.g_term = h * problem.g_x0_norm_sq()
        self.y = np.repeat(x0[:, None], count, axis=1)
        self.best = np.full(count, problem.x0_norm_sq())

    def step(self, d_w, out=None):
        """Step every path over one block's (steps, 2, paths) increments,
        writing each step's states into ``out``, (steps, 2, paths), if one
        is given. A step reads two rows of d_w, contiguous when C-ordered."""
        y, best, a, turn, g = self.y, self.best, self.a, self.turn, self.g
        r, t = np.empty((2,) + y.shape)
        with np.errstate(invalid="ignore"):  # inf - inf of a failed path is NaN
            for j, row in enumerate(d_w):
                np.multiply(row, g, out=r)
                r += y
                np.multiply(r, a, out=y)
                np.multiply(r[::-1], turn, out=t)
                y += t
                # |y|^2 into the turn row, which the next step overwrites
                np.multiply(y, y, out=t)
                np.add(t[0], t[1], out=t[0])
                np.maximum(best, t[0], out=best)
                if out is not None:
                    out[j] = y

    def sup(self, p):
        with np.errstate(over="ignore"):
            return _finite_sup((self.best + self.g_term)**p, self.h)


def _finite_sup(sup, h):
    """``sup``, NaN on failed paths, unless it overflowed float64 (is inf) on a path."""
    if np.isinf(sup).any():
        raise ContractViolationError(f"the sup functional |y|^2 + h|g(y)|^2 overflows float64 "
                                     f"on {np.isinf(sup).sum()} of {sup.size} paths at h={h}")
    return sup


def implicit_step(problem: SdeProblem) -> type:
    """The class that steps ``problem``'s paths on every code path:
    :class:`ScalarPaths` for d = m = 1 and a ``solve``,
    :class:`RotationPaths` for the zoo's bounded rotation, which steps in
    closed form itself. Any other problem is rejected, a scalar problem
    with no exact step and a d = 1 problem with m > 1 noise columns
    included. Each class is built as ``(problem, h, paths)``; its
    ``step(d_w, out=None)`` steps one block's (steps, d, paths)
    increments when called, writes each step's (d, paths) states into
    ``out`` if given, and folds them into the running maximum that
    ``sup(p)`` reads, NaN for a path whose state was ever not finite.
    """
    if problem.d == problem.m == 1:
        if problem.solve is None:
            raise ContractViolationError(
                f"problem {problem.label!r} has no exact implicit step: a scalar problem is "
                "stepped by its solve(h, b), the root z of z - h*f(z) = b")
        return ScalarPaths
    if problem.zoo_spec is not None and problem.zoo_spec[0] == "bounded-rotation":
        return RotationPaths
    raise ContractViolationError(
        f"problem {problem.label!r} has d = {problem.d} and m = {problem.m}: the implicit "
        "step is implemented for scalar problems (d = m = 1) and for the zoo's bounded-rotation"
    )


def simulate_trajectory(
    problem: SdeProblem,
    h: float,
    h0: float,
    T: float,
    p_list: Sequence[float],
    rng_stream: np.random.Generator,
) -> BemTrajectory:
    """Integrate one path, recording states, noise terms, and functionals.

    Increments dW^{j+1} are N(0, h I_m) draws from the supplied stream,
    one (steps, m) draw that the trajectory does not keep, taken
    ``TRAJECTORY_BLOCK`` rows at a time.
    The step size ``h``, its cap ``h0`` and the horizon ``T`` are checked
    by :func:`check_step_sizes`. A trajectory whose steps times the
    larger of d and m exceed ``MAX_CHUNK_VALUES`` is rejected before
    anything is allocated, as is a problem :func:`implicit_step`
    rejects. The path is one path of the class :func:`implicit_step`
    returns, so it is the first path of the batch sampler's
    (``mc.BemSupFunctionalSampler``) chunk of one antithetic pair, and its
    sup functional is that class's. Each
    block is drawn, stepped and given its noise terms in turn, so beyond
    the arrays it returns a run holds one block's temporaries. A state
    that is not finite, a failed path, raises :class:`SolverError` at
    once, naming its step; once every block is stepped, a noise term and
    then a sup functional beyond float64 raise :class:`ContractViolationError`.
    """
    (n,) = check_step_sizes(problem, [h], h0, T)
    kind = implicit_step(problem)
    for p in p_list:
        if not 0.0 < p < 1.0:
            raise ContractViolationError(f"every p must lie in (0,1), got {p}")
    width = max(problem.d, problem.m)
    if n * width > MAX_CHUNK_VALUES:
        raise ContractViolationError(
            f"{n} steps of h={h} up to T={T}, times {width} (the larger of d and m), "
            f"are over {MAX_CHUNK_VALUES} values for one trajectory"
        )

    paths = kind(problem, h, 1)
    states = np.empty((n + 1, problem.d))
    states[0] = problem.x0
    z_vals = np.empty(n)
    for lo in range(0, n, TRAJECTORY_BLOCK):
        hi = min(lo + TRAJECTORY_BLOCK, n)
        dw = rng_stream.standard_normal((hi - lo, problem.m))
        dw *= math.sqrt(h)
        paths.step(dw[:, :, None], states[lo + 1:hi + 1, :, None])
        finite = np.isfinite(states[lo + 1:hi + 1]).all(axis=1)
        if not finite.all():
            raise SolverError(
                f"step {lo + 1 + finite.argmin()} of {n} failed for problem "
                f"{problem.label!r}: implicit step gave no finite state"
            )
        y = states[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            g = problem.diffusion(y)
            noise = (g @ dw[:, :, None])[..., 0]
            z_vals[lo:hi] = np.sum(noise * noise, axis=1) \
                - h * np.sum(g * g, axis=(1, 2)) + 2.0 * np.sum(noise * y, axis=1)
    # the states are finite, so a non-finite Z^j (inf, or inf - inf) overflowed float64
    if not np.isfinite(z_vals).all():
        step = np.isfinite(z_vals).argmin() + 1
        raise ContractViolationError(f"the noise term Z^j overflows float64 at step {step} of {n}")
    sup_p = {float(p): float(paths.sup(float(p))[0]) for p in p_list}
    return BemTrajectory(states, z_vals, sup_p)


# ---------------------------------------------------------------------------
# Problem zoo


def make_linear(lam: float = 1.0, sigma: float = 0.0, x0=1.0, L: float | None = None) -> tuple:
    """Scalar linear problem f(x) = -lam*x, g(x) = sigma*x.

    The registered envelope L = max(lam, sigma^2/2) always dominates
    (-lam + sigma^2/2) x^2 <= L (1 + x^2); pass L explicitly to tighten
    or to exercise the coercivity check. The implicit step is
    z = b/(1 + h*lam).
    """
    if lam < 0.0:
        raise ContractViolationError(f"lambda must be >= 0, got {lam}")
    if L is None:
        L = max(lam, 0.5 * sigma * sigma)
    return (functools.partial(_linear_drift, lam), functools.partial(_scalar_diffusion, sigma),
            functools.partial(_linear_step, lam), L)


def _linear_drift(lam, x):
    return -lam * x


def _linear_step(lam, h, b):
    return b / (1.0 + h * lam)


def _scalar_diffusion(sigma, x):
    """g(x) = sigma*x of the scalar zoo problems, with the noise axis appended."""
    return sigma * np.asarray(x, dtype=np.float64)[..., None]


def make_ginzburg_landau(sigma: float = 0.5, x0=1.0, L: float | None = None) -> tuple:
    """Scalar Ginzburg-Landau problem f(x) = x - x^3, g(x) = sigma*x.

    x^2 - x^4 + sigma^2 x^2 / 2 <= (1 + sigma^2/2)(1 + x^2), so
    L = 1 + sigma^2/2 suffices. The drift is one-sided Lipschitz with
    constant 1, so for h < 1 the implicit step is the one real root of a
    strictly increasing cubic (:func:`_cubic_step`).
    """
    if L is None:
        L = 1.0 + 0.5 * sigma * sigma
    return _ginzburg_landau_drift, functools.partial(_scalar_diffusion, sigma), _cubic_step, L


def _ginzburg_landau_drift(x):
    return x - x * x * x


@functools.lru_cache(maxsize=64)
def _cubic_coefficients(h):
    """k = (1-h)/3, k^2, k^3, c = sqrt(27h / (4(1-h)^3)) and h^(1/3) for
    h = n/d, each rounded once from exact integer arithmetic: k and its
    powers from their exact ratios, c from the integer square root of c^2
    times 4^700 (over 100 bits for every h in (0, 1)), and h^(1/3) from
    one exact Newton update (2x^3 + h)/(3x^2) of the float cube root x,
    which leaves an error of order 1e-32."""
    n, d = h.as_integer_ratio()
    m = d - n
    c = math.isqrt(27 * n * d * d * 4**700 // (4 * m**3)) / 2**700
    p, q = (h ** (1.0 / 3.0)).as_integer_ratio()
    cbrt_h = (2 * p**3 * d + n * q**3) / (3 * p * p * q * d)
    return m / (3 * d), m * m / (9 * d * d), m**3 / (27 * d**3), c, cbrt_h


def _cubic_step(h, b):
    """The Ginzburg-Landau implicit step: for 0 < h < 1 and an array b,
    the one real root z of z - h(z - z^3) = b, h z^3 + (1-h) z = b.

    The root is odd in b; for b >= 0, z = s w with s = sqrt((1-h)/(3h))
    turns the cubic into w^3 + 3w = 2r, r = c b (the constants are those
    of :func:`_cubic_coefficients`). Cardano's root is w = U - 1/U, where
    U^3 = t = r + sqrt(r^2 + 1); since U^3 - U^-3 = 2r, it is also
    2r/(U^2 + 1 + U^-2), which has no cancellation, and s*2r = b/k gives
    z = b/(kU^2 + k + k^2/(kU^2)), kU^2 = cbrt(k^3 t^2). So the sign of b
    passes to z in the last division, with r = c|b|. Where r is above
    2^500, t^2 would overflow; there kU^2 = cbrt(h b^2) and the other
    terms are below 2^-333 of it, so z = cbrt(b)/h^(1/3). So z is finite
    for every finite b, from h = 5e-324 to 1 - 2^-53, and odd in b bit
    for bit; a b that is not finite gives NaN or inf.
    """
    k, k2, k3, c, cbrt_h = _cubic_coefficients(h)
    far = 2.0**500 / c
    r = np.abs(b)
    beyond = np.flatnonzero(r > far) if np.fmax.reduce(r, initial=0.0) > far else None
    if beyond is not None:
        r[beyond] = far
    r *= c
    d = r * r
    d += 1.0
    np.sqrt(d, out=d)
    d += r
    d *= d
    d *= k3
    np.cbrt(d, out=d)
    np.divide(k2, d, out=r)
    d += k
    d += r
    z = np.divide(b, d, out=d)
    if beyond is not None:
        z[beyond] = np.cbrt(b[beyond]) / cbrt_h
    return z


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
    return (functools.partial(_rotation_drift, omega, kappa),
            functools.partial(_rotation_diffusion, sigma), None, L)


def _rotation_drift(omega, kappa, x):
    x = np.asarray(x, dtype=np.float64)
    return np.stack([-omega * x[..., 1] - kappa * x[..., 0],
                     omega * x[..., 0] - kappa * x[..., 1]], axis=-1)


def _rotation_diffusion(sigma, x):
    return np.broadcast_to(sigma * np.eye(2), np.shape(x)[:-1] + (2, 2))


# Each factory checks its parameters and returns f, g, the exact scalar step (None for
# the rotation, whose stepper owns its step) and L, built from module-level functions
# so that they pickle by reference; make_problem applies x0.
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
    """Build a registered problem by label, see :func:`zoo_labels`, from
    the f, g, exact scalar step and L its factory gives, and spot-check
    its coercivity. Its ``zoo_spec`` holds every parameter, L resolved
    and x0 a float, or a tuple where the default is one."""
    try:
        factory = _ZOO[label]
    except KeyError:
        raise ContractViolationError(
            f"unknown problem {label!r}; registered: {', '.join(zoo_labels())}"
        ) from None
    defaults = zoo_parameters()[label]
    params = {**defaults, **params}
    drift, diffusion, solve, L = factory(**params)
    x0 = np.atleast_1d(np.asarray(params["x0"], dtype=np.float64))
    spec = {**params, "x0": tuple(x0.tolist()) if isinstance(defaults["x0"], tuple)
            else float(x0[0]), "L": L}
    problem = SdeProblem(label, drift, diffusion, x0, L, zoo_spec=(label, spec), solve=solve)
    check_coercivity(problem)
    return problem
