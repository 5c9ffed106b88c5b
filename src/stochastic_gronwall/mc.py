"""Reproducible Monte Carlo estimation of the path-functional
expectations behind the stochastic Gronwall bound and the a priori
implicit-Euler estimate.

Samples are produced chunk by chunk from counter-based substreams, in
one pass per report that returns every column (step size or system)
of a chunk at once. Each column of a chunk is reduced to its count,
mean and M2 by a shifted two-pass in numpy, and each column's chunk
moments are combined by a fixed pairwise merge tree (the
Chan-Golub-LeVeque update), so estimates are bit identical for any
worker count.

The process-pool stack (``concurrent.futures``, ``multiprocessing`` and
what they import) loads only when a pass forks workers:
``ProcessPoolExecutor`` is a lazy module attribute.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from . import kernels, sde
from .bounds import AprioriInputs, apriori_bound_parts, theorem_bound_deterministic_G
from .errors import ContractViolationError, EstimateAbortedError
from .martingales import sample_sup_stopped_bm_exact_batch
from .streams import CHUNK_SIZE, MAX_CHUNK_VALUES, StreamPlan

DEFAULT_Z = 1.96


def __getattr__(name):
    """``ProcessPoolExecutor``, imported on first access (PEP 562)."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error and confidence interval."""

    mean: float
    std_error: float
    n_samples: int
    ci_halfwidth: float
    degenerate_flag: bool
    z_value: float = DEFAULT_Z
    n_failures: int = 0

    @property
    def upper_ci(self) -> float:
        return self.mean + self.ci_halfwidth


def _merge_moments(a, b):
    na, ma, m2a = a
    nb, mb, m2b = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    m2 = m2a + m2b + delta * delta * (na * nb / n)
    return n, mean, m2


def _pairwise_merge(stats):
    """Fixed-topology pairwise reduction over per-chunk moments."""
    if not stats:
        return 0, 0.0, 0.0
    level = list(stats)
    while len(level) > 1:
        nxt = [
            _merge_moments(level[i], level[i + 1])
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _chunk_range_stats(sampler, plan: StreamPlan, n: int, lo: int, hi: int):
    """Per chunk lo..hi-1 with samples, the (moments, failures) of each column."""
    out = []
    for c in range(lo, hi):
        count = plan.chunk_count(c, n)
        if count == 0:
            continue
        columns = np.atleast_2d(np.asarray(sampler.sample_chunk(plan, c, count), dtype=np.float64))
        stats = []
        for vals in columns:
            finite = np.isfinite(vals)
            n_fail = int(count - finite.sum())
            stats.append((kernels.welford_chunk(vals[finite] if n_fail else vals), n_fail))
        out.append(stats)
    return out


def sample_columns(sampler, n: int, plan: StreamPlan) -> list:
    """One pass of n samples: per column, the (moments, failures) of each
    chunk, in chunk order.

    The sampler must expose ``sample_chunk(plan, chunk_index, count)``
    returning one row of ``count`` float64 values per column (a 1-D
    array is one column); non-finite values count as failures. The
    chunks are split into ``min(workers, chunks)`` ranges. With more
    than one, this pass opens a process pool with a child for each
    range but the first: ranges 1.. are submitted to it in one ``map``,
    the caller works range 0 itself and only afterwards collects the
    pool's results. With the fork start method the children inherit
    the parent's built problems. The pool is shut down on every exit,
    queued tasks cancelled.
    """
    if n < 2:
        raise ContractViolationError(f"need at least 2 samples, got {n}")
    n_tasks = min(plan.workers, plan.n_chunks(n))
    edges = np.linspace(0, plan.n_chunks(n), n_tasks + 1).astype(int).tolist()
    # through the module, so that a replaced class (a tracer's, a test's) is the one used
    pool = (sys.modules[__name__].ProcessPoolExecutor(max_workers=n_tasks - 1)
            if n_tasks > 1 else None)
    try:
        rest = pool.map(_chunk_range_stats, repeat(sampler), repeat(plan), repeat(n),
                        edges[1:-1], edges[2:]) if pool is not None else ()
        chunks = _chunk_range_stats(sampler, plan, n, 0, edges[1])
        for piece in rest:
            chunks.extend(piece)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return [list(column) for column in zip(*chunks)]


def estimate_expectation(
    chunks: Sequence,
    n: int,
    z: float = DEFAULT_Z,
    fail_threshold: float = 0.0,
) -> McEstimate:
    """Estimate of one column's mean from its n samples.

    ``chunks`` is the column's (moments, failures) per chunk, from
    :func:`sample_columns`. If more than ``fail_threshold * n`` samples
    failed, the estimate aborts; otherwise the chunk moments are merged
    by the fixed pairwise tree.
    """
    n_failures = sum(failures for _, failures in chunks)
    if n_failures > fail_threshold * n:
        raise EstimateAbortedError(
            f"{n_failures} of {n} samples failed (threshold {fail_threshold})",
            n_requested=n,
            n_failures=n_failures,
        )
    count, mean, m2 = _pairwise_merge([moments for moments, _ in chunks])
    if count >= 2 and m2 > 0.0:
        std_error = math.sqrt(m2 / (count - 1) / count)
        degenerate = False
    else:
        std_error = 0.0
        degenerate = True
    return McEstimate(
        mean=float(mean),
        std_error=std_error,
        n_samples=int(count),
        ci_halfwidth=z * std_error,
        degenerate_flag=degenerate,
        z_value=z,
        n_failures=n_failures,
    )


# ---------------------------------------------------------------------------
# Samplers (top-level picklable dataclasses)


@dataclass(frozen=True)
class SupStoppedBmPowerSampler:
    """(sup of stopped BM)^p via the exact inverse-survival sampler."""

    p: float

    def sample_chunk(self, plan, chunk_index, count):
        stream = plan.chunk_stream(chunk_index)
        return sample_sup_stopped_bm_exact_batch(stream, count) ** self.p


# ---------------------------------------------------------------------------
# Synthetic recursion systems for the theorem-side verification


@dataclass(frozen=True)
class SyntheticSystem:
    """Deterministic F and G plus a martingale kind, defining paths that
    attain the recursion hypothesis with equality:

        X_n = F_n + M_n + sum_{k<n} G_k X_k.

    ``martingale`` is "zero" or "pm1-walk"; the system must guarantee
    F_n + M_n >= 0 pathwise, which a walk satisfies whenever
    F_n >= n for all n.
    """

    label: str
    f_values: tuple
    g_values: tuple
    martingale: str = "zero"

    def __post_init__(self):
        if len(self.f_values) != len(self.g_values):
            raise ContractViolationError("F and G must share one length")
        if any(v < 0 for v in self.f_values) or any(v < 0 for v in self.g_values):
            raise ContractViolationError("F and G must be nonnegative")
        if self.martingale not in ("zero", "pm1-walk"):
            raise ContractViolationError(f"unknown martingale kind {self.martingale!r}")
        if self.martingale == "pm1-walk":
            for n, f in enumerate(self.f_values):
                if f < n:
                    raise ContractViolationError(
                        "a pm1-walk martingale requires F_n >= n to keep "
                        f"F_n + M_n nonnegative; F_{n} = {f}"
                    )

    @property
    def horizon(self) -> int:
        return len(self.f_values) - 1


def standard_synthetic_systems(horizon: int = 10) -> tuple:
    """The three stock systems used by the verification suite. A chunk of
    their paths, CHUNK_SIZE times horizon + 1 values, must be within the
    work limit."""
    if CHUNK_SIZE * (horizon + 1) > MAX_CHUNK_VALUES:
        raise ContractViolationError(
            f"horizon {horizon}: {horizon + 1} values for each of {CHUNK_SIZE} paths are over "
            f"{MAX_CHUNK_VALUES} values for one chunk"
        )
    ones = (1.0,) * (horizon + 1)
    ramp = tuple(float(k + 1) for k in range(horizon + 1))
    zeros = (0.0,) * (horizon + 1)
    tenths = (0.1,) * (horizon + 1)
    return (
        SyntheticSystem("constant", ones, zeros, "zero"),
        SyntheticSystem("walk", ramp, zeros, "pm1-walk"),
        SyntheticSystem("walk-coupled", ramp, tenths, "pm1-walk"),
    )


@dataclass(frozen=True)
class SyntheticSupXpSampler:
    """sup_{k<=n} X_k^p over paths of synthetic recursion systems, one
    column per system. The systems share one horizon, and every walk
    system steps the same signs, drawn once per chunk."""

    systems: tuple
    p: float

    def __post_init__(self):
        if len({system.horizon for system in self.systems}) > 1:
            raise ContractViolationError("the systems must share one horizon")

    def sample_chunk(self, plan, chunk_index, count):
        horizon = self.systems[0].horizon if self.systems else 0
        walk = np.zeros((count, horizon + 1))
        if any(sysd.martingale == "pm1-walk" for sysd in self.systems):
            stream = plan.chunk_stream(chunk_index)
            signs = stream.integers(0, 2, size=(count, horizon)).astype(np.float64) * 2.0 - 1.0
            walk[:, 1:] = np.cumsum(signs, axis=1)
        out = np.empty((len(self.systems), count))
        for column, sysd in enumerate(self.systems):
            m = walk if sysd.martingale == "pm1-walk" else np.zeros_like(walk)
            out[column] = self._sup_xp(sysd, m)
        return out

    def _sup_xp(self, sysd, m):
        count, horizon = m.shape[0], sysd.horizon
        f = np.asarray(sysd.f_values)
        g = np.asarray(sysd.g_values)
        fm = f[None, :] + m
        if fm.min() < 0.0:
            raise ContractViolationError(
                f"system {sysd.label!r} produced F_n + M_n < 0; cannot build paths"
            )
        x = np.empty((count, horizon + 1))
        x[:, 0] = fm[:, 0]
        acc = np.zeros(count)
        for n in range(1, horizon + 1):
            acc += g[n - 1] * x[:, n - 1]
            x[:, n] = fm[:, n] + acc
        if x.min() < 0.0:
            raise ContractViolationError(
                f"system {sysd.label!r} produced a negative X_n"
            )
        return x.max(axis=1) ** self.p


# ---------------------------------------------------------------------------
# Implicit Euler sup-functional sampler


# Zoo problems built in this process, keyed by (label, sorted parameters).
# A forked pool child inherits the parent's entries and builds none of
# them again; the oldest entry goes once there are more than _KEPT.
_PROBLEMS = {}
_KEPT = 16


def _remember(key, problem) -> None:
    _PROBLEMS[key] = problem
    if len(_PROBLEMS) > _KEPT:
        del _PROBLEMS[next(iter(_PROBLEMS))]


@functools.lru_cache(maxsize=_KEPT)
def _increment_levels(hs: tuple, n_steps: tuple, d: int):
    """How one chunk's Brownian increments serve every step size.

    The increments are drawn on the union of the grids' time points
    {j*h : 0 <= j <= N_h}, listed exactly: every float h is a whole
    number of ticks 1/den, den the largest of their power-of-two
    denominators. Returns the standard deviation of each increment of
    one path, in draw order ((points - 1) * d values: the square roots
    of the union's intervals, each repeated d times), and one level per
    step size, finest first: (column, from_union, stride, bounds). A
    level's increment j sums its source's increments bounds[j] ..
    bounds[j+1]-1; the source is the previous level if that grid holds
    all of the level's points, else the union. ``stride`` is the common
    width of those sums, or None.
    """
    if CHUNK_SIZE * sum(n_steps) * d > MAX_CHUNK_VALUES:
        raise ContractViolationError(
            f"step sizes {list(hs)} take {sum(n_steps)} steps in dimension {d}: over "
            f"{MAX_CHUNK_VALUES} Brownian increments for one {CHUNK_SIZE}-path chunk"
        )
    ratios = [h.as_integer_ratio() for h in hs]
    den = max(q for _, q in ratios)
    grids = [range(0, (n + 1) * num * (den // q), num * (den // q))
             for (num, q), n in zip(ratios, n_steps)]
    union = sorted(set().union(*grids))
    roots = np.repeat(np.sqrt([(b - a) / den for a, b in zip(union, union[1:])]), d)
    at = {t: i for i, t in enumerate(union)}
    levels, finer = [], None
    for column in sorted(range(len(hs)), key=hs.__getitem__):
        grid = grids[column]
        from_union = finer is None or any(t not in finer for t in grid)
        bounds = [at[t] for t in grid] if from_union else [finer.index(t) for t in grid]
        widths = {b - a for a, b in zip(bounds, bounds[1:])}
        levels.append((column, from_union, widths.pop() if len(widths) == 1 else None, bounds))
        finer = grid
    return roots, levels


def _sum_steps(src, stride, bounds):
    """One level's (steps, d, paths) increments from its source's (see
    ``_increment_levels``). A stride of 1 is a view; the sums of a
    common stride add left to right into a fresh C-ordered array, so a
    step's increments of all paths lie side by side."""
    stop = bounds[-1]
    if stride == 1:
        return src[:stop]
    if stride is None:
        return np.add.reduceat(src[:stop], bounds[:-1], axis=0)
    out = np.add(src[0:stop:stride], src[1:stop:stride],
                 out=np.empty((len(bounds) - 1,) + src.shape[1:]))
    for m in range(2, stride):
        out += src[m:stop:stride]
    return out


@dataclass(frozen=True)
class BemSupFunctionalSampler:
    """sup_j (|Y^j|^2 + h |g(Y^j)|^2)^p over implicit-Euler paths, one
    column per step size h of a grid.

    Each chunk's paths share one Brownian path across the step sizes:
    its increments are drawn once, on the union of the grids' time
    points, and a coarser grid's increment is the sum of the finer
    increments inside its step (the coarse/fine coupling of multilevel
    Monte Carlo). The finest grid is stepped first, then each coarser
    one from the sums of the next finer level's increments, so at most
    two levels are alive at once (beside the union, for grids that are
    not nested). Where the union is the finest grid
    (nested grids, such as dyadic ones), the finest column's increments
    are drawn and scaled as a lone grid's would be.

    The sampler holds only the zoo label and parameters, so pickling it
    for a pool worker never sends callables; the problem is built at most
    once per process and zoo spec (see ``_PROBLEMS``). Scalar zoo problems
    run through the batch stepping kernel with the problem's own drift,
    Jacobian and diffusion; the planar rotation problem has a linear
    drift and uses its closed-form implicit step.
    """

    zoo_label: str
    zoo_params: tuple
    hs: tuple
    n_steps: tuple
    p: float

    @staticmethod
    def for_problem(problem: sde.SdeProblem, configs: Sequence[sde.BemConfig], p: float):
        if problem.zoo_spec is None:
            raise ContractViolationError(
                "batch sampling requires a zoo problem (picklable rebuild spec)"
            )
        label, params = problem.zoo_spec
        sampler = BemSupFunctionalSampler(
            zoo_label=label,
            zoo_params=tuple(sorted(params.items())),
            hs=tuple(float(cfg.h) for cfg in configs),
            n_steps=tuple(cfg.n_steps for cfg in configs),
            p=p,
        )
        _increment_levels(sampler.hs, sampler.n_steps, problem.d)  # the work limit, up front
        _remember((label, sampler.zoo_params), problem)  # already built; skip the rebuild
        return sampler

    @property
    def problem(self) -> sde.SdeProblem:
        key = (self.zoo_label, self.zoo_params)
        if key not in _PROBLEMS:
            _remember(key, sde.make_problem(self.zoo_label, **dict(self.zoo_params)))
        return _PROBLEMS[key]

    def sample_chunk(self, plan, chunk_index, count):
        """A (step sizes, count) array, one row per h in grid order."""
        problem = self.problem
        roots, levels = _increment_levels(self.hs, self.n_steps, problem.d)
        draws = plan.chunk_stream(chunk_index).standard_normal((count, roots.size))
        draws *= roots
        union = draws.reshape(count, -1, problem.d).transpose(1, 2, 0)  # (steps, d, paths)
        del draws
        last_from_union = max(i for i, level in enumerate(levels) if level[1])
        sup = self._rotation_sup if self.zoo_label == "bounded-rotation" else self._scalar_sup
        out = np.empty((len(self.hs), count))
        d_w = None
        for i, (column, from_union, stride, bounds) in enumerate(levels):
            d_w = _sum_steps(union if from_union else d_w, stride, bounds)
            if i == last_from_union:
                union = None
            out[column] = sup(problem, d_w, self.hs[column])
        return out

    def _scalar_sup(self, problem, d_w, h):
        states, _, failed = kernels.bem_scalar_batch(
            problem.drift, problem.drift_jacobian, problem.diffusion, float(problem.x0[0]),
            d_w[:, 0].T, h
        )
        # |y|^2 + h|g(y)|^2, computed in place to keep one extra states-sized array
        vals = problem.diffusion(states)[..., 0]
        vals *= vals
        vals *= h
        states *= states
        vals += states
        sup = np.nanmax(vals, axis=1) ** self.p
        if failed.any():
            sup[failed] = np.nan
        return sup

    def _rotation_sup(self, problem, d_w, h):
        x0 = problem.x0
        # implicit step matrix (I - h A), A = [[-k,-w],[w,-k]] the constant drift Jacobian
        jac = problem.drift_jacobian(x0)
        a = 1.0 - h * jac[0, 0]
        b = h * jac[1, 0]
        det = a * a + b * b
        g = problem.diffusion(x0)[0, 0]  # the diffusion is g*I_2
        h_g_norm_sq = h * (2.0 * g * g)  # h times the squared Frobenius norm of g*I_2
        count = d_w.shape[2]
        best = np.full(count, float(np.dot(x0, x0)) + h_g_norm_sq)
        # one row per coordinate, stepped in place: (y0, y1) <- (I - hA)^-1 (y + g dW)
        y0 = np.full(count, x0[0])
        y1 = np.full(count, x0[1])
        r0, r1, t = np.empty((3, count))
        for j in range(d_w.shape[0]):
            np.multiply(d_w[j, 0], g, out=r0)
            r0 += y0
            np.multiply(d_w[j, 1], g, out=r1)
            r1 += y1
            np.multiply(r0, a, out=y0)
            np.multiply(r1, b, out=t)
            y0 -= t
            y0 /= det
            np.multiply(r0, b, out=y1)
            np.multiply(r1, a, out=t)
            y1 += t
            y1 /= det
            np.multiply(y0, y0, out=t)
            np.multiply(y1, y1, out=r0)
            t += r0
            t += h_g_norm_sq
            np.maximum(best, t, out=best)
        return best**self.p


# ---------------------------------------------------------------------------
# Verification drivers


def verify_theorem_on_synthetic(
    systems: Sequence[SyntheticSystem],
    p: float,
    n_paths: int,
    plan: StreamPlan,
    z: float = DEFAULT_Z,
) -> dict:
    """Monte Carlo check of the deterministic-weight moment bound.

    Builds paths attaining the recursion hypothesis with equality,
    estimates E[sup_k X_k^p], and compares the upper CI against the
    bound with the exact E[sup F] (F is deterministic). Returns the
    report as the JSON object the command line writes, one row per system.
    """
    if not 0.0 < p < 1.0:
        raise ContractViolationError(f"p must lie in (0,1), got {p}")
    rows = []
    columns = sample_columns(SyntheticSupXpSampler(tuple(systems), p), n_paths, plan)
    for system, chunks in zip(systems, columns):
        est = estimate_expectation(chunks, n_paths, z=z)
        e_sup_f = float(max(system.f_values))
        bound = theorem_bound_deterministic_G(
            p, system.g_values, system.horizon, e_sup_f
        )["bound"]
        rows.append({"system": system.label, "e_sup_f": e_sup_f, "bound": float(bound),
                     "passed": bool(est.upper_ci <= bound), **asdict(est)})
    inputs = {
        "p": p,
        "n_paths": n_paths,
        "master_seed": plan.master_seed,
        "chunk_size": CHUNK_SIZE,
        "z_value": z,
        "systems": [s.label for s in systems],
        "horizon": systems[0].horizon if systems else 0,
    }
    return {"kind": "theorem-synthetic", "inputs": inputs, "rows": rows,
            "all_passed": all(r["passed"] for r in rows)}


def verify_apriori(
    problem: sde.SdeProblem,
    configs: Sequence[sde.BemConfig],
    p: float,
    n_paths: int,
    plan: StreamPlan,
    z: float = DEFAULT_Z,
    fail_threshold: float = 0.0,
) -> dict:
    """Step-size-robustness check of the a priori implicit-Euler bound.

    All configurations must share h0 and T and span step sizes by at
    least a factor of 8. Each per-h estimate of
    E[sup_j (|Y^j|^2 + h|g(Y^j)|^2)^p] must stay below the single
    h-independent bound. All rows come from one pass: each path is one
    Brownian path, sampled on the union of the grids and summed onto
    each coarser grid, so the rows share their Monte Carlo noise and
    the spread of their means is the discretization effect, which is
    compared against the bound's margin as a qualitative robustness
    indicator. Rows are checked for failures in grid order; the first
    over ``fail_threshold`` aborts the report. Returns the report as
    the JSON object the command line writes.
    """
    if not configs:
        raise ContractViolationError("need at least one step-size configuration")
    h0, T = configs[0].h0, configs[0].T
    for cfg in configs:
        if cfg.h0 != h0 or cfg.T != T:
            raise ContractViolationError("all configurations must share h0 and T")
        cfg.validate_for(problem)
    hs = [cfg.h for cfg in configs]
    if len(configs) > 1 and max(hs) / min(hs) < 8.0:
        raise ContractViolationError(
            f"step sizes must span at least a factor of 8, got {max(hs) / min(hs):.3g}"
        )

    inputs_obj = AprioriInputs(
        p=p, L=problem.L, T=T, h0=h0,
        x0_norm_sq=problem.x0_norm_sq(),
        g_x0_norm_sq=problem.g_x0_norm_sq(),
    )
    parts = apriori_bound_parts(inputs_obj)
    bound = parts["bound"]

    sampler = BemSupFunctionalSampler.for_problem(problem, configs, p)
    rows = []
    for cfg, chunks in zip(configs, sample_columns(sampler, n_paths, plan)):
        est = estimate_expectation(chunks, n_paths, z=z, fail_threshold=fail_threshold)
        rows.append({"h": cfg.h, "n_steps": cfg.n_steps,
                     "passed": bool(est.upper_ci <= bound), **asdict(est)})

    means = [r["mean"] for r in rows]
    spread = float(max(means) - min(means))
    margin = float(bound - max(means))
    inputs = {
        "problem": problem.label,
        "problem_params": dict(problem.zoo_spec[1]) if problem.zoo_spec else {},
        "p": p,
        "T": T,
        "h0": h0,
        "h_grid": hs,
        "L": problem.L,
        "x0_norm_sq": inputs_obj.x0_norm_sq,
        "g_x0_norm_sq": inputs_obj.g_x0_norm_sq,
        "n_paths": n_paths,
        "master_seed": plan.master_seed,
        "chunk_size": CHUNK_SIZE,
        "z_value": z,
    }
    return {
        "kind": "apriori",
        "inputs": inputs,
        "bound": float(bound),
        "bound_parts": parts,
        "rows": rows,
        "spread": spread,
        "margin": margin,
        "h_robust": spread < margin,
        "all_passed": all(r["passed"] for r in rows),
    }
