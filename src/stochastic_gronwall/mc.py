"""Reproducible Monte Carlo estimation of the path-functional
expectations behind the stochastic Gronwall bound and the a priori
implicit-Euler estimate.

Samples are produced chunk by chunk from counter-based substreams. Each
chunk is reduced to its count, mean and M2 by a shifted two-pass in
numpy, and the chunk moments are combined by a fixed pairwise merge
tree (the Chan-Golub-LeVeque update), so estimates are bit identical
for any worker count.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from . import kernels, sde
from .bounds import AprioriInputs, apriori_bound_parts, theorem_bound_deterministic_G
from .errors import ContractViolationError, EstimateAbortedError
from .martingales import sample_sup_stopped_bm_exact_batch
from .streams import CHUNK_SIZE, StreamPlan

DEFAULT_Z = 1.96


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
    out = []
    for c in range(lo, hi):
        count = plan.chunk_count(c, n)
        if count == 0:
            continue
        vals = np.asarray(sampler.sample_chunk(plan, c, count), dtype=np.float64)
        finite = np.isfinite(vals)
        n_fail = int(count - finite.sum())
        out.append((c, kernels.welford_chunk(vals[finite] if n_fail else vals), n_fail))
    return out


@contextlib.contextmanager
def _report_pool(plan: StreamPlan, n: int):
    """The process pool of one report of n-sample estimates, or None.

    The calling process works one share of each estimate, so the pool
    has ``min(workers, chunks) - 1`` children; with the fork start
    method they are forked at the first submit and inherit the parent's
    built problems. The pool is shut down on every exit, queued tasks
    cancelled.
    """
    children = min(plan.workers, plan.n_chunks(n)) - 1
    if children < 1:
        yield None
        return
    pool = ProcessPoolExecutor(max_workers=children)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _chunk_stats(sampler, plan: StreamPlan, n: int, pool):
    """(chunk, moments, failures) of every chunk, in chunk order.

    The chunks are split into ``min(workers, chunks)`` ranges. Ranges
    1.. are submitted to the pool first; the caller then works range 0
    itself and only afterwards collects the pool's results.
    """
    n_chunks = plan.n_chunks(n)
    n_tasks = 1 if pool is None else min(plan.workers, n_chunks)
    edges = np.linspace(0, n_chunks, n_tasks + 1).astype(int).tolist()
    rest = pool.map(_chunk_range_stats, repeat(sampler), repeat(plan), repeat(n),
                    edges[1:-1], edges[2:]) if n_tasks > 1 else ()
    tagged = _chunk_range_stats(sampler, plan, n, 0, edges[1])
    for piece in rest:
        tagged.extend(piece)
    return tagged


def estimate_expectation(
    sampler,
    n: int,
    plan: StreamPlan,
    z: float = DEFAULT_Z,
    fail_threshold: float = 0.0,
    pool=None,
) -> McEstimate:
    """Estimate E[sampler] from n draws under the given stream plan.

    The sampler must expose ``sample_chunk(plan, chunk_index, count)``
    returning ``count`` float64 values; non-finite values count as
    failures and are excluded. If the failure fraction exceeds
    ``fail_threshold`` the estimate aborts. ``pool`` is the report's
    process pool (see ``_report_pool``); without one, an estimate with
    more than one worker opens its own.
    """
    if n < 2:
        raise ContractViolationError(f"need at least 2 samples, got {n}")
    with (contextlib.nullcontext(pool) if pool is not None else _report_pool(plan, n)) as pool:
        tagged = _chunk_stats(sampler, plan, n, pool)

    n_failures = sum(item[2] for item in tagged)
    if n_failures > fail_threshold * n:
        raise EstimateAbortedError(
            f"{n_failures} of {n} samples failed (threshold {fail_threshold})",
            n_requested=n,
            n_failures=n_failures,
        )
    count, mean, m2 = _pairwise_merge([item[1] for item in tagged])
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
    """The three stock systems used by the verification suite."""
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
    """sup_{k<=n} X_k^p over paths of a synthetic recursion system."""

    system: SyntheticSystem
    p: float

    def sample_chunk(self, plan, chunk_index, count):
        sysd = self.system
        horizon = sysd.horizon
        f = np.asarray(sysd.f_values)
        g = np.asarray(sysd.g_values)
        if sysd.martingale == "pm1-walk":
            stream = plan.chunk_stream(chunk_index)
            signs = stream.integers(0, 2, size=(count, horizon)).astype(np.float64) * 2.0 - 1.0
            m = np.zeros((count, horizon + 1))
            m[:, 1:] = np.cumsum(signs, axis=1)
        else:
            m = np.zeros((count, horizon + 1))
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


@dataclass(frozen=True)
class BemSupFunctionalSampler:
    """sup_j (|Y^j|^2 + h |g(Y^j)|^2)^p over implicit-Euler paths.

    The sampler holds only the zoo label and parameters, so pickling it
    for a pool worker never sends callables; the problem is built at most
    once per process and zoo spec (see ``_PROBLEMS``). Scalar zoo problems
    run through the batch stepping kernel with the problem's own drift,
    Jacobian and diffusion; the planar rotation problem has a linear
    drift and uses its closed-form implicit step.
    """

    zoo_label: str
    zoo_params: tuple
    h: float
    n_steps: int
    p: float

    @staticmethod
    def for_problem(problem: sde.SdeProblem, cfg: sde.BemConfig, p: float):
        if problem.zoo_spec is None:
            raise ContractViolationError(
                "batch sampling requires a zoo problem (picklable rebuild spec)"
            )
        label, params = problem.zoo_spec
        sampler = BemSupFunctionalSampler(
            zoo_label=label,
            zoo_params=tuple(sorted(params.items())),
            h=cfg.h,
            n_steps=cfg.n_steps,
            p=p,
        )
        _remember((label, sampler.zoo_params), problem)  # already built; skip the rebuild
        return sampler

    @property
    def problem(self) -> sde.SdeProblem:
        key = (self.zoo_label, self.zoo_params)
        if key not in _PROBLEMS:
            _remember(key, sde.make_problem(self.zoo_label, **dict(self.zoo_params)))
        return _PROBLEMS[key]

    def sample_chunk(self, plan, chunk_index, count):
        stream = plan.chunk_stream(chunk_index)
        problem = self.problem
        if self.zoo_label == "bounded-rotation":
            return self._rotation_chunk(problem, stream, count)
        h = self.h
        d_w = stream.standard_normal((count, self.n_steps))
        d_w *= math.sqrt(h)
        states, _, failed = kernels.bem_scalar_batch(
            problem.drift, problem.drift_jacobian, problem.diffusion, float(problem.x0[0]), d_w, h
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

    def _rotation_chunk(self, problem, stream, count):
        x0 = problem.x0
        h = self.h
        # implicit step matrix (I - h A), A = [[-k,-w],[w,-k]] the constant drift Jacobian
        jac = problem.drift_jacobian(x0)
        a = 1.0 - h * jac[0, 0]
        b = h * jac[1, 0]
        det = a * a + b * b
        g = problem.diffusion(x0)[0, 0]  # the diffusion is g*I_2
        g_dw = stream.standard_normal((count, self.n_steps, 2))
        g_dw *= math.sqrt(h)
        g_dw *= g
        h_g_norm_sq = h * (2.0 * g * g)  # h times the squared Frobenius norm of g*I_2
        best = np.full(count, float(np.dot(x0, x0)) + h_g_norm_sq)
        # one row per coordinate, stepped in place: (y0, y1) <- (I - hA)^-1 (y + g dW)
        y0 = np.full(count, x0[0])
        y1 = np.full(count, x0[1])
        r0, r1, t = np.empty((3, count))
        for j in range(self.n_steps):
            np.add(y0, g_dw[:, j, 0], out=r0)
            np.add(y1, g_dw[:, j, 1], out=r1)
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
    with _report_pool(plan, n_paths) as pool:
        for system in systems:
            est = estimate_expectation(SyntheticSupXpSampler(system, p), n_paths, plan, z=z,
                                       pool=pool)
            e_sup_f = float(max(system.f_values))
            bound = theorem_bound_deterministic_G(
                p, list(system.g_values), system.horizon, e_sup_f
            )
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
    h-independent bound; the spread of the estimates is compared
    against the bound's margin as a qualitative robustness indicator.
    Returns the report as the JSON object the command line writes.
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

    rows = []
    with _report_pool(plan, n_paths) as pool:
        for cfg in configs:
            sampler = BemSupFunctionalSampler.for_problem(problem, cfg, p)
            est = estimate_expectation(
                sampler, n_paths, plan, z=z, fail_threshold=fail_threshold, pool=pool
            )
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
