"""Reproducible Monte Carlo estimation of the path-functional
expectations behind the stochastic Gronwall bound and the a priori
implicit-Euler estimate.

Samples are produced chunk by chunk from counter-based substreams, in
one pass per report that returns every column (step size or system)
of a chunk at once. Each column of a chunk is reduced to its count,
mean and M2 by a shifted two-pass in numpy, and each column's chunk
moments are combined by a fixed pairwise merge tree (the
Chan-Golub-LeVeque update), so estimates are bit identical for any
worker count. The implicit-Euler sampler steps a chunk one block of
time at a time, a block ending at a point that every grid of the report
holds: it draws the block's Brownian increments step-major,
(steps, d, paths), so that every step reads contiguous rows, sums each
coarser grid's increments from them, and steps every grid on from the
states the previous block left. Only one block's increments are held.
A report's step sizes are plain numbers that share one cap h0 and one
horizon T, checked by ``sde.check_step_sizes``.

A pass at more than one worker forks its children with
``ProcessPoolExecutor``, a pool of this module's own: each child
inherits the sampler by ``os.fork`` and sends back only its result, and
the pool imports nothing that a single-process run does not.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from . import kernels, sde
from .bounds import apriori_bound_parts, log_product_one_plus, theorem_bound_deterministic_G
from .errors import ContractViolationError, EstimateAbortedError
from .martingales import sample_sup_stopped_bm_exact_batch
from .streams import CHUNK_SIZE, MAX_CHUNK_VALUES, StreamPlan

DEFAULT_Z = 1.96
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
    """Per chunk lo..hi-1 with samples, the (moments, failures) of each column.

    Non-finite values are failures, left out of the moments. A column
    whose remaining values are finite but whose moments overflow raises
    :class:`ContractViolationError`, without a floating-point warning.
    """
    out = []
    for c in range(lo, hi):
        count = plan.chunk_count(c, n)
        if count == 0:
            continue
        columns = np.atleast_2d(np.asarray(sampler.sample_chunk(plan, c, count), dtype=np.float64))
        stats = []
        for vals in columns:
            # A NaN or inf value makes the mean non-finite, so only a column whose
            # moments are not both finite has its failures counted, and its moments
            # taken again over its finite values. Finite values whose moments are not
            # finite are beyond what float64 can estimate.
            n_fail = 0
            with np.errstate(all="ignore"):
                moments = kernels.welford_chunk(vals)
                if not _finite_moments(moments):
                    finite = np.isfinite(vals)
                    n_fail = int(count - finite.sum())
                    if n_fail:
                        moments = kernels.welford_chunk(vals[finite])
            if not _finite_moments(moments):
                raise ContractViolationError(
                    f"chunk {c}: the mean or sum of squared deviations of its finite values "
                    "overflows float64; try a smaller --horizon or --p"
                )
            stats.append((moments, n_fail))
        out.append(stats)
    return out


def _finite_moments(moments) -> bool:
    return math.isfinite(moments[1]) and math.isfinite(moments[2])


def _outcome_bytes(fn, args) -> bytes:
    """A pool child's ``pickle.dumps((ok, value or exception))`` of
    ``fn(*args)``.

    An exception carries the child's traceback as a note (it prints
    under the caller's traceback). An outcome that does not pickle, or an
    exception that does not unpickle, is sent as a ``RuntimeError`` that
    names it and holds both tracebacks, so that the caller sees why.
    """
    try:
        outcome = True, fn(*args)
    except BaseException as exc:  # raised again by the caller's result()
        exc.__notes__ = [*getattr(exc, "__notes__", ()), _child_traceback()]  # add_note, 3.11+
        outcome = False, exc
    try:
        data = pickle.dumps(outcome)
        if not outcome[0]:
            pickle.loads(data)  # an exception whose arguments do not rebuild it fails here
        return data
    except Exception:
        ok, value = outcome
        what = f"result of type {type(value).__name__}" if ok else f"exception {value!r}"
        notes = "" if ok else "".join(f"\n{note}" for note in value.__notes__)
        return pickle.dumps((False, RuntimeError(
            f"pool child {os.getpid()} could not send its {what}: {_child_traceback()}{notes}")))


def _child_traceback() -> str:
    import traceback  # a pool child's error paths only

    return f"in pool child {os.getpid()}:\n{traceback.format_exc()}"


class _Child:
    """A forked task: the child's pid and the read end of its result pipe."""

    def __init__(self, pool, pid, pipe):
        self._pool, self.pid, self.pipe = pool, pid, pipe

    def result(self, timeout=None):
        """The task's return value, or its exception raised here.

        Reads the pipe to its end and reaps the child. The wait has no
        bound: ``timeout`` is there only so that calls written for
        ``concurrent.futures`` fit, and no caller passes one.
        """
        with self.pipe:
            data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self._pool._children.remove(self)
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(f"pool child {self.pid} {how} before sending its result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value


class ProcessPoolExecutor:
    """A process pool that forks one child per task (POSIX ``os.fork``).

    The child inherits the task's function and arguments, so nothing is
    pickled to it. It runs the task, writes ``pickle.dumps((ok, value or
    exception))`` to a pipe and leaves by ``os._exit``, so that no
    inherited stdio buffer or exit handler runs twice. A fork copies
    only the calling thread, so the caller must run no other thread (the
    package starts none). The interface is the part of
    ``concurrent.futures.ProcessPoolExecutor`` that :func:`sample_columns`
    uses.
    """

    def __init__(self, max_workers):
        # max_workers is the number of tasks the caller will submit; each
        # submit forks one child, so the pool needs no limit of its own
        self._children = []  # forked and not yet reaped

    def submit(self, fn, *args):
        """Fork a child that runs ``fn(*args)``; returns its handle."""
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                # only the caller reads a pipe, so a child whose caller is gone
                # fails to write instead of waiting for a sibling to read
                os.close(read)
                for sibling in self._children:
                    sibling.pipe.close()
                data = _outcome_bytes(fn, args)
                with open(write, "wb") as pipe:
                    pipe.write(data)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        child = _Child(self, pid, open(read, "rb"))
        self._children.append(child)
        return child

    def map(self, fn, *iterables):
        """Fork a child per task now; the results follow in task order."""
        children = [self.submit(fn, *args) for args in zip(*iterables)]
        return (child.result() for child in children)

    def shutdown(self):
        """Kill (SIGKILL) and reap every child whose result was not read."""
        if self._children:
            import signal

            for child in self._children:
                os.kill(child.pid, signal.SIGKILL)
                child.pipe.close()
                os.waitpid(child.pid, 0)
            self._children.clear()


def sample_columns(sampler, n: int, plan: StreamPlan) -> list:
    """One pass of n samples: per column, the (moments, failures) of each
    chunk, in chunk order.

    The sampler must expose ``sample_chunk(plan, chunk_index, count)``
    returning one row of ``count`` float64 values per column (a 1-D
    array is one column); non-finite values count as failures. The
    chunks are split into ``min(workers, chunks)`` ranges. With more
    than one, this pass opens a process pool with a child for each
    range but the first: ranges 1.. are forked in one ``map``, the
    caller works range 0 itself and only afterwards collects the
    children's results. Each child inherits the sampler by fork. The
    pool is shut down on every exit, a child not yet collected killed.
    """
    if n < 2:
        raise ContractViolationError(f"need at least 2 samples, got {n}")
    n_tasks = min(plan.workers, plan.n_chunks(n))
    edges = np.linspace(0, plan.n_chunks(n), n_tasks + 1).astype(int).tolist()
    pool = ProcessPoolExecutor(max_workers=n_tasks - 1) if n_tasks > 1 else None
    try:
        rest = pool.map(_chunk_range_stats, repeat(sampler), repeat(plan), repeat(n),
                        edges[1:-1], edges[2:]) if pool is not None else ()
        chunks = _chunk_range_stats(sampler, plan, n, 0, edges[1])
        for piece in rest:
            chunks.extend(piece)
    finally:
        if pool is not None:
            pool.shutdown()
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
    by the fixed pairwise tree. Python floats overflow to inf without a
    warning, so a merged mean or M2 that is not finite is a
    :class:`ContractViolationError`, as in a chunk, and so is an upper
    confidence bound mean + z*std_error beyond float64.
    """
    n_failures = sum(failures for _, failures in chunks)
    if n_failures > fail_threshold * n:
        raise EstimateAbortedError(
            f"{n_failures} of {n} samples failed (threshold {fail_threshold})",
            n_requested=n,
            n_failures=n_failures,
        )
    count, mean, m2 = _pairwise_merge([moments for moments, _ in chunks])
    if not _finite_moments((count, mean, m2)):
        raise ContractViolationError(
            f"the merged mean or sum of squared deviations of {count} samples overflows "
            "float64; try a smaller --horizon or --p"
        )
    if count >= 2 and m2 > 0.0:
        std_error = math.sqrt(m2 / (count - 1) / count)
        degenerate = False
    else:
        std_error = 0.0
        degenerate = True
    if not math.isfinite(float(mean) + z * std_error):
        raise ContractViolationError(
            f"the upper confidence bound mean + z*std_error overflows float64 at z={z}; "
            "try a smaller --z"
        )
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
# Samplers


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

    F and G are finite and nonnegative. ``martingale`` is "zero" or
    "pm1-walk"; the system must guarantee F_n + M_n >= 0 pathwise, which
    a walk satisfies whenever F_n >= n for all n.
    """

    label: str
    f_values: tuple
    g_values: tuple
    martingale: str = "zero"

    def __post_init__(self):
        if not self.f_values or len(self.f_values) != len(self.g_values):
            raise ContractViolationError("F and G must share one length, at least 1")
        if not all(math.isfinite(v) and v >= 0 for v in (*self.f_values, *self.g_values)):
            raise ContractViolationError("F and G must be finite and nonnegative")
        if self.martingale not in ("zero", "pm1-walk"):
            raise ContractViolationError(f"unknown martingale kind {self.martingale!r}")
        low = [n for n, f in enumerate(self.f_values) if f < n]
        if self.martingale == "pm1-walk" and low:
            raise ContractViolationError("a pm1-walk martingale requires F_n >= n to keep F_n + M_n "
                                         f"nonnegative; F_{low[0]} = {self.f_values[low[0]]}")

    @property
    def horizon(self) -> int:
        return len(self.f_values) - 1


def _check_synthetic_horizon(horizon: int) -> None:
    """The work limit: CHUNK_SIZE times horizon + 1 values."""
    if CHUNK_SIZE * (horizon + 1) > MAX_CHUNK_VALUES:
        raise ContractViolationError(
            f"horizon {horizon}: {horizon + 1} values for each of {CHUNK_SIZE} paths are over "
            f"{MAX_CHUNK_VALUES} values for one chunk"
        )


def standard_synthetic_systems(horizon: int = 10) -> tuple:
    """The three stock systems used by the verification suite."""
    _check_synthetic_horizon(horizon)
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
    column per system, which must share one horizon. Every walk system
    steps the same signs, drawn once per chunk as a (count, horizon)
    block, path i in row i. All paths step together, in (systems, count)
    arrays of M_n, the sum of G_k X_k, X_n and its running maximum, so
    the sign block is the only array that grows with the horizon. An
    empty tuple, a horizon over the work limit and a system whose largest
    possible X_n is beyond the float64 range are rejected."""

    systems: tuple
    p: float

    def __post_init__(self):
        if len({system.horizon for system in self.systems}) != 1:
            raise ContractViolationError("need at least one system, and one horizon for all")
        _check_synthetic_horizon(self.systems[0].horizon)
        for sysd in self.systems:
            # X_n <= (max F + max M) * prod_{k<n} (1 + G_k), and a walk has |M_n| <= n
            top = max(sysd.f_values) + (sysd.horizon if sysd.martingale == "pm1-walk" else 0)
            log_worst = (math.log(top) + log_product_one_plus(sysd.g_values, 0, sysd.horizon)
                         if top > 0 else -math.inf)
            if log_worst > _LOG_FLOAT_MAX:
                raise ContractViolationError(
                    f"system {sysd.label!r} at horizon {sysd.horizon}: X_n can reach "
                    f"e^{log_worst:.2f}, beyond the float64 range (e^{_LOG_FLOAT_MAX:.2f})"
                )

    def sample_chunk(self, plan, chunk_index, count):
        systems, horizon = self.systems, self.systems[0].horizon
        f = np.array([sysd.f_values for sysd in systems]).T[:, :, None]  # (steps, systems, 1)
        g = np.array([sysd.g_values for sysd in systems]).T[:, :, None]
        # m[0] is the zero martingale and m[1] the walk, whose steps are exact
        # integers; each system reads its row. X_n >= 0, as F_n + M_n >= 0 and G >= 0.
        rows = [int(sysd.martingale == "pm1-walk") for sysd in systems]
        m = np.zeros((2, count))
        if any(rows):
            signs = plan.chunk_stream(chunk_index).integers(0, 2, size=(count, horizon))
        x = f[0] + m[rows]
        top, acc = x.copy(), np.zeros(x.shape)
        for n in range(1, horizon + 1):
            acc += g[n - 1] * x
            if any(rows):
                m[1] += 2 * signs[:, n - 1] - 1
            np.add(f[n], m[rows], out=x)
            x += acc
            np.maximum(top, x, out=top)
        return top**self.p


# ---------------------------------------------------------------------------
# Implicit Euler sup-functional sampler


def _increment_blocks(hs: tuple, n_steps: tuple, d: int):
    """How one chunk's Brownian increments serve every step size, one
    block of time at a time.

    The increments are drawn on the union of the grids' time points
    {j*h : 0 <= j <= N_h}, listed exactly: every float h is a whole
    number of ticks 1/den, den the largest of their power-of-two
    denominators. The union is cut into blocks at the points that every
    grid holds: for nested grids each block is one coarsest step, for
    grids that share no point but 0 there is one block, and a last block
    runs from the last shared point to the union's end. Returns:

    - the standard deviation of each row of the chunk's step-major draws
      ((points - 1) * d values: the square roots of the union's
      intervals, each repeated d times);
    - the columns, finest step size first;
    - the blocks, each (lo, hi, levels): its rows lo..hi-1 of the draws
      and one level per column, in that order, (from_union, stride,
      bounds). A level's increment j in the block sums its source's
      increments bounds[j] .. bounds[j+1]-1 in the block; the source is
      the previous level if that grid holds all of the level's points,
      else the union. ``stride`` is the common width of the level's sums
      over its whole grid, or None. A level with no step in the block,
      a grid that ends before it, has one bound.
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
    columns = sorted(range(len(hs)), key=hs.__getitem__)
    levels, finer = [], None
    for column in columns:
        grid = grids[column]
        from_union = finer is None or any(t not in finer for t in grid)
        bounds = [at[t] for t in grid] if from_union else [finer.index(t) for t in grid]
        widths = {b - a for a, b in zip(bounds, bounds[1:])}
        levels.append((from_union, widths.pop() if len(widths) == 1 else None, bounds,
                       [at[t] for t in grid]))
        finer = grid
    cuts = [at[t] for t in grids[columns[-1]] if all(t in grid for grid in grids)]
    if cuts[-1] < len(union) - 1:
        cuts.append(len(union) - 1)
    blocks = []
    for lo, hi in zip(cuts, cuts[1:]):
        block, first = [], None
        for from_union, stride, bounds, points in levels:
            # this level's points in the block, the first of them at lo
            i, j = bisect_left(points, lo), bisect_right(points, hi)
            offset = lo if from_union else first
            block.append((from_union, stride, [k - offset for k in bounds[i:j]]))
            first = i
        blocks.append((lo * d, hi * d, block))
    return roots, columns, blocks


def _sum_steps(src, stride, bounds, out):
    """One level's (steps, d, paths) increments in a block, from its
    source's (see ``_increment_blocks``). A stride of 1 is a view. The
    sums of a common stride add left to right into the leading steps of
    the C-ordered ``out``, so a step's increments of all paths lie side
    by side."""
    stop = bounds[-1]
    if stride == 1:
        return src[:stop]
    out = out[:len(bounds) - 1]
    if stride is None:
        return np.add.reduceat(src[:stop], bounds[:-1], axis=0, out=out)
    np.add(src[:stop:stride], src[1:stop:stride], out=out)
    for m in range(2, stride):
        out += src[m:stop:stride]
    return out


class BemSupFunctionalSampler:
    """sup_j (|Y^j|^2 + h |g(Y^j)|^2)^p over implicit-Euler paths, one
    column per step size h of a grid.

    Each chunk's paths share one Brownian path across the step sizes:
    its increments are drawn once, on the union of the grids' time
    points, and a coarser grid's increment is the sum of the finer
    increments inside its step (the coarse/fine coupling of multilevel
    Monte Carlo). The chunk is stepped one block of time at a time:
    one coarsest step for nested grids, such as dyadic ones, and the
    whole horizon for grids that share no point but 0. In each block the
    finest grid is stepped first, then each coarser one from the sums of
    the next finer level's increments, so besides a few path-sized rows
    per grid a chunk holds one block's increments and their sums. Where
    the union is the finest grid (nested grids), the finest column's
    increments are drawn and scaled as a lone grid's would be.

    The step sizes ``hs`` share the horizon ``T``, and a grid has
    ``sde.step_count(h, T)`` steps. Each column's paths are stepped by
    the class that ``sde.implicit_step`` returns, as in
    ``sde.simulate_trajectory``, which also gives their sup functional.
    That class and the work limit are checked at construction, so a
    problem that cannot be stepped is rejected before any chunk is drawn.
    """

    def __init__(self, problem: sde.SdeProblem, hs: Sequence[float], T: float, p: float):
        self.kind = sde.implicit_step(problem)
        self.problem, self.hs, self.T, self.p = problem, tuple(float(h) for h in hs), T, p
        self.n_steps = tuple(sde.step_count(h, T) for h in self.hs)
        # the block layout of every chunk (see _increment_blocks, which checks the work
        # limit up front), the rows of each part of the buffer that its block arrays view,
        # and that buffer (_block_buffers)
        d = problem.d
        self._layout = _increment_blocks(self.hs, self.n_steps, d)
        blocks = self._layout[2]
        self._rows = [max(hi - lo for lo, hi, _ in blocks)] + [
            0 if stride == 1 else d * (max(len(block[i][2]) for _, _, block in blocks) - 1)
            for i, (_, stride, _) in enumerate(blocks[0][2])]
        self._scratch = np.empty(0)

    def sample_chunk(self, plan, chunk_index, count):
        """A (step sizes, count) array, one row per h in grid order.

        The chunk is stepped one block of time at a time (see
        ``_increment_blocks``). A block's normals are the chunk stream's
        next (increments, count) rows, path i in column i, so the blocks
        together draw what one (all increments, count) block would. They
        are scaled row by row to the union's intervals and viewed as
        (steps, d, paths) without a copy: each step of each level reads
        contiguous rows. Each coarser level sums its source into its
        part of the same buffer (see ``_block_buffers``), and every level
        steps on from the states the previous block left.
        """
        problem, hs = self.problem, self.hs
        roots, columns, blocks = self._layout
        levels = [self.kind(problem, hs[column], count) for column in columns]
        draws, sums = self._block_buffers(count)
        stream = plan.chunk_stream(chunk_index)
        for lo, hi, block in blocks:
            union = stream.standard_normal(out=draws[:hi - lo])
            union *= roots[lo:hi, None]
            union = union.reshape(-1, problem.d, count)  # (steps, d, paths), a view
            for paths, out, (from_union, stride, bounds) in zip(levels, sums, block):
                if len(bounds) > 1:  # a grid that ends before the block has no step in it
                    d_w = _sum_steps(union if from_union else d_w, stride, bounds, out)
                    paths.step(d_w)
        out = np.empty((len(hs), count))
        for column, paths in zip(columns, levels):
            out[column] = paths.sup(self.p)
        return out

    def _block_buffers(self, count):
        """The draws of a block, (rows, count), and each level's sums,
        (steps, d, count) or None for a level that views its source,
        each sized for its largest block. They are views of one buffer
        that every chunk this sampler steps reuses, grown when a chunk
        needs more: memory handed back at the end of each chunk would be
        faulted in again by the next."""
        d, rows = self.problem.d, self._rows
        if self._scratch.size < sum(rows) * count:
            self._scratch = np.empty(sum(rows) * count)
        ends = np.cumsum([0] + rows) * count
        draws, *sums = (self._scratch[a:b] for a, b in zip(ends, ends[1:]))
        return draws.reshape(-1, count), [s.reshape(-1, d, count) if s.size else None
                                          for s in sums]


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
        bound = theorem_bound_deterministic_G(p, system.g_values, system.horizon, e_sup_f)["bound"]
        rows.append({"system": system.label, "e_sup_f": e_sup_f, "bound": float(bound),
                     "passed": bool(est.upper_ci <= bound), **asdict(est)})
    inputs = {
        "p": p,
        "n_paths": n_paths,
        "master_seed": plan.master_seed,
        "chunk_size": CHUNK_SIZE,
        "z_value": z,
        "systems": [s.label for s in systems],
        "horizon": systems[0].horizon,
    }
    return {"kind": "theorem-synthetic", "inputs": inputs, "rows": rows,
            "all_passed": all(r["passed"] for r in rows)}


def verify_apriori(
    problem: sde.SdeProblem,
    hs: Sequence[float],
    h0: float,
    T: float,
    p: float,
    n_paths: int,
    plan: StreamPlan,
    z: float = DEFAULT_Z,
    fail_threshold: float = 0.0,
) -> dict:
    """Step-size-robustness check of the a priori implicit-Euler bound.

    The step sizes ``hs`` share the cap ``h0`` and the horizon ``T``,
    are checked by ``sde.check_step_sizes`` and must span at least a
    factor of 8. Each per-h estimate of
    E[sup_j (|Y^j|^2 + h|g(Y^j)|^2)^p] must stay below the single
    h-independent bound. All rows come from one pass: each path is one
    Brownian path, sampled on the union of the grids and summed onto
    each coarser grid, so the rows share their Monte Carlo noise and
    the spread of their means is the discretization effect, which is
    compared against the bound's margin as a qualitative robustness
    indicator. Rows are checked for failures in grid order; the first
    over ``fail_threshold`` aborts the report. The problem is any that
    ``sde.implicit_step`` accepts. One with no ``zoo_spec`` has its
    coercivity spot-checked here, before anything is drawn, and its
    report's ``problem_params`` is empty. Returns the report as the JSON
    object the command line writes.
    """
    n_steps = sde.check_step_sizes(problem, hs, h0, T)
    if len(hs) > 1 and max(hs) / min(hs) < 8.0:
        raise ContractViolationError(
            f"step sizes must span at least a factor of 8, got {max(hs) / min(hs):.3g}"
        )
    if problem.zoo_spec is None:  # make_problem has checked a zoo problem's L
        sde.check_coercivity(problem)

    x0_norm_sq, g_x0_norm_sq = problem.x0_norm_sq(), problem.g_x0_norm_sq()
    parts = apriori_bound_parts(p, problem.L, T, h0, x0_norm_sq, g_x0_norm_sq)
    bound = parts["bound"]

    sampler = BemSupFunctionalSampler(problem, hs, T, p)
    rows = []
    for h, n, chunks in zip(hs, n_steps, sample_columns(sampler, n_paths, plan)):
        est = estimate_expectation(chunks, n_paths, z=z, fail_threshold=fail_threshold)
        rows.append({"h": h, "n_steps": n,
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
        "h_grid": list(hs),
        "L": problem.L,
        "x0_norm_sq": x0_norm_sq,
        "g_x0_norm_sq": g_x0_norm_sq,
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
