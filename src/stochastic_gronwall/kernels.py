"""Hot numeric kernels: implicit Euler-Maruyama batch stepping of scalar
problems and per-chunk moments.

A scalar problem's implicit step is its exact ``solve(h, b)``, applied
to a whole batch of paths at once with numpy array operations, so each
step costs one solve per path and a path's bits are those of the path
alone. A path fails at its first state that is not finite and is NaN
from then on. The batch stepper steps the sampler's step-major rows,
(steps, paths).
"""

from __future__ import annotations

import numpy as np


def bem_scalar_batch(solve, diffusion, x0, h, d_w):
    """Step a batch of scalar implicit Euler-Maruyama paths.

    ``solve(h, b)`` is a scalar problem's exact implicit step: the root
    z of z - h*f(z) = b, entry by entry, for an array b. ``diffusion``
    is g acting elementwise on an array of states and appending one axis
    of length 1 (the zoo problems' callables do this). ``x0`` is the
    start state of every path, or an array of one per path, such as the
    last states of an earlier run, which this run continues. d_w holds
    the increments, (steps, paths), scaled to variance h; each step
    solves every path at once, from the row d_w[j] to the row
    states[j + 1]. A path fails at its first state that is not finite
    (an overflow, or a solve that has no finite root) and is NaN from
    then on, as is a path whose ``x0`` is not finite. Returns the
    (steps+1, paths) states, each step's count of finite path-steps, and
    which paths failed in this call (finite at the start, NaN at the end).
    The package reads only the states, whose NaN is a failed path's one
    record of failure; the counts and failures are kept for the benchmark
    tracer (``perfbench/tracer.py``), its ``solver_iters`` and
    ``failed_paths``.
    """
    n_steps = d_w.shape[0]
    states = np.empty((n_steps + 1, d_w.shape[1]))
    states[0] = x0
    y = states[0]
    with np.errstate(all="ignore"):  # a state that is not finite fails below
        for j in range(n_steps):
            y = states[j + 1] = solve(h, y + diffusion(y)[..., 0] * d_w[j])
    ok = np.isfinite(states)
    if not ok.all():
        ok = ~np.logical_or.accumulate(~ok, axis=0)
        states[~ok] = np.nan
    return states, np.count_nonzero(ok[1:], axis=1), ok[0] & ~ok[-1]


def welford_chunk(values):
    """Count, mean and M2 (sum of squared deviations) of a 1-D chunk.

    A shifted two-pass: the deviations from the first value are summed
    for the mean, then re-centred on it and squared for M2. Shifting
    first keeps a constant chunk exact (mean the constant, M2 0.0),
    which a mean-first two-pass misses by a few ulps for values such as
    0.1. Both sums are numpy's pairwise ``np.sum`` over a fresh
    contiguous array, never BLAS, so the bits depend only on the values
    and their order, not on the machine or the array's layout. The
    Welford name is kept because the benchmark tracer binds it. An
    empty chunk gives (0, 0.0, 0.0).
    """
    n = values.shape[0]
    if n == 0:
        return 0, 0.0, 0.0
    first = values[0]
    d = values - first
    offset = np.sum(d) / n
    d -= offset
    return n, float(first + offset), float(np.sum(d * d))
