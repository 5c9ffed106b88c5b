"""Hot numeric kernels: implicit Euler-Maruyama batch stepping of scalar
problems and per-chunk moments.

The implicit step is solved for a whole batch of paths at once with
numpy array operations: each Newton iteration evaluates the whole
batch, every path in its place, and a mask says which paths still
iterate; only the paths where Newton gives up take the safeguarded
bisection fallback. A path whose right-hand side is NaN or infinite
fails at once, so a failed path's NaN state costs no iteration later.
Per-path arithmetic is that of a scalar solve of the path alone. The
batch stepper steps the sampler's step-major rows, (steps, paths).
"""

from __future__ import annotations

import numpy as np

# Residual tolerance of the implicit step, and Newton updates allowed per path.
TOL = 1e-12
MAX_ITER = 50
# Newton also stops once its update is at most this fraction of the iterate:
# rounding alone keeps the residual above TOL once the state is about 1e4.
STEP_RTOL = 2.0 * np.finfo(np.float64).eps
# Newton gives up on a path when 1 - h*f'(z) is at or below this value.
NEWTON_MIN_SLOPE = 1e-14
# Bracket doublings and bisection halvings allowed per path.
BRACKET_MAX_GROWTH = 600
BISECTION_MAX_ITER = 300


def implicit_solve(drift, slope, h, b):
    """Solve z - h*drift(z) = b entry by entry for a 1-D array b.

    ``drift`` and ``slope`` (its derivative) map a 1-D array of states
    to an array of the same shape, elementwise. Newton runs from the
    explicit predictor z = b, for at most ``MAX_ITER`` updates, on the
    whole array at once: every entry keeps its place, and a mask says
    which entries still iterate. An entry stops once its residual is at
    most ``TOL``, or, at the updated iterate, once an update dz has
    ``|dz| <= STEP_RTOL*|z|``. An entry where
    Newton gives up (1 - h*slope(z) not finite or at most
    ``NEWTON_MIN_SLOPE``, a non-finite iterate, or no convergence within
    ``MAX_ITER``) falls back to bisection on [-span, span],
    span = 1 + 2|b|, doubled until it brackets the root. The residual
    is strictly increasing for one-sided Lipschitz drifts with h below
    the Lipschitz threshold, so that root is unique.

    Failure rule: an entry whose b is NaN or infinite fails at once,
    with no iteration. Any other entry fails if the bracket does not
    form within ``BRACKET_MAX_GROWTH`` doublings, or if the bisection
    neither meets ``TOL`` within ``BISECTION_MAX_ITER`` halvings nor,
    once the bracket has collapsed to rounding level or the halvings are
    used up, ends with a midpoint residual at or below
    10*TOL*max(1, |b|).

    Returns (z, iterations, converged); z is NaN where converged is
    False, and iterations counts Newton updates plus bisection halvings.
    """
    b = np.asarray(b, dtype=np.float64)
    iters = np.zeros(b.shape, dtype=np.int64)
    converged = np.zeros(b.shape, dtype=np.bool_)
    finite = active = np.isfinite(b)
    # a non-finite b starts at 0, so the whole-array evaluations stay finite
    z = np.where(finite, b, 0.0)
    for _ in range(MAX_ITER):
        r = z - h * drift(z) - b
        converged = converged | (active & (np.abs(r) <= TOL))
        active = active & ~converged
        if not active.any():
            break
        denom = 1.0 - h * slope(z)
        # Newton gives up where denom is not finite or at most NEWTON_MIN_SLOPE
        active = active & (denom > NEWTON_MIN_SLOPE) & (denom < np.inf)
        # an inactive entry's step is 0: no division by its slope, and z - 0 is z
        step = np.divide(r, denom, out=np.zeros(b.shape), where=active)
        new = z - step
        iters = iters + active
        # a diverging update is not taken, so every iterate stays finite
        active = active & np.isfinite(new)
        converged = converged | (active & (np.abs(step) <= STEP_RTOL * np.abs(z)))
        np.copyto(z, new, where=active)
        active = active & ~converged

    # gave up, diverged or out of updates
    fallback = np.flatnonzero(finite & ~converged)
    if fallback.size:
        z[fallback], used, converged[fallback] = _bisect(drift, h, b[fallback])
        iters[fallback] += used
    z[~converged] = np.nan
    return z, iters, converged


def _bisect(drift, h, b):
    """Safeguarded bisection for z - h*drift(z) = b, entry by entry."""

    def residual(x, sel):
        return x - h * drift(x) - b[sel]

    span = 1.0 + 2.0 * np.abs(b)
    lo = -span
    hi = span.copy()
    grew = np.zeros(b.shape, dtype=np.int64)
    for bound, sign in ((lo, 1.0), (hi, -1.0)):
        sel = np.arange(b.size)
        while sel.size:
            sel = sel[(sign * residual(bound[sel], sel) > 0.0) & (grew[sel] < BRACKET_MAX_GROWTH)]
            bound[sel] *= 2.0
            grew[sel] += 1
    bracketed = grew < BRACKET_MAX_GROWTH

    root = np.full(b.shape, np.nan)
    iters = np.zeros(b.shape, dtype=np.int64)
    ok = np.zeros(b.shape, dtype=np.bool_)
    sel = np.flatnonzero(bracketed)
    stalled = []
    for _ in range(BISECTION_MAX_ITER):
        if not sel.size:
            break
        mid = 0.5 * (lo[sel] + hi[sel])
        r = residual(mid, sel)
        iters[sel] += 1
        done = np.abs(r) <= TOL
        root[sel[done]] = mid[done]
        ok[sel[done]] = True
        below = r < 0.0
        lo[sel[below]] = mid[below]
        hi[sel[~below]] = mid[~below]
        sel = sel[~done]
        lo_s, hi_s = lo[sel], hi[sel]
        collapsed = hi_s - lo_s <= 1e-300 + 4e-16 * (np.abs(lo_s) + np.abs(hi_s))
        stalled.append(sel[collapsed])
        sel = sel[~collapsed]
    stalled.append(sel)

    sel = np.concatenate(stalled)
    if sel.size:
        mid = 0.5 * (lo[sel] + hi[sel])
        root[sel] = mid
        ok[sel] = np.abs(residual(mid, sel)) <= 10.0 * TOL * np.maximum(1.0, np.abs(b[sel]))
    return root, iters, ok


def bem_scalar_batch(drift, drift_jacobian, diffusion, x0, d_w, h):
    """Step a batch of scalar implicit Euler-Maruyama paths.

    ``drift``, ``drift_jacobian`` and ``diffusion`` are a scalar
    problem's f, f' and g acting elementwise on an array of states:
    ``drift`` keeps the array's shape, the other two append one axis of
    length 1 (the zoo problems' callables do this). ``x0`` is the start
    state of every path, or an array of one per path, such as the last
    states of an earlier run, which this run continues. d_w holds the
    increments, (steps, paths), scaled to variance h. Each step solves
    every path at once with :func:`implicit_solve`, from the row d_w[j]
    to the row states[j + 1]. A failed path is carried on as NaN: its
    next right-hand side fails at once with no iteration, as does a
    path whose ``x0`` is not finite. Returns the (steps+1, paths)
    states, each step's iterations summed over the paths, and which
    paths failed in this call (finite at the start, NaN at the end).
    Once every path is NaN the stepping stops.
    """
    n_steps, n_paths = d_w.shape
    states = np.empty((n_steps + 1, n_paths))
    states[0] = x0
    iters = np.zeros(n_steps, dtype=np.int64)

    def slope(x):
        return drift_jacobian(x)[..., 0]

    y = states[0]
    for j in range(n_steps):
        b = y + diffusion(y)[..., 0] * d_w[j]
        y, used, ok = implicit_solve(drift, slope, h, b)
        iters[j] = used.sum()
        states[j + 1] = y
        if not ok.any():
            states[j + 1:] = np.nan
            break
    return states, iters, np.isfinite(states[0]) & np.isnan(states[-1])


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
