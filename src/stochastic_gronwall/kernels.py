"""Hot numeric kernels: implicit Euler-Maruyama batch stepping and
per-chunk moments.

The implicit step is solved for a whole batch of paths at once with
numpy array operations: each Newton iteration touches only the paths
still above tolerance, and only the paths where Newton gives up take
the safeguarded bisection fallback. Per-path arithmetic is the same as
a scalar solve of that path alone, so results do not depend on which
other paths share the batch.
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
    explicit predictor z = b on the entries whose residual is still
    above ``TOL``, for at most ``MAX_ITER`` updates; an entry also
    stops, at the updated iterate, once an update dz has
    ``|dz| <= STEP_RTOL*|z|``. An entry where
    Newton gives up (1 - h*slope(z) not finite or at most
    ``NEWTON_MIN_SLOPE``, a non-finite iterate, or no convergence within
    ``MAX_ITER``) falls back to bisection on [-span, span],
    span = 1 + 2|b|, doubled until it brackets the root. The residual
    is strictly increasing for one-sided Lipschitz drifts with h below
    the Lipschitz threshold, so that root is unique.

    Failure rule: an entry fails if the bracket does not form within
    ``BRACKET_MAX_GROWTH`` doublings, or if the bisection neither meets
    ``TOL`` within ``BISECTION_MAX_ITER`` halvings nor, once the bracket
    has collapsed to rounding level or the halvings are used up, ends
    with a midpoint residual at or below 10*TOL*max(1, |b|).

    Returns (z, iterations, converged); z is NaN where converged is
    False, and iterations counts Newton updates plus bisection halvings.
    """
    b = np.asarray(b, dtype=np.float64)
    z = np.full(b.shape, np.nan)
    iters = np.zeros(b.shape, dtype=np.int64)
    converged = np.zeros(b.shape, dtype=np.bool_)

    idx = np.arange(b.size)
    z_a = b.copy()
    b_a = b
    fallback = []
    for _ in range(MAX_ITER):
        r = z_a - h * drift(z_a) - b_a
        done = np.abs(r) <= TOL
        if done.any():
            z[idx[done]] = z_a[done]
            converged[idx[done]] = True
            keep = ~done
            idx, z_a, b_a, r = idx[keep], z_a[keep], b_a[keep], r[keep]
            if not idx.size:
                break
        denom = 1.0 - h * slope(z_a)
        gave_up = (denom <= NEWTON_MIN_SLOPE) | ~np.isfinite(denom)
        if gave_up.any():
            fallback.append(idx[gave_up])
            keep = ~gave_up
            idx, z_a, b_a, r, denom = idx[keep], z_a[keep], b_a[keep], r[keep], denom[keep]
        step = r / denom
        settled = np.abs(step) <= STEP_RTOL * np.abs(z_a)
        z_a = z_a - step
        iters[idx] += 1
        diverged = ~np.isfinite(z_a)
        leave = settled | diverged
        if leave.any():
            z[idx[settled]] = z_a[settled]
            converged[idx[settled]] = True
            fallback.append(idx[diverged])
            keep = ~leave
            idx, z_a, b_a = idx[keep], z_a[keep], b_a[keep]
        if not idx.size:
            break
    fallback.append(idx)

    rest = np.concatenate(fallback)
    if rest.size:
        root, used, ok = _bisect(drift, h, b[rest])
        z[rest] = np.where(ok, root, np.nan)
        iters[rest] += used
        converged[rest] = ok
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
    length 1 (the zoo problems' callables do this). d_w holds the
    Brownian increments, one row per path, already scaled to variance
    h. Each step solves all live paths at once with
    :func:`implicit_solve`. Returns the full state arrays (paths x
    steps+1), the per-path solver iteration totals, and a per-path
    failure flag; the states of a failed path are NaN from the failed
    step onward.
    """
    n_paths, n_steps = d_w.shape
    states = np.empty((n_paths, n_steps + 1))
    states[:, 0] = x0
    iters = np.zeros(n_paths, dtype=np.int64)
    failed = np.zeros(n_paths, dtype=np.bool_)

    def slope(x):
        return drift_jacobian(x)[..., 0]

    # the live paths: a slice until the first failure, which is cheaper
    # than an index array for the gather and the two scatters of a step
    live = slice(None)
    y = states[:, 0].copy()
    for j in range(n_steps):
        b = y + diffusion(y)[..., 0] * d_w[live, j]
        y, used, ok = implicit_solve(drift, slope, h, b)
        iters[live] += used
        states[live, j + 1] = y
        if not ok.all():
            if isinstance(live, slice):
                live = np.arange(n_paths)
            failed[live[~ok]] = True
            states[live[~ok], j + 1:] = np.nan
            live, y = live[ok], y[ok]
    return states, iters, failed


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
