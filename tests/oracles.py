"""Pathwise checks of the paper's results, shared by several test modules.

A realized path of the stochastic Gronwall hypothesis with its
transformed-martingale product inequality, and the sum side of the
telescoping identity over running products that switch to log space at
the library's overflow guard, the reference for its product; every
sign walk of a given length, plain or stopped, and the walk
expectations read off them, and the former mass recursion of
``martingales`` in exact integer walk counts, the references for its
walk counts by reflection; the root of the Ginzburg-Landau implicit step to 80
digits, the reference for the zoo's exact step; the bounded rotation's
drift matrix, built from its parameters, and a trajectory's increments,
re-drawn from its stream; the tanh well, a scalar problem outside the
zoo with its own exact step; the former per-row implicit-Euler sampler, one fresh
draw per step size, the bit-exact reference for the one-pass sampler in
``mc``; the former whole-union chunk of that sampler, the bit-exact
reference for the one that streams its blocks; the former matrix
sampler of synthetic recursion systems, the bit-exact reference for the
streamed one; and the schema of every report the command line writes.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from stochastic_gronwall import bounds, kernels
from stochastic_gronwall.bounds import OVERFLOW_GUARD, real_sequence
from stochastic_gronwall.errors import ContractViolationError
from stochastic_gronwall.sde import SdeProblem, step_count, zoo_parameters
from stochastic_gronwall.streams import StreamPlan

#: Absolute tolerance for the pathwise recursion inequality checked at
#: bundle construction.
BUNDLE_TOL = 1e-12


class GronwallPathBundle:
    """One realized path of the stochastic Gronwall hypothesis.

    Holds nonnegative sequences X, F, G and a realized martingale path M
    with M_0 = 0, all of equal length, satisfying

        X_n <= F_n + M_n + sum_{k<n} G_k X_k

    at every index (validated at construction to within ``BUNDLE_TOL``).
    """

    __slots__ = ("X", "F", "G", "M")

    def __init__(self, X, F, G, M):
        self.X = real_sequence(X)
        self.F = real_sequence(F)
        self.G = real_sequence(G)
        self.M = real_sequence(M)
        n = len(self.X)
        if not (len(self.F) == len(self.G) == len(self.M) == n):
            raise ContractViolationError("bundle sequences must share one length")
        for name in ("X", "F", "G"):
            if np.any(getattr(self, name) < 0.0):
                raise ContractViolationError(f"bundle sequence {name} must be nonnegative")
        if self.M[0] != 0.0:
            raise ContractViolationError(f"martingale path must start at 0, got {self.M[0]}")
        lhs = self.X
        # sum_{k<n} G_k X_k via an exclusive cumulative sum
        coupling = np.concatenate(([0.0], np.cumsum(self.G[:-1] * lhs[:-1])))
        rhs = self.F + self.M + coupling
        gap = lhs - rhs
        worst = int(np.argmax(gap))
        if gap[worst] > BUNDLE_TOL:
            raise ContractViolationError(
                f"recursion hypothesis violated at index {worst}: "
                f"X={lhs[worst]} exceeds bound {rhs[worst]} by {gap[worst]}"
            )

    @property
    def horizon(self) -> int:
        return len(self.X) - 1


def transformed_martingale(bundle: GronwallPathBundle) -> np.ndarray:
    """Weighted-increment martingale from the product-form inequality.

    L_n = sum_{k<n} (M_{k+1} - M_k) * prod_{j<=k} (1+G_j)^-1, with
    L_0 = 0. Satisfies X_n <= (max_{k<=n} F_k + L_n) * prod_{i<n}(1+G_i)
    pathwise; see :func:`product_form_residuals`.
    """
    m = bundle.M
    g = bundle.G
    n = bundle.horizon
    out = np.zeros(n + 1)
    inv_prod = 1.0
    acc = 0.0
    for k in range(n):
        inv_prod /= 1.0 + g[k]
        acc += (m[k + 1] - m[k]) * inv_prod
        out[k + 1] = acc
    return out


def product_form_residuals(bundle: GronwallPathBundle) -> np.ndarray:
    """Slack of the product-form inequality at every index.

    Entry n is (max_{k<=n} F_k + L_n) * prod_{i<n}(1+G_i) - X_n; the
    inequality holds when every entry is >= -1e-9.
    """
    L = transformed_martingale(bundle)
    f_running_max = np.maximum.accumulate(bundle.F)
    prods = np.concatenate(([1.0], np.cumprod(1.0 + bundle.G[:-1])))
    rhs = (f_running_max + L) * prods
    return rhs - bundle.X


def _running_products(g):
    """Yield prod_{j<i} (1 + g_j) for i = 0, ..., len(g) as pairs (value, log).

    The plain product is kept (log None) while it stays at or below
    OVERFLOW_GUARD. From the factor that takes it beyond, only its log is
    kept (value None), grown by log1p(g_j) per factor. A multiply that
    overflows never reaches the log: the switch then takes
    log(value) + log1p(g_j) from the last finite product. Factors are
    multiplied as Python floats, which overflow to inf without a warning.
    """
    value, log = 1.0, None
    yield value, log
    for gj in g:
        gj = float(gj)
        if log is not None:
            log += math.log1p(gj)
        else:
            nxt = value * (1.0 + gj)
            if nxt <= OVERFLOW_GUARD:
                value = nxt
            else:
                log = math.log(nxt) if nxt < math.inf else math.log(value) + math.log1p(gj)
                value = None
        yield value, log


def telescoping_identity_lhs(g, k: int, n: int) -> float:
    """Sum side of the telescoping identity for weights g over [k, n).

    Returns 1 + sum_{i=k}^{n-1} g_i prod_{j=k}^{i-1} (1 + g_j), which
    equals prod_{j=k}^{n-1} (1 + g_j) exactly; the floating-point gap is
    what the identity tests measure.
    """
    g = real_sequence(g)
    if not 0 <= k <= n - 1:
        raise ContractViolationError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    bounds._require_length(g, n - 1, "g")
    bounds._require_nonnegative(g, n - 1, "g")

    # terms whose running product is held as a log are exp(log g_i + log)
    total = 1.0
    for gi, (value, log) in zip(g[k:n].tolist(), _running_products(g[k:n])):
        if log is None:
            total += gi * value
        elif gi > 0.0:
            total += bounds._safe_exp(math.log(gi) + log)
    return total


def freeze_paths(paths: np.ndarray, stop_level: float) -> np.ndarray:
    """Freeze each row at its first entry <= stop_level (in place)."""
    hit = paths <= stop_level
    rows = np.nonzero(hit.any(axis=1))[0]
    if rows.size:
        first = hit[rows].argmax(axis=1)
        frozen = paths[rows, first]
        cols = np.arange(paths.shape[1])[None, :]
        paths[rows] = np.where(cols > first[:, None], frozen[:, None], paths[rows])
    return paths


def enumerate_sign_walks(n: int, stop_level: float | None = None) -> np.ndarray:
    """All 2^n equiprobable +-1 walks of length n as rows (0 included).

    Rows are cumulative sums of every sign pattern; with ``stop_level``
    each row is frozen at its first visit <= stop_level. Distinct sign
    patterns may then coincide as paths, each still carrying weight 2^-n.
    The array holds 2^n (n + 1) values, so keep n small.
    """
    count = 1 << n
    paths = np.zeros((count, n + 1))
    if n:
        idx = np.arange(count, dtype=np.uint64)[:, None]
        shifts = np.arange(n, dtype=np.uint64)[None, :]
        bits = ((idx >> shifts) & np.uint64(1)).astype(np.int64)
        paths[:, 1:] = np.cumsum(2 * bits - 1, axis=1)
        if stop_level is not None:
            freeze_paths(paths, stop_level)
    return paths


def sign_walk_expectations(n: int, p_values, stop_level: float | None = None):
    """({p: E[(sup M)^p]}, E[-inf M]) as means over all 2^n enumerated walks:
    the reference for ``martingales.walk_functional_expectations``."""
    paths = enumerate_sign_walks(n, stop_level)
    sup = paths.max(axis=1)
    e_sup_p = {p: float(np.mean(sup**p)) for p in p_values}
    return e_sup_p, float(np.mean(-paths.min(axis=1)))


def walk_hit_counts(n: int, levels: int, barrier: int) -> np.ndarray:
    """Walks, of the 2^n +-1 walks of length n from 0, that reach level m
    before ``barrier``, for m = 1, ..., levels, as Python integers.

    The former mass recursion of ``martingales``, exact and O(n^3): row
    m - 1 carries the walks' count over the positions barrier .. levels
    + 1, absorbed at m (its hits are summed) and at the barrier (column
    0, never updated). A count at step t is a multiple of 2^(n - t), so
    halving the sum of the two neighbours stays exact.
    """
    cols = levels - barrier + 2
    mass = np.zeros((levels, cols), dtype=object)
    mass[:, -barrier] = 1 << n
    hits = np.zeros(levels, dtype=object)
    rows = np.arange(levels)
    at_level = rows + 1 - barrier
    for t in range(1, n + 1):
        lo = max(1, -t - barrier, t + 1 - n - barrier)
        hi = min(cols - 2, t - barrier)
        mass[:, lo:hi + 1] = (mass[:, lo - 1:hi] + mass[:, lo + 1:hi + 2]) // 2
        hits += mass[rows, at_level]
        mass[rows, at_level] = 0
    return hits


def exact_walk_expectations(n: int, p_values, stop_level: float | None = None):
    """({p: E[(sup M)^p] to 40 digits}, E[-inf M] as a Fraction) over the
    2^n +-1 walks of length n, each frozen at its first visit <=
    ``stop_level`` if given: the exact reference for
    ``martingales.walk_functional_expectations``, from
    :func:`walk_hit_counts`, for walks of a few hundred steps."""
    free = -n - 1
    barrier = free if stop_level is None else max(math.floor(stop_level), free)
    up = walk_hit_counts(n, n, barrier)
    down = up if barrier == free else walk_hit_counts(n, -barrier, free)
    e_sup_p = {}
    with localcontext() as ctx:
        ctx.prec = 40
        for p in p_values:
            powers = [Decimal(m) ** Decimal(p) for m in range(n + 1)]
            e_sup_p[p] = sum((b - a) * c for a, b, c in zip(powers, powers[1:], up)) / (1 << n)
    return e_sup_p, Fraction(int(down.sum()), 1 << n)


def cubic_root_reference(h: float, b: float) -> Decimal:
    """The one real root z of h z^3 + (1-h) z = b for 0 < h < 1, the
    Ginzburg-Landau implicit step, to 80 significant digits.

    Newton in 90-digit decimal arithmetic, from the smaller of |b|/(1-h)
    and (|b|/h)^(1/3), both above the root: the cubic is increasing and
    convex for z > 0, so the iterates fall monotonically onto the root.
    The root is odd in b.
    """
    with localcontext() as ctx:
        ctx.prec = 90
        hd, target = Decimal(h), abs(Decimal(b))
        if target == 0:
            return Decimal(0)
        z = min(target / (1 - hd), (target / hd) ** (Decimal(1) / 3))
        while True:
            step = (hd * z**3 + (1 - hd) * z - target) / (3 * hd * z**2 + 1 - hd)
            z -= step
            if abs(step) <= z * Decimal(10) ** -82:
                break
        return z if b > 0 else -z


def ulps_from(value: float, exact: Decimal) -> float:
    """|value - exact| in units of the last place of the float nearest ``exact``."""
    return float(abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact))))


def rotation_matrix(problem):
    """A = [[-kappa, -omega], [omega, -kappa]], the drift matrix of a
    bounded rotation, built from its zoo parameters and not from the
    package's drift."""
    params = problem.zoo_spec[1]
    kappa, omega = params["kappa"], params["omega"]
    return np.array([[-kappa, -omega], [omega, -kappa]])


def trajectory_increments(problem, h, T, seed, path=0):
    """The (steps, m) increments dW^j of ``sde.simulate_trajectory`` on the
    stream ``StreamPlan(seed).path_stream(path)``, which the trajectory
    draws whole and does not keep."""
    n = step_count(h, T)
    return StreamPlan(seed).path_stream(path).standard_normal((n, problem.m)) * math.sqrt(h)


def tanh_well_step(h, b):
    """The root z of z + h*tanh(z) = b, which lies within h of b, by bisection."""
    lo, hi = b - h, b + h
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = mid + h * np.tanh(mid) < b
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def tanh_well_problem(L=0.045):
    """dX = -tanh(X) dt + 0.3 dW from X_0 = 0.5, stepped by
    :func:`tanh_well_step`: bounded drift toward the origin and additive
    noise, coercive for L >= 0.3^2/2 = 0.045."""
    return SdeProblem(
        label="tanh-well",
        drift=lambda x: -np.tanh(x),
        diffusion=lambda x: np.full(np.shape(x) + (1,), 0.3),
        x0=np.array([0.5]),
        L=L,
        solve=tanh_well_step,
    )


def per_row_increments(plan, chunk_index, count, h, n_steps, d):
    """The Brownian increments of the former per-row sampler: a fresh
    step-major (n_steps*d, count) block from the chunk's stream, path i
    in column i, scaled to variance h. Returned as (count, n_steps, d)."""
    d_w = plan.chunk_stream(chunk_index).standard_normal((n_steps * d, count))
    d_w *= math.sqrt(h)
    return d_w.reshape(n_steps, d, count).transpose(2, 0, 1)


def per_row_sup(problem, d_w, h, p):
    """The stepping of the former per-row sampler: the sup functional
    sup_j (|Y^j|^2 + h|g(Y^j)|^2)^p of the paths driven by d_w.

    The reference for ``mc.BemSupFunctionalSampler``, which serves every
    step size of a grid from one draw per chunk: a column of it must
    equal this applied to that column's increments, bit for bit. Scalar
    problems go through the batch kernel; the bounded rotation steps
    (count, 2) state arrays with fresh temporaries at every step.
    """
    if problem.zoo_spec[0] == "bounded-rotation":
        return _rotation_sup_reference(problem, d_w, h, p)
    states, _, failed = kernels.bem_scalar_batch(
        problem.solve, problem.diffusion, float(problem.x0[0]), h, d_w[:, :, 0].T)
    g_y = problem.diffusion(states)[..., 0]
    sup = np.nanmax(g_y * g_y * h + states * states, axis=0) ** p
    sup[failed] = np.nan
    return sup


def per_row_sample_chunk(problem, plan, chunk_index, count, h, n_steps, p):
    """One chunk of one step size's column, drawn and stepped alone."""
    d_w = per_row_increments(plan, chunk_index, count, h, n_steps, problem.d)
    return per_row_sup(problem, d_w, h, p)


def _rotation_sup_reference(problem, d_w, h, p):
    x0 = problem.x0
    count, n_steps = d_w.shape[:2]
    # implicit step matrix (I - h A), A = [[-k,-w],[w,-k]] the constant drift matrix
    A = rotation_matrix(problem)
    a = 1.0 - h * A[0, 0]
    b = h * A[1, 0]
    det = a * a + b * b
    ca, cb = a / det, b / det  # (I - hA)^-1 = (ca*I + cb*J), J the quarter turn
    g = problem.diffusion(x0)[0, 0]  # the diffusion is g*I_2
    y = np.tile(x0, (count, 1))
    g_norm_sq = 2.0 * g * g  # Frobenius norm of g*I_2, squared
    best = np.full(count, float(np.dot(x0, x0)) + h * g_norm_sq)
    for j in range(n_steps):
        rhs = y + g * d_w[:, j, :]
        y = np.empty_like(rhs)
        y[:, 0] = ca * rhs[:, 0] - cb * rhs[:, 1]
        y[:, 1] = cb * rhs[:, 0] + ca * rhs[:, 1]
        best = np.maximum(best, np.sum(y * y, axis=1) + h * g_norm_sq)
    return best**p


def whole_union_sample_chunk(sampler, plan, chunk_index, count):
    """The former whole-union chunk of ``mc.BemSupFunctionalSampler``: a
    (step sizes, count) array, one row per h in grid order.

    The reference for the streamed sampler, which steps a chunk one
    block of time at a time: its rows must equal these bit for bit. Here
    the chunk's normals are one (increments, count) draw on the union of
    the grids, each coarser level is summed from its source over the
    whole horizon, and each level is stepped in one pass: a scalar
    problem by one batch-kernel call holding every state of every path,
    the rotation by the former two-row loop.
    """
    problem, hs, d = sampler.problem, sampler.hs, sampler.problem.d
    ratios = [h.as_integer_ratio() for h in hs]
    den = max(q for _, q in ratios)
    grids = [range(0, (n + 1) * num * (den // q), num * (den // q))
             for (num, q), n in zip(ratios, sampler.n_steps)]
    union = sorted(set().union(*grids))
    roots = np.repeat(np.sqrt([(b - a) / den for a, b in zip(union, union[1:])]), d)
    draws = plan.chunk_stream(chunk_index).standard_normal((roots.size, count))
    draws *= roots[:, None]
    draws = draws.reshape(-1, d, count)
    at = {t: i for i, t in enumerate(union)}
    out = np.empty((len(hs), count))
    finer, d_w = None, None
    for column in sorted(range(len(hs)), key=hs.__getitem__):
        grid = grids[column]
        from_union = finer is None or any(t not in finer for t in grid)
        bounds = [at[t] for t in grid] if from_union else [finer.index(t) for t in grid]
        src, stop = draws if from_union else d_w, bounds[-1]
        widths = {b - a for a, b in zip(bounds, bounds[1:])}
        if len(widths) > 1:
            d_w = np.add.reduceat(src[:stop], bounds[:-1], axis=0)
        else:
            stride = widths.pop()
            d_w = src[0:stop:stride]
            for m in range(1, stride):
                d_w = d_w + src[m:stop:stride]
        if problem.d == 1:
            out[column] = _whole_union_scalar_sup(problem, d_w, hs[column], sampler.p)
        else:
            out[column] = _whole_union_rotation_sup(problem, d_w, hs[column], sampler.p)
        finer = grid
    return out


def _whole_union_scalar_sup(problem, d_w, h, p):
    states, _, failed = kernels.bem_scalar_batch(
        problem.solve, problem.diffusion, float(problem.x0[0]), h, d_w[:, 0])
    g_y = problem.diffusion(states)[..., 0]
    sup = np.nanmax(g_y * g_y * h + states * states, axis=0) ** p
    sup[failed] = np.nan
    return sup


def _whole_union_rotation_sup(problem, d_w, h, p):
    A = rotation_matrix(problem)
    a = 1.0 - h * A[0, 0]
    b = h * A[1, 0]
    det = a * a + b * b
    a, b = a / det, b / det
    g = problem.diffusion(problem.x0)[0, 0]
    count = d_w.shape[2]
    y0, y1 = np.full(count, problem.x0[0]), np.full(count, problem.x0[1])
    best = np.full(count, problem.x0_norm_sq())
    for j in range(d_w.shape[0]):
        r0, r1 = d_w[j, 0] * g + y0, d_w[j, 1] * g + y1
        y0, y1 = r0 * a - r1 * b, r0 * b + r1 * a
        best = np.maximum(best, y0 * y0 + y1 * y1)
    return (best + h * problem.g_x0_norm_sq()) ** p


def synthetic_sup_xp_reference(systems, p, plan, chunk_index, count):
    """The former matrix sampler of synthetic recursion systems: sup_n X_n^p
    of one chunk's paths of each system, as a (systems, count) array.

    The reference for ``mc.SyntheticSupXpSampler``, which steps the paths
    of all systems together and holds no matrix but its sign draws: its
    rows must equal these bit for bit. Here the chunk's walk is a
    (count, horizon + 1) cumulative sum of its signs, and each system
    builds its own F_n + M_n and X_n matrices.
    """
    horizon = systems[0].horizon
    walk = np.zeros((count, horizon + 1))
    if any(system.martingale == "pm1-walk" for system in systems):
        signs = plan.chunk_stream(chunk_index).integers(0, 2, size=(count, horizon))
        walk[:, 1:] = np.cumsum(signs.astype(np.float64) * 2.0 - 1.0, axis=1)
    out = np.empty((len(systems), count))
    for row, system in enumerate(systems):
        m = walk if system.martingale == "pm1-walk" else np.zeros_like(walk)
        fm = np.asarray(system.f_values)[None, :] + m
        g = np.asarray(system.g_values)
        x = np.empty((count, horizon + 1))
        x[:, 0] = fm[:, 0]
        acc = np.zeros(count)
        for n in range(1, horizon + 1):
            acc += g[n - 1] * x[:, n - 1]
            x[:, n] = fm[:, n] + acc
        out[row] = x.max(axis=1) ** p
    return out


# ---------------------------------------------------------------------------
# report schema


def _number(v) -> bool:
    """A JSON number: an int or a float, not a bool and not NaN."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and v == v


def _finite(v) -> bool:
    return _number(v) and math.isfinite(v)


def _count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _at_least(lo):
    return lambda v: _count(v) and v >= lo


def _list_of(check):
    """A nonempty list of values that pass ``check``."""
    return lambda v: isinstance(v, list) and len(v) > 0 and all(check(x) for x in v)


def _bool(v) -> bool:
    return isinstance(v, bool)


def _text(v) -> bool:
    return isinstance(v, str)


def _nonnegative(v) -> bool:
    return _finite(v) and v >= 0.0


def _positive(v) -> bool:
    return _finite(v) and v > 0.0


def _nonnegative_or_inf(v) -> bool:
    return _number(v) and v >= 0.0


def _exponent(v) -> bool:
    return _finite(v) and 0.0 < v < 1.0


def _problem_params(v) -> bool:
    return isinstance(v, dict) and all(
        isinstance(k, str) and (_finite(x) or _list_of(_finite)(x)) for k, x in v.items())


# The keys of an McEstimate, as every row and the estimate report hold them.
_ESTIMATE = {
    "mean": _nonnegative,
    "std_error": _nonnegative,
    "ci_halfwidth": _nonnegative,
    "n_samples": _count,
    "n_failures": _count,
    "degenerate_flag": _bool,
    "z_value": _positive,
}
_RUN_INPUTS = {
    "master_seed": lambda v: _count(v) and v < 2**64,
    "chunk_size": _at_least(1),
    "z_value": _positive,
    "p": _exponent,
}

#: Report kind -> schema. A dict schema names every key its value must
#: have, and no other; a one-entry list is a nonempty list of items of
#: that schema; a callable is a test of the value's type and range.
REPORT_SCHEMA = {
    "apriori": {
        "kind": _text,
        "inputs": {
            **_RUN_INPUTS,
            "problem": _text,
            "problem_params": _problem_params,
            "T": _positive,
            "h0": _positive,
            "h_grid": _list_of(_positive),
            "L": _nonnegative,
            "x0_norm_sq": _nonnegative,
            "g_x0_norm_sq": _nonnegative,
            "n_paths": _at_least(2),
        },
        "bound": _nonnegative_or_inf,
        "bound_parts": {
            "prefactor": lambda v: _finite(v) and v >= 2.0,
            "growth_factor": lambda v: _number(v) and v >= 1.0,
            "power_term": _nonnegative_or_inf,
            "bound": _nonnegative_or_inf,
        },
        "rows": [{**_ESTIMATE, "h": _positive, "n_steps": _at_least(1),
                  "passed": _bool}],
        "spread": _nonnegative,
        "margin": _number,
        "h_robust": _bool,
        "all_passed": _bool,
    },
    "theorem-synthetic": {
        "kind": _text,
        "inputs": {
            **_RUN_INPUTS,
            "n_paths": _at_least(2),
            "systems": _list_of(_text),
            "horizon": _count,
        },
        "rows": [{**_ESTIMATE, "system": _text, "e_sup_f": _nonnegative,
                  "bound": _nonnegative_or_inf, "passed": _bool}],
        "all_passed": _bool,
    },
    "estimate": {
        "kind": _text,
        "inputs": {**_RUN_INPUTS, "n_samples": _at_least(2)},
        "estimate": _ESTIMATE,
        "reference": _positive,
    },
}


def check_report(report) -> None:
    """Raise ValueError unless ``report`` matches the schema of its kind
    key for key; an apriori report's ``problem_params`` must also name
    every parameter of its zoo problem, and no other."""
    if not isinstance(report, dict) or report.get("kind") not in REPORT_SCHEMA:
        raise ValueError(f"not a report of a known kind: {report!r:.80}")
    _check(report, REPORT_SCHEMA[report["kind"]], "report")
    if report["kind"] == "apriori":
        inputs = report["inputs"]
        if set(inputs["problem_params"]) != set(zoo_parameters().get(inputs["problem"], ())):
            raise ValueError(f"report.inputs.problem_params: {inputs['problem_params']!r} "
                             f"are not the parameters of {inputs['problem']!r}")


def _check(value, schema, where) -> None:
    if isinstance(schema, dict):
        if not isinstance(value, dict) or set(value) != set(schema):
            keys = sorted(value) if isinstance(value, dict) else value
            raise ValueError(f"{where}: keys {keys!r}, expected {sorted(schema)}")
        for key, sub in schema.items():
            _check(value[key], sub, f"{where}.{key}")
    elif isinstance(schema, list):
        if not isinstance(value, list) or not value:
            raise ValueError(f"{where}: {value!r} is not a nonempty list")
        for i, item in enumerate(value):
            _check(item, schema[0], f"{where}[{i}]")
    elif not schema(value):
        raise ValueError(f"{where}: {value!r} is out of type or range")
