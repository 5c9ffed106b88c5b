"""Pathwise checks of the paper's results, shared by several test modules.

A realized path of the stochastic Gronwall hypothesis with its
transformed-martingale product inequality, and the sum side of the
telescoping identity, computed with the library's product code; and
the former per-row implicit-Euler sampler, one fresh draw per step
size, the bit-exact reference for the one-pass sampler in ``mc``.
"""

import math

import numpy as np

from stochastic_gronwall import kernels, sequences
from stochastic_gronwall.errors import ContractViolationError
from stochastic_gronwall.sequences import RealSequence, as_sequence

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
        self.X = as_sequence(X)
        self.F = as_sequence(F)
        self.G = as_sequence(G)
        self.M = as_sequence(M)
        n = len(self.X)
        if not (len(self.F) == len(self.G) == len(self.M) == n):
            raise ContractViolationError("bundle sequences must share one length")
        for name in ("X", "F", "G"):
            vals = getattr(self, name).values
            if np.any(vals < 0.0):
                raise ContractViolationError(f"bundle sequence {name} must be nonnegative")
        if self.M[0] != 0.0:
            raise ContractViolationError(f"martingale path must start at 0, got {self.M[0]}")
        lhs = self.X.values
        # sum_{k<n} G_k X_k via an exclusive cumulative sum
        coupling = np.concatenate(([0.0], np.cumsum(self.G.values[:-1] * lhs[:-1])))
        rhs = self.F.values + self.M.values + coupling
        gap = lhs - rhs
        worst = int(np.argmax(gap))
        if gap[worst] > BUNDLE_TOL:
            raise ContractViolationError(
                f"recursion hypothesis violated at index {worst}: "
                f"X={lhs[worst]} exceeds bound {rhs[worst]} by {gap[worst]}"
            )

    @property
    def horizon(self) -> int:
        return self.X.horizon


def transformed_martingale(bundle: GronwallPathBundle) -> RealSequence:
    """Weighted-increment martingale from the product-form inequality.

    L_n = sum_{k<n} (M_{k+1} - M_k) * prod_{j<=k} (1+G_j)^-1, with
    L_0 = 0. Satisfies X_n <= (max_{k<=n} F_k + L_n) * prod_{i<n}(1+G_i)
    pathwise; see :func:`product_form_residuals`.
    """
    m = bundle.M.values
    g = bundle.G.values
    n = bundle.horizon
    out = np.zeros(n + 1)
    inv_prod = 1.0
    acc = 0.0
    for k in range(n):
        inv_prod /= 1.0 + g[k]
        acc += (m[k + 1] - m[k]) * inv_prod
        out[k + 1] = acc
    return RealSequence(out)


def product_form_residuals(bundle: GronwallPathBundle) -> np.ndarray:
    """Slack of the product-form inequality at every index.

    Entry n is (max_{k<=n} F_k + L_n) * prod_{i<n}(1+G_i) - X_n; the
    inequality holds when every entry is >= -1e-9.
    """
    L = transformed_martingale(bundle).values
    f_running_max = np.maximum.accumulate(bundle.F.values)
    prods = np.concatenate(([1.0], np.cumprod(1.0 + bundle.G.values[:-1])))
    rhs = (f_running_max + L) * prods
    return rhs - bundle.X.values


def telescoping_identity_lhs(g, k: int, n: int) -> float:
    """Sum side of the telescoping identity for weights g over [k, n).

    Returns 1 + sum_{i=k}^{n-1} g_i prod_{j=k}^{i-1} (1 + g_j), which
    equals prod_{j=k}^{n-1} (1 + g_j) exactly; the floating-point gap is
    what the identity tests measure.
    """
    g = as_sequence(g)
    if not 0 <= k <= n - 1:
        raise ContractViolationError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    sequences._require_length(g, n - 1, "g")
    sequences._require_nonnegative(g, n - 1, "g")
    gv = g.values

    return sequences._product_weighted_sum(1.0, gv[k:n].tolist(), gv[k:n])


def per_row_increments(plan, chunk_index, count, h, n_steps, d):
    """The Brownian increments of the former per-row sampler: a fresh
    (count, n_steps, d) block from the chunk's stream, scaled to
    variance h."""
    d_w = plan.chunk_stream(chunk_index).standard_normal((count, n_steps, d))
    d_w *= math.sqrt(h)
    return d_w


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
        problem.drift, problem.drift_jacobian, problem.diffusion, float(problem.x0[0]),
        d_w[:, :, 0], h)
    g_y = problem.diffusion(states)[..., 0]
    sup = np.nanmax(g_y * g_y * h + states * states, axis=1) ** p
    sup[failed] = np.nan
    return sup


def per_row_sample_chunk(problem, plan, chunk_index, count, h, n_steps, p):
    """One chunk of one step size's column, drawn and stepped alone."""
    d_w = per_row_increments(plan, chunk_index, count, h, n_steps, problem.d)
    return per_row_sup(problem, d_w, h, p)


def _rotation_sup_reference(problem, d_w, h, p):
    x0 = problem.x0
    count, n_steps = d_w.shape[:2]
    # implicit step matrix (I - h A), A = [[-k,-w],[w,-k]] the constant drift Jacobian
    jac = problem.drift_jacobian(x0)
    a = 1.0 - h * jac[0, 0]
    b = h * jac[1, 0]
    det = a * a + b * b
    g = problem.diffusion(x0)[0, 0]  # the diffusion is g*I_2
    y = np.tile(x0, (count, 1))
    g_norm_sq = 2.0 * g * g  # Frobenius norm of g*I_2, squared
    best = np.full(count, float(np.dot(x0, x0)) + h * g_norm_sq)
    for j in range(n_steps):
        rhs = y + g * d_w[:, j, :]
        y = np.empty_like(rhs)
        y[:, 0] = (a * rhs[:, 0] - b * rhs[:, 1]) / det
        y[:, 1] = (b * rhs[:, 0] + a * rhs[:, 1]) / det
        best = np.maximum(best, np.sum(y * y, axis=1) + h * g_norm_sq)
    return best**p
