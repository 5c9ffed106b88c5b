"""Deterministic discrete Gronwall machinery.

Implements the recursion hypothesis y_n <= f_n + sum_{k<n} g_k y_k with
nonnegative weights g, its closed-form envelope

    y_n <= f_n + sum_{k=0}^{n-1} f_k g_k prod_{j=k+1}^{n-1} (1 + g_j),

which rests on the telescoping product identity

    1 + sum_{i=k}^{n-1} g_i prod_{j=k}^{i-1} (1 + g_j) = prod_{j=k}^{n-1} (1 + g_j).

Sums over empty index sets are zero and
products over empty index sets are one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError

# A product of (1+g_j) beyond this magnitude is taken in log space instead;
# Gronwall products grow geometrically and would otherwise overflow long
# before the final result does under a fractional power.
OVERFLOW_GUARD = 1e300


def real_sequence(values) -> np.ndarray:
    """The entries as a read-only 1-D float64 array, with index origin 0.

    A sequence of length n+1 covers the horizon 0..n. Entries must be
    finite; nonnegativity is required only where a sequence is used as a
    weight sequence and is checked by the consuming operation.
    """
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractViolationError("a sequence must be one-dimensional")
    if arr.size == 0:
        raise ContractViolationError("a sequence must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ContractViolationError("sequence entries must be finite")
    arr.setflags(write=False)
    return arr


def _require_length(seq: np.ndarray, n: int, name: str) -> None:
    if len(seq) < n + 1:
        raise ContractViolationError(
            f"sequence {name} has length {len(seq)}, need at least {n + 1} for horizon {n}"
        )


def _require_nonnegative(seq: np.ndarray, upto: int, name: str) -> None:
    vals = seq[: upto + 1]
    bad = np.nonzero(vals < 0.0)[0]
    if bad.size:
        raise ContractViolationError(
            f"weight sequence {name} must be nonnegative, entry {bad[0]} is {vals[bad[0]]}"
        )


def _safe_exp(x: float) -> float:
    """exp that rounds to +inf instead of raising on overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def log_product_one_plus(g, lo: int, hi: int) -> float:
    """sum_{j=lo}^{hi-1} log(1 + g_j), the log of the weight product."""
    vals = real_sequence(g)
    return float(np.sum(np.log1p(vals[lo:hi]))) if hi > lo else 0.0


def _recursion_inputs(f, g, n):
    """f and g as sequences and n (default: the last index of f), with both
    sequences defined on 0..n and g nonnegative there."""
    f = real_sequence(f)
    g = real_sequence(g)
    if n is None:
        n = len(f) - 1
    if n < 0:
        raise ContractViolationError(f"index n must be nonnegative, got {n}")
    _require_length(f, n, "f")
    _require_length(g, n, "g")
    _require_nonnegative(g, n, "g")
    return f, g, n


def power_product_one_plus(g, lo: int, hi: int, p: float) -> float:
    """(prod_{j=lo}^{hi-1} (1 + g_j))^p, overflow-safe for p in (0, 1).

    Takes the plain product, multiplied left to right as Python floats
    (which overflow to inf without a warning). Beyond the overflow guard
    it falls back to exp(p * sum log1p(g_j)), so the fractional power
    can be finite even when the plain product overflows. For g >= 0 the
    factors are at least 1, so a product beyond the guard is the one
    whose partial products left it.
    """
    product = math.prod(1.0 + gj for gj in real_sequence(g)[lo:hi].tolist())
    if product > OVERFLOW_GUARD:
        return _safe_exp(p * log_product_one_plus(g, lo, hi))
    return float(product**p)


def gronwall_closed_form(f, g, n: int | None = None) -> list:
    """Closed-form Gronwall envelope at every index 0..n (default: the last of f).

    Entry k is f_k + sum_{i<k} f_i g_i prod_{j=i+1}^{k-1} (1 + g_j), in one
    pass: S_0 = 0 and S_{k+1} = (1 + g_k) S_k + f_k g_k, entry k being
    f_k + S_k. Python floats overflow to inf without a warning, and inf
    propagates. Requires g nonnegative on 0..n and both sequences defined
    on 0..n.
    """
    f, g, n = _recursion_inputs(f, g, n)

    out, s = [], 0.0
    for fk, gk in zip(f[: n + 1].tolist(), g[: n + 1].tolist()):
        out.append(fk + s)
        s = (1.0 + gk) * s + fk * gk
    return out


def gronwall_recursive_envelope(f, g, n: int | None = None) -> np.ndarray:
    """Maximal sequence attaining equality in the Gronwall recursion.

    y_0 = f_0 and y_k = f_k + sum_{i<k} g_i y_i for k <= n. Each entry
    coincides with entry k of ``gronwall_closed_form(f, g, n)`` up to rounding.
    """
    f, g, n = _recursion_inputs(f, g, n)

    y = [0.0] * (n + 1)
    y[0] = float(f[0])
    acc = 0.0  # running sum_{i<k} g_i y_i
    for k in range(1, n + 1):
        acc += float(g[k - 1]) * y[k - 1]
        y[k] = float(f[k]) + acc
        if not math.isfinite(y[k]):
            raise ContractViolationError(
                f"envelope overflowed float64 at index {k}; it is finite up to n = {k - 1}"
            )
    return real_sequence(y)
