"""Deterministic discrete Gronwall machinery.

Implements the recursion hypothesis y_n <= f_n + sum_{k<n} g_k y_k with
nonnegative weights g, its closed-form envelope

    y_n <= f_n + sum_{k=0}^{n-1} f_k g_k prod_{j=k+1}^{n-1} (1 + g_j),

and the telescoping product identity

    1 + sum_{i=k}^{n-1} g_i prod_{j=k}^{i-1} (1 + g_j) = prod_{j=k}^{n-1} (1 + g_j)

that the closed form rests on. Sums over empty index sets are zero and
products over empty index sets are one.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

import numpy as np

from .errors import ContractViolationError

# Partial products of (1+g_j) beyond this magnitude switch to log-space
# accumulation; Gronwall products grow geometrically and would otherwise
# overflow long before the final result does under a fractional power.
OVERFLOW_GUARD = 1e300


class RealSequence:
    """Immutable finite sequence of real numbers with index origin 0.

    A sequence of length n+1 covers the horizon 0..n. Entries must be
    finite; nonnegativity is required only where a sequence is used as a
    weight sequence and is checked by the consuming operation.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Union["RealSequence", Iterable[float]]):
        if isinstance(values, RealSequence):
            self._values = values._values
            return
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ContractViolationError("a RealSequence must be one-dimensional")
        if arr.size == 0:
            raise ContractViolationError("a RealSequence must have at least one entry")
        if not np.all(np.isfinite(arr)):
            raise ContractViolationError("RealSequence entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """Read-only float64 view of the entries."""
        return self._values

    @property
    def horizon(self) -> int:
        return self._values.size - 1

    def __len__(self) -> int:
        return self._values.size

    def __getitem__(self, idx):
        return self._values[idx]

    def __iter__(self):
        return iter(self._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealSequence):
            return NotImplemented
        return np.array_equal(self._values, other._values)

    def __repr__(self) -> str:
        return f"RealSequence({self._values.tolist()!r})"


def as_sequence(values) -> RealSequence:
    """Coerce array-likes to a validated RealSequence (no-op on instances)."""
    return values if isinstance(values, RealSequence) else RealSequence(values)


def _require_length(seq: RealSequence, n: int, name: str) -> None:
    if len(seq) < n + 1:
        raise ContractViolationError(
            f"sequence {name} has length {len(seq)}, need at least {n + 1} for horizon {n}"
        )


def _require_nonnegative(seq: RealSequence, upto: int, name: str) -> None:
    vals = seq.values[: upto + 1]
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


def log_product_one_plus(g: RealSequence, lo: int, hi: int) -> float:
    """sum_{j=lo}^{hi-1} log(1 + g_j), the log of the weight product."""
    vals = as_sequence(g).values
    return float(np.sum(np.log1p(vals[lo:hi]))) if hi > lo else 0.0


def power_product_one_plus(g: RealSequence, lo: int, hi: int, p: float) -> float:
    """(prod_{j=lo}^{hi-1} (1 + g_j))^p, overflow-safe for p in (0, 1).

    Uses the plain product while it stays below the overflow guard and
    falls back to exp(p * sum log1p(g_j)) beyond it, so the fractional
    power can be finite even when the plain product would overflow.
    """
    vals = as_sequence(g).values
    acc = 1.0
    for j in range(lo, hi):
        acc *= 1.0 + vals[j]
        if acc > OVERFLOW_GUARD:
            return _safe_exp(p * log_product_one_plus(g, lo, hi))
    return float(acc**p)


def gronwall_closed_form(f, g, n: int) -> float:
    """Closed-form Gronwall envelope at index n.

    Returns f_n + sum_{k=0}^{n-1} f_k g_k prod_{j=k+1}^{n-1} (1 + g_j);
    for n = 0 this is f_0. Requires g nonnegative on 0..n and both
    sequences defined on 0..n.
    """
    f = as_sequence(f)
    g = as_sequence(g)
    if n < 0:
        raise ContractViolationError(f"index n must be nonnegative, got {n}")
    _require_length(f, n, "f")
    _require_length(g, n, "g")
    _require_nonnegative(g, n, "g")
    fv, gv = f.values, g.values

    total = float(fv[n])
    # Accumulate k = n-1 down to 0 with a running product
    # prod = prod_{j=k+1}^{n-1}(1+g_j); switch to log-space on overflow risk.
    prod = 1.0
    log_mode = False
    log_prod = 0.0
    for k in range(n - 1, -1, -1):
        coeff = fv[k] * gv[k]
        if not log_mode:
            total += coeff * prod
            prod *= 1.0 + gv[k]
            if prod > OVERFLOW_GUARD:
                log_mode = True
                log_prod = math.log(prod)
        else:
            if coeff != 0.0:
                term = math.copysign(
                    _safe_exp(math.log(abs(coeff)) + log_prod), coeff
                )
                total += term
            log_prod += math.log1p(gv[k])
    return float(total)


def gronwall_recursive_envelope(f, g, n: int | None = None) -> RealSequence:
    """Maximal sequence attaining equality in the Gronwall recursion.

    y_0 = f_0 and y_k = f_k + sum_{i<k} g_i y_i for k <= n. Each entry
    coincides with ``gronwall_closed_form(f, g, k)`` up to rounding.
    """
    f = as_sequence(f)
    g = as_sequence(g)
    if n is None:
        n = f.horizon
    if n < 0:
        raise ContractViolationError(f"index n must be nonnegative, got {n}")
    _require_length(f, n, "f")
    _require_length(g, n, "g")
    _require_nonnegative(g, n, "g")
    fv, gv = f.values, g.values

    y = [0.0] * (n + 1)
    y[0] = float(fv[0])
    acc = 0.0  # running sum_{i<k} g_i y_i
    for k in range(1, n + 1):
        acc += float(gv[k - 1]) * y[k - 1]
        y[k] = float(fv[k]) + acc
        if not math.isfinite(y[k]):
            raise ContractViolationError(
                f"envelope overflowed float64 at index {k}; evaluate "
                "gronwall_closed_form instead, which propagates inf"
            )
    return RealSequence(y)


def telescoping_identity_lhs(g, k: int, n: int) -> float:
    """Sum side of the telescoping identity for weights g over [k, n).

    Returns 1 + sum_{i=k}^{n-1} g_i prod_{j=k}^{i-1} (1 + g_j), which
    equals prod_{j=k}^{n-1} (1 + g_j) exactly; the floating-point gap is
    what the identity tests measure.
    """
    g = as_sequence(g)
    if not 0 <= k <= n - 1:
        raise ContractViolationError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    _require_length(g, n - 1, "g")
    _require_nonnegative(g, n - 1, "g")
    gv = g.values

    total = 1.0
    prod = 1.0  # prod_{j=k}^{i-1}(1+g_j)
    log_mode = False
    log_prod = 0.0
    for i in range(k, n):
        if not log_mode:
            total += gv[i] * prod
            prod *= 1.0 + gv[i]
            if prod > OVERFLOW_GUARD:
                log_mode = True
                log_prod = math.log(prod)
        else:
            if gv[i] != 0.0:
                total += _safe_exp(math.log(gv[i]) + log_prod)
            log_prod += math.log1p(gv[i])
    return float(total)


def telescoping_max_rel_error(g) -> float:
    """Largest relative identity gap over every valid (k, n) pair of g.

    For each k the sum side and the product side are accumulated exactly
    as ``telescoping_identity_lhs`` does, vectorized over n.
    """
    g = as_sequence(g)
    _require_nonnegative(g, len(g) - 1, "g")
    gv = g.values
    m = gv.size
    worst = 0.0
    for k in range(m):
        cum = np.cumprod(1.0 + gv[k:])          # prod_{j=k}^{i}(1+g_j)
        shifted = np.concatenate(([1.0], cum[:-1]))
        lhs = 1.0 + np.cumsum(gv[k:] * shifted)  # lhs for n = k+1 .. m
        rel = np.abs(lhs - cum) / cum
        worst = max(worst, float(rel.max()))
    return worst
