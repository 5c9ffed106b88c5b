"""Martingale sup/inf functionals behind the supremum inequality

    E[(sup_{k<=n} M_k)^p] <= (1/(1-p)) * (E[-inf_{k<=n} M_k])^p,  p in (0,1):

exact expectations over all sign walks, exact draws of the supremum of
Brownian motion stopped at -1 for Monte Carlo, and the sharp-constant
window around pi*p/sin(pi*p).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError

#: Memory guard for exhaustive walk enumeration (2^n paths).
MAX_ENUM_STEPS = 22


class RatioCheck(NamedTuple):
    """E[(sup M)^p] / (E[-inf M])^p next to its proven ceiling 1/(1-p)."""

    ratio: float
    upper: float
    degenerate: bool


class RemarkConstants(NamedTuple):
    """Lower/upper constants of the sup inequality and their ratio R_p."""

    lower: float
    upper: float
    ratio: float


def _freeze_paths(paths: np.ndarray, stop_level: float) -> np.ndarray:
    """Freeze each row at its first entry <= stop_level (in place)."""
    hit = paths <= stop_level
    rows = np.nonzero(hit.any(axis=1))[0]
    if rows.size:
        first = hit[rows].argmax(axis=1)
        frozen = paths[rows, first]
        cols = np.arange(paths.shape[1])[None, :]
        paths[rows] = np.where(cols > first[:, None], frozen[:, None], paths[rows])
    return paths


def sample_sup_stopped_bm_exact_batch(
    rng_stream: np.random.Generator, size: int
) -> np.ndarray:
    """``size`` exact draws of sup_t of Brownian motion stopped at level -1.

    The ruin probability of hitting x before -1 gives the survival
    function P(sup >= x) = 1/(1+x), inverted as 1/U - 1 for U uniform
    on (0, 1].
    """
    u = 1.0 - rng_stream.random(size)
    return 1.0 / u - 1.0


def lemma_bound_ratio(p: float, e_sup_p: float, e_neg_inf: float) -> RatioCheck:
    """Ratio E[(sup M)^p] / (E[-inf M])^p against the ceiling 1/(1-p).

    With exact expectations the ratio never exceeds the ceiling. A zero
    denominator is flagged degenerate: harmless when the numerator is
    also zero (the all-zero martingale), vacuous otherwise.
    """
    if not 0.0 < p < 1.0:
        raise ContractViolationError(f"p must lie in (0,1), got {p}")
    if e_sup_p < 0.0 or e_neg_inf < 0.0:
        raise ContractViolationError("expectations of nonnegative functionals must be >= 0")
    upper = 1.0 / (1.0 - p)
    if e_neg_inf == 0.0:
        return RatioCheck(math.nan, upper, True)
    return RatioCheck(e_sup_p / e_neg_inf**p, upper, False)


def remark_constants(p: float) -> RemarkConstants:
    """Sharp-constant window for the sup inequality at exponent p.

    Returns (pi*p/sin(pi*p), 1/(1-p), R_p) with
    R_p = sin(pi*p)/(pi*p*(1-p)); R_p peaks at 4/pi for p = 1/2 and
    tends to 1 at both endpoints.
    """
    if not 0.0 < p < 1.0:
        raise ContractViolationError(f"p must lie in (0,1), got {p}")
    s = math.sin(math.pi * p)
    lower = math.pi * p / s
    upper = 1.0 / (1.0 - p)
    return RemarkConstants(lower, upper, s / (math.pi * p * (1.0 - p)))


# ---------------------------------------------------------------------------
# Exhaustive enumeration of +-1 walks


def enumerate_sign_walks(n: int, stop_level: float | None = None) -> np.ndarray:
    """All 2^n equiprobable +-1 walks of length n as rows (0 included).

    Rows are cumulative sums of every sign pattern; with ``stop_level``
    each row is frozen at its first visit <= stop_level. Distinct sign
    patterns may then coincide as paths, each still carrying weight 2^-n.
    """
    if n < 0:
        raise ContractViolationError(f"n must be >= 0, got {n}")
    if n > MAX_ENUM_STEPS:
        raise ContractViolationError(
            f"enumeration of 2^{n} walks exceeds the n <= {MAX_ENUM_STEPS} guard"
        )
    if stop_level is not None and not stop_level < 0.0:
        raise ContractViolationError(f"stop_level must be < 0, got {stop_level}")
    count = 1 << n
    paths = np.zeros((count, n + 1))
    if n:
        idx = np.arange(count, dtype=np.uint64)[:, None]
        shifts = np.arange(n, dtype=np.uint64)[None, :]
        bits = ((idx >> shifts) & np.uint64(1)).astype(np.int64)
        paths[:, 1:] = np.cumsum(2 * bits - 1, axis=1)
        if stop_level is not None:
            _freeze_paths(paths, stop_level)
    return paths


class WalkExpectations(NamedTuple):
    e_sup_p: dict
    e_neg_inf: float
    n: int
    stop_level: float | None


def walk_functional_expectations(
    n: int, p_values, stop_level: float | None = None
) -> WalkExpectations:
    """Exact E[(sup M)^p] for each p and exact E[-inf M] over all 2^n walks."""
    paths = enumerate_sign_walks(n, stop_level)
    sup = paths.max(axis=1)
    neg_inf = -paths.min(axis=1)
    e_sup_p = {float(p): float(np.mean(sup ** float(p))) for p in p_values}
    return WalkExpectations(e_sup_p, float(np.mean(neg_inf)), n, stop_level)
