"""Martingale sup/inf functionals behind the supremum inequality

    E[(sup_{k<=n} M_k)^p] <= (1/(1-p)) * (E[-inf_{k<=n} M_k])^p,  p in (0,1):

exact expectations over the 2^n sign walks of length n (plain or
stopped), from one forward recursion over the walk's probability mass in
O(n^3) time and within the ``streams.MAX_CHUNK_VALUES`` work limit; exact
draws of the supremum of Brownian motion stopped at -1 for Monte Carlo;
and the sharp-constant window around pi*p/sin(pi*p).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError
from .streams import MAX_CHUNK_VALUES


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
# Exact walk expectations


def _level_hit_probabilities(n: int, levels: int, barrier: int) -> np.ndarray:
    """P(a +-1 walk from 0 reaches level m within n steps, before ``barrier``)
    for m = 1, ..., levels.

    Row m - 1 carries the walk's mass over the positions barrier .. levels
    + 1, absorbed at m (its hits are summed) and at the barrier (column
    0, never updated). Each step updates only the positions that a walk
    can occupy after it and that can still reach level 1.
    """
    cols = levels - barrier + 2
    if levels * cols > MAX_CHUNK_VALUES:
        raise ContractViolationError(
            f"walk length {n}: {levels} levels times {cols} positions are over "
            f"{MAX_CHUNK_VALUES} values for one mass array"
        )
    mass = np.zeros((levels, cols))
    mass[:, -barrier] = 1.0
    hits = np.zeros(levels)
    rows = np.arange(levels)
    at_level = rows + 1 - barrier
    for t in range(1, n + 1):
        lo = max(1, -t - barrier, t + 1 - n - barrier)
        hi = min(cols - 2, t - barrier)
        mass[:, lo:hi + 1] = 0.5 * (mass[:, lo - 1:hi] + mass[:, lo + 1:hi + 2])
        hits += mass[rows, at_level]
        mass[rows, at_level] = 0.0
    return hits


def walk_functional_expectations(
    n: int, p: float, stop_level: float | None = None
) -> tuple[float, float]:
    """Exact (E[(sup M)^p], E[-inf M]) over the 2^n equiprobable +-1 walks
    of length n, each frozen at its first visit <= ``stop_level`` if given.

    Both are sums of tails, E[(sup M)^p] = sum_m (m^p - (m-1)^p)
    P(sup >= m) and E[-inf M] = sum_m P(inf <= -m), with the tails from
    :func:`_level_hit_probabilities`. The walk freezes on reaching
    b = floor(stop_level), so P(inf <= -m) is the free walk's
    P(sup >= m) for m <= -b and zero beyond; a barrier below -n is never
    reached, and one pass then gives both sums. A mass array of more than
    ``MAX_CHUNK_VALUES`` values is rejected before it is allocated.
    """
    if n < 0:
        raise ContractViolationError(f"n must be >= 0, got {n}")
    if stop_level is not None and not stop_level < 0.0:
        raise ContractViolationError(f"stop_level must be < 0, got {stop_level}")
    if not 0.0 < p < 1.0:
        raise ContractViolationError(f"p must lie in (0,1), got {p}")
    free = -n - 1
    barrier = free if stop_level is None else max(math.floor(stop_level), free)
    up = _level_hit_probabilities(n, n, barrier)
    down = up if barrier == free else _level_hit_probabilities(n, -barrier, free)
    weights = np.diff(np.arange(n + 1.0) ** p)
    return float(weights @ up), float(down.sum())
