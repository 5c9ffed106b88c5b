"""Martingale sup/inf functionals behind the supremum inequality

    E[(sup_{k<=n} M_k)^p] <= (1/(1-p)) * (E[-inf_{k<=n} M_k])^p,  p in (0,1):

exact expectations over the 2^n sign walks of length n (plain or
stopped), from integer counts of walks by the reflection principle over
one table of binomial tails, within the work limit of a synthetic
horizon; exact draws of the supremum of Brownian motion stopped at -1
for Monte Carlo; and the sharp-constant window around pi*p/sin(pi*p).
It loads no numpy: the draws take their generator from the caller.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ContractViolationError
from .streams import CHUNK_SIZE, MAX_CHUNK_VALUES


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


def walk_functional_expectations(
    n: int, p: float, stop_level: float | None = None
) -> tuple[float, float]:
    """Exact (E[(sup M)^p], E[-inf M]) over the 2^n equiprobable +-1 walks
    of length n, each frozen at its first visit <= ``stop_level`` if given.

    Both are sums of tails, E[(sup M)^p] = sum_m (m^p - (m-1)^p)
    P(sup >= m) and E[-inf M] = sum_m P(inf <= -m), counted in walks from
    one table of binomial tails. By reflection a free walk reaches m >= 1
    in R(m) = U((n+m+1)//2) + U((n+m+2)//2) walks, U(j) those with at
    least j up-steps. A walk frozen at b = floor(stop_level) reaches m in
    sum_k R(m + 2k(m-b)) - R(m - 2b + 2k(m-b)) walks, and P(inf <= -m)
    is the free walk's R(m) / 2^n for m <= -b and zero beyond; a barrier
    below -n is never reached. Each count is a Python integer divided by
    2^n once, so every tail, and E[-inf M], is correctly rounded, and
    E[(sup M)^p] is the ``math.fsum`` of the weighted tails, each weight
    from libm's ``pow``, so no bit depends on the CPU. A walk
    whose n + 1 values times ``CHUNK_SIZE`` are over ``MAX_CHUNK_VALUES``,
    the work limit of a synthetic horizon, is rejected before the table
    is built.
    """
    if n < 0:
        raise ContractViolationError(f"n must be >= 0, got {n}")
    if stop_level is not None and not stop_level < 0.0:
        raise ContractViolationError(f"stop_level must be < 0, got {stop_level}")
    if not 0.0 < p < 1.0:
        raise ContractViolationError(f"p must lie in (0,1), got {p}")
    limit = MAX_CHUNK_VALUES // CHUNK_SIZE - 1
    if n > limit:
        raise ContractViolationError(f"walk length {n} is over the work limit of {limit} steps")
    # tails[j]: the walks with at least j up-steps; comb steps from C(n, j) to C(n, j - 1)
    tails, comb = [0] * (n + 2), 1
    for j in range(n, -1, -1):
        tails[j] = tails[j + 1] + comb
        comb = comb * j // (n - j + 1)

    def reach(m: int) -> int:
        """The free walks that reach level m >= 1."""
        return tails[(n + m + 1) // 2] + tails[(n + m + 2) // 2] if m <= n else 0

    b = -n - 1 if stop_level is None or stop_level < -n else math.floor(stop_level)
    total = 1 << n
    sup_tails = [sum(reach(s) - reach(s - 2 * b) for s in range(m, n + 1, 2 * (m - b))) / total
                 for m in range(1, n + 1)]
    neg_inf = sum(reach(m) for m in range(1, min(n, -b) + 1))
    e_sup_p = math.fsum((m**p - (m - 1) ** p) * tail for m, tail in enumerate(sup_tails, 1))
    return e_sup_p, neg_inf / total
