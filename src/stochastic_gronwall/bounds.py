"""The closed-form side of the stochastic Gronwall lemma.

The deterministic discrete Gronwall lemma: the recursion hypothesis
y_n <= f_n + sum_{k<n} g_k y_k with nonnegative weights g, and its
closed-form envelope

    y_n <= f_n + sum_{k=0}^{n-1} f_k g_k prod_{j=k+1}^{n-1} (1 + g_j),

which rests on the telescoping product identity

    1 + sum_{i=k}^{n-1} g_i prod_{j=k}^{i-1} (1 + g_j) = prod_{j=k}^{n-1} (1 + g_j).

Sums over empty index sets are zero and products over empty index sets
are one. On it rest the moment bounds of the stochastic Gronwall
inequality and the step-size-independent a priori estimate for the
implicit Euler scheme. All operations are deterministic given their
inputs; expectations such as E[sup_k F_k] enter as caller-supplied
numbers. Estimation lives in :mod:`stochastic_gronwall.mc`. Sequences
are tuples of Python floats, and the module loads no numpy.
"""

from __future__ import annotations

import math

from .errors import ContractViolationError

# A product of (1+g_j) beyond this magnitude is taken in log space instead;
# Gronwall products grow geometrically and would otherwise overflow long
# before the final result does under a fractional power.
OVERFLOW_GUARD = 1e300


def real_sequence(values) -> tuple:
    """The entries as a tuple of Python floats, with index origin 0.

    A sequence of length n+1 covers the horizon 0..n. Entries must be
    finite numbers; nonnegativity is required only where a sequence is
    used as a weight sequence and is checked by the consuming operation.
    """
    if isinstance(values, (str, bytes)):  # the text of one number, not a sequence
        raise ContractViolationError("a sequence must be one-dimensional")
    try:
        seq = tuple(map(float, values))
    except TypeError as exc:  # not iterable, or an entry that is itself a sequence
        raise ContractViolationError("a sequence must be one-dimensional") from exc
    if not seq:
        raise ContractViolationError("a sequence must have at least one entry")
    if not all(map(math.isfinite, seq)):
        raise ContractViolationError("sequence entries must be finite")
    return seq


def _require_length(seq: tuple, n: int, name: str) -> None:
    if len(seq) < n + 1:
        raise ContractViolationError(
            f"sequence {name} has length {len(seq)}, need at least {n + 1} for horizon {n}"
        )


def _require_nonnegative(seq: tuple, upto: int, name: str) -> None:
    bad = next((k for k in range(upto + 1) if seq[k] < 0.0), None)
    if bad is not None:
        raise ContractViolationError(
            f"weight sequence {name} must be nonnegative, entry {bad} is {seq[bad]}"
        )


def _safe_exp(x: float) -> float:
    """exp that rounds to +inf instead of raising on overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def log_product_one_plus(g, lo: int, hi: int) -> float:
    """sum_{j=lo}^{hi-1} log(1 + g_j), the log of the weight product: the
    ``math.fsum`` of libm's ``log1p`` terms, so no bit depends on the CPU."""
    return math.fsum(map(math.log1p, real_sequence(g)[lo:hi]))


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
    product = math.prod(1.0 + gj for gj in real_sequence(g)[lo:hi])
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
    for fk, gk in zip(f[: n + 1], g[: n + 1]):
        out.append(fk + s)
        s = (1.0 + gk) * s + fk * gk
    return out


def gronwall_recursive_envelope(f, g, n: int | None = None) -> tuple:
    """Maximal sequence attaining equality in the Gronwall recursion.

    y_0 = f_0 and y_k = f_k + sum_{i<k} g_i y_i for k <= n, a tuple. Each
    entry coincides with entry k of ``gronwall_closed_form(f, g, n)`` up to rounding.
    """
    f, g, n = _recursion_inputs(f, g, n)

    y = [0.0] * (n + 1)
    y[0] = f[0]
    acc = 0.0  # running sum_{i<k} g_i y_i
    for k in range(1, n + 1):
        acc += g[k - 1] * y[k - 1]
        y[k] = f[k] + acc
        if not math.isfinite(y[k]):
            raise ContractViolationError(
                f"envelope overflowed float64 at index {k}; it is finite up to n = {k - 1}"
            )
    return tuple(y)


def holder_prefactor(p: float, nu: float = 1.0) -> float:
    """(1 + 1/(1 - nu*p))^(1/nu), the prefactor of every moment bound here.

    It checks the exponent pair: p in (0, 1), nu in [1, inf) and p*nu < 1;
    nu = inf is rejected outright because p*nu < 1 then fails for every p
    in (0, 1). At nu = 1 the prefactor is 1 + 1/(1-p), bit for bit.
    """
    if not 0.0 < p < 1.0:
        raise ContractViolationError(f"p must lie in (0,1), got {p}")
    if math.isinf(nu):
        raise ContractViolationError("nu = inf is invalid: p*nu < 1 fails for every p in (0,1)")
    if not 1.0 <= nu:
        raise ContractViolationError(f"nu must lie in [1,inf), got {nu}")
    if not p * nu < 1.0:
        raise ContractViolationError(f"need p*nu < 1, got p*nu = {p * nu}")
    return (1.0 + 1.0 / (1.0 - nu * p)) ** (1.0 / nu)


def theorem_bound_deterministic_G(p: float, G, n: int, e_sup_f: float) -> dict:
    """Moment bound with deterministic weights, together with its factors:

        (1 + 1/(1-p)) * prod_{k<n}(1+G_k)^p * e_sup_f^p

    where ``e_sup_f`` is E[sup_{k<=n} F_k], supplied by the caller. The
    weight product is a finite real number even where its float64 value
    overflows, so e_sup_f = 0 gives the bound 0.
    """
    prefactor = holder_prefactor(p)
    if e_sup_f < 0.0:
        raise ContractViolationError(f"e_sup_f must be >= 0, got {e_sup_f}")
    if n < 0:
        raise ContractViolationError(f"horizon n must be >= 0, got {n}")
    G = real_sequence(G)
    if len(G) < n:
        raise ContractViolationError(f"weight sequence G has length {len(G)}, need at least {n}")
    _require_nonnegative(G, n - 1, "G")
    product_term = power_product_one_plus(G, 0, n, p)
    power_term = e_sup_f**p
    return {"prefactor": prefactor, "product_term": product_term, "power_term": power_term,
            "bound": 0.0 if power_term == 0.0 else prefactor * product_term * power_term}


def theorem_bound_random_G(p: float, nu: float, g_product_p_mu_norm: float,
                           e_sup_f: float) -> dict:
    """Moment bound with random weights via a Hoelder split, and its factors:

        holder_prefactor(p, nu) * ||prod_{k<n}(1+G_k)^p||_{L^mu} * e_sup_f^p

    with 1/mu + 1/nu = 1. The caller supplies the L^mu norm of the weight
    product, which carries the horizon n (the product itself when G is
    deterministic and nu = 1). The norm may be inf; as for deterministic
    weights, e_sup_f = 0 gives the bound 0.
    """
    prefactor = holder_prefactor(p, nu)
    if g_product_p_mu_norm < 0.0:
        raise ContractViolationError("the weight-product norm must be >= 0")
    if e_sup_f < 0.0:
        raise ContractViolationError(f"e_sup_f must be >= 0, got {e_sup_f}")
    power_term = e_sup_f**p
    return {"prefactor": prefactor, "product_norm": g_product_p_mu_norm, "power_term": power_term,
            "bound": 0.0 if power_term == 0.0 else prefactor * g_product_p_mu_norm * power_term}


def apriori_bound(p: float, L: float, T: float, h0: float,
                  x0_norm_sq: float, g_x0_norm_sq: float) -> float:
    """Step-size-independent a priori bound for the implicit Euler scheme:

        (1 + 1/(1-p)) * exp(p * (1-2*h0*L)^-1 * 2*L*T)
        * (x0_norm_sq + (1-2*h0*L)^-1 * (h0*g_x0_norm_sq + 2*L*T))^p
    """
    return apriori_bound_parts(p, L, T, h0, x0_norm_sq, g_x0_norm_sq)["bound"]


def apriori_bound_parts(p: float, L: float, T: float, h0: float,
                        x0_norm_sq: float, g_x0_norm_sq: float) -> dict:
    """The a priori bound together with its three factors, for report output.

    h0 is the step size cap, constrained by 2*h0*L < 1; x0_norm_sq and
    g_x0_norm_sq are |X_0|^2 and the squared Frobenius norm of the
    diffusion at X_0. The prefactor is ``holder_prefactor(p)``, which
    checks p. A growth factor beyond the float range is inf, and so is
    the bound.
    """
    prefactor = holder_prefactor(p)
    if L < 0.0:
        raise ContractViolationError(f"L must be >= 0, got {L}")
    if not T > 0.0:
        raise ContractViolationError(f"T must be > 0, got {T}")
    if not h0 > 0.0:
        raise ContractViolationError(f"h0 must be > 0, got {h0}")
    if not 2.0 * h0 * L < 1.0:
        raise ContractViolationError(f"need 2*h0*L < 1, got {2.0 * h0 * L} for h0={h0}, L={L}")
    if x0_norm_sq < 0.0 or g_x0_norm_sq < 0.0:
        raise ContractViolationError("squared norms must be nonnegative")
    inv = 1.0 / (1.0 - 2.0 * h0 * L)
    growth = _safe_exp(p * inv * 2.0 * L * T)
    base = x0_norm_sq + inv * (h0 * g_x0_norm_sq + 2.0 * L * T)
    power_term = base**p
    return {"prefactor": prefactor, "growth_factor": growth, "power_term": power_term,
            "bound": prefactor * growth * power_term}
