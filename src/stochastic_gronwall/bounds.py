"""Bound evaluators for the stochastic Gronwall inequality and the
step-size-independent a priori estimate for the implicit Euler scheme.

All operations are deterministic given their scalar inputs; expectations
such as E[sup_k F_k] enter as caller-supplied numbers. Estimation lives
in :mod:`stochastic_gronwall.mc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .sequences import _safe_exp, as_sequence, power_product_one_plus


@dataclass(frozen=True)
class HolderParams:
    """Exponent triple (p, nu, mu) with 1/mu + 1/nu = 1 and p*nu < 1.

    ``mu`` is derived from ``nu``; nu = 1 gives mu = inf, the
    essential-supremum norm. nu = inf is rejected outright because
    p*nu < 1 then fails for every p in (0, 1).
    """

    p: float
    nu: float = 1.0
    mu: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ContractViolationError(f"p must lie in (0,1), got {self.p}")
        if math.isinf(self.nu):
            raise ContractViolationError(
                "nu = inf is invalid: p*nu < 1 fails for every p in (0,1)"
            )
        if not 1.0 <= self.nu:
            raise ContractViolationError(f"nu must lie in [1,inf), got {self.nu}")
        if not self.p * self.nu < 1.0:
            raise ContractViolationError(
                f"need p*nu < 1, got p*nu = {self.p * self.nu}"
            )
        mu = math.inf if self.nu == 1.0 else self.nu / (self.nu - 1.0)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class AprioriInputs:
    """Inputs of the a priori moment bound for the implicit Euler scheme.

    h0 is the step size cap, constrained by 2*h0*L < 1; x0_norm_sq and
    g_x0_norm_sq are |X_0|^2 and the squared Frobenius norm of the
    diffusion at X_0.
    """

    p: float
    L: float
    T: float
    h0: float
    x0_norm_sq: float
    g_x0_norm_sq: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ContractViolationError(f"p must lie in (0,1), got {self.p}")
        if self.L < 0.0:
            raise ContractViolationError(f"L must be >= 0, got {self.L}")
        if not self.T > 0.0:
            raise ContractViolationError(f"T must be > 0, got {self.T}")
        if not self.h0 > 0.0:
            raise ContractViolationError(f"h0 must be > 0, got {self.h0}")
        if not 2.0 * self.h0 * self.L < 1.0:
            raise ContractViolationError(
                f"need 2*h0*L < 1, got {2.0 * self.h0 * self.L}"
            )
        if self.x0_norm_sq < 0.0 or self.g_x0_norm_sq < 0.0:
            raise ContractViolationError("squared norms must be nonnegative")


def holder_prefactor(hp: HolderParams) -> float:
    """(1 + 1/(1 - nu*p))^(1/nu); for nu = 1 this is 1 + 1/(1-p)."""
    return (1.0 + 1.0 / (1.0 - hp.nu * hp.p)) ** (1.0 / hp.nu)


def theorem_bound_deterministic_G(p: float, G, n: int, e_sup_f: float) -> float:
    """Moment bound with deterministic weights:

        (1 + 1/(1-p)) * prod_{k<n}(1+G_k)^p * e_sup_f^p

    where ``e_sup_f`` is E[sup_{k<=n} F_k], supplied by the caller.
    """
    if not 0.0 < p < 1.0:
        raise ContractViolationError(f"p must lie in (0,1), got {p}")
    if e_sup_f < 0.0:
        raise ContractViolationError(f"e_sup_f must be >= 0, got {e_sup_f}")
    if n < 0:
        raise ContractViolationError(f"horizon n must be >= 0, got {n}")
    G = as_sequence(G)
    if len(G) < n:
        raise ContractViolationError(
            f"weight sequence G has length {len(G)}, need at least {n}"
        )
    if np.any(G.values[:n] < 0.0):
        raise ContractViolationError("weight sequence G must be nonnegative")
    prefactor = 1.0 + 1.0 / (1.0 - p)
    product_term = power_product_one_plus(G, 0, n, p)
    power_term = 0.0 if e_sup_f == 0.0 else e_sup_f**p
    return prefactor * product_term * power_term


def theorem_bound_random_G(
    hp: HolderParams, g_product_p_mu_norm: float, n: int, e_sup_f: float
) -> float:
    """Moment bound with random weights, via a Hoelder split:

        holder_prefactor(hp) * ||prod_{k<n}(1+G_k)^p||_{L^mu} * e_sup_f^p

    The caller supplies the L^mu norm of the weight product for horizon
    ``n`` (the product itself when G is deterministic and nu = 1).
    """
    if g_product_p_mu_norm < 0.0:
        raise ContractViolationError("the weight-product norm must be >= 0")
    if e_sup_f < 0.0:
        raise ContractViolationError(f"e_sup_f must be >= 0, got {e_sup_f}")
    if n < 0:
        raise ContractViolationError(f"horizon n must be >= 0, got {n}")
    power_term = 0.0 if e_sup_f == 0.0 else e_sup_f**hp.p
    return holder_prefactor(hp) * g_product_p_mu_norm * power_term


def apriori_bound(inp: AprioriInputs) -> float:
    """Step-size-independent a priori bound for the implicit Euler scheme:

        (1 + 1/(1-p)) * exp(p * (1-2*h0*L)^-1 * 2*L*T)
        * (x0_norm_sq + (1-2*h0*L)^-1 * (h0*g_x0_norm_sq + 2*L*T))^p
    """
    return apriori_bound_parts(inp)["bound"]


def apriori_bound_parts(inp: AprioriInputs) -> dict:
    """The a priori bound together with its three factors, for report output.

    A growth factor beyond the float range is inf, and so is the bound.
    """
    inv = 1.0 / (1.0 - 2.0 * inp.h0 * inp.L)
    prefactor = 1.0 + 1.0 / (1.0 - inp.p)
    growth = _safe_exp(inp.p * inv * 2.0 * inp.L * inp.T)
    base = inp.x0_norm_sq + inv * (inp.h0 * inp.g_x0_norm_sq + 2.0 * inp.L * inp.T)
    power_term = 0.0 if base == 0.0 else base**inp.p
    return {
        "prefactor": prefactor,
        "growth_factor": growth,
        "power_term": power_term,
        "bound": prefactor * growth * power_term,
    }
