"""Discrete stochastic Gronwall toolkit.

Closed-form moment bounds for recursions with a martingale term,
exhaustive and Monte Carlo verification of the underlying martingale
sup/inf inequality, and a drift-implicit Euler-Maruyama integrator
whose a priori moment bound is checked to be step-size independent.
"""

__version__ = "0.1.0"

from .bounds import (
    AprioriInputs,
    GronwallPathBundle,
    HolderParams,
    apriori_bound,
    holder_prefactor,
    product_form_residuals,
    theorem_bound_deterministic_G,
    theorem_bound_random_G,
    transformed_martingale,
)
from .errors import (
    ConfigError,
    ContractViolationError,
    EstimateAbortedError,
    SolverError,
    StochasticGronwallError,
)
from .martingales import (
    MartingalePath,
    PathFunctionals,
    enumerate_sign_walks,
    functionals,
    gen_stopped_random_walk,
    gen_stopped_wiener_discretization,
    lemma_bound_ratio,
    remark_constants,
    sample_sup_stopped_bm_exact,
    walk_functional_expectations,
)
from .mc import (
    McEstimate,
    SyntheticSystem,
    estimate_expectation,
    standard_synthetic_systems,
    verify_apriori,
    verify_theorem_on_synthetic,
)
from .sde import (
    BemConfig,
    BemTrajectory,
    SdeProblem,
    bem_step,
    make_problem,
    pathwise_recursion_check,
    simulate_trajectory,
    z_increment,
    zoo_labels,
)
from .sequences import (
    RealSequence,
    gronwall_closed_form,
    gronwall_recursive_envelope,
    telescoping_identity_lhs,
)
from .streams import StreamPlan

__all__ = [
    "AprioriInputs",
    "BemConfig",
    "BemTrajectory",
    "ConfigError",
    "ContractViolationError",
    "EstimateAbortedError",
    "GronwallPathBundle",
    "HolderParams",
    "MartingalePath",
    "McEstimate",
    "PathFunctionals",
    "RealSequence",
    "SdeProblem",
    "SolverError",
    "StochasticGronwallError",
    "StreamPlan",
    "SyntheticSystem",
    "apriori_bound",
    "bem_step",
    "enumerate_sign_walks",
    "estimate_expectation",
    "functionals",
    "gen_stopped_random_walk",
    "gen_stopped_wiener_discretization",
    "gronwall_closed_form",
    "gronwall_recursive_envelope",
    "holder_prefactor",
    "lemma_bound_ratio",
    "make_problem",
    "pathwise_recursion_check",
    "product_form_residuals",
    "remark_constants",
    "sample_sup_stopped_bm_exact",
    "simulate_trajectory",
    "standard_synthetic_systems",
    "telescoping_identity_lhs",
    "theorem_bound_deterministic_G",
    "theorem_bound_random_G",
    "transformed_martingale",
    "verify_apriori",
    "verify_theorem_on_synthetic",
    "walk_functional_expectations",
    "z_increment",
    "zoo_labels",
]
