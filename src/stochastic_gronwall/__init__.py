"""Discrete stochastic Gronwall toolkit.

Closed-form moment bounds for recursions with a martingale term,
exhaustive and Monte Carlo verification of the underlying martingale
sup/inf inequality, and a drift-implicit Euler-Maruyama integrator
whose a priori moment bound is checked to be step-size independent.
"""

__version__ = "0.1.0"
