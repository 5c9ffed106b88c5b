"""Exception types shared across the package."""


class StochasticGronwallError(Exception):
    """Base class for all package errors."""


class ContractViolationError(StochasticGronwallError, ValueError):
    """An input violates a documented precondition or type invariant."""


class ConfigError(StochasticGronwallError, ValueError):
    """An experiment configuration failed schema or range validation."""


class SolverError(StochasticGronwallError, RuntimeError):
    """A path failed: the implicit step left a state that is not finite."""
