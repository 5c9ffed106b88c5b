"""Exception types shared across the package."""


class StochasticGronwallError(Exception):
    """Base class for all package errors."""


class ContractViolationError(StochasticGronwallError, ValueError):
    """An input violates a documented precondition or type invariant."""


class ConfigError(StochasticGronwallError, ValueError):
    """An experiment configuration failed schema or range validation."""


class SolverError(StochasticGronwallError, RuntimeError):
    """The implicit step solver did not converge."""


class EstimateAbortedError(StochasticGronwallError, RuntimeError):
    """Sampler failure rate exceeded the configured threshold."""

    def __init__(self, message, n_requested, n_failures):
        super().__init__(message)
        self.n_requested = n_requested
        self.n_failures = n_failures

    def __reduce__(self):  # pickled from a pool child with its counts
        return type(self), (*self.args, self.n_requested, self.n_failures), self.__dict__
