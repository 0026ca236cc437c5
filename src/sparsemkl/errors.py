"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """An argument or constructed object violates a documented precondition."""


class DivergenceError(RuntimeError):
    """The iteration produced a non-finite quantity.

    Attributes
    ----------
    iteration : int
        1-based index of the offending iteration.
    """

    def __init__(self, iteration, message=None):
        self.iteration = int(iteration)
        if message is None:
            message = f"non-finite iterate at iteration {self.iteration}"
        super().__init__(message)

    def __reduce__(self):
        # the default rebuilds from the message alone, which is not an
        # iteration, so a worker's error could not reach its pool
        return type(self), (self.iteration, str(self))


class OracleFailure(RuntimeError):
    """No candidate support produced a certified stationary point."""


class DualInfeasible(ValueError):
    """A certificate norm exceeds the dual-feasible bound beyond tolerance."""


class ConfigError(ValueError):
    """Invalid command-line or configuration-file input."""
