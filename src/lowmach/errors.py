"""Exception types shared across the solver suite."""


class LowMachError(Exception):
    """Base class for all package errors."""


class InvalidStateError(LowMachError, ValueError):
    """A fluid state violates positivity or finiteness."""


class ParamError(LowMachError, ValueError):
    """A scheme parameter violates an invariant.

    ``code`` is a stable machine-readable identifier, e.g.
    ``"alpha-exceeds-bound"`` when alpha > 1/epsilon^2.
    """

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        # Rebuild from both constructor arguments, so the error crosses a
        # process boundary (a sweep worker) intact.
        return type(self), (self.code, *self.args), self.__dict__


class UnsupportedGridError(LowMachError, ValueError):
    """Grid shape incompatible with the requested operation (e.g. odd cell
    count for the stride-2 elliptic variants)."""


class ConfigError(LowMachError, ValueError):
    """Invalid run configuration or config file."""


class NumericsError(LowMachError, RuntimeError):
    """Base class for numerical failures during a solve or a time step."""


class SingularSystemError(NumericsError):
    """Linear system detected as (numerically) singular."""


class NewtonDivergenceError(NumericsError):
    """Newton iteration failed to converge within the iteration budget."""


class SolverFailureError(NumericsError):
    """Iterative linear solver failed to meet its residual contract."""


class PositivityError(NumericsError):
    """Density lost positivity; ``index`` locates the offending cell."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index

    def __reduce__(self):
        return type(self), (self.index, *self.args), self.__dict__


class InstabilityError(NumericsError):
    """Non-finite values appeared in the solution (blow-up)."""


class NoStableDtError(NumericsError):
    """The stability scan found no stable time step in the bracket."""
