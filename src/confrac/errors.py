"""Exception types shared across the package."""


class ConfracError(Exception):
    """Base class for all errors raised by this package."""


class ExprSyntaxError(ConfracError):
    """Malformed expression text.  ``offset`` is the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprDepthError(ConfracError):
    """An expression tree is too deep to compile or to walk recursively
    (for instance a long flat chain such as t+t+...+t)."""


class EvalDomainError(ConfracError):
    """Evaluation left the real domain (ln of non-positive, division by zero, ...)."""


class QuadratureError(ConfracError):
    """Adaptive quadrature could not reach the requested tolerance."""


class SmoothnessError(ConfracError):
    """A derivative of higher order than the function supports was requested."""


class LimitError(ConfracError):
    """The one-sided limit defining a fractional derivative at t=0 did not converge."""


class HypothesisError(ConfracError):
    """An operation's stated hypothesis failed and the operation cannot proceed."""


class SolverError(ConfracError):
    """Numerical time stepping produced a non-finite state."""


class InstabilityWarning(UserWarning):
    """Finite-difference fallback's estimated error exceeded the reliability bound."""
