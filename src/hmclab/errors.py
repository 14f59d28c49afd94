"""Exception types shared across the package."""


class HmclabError(Exception):
    """Base class for errors raised by this package."""


class UnsupportedCapability(HmclabError):
    """A target does not provide the derivative evaluator that was requested."""


class DivergedTrajectory(HmclabError):
    """A leapfrog trajectory left the numerically trusted region."""


class ConvergenceError(HmclabError):
    """An iterative solver failed to reach its tolerance within its step cap."""


class SingularJacobian(HmclabError):
    """A momentum Jacobian has a non-positive determinant, so its log-det is undefined."""


class BudgetExhausted(HmclabError):
    """An experiment ran out of its step budget before reaching its goal."""
