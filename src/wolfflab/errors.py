"""Exception types shared across the package."""


class WolffLabError(Exception):
    """Base class for all package errors."""


class DimensionError(WolffLabError):
    """p outside (1, n), where no nontrivial theory exists."""


class ExponentError(WolffLabError):
    """A growth exponent q is outside its admissible range."""


class ModeMismatch(WolffLabError):
    """gamma is inconsistent with the requested mode, or an operation
    requires a different mode."""


class NegativeRadius(WolffLabError):
    pass


class NegativeScale(WolffLabError):
    pass


class SignError(WolffLabError):
    """An integrand that must be nonnegative is negative on the support."""


class ZeroMeasure(WolffLabError):
    pass


class NonpositiveR(WolffLabError):
    pass


class BadPoint(WolffLabError):
    """A query point has the wrong dimension or a non-finite coordinate."""


class NonRadialMeasure(WolffLabError):
    """A radial-only operation received a measure whose potential is not
    a function of |x| alone."""


class DivergentTail(WolffLabError):
    """The tail of an improper integral diverges."""


class NonMonotoneProfile(WolffLabError):
    pass


class InfiniteEnergy(WolffLabError):
    pass


class SubsolutionSearchFailed(WolffLabError):
    """The halving search for the starting subsolution scale found no
    admissible value above the floor."""


class NotConverged(WolffLabError):
    """Iteration did not reach the requested tolerance.

    Carries the partial result in ``solution`` so callers can still
    inspect or persist diagnostics.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution

    def __reduce__(self):
        # A Solution holds closures and does not pickle; the error sent
        # back from a worker process keeps its message only.
        return type(self), self.args


class MonotonicityViolated(WolffLabError):
    """Internal error: the monotone scheme produced a decreasing step,
    which indicates a quadrature fault."""


class UnboundedCondition(WolffLabError):
    """A sup-norm hypothesis fails (some potential is unbounded on a
    support)."""


class ConfigError(WolffLabError):
    """Invalid or unresolvable run configuration."""
