"""Exception types shared across the library.

Numerical failures raise subclasses of :class:`NumericalError`; misuse of a
model or grid raises subclasses of :class:`UsageError`.  The CLI maps
``UsageError`` to exit code 2 and ``NumericalError`` to exit code 1.
"""


class LevyPassageError(Exception):
    """Base class for all library errors."""


class UsageError(LevyPassageError):
    """Invalid input, wrong model kind, or out-of-domain request."""


class NumericalError(LevyPassageError):
    """A numeric routine failed to reach its accuracy target."""


class NoJumpPart(UsageError):
    """Operation requires a jump component the model does not have."""


class WrongKind(UsageError):
    """Closed form requested for the wrong model kind."""


class NoPerturbation(UsageError):
    """sigma = 0: the generalized Lundberg equation has no positive root."""


class OutOfGrid(UsageError):
    """Evaluation outside a tabulated grid without extrapolation."""


class GridMismatch(UsageError):
    """Two grid functions do not share origin/step/length."""


class NonBijectiveMaintenance(UsageError):
    """Maintenance function is not increasing at the requested point."""


class SchemaError(UsageError):
    """JSON document does not match the expected model/policy schema."""


class NoBracket(NumericalError):
    """f(lo) and f(hi) do not straddle zero."""


class NoConvergence(NumericalError):
    """Iteration or series exceeded its budget without converging."""


class SeriesNotConverged(NumericalError):
    """A renewal equation's grid does not resolve it (see ``renewal_series``)."""


class RepeatedRoots(NumericalError):
    """Phase-type root system has (numerically) repeated roots."""


class CardinalityMismatch(NumericalError):
    """Phase-type root sets violate card(I) = card(J) + 1."""


class DegenerateLeadingCoefficient(UsageError):
    """Polynomial root finder called with zero leading coefficient."""


class TailNotDominated(NumericalError):
    """Quadrature grid too short: integrand tail above tolerance."""


class EscapeTestUnavailable(UsageError):
    """Exact last-passage escape test needs the Lundberg root at delta = 0."""


class UnresolvedKernel(NumericalError):
    """A density cannot be resolved by point values on the requested lattice."""


class HorizonExceeded(NumericalError):
    """Simulation exceeded its cycle/step budget."""
