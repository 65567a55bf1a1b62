"""Exception types shared across the package."""


class HypfieldError(Exception):
    """Base class for all package errors."""


class ChartOverflowError(HypfieldError):
    """A point fell on or past the numerical boundary of a chart."""


class DegenerateGeodesicError(HypfieldError):
    """Two coincident points do not determine a geodesic."""


class NotHyperbolicError(HypfieldError):
    """Triangle angles pi/p + pi/q + pi/r >= pi admit no hyperbolic triangle."""


class CapacityError(HypfieldError):
    """Tile enumeration hit the configured cap.

    Carries the partial tessellation in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class IncompleteOrbitError(HypfieldError):
    """Orbit count requested beyond the completeness guard of the enumeration."""


class EnumerationTooSmallError(HypfieldError):
    """The enumerated region ran out before the requested construction finished."""


class DiagonalSingularityError(HypfieldError):
    """Green's functions diverge on the diagonal x = y."""


class TruncationError(HypfieldError):
    """Image-sum truncation tail exceeds the requested tolerance."""


class PrecisionLossError(HypfieldError):
    """A series did not converge, a Gamma factor of a 2F1 connection formula
    overflowed, or the G_plus interpolant missed the series.

    A series that did not converge carries its partial sum in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class PoleError(HypfieldError):
    """A special function was evaluated at one of its poles."""


class ThresholdError(HypfieldError):
    """|alpha| >= sqrt(4*pi): the exponential interaction is not defined."""


class DivergentTailError(HypfieldError):
    """Radial integral has a divergent large-distance tail."""


class CovarianceInvalidError(HypfieldError):
    """Covariance factorization failed even after ridge escalation."""


class ConfigurationError(HypfieldError):
    """Run configuration is inconsistent (missing key, misaligned source, ...)."""


class NearSingularWarning(UserWarning):
    """Evaluation close to a singular configuration; value still returned."""
