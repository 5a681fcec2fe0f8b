"""Exception types shared across the package."""


class LbinormError(Exception):
    """Base class for all package-specific errors."""


class NumericalError(LbinormError):
    """A computation failed to give a finite, converged value (CLI exit 3);
    every other LbinormError is a refused input or selection (exit 2)."""


class DegenerateSample(LbinormError):
    """All observations equal; the standardized residuals are undefined."""


class BothCumulantsZero(LbinormError):
    """Neither third nor fourth cumulant given; no leading score direction."""


class InvalidDensity(LbinormError):
    """Supplied contamination density does not integrate to one."""


class NotSquareIntegrable(NumericalError):
    """Score has no finite Gaussian second moment; projection is undefined."""


class AlphaOne(LbinormError):
    """The stable characteristic function formula excludes alpha = 1."""


class InversionUnconverged(NumericalError):
    """Fourier inversion did not stabilize under node doubling."""


class QuadratureUnconverged(NumericalError):
    """2-D quadrature did not stabilize under node doubling."""


class ScoreOverflow(NumericalError):
    """Score evaluation produced a non-finite value inside the integrand."""


class SingularCovariance(LbinormError):
    """Sample covariance matrix is not positive definite."""


class UnsupportedShape(LbinormError):
    """Alternative-family parameters outside the validated range."""


class ParseError(LbinormError):
    """Input file could not be parsed; message carries row/column context."""


class IncompatibleSelection(LbinormError):
    """Requested statistic/score combination does not apply to the data."""
