"""Exception and warning types shared across the package.

Everything raised on purpose derives from NuSpectralError so callers (and the
command line driver) can distinguish domain failures from genuine bugs.
"""


class NuSpectralError(Exception):
    """Base class for all deliberate failures in this package."""


class ParseError(NuSpectralError):
    """Malformed textual input.  Carries the offending position when known."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class DegreeTooHigh(NuSpectralError):
    """Polynomial degree exceeds what the operation supports."""


class NotPolynomialRoot(NuSpectralError):
    """Root extraction requested from a polynomial with no roots (degree 0)."""


class NoPerfectSquare(NuSpectralError):
    """The shifted quadratic cannot be written as the square of a real
    linear polynomial over the supported exact field."""


class NoAdmissibleBranch(NuSpectralError):
    """No reduction branch passes the geometric filter (psi decreasing with
    its zero inside the interval), or, where a bound state is asked for,
    the selected branch is not square integrable."""


class AmbiguousBranch(NuSpectralError):
    """Several reduction branches pass the geometric filter, and square
    integrability, the tie-break, leaves none or more than one of them.
    ``branches`` holds every branch that passed the filter.
    """

    def __init__(self, branches):
        self.branches = list(branches)
        super().__init__(
            f"{len(self.branches)} branches pass the geometric filter and "
            "square integrability does not break the tie"
        )


class DoubleRootUnsupported(NuSpectralError):
    """Canonical classification does not cover a double-root leading
    coefficient (the equation is confluent, not hypergeometric), nor a
    quadratic one with no real root, whose chi would need an arctan factor."""


class ParameterOutOfRange(NuSpectralError):
    """A classical weight parameter fell outside its positivity range."""


class PoleAtNonPositiveInteger(NuSpectralError):
    """Gamma (or a plain hypergeometric series) was evaluated at a pole."""


class MaxTermsExceeded(NuSpectralError):
    """A series failed to converge within the term budget."""


class SeriesOverflow(NuSpectralError):
    """A value the evaluation needs left the float range."""


class EmptySpectrum(NuSpectralError):
    """The requested potential binds no states at these parameters."""


class NoScatteringRegion(NuSpectralError):
    """The potential has no finite scattering threshold (both asymptotes
    are infinite)."""


class EnergyBelowRegion(NuSpectralError):
    """A scattering construction was requested below the scattering
    threshold."""


class NonFiniteEnergy(NuSpectralError):
    """A scattering energy was NaN or infinite."""


class GridTooCoarse(NuSpectralError):
    """The spectral oracle cannot meet its tolerance within the allowed
    basis: a level's error estimate is too large, or its box needs more
    points than allowed."""


class NoConvergence(NuSpectralError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class CountMismatch(NuSpectralError):
    """Analytic and oracle spectra have different lengths."""

