"""Exception types shared across the toolkit.

The command line maps these onto exit codes: configuration problems exit
with 2, file/format problems with 3, numerical non-convergence with 4.
Library users catch them as ordinary ValueError/RuntimeError subclasses.
"""


class DomainError(ValueError):
    """An argument lies outside the physically meaningful domain."""


class _NonFiniteError(DomainError):
    """A number that must be finite is nan or infinite.

    Raised where a value is built, so the command line can tell it from a
    malformed input file: it exits with 2, as for any DomainError.
    """


class UndefinedOverlapError(ValueError):
    """Overlap of a zero-norm mode or pulse is requested."""


class DeterminacyError(ValueError):
    """Polarimeter frame set cannot determine all four Stokes parameters."""


class CoverageError(ValueError):
    """A measured map does not cover the aperture annulus.

    Attributes
    ----------
    missing_fraction : float
        Estimated fraction of the annulus area without pixels.
    """

    def __init__(self, message, missing_fraction):
        super().__init__(message)
        self.missing_fraction = float(missing_fraction)


class ProvenanceError(ValueError):
    """A data table lacks the required source citation header."""


class ConvergenceError(RuntimeError):
    """An iterative refinement failed to reach its tolerance."""


class ConfigError(ValueError):
    """Missing or malformed configuration input."""
