"""Exception types shared across the toolkit.

The class of an error decides the command line's exit code, in one place,
``cli.main``: a value that fails validation exits with 2 (DomainError,
DeterminacyError, CoverageError, UndefinedOverlapError, ConfigError), a
file whose text does not follow its format with 3 (FormatError, and its
subclass ProvenanceError), and numerical non-convergence with 4
(ConvergenceError). Readers raise FormatError for syntax faults; the
constructors they feed refuse values as anywhere else. Library users catch
them as ordinary ValueError/RuntimeError subclasses.
"""


class DomainError(ValueError):
    """An argument lies outside the physically meaningful domain."""


class FormatError(ValueError):
    """A file's text does not follow its format."""


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


class ProvenanceError(FormatError):
    """A data table lacks the required source citation header."""


class ConvergenceError(RuntimeError):
    """An iterative refinement failed to reach its tolerance."""


class ConfigError(ValueError):
    """Missing or malformed configuration input."""
