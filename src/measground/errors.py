"""Exception types shared across the package.

Exit-code policy for the CLI: validation-type failures map to exit 1,
IO/remote failures to exit 2 (see cli._IO_ERRORS and cli.main).
"""


class MeasgroundError(Exception):
    """Base class for all package errors."""


# --- capture bundles ---------------------------------------------------------

class MissingFile(MeasgroundError):
    """A required bundle or input file does not exist."""


class MalformedSidecar(MeasgroundError):
    """capture.json violates the sidecar schema or its invariants."""


class MalformedMosaic(MeasgroundError):
    """mosaic.pgm is not a binary 16-bit PGM in the expected form."""


class DimensionMismatch(MeasgroundError):
    """Mosaic dimensions are inconsistent (odd, or header/payload disagree)."""


class InvalidSpec(MeasgroundError):
    """A synthetic scene spec is self-inconsistent (e.g. patch out of bounds)."""


class IoFailure(MeasgroundError):
    """Filesystem write/read failed, or a remote call failed permanently (not retried)."""


# --- numeric pipeline --------------------------------------------------------

class DegenerateCalibration(MeasgroundError):
    """The white-balanced full-scale white maps to no finite positive XYZ value
    (``measxyz.white_scale``); raised only by the calibration rule, ``capture.Sidecar``."""


class DomainError(MeasgroundError, ValueError):
    """Value outside the documented input domain."""


class EmptyBracket(MeasgroundError):
    """An exposure bracket must contain at least one gain."""


class SingularMatrix(MeasgroundError):
    """Color matrix is not invertible."""


class ShapeMismatch(MeasgroundError):
    """Array shapes disagree."""


# --- annotation & aggregation ------------------------------------------------

class AnnotatorUnavailable(MeasgroundError):
    """Annotator endpoint unreachable or timed out (retryable)."""


class MalformedResponse(MeasgroundError):
    """Annotator response violates the wire schema."""


class EmptyInput(MeasgroundError):
    """Aggregation requires a non-empty candidate list."""


class MissingMeasXyz(MeasgroundError):
    """No measurement-domain image materialized for the capture."""


# --- manifests & splits ------------------------------------------------------

class SchemaViolation(MeasgroundError):
    """A manifest line fails schema validation (carries the line number)."""


class DegenerateSplit(MeasgroundError):
    """A single group is too large to split at the requested fraction."""


class ManifestMismatch(MeasgroundError):
    """Predictions reference examples absent from the benchmark manifest."""


# --- judging -----------------------------------------------------------------

class JudgeUnavailable(MeasgroundError):
    """Judge endpoint unreachable or timed out (retryable)."""


class MalformedVerdict(MeasgroundError):
    """Judge response is not a correct/incorrect verdict."""


# --- probe & config ----------------------------------------------------------

class NonFiniteGradient(MeasgroundError):
    """A gradient check produced NaN or infinity."""


class ConfigInvalid(MeasgroundError):
    """Run configuration failed validation; message carries the field path."""
