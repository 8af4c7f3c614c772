"""Shared exception types.

Every error raised on a validation path derives from DdmcError so callers
(and the CLI exit-code mapping) can tell our failures apart from genuine
bugs or OS-level problems.
"""


class DdmcError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(DdmcError):
    """Array shapes are incompatible for the requested operation."""


class ValidationError(DdmcError):
    """A parameter, config value, or mode string is out of range."""


class MaskBudgetError(ValidationError):
    """Sampling mask cannot satisfy its row budget."""


class GraphError(DdmcError):
    """Autodiff graph misuse (backward on non-scalar, missing grad, ...)."""


class ParamError(DdmcError):
    """Parameter-set misuse (duplicate name, frozen mutation, ...)."""


class OptimizerError(DdmcError):
    """Optimizer state does not match the parameter set."""


class StageOrderError(ValidationError):
    """A pipeline stage was requested before its prerequisites finished."""


class NonFiniteLossError(DdmcError):
    """Training produced a NaN or infinite loss."""


class CheckpointIntegrityError(DdmcError):
    """A checkpoint file is inconsistent or incomplete."""


class RecordFormatError(DdmcError):
    """A serialized record or parameter blob cannot be decoded."""


class BadMagicError(RecordFormatError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(RecordFormatError):
    """File format version is not supported."""


class TruncatedFileError(RecordFormatError):
    """File ended before all declared payload bytes were read."""
