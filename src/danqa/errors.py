"""Exception hierarchy shared across the package."""


class DanqaError(Exception):
    """Base class for all package errors."""


class ShapeError(DanqaError):
    """Tensor extents are incompatible for the requested operation."""


class ContractError(DanqaError):
    """An API precondition was violated by the caller."""


class ConfigError(DanqaError):
    """Invalid configuration value."""


class VocabError(DanqaError):
    """Token index outside the vocabulary."""


class ValidationError(DanqaError):
    """Corpus data failed schema validation."""


class UsageError(DanqaError):
    """Bad command-line invocation."""


class NumericError(DanqaError):
    """Non-finite values or a failed numeric check during training."""
