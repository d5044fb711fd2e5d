"""Exception types shared across the package."""


class TransGCNError(Exception):
    """Base class for all package-specific errors."""


class ParseError(TransGCNError, ValueError):
    """Malformed input text (dataset files, config files, queries)."""


class ShapeError(TransGCNError, ValueError):
    """Operands with incompatible or invalid dimensions."""


class NumericError(TransGCNError, ArithmeticError):
    """Non-finite values or domain violations detected during computation."""


class StateError(TransGCNError, RuntimeError):
    """Operation invoked in an invalid lifecycle state."""


class ConfigError(TransGCNError, ValueError):
    """Unknown keys or invalid values in a run configuration."""


class MemoryBudgetError(ConfigError):
    """A run whose estimated peak memory exceeds what the host has available."""


class CheckpointError(TransGCNError, ValueError):
    """Corrupted checkpoint data or mismatched vocabularies."""
