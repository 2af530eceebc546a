"""Exception types shared across the library."""


class DimensionError(ValueError):
    """Array shapes do not line up."""


class ParameterError(ValueError):
    """A value is outside its allowed range."""


def require(cond, message: str) -> None:
    """Raise ``ParameterError(message)`` unless ``cond`` holds."""
    if not cond:
        raise ParameterError(message)


class FormatError(ValueError):
    """A file does not match its expected format."""


class MissingPredictionError(ValueError):
    """A prediction snapshot does not cover every sample exactly once."""


class TrainingDivergenceError(RuntimeError):
    """Training produced nonfinite values."""
