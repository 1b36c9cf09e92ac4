"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PipelineError, ValueError):
    """An input violates a documented contract (labels, shapes, config values)."""


class FileFormatError(PipelineError, ValueError):
    """A data or model file is malformed or carries an unsupported version.

    ``path`` and ``line`` (1-based) are attached when known so callers can
    point at the offending record.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        where = ""
        if path is not None:
            where += f" [{path}"
            where += f":{line}]" if line is not None else "]"
        elif line is not None:
            where += f" [line {line}]"
        super().__init__(message + where)
        self.path = path
        self.line = line


class RemoteServiceError(PipelineError, RuntimeError):
    """A remote endpoint kept failing after the configured retries."""


class GenerationError(PipelineError, RuntimeError):
    """A generation response contained no usable queries."""


class DegenerateEmbeddingError(PipelineError, ValueError):
    """A zero-norm vector cannot be normalized."""


class DegenerateProjectionError(PipelineError, ValueError):
    """The projection collapsed to a zero vector before normalization."""


class DegenerateAucError(PipelineError, ValueError):
    """AUC is undefined when only one class is present in the truth cells."""
