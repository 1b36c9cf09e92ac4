"""Exception types shared across the pipeline: one class per CLI exit code."""


class PipelineError(Exception):
    """Base class for every error raised by this package; only its subclasses are raised."""


class ValidationError(PipelineError, ValueError):
    """An input violates a documented contract (labels, shapes, config values, a zero row); exit 2."""


class FileFormatError(PipelineError, ValueError):
    """A data or model file is malformed or carries an unsupported version; exit 3.

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
    """A remote endpoint kept failing after the configured retries, or its reply is unusable; exit 4."""
