"""Exception hierarchy shared across the pipeline."""


class CitescreenError(Exception):
    """Base class for all pipeline errors."""


class FormatError(CitescreenError):
    """A resource or corpus file violates its documented format."""


class QueryBuildError(CitescreenError):
    """A Boolean query could not be built (e.g. no bounding concepts)."""


class QueryParseError(CitescreenError):
    """A rendered Boolean query string could not be parsed back."""


class ConfigError(CitescreenError):
    """Invalid or missing configuration."""


class OutputError(CitescreenError):
    """An output file or directory could not be written."""


class TransportError(CitescreenError):
    """Network failure after exhausting retries."""


class StatusError(TransportError):
    """HTTP non-success response."""

    def __init__(self, status_code: int, body_excerpt: str = ""):
        self.status_code = status_code
        self.body_excerpt = body_excerpt
        super().__init__(f"HTTP {status_code}: {body_excerpt[:200]}")
