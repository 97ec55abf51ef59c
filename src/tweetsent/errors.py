"""Exception types shared across the pipeline."""


class SchemaError(Exception):
    """Input file does not match the expected schema (headers, columns, formats)."""


class EmptyCorpusError(Exception):
    """Ingestion produced zero valid records."""


class InvalidRangeError(ValueError):
    """A parameter out of its range: a date range with start after end, a top-k below 1."""


class InvalidNError(ValueError):
    """N-gram order outside the supported 1..4 range."""


class EmptyInputError(ValueError):
    """An aggregate was requested over an empty collection."""


class TiedTrendError(Exception):
    """Positive and negative shares are exactly equal; no trend direction exists."""


class ConfigError(Exception):
    """Run configuration is invalid (missing paths, bad parameter values)."""


class PipelineStageError(Exception):
    """Wraps a failure inside a named pipeline stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
