"""Exception types shared across the pipeline. A refusal derives from
`ConfigError` (exit 2) or `DataError` (exit 3); `cli.main` treats any other
failure, except an `OSError` on a path given (exit 2), as a bug (exit 4)."""


class ConfigError(Exception):
    """Run configuration is invalid (missing paths, bad parameter values)."""


class DataError(Exception):
    """The input data cannot be analysed (schema violations, empty corpora, ties)."""


class SchemaError(DataError):
    """Input file does not match the expected schema (headers, columns, formats)."""


class EmptyCorpusError(DataError):
    """Ingestion produced zero valid records."""


class InvalidRangeError(ConfigError, ValueError):
    """A parameter out of its range: a date range with start after end, a top-k below 1."""


class InvalidNError(ConfigError, ValueError):
    """N-gram order outside the supported 1..4 range."""


class EmptyInputError(DataError, ValueError):
    """An aggregate was requested over an empty collection."""


class TiedTrendError(DataError):
    """Positive and negative shares are exactly equal; no trend direction exists."""


class PipelineStageError(Exception):
    """Wraps a failure inside a named pipeline stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
