"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class MavlError(Exception):
    """Base class for all toolkit errors."""


class DatasetParseError(MavlError):
    """Malformed dataset document."""

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


class DatasetValidationError(MavlError):
    """Dataset content violates a schema invariant.

    ``location`` names the offending song/section/line when known.
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class EmptyLineError(MavlError):
    """Text was empty or whitespace-only where content is required."""


class NumberRangeError(MavlError):
    """Integer outside the supported cardinal-expansion range."""


class MissingRuleTableError(MavlError):
    """No grapheme-to-phoneme rule table available for a language."""


class MetricDomainError(MavlError):
    """Metric evaluated outside its domain (zero reference count, empty input)."""


class EmbeddingError(MavlError):
    """Degenerate (zero) embedding or dimension mismatch."""


class ProviderError(MavlError):
    """Base for failures raised by generation/embedding providers."""

    retryable = False


class ProviderAuthError(ProviderError):
    retryable = False


class ProviderRateLimitError(ProviderError):
    retryable = True


class TransientProviderError(ProviderError):
    """Server-side hiccup (5xx and friends); safe to retry."""

    retryable = True


class ProviderTimeoutError(ProviderError):
    retryable = True


class RetriesExhaustedError(ProviderError):
    """Retry cap reached without a successful call."""

    def __init__(self, message: str, attempts: int, last_error: Exception | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class PipelineError(MavlError):
    """No attempt of the refinement loop gave a countable final answer."""


class ConfigError(MavlError):
    """Invalid run configuration."""
