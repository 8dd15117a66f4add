"""Exception hierarchy shared across the package.

Two families matter to callers: input/format problems (bad files, bad
records, out-of-vocabulary text) and numeric failures during training.
The CLI maps them to distinct exit codes; a worker process that died or
could not be started shares the numeric failures' code.
"""


class NeglinkError(Exception):
    """Base class for package errors."""


class FormatError(NeglinkError):
    """Malformed input: files, records, serialized artifacts."""


class KBFormatError(FormatError):
    pass


class MentionFormatError(FormatError):
    pass


class VocabError(FormatError):
    """Text contains a character the vocabulary does not cover."""


class TrieFormatError(FormatError):
    pass


class CheckpointFormatError(FormatError):
    pass


class ConfigError(FormatError, ValueError):
    """Bad run settings: an unknown or unparsable key, an out-of-range value, mismatched inputs.

    Also a ValueError, so library callers that catch ValueError from the range checks still do.
    """


class NumericError(NeglinkError):
    """Non-finite values where finite ones are required."""


class DivergenceError(NumericError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")

    def __reduce__(self):
        # Unpickling calls the class with these; the default would pass the message as `step`.
        return type(self), (self.step, str(self))


class WorkerError(NeglinkError):
    """A worker process could not be started, or ended without returning its results."""
