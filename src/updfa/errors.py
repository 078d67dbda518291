"""Exception types shared by all updfa modules."""


class UpdfaError(Exception):
    """Base class for every error raised by this package."""


class BadStateId(UpdfaError):
    """A state id is outside [0, state_count)."""


class BadDigit(UpdfaError):
    """A digit is outside [0, base)."""


class BaseTooSmall(UpdfaError):
    """The numeration base is < 2."""


class PreconditionViolated(UpdfaError):
    """An operation was called on input that breaks its stated preconditions."""


class NotCoprime(UpdfaError):
    """gcd(base, p) != 1 where coprimality is required."""


class NotCanonical(UpdfaError):
    """A (period, remainders) pair admits a smaller period."""


class StateLimitExceeded(UpdfaError):
    """A worklist closure grew past its configured state limit."""


class FormatError(UpdfaError):
    """A text-format parse error; `line` is the 1-based input line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
