"""Exception types shared across the package."""


class QldpError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(QldpError, ValueError):
    """An argument violates a documented precondition (bad dims, range, etc.)."""


class OutOfRegimeError(QldpError):
    """Parameters fall outside the regime in which a bound is valid.

    The message names the violated condition; callers must not clamp.
    """


class DegenerateObservableError(QldpError):
    """Observable carries no signal (zero Pauli weight, or proportional to I)."""


class NoninvertibleError(QldpError):
    """Noise level makes the debiasing/inversion step singular (q = 1, p_hat = 1)."""


class InfeasibleError(QldpError):
    """No finite sample size exists for the requested privacy level (eps = delta = 0)."""


class ChannelParseError(InvalidInputError):
    """A channel or matrix file could not be parsed; the message names the file and line."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}: line {line}: {message}")
        self.path = path
        self.line = line
