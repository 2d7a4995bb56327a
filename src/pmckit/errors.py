"""Exception types shared across the package."""

from __future__ import annotations


class InputError(ValueError):
    """Caller passed something outside an operation's contract."""


class GrParseError(InputError):
    """Malformed .gr text; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapExceeded(RuntimeError):
    """An exhaustive routine was asked to run above its configured size cap."""
