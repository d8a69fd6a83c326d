"""Exception types shared across the package, and the line reader behind
every text input format.

Each error class declares the label and exit code the CLI reports it with:

- 2, "input error": ParseError (with PrefixFreeViolation), DomainError,
  RangeError and InputError;
- 3, "precondition error": PreconditionError, CapacityError and
  ContractViolationError.
"""

from __future__ import annotations

from typing import Iterator


class CantorsimError(Exception):
    """Base class for all package errors.  The CLI prints `label: message`
    to stderr and exits with code."""

    code = 2
    label = "input error"


class ParseError(CantorsimError):
    """Malformed input text; carries the source name and line number."""

    def __init__(self, message: str, *, source: str = "<input>", line: int | None = None):
        self.message = message
        self.source = source
        self.line = line
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")


def records(text: str, sep: str | None = "\t") -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for every line that is neither blank nor
    a '#' comment.  Fields are split on sep before stripping, so a line that
    opens with a tab keeps its empty first field; with sep=None the stripped
    line is the one field."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, [line] if sep is None else [field.strip() for field in raw.split(sep)]


class PrefixFreeViolation(ParseError):
    """A machine code duplicates or is a prefix of another code."""


class DomainError(CantorsimError):
    """A value lies outside an operation's mathematical domain."""


class RangeError(CantorsimError):
    """A stage or depth request beyond the available horizon."""


class InputError(CantorsimError):
    """Structurally invalid input (non-monotone approximation, bad item kind, ...)."""


class PreconditionError(CantorsimError):
    """A construction's hypotheses do not hold for the given inputs."""

    code = 3
    label = "precondition error"


class CapacityError(CantorsimError):
    """A construction ran out of output slots before the horizon."""

    code = 3
    label = "precondition error"


class ContractViolationError(CantorsimError):
    """A caller-supplied listing or extensions iterator failed to honour its contract."""

    code = 3
    label = "precondition error"
