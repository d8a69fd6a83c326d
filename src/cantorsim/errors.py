"""Exception types shared across the package, and the line reader behind
every text input format.

Each class declares the exit code and label the CLI reports it with, and
each kind of input gets one class:

- `InputError` (2, "input error"): a value, stage, depth or request outside
  what the operation accepts;
- `ParseError`, an `InputError`: malformed input text, a machine's duplicate
  or prefix code included, named by its source and, where it has one, line;
- `PreconditionError` (3, "precondition error"): valid input on which a
  construction's hypotheses fail, its output slots run out, or a
  caller-supplied listing breaks its contract.
"""

from __future__ import annotations

from typing import Iterator


class CantorsimError(Exception):
    """Base class for all package errors.  The CLI prints `label: message`
    to stderr and exits with code."""

    code: int
    label: str


class InputError(CantorsimError):
    code = 2
    label = "input error"


class ParseError(InputError):
    """Carries the source name and line number."""

    def __init__(self, message: str, *, source: str = "<input>", line: int | None = None):
        self.message = message
        self.source = source
        self.line = line
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")


class PreconditionError(CantorsimError):
    code = 3
    label = "precondition error"


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
