"""Single-shot batch CLI.

`run` replays one construction over flat input files and emits a trace; it
does not run the verifier its `runs.RUNS` entry binds.  `check` runs a
brute-force oracle suite, verifiers included, at the given bounds.  All
output is deterministic: identical inputs give byte-identical bytes.

A `run` loads only the package, `runs` and the modules its constructions
need, and from the standard library `argparse` (with `gettext`), `bisect`,
`enum`, `functools`, `itertools`, `math`, `operator`, `re`, `sys` and
`typing`; not `dataclasses`, since no value type generates its methods at
import, nor `fractions`, which only the checks read.  The check side,
`checks` with the `scenarios` it replays, the `draws` it takes its seeded
inputs from and the `verify` and `oracles` it calls, is imported by `main`
inside its `check` branch, so a `run` process never imports it.

`run regret` always starts with `# slots: N`, the number of slots bound, so a
run in which no member fails the constant prints `# slots: 0`.  Each slot then
gets a header, `# slot d: e=… n=… bound@…` with ` regret@… p=…` appended once
the slot is regretted, followed by its trace, one record per stage from 0 to
the horizon.

`run capped` always starts with `# indices: N`, the number of indices
replayed, so a script with no events prints `# indices: 0`.  Each index then
gets one `stage<TAB>index<TAB>admit|refuse<TAB>item` record per processed
event and a footer `# index e: measure … frozen …`, where frozen is the stage
of the first refusal or `never`.

The grammar, `run` and `check` with every flag, is declared once, in
`runs`: the `run` constructions, their flags and their builders in
`runs.RUNS`, `check`'s flags in `runs.CHECK_FLAGS`.  `runs.parse_command`
reads a plain command line, `run NAME` or `check SUITE` then declared flags
spelled out in full with plainly spelled values, straight from these
declarations; `runs.parser()` builds argparse's parser from them only for
help and for a command line the plain reader declines, once per process,
so every usage, help and error message is argparse's.

The `check` suites are declared in `checks.SUITES`, each with the suite
parameter that `--cases`, `--depth` and `--len` set; a given flag the suite
does not take is an input error.  The flags whose work grows exponentially
have a cap there, `check dyadic --len` 18, `check coverings --depth` 5 and
`check complexity --depth` 15, and so does `check classes --depth`, 250,
whose work grows about as its square.  A larger value is an input error
before any work, as is a `check classes --depth` under its minimum 2, the
least at which a diagonal suite can draw a tree count.  Every count, length,
depth, horizon, constant and index flag takes an integer ≥ 0; only `--seed`
may be negative.

Exit codes: 0 success, 1 check failure; each package error class declares
its own code and label in `errors`: 2 "input error" for an `InputError` or
its `ParseError`, 3 "precondition error" for a `PreconditionError`.  An
unreadable or unwritable file, or an input file that is not UTF-8 text, is
an input error.
"""

from __future__ import annotations

import sys
from typing import Sequence

from .errors import CantorsimError, ParseError
from .runs import build, parse_command


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", source=path) from None


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_command(argv)
    try:
        if args.command == "run":
            _emit(build(args, _read).lines, args.out)
            return 0
        from .checks import run_suite

        report = run_suite(
            args.suite, seed=args.seed, cases=args.cases, depth=args.depth, len=args.length
        )
        _emit(report.lines(), args.out)
        return 0 if report.ok else 1
    except CantorsimError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
