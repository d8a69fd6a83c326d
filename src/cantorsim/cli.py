"""Single-shot batch CLI.

`run` replays one construction over flat input files and emits a trace;
`check` runs a brute-force oracle suite at the given bounds.  All output is
deterministic: identical inputs give byte-identical bytes.

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

The `run` constructions, their flags and their builders are declared in
`runs`.  `check` passes `--cases`, `--depth` and `--len` on to the suite
parameters that `_CHECK_PARAM_MAP` names; a given flag the suite does not
take is an input error.

Exit codes: 0 success, 1 check failure, 2 input error, 3 precondition or
capacity error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .checks import run_suite
from .errors import (
    CapacityError,
    CantorsimError,
    ContractViolationError,
    DomainError,
    InputError,
    ParseError,
    PreconditionError,
    RangeError,
)
from .runs import add_run_command, build


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cantorsim")
    top = parser.add_subparsers(dest="command", required=True)
    add_run_command(top)

    check = top.add_parser("check", help="run a brute-force oracle suite")
    check.add_argument("suite")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--cases", type=int, default=None)
    check.add_argument("--depth", type=int, default=None)
    check.add_argument("--len", type=int, default=None, dest="length")
    check.add_argument("--out", default=None)
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


_CHECK_PARAM_MAP = {
    "dyadic": {"cases": "sets", "length": "max_len"},
    "coverings": {"cases": "random_sets", "depth": "depth"},
    "complexity": {"cases": "machines", "depth": "tree_depth"},
    "constructions": {"cases": "merge_cases"},
    "classes": {"cases": "capped_scripts", "depth": "diag_depth"},
}


def _dispatch_check(args: argparse.Namespace) -> tuple[int, list[str]]:
    kwargs: dict[str, int] = {"seed": args.seed}
    mapping = _CHECK_PARAM_MAP.get(args.suite)
    for flag, option in (("cases", "--cases"), ("depth", "--depth"), ("length", "--len")):
        value = getattr(args, flag)
        if value is None or mapping is None:
            continue
        if flag not in mapping:
            raise InputError(f"suite {args.suite} takes no {option}")
        kwargs[mapping[flag]] = value
    report = run_suite(args.suite, **kwargs)
    return (0 if report.ok else 1), report.lines()


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + ("\n" if lines else "")
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            _emit(build(args, _read).lines, args.out)
            return 0
        code, lines = _dispatch_check(args)
        _emit(lines, args.out)
        return code
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, InputError, RangeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, CapacityError, ContractViolationError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 3
    except CantorsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
