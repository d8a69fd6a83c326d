"""The `run` constructions, each declared once, and the `cantorsim` grammar.

Every entry of RUNS pairs a construction's CLI flags with one builder.  A
builder takes the parsed flags and a `read(path) -> str` callable, replays
the construction, and returns a Replay: the library result, the stdout
lines, and the construction's safety check.  The CLI reads from disk; the
scenario library reads the fixture texts, so both run the same code.

The grammar is declared once: `run`'s flags in RUNS, `check`'s in
CHECK_FLAGS.  `parse_command`, which `cli.main` and `replay` both call,
reads a plain command line (`run NAME` or `check SUITE`, then declared
flags spelled out in full, each value plainly spelled) straight from these
declarations.  `parser()` builds argparse's parser from the same
declarations, only for help and for a command line the plain reader
declines; it is built on its first call, not at import, and at most once
per process, so every usage, help and error byte comes from argparse.

`Replay.result` is the construction's library value: a trace, the slots,
the snapshots, the replays, a tree, or a list of values.  A trace record,
(state, value), and a star snapshot, (case, family), hold only what the
construction decided at a stage; the stage is the index, which the printed
lines number from 0, and a tail's value is its prefix σ, printed at stage s
as ``σ*Ω@s``.  `diagonalize` copies the base tree above the graft
targets that the builder computed once and prints.  For merge,
friedberg-reals and friedberg-classes it is the merge's row blocks,
(stage, slot, keys) in emission order with each output word as its integer
key (`dyadic.word_key`); `streams.key_row_lines` prints them, one line per
key, as the lines of their script without building it.  `merge` reads its
listed sets and its script's words as keys too, and hands any other script
item on, so that the merge rejects it at its stage.

The safety checks are the verifiers in `verify`, which read the scans of
`oracles` and no construction; a builder only binds its inputs to one.
`runs` does not import `verify` at module level: a bound check imports it,
and with it `oracles`, when it is first called, so a `run`, which calls no
check, loads neither.
Three entries bind none yet, so their check finds nothing: a Friedberg check
of a merge needs its scripted side and a mark on the injective side's sets,
but the recipes friedberg-reals and friedberg-classes build their scripted
side internally, and the sets of a `merge` input carry no such mark.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .classes import Tree, diagonalize, graft_points, measure_capped_enumeration
from .complexity import PrefixMachine, omega_approx
from .constructions import (
    beta_max, hat_m_construction, merge_rows, odd_ones_real_enumeration, regret_construction,
    splice_random,
)
from .coverings import covering_antichains, parse_listing, star_construction
from .dyadic import parse_words, prefix_set_measure, word_key
from .errors import InputError
from .recipes import merge_boundary_reals, merge_covering_classes
from .streams import EnumerationScript, event_blocks, key_row_lines, real_from_ce_set

__all__ = [
    "CHECK_FLAGS", "RUNS", "Replay", "Run", "build", "natural", "parse_command", "parser", "replay",
]

Read = Callable[[str], str]


class Replay(NamedTuple):
    """One replayed run: the library result, its stdout lines, and a safety
    check that returns the violations it finds (none for a safe run)."""

    result: object
    lines: list[str]
    check: Callable[[], list[str]] = list  # no check: list() is []


class Run(NamedTuple):
    flags: dict[str, dict]  # argparse options by attribute name; --c-tilde is c_tilde
    build: Callable[[argparse.Namespace, Read], Replay]


RUNS: dict[str, Run] = {}


def _run(name: str, **flags: dict):
    """Register the decorated builder under the construction name; the
    registration order is the order of the CLI subcommands."""

    def register(builder: Callable[[argparse.Namespace, Read], Replay]):
        RUNS[name] = Run(flags, builder)
        return builder

    return register


def natural(text: str) -> int:
    """argparse type of every integer flag but the seed (counts, lengths,
    horizons, constants, indices): an integer ≥ 0.  A non-integer gets
    argparse's own `invalid int value` message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be ≥ 0, got {value}")
    return value


_PATH = {"required": True}
_NATURAL = {"type": natural, "required": True}
_NATURAL_0 = {"type": natural, "default": 0}
_LEN = {"type": natural, "required": True, "dest": "length"}
_SWITCH = {"action": "store_true"}
_OUT = {"default": None, "help": "output path (default: stdout)"}  # run's and check's --out

CHECK_FLAGS: dict[str, dict] = {
    "seed": {"type": int, "default": 0},
    "cases": {"type": natural, "default": None},
    "depth": {"type": natural, "default": None},
    "len": {"type": natural, "default": None, "dest": "length"},
    "out": _OUT,
}


def _verify():
    """The `verify` module, imported on the first check a Replay runs."""
    from . import verify

    return verify


def build(args: argparse.Namespace, read: Read) -> Replay:
    """Replay the construction that parsed `run` flags name, reading every
    input text through read."""
    return RUNS[args.construction].build(args, read)


def _option_strings(flags: dict[str, dict]) -> dict[str, str]:
    """Each flag's name by its option string: `--` and the name with `-`
    for `_`."""
    return {"--" + attr.replace("_", "-"): attr for attr in flags}


@lru_cache(maxsize=None)
def parser() -> argparse.ArgumentParser:
    """The whole `cantorsim` command line: `run`, with one subcommand per
    RUNS entry in registration order, and `check`.  Built on the first call
    and then shared by every parse in the process."""
    top = argparse.ArgumentParser(prog="cantorsim")
    commands = top.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="replay one construction over input files")
    constructions = run.add_subparsers(dest="construction", required=True)
    for name, spec in RUNS.items():
        sub = constructions.add_parser(name)
        flags = {"out": _OUT, **spec.flags}
        for option, attr in _option_strings(flags).items():
            sub.add_argument(option, **flags[attr])
    check = commands.add_parser("check", help="run a brute-force oracle suite")
    check.add_argument("suite")
    for option, attr in _option_strings(CHECK_FLAGS).items():
        check.add_argument(option, **CHECK_FLAGS[attr])
    return top


def _plain(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a plain command line, read from the
    declarations; None for any other.  Plain: `run NAME` with NAME in RUNS,
    or `check SUITE` with SUITE not starting with `-`, then declared option
    strings in full, a switch alone and any other flag with one value not
    starting with `-`; an integer value in ASCII digits, a choice among its
    choices, no flag but an `append` one twice, and every required flag."""
    if len(argv) < 2:
        return None
    command, name = argv[0], argv[1]
    if command == "run" and name in RUNS:
        flags, names = {"out": _OUT, **RUNS[name].flags}, {"construction": name}
    elif command == "check" and not name.startswith("-"):
        flags, names = CHECK_FLAGS, {"suite": name}
    else:
        return None
    attrs = _option_strings(flags)
    given: dict[str, object] = {}
    tokens = iter(argv[2:])
    for token in tokens:
        if token not in attrs:
            return None
        attr = attrs[token]
        options = flags[attr]
        dest, action, kind = options.get("dest", attr), options.get("action"), options.get("type")
        if action == "store_true":
            value = True
        else:
            value = next(tokens, "-")  # a missing value is declined as one starting with -
            if value.startswith("-"):
                return None
            if kind is int or kind is natural:
                if not (value.isascii() and value.isdigit()):
                    return None
                value = int(value)
            elif kind is not None:  # a type no flag declares yet: argparse reads it
                return None
            if value not in options.get("choices", (value,)):
                return None
        if action == "append":
            given.setdefault(dest, []).append(value)
        elif dest in given:
            return None
        else:
            given[dest] = value
    for attr, options in flags.items():  # argparse's default for a flag not given
        dest = options.get("dest", attr)
        if dest in given:
            continue
        if options.get("required"):
            return None
        switch = options.get("action") == "store_true"
        given[dest] = options.get("default", False if switch else None)
    return argparse.Namespace(command=command, **names, **given)


def parse_command(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """Parse a `cantorsim` command line (None: `sys.argv[1:]`): a plain one
    straight from the declarations, any other with `parser()`, which prints
    argparse's help or error and exits as argparse does."""
    argv = sys.argv[1:] if argv is None else argv
    args = _plain(argv)
    return parser().parse_args(argv) if args is None else args


def replay(argv: Sequence[str], read: Read) -> Replay:
    """Parse a `run` command line, such as a scenario's argv, and build it;
    any other command line is an input error."""
    args = parse_command(argv)
    if args.command != "run":
        raise InputError(f"replay takes a run command line, not {args.command}")
    return build(args, read)


def _script(read: Read, path: str, horizon: int) -> EnumerationScript:
    return EnumerationScript.parse(read(path), horizon=horizon, source=path)


def _machine(read: Read, path: str, c_tilde: int = 0) -> PrefixMachine:
    return PrefixMachine.parse(read(path), c_tilde=c_tilde, source=path)


@_run("splice", script=_PATH, machine=_PATH, c=_NATURAL, horizon=_NATURAL, index=_NATURAL_0)
def _splice(a: argparse.Namespace, read: Read) -> Replay:
    script = _script(read, a.script, a.horizon)
    machine = _machine(read, a.machine)
    r = real_from_ce_set(script, a.index)
    trace = splice_random(r, machine, a.c, a.horizon)
    return Replay(
        trace, trace.render_lines(), lambda: _verify().verify_splice(trace, r, machine, a.c)
    )


@_run("hatm", script=_PATH, machine=_PATH, k=_NATURAL, horizon=_NATURAL, index=_NATURAL_0,
      mirror=_SWITCH)
def _hatm(a: argparse.Namespace, read: Read) -> Replay:
    script = _script(read, a.script, a.horizon)
    machine = _machine(read, a.machine)
    m = real_from_ce_set(script, a.index)
    trace = hat_m_construction(m, machine, a.k, a.horizon, mirror=a.mirror)
    return Replay(
        trace,
        trace.render_lines(),
        lambda: _verify().verify_hatm(trace, m, machine, a.k, a.mirror),
    )


@_run(
    "regret",
    script=_PATH,
    machine=_PATH,
    c=_NATURAL,
    horizon=_NATURAL,
    c_tilde=_NATURAL_0,
    max_slots={"type": natural, "default": None},
)
def _regret(a: argparse.Namespace, read: Read) -> Replay:
    script = _script(read, a.script, a.horizon)
    machine = _machine(read, a.machine, c_tilde=a.c_tilde)
    slots = regret_construction(script, machine, a.c, a.horizon, max_slots=a.max_slots)
    lines = [f"# slots: {len(slots)}"]
    for d, slot in enumerate(slots):
        lines.append(
            f"# slot {d}: e={slot.source_index} n={slot.witness_length}"
            f" bound@{slot.bound_stage}"
            + (f" regret@{slot.regret_stage} p={slot.padding}" if slot.regret_stage is not None else "")
        )
        lines.extend(slot.trace.render_lines())
    return Replay(slots, lines, lambda: _verify().verify_regret(slots, script, machine, a.c))


@_run("beta", script=_PATH, horizon=_NATURAL)
def _beta(a: argparse.Namespace, read: Read) -> Replay:
    script = _script(read, a.script, a.horizon)
    family = [real_from_ce_set(script, e) for e in script.indices()]
    trace = beta_max(family, a.horizon)
    return Replay(trace, trace.render_lines(), lambda: _verify().verify_beta(trace, family))


@_run("star", listing=_PATH, horizon=_NATURAL)
def _star(a: argparse.Namespace, read: Read) -> Replay:
    listing = parse_listing(read(a.listing), source=a.listing)
    snaps = star_construction(listing, a.horizon)
    return Replay(
        snaps,
        [f"{t}\t{'yes' if s.good else 'no'}\t{s.case}\t{s.family.render()}"
         for t, s in enumerate(snaps)],
        lambda: _verify().verify_star(listing, snaps),
    )


@_run("capped", script=_PATH, cap_n=_NATURAL, horizon=_NATURAL)
def _capped(a: argparse.Namespace, read: Read) -> Replay:
    script = _script(read, a.script, a.horizon)
    replays = measure_capped_enumeration(script, a.cap_n, a.horizon)
    lines = [f"# indices: {len(replays)}"]
    for e in sorted(replays):
        capped = replays[e]
        for stage, item, admitted in capped.log:
            verdict = "admit" if admitted else "refuse"
            lines.append(f"{stage}\t{e}\t{verdict}\t{item or '-'}")
        frozen = "never" if capped.frozen_at is None else str(capped.frozen_at)
        lines.append(
            f"# index {e}: measure {prefix_set_measure(capped.final()).render()}"
            f" frozen {frozen}"
        )
    return Replay(replays, lines, lambda: _verify().verify_capped(script, a.cap_n, replays))


@_run(
    "diagonalize",
    tree={"action": "append", "required": True, "help": "repeat per tree"},
    depth=_NATURAL,
)
def _diagonalize(a: argparse.Namespace, read: Read) -> Replay:
    trees = [Tree.parse(read(path), depth=a.depth, source=path) for path in a.tree]
    taus = graft_points(trees, a.depth)
    combined = diagonalize(trees[0], taus)
    lines = [f"# tau_{n} = {tau or '-'}" for n, tau in enumerate(taus)]
    lines.extend(combined.render().splitlines())
    return Replay(
        combined, lines, lambda: _verify().verify_diagonalize(trees, a.depth, taus, combined)
    )


@_run(
    "merge",
    l2=_PATH,
    l1_sets={"required": True, "help": "file with one string set per line"},
    horizon=_NATURAL,
)
def _merge(a: argparse.Namespace, read: Read) -> Replay:
    """--l1-sets holds one set per line as whitespace-separated strings.  The
    listed sets, in file order, are both the merge's listing and, filtered to
    those that contain a diverted follower's content, its extensions."""
    l2 = _script(read, a.l2, a.horizon)
    sets = [frozenset(map(word_key, words))
            for words in parse_words(read(a.l1_sets), a.l1_sets, several=True)]
    blocks = event_blocks(l2.events)
    rows = merge_rows(sets, blocks, lambda content: (v for v in sets if content <= v), a.horizon)
    return Replay(rows, key_row_lines(rows))


@_run(
    "friedberg-reals", script=_PATH, machine=_PATH, k=_NATURAL, len=_LEN, horizon=_NATURAL,
    mirror=_SWITCH,
)
def _friedberg_reals(a: argparse.Namespace, read: Read) -> Replay:
    script = _script(read, a.script, a.horizon)
    machine = _machine(read, a.machine)
    rows = merge_boundary_reals(script, machine, a.k, a.length, a.horizon, mirror=a.mirror)
    return Replay(rows, key_row_lines(rows))


@_run(
    "friedberg-classes",
    listing={"action": "append", "required": True},
    len=_LEN,
    horizon=_NATURAL,
    no_acceptable_stream=_SWITCH,
)
def _friedberg_classes(a: argparse.Namespace, read: Read) -> Replay:
    listings = [parse_listing(read(path), source=path) for path in a.listing]
    rows = merge_covering_classes(
        listings,
        a.length,
        a.horizon,
        with_acceptable_stream=not a.no_acceptable_stream,
    )
    return Replay(rows, key_row_lines(rows))


@_run("omega", machine=_PATH, horizon=_NATURAL)
def _omega(a: argparse.Namespace, read: Read) -> Replay:
    machine = _machine(read, a.machine)
    values = [omega_approx(machine, s) for s in range(a.horizon + 1)]
    lines = [f"{s}\t{v.render()}" for s, v in enumerate(values)]
    return Replay(values, lines, lambda: _verify().verify_omega(machine, values))


@_run("oddones", count=_NATURAL)
def _oddones(a: argparse.Namespace, read: Read) -> Replay:
    strings = [odd_ones_real_enumeration(i) for i in range(a.count)]
    lines = [f"{i}\t{s}" for i, s in enumerate(strings)]
    return Replay(strings, lines, lambda: _verify().verify_oddones(strings))


@_run("coverfamily", count=_NATURAL, parity={"choices": ("odd", "even"), "default": "odd"})
def _coverfamily(a: argparse.Namespace, read: Read) -> Replay:
    families = list(itertools.islice(covering_antichains(a.parity == "odd"), a.count))
    lines = [f"{i}\t{f.render()}" for i, f in enumerate(families)]
    return Replay(
        families, lines, lambda: _verify().verify_coverfamily(families, a.parity == "odd")
    )
