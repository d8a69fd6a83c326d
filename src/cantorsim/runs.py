"""The `run` constructions, each declared once, and the `cantorsim` grammar.

Every entry of RUNS pairs a construction's CLI flags with one builder.  A
builder takes the parsed flags and a `read(path) -> str` callable, replays
the construction, and returns a Replay: the library result, the stdout
lines, and the construction's safety check.  The CLI reads from disk; the
scenario library reads the fixture texts, so both run the same code.

`parser()` declares the whole command line, `run` from RUNS and `check`,
once; it is built on its first call, not at import, and at most once per
process.  `cli.main` and `replay` both parse with it.

The safety verifiers live next to their builders; `checks` exports them.
They read K_t, Ω_s and least failing lengths from the linear scans in
`oracles`, never from the machine's stage index that the constructions use,
and the k-bit expansions from `oracles.expansion_prefix`, never from the
constructions' own.
"""

from __future__ import annotations

import argparse
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .classes import Tree, diagonalize, graft_points, measure_capped_enumeration
from .complexity import PrefixMachine, omega_approx
from .constructions import (
    RegretSlot,
    StageTrace,
    TailValue,
    beta_max,
    friedberg_merge,
    hat_m_construction,
    odd_ones_real_enumeration,
    regret_construction,
    splice_random,
)
from .coverings import covering_antichains, parse_listing, star_construction
from .dyadic import ZERO, BitString, Order, lex_compare_padded, prefix_set_measure
from .errors import DomainError, InputError, ParseError, records
from .oracles import brute_k_approx, brute_least_failing_length, brute_omega_approx
from .oracles import expansion_prefix, padding_holds
from .recipes import merge_boundary_reals, merge_covering_classes
from .streams import EnumerationScript, LeftCEApprox, real_from_ce_set

__all__ = ["RUNS", "Replay", "Run", "build", "natural", "parser", "replay"]

Read = Callable[[str], str]


@dataclass(frozen=True)
class Replay:
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


def build(args: argparse.Namespace, read: Read) -> Replay:
    """Replay the construction that parsed `run` flags name, reading every
    input text through read."""
    return RUNS[args.construction].build(args, read)


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
        sub.add_argument("--out", default=None, help="output path (default: stdout)")
        for attr, options in spec.flags.items():
            sub.add_argument("--" + attr.replace("_", "-"), **options)
    check = commands.add_parser("check", help="run a brute-force oracle suite")
    check.add_argument("suite")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--cases", type=natural, default=None)
    check.add_argument("--depth", type=natural, default=None)
    check.add_argument("--len", type=natural, default=None, dest="length")
    check.add_argument("--out", default=None)
    return top


def replay(argv: Sequence[str], read: Read) -> Replay:
    """Parse a `run` command line, such as a scenario's argv, and build it;
    any other command line is an input error."""
    args = parser().parse_args(argv)
    if args.command != "run":
        raise InputError(f"replay takes a run command line, not {args.command}")
    return build(args, read)


def _script(read: Read, path: str, horizon: int) -> EnumerationScript:
    return EnumerationScript.parse(read(path), horizon=horizon, source=path)


def _machine(read: Read, path: str, c_tilde: int = 0) -> PrefixMachine:
    return PrefixMachine.parse(read(path), c_tilde=c_tilde, source=path)


def _script_lines(script: EnumerationScript) -> list[str]:
    return script.render().splitlines()


@_run("splice", script=_PATH, machine=_PATH, c=_NATURAL, horizon=_NATURAL, index=_NATURAL_0)
def _splice(a: argparse.Namespace, read: Read) -> Replay:
    script = _script(read, a.script, a.horizon)
    machine = _machine(read, a.machine)
    r = real_from_ce_set(script, a.index)
    trace = splice_random(r, machine, a.c, a.horizon)
    return Replay(trace, trace.render_lines(), lambda: verify_splice(trace, r, machine, a.c))


def _runs_of(trace: StageTrace, state: str) -> list[tuple[int, int]]:
    """(first, last) stage of every maximal run of records in the state."""
    runs = []
    for ours, group in itertools.groupby(trace.records, key=lambda rec: rec.state == state):
        if ours:
            stages = [rec.stage for rec in group]
            runs.append((stages[0], stages[-1]))
    return runs


def _stage_mass(v: object, machine: PrefixMachine, t: int) -> bool:
    """Whether v is a prefix followed by Ω at stage t, as the oracle's scan
    reads it."""
    return (
        isinstance(v, TailValue) and v.omega_stage == t and v.omega == brute_omega_approx(machine, t)
    )


def _run_errors(
    m: LeftCEApprox, machine: PrefixMachine, c: int, trigger: int, n: int, release: int | None
) -> list[str]:
    """What the scans find wrong with a run of m failing the constant: n must
    be the least failing length at the trigger stage, and the length-n
    expansion must satisfy the constant at the release stage."""
    errs = []
    if n != brute_least_failing_length(machine, m.value(trigger), c, trigger):
        errs.append(f"stage {trigger}: witness length {n} is not the least failing length")
    if release is not None:
        if brute_k_approx(machine, expansion_prefix(m.value(release), n), release) < n - c:
            errs.append(f"stage {release}: released while the length-{n} prefix fails")
    return errs


def verify_splice(
    trace: StageTrace, r: LeftCEApprox, machine: PrefixMachine, c: int
) -> list[str]:
    errs = []
    if not trace.is_monotone():
        errs.append("trace not monotone")
    for rec in trace.records:
        t = rec.stage
        if rec.state == "empty":
            if not r.empty_at(t) or rec.value.real() != ZERO:
                errs.append(f"stage {t}: bad empty record")
        elif rec.state == "tracking":
            if rec.value.real() != r.value(t):
                errs.append(f"stage {t}: tracking value differs from the input")
        elif rec.state == "spliced":
            if not _stage_mass(rec.value, machine, t):
                errs.append(f"stage {t}: spliced tail is not the stage mass")
        else:
            errs.append(f"stage {t}: unknown state {rec.state}")
    inside: set[int] = set()  # the stages of the runs that the notes open
    for head in trace.records:
        if "trigger n=" not in head.note:
            continue
        trigger, n = head.stage, int(head.note.rpartition("n=")[2])
        release = next(
            (rec.stage for rec in trace.records[trigger + 1 :] if rec.state != "spliced"), None
        )
        run = range(trigger + 1, trace.horizon + 1 if release is None else release)
        inside.update(run)
        if run:
            witness = trace.records[run[0]].value.prefix  # type: ignore[union-attr]
            if witness != expansion_prefix(r.value(trigger), n):
                errs.append(f"stage {trigger}: witness {witness} is not the input's expansion")
            for s in run:
                if trace.records[s].value.prefix != witness:  # type: ignore[union-attr]
                    errs.append(f"stage {s}: witness changed mid-run")
        errs.extend(_run_errors(r, machine, c, trigger, n, release))
    for rec in trace.records:
        if rec.state == "spliced" and rec.stage not in inside:
            errs.append(f"stage {rec.stage}: spliced outside a run")
    return errs


@_run("hatm", script=_PATH, machine=_PATH, k=_NATURAL, horizon=_NATURAL, index=_NATURAL_0,
      mirror=_SWITCH)
def _hatm(a: argparse.Namespace, read: Read) -> Replay:
    script = _script(read, a.script, a.horizon)
    machine = _machine(read, a.machine)
    m = real_from_ce_set(script, a.index)
    trace = hat_m_construction(m, machine, a.k, a.horizon, mirror=a.mirror)
    return Replay(
        trace, trace.render_lines(), lambda: verify_hatm(trace, m, machine, a.k, a.mirror)
    )


def verify_hatm(
    trace: StageTrace,
    m: LeftCEApprox,
    machine: PrefixMachine,
    k: int,
    mirror: bool,
) -> list[str]:
    errs = []
    if not trace.is_monotone():
        errs.append("trace not monotone")
    degenerate = ("1" if mirror else "0") * k
    want = Order.GT if mirror else Order.LT
    for rec in trace.records:
        t = rec.stage
        boundary = expansion_prefix(brute_omega_approx(machine, t), k)
        if isinstance(rec.value, TailValue) and not _stage_mass(rec.value, machine, t):
            errs.append(f"stage {t}: {rec.state} tail is not the stage mass")
        if rec.state == "parked":
            if boundary.bits != degenerate:
                errs.append(f"stage {t}: parked although the boundary prefix moved")
            v = rec.value
            if not isinstance(v, TailValue) or v.prefix.bits != ("1" if mirror else "0"):
                errs.append(f"stage {t}: parked value malformed")
        elif rec.state == "tracking":
            cur = expansion_prefix(m.value(t), k)
            if lex_compare_padded(cur, boundary) is not want:
                errs.append(f"stage {t}: tracking on the wrong side of the boundary")
            if rec.value.real() != m.value(t):
                errs.append(f"stage {t}: tracking value differs from the input")
        elif rec.state == "undesirable":
            v = rec.value
            if not isinstance(v, TailValue) or len(v.prefix) != k:
                errs.append(f"stage {t}: fix prefix has wrong length")
            elif not mirror and lex_compare_padded(v.prefix, boundary) is not Order.LT:
                errs.append(f"stage {t}: fix prefix not strictly below the boundary")
        else:
            errs.append(f"stage {t}: unknown state {rec.state}")
    if mirror:
        # The fix prefix cannot be required to lie strictly above the boundary:
        # Ω_s only rises, and so does its k-prefix, so a prefix above the
        # boundary can fall below it later, and the violation that starts an
        # undesirable run is often exactly that.  What holds is that the fix is
        # the input's k-prefix at the stage before the run; when that stage was
        # tracking, the check above placed it strictly above that boundary.
        for start, _ in _runs_of(trace, "undesirable"):
            if start == 0 or trace.records[start - 1].state != "tracking":
                continue
            v = trace.records[start].value
            if not isinstance(v, TailValue) or v.prefix != expansion_prefix(m.value(start - 1), k):
                errs.append(f"stage {start}: fix prefix is not the previous input prefix")
    return errs


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
    return Replay(slots, lines, lambda: verify_regret(slots, script, machine, a.c))


def verify_regret(
    slots: Sequence[RegretSlot],
    family: EnumerationScript,
    machine: PrefixMachine,
    c: int,
) -> list[str]:
    errs = []
    approxes = {e: real_from_ce_set(family, e) for e in family.indices()}
    for i, slot in enumerate(slots):
        m = approxes[slot.source_index]
        if not slot.trace.is_monotone():
            errs.append(f"slot {i}: trace not monotone")
        for rec in slot.trace.records:
            t = rec.stage
            if isinstance(rec.value, TailValue) and not _stage_mass(rec.value, machine, t):
                errs.append(f"slot {i} stage {t}: {rec.state} tail is not the stage mass")
            if rec.state == "unbound":
                if rec.value.real() != ZERO:
                    errs.append(f"slot {i} stage {t}: unbound value not 0")
            elif rec.state == "tracking":
                if rec.value.real() != m.value(t):
                    errs.append(f"slot {i} stage {t}: tracking value differs from the member")
            elif rec.state == "regretted":
                assert slot.padding is not None
                v = rec.value
                expected = expansion_prefix(m.value(t), slot.witness_length).bits
                expected += "0" * slot.padding
                if not isinstance(v, TailValue) or v.prefix.bits != expected:
                    errs.append(f"slot {i} stage {t}: regretted prefix malformed")
            else:
                errs.append(f"slot {i} stage {t}: unknown state {rec.state}")
        run = _run_errors(m, machine, c, slot.bound_stage, slot.witness_length, slot.regret_stage)
        errs.extend(f"slot {i} {e}" for e in run)
        if slot.regret_stage is not None:
            p = slot.padding or 0
            target = slot.witness_length + c + machine.c_tilde
            if not padding_holds(p, target):
                errs.append(f"slot {i}: padding {p} misses the target {target}")
            if any(padding_holds(q, target) for q in range(1, p)):
                errs.append(f"slot {i}: padding {p} not minimal for target {target}")
    return errs


@_run("beta", script=_PATH, horizon=_NATURAL)
def _beta(a: argparse.Namespace, read: Read) -> Replay:
    script = _script(read, a.script, a.horizon)
    family = [real_from_ce_set(script, e) for e in script.indices()]
    trace = beta_max(family, a.horizon)
    return Replay(
        trace,
        trace.render_lines(),
        lambda: [] if trace.is_monotone() else ["beta trace not monotone"],
    )


@_run("star", listing=_PATH, horizon=_NATURAL)
def _star(a: argparse.Namespace, read: Read) -> Replay:
    snaps = star_construction(parse_listing(read(a.listing), source=a.listing), a.horizon)
    return Replay(
        snaps,
        [f"{s.stage}\t{'yes' if s.good else 'no'}\t{s.case}\t{s.family.render()}" for s in snaps],
    )


@_run("capped", script=_PATH, cap_n=_NATURAL, horizon=_NATURAL)
def _capped(a: argparse.Namespace, read: Read) -> Replay:
    replays = measure_capped_enumeration(_script(read, a.script, a.horizon), a.cap_n, a.horizon)
    lines = [f"# indices: {len(replays)}"]
    for e in sorted(replays):
        capped = replays[e]
        for stage, item, admitted in capped.log:
            verdict = "admit" if admitted else "refuse"
            lines.append(f"{stage}\t{e}\t{verdict}\t{item.display()}")
        frozen = "never" if capped.frozen_at is None else str(capped.frozen_at)
        lines.append(
            f"# index {e}: measure {prefix_set_measure(capped.final()).render()}"
            f" frozen {frozen}"
        )
    return Replay(replays, lines)


@_run(
    "diagonalize",
    tree={"action": "append", "required": True, "help": "repeat per tree"},
    depth=_NATURAL,
)
def _diagonalize(a: argparse.Namespace, read: Read) -> Replay:
    trees = [Tree.parse(read(path), depth=a.depth, source=path) for path in a.tree]
    taus = graft_points(trees, a.depth)
    combined = diagonalize(trees, a.depth)
    lines = [f"# tau_{n} = {tau.display()}" for n, tau in enumerate(taus)]
    lines.extend(combined.render().splitlines())
    return Replay(combined, lines)


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
    sets: list[frozenset[BitString]] = []
    for lineno, (line,) in records(read(a.l1_sets), sep=None):
        try:
            sets.append(frozenset(BitString.parse(tok) for tok in line.split()))
        except DomainError as exc:
            raise ParseError(str(exc), source=a.l1_sets, line=lineno)
    out = friedberg_merge(sets, l2, lambda content: (v for v in sets if content <= v), a.horizon)
    return Replay(out, _script_lines(out))


@_run(
    "friedberg-reals", script=_PATH, machine=_PATH, k=_NATURAL, len=_LEN, horizon=_NATURAL,
    mirror=_SWITCH,
)
def _friedberg_reals(a: argparse.Namespace, read: Read) -> Replay:
    script = _script(read, a.script, a.horizon)
    machine = _machine(read, a.machine)
    out = merge_boundary_reals(script, machine, a.k, a.length, a.horizon, mirror=a.mirror)
    return Replay(out, _script_lines(out))


@_run(
    "friedberg-classes",
    listing={"action": "append", "required": True},
    len=_LEN,
    horizon=_NATURAL,
    no_acceptable_stream=_SWITCH,
)
def _friedberg_classes(a: argparse.Namespace, read: Read) -> Replay:
    listings = [parse_listing(read(path), source=path) for path in a.listing]
    out = merge_covering_classes(
        listings,
        a.length,
        a.horizon,
        with_acceptable_stream=not a.no_acceptable_stream,
    )
    return Replay(out, _script_lines(out))


@_run("omega", machine=_PATH, horizon=_NATURAL)
def _omega(a: argparse.Namespace, read: Read) -> Replay:
    machine = _machine(read, a.machine)
    values = [omega_approx(machine, s) for s in range(a.horizon + 1)]
    return Replay(values, [f"{s}\t{v.render()}" for s, v in enumerate(values)])


@_run("oddones", count=_NATURAL)
def _oddones(a: argparse.Namespace, read: Read) -> Replay:
    strings = [odd_ones_real_enumeration(i) for i in range(a.count)]
    return Replay(strings, [f"{i}\t{s}" for i, s in enumerate(strings)])


@_run("coverfamily", count=_NATURAL, parity={"choices": ("odd", "even"), "default": "odd"})
def _coverfamily(a: argparse.Namespace, read: Read) -> Replay:
    families = list(itertools.islice(covering_antichains(a.parity == "odd"), a.count))
    return Replay(families, [f"{i}\t{f.render()}" for i, f in enumerate(families)])
