"""Finite prefix-free machine tables.

A machine is a finite set of (code, output, halt stage) programs whose
codes are prefix-free and respect the unit mass budget.  It induces the
nonincreasing complexity approximation K_t, the nondecreasing halting-mass
approximation Ω_s, the randomness-constant predicate, and the depth-bounded
class of strings all of whose prefixes satisfy a constant.

The Ω steps are integer sums: each code adds 2^(E−|code|) over the longest
code length E, and one dyadic num/2^E is built per distinct halt stage.  The
Kraft sum Σ 2^-|code| is the last of them, Ω once every program has halted.

Every stage query reads a per-machine index, built on first use and cached on
the machine, so parsing a machine does no extra work.  The index holds the
sorted distinct halt stages with Ω at each of them as exact prefix sums, and,
per output word, the stages at which its shortest halted code length drops
with the running minimum, from one sort of the (stage, length, output)
tuples.  Ω_s and K_t(σ) are then one bisect each.  `failing_stages` reads
the index for one real x: the length-n prefix of x's expansion does not
depend on the stage and K_t never increases, so each length fails the
constant from one first stage on.  It looks up only the output lengths, and
so expands x only to the longest output: no longer string is output by any
program, so its K_t is infinite at every stage and it satisfies every
constant.  `least_failing_length` is its first length failing by stage t,
and the splice and regret runs read it once per value of the real.  The
linear scans `brute_k_approx`, `brute_omega_approx`,
`brute_halted_complexities`, `brute_least_failing_length` and
`brute_failing_runs` in `oracles` are the reference these are checked
against.

Parsing reads a plain table in one pass: every line is empty, a '#' comment
or three bare fields (a 0/1 code, a 0/1 or '-' output, ASCII digits).  One
regular-expression scan finds and checks the rows, and `map`/`zip` over its
columns build the programs, with no Python code run per row (a table with
comments has its lines read once more, to count them).  A table with
any other line (padded fields, ε, '+3', non-ASCII digits, CRLF line ends,
...) is read again from the start by the line reader `errors.records`, which
gives every ParseError its message and line number.

The constructor checks every word in one joined string: it is ASCII, and
deleting the 0s and 1s from its bytes leaves nothing.  Only on a failure are
the words scanned one by one, to name the first bad one.  A negative halt
stage is found by `min` in the same way.

The prefix check sorts the codes.  If a code a is a prefix of another code c,
it is a prefix of its sorted successor b: a < b ≤ c, and a first difference
between a and b would put b after c.  So comparing sorted neighbours finds
whether any code repeats or extends another, and only on a hit does the loop
in table order run, to name the first offending pair in table order.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from functools import cached_property
from itertools import repeat
from typing import Iterator, NamedTuple

from .classes import Tree, tree_of_complement
from .dyadic import ZERO, BitString, Dyadic, _Value
from .errors import InputError, ParseError, records
from .streams import approx_string

INFINITE: float = math.inf

_PLAIN_ROW = re.compile(r"^([01]*)\t(?:([01]*)|-)\t([0-9]+)$", re.MULTILINE)

__all__ = [
    "INFINITE",
    "PrefixMachine",
    "Program",
    "compute_padding",
    "intersect_randomness",
    "k_approx",
    "least_failing_length",
    "omega_approx",
    "randomness_class_tree",
    "satisfies_constant",
]


class Program(NamedTuple):
    """One program of a machine table: a 0/1 code, its 0/1 output and its
    halt stage.  A named tuple of plain words, so it equals the plain tuple
    (code, output, halt_stage); the machine checks that the words are 0/1."""

    code: str
    output: str
    halt_stage: int


class PrefixMachine(_Value):
    """A finite prefix-free program table with one configuration constant,
    c_tilde, used by padding computations (default 0)."""

    __slots__ = ("programs", "c_tilde", "__dict__")
    programs: tuple[Program, ...]
    c_tilde: int

    def __init__(self, programs: tuple[Program, ...] = (), c_tilde: int = 0) -> None:
        if c_tilde < 0:
            raise InputError("machine constants must be ≥ 0")
        self._store(programs, c_tilde)
        codes, outputs, halts = self._words
        if not _is_word("".join(codes + outputs)):
            bad = next(w for w in codes + outputs if not _is_word(w))
            raise InputError(f"not a 0/1 word: {bad!r}")
        ordered = sorted(codes)
        # a code that another code extends or repeats is a prefix of its sorted successor
        if any(map(str.startswith, ordered[1:], ordered)):
            _name_prefix_violation(codes)
        if min(halts, default=0) < 0:
            code = next(b for b, s in zip(codes, halts) if s < 0)
            raise InputError(f"negative halt stage for code {code or 'ε'}")

    @property
    def kraft_sum(self) -> Dyadic:
        """Σ 2^-|code|: Ω once every program has halted, the last Ω step.
        Prefix-free codes satisfy Kraft's inequality, so it is at most 1."""
        omegas = self._omega_steps[1]
        return omegas[-1] if omegas else ZERO

    @property
    def strict_kraft(self) -> bool:
        return self.kraft_sum < Dyadic(1, 0)

    def max_halt_stage(self) -> int:
        return max((p.halt_stage for p in self.programs), default=0)

    @classmethod
    def parse(
        cls, text: str, c_tilde: int = 0, source: str = "<machine>"
    ) -> "PrefixMachine":
        """One program per line: code<TAB>output<TAB>halt_stage; '#' comments.
        A negative halt stage names its line; a duplicate or prefix code
        names the source."""
        programs = _plain_programs(text)
        if programs is None:
            programs = _programs(text, source)
        try:
            return cls(programs, c_tilde=c_tilde)
        except ParseError as exc:
            raise ParseError(exc.message, source=source) from None

    @classmethod
    def load(cls, path: str, c_tilde: int = 0) -> "PrefixMachine":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read(), c_tilde=c_tilde, source=path)

    @cached_property
    def _words(self) -> tuple[tuple[str, ...], tuple[str, ...], tuple[int, ...]]:
        """The table's columns: codes, outputs and halt stages, in table
        order."""
        return tuple(zip(*self.programs)) or ((), (), ())  # type: ignore[return-value]

    @cached_property
    def _omega_steps(self) -> tuple[list[int], list[Dyadic]]:
        """The sorted distinct halt stages, and Ω at each of them."""
        codes, _, halts = self._words
        lengths = list(map(len, codes))
        top = max(lengths, default=0)
        mass: dict[int, int] = {}
        for n, s in zip(lengths, halts):
            mass[s] = mass.get(s, 0) + (1 << (top - n))
        stages = sorted(mass)
        omegas: list[Dyadic] = []
        total = 0
        for s in stages:
            total += mass[s]
            omegas.append(Dyadic(total, top))
        return stages, omegas

    @cached_property
    def _k_steps(self) -> dict[str, tuple[list[int], list[int]]]:
        """Per output word: the stages at which its shortest halted code
        length drops, strictly increasing, and that length from each on."""
        codes, outputs, halts = self._words
        steps: dict[str, tuple[list[int], list[int]]] = {}
        for s, n, out in sorted(zip(halts, map(len, codes), outputs)):
            step = steps.get(out)
            if step is None:
                steps[out] = ([s], [n])
            elif n < step[1][-1]:
                step[0].append(s)
                step[1].append(n)
        return steps

    @cached_property
    def _output_lengths(self) -> list[int]:
        """The distinct output lengths, ascending: no string of another
        length is ever output, so none has a finite K_t."""
        return sorted(set(map(len, self._k_steps)))

    def halted_complexities(self, t: int) -> dict[str, int]:
        """Stage-t complexity of every output that has a halted program."""
        table: dict[str, int] = {}
        for bits, (at, lengths) in self._k_steps.items():
            i = bisect_right(at, t)
            if i:
                table[bits] = lengths[i - 1]
        return table


def _plain_programs(text: str) -> tuple[Program, ...] | None:
    """The programs of a plain table, or None for any other table.

    A plain row is a whole line of three bare fields: a 0/1 code, a 0/1 or
    '-' output and ASCII digits; a '-' output takes no group, which
    `findall` gives as ''.  A row holds no line break, so each match is one
    line of `str.splitlines`, neither empty nor a '#' comment.  When the
    rows are as many as those lines, every such line is a row and the rest
    are what the line reader skips, so both readers give the same
    programs.  Only a text with a '#' in it has its lines read one by one,
    to count the comments."""
    rows = _PLAIN_ROW.findall(text)
    lines = text.splitlines()
    comments = sum(1 for line in lines if line[:1] == "#") if "#" in text else 0
    if len(rows) != len(lines) - lines.count("") - comments:
        return None
    if not rows:
        return ()
    codes, outputs, halts = zip(*rows)
    # a Program is a tuple, so tuple.__new__ builds each row with no Python call of its own
    return tuple(map(tuple.__new__, repeat(Program), zip(codes, outputs, map(int, halts))))


def _programs(text: str, source: str) -> tuple[Program, ...]:
    """The programs of any table, read through `errors.records`; the first
    bad line raises a ParseError naming it."""
    programs: list[Program] = []
    for lineno, fields in records(text):
        if len(fields) != 3:
            raise ParseError(
                f"expected 3 tab-separated fields, got {len(fields)}",
                source=source,
                line=lineno,
            )
        code_s, out_s, halt_s = fields
        try:
            code, output = str(BitString.parse(code_s)), str(BitString.parse(out_s))
            halt = int(halt_s)
        except (InputError, ValueError) as exc:
            raise ParseError(f"bad program line: {exc}", source=source, line=lineno)
        if halt < 0:
            raise ParseError(f"negative halt stage for code {code or 'ε'}", source=source, line=lineno)
        programs.append(Program(code, output, halt))
    return tuple(programs)


def _is_word(s: str) -> bool:
    """Whether s is a 0/1 word.  An ASCII string encodes to the same bytes,
    and deleting the 0s and 1s from them leaves nothing; any other string,
    a lone surrogate included, is not ASCII and is never encoded."""
    return s.isascii() and not s.encode().translate(None, b"01")


def _name_prefix_violation(codes: tuple[str, ...]) -> None:
    """Raise for the first duplicate code in table order, else for the first
    code in table order with a proper prefix among the codes, naming its
    shortest one."""
    seen: set[str] = set()
    for b in codes:
        if b in seen:
            raise ParseError(f"duplicate code {b or 'ε'}")
        seen.add(b)
    for b in codes:
        for i in range(len(b)):
            if b[:i] in seen:
                raise ParseError(f"code {b[:i] or 'ε'} is a prefix of code {b}")


def _k_at(steps: tuple[list[int], list[int]] | None, t: int) -> float:
    if steps is None:
        return INFINITE
    at, lengths = steps
    i = bisect_right(at, t)
    return lengths[i - 1] if i else INFINITE


def k_approx(machine: PrefixMachine, sigma: str, t: int) -> float:
    """Shortest halted code for sigma at stage t; +inf when none has halted.
    Nonincreasing in t."""
    return _k_at(machine._k_steps.get(sigma), t)


def omega_approx(machine: PrefixMachine, s: int) -> Dyadic:
    """Halting mass accumulated by stage s; nondecreasing, below 1 under a
    strict mass budget."""
    stages, omegas = machine._omega_steps
    i = bisect_right(stages, s)
    return omegas[i - 1] if i else ZERO


def satisfies_constant(machine: PrefixMachine, sigma: str, c: int, t: int) -> bool:
    """K_t(sigma) ≥ |sigma| − c; the +inf sentinel satisfies every bound."""
    return k_approx(machine, sigma, t) >= len(sigma) - c


def failing_stages(machine: PrefixMachine, x: Dyadic, c: int) -> Iterator[tuple[int, int]]:
    """(n, s_n) for each length n whose length-n expansion of x fails the
    constant at some stage (K_t < n − c), with s_n ≥ n the first stage at
    which it does, in increasing n.

    The length-n expansion of x does not depend on the stage and K_t never
    increases, so the length fails at stage t exactly when t ≥ s_n: s_n is
    the larger of n and the first stage of the `_k_steps` drop below n − c.
    Only output lengths are looked up, and x is expanded only to the longest
    of them: the first n bits of ⌊x·2^m⌋ are ⌊x·2^n⌋, and at x = 1 the cap
    gives all ones at both lengths."""
    lengths = machine._output_lengths
    if not lengths:
        return
    steps = machine._k_steps
    bits = approx_string(x, lengths[-1])
    # code lengths are ≥ 0, so no prefix of length n ≤ c can fail
    for n in lengths[bisect_right(lengths, c):]:
        step = steps.get(bits[:n])
        if step is not None:
            for s, k in zip(*step):
                if k < n - c:
                    yield n, max(n, s)
                    break


def least_failing_length(machine: PrefixMachine, x: Dyadic, c: int, t: int) -> int | None:
    """The least n ≤ t whose length-n expansion of x fails the constant at
    stage t (K_t < n − c), or None: the first length of `failing_stages`
    whose first failing stage is at most t."""
    for n, s in failing_stages(machine, x, c):
        if s <= t:
            return n
    return None


def randomness_class_tree(machine: PrefixMachine, c: int, t: int, depth: int) -> Tree:
    """The depth-bounded tree of strings all of whose prefixes satisfy the
    constant at stage t; shrinks as complexities drop.  Its exits are the
    minimal halted outputs of length ≤ depth that fail the constant,
    K_t(σ) < |σ| − c."""
    table = machine.halted_complexities(t)
    return tree_of_complement((b for b, k in table.items() if k < len(b) - c), depth)


def intersect_randomness(tree: Tree, machine: PrefixMachine, c: int, t: int) -> Tree:
    """Intersection with the stage-t complexity-constrained tree at the same
    depth: a node of both extends no exit of either."""
    constrained = randomness_class_tree(machine, c, t, tree.depth)
    return tree_of_complement(tree.exits | constrained.exits, tree.depth)


def compute_padding(n: int, k: int) -> int:
    """Least p ≥ 1 with p − 2·⌊log₂ p⌋ ≥ n + k (⌊log₂ 1⌋ = 0)."""
    if n < 0 or k < 0:
        raise InputError("padding arguments must be ≥ 0")
    target = n + k
    p = 1
    while p - 2 * (p.bit_length() - 1) < target:
        p += 1
    return p
