"""Finite prefix-free machine tables.

A machine is a finite set of (code, output, halt stage) programs whose
codes are prefix-free and respect the unit mass budget.  It induces the
nonincreasing complexity approximation K_t, the nondecreasing halting-mass
approximation Ω_s, the randomness-constant predicate, and the depth-bounded
class of strings all of whose prefixes satisfy a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .classes import Tree
from .dyadic import ZERO, BitString, Dyadic
from .errors import DomainError, KraftViolation, ParseError, PrefixFreeViolation, records

INFINITE: float = math.inf

__all__ = [
    "INFINITE",
    "PrefixMachine",
    "Program",
    "compute_padding",
    "k_approx",
    "omega_approx",
    "randomness_class_tree",
    "satisfies_constant",
]


@dataclass(frozen=True)
class Program:
    code: BitString
    output: BitString
    halt_stage: int


@dataclass(frozen=True)
class PrefixMachine:
    """A finite prefix-free program table with one configuration constant,
    c_tilde, used by padding computations (default 0)."""

    programs: tuple[Program, ...] = ()
    c_tilde: int = 0

    def __post_init__(self) -> None:
        if self.c_tilde < 0:
            raise DomainError("machine constants must be ≥ 0")
        codes = [p.code.bits for p in self.programs]
        seen: set[str] = set()
        for b in codes:
            if b in seen:
                raise PrefixFreeViolation(f"duplicate code {b or 'ε'}")
            seen.add(b)
        for b in codes:
            for i in range(len(b)):
                if b[:i] in seen:
                    raise PrefixFreeViolation(f"code {b[:i] or 'ε'} is a prefix of code {b}")
        for p in self.programs:
            if p.halt_stage < 0:
                raise DomainError(f"negative halt stage for code {p.code}")
        mass = ZERO
        try:
            for p in self.programs:
                mass = mass + Dyadic.pow2(len(p.code))
        except DomainError:
            raise KraftViolation("code lengths overrun unit mass")
        object.__setattr__(self, "_mass", mass)

    @property
    def kraft_sum(self) -> Dyadic:
        return self._mass  # type: ignore[attr-defined]

    @property
    def strict_kraft(self) -> bool:
        return self.kraft_sum < Dyadic(1, 0)

    def max_halt_stage(self) -> int:
        return max((p.halt_stage for p in self.programs), default=0)

    @classmethod
    def parse(
        cls, text: str, c_tilde: int = 0, source: str = "<machine>"
    ) -> "PrefixMachine":
        """One program per line: code<TAB>output<TAB>halt_stage; '#' comments."""
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
                code = BitString.parse(code_s)
                output = BitString.parse(out_s)
                halt = int(halt_s)
            except (DomainError, ValueError) as exc:
                raise ParseError(f"bad program line: {exc}", source=source, line=lineno)
            programs.append(Program(code, output, halt))
        return cls(tuple(programs), c_tilde=c_tilde)

    @classmethod
    def load(cls, path: str, c_tilde: int = 0) -> "PrefixMachine":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read(), c_tilde=c_tilde, source=path)

    def render(self) -> str:
        return "\n".join(
            f"{p.code.display()}\t{p.output.display()}\t{p.halt_stage}" for p in self.programs
        )

    def halted_complexities(self, t: int) -> dict[str, int]:
        """Stage-t complexity of every output that has a halted program."""
        table: dict[str, int] = {}
        for p in self.programs:
            if p.halt_stage <= t:
                prev = table.get(p.output.bits)
                if prev is None or len(p.code) < prev:
                    table[p.output.bits] = len(p.code)
        return table


def k_approx(machine: PrefixMachine, sigma: BitString, t: int) -> float:
    """Shortest halted code for sigma at stage t; +inf when none has halted.
    Nonincreasing in t."""
    best = INFINITE
    for p in machine.programs:
        if p.halt_stage <= t and p.output == sigma and len(p.code) < best:
            best = len(p.code)
    return best


def omega_approx(machine: PrefixMachine, s: int) -> Dyadic:
    """Halting mass accumulated by stage s; nondecreasing, below 1 under a
    strict mass budget."""
    total = ZERO
    for p in machine.programs:
        if p.halt_stage <= s:
            total = total + Dyadic.pow2(len(p.code))
    return total


def satisfies_constant(machine: PrefixMachine, sigma: BitString, c: int, t: int) -> bool:
    """K_t(sigma) ≥ |sigma| − c; the +inf sentinel satisfies every bound."""
    return k_approx(machine, sigma, t) >= len(sigma) - c


def randomness_class_tree(machine: PrefixMachine, c: int, t: int, depth: int) -> Tree:
    """The depth-bounded tree of strings all of whose prefixes satisfy the
    constant at stage t; shrinks as complexities drop."""
    if depth < 0:
        raise DomainError("depth must be ≥ 0")
    table = machine.halted_complexities(t)

    def ok(b: str) -> bool:
        k = table.get(b)
        return k is None or k >= len(b) - c

    keep: set[str] = set()
    frontier = [""]
    while frontier:
        b = frontier.pop()
        if not ok(b):
            continue
        keep.add(b)
        if len(b) < depth:
            frontier.append(b + "0")
            frontier.append(b + "1")
    return Tree(frozenset(BitString(b) for b in keep), depth)


def compute_padding(n: int, k: int) -> int:
    """Least p ≥ 1 with p − 2·⌊log₂ p⌋ ≥ n + k (⌊log₂ 1⌋ = 0)."""
    if n < 0 or k < 0:
        raise DomainError("padding arguments must be ≥ 0")
    target = n + k
    p = 1
    while p - 2 * (p.bit_length() - 1) < target:
        p += 1
    return p
