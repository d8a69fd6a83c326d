"""Depth-bounded trees and class-level operations on them.

A tree approximates a Π⁰₁ class, the complement of an effectively open set,
up to a uniform depth bound.  It is stored as that bound and its exits: the
minimal strings of length ≤ depth that are not nodes, so the open set's
cones as far as the bound sees them.  A node is a string of length ≤ depth
with no exit as a prefix; the full tree has no exits and the empty tree has
the one exit ε.  Its depth-D "paths" are the length-D nodes.

A dead end is a node strictly below the bound with neither child a node.
Its children are not nodes, yet every proper prefix of either is, so both
are exits: the dead ends are exactly the parents of two sibling exits.
Judging them strictly below the bound means truncation is never mistaken
for a genuine leaf.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .dyadic import EMPTY, Antichain, _Value, all_strings, grow_covering, lenlex, minimal_strings
from .dyadic import parse_words, strings_up_to
from .errors import InputError, ParseError, PreconditionError
from .streams import EnumerationScript

__all__ = [
    "CappedReplay",
    "Tree",
    "dead_ends",
    "diagonalize",
    "graft_points",
    "measure_capped_enumeration",
    "paths_at_depth",
    "tree_from_halting_oracle",
    "tree_of_complement",
]


class Tree(_Value):
    """A tree stored as its depth bound and its exits, the minimal strings of
    length ≤ depth that are not nodes; its nodes are the strings of length
    ≤ depth that extend no exit.  The exits form an antichain; `Tree(depth)`
    is the full tree and `Tree(depth, frozenset([EMPTY]))` the empty one.  A
    dead end's children have only nodes as proper prefixes, so they are
    exits: the dead ends are the parents of two sibling exits."""

    __slots__ = ("depth", "exits", "__dict__")
    depth: int
    exits: frozenset[str]

    def __init__(self, depth: int, exits: frozenset[str] = frozenset()) -> None:
        if depth < 0:
            raise InputError("depth must be ≥ 0")
        for b in lenlex(exits):
            if b.strip("01"):
                raise InputError(f"not a 0/1 word: {b!r}")
            if len(b) > depth:
                raise InputError(f"exit {b or 'ε'} longer than depth bound {depth}")
            for i in range(len(b)):
                if b[:i] in exits:
                    raise InputError(f"exit {b} extends exit {b[:i] or 'ε'}")
        self._store(depth, exits)

    @classmethod
    def closure_of(cls, strings: Iterable[str], depth: int) -> "Tree":
        """Prefix closure of the given strings, truncated at the depth bound:
        its exits are the children of its nodes that are not nodes, or ε
        when there is no node."""
        bits: set[str] = set()
        for s in strings:
            b = s[:depth]
            bits.update(b[:i] for i in range(len(b) + 1))
        if not bits:
            return cls(depth, frozenset([EMPTY]))
        return cls(depth, frozenset({b + c for b in bits if len(b) < depth for c in "01"} - bits))

    @classmethod
    def parse(cls, text: str, depth: int | None = None, source: str = "<tree>") -> "Tree":
        """One node per line (0/1 word); the ε line for the root is optional
        when any node is listed.  Rejects non-prefix-closed input naming the
        length-lexicographically least offending node."""
        bits = set(parse_words(text, source))
        if bits:
            bits.add("")
        if depth is None:
            depth = max((len(b) for b in bits), default=0)
        for b in lenlex(bits):
            if b and b[:-1] not in bits:
                raise ParseError(f"not prefix-closed: node {b} lacks {b[:-1] or 'ε'}", source=source)
            if len(b) > depth:
                raise ParseError(f"node {b} longer than depth bound {depth}", source=source)
        return cls.closure_of(bits, depth)

    @classmethod
    def load(cls, path: str, depth: int | None = None) -> "Tree":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read(), depth=depth, source=path)

    @cached_property
    def nodes(self) -> frozenset[str]:
        return frozenset(n for d in range(self.depth + 1) for n in paths_at_depth(self, d))

    def render(self) -> str:
        return "\n".join(n or "-" for n in lenlex(self.nodes))


def paths_at_depth(tree: Tree, d: int) -> tuple[str, ...]:
    """All length-d nodes: the d-bit values outside every interval
    [v·2^(d−|e|), (v+1)·2^(d−|e|)) of an exit e of value v and length ≤ d.
    The exits are an antichain, so these intervals are disjoint."""
    if d < 0 or d > tree.depth:
        raise InputError(f"depth {d} outside [0, {tree.depth}]")
    spans = sorted(
        (int(e or "0", 2) << (d - len(e)), 1 << (d - len(e))) for e in tree.exits if len(e) <= d
    )
    out: list[str] = []
    lo = 0
    for start, width in spans:
        out.extend(all_strings(d, lo, start))
        lo = start + width
    out.extend(all_strings(d, lo))
    return tuple(out)


def dead_ends(tree: Tree) -> tuple[str, ...]:
    """Nodes strictly below the depth bound with no child in the tree, the
    parents of two sibling exits, listed length-lexicographically."""
    ends = [e[:-1] for e in tree.exits if e.endswith("0") and e[:-1] + "1" in tree.exits]
    return tuple(lenlex(ends))


def graft_points(trees: Sequence[Tree], depth: int) -> tuple[str, ...]:
    """The grafting targets of the diagonal construction.

    σ_n is the n-th dead end of the base tree; the target extending σ_n is
    the length-lexicographically least extension that also extends a dead
    end of the n-th tree.  Raises a precondition error naming the first n
    for which no target exists.
    """
    if not trees:
        raise InputError("need at least one tree")
    for i, t in enumerate(trees):
        if t.depth != depth:
            raise InputError(f"tree {i} has depth {t.depth}, expected {depth}")
    base = trees[0]
    ends0 = dead_ends(base)
    if len(ends0) < len(trees):
        raise PreconditionError(
            f"base tree offers {len(ends0)} dead ends; none left for n={len(ends0)}"
        )
    if not paths_at_depth(base, depth):
        raise PreconditionError("base tree reaches no depth-%d path (n=0)" % depth)
    taus: list[str] = []
    for n, t_n in enumerate(trees):
        sigma = ends0[n]
        ends_n = dead_ends(t_n)
        candidates = [d for d in ends_n if d.startswith(sigma)]
        if sigma.startswith(ends_n):
            candidates.append(sigma)
        if not candidates:
            raise PreconditionError(f"no dead end of tree {n} reachable above {sigma or 'ε'}")
        taus.append(lenlex(candidates)[0])
    return tuple(taus)


def diagonalize(base: Tree, taus: Sequence[str]) -> Tree:
    """Copy the base tree above each graft target τ_n of `graft_points`,
    truncated at the base's bound.

    The result meets every cone [τ_n] in a depth-D path while the n-th tree
    misses it (the target extends one of its dead ends).
    """
    nodes = base.nodes
    return Tree.closure_of([*nodes, *(tau + node for tau in taus for node in nodes)], base.depth)


class CappedReplay(NamedTuple):
    """Replay record of one index under the measure cap: its log, one (stage,
    item, admitted) entry per event of the index up to the horizon."""

    log: tuple[tuple[int, str, bool], ...]

    @property
    def frozen_at(self) -> int | None:
        """The stage of the first refusal, or None if nothing was refused."""
        return next((s for s, _, admitted in self.log if not admitted), None)

    def final(self) -> frozenset[str]:
        return frozenset(item for _, item, admitted in self.log if admitted)


def measure_capped_enumeration(
    script: EnumerationScript, n: int, horizon: int
) -> dict[int, CappedReplay]:
    """Replay the events up to the horizon once, admitting a string only while
    the covered measure stays ≤ 1 − 1/n; the first refusal freezes the index
    for good.  An unfrozen index's admitted set is held as its optimal covering."""
    if n < 1:
        raise InputError("the cap parameter n must be ≥ 1")
    if horizon < 0:
        raise InputError("horizon must be ≥ 0")
    logs: dict[int, list[tuple[int, str, bool]]] = {e: [] for e in script.indices()}
    coverings = dict.fromkeys(logs, Antichain())  # the unfrozen indices only
    for s, e, item in script.events:
        if s > horizon:
            break
        if not isinstance(item, str):
            raise InputError(f"index {e} carries a non-string item at stage {s}")
        admitted = False
        if e in coverings:
            grown = grow_covering(coverings[e], item)
            # the members' cones are disjoint: measure num/2^exp ≤ (n−1)/n, cross-multiplied
            exp = max(map(len, grown))
            if n * sum(1 << exp - len(m) for m in grown) <= (n - 1) << exp:
                coverings[e], admitted = grown, True
            else:
                del coverings[e]
        logs[e].append((s, item, admitted))
    return {e: CappedReplay(tuple(log)) for e, log in logs.items()}


def tree_of_complement(strings: Iterable[str], depth: int) -> Tree:
    """Nodes with no prefix among the given strings: the class left after
    removing the covered cones.  Its exits are the minimal given strings of
    length ≤ depth."""
    return Tree(depth, minimal_strings(s for s in strings if len(s) <= depth))


def tree_from_halting_oracle(
    oracle: Callable[[str, int], bool], e: int, depth: int
) -> Tree:
    """Nodes on which the oracle has not yet halted within the length budget.

    Sweeps length-lexicographically; a string the oracle has not halted on
    under a halted parent witnesses a monotonicity violation and is reported
    as an input error.
    """
    halted: set[str] = set()
    for s in strings_up_to(depth):
        if oracle(s, e):
            halted.add(s)
        elif s and s[:-1] in halted:
            raise InputError(f"oracle not monotone at {s}")
    return tree_of_complement(halted, depth)
