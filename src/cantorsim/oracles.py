"""Independent brute-force oracles.

Everything here recomputes a result by exhaustive expansion or fixpoint
iteration, deliberately avoiding the code paths it is used to check.  The
check suites and the test suite compare the fast implementations against
these.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

from .classes import Tree
from .complexity import PrefixMachine
from .dyadic import (
    ZERO,
    Antichain,
    BitString,
    Dyadic,
    rational_of_string,
    strings_up_to,
)
from .errors import DomainError
from .streams import approx_string

__all__ = [
    "brute_covering_families",
    "brute_halted_complexities",
    "brute_k_approx",
    "brute_least_failing_length",
    "brute_lower_cut",
    "brute_nodes",
    "brute_odd_ones",
    "brute_omega_approx",
    "brute_optimal_covering",
    "expansion_at_depth",
    "greedy_expansion",
    "inclusion_odd_ones_extensions",
    "node_set_dead_ends",
    "node_set_paths",
    "padding_holds",
    "rightmost_path",
    "set_difference_deltas",
    "sibling_merge_closure",
]


def expansion_at_depth(strings: Iterable[BitString], depth: int) -> frozenset[str]:
    """All length-depth words extending some member; exact picture of the
    covered class once depth reaches every member length."""
    bits = {s.bits for s in strings}
    if any(len(b) > depth for b in bits):
        raise DomainError("expansion depth must reach every member")
    out = set()
    for t in strings_up_to(depth):
        if len(t.bits) == depth and any(t.bits[:i] in bits for i in range(depth + 1)):
            out.add(t.bits)
    return frozenset(out)


def brute_optimal_covering(strings: Iterable[BitString]) -> Antichain:
    """Minimal covered nodes found by counting depth-expansion leaves under
    each candidate."""
    bits = {s.bits for s in strings}
    if not bits:
        return Antichain(())
    depth = max(len(b) for b in bits)
    leaves = expansion_at_depth([BitString(b) for b in bits], depth)

    counts: dict[str, int] = {}
    for leaf in leaves:
        for i in range(depth + 1):
            counts[leaf[:i]] = counts.get(leaf[:i], 0) + 1

    def covered(b: str) -> bool:
        return counts.get(b, 0) == 1 << (depth - len(b))

    out = []
    for t in strings_up_to(depth):
        if covered(t.bits) and (not t.bits or not covered(t.bits[:-1])):
            out.append(t)
    return Antichain(tuple(out))


def sibling_merge_closure(strings: Iterable[BitString], depth: int) -> frozenset[BitString]:
    """Fixpoint of extension and sibling-merge rules inside words of length
    ≤ depth; exact membership picture when depth reaches every member."""
    bits = {s.bits for s in strings}
    if any(len(b) > depth for b in bits):
        raise DomainError("closure depth must reach every member")
    changed = True
    while changed:
        changed = False
        for b in list(bits):
            if len(b) < depth:
                for child in (b + "0", b + "1"):
                    if child not in bits:
                        bits.add(child)
                        changed = True
            if b and b[:-1] not in bits:
                sib = b[:-1] + ("1" if b[-1] == "0" else "0")
                if sib in bits:
                    bits.add(b[:-1])
                    changed = True
    return frozenset(BitString(b) for b in bits)


def brute_covering_families(total: int) -> tuple[Antichain, ...]:
    """Every reduced antichain whose member lengths sum to the total: each
    prefix-free set of distinct strings with that length sum is tried, and
    the sets that brute_optimal_covering maps to themselves are kept.
    Ordered by the members' sorted (length, bits) keys; ε is a candidate, so
    total 0 gives () and (ε)."""
    pool = list(strings_up_to(total))
    found: list[tuple[BitString, ...]] = []

    def extend(start: int, chosen: tuple[BitString, ...], left: int) -> None:
        if left == 0 and brute_optimal_covering(chosen).members == chosen:
            found.append(chosen)
        for k in range(start, len(pool)):
            if len(pool[k]) > left:
                break
            if not any(c.is_prefix_of(pool[k]) for c in chosen):
                extend(k + 1, chosen + (pool[k],), left - len(pool[k]))

    extend(0, (), total)
    found.sort(key=lambda a: tuple(s.lenlex_key for s in a))
    return tuple(Antichain(a) for a in found)


def brute_odd_ones(max_len: int) -> list[BitString]:
    """The strings of length ≤ max_len that end in 1 and carry an odd number
    of 1s, in length-lexicographic order."""
    return [t for t in strings_up_to(max_len) if t.bits.endswith("1") and t.ones() % 2 == 1]


def brute_lower_cut(x: Dyadic, max_len: int) -> frozenset[BitString]:
    """The cut computed on the rational side: value comparison only."""
    return frozenset(t for t in strings_up_to(max_len) if rational_of_string(t) < x)


def set_difference_deltas(values: Iterable[Dyadic], length: int) -> list[tuple[int, BitString]]:
    """(stage, string) for every string the truncated lower cut gains at each
    stage: the whole cut of each stage value, minus the cut of the stage
    before, sorted length-lexicographically."""
    out: list[tuple[int, BitString]] = []
    seen: frozenset[BitString] = frozenset()
    for s, x in enumerate(values):
        cut = brute_lower_cut(x, length)
        out.extend((s, t) for t in sorted(cut - seen, key=lambda b: b.lenlex_key))
        seen = cut
    return out


def inclusion_odd_ones_extensions(
    length: int,
) -> Callable[[frozenset[BitString]], Iterator[frozenset[BitString]]]:
    """The odd-ones extensions by set inclusion: every odd-ones cut is built
    as a set, and the ones that contain the content are taken in listing
    order."""
    cuts = [brute_lower_cut(rational_of_string(s), length) for s in brute_odd_ones(length)]
    return lambda content: (c for c in cuts if content <= c)


def brute_k_approx(machine: PrefixMachine, sigma: BitString, t: int) -> float:
    """K_t(sigma) by a scan of every program: the shortest code that outputs
    sigma and has halted by stage t, or +inf."""
    best = math.inf
    for p in machine.programs:
        if p.halt_stage <= t and p.output == sigma and len(p.code) < best:
            best = len(p.code)
    return best


def brute_omega_approx(machine: PrefixMachine, s: int) -> Dyadic:
    """Ω_s by a scan of every program: the mass of the codes halted by stage s."""
    total = ZERO
    for p in machine.programs:
        if p.halt_stage <= s:
            total = total + Dyadic.pow2(len(p.code))
    return total


def brute_halted_complexities(machine: PrefixMachine, t: int) -> dict[str, int]:
    """K_t of every output with a halted program, by a scan of every program."""
    table: dict[str, int] = {}
    for p in machine.programs:
        if p.halt_stage <= t:
            prev = table.get(p.output.bits)
            if prev is None or len(p.code) < prev:
                table[p.output.bits] = len(p.code)
    return table


def brute_least_failing_length(machine: PrefixMachine, x: Dyadic, c: int, t: int) -> int | None:
    """The least n ≤ t whose length-n expansion of x has K_t < n − c, or None;
    each length is expanded afresh and scanned over every program."""
    for n in range(t + 1):
        if brute_k_approx(machine, approx_string(x, n), t) < n - c:
            return n
    return None


def greedy_expansion(q: Dyadic) -> BitString:
    """Digit-by-digit greedy binary expansion of q < 1."""
    if q >= Dyadic(1, 0):
        raise DomainError("q must lie in [0, 1)")
    bits = []
    rest = q
    i = 1
    while rest != ZERO:
        step = Dyadic.pow2(i)
        if step <= rest:
            bits.append("1")
            rest = rest - step
        else:
            bits.append("0")
        i += 1
    return BitString("".join(bits))


def padding_holds(p: int, target: int) -> bool:
    """The padding inequality p − 2·⌊log₂ p⌋ ≥ target, checked directly."""
    if p < 1:
        return False
    return p - 2 * (p.bit_length() - 1) >= target


def brute_nodes(tree: Tree) -> frozenset[BitString]:
    """Every string of length ≤ depth with no exit as a prefix."""
    return frozenset(
        s for s in strings_up_to(tree.depth) if not any(e.is_prefix_of(s) for e in tree.exits)
    )


def node_set_paths(nodes: frozenset[BitString], d: int) -> tuple[BitString, ...]:
    """The length-d members of a prefix-closed node set, length-lexicographically."""
    return tuple(sorted((n for n in nodes if len(n) == d), key=lambda n: n.lenlex_key))


def node_set_dead_ends(nodes: frozenset[BitString], depth: int) -> tuple[BitString, ...]:
    """Members strictly below the depth bound with neither child a member,
    length-lexicographically."""
    out = [
        n
        for n in nodes
        if len(n) < depth
        and BitString(n.bits + "0") not in nodes
        and BitString(n.bits + "1") not in nodes
    ]
    return tuple(sorted(out, key=lambda n: n.lenlex_key))


def rightmost_path(tree: Tree, depth: int) -> BitString | None:
    """Depth-first search preferring the 1-child: the lexicographically
    greatest length-depth node, or None when the tree dies out early."""
    nodes = brute_nodes(tree)
    reach: set[str] = {n.bits for n in nodes if len(n.bits) == depth}
    for d in range(depth - 1, -1, -1):
        for n in nodes:
            if len(n.bits) == d and (n.bits + "0" in reach or n.bits + "1" in reach):
                reach.add(n.bits)

    if "" not in reach:
        return None
    b = ""
    while len(b) < depth:
        if b + "1" in reach:
            b += "1"
        elif b + "0" in reach:
            b += "0"
        else:  # unreachable given the bookkeeping above
            return None
    return BitString(b)
