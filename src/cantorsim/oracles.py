"""Independent brute-force oracles.

Everything here recomputes a result by exhaustive expansion or fixpoint
iteration, deliberately avoiding the code paths it is used to check.  The
check suites and the test suite compare the fast implementations against
these.

An oracle works on plain words (`str`) and integers, as the package does,
and sweeps the words itself; a covering comes back as an `Antichain` and a
value as a `Dyadic`.  From the package it imports only those value types,
`Tree`, `PrefixMachine` and `errors`, so no enumeration, expansion or
conversion routine of the fast code is on an oracle's path.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .classes import Tree
from .complexity import PrefixMachine
from .dyadic import ZERO, Antichain, Dyadic
from .errors import InputError, PreconditionError

__all__ = [
    "brute_covering_families",
    "brute_failing_runs",
    "brute_halted_complexities",
    "brute_k_approx",
    "brute_least_failing_length",
    "brute_lower_cut",
    "brute_merge_rows",
    "brute_nodes",
    "brute_odd_ones",
    "brute_omega_approx",
    "brute_optimal_covering",
    "expansion_at_depth",
    "expansion_prefix",
    "greedy_expansion",
    "inclusion_odd_ones_extensions",
    "node_set_dead_ends",
    "node_set_paths",
    "padding_holds",
    "rightmost_path",
    "set_difference_deltas",
    "sibling_merge_closure",
    "split_covering_families",
    "split_covering_family",
]


@lru_cache(maxsize=None)
def _words(n: int) -> tuple[str, ...]:
    """Every word of length n, lexicographically: v in binary, zero-filled.
    Built once per length and process."""
    if n == 0:
        return ("",)
    spec = f"0{n}b"
    return tuple(format(v, spec) for v in range(1 << n))


def _words_up_to(n: int) -> Iterator[str]:
    """Every word of length ≤ n, length-lexicographically."""
    for k in range(n + 1):
        yield from _words(k)


def _expansion_at_depth(bits: set[str], depth: int) -> list[str]:
    if any(len(b) > depth for b in bits):
        raise InputError("expansion depth must reach every member")
    members = tuple(bits)
    return [w for w in _words(depth) if w.startswith(members)]


def expansion_at_depth(strings: Iterable[str], depth: int) -> frozenset[str]:
    """All length-depth words extending some member; exact picture of the
    covered class once depth reaches every member length."""
    return frozenset(_expansion_at_depth(set(strings), depth))


def _optimal_covering(bits: set[str]) -> list[str]:
    """The words whose whole depth-expansion cone is covered and whose parent's
    is not, length-lexicographically, by counting leaves under each word."""
    if not bits:
        return []
    depth = max(len(b) for b in bits)
    leaves = _expansion_at_depth(bits, depth)
    counts = Counter(leaf[:i] for leaf in leaves for i in range(depth + 1))
    covered = {b for b, n in counts.items() if n == 1 << (depth - len(b))}
    return sorted((b for b in covered if not b or b[:-1] not in covered), key=lambda b: (len(b), b))


def brute_optimal_covering(strings: Iterable[str]) -> Antichain:
    """Minimal covered nodes found by counting depth-expansion leaves under
    each candidate."""
    return Antichain(_optimal_covering(set(strings)))


def sibling_merge_closure(strings: Iterable[str], depth: int) -> frozenset[str]:
    """Fixpoint of extension and sibling-merge rules inside words of length
    ≤ depth; exact membership picture when depth reaches every member.

    Two passes over the lengths, one set of words per length.  From the
    shortest length down, each length's words add their children to the next
    length, so the set is closed under extension.  From the longest length
    up, each length's sibling pairs add their parent to the length before;
    a parent's extensions are its two children's, already in, and a length
    gains words only from the one after it, so it is complete when its pairs
    are read.  So the result is closed under both rules, and it holds only
    what they force."""
    bits = set(strings)
    if any(len(b) > depth for b in bits):
        raise InputError("closure depth must reach every member")
    levels: list[set[str]] = [set() for _ in range(depth + 1)]
    for b in bits:
        levels[len(b)].add(b)
    for d in range(depth):
        levels[d + 1] |= {b + c for b in levels[d] for c in "01"}
    for d in range(depth, 0, -1):
        level = levels[d]
        levels[d - 1] |= {b[:-1] for b in level if b[-1] == "0" and b[:-1] + "1" in level}
    return frozenset().union(*levels)


def brute_covering_families(total: int) -> tuple[Antichain, ...]:
    """Every reduced antichain whose member lengths sum to the total: each
    prefix-free set of distinct strings with that length sum is tried, and
    the sets that brute_optimal_covering maps to themselves are kept.
    Ordered by the members' sorted (length, bits) keys; ε is a candidate, so
    total 0 gives () and (ε)."""
    pool = list(_words_up_to(total))
    found: list[tuple[str, ...]] = []

    def extend(start: int, chosen: tuple[str, ...], left: int) -> None:
        # chosen is length-lexicographic, as the covering's members are
        if left == 0 and tuple(_optimal_covering(set(chosen))) == chosen:
            found.append(chosen)
        for k in range(start, len(pool)):
            if len(pool[k]) > left:
                break
            if not pool[k].startswith(chosen):
                extend(k + 1, chosen + (pool[k],), left - len(pool[k]))

    extend(0, (), total)
    found.sort(key=lambda a: tuple((len(b), b) for b in a))
    return tuple(map(Antichain, found))


@lru_cache(maxsize=None)
def _cone_antichains(depth: int, total: int) -> tuple[tuple[str, ...], ...]:
    """Reduced antichains of suffixes below a node at the given depth whose
    members' absolute bit-lengths sum to exactly the total.

    The empty antichain has total 0 and the node itself (suffix ε) has total
    depth; at depth 0 and total 0 both are kept.  A total above the depth
    is split t0 + t1 between the two children, which sit one level deeper;
    the pair ε, ε is left out because siblings would merge into the node.
    Members come out unsorted.
    """
    out: list[tuple[str, ...]] = []
    if total == 0:
        out.append(())
    if total == depth:
        out.append(("",))
    if total > depth:
        for t0 in range(total + 1):
            for a0 in _cone_antichains(depth + 1, t0):
                for a1 in _cone_antichains(depth + 1, total - t0):
                    if not a0 == a1 == ("",):
                        out.append(tuple("0" + x for x in a0) + tuple("1" + x for x in a1))
    return tuple(out)


@lru_cache(maxsize=None)
def _parity_families(total: int, odd: bool) -> tuple[tuple[str, ...], ...]:
    """Every family of the total and parity, built whole by the split
    recursion, then sorted by the members' (length, bits) keys."""
    keys = sorted(
        tuple(sorted((len(b), b) for b in a))
        for a in _cone_antichains(0, total)
        if len(a) % 2 == odd
    )
    return tuple(tuple(b for _, b in key) for key in keys)


def split_covering_families(total: int, odd: bool) -> tuple[Antichain, ...]:
    """The covering families of the total and parity in canonical order, from
    the whole listing of the split recursion."""
    return tuple(map(Antichain, _parity_families(total, odd)))


def split_covering_family(i: int, odd: bool) -> Antichain:
    """The i-th covering family of the parity in canonical order: each
    total's whole listing is built, and its count subtracted, until i falls
    inside one."""
    if i < 0:
        raise InputError("index must be ≥ 0")
    total = 0
    while i >= len(families := _parity_families(total, odd)):
        i -= len(families)
        total += 1
    return Antichain(families[i])


def brute_odd_ones(max_len: int) -> list[str]:
    """The strings of length ≤ max_len that end in 1 and carry an odd number
    of 1s, in length-lexicographic order."""
    return [w for w in _words_up_to(max_len) if w.endswith("1") and w.count("1") % 2 == 1]


def _lower_cut(num: int, exp: int, max_len: int) -> list[str]:
    """The words of length ≤ max_len whose value v/2^n lies below num/2^exp,
    by the integer comparison v·2^exp < num·2^n, length-lexicographically."""
    return [
        format(v, f"0{n}b") if n else ""
        for n in range(max_len + 1)
        for v in range(1 << n)
        if v << exp < num << n
    ]


def brute_lower_cut(x: Dyadic, max_len: int) -> frozenset[str]:
    """The cut computed on the rational side: value comparison only."""
    return frozenset(_lower_cut(x.num, x.exp, max_len))


def set_difference_deltas(values: Iterable[Dyadic], length: int) -> list[tuple[int, str]]:
    """(stage, string) for every string the truncated lower cut gains at each
    stage: the whole cut of each stage value, minus the cut of the stage
    before, length-lexicographically."""
    out: list[tuple[int, str]] = []
    seen: set[str] = set()
    for s, x in enumerate(values):
        cut = _lower_cut(x.num, x.exp, length)
        out.extend((s, w) for w in cut if w not in seen)
        seen = set(cut)
    return out


def inclusion_odd_ones_extensions(
    length: int,
) -> Callable[[frozenset[str]], Iterator[frozenset[str]]]:
    """The odd-ones extensions by set inclusion: every odd-ones cut is built
    as a set, and the ones that contain the content are taken in listing
    order."""
    cuts = [brute_lower_cut(Dyadic(int(w, 2), len(w)), length) for w in brute_odd_ones(length)]
    return lambda content: (c for c in cuts if content <= c)


def brute_merge_rows(
    listing: Iterable[frozenset[str]],
    events: Sequence[tuple[int, int, str]],
    extensions: Callable[[frozenset[str]], Iterable[frozenset[str]]],
    horizon: int,
) -> list[tuple[int, int, str]]:
    """The Friedberg merge's stage loop one item at a time, over plain words:
    the output rows (stage, slot, word) of the stage-sorted events (stage,
    index, word).  Each stage delivers its events one by one; spawns, in
    index order, a follower for every index whose set equals no active
    follower's, compared with each of them; diverts, in index order, every
    follower that a smaller active follower equals, again compared with each
    of them; and lists the next unused listing member.  A spawned or diverted
    set is emitted length-lexicographically.  The errors carry the messages
    of `constructions.merge_rows`, with which it shares no code."""
    if horizon < 0:
        raise InputError("horizon must be ≥ 0")
    indices = sorted({index for _, index, _ in events})
    current: dict[int, set[str]] = {j: set() for j in indices}
    active: dict[int, int] = {}  # index -> slot
    slots = 0
    rows: list[tuple[int, int, str]] = []
    used: set[frozenset[str]] = set()
    listed: set[frozenset[str]] = set()
    listing = iter(listing)

    def emit(slot: int, stage: int, words: Iterable[str]) -> None:
        rows.extend((stage, slot, w) for w in sorted(words, key=lambda w: (len(w), w)))

    def new_slot(stage: int, content: Iterable[str]) -> int:
        nonlocal slots
        emit(slots, stage, content)
        slots += 1
        return slots - 1

    def pick_fresh(content: frozenset[str], stage: int) -> frozenset[str]:
        for value in itertools.islice(extensions(content), len(used) + horizon + 2):
            if not content <= value:
                raise PreconditionError(
                    f"extension at stage {stage} does not contain the slot content"
                )
            if value not in used:
                return value
        raise PreconditionError(
            f"no unused extension of a {len(content)}-string set at stage {stage}"
        )

    pos = 0
    for s in range(horizon + 1):
        while pos < len(events) and events[pos][0] == s:
            _, index, item = events[pos]
            pos += 1
            if not isinstance(item, str):
                raise InputError(f"index {index} carries a non-string item at stage {s}")
            if item not in current[index]:
                current[index].add(item)
                if index in active:
                    rows.append((s, active[index], item))
        for j in indices:
            if j not in active and all(current[j] != current[j2] for j2 in active):
                active[j] = new_slot(s, current[j])
        for j in indices:
            if j in active and any(j2 < j and current[j2] == current[j] for j2 in active):
                slot = active.pop(j)
                content = frozenset(current[j])
                value = pick_fresh(content, s)
                used.add(value)
                emit(slot, s, value - content)
        for value in listing:
            if value in listed:
                raise PreconditionError("listing generator repeated a member")
            listed.add(value)
            if value not in used:
                used.add(value)
                new_slot(s, value)
                break
    return rows


def brute_k_approx(machine: PrefixMachine, sigma: str, t: int) -> float:
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
            prev = table.get(p.output)
            if prev is None or len(p.code) < prev:
                table[p.output] = len(p.code)
    return table


def expansion_prefix(x: Dyadic, n: int) -> str:
    """The first n bits of x's binary expansion: ⌊x·2^n⌋ in n binary digits,
    where x = 1 expands as all ones."""
    if n == 0:
        return ""
    return format(min((x.num << n) >> x.exp, (1 << n) - 1), f"0{n}b")


def brute_least_failing_length(machine: PrefixMachine, x: Dyadic, c: int, t: int) -> int | None:
    """The least n ≤ t whose length-n expansion of x has K_t < n − c, or None;
    each length is expanded afresh and scanned over every program."""
    for n in range(t + 1):
        if brute_k_approx(machine, expansion_prefix(x, n), t) < n - c:
            return n
    return None


def brute_failing_runs(
    values: Sequence[Dyadic],
    first_stage: int | None,
    machine: PrefixMachine,
    c: int,
    horizon: int,
    start: int = 0,
) -> list[tuple[int, int, int | None]]:
    """(trigger stage, witness length n, release stage or None) of each run in
    which the real with these stage values, empty before first_stage (always
    when it is None), fails the constant, stage by stage from the start stage:
    at each nonempty stage with no open run, the least failing length opens
    one, and the first later stage whose length-n expansion has K_t ≥ n − c
    releases it and looks for a new run at that same stage."""
    runs: list[tuple[int, int, int | None]] = []
    trigger, n = start, None
    for t in range(start, horizon + 1):
        x = values[t]
        if n is not None:
            if brute_k_approx(machine, expansion_prefix(x, n), t) < n - c:
                continue
            runs.append((trigger, n, t))
            n = None
        if first_stage is not None and t >= first_stage:
            trigger, n = t, brute_least_failing_length(machine, x, c, t)
    if n is not None:
        runs.append((trigger, n, None))
    return runs


def greedy_expansion(q: Dyadic) -> str:
    """Digit-by-digit greedy binary expansion of q < 1, over q's exp digits:
    in lowest terms its last 1 is digit exp."""
    if q >= Dyadic(1, 0):
        raise InputError("q must lie in [0, 1)")
    bits = []
    rest = q
    for i in range(1, q.exp + 1):
        step = Dyadic.pow2(i)
        if step <= rest:
            bits.append("1")
            rest = rest - step
        else:
            bits.append("0")
    return "".join(bits)


def padding_holds(p: int, target: int) -> bool:
    """The padding inequality p − 2·⌊log₂ p⌋ ≥ target, checked directly."""
    if p < 1:
        return False
    return p - 2 * (p.bit_length() - 1) >= target


def _nodes(tree: Tree) -> list[str]:
    exits = tuple(tree.exits)
    return [w for w in _words_up_to(tree.depth) if not w.startswith(exits)]


def brute_nodes(tree: Tree) -> frozenset[str]:
    """Every string of length ≤ depth with no exit as a prefix."""
    return frozenset(_nodes(tree))


def node_set_paths(nodes: frozenset[str], d: int) -> tuple[str, ...]:
    """The length-d members of a prefix-closed node set, length-lexicographically."""
    return tuple(sorted(n for n in nodes if len(n) == d))


def node_set_dead_ends(nodes: frozenset[str], depth: int) -> tuple[str, ...]:
    """Members strictly below the depth bound with neither child a member,
    length-lexicographically."""
    out = [n for n in nodes if len(n) < depth and n + "0" not in nodes and n + "1" not in nodes]
    return tuple(sorted(out, key=lambda n: (len(n), n)))


def rightmost_path(tree: Tree, depth: int) -> str | None:
    """Depth-first search preferring the 1-child: the lexicographically
    greatest length-depth node, or None when the tree dies out early."""
    nodes = _nodes(tree)
    reach: set[str] = {n for n in nodes if len(n) == depth}
    for d in range(depth - 1, -1, -1):
        for n in nodes:
            if len(n) == d and (n + "0" in reach or n + "1" in reach):
                reach.add(n)

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
    return b
