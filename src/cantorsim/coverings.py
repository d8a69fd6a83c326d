"""Good stages, the star construction, and canonical antichain families.

The star construction turns an arbitrary listing of a filter-closed set's
members into a stage sequence of antichain representatives whose generating
families always have even-cardinality coverings, so the output never
collides with the odd-covering side of the merge.

The covering families, the reduced antichains (prefix-free, no two siblings),
are listed by total bit-length, then by their sorted (length, bits) member
keys.  A count table, filled on first use, holds the number N(d, t, p) of them
below a depth-d node with lengths summing to t and parity p: the empty one,
the node, and for t > d the splits t0 + t1, p0 ⊕ p1 between the children, but
for both children: Σ N(d+1, t0, p0)·N(d+1, t1, p1) − [t = 2d + 2, p = 0].
Binomial sums over it count the completions of members chosen up to a key.
The generator picks members in key order and drops a branch whose count is 0,
one failed count per length at most, so a family costs time polynomial in its
total; the unranking binary-searches each member's key, O(t) counts a member
at total t, and lists nothing.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import lru_cache
from math import comb
from typing import Iterator, NamedTuple, Sequence

from .dyadic import Antichain, covered_up_to, grow_covering, parse_words, trusted_antichain
from .errors import DomainError, RangeError

__all__ = [
    "StarSnapshot",
    "covered_up_to",
    "covering_antichains",
    "even_covering_family",
    "load_listing",
    "odd_covering_family",
    "parse_listing",
    "star_construction",
]


def parse_listing(text: str, source: str = "<listing>") -> tuple[str, ...]:
    """One string per line, in enumeration order; '#' starts a comment."""
    return tuple(parse_words(text, source))


def load_listing(path: str) -> tuple[str, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_listing(fh.read(), source=path)


class StarSnapshot(NamedTuple):
    """What the star construction decided at stage s, its index among the
    snapshots, on examining the listing's element s: the case, 'a', 'b', or
    '-' when the stage is not good and skipped, and the family after it."""

    case: str
    family: Antichain

    @property
    def good(self) -> bool:
        return self.case != "-"


def star_construction(listing: Sequence[str], horizon: int) -> list[StarSnapshot]:
    """Replay the listing.  At a good stage, where sigma is longer than every
    member of the consumed listing's covering and extends none, the family is
    that covering if even, the prefix being acceptable (case a), else the one
    with sigma adjoined (case b); other stages change nothing."""
    if horizon < 0:
        raise RangeError("horizon must be ≥ 0")
    snaps: list[StarSnapshot] = []
    cov = family = Antichain(())
    for sigma in listing[: horizon + 1]:
        grown = grow_covering(cov, sigma)
        case = "-"
        if all(len(sigma) > len(t) for t in cov) and not cov.covers(sigma):
            case, family = ("a", cov) if len(cov) % 2 == 0 else ("b", grown)
        snaps.append(StarSnapshot(case, family))
        cov = grown
    return snaps


@lru_cache(maxsize=None)
def _count(depth: int, total: int, odd: int) -> int:
    """N(depth, total, parity) of the module docstring."""
    n = (total == 0 and not odd) + (total == depth and odd)
    if total > depth:
        n += _spread(depth + 1, total, odd, 0, 2, 0) - (total == 2 * depth + 2 and not odd)
    return n


@lru_cache(maxsize=None)
def _spread(level: int, total: int, odd: int, cones: int, free: int, pairs: int) -> int:
    """The ways to share the total and parity among `cones` nonempty
    antichains strictly below a level node, `free` antichains at or below one
    and `pairs` nonempty ones below a sibling pair of level nodes."""
    if cones:
        depth, first, rest = level, level + 1, (cones - 1, free, pairs)
    elif free:
        depth, first, rest = level, 0, (0, free - 1, pairs)
    elif pairs:
        depth, first, rest = level - 1, level, (0, 0, pairs - 1)
    else:
        return int(not total and not odd)
    return sum(
        _count(depth, t, p) * _spread(level, total - t, odd ^ p, *rest)
        for t, p in itertools.product(range(first, total + 1), (0, 1))
    )


@lru_cache(maxsize=1 << 12)  # the unranking's searches share their first steps
def _completions(members: tuple, g: int, total: int, odd: int) -> int:
    """The families that add the total and parity to the members, (length,
    value) pairs, by keys g and later; (l, v) has key 2^l − 1 + v.  Passed
    free level nodes add their cones without themselves, a node whose sibling
    passed adds N(level), and each pair ahead adds its parent's cone."""
    level = (g + 1).bit_length() - 1
    v = g + 1 - (1 << level)
    spans = [(u << level - l, u + 1 << level - l) for l, u in members if l < level]

    def covered(x: int) -> int:  # the level nodes left of x below a shorter member
        return sum(max(0, min(hi, x) - lo) for lo, hi in spans)

    cones, free, start = v - covered(v) - sum(l == level for l, _ in members), 0, v + v % 2
    if start > v and covered(start) == covered(v):
        cones, free = (cones + 1, 0) if (level, v - 1) in members else (cones, 1)
    pairs = ((1 << level) - start - covered(1 << level) + covered(start)) // 2
    return sum(
        comb(cones, k) * comb(pairs, j) * _spread(level, total, odd, k, free, j)
        for k in range(min(cones, total // (level + 1)) + 1)
        for j in range(min(pairs, total // level) + 1)
    )


def _free(members: tuple, level: int, u: int) -> Iterator[int]:
    """The level nodes from u on that extend no member and have no member sibling."""
    cones = sorted((w << level - l, w + 1 << level - l) for l, w in members if l < level)
    for lo, hi in cones + [(1 << level, 0)]:
        yield from (w for w in range(u, lo) if (level, w ^ 1) not in members)
        u = max(u, hi)


def _extend(members: tuple, words: tuple, level: int, v: int, total: int, odd: int) -> Iterator[tuple]:
    """The completions of the members, as words, by keys from (level, v) on,
    in order; ε, the one key of level 0, is a member only alone, at total 0."""
    if not total and not odd:
        yield words
    for lev in range(level, total + 1):
        rest = total - lev
        if 0 < rest < lev:  # the members after one of lev bits have lev bits or more
            continue
        free = _free(members, lev, v if lev == level else 0)
        if not rest:
            yield from (words + (_word(lev, u),) for u in free) if odd else ()
            continue
        for u in free:
            more = members + ((lev, u),)
            if not _completions(more, (1 << lev) + u, rest, odd ^ 1):
                break
            yield from _extend(more, words + (_word(lev, u),), lev, u + 1, rest, odd ^ 1)


def _word(level: int, u: int) -> str:
    return format(u, f"0{level}b") if level else ""


def covering_antichains(odd: bool) -> Iterator[Antichain]:
    """All reduced antichains of the parity in canonical order: as each is its
    own optimal covering, exactly the coverings of that parity.  Members come
    in key order, which is length-lexicographic, so none is re-checked."""
    for total in itertools.count():
        yield from map(trusted_antichain, _extend((), (), 0, 0, total, odd))


def _covering_family(i: int, odd: int) -> Antichain:
    """The i-th entry of covering_antichains(odd), from the counts alone."""
    if i < 0:
        raise DomainError("index must be ≥ 0")
    total = 0
    while i >= (n := _count(0, total, odd)):
        i, total = i - n, total + 1
    members, lo = ((0, 0),) if not total and odd else (), 1
    while total:  # the next member is the last key m with a count to it ≤ i
        keys, base = range(lo, (2 << total) - 1), _completions(members, lo, total, odd)
        m = keys[bisect_right(keys, i, key=lambda g: base - _completions(members, g, total, odd)) - 1]
        i -= base - _completions(members, m, total, odd)
        l = (m + 1).bit_length() - 1
        members += ((l, m + 1 - (1 << l)),)
        total, odd, lo = total - l, odd ^ 1, m + 1
    return trusted_antichain(tuple(_word(l, u) for l, u in members))


def odd_covering_family(i: int) -> Antichain:
    """The i-th odd-cardinality covering in canonical order; injective."""
    return _covering_family(i, odd=True)


def even_covering_family(i: int) -> Antichain:
    """The i-th even-cardinality covering in canonical order; injective."""
    return _covering_family(i, odd=False)
