"""Good stages, the star construction, and canonical antichain families.

The star construction turns an arbitrary listing of a filter-closed set's
members into a stage sequence of antichain representatives whose generating
families always have even-cardinality coverings, so the output never
collides with the odd-covering side of the merge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .dyadic import Antichain, BitString, all_strings, optimal_covering
from .errors import DomainError, ParseError, RangeError, records

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


def parse_listing(text: str, source: str = "<listing>") -> tuple[BitString, ...]:
    """One string per line, in enumeration order; '#' starts a comment."""
    out: list[BitString] = []
    for lineno, (line,) in records(text, sep=None):
        try:
            out.append(BitString.parse(line))
        except DomainError as exc:
            raise ParseError(str(exc), source=source, line=lineno)
    return tuple(out)


def load_listing(path: str) -> tuple[BitString, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_listing(fh.read(), source=path)


@dataclass(frozen=True)
class StarSnapshot:
    """State after examining listing element sigma at the given stage."""

    stage: int
    sigma: BitString
    good: bool
    case: str  # 'a', 'b', or '-' when the stage is skipped
    covering: Antichain  # of the listing before sigma
    family: Antichain
    good_stages: tuple[int, ...]


def _good(cov: Antichain, sigma: BitString) -> bool:
    """A good stage: sigma is longer than every member of the covering of
    the consumed listing and extends none of them."""
    return all(len(sigma) > len(t) for t in cov) and not any(
        t.is_prefix_of(sigma) for t in cov
    )


def star_construction(
    listing: Sequence[BitString], horizon: int
) -> list[StarSnapshot]:
    """Replay the listing: on a good stage, keep the covering's closure when
    the consumed prefix is acceptable (case a), else adjoin the new element
    first (case b); other stages change nothing."""
    if horizon < 0:
        raise RangeError("horizon must be ≥ 0")
    snaps: list[StarSnapshot] = []
    cov = family = Antichain(())
    goods: list[int] = []
    for n, sigma in enumerate(listing):
        if n > horizon:
            break
        grown = optimal_covering(cov.members + (sigma,))
        ok = _good(cov, sigma)
        case = "-"
        if ok:
            goods.append(n)
            if len(cov) % 2 == 0:  # the consumed prefix is acceptable
                case = "a"
                family = cov  # a reduced antichain is its own covering
            else:
                case = "b"
                family = grown
        snaps.append(
            StarSnapshot(
                stage=n,
                sigma=sigma,
                good=ok,
                case=case,
                covering=cov,
                family=family,
                good_stages=tuple(goods),
            )
        )
        cov = grown
    return snaps


def covered_up_to(antichain: Antichain, depth: int) -> frozenset[BitString]:
    """Members of the represented filter-closed set up to the given length.

    A member m with binary value v covers, at each length n from |m| to the
    depth, exactly the n-bit values in [v·2^(n−|m|), (v+1)·2^(n−|m|)).
    """
    out: set[BitString] = set()
    for m in antichain.members:
        v = int("0" + m.bits, 2)
        for n in range(len(m), depth + 1):
            shift = n - len(m)
            out.update(all_strings(n, v << shift, (v + 1) << shift))
    return frozenset(out)


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


def covering_antichains(odd: bool) -> Iterator[Antichain]:
    """All reduced antichains of the requested parity, ordered by total
    bit-length and then by member keys; every reduced antichain is the
    optimal covering of itself, so this enumerates exactly the coverings of
    that parity."""
    for total in itertools.count(0):
        yield from _parity_families(total, odd)


@lru_cache(maxsize=None)
def _parity_families(total: int, odd: bool) -> tuple[Antichain, ...]:
    """The families with the given total bit-length and cardinality parity,
    in canonical order: sorted by their members' (length, bits) keys."""
    keys = sorted(
        tuple(sorted((len(b), b) for b in a))
        for a in _cone_antichains(0, total)
        if len(a) % 2 == odd
    )
    return tuple(Antichain(tuple(BitString(b) for _, b in key)) for key in keys)


def _covering_family(i: int, odd: bool) -> Antichain:
    """The i-th entry of covering_antichains(odd), read from the cached
    per-total listings: subtract each total's count until i falls inside one.
    Every total up to the answer's is listed once per process, and a call
    then walks at most that many counts."""
    if i < 0:
        raise DomainError("index must be ≥ 0")
    total = 0
    while i >= len(families := _parity_families(total, odd)):
        i -= len(families)
        total += 1
    return families[i]


def odd_covering_family(i: int) -> Antichain:
    """The i-th odd-cardinality covering in canonical order; injective.

    The coverings of one total bit-length t are finitely many, so index i
    lies in the listing of the least t whose running count of odd coverings
    exceeds i; no enumeration restarts at index 0."""
    return _covering_family(i, odd=True)


def even_covering_family(i: int) -> Antichain:
    """The i-th even-cardinality covering in canonical order (index 0 is the
    empty antichain); injective.  Indexed like odd_covering_family, through
    the running count of even coverings per total bit-length."""
    return _covering_family(i, odd=False)
