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
from typing import Iterable, Iterator, Sequence

from .dyadic import (
    Antichain,
    BitString,
    filter_closure,
    is_acceptable,
    optimal_covering,
    strings_up_to,
)
from .errors import DomainError, ParseError, RangeError, records

__all__ = [
    "StarSnapshot",
    "covered_up_to",
    "covering_antichains",
    "even_covering_family",
    "good_stage",
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
    consumed: tuple[BitString, ...]
    covering: Antichain
    family: Antichain
    good_stages: tuple[int, ...]


def good_stage(consumed: Iterable[BitString], sigma: BitString) -> bool:
    """sigma is longer than every member of the current covering and
    extends none of them."""
    cov = optimal_covering(consumed)
    return _good(cov, sigma)


def _good(cov: Antichain, sigma: BitString) -> bool:
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
    consumed: list[BitString] = []
    family = Antichain(())
    goods: list[int] = []
    for n, sigma in enumerate(listing):
        if n > horizon:
            break
        cov = optimal_covering(consumed)
        ok = _good(cov, sigma)
        case = "-"
        if ok:
            goods.append(n)
            if is_acceptable(consumed):
                case = "a"
                family = filter_closure(cov.members)
            else:
                case = "b"
                family = filter_closure(tuple(cov.members) + (sigma,))
        snaps.append(
            StarSnapshot(
                stage=n,
                sigma=sigma,
                good=ok,
                case=case,
                consumed=tuple(consumed),
                covering=cov,
                family=family,
                good_stages=tuple(goods),
            )
        )
        consumed.append(sigma)
    return snaps


def covered_up_to(antichain: Antichain, depth: int) -> frozenset[BitString]:
    """Members of the represented filter-closed set up to the given length."""
    member_bits = {m.bits for m in antichain.members}
    return frozenset(
        t
        for t in strings_up_to(depth)
        if any(t.bits[:i] in member_bits for i in range(len(t.bits) + 1))
    )


def _antichain_cost(members: tuple[str, ...], depth: int) -> int:
    return sum(depth + len(x) for x in members)


@lru_cache(maxsize=None)
def _cone_antichains(depth: int, budget: int) -> tuple[tuple[str, ...], ...]:
    """Reduced antichains of suffixes below a node at the given depth whose
    total absolute bit-length stays within the budget."""
    out: list[tuple[str, ...]] = [()]
    if depth <= budget:
        out.append(("",))
    if depth < budget:
        kids = _cone_antichains(depth + 1, budget)
        for a0 in kids:
            c0 = _antichain_cost(a0, depth + 1)
            if c0 > budget:
                continue
            for a1 in kids:
                if not a0 and not a1:
                    continue
                if a0 == ("",) and a1 == ("",):
                    continue  # sibling pair would merge into the parent
                if c0 + _antichain_cost(a1, depth + 1) > budget:
                    continue
                members = tuple(
                    sorted(
                        ["0" + x for x in a0] + ["1" + x for x in a1],
                        key=lambda b: (len(b), b),
                    )
                )
                out.append(members)
    return tuple(out)


@lru_cache(maxsize=None)
def _families_with_total_bits(total: int) -> tuple[Antichain, ...]:
    found = [
        a
        for a in _cone_antichains(0, total)
        if _antichain_cost(a, 0) == total
    ]
    found.sort(key=lambda a: tuple((len(b), b) for b in a))
    return tuple(Antichain(tuple(BitString(b) for b in a)) for a in found)


def covering_antichains(odd: bool) -> Iterator[Antichain]:
    """All reduced antichains of the requested parity, ordered by total
    bit-length and then by member keys; every reduced antichain is the
    optimal covering of itself, so this enumerates exactly the coverings of
    that parity."""
    for total in itertools.count(0):
        for a in _families_with_total_bits(total):
            if len(a) % 2 == (1 if odd else 0):
                yield a


def odd_covering_family(i: int) -> Antichain:
    """The i-th odd-cardinality covering in canonical order; injective."""
    if i < 0:
        raise DomainError("index must be ≥ 0")
    return next(itertools.islice(covering_antichains(odd=True), i, None))


def even_covering_family(i: int) -> Antichain:
    """The i-th even-cardinality covering in canonical order (index 0 is the
    empty antichain); injective."""
    if i < 0:
        raise DomainError("index must be ≥ 0")
    return next(itertools.islice(covering_antichains(odd=False), i, None))
