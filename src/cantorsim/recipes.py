"""Composed pipelines built from the primitive constructions.

Both recipes split a scripted family along a boundary, present each side as
a growing string-set family, and merge it with a canonically listed
injective side.  Sets are truncated at a length bound so everything is a
finite object under exact comparison; callers pick the bound large enough
that truncation never identifies two distinct family members (mirroring
the disjointness hypothesis of the merge combinator).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .complexity import PrefixMachine
from .constructions import (
    SetValue,
    friedberg_merge,
    hat_m_construction,
    odd_ones_real_enumeration,
)
from .coverings import (
    covered_up_to,
    covering_antichains,
    even_covering_family,
    odd_covering_family,
    star_construction,
)
from .dyadic import Antichain, BitString, all_strings, optimal_covering, rational_of_string
from .errors import ContractViolationError
from .streams import EnumerationScript, lower_cut, real_from_ce_set

__all__ = [
    "merge_boundary_reals",
    "merge_covering_classes",
    "odd_ones_listing",
    "odd_ones_picker",
    "odd_covering_listing",
    "odd_covering_picker",
]


def _odd_ones_cuts(length: int) -> list[SetValue]:
    """Truncated lower cuts of the odd-ones reals whose strings fit the bound."""
    out: list[SetValue] = []
    i = 0
    while True:
        s = odd_ones_real_enumeration(i)
        if len(s) > length:
            break
        out.append(lower_cut(rational_of_string(s), length))
        i += 1
    return out


def odd_ones_listing(length: int) -> Callable[[int], SetValue]:
    cuts = _odd_ones_cuts(length)

    def generator(i: int) -> SetValue:
        if i >= len(cuts):
            raise IndexError(i)
        return cuts[i]

    return generator


def odd_ones_picker(length: int) -> Callable[[SetValue, int], SetValue]:
    cuts = _odd_ones_cuts(length)

    def picker(content: SetValue, attempt: int) -> SetValue:
        extensions = [c for c in cuts if content <= c]
        if attempt >= len(extensions):
            raise ContractViolationError(
                f"no odd-ones extension of a {len(content)}-string set within length {length}"
            )
        return extensions[attempt]

    return picker


def merge_boundary_reals(
    script: EnumerationScript,
    machine: PrefixMachine,
    k: int,
    length: int,
    horizon: int,
    mirror: bool = False,
) -> EnumerationScript:
    """Run the boundary construction on every scripted member, present the
    traces as growing lower-cut sets, and merge them with the odd-ones
    listing."""
    events: list[tuple[int, int, BitString]] = []
    for j, e in enumerate(script.indices()):
        m = real_from_ce_set(script, e)
        trace = hat_m_construction(m, machine, k, horizon, mirror=mirror)
        seen: frozenset[BitString] = frozenset()
        for s in range(horizon + 1):
            cut = lower_cut(trace.value_at(s), length)
            for item in sorted(cut - seen, key=lambda b: b.lenlex_key):
                events.append((s, j, item))
            seen = cut
    l2 = EnumerationScript.from_events(events, horizon)
    return friedberg_merge(odd_ones_listing(length), l2, odd_ones_picker(length), horizon)


def _odd_coverings_within(length: int) -> list:
    """Odd coverings in canonical order while the total bit-length fits."""
    out = []
    for a in covering_antichains(odd=True):
        if a.total_bits() > length:
            break
        out.append(a)
    return out


def odd_covering_listing(length: int) -> Callable[[int], SetValue]:
    values = [covered_up_to(a, length) for a in _odd_coverings_within(length)]

    def generator(i: int) -> SetValue:
        if i >= len(values):
            raise IndexError(i)
        return values[i]

    return generator


def odd_covering_picker(length: int) -> Callable[[SetValue, int], SetValue]:
    """Construct odd coverings extending the content directly.

    The content's own covering is refined by adjoining fresh uncovered
    nodes below the member depths (one node to fix parity, pairs to keep
    it), so extensions exist whenever the content leaves an uncovered
    subtree within the length bound.  Contents that cover everything up to
    a bare chain genuinely exhaust the truncated family, and the picker
    reports that honestly.
    """

    def picker(content: SetValue, attempt: int) -> SetValue:
        if not content:
            a = odd_covering_family(attempt)
            if any(len(m) > length for m in a.members):
                raise ContractViolationError(
                    f"odd coverings within length {length} exhausted"
                )
            return covered_up_to(a, length)
        base = optimal_covering(content)
        if any(len(m) > length for m in base.members):
            raise ContractViolationError("content deeper than the length bound")
        variants: list[Antichain] = []
        if base.members == (BitString(""),):
            variants.append(base)
        else:
            floor = max(len(m) for m in base.members)
            fresh = [
                t
                for d in range(floor + 1, length + 1)
                for t in all_strings(d)
                if not base.covers(t)
            ]
            if len(base) % 2 == 1:
                variants.append(base)
                for i, a in enumerate(fresh):
                    for b in fresh[i + 1 :]:
                        if not a.comparable(b):
                            variants.append(Antichain(base.members + (a, b)))
            else:
                for delta in fresh:
                    variants.append(Antichain(base.members + (delta,)))
        if attempt >= len(variants):
            raise ContractViolationError(
                f"no fresh odd-covering extension of a {len(content)}-string set"
                f" within length {length}"
            )
        return covered_up_to(variants[attempt], length)

    return picker


def merge_covering_classes(
    listings: Sequence[Sequence[BitString]],
    length: int,
    horizon: int,
    with_acceptable_stream: bool = True,
) -> EnumerationScript:
    """Star-construct each listing, present the snapshots as growing
    covered-string sets, optionally interleave one even-covering class per
    stage, and merge with the odd-covering listing."""
    events: list[tuple[int, int, BitString]] = []
    for j, listing in enumerate(listings):
        snaps = star_construction(listing, horizon)
        seen: frozenset[BitString] = frozenset()
        for snap in snaps:
            cur = covered_up_to(snap.family, length)
            for item in sorted(cur - seen, key=lambda b: b.lenlex_key):
                events.append((snap.stage, j, item))
            seen = cur
    if with_acceptable_stream:
        base = len(listings)
        # index 0 is the empty antichain, whose class has no string events
        i = 1
        stage = 0
        while stage <= horizon:
            a = even_covering_family(i)
            i += 1
            if a.total_bits() > length:
                break
            for item in sorted(covered_up_to(a, length), key=lambda b: b.lenlex_key):
                events.append((stage, base + stage, item))
            stage += 1
    l2 = EnumerationScript.from_events(events, horizon)
    return friedberg_merge(
        odd_covering_listing(length), l2, odd_covering_picker(length), horizon
    )
