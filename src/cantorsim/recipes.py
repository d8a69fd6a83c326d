"""Composed pipelines built from the primitive constructions.

Both recipes split a scripted family along a boundary, present each side as
a growing string-set family, and merge it with a canonically listed
injective side.  Sets are truncated at a length bound so everything is a
finite object under exact comparison; callers pick the bound large enough
that truncation never identifies two distinct family members (mirroring
the disjointness hypothesis of the merge combinator).

The injective side reaches the merge as two iterators: a listing of its
members in canonical order (`odd_ones_listing`, `odd_covering_listing`),
and, for a diverted follower's content, the members that contain it, in
order (`odd_ones_extensions`, `odd_covering_extensions`).  The merge reads
each only as far as it needs.

Inside the recipes and the merge, a word w is its integer key
int("1" + w, 2) (`dyadic.word_key`): ε is 1 and the n-bit word of value v
is 2ⁿ + v.  A longer word has a longer key, and at one length the keys
order as the values, so keys order exactly as the words do length-
lexicographically, and the merge sorts them by their own order.  The
length-n values [lo, hi) are the key range [2ⁿ + lo, 2ⁿ + hi), so every set
below is a union of ranges; the word of key k is format(k, "b")[1:],
printed `-` for ε (`dyadic.key_word`).  So the sets are sets of integers
that hash and sort in C, and no object is built per word.  The scripted side
enters the merge as blocks (stage, index, keys), one per index and stage at
which its set grows, and the recipes return the merge's row blocks, (stage,
slot, keys) in emission order, which `runs` prints as script lines
(`streams.key_row_lines`).  `run merge` reads its listed sets and script
into keys and calls the same merge.

The recipes compute with the arithmetic that fixes each set, and build a
set only where the merge consumes it:

- The lower cut of x truncated at length L is fixed by one integer,
  c = ⌈x·2^L⌉ (`streams.words_below`), and `streams.cut_keys` builds it
  from c; `streams.lower_cut` is its view as words.  Its length-n members
  are the n-bit values below ⌈c/2^(L−n)⌉, so two cuts at the same L nest
  exactly when their integers are ordered, and what a cut gains over a
  smaller one is, per length, the values between the two bounds.
- A string t of value v lies in the cut c exactly when |t| ≤ L and
  v·2^(L−|t|) < c.  So a set lies in every cut whose integer reaches one
  threshold, and the odd-ones extensions compare one integer per cut.
- A covered set is fixed by its reduced antichain, so a star snapshot whose
  family did not change adds nothing.  At length n a member of value v and
  length l covers the n-bit values [v·2^(n−l), (v+1)·2^(n−l)), so what a
  snapshot gains is, per length, its intervals minus the last family's
  (`dyadic.covered_deltas`).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .complexity import PrefixMachine
from .constructions import hat_m_construction, merge_rows, odd_ones_real_enumeration
from .coverings import covering_antichains, star_construction
from .dyadic import (
    Antichain,
    Dyadic,
    all_strings,
    covered_deltas,
    key_word,
    optimal_covering,
    rational_of_string,
)
from .streams import EnumerationScript, cut_keys, real_from_ce_set, words_below

__all__ = [
    "cut_deltas",
    "merge_boundary_reals",
    "merge_covering_classes",
    "odd_covering_extensions",
    "odd_covering_listing",
    "odd_ones_extensions",
    "odd_ones_listing",
]

Keys = frozenset[int]  # a set of words, by their keys
Row = tuple[int, int, Sequence[int]]  # (stage, slot or index, keys): one block
_NONE = Antichain(())


def cut_deltas(values: Iterable[Dyadic], length: int) -> Iterator[tuple[int, int]]:
    """(stage, key) for every string that the truncated lower cut of the
    stage-s value gains over the cut of the stage before (stage −1 has the
    empty cut), in increasing key order within a stage.

    With c' and c the cut integers of the two stages, the gain at length n
    is the n-bit values in [⌈c'/2^(L−n)⌉, ⌈c/2^(L−n)⌉).  When the value drops
    the intervals are empty, and the next stage is measured against the
    smaller cut.
    """
    prev = 0
    for s, x in enumerate(values):
        c = words_below(x.num, x.exp, length)
        if c > prev:
            for n in range(length + 1):
                base = 1 << n
                for k in range(base + words_below(prev, length, n), base + words_below(c, length, n)):
                    yield s, k
        prev = c


@lru_cache(maxsize=None)
def _odd_ones_table(length: int) -> tuple[int, ...]:
    """The cut integer c = ⌈x·2^L⌉ of each odd-ones real x whose string fits
    the bound, in listing order."""
    out = []
    for i in itertools.count():
        s = odd_ones_real_enumeration(i)
        if len(s) > length:
            return tuple(out)
        x = rational_of_string(s)
        out.append(words_below(x.num, x.exp, length))


@lru_cache(maxsize=None)
def _odd_ones_cut(length: int, i: int) -> Keys:
    """The i-th odd-ones cut, built on first use."""
    return cut_keys(_odd_ones_table(length)[i], length)


def odd_ones_listing(length: int) -> Iterator[Keys]:
    """The truncated lower cuts of the odd-ones reals whose strings fit the
    bound, in listing order."""
    for i in range(len(_odd_ones_table(length))):
        yield _odd_ones_cut(length, i)


def _least_cut_containing(content: Keys, length: int) -> int:
    """The least cut integer whose truncated cut contains the content: the
    largest v·2^(L−n) + 1 over its members of length n and value v, that is
    of key k = 2ⁿ + v, k·2^(L−n) − 2^L + 1.  No cut contains a member longer
    than L, so that asks for more than the largest cut integer, 2^L."""
    least = 0
    for k in content:
        shift = length + 1 - k.bit_length()
        if shift < 0:
            return (1 << length) + 1
        least = max(least, (k << shift) - (1 << length) + 1)
    return least


def odd_ones_extensions(length: int) -> Callable[[Keys], Iterator[Keys]]:
    """The odd-ones cuts, in listing order, that contain the content: the
    cuts whose integer reaches the content's threshold."""
    table = _odd_ones_table(length)

    def extensions(content: Keys) -> Iterator[Keys]:
        least = _least_cut_containing(content, length)
        for i, c in enumerate(table):
            if c >= least:
                yield _odd_ones_cut(length, i)

    return extensions


def merge_boundary_reals(
    script: EnumerationScript,
    machine: PrefixMachine,
    k: int,
    length: int,
    horizon: int,
    mirror: bool = False,
) -> list[Row]:
    """Run the boundary construction on every scripted member, present the
    traces as growing lower-cut sets, and merge them with the odd-ones
    listing; the merge's rows."""
    events: list[Row] = []
    for j, e in enumerate(script.indices()):
        m = real_from_ce_set(script, e)
        trace = hat_m_construction(m, machine, k, horizon, mirror=mirror)
        values = (trace.value_at(s) for s in range(horizon + 1))
        for s, block in itertools.groupby(cut_deltas(values, length), key=itemgetter(0)):
            events.append((s, j, tuple(key for _, key in block)))
    events.sort(key=itemgetter(0))  # stable: index order kept within a stage
    return merge_rows(odd_ones_listing(length), events, odd_ones_extensions(length), horizon)


def _covered(antichain: Antichain, length: int) -> Keys:
    """The keys of the strings of length ≤ the bound that the antichain
    covers."""
    return frozenset(covered_deltas(_NONE, antichain, length))


def odd_covering_listing(length: int) -> Iterator[Keys]:
    """The covered sets of the odd coverings within the bound, in canonical
    order, each built when the merge reads it."""
    within = itertools.takewhile(
        lambda a: a.total_bits() <= length, covering_antichains(odd=True)
    )
    return (_covered(a, length) for a in within)


def odd_covering_extensions(length: int) -> Callable[[Keys], Iterator[Keys]]:
    """Construct odd coverings extending the content directly.

    The empty content takes the odd coverings in canonical order while their
    members fit the bound.  Otherwise the content's own covering is refined
    by adjoining fresh uncovered nodes below the member depths: one node to
    fix an even parity, or a pair of incomparable non-sibling nodes to keep
    an odd one (siblings would merge into their parent and flip it).  So
    extensions exist whenever the content leaves an uncovered subtree within
    the length bound; contents that cover everything up to a bare chain
    genuinely exhaust the truncated family.
    """

    def extensions(content: Keys) -> Iterator[Keys]:
        if not content:
            for a in covering_antichains(odd=True):
                if any(len(m) > length for m in a.members):
                    return
                yield _covered(a, length)
        if max(content) >> length + 1:  # a member longer than the bound
            return
        base = optimal_covering(map(key_word, content))
        if base.members == ("",):
            yield _covered(base, length)
            return
        floor = max(len(m) for m in base.members)
        fresh = [
            t
            for d in range(floor + 1, length + 1)
            for t in all_strings(d)
            if not base.covers(t)
        ]
        if len(base) % 2 == 0:
            for delta in fresh:
                yield _covered(Antichain(base.members + (delta,)), length)
            return
        yield _covered(base, length)
        for i, a in enumerate(fresh):
            for b in fresh[i + 1 :]:
                if not (a.startswith(b) or b.startswith(a)) and a[:-1] != b[:-1]:
                    yield _covered(Antichain(base.members + (a, b)), length)

    return extensions


def merge_covering_classes(
    listings: Sequence[Sequence[str]],
    length: int,
    horizon: int,
    with_acceptable_stream: bool = True,
) -> list[Row]:
    """Star-construct each listing, present the snapshots as growing
    covered-string sets, optionally interleave one even-covering class per
    stage, and merge with the odd-covering listing; the merge's rows."""
    events: list[Row] = []
    for j, listing in enumerate(listings):
        family = _NONE
        for stage, snap in enumerate(star_construction(listing, horizon)):
            if snap.family != family:
                events.append((stage, j, covered_deltas(family, snap.family, length)))
                family = snap.family
    if with_acceptable_stream:
        base = len(listings)
        # index 0 is the empty antichain, whose class has no string events
        evens = itertools.islice(covering_antichains(odd=False), 1, horizon + 2)
        for stage, a in enumerate(evens):
            if a.total_bits() > length:
                break
            events.append((stage, base + stage, covered_deltas(_NONE, a, length)))
    # no empty block; stable: index order kept within a stage
    events = sorted(filter(itemgetter(2), events), key=itemgetter(0))
    return merge_rows(
        odd_covering_listing(length), events, odd_covering_extensions(length), horizon
    )
