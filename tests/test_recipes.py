"""The recipes' arithmetic against the set-based references in oracles.

The recipes carry one integer per truncated lower cut, emit each stage's
new strings from intervals, and find odd-ones extensions by comparing
integers.  The references build every cut as a set of strings on the
rational side and take set differences and set inclusions, and merge plain
words through the item-at-a-time loop `oracles.brute_merge_rows`, which
`constructions.merge_rows` must match on the same blocks as keys.  The
recipes and the merge hold each word as its integer key; every comparison
here goes through the one conversion, `dyadic.word_key` and
`dyadic.key_word`.
"""

from __future__ import annotations

import itertools
import random
from operator import itemgetter

import pytest

from cantorsim.complexity import PrefixMachine
from cantorsim.constructions import hat_m_construction, merge_rows
from cantorsim.coverings import (
    covered_up_to,
    covering_antichains,
    odd_covering_family,
    parse_listing,
    star_construction,
)
from cantorsim.draws import (
    random_dyadic_script, random_dyadic_trace, random_listing, random_machine, random_string_set,
)
from cantorsim.dyadic import (
    ONE,
    ZERO,
    Antichain,
    BitString,
    Dyadic,
    key_word,
    optimal_covering,
    rational_of_string,
    word_key,
)
from cantorsim.errors import CantorsimError
from cantorsim.oracles import (
    brute_lower_cut,
    brute_merge_rows,
    brute_odd_ones,
    inclusion_odd_ones_extensions,
    set_difference_deltas,
)
from cantorsim import recipes
from cantorsim.recipes import (
    cut_deltas,
    odd_covering_extensions,
    odd_covering_listing,
    odd_ones_extensions,
    odd_ones_listing,
)
from cantorsim.runs import replay
from cantorsim.scenarios import FIXTURE_FILES
from cantorsim.streams import EnumerationScript, ScriptEvent, event_blocks, real_from_ce_set
from test_golden import INPUTS


def words(keys):
    """The set of words of a set of keys."""
    return frozenset(map(key_word, keys))


def keys(strings):
    """The set of keys of a set of words."""
    return frozenset(map(word_key, strings))


def keyed(extensions):
    """An extensions callable on keys, called and read on words."""
    return lambda content: map(words, extensions(keys(content)))


def on_keys(extensions):
    """An extensions callable on words, called and read on keys."""
    return lambda content: map(keys, extensions(words(content)))


def word_deltas(values, length):
    return [(s, key_word(k)) for s, k in cut_deltas(values, length)]


class TestCutDeltas:
    def test_match_the_set_differences_on_random_traces(self):
        rng = random.Random(41)
        drops = 0
        for _ in range(300):
            values = random_dyadic_trace(rng)
            length = rng.randint(0, 7)
            drops += any(b < a for a, b in zip(values, values[1:]))
            assert word_deltas(values, length) == set_difference_deltas(values, length)
        assert drops > 100

    def test_smallest_non_monotone_boundary_trace(self):
        # Code 00 outputs 00 at stage 0, so Ω_0 = 1/4.  With k = 2 and input
        # 1/8 then 1/4, the trace goes 1/2^3 and then 00*Ω@1, which is 1/16.
        machine = PrefixMachine.parse("00\t00\t0\n")
        script = EnumerationScript.parse("0\t0\tdyadic\t1/2^3\n1\t0\tdyadic\t1/2^2\n", horizon=3)
        trace = hat_m_construction(real_from_ce_set(script, 0), machine, 2, 3)
        values = [trace.value_at(s) for s in range(4)]
        assert values == [Dyadic(1, 3)] + [Dyadic(1, 4)] * 3
        for length in range(8):
            assert word_deltas(values, length) == set_difference_deltas(values, length)
        assert {s for s, _ in cut_deltas(values, 4)} == {0}

    def test_a_drop_then_a_rise_is_measured_from_the_smaller_cut(self):
        values = [Dyadic(3, 2), Dyadic(1, 2), Dyadic(1, 1)]
        got = [(s, t or "-") for s, t in word_deltas(values, 2)]
        assert got == [
            (0, "-"), (0, "0"), (0, "1"), (0, "00"), (0, "01"), (0, "10"),
            (2, "01"),
        ]

    def test_zero_and_one(self):
        assert list(cut_deltas([ZERO, ZERO], 3)) == []
        assert [t for _, t in word_deltas([ZERO, ONE], 3)] == sorted(
            brute_lower_cut(ONE, 3), key=lenlex
        )


def first(extensions, content, count=5):
    return list(itertools.islice(extensions(content), count))


class TestOddOnesPicker:
    @pytest.mark.parametrize("length", range(8))
    def test_matches_the_inclusion_picker(self, length):
        rng = random.Random(43 + length)
        fast, reference = keyed(odd_ones_extensions(length)), inclusion_odd_ones_extensions(length)
        contents = [
            frozenset(),
            frozenset({BitString("")}),
            frozenset({BitString("1" * (length + 1))}),
            frozenset({BitString("0"), BitString("0" * (length + 2))}),
        ] + [random_string_set(rng, length + 1, 5) for _ in range(60)]
        for content in contents:
            assert first(fast, content) == first(reference, content)

    def test_a_member_longer_than_the_bound_has_no_extension(self):
        content = frozenset({BitString("0"), BitString("0000")})
        assert first(keyed(odd_ones_extensions(3)), content) == []

    def test_listing_is_the_cuts_of_the_odd_ones_reals(self):
        want = [brute_lower_cut(rational_of_string(s), 5) for s in brute_odd_ones(5)]
        assert list(map(words, odd_ones_listing(5))) == want

    def test_a_cut_is_built_only_when_asked(self, monkeypatch):
        built = []

        def counting_cut(c, max_len):
            built.append(c)
            return frozenset(map(word_key, brute_lower_cut(Dyadic(c, max_len), max_len)))

        monkeypatch.setattr(recipes, "cut_keys", counting_cut)
        recipes._odd_ones_cut.cache_clear()
        listing = odd_ones_listing(9)
        extensions = odd_ones_extensions(9)(frozenset({word_key(BitString("1"))}))
        assert built == []
        next(listing)
        assert len(built) == 1
        next(extensions)
        next(extensions)
        assert len(built) == 3
        recipes._odd_ones_cut.cache_clear()


def antichain(members: str) -> Antichain:
    return Antichain(tuple(BitString.parse(m) for m in members.split(",")))


class TestOddCoveringExtensions:
    @pytest.mark.parametrize("length", range(7))
    def test_values_are_distinct_odd_coverings_extending_the_content(self, length):
        rng = random.Random(47 + length)
        contents = [frozenset(), frozenset({BitString("")})]
        contents += [random_string_set(rng, length, 4, 1) for _ in range(30)]
        for content in contents:
            values = first(keyed(odd_covering_extensions(length)), content, 40)
            assert len(set(values)) == len(values)
            for value in values:
                assert content <= value
                covering = optimal_covering(value)
                assert len(covering) % 2 == 1
                assert all(len(m) <= length for m in covering)
                assert covered_up_to(covering, length) == value

    @pytest.mark.parametrize(
        "length, content, want",
        [
            (4, "", "-|0|1|00|01|10"),
            (4, "0 10", "0,10,110|0,10,111|0,10,1100|0,10,1101|0,10,1110|0,10,1111"),
            (5, "00 11", "00,11,010|00,11,011|00,11,100|00,11,101|00,11,0100|00,11,0101"),
            (3, "1 01", "1,01,000|1,01,001"),
            (2, "-", "-"),
            (3, "0 1", "-"),
        ],
    )
    def test_first_values(self, length, content, want):
        content = frozenset(BitString.parse(t) for t in content.split())
        got = first(keyed(odd_covering_extensions(length)), content, 6)
        assert got == [covered_up_to(antichain(a), length) for a in want.split("|")]

    def test_siblings_are_not_adjoined_to_an_odd_covering(self):
        # {00, 01} would merge into 0 and leave the even covering {0, 1}
        values = first(keyed(odd_covering_extensions(2)), frozenset({BitString("1")}), 10)
        assert values == [covered_up_to(antichain("1"), 2)]

    def test_a_member_longer_than_the_bound_has_no_extension(self):
        content = frozenset({BitString("0000"), BitString("0001")})
        assert first(keyed(odd_covering_extensions(3)), content) == []


def outcome(produce):
    """The lines produced, or the package error raised, as (type, message)."""
    try:
        return produce()
    except CantorsimError as exc:
        return type(exc).__name__, str(exc)


def machine_text(machine):
    return "".join(f"{p.code or '-'}\t{p.output or '-'}\t{p.halt_stage}\n"
                   for p in machine.programs)


def boundary_inputs(script, machine, k, length, horizon, mirror):
    """The boundary merge's input through sets of strings: each trace's cuts
    by set difference, and the odd-ones cuts and their inclusions from the
    oracles; (listing factory, stage-sorted events, extensions) in plain
    words."""
    events = []
    for j, e in enumerate(script.indices()):
        trace = hat_m_construction(real_from_ce_set(script, e), machine, k, horizon, mirror=mirror)
        values = [trace.value_at(s) for s in range(horizon + 1)]
        events.extend((s, j, t) for s, t in set_difference_deltas(values, length))
    events.sort(key=itemgetter(0))  # stable: index order kept within a stage
    cuts = [brute_lower_cut(rational_of_string(s), length) for s in brute_odd_ones(length)]
    return (lambda: cuts), events, inclusion_odd_ones_extensions(length)


def covering_inputs(listings, length, horizon, stream):
    """The covering merge's input through sets of strings: each snapshot's
    covered set minus the last one's, the acceptable stream's covered sets,
    and the odd-covering sets read as words; (listing factory, stage-sorted
    events, extensions) in plain words."""
    events = []
    for j, listing in enumerate(listings):
        seen = frozenset()
        for stage, snap in enumerate(star_construction(listing, horizon)):
            cur = covered_up_to(snap.family, length)
            gained = sorted(cur - seen, key=lenlex)
            events.extend((stage, j, t) for t in gained)
            seen = cur
    if stream:
        evens = itertools.islice(covering_antichains(odd=False), 1, horizon + 2)
        for stage, a in enumerate(evens):
            if a.total_bits() > length:
                break
            covered = sorted(covered_up_to(a, length), key=lenlex)
            events.extend((stage, len(listings) + stage, t) for t in covered)
    events.sort(key=itemgetter(0))  # stable: index order kept within a stage
    return (
        lambda: map(words, odd_covering_listing(length)),
        events,
        keyed(odd_covering_extensions(length)),
    )


def script_lines(rows):
    """The script lines of output rows (stage, slot, word)."""
    return [f"{s}\t{j}\tstr\t{w or '-'}" for s, j, w in rows]


def lenlex(word):
    return len(word), word


def same_merge(listing, events, extensions, horizon):
    """`brute_merge_rows` on the events, having asserted that `merge_rows` on
    the events' blocks, as keys, gives its rows once flattened and read as
    words, none empty, or raises the package error it raises."""

    def blocked():
        rows = merge_rows(map(keys, listing()), event_blocks(map(ScriptEvent._make, events)), on_keys(extensions), horizon)
        assert all(items for _, _, items in rows)
        return [(s, j, key_word(k)) for s, j, items in rows for k in items]

    try:
        want = brute_merge_rows(listing(), events, extensions, horizon)
    except CantorsimError as exc:
        assert outcome(blocked) == (type(exc).__name__, str(exc))
        raise
    assert outcome(blocked) == want
    return want


def boundary_reference(script, machine, k, length, horizon, mirror):
    """The boundary merge's lines through `oracles.brute_merge_rows`, which
    `merge_rows` matches on the same input."""
    listing, events, extensions = boundary_inputs(script, machine, k, length, horizon, mirror)
    return script_lines(same_merge(listing, events, extensions, horizon))


def covering_reference(listings, length, horizon, stream):
    """The covering merge's lines through `oracles.brute_merge_rows`, which
    `merge_rows` matches on the same input."""
    listing, events, extensions = covering_inputs(listings, length, horizon, stream)
    return script_lines(same_merge(listing, events, extensions, horizon))


def listing_text(listing):
    return "".join((t or "-") + "\n" for t in listing)


class TestRecipes:
    def test_boundary_merge_matches_the_set_pipeline(self):
        # The golden recipe inputs, at a shorter length than the golden's.
        length, horizon = 6, 30
        script = EnumerationScript.parse(INPUTS["script.tsv"], horizon=horizon)
        machine = PrefixMachine.parse(INPUTS["machine.tsv"])
        argv = ["run", "friedberg-reals", "--script", "script.tsv", "--machine", "machine.tsv",
                "--k", "3", "--len", str(length), "--horizon", str(horizon)]
        for mirror in (False, True):
            want = boundary_reference(script, machine, 3, length, horizon, mirror)
            got = replay(argv + ["--mirror"] * mirror, INPUTS.__getitem__).lines
            assert got == want

    def test_covering_merge_matches_the_set_pipeline(self):
        # At stage 3 the star family goes from {00, 011} to {0, 1111}: the
        # same total bit-length, and a larger covered set.
        texts = {"a.txt": "00\n011\n0\n1111\n10100\n01011\n11\n", "b.txt": "1\n00\n011\n0100\n"}
        listings = [parse_listing(texts["a.txt"]), parse_listing(texts["b.txt"])]
        length, horizon = 5, 10
        want = covering_reference(listings, length, horizon, stream=False)
        argv = ["run", "friedberg-classes", "--listing", "a.txt", "--listing", "b.txt",
                "--len", str(length), "--horizon", str(horizon), "--no-acceptable-stream"]
        assert replay(argv, texts.__getitem__).lines == want

    def test_boundary_merge_on_random_scripts(self):
        rng = random.Random(53)
        merged = 0
        for _ in range(40):
            script = random_dyadic_script(rng)
            machine = random_machine(rng, max_code_len=5, max_out_len=6)
            k, length, mirror = rng.randint(0, 4), rng.randint(0, 6), rng.random() < 0.5
            texts = {"s.tsv": script.render() + "\n", "m.tsv": machine_text(machine)}
            argv = ["run", "friedberg-reals", "--script", "s.tsv", "--machine", "m.tsv",
                    "--k", str(k), "--len", str(length), "--horizon", "20"] + ["--mirror"] * mirror
            got = outcome(lambda: replay(argv, texts.__getitem__).lines)
            want = outcome(lambda: boundary_reference(script, machine, k, length, 20, mirror))
            assert got == want
            merged += isinstance(got, list) and len(got) > 0
        assert merged >= 30

    def test_covering_merge_on_random_listings(self):
        rng = random.Random(59)
        merged = 0
        for _ in range(40):
            listings = [random_listing(rng) for _ in range(rng.randint(1, 2))]
            length, horizon, stream = rng.randint(2, 6), rng.randint(0, 15), rng.random() < 0.5
            texts = {f"l{i}.txt": listing_text(listing) for i, listing in enumerate(listings)}
            argv = ["run", "friedberg-classes", *(a for f in texts for a in ("--listing", f)),
                    "--len", str(length), "--horizon", str(horizon)]
            argv += [] if stream else ["--no-acceptable-stream"]
            got = outcome(lambda: replay(argv, texts.__getitem__).lines)
            want = outcome(lambda: covering_reference(listings, length, horizon, stream))
            assert got == want
            merged += isinstance(got, list) and len(got) > 0
        assert merged >= 30

    def test_covering_listing_is_the_covered_sets_within_the_bound(self):
        want = []
        i = 0
        while odd_covering_family(i).total_bits() <= 4:
            want.append(covered_up_to(odd_covering_family(i), 4))
            i += 1
        assert list(map(words, odd_covering_listing(4))) == want


def tagged(*tags):
    """A listing of one-tag sets, and extensions adding one tag at a time."""
    return (lambda: [frozenset({t}) for t in tags]), lambda content: (content | {t} for t in tags)


class TestMergeLoops:
    """`constructions.merge_rows`, on blocks with a signature index, against
    the item-at-a-time, all-pairs loop `oracles.brute_merge_rows`; the
    references above compare the two on every recipe input as well."""

    def test_on_the_fixture_listings_at_horizon_480(self):
        listings = [parse_listing(FIXTURE_FILES[f]) for f in ("l_star.txt", "l_star_skip.txt")]
        rows = same_merge(*covering_inputs(listings, 7, 480, stream=True), 480)
        assert len(rows) == 47742
        assert script_lines(rows[-1:]) == ["431\t735\tstr\t1111111"]

    def test_a_repeated_item_inside_a_block_is_delivered_once(self):
        listing, extensions = tagged()
        events = [(0, 0, "1"), (1, 0, "01"), (1, 0, "00"), (1, 0, "01")]
        rows = same_merge(listing, events, extensions, 2)
        assert rows == [(0, 0, "1"), (1, 0, "01"), (1, 0, "00")]

    def test_an_item_the_index_holds_is_not_delivered_again(self):
        listing, extensions = tagged()
        events = [(0, 0, "1"), (0, 0, "0"), (2, 0, "1"), (2, 0, "11"), (2, 0, "0")]
        rows = same_merge(listing, events, extensions, 3)
        assert rows == [(0, 0, "0"), (0, 0, "1"), (2, 0, "11")]

    def test_an_index_whose_first_block_arrives_late(self):
        # both indices show the empty set at stage 0: index 0 follows it on
        # slot 0, which has no row until index 0's first block at stage 3,
        # and index 1 waits until its own first block makes its set new
        listing, extensions = tagged("111")
        events = [(2, 1, "1"), (3, 0, "0"), (3, 0, "1")]
        rows = same_merge(listing, events, extensions, 4)
        assert rows == [(0, 1, "111"), (2, 2, "1"), (3, 0, "0"), (3, 0, "1")]

    def test_three_indices_converge_on_one_set_at_one_stage(self):
        listing, extensions = tagged("110", "111", "1100", "1101")
        events = [
            (0, 0, "00"), (0, 1, "01"), (0, 2, "10"),
            (2, 0, "01"), (2, 0, "10"), (2, 1, "00"), (2, 1, "10"), (2, 2, "00"), (2, 2, "01"),
        ]
        rows = same_merge(listing, events, extensions, 3)
        # slots 1 and 2 are diverted, in index order, each to the first unused
        # extension; slot 5 is the listing's
        assert [row for row in rows if row[0] == 2] == [
            (2, 0, "01"), (2, 0, "10"), (2, 1, "00"), (2, 1, "10"), (2, 2, "00"), (2, 2, "01"),
            (2, 1, "110"), (2, 2, "111"), (2, 5, "1100"),
        ]
