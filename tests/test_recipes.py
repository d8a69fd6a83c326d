"""The recipes' arithmetic against the set-based references in oracles.

The recipes carry one integer per truncated lower cut, emit each stage's
new strings from intervals, and find odd-ones extensions by comparing
integers.  The references build every cut as a set of strings on the
rational side and take set differences and set inclusions.
"""

from __future__ import annotations

import itertools
import random

import pytest

from cantorsim.checks import random_dyadic_trace, random_string_set
from cantorsim.complexity import PrefixMachine
from cantorsim.constructions import friedberg_merge, hat_m_construction
from cantorsim.coverings import (
    covered_up_to,
    odd_covering_family,
    parse_listing,
    star_construction,
)
from cantorsim.dyadic import (
    ONE,
    ZERO,
    Antichain,
    BitString,
    Dyadic,
    optimal_covering,
    rational_of_string,
)
from cantorsim.oracles import (
    brute_lower_cut,
    brute_odd_ones,
    inclusion_odd_ones_extensions,
    set_difference_deltas,
)
from cantorsim import recipes
from cantorsim.recipes import (
    cut_deltas,
    merge_boundary_reals,
    merge_covering_classes,
    odd_covering_extensions,
    odd_covering_listing,
    odd_ones_extensions,
    odd_ones_listing,
)
from cantorsim.streams import EnumerationScript, real_from_ce_set
from test_golden import INPUTS


class TestCutDeltas:
    def test_match_the_set_differences_on_random_traces(self):
        rng = random.Random(41)
        drops = 0
        for _ in range(300):
            values = random_dyadic_trace(rng)
            length = rng.randint(0, 7)
            drops += any(b < a for a, b in zip(values, values[1:]))
            assert list(cut_deltas(values, length)) == set_difference_deltas(values, length)
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
            assert list(cut_deltas(values, length)) == set_difference_deltas(values, length)
        assert {s for s, _ in cut_deltas(values, 4)} == {0}

    def test_a_drop_then_a_rise_is_measured_from_the_smaller_cut(self):
        values = [Dyadic(3, 2), Dyadic(1, 2), Dyadic(1, 1)]
        got = [(s, t.display()) for s, t in cut_deltas(values, 2)]
        assert got == [
            (0, "-"), (0, "0"), (0, "1"), (0, "00"), (0, "01"), (0, "10"),
            (2, "01"),
        ]

    def test_zero_and_one(self):
        assert list(cut_deltas([ZERO, ZERO], 3)) == []
        assert [t for _, t in cut_deltas([ZERO, ONE], 3)] == sorted(
            brute_lower_cut(ONE, 3), key=lambda b: b.lenlex_key
        )


def first(extensions, content, count=5):
    return list(itertools.islice(extensions(content), count))


class TestOddOnesPicker:
    @pytest.mark.parametrize("length", range(8))
    def test_matches_the_inclusion_picker(self, length):
        rng = random.Random(43 + length)
        fast, reference = odd_ones_extensions(length), inclusion_odd_ones_extensions(length)
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
        assert first(odd_ones_extensions(3), content) == []

    def test_listing_is_the_cuts_of_the_odd_ones_reals(self):
        want = [brute_lower_cut(rational_of_string(s), 5) for s in brute_odd_ones(5)]
        assert list(odd_ones_listing(5)) == want

    def test_a_cut_is_built_only_when_asked(self, monkeypatch):
        built = []

        def counting_cut(x, max_len):
            built.append(x)
            return brute_lower_cut(x, max_len)

        monkeypatch.setattr(recipes, "lower_cut", counting_cut)
        recipes._odd_ones_cut.cache_clear()
        listing = odd_ones_listing(9)
        extensions = odd_ones_extensions(9)(frozenset({BitString("1")}))
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
            values = first(odd_covering_extensions(length), content, 40)
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
        got = first(odd_covering_extensions(length), content, 6)
        assert got == [covered_up_to(antichain(a), length) for a in want.split("|")]

    def test_siblings_are_not_adjoined_to_an_odd_covering(self):
        # {00, 01} would merge into 0 and leave the even covering {0, 1}
        values = first(odd_covering_extensions(2), frozenset({BitString("1")}), 10)
        assert values == [covered_up_to(antichain("1"), 2)]

    def test_a_member_longer_than_the_bound_has_no_extension(self):
        content = frozenset({BitString("0000"), BitString("0001")})
        assert first(odd_covering_extensions(3), content) == []


class TestRecipes:
    def test_boundary_merge_matches_the_set_pipeline(self):
        # The golden recipe inputs, at a shorter length than the golden's.
        length, horizon = 6, 30
        script = EnumerationScript.parse(INPUTS["script.tsv"], horizon=horizon)
        machine = PrefixMachine.parse(INPUTS["machine.tsv"])
        for mirror in (False, True):
            events = []
            for j, e in enumerate(script.indices()):
                trace = hat_m_construction(real_from_ce_set(script, e), machine, 3, horizon,
                                           mirror=mirror)
                values = [trace.value_at(s) for s in range(horizon + 1)]
                events.extend((s, j, t) for s, t in set_difference_deltas(values, length))
            cuts = [brute_lower_cut(rational_of_string(s), length) for s in brute_odd_ones(length)]
            want = friedberg_merge(cuts, EnumerationScript.from_events(events, horizon),
                                   inclusion_odd_ones_extensions(length), horizon)
            got = merge_boundary_reals(script, machine, 3, length, horizon, mirror=mirror)
            assert got == want

    def test_covering_merge_matches_the_set_pipeline(self):
        # At stage 3 the star family goes from {00, 011} to {0, 1111}: the
        # same total bit-length, and a larger covered set.
        listings = [parse_listing("00\n011\n0\n1111\n10100\n01011\n11\n"),
                    parse_listing("1\n00\n011\n0100\n")]
        length, horizon = 5, 10
        events = []
        for j, listing in enumerate(listings):
            seen = frozenset()
            for snap in star_construction(listing, horizon):
                cur = covered_up_to(snap.family, length)
                gained = sorted(cur - seen, key=lambda b: b.lenlex_key)
                events.extend((snap.stage, j, t) for t in gained)
                seen = cur
        l2 = EnumerationScript.from_events(events, horizon)
        want = friedberg_merge(odd_covering_listing(length), l2, odd_covering_extensions(length),
                               horizon)
        got = merge_covering_classes(listings, length, horizon, with_acceptable_stream=False)
        assert got == want

    def test_covering_listing_is_the_covered_sets_within_the_bound(self):
        want = []
        i = 0
        while odd_covering_family(i).total_bits() <= 4:
            want.append(covered_up_to(odd_covering_family(i), 4))
            i += 1
        assert list(odd_covering_listing(4)) == want
