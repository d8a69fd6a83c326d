from __future__ import annotations

import functools
import itertools
import random

import pytest

from cantorsim.checks import build_scenario
from cantorsim.coverings import (
    covered_up_to, covering_antichains, even_covering_family, odd_covering_family, parse_listing,
    star_construction,
)
from cantorsim.draws import random_listing, random_string_set
from cantorsim.dyadic import (
    Antichain, BitString, covered_deltas, key_word, optimal_covering, trusted_antichain,
)
from cantorsim.errors import InputError, ParseError
from cantorsim.oracles import (
    brute_covering_families, brute_optimal_covering, sibling_merge_closure,
    split_covering_families, split_covering_family,
)
from cantorsim.recipes import merge_covering_classes
from cantorsim.scenarios import SCENARIOS
from cantorsim.streams import EnumerationScript, stage_set
from cantorsim.verify import verify_coverfamily, verify_star


def bs(*words: str) -> list[BitString]:
    return [BitString.parse(w) for w in words]


def scenario(name):
    return next(sc for sc in SCENARIOS if sc.name == name)


@functools.lru_cache(maxsize=None)
def searched_families(total: int) -> tuple[Antichain, ...]:
    return brute_covering_families(total)


def last_stage_is_good(consumed: list[BitString], sigma: BitString) -> bool:
    return star_construction([*consumed, sigma], horizon=len(consumed))[-1].good


class TestGoodStage:
    def test_examples(self):
        assert last_stage_is_good([], BitString("0"))
        assert not last_stage_is_good(bs("00"), BitString("0"))
        assert last_stage_is_good(bs("00"), BitString("010"))

    def test_extension_disqualifies(self):
        assert not last_stage_is_good(bs("00"), BitString("001"))


class TestStarConstruction:
    def test_case_a_then_case_b(self):
        snaps = build_scenario(scenario("star-cases")).result
        assert [s.case for s in snaps] == ["a", "b"]
        assert snaps[0].family.members == ()
        assert snaps[1].family.members == tuple(bs("00", "010"))

    def test_not_good_stage_changes_nothing(self):
        snaps = build_scenario(scenario("star-skip")).result
        assert snaps[1].good is False and snaps[1].case == "-"
        assert snaps[1].family == snaps[0].family

    def test_empty_listing_gives_no_snapshots(self):
        assert star_construction([], 5) == []

    def test_invariants_on_random_listings(self):
        rng = random.Random(23)
        for _ in range(60):
            listing = random_listing(rng)
            assert verify_star(listing, star_construction(listing, max(len(listing), 1))) == []

    def test_covering_is_that_of_the_listing_before_sigma(self):
        # a good stage t's family is the covering of the listing before sigma
        # (case a) or of the listing up to sigma (case b)
        rng = random.Random(31)
        for _ in range(60):
            listing = random_listing(rng)
            for t, snap in enumerate(star_construction(listing, len(listing))):
                if snap.good:
                    assert snap.family == optimal_covering(listing[: t + (snap.case == "b")])

    def test_non_clopen_listings_have_many_good_stages(self):
        rng = random.Random(29)
        seen = 0
        for _ in range(20):
            listing = random_listing(rng, kind="path")
            snaps = star_construction(listing, len(listing))
            if sum(snap.good for snap in snaps) >= 3:
                seen += 1
        assert seen >= 10


STAR_TAMPERS = [
    # (stage, replaced fields, findings) on the star-cases snapshots
    (1, {"case": "a"}, ["stage 1: case a, but the listing makes it b"]),
    (1, {"family": Antichain(bs("00"))}, ["stage 1: family is not its generating family's covering"]),
    (1, {"family": Antichain(bs("010"))}, ["stage 1: family is not its generating family's covering",
                                           "listing element 0 not covered by the final snapshot"]),
    (1, {"case": "-"}, ["stage 1: case -, but the listing makes it b"]),
    (0, {"family": Antichain(bs("1"))}, ["stage 0: family is not its generating family's covering",
                                         "stage 1: covered set shrank at 1"]),
    # snapshots whose case and family agree with one another but not with the
    # listing: the case is derived from the covering of the listing before sigma
    (1, {"case": "a", "family": Antichain(bs("00", "11"))},
     ["stage 1: case a, but the listing makes it b",
      "stage 1: family is not its generating family's covering"]),
    (1, {"case": "-", "family": Antichain(())},
     ["stage 1: case -, but the listing makes it b",
      "stage 1: family is not its generating family's covering",
      "listing element 0 not covered by the final snapshot"]),
    (0, {"case": "-"}, ["stage 0: case -, but the listing makes it a"]),
]


@pytest.mark.parametrize("stage, fields, findings", STAR_TAMPERS)
def test_a_tampered_star_snapshot_is_caught(stage, fields, findings):
    snaps = list(build_scenario(scenario("star-cases")).result)
    snaps[stage] = snaps[stage]._replace(**fields)
    assert verify_star(tuple(bs("00", "010")), snaps) == findings


def test_a_family_changed_at_a_stage_that_is_not_good_is_caught():
    snaps = list(build_scenario(scenario("star-skip")).result)
    assert snaps[1].good is False
    snaps[1] = snaps[1]._replace(family=Antichain(bs("00", "11")))
    assert verify_star(tuple(bs("00", "01")), snaps) == [
        "stage 1: family changed at a stage that is not good"
    ]


def test_snapshots_past_the_listing_are_reported():
    snaps = star_construction(bs("00", "010"), 10)
    assert verify_star((), snaps) == ["snapshots do not follow the listing"]
    # as many snapshots as elements follow the listing; a different element
    # is re-derived as the stage it makes
    assert verify_star(bs("00", "011"), snaps) == [
        "stage 1: family is not its generating family's covering"
    ]


class TestCoveringFamilies:
    def test_odd_family_examples(self):
        assert odd_covering_family(0).members == (BitString(""),)
        assert odd_covering_family(1).members == (BitString("0"),)
        assert odd_covering_family(2).members == (BitString("1"),)

    def test_even_family_starts_empty(self):
        assert even_covering_family(0).members == ()
        assert len(even_covering_family(1)) == 2

    def test_outputs_are_their_own_coverings(self):
        families = list(itertools.takewhile(lambda a: a.total_bits() <= 10, covering_antichains(True)))
        assert verify_coverfamily(families, odd=True) == []
        assert len(families) > 50

    @pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
    def test_trusted_families_equal_the_validating_constructor(self, odd):
        # the generator and the unranking skip Antichain's sort and checks;
        # rebuilding each family through it must give the same value
        indexed = odd_covering_family if odd else even_covering_family
        for i, a in enumerate(itertools.islice(covering_antichains(odd), 3000)):
            public = Antichain(reversed(a.members))
            assert a == public and a.members == public.members, i
            assert all(type(m) is str for m in a.members), i  # plain words, as covers() reads
            if i % 10 == 0:
                assert indexed(i) == public, i

    def test_injective_window(self):
        assert verify_coverfamily([odd_covering_family(i) for i in range(200)], odd=True) == []

    def test_a_tampered_listing_is_caught(self):
        families = list(itertools.islice(covering_antichains(True), 4))
        siblings = trusted_antichain(tuple(bs("0", "1")))  # unreduced: its covering is ε
        assert verify_coverfamily([*families, siblings, families[1]], odd=True) == [
            "even antichain 0,1 in the odd family", "0,1 is not its own covering", "family repeats 0"
        ]
        assert verify_coverfamily(families[:1], odd=False) == ["odd antichain ε in the even family"]

    def test_indexed_families_match_the_enumeration_in_any_order(self):
        searched = [a for total in range(9) for a in searched_families(total)]
        reference = {odd: [a for a in searched if len(a) % 2 == odd] for odd in (0, 1)}
        lookups = [(i, odd) for odd in (0, 1) for i in range(len(reference[odd]))]
        random.Random(47).shuffle(lookups)
        for i, odd in lookups:
            family = odd_covering_family if odd else even_covering_family
            assert family(i) == reference[odd][i], (i, odd)

    def test_negative_index_is_a_domain_error(self):
        for family in (odd_covering_family, even_covering_family, lambda i: split_covering_family(i, True)):
            with pytest.raises(InputError, match="index must be ≥ 0"):
                family(-1)

    def test_families_match_the_exhaustive_search(self):
        listed = {odd: covering_antichains(bool(odd)) for odd in (0, 1)}
        for total in range(9):
            want = {odd: [a for a in searched_families(total) if len(a) % 2 == odd] for odd in (0, 1)}
            for odd in (0, 1):
                got = list(itertools.islice(listed[odd], len(want[odd])))
                assert got == want[odd], (total, odd)
                assert split_covering_families(total, bool(odd)) == tuple(want[odd])
        assert next(listed[0]).total_bits() == next(listed[1]).total_bits() == 9

    def test_listing_and_unranking_match_the_split_reference(self):
        # the split recursion builds each total whole: 26,128 families up to total 11
        rng = random.Random(53)
        for odd in (False, True):
            reference = [a for total in range(12) for a in split_covering_families(total, odd)]
            assert list(itertools.islice(covering_antichains(odd), len(reference))) == reference
            for i in rng.sample(range(len(reference)), 150):
                assert (odd_covering_family if odd else even_covering_family)(i) == reference[i]
                assert split_covering_family(i, odd) == reference[i]

    @pytest.mark.parametrize(
        "odd, pinned",
        [
            # 88319 is the first odd family of five members
            (True, {88318: "1,011111,0111101", 88319: "00,10,010,110,0110", 99999: "01,0001,11010000"}),
            (False, {100000: "01,001010101111"}),
        ],
        ids=["odd", "even"],
    )
    def test_families_far_into_the_listing(self, odd, pinned):
        listed = itertools.islice(enumerate(covering_antichains(odd)), max(pinned) + 1)
        at = {i: a for i, a in listed if i in pinned}
        for i, want in pinned.items():
            a = (odd_covering_family if odd else even_covering_family)(i)
            assert a.render() == want
            assert verify_coverfamily([a], odd) == []
            assert at[i] == a, i

    def test_covered_up_to_matches_the_sibling_merge_fixpoint(self):
        rng = random.Random(37)
        for _ in range(150):
            antichain = brute_optimal_covering(random_string_set(rng, 5, 6))
            depth = rng.randint(5, 7)
            covered = covered_up_to(antichain, depth)
            assert covered == sibling_merge_closure(antichain, depth)

    def test_covered_up_to(self):
        a = Antichain(tuple(bs("0")))
        covered = covered_up_to(a, 2)
        assert covered == frozenset(bs("0", "00", "01"))

    def test_covered_deltas_are_the_set_difference_in_order(self):
        rng = random.Random(41)
        for _ in range(150):
            old, new = (brute_optimal_covering(random_string_set(rng, 5, 6)) for _ in range(2))
            depth = rng.randint(0, 7)
            gained = sibling_merge_closure(new, 7) - sibling_merge_closure(old, 7)
            want = sorted((t for t in gained if len(t) <= depth), key=lambda b: (len(b), b))
            assert list(map(key_word, covered_deltas(old, new, depth))) == want


class TestListingFormat:
    def test_parse(self):
        assert parse_listing("00\n# note\n010\n") == tuple(bs("00", "010"))

    def test_error_names_the_line(self):
        with pytest.raises(ParseError) as info:
            parse_listing("00\n2x\n", source="l.txt")
        assert "l.txt:2" in str(info.value)


def minimal_elements(value: frozenset[str]) -> tuple[str, ...]:
    return tuple(
        sorted(
            (v for v in value if not any(v[:i] in value for i in range(len(v)))),
            key=lambda s: (len(s), s),
        )
    )


class TestComposition:
    def test_star_outputs_merge_injectively_with_the_odd_family(self):
        listings = [
            parse_listing("00\n010\n0110\n"),
            tuple(random_listing(random.Random(31), kind="path"))[:10],
        ]
        length, horizon = 5, 12
        rows = merge_covering_classes(listings, length, horizon, with_acceptable_stream=True)
        events = ((s, j, key_word(k)) for s, j, keys in rows for k in keys)
        out = EnumerationScript.from_events(events, horizon)
        sets = [stage_set(out, i, horizon) for i in out.indices()]
        assert len(set(sets)) == len(sets)
        # star-settled values all appear
        for listing in listings:
            snaps = star_construction(listing, horizon)
            if snaps:
                settled = covered_up_to(snaps[-1].family, length)
                if settled:
                    assert settled in sets
        # every output is either an odd-covering class or an even-side value
        for value in sets:
            mins = minimal_elements(value)
            antichain = Antichain(mins)
            assert covered_up_to(antichain, length) == value
            assert brute_optimal_covering(mins) == antichain
