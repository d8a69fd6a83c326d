from __future__ import annotations

import inspect
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantorsim import dyadic
from cantorsim.classes import Tree
from cantorsim.complexity import PrefixMachine
from cantorsim.dyadic import (
    EMPTY,
    ONE,
    ZERO,
    Antichain,
    BitString,
    Dyadic,
    Order,
    all_strings,
    grow_covering,
    is_acceptable,
    key_word,
    lex_compare_padded,
    optimal_covering,
    prefix_set_measure,
    rational_of_string,
    string_of_rational,
    strings_up_to,
    word_key,
)
from cantorsim.errors import DomainError, ParseError
from cantorsim.oracles import (
    brute_optimal_covering,
    expansion_at_depth,
    greedy_expansion,
    sibling_merge_closure,
)
from cantorsim.streams import EnumerationScript, LeftCEApprox

bitstrings = st.text(alphabet="01", max_size=12)
small_sets = st.frozensets(st.text(alphabet="01", max_size=4), max_size=6)


def bs(*words: str) -> list[str]:
    return [BitString.parse(w) for w in words]


class TestBitString:
    def test_rejects_other_characters(self):
        with pytest.raises(DomainError):
            BitString("012")

    def test_parse_empty_forms(self):
        assert BitString.parse("") == EMPTY
        assert BitString.parse("ε") == EMPTY
        assert BitString.parse("-") == EMPTY

    def test_prefix_order(self):
        a, b = BitString("10"), BitString("1011")
        assert b.startswith(a) and not a.startswith(b)
        assert a.startswith(EMPTY)

    def test_a_checked_word_is_its_str(self):
        w = BitString("01")
        assert isinstance(w, str) and w == "01" and "01" == w and hash(w) == hash("01")
        assert BitString.parse("-") == EMPTY == ""
        assert repr(w) == "'01'" and f"{w}|{BitString()}" == "01|"
        # the bits, a slice and a concatenation are plain words again
        assert all(type(v) is str for v in (w.bits, w[:1], w + "1", w + w))

    def test_one_reader_for_one_or_several_words_a_line(self):
        text = "# a comment\n01\n\n- 1 ε\n"
        assert dyadic.parse_words(text, "f", several=True) == [("01",), ("", "1", "")]
        with pytest.raises(ParseError, match=r"^f:4: not a 0/1 word: '- 1 ε'$"):
            dyadic.parse_words(text, "f")  # one word a line: two words are an error
        with pytest.raises(ParseError, match=r"^f:2: not a 0/1 word: '0x'$"):
            dyadic.parse_words("1\n1 0x\n", "f", several=True)


class TestDyadic:
    def test_canonical_form(self):
        assert Dyadic(4, 4) == Dyadic(1, 2)
        assert Dyadic(0, 7) == ZERO
        assert Dyadic(8, 3) == ONE

    def test_range_enforced(self):
        with pytest.raises(DomainError):
            Dyadic(9, 3)
        with pytest.raises(DomainError):
            Dyadic(-1, 0)

    def test_parse_render_roundtrip(self):
        for text in ("0", "1", "5/2^3", "1/2^1"):
            q = Dyadic.parse(text)
            assert Dyadic.parse(q.render()) == q

    def test_arithmetic(self):
        assert Dyadic(1, 2) + Dyadic(1, 2) == Dyadic(1, 1)
        assert ONE - Dyadic(1, 3) == Dyadic(7, 3)
        assert Dyadic(5, 3).scaled(2) == Dyadic(5, 5)
        with pytest.raises(DomainError):
            Dyadic(3, 2) + Dyadic(1, 1)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_order_matches_fractions(self, a, b):
        x, y = Dyadic(a, 8), Dyadic(b, 8)
        assert (x < y) == (x.as_fraction() < y.as_fraction())


class TestWordKeys:
    @given(bitstrings, bitstrings)
    def test_keys_order_as_the_words_length_lexicographically(self, a, b):
        assert (word_key(a) < word_key(b)) == ((len(a), a) < (len(b), b))
        assert (word_key(a) == word_key(b)) == (a == b)

    @given(bitstrings)
    def test_keys_round_trip_to_words(self, s):
        assert key_word(word_key(s)) == s
        assert format(word_key(s), "b")[1:] == s

    @given(st.integers(0, 10), st.data())
    def test_a_key_range_is_the_words_of_a_value_range(self, n, data):
        hi = data.draw(st.integers(0, 1 << n))
        lo = data.draw(st.integers(0, hi))
        keys = range((1 << n) + lo, (1 << n) + hi)
        assert list(map(key_word, keys)) == list(all_strings(n, lo, hi))


class TestWordCache:
    BOUND = dyadic._CACHED_WORD_LENGTH

    @staticmethod
    def binary(n: int, lo: int, hi: int) -> list[str]:
        return [format(v, "b").zfill(n) if n else "" for v in range(lo, hi)]

    def test_slices_are_the_binary_values_up_to_past_the_bound(self):
        rng = random.Random(29)
        for n in range(self.BOUND + 3):
            assert list(all_strings(n)) == self.binary(n, 0, 1 << n)
            slices = [(0, 0), (1 << n, 1 << n), (1 << n, 0)]
            slices += [(rng.randint(0, 1 << n), rng.randint(0, 1 << n)) for _ in range(30)]
            assert any(lo >= hi for lo, hi in slices)
            for lo, hi in slices:
                assert list(all_strings(n, lo, hi)) == self.binary(n, lo, hi), (n, lo, hi)
        want = [w for n in range(self.BOUND + 3) for w in self.binary(n, 0, 1 << n)]
        assert list(strings_up_to(self.BOUND + 2)) == want

    def test_longer_lengths_never_reach_the_cache(self):
        before = dyadic._cached_words.cache_info()
        list(all_strings(self.BOUND + 1))
        list(all_strings(self.BOUND + 2, 5, 9))
        after = dyadic._cached_words.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert after.maxsize == self.BOUND + 1

    def test_the_listings_stay_generator_functions(self):
        assert inspect.isgeneratorfunction(all_strings)
        assert inspect.isgeneratorfunction(strings_up_to)


class TestStringRationalBridge:
    def test_expansion_examples(self):
        assert string_of_rational(ZERO) == EMPTY
        assert string_of_rational(Dyadic(1, 1)) == BitString("1")
        assert string_of_rational(Dyadic(5, 3)) == BitString("101")

    def test_one_has_no_expansion(self):
        with pytest.raises(DomainError):
            string_of_rational(ONE)

    def test_value_examples(self):
        assert rational_of_string(EMPTY) == ZERO
        assert rational_of_string(BitString("101")) == Dyadic(5, 3)
        assert rational_of_string(BitString("001")) == Dyadic(1, 3)

    @given(st.integers(0, 9), st.integers(0, (1 << 10) - 1))
    def test_expansion_matches_greedy_oracle(self, exp, num):
        q = Dyadic(num % (1 << exp) if exp else 0, exp)
        assert string_of_rational(q) == greedy_expansion(q)

    @given(bitstrings)
    def test_round_trip_on_admissible_strings(self, s):
        if s[-1:] == "0":
            s += "1"
        assert string_of_rational(rational_of_string(s)) == s

    def test_round_trip_exhaustive(self):
        for s in strings_up_to(12):
            if s[-1:] == "0":
                continue
            assert string_of_rational(rational_of_string(s)) == s


class TestLexCompare:
    def test_examples(self):
        assert lex_compare_padded(EMPTY, EMPTY) is Order.EQ
        assert lex_compare_padded(BitString("10"), BitString("1")) is Order.EQ
        assert lex_compare_padded(BitString("011"), BitString("1")) is Order.LT

    @given(bitstrings, bitstrings)
    def test_order_transport(self, a, b):
        va, vb = rational_of_string(a), rational_of_string(b)
        want = Order.LT if va < vb else Order.GT if va > vb else Order.EQ
        assert lex_compare_padded(a, b) is want


class TestMeasure:
    def test_examples(self):
        assert prefix_set_measure([]) == ZERO
        assert prefix_set_measure(bs("0", "1")) == ONE
        assert prefix_set_measure(bs("0", "011", "11")) == Dyadic(3, 2)

    @given(small_sets)
    def test_additivity_over_the_covering(self, sset):
        total = ZERO
        for member in optimal_covering(sset):
            total = total + Dyadic.pow2(len(member))
        assert prefix_set_measure(sset) == total

    @given(small_sets)
    def test_matches_depth_expansion(self, sset):
        depth = max((len(s) for s in sset), default=0)
        leaves = expansion_at_depth(sset, depth)
        assert prefix_set_measure(sset) == Dyadic(len(leaves), depth)


class TestOptimalCovering:
    def test_examples(self):
        assert optimal_covering(bs("00")).members == tuple(bs("00"))
        assert optimal_covering(bs("0", "1")).members == (EMPTY,)
        assert optimal_covering(bs("00", "01", "11")).members == tuple(bs("0", "11"))

    def test_root_member_allowed(self):
        assert optimal_covering([EMPTY]).members == (EMPTY,)

    @given(small_sets)
    def test_agrees_with_brute_force(self, sset):
        assert optimal_covering(sset) == brute_optimal_covering(sset)

    @given(small_sets, st.text(alphabet="01", max_size=4))
    def test_growing_by_one_string_agrees_with_brute_force(self, sset, s):
        grown = grow_covering(optimal_covering(sset), s)
        assert grown == brute_optimal_covering([*sset, s])
        assert grown.members == Antichain(grown.members).members  # reduced, in length-lex order

    def test_growing_merges_up_the_sibling_chain(self):
        assert grow_covering(Antichain(bs("1", "01", "001")), BitString("000")).members == (EMPTY,)
        assert grow_covering(Antichain(bs("0")), BitString("01")) == Antichain(bs("0"))
        assert grow_covering(Antichain(bs("10", "110")), BitString("1")) == Antichain(bs("1"))

    @given(small_sets)
    def test_minimality_and_soundness(self, sset):
        cov = optimal_covering(sset)
        depth = max([len(s) for s in sset] + [len(m) for m in cov], default=0) + 2
        want = expansion_at_depth(sset, depth)
        assert expansion_at_depth(cov.members, depth) == want
        for member in cov:
            if len(member):
                parent_cone = expansion_at_depth([member[:-1]], depth)
                assert not parent_cone <= want


def covered_by_definition(strings: frozenset[str], depth: int) -> frozenset[str]:
    """The words t of length ≤ depth whose every length-depth extension lies
    in the depth expansion of the strings."""
    leaves = expansion_at_depth(strings, depth)

    def words(n: int) -> list[str]:
        return ["".join(bits) for bits in itertools.product("01", repeat=n)]

    return frozenset(
        t
        for n in range(depth + 1)
        for t in words(n)
        if all(t + tail in leaves for tail in words(depth - n))
    )


class TestFilterClosure:
    def test_the_closure_is_its_definition_on_seeded_sets(self):
        # each seeded set splits up to three cones into subcones, so sibling
        # merges chain over several lengths; some sets then lose one member
        rng = random.Random(35)

        def split(word: str, room: int) -> list[str]:
            if room == 0 or rng.random() < 0.3:
                return [word]
            return split(word + "0", room - 1) + split(word + "1", room - 1)

        cases = [(frozenset(), 0), (frozenset(), 3), (frozenset({""}), 0), (frozenset({""}), 3)]
        for _ in range(200):
            strings: set[str] = set()
            for _ in range(rng.randint(0, 3)):
                top = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
                strings.update(split(top, rng.randint(0, 3)))
            if strings and rng.random() < 0.3:
                strings.discard(rng.choice(sorted(strings)))
            cases.append((frozenset(strings), max(map(len, strings), default=0) + rng.randint(0, 2)))
        for strings, depth in cases:
            assert sibling_merge_closure(strings, depth) == covered_by_definition(strings, depth)

    @pytest.mark.parametrize("strings, depth", [({"0"}, 0), ({"", "0101"}, 3), ({"11"}, -1)])
    def test_a_member_longer_than_the_depth_is_a_domain_error(self, strings, depth):
        with pytest.raises(DomainError, match="closure depth must reach every member"):
            sibling_merge_closure(strings, depth)

    def test_examples(self):
        assert optimal_covering(bs("0")).members == tuple(bs("0"))
        assert optimal_covering(bs("00", "01")).members == tuple(bs("0"))
        assert optimal_covering(bs("00", "01", "10", "11")).members == (EMPTY,)

    @given(small_sets)
    def test_membership_matches_sibling_merge_fixpoint(self, y):
        closure = sibling_merge_closure(y, 8)
        anti = optimal_covering(y)
        for t in strings_up_to(8):
            assert anti.covers(t) == (t in closure)


class TestAcceptable:
    def test_examples(self):
        assert is_acceptable(bs("00", "10"))
        assert not is_acceptable(bs("0", "1"))
        assert is_acceptable([])


class TestAntichain:
    def test_rejects_comparable_members(self):
        with pytest.raises(DomainError):
            Antichain(tuple(bs("0", "01")))

    def test_rejects_sibling_pairs(self):
        with pytest.raises(DomainError):
            Antichain(tuple(bs("00", "01")))

    def test_normalizes_order(self):
        a = Antichain(tuple(bs("11", "0")))
        assert a.members == ("0", "11")

    def test_cone_containment(self):
        a = Antichain(tuple(bs("0", "11")))
        assert a.covers(BitString("01"))
        assert not a.covers(BitString("1"))
        assert a.covers(BitString("110"))

    @given(small_sets)
    def test_cone_containment_matches_the_expansion(self, y):
        a = brute_optimal_covering(y)
        covered = expansion_at_depth(a.members, 6)
        for s in strings_up_to(5):
            assert a.covers(s) == (expansion_at_depth([s], 6) <= covered)


class TestValueContract:
    """The contract of the value types: equal values built in different ways
    are equal and hash equal, a Dyadic or an Antichain equals only an
    instance of its own type, fields cannot be assigned, and the reprs name
    every field.  A checked word is a str and equals it.  The validating
    types of the other modules share the contract through `dyadic._Value`."""

    def test_equal_values_built_differently(self):
        pairs = [
            (Dyadic(2, 2), Dyadic(1, 1)),
            (Dyadic(0, 5), ZERO),
            (Dyadic(1 << 6, 6), ONE),
            (Dyadic.parse("4/2^3"), Dyadic(num=1, exp=1)),
            (BitString.parse("-"), EMPTY),
            (BitString.parse(" 01 "), BitString("0") + BitString("1")),
            (Antichain(bs("11", "0")), Antichain(bs("0", "11", "0"))),
            (Antichain(), optimal_covering([])),
        ]
        for a, b in pairs:
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_unequal_values(self):
        assert Dyadic(1, 1) != Dyadic(1, 2)
        assert BitString("0") != BitString("00")
        assert Antichain(bs("0")) != Antichain(bs("1"))

    def test_equal_only_within_its_own_type(self):
        # a word is a str, so a checked word equals its str (TestBitString)
        assert Dyadic(1, 1) != (1, 1) and (1, 1) != Dyadic(1, 1)
        assert ZERO != 0 and ONE != 1
        assert Antichain(bs("0")) != ("0",) and ("0",) != Antichain(bs("0"))
        assert "1" != Antichain(bs("1"))

    def test_assignment_raises(self):
        values = [(BitString("01"), "bits"), (Dyadic(1, 1), "num"), (Dyadic(1, 1), "exp"),
                  (Antichain(bs("0")), "members")]
        for value, name in values:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
            with pytest.raises(AttributeError):
                value.extra = 1  # type: ignore[union-attr]

    def test_reprs(self):
        assert repr(Dyadic(2, 2)) == "Dyadic(num=1, exp=1)"
        assert repr(ZERO) == "Dyadic(num=0, exp=0)"
        assert repr(Antichain(bs("01", "1"))) == "Antichain(members=('1', '01'))"

    def test_constructors_validate(self):
        cases = [
            (lambda: Dyadic(4, 1), "dyadic exceeds 1: 4/2^1"),  # more factors of 2 than exp
            (lambda: Dyadic(2, 0), "dyadic exceeds 1: 2/2^0"),
            (lambda: Dyadic(9, 3), "dyadic exceeds 1: 9/2^3"),
            (lambda: Dyadic(1, -2), "negative dyadic parts: 1/2^-2"),
            (lambda: BitString("012"), "not a 0/1 word: '012'"),
            (lambda: Antichain(["0", "2"]), "not a 0/1 word: '2'"),
            (lambda: Antichain(bs("1", "10")), "antichain violation: 1 ⪯ 10"),
            (lambda: Antichain(bs("00", "01")), "not reduced: both children of 0 present"),
        ]
        for build, message in cases:
            with pytest.raises(DomainError) as info:
                build()
            assert str(info.value) == message

    def test_keyword_construction_and_defaults(self):
        assert BitString() == EMPTY and BitString(bits="1") == BitString("1")
        assert Dyadic() == ZERO and Dyadic(num=3, exp=2) == Dyadic(3, 2)
        assert Antichain() == Antichain(members=()) and len(Antichain()) == 0

    def test_the_other_modules_validating_types_share_the_contract(self):
        machine = PrefixMachine.parse("0\t1\t3\n")
        tree = Tree(2, frozenset({"11"}))
        script = EnumerationScript.parse("0\t0\tstr\t1\n")
        cases = [
            (machine, (machine.programs, 0)), (tree, (2, frozenset({"11"}))),
            (script, (script.events, 0)), (LeftCEApprox((ZERO, ONE), 1), ((ZERO, ONE), 1)),
        ]
        for value, fields in cases:
            assert value == pickle.loads(pickle.dumps(value)) and value != fields
            assert hash(value) == hash(fields)
            with pytest.raises(AttributeError):
                setattr(value, "horizon", 0)
        assert repr(tree) == "Tree(depth=2, exits=frozenset({'11'}))"
        # a cached_property computes once per instance
        assert machine._words is machine._words and tree.nodes is tree.nodes

    def test_pickle_round_trip(self):
        for value in (BitString("0110"), Dyadic(3, 4), Antichain(bs("0", "11"))):
            assert pickle.loads(pickle.dumps(value)) == value

    def test_dyadic_normalisation_and_order_match_fractions(self):
        values = [(Dyadic(num, exp), Fraction(num, 1 << exp))
                  for exp in range(9) for num in range((1 << exp) + 1)]
        for q, f in values:
            # lowest terms, with zero as 0/2^0
            assert (q.num, 1 << q.exp) == (f.numerator, f.denominator)
        distinct = {q: f for q, f in values}
        for q, f in distinct.items():
            for r, g in distinct.items():
                assert (q < r, q <= r, q > r, q >= r, q == r) == (f < g, f <= g, f > g, f >= g, f == g)
