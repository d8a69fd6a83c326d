from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantorsim.dyadic import (
    EMPTY,
    ONE,
    ZERO,
    BitString,
    Dyadic,
    strings_up_to,
    word_key,
)
from cantorsim.errors import InputError, ParseError
from cantorsim.oracles import brute_lower_cut, expansion_prefix
from cantorsim.streams import (
    EnumerationScript,
    LeftCEApprox,
    approx_string,
    key_row_lines,
    lower_cut,
    real_from_ce_set,
    stage_set,
    words_below,
)


def dy(text: str) -> Dyadic:
    return Dyadic.parse(text)


class TestScriptParsing:
    def test_basic_parse(self):
        script = EnumerationScript.parse("1\t0\tdyadic\t1/2^2\n3\t0\tdyadic\t1/2^1\n")
        assert script.horizon == 3
        assert script.indices() == (0,)

    def test_comments_and_blanks(self):
        script = EnumerationScript.parse("# header\n\n2\t1\tstr\t01\n")
        assert len(script.events) == 1

    def test_bad_field_count_names_line(self):
        with pytest.raises(ParseError) as info:
            EnumerationScript.parse("1\t0\tdyadic\n", source="s.tsv")
        assert "s.tsv:1" in str(info.value)

    def test_bad_field_count_text(self):
        with pytest.raises(ParseError) as info:
            EnumerationScript.parse("\n1\t0\tdyadic\n", source="s")
        assert str(info.value) == "s:2: expected 4 tab-separated fields, got 3"

    def test_bad_kind_names_line(self):
        with pytest.raises(ParseError) as info:
            EnumerationScript.parse("ok\n1\t0\tfloat\t0.5\n")
        assert ":1" in str(info.value) or ":2" in str(info.value)

    def test_horizon_override_extends(self):
        script = EnumerationScript.parse("1\t0\tstr\t0\n", horizon=9)
        assert script.horizon == 9

    def test_horizon_override_cannot_cut(self):
        with pytest.raises((ParseError, InputError)):
            EnumerationScript.parse("5\t0\tstr\t0\n", horizon=3)

    def test_event_beyond_horizon_names_the_line(self):
        with pytest.raises(ParseError) as info:
            EnumerationScript.parse("1\t0\tdyadic\t1/2^2\n2\t1\tdyadic\t1/2^1\n", 1, "s.tsv")
        assert str(info.value) == "s.tsv:2: event stage 2 beyond requested horizon 1"

    def test_negative_stage_names_the_line(self):
        with pytest.raises(ParseError) as info:
            EnumerationScript.parse("0\t0\tstr\t0\n-1\t0\tdyadic\t1/2^1\n", 3, "s.tsv")
        assert str(info.value) == "s.tsv:2: stage and index must be ≥ 0"

    def test_negative_index_event_names_stage_and_index(self):
        with pytest.raises(InputError) as info:
            EnumerationScript.from_events([(2, -1, dy("1/2^1"))], horizon=3)
        assert str(info.value) == "event at stage 2 for index -1: stage and index must be ≥ 0"

    def test_render_roundtrip(self):
        text = "1\t0\tdyadic\t1/2^2\n2\t1\tstr\t01"
        script = EnumerationScript.parse(text)
        assert EnumerationScript.parse(script.render()) == script

    def test_key_rows_print_as_their_script_renders(self):
        # row blocks (stage, index, keys); a word repeats within and across blocks
        blocks = [(0, 5, "- 0"), (1, 3, "1"), (1, 4, "0 0110 0"), (2, 0, "-")]
        words = [(s, j, [BitString.parse(w) for w in ws.split()]) for s, j, ws in blocks]
        rows = [(s, j, tuple(map(word_key, ws))) for s, j, ws in words]
        script = EnumerationScript.from_events((s, j, w) for s, j, ws in words for w in ws)
        assert key_row_lines(rows) == script.render().splitlines()
        assert key_row_lines([]) == []


class TestStageSet:
    def test_empty_script(self):
        script = EnumerationScript.from_events([], horizon=5)
        assert stage_set(script, 3, 5) == frozenset()

    def test_replay(self):
        script = EnumerationScript.from_events(
            [(1, 0, dy("1/2^2")), (3, 0, dy("1/2^1"))]
        )
        assert stage_set(script, 0, 2) == {dy("1/2^2")}
        assert stage_set(script, 0, 3) == {dy("1/2^2"), dy("1/2^1")}

    def test_beyond_horizon(self):
        script = EnumerationScript.from_events([(1, 0, dy("1/2^2"))])
        with pytest.raises(InputError, match=r"stage 2 outside \[0, 1\]"):
            stage_set(script, 0, 2)


class TestRealFromCeSet:
    def test_running_max(self):
        script = EnumerationScript.from_events(
            [(1, 0, dy("1/2^2")), (3, 0, dy("1/2^1"))], horizon=4
        )
        r = real_from_ce_set(script, 0)
        assert r.empty_at(0) and r.value(0) == ZERO
        assert r.value(1) == dy("1/2^2") and r.value(2) == dy("1/2^2")
        assert r.value(3) == dy("1/2^1") and r.value(4) == dy("1/2^1")

    def test_smaller_later_items_ignored(self):
        script = EnumerationScript.from_events(
            [(1, 0, dy("1/2^1")), (2, 0, dy("1/2^2"))], horizon=3
        )
        r = real_from_ce_set(script, 0)
        assert r.value(1) == dy("1/2^1") and r.value(3) == dy("1/2^1")

    def test_missing_index_stays_empty(self):
        script = EnumerationScript.from_events([(1, 0, dy("1/2^1"))], horizon=2)
        r = real_from_ce_set(script, 7)
        assert r.empty_at(2) and r.value(2) == ZERO

    def test_string_item_is_an_input_error(self):
        script = EnumerationScript.from_events([(1, 0, BitString("01"))])
        with pytest.raises(InputError, match="index 0 carries a non-dyadic item at stage 1"):
            real_from_ce_set(script, 0)

    def test_monotone_over_random_scripts(self):
        rng = random.Random(7)
        for _ in range(1000):
            events = [
                (rng.randint(0, 15), 0, Dyadic(rng.randint(0, 255), 8))
                for _ in range(rng.randint(0, 8))
            ]
            r = real_from_ce_set(EnumerationScript.from_events(events, horizon=15), 0)
            assert all(r.value(s) <= r.value(s + 1) for s in range(15))


class TestLeftCEApprox:
    def test_rejects_non_monotone(self):
        with pytest.raises(InputError):
            LeftCEApprox((dy("1/2^1"), dy("1/2^2")))

    def test_constant(self):
        r = LeftCEApprox((dy("1/2^3"),) * 5, first_stage=0)
        assert r.horizon == 4 and not r.empty_at(0)


class TestWordsBelow:
    def test_counts_the_words_strictly_below(self):
        for exp in range(6):
            for num in range((1 << exp) + 1):
                x = Fraction(num, 1 << exp)
                for n in range(8):
                    below = sum(1 for v in range(1 << n) if Fraction(v, 1 << n) < x)
                    assert words_below(num, exp, n) == below, (num, exp, n)

    @given(st.integers(0, 1 << 10), st.integers(0, 12))
    def test_the_cut_integer_fixes_every_shorter_count(self, num, length):
        x = Dyadic(num, 10)
        c = words_below(x.num, x.exp, length)
        for n in range(length + 1):
            assert words_below(c, length, n) == words_below(x.num, x.exp, n)


class TestLowerCut:
    def test_examples(self):
        assert lower_cut(ZERO, 5) == frozenset()
        assert lower_cut(dy("1/2^1"), 2) == frozenset(
            BitString.parse(w) for w in ("", "0", "00", "01")
        )
        assert lower_cut(dy("3/2^2"), 1) == frozenset(
            BitString.parse(w) for w in ("", "0", "1")
        )

    def test_full_value(self):
        assert lower_cut(ONE, 2) == frozenset(strings_up_to(2))

    @given(st.integers(0, 255))
    def test_faithful_to_the_rational_side(self, num):
        x = Dyadic(num, 8)
        assert lower_cut(x, 6) == brute_lower_cut(x, 6)

    def test_faithful_at_one_and_just_below(self):
        for x in [ONE] + [Dyadic((1 << k) - 1, k) for k in range(1, 13)]:
            assert lower_cut(x, 10) == brute_lower_cut(x, 10)

    def test_faithful_exhaustively_at_length_8(self):
        for num in range(0, 257, 3):
            x = Dyadic(num, 8)
            assert lower_cut(x, 8) == brute_lower_cut(x, 8)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_monotone_in_x(self, a, b):
        lo, hi = sorted((Dyadic(a, 8), Dyadic(b, 8)))
        assert lower_cut(lo, 5) <= lower_cut(hi, 5)


class TestApproxString:
    def test_examples(self):
        assert approx_string(dy("3/2^3"), 5) == BitString("01100")
        assert approx_string(dy("3/2^3"), 2) == BitString("01")
        assert approx_string(ZERO, 3) == BitString("000")
        assert approx_string(ONE, 3) == BitString("111")
        assert approx_string(ONE, 0) == EMPTY

    def test_matches_the_integer_expansion(self):
        # every dyadic of denominator ≤ 2^6, 1 included, at every length ≤ 9
        for exp in range(7):
            for num in range((1 << exp) + 1):
                x = Dyadic(num, exp)
                for n in range(10):
                    assert approx_string(x, n) == expansion_prefix(x, n), (x, n)

    def test_matches_the_integer_expansion_up_to_length_100(self):
        # the ends and 20 random values of denominators up to 2^100, at every length ≤ 100
        rng = random.Random(7)
        for exp in (7, 15, 50, 99, 100):
            nums = {0, 1, (1 << exp) - 1, 1 << exp} | {rng.randrange(1 << exp) for _ in range(20)}
            for num in sorted(nums):
                x = Dyadic(num, exp)
                for n in range(101):
                    assert approx_string(x, n) == expansion_prefix(x, n), (x, n)

    def test_a_negative_length_is_an_input_error(self):
        with pytest.raises(InputError):
            approx_string(ONE, -1)
