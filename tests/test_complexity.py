from __future__ import annotations

import random

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from cantorsim.classes import paths_at_depth
from cantorsim.complexity import (
    INFINITE,
    PrefixMachine,
    Program,
    _plain_programs,
    _programs,
    compute_padding,
    k_approx,
    least_failing_length,
    omega_approx,
    randomness_class_tree,
    satisfies_constant,
)
from cantorsim.draws import random_machine
from cantorsim.dyadic import (
    ONE,
    ZERO,
    BitString,
    Dyadic,
    prefix_set_measure,
    rational_of_string,
    strings_up_to,
)
from cantorsim.errors import DomainError, ParseError, PrefixFreeViolation
from cantorsim.oracles import (
    brute_halted_complexities,
    brute_k_approx,
    brute_least_failing_length,
    brute_omega_approx,
    padding_holds,
)


class TestMachineValidation:
    def test_duplicate_code_rejected(self):
        with pytest.raises(PrefixFreeViolation):
            PrefixMachine((Program("01", "0", 1), Program("01", "1", 2)))

    def test_prefix_code_rejected(self):
        with pytest.raises(PrefixFreeViolation):
            PrefixMachine((Program("0", "0", 1), Program("01", "1", 2)))

    @seed(20)
    @given(st.lists(st.text(alphabet="01", max_size=4), max_size=8))
    def test_accepted_code_sets_satisfy_kraft(self, codes):
        # Kraft's inequality holds for every prefix-free code set, so the
        # mass sum needs no overrun check of its own
        try:
            machine = PrefixMachine(tuple(Program(c, "0", 0) for c in codes))
        except PrefixFreeViolation:
            return
        assert machine.kraft_sum <= ONE

    def test_parse_names_bad_line(self):
        with pytest.raises(ParseError) as info:
            PrefixMachine.parse("01\t1\n", source="m.tsv")
        assert "m.tsv:1" in str(info.value)

    def test_parse_error_text(self):
        with pytest.raises(ParseError) as info:
            PrefixMachine.parse("# header\n0\t1\n", source="m")
        assert str(info.value) == "m:2: expected 3 tab-separated fields, got 2"

    def test_leading_tab_is_an_empty_code(self):
        # fields are split before stripping, so the empty first field survives
        machine = PrefixMachine.parse("\t0000\t3\n")
        assert machine.programs == (Program("", "0000", 3),)

    def test_full_mass_allowed_but_not_strict(self):
        machine = PrefixMachine((Program("0", "0", 1), Program("1", "1", 1)))
        assert machine.kraft_sum == ONE and not machine.strict_kraft
        assert PrefixMachine.parse("0\t0\t1\n1\t1\t1\n") == machine

    @pytest.mark.parametrize("program, message", [
        (Program("012", "1", 0), "not a 0/1 word: '012'"),
        (Program("0", "1x", 0), "not a 0/1 word: '1x'"),
        (Program("", "1", -1), "negative halt stage for code ε"),
        # a lone surrogate has no UTF-8 encoding, so the word check must not encode it
        (Program("0\udc80", "1", 0), "not a 0/1 word: '0\\udc80'"),
        (Program("0", "\udc80", 0), "not a 0/1 word: '\\udc80'"),
        (Program("0 1", "1", 0), "not a 0/1 word: '0 1'"),
        (Program("1\t", "1", 0), "not a 0/1 word: '1\\t'"),
        (Program("0", "01\n", 0), "not a 0/1 word: '01\\n'"),
        (Program("1\x00", "1", 0), "not a 0/1 word: '1\\x00'"),
        (Program("0", "-", 0), "not a 0/1 word: '-'"),
        (Program("ε", "1", 0), "not a 0/1 word: 'ε'"),
        (Program("0", "٠", 0), "not a 0/1 word: '٠'"),
        (Program("０", "1", 0), "not a 0/1 word: '０'"),
        (Program("0é", "1", 0), "not a 0/1 word: '0é'"),
        (Program("0", "\U0001d7ce", 0), "not a 0/1 word: '𝟎'"),
    ])
    def test_constructor_checks_the_words(self, program, message):
        with pytest.raises(DomainError) as info:
            PrefixMachine((program,))
        assert type(info.value) is DomainError and str(info.value) == message


    def test_the_first_bad_word_is_named_codes_first(self):
        with pytest.raises(DomainError) as info:
            PrefixMachine((Program("0", "1x", 0), Program("1\udc80", "0", 0), Program("2", "1", 0)))
        assert str(info.value) == "not a 0/1 word: '1\\udc80'"


# (text, programs as (code, output, halt) or (error type, message)): what the
# line reader gives, which the one-pass reader must give too; rows are plain
# words, `str` and not its checked subclass `BitString`
PARSE_TABLE = [
    ("\t0000\t3\n", [("", "0000", 3)]),
    ("01\t-\t2\n", [("01", "", 2)]),
    ("01\tε\t2\n", [("01", "", 2)]),
    ("ε\t1\t2\n", [("", "1", 2)]),
    (" 01 \t 1 \t 3 \n10\t0\t 4\n", [("01", "1", 3), ("10", "0", 4)]),
    ("0\t1\t2\r\n10\t0\t3\r\n", [("0", "1", 2), ("10", "0", 3)]),
    ("# header\n\n0\t1\t2\n   \n  # indented\n10\t\t5\n", [("0", "1", 2), ("10", "", 5)]),
    # str.splitlines breaks lines at \r, \x1c and \u2028 as well, inside a comment too
    ("0\t1\t2\n#\r10\t0\t3\n", [("0", "1", 2), ("10", "0", 3)]),
    ("0\t1\t2\r10\t0\t3", [("0", "1", 2), ("10", "0", 3)]),
    ("0\t1\t2\x1c10\t-\t3\u202811\t1\t4\n", [("0", "1", 2), ("10", "", 3), ("11", "1", 4)]),
    ("0\t1\t2\n\x0c\n10\t0\t3\n", [("0", "1", 2), ("10", "0", 3)]),
    ("0\t1\t+3\n", [("0", "1", 3)]),
    ("0\t1\t²\n", (ParseError, "m.tsv:1: bad program line: invalid literal for int() with base 10: '²'")),
    ("0\t1\t٣\n", [("0", "1", 3)]),
    ("0\t1\t1_0\n", [("0", "1", 10)]),
    ("0\t1\t-1\n", (ParseError, "m.tsv:1: negative halt stage for code 0")),
    ("0\t1\t\n", (ParseError, "m.tsv:1: bad program line: invalid literal for int() with base 10: ''")),
    ("0\t1\t2\n1\t0\n", (ParseError, "m.tsv:2: expected 3 tab-separated fields, got 2")),
    ("0\t1\t2\t3\n", (ParseError, "m.tsv:1: expected 3 tab-separated fields, got 4")),
    ("0\t1\t2\n012\t1\t3\n", (ParseError, "m.tsv:2: bad program line: not a 0/1 word: '012'")),
    ("0\t1x\t2\n", (ParseError, "m.tsv:1: bad program line: not a 0/1 word: '1x'")),
    ("01\t1\t2\n1\t0\t1\n01\t0\t3\n", (PrefixFreeViolation, "m.tsv: duplicate code 01")),
    # sorted neighbours meet 0 and 01 first; the table order meets 11 and 1101 first
    ("11\t0\t1\n0\t1\t2\n1101\t1\t3\n01\t0\t4\n",
     (PrefixFreeViolation, "m.tsv: code 11 is a prefix of code 1101")),
    ("0\t1\t2\n01\t0\t1\n", (PrefixFreeViolation, "m.tsv: code 0 is a prefix of code 01")),
    ("\t1\t2\n0\t1\t1\n", (PrefixFreeViolation, "m.tsv: code ε is a prefix of code 0")),
    ("", []),
    ("\t-\t1\n", [("", "", 1)]),
]

# line ends and comments that the one-pass reader takes, and ones it leaves
# to the line reader: str.splitlines also breaks at \r, \x1c and \u2028
BREAKS = ["\n", "\n# note\n", "\n\n"]
ODD_BREAKS = ["\r\n", "\r", "\x1c", "\u2028", "\n#\r0\t1\t2\n", "\t\n", "\n  \n"]
ODD_LINES = [
    " 1\t0\t3", "ε\t1\t2", "1\tε\t2", "0\t1x\t2", "0\t1\t+1", "0\t1\t-1", "0\t1\t 3",
    "0\t1\t٣", "0\t1\t", "0\t1\t1_0", "0\t1", "0\t1\t2\t3", "  # note",
]


class TestParsePaths:
    """Plain tables take the one-pass reader, and any other line sends the
    whole text to the line reader; both give the same programs and errors."""

    @pytest.mark.parametrize("text, want", PARSE_TABLE, ids=[str(i) for i in range(len(PARSE_TABLE))])
    def test_pinned_programs_and_messages(self, text, want):
        if isinstance(want, list):
            machine = PrefixMachine.parse(text, source="m.tsv")
            assert machine.programs == tuple(want)
            assert all(type(w) is str for p in machine.programs for w in p[:2])
        else:
            kind, message = want
            with pytest.raises(kind) as info:
                PrefixMachine.parse(text, source="m.tsv")
            assert type(info.value) is kind and str(info.value) == message

    def test_constructor_names_the_table_order_pair(self):
        programs = tuple(Program(c, "0", 1) for c in ("11", "0", "1101", "01"))
        with pytest.raises(PrefixFreeViolation) as info:
            PrefixMachine(programs)
        assert info.value.message == "code 11 is a prefix of code 1101"

    @seed(21)
    @given(st.lists(st.text(alphabet="01", max_size=5), max_size=10))
    def test_prefix_check_matches_the_pairwise_test(self, codes):
        pairwise = any(i != j and b.startswith(a) for i, a in enumerate(codes) for j, b in enumerate(codes))
        try:
            PrefixMachine(tuple(Program(c, "0", 0) for c in codes))
        except PrefixFreeViolation:
            assert pairwise
        else:
            assert not pairwise

    @seed(22)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["", "0", "1", "01", "110"]),
                st.sampled_from(["", "-", "0", "10"]),
                st.sampled_from(["0", "7", "12"]),
            ),
            max_size=6,
        ),
        st.lists(st.sampled_from(BREAKS + ODD_BREAKS), min_size=7, max_size=7),
        st.one_of(st.none(), st.tuples(st.integers(0, 6), st.sampled_from(ODD_LINES))),
    )
    def test_one_pass_reader_agrees_with_the_line_reader(self, rows, breaks, odd):
        lines = ["\t".join(row) for row in rows]
        if odd is not None:
            lines.insert(odd[0], odd[1])
        text = "".join(line + sep for line, sep in zip(lines, breaks))
        plain = _plain_programs(text)
        try:
            full = _programs(text, "m")
        except ParseError:
            assert plain is None
        else:
            assert plain is None or plain == full
        if odd is None and all(sep in BREAKS for sep in breaks):
            assert plain is not None


class TestIntegerMassSums:
    """The Kraft sum and the Ω steps are summed as integers over the longest
    code length; these pin them against exact values and the program scan."""

    def test_complete_mixed_length_code(self):
        machine = PrefixMachine((Program("0", "0", 2), Program("10", "1", 0), Program("11", "", 1)))
        assert machine.kraft_sum == ONE and not machine.strict_kraft
        assert [omega_approx(machine, s) for s in range(4)] == [
            Dyadic(1, 2), Dyadic(1, 1), ONE, ONE
        ]

    def test_empty_machine(self):
        machine = PrefixMachine(())
        assert machine.kraft_sum == ZERO and machine.strict_kraft
        assert omega_approx(machine, 0) == ZERO

    def test_random_mixed_length_machines_match_the_scan(self):
        rng = random.Random(13)
        for i in range(60):
            machine = random_machine(rng, max_code_len=1 + i % 9, strict=i % 2 == 0)
            assert machine.kraft_sum == prefix_set_measure(BitString(p.code) for p in machine.programs)
            for s in range(machine.max_halt_stage() + 2):
                assert omega_approx(machine, s) == brute_omega_approx(machine, s)
            assert omega_approx(machine, machine.max_halt_stage()) == machine.kraft_sum


    def test_a_seeded_800_row_table_matches_the_scans(self):
        # prefix-free: three short codes open with 0, and the others with 1
        # followed by distinct 11-bit heads and up to 3 more bits; 300
        # outputs of up to 12 bits, so most outputs have several programs
        rng = random.Random(25)
        codes = ["00", "010", "011"] + [
            "1" + format(v, "011b") + "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
            for v in rng.sample(range(1 << 11), 797)
        ]
        words = ["".join(rng.choice("01") for _ in range(rng.randint(0, 12))) for _ in range(300)]
        rows = [(code, rng.choice(words), rng.randint(0, 100)) for code in codes]
        machine = PrefixMachine.parse("".join(f"{c}\t{o or '-'}\t{h}\n" for c, o, h in rows))
        assert machine.programs == tuple(rows)
        assert machine.kraft_sum == brute_omega_approx(machine, 100)
        for t in range(102):
            assert omega_approx(machine, t) == brute_omega_approx(machine, t), t
            assert machine.halted_complexities(t) == brute_halted_complexities(machine, t), t

class TestKApprox:
    def test_not_yet_halted(self):
        m = PrefixMachine((Program("00", "101", 5),))
        assert k_approx(m, BitString("101"), 4) == INFINITE
        assert k_approx(m, BitString("101"), 5) == 2

    def test_min_rule(self):
        m = PrefixMachine((Program("010", "1", 1), Program("00", "1", 7)))
        assert k_approx(m, BitString("1"), 3) == 3
        assert k_approx(m, BitString("1"), 8) == 2

    def test_monotone_over_random_machines(self):
        rng = random.Random(3)
        for _ in range(30):
            machine = random_machine(rng)
            outputs = {BitString(p.output) for p in machine.programs}
            for o in outputs:
                values = [k_approx(machine, o, t) for t in range(13)]
                assert all(a >= b for a, b in zip(values, values[1:]))


class TestOmega:
    def test_examples(self):
        m = PrefixMachine((Program("01", "1", 3),))
        assert omega_approx(m, 2) == ZERO
        assert omega_approx(m, 3) == Dyadic(1, 2)
        m2 = PrefixMachine((Program("0", "1", 1), Program("100", "0", 2)))
        assert omega_approx(m2, 2) == Dyadic(5, 3)

    def test_monotone_and_below_one(self):
        rng = random.Random(5)
        for _ in range(30):
            machine = random_machine(rng, strict=True)
            values = [omega_approx(machine, t) for t in range(13)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert all(v < ONE for v in values)


class TestSatisfiesConstant:
    def test_examples(self):
        m = PrefixMachine((Program("000", "111", 0),))
        assert satisfies_constant(m, BitString("111"), 0, 5)  # K = 3 = |s|
        m2 = PrefixMachine((Program("000", "10110", 0),))
        assert not satisfies_constant(m2, BitString("10110"), 1, 0)  # 3 < 4
        assert satisfies_constant(m2, BitString("10110"), 2, 0)  # 3 >= 3

    def test_sentinel_satisfies_everything(self):
        m = PrefixMachine(())
        assert satisfies_constant(m, BitString("1" * 30), 0, 100)


class TestRandomnessClassTree:
    def test_full_before_any_halt(self):
        m = PrefixMachine((Program("0", "00", 9),))
        tree = randomness_class_tree(m, 0, 3, 3)
        assert len(tree.nodes) == 15

    def test_prunes_compressible_cone(self):
        m = PrefixMachine((Program("", "00", 0),))  # K(00) = 0
        tree = randomness_class_tree(m, 1, 0, 3)
        assert BitString("00") not in tree.nodes
        assert BitString("000") not in tree.nodes
        assert BitString("01") in tree.nodes
        assert len(tree.nodes) == 15 - 3

    def test_unreachable_bound_keeps_everything(self):
        m = PrefixMachine((Program("0", "00", 0), Program("10", "1", 0)))
        tree = randomness_class_tree(m, 6, 12, 3)
        assert len(tree.nodes) == 15

    def test_shrinks_as_stages_pass(self):
        m = PrefixMachine((Program("0", "0011", 4),))
        early = randomness_class_tree(m, 1, 3, 4)
        late = randomness_class_tree(m, 1, 4, 4)
        assert late.nodes <= early.nodes

    def test_measure_bound_machine_relative(self):
        rng = random.Random(11)
        for _ in range(20):
            machine = random_machine(rng)
            stages = sorted({p.halt_stage for p in machine.programs} | {0})
            for c in range(5):
                for t in stages:
                    table = machine.halted_complexities(t)
                    failing = [
                        BitString(b)
                        for b, k in table.items()
                        if k < len(b) - c and len(b) <= 10
                    ]
                    assert prefix_set_measure(failing) <= omega_approx(machine, t).scaled(c)

    def test_path_measure_matches_complement_formula(self):
        rng = random.Random(13)
        for _ in range(5):
            machine = random_machine(rng, max_out_len=8)
            t = machine.max_halt_stage()
            for c in (0, 1, 2):
                tree = randomness_class_tree(machine, c, t, 9)
                table = machine.halted_complexities(t)
                failing = [
                    BitString(b) for b, k in table.items() if k < len(b) - c and len(b) <= 9
                ]
                via_paths = Dyadic(len(paths_at_depth(tree, 9)), 9)
                assert via_paths == ONE - prefix_set_measure(failing)


def _differential_machines() -> list[PrefixMachine]:
    """The empty machine, two hand-built duplicate-output cases, and seeded
    random machines whose outputs come from a small pool, so most outputs
    have several programs halting at different stages."""
    machines = [
        PrefixMachine(()),
        # the longer code for 01 halts first, the shorter one later
        PrefixMachine((Program("0", "01", 6), Program("110", "01", 2), Program("10", "1", 4))),
        # the shorter code halts first, so the longer one never lowers K
        PrefixMachine((Program("0", "01", 2), Program("110", "01", 6), Program("111", "0", 3))),
    ]
    rng = random.Random(17)
    for _ in range(40):
        machines.append(random_machine(rng, max_code_len=6, max_out_len=rng.choice((2, 5, 9))))
    return machines


def _longer_code_halts_first(machine: PrefixMachine) -> bool:
    return any(
        p.output == q.output and len(p.code) > len(q.code) and p.halt_stage < q.halt_stage
        for p in machine.programs
        for q in machine.programs
    )


class TestIndexMatchesTheScans:
    """The stage index against the linear scans in oracles, at every stage
    from 0 to two past the last halt, between halt stages included."""

    MACHINES = _differential_machines()

    def test_the_machines_cover_the_hard_cases(self):
        assert not self.MACHINES[0].programs
        random_ones = self.MACHINES[3:]
        assert sum(_longer_code_halts_first(m) for m in random_ones) >= 10

    @pytest.mark.parametrize("machine", MACHINES, ids=[f"m{i}" for i in range(len(MACHINES))])
    def test_k_omega_and_halted_complexities(self, machine):
        outputs = {BitString(p.output) for p in machine.programs}
        probes = outputs | set(strings_up_to(3)) | {BitString("0" * 10)}  # mostly never output
        for t in range(machine.max_halt_stage() + 3):
            assert omega_approx(machine, t) == brute_omega_approx(machine, t)
            assert machine.halted_complexities(t) == brute_halted_complexities(machine, t)
            for sigma in probes:
                k = k_approx(machine, sigma, t)
                assert k == brute_k_approx(machine, sigma, t)
                assert k == INFINITE or type(k) is int

    @pytest.mark.parametrize("machine", MACHINES, ids=[f"m{i}" for i in range(len(MACHINES))])
    def test_least_failing_length(self, machine):
        # past the longest output, up to three times it, the scan expands
        # fewer bits than the oracle's t
        longest = max((len(p.output) for p in machine.programs), default=0)
        reals = {rational_of_string(BitString(p.output)) for p in machine.programs}
        reals |= {ZERO, ONE, Dyadic(5, 4), Dyadic(1, 1)}
        for t in range(max(machine.max_halt_stage() + 3, 3 * longest + 2)):
            for c in range(4):
                for x in reals:
                    assert least_failing_length(machine, x, c, t) == brute_least_failing_length(machine, x, c, t)

    @pytest.mark.parametrize("i", range(12))
    def test_scans_far_past_the_longest_output(self, i):
        # outputs of at most 5 bits, halting from stage 100 on, so every
        # stage scanned is far past the longest output
        machine = random_machine(random.Random(100 + i), max_code_len=5, max_out_len=5)
        machine = PrefixMachine(tuple(p._replace(halt_stage=100 + p.halt_stage) for p in machine.programs))
        reals = {rational_of_string(BitString(p.output)) for p in machine.programs} | {ZERO, ONE, Dyadic(5, 4)}
        for t in range(100, machine.max_halt_stage() + 3):
            for c in range(4):
                for x in reals:
                    fast = least_failing_length(machine, x, c, t)
                    assert fast == brute_least_failing_length(machine, x, c, t), (t, c, x)

    def test_least_failing_prefix_at_the_longest_output(self):
        # the scan stops at the longest output's length, and must include it
        m = PrefixMachine((Program("0", "10110", 0), Program("10", "1", 0)))
        x = Dyadic(11, 4)  # 1011 followed by zeroes
        assert least_failing_length(m, x, 0, 100) == 5 == brute_least_failing_length(m, x, 0, 100)
        assert least_failing_length(m, x, 3, 5) == 5
        assert least_failing_length(m, x, 4, 100) is None
        assert least_failing_length(m, x, 0, 4) is None  # no length past the stage is scanned

    def test_least_failing_length_examples(self):
        m = PrefixMachine((Program("0", "0000", 3), Program("10", "000", 1)))
        x = Dyadic(1, 5)  # 00001
        assert least_failing_length(m, x, 0, 0) is None  # nothing halted yet
        assert least_failing_length(m, x, 0, 2) is None  # K(000) = 2, but 3 > t
        assert least_failing_length(m, x, 0, 3) == 3  # K(000) = 2 < 3
        assert least_failing_length(m, x, 1, 3) is None  # 2 < 3 - 1 fails, and 4 > t
        assert least_failing_length(m, x, 1, 4) == 4  # K(0000) = 1 < 4 - 1
        assert least_failing_length(m, x, 3, 5) is None
        assert least_failing_length(m, Dyadic(1, 3), 0, 5) is None  # no output is a prefix of 001


class TestPadding:
    def test_examples(self):
        assert compute_padding(0, 0) == 1
        assert compute_padding(1, 0) == 1
        assert compute_padding(8, 0) == 14
        assert compute_padding(4, 4) == 14

    @given(st.integers(0, 40), st.integers(0, 10))
    def test_soundness_and_minimality(self, n, k):
        p = compute_padding(n, k)
        assert padding_holds(p, n + k)
        assert not any(padding_holds(q, n + k) for q in range(1, p))
