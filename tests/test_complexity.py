from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantorsim.checks import random_machine
from cantorsim.classes import paths_at_depth
from cantorsim.complexity import (
    INFINITE,
    PrefixMachine,
    Program,
    compute_padding,
    k_approx,
    omega_approx,
    randomness_class_tree,
    satisfies_constant,
)
from cantorsim.dyadic import ONE, ZERO, BitString, Dyadic, prefix_set_measure
from cantorsim.errors import KraftViolation, ParseError, PrefixFreeViolation
from cantorsim.oracles import padding_holds


def prog(code: str, out: str, halt: int) -> Program:
    return Program(BitString.parse(code), BitString.parse(out), halt)


class TestMachineValidation:
    def test_duplicate_code_rejected(self):
        with pytest.raises(PrefixFreeViolation):
            PrefixMachine((prog("01", "0", 1), prog("01", "1", 2)))

    def test_prefix_code_rejected(self):
        with pytest.raises(PrefixFreeViolation):
            PrefixMachine((prog("0", "0", 1), prog("01", "1", 2)))

    def test_kraft_error_is_its_own_kind(self):
        # prefix-free binary tables always satisfy the mass budget, so this
        # class only guards internal misuse; it must stay distinguishable
        assert issubclass(KraftViolation, ParseError)
        assert not issubclass(KraftViolation, PrefixFreeViolation)

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
        assert machine.programs == (prog("", "0000", 3),)

    def test_full_mass_allowed_but_not_strict(self):
        machine = PrefixMachine((prog("0", "0", 1), prog("1", "1", 1)))
        assert machine.kraft_sum == ONE and not machine.strict_kraft


class TestKApprox:
    def test_not_yet_halted(self):
        m = PrefixMachine((prog("00", "101", 5),))
        assert k_approx(m, BitString("101"), 4) == INFINITE
        assert k_approx(m, BitString("101"), 5) == 2

    def test_min_rule(self):
        m = PrefixMachine((prog("010", "1", 1), prog("00", "1", 7)))
        assert k_approx(m, BitString("1"), 3) == 3
        assert k_approx(m, BitString("1"), 8) == 2

    def test_monotone_over_random_machines(self):
        rng = random.Random(3)
        for _ in range(30):
            machine = random_machine(rng)
            outputs = {p.output for p in machine.programs}
            for o in outputs:
                values = [k_approx(machine, o, t) for t in range(13)]
                assert all(a >= b for a, b in zip(values, values[1:]))


class TestOmega:
    def test_examples(self):
        m = PrefixMachine((prog("01", "1", 3),))
        assert omega_approx(m, 2) == ZERO
        assert omega_approx(m, 3) == Dyadic(1, 2)
        m2 = PrefixMachine((prog("0", "1", 1), prog("100", "0", 2)))
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
        m = PrefixMachine((prog("000", "111", 0),))
        assert satisfies_constant(m, BitString("111"), 0, 5)  # K = 3 = |s|
        m2 = PrefixMachine((prog("000", "10110", 0),))
        assert not satisfies_constant(m2, BitString("10110"), 1, 0)  # 3 < 4
        assert satisfies_constant(m2, BitString("10110"), 2, 0)  # 3 >= 3

    def test_sentinel_satisfies_everything(self):
        m = PrefixMachine(())
        assert satisfies_constant(m, BitString("1" * 30), 0, 100)


class TestRandomnessClassTree:
    def test_full_before_any_halt(self):
        m = PrefixMachine((prog("0", "00", 9),))
        tree = randomness_class_tree(m, 0, 3, 3)
        assert len(tree.nodes) == 15

    def test_prunes_compressible_cone(self):
        m = PrefixMachine((prog("", "00", 0),))  # K(00) = 0
        tree = randomness_class_tree(m, 1, 0, 3)
        assert BitString("00") not in tree.nodes
        assert BitString("000") not in tree.nodes
        assert BitString("01") in tree.nodes
        assert len(tree.nodes) == 15 - 3

    def test_unreachable_bound_keeps_everything(self):
        m = PrefixMachine((prog("0", "00", 0), prog("10", "1", 0)))
        tree = randomness_class_tree(m, 6, 12, 3)
        assert len(tree.nodes) == 15

    def test_shrinks_as_stages_pass(self):
        m = PrefixMachine((prog("0", "0011", 4),))
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
