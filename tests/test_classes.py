from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantorsim import checks
from cantorsim.checks import build_scenario
from cantorsim.classes import (
    CappedReplay, Tree, dead_ends, diagonalize, graft_points, measure_capped_enumeration,
    paths_at_depth, tree_from_halting_oracle, tree_of_complement,
)
from cantorsim.complexity import (
    PrefixMachine, Program, intersect_randomness, randomness_class_tree, satisfies_constant,
)
from cantorsim.draws import (
    diagonal_suite, random_bitstring, random_machine, random_string_script, random_string_set,
)
from cantorsim.dyadic import EMPTY, BitString, strings_up_to
from cantorsim.errors import DomainError, InputError, ParseError, PreconditionError, RangeError
from cantorsim.oracles import brute_nodes, expansion_at_depth, node_set_dead_ends, node_set_paths
from cantorsim.scenarios import FIXTURE_FILES, SCENARIOS
from cantorsim.streams import EnumerationScript
from cantorsim.verify import _measure, verify_capped, verify_diagonalize


def bs(*words: str) -> list[str]:
    return [BitString.parse(w) for w in words]


class TestTree:
    def test_parse_inserts_root(self):
        tree = Tree.parse("0\n00\n")
        assert EMPTY in tree.nodes and tree.depth == 2

    def test_parse_accepts_epsilon_line(self):
        tree = Tree.parse("ε\n0\n")
        assert len(tree.nodes) == 2

    def test_parse_rejects_gaps_naming_the_node(self):
        with pytest.raises(ParseError) as info:
            Tree.parse("00\n")
        assert "00" in str(info.value)

    def test_constructor_rejects_over_depth(self):
        with pytest.raises(DomainError):
            Tree(1, frozenset(bs("00")))

    def test_constructor_rejects_a_word_not_over_01(self):
        with pytest.raises(DomainError) as info:
            Tree(3, frozenset({"01", "0a"}))
        assert str(info.value) == "not a 0/1 word: '0a'"

    def test_constructor_rejects_nested_exits(self):
        with pytest.raises(DomainError) as info:
            Tree(3, frozenset(bs("01", "0", "011")))
        assert str(info.value) == "exit 01 extends exit 0"

    def test_full(self):
        assert len(Tree(3).nodes) == 15
        assert not Tree(40).exits  # no node is built


def seeded_node_sets():
    """Prefix-closed node sets with their depth bounds: the nodes of
    `diagonal_suite` trees and the prefix closures of random strings."""
    rng = random.Random(8)
    out = []
    for _ in range(8):
        depth = rng.randint(3, 10)
        for tree in diagonal_suite(rng, rng.randint(1, min(4, depth - 1)), depth):
            out.append((brute_nodes(tree), depth))
    for _ in range(30):
        depth = rng.randint(0, 10)
        words = [random_bitstring(rng, depth + 2) for _ in range(rng.randint(0, 6))]
        out.append((frozenset(w[:i] for w in words for i in range(min(len(w), depth) + 1)), depth))
    return out


SEEDED_NODE_SETS = seeded_node_sets()
# Ids that name the draw index alone, so a change to what a draw holds renames
# no test.  `test_complement_and_randomness_trees` keeps pytest's `nodesI-D`
# ids (D is the drawn depth): giving it these would rename 52 test ids at once.
DRAW_IDS = [f"draw{i}" for i in range(len(SEEDED_NODE_SETS))]


class TestExitsMatchTheNodeSets:
    @pytest.mark.parametrize("nodes, depth", SEEDED_NODE_SETS, ids=DRAW_IDS)
    def test_round_trip_paths_and_dead_ends(self, nodes, depth):
        tree = Tree.closure_of(nodes, depth)
        assert tree.nodes == nodes == brute_nodes(tree)
        assert Tree.closure_of(tree.nodes, depth) == tree
        for d in range(depth + 1):
            assert paths_at_depth(tree, d) == node_set_paths(nodes, d)
        assert dead_ends(tree) == node_set_dead_ends(nodes, depth)

    @pytest.mark.parametrize("nodes, depth", SEEDED_NODE_SETS)
    def test_complement_and_randomness_trees(self, nodes, depth):
        rng = random.Random(f"{depth}/{len(nodes)}")
        strings = random_string_set(rng, depth + 2, 6)
        assert tree_of_complement(strings, depth).nodes == {
            n for n in strings_up_to(depth) if not any(n.startswith(s) for s in strings)
        }
        machine = random_machine(rng, max_out_len=depth + 1)
        c, t = rng.randint(0, 2), rng.randint(0, 12)
        constrained = set()
        for n in strings_up_to(depth):
            if (not n or n[:-1] in constrained) and satisfies_constant(machine, n, c, t):
                constrained.add(n)
        tree = Tree.closure_of(nodes, depth)
        assert randomness_class_tree(machine, c, t, depth).nodes == constrained
        assert intersect_randomness(tree, machine, c, t).nodes == nodes & constrained


class TestPathsAndDeadEnds:
    def test_paths_examples(self):
        full = Tree(2)
        assert paths_at_depth(full, 2) == ("00", "01", "10", "11")
        single = Tree.closure_of(bs("00"), 2)
        assert paths_at_depth(single, 2) == ("00",)
        empty = Tree(2, frozenset([EMPTY]))
        assert paths_at_depth(empty, 2) == ()

    def test_paths_range_error(self):
        with pytest.raises(RangeError):
            paths_at_depth(Tree(2), 3)

    def test_dead_ends_examples(self):
        assert dead_ends(Tree(2)) == ()
        t = Tree(2, frozenset(bs("01", "10", "11")))  # nodes ε, 0, 1, 00
        assert dead_ends(t) == ("1",)
        root_only = Tree(1, frozenset(bs("0", "1")))
        assert dead_ends(root_only) == (EMPTY,)


class TestDiagonalize:
    def test_single_tree_graft(self):
        base = Tree.closure_of(bs("000", "1"), 3)
        assert graft_points([base], 3) == (BitString("1"),)
        assert verify_diagonalize([base], 3, (BitString("1"),), diagonalize(base, ("1",))) == []

    def test_identical_trees_graft_at_their_own_dead_ends(self):
        base = Tree.closure_of(bs("0000", "001", "01", "10"), 4)
        trees = [base, base, base]
        ends = dead_ends(base)
        assert len(ends) >= 3
        assert graft_points(trees, 4) == ends[:3]

    def test_no_dead_ends_is_a_precondition_error(self):
        with pytest.raises(PreconditionError):
            graft_points([Tree(3)], 3)

    def test_error_names_the_failing_tree(self):
        base = Tree.closure_of(bs("000", "1", "01"), 3)
        bad = Tree(3)  # no dead ends anywhere, so nothing reachable
        with pytest.raises(PreconditionError) as info:
            graft_points([base, bad], 3)
        assert "tree 1" in str(info.value)

    def test_mismatched_depth_rejected(self):
        with pytest.raises(InputError):
            graft_points([Tree(3), Tree(2)], 3)

    def test_guarantees_on_example(self):
        trees = [Tree.closure_of(bs("000", "1", "01"), 3), Tree.closure_of(bs("0", "10"), 3)]
        taus = graft_points(trees, 3)
        combined = diagonalize(trees[0], taus)
        assert verify_diagonalize(trees, 3, taus, combined) == []
        # a result that is not the graft, or graft targets one bit short, is caught
        assert verify_diagonalize(trees, 3, taus, trees[1]) == [
            "result does not contain the base tree", "no combined path through graft 0",
            "no combined path through graft 1",
        ]
        short = tuple(tau[:-1] for tau in taus)
        assert verify_diagonalize(trees, 3, short, combined) == [
            "graft 0: -, but the trees give 1", "tree 0 still meets its graft cone",
            "graft 1: 0, but the trees give 01",
        ]

    def test_the_least_of_two_candidates_is_the_target(self):
        # σ_1 = 01, and tree 1 has the two dead ends 010 and 011 above it
        trees = [Tree.closure_of(bs("0000", "01", "1"), 4),
                 Tree.closure_of(bs("010", "011", "1111"), 4)]
        assert dead_ends(trees[0]) == ("1", "01")
        assert dead_ends(trees[1]) == ("010", "011")
        taus = graft_points(trees, 4)
        assert taus == ("1", "010")
        assert verify_diagonalize(trees, 4, taus, diagonalize(trees[0], taus)) == []
        # the other candidate also passes every check but the re-derived target
        other = ("1", "011")
        assert verify_diagonalize(trees, 4, other, diagonalize(trees[0], other)) == [
            "graft 1: 011, but the trees give 010"
        ]

    def test_more_graft_targets_than_trees_are_reported(self):
        trees = [Tree.closure_of(bs("000", "1", "01"), 3), Tree.closure_of(bs("0", "10"), 3)]
        extra = graft_points(trees, 3) + (BitString("0"),)
        assert verify_diagonalize(trees, 3, extra, diagonalize(trees[0], extra[:2])) == [
            "3 graft targets for 2 trees"
        ]


def relog(*verdicts: bool):
    """A tamper giving the capped-pair log the verdicts, one per entry."""
    return lambda c: CappedReplay(tuple((s, item, v) for (s, item, _), v in zip(c.log, verdicts)))


CAPPED_TAMPERS = [
    # (cap parameter, tamper, findings) on the capped-pair replay, which
    # admits 00 and 01 and refuses 1
    (2, relog(True, True, True), ["cap 2 broken for index 0"]),
    (1, lambda c: c, ["cap 1 admitted a string for index 0"]),
    (2, relog(True, False, True),
     ["stage 2: index 0 refused 01 within cap 2", "frozen index 0 admitted more after stage 2"]),
    (2, lambda c: CappedReplay(c.log + ((4, BitString("11"), True),)),
     ["the logs are not the script's events"]),
    (2, lambda c: CappedReplay(c.log[::-1]), ["the logs are not the script's events"]),
]


def _scan_measure(strings: frozenset[str]) -> Fraction:
    """The measure as `verify._measure` took it before it summed over one
    common denominator: one Fraction per kept word."""
    kept: list[str] = []
    for w in sorted(strings):
        if not w.startswith(tuple(kept)):
            kept.append(w)
    return sum((Fraction(1, 1 << len(w)) for w in kept), Fraction(0))


def _scan_verify_capped(script, n, replays) -> list[str]:
    """`verify_capped` as it was before it grouped the events in one pass:
    one scan of all events per index."""
    events = {e: [(s, item) for s, i, item in script.events if i == e] for e in script.indices()}
    if {e: [(s, item) for s, item, _ in r.log] for e, r in replays.items()} != events:
        return ["the logs are not the script's events"]
    errs = []
    cap = Fraction(n - 1, n)
    for e, replay in replays.items():
        unconstrained = _scan_measure(frozenset(item for _, item in events[e])) <= cap
        admitted, frozen = frozenset(), None
        for s, item, took in replay.log:
            fits = frozen is None and _scan_measure(admitted | {item}) <= cap
            if took and frozen is not None:
                errs.append(f"frozen index {e} admitted more after stage {frozen}")
            elif took and not fits:
                errs.append(f"cap {n} broken for index {e}" if n > 1
                            else f"cap 1 admitted a string for index {e}")
            elif fits and not took:
                errs.append(f"unconstrained index {e} was modified" if unconstrained
                            else f"stage {s}: index {e} refused {item or '-'} within cap {n}")
            if took:
                admitted |= {item}
            elif frozen is None:
                frozen = s
    return list(dict.fromkeys(errs))


def _first_admit_refused(replays):
    """The replays with the first admitted item of the least index that has
    one refused instead."""
    for e in sorted(replays):
        log = replays[e].log
        for k, (s, item, took) in enumerate(log):
            if took:
                return {**replays, e: CappedReplay(log[:k] + ((s, item, False),) + log[k + 1:])}
    return replays


class TestMeasureCapped:
    def test_the_one_pass_verifier_agrees_with_the_scan_on_the_suite(self, monkeypatch):
        calls = []

        def record(script, n, replays):
            calls.append((script, n, replays))
            return verify_capped(script, n, replays)

        monkeypatch.setattr(checks, "verify_capped", record)
        assert checks.check_classes(seed=0).ok
        assert len(calls) == 400 and {n for _, n, _ in calls} == set(range(1, 9))
        for script, n, replays in calls:
            assert verify_capped(script, n, replays) == []
            assert _scan_verify_capped(script, n, replays) == []
            tampered = _first_admit_refused(replays)
            findings = verify_capped(script, n, tampered)
            assert findings == _scan_verify_capped(script, n, tampered)
            assert bool(findings) == (tampered is not replays)  # every flip is caught

    @pytest.mark.parametrize("n, tamper, findings", CAPPED_TAMPERS)
    def test_a_tampered_replay_is_caught(self, n, tamper, findings):
        script = EnumerationScript.parse(FIXTURE_FILES["s_capped.tsv"], horizon=5)
        (capped,) = measure_capped_enumeration(script, 2, 5).values()
        assert verify_capped(script, n, {0: tamper(capped)}) == findings

    def test_a_replay_missing_an_index_is_caught(self):
        script = EnumerationScript.parse(FIXTURE_FILES["s_capped.tsv"], horizon=5)
        assert verify_capped(script, 2, {}) == ["the logs are not the script's events"]

    def test_the_scenario_check_catches_an_early_refusal(self):
        # a cap test of < for ≤ refuses 01, whose cones fill exactly 1/2
        replay = build_scenario(next(sc for sc in SCENARIOS if sc.name == "capped-pair"))
        assert replay.check() == []
        replay.result[0] = relog(True, False, False)(replay.result[0])
        assert replay.check() == ["stage 2: index 0 refused 01 within cap 2"]

    def test_the_log_follows_the_events_not_the_horizon(self):
        def log(horizon):
            script = EnumerationScript.parse(FIXTURE_FILES["s_capped.tsv"], horizon=horizon)
            return measure_capped_enumeration(script, 2, horizon)[0].log

        assert log(10**5) == log(5)

    def test_cap_one_refuses_everything(self):
        script = EnumerationScript.from_events([(0, 0, BitString("0"))], horizon=2)
        replays = measure_capped_enumeration(script, 1, 2)
        assert replays[0].final() == frozenset()
        assert replays[0].frozen_at == 0

    def test_freeze_example(self):
        script = EnumerationScript.from_events(
            [(1, 0, BitString("00")), (2, 0, BitString("01")), (3, 0, BitString("1"))],
            horizon=5,
        )
        replays = measure_capped_enumeration(script, 2, 5)
        assert replays[0].final() == frozenset(bs("00", "01"))
        assert replays[0].frozen_at == 3

    def test_a_frozen_index_refuses_even_a_covered_item(self):
        script = EnumerationScript.from_events(
            [(1, 0, BitString("00")), (2, 0, BitString("1")), (3, 0, BitString("000"))], horizon=3
        )
        (capped,) = measure_capped_enumeration(script, 2, 3).values()
        assert [admitted for _, _, admitted in capped.log] == [True, False, False]
        assert capped.frozen_at == 2

    def test_respects_cap_at_every_stage(self):
        rng = random.Random(2)
        for _ in range(50):
            script = random_string_script(rng)
            for n in range(1, 9):
                replays = measure_capped_enumeration(script, n, script.horizon)
                assert verify_capped(script, n, replays) == []

    def test_unbinding_cap_passes_everything_through(self):
        script = EnumerationScript.from_events(
            [(0, 0, BitString("000")), (1, 0, BitString("001"))], horizon=2
        )
        replays = measure_capped_enumeration(script, 2, 2)
        assert replays[0].final() == frozenset(bs("000", "001"))
        assert replays[0].frozen_at is None
        emptied = CappedReplay(tuple((s, item, False) for s, item, _ in replays[0].log))
        assert verify_capped(script, 2, {0: emptied}) == ["unconstrained index 0 was modified"]

    @given(st.frozensets(st.text(alphabet="01", max_size=10).map(BitString), max_size=12))
    def test_the_measure_is_the_expansion_count(self, strings):
        depth = max((len(s) for s in strings), default=0)
        assert _measure(strings) == Fraction(len(expansion_at_depth(strings, depth)), 1 << depth)

    def test_a_40_bit_item_is_measured_at_once(self):
        # the measure sorts and sums the words; listing the 2^40 words of the
        # longest length would never finish
        long = BitString("01" * 20)
        script = EnumerationScript.from_events([(0, 0, BitString("1")), (1, 0, long)], horizon=1)
        replays = measure_capped_enumeration(script, 4, 1)
        start = time.perf_counter()
        assert verify_capped(script, 4, replays) == []
        assert _measure(frozenset({BitString("1"), long})) == Fraction(1, 2) + Fraction(1, 1 << 40)
        assert time.perf_counter() - start < 1

    def test_zero_cap_parameter_rejected(self):
        script = EnumerationScript.from_events([], horizon=1)
        with pytest.raises(DomainError):
            measure_capped_enumeration(script, 0, 1)

    def test_complement_view(self):
        script = EnumerationScript.from_events(
            [(0, 0, BitString("00")), (1, 0, BitString("10"))], horizon=2
        )
        replay = measure_capped_enumeration(script, 2, 2)[0]
        final = replay.final()
        depth = 4
        open_leaves = expansion_at_depth(final, depth)
        closed = tree_of_complement(final, depth)
        leftover = set(paths_at_depth(Tree(depth), depth)) - set(open_leaves)
        assert leftover == set(paths_at_depth(closed, depth))


class TestIntersectRandomness:
    def test_no_halts_keeps_the_class(self):
        tree = Tree.closure_of(bs("010", "11"), 3)
        machine = PrefixMachine(())
        assert intersect_randomness(tree, machine, 0, 5).nodes == tree.nodes

    def test_both_prunings_apply(self):
        tree = Tree.closure_of(bs("000", "010", "011"), 3)  # prunes cone [1]
        machine = PrefixMachine((Program("", "00", 0),))  # prunes 00
        q = intersect_randomness(tree, machine, 1, 3)
        assert BitString("000") not in q.nodes
        assert BitString("010") in q.nodes
        assert not any(n.startswith("1") for n in q.nodes)

    def test_subset_of_both(self):
        tree = Tree.closure_of(bs("00", "11"), 2)
        machine = PrefixMachine((Program("0", "11", 0),))
        q = intersect_randomness(tree, machine, 0, 2)
        assert q.nodes <= tree.nodes


class TestHaltingOracle:
    def test_never_halts_gives_the_full_tree(self):
        tree = tree_from_halting_oracle(lambda s, e: False, 0, 3)
        assert len(tree.nodes) == 15

    def test_halting_on_a_cone_prunes_it(self):
        tree = tree_from_halting_oracle(lambda s, e: s.startswith("0"), 0, 3)
        assert all(not n.startswith("0") for n in tree.nodes)
        assert EMPTY in tree.nodes

    def test_non_monotone_oracle_rejected(self):
        def flaky(s: str, e: int) -> bool:
            return s == "0"  # halts on 0 but not on its extensions

        with pytest.raises(InputError):
            tree_from_halting_oracle(flaky, 0, 3)

    def test_membership_round_trip(self):
        budgets = {"01": 3, "1": 2}

        def oracle(s: str, e: int) -> bool:
            return any(s.startswith(b) and len(s) >= budgets[b] for b in budgets)

        tree = tree_from_halting_oracle(oracle, 0, 5)
        for s in paths_at_depth(Tree(5), 5):
            on_tree = all(s[:i] in tree.nodes for i in range(6))
            assert on_tree == (not oracle(s, 0))
