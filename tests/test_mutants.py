"""Named mutants of the constructions, kept as tests.

Each mutant wraps one function, in-process, where the code under test looks
it up, so that a construction decides differently.  It must be reported by
the construction's verifier, through the `check` of its `run` entry, on the
scenarios its row names, and by the `check` suite its row names; check
constructions replays the scenarios, so its findings name the same ones.

The suite mutants wrap a function a `check` suite compares with its own
expected answer, and pin the report's first lines: they keep the suites'
sweeps of expected answers exactly as strict.
"""

from __future__ import annotations

import sys

import pytest

from cantorsim import checks, classes, constructions, coverings, runs
from cantorsim.checks import run_suite
from cantorsim.classes import Tree, dead_ends
from cantorsim.coverings import StarSnapshot
from cantorsim.dyadic import optimal_covering
from cantorsim.scenarios import FIXTURE_FILES, SCENARIOS

_failing_runs = constructions._failing_runs
_compute_padding = constructions.compute_padding
_approx_string = constructions.approx_string
_star_construction = coverings.star_construction
_odd_ones = constructions.odd_ones_real_enumeration
_capped = classes.measure_capped_enumeration
_graft_points = classes.graft_points
_tree_from_halting_oracle = checks.tree_from_halting_oracle


def late_trigger(r, machine, c, horizon, start=0):
    """Each run opens one stage after the first failing stage; a run that
    would then open at or after its release is dropped."""
    return [
        (t + 1, n, release)
        for t, n, release in _failing_runs(r, machine, c, horizon, start)
        if t + 1 < (horizon + 1 if release is None else release)
    ]


def late_release(r, machine, c, horizon, start=0):
    """Each run is released at the first value change after the stage that
    released it, or never when there is none."""
    changes = [s for s in range(1, horizon + 1) if r.values[s] != r.values[s - 1]]
    return [
        (t, n, None if release is None else next((s for s in changes if s > release), None))
        for t, n, release in _failing_runs(r, machine, c, horizon, start)
    ]


def dropped_run(r, machine, c, horizon, start=0):
    """The first run is left out."""
    return _failing_runs(r, machine, c, horizon, start)[1:]


def repeated_run(r, machine, c, horizon, start=0):
    """The last run is listed twice; a splice still splices it once, so only
    the regret slots show it."""
    found = _failing_runs(r, machine, c, horizon, start)
    return found + found[-1:]


def padding_plus_one(n, k):
    """One more than the least padding."""
    return _compute_padding(n, k) + 1


def flipped_witness(x, n):
    """The witness that splice or regret builds has its last bit flipped; the
    run detector and hat_m still read the true expansion."""
    word = _approx_string(x, n)
    if word and sys._getframe(1).f_code.co_name in ("splice_random", "regret_construction"):
        return word[:-1] + "10"[int(word[-1])]
    return word


def star_case_b(listing, horizon):
    """A case-b stage keeps the odd covering of the listing before sigma
    instead of adjoining sigma."""
    return [
        StarSnapshot("b", optimal_covering(listing[:t])) if snap.case == "b" else snap
        for t, snap in enumerate(_star_construction(listing, horizon))
    ]


def odd_ones_skip(i):
    """From index 5 on, the next string of the listing."""
    return _odd_ones(i + 1 if i >= 5 else i)


def cap_plus_one(script, n, horizon):
    """The measure cap of n + 1 in place of n."""
    return _capped(script, n + 1, horizon)


def graft_last(trees, depth):
    """Each graft target is the length-lexicographically last candidate, not
    the least: the last dead end of tree n above σ_n, or σ_n without one."""
    sigmas = dead_ends(trees[0])
    return tuple(
        ([tau] + [d for d in dead_ends(tree) if d.startswith(sigmas[n])])[-1]
        for n, (tree, tau) in enumerate(zip(trees, _graft_points(trees, depth)))
    )


# (the modules it is patched into, the name it replaces there, mutant) ->
# (the scenarios whose check reports it, the suite that must fail)
MUTANTS = {
    ((constructions,), "_failing_runs", late_trigger): (
        {"splice-permanent", "splice-recover", "regret-permanent", "regret-recover-padding"},
        "constructions"),
    ((constructions,), "_failing_runs", late_release): (
        {"splice-recover", "regret-recover-padding"}, "constructions"),
    ((constructions,), "_failing_runs", dropped_run): (
        {"splice-permanent", "splice-recover", "regret-permanent", "regret-recover-padding"},
        "constructions"),
    ((constructions,), "_failing_runs", repeated_run): (
        {"regret-permanent", "regret-recover-padding"}, "constructions"),
    ((constructions,), "compute_padding", padding_plus_one): (
        {"regret-recover-padding"}, "constructions"),
    ((constructions,), "approx_string", flipped_witness): (
        {"splice-permanent", "splice-recover", "regret-recover-padding"}, "constructions"),
    ((runs, checks), "star_construction", star_case_b): ({"star-cases"}, "coverings"),
    ((runs, checks), "odd_ones_real_enumeration", odd_ones_skip): (set(), "constructions"),
    ((runs, checks), "measure_capped_enumeration", cap_plus_one): (set(), "classes"),
    ((runs, checks), "graft_points", graft_last): (set(), "classes"),
}


def reported_scenarios() -> set[str]:
    return {sc.name for sc in SCENARIOS if runs.replay(sc.argv, FIXTURE_FILES.__getitem__).check()}


@pytest.mark.parametrize("where, replaced, mutant", MUTANTS, ids=[m.__name__ for *_, m in MUTANTS])
def test_the_failing_run_mutants_are_reported(monkeypatch, where, replaced, mutant):
    for module in where:
        monkeypatch.setattr(module, replaced, mutant)
    reported, suite = MUTANTS[where, replaced, mutant]
    assert reported_scenarios() == reported
    report = run_suite(suite)
    assert not report.ok
    names = {sc.name for sc in SCENARIOS}
    named = {finding.partition(":")[0] for finding in report.failures} & names
    assert named == (reported if suite == "constructions" else set())


def test_the_unmutated_runs_pass():
    assert reported_scenarios() == set()
    assert all(run_suite(suite).ok for suite in {suite for _, suite in MUTANTS.values()})


# σ_1 = 01 is the base tree's second dead end, and tree 1 has the two dead
# ends 010 and 011 above it
TWO_CANDIDATES = {
    "base.txt": Tree.closure_of(["0000", "01", "1"], 4).render(),
    "other.txt": Tree.closure_of(["010", "011", "1111"], 4).render(),
}


def test_graft_last_is_reported_on_two_candidates(monkeypatch):
    argv = ["run", "diagonalize", "--tree", "base.txt", "--tree", "other.txt", "--depth", "4"]
    assert runs.replay(argv, TWO_CANDIDATES.__getitem__).check() == []
    monkeypatch.setattr(runs, "graft_points", graft_last)
    run = runs.replay(argv, TWO_CANDIDATES.__getitem__)
    assert run.lines[:2] == ["# tau_0 = 1", "# tau_1 = 011"]
    assert run.check() == ["graft 1: 011, but the trees give 010"]


def intersection_is_the_tree(tree, machine, c, t):
    """The tree itself, as if the class removed none of its nodes."""
    return tree


def longest_exit_dropped(oracle, e, depth):
    """The oracle's tree without its longest exit, the lexicographically
    last of that length, so that exit's cone is on the tree."""
    tree = _tree_from_halting_oracle(oracle, e, depth)
    return Tree(tree.depth, tree.exits - {max(tree.exits, key=lambda x: (len(x), x))})


# (the name it replaces in checks, mutant) -> (suite, the report's first lines)
SUITE_MUTANTS = {
    ("intersect_randomness", intersection_is_the_tree): ("complexity", [
        "FAIL\tcomplexity\t1149 cases",
        "counterexample\tmachine 0: intersection with the class differs from the scan",
        "counterexample\tmachine 2: intersection with the class differs from the scan",
    ]),
    ("tree_from_halting_oracle", longest_exit_dropped): ("classes", [
        "FAIL\tclasses\t435 cases",
        "counterexample\toracle case 0: membership mismatch at 11",
        "counterexample\toracle case 1: membership mismatch at 110011",
    ]),
}


@pytest.mark.parametrize(
    "replaced, mutant", SUITE_MUTANTS, ids=[m.__name__ for _, m in SUITE_MUTANTS]
)
def test_the_suite_mutants_are_reported(monkeypatch, replaced, mutant):
    monkeypatch.setattr(checks, replaced, mutant)
    suite, first = SUITE_MUTANTS[replaced, mutant]
    assert run_suite(suite).lines()[: len(first)] == first
