"""Named mutants of the constructions, kept as tests.

Each mutant wraps one function that `constructions` calls, in-process, so
that a construction decides differently, and must be reported both by the
construction's verifier, through the `check` of its `run` entry, and by the
`check` suite that replays the scenarios.
"""

from __future__ import annotations

import sys

import pytest

from cantorsim import constructions, runs
from cantorsim.checks import run_suite
from cantorsim.scenarios import FIXTURE_FILES, SCENARIOS

_failing_runs = constructions._failing_runs
_compute_padding = constructions.compute_padding
_approx_string = constructions.approx_string


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


# (the function of `constructions` it replaces, mutant) -> the scenarios whose check reports it
MUTANTS = {
    ("_failing_runs", late_trigger): {"splice-permanent", "splice-recover", "regret-permanent",
                                      "regret-recover-padding"},
    ("_failing_runs", late_release): {"splice-recover", "regret-recover-padding"},
    ("_failing_runs", dropped_run): {"splice-permanent", "splice-recover", "regret-permanent",
                                     "regret-recover-padding"},
    ("_failing_runs", repeated_run): {"regret-permanent", "regret-recover-padding"},
    ("compute_padding", padding_plus_one): {"regret-recover-padding"},
    ("approx_string", flipped_witness): {"splice-permanent", "splice-recover",
                                         "regret-recover-padding"},
}


@pytest.mark.parametrize("replaced, mutant", MUTANTS, ids=[m.__name__ for _, m in MUTANTS])
def test_the_failing_run_mutants_are_reported(monkeypatch, replaced, mutant):
    monkeypatch.setattr(constructions, replaced, mutant)
    reported = {
        sc.name
        for sc in SCENARIOS
        if sc.kind in ("splice", "regret")
        and runs.replay(sc.argv, FIXTURE_FILES.__getitem__).check()
    }
    assert reported == MUTANTS[replaced, mutant]
    report = run_suite("constructions")
    assert not report.ok
    assert {line.split("\t")[1].partition(":")[0] for line in report.lines()[1:]} == reported


def test_the_unmutated_runs_pass():
    assert all(runs.replay(sc.argv, FIXTURE_FILES.__getitem__).check() == [] for sc in SCENARIOS)
    assert run_suite("constructions").ok
