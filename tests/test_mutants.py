"""Named mutants of the constructions, kept as tests.

Each mutant wraps one package function in-process, so that a construction
decides differently, and must be reported both by the construction's
verifier, through the `check` of its `run` entry, and by the `check` suite
that replays the scenarios.
"""

from __future__ import annotations

import pytest

from cantorsim import constructions, runs
from cantorsim.checks import run_suite
from cantorsim.scenarios import FIXTURE_FILES, SCENARIOS

_failing_runs = constructions._failing_runs


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


# mutant -> the scenarios whose check reports it
MUTANTS = {
    late_trigger: {"splice-permanent", "splice-recover", "regret-permanent",
                   "regret-recover-padding"},
    late_release: {"splice-recover", "regret-recover-padding"},
    dropped_run: {"splice-permanent", "splice-recover", "regret-permanent",
                  "regret-recover-padding"},
    repeated_run: {"regret-permanent", "regret-recover-padding"},
}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.__name__)
def test_the_failing_run_mutants_are_reported(monkeypatch, mutant):
    monkeypatch.setattr(constructions, "_failing_runs", mutant)
    reported = {
        sc.name
        for sc in SCENARIOS
        if sc.kind in ("splice", "regret")
        and runs.replay(sc.argv, FIXTURE_FILES.__getitem__).check()
    }
    assert reported == MUTANTS[mutant]
    report = run_suite("constructions")
    assert not report.ok
    assert {line.split("\t")[1].partition(":")[0] for line in report.lines()[1:]} == reported


def test_the_unmutated_runs_pass():
    assert all(runs.replay(sc.argv, FIXTURE_FILES.__getitem__).check() == [] for sc in SCENARIOS)
    assert run_suite("constructions").ok
