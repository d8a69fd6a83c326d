"""Tests of the benchmark's own parts: generator, tracer and gate.

Run from the repository root: python3 -m pytest cantorbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

import cantorsim
import cantorsim.cli as cli
import gate
import gen
import run
import tracer
from cantorsim.scenarios import FIXTURE_FILES, SCENARIOS, write_fixtures


def _snapshot(directory, seed: int, workload: str) -> tuple[dict, dict]:
    os.makedirs(directory)
    plan = gen.generate(workload, seed, str(directory))
    files = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, directory)] = fh.read()
    text = repr(plan).replace(str(directory), "<dir>")
    return files, text


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_varies_across_seeds(tmp_path, workload):
    a = _snapshot(tmp_path / "a", 7, workload)
    b = _snapshot(tmp_path / "b", 7, workload)
    c = _snapshot(tmp_path / "c", 8, workload)
    assert a == b
    assert a != c


def _bindings() -> dict:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "cantorsim" or name.startswith("cantorsim."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            during = _bindings()
            raise RuntimeError("leave the traced region by an exception")
    after = _bindings()
    changed = [k for k in before if during[k] is not before[k]]
    assert ("cantorsim.constructions", "satisfies_constant") in changed
    assert ("cantorsim.complexity", "PrefixMachine", "parse") in changed
    assert ("cantorsim.cli", "main") in changed
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _scenario_argv(name: str, directory) -> list[str]:
    sc = next(s for s in SCENARIOS if s.name == name)
    return [str(directory / a) if a in FIXTURE_FILES else a for a in sc.argv]


def test_self_times_never_exceed_their_span(tmp_path):
    write_fixtures(str(tmp_path))
    t = tracer.Tracer()
    with t:
        for sc in SCENARIOS:
            _run(_scenario_argv(sc.name, tmp_path))
        _run(["run", "friedberg-classes", "--listing", str(tmp_path / "l_star.txt"),
              "--len", "5", "--horizon", "6"])
    spans = t.spans
    assert None not in spans and len(spans) > 100
    assert any(parent >= 0 for *_, parent in spans)
    for (name, start, end, _), own in zip(spans, tracer.span_self_times(spans)):
        assert -1e-9 <= own <= end - start, name
    totals = tracer.self_times(spans)
    assert sum(totals.values()) == pytest.approx(
        sum(end - start for _, start, end, parent in spans if parent < 0))
    metrics = tracer.layer_metrics(spans, t.counts)
    assert metrics["cli.main.calls"] == len(SCENARIOS) + 1
    assert metrics["coverings.star_construction.calls"] >= 1


@pytest.mark.parametrize("name", ["splice-permanent", "hatm-violation", "regret-permanent"])
def test_gate_counts_a_tampered_trace_record_as_a_failure(tmp_path, name):
    write_fixtures(str(tmp_path))
    argv = _scenario_argv(name, tmp_path)
    code, out = _run(argv)
    assert gate.job_errors(argv, 0, code, out) == []

    lines = out.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("3\t"))
    stage, state, value = lines[i].split("\t")
    lines[i] = "\t".join((stage, state, "1/2^1" if value != "1/2^1" else "1/2^2"))
    tampered = "\n".join(lines) + "\n"
    errors = gate.job_errors(argv, 0, code, tampered)
    assert errors

    rep = {"jobs": [{"name": name, "code": code, "digest": "x", "stderr": "", "errors": errors}]}
    assert run._failures(rep, None)
    reference = {"jobs": [{"name": name, "code": code, "digest": "y"}]}
    assert run._failures(dict(rep, jobs=[dict(rep["jobs"][0], errors=[])]), reference)


def test_gate_checks_exit_codes_and_suite_reports():
    assert gate.job_errors(["check", "dyadic"], 0, 1, "FAIL\tdyadic\t3 cases\n")
    assert gate.job_errors(["check", "dyadic"], 0, 0, "FAIL\tdyadic\t3 cases\n")
    assert gate.job_errors(["check", "dyadic"], 0, 0, "ok\tdyadic\t3 cases\n") == []


def test_package_under_test_is_the_checkout():
    assert os.path.dirname(cantorsim.__file__) == str(run.SRC / "cantorsim")
