"""Golden output of the listing, recipe, diagonalization and small `run`
commands, of every `check` suite at its default bounds and at a few explicit
ones, and of every scenario.

Each `<name>.out` under fixtures/golden/ is the stdout of one command below,
and `<name>.err` its stderr when that is not empty; the test replays the
command and compares bytes and the exit code.  The inputs and the scenario
fixtures are written into the test's own directory.  In a fresh interpreter,
the `run` commands load none of the check side, which `Replay.check()` and
`check` then load.  To rewrite the goldens after a deliberate output change,
run this file as a script from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cantorsim import runs
from cantorsim.checks import SUITES
from cantorsim.cli import main
from cantorsim.scenarios import FIXTURE_FILES, SCENARIOS, write_fixtures

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def _off_path(path: str, bound: int) -> str:
    """A star-construction listing: every string up to the bound, in
    length-lexicographic order, except the prefixes of the path."""
    words = (format(v, "b").zfill(n) if n else "" for n in range(bound + 1)
             for v in range(1 << n))
    return "".join((w or "-") + "\n" for w in words if not path.startswith(w))


INPUTS = {
    "script.tsv": "".join(
        f"{s}\t{e}\tdyadic\t{num}/2^3\n"
        for s, e, num in [(2, 0, 3), (5, 1, 5), (8, 2, 6), (11, 3, 3), (14, 4, 5), (21, 3, 5),
                          (24, 4, 6)]
    ),
    "machine.tsv": "00\t-\t0\n010\t01\t0\n10\t01\t10\n",
    "listing_a.txt": _off_path("1011100", 5),
    "listing_b.txt": _off_path("0101101", 6),
    "t0.txt": "000\n00\n0\n1\n",
    # the prefix closures of {000, 1, 01} and of {0, 10}
    "t_base.txt": "-\n0\n1\n00\n01\n000\n",
    "t_other.txt": "-\n0\n1\n10\n",
    "l1.txt": "1\n11\n00 01 1\n",
    "l2.tsv": "0\t0\tstr\t00\n1\t0\tstr\t01\n",
    # index 1 reaches index 0's set at stage 1, is diverted to "00 1", and
    # respawns at stage 2 when its set grows
    "l1_converge.txt": "1\n00 1\n11\n",
    "l2_converge.tsv": "0\t0\tstr\t00\n1\t1\tstr\t00\n2\t1\tstr\t01\n",
    "fam.tsv": "0\t0\tdyadic\t0/2^0\n0\t1\tdyadic\t3/2^2\n",
}

_REALS = ["run", "friedberg-reals", "--script", "script.tsv", "--machine", "machine.tsv",
          "--k", "3", "--len", "8", "--horizon", "30"]
_CLASSES = ["run", "friedberg-classes", "--listing", "listing_a.txt", "--listing", "listing_b.txt",
            "--len", "7", "--horizon", "30"]

COMMANDS = {
    "coverfamily-odd-2000": ["run", "coverfamily", "--count", "2000"],
    "coverfamily-even-1500": ["run", "coverfamily", "--count", "1500", "--parity", "even"],
    "oddones-800": ["run", "oddones", "--count", "800"],
    "friedberg-reals": _REALS,
    "friedberg-reals-mirror": _REALS + ["--mirror"],
    "friedberg-classes": _CLASSES,
    "friedberg-classes-no-acceptable-stream": _CLASSES + ["--no-acceptable-stream"],
    "friedberg-reals-small": ["run", "friedberg-reals", "--script", "fam.tsv", "--machine",
                              "m_hatm.tsv", "--k", "2", "--len", "6", "--horizon", "10"],
    "friedberg-classes-small": ["run", "friedberg-classes", "--listing", "l_star.txt",
                                "--listing", "l_star_skip.txt", "--len", "3", "--horizon", "6"],
    "diagonalize-beta": ["run", "diagonalize", "--tree", "t_beta.txt", "--depth", "3"],
    "diagonalize-t0": ["run", "diagonalize", "--tree", "t0.txt", "--depth", "3"],
    "diagonalize-pair": ["run", "diagonalize", "--tree", "t_base.txt", "--tree", "t_other.txt",
                         "--depth", "3"],
    "omega-splice": ["run", "omega", "--machine", "m_splice.tsv", "--horizon", "9"],
    "capped-empty": ["run", "capped", "--script", "s_empty.tsv", "--cap-n", "2", "--horizon", "4"],
    "merge-listed-sets": ["run", "merge", "--l2", "l2.tsv", "--l1-sets", "l1.txt", "--horizon", "3"],
    "merge-converging-pair": ["run", "merge", "--l2", "l2_converge.tsv", "--l1-sets",
                              "l1_converge.txt", "--horizon", "4"],
    **{f"check-{suite}": ["check", suite] for suite in SUITES},
    "check-classes-small": ["check", "classes", "--cases", "3", "--depth", "8", "--seed", "1"],
    "check-complexity-small": ["check", "complexity", "--cases", "5", "--depth", "6", "--seed", "2"],
    **{f"scenario-{sc.name}": list(sc.argv) for sc in SCENARIOS},
}

# the commands whose golden is an error, with its exit code
EXIT_CODES = {"diagonalize-beta": 3}


def _argv(name: str, directory: Path) -> list[str]:
    """One golden command, its inputs written into the directory."""
    write_fixtures(str(directory))
    for file, text in INPUTS.items():
        (directory / file).write_text(text, encoding="utf-8")
    files = INPUTS.keys() | FIXTURE_FILES.keys()
    return [str(directory / a) if a in files else a for a in COMMANDS[name]]


def replay(name: str, directory: Path) -> tuple[int, str, str]:
    """Run one golden command with its inputs written into the directory."""
    argv = _argv(name, directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def first_difference(out: str, golden: str) -> str | None:
    """None when the texts are equal; else their first differing line, with
    its number, and both line counts.  Lines keep their ends, so a missing
    final newline differs too.  Where pytest's own diff of two long strings
    takes minutes, this takes one pass."""
    if out == golden:
        return None
    got, want = out.splitlines(keepends=True), golden.splitlines(keepends=True)
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    shown = [repr(lines[i]) if i < len(lines) else "no line" for lines in (got, want)]
    return f"line {i + 1}: {shown[0]}, the golden {shown[1]}; {len(got)} lines, the golden {len(want)}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_the_golden(name, tmp_path):
    code, out, err = replay(name, tmp_path)
    err_file = GOLDEN_DIR / f"{name}.err"
    assert code == EXIT_CODES.get(name, 0)
    assert err == (err_file.read_text(encoding="utf-8") if err_file.exists() else "")
    difference = first_difference(out, (GOLDEN_DIR / f"{name}.out").read_text(encoding="utf-8"))
    if difference:
        pytest.fail(difference, pytrace=False)


def test_a_difference_names_its_first_line_and_both_counts():
    assert first_difference("0\t1\n1\t01\n", "0\t1\n1\t01\n") is None
    assert first_difference("0\t1\n1\t00\n2\t001\n", "0\t1\n1\t01\n") == (
        "line 2: '1\\t00\\n', the golden '1\\t01\\n'; 3 lines, the golden 2"
    )
    assert first_difference("0\t1\n1\t01", "0\t1\n1\t01\n") == (
        "line 2: '1\\t01', the golden '1\\t01\\n'; 2 lines, the golden 2"
    )
    assert first_difference("0\t1\n", "0\t1\n1\t01\n") == (
        "line 2: no line, the golden '1\\t01\\n'; 1 lines, the golden 2"
    )


CHECKED_RUNS = [n for n, argv in COMMANDS.items() if argv[0] == "run" and n not in EXIT_CODES]


@pytest.mark.parametrize("name", CHECKED_RUNS)
def test_each_run_passes_its_check(name):
    assert runs.replay(COMMANDS[name], {**FIXTURE_FILES, **INPUTS}.__getitem__).check() == []


CHECK_SIDE = [
    "cantorsim.checks", "cantorsim.draws", "cantorsim.oracles", "cantorsim.scenarios",
    "cantorsim.verify",
]

# standard-library modules a run leaves unloaded: the value types generate no
# methods, and only the checks read a dyadic as a Fraction
RUN_FREE_STDLIB = ["dataclasses", "fractions"]

# argv: the run command lines, then one of them to check, as JSON; prints the
# exit codes, the check-side modules loaded after the runs, the modules of
# RUN_FREE_STDLIB loaded after the runs, and the check-side modules loaded
# after the check and after `check dyadic`
_IMPORT_PROBE = """
import contextlib, io, json, sys
from cantorsim import runs
from cantorsim.cli import main

def loaded(names=json.loads(sys.argv[3])):
    return sorted(set(names) & sys.modules.keys())

def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
    after_runs = loaded()
    stdlib_after_runs = loaded(json.loads(sys.argv[4]))
    found = runs.replay(json.loads(sys.argv[2]), read).check()
    after_check = loaded()
    suite = main(["check", "dyadic"])
print(json.dumps([codes, after_runs, stdlib_after_runs, found, after_check, suite, loaded()]))
"""


def test_a_run_loads_no_check_side(tmp_path):
    names = [n for n, argv in COMMANDS.items() if argv[0] == "run"]
    argvs = [_argv(n, tmp_path) for n in names]
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs),
         json.dumps(_argv("omega-splice", tmp_path)), json.dumps(CHECK_SIDE),
         json.dumps(RUN_FREE_STDLIB)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    codes, after_runs, stdlib_after_runs, found, after_check, suite, after_suite = json.loads(
        proc.stdout
    )
    assert codes == [EXIT_CODES.get(n, 0) for n in names]
    assert (after_runs, stdlib_after_runs) == ([], [])
    assert (found, after_check) == ([], ["cantorsim.oracles", "cantorsim.verify"])
    assert (suite, after_suite) == (0, CHECK_SIDE)


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in COMMANDS:
            code, out, err = replay(name, Path(tmp))
            if code != EXIT_CODES.get(name, 0):
                sys.exit(f"{name}: exit {code}: {err}")
            (GOLDEN_DIR / f"{name}.out").write_text(out, encoding="utf-8")
            if err:
                (GOLDEN_DIR / f"{name}.err").write_text(err, encoding="utf-8")
            else:
                (GOLDEN_DIR / f"{name}.err").unlink(missing_ok=True)
            print(f"{name}: {len(out.splitlines())} lines")
