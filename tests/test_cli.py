from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cantorsim import checks, runs
from cantorsim.checks import SUITES, build_scenario, check_coverings
from cantorsim.classes import Tree
from cantorsim.cli import main
from cantorsim.dyadic import Antichain, BitString, optimal_covering
from cantorsim.errors import InputError
from cantorsim.scenarios import FIXTURE_FILES, SCENARIOS
from cantorsim.verify import verify_coverfamily
from conftest import resolve_argv


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def run_python(args, cwd, **env) -> subprocess.CompletedProcess:
    """A fresh interpreter with the args and the package's source on its
    path, run in the directory with the extra environment variables."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd
    )


def run_module(argv, cwd, **env) -> subprocess.CompletedProcess:
    """`python -m cantorsim` with the argv in a fresh interpreter."""
    return run_python(["-m", "cantorsim", *argv], cwd, **env)


@pytest.fixture()
def run(fixture_dir, capsys):
    def invoke(argv):
        code = main(resolve_argv(list(argv), fixture_dir))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestScenarios:
    @pytest.mark.parametrize("sc", SCENARIOS, ids=lambda s: s.name)
    def test_scenarios_exit_cleanly_and_repeat_bytes(self, run, sc):
        code1, out1, _ = run(sc.argv)
        code2, out2, _ = run(sc.argv)
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        assert out1  # every scenario prints something

    @pytest.mark.parametrize("sc", SCENARIOS, ids=lambda s: s.name)
    def test_library_lines_are_the_cli_stdout(self, run, sc):
        code, out, _ = run(sc.argv)
        assert code == 0
        assert "".join(line + "\n" for line in build_scenario(sc).lines) == out


class TestErrors:
    def test_malformed_script_names_the_line(self, run, fixture_dir):
        bad = fixture_dir / "bad.tsv"
        bad.write_text("1\t0\tdyadic\t1/2^2\nnot a line\n")
        code, out, err = run(
            ["run", "beta", "--script", str(bad), "--horizon", "3"]
        )
        assert code == 2
        assert ":2" in err

    def test_negative_stage_names_the_line(self, run, fixture_dir):
        bad = fixture_dir / "neg.tsv"
        bad.write_text("-1\t0\tdyadic\t1/2^1\n")
        code, out, err = run(["run", "beta", "--script", str(bad), "--horizon", "3"])
        assert code == 2
        assert err == f"input error: {bad}:1: stage and index must be ≥ 0\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0\t0\t1\n0\t1\t2\n", "{path}: duplicate code 0"),
            ("0\t0\t1\n01\t1\t2\n", "{path}: code 0 is a prefix of code 01"),
            ("# codes\n0\t0\t1\n10\t1\t-2\n", "{path}:3: negative halt stage for code 10"),
        ],
        ids=["duplicate", "prefix", "negative-halt-stage"],
    )
    def test_machine_errors_name_the_file(self, run, fixture_dir, text, message):
        bad = fixture_dir / "bad_machine.tsv"
        bad.write_text(text)
        code, out, err = run(["run", "omega", "--machine", str(bad), "--horizon", "3"])
        assert (code, out) == (2, "")
        assert err == "input error: " + message.format(path=bad) + "\n"

    def test_a_file_that_is_not_utf8_is_an_input_error(self, run, fixture_dir):
        bad = fixture_dir / "bad.txt"
        bad.write_bytes(b"\xff\xfe0\n")
        code, out, err = run(["run", "star", "--listing", str(bad), "--horizon", "1"])
        assert (code, out) == (2, "")
        assert err == f"input error: {bad}: not UTF-8 text (invalid start byte)\n"

    def test_unknown_suite(self, run):
        code, out, err = run(["check", "nosuch"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["check", "constructions", "--depth", "3", "--len", "2"], "--depth"),
            (["check", "dyadic", "--depth", "9"], "--depth"),
            (["check", "coverings", "--len", "4"], "--len"),
        ],
    )
    def test_check_rejects_a_flag_the_suite_ignores(self, run, argv, flag):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == f"input error: suite {argv[1]} takes no {flag}\n"

    @pytest.mark.parametrize(
        "suite, flag, cap",
        [("dyadic", "--len", 18), ("coverings", "--depth", 5), ("complexity", "--depth", 15)],
    )
    def test_check_rejects_an_exponential_bound_over_its_cap(self, run, suite, flag, cap):
        for value in (cap + 1, 10**6):
            start = time.perf_counter()
            code, out, err = run(["check", suite, flag, str(value)])
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert err == (
                f"input error: suite {suite} takes {flag} at most {cap}, got {value}"
                " (its work grows exponentially with the value)\n"
            )

    @pytest.mark.parametrize("value", [251, 10**6])
    def test_check_classes_rejects_a_depth_over_its_cap(self, run, value):
        start = time.perf_counter()
        code, out, err = run(["check", "classes", "--depth", str(value)])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            f"input error: suite classes takes --depth at most 250, got {value}"
            " (its work grows polynomially with the value)\n"
        )

    @pytest.mark.parametrize("depth", [0, 1])
    def test_check_classes_rejects_a_depth_under_its_floor(self, fixture_dir, depth):
        proc = run_module(["check", "classes", "--depth", str(depth)], fixture_dir)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"input error: suite classes takes --depth at least 2, got {depth}\n"

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["run", "oddones", "--count", "-3"], "--count", -3),
            (["run", "coverfamily", "--count", "-3"], "--count", -3),
            (["run", "friedberg-reals", "--script", "s_flat.tsv", "--machine", "m_hatm.tsv",
              "--k", "2", "--len", "-1", "--horizon", "3"], "--len", -1),
            (["run", "friedberg-classes", "--listing", "l_star.txt", "--len", "-1",
              "--horizon", "3"], "--len", -1),
            (["run", "omega", "--machine", "m_splice.tsv", "--horizon", "-1"], "--horizon", -1),
            (["run", "splice", "--script", "s_flat.tsv", "--machine", "m_splice.tsv",
              "--c", "-1", "--horizon", "4"], "--c", -1),
            (["run", "splice", "--script", "s_flat.tsv", "--machine", "m_splice.tsv",
              "--c", "0", "--horizon", "4", "--index", "-1"], "--index", -1),
            (["run", "hatm", "--script", "s_flat.tsv", "--machine", "m_hatm.tsv",
              "--k", "-1", "--horizon", "4"], "--k", -1),
            (["run", "regret", "--script", "s_regret_dup.tsv", "--machine", "m_splice.tsv",
              "--c", "1", "--horizon", "12", "--max-slots", "-1"], "--max-slots", -1),
            (["run", "regret", "--script", "s_flat.tsv", "--machine", "m_splice.tsv",
              "--c", "1", "--horizon", "4", "--c-tilde", "-2"], "--c-tilde", -2),
            (["run", "capped", "--script", "s_capped.tsv", "--cap-n", "-1", "--horizon", "5"],
             "--cap-n", -1),
            (["run", "diagonalize", "--tree", "t_beta.txt", "--depth", "-1"], "--depth", -1),
            (["check", "dyadic", "--len", "-1"], "--len", -1),
            (["check", "classes", "--cases", "-2"], "--cases", -2),
            (["check", "coverings", "--depth", "-1"], "--depth", -1),
        ],
        ids=["oddones", "coverfamily", "friedberg-reals", "friedberg-classes", "omega-horizon",
             "splice-c", "splice-index", "hatm-k", "regret-max-slots", "regret-c-tilde",
             "capped-cap-n", "diagonalize-depth", "check-len", "check-cases", "check-depth"],
    )
    def test_negative_count_or_length_is_rejected(self, fixture_dir, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as info:
            main(resolve_argv(argv, fixture_dir))
        captured = capsys.readouterr()
        assert (info.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f"error: argument {flag}: must be ≥ 0, got {value}\n")

    def test_non_integer_count_keeps_the_int_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "oddones", "--count", "abc"])
        assert capsys.readouterr().err.endswith("argument --count: invalid int value: 'abc'\n")

    def test_internal_type_error_is_not_an_input_error(self, monkeypatch):
        def broken(args, read):
            raise TypeError("internal bug")

        monkeypatch.setattr("cantorsim.cli.build", broken)
        with pytest.raises(TypeError, match="internal bug"):
            main(["run", "oddones", "--count", "1"])

    def test_string_item_in_a_real_script_is_an_input_error(self, run, fixture_dir):
        bad = fixture_dir / "str_item.tsv"
        bad.write_text("1\t0\tstr\t01\n")
        code, out, err = run(
            ["run", "splice", "--script", str(bad), "--machine", "m_splice.tsv",
             "--c", "0", "--horizon", "3"]
        )
        assert (code, out) == (2, "")
        assert err == "input error: index 0 carries a non-dyadic item at stage 1\n"

    def test_precondition_exit_code(self, run, fixture_dir):
        full = fixture_dir / "full_mass.tsv"
        full.write_text("0\t0\t0\n1\t1\t0\n")
        code, out, err = run(
            [
                "run", "splice",
                "--script", "s_flat.tsv",
                "--machine", str(full),
                "--c", "0",
                "--horizon", "4",
            ]
        )
        assert code == 3

    def test_capacity_exit_code(self, run):
        code, out, err = run(
            [
                "run", "regret",
                "--script", "s_regret_dup.tsv",
                "--machine", "m_splice.tsv",
                "--c", "1",
                "--horizon", "12",
                "--max-slots", "1",
            ]
        )
        assert (code, out) == (3, "")
        assert err == "precondition error: all 1 slots in use at stage 4 (horizon too small)\n"

    def test_over_depth_tree_names_the_least_node_under_every_hash_seed(self, fixture_dir):
        argv = ["run", "diagonalize", "--tree", "t_beta.txt", "--depth", "0"]
        errs = {run_module(argv, fixture_dir, PYTHONHASHSEED=seed).stderr for seed in ("1", "2")}
        assert errs == {"input error: t_beta.txt: node 0 longer than depth bound 0\n"}

    def test_tree_gap_is_an_input_error(self, run, fixture_dir):
        bad = fixture_dir / "gap.txt"
        bad.write_text("00\n")
        code, out, err = run(
            ["run", "diagonalize", "--tree", str(bad), "--depth", "2"]
        )
        assert code == 2


class TestRunExtras:
    def test_omega_trace(self, run):
        code, out, _ = run(["run", "omega", "--machine", "m_splice.tsv", "--horizon", "9"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0\t0/2^0"
        assert lines[3] == "3\t1/2^1"
        assert lines[8] == "8\t3/2^2"

    def test_regret_quiet_reports_zero_slots(self, run):
        code, out, _ = run(next(s for s in SCENARIOS if s.name == "regret-quiet").argv)
        assert code == 0
        assert out == "# slots: 0\n"

    def test_regret_slot_count_matches_slot_headers(self, run):
        code, out, _ = run(next(s for s in SCENARIOS if s.name == "regret-permanent").argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# slots: 2"
        assert [line for line in lines if line.startswith("# slot ")] == [
            "# slot 0: e=0 n=4 bound@4",
            "# slot 1: e=1 n=4 bound@4",
        ]

    def test_regret_max_slots_admits_exactly_its_runs(self, run):
        # regret-permanent binds two runs; one slot fewer is TestErrors' capacity error
        argv = list(next(s for s in SCENARIOS if s.name == "regret-permanent").argv)
        code, out, err = run(argv + ["--max-slots", "2"])
        assert (code, out.splitlines()[0], err) == (0, "# slots: 2", "")

    def test_merge_at_horizon_zero_places_the_stage_zero_items(self, run, fixture_dir):
        (fixture_dir / "l2_h0.tsv").write_text("0\t0\tstr\t00\n")
        (fixture_dir / "l1_h0.txt").write_text("1\n")
        code, out, err = run(["run", "merge", "--l2", str(fixture_dir / "l2_h0.tsv"),
                              "--l1-sets", str(fixture_dir / "l1_h0.txt"), "--horizon", "0"])
        assert (code, out, err) == (0, "0\t0\tstr\t00\n0\t1\tstr\t1\n", "")

    def test_capped_without_events_reports_zero_indices(self, run):
        code, out, _ = run(
            ["run", "capped", "--script", "s_empty.tsv", "--cap-n", "2", "--horizon", "4"]
        )
        assert code == 0
        assert out == "# indices: 0\n"

    def test_capped_index_count_leads_the_output(self, run):
        code, out, _ = run(next(s for s in SCENARIOS if s.name == "capped-pair").argv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# indices: 1"
        assert [line for line in lines if line.startswith("# index ")] == [
            "# index 0: measure 1/2^1 frozen 3"
        ]

    def test_oddones(self, run):
        code, out, _ = run(["run", "oddones", "--count", "3"])
        assert out.splitlines() == ["0\t1", "1\t01", "2\t001"]

    def test_coverfamily(self, run):
        code, out, _ = run(["run", "coverfamily", "--count", "3", "--parity", "odd"])
        assert out.splitlines() == ["0\tε", "1\t0", "2\t1"]

    def test_diagonalize(self, run, fixture_dir):
        t0 = fixture_dir / "t0.txt"
        t0.write_text("000\n00\n0\n1\n")
        code, out, _ = run(["run", "diagonalize", "--tree", str(t0), "--depth", "3"])
        assert code == 0
        assert out.splitlines()[0] == "# tau_0 = 1"

    def test_merge_with_listed_sets(self, run, fixture_dir):
        l1 = fixture_dir / "l1.txt"
        l1.write_text("1\n11\n00 01 1\n")
        l2 = fixture_dir / "l2.tsv"
        l2.write_text("0\t0\tstr\t00\n1\t0\tstr\t01\n")
        code, out, _ = run(
            ["run", "merge", "--l2", str(l2), "--l1-sets", str(l1), "--horizon", "3"]
        )
        assert code == 0
        assert "00" in out and "11" in out

    def test_merge_without_an_unused_extension_is_a_precondition_error(self, run, fixture_dir):
        # index 1 reaches index 0's set {00} at stage 1, and no listed set contains it
        l1 = fixture_dir / "l1.txt"
        l1.write_text("1\n01\n")
        l2 = fixture_dir / "l2.tsv"
        l2.write_text("0\t0\tstr\t00\n1\t1\tstr\t00\n")
        code, out, err = run(
            ["run", "merge", "--l2", str(l2), "--l1-sets", str(l1), "--horizon", "3"]
        )
        assert (code, out) == (3, "")
        assert err == "precondition error: no unused extension of a 1-string set at stage 1\n"

    def test_friedberg_reals_recipe(self, run, fixture_dir):
        fam = fixture_dir / "fam.tsv"
        fam.write_text("0\t0\tdyadic\t0/2^0\n0\t1\tdyadic\t3/2^2\n")
        code, out, _ = run(
            [
                "run", "friedberg-reals",
                "--script", str(fam),
                "--machine", "m_hatm.tsv",
                "--k", "2",
                "--len", "6",
                "--horizon", "10",
            ]
        )
        assert code == 0 and out

    def test_friedberg_classes_recipe(self, run):
        code, out, _ = run(
            [
                "run", "friedberg-classes",
                "--listing", "l_star.txt",
                "--len", "4",
                "--horizon", "8",
            ]
        )
        assert code == 0 and out

    def test_out_file(self, run, fixture_dir):
        target = fixture_dir / "trace.tsv"
        code, out, _ = run(
            [
                "run", "star",
                "--listing", "l_star.txt",
                "--horizon", "10",
                "--out", str(target),
            ]
        )
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[1] == "1\tyes\tb\t00,010"


def _first_line(run, argv) -> str:
    code, out, err = run(argv)
    assert code == 0, err
    return out.splitlines()[0]


def _capped_empty_item(run, fixture_dir) -> str:
    (fixture_dir / "eps.tsv").write_text("0\t0\tstr\t-\n")
    code, out, err = run(["run", "capped", "--script", str(fixture_dir / "eps.tsv"), "--cap-n", "2",
                          "--horizon", "0"])
    assert code == 0, err
    return out.splitlines()[1]


def _merge_dyadic_item(run, fixture_dir) -> str:
    (fixture_dir / "l1.txt").write_text("1\n")
    (fixture_dir / "l2.tsv").write_text("0\t0\tstr\t00\n1\t0\tdyadic\t1/2^1\n")
    code, out, err = run(["run", "merge", "--l2", str(fixture_dir / "l2.tsv"), "--l1-sets",
                          str(fixture_dir / "l1.txt"), "--horizon", "2"])
    assert (code, out) == (2, "")
    return err


# Every rendering of the empty word that reaches stdout or an error message:
# ε in a family, '-' in a tab-separated field and as a tree's root line.
EMPTY_WORD = {
    "coverfamily": (lambda run, d: _first_line(run, ["run", "coverfamily", "--count", "2"]),
                    "0\tε"),
    "capped-item": (_capped_empty_item, "0\t0\trefuse\t-"),
    "antichain": (lambda run, d: Antichain([BitString.parse("ε")]).render(), "ε"),
    "tree-root": (lambda run, d: Tree.parse("-\n0\n").render().splitlines()[0], "-"),
    "coverfamily-verifier": (lambda run, d: verify_coverfamily([Antichain([BitString.parse("")])],
                                                               odd=False)[0],
                             "odd antichain ε in the even family"),
    "merge-dyadic-item": (_merge_dyadic_item,
                          "input error: index 0 carries a non-string item at stage 1\n"),
}


@pytest.mark.parametrize("case", sorted(EMPTY_WORD))
def test_the_empty_word_renders_as_before(run, fixture_dir, case):
    render, expected = EMPTY_WORD[case]
    assert render(run, fixture_dir) == expected


class TestCheckCommand:
    def test_suite_passes(self, run):
        code, out, _ = run(["check", "dyadic", "--len", "8", "--cases", "50"])
        assert code == 0
        assert out.startswith("ok\tdyadic")

    def test_injected_mutant_is_caught(self, monkeypatch):
        def broken(strings):
            cov = list(optimal_covering(strings).members)
            if cov:
                # report a child instead of the minimal node: still a valid
                # antichain, but no longer covers the sibling cone
                return Antichain(tuple(cov[1:]) + (cov[0] + "0",))
            return Antichain(tuple(cov))

        monkeypatch.setattr(checks, "optimal_covering", broken)
        report = check_coverings(depth=2, random_sets=50)
        assert not report.ok
        assert any("covering" in line for line in report.lines())

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_every_flag_sets_a_parameter_of_its_suite(self, name):
        suite = SUITES[name]
        params = set(inspect.signature(suite.run).parameters) - {"seed"}
        assert set(suite.params) <= {"cases", "depth", "len"}
        assert set(suite.params.values()) == params
        assert set(suite.caps) <= set(suite.params)

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_every_cap_admits_the_default(self, name):
        suite = SUITES[name]
        defaults = inspect.signature(suite.run).parameters
        for flag, cap in suite.caps.items():
            assert defaults[suite.params[flag]].default <= cap

    def test_check_reports_are_deterministic(self, run):
        code1, out1, _ = run(["check", "coverings", "--depth", "2", "--cases", "30"])
        code2, out2, _ = run(["check", "coverings", "--depth", "2", "--cases", "30"])
        assert out1 == out2


class TestEntryPoint:
    def test_module_invocation(self, fixture_dir):
        proc = run_module(["run", "oddones", "--count", "2"], fixture_dir)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["0\t1", "1\t01"]

    def test_console_script_is_main(self, capsys):
        with open(os.path.join(ROOT, "pyproject.toml"), "r", encoding="utf-8") as fh:
            text = fh.read()
        scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
        target = re.search(r'^cantorsim\s*=\s*"([\w.]+):(\w+)"', scripts.group(1), re.M)
        module, attr = target.groups()
        entry = getattr(importlib.import_module(module), attr)
        assert entry is main
        assert entry(["run", "oddones", "--count", "2"]) == 0
        assert capsys.readouterr().out == "0\t1\n1\t01\n"


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert runs.parser() is runs.parser()

    def test_replay_rejects_a_check_command_line(self):
        with pytest.raises(InputError, match="run command line"):
            runs.replay(["check", "dyadic"], FIXTURE_FILES.__getitem__)

    def test_importing_the_cli_builds_no_parser(self, tmp_path):
        probe = "import cantorsim.cli, cantorsim.runs as r; print(r.parser.cache_info().currsize)"
        proc = run_python(["-c", probe], tmp_path)
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    def test_a_plain_command_line_builds_no_parser(self, tmp_path):
        probe = (
            "import sys, cantorsim.runs as r; from cantorsim.cli import main\n"
            "codes = [main(['run', 'oddones', '--count', '2']),\n"
            "         main(['check', 'dyadic', '--cases', '5'])]\n"
            "print(codes, r.parser.cache_info().currsize, file=sys.stderr)"
        )
        proc = run_python(["-c", probe], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "[0, 0] 0\n")
        assert proc.stdout == "0\t1\n1\t01\nok\tdyadic\t5510 cases\n"

    def test_a_declined_command_line_builds_the_parser_once(self, tmp_path):
        probe = (
            "import sys, cantorsim.runs as r; from cantorsim.cli import main\n"
            "try:\n"
            "    main(['run', 'oddones', '--count', '-1'])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, r.parser.cache_info().currsize)"
        )
        proc = run_python(["-c", probe], tmp_path, COLUMNS="80")
        assert (proc.returncode, proc.stdout) == (0, "2 1\n")
        assert proc.stderr == (
            "usage: cantorsim run oddones [-h] [--out OUT] --count COUNT\n"
            "cantorsim run oddones: error: argument --count: must be ≥ 0, got -1\n"
        )

    def test_a_reused_parser_leaks_no_state(self, fixture_dir, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # one usage-line width in and out of process
        base, other = fixture_dir / "t_base.txt", fixture_dir / "t_other.txt"
        base.write_text("-\n0\n1\n00\n01\n000\n")  # the closure of {000, 1, 01}
        other.write_text("-\n0\n1\n10\n")  # the closure of {0, 10}
        two = ["run", "diagonalize", "--tree", str(base), "--tree", str(other), "--depth", "3"]
        one = ["run", "diagonalize", "--tree", str(base), "--depth", "3"]
        rejected = ["run", "diagonalize", "--tree", str(other), "--depth", "-1"]

        def in_process(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        def alone(argv):
            proc = run_module(argv, fixture_dir)
            return proc.returncode, proc.stdout, proc.stderr

        calls = [two, one, rejected, two]
        got = [in_process(argv) for argv in calls]
        assert got == [alone(argv) for argv in calls]
        assert got[0] != got[1] and got[2][0] == 2


def _outcome(parse, argv):
    """What a parse gives: its namespace or exit code, and its stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_VALUES = ["0", "3", "12", "007", "-1", "-3", "٥", "²", "+5", "1_000", "abc", "", "-", "--",
           "-x", "odd", "even", "a.tsv"]
_STRAYS = ["extra", "-h", "--help", "--", "-x", "--nosuch"]


@st.composite
def command_lines(draw):
    """`run NAME` or `check SUITE`, then declared flags in any order, some
    left out, repeated, abbreviated or `=`-joined, with valid or odd values,
    and stray tokens anywhere; each odd part in about one draw in six."""

    def odd():
        return draw(st.integers(0, 5)) == 0

    command = draw(st.sampled_from(["run", "check"]))
    if command == "run":
        name = draw(st.sampled_from(["nosuch", "-h"] if odd() else list(runs.RUNS)))
        flags = {"out": {}, **runs.RUNS[name].flags} if name in runs.RUNS else {"out": {}}
    else:
        name = draw(st.sampled_from(["", "-h", "--seed"] if odd() else list(SUITES)))
        flags = runs.CHECK_FLAGS
    argv = [command, name]
    chosen = [attr for attr in draw(st.permutations(list(flags))) if not odd()]
    for attr in chosen + ([draw(st.sampled_from(list(flags)))] if odd() else []):
        options = flags[attr]
        option = "--" + attr.replace("_", "-")
        if odd():
            value = draw(st.sampled_from(_VALUES))
        elif "type" in options:
            value = str(draw(st.integers(0, 20)))
        else:
            value = draw(st.sampled_from(options.get("choices", ["a.tsv", "b.txt"])))
        spelling = draw(st.sampled_from(["abbreviated", "joined", "bare"])) if odd() else "full"
        if spelling == "abbreviated":
            option = option[: draw(st.integers(2, len(option)))]
        if spelling == "joined":
            argv.append(f"{option}={value}")
        elif spelling == "bare" or options.get("action") == "store_true":
            argv.append(option)
        else:
            argv += [option, value]
    if odd():
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_STRAYS)))
    return argv


def _commands():
    """Each command's first two tokens and declared flags: every RUNS entry
    and `check`."""
    yield from ((["run", name], {"out": {}, **spec.flags}) for name, spec in runs.RUNS.items())
    yield ["check", "dyadic"], runs.CHECK_FLAGS


def _valid(options: dict) -> str:
    return "3" if "type" in options else options.get("choices", ["a.tsv"])[-1]


def single_edits():
    """Each command with every declared flag given a valid value, and each
    line one edit away: a flag with a pool value, `=`-joined, abbreviated,
    bare, repeated or left out, or a stray token at the front, the middle or
    the end."""
    for head, flags in _commands():
        parts = {
            attr: ["--" + attr.replace("_", "-")]
            + ([] if options.get("action") == "store_true" else [_valid(options)])
            for attr, options in flags.items()
        }
        yield head + [t for part in parts.values() for t in part]
        for attr, part in parts.items():
            option, rest = part[0], [t for a, p in parts.items() if a != attr for t in p]
            edits = [[option, value] for value in _VALUES]
            edits += [[option + "=" + _valid(flags[attr])], [option], part + part, []]
            edits += [[option[:n]] + part[1:] for n in range(2, len(option))]
            yield from (head + edit + rest for edit in edits)
        tail = [t for part in parts.values() for t in part]
        for stray in _STRAYS:
            for at in {0, 1, 2, len(tail) // 2 + 2, len(tail) + 2}:
                yield (head + tail)[:at] + [stray] + (head + tail)[at:]


class TestPlainReader:
    def test_every_single_edit_agrees_with_argparse(self):
        lines = list(single_edits())
        plain = 0
        for argv in lines:
            expected = _outcome(runs.parser().parse_args, argv)
            assert _outcome(runs.parse_command, argv) == expected, argv
            if runs._plain(argv) is not None:
                plain += 1
                assert (runs._plain(argv), "", "") == expected, argv
        assert plain > len(runs.RUNS)

    @seed(24)
    @settings(max_examples=600)
    @given(command_lines())
    def test_the_plain_reader_agrees_with_argparse(self, argv):
        expected = _outcome(runs.parser().parse_args, argv)
        plain = runs._plain(argv)
        assert plain is None or (plain, "", "") == expected
        assert _outcome(runs.parse_command, argv) == expected

    def test_every_golden_and_scenario_is_plain(self):
        from test_golden import COMMANDS, EXIT_CODES

        argvs = [argv for name, argv in COMMANDS.items() if name not in EXIT_CODES]
        for argv in argvs + [list(sc.argv) for sc in SCENARIOS]:
            plain = runs._plain(argv)
            assert plain is not None and plain == runs.parser().parse_args(argv), argv


class TestRepoFixtures:
    def test_fixture_directory_matches_the_library(self):
        root = os.path.join(os.path.dirname(__file__), "..", "fixtures")
        for name, text in FIXTURE_FILES.items():
            with open(os.path.join(root, name), "r", encoding="utf-8") as fh:
                assert fh.read() == text, name
