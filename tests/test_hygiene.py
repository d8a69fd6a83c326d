"""Import hygiene of the package, checked with the standard library's ast.

Every module-level import must be used by the module's code or named in its
``__all__``, and imports sit at module level only.  ``__init__`` imports
nothing: the package re-exports no name, so each is imported from the module
that defines it.  The package's modules import one another without a cycle.
The oracles import from the package only value types and ``errors``, so no
fast routine is on an oracle's path.  The verifiers import only an
allow-list: those, the record types, the script replay that reads a
builder's input, and ``oracles``; and only ``checks`` and ``verify`` import
``oracles``.  What a ``run`` loads at import, the package, ``cli`` and what
they import outside a function, holds none of the check side: ``checks``,
``draws``, ``scenarios``, ``verify`` and ``oracles``.  A word is a plain
``str`` everywhere: outside ``dyadic``, ``BitString`` is named only to call
``BitString.parse`` on text, and no module reads ``.bits`` or names the
removed ``trusted_bitstring`` or ``lenlex_key``.  No module imports
``dataclasses``: the value types are ``NamedTuple``s or ``dyadic._Value``
subclasses, so importing the package generates no methods.  Every function
and class of every module, and every method of those classes, has
annotations that ``typing.get_type_hints`` resolves.
"""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import inspect
import pathlib
import types
import typing
from typing import Iterable

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cantorsim"
MODULES = sorted(PACKAGE.glob("*.py"))

# (module, function) -> why the import cannot move to module level
LOCAL_IMPORTS_ALLOWED: dict[tuple[str, str], str] = {
    ("cli", "main"): "checks loads in the check branch, so a run does not import the check side",
    ("runs", "_verify"): "verify and its oracles load on a Replay's first check, which no run makes",
    ("dyadic", "Dyadic"): "as_fraction loads fractions (and decimal) for the checks, which no run calls",
}

# the modules that only `check` and `Replay.check()` need
CHECK_SIDE = frozenset({"checks", "draws", "oracles", "scenarios", "verify"})

# module -> the value types oracles.py may import from it; any name of errors
ORACLE_IMPORTS_ALLOWED: dict[str, set[str]] = {
    "dyadic": {"Antichain", "BitString", "Dyadic", "EMPTY", "ONE", "ZERO"},
    "classes": {"Tree"},
    "complexity": {"PrefixMachine"},
}

# module -> what verify.py may import beyond ORACLE_IMPORTS_ALLOWED: the record
# types, and the script replay, which reads the input a builder read
VERIFY_IMPORTS_ALLOWED: dict[str, set[str]] = {
    **ORACLE_IMPORTS_ALLOWED,
    "classes": {"CappedReplay", "Tree"},
    "constructions": {"RegretSlot", "StageTrace", "TraceRecord"},
    "coverings": {"StarSnapshot"},
    "streams": {"EnumerationScript", "LeftCEApprox", "real_from_ce_set"},
}


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.partition(".")[0] for alias in node.names]


def _dunder_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _dunder_all(tree)
    return [
        f"{path.stem}:{node.lineno}: {name}"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
        if name not in used
    ]


def local_imports(path: pathlib.Path) -> list[tuple[str, str, int]]:
    """(module, enclosing function or class, line) of every nested import."""
    out = []

    def visit(node: ast.AST, scope: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and scope is not None:
                out.append((path.stem, scope, child.lineno))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if named and scope is None else scope)

    visit(_tree(path), None)
    return out


def package_imports(path: pathlib.Path) -> list[tuple[str, str]]:
    """(package module, name) of every import from the package, at module
    level or nested; a module imported whole is named with the name "*"."""
    return _package_imports(ast.walk(_tree(path)))


def import_time_imports(path: pathlib.Path) -> list[tuple[str, str]]:
    """(package module, name) of every import from the package that runs
    when the module is imported: each one outside a function body."""

    def outside_functions(node: ast.AST):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child
                yield from outside_functions(child)

    return _package_imports(outside_functions(_tree(path)))


def _package_imports(nodes: Iterable[ast.AST]) -> list[tuple[str, str]]:
    out = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.extend((node.module.partition(".")[0], a.name) for a in node.names)
            else:
                out.extend((a.name, "*") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] == PACKAGE.name:
                if len(parts) > 1:
                    out.extend((parts[1], a.name) for a in node.names)
                else:
                    out.extend((a.name, "*") for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE.name:
                    out.append((parts[1] if len(parts) > 1 else "__init__", "*"))
    return out


def imports_beyond(
    path: pathlib.Path, allowed: dict[str, set[str]], whole: tuple[str, ...] = ("errors",)
) -> list[str]:
    """The package imports of the file that are neither a name that allowed
    lists for its module nor any name of a module in whole."""
    return [
        f"{module}.{name}"
        for module, name in package_imports(path)
        if module not in whole and name not in allowed.get(module, ())
    ]


def oracle_imports_beyond_value_types(path: pathlib.Path) -> list[str]:
    return imports_beyond(path, ORACLE_IMPORTS_ALLOWED)


def verify_imports_beyond_allow_list(path: pathlib.Path) -> list[str]:
    return imports_beyond(path, VERIFY_IMPORTS_ALLOWED, whole=("errors", "oracles"))


REMOVED_WORD_NAMES = frozenset({"trusted_bitstring", "lenlex_key"})


def second_word_type(path: pathlib.Path) -> list[str]:
    """Each use of a word type besides `str` in the file, as module:line:
    an attribute `.bits` read anywhere, a name, attribute or definition of
    REMOVED_WORD_NAMES, and, outside `dyadic`, the name `BitString` anywhere
    but as the class of a `BitString.parse(...)` call."""
    tree = _tree(path)
    parsed = {
        id(node.func.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "parse"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in REMOVED_WORD_NAMES | {"bits"}:
            found.append(f"{path.stem}:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in REMOVED_WORD_NAMES:
            found.append(f"{path.stem}:{node.lineno}: {node.id}")
        elif isinstance(node, ast.FunctionDef) and node.name in REMOVED_WORD_NAMES:
            found.append(f"{path.stem}:{node.lineno}: def {node.name}")
        elif (isinstance(node, ast.Name) and node.id == "BitString" and path.stem != "dyadic"
              and id(node) not in parsed):
            found.append(f"{path.stem}:{node.lineno}: BitString")
    return found


def dataclasses_imports(path: pathlib.Path) -> list[str]:
    """Each import of `dataclasses` in the file, at module level or nested,
    as module:line."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{path.stem}:{node.lineno}" for n in names if n.partition(".")[0] == "dataclasses"]
    return found


def import_graph() -> dict[str, set[str]]:
    """Module -> the package modules it imports, at module level or nested."""
    return {path.stem: {module for module, _ in package_imports(path)} for path in MODULES}


def loaded_at_import(package: pathlib.Path, roots: Iterable[str]) -> set[str]:
    """The package modules that importing the roots loads: the roots and,
    transitively, every module they import outside a function."""
    graph = {
        path.stem: {module for module, _ in import_time_imports(path)}
        for path in package.glob("*.py")
    }
    loaded: set[str] = set()
    todo = list(roots)
    while todo:
        module = todo.pop()
        if module not in loaded:
            loaded.add(module)
            todo.extend(graph.get(module, ()))
    return loaded


def import_cycles(graph: dict[str, set[str]]) -> list[str]:
    """Each back edge a depth-first search meets, written as its cycle
    a -> b -> a; the graph is acyclic exactly when there is none."""
    cycles: list[str] = []
    done: set[str] = set()
    stack: list[str] = []

    def visit(module: str) -> None:
        stack.append(module)
        for dep in sorted(graph.get(module, ())):
            if dep in stack:
                cycles.append(" -> ".join(stack[stack.index(dep):] + [dep]))
            elif dep not in done:
                visit(dep)
        stack.pop()
        done.add(module)

    for module in sorted(graph):
        if module not in done:
            visit(module)
    return cycles


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_sit_at_module_level(path):
    found = [f for f in local_imports(path) if f[:2] not in LOCAL_IMPORTS_ALLOWED]
    assert found == []


def test_allowed_local_imports_still_exist():
    found = {f[:2] for path in MODULES for f in local_imports(path)}
    assert set(LOCAL_IMPORTS_ALLOWED) <= found


def test_the_package_init_imports_nothing():
    init = _tree(PACKAGE / "__init__.py")
    assert [n.lineno for n in ast.walk(init) if isinstance(n, (ast.Import, ast.ImportFrom))] == []


def test_package_imports_are_acyclic():
    assert import_cycles(import_graph()) == []


def test_a_run_loads_no_check_side_at_import():
    # importing cantorsim.cli runs the package's __init__ first
    assert loaded_at_import(PACKAGE, ["__init__", "cli"]) & CHECK_SIDE == set()


def test_a_check_side_import_at_import_time_is_found(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .runs import build\n\n\ndef main():\n    from .checks import run_suite\n",
        encoding="utf-8",
    )
    (tmp_path / "runs.py").write_text(
        "from .recipes import merge\n\n\ndef _verify():\n    from . import verify\n",
        encoding="utf-8",
    )
    (tmp_path / "recipes.py").write_text(
        "class Merge:\n    from .oracles import brute_merge_rows\n", encoding="utf-8"
    )
    assert sorted(loaded_at_import(tmp_path, ["cli"])) == ["cli", "oracles", "recipes", "runs"]


def test_oracles_import_only_value_types_and_errors():
    assert oracle_imports_beyond_value_types(PACKAGE / "oracles.py") == []


def test_an_oracle_import_of_a_fast_routine_is_found(tmp_path):
    planted = tmp_path / "oracles.py"
    planted.write_text(
        "from .dyadic import BitString, strings_up_to\n"
        "from .errors import DomainError\n"
        "from . import streams\n"
        "import cantorsim.coverings\n\n\n"
        "def f():\n    from cantorsim.streams import approx_string\n",
        encoding="utf-8",
    )
    assert oracle_imports_beyond_value_types(planted) == [
        "dyadic.strings_up_to", "streams.*", "coverings.*", "streams.approx_string"
    ]


def test_verify_imports_only_its_allow_list():
    assert verify_imports_beyond_allow_list(PACKAGE / "verify.py") == []


def test_a_verifier_import_of_a_construction_is_found(tmp_path):
    planted = tmp_path / "verify.py"
    planted.write_text(
        "from .constructions import StageTrace, splice_random\n"
        "from .complexity import PrefixMachine, least_failing_length\n"
        "from .oracles import brute_k_approx\n"
        "from .streams import real_from_ce_set\n\n\n"
        "def f():\n    from cantorsim.recipes import cut_deltas\n",
        encoding="utf-8",
    )
    assert verify_imports_beyond_allow_list(planted) == [
        "constructions.splice_random", "complexity.least_failing_length", "recipes.cut_deltas"
    ]


def test_only_the_checks_and_the_verifiers_import_the_oracles():
    graph = import_graph()
    assert sorted(module for module, deps in graph.items() if "oracles" in deps) == [
        "checks", "verify"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_a_word_is_a_plain_str(path):
    assert second_word_type(path) == []


def test_a_second_word_type_is_found(tmp_path):
    planted = tmp_path / "m.py"
    planted.write_text(
        "from .dyadic import BitString\n\n\n"
        "def f(text: str, bits: str) -> BitString:\n"
        "    w = BitString.parse(text)\n"
        "    return BitString(w.bits + bits), sorted([w], key=lambda v: v.lenlex_key)\n\n\n"
        "def trusted_bitstring(bits: str) -> str:\n"
        "    return bits\n",
        encoding="utf-8",
    )
    assert sorted(second_word_type(planted)) == [
        "m:4: BitString", "m:6: .bits", "m:6: .lenlex_key", "m:6: BitString",
        "m:9: def trusted_bitstring",
    ]


def test_no_module_imports_dataclasses():
    assert [found for path in MODULES for found in dataclasses_imports(path)] == []


def test_a_dataclasses_import_is_found(tmp_path):
    planted = tmp_path / "m.py"
    planted.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "from .dyadic import _Value\n\n\n"
        "def f():\n    import dataclasses as dc\n",
        encoding="utf-8",
    )
    assert sorted(dataclasses_imports(planted)) == ["m:1", "m:2", "m:7"]


def _functions(member: object) -> list[object]:
    """The functions a class attribute wraps: itself, or the function of a
    class or static method, a property or a cached property."""
    if isinstance(member, (classmethod, staticmethod)):
        return [member.__func__]
    if isinstance(member, property):
        return [f for f in (member.fget, member.fset, member.fdel) if f is not None]
    if isinstance(member, functools.cached_property):
        return [member.func]
    return [member] if inspect.isfunction(member) else []


def unresolved_annotations(module: types.ModuleType) -> list[str]:
    """name: error for each function or class the module defines, and each
    method of such a class, whose annotations typing.get_type_hints cannot
    evaluate."""
    found = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            targets = [(name, obj)]
        elif inspect.isclass(obj):
            targets = [(name, obj)] + [
                (f"{name}.{attr}", f)
                for attr, member in vars(obj).items()
                for f in _functions(member)
            ]
        else:
            continue
        for label, target in targets:
            try:
                typing.get_type_hints(target)
            except Exception as exc:  # any failure to evaluate is a finding
                found.append(f"{label}: {type(exc).__name__}: {exc}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_annotations_resolve(path):
    assert unresolved_annotations(importlib.import_module(f"{PACKAGE.name}.{path.stem}")) == []


def test_an_unresolved_annotation_is_found(tmp_path):
    planted = tmp_path / "planted_annotations.py"
    planted.write_text(
        "from __future__ import annotations\n\n\n"
        "def f(x: Missing) -> int:\n    return 0\n\n\n"
        "class C:\n    y: int\n\n    def g(self) -> Absent:\n        pass\n\n"
        "    @property\n    def h(self) -> Gone:\n        return ''\n",
        encoding="utf-8",
    )
    spec = importlib.util.spec_from_file_location("planted_annotations", planted)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert unresolved_annotations(module) == [
        "f: NameError: name 'Missing' is not defined",
        "C.g: NameError: name 'Absent' is not defined",
        "C.h: NameError: name 'Gone' is not defined",
    ]
