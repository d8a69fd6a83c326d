"""Import hygiene of the package, checked with the standard library's ast.

Every module-level import must be used by the module's code or named in its
``__all__``, and imports sit at module level only.  ``__init__`` is exempt
from the first rule: its imports are the package's re-exports.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cantorsim"
MODULES = sorted(PACKAGE.glob("*.py"))

# (module, function) -> why the import cannot move to module level
LOCAL_IMPORTS_ALLOWED = {
    ("classes", "intersect_randomness"): "breaks the classes <-> complexity import cycle",
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


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"], ids=lambda p: p.stem)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_sit_at_module_level(path):
    found = [f for f in local_imports(path) if f[:2] not in LOCAL_IMPORTS_ALLOWED]
    assert found == []


def test_allowed_local_imports_still_exist():
    found = {f[:2] for path in MODULES for f in local_imports(path)}
    assert set(LOCAL_IMPORTS_ALLOWED) <= found
