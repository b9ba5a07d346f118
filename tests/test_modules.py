"""Static checks on the package source, with the standard library's ast.

Every name in a module's ``__all__`` must be bound at its top level
(tools such as tracers call ``getattr`` on each entry), no module may
import a name it never uses, and no module imports scipy, which is not
a dependency.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "linrel"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "subspace.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    tree = _tree(path)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(_imported(node))
    missing = [name for name in _all_names(tree) if name not in bound]
    assert not missing, f"{path.name}: __all__ names nothing called {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_all_names(tree))
    unused = [name
              for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
              for name in _imported(node) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_import(path):
    imported = [alias.name if isinstance(node, ast.Import) else node.module or ""
                for node in ast.walk(_tree(path))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    scipy = [name for name in imported if name.split(".")[0] == "scipy"]
    assert not scipy, f"{path.name} imports {scipy}"
