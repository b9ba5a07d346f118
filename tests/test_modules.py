"""Static checks on the package source, with the standard library's ast.

Every name in a module's ``__all__`` must be bound at its top level
(tools such as tracers call ``getattr`` on each entry), no module may
import a name it never uses, no module imports scipy, which is not
a dependency, and no module but ``subspace`` reads the rank-cut
tolerances, so every rank decision goes through its one cut.
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


def _name(node: ast.AST) -> str:
    """``f`` for ``f`` and for ``x.f``; empty for anything else."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _subspace_bypasses(tree: ast.Module) -> list[str]:
    """Ways round ``Subspace.__init__``'s finiteness and Gram checks: a
    ``.basis`` (or ``setattr(..., "basis", ...)``) assignment anywhere
    but that constructor, a ``Subspace.__new__`` or ``object.__new__``
    call, and ``setflags`` with ``write`` other than False, which can make
    a checked basis writable again."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Subspace":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    allowed.update(id(n) for n in ast.walk(item))
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            for t in ast.walk(target):
                if (isinstance(t, ast.Attribute) and t.attr == "basis"
                        and id(t) not in allowed):
                    found.append(f"{where}: assigns .basis")
        if not isinstance(node, ast.Call):
            continue
        name = _name(node.func)
        args = list(node.args) + [k.value for k in node.keywords]
        if name in ("setattr", "__setattr__") and any(
                isinstance(a, ast.Constant) and a.value == "basis" for a in args):
            found.append(f"{where}: sets basis through {name}")
        if name == "__new__" and isinstance(node.func, ast.Attribute):
            owner = _name(node.func.value)
            if owner in ("Subspace", "object"):
                found.append(f"{where}: calls {owner}.__new__")
        write = [k.value for k in node.keywords if k.arg == "write"] + node.args[:1]
        if name == "setflags" and any(
                not (isinstance(w, ast.Constant) and w.value is False) for w in write):
            found.append(f"{where}: calls setflags with write not False")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_subspace_is_checked(path):
    bypasses = _subspace_bypasses(_tree(path))
    assert not bypasses, f"{path.name}: {bypasses}"


@pytest.mark.parametrize("source", [
    "s.basis = b",
    "s.basis += b",
    "s.basis: object = b",
    "a, s.basis = 1, b",
    "setattr(s, 'basis', b)",
    "object.__setattr__(s, 'basis', b)",
    "s = Subspace.__new__(Subspace)",
    "s = sub.Subspace.__new__(sub.Subspace)",
    "s = object.__new__(Subspace)",
    "b.setflags(write=True)",
    "b.setflags(True)",
    "b.setflags(write=flag)",
    "class Subspace:\n    def rebase(self, b):\n        self.basis = b",
], ids=["assign", "augassign", "annassign", "tuple-target", "setattr", "object-setattr",
        "subspace-new", "qualified-new", "object-new", "setflags-write", "setflags-positional",
        "setflags-variable", "other-method"])
def test_subspace_bypass_detector(source):
    assert _subspace_bypasses(ast.parse(source))


def test_subspace_bypass_detector_allows_constructor():
    source = ("class Subspace:\n"
              "    def __init__(self, basis):\n"
              "        basis.setflags(write=False)\n"
              "        self.basis = basis\n")
    assert not _subspace_bypasses(ast.parse(source))


_CUT_NAMES = {"RANK_REL", "RANK_ABS", "SV_BAND"}


def _cut_reads(tree: ast.Module) -> list[str]:
    """Every mention of a rank-cut tolerance: a bare name, an attribute
    such as ``tol.RANK_REL`` or an imported name."""
    found = []
    for node in ast.walk(tree):
        names = ([node.id] if isinstance(node, ast.Name)
                 else [node.attr] if isinstance(node, ast.Attribute)
                 else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                 else [])
        found += [f"line {node.lineno}: {n}" for n in names if n in _CUT_NAMES]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_subspace_reads_rank_cut_tolerances(path):
    reads = _cut_reads(_tree(path))
    if path.name in ("subspace.py", "tolerances.py"):
        assert path.name == "tolerances.py" or reads
    else:
        assert not reads, f"{path.name} makes its own rank cut: {reads}"


@pytest.mark.parametrize("source", [
    "from .tolerances import SV_BAND",
    "x = tol.RANK_REL",
    "cut = RANK_ABS * 2",
])
def test_rank_cut_reader_detector(source):
    assert _cut_reads(ast.parse(source))
