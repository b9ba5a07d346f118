"""Static checks on the package source, with the standard library's ast.

Every name in a module's ``__all__`` must be bound at its top level
(tools such as tracers call ``getattr`` on each entry), no module may
import a name it never uses, no module imports scipy, which is not
a dependency, and no module but ``subspace`` reads the rank-cut
tolerances or names ``_rank_cut``, so every rank decision goes through
its one cut, also where another module supplies a split's values.  In
``chains`` only the one step loop and the kappa targets take preimages,
so both chains keep one loop that keeps its images.  No function in
``metrics`` draws random numbers, so every fit and every bound check is
deterministic, and in ``metrics`` only the relative-bound bracket and the
least-squares reference solve for an induced operator, so the norm, gamma
and alpha-prime read the relation's own singular values.  Only ``relation`` holds weak references, and only its
``_pair`` names the per-pair record's slot, so that record is the one
memo of what a pair has decided.  No function passes a graph block
(``_gx`` or ``_gy``) to ``Subspace.residual``: an image reads the
relation's cached split of Gx, not a new SVD of a residual of the block.
No module but ``subspace`` compares a ``gap`` with a tolerance, settles a
residual against a cut (``_settled``, or a ``_bracket`` of its own) or,
``tolerances`` apart, reads ``CHAIN_BAND``: every containment verdict is
decided in ``subspace``, which reads the residual's Frobenius bracket first.
No reduced- or complete-mode ``qr`` has its R thrown away (``qr(m)[0]``,
``qr(m, mode="complete")[0]``, ``qr(m).Q``, ``q, _ = qr(m)``): such a QR is
``subspace.q_factor``.  Only ``q_factor`` and the SVD helpers
``svd_values`` and ``svd_factors`` read numpy's private ``_umath_linalg``,
and ``subspace`` and ``relation`` take every SVD and axis-free norm
through those helpers and ``frobenius``, while ``metrics`` and ``suites``,
the reference and the oracles, keep numpy's own.  Only the functions
named in ``_SVD_CALLERS``, each of which reads singular values or cuts a
rank at them, take an SVD, and
outside ``subspace`` only those named in ``_SPAN_CALLERS`` call ``span``:
N(T) and T(0) take no rank cut of their own.  Only the functions named in
``_COMPLETE_Q_CALLERS`` take a complete Q: a subspace's complement is
built once, by ``Subspace._complement``, and never by a split or a relation.
A pencil point defines only the parts named in ``_POINT_MEMBERS``, which
make it values first, and no name in ``_RETIRED`` is left: every relation,
pencil points included, reads D(T) and its image map through one record.
Only ``serialize.bound_to_dict`` builds a dict with the keys ``sigma``,
``tau`` and ``provenance``, and only ``metrics.stability_radii`` iterates
over ``RADIUS_KINDS``: each report schema has one writer.
No docstring or comment quotes a timing or a benchmark measurement, nor
counts calls ("one SVD", "no QR"): measurements belong in CHANGES.md, and
call counts in ``test_lapack_budget``, whose tests enforce them.  Every
float literal below 1e-3 outside ``tolerances`` is a site in the table of
cuts, ``_SMALL_LITERALS``, with its reason: a new threshold reads
``tolerances`` or joins the table.
"""

import ast
import io
import re
import tokenize
from collections import Counter
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


def _cut_reads(tree: ast.Module, watched: set[str] = _CUT_NAMES) -> list[str]:
    """Every mention of a rank-cut tolerance, or of another ``watched``
    name: a bare name, an attribute such as ``tol.RANK_REL`` or an
    imported name."""
    found = []
    for node in ast.walk(tree):
        names = ([node.id] if isinstance(node, ast.Name)
                 else [node.attr] if isinstance(node, ast.Attribute)
                 else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                 else [])
        found += [f"line {node.lineno}: {n}" for n in names if n in watched]
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_subspace_makes_the_rank_cut(path):
    mentions = _cut_reads(_tree(path), {"_rank_cut"})
    if path.name == "subspace.py":
        assert mentions
    else:
        assert not mentions, f"{path.name} calls the rank cut itself: {mentions}"


@pytest.mark.parametrize("source", [
    "rank, near = sub._rank_cut(s)",
    "from .subspace import _rank_cut",
    "cut = _rank_cut",
    "from .subspace import _rank_cut as cut",
])
def test_rank_cut_caller_detector(source):
    assert _cut_reads(ast.parse(source), {"_rank_cut"})


_SETTLING = {"_bracket", "_settled"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_subspace_settles_a_containment(path):
    settles = _cut_reads(_tree(path), _SETTLING)
    band = _cut_reads(_tree(path), {"CHAIN_BAND"})
    if path.name == "subspace.py":
        assert settles and band
    else:
        assert not settles, f"{path.name} settles a containment itself: {settles}"
        assert path.name == "tolerances.py" or not band, \
            f"{path.name} reads the chain band: {band}"


@pytest.mark.parametrize("source", [
    "g = sub._settled(r, (EQ_TOL,))",
    "from .subspace import _bracket",
    "hi = _bracket(r, cuts)",
], ids=["attribute", "import", "bare"])
def test_containment_settler_detector(source):
    assert _cut_reads(ast.parse(source), _SETTLING)


@pytest.mark.parametrize("source", [
    "from .tolerances import CHAIN_BAND",
    "flag = tol.CHAIN_BAND[0] < g",
    "lo, hi = CHAIN_BAND",
], ids=["import", "attribute", "bare"])
def test_chain_band_reader_detector(source):
    assert _cut_reads(ast.parse(source), {"CHAIN_BAND"})


_PREIMAGE_CALLERS = {"_steps", "_ChainSet.kappa"}


def _callers(tree: ast.Module, watched: set[str]) -> list[str]:
    """The qualified name of the function around every mention of a
    ``watched`` name (``rel.preimage``, a bare ``preimage``, called,
    aliased, imported or imported from, or a string constant);
    "<module>" at the top level."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" else f"{where}.{child.name}"
                visit(child, inner)
                continue
            name = (child.name.split(".")[-1] if isinstance(child, ast.alias)
                    else (child.module or "").split(".")[-1]
                    if isinstance(child, ast.ImportFrom)
                    else _name(child) if isinstance(child, (ast.Attribute, ast.Name))
                    else child.value if isinstance(child, ast.Constant)
                    and isinstance(child.value, str)
                    else "")
            if name in watched:
                found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_chains_take_preimages_in_one_step_loop():
    callers = _callers(_tree(SRC / "chains.py"), {"preimage"})
    assert set(callers) == _PREIMAGE_CALLERS, callers


@pytest.mark.parametrize("source", [
    "def m_chain(a, b):\n    return rel.preimage(b, rel.image(a, x))",
    "class _ChainSet:\n    def nu(self, a, b):\n        return preimage(b, y)",
    "x = rel.preimage(b, y)",
    "def _steps():\n    def helper():\n        return rel.preimage(b, y)",
    "def m_chain(a, b):\n    step = rel.preimage\n    return step(b, y)",
], ids=["function", "method", "module", "nested", "alias"])
def test_preimage_caller_detector(source):
    assert not set(_callers(ast.parse(source), {"preimage"})) <= _PREIMAGE_CALLERS


_RANDOM_NAMES = {"random", "default_rng"}


def test_metrics_draws_no_random_numbers():
    # The bound check reads the fit's bracket; nothing in metrics samples.
    callers = _callers(_tree(SRC / "metrics.py"), _RANDOM_NAMES)
    assert callers == [], callers


@pytest.mark.parametrize("source", [
    "def fit_relative_bound(a, b, tau, seed):\n    rng = np.random.default_rng(seed)",
    "def _corner(h):\n    return np.random.standard_normal(3)",
    "from numpy.random import default_rng",
    "import numpy.random",
    "draw = default_rng(0).standard_normal(4)",
    "def fit(a):\n    def start():\n        return rng.random(3)",
    "def check_relative_bound(a, b, bound, seed):\n"
    "    return np.random.default_rng(seed).standard_normal(3)",
], ids=["default-rng", "module-function", "import-from", "import", "module", "nested",
        "check"])
def test_random_draw_detector(source):
    assert _callers(ast.parse(source), _RANDOM_NAMES)


_SOLVE = {"_restricted_quotient_matrix"}
_SOLVERS = {"_sigma_tau", "operator_part"}


def test_metrics_solves_only_in_the_bound_and_the_reference():
    callers = _callers(_tree(SRC / "metrics.py"), _SOLVE)
    assert set(callers) == _SOLVERS, callers


@pytest.mark.parametrize("source", [
    "def norm(t):\n    return np.linalg.svd(_restricted_quotient_matrix(t, d))[0]",
    "def gamma(t):\n    return met._restricted_quotient_matrix(t, d)",
    "def norm(t):\n    solve = _restricted_quotient_matrix\n    return solve(t, d)",
    "top = _restricted_quotient_matrix(t, d)",
    "class C:\n    def alpha_prime_eps(self, eps):\n        return _restricted_quotient_matrix(self, d)",
], ids=["function", "attribute", "alias", "module", "method"])
def test_quotient_solve_caller_detector(source):
    assert not set(_callers(ast.parse(source), _SOLVE)) <= _SOLVERS

_SLOT = "_pair_record"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_pair_record_is_the_one_weak_memo(path):
    tree = _tree(path)
    weak, slot = _callers(tree, {"weakref"}), _callers(tree, {_SLOT})
    if path.name == "relation.py":
        assert set(weak) == {"<module>", "_pair"} and set(slot) == {"_pair"}, (weak, slot)
    else:
        assert weak + slot == [], f"{path.name} keeps its own pair memo: {weak + slot}"


@pytest.mark.parametrize("source", [
    "import weakref",
    "from weakref import ref",
    "import weakref as wr",
    "class _ChainSet:\n    def of(cls, a, b):\n        return a.__dict__.get('_pair_record')",
    "def _pair(a, b):\n    return weakref.ref(b)",
], ids=["import", "import-from", "alias", "slot", "reference"])
def test_pair_record_user_detector(source):
    assert _callers(ast.parse(source), {"weakref", _SLOT})


_GRAPH_BLOCKS = {"_gx", "_gy"}


def _graph_block_residuals(tree: ast.Module) -> list[str]:
    """Every ``residual`` call with a graph block anywhere in its arguments."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "residual":
            args = list(node.args) + [k.value for k in node.keywords]
            if any(_name(n) in _GRAPH_BLOCKS for arg in args for n in ast.walk(arg)):
                found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_residual_of_a_graph_block(path):
    found = _graph_block_residuals(_tree(path))
    assert not found, f"{path.name} takes a residual of a graph block: {found}"


@pytest.mark.parametrize("source", [
    "split = sub.svd_split(m.residual(t._gx))",
    "r = m.residual(self._gy @ c)",
    "r = Subspace.residual(m, t._gx)",
    "r = m.residual(x=t._gy)",
], ids=["attribute", "expression", "unbound", "keyword"])
def test_graph_block_residual_detector(source):
    assert _graph_block_residuals(ast.parse(source))


def test_graph_block_residual_detector_allows_other_residuals():
    assert not _graph_block_residuals(ast.parse("r = dom.residual(m.basis)"))


def _gap_comparisons(tree: ast.Module) -> list[str]:
    """Every comparison with a ``gap(...)`` call anywhere in its operands."""
    return [f"line {node.lineno}"
            for node in ast.walk(tree) if isinstance(node, ast.Compare)
            for operand in [node.left, *node.comparators]
            if any(isinstance(n, ast.Call) and _name(n.func) == "gap"
                   for n in ast.walk(operand))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_subspace_compares_a_gap(path):
    found = _gap_comparisons(_tree(path))
    if path.name != "subspace.py":
        assert not found, f"{path.name} decides containment from a gap: {found}"


@pytest.mark.parametrize("source", [
    "ok = sub.gap(m, n) <= EQ_TOL",
    "if gap(m, n) > tol:\n    pass",
    "ok = 1e-12 >= sub.gap(m, m)",
    "flag = CHAIN_BAND[0] < sub.gap(m, n) < CHAIN_BAND[1]",
    "ok = abs(sub.gap(m, n) - 1.0) <= 1e-9",
], ids=["attribute", "bare", "reversed", "chained", "nested"])
def test_gap_comparison_detector(source):
    assert _gap_comparisons(ast.parse(source))


def test_gap_comparison_detector_allows_values_and_verdicts():
    source = "g = sub.gap(m, n)\nok = sub.contains(n, m)\nbad = r['gap_fwd'] > bound"
    assert not _gap_comparisons(ast.parse(source))


def _discarded_r(tree: ast.Module) -> list[str]:
    """Every reduced- or complete-mode ``qr`` call whose R is thrown away:
    indexed by 0, read for ``.Q``, or unpacked into ``(q, _)``."""
    def q_mode_qr(node: ast.AST) -> bool:
        if not (isinstance(node, ast.Call) and _name(node.func) == "qr"):
            return False
        mode = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
        return all(isinstance(m, ast.Constant) and m.value in ("reduced", "complete")
                   for m in mode)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and q_mode_qr(node.value) and (
                isinstance(node.slice, ast.Constant) and node.slice.value == 0):
            found.append(f"line {node.lineno}: qr(...)[0]")
        elif isinstance(node, ast.Attribute) and node.attr == "Q" and q_mode_qr(node.value):
            found.append(f"line {node.lineno}: qr(...).Q")
        elif isinstance(node, ast.Assign) and q_mode_qr(node.value) and any(
                isinstance(t, ast.Tuple) and len(t.elts) == 2
                and isinstance(t.elts[1], ast.Name) and t.elts[1].id == "_"
                for t in node.targets):
            found.append(f"line {node.lineno}: q, _ = qr(...)")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_q_without_r_is_q_factor(path):
    found = _discarded_r(_tree(path))
    assert not found, f"{path.name} forms an R it never reads: {found}"


@pytest.mark.parametrize("source", [
    "q = np.linalg.qr(m)[0]",
    "q, _ = np.linalg.qr(m)",
    "q = np.linalg.qr(m, mode='reduced')[0]",
    "q, _ = np.linalg.qr(m, 'reduced')",
    "q = np.linalg.qr(m).Q",
    "c = f(qr(c)[0], d)",
    "def image(t, m):\n    return Subspace(n, linalg.qr(c)[0])",
    "q = np.linalg.qr(m, mode='complete')[0]",
    "perp = np.linalg.qr(span, 'complete')[0][:, rank:]",
], ids=["index", "unpack", "mode-keyword", "mode-positional", "attribute", "nested", "bare",
        "complete", "complete-positional"])
def test_discarded_r_detector(source):
    assert _discarded_r(ast.parse(source))


def test_discarded_r_detector_allows_other_modes_and_r():
    source = ("r = np.linalg.qr(m, mode='r')\n"
              "h, tau = np.linalg.qr(m, mode='raw')\n"
              "q, r = np.linalg.qr(g, mode='complete')\n"
              "q, r = np.linalg.qr(g)\n"
              "r = np.linalg.qr(g)[1]\n"
              "q = sub.q_factor(m)\n")
    assert not _discarded_r(ast.parse(source))


_PRIVATE_LAPACK = {"_umath_linalg"}
# The helpers in ``subspace`` that call numpy's SVD gufuncs directly, as
# ``q_factor`` calls its QR gufuncs.
_SVD_HELPERS = {"svd_values", "svd_factors"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_q_factor_reads_private_lapack(path):
    callers = _callers(_tree(path), _PRIVATE_LAPACK)
    if path.name == "subspace.py":
        assert set(callers) == {"<module>", "q_factor"} | _SVD_HELPERS, callers
    else:
        assert callers == [], f"{path.name} reads numpy's private LAPACK: {callers}"


@pytest.mark.parametrize("source", [
    "from numpy.linalg import _umath_linalg",
    "import numpy.linalg._umath_linalg as lapack",
    "def span(m):\n    return np.linalg._umath_linalg.svd_f(m)",
    "def gap(m, n):\n    return _umath_linalg.svd(r, signature='D->d')[0]",
], ids=["import-from", "import", "attribute", "values"])
def test_private_lapack_reader_detector(source):
    assert _callers(ast.parse(source), _PRIVATE_LAPACK)


# The functions that may take an SVD: each reads singular values or cuts
# a rank at them.  An orthonormal split that reads neither, such as a
# complement or a certificate's rotation, is a complete QR.
_SVD_CALLERS = {
    "metrics.py": {"_sigma_tau"},  # ||B|| on D(A) and its top direction
    "relation.py": {"from_matrix",  # the CS values of the graph
                    "_PencilPoint.__init__",  # Z's values, cut
                    "_PencilPoint._vectors"},  # Z's vectors, read in the cut's order
    "subspace.py": {"span", "svd_split",  # the rank cut
                    "gap", "_settled"},  # sigma_max
    "suites.py": {"_perturbation_case",  # gamma and ||B|| for the draw's scale
                  "_check_perturbation"},  # gamma and the induced inverse's norm
}


def _svd_callers(tree: ast.Module) -> list[str]:
    """The callers of an SVD, numpy's or a ``subspace`` helper's, but for
    the helpers' own bodies, which are the SVD, and the names ``__all__``
    lists."""
    body = [node for node in tree.body
            if not (isinstance(node, ast.FunctionDef) and node.name in _SVD_HELPERS)
            and not (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))]
    return _callers(ast.Module(body=body, type_ignores=[]), {"svd"} | _SVD_HELPERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_value_readers_take_an_svd(path):
    callers = set(_svd_callers(_tree(path)))
    assert callers == _SVD_CALLERS.get(path.name, set()), callers


@pytest.mark.parametrize("source", [
    "class Subspace:\n    def _complement(self):\n        return np.linalg.svd(self.basis)[0]",
    "def certified_span(mc, e, limit):\n    return mc @ np.linalg.svd(e)[2].conj().T",
    "def span(m):\n    def rotate(e):\n        return svd(e)[2]\n    return rotate(m)",
    "from numpy.linalg import svd",
    "def annihilator(s):\n    split = np.linalg.svd\n    return split(s.basis)[0]",
    "class Subspace:\n    def _complement(self):\n        return svd_factors(self.basis, True)[0]",
    "def certified_span(mc, e, limit):\n    return mc @ sub.svd_factors(e)[2].conj().T",
    "from .subspace import svd_values",
    "def kernel_limit(split):\n    top = svd_values\n    return top(split.span)[0]",
], ids=["method", "function", "nested", "import-from", "alias", "helper-method",
        "helper-function", "helper-import", "helper-alias"])
def test_svd_caller_detector(source):
    assert not set(_svd_callers(ast.parse(source))) <= _SVD_CALLERS["subspace.py"]


def test_svd_caller_detector_allows_the_helpers_and_all():
    source = ("__all__ = ['svd_values', 'svd_factors']\n"
              "def svd_values(m):\n    return _umath_linalg.svd(m, signature='d->d')\n"
              "def svd_factors(m, full=False):\n    return _umath_linalg.svd_s(m)\n")
    assert _svd_callers(ast.parse(source)) == []


# Where every SVD and axis-free norm goes through the helpers, and where
# none does: the least-squares reference and the suite oracles keep
# numpy's own, so that they share no code path with what they check.
_HELPER_USERS = ("subspace.py", "relation.py")
_HELPER_FREE = ("metrics.py", "suites.py")
_NUMERIC_HELPERS = _SVD_HELPERS | {"frobenius"}


def _numpy_svds_and_norms(tree: ast.Module) -> list[str]:
    """The qualified name of the function around every mention of ``svd``
    (``np.linalg.svd``, a bare ``svd``, called, aliased or imported) and
    of ``norm``, but for a ``norm`` call given an axis (a keyword or the
    third argument)."""
    with_axis = {id(node.func) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and _name(node.func) == "norm"
                 and (len(node.args) > 2 or any(k.arg == "axis" for k in node.keywords))}
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            name = (child.name.split(".")[-1] if isinstance(child, ast.alias)
                    else _name(child) if isinstance(child, (ast.Attribute, ast.Name)) else "")
            if name == "svd" or name == "norm" and id(child) not in with_axis:
                found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("name", _HELPER_USERS)
def test_production_svds_and_norms_take_the_helpers(name):
    found = set(_numpy_svds_and_norms(_tree(SRC / name)))
    assert found <= _NUMERIC_HELPERS, f"{name} calls numpy's SVD or norm: {found}"


@pytest.mark.parametrize("name", _HELPER_FREE)
def test_references_keep_numpys_svd_and_norm(name):
    found = _callers(_tree(SRC / name), _NUMERIC_HELPERS)
    assert found == [], f"{name} reads a subspace helper: {found}"


@pytest.mark.parametrize("source", [
    "def gap(m, n):\n    return np.linalg.svd(r, compute_uv=False)[0]",
    "def span(m):\n    u, s, _ = linalg.svd(m, full_matrices=False)",
    "from numpy.linalg import svd",
    "def distance(v, s):\n    return float(np.linalg.norm(s.residual(v)))",
    "def _settled(r, cuts):\n    hi = np.linalg.norm(r, 'fro')",
    "from numpy.linalg import norm",
    "class _PencilPoint:\n    def _vectors(self):\n        size = np.linalg.norm\n"
    "        return size(self._z)",
], ids=["svd-values", "svd-factors", "svd-import", "norm", "norm-ord", "norm-import",
        "norm-alias"])
def test_numpy_svd_and_norm_detector(source):
    assert set(_numpy_svds_and_norms(ast.parse(source))) - _NUMERIC_HELPERS


def test_numpy_svd_and_norm_detector_allows_helpers_and_axes():
    source = ("def gap(m, n):\n    return sub.svd_values(r)[0]\n"
              "def distance(v, s):\n    return frobenius(s.residual(v))\n"
              "def _induced_svals(self):\n    return np.linalg.norm(g, axis=0)\n"
              "def columns(g):\n    return np.linalg.norm(g, None, 0)\n"
              "def svd_values(m):\n    return _umath_linalg.svd(m, signature='D->d')\n")
    # The helper's own gufunc call is the one mention left.
    assert _numpy_svds_and_norms(ast.parse(source)) == ["svd_values"]


@pytest.mark.parametrize("source", [
    "def _sigma_tau(a, b, tau):\n    return sub.svd_factors(mat_b)[1]",
    "def _check_gap(case, rec):\n    return sub.frobenius(p @ p - p)",
    "from .subspace import svd_values",
], ids=["factors", "frobenius", "import"])
def test_helper_reader_detector(source):
    assert _callers(ast.parse(source), _NUMERIC_HELPERS)


_SPAN_CALLERS = {
    "metrics.py": {"operator_part",  # N(T) as spanned until item 5
                   "_restricted_quotient_matrix"},  # T(0) as spanned until item 5
    "relation.py": {"image",  # Gy c where no split proves its cut
                    "scalar_mul"},  # [Gx; lam Gy]
    "serialize.py": {"subspace_from_dict"},  # a written basis off orthonormal
    "stability.py": {"_complement_within", "_generate_once"},  # generated graphs
}


def _span_callers(tree: ast.Module) -> list[str]:
    """The qualified name of the function around every mention of
    ``subspace.span``: a bare ``span``, ``sub.span``, any call of a
    ``.span``, an import of it or the string "span".  A ``Split``'s
    ``.span`` field, read and not called, is not one."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id == "span"
                    or isinstance(child, ast.alias) and child.name.split(".")[-1] == "span"
                    or isinstance(child, ast.Attribute) and child.attr == "span"
                    and _name(child.value) in {"sub", "subspace"}
                    or isinstance(child, ast.Call) and _name(child.func) == "span"
                    or isinstance(child, ast.Constant) and child.value == "span"):
                found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "subspace.py"],
                         ids=lambda p: p.name)
def test_only_listed_functions_cut_a_span(path):
    # N(T) and T(0) are Q factors of the graph blocks on the splits' null
    # blocks: a span in ``kernel`` or ``multivalued_part`` would cut again.
    # ``subspace``, which defines span, builds its own primitives on it.
    callers = set(_span_callers(_tree(path)))
    assert callers == _SPAN_CALLERS.get(path.name, set()), callers


@pytest.mark.parametrize("source", [
    "class LinearRelation:\n    def kernel(self):\n        return sub.span(self._gx, 3)",
    "def multivalued_part(t):\n    return span(t._gy)",
    "from .subspace import span",
    "def kernel(t):\n    cut = sub.span\n    return cut(t._gx)",
    "def kernel(t):\n    return getattr(sub, 'span')(t._gx)",
    "def kernel(t):\n    return linrel.subspace.span(t._gx)",
], ids=["method", "bare", "import-from", "alias", "getattr", "qualified"])
def test_span_caller_detector(source):
    assert _span_callers(ast.parse(source))


def test_span_caller_detector_allows_a_split_field():
    source = "def domain(t):\n    return Subspace(3, split.span, split.near)"
    assert not _span_callers(ast.parse(source))


# The functions that may take a complete Q: a subspace's one cached
# complement, which every complement, annihilator and split's complement
# reads, and the certificate's rotation.
_COMPLETE_Q_CALLERS = {"subspace.py": {"Subspace._complement", "certified_span"}}


def _complete_q_callers(tree: ast.Module) -> list[str]:
    """The qualified name of the function around every ``q_factor`` call
    whose ``complete`` (keyword or second argument) is not the constant
    False, and every ``qr`` call in "complete" mode."""
    def complete_q(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        if _name(node.func) == "q_factor":
            flag = [k.value for k in node.keywords if k.arg == "complete"] + node.args[1:2]
            return any(not (isinstance(f, ast.Constant) and f.value is False) for f in flag)
        mode = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
        return _name(node.func) == "qr" and any(
            isinstance(m, ast.Constant) and m.value == "complete" for m in mode)

    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if complete_q(child):
                found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_listed_functions_take_a_complete_q(path):
    # A split or a relation that completed its own span would build a
    # second copy of the subspace's cached complement.
    callers = set(_complete_q_callers(_tree(path)))
    assert callers == _COMPLETE_Q_CALLERS.get(path.name, set()), callers


@pytest.mark.parametrize("source", [
    "def diagonal_split(left, values, right):\n    return q_factor(left, complete=True)",
    "class LinearRelation:\n    def _image_map(self):\n        return sub.q_factor(g, True)",
    "def f(m, flag):\n    return sub.q_factor(m, complete=flag)",
    "perp = np.linalg.qr(span, mode='complete')[0][:, 3:]",
    "def f(g):\n    q, r = np.linalg.qr(g, 'complete')",
], ids=["keyword", "positional", "variable", "qr-keyword", "qr-positional"])
def test_complete_q_caller_detector(source):
    assert _complete_q_callers(ast.parse(source))


def test_complete_q_caller_detector_allows_reduced_qs():
    source = ("q = sub.q_factor(m)\nq = q_factor(m, complete=False)\nq = q_factor(m, False)\n"
              "r = np.linalg.qr(m, mode='r')\nq, r = np.linalg.qr(m)\n")
    assert not _complete_q_callers(ast.parse(source))


# A pencil point is a relation seeded at construction: it defines only
# what makes it values first, and reads every other part of the record,
# D(T), the image map and the inverse's hand-over included, as any
# relation does.
_POINT_MEMBERS = {"__init__",  # seeds D(T), dim R(T), the induced values and T(0)
                  "_vectors", "graph", "_y_svd",  # U, V and the graph, in the cut's order
                  "kernel"}  # Q [W V, K0] past the kept values
_RETIRED = {"_gx_span"}  # D(T) in a second basis, which only a pencil point had


def _class_members(tree: ast.Module, cls: str) -> set[str]:
    """The names a top-level class binds in its own body: methods,
    properties and class attributes."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                targets = (item.targets if isinstance(item, ast.Assign)
                           else [item.target] if isinstance(item, ast.AnnAssign) else [])
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
    return names


def _retired_names(tree: ast.Module) -> list[str]:
    """Every definition and every mention of a ``_RETIRED`` name."""
    return [f"def {node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name in _RETIRED] + _callers(tree, _RETIRED)


def test_a_pencil_point_defines_only_its_values_first_parts():
    members = _class_members(_tree(SRC / "relation.py"), "_PencilPoint")
    assert members == _POINT_MEMBERS, members


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_retired_record_name_is_left(path):
    found = _retired_names(_tree(path))
    assert not found, f"{path.name} keeps a retired name: {found}"


@pytest.mark.parametrize("source", [
    "class _PencilPoint(LinearRelation):\n    @property\n    def domain(self):\n"
    "        return self._fam.domain",
    "class _PencilPoint(LinearRelation):\n    @cached_property\n    def _induced_svals(self):\n"
    "        return self._s",
    "class _PencilPoint(LinearRelation):\n    _range_dim = property(lambda self: self._rank)",
    "class _PencilPoint(LinearRelation):\n    domain: Subspace = None",
], ids=["property", "cached", "assigned", "annotated"])
def test_pencil_point_member_detector(source):
    assert _class_members(ast.parse(source), "_PencilPoint") - _POINT_MEMBERS


def test_pencil_point_member_detector_reads_only_the_class_body():
    source = ("class _PencilPoint(LinearRelation):\n    def __init__(self, fam, lam):\n"
              "        def domain():\n            return fam.domain\n"
              "        self.__dict__['domain'] = domain()\n"
              "class LinearRelation:\n    def domain(self):\n        return d\n")
    assert _class_members(ast.parse(source), "_PencilPoint") == {"__init__"}


@pytest.mark.parametrize("source", [
    "class LinearRelation:\n    @property\n    def _gx_span(self):\n        return self.domain",
    "def _image_map(self):\n    dom = self._gx_span",
    "name = '_gx_span'",
], ids=["defined", "read", "string"])
def test_retired_name_detector(source):
    assert _retired_names(ast.parse(source))


# Each report schema has one writer, so a new field changes one function:
# the bound's dict is serialize's, and the radii, one per kind, metrics'.
_BOUND_KEYS = {"sigma", "tau", "provenance"}
_SCHEMA_WRITERS = {"bound": {("serialize.py", "bound_to_dict")},
                   "radii": {("metrics.py", "stability_radii")}}


def _sites(tree: ast.Module, hit) -> list[str]:
    """The qualified name of the function around every node for which
    ``hit`` holds; "<module>" at the top level."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if hit(child):
                found.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return found


def _builds_bound_dict(node: ast.AST) -> bool:
    """A dict display, or a ``dict(...)`` call, with the bound's three keys."""
    if isinstance(node, ast.Dict):
        keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
    elif isinstance(node, ast.Call) and _name(node.func) == "dict":
        keys = {k.arg for k in node.keywords}
    else:
        return False
    return _BOUND_KEYS <= keys


def _iterates_radius_kinds(node: ast.AST) -> bool:
    """A loop or comprehension whose iterable mentions ``RADIUS_KINDS``."""
    return (isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
            and any(_name(n) == "RADIUS_KINDS" for n in ast.walk(node.iter)))


_SCHEMA_DETECTORS = {"bound": _builds_bound_dict, "radii": _iterates_radius_kinds}


@pytest.mark.parametrize("schema", sorted(_SCHEMA_WRITERS))
def test_each_report_schema_has_one_writer(schema):
    found = {(path.name, where) for path in MODULES
             for where in _sites(_tree(path), _SCHEMA_DETECTORS[schema])}
    assert found == _SCHEMA_WRITERS[schema], found


@pytest.mark.parametrize("schema, source", [
    ("bound", "def to_dict(self):\n    return {'sigma': s, 'tau': t, 'provenance': p}"),
    ("bound", "class R:\n    def to_dict(self):\n"
              "        return {'a': 1, 'sigma': s, 'tau': t, 'provenance': p}"),
    ("bound", "bound = dict(sigma=0.0, tau=1.0, provenance='supplied')"),
    ("radii", "def sweep(g, b):\n    return {k: met.stability_radius(g, b, k)\n"
              "            for k in met.RADIUS_KINDS}"),
    ("radii", "def analyze(g, b):\n    for k, _ in RADIUS_KINDS.items():\n        pass"),
    ("radii", "radii = [r(g, b, k) for k in list(met.RADIUS_KINDS)]"),
], ids=["display", "method-superset", "dict-call", "comprehension", "loop", "module"])
def test_schema_writer_detectors(schema, source):
    assert _sites(ast.parse(source), _SCHEMA_DETECTORS[schema])


def test_schema_writer_detectors_allow_reads():
    source = ("def f(d, kind):\n    s, t = d['sigma'], d['tau']\n"
              "    ok = kind in RADIUS_KINDS\n    k = RADIUS_KINDS[kind]\n"
              "    return {'sigma': s, 'tau': t}, [x for x in radii]\n")
    tree = ast.parse(source)
    assert [_sites(tree, detect) for detect in _SCHEMA_DETECTORS.values()] == [[], []]


_TIMING = re.compile(r"\b\d+(?:\.\d+)?\s*(?:ms|µs|us|ns|s)\b")
_MEASUREMENT = re.compile(r"\bbenchmark|\bmeasured (?:on|at|over|in)\b", re.IGNORECASE)


def _docs_and_comments(source: str) -> list[tuple[int, str]]:
    """(line, text) of every docstring and comment."""
    texts = [(getattr(node, "lineno", 1), ast.get_docstring(node, clean=False))
             for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)) and ast.get_docstring(node)]
    return texts + [(tok.start[0], tok.string)
                    for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                    if tok.type == tokenize.COMMENT]


def _quoted_measurements(source: str) -> list[str]:
    """Every docstring or comment that quotes a timing (a number, then ms,
    µs, us, ns or s) or a benchmark measurement."""
    return [f"line {line}: {text.strip()[:70]}" for line, text in _docs_and_comments(source)
            if _TIMING.search(text) or _MEASUREMENT.search(text)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_docstring_or_comment_quotes_a_measurement(path):
    found = _quoted_measurements(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name} quotes a measurement: {found}"


@pytest.mark.parametrize("source", [
    '"""Takes 3 ms per call."""',
    'def f():\n    """0.85 ms per lambda at n = 64."""',
    'class C:\n    def f(self):\n        """About 120 µs."""',
    "x = 1  # 12 us each",
    "# a sweep takes 2.5 s on the host",
    "# 40ns per dispatch",
    'class C:\n    """Measured on the benchmark pairs."""',
    "# its null values reach 5 noise on the test and benchmark pairs",
    "y = 2  # measured over 6 pairs",
], ids=["module-ms", "function-ms", "method-us", "comment-us", "comment-s", "comment-ns",
        "class-benchmark", "comment-benchmark", "comment-measured"])
def test_quoted_measurement_detector(source):
    assert _quoted_measurements(source)


def test_quoted_measurement_detector_allows_contracts_and_code():
    source = ('"""One SVD of Z per lam; s_r is its smallest value, eps (1 + |lam|) / s_r."""\n'
              'took = "3 ms"  # a string in code, not a docstring\n'
              'doc = {"measured": measured}  # the instance file\'s measured block\n'
              "def f(s):\n    \"\"\"[1, sC, 0] over 2 x 2 blocks.\"\"\"\n")
    assert not _quoted_measurements(source)


_CALL_COUNT = re.compile(r"\b(?i:no|one|two|three|four|single)\s+(?:[\w-]+\s+)?"
                         r"(?:SVDs?|QRs?|lstsq|least-squares)\b")


def _call_counts(source: str) -> list[str]:
    """Every docstring or comment that counts LAPACK calls."""
    return [f"line {line}: {match.group(0)}" for line, text in _docs_and_comments(source)
            for match in _CALL_COUNT.finditer(text)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_docstring_or_comment_counts_calls(path):
    found = _call_counts(path.read_text(encoding="utf-8"))
    assert not found, f"{path.name} counts calls: {found}"


@pytest.mark.parametrize("source", [
    '"""tau = 0: one SVD of M_b."""',
    'def f():\n    """Its span is one QR."""',
    "x = 1  # takes one thin SVD even where",
    "# P from one SVD, of M^H",
    'class C:\n    """No QR and two full SVDs."""',
    "# a single least-squares solve",
], ids=["module", "function", "comment-adjective", "comment", "class", "lstsq"])
def test_call_count_detector(source):
    assert _call_counts(source)


def test_call_count_detector_allows_contracts_and_code():
    source = ('"""sigma is ||M_b||, its largest singular value; the Q factor of m c."""\n'
              'n = "one SVD"  # a string in code, not a docstring\n'
              "def f(s):\n    \"\"\"An image is cut by its own thin SVD.\"\"\"\n")
    assert not _call_counts(source)


# The table of cuts: every float literal below 1e-3 in src/ outside
# tolerances.py, by module, the function around it and its value, one
# entry a site.  A threshold not listed here reads tolerances.py.
_SMALL_LITERALS = [
    ("metrics.py", "_sigma_tau", 1e-10, "the sigma(tau) bracket's relative stopping width"),
    ("metrics.py", "_sigma_tau", 1e-7, "the bracket's sector floor, in radians"),
    ("stability.py", "default_grid", 1e-4, "the grid's least modulus per its largest: a grid "
     "shape, not a cut"),
    ("stability.py", "sweep", 1e-12, "shrinks the pencil radius by rounding, so |lam| = rho "
     "is not counted inside"),
    ("stability.py", "verify_stability", 1e-9, "how far inside a radius a point must be for "
     "a jump to be a violation"),
    ("subspace.py", "<module>", 1e-10, "BRACKET_MARGIN, explained where it is defined"),
    ("subspace.py", "Subspace.__init__", 1e-10, "the Gram check's orthonormality cut"),
    ("suites.py", "sampled_gap", 1e-12, "a sampled gap zero to rounding needs no refinement"),
    ("suites.py", "sampled_gap", 1e-300, "a divide-by-zero guard in the squaring loop"),
    ("suites.py", "sampled_gap", 1e-150, "a divide-by-zero guard for the refined vector"),
    ("suites.py", "_check_gap", 1e-12, "gap(M, M) is zero to rounding"),
    ("suites.py", "_check_gap", 1e-6, "a gap this close to 1 does not bound dim M <= dim N"),
    ("suites.py", "_check_gap", 1e-6, "above this gap 'not contained' is decisive; between "
     "EQ_TOL and it, indeterminate"),
    ("suites.py", "_check_gap", 1e-10, "such a gap is not contained at a tolerance below it"),
    ("suites.py", "_check_gap", 1e-10, "P^2 = P to rounding, for an orthonormal basis"),
    ("suites.py", "_check_gap", 1e-10, "P = P^H to rounding, for an orthonormal basis"),
    ("suites.py", "_check_gap", 1e-9, "a tolerance just under 1, the largest a gap can be"),
    ("suites.py", "_check_gap", 1e-6, "the sampled oracle's accuracy"),
    ("suites.py", "_check_stability", 1e-12, "the radii's order, up to their rounding"),
    ("suites.py", "_check_stability", 1e-12, "the radii's order, up to their rounding"),
    ("suites.py", "_check_eigen_condition", 1e-10, "the lower end of SV_BAND's span, typed "
     "inline: suites may not read the rank-cut tolerances, and resid is a distance"),
    ("suites.py", "_check_eigen_condition", 1e-6, "the upper end of SV_BAND's span, typed "
     "inline for the same reason"),
    ("suites.py", "_check_eigen_condition", 1e-10, "the membership cut, the band's lower end"),
]


def _small_floats(tree: ast.Module) -> list[tuple[str, float]]:
    """(qualified function name, value) of every float literal of modulus
    in (0, 1e-3), negated ones included; "<module>" at the top level."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if (isinstance(child, ast.Constant) and type(child.value) is float
                    and 0 < child.value < 1e-3):
                found.append((where, child.value))
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_every_small_literal_is_in_the_table_of_cuts():
    found = Counter((path.name, where, value) for path in MODULES if path.name != "tolerances.py"
                    for where, value in _small_floats(_tree(path)))
    listed = Counter(site[:3] for site in _SMALL_LITERALS)
    assert found - listed == Counter(), f"unlisted small literals: {found - listed}"
    assert listed - found == Counter(), f"stale table entries: {listed - found}"
    assert all(reason for *_, reason in _SMALL_LITERALS)


@pytest.mark.parametrize("source, site", [
    ("x = 1e-4", ("<module>", 1e-4)),
    ("def f(y):\n    return y < 2.5e-7", ("f", 2.5e-7)),
    ("a = -1e-12", ("<module>", 1e-12)),
    ("class C:\n    def m(self):\n        return (1e-10, 1e-6)", ("C.m", 1e-10)),
    ("def f():\n    def g():\n        return 1e-300", ("f.g", 1e-300)),
], ids=["module", "function", "negated", "method", "nested"])
def test_small_literal_detector(source, site):
    assert site in _small_floats(ast.parse(source))


def test_small_literal_detector_allows_others():
    source = ('x = 1e-3\ny = 0.0\nz = 0.5 * 1e3\nn = 1\nw = 1e-10j\n'
              's = "1e-10"\ndef f():\n    """Cut at 1e-10."""\n    return 2 ** -40\n')
    assert _small_floats(ast.parse(source)) == []
