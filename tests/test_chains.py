import gc
import math
import sys
import weakref

import numpy as np
import pytest

from linrel import chains as chn
from linrel import metrics as met
from linrel import relation as rel
from linrel import stability as stab
from linrel import subspace as sub
from linrel.tolerances import EQ_TOL

from lapack_svds import svd_counter


def _e1(n=2):
    v = np.zeros((n, 1))
    v[0, 0] = 1.0
    return sub.span(v)


def _e2(n=2):
    v = np.zeros((n, 1))
    v[1, 0] = 1.0
    return sub.span(v)


def test_m_chain_worked(diag01, identity, zero):
    ident = identity(2)
    ms = chn.m_chain(diag01, ident)
    assert [s.dim for s in ms][:2] == [2, 1]
    assert ms[1].is_same(_e2())       # B^{-1}(A(R^2)) = range(A)
    assert ms[-1].is_same(ms[-2])     # stabilized

    inv = rel.from_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert all(s.dim == 2 for s in chn.m_chain(inv, ident))

    ms = chn.m_chain(diag01, zero(2, 2))
    assert ms[1].is_same(sub.full_space(2))  # kernel(B) = X sits in every M_n


def test_n_chain_worked(diag01, identity):
    ident = identity(2)
    ns = chn.n_chain(diag01, ident)
    assert ns[0].is_same(_e1())
    assert ns[-1].is_same(_e1())      # N_2 = A^{-1}(span e1) = span e1

    inv = rel.from_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert all(s.dim == 0 for s in chn.n_chain(inv, ident))

    ns = chn.n_chain(diag01, diag01)  # A = B: N_n = N(A) for all n
    assert all(s.is_same(diag01.kernel) for s in ns)


def test_dual_chains_worked(diag01, identity):
    ident = identity(2)
    dual = chn._ChainSet.of(rel.adjoint(diag01), rel.adjoint(ident), 3, 3)  # chains of Y'
    ms, ns = dual.ms, dual.ns
    assert ms[1].is_same(_e2())
    assert ns[0].is_same(_e1())
    # Adjoint-sequence containment on this instance
    b_n1 = rel.image(ident, chn.n_chain(diag01, ident)[0])
    assert sub.contains(sub.annihilator(b_n1), ms[1])

    inv = rel.from_matrix(np.array([[3.0, 0.0], [1.0, 1.0]]))
    ns_inv = chn._ChainSet.of(rel.adjoint(inv), rel.adjoint(ident), 3, 3).ns
    assert all(s.dim == 0 for s in ns_inv)


def test_nu_worked(diag01, identity):
    ident = identity(2)
    assert chn.nu(diag01, ident) == 1
    assert math.isinf(chn.nu(diag01, diag01))
    inv = rel.from_matrix(np.array([[1.0, 1.0], [0.0, 2.0]]))
    assert math.isinf(chn.nu(inv, ident))


def test_check_equivalent_conditions(diag01, identity):
    ident = identity(2)
    res = chn.check_equivalent_conditions(diag01, ident, 1)
    assert res["conditions"] == [False]
    assert res["all_agree"] and res["implication_holds"]

    res = chn.check_equivalent_conditions(diag01, diag01, 2)
    assert all(res["conditions"]) and res["kappa"]

    inv = rel.from_matrix(np.diag([1.0, 2.0, 3.0]))
    res = chn.check_equivalent_conditions(inv, identity(3), 3)
    assert all(res["conditions"]) and res["kappa"]


def test_verify_nu_duality(diag01, identity):
    ident = identity(2)
    rep = chn.verify_nu_duality(diag01, ident)
    assert rep["applicable"]
    assert rep["nu"] == 1 and rep["nu_dual"] == 1
    assert rep["equality_nu"] and rep["equality_m"]
    assert rep["adjoint_sequences_hold"]

    rep = chn.verify_nu_duality(diag01, diag01)
    assert rep["applicable"]
    assert math.isinf(rep["nu"]) and math.isinf(rep["nu_dual"])
    assert rep["equality_nu"]

    partial = rel.from_graph(sub.span(np.array([[1.0], [0.0], [0.0], [1.0]])), 2, 2)
    rep = chn.verify_nu_duality(partial, ident)
    assert not rep["applicable"]
    assert "D(A) = X" in rep["hypothesis_failures"]


def test_chain_report_structure(diag01, identity):
    ident = identity(2)
    rep = chn.chain_report(diag01, ident)
    assert rep.nu == 1
    assert rep.stabilized_at <= 3
    assert [row[0] for row in rep.containment_table][:1] == [False]
    d = rep.to_dict()
    assert d["m_dims"][0] == 2 and d["n_dims"][0] == 1
    assert isinstance(d["containment_table"][0][0], bool)


def test_chain_invariants_random(rng):
    for _ in range(15):
        spec = stab.random_feasible_spec(rng, max_dim=5)
        a, b = stab.generate(spec)
        rep = chn.chain_report(a, b)
        if rep.ill_conditioned:
            continue
        m_dims = [s.dim for s in rep.m_chain]
        n_dims = [s.dim for s in rep.n_chain]
        assert all(m_dims[i + 1] <= m_dims[i] for i in range(len(m_dims) - 1))
        assert all(n_dims[i] <= n_dims[i + 1] for i in range(len(n_dims) - 1))
        assert all(sub.contains(s, b.kernel) for s in rep.m_chain)
        assert all(sub.contains(a.domain, s) for s in rep.n_chain)
        assert rep.n_chain[0].is_same(a.kernel)
        if sub.contains(b.kernel, a.kernel):
            assert math.isinf(rep.nu)
        for n in range(1, a.x_dim + 1):
            res = chn.check_equivalent_conditions(a, b, n)
            if res["ill_conditioned"]:
                continue
            assert res["all_agree"], f"conditions disagree at n={n}"
            assert res["implication_holds"]


def test_nu_duality_random_everywhere_defined(rng):
    seen = 0
    for _ in range(15):
        spec = stab.random_feasible_spec(rng, max_dim=5, everywhere_defined=True)
        a, b = stab.generate(spec)
        rep = chn.verify_nu_duality(a, b)
        assert rep["applicable"]
        assert rep["equality_m"], "M'_1 != (B N_1)-perp"
        assert rep["equality_nu"], f"nu={rep['nu']} vs nu'={rep['nu_dual']}"
        assert rep["adjoint_sequences_hold"]
        seen += 1
    assert seen == 15


def _haar(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


@pytest.mark.parametrize("s, nu", [(1e-10, 1), (1e-9, math.inf)])
def test_near_cut_chains_are_ill_conditioned(s, nu, identity):
    # One singular value of A at the rank cut: nu flips between 1 and inf
    # over s, and the chain subspaces are cut near a singular value.
    rng = np.random.default_rng(0)
    u, v = _haar(rng, 4), _haar(rng, 4)
    a = rel.from_matrix(u @ np.diag([1.0, 1.0, 1.0, s]) @ v.conj().T)
    b = identity(4)
    rep = chn.chain_report(a, b)
    assert rep.nu == nu
    assert any(m.sv_near_cut for m in rep.m_chain + rep.n_chain)
    assert rep.ill_conditioned
    # With no table at all, nu still read the near-cut M chain.
    assert chn.chain_report(a, b, 0).ill_conditioned
    for n in range(1, 5):
        assert chn.check_equivalent_conditions(a, b, n)["ill_conditioned"], n


def test_chains_clear_of_the_cut_are_not_flagged(identity):
    rng = np.random.default_rng(0)
    u, v = _haar(rng, 4), _haar(rng, 4)
    a = rel.from_matrix(u @ np.diag([1.0, 1.0, 1.0, 1e-5]) @ v.conj().T)
    b = identity(4)
    rep = chn.chain_report(a, b)
    assert math.isinf(rep.nu) and not rep.ill_conditioned
    for n in range(1, 5):
        assert not chn.check_equivalent_conditions(a, b, n)["ill_conditioned"], n


def test_a_gap_just_over_the_containment_cut_is_flagged():
    # N(A) = span e1 and N(B) = span(e1 + t e2): at t just over EQ_TOL the
    # gap decides "not contained" and nu = 1, as fragile a verdict as the
    # nu = inf one just under the cut, so the report is flagged.
    a = rel.from_matrix(np.diag([0.0, 1.0]))
    b = rel.from_matrix(np.array([[1.001e-8, -1.0], [0.0, 0.0]]))
    rep = chn.chain_report(a, b)
    assert rep.nu == 1
    assert rep.ill_conditioned
    assert chn.check_equivalent_conditions(a, b, 1)["ill_conditioned"]


def test_contained_flags_a_near_cut_side():
    plane = sub.span(np.eye(3)[:, [0, 1]])
    near = sub.Subspace(3, np.eye(3)[:, [0]], sv_near_cut=True)
    assert sub.contained(plane, near) == (True, True)
    assert sub.contained(near, plane) == (False, True)
    assert sub.contained(plane, sub.span(np.eye(3)[:, [0]])) == (True, False)


def test_contained_refuses_a_larger_inner_space_without_svd(monkeypatch):
    line = sub.span(np.eye(3)[:, [0]])
    svds = svd_counter(monkeypatch)
    assert sub.contained(line, sub.full_space(3)) == (False, False)
    assert sub.contained(sub.zero_subspace(3), line) == (False, False)
    assert svds == []


def test_negative_max_n_is_rejected(diag01, identity):
    for build in (chn.m_chain, chn.n_chain, chn.chain_report):
        with pytest.raises(ValueError, match="max_n"):
            build(diag01, identity(2), -2)


# ---------------------------------------------------------------------------
# One chain set per pair: the reports read shared chains and verdicts, and
# must equal the path that rebuilt both chains for every call.

def _old_conditions(a, b, n):
    """``check_equivalent_conditions`` on chains built afresh for this n."""
    ms = chn.m_chain(a, b, max(n, a.x_dim + 1))
    ns = chn.n_chain(a, b, max(n + 1, a.x_dim + 1))
    m_at = lambda i: ms[min(i, len(ms) - 1)]  # noqa: E731
    n_at = lambda k: ns[min(k, len(ns)) - 1]  # noqa: E731
    ill, conditions = False, []
    for r in range(1, n + 1):
        ok, flag = sub.contained(m_at(n - r + 1), n_at(r))
        conditions.append(ok)
        ill = ill or flag
    kappa = True
    for k in range(1, n + 1):
        target = rel.preimage(b, rel.image(a, n_at(k + 1)))
        ok1, f1 = sub.contained(target, n_at(k))
        ok2, f2 = sub.contained(b.domain, n_at(k))
        kappa = kappa and ok1 and ok2
        ill = ill or f1 or f2
    return {"n": n, "conditions": conditions, "kappa": kappa,
            "all_agree": len(set(conditions)) <= 1,
            "implication_holds": (not all(conditions)) or kappa,
            "ill_conditioned": ill}


def _old_report(a, b, max_n):
    """``chain_report(a, b, max_n).to_dict()`` on chains built afresh."""
    ms, ns = chn.m_chain(a, b, max_n), chn.n_chain(a, b, max_n)
    depth = a.x_dim + 1 if max_n is None else max_n
    ill, table = False, []
    for n in range(1, depth + 1):
        row = []
        for k in range(1, n + 1):
            ok, flag = sub.contained(ms[min(n - k + 1, len(ms) - 1)],
                                     ns[min(k, len(ns)) - 1])
            row.append(ok)
            ill = ill or flag
        table.append(row)
    # nu reads N(B) and the whole M chain, whatever max_n cuts off.
    whole = chn.m_chain(a, b)
    ill = ill or any(s.sv_near_cut for s in whole + ns + [b.kernel])
    nu = math.inf if sub.contains(b.kernel, a.kernel) else next(
        (n for n in range(1, len(whole)) if not sub.contains(whole[n], a.kernel)), math.inf)
    return {"m_dims": [s.dim for s in ms], "n_dims": [s.dim for s in ns],
            "stabilized_at": len(ms) - 1, "nu": nu,
            "containment_table": table, "ill_conditioned": ill}


def _old_duality(a, b):
    """``verify_nu_duality`` on chains built afresh, with every image that
    an annihilator target needs computed anew."""
    failures = [name for name, ok in (
        ("D(A) = X", a.domain.dim == a.x_dim), ("D(B) = X", b.domain.dim == b.x_dim),
        ("B(0) subset of A(0)", sub.contains(a.multivalued_part, b.multivalued_part)))
        if not ok]
    if failures:
        return {"applicable": False, "hypothesis_failures": failures}
    a_adj, b_adj = rel.adjoint(a), rel.adjoint(b)
    ms_dual, ns_dual = chn.m_chain(a_adj, b_adj), chn.n_chain(a_adj, b_adj)
    ms, ns = chn.m_chain(a, b), chn.n_chain(a, b)

    def perp(t, s):
        return sub.annihilator(rel.image(t, s))

    fwd = [sub.contains(perp(b, ns[min(n, len(ns)) - 1]), ms_dual[n])
           for n in range(1, len(ms_dual))]
    bwd = [sub.contains(perp(a, ms[min(n - 1, len(ms) - 1)]), ns_dual[n - 1])
           for n in range(1, len(ns_dual) + 1)]
    nu, nu_dual = chn.nu(a, b), chn.nu(a_adj, b_adj)
    return {"applicable": True, "hypothesis_failures": [],
            "equality_m": len(ms_dual) > 1 and ms_dual[1].is_same(perp(b, ns[0])),
            "nu": nu, "nu_dual": nu_dual, "equality_nu": nu == nu_dual,
            "adjoint_sequences_m": fwd, "adjoint_sequences_n": bwd,
            "adjoint_sequences_hold": all(fwd) and all(bwd)}


def _deep_pair(x, depth, seed):
    """A = B C with C a rotated nilpotent Jordan block of size ``depth`` plus
    an invertible block, so both chains move one step at a time."""
    rng = np.random.default_rng(seed)
    core = np.zeros((x, x))
    core[np.arange(depth - 1), np.arange(1, depth)] = 1.0
    core[depth:, depth:] = rng.standard_normal((x - depth,) * 2) + 3 * np.eye(x - depth)
    q, _ = np.linalg.qr(rng.standard_normal((x, x)))
    bm = rng.standard_normal((x, x)) + 3 * np.eye(x)
    return rel.from_matrix(bm @ q @ core @ q.T), rel.from_matrix(bm)


def _pairs(rng):
    """Generated pairs plus deep ones, each as a factory of fresh relations."""
    specs = [stab.random_feasible_spec(rng, max_dim=5, everywhere_defined=(i % 2 == 1))
             for i in range(8)]
    yield from (lambda spec=spec: stab.generate(spec) for spec in specs)
    yield lambda: _deep_pair(7, 5, seed=3)
    yield lambda: _deep_pair(6, 6, seed=4)


def _check_identity(make):
    a, b = make()
    x = a.x_dim
    old_conditions = [_old_conditions(a, b, n) for n in range(1, x + 4)]
    old_reports = {m: _old_report(a, b, m) for m in (None, 0, 1, 2, x + 3)}
    old_duality = _old_duality(a, b)
    for report_first in (False, True):
        a, b = make()
        if report_first:
            assert chn.chain_report(a, b).to_dict() == old_reports[None]
        else:
            assert chn.verify_nu_duality(a, b) == old_duality
        for n in range(1, x + 4):
            assert chn.check_equivalent_conditions(a, b, n) == old_conditions[n - 1], n
        for m, old in old_reports.items():
            assert chn.chain_report(a, b, m).to_dict() == old, m
        # After the chains were extended to x + 3 steps where they had not
        # stabilized: the kept images of the longer chains.
        assert chn.verify_nu_duality(a, b) == old_duality


def test_shared_chains_match_per_call_chains(rng):
    for make in _pairs(rng):
        _check_identity(make)


def _never_stable(monkeypatch):
    """Make the chain step's stop test always False, so that every chain
    runs to its step limit.  Every other is_same, such as the reference's
    equality_m, keeps its verdict."""
    real = sub.Subspace.is_same

    def is_same(self, other, tol=EQ_TOL):
        return sys._getframe(1).f_code is not chn._steps.__code__ and real(self, other, tol)

    monkeypatch.setattr(sub.Subspace, "is_same", is_same)


def test_shared_chains_match_when_chains_never_stabilize(rng, monkeypatch):
    # A longer n or max_n has to extend the shared chains.
    _never_stable(monkeypatch)
    for make in _pairs(rng):
        _check_identity(make)


def _built_pair():
    """A pair whose record holds all it keeps: pencil family, hypothesis
    verdict, chains and adjoint pair."""
    spec = stab.InstanceSpec(4, 4, alpha=1, beta=1, seed=5)
    a, b = stab.generate(spec)
    rel.pencil(a, b, 0.5)
    met._check_standing_hypotheses(a, b)
    chn.chain_report(a, b)
    chn.check_equivalent_conditions(a, b, 2)
    chn.verify_nu_duality(a, b)
    assert set(rel._pair(a, b)) == {"pencil", "hypotheses", "chains", "adjoints"}
    return a, b


def test_chain_set_keeps_no_relation_alive():
    gc.disable()
    try:
        a, b = _built_pair()
        a_ref, b_ref = weakref.ref(a), weakref.ref(b)
        del b
        assert b_ref() is None, "a's pair record keeps its partner alive"
        del a
        assert a_ref() is None, "a relation with a pair record needs the cyclic GC"
    finally:
        gc.enable()


def test_new_partner_gets_its_own_chains():
    gc.disable()
    try:
        a, b = _built_pair()
        old = chn.chain_report(a, b).to_dict()
        # X (+) 0 plus (0, e1): N(B) = X, so every M_n is X, and B(0) = span e1
        # is not inside A(0) = {0}, so this pair fails a hypothesis b met.
        graph = sub.span(np.eye(8)[:, :5])
        del b
        # Allocated right after b died, the partner usually takes b's id.
        fresh = rel.LinearRelation(4, 4, graph)
        with pytest.raises(met.HypothesisError, match="B\\(0\\) subset of A\\(0\\)"):
            met._check_standing_hypotheses(a, fresh)
        assert rel.pencil(a, fresh, 0.5).multivalued_part.dim == 1
        assert chn.chain_report(a, fresh).to_dict() == _old_report(a, fresh, None)
        assert chn.chain_report(a, fresh).to_dict() != old
    finally:
        gc.enable()


@pytest.mark.parametrize("stops", [True, False], ids=["stabilizing", "never-stable"])
def test_equivalent_conditions_do_not_depend_on_call_order(stops, monkeypatch):
    if not stops:
        _never_stable(monkeypatch)
    for make in (lambda: _deep_pair(7, 5, seed=3), lambda: _deep_pair(6, 6, seed=4)):
        up = make()
        ns = range(1, up[0].x_dim + 3)
        ascending = {n: chn.check_equivalent_conditions(*up, n) for n in ns}
        a, b = make()
        descending = {n: chn.check_equivalent_conditions(a, b, n) for n in reversed(ns)}
        single = {}
        for n in ns:
            a, b = make()
            single[n] = chn.check_equivalent_conditions(a, b, n)
        assert ascending == descending == single
        # A second pass reads the kept rows and kappa tally: no verdict again.
        taken, real = [], sub.contained
        monkeypatch.setattr(sub, "contained", lambda *args: taken.append(args) or real(*args))
        assert {n: chn.check_equivalent_conditions(*up, n) for n in ns} == single
        assert taken == []
        monkeypatch.setattr(sub, "contained", real)


def test_kept_rows_are_not_shared_with_callers():
    a, b = _deep_pair(7, 5, seed=3)
    table = chn.chain_report(a, b).containment_table
    first = chn.check_equivalent_conditions(a, b, 3)
    first["conditions"].append("mutated")
    table[2].append("mutated")
    again = chn.check_equivalent_conditions(a, b, 3)
    assert "mutated" not in again["conditions"]
    assert chn.chain_report(a, b).containment_table[2] == again["conditions"]
