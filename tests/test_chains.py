import math

import numpy as np
import pytest

from linrel import chains as chn
from linrel import relation as rel
from linrel import stability as stab
from linrel import subspace as sub


def _e1(n=2):
    v = np.zeros((n, 1))
    v[0, 0] = 1.0
    return sub.span(v)


def _e2(n=2):
    v = np.zeros((n, 1))
    v[1, 0] = 1.0
    return sub.span(v)


def test_m_chain_worked(diag01):
    ident = rel.identity_relation(2)
    ms = chn.m_chain(diag01, ident)
    assert [s.dim for s in ms][:2] == [2, 1]
    assert ms[1].is_same(_e2())       # B^{-1}(A(R^2)) = range(A)
    assert ms[-1].is_same(ms[-2])     # stabilized

    inv = rel.from_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert all(s.dim == 2 for s in chn.m_chain(inv, ident))

    zero = rel.zero_relation(2, 2)
    ms = chn.m_chain(diag01, zero)
    assert ms[1].is_same(sub.full_space(2))  # kernel(B) = X sits in every M_n


def test_n_chain_worked(diag01):
    ident = rel.identity_relation(2)
    ns = chn.n_chain(diag01, ident)
    assert ns[0].is_same(_e1())
    assert ns[-1].is_same(_e1())      # N_2 = A^{-1}(span e1) = span e1

    inv = rel.from_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert all(s.dim == 0 for s in chn.n_chain(inv, ident))

    ns = chn.n_chain(diag01, diag01)  # A = B: N_n = N(A) for all n
    assert all(s.is_same(diag01.kernel) for s in ns)


def test_dual_chains_worked(diag01):
    ident = rel.identity_relation(2)
    ms, ns = chn.dual_chains(diag01, ident)
    assert ms[1].is_same(_e2())
    assert ns[0].is_same(_e1())
    # Adjoint-sequence containment on this instance
    b_n1 = rel.image(ident, chn.n_chain(diag01, ident)[0])
    assert sub.contains(sub.annihilator(b_n1), ms[1])

    inv = rel.from_matrix(np.array([[3.0, 0.0], [1.0, 1.0]]))
    _, ns_inv = chn.dual_chains(inv, ident)
    assert all(s.dim == 0 for s in ns_inv)


def test_nu_worked(diag01):
    ident = rel.identity_relation(2)
    assert chn.nu(diag01, ident) == 1
    assert math.isinf(chn.nu(diag01, diag01))
    inv = rel.from_matrix(np.array([[1.0, 1.0], [0.0, 2.0]]))
    assert math.isinf(chn.nu(inv, ident))


def test_check_equivalent_conditions(diag01):
    ident = rel.identity_relation(2)
    res = chn.check_equivalent_conditions(diag01, ident, 1)
    assert res["conditions"] == [False]
    assert res["all_agree"] and res["implication_holds"]

    res = chn.check_equivalent_conditions(diag01, diag01, 2)
    assert all(res["conditions"]) and res["kappa"]

    inv = rel.from_matrix(np.diag([1.0, 2.0, 3.0]))
    res = chn.check_equivalent_conditions(inv, rel.identity_relation(3), 3)
    assert all(res["conditions"]) and res["kappa"]


def test_verify_nu_duality(diag01):
    ident = rel.identity_relation(2)
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


def test_chain_report_structure(diag01):
    ident = rel.identity_relation(2)
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


def test_negative_max_n_is_rejected(diag01):
    for build in (chn.m_chain, chn.n_chain, chn.chain_report):
        with pytest.raises(ValueError, match="max_n"):
            build(diag01, rel.identity_relation(2), -2)
