import numpy as np
import pytest

from linrel import relation as rel
from linrel import stability as stab
from linrel import subspace as sub

from oracles import lift_add_oracle, nullspace_oracle, slice_oracle


def _e(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_from_matrix_identity_and_zero():
    t = rel.from_matrix(np.eye(2))
    assert t.graph.dim == 2 and t.kernel.dim == 0
    z = rel.from_matrix(np.zeros((2, 2)))
    assert z.kernel.is_same(sub.full_space(2))


def test_from_matrix_diag_kernel_range_oracle():
    a = np.diag([0.0, 1.0])
    t = rel.from_matrix(a)
    # direct null-space/range oracle
    ker = nullspace_oracle(a)
    assert t.kernel.is_same(sub.span(ker, ambient=2))
    assert t.range.is_same(sub.span(a, ambient=2))
    assert t.domain.dim == 2 and t.multivalued_part.dim == 0


def test_from_graph_edges():
    zero_graph = rel.from_graph(sub.zero_subspace(4), 2, 2)
    for part in (zero_graph.domain, zero_graph.range, zero_graph.kernel,
                 zero_graph.multivalued_part):
        assert part.dim == 0
    full = rel.from_graph(sub.full_space(4), 2, 2)
    assert full.domain.dim == 2 and full.multivalued_part.dim == 2
    assert full.kernel.dim == 2 and full.range.dim == 2
    with pytest.raises(ValueError):
        rel.from_graph(sub.full_space(3), 2, 2)


def test_e3_parts(e3):
    assert e3.domain.is_same(sub.span(_e(2, 0)[:, None]))
    assert e3.multivalued_part.is_same(sub.span(_e(2, 0)[:, None]))
    assert e3.kernel.dim == 0
    assert e3.range.is_same(sub.full_space(2))


def test_inverse(e3):
    t = rel.from_matrix(np.diag([2.0, 4.0]))
    assert rel.equals(rel.inverse(t), rel.from_matrix(np.diag([0.5, 0.25])))
    assert rel.equals(rel.inverse(rel.inverse(e3)), e3)
    inv = rel.inverse(e3)
    assert inv.domain.is_same(sub.full_space(2))
    assert inv.multivalued_part.dim == 0
    assert inv.kernel.is_same(e3.multivalued_part)


def test_scalar_mul(e3):
    t = rel.from_matrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert rel.equals(rel.scalar_mul(1.0, t), t)
    assert rel.equals(rel.scalar_mul(2.0, t),
                      rel.from_matrix(2 * np.array([[1.0, 2.0], [3.0, 4.0]])))
    collapsed = rel.scalar_mul(0.0, e3)
    expected = sub.span(np.array([[1.0], [0.0], [0.0], [0.0]]))
    assert collapsed.graph.is_same(expected)
    assert collapsed.multivalued_part.dim == 0


def test_add_matrices_and_lift_oracle(e3, rng):
    a = np.array([[1.0, 0.0], [2.0, 1.0]])
    b = np.array([[0.5, 1.0], [0.0, -1.0]])
    got = rel.add(rel.from_matrix(a), rel.from_matrix(b))
    assert rel.equals(got, rel.from_matrix(a + b))

    s = rel.add(e3, rel.from_matrix(np.eye(2)))
    assert s.domain.is_same(sub.span(_e(2, 0)[:, None]))
    assert s.multivalued_part.is_same(sub.span(_e(2, 0)[:, None]))
    assert rel.equals(s, lift_add_oracle(e3, rel.from_matrix(np.eye(2))))

    for _ in range(10):
        x = int(rng.integers(1, 5))
        y = int(rng.integers(1, 5))
        t1 = rel.from_graph(sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng), x, y)
        t2 = rel.from_graph(sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng), x, y)
        assert rel.equals(rel.add(t1, t2), lift_add_oracle(t1, t2))


def test_add_with_negation_kernel(rng):
    t = rel.from_graph(sub.random_subspace(6, 3, rng), 3, 3)
    diff = rel.add(t, rel.scalar_mul(-1.0, t))
    assert diff.kernel.is_same(t.domain)


def test_pencil(diag01):
    ident = rel.identity_relation(2)
    lam = 0.3 + 0.4j
    p = rel.pencil(diag01, ident, lam)
    assert rel.equals(p, rel.from_matrix(np.diag([-lam, 1 - lam])))
    p0 = rel.pencil(diag01, ident, 0.0)
    assert rel.equals(p0, diag01)
    assert rel.pencil(diag01, diag01, 1.0).kernel.is_same(diag01.domain)


@pytest.mark.parametrize("lam", [0.0, 1e-3 - 2e-3j, -1.7 + 0.9j],
                         ids=["zero", "small", "beyond-unit"])
def test_pencil_family_matches_sum_of_scaled(lam):
    # mv and codim > 0 for A; B(0) is 0, 1 and 2-dimensional for seeds 1, 5, 3.
    b_mv = set()
    for seed in (1, 5, 3):
        a, b = stab.generate(stab.InstanceSpec(5, 5, alpha=1, beta=1, mv_dim=2,
                                               dom_codim=2, seed=seed))
        b_mv.add(b.multivalued_part.dim)
        expected = rel.add(a, rel.scalar_mul(-lam, b))
        assert rel.equals(rel.pencil_family(a, b)(lam), expected)
        assert rel.equals(rel.pencil(a, b, lam), expected)
        assert rel.equals(expected, lift_add_oracle(a, rel.scalar_mul(-lam, b)))
    assert b_mv == {0, 1, 2}


def test_domain_and_range_bases_are_those_of_span(rng):
    # Bit for bit: downstream gamma, norms and instance digests depend on them.
    relations = []
    for _ in range(8):
        relations.extend(stab.generate(stab.random_feasible_spec(rng, max_dim=8)))
        x, y = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        k = int(rng.integers(0, x + y + 1))
        relations.append(rel.from_graph(sub.random_subspace(x + y, k, rng), x, y))
    for t in relations:
        for part, block in ((t.domain, t._gx), (t.range, t._gy)):
            ref = sub.span(block)
            assert np.array_equal(part.basis, ref.basis)
            assert part.sv_near_cut == ref.sv_near_cut


def test_image(e3, diag01):
    e1 = sub.span(_e(2, 0)[:, None])
    assert rel.image(diag01, e1).dim == 0
    assert rel.image(diag01, sub.full_space(2)).is_same(diag01.range)
    assert rel.image(e3, e1).is_same(sub.full_space(2))


def test_image_matches_generic_slice_oracle(rng):
    for _ in range(10):
        x = int(rng.integers(1, 5))
        y = int(rng.integers(1, 5))
        t = rel.from_graph(sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng), x, y)
        m = sub.random_subspace(x, int(rng.integers(0, x + 1)), rng)
        assert rel.image(t, m).is_same(slice_oracle(t, m))
        # kernel and multivalued part are the coordinate slices
        assert t.kernel.is_same(
            sub.span(t.graph.basis[:x] @ nullspace_oracle(t.graph.basis[x:]),
                     ambient=x))
        assert t.multivalued_part.is_same(
            sub.span(t.graph.basis[x:] @ nullspace_oracle(t.graph.basis[:x]),
                     ambient=y))


def test_preimage(diag01):
    ident = rel.identity_relation(3)
    s = sub.random_subspace(3, 2, 5)
    assert rel.preimage(ident, s).is_same(s)
    e2 = sub.span(_e(2, 1)[:, None])
    assert rel.preimage(diag01, e2).is_same(sub.full_space(2))
    assert rel.preimage(diag01, sub.zero_subspace(2)).is_same(diag01.kernel)


def test_adjoint_is_transpose_for_matrices(rng):
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    adj = rel.adjoint(rel.from_matrix(m))
    assert adj.x_dim == 3 and adj.y_dim == 2
    assert rel.equals(adj, rel.from_matrix(m.T))


def test_adjoint_e3(e3):
    adj = rel.adjoint(e3)
    # graph {(y', x') : y'_1 = 0, x'_1 = y'_2} inside Y (+) X, dim 2
    assert adj.graph.dim == 2
    expected = sub.span(np.array([[0.0, 0.0],
                                  [1.0, 0.0],
                                  [1.0, 0.0],
                                  [0.0, 1.0]]))
    assert adj.graph.is_same(expected)
    assert adj.kernel.dim == 0
    assert adj.multivalued_part.is_same(sub.span(_e(2, 1)[:, None]))


def test_adjoint_involution(rng):
    for _ in range(10):
        x = int(rng.integers(1, 5))
        y = int(rng.integers(1, 5))
        t = rel.from_graph(sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng), x, y)
        assert rel.equals(rel.adjoint(rel.adjoint(t)), t)


def test_equals_tolerance():
    a = rel.from_matrix(np.diag([1.0, 1.0]))
    b = rel.from_matrix(np.diag([1.0, 1.0 + 1e-6]))
    delta = sub.gap(a.graph, b.graph)  # oracle: graph gap exceeds 1e-8
    assert delta > 1e-8
    assert not rel.equals(a, b, tol=1e-8)
    assert rel.equals(a, rel.inverse(rel.inverse(a)))


def test_null_space_duality_lemma(rng):
    for _ in range(15):
        x = int(rng.integers(1, 6))
        y = int(rng.integers(1, 6))
        t = rel.from_graph(sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng), x, y)
        adj = rel.adjoint(t)
        assert adj.kernel.is_same(sub.annihilator(t.range))
        assert adj.multivalued_part.is_same(sub.annihilator(t.domain))
        assert t.kernel.is_same(sub.annihilator(adj.range))
        assert t.multivalued_part.is_same(sub.annihilator(adj.domain))


@pytest.mark.parametrize("svals, rank", [
    ([1.0, 2e-9, 5e-10], 2),     # the relative cut RANK_REL * s0 decides
    ([1e-6, 3e-12, 5e-13], 2),   # the absolute floor RANK_ABS decides
    ([2e-12, 5e-13], 1),
    ([5e-13, 1e-13], 0),         # top value under the floor
])
def test_span_and_nullspace_share_rank_cut(rng, svals, rank):
    k = len(svals)

    def unitary(n):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q

    m = unitary(5)[:, :k] @ np.diag(svals) @ unitary(k + 1)[:, :k].conj().T
    assert sub.span(m).dim == rank
    assert sub.span(m).dim + sub.svd_split(m)[1].shape[1] == m.shape[1]


def test_t_tinv_identities(rng):
    for _ in range(15):
        x = int(rng.integers(1, 6))
        y = int(rng.integers(1, 6))
        t = rel.from_graph(sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng), x, y)
        m = sub.random_subspace(y, int(rng.integers(0, y + 1)), rng)
        lhs = rel.image(t, rel.preimage(t, m))
        rhs = sub.sum(sub.intersect(m, t.range), t.multivalued_part)
        assert lhs.is_same(rhs)
        mx = sub.random_subspace(x, int(rng.integers(0, x + 1)), rng)
        lhs = rel.preimage(t, rel.image(t, mx))
        rhs = sub.sum(sub.intersect(mx, t.domain), t.kernel)
        assert lhs.is_same(rhs)


def test_fiber_dimension_identity(rng):
    for _ in range(15):
        x = int(rng.integers(1, 6))
        y = int(rng.integers(1, 6))
        t = rel.from_graph(sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng), x, y)
        assert t.graph.dim == t.domain.dim + t.multivalued_part.dim
        assert t.graph.dim == t.range.dim + t.kernel.dim


def test_affine_fiber_theorem(e3):
    y0 = rel.particular_solution(e3, [1.0, 0.0])
    # fiber over e1 is e2 + span e1
    for shift in (0.0, 1.0, -2.5):
        probe = np.concatenate([[1.0, 0.0], y0 + shift * np.array([1.0, 0.0])])
        assert sub.distance(probe, e3.graph) < 1e-10


def test_particular_solution_domain_error(e3):
    with pytest.raises(rel.DomainError) as err:
        rel.particular_solution(e3, [0.0, 1.0])
    assert err.value.residual > 0.9
    # columns are checked one by one: e1 is in D, e2 is not
    with pytest.raises(rel.DomainError) as err:
        rel.particular_solution(e3, np.eye(2))
    assert err.value.residual > 0.9
    assert rel.particular_solution(e3, np.array([[1.0], [0.0]])).shape == (2, 1)


def test_adjoint_of_scalar_and_sum(rng):
    for _ in range(10):
        spec = stab.random_feasible_spec(rng, max_dim=5)
        a, b = stab.generate(spec)
        lam = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
        assert rel.equals(rel.adjoint(rel.scalar_mul(lam, a)),
                          rel.scalar_mul(lam, rel.adjoint(a)))
        # B is everywhere defined by construction
        assert rel.equals(rel.adjoint(rel.add(a, b)),
                          rel.add(rel.adjoint(a), rel.adjoint(b)))


def test_difference_lemma_construction(rng):
    spec = stab.InstanceSpec(3, 3, alpha=1, beta=0, mv_dim=1, dom_codim=0, seed=5)
    a, b = stab.generate(spec)
    x1 = a.domain.basis[:, 0]
    y1 = rel.particular_solution(a, x1)
    if sub.distance(y1, b.range) < 1e-8:
        x2 = rel.particular_solution(rel.inverse(b), y1)
        mv_a = a.multivalued_part
        shift_a = mv_a.basis[:, 0] if mv_a.dim else 0.0
        diff = (y1 + shift_a) - y1
        assert sub.distance(diff, mv_a) < 1e-8


def test_image_of_sum_additivity(rng):
    for _ in range(10):
        x = int(rng.integers(1, 6))
        y = int(rng.integers(1, 6))
        t = rel.from_graph(sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng), x, y)
        m = sub.random_subspace(x, int(rng.integers(0, x + 1)), rng)
        dom = t.domain
        k = int(rng.integers(0, dom.dim + 1))
        if k:
            g = rng.standard_normal((dom.dim, k)) + 1j * rng.standard_normal((dom.dim, k))
            q, _ = np.linalg.qr(g)
            n = sub.span(dom.basis @ q[:, :k], ambient=x)
        else:
            n = sub.zero_subspace(x)
        lhs = rel.image(t, sub.sum(m, n))
        rhs = sub.sum(rel.image(t, m), rel.image(t, n))
        assert lhs.is_same(rhs)
