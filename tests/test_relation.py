import math

import mpmath
import numpy as np
import pytest

from linrel import metrics as met
from linrel import relation as rel
from linrel import serialize as ser
from linrel import stability as stab
from linrel import subspace as sub
from linrel.tolerances import EQ_TOL

from matrix_shapes import MATRIX_SHAPES, rank_matrix
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


def _matrix_cases(rng):
    """(matrix, kind) pairs: random shapes up to 8 x 8, some of lower
    rank, scaled over 1e-3..1e3; each again with one value planted at 1e-8
    of the largest, inside SV_BAND and two decades from both its ends; and
    each again with a value whose Gx value is 1e-13 of the largest, far
    below the cut, so that D(T) loses v_1 and T(0) gains u_1."""
    def g(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    cases = []
    for _ in range(60):
        y, x = (int(n) for n in rng.integers(1, 9, size=2))
        rank = int(rng.integers(0, min(x, y) + 1))
        m = g(y, rank) @ g(rank, x) * 10.0 ** rng.uniform(-3, 3)
        cases.append((m, "random"))
        if min(x, y) >= 2:
            u, s, vh = np.linalg.svd(g(y, x), full_matrices=False)
            s = np.linspace(1.0, 0.5, s.size) * 10.0 ** rng.uniform(-3, 3)
            s[-1] = 1e-8 * s[0] / math.sqrt(1 + s[0] ** 2)  # Gy's values: s / sqrt(1 + s^2)
            cases.append(((u * s) @ vh, "planted"))
            s[-1] = s[-2]  # Gx's values: 1 / sqrt(1 + s^2), the largest at s[-1]
            s[0] = 1e13 * math.hypot(1.0, s[-1])
            cases.append(((u * s) @ vh, "huge"))
    return cases


def test_from_matrix_parts_match_the_generic_path(rng):
    # from_matrix splits both graph blocks from its own SVD in closed form;
    # the generic path takes the SVDs of the stored blocks.
    cases = _matrix_cases(rng)
    assert [kind for _, kind in cases].count("planted") > 20
    for m, kind in cases:
        t = rel.from_matrix(m)
        ref = rel.from_graph(t.graph, t.x_dim, t.y_dim)
        for name in ("domain", "range", "kernel", "multivalued_part"):
            mine, theirs = getattr(t, name), getattr(ref, name)
            assert (mine.dim, mine.sv_near_cut) == (theirs.dim, theirs.sv_near_cut), name
            # A part cut next to a value at 1e-8 of the top is known to the
            # SVD of its block only to about eps / 1e-8, above EQ_TOL.
            assert mine.is_same(theirs, 1e-6 if mine.sv_near_cut else EQ_TOL), name
        if kind == "huge":
            assert (t.domain.dim, t.multivalued_part.dim) == (t.x_dim - 1, 1)
        if kind == "planted":
            assert t.range.sv_near_cut and t.kernel.sv_near_cut
            assert t.range.dim == min(m.shape)  # the planted value is kept
            assert not (t.domain.sv_near_cut or t.multivalued_part.sv_near_cut)
        # A planted gamma is known to the SVD of Gy only to its absolute
        # rounding, relative to Gy's largest value; the closed form reads it
        # off the values the graph was built from.
        gy_top = np.linalg.norm(ref._gy, 2) if kind == "planted" else 0.0
        for f, scale in ((met.norm, 0.0), (met.gamma, gy_top)):
            mine, theirs = f(t), f(ref)
            assert mine == theirs or abs(mine - theirs) <= 1e-13 * max(abs(theirs), scale), \
                (f, mine, theirs)


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


def test_pencil(diag01, identity):
    ident = identity(2)
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


def test_preimage(diag01, identity):
    ident = identity(3)
    s = sub.random_subspace(3, 2, 5)
    assert rel.preimage(ident, s).is_same(s)
    e2 = sub.span(_e(2, 1)[:, None])
    assert rel.preimage(diag01, e2).is_same(sub.full_space(2))
    assert rel.preimage(diag01, sub.zero_subspace(2)).is_same(diag01.kernel)


def test_preimage_builds_one_inverse_per_relation(diag01, monkeypatch):
    real, built = rel.inverse, []
    monkeypatch.setattr(rel, "inverse", lambda t: built.append(t) or real(t))
    line = sub.span(np.array([[0.0], [1.0]]))
    first = rel.preimage(diag01, line)
    for _ in range(3):
        again = rel.preimage(diag01, line)
        np.testing.assert_array_equal(again.basis, first.basis)
    assert built == [diag01]
    assert rel.equals(diag01._inverse, real(diag01))


def test_a_cut_at_the_absolute_floor_is_flagged():
    # Gx's values are 1e-9 and 3.3e-13: RANK_ABS is the binding cut, and
    # the value it drops lies within a factor ten of it.
    t = rel.from_matrix(np.diag([1e9, 3e12]))
    assert (t.domain.dim, t.multivalued_part.dim) == (1, 1)
    assert t.domain.sv_near_cut and t.multivalued_part.sv_near_cut


def test_preimage_of_a_line_agrees_with_the_range_decision():
    # R(A) is a 3-space of C^4 with N(A) = {0}, so a generic line meets it
    # in {0} and its preimage is {0}.  A's smallest value, 2e-12, sits
    # within a factor ten of the absolute floor, which flags the cut of Gy
    # that decides both R(A) and N(A).  A cut of (I - P_M) Gy dropped the
    # 2e-12 sin(theta) left of that value under the floor and answered a
    # line, unflagged.
    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))[0]
    a = rel.from_matrix(u @ np.diag([2.5e-8, 6e-11, 2e-12]))
    assert (a.kernel.dim, a.range.dim) == (0, 3)
    assert a.range.sv_near_cut and a.kernel.sv_near_cut
    for seed in (3, 6, 8, 16):
        assert rel.preimage(a, sub.random_subspace(4, 1, seed)).dim == 0, seed


def _residual_image(t, m):
    """T(M) from the null space of (I - P_M) Gx, one full SVD per call: the
    construction the image from the cached split of Gx replaced."""
    split = sub.svd_split(m.residual(t._gx))
    near = split.near or t.graph.sv_near_cut or m.sv_near_cut
    return sub.span(t._gy @ split.null, ambient=t.y_dim, near=near)


def _decided_dim(t, m):
    """dim T(M) = dim T(0) + dim(M ^ D) - dim(M ^ N), from the relation's
    own D, N and T(0)."""
    return (t.multivalued_part.dim + sub.intersect(m, t.domain).dim
            - sub.intersect(m, t.kernel).dim)


def _against_residual_image(cases):
    """Yield (t, m, new, old) for every case, with the new image checked
    against the relation's own decisions: it holds T(0) and has the
    dimension D, N and T(0) give it, unless flagged."""
    for t, m in cases:
        new, old = rel.image(t, m), _residual_image(t, m)
        assert new.sv_near_cut or new.dim == _decided_dim(t, m), (t, m.dim, new.dim)
        assert new.contains(t.multivalued_part), (t, m.dim)
        yield t, m, new, old


def _every_dimension(t, rng):
    return [(t, sub.random_subspace(t.x_dim, d, rng)) for d in range(t.x_dim + 1)]


def test_image_matches_the_residual_image(rng):
    # Inverses make the cases preimages; x1e5 shrinks Gx.  Gx is a block of
    # an orthonormal basis, known to eps: a direction of D kept at a value
    # s_r below eps / EQ_TOL is known only to eps / s_r > EQ_TOL (Wedin), so
    # there the two constructions may part; the new one keeps D's split.
    cases, loose = [], 0
    for _ in range(120):
        for base in stab.generate(stab.random_feasible_spec(rng, max_dim=6)):
            for t in (base, rel.inverse(base), rel.adjoint(base),
                      rel.scalar_mul(1e5, base), rel.scalar_mul(1e-5, base)):
                cases += _every_dimension(t, rng)
    # Pencil points and sums read their own split of Gx, whose basis is not
    # the family's D(A) ^ D(B) basis where Z has distinct values; their
    # inverses read the closed-form split of Gy.
    seen = set()
    for _ in range(40):
        a, b = stab.generate(stab.random_feasible_spec(rng, max_dim=6))
        for p in (rel.pencil(a, b, 0.3 - 0.2j), rel.pencil(a, b, 2.0), rel.add(a, b)):
            cases += _every_dimension(p, rng) + _every_dimension(rel.inverse(p), rng)
            seen |= {"K0"} if p._fam.k0 else set()
            seen |= {"distinct Z"} if p._s.size and np.ptp(p._s) > 1e-6 else set()
    assert seen == {"K0", "distinct Z"}, seen
    for t, m, new, old in _against_residual_image(cases):
        dom, split = t._gx_span, t._x_svd
        if dom.dim and split.svals[dom.dim - 1] < np.finfo(float).eps / EQ_TOL:
            loose += 1
            continue
        assert new.dim == old.dim and new.is_same(old), (t, m.dim)
        # The new side alone flags D's split in the band, which the residual
        # need not see; the old side alone, a product of two unflagged
        # scales that (I - P_M) Gx put in the band and the new path never
        # forms.
        assert not new.sv_near_cut or old.sv_near_cut or split.near, (t, m.dim)
    assert len(cases) > 4000 and loose < len(cases) // 10, (len(cases), loose)


def test_image_of_widely_scaled_operators_keeps_the_relations_decisions(rng):
    # Singular values spread over 1e-13 to 1e11: a dimension the residual
    # cut decided otherwise is flagged, or agrees with D, N and T(0).
    cases = []
    for _ in range(300):
        x, y = (int(n) for n in rng.integers(1, 7, 2))
        k = min(x, y)
        u, v = (np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
                for n in (y, x))
        a = rel.from_matrix((u * np.sort(10.0 ** rng.uniform(-13, 11, k))[::-1]) @ v.conj().T)
        cases += _every_dimension(a, rng) + _every_dimension(rel.inverse(a), rng)
    parted = [(new.sv_near_cut, old.sv_near_cut)
              for t, m, new, old in _against_residual_image(cases) if new.dim != old.dim]
    assert len(cases) > 2500 and len(parted) <= len(cases) // 100, (len(cases), parted)


def _span_image(t, m):
    """T(M) with the span's own rank cut: M ^ D(T) from (I - P_D) M, c
    orthonormalised by one QR, then one thin SVD of Gy c, all read off t's
    image map.  This is the construction the coefficient-space domain cut
    and the certified span replaced."""
    imap, dom = t._image_map, t.domain
    basis, near = m.basis, imap.near or m.sv_near_cut
    if dom.dim < t.x_dim:
        cut = sub.svd_split(dom.residual(basis))
        basis, near = basis @ cut.null, near or cut.near
    cols = np.hstack([imap.gv @ np.linalg.qr(imap.coef @ basis)[0], imap.gv0])
    return sub.span(cols, ambient=t.y_dim, near=near)


def _graded_relation(rng, smallest):
    """An injective relation from X to Y whose Gy has the singular values
    s / sqrt(1 + s^2) of s = [1e8, 1, ``smallest``] and, when T(0) is not
    {0}, 1: D(T) is X or a proper subspace of it."""
    x, y = int(rng.integers(3, 6)), int(rng.integers(4, 7))
    mv = int(rng.integers(0, y - 2))
    v = np.linalg.qr(rng.standard_normal((x, 3)) + 1j * rng.standard_normal((x, 3)))[0]
    uw = np.linalg.qr(rng.standard_normal((y, 3 + mv)) + 1j * rng.standard_normal((y, 3 + mv)))[0]
    cols = rel._cs_columns(v, uw[:, :3], np.array([1e8, 1.0, smallest]))
    t0 = np.vstack([np.zeros((x, mv)), uw[:, 3:]])
    return rel.from_graph(sub.Subspace(x + y, np.hstack([cols, t0])), x, y)


def _spread_relation(rng, spread):
    """An injective relation from X to Y whose Gx keeps the values C = (1 +
    s^2)^-1/2 from 0.9 down to 0.9 / ``spread``, so its Gx spread is
    ``spread``: D(T) is X or a proper subspace of it, T(0) {0} or not."""
    x = int(rng.integers(2, 8))
    k = int(rng.integers(2, x + 1))
    y = int(rng.integers(k, 9))
    mv = int(rng.integers(0, y - k + 1))
    v = np.linalg.qr(rng.standard_normal((x, k)) + 1j * rng.standard_normal((x, k)))[0]
    uw = np.linalg.qr(rng.standard_normal((y, k + mv)) + 1j * rng.standard_normal((y, k + mv)))[0]
    c = np.geomspace(0.9, 0.9 / spread, k)
    cols = rel._cs_columns(v, uw[:, :k], np.sqrt(1 / c ** 2 - 1))
    t0 = np.vstack([np.zeros((x, mv)), uw[:, k:]])
    return rel.from_graph(sub.Subspace(x + y, np.hstack([cols, t0])), x, y)


def _two_qr_image(t, m):
    """T(M) under a t whose split of Gy proves the cut: c orthonormalised
    by a QR, then the Q factor of Gy c, read off t's image map."""
    imap, basis = t._image_map, m.basis
    if imap.perp is not None:
        basis = basis @ sub.svd_split(imap.perp @ basis).null
    cols = np.hstack([imap.gv @ np.linalg.qr(imap.coef @ basis)[0], imap.gv0])
    return sub.Subspace(t.y_dim, np.linalg.qr(cols)[0] if cols.shape[1] else cols)


def _certifies_every_column(t):
    """t's split of Gy proves the cut of Gy c for every orthonormal c: Gy
    has no null block and :func:`subspace.kernel_limit` is set."""
    split = t._y_svd
    return split.null.shape[1] == 0 and sub.kernel_limit(split) is not None


def test_injective_image_matches_the_span_image(rng):
    # Where t's cut of Gy fixes the image's rank (one QR), the image has the
    # span image's dimension, flag and span, and an orthonormal basis.  So
    # has every image read off t's map: where D(T) != X, dim G = 0 or M =
    # {0}, and under a cached inverse (a preimage) or an adjoint.  There,
    # whether c is made orthonormal first (a Gx spread over COEF_SPREAD) or
    # not, the image is within 1e-11 of the two-QR image both ways.
    relations, kinds = [], {}
    for _ in range(40):
        for base in stab.generate(stab.random_feasible_spec(rng, max_dim=6)):
            for t in (base, rel.inverse(base), rel.adjoint(base)):
                relations += [t, rel.scalar_mul(1e5, t), rel.scalar_mul(1e-5, t)]
            kinds[id(relations[-3])] = "adjoint"
            relations.append(base._inverse)
            kinds[id(base._inverse)] = "cached inverse"
    for _ in range(60):
        x, y = (int(n) for n in rng.integers(1, 7, 2))
        k = min(x, y)
        u, v = (np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
                for n in (y, x))
        a = rel.from_matrix((u * np.sort(10.0 ** rng.uniform(-8, 8, k))[::-1]) @ v.conj().T)
        relations += [a, rel.inverse(a)]
    # Both sides of the switch at twice the band's top: 2e-6.
    graded = {smallest: [_graded_relation(rng, smallest) for _ in range(12)]
              for smallest in (1e-6, 1.9e-6, 2.1e-6, 1e-5)}
    for smallest, ts in graded.items():
        assert {_certifies_every_column(t) for t in ts} == {smallest > 2e-6}
        relations += ts
    relations += [rel.from_graph(sub.zero_subspace(x + y), x, y) for x, y in ((1, 1), (3, 2))]
    # Both sides of COEF_SPREAD, with their own generator.
    spread_rng = np.random.default_rng(25)
    for spread in (0.999 * rel.COEF_SPREAD, 1.001 * rel.COEF_SPREAD):
        for _ in range(30):
            t = _spread_relation(spread_rng, spread)
            assert _certifies_every_column(t) and t.kernel.dim == 0
            assert (t._image_map.spread <= rel.COEF_SPREAD) == (spread < rel.COEF_SPREAD)
            relations.append(t)
    cases = [(t, m) for t in relations for _, m in _every_dimension(t, rng)]
    decided = proper = 0
    seen = set()
    for t, m in cases:
        new, old = rel.image(t, m), _span_image(t, m)
        assert (new.dim, new.sv_near_cut) == (old.dim, old.sv_near_cut), (t, m.dim)
        assert new.is_same(old, EQ_TOL), (t, m.dim)
        gram = new.basis.conj().T @ new.basis - np.eye(new.dim)
        assert np.abs(gram).max(initial=0.0) <= 1e-12, (t, m.dim)
        if _certifies_every_column(t):
            decided += 1
            proper += t.domain.dim < t.x_dim
            ref = _two_qr_image(t, m)
            assert max(sub.gap(new, ref), sub.gap(ref, new)) <= 1e-11, (t, m.dim)
        seen |= {kinds.get(id(t), "other")}
        seen |= {"D != X"} if t.domain.dim < t.x_dim else set()
        seen |= {"dim G = 0"} if t.graph.dim == 0 else set()
        seen |= {"M = 0"} if m.dim == 0 else set()
    assert decided > len(cases) // 4 and proper > 100, (len(cases), decided, proper)
    assert seen == {"other", "adjoint", "cached inverse", "D != X", "dim G = 0", "M = 0"}, seen


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


def test_near_cut_flag_survives_sum_and_intersection():
    # D(A) = span e1 and D(B) = span(e1 + 1e-8 e2) are decided apart 1e-8
    # from the cut: both answers are dim 0 and must say they are fragile.
    a = rel.from_graph(sub.span(np.array([[1.0], [0.0], [1.0], [0.0]])), 2, 2)
    b = rel.from_graph(sub.span(np.array([[1.0], [1e-8], [0.0], [1.0]])), 2, 2)
    total = rel.add(a, b).graph
    assert total.dim == 0 and total.sv_near_cut
    both = sub.intersect(a.domain, b.domain)
    assert both.dim == 0 and both.sv_near_cut


def test_pencil_graphs_carry_their_inputs_flags():
    basis = sub.span(np.eye(4)[:, :2]).basis
    for near_a, near_b in ((False, False), (True, False), (False, True)):
        a = rel.from_graph(sub.Subspace(4, basis, sv_near_cut=near_a), 2, 2)
        b = rel.from_graph(sub.Subspace(4, basis, sv_near_cut=near_b), 2, 2)
        family = rel.pencil_family(a, b)
        for lam in (0.0, 0.5, -1.0):
            assert family(lam).graph.sv_near_cut is (near_a or near_b)


def test_orth_complement_and_annihilator_pass_the_flag_on():
    for near in (False, True):
        for basis in (np.zeros((3, 0)), np.eye(3)[:, :1], np.eye(3)):
            s = sub.Subspace(3, basis, sv_near_cut=near)
            assert sub.orth_complement(s).sv_near_cut is near
            assert sub.annihilator(s).sv_near_cut is near


def test_sum_scalar_adjoint_and_image_carry_the_flag(identity):
    # Both inputs are decided 1e-8 from the cut; every answer built on
    # them inherits that fragility.
    s = sub.span(np.array([[1.0, 0.0], [0.0, 1e-8], [0.0, 0.0]]))
    t = rel.from_graph(sub.span(np.array([[1.0, 1.0], [0.0, 1e-8],
                                          [1.0, 1.0], [0.0, 0.0]])), 2, 2)
    assert s.sv_near_cut and t.graph.sv_near_cut
    full = sub.full_space(2)
    assert sub.sum(s, sub.zero_subspace(3)).sv_near_cut
    assert sub.sum(sub.zero_subspace(3), s).sv_near_cut
    assert rel.scalar_mul(2.0, t).graph.sv_near_cut
    assert rel.adjoint(t).graph.sv_near_cut
    assert rel.image(t, full).sv_near_cut
    assert rel.preimage(t, full).sv_near_cut
    assert rel.image(identity(3), s).sv_near_cut


def test_kernel_and_multivalued_part_carry_their_split_and_graph_flags():
    # A = U diag(1, 1, 1, s) V^H: at s = 1e-9 the kernel {0}, and at
    # 1e-10 the kernel span(v4), is decided near the cut; so is T(0) = N(A)
    # of the inverse.
    rng = np.random.default_rng(0)
    u, v = (np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0] for _ in range(2))
    for s, dim in ((1e-9, 0), (1e-10, 1)):
        a = rel.from_matrix(u @ np.diag([1.0, 1.0, 1.0, s]) @ v.conj().T)
        assert a.kernel.dim == dim and a.kernel.sv_near_cut
        inv = rel.inverse(a)
        assert inv.multivalued_part.dim == dim and inv.multivalued_part.sv_near_cut
    plain = rel.from_matrix(u)
    assert not plain.kernel.sv_near_cut
    assert not rel.inverse(plain).multivalued_part.sv_near_cut
    basis = sub.span(np.eye(4)[:, :2]).basis
    flagged = rel.from_graph(sub.Subspace(4, basis, sv_near_cut=True), 2, 2)
    assert flagged.kernel.sv_near_cut and flagged.multivalued_part.sv_near_cut


def _check_pencil_domain(a, b, p):
    dom = p.domain
    assert dom.dim == sub.span(p._gx).dim == sub.intersect(a.domain, b.domain).dim
    assert dom.is_same(sub.span(p._gx))
    assert dom.is_same(sub.intersect(a.domain, b.domain))
    if not (p.graph.sv_near_cut or dom.sv_near_cut
            or p.multivalued_part.sv_near_cut):
        assert p.graph.dim == dom.dim + p.multivalued_part.dim


def test_pencil_domain_is_the_intersection_of_domains(rng, diag01, identity):
    # D(A - lam*B) = D(A) ^ D(B) at every lam, add (lam = -1) and the
    # exceptional lam = 1 of diag(0, 1) and I included.
    shapes = set()
    for _ in range(50):
        x, y = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a, b = (rel.from_graph(sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)),
                                                   rng), x, y) for _ in range(2))
        shapes |= {("mv" if t.multivalued_part.dim else "single",
                    "codim" if t.domain.dim < x else "full",
                    "empty" if t.domain.dim == 0 else "nonempty") for t in (a, b)}
        family = rel.pencil_family(a, b)
        for p in (family(0.0), family(-1.0), family(0.3 - 0.7j), rel.add(a, b)):
            _check_pencil_domain(a, b, p)
    assert {s[0] for s in shapes} == {"mv", "single"}
    assert {s[1] for s in shapes} == {"codim", "full"}
    assert {s[2] for s in shapes} == {"empty", "nonempty"}
    ident = identity(2)
    p = rel.pencil(diag01, ident, 1.0)
    _check_pencil_domain(diag01, ident, p)
    assert p.domain.dim == 2 and p.kernel.dim == 1


def test_pencil_domain_carries_the_flag():
    # The reproduction pair: D(A) ^ D(B) is decided 1e-8 from the cut.
    a = rel.from_graph(sub.span(np.array([[1.0], [0.0], [1.0], [0.0]])), 2, 2)
    b = rel.from_graph(sub.span(np.array([[1.0], [1e-8], [0.0], [1.0]])), 2, 2)
    for lam in (0.0, -1.0, 0.5j):
        dom = rel.pencil(a, b, lam).domain
        assert dom.dim == 0 and dom.sv_near_cut


def test_pencil_graph_carries_the_domain_cut_flag(identity):
    # A's graph and [Gx_A, -Gx_B] are cut clear of the band, but X is not:
    # its values are 0.5 and 1e-8.  The graph's dimension rests on that cut.
    cols = np.array([[1.0, 0.0], [0.0, 1e-8], [1.0, 0.0], [0.0, 1.0]])
    a = rel.from_graph(sub.Subspace(4, cols / np.linalg.norm(cols, axis=0)), 2, 2)
    b = identity(2)
    assert not (b.graph.sv_near_cut or sub.svd_split(np.hstack([a._gx, -b._gx])).near)
    for lam in (0.0, 0.5, -1.0):
        p = rel.pencil(a, b, lam)
        assert p.domain.dim == 2 and p.domain.sv_near_cut and p.graph.sv_near_cut


def _mp(m):
    return mpmath.matrix(np.asarray(m, dtype=complex).tolist())


def _exact_image(t, m, d1, dim):
    """T(M) under t's stored graph at 50 digits, cut where the float paths
    cut it: c is an orthonormal basis of the d1-dimensional space of
    coefficients with Gx c in M (Gx^-1 M where Gx is invertible, else the
    near-null space of (I - P_M) Gx), and the image is the span of Gy c's
    leading ``dim`` singular vectors.  Also the ratio of the largest value
    that cut drops to the smallest it keeps: a subspace that keeps the
    same directions may lie that far from the leading ones."""
    with mpmath.workdps(50):
        gx, gy, u = _mp(t._gx), _mp(t._gy), _mp(m.basis)
        if t._gx.shape[0] == t._gx.shape[1] and t.domain.dim == t.x_dim:
            c = mpmath.qr(mpmath.inverse(gx) * u, mode="skinny")[0]
        else:
            r = gx - u * (mpmath.inverse(u.H * u) * (u.H * gx))
            c = mpmath.eigh(r.H * r)[1][:, :d1]  # ascending eigenvalues
        if not dim:
            return mpmath.zeros(t.y_dim, 1), 0.0
        b = gy * c
        values, vectors = mpmath.eigh(b.H * b)
        cut = b.cols - dim
        ratio = float(mpmath.sqrt(max(values[cut - 1], 0) / values[cut])) if cut else 0.0
        return mpmath.qr(b * vectors[:, cut:], mode="skinny")[0], ratio


def _gap_to_exact(s, exact):
    """gap(S, E) for a float S and an exact orthonormal E of S's dimension."""
    if s.dim == 0:
        return 0.0
    with mpmath.workdps(50):
        u = _mp(s.basis)
        r = np.array((u - exact * (exact.H * u)).tolist(), dtype=complex)
    return float(np.linalg.svd(r, compute_uv=False)[0])


def _planted(rng, x, near, theta, dim):
    """A ``dim``-dimensional subspace of C^x holding a unit vector at angle
    ``theta`` from the subspace ``near``, and otherwise random."""
    n = near.basis @ _unit(rng, near.dim)
    z = sub.orth_complement(near).basis @ _unit(rng, x - near.dim)
    rest = rng.standard_normal((x, dim - 1)) + 1j * rng.standard_normal((x, dim - 1))
    return sub.span(np.column_stack([np.cos(theta) * n + np.sin(theta) * z, rest]))


def _unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _cut_cases(rng):
    """(t, M) pairs for the coefficient-space cuts: from_matrix operators
    with values over 1e-8 to 1e8 and kernels of dimension 1 to 3, generated
    relations with D(T) != X and T(0) != {0}, a pencil point with a grown
    kernel, and cached inverses; M is random or holds a direction planted
    at 1e-3 to 1e-14 from N(T) or, under an inverse, from D(T).  Last come
    kappa targets: M holds N(T), under operators with kernels of
    dimension 1 and 3."""
    def operator(x, n0, lo, hi=8):
        u, v = (np.linalg.qr(rng.standard_normal((x, x)) + 1j * rng.standard_normal((x, x)))[0]
                for _ in range(2))
        s = np.concatenate([np.sort(10.0 ** rng.uniform(lo, hi, x - n0))[::-1], np.zeros(n0)])
        return rel.from_matrix((u * s) @ v.conj().T)

    big = [operator(16, n0, lo, hi) for n0, lo, hi in ((1, -5, 5), (2, -8, 8), (3, -3, 3))]
    spec = stab.InstanceSpec(16, 16, alpha=2, beta=2, mv_dim=1, dom_codim=1, seed=5)
    big += [stab.generate(spec)[0], rel.pencil_family(big[0], operator(16, 0, -1))(0.0)]
    small = [operator(6, n0, -8) for n0 in (1, 2, 3)] + [operator(6, 2, -2, 2)]
    spec = stab.InstanceSpec(6, 6, alpha=1, beta=1, mv_dim=1, dom_codim=1, seed=7)
    small += list(stab.generate(spec))
    cases = []
    for t, middle in zip(big, ((1e-6,), (1e-9,), (1e-8, 1e-11))):
        cases += [(t, _planted(rng, 16, t.kernel, theta, 8)) for theta in (1e-3, *middle, 1e-14)]
    for t in big[3:]:
        cases += [(u, sub.random_subspace(16, 8, rng)) for u in (t, t._inverse)]
    for t in small:
        u = t._inverse
        cases += [(u, _planted(rng, u.x_dim, u.domain, theta, 3))
                  for theta in (1e-3, 1e-8, 1e-11, 1e-14)]
        cases.append((t, _planted(rng, t.x_dim, t.domain, 1e-9, 3)))
    # kappa targets T(N) with N holding N(T), at n_0 = 1 and 3, under values
    # over 1e-3 to 1e3: E's row space is N(T)'s preimage, dropped whole.
    for t in (operator(16, 1, -3, 3), big[2]):
        n0 = t.kernel.dim
        cases += [(t, sub.sum(t.kernel, sub.random_subspace(16, dim - n0, rng)))
                  for dim in (n0, 8, 15)]
    return cases


def test_coefficient_space_cuts_match_the_exact_image(rng, monkeypatch):
    # Both cuts against 50 digits: D(T)-perp^H M in place of (I - P_D) M,
    # and the certified span in place of the thin SVD of Gy c.  Each image
    # has the thin-SVD path's dimension and flag.  An unflagged one lies no
    # further from the exact image, cut at that dimension, than the
    # thin-SVD path's image, up to rounding and up to what the cut leaves
    # open: the certificate keeps the directions off N(Gy), the SVD the
    # leading ones, and these part by the ratio of the largest dropped
    # value to the smallest kept.  A flagged image's cut is indeterminate,
    # and so is its exact image.  The two paths may differ from each other
    # by more than either differs from the exact image.
    paths, real = [], sub.certified_span

    def certified(mc, e, limit, near=False):
        got = real(mc, e, limit, near)
        paths.append("qr" if e is None else "fallback" if got is None else
                     "fast" if np.vdot(e, e).real <= limit else "rotated")
        return got

    monkeypatch.setattr(sub, "certified_span", certified)
    seen, eps = set(), np.finfo(float).eps
    for t, m in _cut_cases(rng):
        paths.clear()
        new, old = rel.image(t, m), _span_image(t, m)
        assert (new.dim, new.sv_near_cut) == (old.dim, old.sv_near_cut), (t, paths)
        dom, d1 = t.domain, m.dim
        if dom.dim < t.x_dim:
            d1 = sub.svd_split(dom.residual(m.basis)).null.shape[1]
            assert sub.svd_split(t._image_map.perp @ m.basis).null.shape[1] == d1
            paths.append("D != X")
        if not new.sv_near_cut:
            exact, ratio = _exact_image(t, m, d1 + t._x_svd.null.shape[1], new.dim)
            g_new, g_old = _gap_to_exact(new, exact), _gap_to_exact(old, exact)
            assert g_new <= 4 * g_old + 16 * eps + ratio, (g_new, g_old, ratio, paths)
            seen |= {f"exact {path}" for path in paths}
        seen |= set(paths) | ({"pencil"} if isinstance(t, rel._PencilPoint) else set())
    assert {"fast", "rotated", "fallback", "qr", "D != X", "pencil", "exact fast",
            "exact rotated", "exact D != X"} <= seen, seen


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a rounding direction of Gy c just above the flag window "
                          "is kept unflagged in the image of N(T)")
def test_image_of_the_kernel_is_zero_or_flagged():
    # T(N(T)) = {0}.  Under a 16 x 16 operator with values over 1e-5..1e5
    # and a one-dimensional kernel, Gy c is rounding carried through
    # S_r^-1: the image must be {0}, or flagged where that rounding reaches
    # the cut.  Each of these draws gives an unflagged line; a fix makes
    # every one of them honest.
    for seed in (13, 15, 31, 36, 47):
        rng = np.random.default_rng(seed)
        u, v = (np.linalg.qr(rng.standard_normal((16, 16))
                             + 1j * rng.standard_normal((16, 16)))[0] for _ in range(2))
        s = np.append(np.sort(10.0 ** rng.uniform(-5, 5, 15))[::-1], 0.0)
        t = rel.from_matrix((u * s) @ v.conj().T)
        if t.kernel.dim != 1:  # a broken set-up fails, not xfails
            pytest.fail(f"seed {seed}: kernel of dimension {t.kernel.dim}")
        image = rel.image(t, t.kernel)
        assert image.dim == 0 or image.sv_near_cut, (seed, image.dim)


def _mp_operator(t):
    """The matrix Gy Gx^-1 of a single-valued, everywhere-defined relation,
    from its stored graph basis, at 40 digits."""
    def mat(m):
        return mpmath.matrix([[mpmath.mpc(v.real, v.imag) for v in row] for row in m])
    return mat(t._gy) * mpmath.inverse(mat(t._gx))


def test_pencil_graph_and_domain_are_cut_at_one_scale():
    # A - B = diag(-1e5, 0).  Cut at the graph's own scale, the 2e10
    # direction fell out of the graph but not out of the domain: graph
    # dim 1, domain dim 2, kernel dim 0, and no flag.
    a = rel.from_matrix(np.diag([1e5, 2e10]))
    b = rel.from_matrix(np.diag([2e5, 2e10]))
    p = rel.pencil(a, b, 1.0)
    assert (p.graph.dim, p.domain.dim, p.multivalued_part.dim) == (2, 2, 0)
    assert (p.kernel.dim, p.range.dim) == (1, 1)
    assert p.kernel.is_same(sub.span(np.array([0.0, 1.0])))
    # The stored graphs give A - B a zero second column exactly, and its
    # first is -1e5 to the rounding of the stored CS-form graphs.
    with mpmath.workdps(40):
        ref = float(max(mpmath.svd_c(_mp_operator(a) - _mp_operator(b),
                                     compute_uv=False)))
    assert abs(met.gamma(p) - ref) <= 1e-12 * ref
    assert abs(ref - 1e5) <= 1e-10 * 1e5


def test_from_matrix_stores_badly_scaled_columns_exactly():
    # One SVD of [I; A] put an error of eps ||A|| on every column: A e1 was
    # stored to 1.0e-11 relative and A e2 to 8.3e-8.
    a = rel.from_matrix(np.diag([1e5, 2e10]))
    with mpmath.workdps(40):
        stored = _mp_operator(a)
        for (i, j), want in np.ndenumerate(np.diag([1e5, 2e10])):
            assert abs(stored[i, j] - want) <= 1e-15 * max(want, 1e5), (i, j)


def _scaled_pairs(rng):
    """Generated pairs (multivalued parts and domain codimension included)
    and pairs of Haar graphs, each side scaled by 1e-8, 1 or 1e8."""
    pairs = [stab.generate(stab.random_feasible_spec(rng, max_dim=6)) for _ in range(6)]
    for _ in range(6):
        x, y = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        pairs.append(tuple(
            rel.from_graph(sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng),
                           x, y) for _ in range(2)))
    return [(rel.scalar_mul(10.0 ** ka, a), rel.scalar_mul(10.0 ** kb, b))
            for a, b in pairs for ka, kb in ((0, 0), (8, -8), (-8, 8), (8, 8), (-8, -8))]


@pytest.mark.parametrize("lam", [0.0, 1.0, 1j, 1e6, 1e-6],
                         ids=["zero", "one", "i", "1e6", "1e-6"])
def test_pencil_dimensions_add_up_at_any_scale(rng, lam):
    for a, b in _scaled_pairs(rng):
        p = rel.pencil(a, b, lam)
        assert (p.graph.dim == p.domain.dim + p.multivalued_part.dim
                == p.range.dim + p.kernel.dim), (p.graph.dim, p.domain.dim,
                                                 p.multivalued_part.dim, p.range.dim,
                                                 p.kernel.dim)


class _SpanPencil(rel.LinearRelation):
    """A relation whose domain is given, not cut from its graph's Gx."""

    def __init__(self, x_dim, y_dim, graph, domain):
        super().__init__(x_dim, y_dim, graph)
        self._given = domain

    @property
    def domain(self):
        return self._given


def _span_pencil(a, b, lam):
    """A - lam*B as the span of [X; Y1 - lam*Y2], each cut at its own scale,
    with the span of X as its domain: the construction the CS form
    replaced, kept here as its reference."""
    split = sub.svd_split(np.hstack([a._gx, -b._gx]))
    near = split.near or a.graph.sv_near_cut or b.graph.sv_near_cut
    c1, c2 = split.null[: a.graph.dim, :], split.null[a.graph.dim:, :]
    x, y1, y2 = a._gx @ c1, a._gy @ c1, b._gy @ c2
    return _SpanPencil(a.x_dim, a.y_dim, sub.span(np.vstack([x, y1 - lam * y2]), near=near),
                       sub.span(x, ambient=a.x_dim, near=near))


def _reference_pencils():
    """Named (A, B) pairs: x != y; T(0) != 0 with domain codim 1 (the P
    block); D = {0}; more c-columns than x; a rank-deficient Z."""
    rng = np.random.default_rng(3)
    pairs = {
        "6x5": stab.generate(stab.InstanceSpec(6, 5, alpha=2, beta=1, seed=7)),
        "mv-codim": stab.generate(stab.InstanceSpec(6, 5, alpha=1, beta=0, mv_dim=1,
                                                    dom_codim=1, force_nu_infinite=True,
                                                    seed=11)),
        "empty-domain": (rel.from_graph(sub.span(np.vstack([np.zeros((3, 2)),
                                                            rng.standard_normal((4, 2))])),
                                        3, 4),
                         rel.from_matrix(rng.standard_normal((4, 3)))),
        "many-c": tuple(rel.from_graph(sub.random_subspace(6, 5, rng), 2, 4)
                        for _ in range(2)),
        "diag01": (rel.from_matrix(np.diag([0.0, 1.0])), rel.from_matrix(np.eye(2))),
    }
    return [(name, a, b, lam) for name, (a, b) in pairs.items()
            for lam in (0.0, 1.0, 0.3 - 0.2j, 1e6, -1e6j)]


@pytest.mark.parametrize("name,a,b,lam", _reference_pencils())
def test_cs_pencil_matches_the_span_construction(name, a, b, lam):
    # A - lam*B = -lam (B - A/lam), so past |lam| = 1 the reference is the
    # span of the reversed pencil, which is well scaled.  Of A - lam*B
    # itself at |lam| = 1e6 the span loses a graph direction (many-c),
    # flags a clean graph (6x5, mv-codim) and loses 1e-10 of gamma (diag01
    # at -1e6j: 999999.99990 for 1e6).
    new = rel.pencil(a, b, lam)
    if abs(lam) <= 1:
        old, scale = _span_pencil(a, b, lam), 1.0
        assert new.graph.is_same(old.graph)
    else:
        old, scale = _span_pencil(b, a, 1 / lam), abs(lam)
    assert new.graph.dim == old.graph.dim
    for part in ("domain", "kernel", "range"):
        assert getattr(new, part).is_same(getattr(old, part)), part
    # (A - lam*B)(0) = A(0) + lam*B(0); the span's own T(0) of the reversed
    # empty-domain pencil reads a 1e-11 X block as nonzero.
    mv = sub.sum(a.multivalued_part, b.multivalued_part) if lam else a.multivalued_part
    assert new.multivalued_part.is_same(mv)
    assert (met.alpha(new), met.beta(new)) == (met.alpha(old), met.beta(old))
    assert [t.sv_near_cut for t in (new.graph, new.kernel, new.range)] == \
        [t.sv_near_cut for t in (old.graph, old.kernel, old.range)]
    g_new, g_old = met.gamma(new), scale * met.gamma(old)
    if g_old >= 1e-3 and math.isfinite(g_old):
        assert abs(g_new - g_old) <= 1e-12 * g_old, (g_new, g_old)
    else:
        assert g_new == g_old or g_new < 1e-3


def test_reference_pencils_cover_every_block():
    seen = set()
    for name, a, b, lam in _reference_pencils():
        p = rel.pencil(a, b, lam)
        seen |= {"x != y"} if a.x_dim != a.y_dim else set()
        seen |= {"T(0)"} if p.multivalued_part.dim else set()
        seen |= {"codim"} if 0 < p.domain.dim < a.x_dim else set()
        seen |= {"D = 0"} if p.domain.dim == 0 else set()
        c = sub.svd_split(np.hstack([a._gx, -b._gx])).null.shape[1]
        seen |= {"c > x"} if c > a.x_dim else set()
        seen |= {"Z rank-deficient"} if p.kernel.dim else set()
    assert seen == {"x != y", "T(0)", "codim", "D = 0", "c > x", "Z rank-deficient"}


@pytest.mark.parametrize("name,a,b,lam", _reference_pencils())
def test_closed_form_split_is_the_svd_of_gy(name, a, b, lam):
    p = rel.pencil(a, b, lam)
    seeded, fresh = p._y_svd, sub.svd_split(p._gy)
    k = fresh.svals.size
    assert np.allclose(seeded.svals[:k], fresh.svals, rtol=0, atol=1e-13)
    assert not np.any(seeded.svals[k:])
    assert seeded.span.shape[1] == fresh.span.shape[1]
    assert seeded.near == fresh.near
    assert p.range.is_same(sub.Subspace(p.y_dim, fresh.span))


def test_rounding_floor_cuts_only_what_rounding_can_reach(zero):
    # D(A) has an X part of 1e-11, so Z's rounding level eps (1 + |lam|)/s_r
    # passes 1 at |lam| = 1e6.  Neither T(0)'s values nor Z's 1e11 may fall.
    a = rel.from_graph(sub.span(np.array([[1e-11, 0.0], [1.0, 0.0], [0.0, 1.0]])), 1, 2)
    with mpmath.workdps(40):
        g = mpmath.matrix([[mpmath.mpf(v.real) for v in row] for row in a.graph.basis])
        x = mpmath.matrix([[g[0, 0], g[0, 1]]])
        t0 = g[1:3, :] * mpmath.matrix([g[0, 1], -g[0, 0]])  # x-part 0
        y = g[1:3, :] * (x.T / mpmath.norm(x) ** 2)  # the image of x = 1
        ref = float(mpmath.norm(y - t0 * ((t0.T * y)[0] / mpmath.norm(t0) ** 2)))
    for lam in (0.0, 1e6, -1e6j):
        p = rel.pencil(a, zero(1, 2), lam)
        assert (p.domain.dim, p.multivalued_part.dim, p.range.dim, p.kernel.dim) == (1, 1, 2, 0)
        assert abs(met.gamma(p) - ref) <= 1e-12 * ref


# A = [[1,0,0,0],[0,2,0,0],[0,0,0,0]], B = [[1,0,0,1],[0,1,0,0],[0,0,1,0]]:
# the gcd of the pencil's 3x3 minors is lam (lam - 2), so its exceptional
# set is {0, 2}.  N(A) ^ N(B) = {0} and Z is 3 x 4, so every point's
# kernel grows past the common one and is read off vectors.
_EXCEPTIONAL = (np.array([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 0, 0]], dtype=float),
                np.array([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=float))
_EXCEPTIONAL_POINTS = [(0.0, (2, 1), False), (2.0, (2, 1), False), (1.0, (1, 0), False),
                       (0.5, (1, 0), False), (2 + 1e-7, (1, 0), True), (1e-9, (1, 0), True)]


def test_exceptional_points_and_their_flags():
    a, b = (rel.from_matrix(m) for m in _EXCEPTIONAL)
    for lam, dims, flagged in _EXCEPTIONAL_POINTS:
        p = rel.pencil(a, b, lam)
        assert (met.alpha(p), met.beta(p)) == dims, lam
        assert p.kernel.sv_near_cut is flagged and p.range.sv_near_cut is flagged, lam
    grid = [complex(lam) for lam, _, _ in _EXCEPTIONAL_POINTS]
    report = stab.sweep(a, b, met.fit_relative_bound(a, b), grid, validate_bound=False)
    got = [((r["alpha"], r["beta"]), r["indeterminate"]) for r in report.records]
    assert got == [(dims, flagged) for _, dims, flagged in _EXCEPTIONAL_POINTS]


def test_common_kernel_is_split_off_only_at_rounding_level():
    # B e2 = 5e-11 e2 falls under the cut relative to ||[Z1; Z2]||, yet it is
    # the top of A - B = diag(0, -5e-11), whose own cut keeps it.
    a, b = rel.from_matrix(np.diag([1.0, 0.0])), rel.from_matrix(np.diag([1.0, 5e-11]))
    p = rel.pencil(a, b, 1.0)
    assert (met.alpha(p), met.beta(p), p.kernel.sv_near_cut) == (1, 1, False)
    assert p.kernel.is_same(sub.span(np.array([1.0, 0.0])))
    # diag(2, 0) shares A's kernel e2 exactly, so it is split off.
    assert rel.pencil_family(a, rel.from_matrix(np.diag([2.0, 0.0]))).k0 == 1


def _vectors_reference(a, b, lam):
    """alpha, beta, gamma, the graph, kernel and range flags and the kernel
    of A - lam*B from a full SVD of Z with vectors, cut once on [1, sC]:
    the construction the values-first pencil replaced."""
    split = sub.svd_split(np.hstack([a._gx, -b._gx]))
    c1, c2 = split.null[: a.graph.dim, :], split.null[a.graph.dim:, :]
    y1, y2, xs = a._gy @ c1, b._gy @ c2, sub.svd_split(a._gx @ c1)
    flag = split.near or xs.near or a.graph.sv_near_cut or b.graph.sv_near_cut
    r = xs.span.shape[1]
    w = xs.right[:, :r] / xs.svals[:r]
    z, p = y1 @ w - lam * (y2 @ w), np.zeros((a.y_dim, 0))
    if xs.null.shape[1]:
        ts = sub.svd_split((y1 @ xs.null - lam * (y2 @ xs.null)).conj().T)
        flag = flag or ts.near
        p, z = ts.right[:, : a.y_dim - ts.null.shape[1]], ts.null.conj().T @ z
    _, s, vh = np.linalg.svd(z, full_matrices=r > z.shape[0])
    s = np.concatenate([s, np.zeros(r - s.size)])
    n, floor = p.shape[1], np.finfo(float).eps / xs.svals[r - 1] * (1 + abs(lam)) if r else 0.0
    rank, near = sub.values_rank(np.concatenate([np.ones(n), s / np.hypot(1.0, s)]),
                                 floor / np.hypot(1.0, floor))
    kept = s[: rank - n]
    kernel = sub.span(xs.span @ (vh.conj().T[:, rank - n:] / np.hypot(1.0, s[rank - n:])),
                      a.x_dim, near or flag)
    return {"alpha": kernel.dim, "beta": a.y_dim - rank,
            "gamma": float(kept.min()) if kept.size else math.inf,
            "flags": (flag, kernel.sv_near_cut, near), "kernel": kernel}


def _reference_point(fam, lam):
    """alpha, beta, gamma, the range dimension, the graph, kernel and range
    flags, T(0), Gy's split and R(T)-perp of fam(lam) by the construction that cut Z's
    values with the zeros of K0 appended, read them as diag(values) with
    columns of I for vectors, and built a T(0) for every point."""
    z, p, flag, perp = fam.z1 - lam * fam.z2, np.zeros((fam.y_dim, 0)), fam.near, None
    if fam.m1.shape[1]:
        ts = sub.svd_split((fam.m1 - lam * fam.m2).conj().T)
        perp, flag = ts.null, fam.near or ts.near
        p, z = ts.right[:, : fam.y_dim - ts.null.shape[1]], ts.null.conj().T @ z
    s = np.linalg.svd(z, compute_uv=False)
    s = np.concatenate([s, np.zeros(fam.r - s.size)])
    floor = fam.noise * (1 + abs(lam))
    values = np.concatenate([np.ones(p.shape[1]), s / np.hypot(1.0, s)])
    rank, near = sub._rank_cut(values, floor / np.hypot(1.0, floor))
    right = np.eye(values.size, dtype=complex)
    u = np.linalg.svd(z, full_matrices=z.shape[1] > z.shape[0])[0]
    left = np.hstack([p, u if perp is None else perp @ u])
    kept, graph = s[: rank - p.shape[1]], flag or fam.k0_near
    complement = np.linalg.qr(left[:, :rank], mode="complete")[0][:, rank:]
    return {"alpha": fam.r - kept.size, "beta": fam.y_dim - rank,
            "gamma": float(kept.min()) if kept.size else math.inf, "range_dim": rank,
            "flags": (graph, graph or near, near), "t0": (p, flag),
            "split": sub.Split(left[:, :rank], right[:, rank:], near, values, right),
            "complement": complement}


def _reference_point_cases():
    rng = np.random.default_rng(20261019)
    pairs = _scaled_pairs(rng) + [(a, b) for _, a, b, lam in _reference_pencils()[::5]]
    cases = [(a, b, lam) for a, b in pairs for lam in (0.0, 1.0, 1j, 1e6, 1e-6, 0.3 - 0.2j)]
    cases += [(a, b, lam) for _, a, b, lam in _reference_pencils()]
    spec = stab.InstanceSpec(16, 16, alpha=2, beta=2, force_nu_infinite=True, seed=101)
    a, b = stab.generate(spec)
    bound, gamma_a = met.fit_relative_bound(a, b, 0.0), met.gamma(a)
    grid = stab.default_grid(met.stability_radius(gamma_a, bound, "full"), gamma_a)
    return cases + [(a, b, lam) for lam in grid]


def test_values_first_point_matches_the_reference_point():
    seen = set()
    for a, b, lam in _reference_point_cases():
        fam = rel.pencil_family(a, b)
        p, ref = fam(lam), _reference_point(fam, lam)
        got = (met.alpha(p), met.beta(p), met.gamma(p), p._range_dim)
        assert got == (ref["alpha"], ref["beta"], ref["gamma"], ref["range_dim"]), (got, ref)
        flags = (p.graph.sv_near_cut, p.kernel.sv_near_cut, p.range.sv_near_cut)
        assert flags == ref["flags"], (flags, ref["flags"])
        t0 = p.multivalued_part
        assert np.array_equal(t0.basis, ref["t0"][0]) and t0.sv_near_cut == ref["t0"][1]
        split, perp = p._y_svd, p.range._complement
        frame = np.hstack([p.range.basis, perp])
        assert np.abs(frame.conj().T @ frame - np.eye(p.y_dim)).max() <= 1e-12
        for mine, theirs in [*zip(split, ref["split"]), (perp, ref["complement"])]:
            assert np.array_equal(mine, theirs) and np.asarray(mine).dtype == np.asarray(
                theirs).dtype
        seen |= {"T(0)"} if t0.dim else set()
        seen |= {"K0"} if fam.k0 else set()
        seen |= {"grown"} if p.kernel.dim > fam.k0 else set()
        seen |= {"flagged"} if any(flags) else set()
    assert seen == {"T(0)", "K0", "grown", "flagged"}, seen


def _image_map_cases(rng):
    """(construction, relation) of every construction a relation comes from."""
    cases = [(f"from_matrix {name}", rel.from_matrix(rank_matrix(rng, *shape)))
             for name, shape in MATRIX_SHAPES.items()]
    cases += [("inverse", rel.inverse(t)) for _, t in cases]
    a, b = stab.generate(stab.InstanceSpec(6, 5, alpha=1, beta=0, mv_dim=1, dom_codim=1,
                                           force_nu_infinite=True, seed=11))
    cases += [("from_graph", rel.from_graph(a.graph, a.x_dim, a.y_dim)),
              ("adjoint", rel.adjoint(a)), ("adjoint", rel.adjoint(cases[0][1])),
              ("pencil", rel.pencil(a, b, 0.3 - 0.2j)), ("add", rel.add(a, b))]
    return cases


def test_image_map_reads_the_domain_complement(rng):
    # D(T)-perp^H is the conjugate of the complement of the Gx split's span,
    # the one that orth_complement reads, and completes that span to a
    # unitary frame.  The span is D(T) itself, but for a pencil point, whose
    # D(T) is its family's in another basis.
    seen = set()
    for name, t in _image_map_cases(rng):
        perp, dom = t._image_map.perp, t._gx_span
        if name in ("pencil", "add"):
            assert dom is not t.domain and dom.is_same(t.domain), name
        else:
            assert dom is t.domain, name
        if dom.dim == t.x_dim:
            assert perp is None, name
        else:
            assert np.array_equal(perp, sub.orth_complement(dom).basis.conj().T), name
            frame = np.hstack([dom.basis, perp.conj().T])
            assert np.abs(frame.conj().T @ frame - np.eye(t.x_dim)).max() <= 1e-12, name
        seen |= {(name.split()[0], dom.dim == t.x_dim)}
    assert seen >= {("from_matrix", True), ("inverse", True), ("inverse", False),
                    ("from_graph", False), ("adjoint", True), ("adjoint", False),
                    ("pencil", False), ("add", False)}, seen


def _old_split_complement(split):
    """The split's span completed as the closed-form split once did it: the
    trailing columns of the span's complete Householder Q."""
    rank = split.span.shape[1]
    return sub.q_factor(split.span, complete=True)[:, rank:]


def test_closed_form_range_complement_is_the_old_split_field(rng):
    # Under a closed-form split of Gy, R(T)'s complement is the one that
    # split once built beside its span, bit for bit, where R(T) is not Y.
    relations = [rel.from_matrix(rank_matrix(rng, *MATRIX_SHAPES[name]))
                 for name in ("tall", "square-deficient")]
    relations += [rel.pencil(a, b, lam) for _, a, b, lam in _reference_pencils()]
    proper = [t for t in relations if t.range.dim < t.y_dim]
    assert relations[:2] == proper[:2] and len(proper) > 2
    for t in proper:
        mine, old = t.range._complement, _old_split_complement(t._y_svd)
        assert mine.shape == old.shape and mine.dtype == old.dtype
        assert mine.tobytes() == old.tobytes()


def _equivalence_cases():
    rng = np.random.default_rng(20240817)
    pairs = _scaled_pairs(rng) + [(a, b) for _, a, b, lam in _reference_pencils()[::5]]
    cases = [(a, b, lam) for a, b in pairs for lam in (0.0, 1.0, 1j, 1e6, 1e-6, 0.3 - 0.2j)]
    cases += [(a, a, lam) for a, _ in pairs for lam in (1.0, 0.5)]  # B = A
    cases += [(a, rel.scalar_mul(-1.0, a), -1.0) for a, _ in pairs]  # A + (-A)
    return cases


def test_values_first_pencil_matches_the_vectors_reference():
    seen = set()
    for a, b, lam in _equivalence_cases():
        p, ref = rel.pencil(a, b, lam), _vectors_reference(a, b, lam)
        got = (met.alpha(p), met.beta(p), met.gamma(p))
        assert got[:2] == (ref["alpha"], ref["beta"])
        flags = (p.graph.sv_near_cut, p.kernel.sv_near_cut, p.range.sv_near_cut)
        assert flags == ref["flags"]
        # A flagged point's Z is known only to its rounding level eps (1 +
        # |lam|) / s_r, above 1e-8 where X's cut is in the band: so are its
        # values, and its kernel up to that level over the gap gamma (Wedin).
        g, g_ref = got[2], ref["gamma"]
        floor = p._fam.noise * (1 + abs(lam)) if flags[1] else 0.0
        if g_ref >= 1e-3 and math.isfinite(g_ref):
            assert abs(g - g_ref) <= 1e-12 * g_ref + floor, (g, g_ref)
        else:
            assert g == g_ref or g < 1e-3
        assert p.kernel.is_same(ref["kernel"], EQ_TOL + floor / min(g_ref, 1.0))
        # The graph, read last, moves none of the values read first.
        gram = p.graph.basis.conj().T @ p.graph.basis - np.eye(p.graph.dim)
        assert np.abs(gram).max(initial=0.0) <= 1e-10
        assert (met.alpha(p), met.beta(p), met.gamma(p)) == got
        seen |= {"grown"} if p.kernel.dim > p._fam.k0 else set()
        seen |= {"common"} if p._fam.k0 else set()
        seen |= {"T(0)"} if p.multivalued_part.dim else set()
    assert seen == {"grown", "common", "T(0)"}


def _spanned_parts(t):
    """N(T) and T(0) as thin-SVD spans with rank cuts of their own, flagged
    as their splits and the graph are: the construction the Q factors of
    the splits' null blocks replaced, kept here as their reference."""
    ys, xs, flag = t._y_svd, t._x_svd, t.graph.sv_near_cut
    return (sub.span(t._gx @ ys.null, t.x_dim, ys.near or flag),
            sub.span(t._gy @ xs.null, t.y_dim, xs.near or flag))


# Induced values s of CS graphs: a Gy value planted at 1e-8 of the largest
# and a Gx value at 1e-8 (s = 1e8), both kept and flagged; values next to
# RANK_ABS under a top below 1e-3, one kept and one cut; ||T|| ~ 1e6 with
# gamma ~ 1e-6; a Gx value at 1e-13, cut, so T(0) gains a direction; and
# random values.  Each list ends in the kernel's zeros.
_PART_VALUES = {
    "planted-gy": [1.0, 0.7, 1e-8 / math.sqrt(2), 0.0],
    "planted-gx": [1e8, 1.0, 0.0],
    "near-abs": [1e-4, 3e-12, 3e-13, 0.0],
    "scaled": [1e6, 1.0, 1e-6, 0.0, 0.0],
    "huge": [1e13, 1.0, 0.3, 0.0],
}


def _part_cases(rng):
    """(kind, relation): from_graph relations on CS graphs in random
    coordinates, with domain codimension and T(0) of up to one dimension
    each, from_matrix relations of the same values, and the inverse and
    the adjoint of each."""
    def haar(n, k):
        return sub.random_subspace(n, k, rng).basis

    kinds = dict(_PART_VALUES)
    cases = []
    for rep in range(4):
        kinds["random"] = sorted(10.0 ** rng.uniform(-4, 4, size=3), reverse=True) + [0.0]
        for kind, values in kinds.items():
            s = np.array(values)
            k, nz = s.size, int(np.count_nonzero(s))
            codim, mv = rep % 2, rep // 2
            x, y = k + codim, nz + mv + int(rng.integers(0, 2))
            v, uw = haar(x, k), haar(y, nz + mv)
            cols = rel._cs_columns(v, uw[:, :nz], s)
            t0 = np.vstack([np.zeros((x, mv)), uw[:, nz:]])
            g = np.hstack([cols, t0]) @ haar(k + mv, k + mv)
            t = rel.from_graph(sub.Subspace(x + y, g), x, y)
            m = rel.from_matrix((uw[:, :nz] * s[:nz]) @ haar(k, nz).conj().T)
            for r in (t, m):
                cases += [(kind, r), (kind, rel.inverse(r)), (kind, rel.adjoint(r))]
    return cases


def test_kernel_and_multivalued_part_match_their_spans(rng):
    # N(T) and T(0) are the Householder Q of Gx and of Gy on the other
    # block's null block, with no rank cut of their own: each keeps the
    # dimension and flag of the thin-SVD span it replaced, and its space.
    cases = _part_cases(rng)
    assert len(cases) >= 60
    seen = set()
    for kind, t in cases:
        for part, ref in zip((t.kernel, t.multivalued_part), _spanned_parts(t)):
            assert (part.dim, part.sv_near_cut) == (ref.dim, ref.sv_near_cut), kind
            assert part.is_same(ref), kind
            seen |= {(kind, part.dim > 0, part.sv_near_cut)}
    # The planted values reach both parts, flagged and not.
    assert {("planted-gy", True, True), ("planted-gx", True, True),
            ("near-abs", True, True), ("huge", True, False),
            ("scaled", True, False)} <= seen, seen


def _near_edge_graph(rng, c):
    """An 8 -> 8 graph G (I + c (p p^T + q q^T)), for an orthonormal G with
    N(T) (+) {0} at G p / sqrt(8) and {0} (+) T(0) at G q / sqrt(8), p all
    ones and q alternating ones: the Gram matrix is off I by at most 4c
    entrywise, and G's columns on those two directions by 16c."""
    def haar(n, k):
        return sub.random_subspace(n, k, rng).basis

    v, u = haar(8, 7), haar(8, 7)
    s = np.array([2.0, 1.0, 0.5, 0.3, 0.2, 0.1, 0.0])
    cols = rel._cs_columns(v, u[:, :6], s)
    t0 = np.vstack([np.zeros((8, 1)), u[:, 6:]])
    p, q = np.ones(8), np.tile([1.0, -1.0], 4)
    w = np.linalg.qr(np.column_stack([p, q, rng.standard_normal((8, 6))]))[0]
    g = np.hstack([cols[:, 6:], t0, cols[:, :6]]) @ w.T
    return g @ (np.eye(8) + c * (np.outer(p, p) + np.outer(q, q)))


@pytest.mark.parametrize("seed", range(5))
def test_parts_of_a_decoded_near_edge_graph_construct(seed):
    # A decoded basis that passes the 1e-10 Gram check is kept as written.
    # Here it passes at 9.6e-11, but Gx and Gy on the null blocks of the
    # splits are off orthonormal by 3.8e-10: their columns as they stand
    # would fail the check, and their Q factors pass it.
    rng = np.random.default_rng([7, seed])
    g = _near_edge_graph(rng, 2.4e-11)
    gram = np.abs(g.conj().T @ g - np.eye(8)).max()
    assert 9e-11 < gram <= 1e-10, gram
    text = ser.canonical_json(ser.relation_to_dict(rel.from_graph(sub.Subspace(16, g), 8, 8)))
    t = ser.relation_from_dict(ser.loads(text))
    assert np.array_equal(t.graph.basis, g) and not t.graph.sv_near_cut
    for r in (t, rel.inverse(t)):
        cols = (r._gx @ r._y_svd.null, r._gy @ r._x_svd.null)
        assert all(np.abs(m.conj().T @ m - 1).max() > 3e-10 for m in cols)
        for part, ref in zip((r.kernel, r.multivalued_part), _spanned_parts(r)):
            assert part.dim == ref.dim == 1 and part.is_same(ref)
