import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel import subspace as sub

from oracles import intersect_oracle, sampled_sup_distance


def test_span_already_orthonormal():
    s = sub.span(np.array([[1.0], [0.0]]))
    assert s.dim == 1
    np.testing.assert_allclose(s.basis[:, 0], [1, 0])


def test_span_drops_dependent_column():
    s = sub.span(np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert s.dim == 1


def test_span_rank_tolerance_oracle():
    m = np.array([[1.0, 1.0], [0.0, 1e-15]])
    svals = np.linalg.svd(m, compute_uv=False)  # independent rank oracle
    assert svals[1] / svals[0] < 1e-9
    assert sub.span(m).dim == 1


def test_span_rejects_empty_ambient_and_nonfinite():
    with pytest.raises(ValueError):
        sub.span(np.zeros((0, 1)))
    with pytest.raises(ValueError):
        sub.span(np.array([[np.nan], [0.0]]))


def test_sum_plane():
    e1 = sub.span(np.eye(3)[:, [0]])
    e2 = sub.span(np.eye(3)[:, [1]])
    plane = sub.sum(e1, e2)
    assert plane.dim == 2
    assert plane.contains(e1) and plane.contains(e2)


def test_sum_idempotent(rng):
    s = sub.random_subspace(5, 2, rng)
    again = sub.sum(s, s)
    assert again.is_same(s)
    np.testing.assert_allclose(again.projector, s.projector, atol=1e-10)


def test_sum_rank_oracle():
    e1 = sub.span(np.array([[1.0], [0.0]]))
    diag = sub.span(np.array([[1.0], [1.0]]) / math.sqrt(2))
    stacked = np.hstack([e1.basis, diag.basis])
    assert np.linalg.matrix_rank(stacked) == 2  # SVD oracle
    assert sub.sum(e1, diag).dim == 2


def test_sum_ambient_mismatch():
    with pytest.raises(ValueError):
        sub.sum(sub.full_space(2), sub.full_space(3))


def test_intersect_planes_oracle():
    plane12 = sub.span(np.eye(3)[:, [0, 1]])
    plane23 = sub.span(np.eye(3)[:, [1, 2]])
    got = sub.intersect(plane12, plane23)
    expected = intersect_oracle(plane12, plane23)
    assert got.dim == 1 and expected.dim == 1
    assert got.is_same(expected)
    assert sub.distance(np.array([0, 1, 0]), got) < 1e-10


def test_intersect_trivial_cases():
    s = sub.span(np.eye(4)[:, [0, 2]])
    assert sub.intersect(s, sub.full_space(4)).is_same(s)
    e1 = sub.span(np.eye(2)[:, [0]])
    e2 = sub.span(np.eye(2)[:, [1]])
    assert sub.intersect(e1, e2).dim == 0


def test_orth_complement():
    e1 = sub.span(np.eye(2)[:, [0]])
    comp = sub.orth_complement(e1)
    assert comp.dim == 1
    assert abs(comp.basis[0, 0]) < 1e-12
    assert sub.orth_complement(sub.zero_subspace(3)).dim == 3


def test_orth_complement_involution(rng):
    s = sub.random_subspace(6, 3, rng)
    back = sub.orth_complement(sub.orth_complement(s))
    np.testing.assert_allclose(back.projector, s.projector, atol=1e-10)


def test_annihilator_real_basis():
    e1 = sub.span(np.eye(2, dtype=complex)[:, [0]])
    ann = sub.annihilator(e1)
    assert ann.dim == 1
    assert abs(ann.basis[0, 0]) < 1e-12  # span e2 (conjugation idle)


def test_annihilator_isotropic_line():
    # f with f1 * 1 + f2 * i = 0 is f ~ (-i, 1), i.e. the line (1, i) itself.
    v = np.array([[1.0], [1.0j]]) / math.sqrt(2)
    line = sub.span(v)
    ann = sub.annihilator(line)
    assert ann.dim == 1
    f = ann.basis[:, 0]
    assert abs(f[0] * v[0, 0] + f[1] * v[1, 0]) < 1e-12  # oracle: f^T s = 0
    assert ann.is_same(line)  # bilinearly self-annihilating


def test_annihilator_biduality(rng):
    s = sub.random_subspace(5, 2, rng)
    assert sub.annihilator(s).dim == 3
    assert sub.annihilator(sub.annihilator(s)).is_same(s)


def test_distance_cases():
    e1 = sub.span(np.eye(2)[:, [0]])
    e2 = sub.span(np.eye(2)[:, [1]])
    assert sub.distance([1, 0], e1) < 1e-12
    assert abs(sub.distance([1, 0], e2) - 1.0) < 1e-12
    diag = sub.span(np.array([[1.0], [1.0]]) / math.sqrt(2))
    # closed form: projection of e1 on the diagonal leaves sqrt(2)/2; the
    # dense minimization over the line agrees.
    ts = np.linspace(-2, 2, 20001)
    direct = min(np.hypot(1 - t / math.sqrt(2), t / math.sqrt(2)) for t in ts)
    assert abs(direct - math.sqrt(2) / 2) < 1e-6
    assert abs(sub.distance([1, 0], diag) - 0.70710678118654746) < 1e-10


def test_gap_worked_examples(rng):
    e1 = sub.span(np.eye(2)[:, [0]])
    e2 = sub.span(np.eye(2)[:, [1]])
    diag = sub.span(np.array([[1.0], [1.0]]) / math.sqrt(2))
    assert sub.gap(e1, e1) < 1e-12
    assert abs(sub.gap(e1, e2) - 1.0) < 1e-12
    # dense sampling of the unit circle in M as oracle
    oracle = sampled_sup_distance(e1, diag, rng)
    assert abs(oracle - math.sqrt(2) / 2) < 1e-9
    assert abs(sub.gap(e1, diag) - math.sqrt(2) / 2) < 1e-12
    assert sub.gap(sub.zero_subspace(2), e1) == 0.0


def test_gap_asymmetry_witness():
    e1 = sub.span(np.eye(3)[:, [0]])
    plane = sub.span(np.eye(3)[:, [0, 1]])
    assert sub.gap(e1, plane) < 1e-12
    assert abs(sub.gap(plane, e1) - 1.0) < 1e-9


def test_contains():
    plane = sub.span(np.eye(3)[:, [0, 1]])
    e1 = sub.span(np.eye(3)[:, [0]])
    assert sub.contains(plane, e1)
    assert not sub.contains(e1, plane)
    assert sub.contains(e1, sub.zero_subspace(3))


def test_apply_map():
    s = sub.full_space(2)
    assert sub.apply_map(np.eye(2), s).is_same(s)
    assert sub.apply_map(np.zeros((2, 2)), s).dim == 0
    mapped = sub.apply_map(np.diag([1.0, 0.0]), s)
    assert np.linalg.matrix_rank(np.diag([1.0, 0.0])) == 1  # oracle
    assert mapped.is_same(sub.span(np.eye(2)[:, [0]]))
    with pytest.raises(ValueError):
        sub.apply_map(np.eye(3), s)


def test_random_subspace_contract():
    assert sub.random_subspace(4, 0, 1).dim == 0
    assert sub.random_subspace(4, 4, 1).is_same(sub.full_space(4))
    a = sub.random_subspace(5, 2, 99)
    b = sub.random_subspace(5, 2, 99)
    np.testing.assert_allclose(a.projector, b.projector, atol=0)
    with pytest.raises(ValueError):
        sub.random_subspace(3, 4, 1)


def test_projector_invariants(rng):
    for _ in range(20):
        n = int(rng.integers(1, 9))
        s = sub.random_subspace(n, int(rng.integers(0, n + 1)), rng)
        p = s.projector
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(p - p.conj().T) < 1e-10
        q = sub.span(s.basis, ambient=n)
        np.testing.assert_allclose(q.projector, p, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_dimension_formula_property(seed, n):
    g = np.random.default_rng(seed)
    s1 = sub.random_subspace(n, int(g.integers(0, n + 1)), g)
    s2 = sub.random_subspace(n, int(g.integers(0, n + 1)), g)
    assert sub.sum(s1, s2).dim + sub.intersect(s1, s2).dim == s1.dim + s2.dim


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_gap_bounds_and_dimension_property(seed, n):
    g = np.random.default_rng(seed)
    m = sub.random_subspace(n, int(g.integers(0, n + 1)), g)
    s = sub.random_subspace(n, int(g.integers(0, n + 1)), g)
    delta = sub.gap(m, s)
    assert 0.0 <= delta <= 1.0
    if delta < 1 - 1e-6:
        assert m.dim <= s.dim
    assert (delta <= 1e-8) == sub.contains(s, m)
