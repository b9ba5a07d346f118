import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel import subspace as sub
from linrel.tolerances import RANK_ABS, RANK_REL, SV_BAND

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


# ---------------------------------------------------------------------------
# the constructor's contract: every Subspace checks finiteness, then the
# Gram matrix against the identity to 1e-10 in the largest entry modulus

def _two_columns(off: complex) -> np.ndarray:
    """Columns e1 and off*e1 + sqrt(1 - off^2)*e2 of C^3: Gram entry
    (0, 1) is exactly ``off``, the diagonal is 1 to rounding."""
    basis = np.zeros((3, 2), dtype=complex)
    basis[0, 0] = 1.0
    basis[0, 1] = off
    basis[1, 1] = math.sqrt(1.0 - abs(off) ** 2)
    return basis


@pytest.mark.filterwarnings("error")
def test_constructor_rejects_non_orthonormal():
    with pytest.raises(ValueError, match="not orthonormal"):
        sub.Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not orthonormal"):
        sub.Subspace(2, np.array([2.0, 0.0]))
    # A finite basis whose Gram entry overflows is not orthonormal either.
    # The constructor lets NumPy's overflow warning through, so it is
    # silenced here.
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not orthonormal"):
        sub.Subspace(2, np.array([1e200, 0.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.inf)],
                         ids=["nan", "inf", "-inf", "imag-inf"])
def test_constructor_rejects_non_finite(bad):
    basis = _two_columns(0.0)
    basis[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        sub.Subspace(3, basis)
    with pytest.raises(ValueError, match="non-finite"):
        sub.span(basis)


@pytest.mark.filterwarnings("error")
def test_constructor_gram_tolerance():
    assert sub.Subspace(3, _two_columns(5e-11)).dim == 2
    assert sub.Subspace(3, _two_columns(-5e-11j)).dim == 2
    with pytest.raises(ValueError, match="not orthonormal"):
        sub.Subspace(3, _two_columns(2e-10))
    with pytest.raises(ValueError, match="not orthonormal"):
        sub.Subspace(3, _two_columns(2e-10j))
    long_e1 = np.zeros((3, 1), dtype=complex)
    long_e1[0, 0] = math.sqrt(1.0 + 2e-10)
    with pytest.raises(ValueError, match="not orthonormal"):
        sub.Subspace(3, long_e1)
    long_e1[0, 0] = math.sqrt(1.0 + 5e-11)
    assert sub.Subspace(3, long_e1).dim == 1


@pytest.mark.filterwarnings("error")
def test_constructor_shapes():
    empty = sub.Subspace(3, np.zeros((3, 0)))
    assert empty.dim == 0 and empty.basis.shape == (3, 0)
    assert sub.Subspace(2, np.array([])).dim == 0
    line = sub.Subspace(3, np.array([0.0, 1.0, 0.0]))
    assert line.dim == 1 and line.basis.dtype == complex
    assert not line.basis.flags.writeable
    full = sub.Subspace(4, np.eye(4))
    assert full.dim == 4 and not full.basis.flags.writeable
    with pytest.raises(ValueError, match="ambient"):
        sub.Subspace(0, np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# the rank cut against the array formulation it replaced

def _array_rank(s: np.ndarray) -> int:
    if s.size == 0 or s[0] <= RANK_ABS:
        return 0
    return int(np.count_nonzero(s > max(RANK_REL * s[0], RANK_ABS)))


def _array_rank_from_svals(s: np.ndarray) -> tuple[int, bool]:
    if s.size == 0 or s[0] <= RANK_ABS:
        return 0, bool(s.size and s[0] > RANK_ABS / 10)
    normalized = s / s[0]
    near = bool(np.any((normalized > SV_BAND[0]) & (normalized < SV_BAND[1])))
    return _array_rank(s), near


def _assert_same_cut(s: np.ndarray) -> None:
    assert sub._rank_cut(s)[0] == _array_rank(s), s
    assert sub._rank_cut(s) == _array_rank_from_svals(s), s


def test_rank_cut_matches_array_formulation_random():
    g = np.random.default_rng(7)
    for _ in range(4000):
        k = int(g.integers(1, 13))
        s = np.sort(10.0 ** g.uniform(-22, 3, size=k))[::-1].copy()
        _assert_same_cut(s)
    _assert_same_cut(np.zeros(0))
    _assert_same_cut(np.zeros(3))


@pytest.mark.parametrize("top", [1.0, 3.7, 1e-3, 2e-11, 1e3])
def test_rank_cut_matches_array_formulation_at_thresholds(top):
    marks = [RANK_ABS, RANK_ABS / 10, RANK_REL * top,
             SV_BAND[0] * top, SV_BAND[1] * top]
    values = []
    for m in marks:
        values += [np.nextafter(m, math.inf), m, np.nextafter(m, 0.0)]
    tail = np.array(sorted((v for v in values if v <= top), reverse=True))
    _assert_same_cut(np.concatenate([[top], tail]))
    for v in values:
        # each mark alone below the top value, and each as the top value
        _assert_same_cut(np.array([top, v]) if v <= top else np.array([v, top]))
        _assert_same_cut(np.array([v]))


def test_constructor_copies_caller_array():
    a = np.eye(3, dtype=complex)
    s = sub.Subspace(3, a)
    a[0, 0] = 5
    assert s.basis[0, 0] == 1
    gram = s.basis.conj().T @ s.basis
    assert np.abs(gram - np.eye(3)).max() == 0.0


@pytest.mark.filterwarnings("error")
def test_constructor_refuses_huge_entries_without_warning():
    with pytest.raises(ValueError, match="not orthonormal"):
        sub.Subspace(2, np.array([1e200, 0.0]))
    # |z| overflows to inf here, but the entry is finite.
    with pytest.raises(ValueError, match="not orthonormal"):
        sub.Subspace(2, np.array([complex(1.7e308, 1.7e308), 0.0]))
    for bad in (math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1e300)):
        with pytest.raises(ValueError, match="non-finite"):
            sub.Subspace(2, np.array([bad, 0.0]))


@pytest.mark.parametrize("basis", [
    [[1e200 + 1e200j, 0], [0, 1]],
    [[1e200 + 1e200j, 1e200 - 1e200j], [1e200, 1]],
    [[1e308 + 1e308j], [0]],
], ids=["diagonal", "dense", "column"])
@pytest.mark.filterwarnings("error")
def test_constructor_refuses_bases_whose_gram_overflows_to_nan(basis):
    # An overflowing Gram product once held NaN, and NaN > 1e-10 is False.
    with pytest.raises(ValueError, match="not orthonormal"):
        sub.Subspace(2, np.array(basis, dtype=complex))


# ---------------------------------------------------------------------------
# the residual and the SVD split against the inline code they replaced

def _old_residual(s: sub.Subspace, x: np.ndarray) -> np.ndarray:
    return x - s.basis @ (s.basis.conj().T @ x) if s.dim else x


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_residual_matches_inline_expression():
    g = np.random.default_rng(11)
    for _ in range(200):
        n = int(g.integers(1, 9))
        s = sub.random_subspace(n, int(g.integers(0, n + 1)), g)
        for shape in ((n,), (n, int(g.integers(0, 5)))):
            x = g.standard_normal(shape) + 1j * g.standard_normal(shape)
            assert _same_bits(s.residual(x), _old_residual(s, x))
    full = sub.full_space(4)
    x = g.standard_normal((4, 3)) + 0j
    assert _same_bits(full.residual(x), _old_residual(full, x))


def test_residual_of_zero_subspace_is_its_input():
    zero = sub.zero_subspace(3)
    x = np.array([[-0.0, 1.0], [0.0, -0.0j], [complex(-0.0, -0.0), 2.0]])
    assert zero.residual(x) is x
    # the unguarded expression the coset witness used gives the same bits
    assert _same_bits(zero.residual(x), x - zero.basis @ (zero.basis.conj().T @ x))
    v = np.array([-0.0, 0.0, -0.0], dtype=complex)
    assert _same_bits(zero.residual(v), v)


def test_residual_keeps_signed_zeros_on_nonzero_subspace():
    s = sub.Subspace(3, np.eye(3)[:, :1])
    x = np.array([[1.0, -0.0], [-0.0, 0.0], [complex(-0.0, -0.0), -0.0]])
    assert _same_bits(s.residual(x), _old_residual(s, x))


def _old_nullspace(m: np.ndarray) -> np.ndarray:
    if m.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return vh[_array_rank(s):].conj().T


def _old_span_and_null(m: np.ndarray) -> tuple[sub.Subspace, np.ndarray]:
    if m.shape[1] == 0:
        return sub.Subspace(m.shape[0], m), np.zeros((0, 0), dtype=complex)
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    rank, near = _array_rank_from_svals(s)
    return sub.Subspace(m.shape[0], u[:, :rank], sv_near_cut=near), vh[rank:].conj().T


def _split_cases():
    g = np.random.default_rng(13)
    for _ in range(150):
        rows, cols = int(g.integers(1, 8)), int(g.integers(0, 8))
        r = int(g.integers(0, min(rows, cols) + 1))
        left = g.standard_normal((rows, r)) + 1j * g.standard_normal((rows, r))
        right = g.standard_normal((r, cols)) + 1j * g.standard_normal((r, cols))
        yield left @ right
    # singular values at the relative cut, the floor and in the band
    q, _ = np.linalg.qr(g.standard_normal((5, 5)) + 1j * g.standard_normal((5, 5)))
    for svals in ([1.0, 2e-9, 5e-10], [1e-6, 3e-12, 5e-13], [1.0, 1e-8], [5e-13, 1e-13]):
        yield q[:, :len(svals)] * np.array(svals)
    yield np.zeros((3, 2), dtype=complex)
    yield np.zeros((3, 0), dtype=complex)


def test_svd_split_matches_old_helpers():
    for m in _split_cases():
        span, null, near = sub.svd_split(m)
        old_span, old_null = _old_span_and_null(m)
        assert _same_bits(span, old_span.basis) and near == old_span.sv_near_cut
        assert _same_bits(null, old_null)
        assert _same_bits(null, _old_nullspace(m))
