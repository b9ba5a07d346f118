import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrel import subspace as sub
from linrel.tolerances import EQ_TOL, RANK_ABS, RANK_REL, SV_BAND

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


def test_contains_refuses_a_larger_inner_space_without_svd(monkeypatch):
    svds = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kw: svds.append(1) or real(*args, **kw))
    g = np.random.default_rng(3)
    pairs = [(sub.random_subspace(6, lo, g), sub.random_subspace(6, hi, g))
             for lo in range(6) for hi in range(lo + 1, 7)]
    for outer, inner in pairs:
        for tol in (EQ_TOL, 1e-10, 0.49):
            assert not sub.contains(outer, inner, tol)
            assert not outer.contains(inner, tol)
    assert svds == []


def test_is_same_refuses_two_dimensions_without_svd(monkeypatch):
    svds = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kw: svds.append(1) or real(*args, **kw))
    g = np.random.default_rng(3)
    spaces = [sub.random_subspace(6, dim, g) for dim in range(7)]
    for s1 in spaces:
        for s2 in spaces:
            if s1.dim != s2.dim:
                for tol in (EQ_TOL, 1e-10, 0.49):
                    assert not s1.is_same(s2, tol)
    assert svds == []
    # Equal dimensions, or tol 0.5 and above, still take the gaps; their
    # Frobenius brackets settle all but the larger space's gap, 1, which at
    # tol 1.0 lies inside its bracket.
    assert spaces[3].is_same(spaces[3]) and len(svds) == 0
    assert spaces[3].is_same(spaces[4], tol=1.0) and len(svds) == 1
    with pytest.raises(ValueError, match="ambient"):
        spaces[3].is_same(sub.full_space(4))


def test_contains_verdict_is_the_gap_verdict(rng):
    tols = (EQ_TOL, 1e-10, 0.5, 1.0)
    seen = {tol: set() for tol in tols}
    for _ in range(200):
        n = int(rng.integers(1, 7))
        outer = sub.random_subspace(n, int(rng.integers(0, n + 1)), rng)
        if rng.random() < 0.3:  # an inner space inside the outer one
            inner = sub.span(outer.basis @ rng.standard_normal((outer.dim, int(
                rng.integers(0, outer.dim + 1)))), ambient=n)
        else:
            inner = sub.random_subspace(n, int(rng.integers(0, n + 1)), rng)
        for tol in tols:
            verdict = sub.contains(outer, inner, tol)
            assert verdict == (sub.gap(inner, outer) <= tol), (outer, inner, tol)
            seen[tol].add((verdict, inner.dim > outer.dim))
    assert seen[EQ_TOL] >= {(True, False), (False, False), (False, True)}
    assert (True, True) in seen[1.0]
    # Planted gaps at and next to each cut: the verdicts the Frobenius
    # bracket settles, and those it leaves to an SVD, are the SVD's.
    for t, delta, equal, exact in itertools.product(
            (1e-10, EQ_TOL, 0.49), (-1e-6, -1e-11, 0.0, 1e-11, 1e-6), (True, False),
            (True, False)):
        for _ in range(3):
            outer, inner, sines = _planted_gap(rng, t * (1 + delta), equal, exact)
            r = outer.residual(inner.basis)
            g = min(1.0, float(np.linalg.svd(r, compute_uv=False)[0]))
            assert abs(g - sines.max()) <= 1e-14, (g, sines)
            for tol in (t, 1e-10, EQ_TOL, 0.49):
                assert sub.contains(outer, inner, tol) == (g <= tol), (t, delta, tol, g)
            assert sub.contained(outer, inner) == (g <= EQ_TOL, 1e-10 < g < 1e-8), (t, g)
            # K is outer's complement and D the conjugate of inner, so D
            # leaves the annihilator of K, conj(outer), by the same gap, up
            # to the rounding of another residual: only a gap away from
            # EQ_TOL gives g's verdict there.  in_annihilator is the verdict
            # of ||K^T U_D|| at every gap, and the annihilator's own away
            # from EQ_TOL.
            k = sub.orth_complement(outer)
            d = sub.Subspace(inner.ambient, inner.basis.conj())
            verdict = sub.contains(sub.annihilator(k), d)
            assert t == EQ_TOL or verdict == (g <= EQ_TOL), (t, delta, g)
            product = float(np.linalg.svd(k.basis.T @ d.basis, compute_uv=False)[0])
            assert sub.in_annihilator(k, d) == (product <= EQ_TOL), (t, delta, product)
            if t != EQ_TOL or abs(delta) >= 1e-6:
                assert sub.in_annihilator(k, d) == verdict, (t, delta, g)


def _planted_gap(rng, sin_top, equal, exact):
    """Outer span Q[:, :p] and inner span of cos(th_j) Q[:, j] + sin(th_j) Q[:, p + j]
    for j < k, in a frame Q of C^n, n <= 128: a random unitary one, or, if
    ``exact``, a permutation, in which the residual holds the sines exactly.
    The gap of inner from outer is the largest sine, ``sin_top``, which all
    k share if ``equal``."""
    k = int(rng.integers(1, 7))
    p = int(rng.integers(k, k + 8))
    n = int(rng.integers(p + k, 129))
    if exact:
        q = np.eye(n, dtype=complex)[:, rng.permutation(n)]
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    sines = np.full(k, sin_top)
    if not equal:
        sines[1:] *= rng.random(k - 1)
    inner = q[:, :k] * np.sqrt(1 - sines ** 2) + q[:, p:p + k] * sines
    return sub.Subspace(n, q[:, :p]), sub.Subspace(n, inner), sines


def test_contains_at_tol_one_admits_everything():
    line = sub.span(np.eye(3)[:, [0]])
    plane = sub.span(np.eye(3)[:, [1, 2]])
    assert sub.contains(line, plane, tol=1.0)
    assert not sub.contains(line, plane, tol=0.5)
    with pytest.raises(ValueError, match="ambient"):
        sub.contains(line, sub.full_space(4))


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


def _same_q(m, complete=False):
    """q_factor(m, complete) is numpy's reduced or complete Q bit for bit,
    signed zeros and NaN payloads included, or both raise the same
    exception; m is untouched."""
    before = m.copy()
    try:
        want = np.linalg.qr(m, mode="complete" if complete else "reduced")[0]
    except Exception as exc:
        with pytest.raises(type(exc)):
            sub.q_factor(m, complete=complete)
    else:
        got = sub.q_factor(m, complete=complete)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        assert np.array_equal(got, want) or not np.isfinite(m).all()
    assert np.array_equal(m, before, equal_nan=True) and m.flags.writeable


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("shape", [(9, 4), (5, 5), (3, 7), (6, 0), (0, 4), (1, 1)],
                         ids=["tall", "square", "wide", "no-columns", "no-rows", "scalar"])
def test_q_factor_is_numpys_q(rng, cplx, shape):
    def draw(n, k):
        return _gaussian(rng, n, k) if cplx else rng.standard_normal((n, k))

    def same_q(m):
        _same_q(m)
        _same_q(m, complete=True)

    m = draw(*shape)
    same_q(m)
    same_q(np.asfortranarray(m))
    # A non-contiguous column slice, and one of a Fortran-ordered parent.
    wide = draw(shape[0], 2 * shape[1] + 1)
    same_q(wide[:, ::2])
    same_q(np.asfortranarray(wide)[:, 1::2])
    # Rank-deficient columns: a repeat of the first.
    if shape[1] > 1 and shape[0]:
        same_q(np.hstack([m, m[:, :1]]))
    for bad in (np.nan, np.inf, -np.inf):
        for pos in ((0, 0), (-1, -1)):
            if m.size:
                worse = m.copy()
                worse[pos] = bad
                same_q(worse)
                if cplx:
                    worse[pos] = complex(1.0, bad)
                    same_q(worse)
    if m.size:
        same_q(np.full_like(m, np.nan))


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
    if RANK_REL * s[0] <= RANK_ABS:  # the absolute floor is the cut
        near = near or bool(np.any((s > RANK_ABS / 10) & (s < 10 * RANK_ABS)))
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


def _reference_check(ambient: int, basis) -> str | None:
    """The constructor's check as it stood before the identity was cached:
    the message it raises, or None where it admits the basis."""
    basis = np.array(basis, dtype=complex).reshape(ambient, -1)
    if basis.size:
        if not np.abs(basis).max() <= 2.0:
            if not np.isfinite(basis).all():
                return "non-finite entries are not admitted into a basis"
            return "basis columns are not orthonormal; use span()"
        gram = basis.conj().T @ basis
        gram.flat[::basis.shape[1] + 1] -= 1.0
        if np.abs(gram).max() > 1e-10:
            return "basis columns are not orthonormal; use span()"
    return None


def _planted_bases():
    """Bases at the edges of each decision: off-diagonal Gram deviations
    1e-10 (1 +- 1e-12) and the ulps around 1e-10, real and complex;
    diagonal deviations exactly k 2^-52 for the two k around 1e-10 2^52,
    the nearest a squared norm can come; entries of modulus 2 (1 +- 2^-52);
    huge, NaN and infinite entries; no columns."""
    edges = [1e-10 * (1 + f) for f in (-1e-12, 0.0, 1e-12)]
    edges += [np.nextafter(1e-10, 0.0), np.nextafter(1e-10, 1.0)]
    for t in edges:
        for off in (t, -t, 1j * t, complex(t, t) / math.sqrt(2)):
            yield 3, _two_columns(off)
    # Squares of n 2^-26 and their sums are exact: a column e_1 + sum of
    # n_i 2^-26 e_i has squared norm 1 + sum(n_i^2) 2^-52 exactly.
    for tail in ((671, 10, 3, 3), (670, 38, 4)):
        assert abs(sum(n * n for n in tail) * 2.0 ** -52 - 1e-10) < 2.0 ** -52
        real = np.eye(6, 2)
        real[2: 2 + len(tail), 1] = np.array(tail) * 2.0 ** -26
        for basis in (real, real * 1j):
            yield 6, basis
            yield 6, basis[:, 1:].copy()
    two = 2.0 * (1 + 2.0 ** -52), 2.0 * (1 - 2.0 ** -52), 2.0
    for v in two:
        yield 2, np.array([[v, 0.0], [0.0, 1.0]])
        yield 2, np.array([[complex(0.0, v)], [0.0]])
        yield 2, np.array([[complex(v * 0.6, v * 0.8)], [0.0]])
    for v in (1e200, -1e200, complex(1e200, -1e200), np.nan, np.inf, -np.inf,
              complex(0.0, np.inf), complex(np.nan, 1e300)):
        yield 2, np.array([[v, 0.0], [0.0, 1.0]])
        yield 2, np.array([[1.0, 0.0], [0.0, v]])
    yield 3, np.zeros((3, 0))
    yield 3, np.zeros((3, 0), dtype=complex)


@pytest.mark.filterwarnings("error")
def test_constructor_decides_as_the_reference_check():
    # Every planted basis gets the reference's verdict and message, and the
    # edges fall on both sides.
    verdicts = set()
    for ambient, basis in _planted_bases():
        before = basis.copy()
        want = _reference_check(ambient, basis)
        try:
            sub.Subspace(ambient, basis)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want, (basis, got, want)
        assert np.array_equal(basis, before, equal_nan=True)
        verdicts.add(want)
    assert verdicts == {None, "non-finite entries are not admitted into a basis",
                        "basis columns are not orthonormal; use span()"}, verdicts


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
        span, null, near, svals, right, perp = sub.svd_split(m)
        old_span, old_null = _old_span_and_null(m)
        assert _same_bits(span, old_span.basis) and near == old_span.sv_near_cut
        assert _same_bits(null, old_null)
        assert _same_bits(null, _old_nullspace(m))
        # The factors the cut was read from: m = U diag(svals) V^H.
        assert right.shape == (m.shape[1], m.shape[1])
        assert svals.shape == (min(m.shape) if m.shape[1] else 0,)
        if m.shape[1]:
            ref_s = np.linalg.svd(m, full_matrices=True)[1]
            assert _same_bits(svals, ref_s)
            assert np.allclose(right.conj().T @ right, np.eye(m.shape[1]), atol=1e-12)
            assert _same_bits(right[:, right.shape[1] - null.shape[1]:], null)
        # The span's complement: U's trailing columns, with U = [span, perp].
        frame = np.hstack([span, perp])
        assert np.allclose(frame.conj().T @ frame, np.eye(m.shape[0]), atol=1e-12)
        if m.shape[1]:
            ref_u = np.linalg.svd(m, full_matrices=True)[0]
            assert _same_bits(perp, ref_u[:, span.shape[1]:])


def _gaussian(rng, n, k):
    return rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))


def _graded_map(rng, y, g, kept, small):
    """A y x g matrix with the descending values ``kept`` and ``small``
    (those the rank cut drops), and its split."""
    u, v = np.linalg.qr(_gaussian(rng, y, y))[0], np.linalg.qr(_gaussian(rng, g, g))[0]
    s = np.concatenate([kept, small, np.zeros(min(y, g) - len(kept) - len(small))])
    m = (u[:, : s.size] * s) @ v[:, : s.size].conj().T
    return m, sub.svd_split(m)


def test_certified_span_is_the_span_or_nothing(rng):
    # Wherever the certificate answers, it is span's answer: the same
    # dimension, an unflagged cut and the same subspace.  Cases put kept
    # values near the band's top, dropped values near RANK_ABS / 10 and
    # coefficients in the null block or at any angle to it, at scales 1
    # and 1e-7.
    outcomes = set()
    for _ in range(400):
        y, g = int(rng.integers(2, 14)), int(rng.integers(2, 14))
        rho = int(rng.integers(1, min(y, g) + 1))
        scale = float(rng.choice([1.0, 1e-7]))
        lo = np.log10(rng.choice([1e-3, 3e-6, 2e-6]))
        kept = scale * np.sort(10.0 ** rng.uniform(lo, 0, rho))[::-1]
        kept[0] = scale
        drops = int(rng.integers(0, min(y, g) - rho + 1))
        small = rng.choice([0.0, 5e-14, 9e-14, 2e-13], size=drops)
        m, split = _graded_map(rng, y, g, kept, np.sort(small)[::-1])
        limit = sub.kernel_limit(split)
        if limit is None:
            outcomes.add("no limit")
            continue
        null = split.null
        inside = int(rng.integers(0, null.shape[1] + 1))
        k = max(inside, 1) if rng.random() < 0.3 else int(rng.integers(max(inside, 1), g + 1))
        angle = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(-15, 0)
        c = _gaussian(rng, g, k)
        c[:, :inside] = null @ _gaussian(rng, null.shape[1], inside)
        c[:, :inside] += angle * _gaussian(rng, g, inside)
        c = np.linalg.qr(c)[0]
        e = null.conj().T @ c if null.shape[1] else None
        got, ref = sub.certified_span(m @ c, e, limit), sub.span(m @ c)
        if got is None:
            outcomes.add("none")
            continue
        outcomes.add("rotated" if e is not None and np.vdot(e, e).real > limit else "qr")
        assert (got.dim, got.sv_near_cut) == (ref.dim, ref.sv_near_cut), (got.dim, ref.dim)
        assert got.is_same(ref), (kept, small, angle)
    assert outcomes == {"none", "rotated", "qr", "no limit"}, outcomes

    # Coefficients inside the null block of one dropped value 1.9e-13: each
    # rotated image can be under RANK_ABS / 10 while their span's largest
    # value is not, and span flags it.  The certificate must refuse.
    flagged = 0
    for _ in range(30):
        m, split = _graded_map(rng, 6, 6, [1.0, 0.5], [1.9e-13])
        c = split.null @ np.linalg.qr(_gaussian(rng, 4, 2))[0]
        ref = sub.span(m @ c)
        got = sub.certified_span(m @ c, split.null.conj().T @ c, sub.kernel_limit(split))
        assert got is None or (got.dim, got.sv_near_cut) == (ref.dim, ref.sv_near_cut)
        flagged += ref.sv_near_cut
    assert flagged, flagged


def test_certified_span_drops_the_null_block_whole_or_nothing(rng):
    # c holds the whole null block V_0 plus random directions: E = V_0^H c
    # has V_0's coefficients for its row space, the certificate drops them
    # whole, and its answer is span's.  c meets only part of a null block
    # of 2 or more dimensions, at angle 0, plus random directions: E's row
    # space takes directions off V_0 too, and the certificate refuses.
    # Kept values reach down near the limit's edge, to 2.1 times the band's
    # top times the largest or 2.1 times 10 RANK_ABS, at scales 1 and 1e-7.
    outcomes = set()
    for _ in range(300):
        y, g = int(rng.integers(2, 14)), int(rng.integers(2, 14))
        rho = int(rng.integers(1, min(y, g - 1) + 1))
        scale = float(rng.choice([1.0, 1e-7]))
        lo = np.log10(max(rng.choice([1e-3, 3e-6, 2.1e-6]), 2.1e-11 / scale))
        kept = scale * np.sort(10.0 ** rng.uniform(lo, 0, rho))[::-1]
        kept[0] = scale
        m, split = _graded_map(rng, y, g, kept, [])
        limit, null = sub.kernel_limit(split), split.null
        n0 = null.shape[1]
        assert limit is not None and n0 == g - rho
        inside = n0 if n0 < 2 or rng.random() < 0.5 else int(rng.integers(1, n0))
        # At most rho random directions: more would meet V_0 as well.
        k = int(rng.integers(inside + (inside < n0), inside + rho + 1))
        c = np.hstack([null @ _gaussian(rng, n0, inside), _gaussian(rng, g, k - inside)])
        c = np.linalg.qr(c)[0]
        e = null.conj().T @ c
        assert np.vdot(e, e).real > limit
        got, ref = sub.certified_span(m @ c, e, limit), sub.span(m @ c)
        if inside < n0:
            assert got is None, (n0, inside, k)
            outcomes.add("part")
            continue
        assert got is not None, (kept, k)
        assert (got.dim, got.sv_near_cut) == (ref.dim, False) and ref.dim == k - n0
        assert got.is_same(ref), (kept, k)
        outcomes.add("whole")
    assert outcomes == {"whole", "part"}, outcomes


def _svd_certified_span(mc, e, limit):
    """certified_span with c rotated by E's right singular vectors: the
    leading min(n_0, k) of them, E's row space, are dropped."""
    if e is None or np.vdot(e, e).real <= limit:
        return sub.Subspace(mc.shape[0], np.linalg.qr(mc)[0])
    a, n = mc @ np.linalg.svd(e)[2].conj().T, min(e.shape)
    kept, lost = a[:, n:], np.linalg.norm(a[:, :n])
    floor = RANK_ABS / 10
    if kept.shape[1]:
        floor = min(floor, SV_BAND[0] * np.linalg.norm(kept) / kept.shape[1] ** 0.5)
    return None if 2 * lost > floor else sub.Subspace(mc.shape[0], np.linalg.qr(kept)[0])


def test_certified_span_rotates_as_the_svd_reference(rng):
    # The complete QR of E^H splits off E's row space as E's SVD does: the
    # certificate refuses where the SVD-rotated reference refuses, and
    # otherwise gives its dimension, flag and subspace.  Null blocks of one
    # and of several dimensions; c holds the whole block, part of it or
    # directions at any angle to it, so ||E||_F^2 falls on both sides of
    # the limit.
    outcomes = set()
    for _ in range(400):
        y, g = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        n0 = 1 if rng.random() < 0.5 else int(rng.integers(1, g))
        rho = min(g - n0, y)
        kept = np.sort(10.0 ** rng.uniform(-5, 0, rho))[::-1]
        kept[0] = 1.0
        m, split = _graded_map(rng, y, g, kept, [])
        limit, null = sub.kernel_limit(split), split.null
        if limit is None or not null.shape[1]:
            continue
        n0 = null.shape[1]
        inside = int(rng.integers(0, n0 + 1))
        k = int(rng.integers(max(inside, 1), min(g, inside + rho) + 1))
        angle = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-12, 0)
        c = _gaussian(rng, g, k)
        c[:, :inside] = null @ _gaussian(rng, n0, inside) + angle * c[:, :inside]
        c = np.linalg.qr(c)[0]
        e = null.conj().T @ c
        got, ref = sub.certified_span(m @ c, e, limit), _svd_certified_span(m @ c, e, limit)
        side = "past" if np.vdot(e, e).real > limit else "within"
        outcomes.add((n0 > 1, side, got is None))
        assert (got is None) == (ref is None), (n0, inside, k, angle)
        if got is not None:
            assert (got.dim, got.sv_near_cut) == (ref.dim, ref.sv_near_cut)
            assert got.is_same(ref)
    assert {(wide, "past", refused) for wide in (False, True)
            for refused in (False, True)} <= outcomes, outcomes
    assert {(False, "within", False), (True, "within", False)} <= outcomes, outcomes


# ---------------------------------------------------------------------------
# One complement per subspace

def _svd_log(monkeypatch) -> list:
    """(shape, args, kwargs) of every numpy SVD from here on."""
    seen, real = [], np.linalg.svd

    def svd(m, *args, **kwargs):
        seen.append((m.shape, args, sorted(kwargs.items())))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return seen


def _q_factor_log(monkeypatch) -> list:
    """(shape, complete) of every ``sub.q_factor`` call from here on."""
    seen, real = [], sub.q_factor

    def q_factor(m, complete=False):
        seen.append((m.shape, complete))
        return real(m, complete=complete)

    monkeypatch.setattr(sub, "q_factor", q_factor)
    return seen


def test_a_second_complement_takes_no_svd(rng, monkeypatch):
    # A complement is the complete QR of the basis, which cuts no rank: no
    # SVD, and one QR however often it is read.
    svds, qrs = _svd_log(monkeypatch), _q_factor_log(monkeypatch)
    for s in (sub.random_subspace(6, 2, rng), sub.random_subspace(5, 4, rng)):
        qrs.clear()
        perp, dual = sub.orth_complement(s), sub.annihilator(s)
        assert qrs == [(s.basis.shape, True)], qrs
        again, dual_again = sub.orth_complement(s), sub.annihilator(s)
        assert svds == [] and len(qrs) == 1, (svds, qrs)
        assert again.basis.tobytes() == perp.basis.tobytes()
        assert dual_again.basis.tobytes() == dual.basis.tobytes() == perp.basis.conj().tobytes()
        assert not s._complement.flags.writeable
        assert perp.dim == s.ambient - s.dim and s.is_same(sub.orth_complement(perp))


def _composed_intersect(s1, s2):
    """Intersection as the complement of the sum of complements, each a
    subspace of its own."""
    return sub.orth_complement(sub.sum(sub.orth_complement(s1), sub.orth_complement(s2)))


def test_intersect_takes_the_composition_svds_and_bits(rng, monkeypatch):
    line = sub.span(np.array([1.0, 1e-7, 0.0, 0.0]))
    plane = sub.Subspace(4, np.eye(4)[:, :2], sv_near_cut=True)
    cases = [(sub.random_subspace(5, 3, rng), sub.random_subspace(5, 4, rng)),
             (sub.random_subspace(6, 3, rng), sub.random_subspace(6, 3, rng)),
             (line, plane), (plane, line), (plane, plane),
             (sub.zero_subspace(3), sub.random_subspace(3, 2, rng)),
             (sub.full_space(4), sub.random_subspace(4, 1, rng)),
             (sub.full_space(3), sub.full_space(3))]
    seen, qrs = _svd_log(monkeypatch), _q_factor_log(monkeypatch)

    def fresh(s):
        return sub.Subspace(s.ambient, s.basis, s.sv_near_cut)

    for s1, s2 in cases:
        seen.clear()
        qrs.clear()
        ref = _composed_intersect(fresh(s1), fresh(s2))
        ref_svds, ref_qrs = list(seen), list(qrs)
        seen.clear()
        qrs.clear()
        got = sub.intersect(fresh(s1), fresh(s2))
        assert seen == ref_svds and qrs == ref_qrs
        assert got.basis.shape == ref.basis.shape
        assert got.basis.tobytes() == ref.basis.tobytes()
        assert got.sv_near_cut == ref.sv_near_cut
