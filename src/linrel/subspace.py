"""Subspaces of a finite-dimensional complex coordinate space.

A subspace is stored as an orthonormal basis (columns of ``basis``) of a
complex coordinate space of dimension ``ambient``.  Real input embeds.
The zero subspace is a first-class value with an empty basis; every
operation is total on it.

All suprema over unit spheres are computed spectrally (largest/smallest
singular values); nothing here samples spheres.

Every rank decision in the library is made by :func:`_rank_cut`, reached
through :func:`span` (thin SVD), :func:`svd_split` (full SVD: span,
its complement and null space) or :func:`values_rank` (singular values
whose vectors come later, or never).  Where a split of m already proves
the cut of m c for orthonormal c (:func:`certified_span`, from c's
angles to m's null block), the span of m c is the one :func:`span`
gives, with no cut of its own.  Every projection residual x - P_S x is
:meth:`Subspace.residual`.  Every containment verdict is decided here by
one rule, :func:`_settled`: a residual's largest singular value against
the verdict's cuts, read off its Frobenius bracket where that settles
every cut.  :func:`contains` and :func:`contained` (a chain cell's
verdict and ``CHAIN_BAND`` flag) read the residual of the inner basis
from the outer space, :func:`in_annihilator` and :func:`is_annihilator`
the product K^T U_D.  Every QR whose R would go unread is
:func:`q_factor`: numpy's reduced or complete Q bit for bit, read from
LAPACK's reflectors without forming R, raising the same ``LinAlgError``.
A split that cuts no rank is a complete Q, not an SVD: each complement
(so each annihilator) and :func:`certified_span`'s rotation.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .tolerances import CHAIN_BAND, EQ_TOL, RANK_ABS, RANK_REL, SV_BAND

# A Frobenius bound decides a cut it clears by this relative margin, far
# above LAPACK's backward error: a decided verdict is the SVD's.
BRACKET_MARGIN = 1e-10

__all__ = [
    "Subspace",
    "span",
    "Split",
    "svd_split",
    "q_factor",
    "values_rank",
    "kernel_limit",
    "certified_span",
    "sum",
    "intersect",
    "orth_complement",
    "annihilator",
    "in_annihilator",
    "is_annihilator",
    "distance",
    "gap",
    "contains",
    "contained",
    "apply_map",
    "random_subspace",
    "full_space",
    "zero_subspace",
]


def _as_complex_matrix(vectors) -> np.ndarray:
    m = np.asarray(vectors, dtype=complex)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError(f"expected a matrix of column vectors, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("non-finite entries are not admitted into a basis")
    return m


class Subspace:
    """An ``ambient``-dimensional coordinate subspace with orthonormal basis.

    Attributes
    ----------
    ambient : int
        Dimension of the surrounding coordinate space (positive).
    basis : (ambient, dim) complex ndarray
        Orthonormal columns spanning the subspace; read-only.
    sv_near_cut : bool
        True when the construction saw a normalized singular value inside
        the indeterminate band; downstream rank decisions built on this
        subspace should be treated as fragile.  Complements, annihilators
        and sums carry it on.
    """

    def __init__(self, ambient: int, basis: np.ndarray, sv_near_cut: bool = False):
        if ambient <= 0:
            raise ValueError("ambient dimension must be positive")
        # A private copy: no caller keeps a writable handle on a checked basis.
        basis = np.array(basis, dtype=complex).reshape(ambient, -1)
        if basis.size:
            # An entry above 2 in modulus already breaks orthonormality, so
            # the one bound below refuses it before the Gram product can
            # overflow; only a refusal pays for the finiteness test.
            if not np.maximum.reduce(np.abs(basis), None) <= 2.0:
                if not np.isfinite(basis).all():
                    raise ValueError("non-finite entries are not admitted into a basis")
                raise ValueError("basis columns are not orthonormal; use span()")
            # The Gram matrix minus the identity, formed in place through a
            # view of the new C-ordered product: x - 1.0 rounds exactly as
            # x - (1+0j), so the decision is unchanged.
            gram = basis.conj().T @ basis
            gram.ravel()[::basis.shape[1] + 1] -= 1.0
            if np.maximum.reduce(np.abs(gram), None) > 1e-10:
                raise ValueError("basis columns are not orthonormal; use span()")
        basis.setflags(write=False)
        self.ambient = int(ambient)
        self.basis = basis
        self.sv_near_cut = bool(sv_near_cut)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def projector(self) -> np.ndarray:
        p = self.basis @ self.basis.conj().T
        p.setflags(write=False)
        return p

    @cached_property
    def _complement(self) -> np.ndarray:
        """An orthonormal basis of the orthogonal complement, read-only:
        columns of the identity where the subspace is {0} or the whole
        space, else the trailing columns of the complete Householder Q of
        its orthonormal basis.  The basis has full column rank, so no rank
        is cut: its leading Q columns span it and the rest its complement."""
        if self.dim in (0, self.ambient):
            c = np.eye(self.ambient, dtype=complex)[:, self.dim:]
        else:
            c = q_factor(self.basis, complete=True)[:, self.dim:]
        c.setflags(write=False)
        return c

    def residual(self, x: np.ndarray) -> np.ndarray:
        """x - P x for a vector or a matrix of columns; ``x`` itself when
        the subspace is zero."""
        if self.dim == 0:
            return x
        return x - self.basis @ (self.basis.conj().T @ x)

    def contains(self, inner: "Subspace", tol: float = EQ_TOL) -> bool:
        return contains(self, inner, tol)

    def is_same(self, other: "Subspace", tol: float = EQ_TOL) -> bool:
        """Mutual containment within ``tol``; spaces of two dimensions are
        refused below tol 0.5."""
        if self.dim != other.dim and tol < 0.5 and self.ambient == other.ambient:
            return False
        return contains(self, other, tol) and contains(other, self, tol)

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def zero_subspace(ambient: int) -> Subspace:
    return Subspace(ambient, np.zeros((ambient, 0), dtype=complex))


def full_space(ambient: int) -> Subspace:
    return Subspace(ambient, np.eye(ambient, dtype=complex))


def _rank_cut(s: np.ndarray, floor: float = 0.0) -> tuple[int, bool]:
    """The rank decision on descending singular values.

    The rank counts the values above ``RANK_REL`` times the largest one,
    the absolute floor ``RANK_ABS`` and ``floor``.  The flag says whether
    any normalized singular value fell in the indeterminate band ``SV_BAND``
    or, where ``RANK_ABS`` is the cut, any value lies within a factor ten
    of it.
    """
    # Python floats: the same IEEE products, quotients and comparisons as
    # array arithmetic, without a NumPy dispatch per step on tiny inputs.
    v = s.tolist()
    if not v or v[0] <= RANK_ABS:
        # Decisively zero unless the top value sits just under the floor.
        return 0, bool(v and v[0] > RANK_ABS / 10)
    top = v[0]
    cut = max(RANK_REL * top, RANK_ABS, floor)
    lo, hi = SV_BAND
    near = any([lo < x / top < hi for x in v])
    if cut == RANK_ABS:
        near = near or any([RANK_ABS / 10 < x < 10 * RANK_ABS for x in v])
    return len([x for x in v if x > cut]), near


def span(vectors, ambient: int | None = None, near: bool = False) -> Subspace:
    """Orthonormal basis of the column span.

    Columns whose singular value is at most ``RANK_REL`` times the largest
    one (with an absolute floor for near-zero input) are discarded.
    ``near`` is the fragility of the inputs, OR-ed into the result's flag.
    """
    m = _as_complex_matrix(vectors)
    n = m.shape[0] if ambient is None else int(ambient)
    if n <= 0:
        raise ValueError("ambient dimension must be positive")
    if m.shape[0] != n:
        raise ValueError(f"vectors have {m.shape[0]} rows, ambient is {n}")
    if m.shape[1] == 0:
        return Subspace(n, m, sv_near_cut=near)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank, cut_near = _rank_cut(s)
    return Subspace(n, u[:, :rank], sv_near_cut=near or cut_near)


class Split(NamedTuple):
    """An SVD m = U diag(svals) V^H and its rank cut: orthonormal bases of
    the column span, of the null space (the trailing columns of ``right``,
    which holds all of V) and of the span's orthogonal complement
    (``perp``), the cut's flag and the descending svals."""

    span: np.ndarray
    null: np.ndarray
    near: bool
    svals: np.ndarray
    right: np.ndarray
    perp: np.ndarray


def svd_split(m: np.ndarray) -> Split:
    """The column span, its complement and the null space of a (possibly
    empty) matrix, all cut at one rank."""
    if m.shape[1] == 0:
        empty = np.zeros((0, 0), dtype=complex)
        return Split(m, empty, False, np.zeros(0), empty, np.eye(m.shape[0], dtype=complex))
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    rank, near = _rank_cut(s)
    right = vh.conj().T
    return Split(u[:, :rank], right[:, rank:], near, s, right, u[:, rank:])


def _qr_failed(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def q_factor(m: np.ndarray, complete: bool = False) -> np.ndarray:
    """``np.linalg.qr(m, mode="complete" if complete else "reduced")[0]`` of a
    float64 or complex128 matrix, bit for bit: numpy's own LAPACK gufuncs on
    a copy of m, with numpy's signatures and error state, so bad input
    raises the same ``LinAlgError``; R is never formed.  As in numpy, the
    complete Q of a matrix that is not tall is its reduced Q."""
    cplx = np.iscomplexobj(m)
    a = np.array(m, dtype=complex if cplx else float)  # LAPACK overwrites its input
    tall = complete and a.shape[0] > a.shape[1]
    with np.errstate(call=_qr_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        tau = _umath_linalg.qr_r_raw(a, signature="D->D" if cplx else "d->d")
        return (_umath_linalg.qr_complete if tall else _umath_linalg.qr_reduced)(
            a, tau, signature="DD->D" if cplx else "dd->d")


def values_rank(svals: np.ndarray, floor: float = 0.0) -> tuple[int, bool]:
    """The rank and flag of a matrix known by its descending singular
    values alone.  No value at or below ``floor``, their rounding level,
    counts; a trailing zero never counts or flags."""
    return _rank_cut(svals, floor)


def kernel_limit(split: Split) -> float | None:
    """1 - t^2 for t = 2 max(SV_BAND[1] s_1, 10 RANK_ABS) / s_r, the kept
    values of m being s_1 >= ... >= s_r; None where m keeps no value or
    t > 1.  A unit c whose squared cosine ||V_0^H c||^2 to m's null block
    V_0 is at most this has ||m c|| >= s_r sqrt(1 - ||V_0^H c||^2) >= twice
    10 ``RANK_ABS`` and twice the top of ``SV_BAND`` times ||m||: the
    margin of two puts it clear of the cut, the band and the floor's
    factor-ten flag."""
    rank, s = split.span.shape[1], split.svals
    if not rank:
        return None
    t = 2 * max(SV_BAND[1] * s[0], 10 * RANK_ABS) / s[rank - 1]
    return 1 - t * t if t <= 1 else None


def certified_span(mc: np.ndarray, e: np.ndarray | None, limit: float,
                   near: bool = False) -> Subspace | None:
    """span(m c) for orthonormal columns c, with the dimension and flag
    :func:`span` gives it, proved from e = V_0^H c instead of cut; None
    where the proof fails.  ``limit`` is :func:`kernel_limit` of m's split,
    V_0 its null block, and ``e`` is None where V_0 is empty; then the
    proof reads span(c) alone, and c need only have full column rank.

    Where ||e||_F^2 <= limit, every unit vector of span(c) keeps a value
    clear of the cut and the band, and :func:`_rank_cut` would keep all of
    m c, unflagged: its span is the Q factor of m c.  Otherwise c is
    rotated by the complete Q of E^H = [Q_1, Q_2], and Q_1, the leading
    min(n_0, k) columns, which hold E's row space, is dropped whole: E Q_2
    = 0 in exact arithmetic, so the columns kept are orthogonal to V_0 for
    any n_0 and any rank of E.  The dropped images' Frobenius norm bounds
    the values they add to m c, and twice it must be at most ``RANK_ABS`` /
    10 and the band's floor times m c's largest value, or ``RANK_ABS`` / 10
    where nothing is kept."""
    if e is None or np.vdot(e, e).real <= limit:
        return Subspace(mc.shape[0], q_factor(mc), sv_near_cut=near)
    a, n = mc @ q_factor(e.conj().T, complete=True), min(e.shape)
    kept, lost = a[:, n:], np.vdot(a[:, :n], a[:, :n]).real ** 0.5
    if kept.shape[1]:
        # m c's largest value is at least the kept columns' root mean square.
        floor = min(RANK_ABS / 10, SV_BAND[0] * (np.vdot(kept, kept).real / kept.shape[1]) ** 0.5)
    else:
        floor = RANK_ABS / 10
    if 2 * lost > floor:
        return None
    return Subspace(mc.shape[0], q_factor(kept), sv_near_cut=near)


def sum(s1: Subspace, s2: Subspace) -> Subspace:
    """Span of the union of two subspaces of the same ambient space."""
    if s1.ambient != s2.ambient:
        raise ValueError(f"ambient mismatch: {s1.ambient} vs {s2.ambient}")
    return span(np.hstack([s1.basis, s2.basis]), ambient=s1.ambient,
                near=s1.sv_near_cut or s2.sv_near_cut)


def orth_complement(s: Subspace) -> Subspace:
    """Orthogonal complement under the conjugate inner product."""
    return Subspace(s.ambient, s._complement, s.sv_near_cut)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Set-theoretic intersection, as complement of the sum of complements."""
    if s1.ambient != s2.ambient:
        raise ValueError(f"ambient mismatch: {s1.ambient} vs {s2.ambient}")
    return orth_complement(span(np.hstack([s1._complement, s2._complement]), ambient=s1.ambient,
                                near=s1.sv_near_cut or s2.sv_near_cut))


def annihilator(s: Subspace) -> Subspace:
    """Vanishing set under the bilinear pairing [x, x'] = sum x_i x'_i.

    The dual space is identified with the ambient space coordinate-wise,
    so the annihilator is the entrywise conjugate of the orthogonal
    complement.  Conjugation preserves orthonormality, so the complement's
    basis is read once and only its conjugate is built.
    """
    return Subspace(s.ambient, s._complement.conj(), s.sv_near_cut)


def in_annihilator(k: Subspace, d: Subspace) -> bool:
    """Whether D lies in the annihilator of K: ||K^T U_D|| <= ``EQ_TOL``,
    as I - P over the annihilator is conj(K) K^T."""
    return _settled(k.basis.T @ d.basis, (EQ_TOL,)) <= EQ_TOL


def is_annihilator(s: Subspace, k: Subspace) -> bool:
    """Whether S is the annihilator of K: with equal dimensions the two
    directed gaps agree, so one containment decides it."""
    return s.dim == k.ambient - k.dim and in_annihilator(k, s)


def distance(v, s: Subspace) -> float:
    """Euclidean distance of a vector to the subspace."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape[0] != s.ambient:
        raise ValueError(f"vector length {v.shape[0]} != ambient {s.ambient}")
    return float(np.linalg.norm(s.residual(v)))


def gap(m: Subspace, n: Subspace) -> float:
    """Directed gap sup_{u in unit sphere of M} dist(u, N).

    Computed as the largest singular value of (I - P_N) U_M; zero when M
    is the zero subspace.  Always lies in [0, 1] and is asymmetric.
    """
    if m.dim == 0 and m.ambient == n.ambient:
        return 0.0
    return float(min(1.0, np.linalg.svd(_residual(n, m), compute_uv=False)[0]))


def _residual(outer: Subspace, inner: Subspace) -> np.ndarray:
    """(I - P_outer) U_inner, for two subspaces of one ambient space; the
    empty basis itself where inner is zero."""
    if outer.ambient != inner.ambient:
        raise ValueError(f"ambient mismatch: {inner.ambient} vs {outer.ambient}")
    return outer.residual(inner.basis) if inner.dim else inner.basis


def _settled(r: np.ndarray, cuts) -> float:
    """sigma_max(r), 0 for an empty r, or ||r||_F where the bracket
    ||r||_F / sqrt(k) <= sigma_max(r) <= ||r||_F of r's k columns, widened
    by the relative ``BRACKET_MARGIN``, puts every one of ``cuts`` on one
    side: sigma_max(r) then shares it."""
    if not r.shape[1]:
        return 0.0
    hi, wide = float(np.linalg.norm(r)), (1 + BRACKET_MARGIN) * r.shape[1] ** 0.5
    if all(hi <= c * (1 - BRACKET_MARGIN) or hi > c * wide for c in cuts):
        return hi
    return float(np.linalg.svd(r, compute_uv=False)[0])


def contains(outer: Subspace, inner: Subspace, tol: float = EQ_TOL) -> bool:
    """True iff gap(inner, outer) <= tol; the zero subspace is in everything.
    A larger inner space (gap 1) is refused below tol 0.5."""
    if inner.dim > outer.dim and tol < 0.5 and inner.ambient == outer.ambient:
        return False
    return min(1.0, _settled(_residual(outer, inner), (tol,))) <= tol


def contained(outer: Subspace, inner: Subspace) -> tuple[bool, bool]:
    """Containment verdict plus a flag: a gap in ``CHAIN_BAND`` or a near-cut
    side.  The gap is settled against both band ends and ``EQ_TOL``, so the
    verdict and the flag are those of the exact gap."""
    g = _settled(_residual(outer, inner), (*CHAIN_BAND, EQ_TOL))
    near = outer.sv_near_cut or inner.sv_near_cut
    return g <= EQ_TOL, near or CHAIN_BAND[0] < g < CHAIN_BAND[1]


def apply_map(f, s: Subspace) -> Subspace:
    """Image of the subspace under a linear map given as a matrix."""
    f = np.asarray(f, dtype=complex)
    if f.ndim != 2 or f.shape[1] != s.ambient:
        raise ValueError(f"map shape {f.shape} does not act on ambient {s.ambient}")
    return span(f @ s.basis, ambient=f.shape[0])


def random_subspace(ambient: int, dim: int, seed) -> Subspace:
    """Haar-like random subspace from an orthonormalized Gaussian matrix.

    ``seed`` may be an int or a ``numpy.random.Generator``; results are
    deterministic for a fixed integer seed.
    """
    if ambient <= 0:
        raise ValueError("ambient dimension must be positive")
    if not 0 <= dim <= ambient:
        raise ValueError(f"dim {dim} out of range for ambient {ambient}")
    if dim == 0:
        return zero_subspace(ambient)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((ambient, dim)) + 1j * rng.standard_normal((ambient, dim))
    return Subspace(ambient, q_factor(g))
