"""Subspaces of a finite-dimensional complex coordinate space.

A subspace is stored as an orthonormal basis (columns of ``basis``) of a
complex coordinate space of dimension ``ambient``.  Real input embeds.
The zero subspace is a first-class value with an empty basis; every
operation is total on it.

All suprema over unit spheres are computed spectrally (largest/smallest
singular values); nothing here samples spheres.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .tolerances import EQ_TOL, RANK_ABS, RANK_REL, SV_BAND

__all__ = [
    "Subspace",
    "span",
    "sum",
    "intersect",
    "orth_complement",
    "annihilator",
    "distance",
    "gap",
    "contains",
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
    if not np.all(np.isfinite(m)):
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
        subspace should be treated as fragile.
    """

    def __init__(self, ambient: int, basis: np.ndarray, sv_near_cut: bool = False):
        if ambient <= 0:
            raise ValueError("ambient dimension must be positive")
        basis = np.asarray(basis, dtype=complex).reshape(ambient, -1)
        if basis.size:
            if not np.all(np.isfinite(basis)):
                raise ValueError("non-finite entries are not admitted into a basis")
            gram = basis.conj().T @ basis
            if np.abs(gram - np.eye(basis.shape[1])).max() > 1e-10:
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

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of a vector onto the subspace."""
        if self.dim == 0:
            return np.zeros(self.ambient, dtype=complex)
        return self.basis @ (self.basis.conj().T @ np.asarray(v, dtype=complex))

    def contains(self, inner: "Subspace", tol: float = EQ_TOL) -> bool:
        return contains(self, inner, tol)

    def is_same(self, other: "Subspace", tol: float = EQ_TOL) -> bool:
        """Mutual containment within ``tol``."""
        return contains(self, other, tol) and contains(other, self, tol)

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def zero_subspace(ambient: int) -> Subspace:
    return Subspace(ambient, np.zeros((ambient, 0), dtype=complex))


def full_space(ambient: int) -> Subspace:
    return Subspace(ambient, np.eye(ambient, dtype=complex))


def _rank(s: np.ndarray) -> int:
    """Rank cut of descending singular values: those above ``RANK_REL``
    times the largest one, with the absolute floor ``RANK_ABS``."""
    if s.size == 0 or s[0] <= RANK_ABS:
        return 0
    return int(np.count_nonzero(s > max(RANK_REL * s[0], RANK_ABS)))


def _rank_from_svals(s: np.ndarray) -> tuple[int, bool]:
    """:func:`_rank` plus whether any normalized singular value fell in
    the indeterminate band."""
    if s.size == 0 or s[0] <= RANK_ABS:
        # Decisively zero unless the top value sits just under the floor.
        return 0, bool(s.size and s[0] > RANK_ABS / 10)
    normalized = s / s[0]
    near = bool(np.any((normalized > SV_BAND[0]) & (normalized < SV_BAND[1])))
    return _rank(s), near


def span(vectors, ambient: int | None = None) -> Subspace:
    """Orthonormal basis of the column span.

    Columns whose singular value is at most ``RANK_REL`` times the largest
    one (with an absolute floor for near-zero input) are discarded.
    """
    m = _as_complex_matrix(vectors)
    n = m.shape[0] if ambient is None else int(ambient)
    if n <= 0:
        raise ValueError("ambient dimension must be positive")
    if m.shape[0] != n:
        raise ValueError(f"vectors have {m.shape[0]} rows, ambient is {n}")
    if m.shape[1] == 0:
        return Subspace(n, m)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank, near = _rank_from_svals(s)
    return Subspace(n, u[:, :rank], sv_near_cut=near)


def sum(s1: Subspace, s2: Subspace) -> Subspace:
    """Span of the union of two subspaces of the same ambient space."""
    if s1.ambient != s2.ambient:
        raise ValueError(f"ambient mismatch: {s1.ambient} vs {s2.ambient}")
    return span(np.hstack([s1.basis, s2.basis]), ambient=s1.ambient)


def orth_complement(s: Subspace) -> Subspace:
    """Orthogonal complement under the conjugate inner product."""
    if s.dim == 0:
        return full_space(s.ambient)
    # Full SVD of the basis: the trailing left singular vectors span the
    # complement exactly (the basis is orthonormal, all svals are 1).
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(s.ambient, u[:, s.dim:])


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Set-theoretic intersection, as complement of the sum of complements."""
    if s1.ambient != s2.ambient:
        raise ValueError(f"ambient mismatch: {s1.ambient} vs {s2.ambient}")
    return orth_complement(sum(orth_complement(s1), orth_complement(s2)))


def annihilator(s: Subspace) -> Subspace:
    """Vanishing set under the bilinear pairing [x, x'] = sum x_i x'_i.

    The dual space is identified with the ambient space coordinate-wise,
    so the annihilator is the entrywise conjugate of the orthogonal
    complement.  Conjugation preserves orthonormality.
    """
    return Subspace(s.ambient, orth_complement(s).basis.conj())


def distance(v, s: Subspace) -> float:
    """Euclidean distance of a vector to the subspace."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape[0] != s.ambient:
        raise ValueError(f"vector length {v.shape[0]} != ambient {s.ambient}")
    return float(np.linalg.norm(v - s.project(v)))


def gap(m: Subspace, n: Subspace) -> float:
    """Directed gap sup_{u in unit sphere of M} dist(u, N).

    Computed as the largest singular value of (I - P_N) U_M; zero when M
    is the zero subspace.  Always lies in [0, 1] and is asymmetric.
    """
    if m.ambient != n.ambient:
        raise ValueError(f"ambient mismatch: {m.ambient} vs {n.ambient}")
    if m.dim == 0:
        return 0.0
    residual = m.basis - n.basis @ (n.basis.conj().T @ m.basis) if n.dim else m.basis
    s = np.linalg.svd(residual, compute_uv=False)
    return float(min(1.0, s[0]))


def contains(outer: Subspace, inner: Subspace, tol: float = EQ_TOL) -> bool:
    """True iff gap(inner, outer) <= tol; the zero subspace is in everything."""
    return gap(inner, outer) <= tol


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
    q, _ = np.linalg.qr(g)
    return Subspace(ambient, q[:, :dim])
