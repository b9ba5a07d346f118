"""Linear relations (multivalued linear operators) as graph subspaces.

A relation from an ``x_dim``-dimensional space X to a ``y_dim``-dimensional
space Y is the subspace of X (+) Y spanned by its graph, coordinates stacked
x-then-y.  Everything is closed automatically at finite dimension; that fact
is recorded here once and never tested.

The value of the relation at a point x in its domain is the affine fiber
y0 + T(0) for any particular solution y0; off the domain the value is the
empty set, which is represented implicitly (no sentinel values).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

import numpy as np

from . import subspace as sub
from .subspace import Subspace
from .tolerances import EQ_TOL

__all__ = [
    "LinearRelation",
    "DomainError",
    "from_matrix",
    "from_graph",
    "identity_relation",
    "zero_relation",
    "inverse",
    "scalar_mul",
    "add",
    "pencil",
    "pencil_family",
    "image",
    "preimage",
    "adjoint",
    "equals",
    "particular_solution",
]


class DomainError(ValueError):
    """Raised when a vector lies outside the domain of a relation.

    Carries the distance of the offending vector to the domain.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (distance to domain {residual:.3e})")
        self.residual = residual


class LinearRelation:
    """A linear relation X -> Y represented by its graph subspace."""

    def __init__(self, x_dim: int, y_dim: int, graph: Subspace):
        if x_dim <= 0 or y_dim <= 0:
            raise ValueError("x_dim and y_dim must be positive")
        if graph.ambient != x_dim + y_dim:
            raise ValueError(
                f"graph ambient {graph.ambient} != x_dim + y_dim = {x_dim + y_dim}")
        self.x_dim = int(x_dim)
        self.y_dim = int(y_dim)
        self.graph = graph

    @property
    def _gx(self) -> np.ndarray:
        """X block of the graph basis."""
        return self.graph.basis[: self.x_dim, :]

    @property
    def _gy(self) -> np.ndarray:
        """Y block of the graph basis."""
        return self.graph.basis[self.x_dim:, :]

    @cached_property
    def _x_svd(self) -> tuple[Subspace, np.ndarray]:
        """D(T) and a null-space basis of Gx, from one full SVD of Gx."""
        span, null, near = sub.svd_split(self._gx)
        return Subspace(self.x_dim, span, sv_near_cut=near), null

    @cached_property
    def _y_svd(self) -> tuple[Subspace, np.ndarray]:
        """R(T) and a null-space basis of Gy, from one full SVD of Gy."""
        span, null, near = sub.svd_split(self._gy)
        return Subspace(self.y_dim, span, sv_near_cut=near), null

    @property
    def domain(self) -> Subspace:
        return self._x_svd[0]

    @property
    def range(self) -> Subspace:
        return self._y_svd[0]

    @cached_property
    def kernel(self) -> Subspace:
        """Vectors x with (x, 0) in the graph; the X slice of G ^ (X (+) 0)."""
        return sub.span(self._gx @ self._y_svd[1], ambient=self.x_dim)

    @cached_property
    def multivalued_part(self) -> Subspace:
        """T(0): vectors y with (0, y) in the graph."""
        return sub.span(self._gy @ self._x_svd[1], ambient=self.y_dim)

    @property
    def single_valued(self) -> bool:
        return self.multivalued_part.dim == 0

    def __repr__(self) -> str:
        return (f"LinearRelation({self.x_dim}->{self.y_dim}, "
                f"graph dim {self.graph.dim})")


def from_matrix(a) -> LinearRelation:
    """Embed a single-valued, everywhere-defined operator given by a matrix.

    The matrix maps X to Y, so it has y_dim rows and x_dim columns.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    y_dim, x_dim = a.shape
    graph = sub.span(np.vstack([np.eye(x_dim, dtype=complex), a]),
                     ambient=x_dim + y_dim)
    return LinearRelation(x_dim, y_dim, graph)


def from_graph(s: Subspace, x_dim: int, y_dim: int) -> LinearRelation:
    """The relation whose graph is the given subspace of X (+) Y."""
    return LinearRelation(x_dim, y_dim, s)


def identity_relation(n: int) -> LinearRelation:
    return from_matrix(np.eye(n, dtype=complex))


def zero_relation(x_dim: int, y_dim: int) -> LinearRelation:
    """The everywhere-defined single-valued zero operator."""
    return from_matrix(np.zeros((y_dim, x_dim), dtype=complex))


def inverse(t: LinearRelation) -> LinearRelation:
    """Block-swapped graph: (x, y) -> (y, x).  An involution."""
    graph = Subspace(t.y_dim + t.x_dim, np.vstack([t._gy, t._gx]),
                     sv_near_cut=t.graph.sv_near_cut)
    return LinearRelation(t.y_dim, t.x_dim, graph)


def scalar_mul(lam: complex, t: LinearRelation) -> LinearRelation:
    """The relation lam * T, graph {(x, lam*y)}.

    lam = 0 is admitted: the result maps every x in D(T) to {0}, so the
    multivalued part collapses.
    """
    cols = np.vstack([t._gx, lam * t._gy])
    return LinearRelation(t.x_dim, t.y_dim,
                          sub.span(cols, ambient=t.graph.ambient))


def add(s: LinearRelation, t: LinearRelation) -> LinearRelation:
    """Elementwise sum: graph {(x, y+z) : (x,y) in G(S), (x,z) in G(T)},
    the pencil S - lam*T at lam = -1."""
    return pencil_family(s, t)(-1.0)


def pencil_family(a: LinearRelation, b: LinearRelation) -> Callable:
    """lam -> A - lam*B, graph {(x, y1 - lam*y2) : (x,y1) in G(A), (x,y2) in G(B)}.

    null([Gx_A, -Gx_B]) parametrizes the pairs once, for every lam; then
    each lam costs one span of [X; Y1 - lam*Y2].
    """
    if a.x_dim != b.x_dim or a.y_dim != b.y_dim:
        raise ValueError("dimension mismatch between summands")
    _, null, _ = sub.svd_split(np.hstack([a._gx, -b._gx]))
    c1, c2 = null[: a.graph.dim, :], null[a.graph.dim:, :]
    x, y1, y2 = a._gx @ c1, a._gy @ c1, b._gy @ c2

    def at(lam: complex) -> LinearRelation:
        return LinearRelation(a.x_dim, a.y_dim, sub.span(np.vstack([x, y1 - lam * y2])))

    return at


def pencil(a: LinearRelation, b: LinearRelation, lam: complex) -> LinearRelation:
    """The relation A - lam*B.

    Its kernel is the solution set of the eigenvalue condition
    A(x) ^ lam*B(x) != empty whenever D(B) contains D(A) and B(0) is
    contained in A(0).
    """
    return pencil_family(a, b)(lam)


def image(t: LinearRelation, m: Subspace) -> Subspace:
    """T(M): the Y slice of G(T) ^ (M (+) Y)."""
    if m.ambient != t.x_dim:
        raise ValueError(f"subspace ambient {m.ambient} != x_dim {t.x_dim}")
    # Graph columns whose x-part lies in M: null space of (I - P_M) Gx.
    _, null, _ = sub.svd_split(m.residual(t._gx))
    return sub.span(t._gy @ null, ambient=t.y_dim)


def preimage(t: LinearRelation, n: Subspace) -> Subspace:
    """T^{-1}(N) = image of N under the inverse relation."""
    return image(inverse(t), n)


def adjoint(t: LinearRelation) -> LinearRelation:
    """Adjoint relation from Y' to X', graph stored y-then-x.

    The graph is the bilinear annihilator, inside Y (+) X, of
    {(y, -x) : (x, y) in G(T)}; equivalently the pairs (y', x') with
    [y, y'] = [x, x'] for every (x, y) in the graph.  For a matrix
    operator this is the plain transpose.
    """
    flipped = np.vstack([t._gy, -t._gx])
    neg_inv_graph = sub.span(flipped, ambient=t.y_dim + t.x_dim)
    return LinearRelation(t.y_dim, t.x_dim, sub.annihilator(neg_inv_graph))


def equals(s: LinearRelation, t: LinearRelation, tol: float = EQ_TOL) -> bool:
    """Mutual graph containment within tol."""
    if s.x_dim != t.x_dim or s.y_dim != t.y_dim:
        raise ValueError("dimension mismatch")
    return s.graph.is_same(t.graph, tol)


def particular_solution(t: LinearRelation, x, tol: float = EQ_TOL) -> np.ndarray:
    """Some y with (x, y) in the graph; raises DomainError off the domain.

    A matrix ``x`` is solved column by column in one call.  Any two
    particular solutions differ by an element of T(0), so every
    quotient-norm quantity downstream is independent of the choice made
    here (least squares against the graph basis).
    """
    x = np.asarray(x, dtype=complex)
    x = x if x.ndim == 2 else x.reshape(-1)
    if x.shape[0] != t.x_dim:
        raise ValueError(f"vector length {x.shape[0]} != x_dim {t.x_dim}")
    c, *_ = np.linalg.lstsq(t._gx, x, rcond=None)
    residual = np.linalg.norm(t._gx @ c - x, axis=0)
    off = residual > tol * np.maximum(1.0, np.linalg.norm(x, axis=0))
    if np.any(off):
        raise DomainError("vector outside the domain", float(np.max(residual * off)))
    return t._gy @ c
