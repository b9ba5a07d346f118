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

import weakref
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
    """A linear relation X -> Y by its graph subspace and any parts already known."""

    def __init__(self, x_dim: int, y_dim: int, graph: Subspace, *,
                 domain: Subspace | None = None, multivalued: Subspace | None = None,
                 y_split: Callable[[], sub.Split] | None = None):
        if x_dim <= 0 or y_dim <= 0:
            raise ValueError("x_dim and y_dim must be positive")
        if graph.ambient != x_dim + y_dim:
            raise ValueError(
                f"graph ambient {graph.ambient} != x_dim + y_dim = {x_dim + y_dim}")
        if domain is not None and domain.ambient != x_dim:
            raise ValueError(f"domain ambient {domain.ambient} != x_dim {x_dim}")
        self.x_dim = int(x_dim)
        self.y_dim = int(y_dim)
        self.graph = graph
        self._domain = domain
        self._y_split = y_split
        if multivalued is not None:
            self.__dict__["multivalued_part"] = multivalued

    @property
    def _gx(self) -> np.ndarray:
        """X block of the graph basis."""
        return self.graph.basis[: self.x_dim, :]

    @property
    def _gy(self) -> np.ndarray:
        """Y block of the graph basis."""
        return self.graph.basis[self.x_dim:, :]

    @cached_property
    def _x_svd(self) -> tuple[Subspace, sub.Split]:
        """The span of Gx and the full SVD it was cut from; T(0) reads the
        null space.  D(T) unless a domain was given."""
        split = sub.svd_split(self._gx)
        return Subspace(self.x_dim, split.span, sv_near_cut=split.near), split

    @cached_property
    def _y_svd(self) -> tuple[Subspace, sub.Split]:
        """R(T) and the full SVD of Gy it was cut from; a pencil brings its own."""
        split = sub.svd_split(self._gy) if self._y_split is None else self._y_split()
        return Subspace(self.y_dim, split.span, sv_near_cut=split.near), split

    @property
    def domain(self) -> Subspace:
        """D(T): the one given at construction (a pencil family's shared
        D(A) ^ D(B)), else the span of Gx."""
        return self._x_svd[0] if self._domain is None else self._domain

    @property
    def range(self) -> Subspace:
        return self._y_svd[0]

    @cached_property
    def kernel(self) -> Subspace:
        """Vectors x with (x, 0) in the graph; the X slice of G ^ (X (+) 0)."""
        split = self._y_svd[1]  # a cut near the threshold here or in G flags it
        return sub.span(self._gx @ split.null, self.x_dim, split.near or self.graph.sv_near_cut)

    @cached_property
    def multivalued_part(self) -> Subspace:
        """T(0): vectors y with (0, y) in the graph; flagged as the kernel is."""
        split = self._x_svd[1]
        return sub.span(self._gy @ split.null, self.y_dim, split.near or self.graph.sv_near_cut)

    @cached_property
    def _inverse(self) -> "LinearRelation":
        """:func:`inverse`, built once for every preimage."""
        return inverse(self)

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


def _pair(a: LinearRelation, b: LinearRelation) -> dict:
    """The record of what has been decided about the pair (A, B): its pencil
    family, standing-hypothesis verdict and chains.  It is kept on ``a``
    beside a weak reference to ``b``, and holds no reference to either; a
    new partner, or one reusing a dead ``b``'s id, starts an empty record."""
    slot = a.__dict__.get("_pair_record")
    if slot is None or slot[0]() is not b:
        slot = a.__dict__["_pair_record"] = (weakref.ref(b), {})
    return slot[1]


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
    return LinearRelation(t.x_dim, t.y_dim, sub.span(
        cols, ambient=t.graph.ambient, near=t.graph.sv_near_cut))


def add(s: LinearRelation, t: LinearRelation) -> LinearRelation:
    """Elementwise sum: graph {(x, y+z) : (x,y) in G(S), (x,z) in G(T)},
    the pencil S - lam*T at lam = -1."""
    return pencil_family(s, t)(-1.0)


def pencil_family(a: LinearRelation, b: LinearRelation) -> Callable:
    """lam -> A - lam*B, graph {(x, y1 - lam*y2) : (x,y1) in G(A), (x,y2) in G(B)}.

    null([Gx_A, -Gx_B]) pairs the columns of [X; Y1] and [X; Y2] once; the
    family shares D(A - lam*B) = span(X) = span(Q), X = Q S W^H of rank r.
    In the coordinates [W_r S_r^-1, W_0] the graph is span{[0; P], [Q; Z]}:
    P spans T(0) = span((Y1 - lam*Y2) W_0), Z is (Y1 - lam*Y2) W_r S_r^-1
    in coordinates of T(0)-perp.  With Z = U diag(s) V^H, C = (1 + s^2)^-1/2,
    [[0, QVC], [P, UsC]] is orthonormal (the CS form; Paige & Wei, 1994):
    dim G = dim D + dim T(0), and Gy = [P, UsC] is its own SVD, cut when
    first read and no lower than Z's rounding level eps (1 + |lam|) / s_r.
    Each lam costs one SVD of Z (y x r), and one of the T(0) block when
    W_0 is not empty.  Graphs, domain and T(0) carry the near-cut flags of
    these splits and of both input graphs.  The family is built once per
    pair and kept in its :func:`_pair` record, so :func:`pencil`,
    :func:`add` and every sweep of the pair share its set-up.
    """
    if a.x_dim != b.x_dim or a.y_dim != b.y_dim:
        raise ValueError("dimension mismatch between summands")
    record = _pair(a, b)
    if "pencil" in record:
        return record["pencil"]
    split = sub.svd_split(np.hstack([a._gx, -b._gx]))
    c1, c2 = split.null[: a.graph.dim, :], split.null[a.graph.dim:, :]
    y1, y2, xs = a._gy @ c1, b._gy @ c2, sub.svd_split(a._gx @ c1)
    near = split.near or xs.near or a.graph.sv_near_cut or b.graph.sv_near_cut
    x_dim, y_dim, q, r = a.x_dim, a.y_dim, xs.span, xs.span.shape[1]
    domain = Subspace(x_dim, q, sv_near_cut=near)
    w = xs.right[:, :r] / xs.svals[:r]
    noise = np.finfo(float).eps / xs.svals[r - 1] if r else 0.0  # in Z, per 1 + |lam|
    z1, z2, m1, m2 = y1 @ w, y2 @ w, y1 @ xs.null, y2 @ xs.null

    def at(lam: complex) -> LinearRelation:
        z, p, flag, perp = z1 - lam * z2, np.zeros((y_dim, 0), dtype=complex), near, None
        if m1.shape[1]:  # P and a basis of T(0)-perp from one SVD, of M^H
            ts = sub.svd_split((m1 - lam * m2).conj().T)
            perp, flag = ts.null, near or ts.near
            p, z = ts.right[:, : y_dim - perp.shape[1]], perp.conj().T @ z
        u, s, vh = np.linalg.svd(z, full_matrices=r > z.shape[0])
        u = u if perp is None else perp @ u
        s = np.concatenate([s, np.zeros(r - s.size)])  # V is r x r; past Z's rows s is 0
        c, n, floor = 1.0 / np.hypot(1.0, s), p.shape[1], noise * (1 + abs(lam))
        basis = np.zeros((x_dim + y_dim, n + r), dtype=complex)
        basis[:x_dim, n:] = q @ (vh.conj().T * c)
        basis[x_dim:, :n] = p
        basis[x_dim:, n: n + u.shape[1]] = u * (s * c)[: u.shape[1]]
        return LinearRelation(
            x_dim, y_dim, Subspace(x_dim + y_dim, basis, sv_near_cut=flag),
            domain=domain, multivalued=Subspace(y_dim, p, sv_near_cut=flag),
            y_split=lambda: sub.diagonal_split(
                np.hstack([p, u]), np.concatenate([np.ones(n), s * c]),
                floor / np.hypot(1.0, floor)))

    record["pencil"] = at
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
    split = sub.svd_split(m.residual(t._gx))
    near = split.near or t.graph.sv_near_cut or m.sv_near_cut
    return sub.span(t._gy @ split.null, ambient=t.y_dim, near=near)


def preimage(t: LinearRelation, n: Subspace) -> Subspace:
    """T^{-1}(N) = image of N under the inverse relation."""
    return image(t._inverse, n)


def adjoint(t: LinearRelation) -> LinearRelation:
    """Adjoint relation from Y' to X', graph stored y-then-x.

    The graph is the bilinear annihilator, inside Y (+) X, of
    {(y, -x) : (x, y) in G(T)}; equivalently the pairs (y', x') with
    [y, y'] = [x, x'] for every (x, y) in the graph.  For a matrix
    operator this is the plain transpose.
    """
    flipped = np.vstack([t._gy, -t._gx])
    neg_inv_graph = sub.span(flipped, ambient=t.y_dim + t.x_dim,
                             near=t.graph.sv_near_cut)
    return LinearRelation(t.y_dim, t.x_dim, sub.annihilator(neg_inv_graph))


def equals(s: LinearRelation, t: LinearRelation, tol: float = EQ_TOL) -> bool:
    """Mutual graph containment within tol."""
    if s.x_dim != t.x_dim or s.y_dim != t.y_dim:
        raise ValueError("dimension mismatch")
    return s.graph.is_same(t.graph, tol)


def particular_solution(t: LinearRelation, x, tol: float = EQ_TOL) -> np.ndarray:
    """Some y with (x, y) in the graph; raises DomainError off the domain.

    Any two particular solutions differ by an element of T(0), so every
    quotient-norm quantity downstream is independent of the choice made
    here (least squares against the graph basis).
    """
    x = np.asarray(x, dtype=complex).reshape(-1)
    if x.shape[0] != t.x_dim:
        raise ValueError(f"vector length {x.shape[0]} != x_dim {t.x_dim}")
    c, *_ = np.linalg.lstsq(t._gx, x, rcond=None)
    residual = float(np.linalg.norm(t._gx @ c - x))
    if residual > tol * max(1.0, float(np.linalg.norm(x))):
        raise DomainError("vector outside the domain", residual)
    return t._gy @ c
