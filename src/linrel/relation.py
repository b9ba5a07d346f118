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
from typing import NamedTuple

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


# Under an injective relation whose Gy split proves an image's cut, the
# image keeps its coefficients S_r^-1 U_r^H M' as they stand where the Gx
# split's spread s_1 / s_r, which bounds their condition, is at most this:
# Householder QR's error is columnwise, so the rounding grows by at most it.
COEF_SPREAD = 16.0


class DomainError(ValueError):
    """Raised when a vector lies outside the domain of a relation.

    Carries the distance of the offending vector to the domain.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (distance to domain {residual:.3e})")
        self.residual = residual


class LinearRelation:
    """A linear relation X -> Y by its graph subspace and any parts already known."""

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
    def _x_svd(self) -> sub.Split:
        """The split of Gx: D(T) reads its span, T(0) its null block."""
        return sub.svd_split(self._gx)

    @cached_property
    def _y_svd(self) -> sub.Split:
        """The split of Gy: R(T) reads its span, N(T) its null block."""
        return sub.svd_split(self._gy)

    @cached_property
    def domain(self) -> Subspace:
        """D(T), the span of Gx."""
        return Subspace(self.x_dim, self._x_svd.span, sv_near_cut=self._x_svd.near)

    @cached_property
    def range(self) -> Subspace:
        """R(T), the span of Gy."""
        return Subspace(self.y_dim, self._y_svd.span, sv_near_cut=self._y_svd.near)

    @property
    def _gx_span(self) -> Subspace:
        """D(T) in the basis of T's own split of Gx, which the image map reads."""
        return self.domain

    @property
    def _range_dim(self) -> int:
        """dim R(T), the rank of Gy."""
        return self.range.dim

    @cached_property
    def kernel(self) -> Subspace:
        """N(T): vectors x with (x, 0) in the graph, Gx on Gy's null block."""
        return self._null_image(self._gx, self._y_svd, self.x_dim)

    @cached_property
    def multivalued_part(self) -> Subspace:
        """T(0): vectors y with (0, y) in the graph, Gy on Gx's null block."""
        return self._null_image(self._gy, self._x_svd, self.y_dim)

    def _null_image(self, block: np.ndarray, split: sub.Split, ambient: int) -> Subspace:
        """span(block N), N the other block's null block: G is orthonormal, so
        these columns are too up to its rounding (the CS form; Paige & Wei, 1994),
        and their Householder Q spans them with no cut, flagged as N's split and G."""
        cols = block @ split.null
        return Subspace(ambient, sub.q_factor(cols) if cols.shape[1] else cols,
                        sv_near_cut=split.near or self.graph.sv_near_cut)

    @cached_property
    def _induced_svals(self) -> np.ndarray:
        """Singular values of the induced injective operator, read-only and
        computed once, from the cached split Gy = U S V^H.  G = [Gx; Gy] is
        orthonormal, so the columns G v_j are orthogonal with ||Gx v_j||^2 +
        s_j^2 = 1 (the CS decomposition; Paige & Wei, 1994).  The last dim G
        - dim R(T) span N(T) (+) {0}.  Of the first dim R(T), the dim G - dim
        D(T) of least ||Gx v_j|| (not the first: a tiny X part ties at s_j ~
        1) span {0} (+) T(0); the rest map the orthonormal Gx v_j / ||Gx v_j||
        of D(T) ^ N(T)-perp to orthogonal images, of norm s_j / ||Gx v_j||,
        orthogonal to T(0)."""
        split = self._y_svd
        drop, hi = self.graph.dim - self.domain.dim, self.range.dim
        if hi <= drop:
            return np.zeros(0)
        # ||Gx v_j|| directly, not sqrt(1 - s_j^2), which loses a large value.
        nx = np.linalg.norm(self._gx @ split.right[:, :hi], axis=0)
        keep = np.sort(np.argsort(nx, kind="stable")[drop:])
        svals = split.svals[keep] / nx[keep]
        svals.setflags(write=False)
        return svals

    @cached_property
    def _image_map(self) -> "_ImageMap":
        """What every image under T reads of its two cached splits, and
        D(T)-perp^H where D(T) is not X: the conjugate of the cached
        complement of the Gx split's span, D(T)'s own but for a pencil point."""
        dom, split, y_split = self._gx_span, self._x_svd, self._y_svd
        gv, kv = self._gy @ split.right, y_split.null.conj().T @ split.right
        perp = dom._complement.conj().T if dom.dim < self.x_dim else None
        return _ImageMap(dom.basis.conj().T / split.svals[: dom.dim, None],
                         gv[:, : dom.dim], gv[:, dom.dim:],
                         split.near or self.graph.sv_near_cut, perp,
                         kv[:, : dom.dim], kv[:, dom.dim:], sub.kernel_limit(y_split),
                         split.svals[0] / split.svals[dom.dim - 1] if dom.dim else 1.0)

    @cached_property
    def _inverse(self) -> "LinearRelation":
        """:func:`inverse`, built once for every preimage, handed both splits:
        T's split of Gy is the inverse's split of Gx, and T's of Gx its of Gy."""
        _ = self._y_svd, self._x_svd
        return inverse(self)

    def __repr__(self) -> str:
        return (f"LinearRelation({self.x_dim}->{self.y_dim}, "
                f"graph dim {self.graph.dim})")


class _ImageMap(NamedTuple):
    """A relation's image map, from its splits Gx = U_r S_r V_r^H, with
    V = [V_r, V_0], and of Gy, with null block N."""

    coef: np.ndarray  # S_r^-1 U_r^H
    gv: np.ndarray  # Gy V_r
    gv0: np.ndarray  # Gy V_0
    near: bool  # the Gx split's flag with the graph's
    perp: np.ndarray | None  # D(T)-perp^H, None where D(T) = X
    kr: np.ndarray  # N^H V_r
    k0: np.ndarray  # N^H V_0
    limit: float | None  # subspace.kernel_limit of the Gy split
    spread: float  # s_1 / s_r of the Gx split, 1 where D(T) = {0}; >= cond(coef M')


def from_matrix(a) -> LinearRelation:
    """Embed a single-valued, everywhere-defined operator given by a matrix.

    The matrix maps X to Y, so it has y_dim rows and x_dim columns.  The
    graph is stored in CS form, A = U S V^H: v_j maps to s_j u_j, each to
    its own relative precision.  No rank is cut in the graph.  The same
    SVD splits both graph blocks in closed form
    (:func:`subspace.diagonal_split`), each cut as its values say: Gx = V C
    has the values C reversed, left factor V with its columns reversed and
    right factor the reversal; Gy = U S C has the values S C, left factor
    U and right factor I.  D(T), R(T), N(T) and T(0) are read off those
    two splits as any relation's are; R(T)-perp is completed, from R(T)'s
    own basis, only where an image under the inverse needs it.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.isfinite(a).all():
        raise ValueError("non-finite entries are not admitted into a basis")
    y_dim, x_dim = a.shape
    u, s, vh = sub.svd_factors(a, full=x_dim > y_dim)
    s = np.concatenate([s, np.zeros(x_dim - s.size)])  # past min(x, y), v_j maps to 0
    v, c = vh.conj().T, 1.0 / np.hypot(1.0, s)
    t = LinearRelation(x_dim, y_dim, Subspace(x_dim + y_dim, _cs_columns(v, u, s)))
    eye = np.eye(x_dim, dtype=complex)
    t.__dict__["_x_svd"] = sub.diagonal_split(v[:, ::-1], c[::-1], eye[:, ::-1])
    t.__dict__["_y_svd"] = sub.diagonal_split(u, (s * c)[: u.shape[1]], eye)
    return t


def _cs_columns(v: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """[V C; U S C] with C = (I + S^2)^-1/2: orthonormal graph columns of the
    map V e_j -> s_j U e_j when V and U have orthonormal columns (the CS
    form; Paige & Wei, 1994).  ``s`` has one value per column of V; past
    the columns of U it is 0."""
    c = 1.0 / np.hypot(1.0, s)
    cols = np.zeros((v.shape[0] + u.shape[0], v.shape[1]), dtype=complex)
    cols[: v.shape[0]] = v * c
    cols[v.shape[0]:, : u.shape[1]] = u * (s * c)[: u.shape[1]]
    return cols


def from_graph(s: Subspace, x_dim: int, y_dim: int) -> LinearRelation:
    """The relation whose graph is the given subspace of X (+) Y."""
    return LinearRelation(x_dim, y_dim, s)


def _pair(a: LinearRelation, b: LinearRelation) -> dict:
    """The record of what has been decided about the pair (A, B): its pencil
    family, standing-hypothesis verdict, chains and adjoint pair.  It is
    kept on ``a`` beside a weak reference to ``b``, and holds no reference
    to either; a new partner, or one reusing a dead ``b``'s id, starts an
    empty record."""
    slot = a.__dict__.get("_pair_record")
    if slot is None or slot[0]() is not b:
        slot = a.__dict__["_pair_record"] = (weakref.ref(b), {})
    return slot[1]


def inverse(t: LinearRelation) -> LinearRelation:
    """Block-swapped graph: (x, y) -> (y, x).  An involution.  The splits
    and the four parts t has computed are handed over, swapped."""
    graph = Subspace(t.y_dim + t.x_dim, np.vstack([t._gy, t._gx]),
                     sv_near_cut=t.graph.sv_near_cut)
    inv = LinearRelation(t.y_dim, t.x_dim, graph)
    for pair in (("_x_svd", "_y_svd"), ("domain", "range"), ("kernel", "multivalued_part")):
        for mine, theirs in (pair, pair[::-1]):
            if theirs in t.__dict__:
                inv.__dict__[mine] = t.__dict__[theirs]
    return inv


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

    Every point shares D(A - lam*B) = span(X) = span(Q), X = Q S W^H of
    rank r, where null([Gx_A, -Gx_B]) pairs the columns of [X; Y1] and [X;
    Y2].  In the coordinates [W_r S_r^-1, W_0] the graph is span{[0; P],
    [Q; Z]}: P spans T(0), and Z = Z1 - lam*Z2 is taken on T(0)-perp and,
    where it vanishes there to rounding, on the complement of the common
    kernel K0 = null([Z1; Z2]) (a staircase step; Van Dooren, 1979).  With
    Z = U diag(s) V^H and C = (1 + s^2)^-1/2, [[0, QVC, QK0], [P, UsC, 0]]
    is orthonormal (the CS form; Paige & Wei, 1994).  A point's one rank
    decision cuts [1, sC] no lower than Z's rounding level eps (1 + |lam|)
    / s_r; alpha, beta, gamma, the kernel (the family's span(QK0), one
    object per flag, where Z has full column rank) and every flag read it,
    and the graph and range keep it.  Graphs, domain and T(0) carry the
    flags of these splits and of both input graphs; graphs and kernels also
    that of K0.  The family is kept in the pair's :func:`_pair` record.
    """
    if a.x_dim != b.x_dim or a.y_dim != b.y_dim:
        raise ValueError("dimension mismatch between summands")
    record = _pair(a, b)
    if "pencil" not in record:
        record["pencil"] = _PencilFamily(a, b)
    return record["pencil"]


class _PencilFamily:
    """The lam-independent set-up of :func:`pencil_family`; calling it with
    lam gives A - lam*B."""

    def __init__(self, a: LinearRelation, b: LinearRelation):
        split = sub.svd_split(np.hstack([a._gx, -b._gx]))
        c1, c2 = split.null[: a.graph.dim, :], split.null[a.graph.dim:, :]
        y1, y2, xs = a._gy @ c1, b._gy @ c2, sub.svd_split(a._gx @ c1)
        self.near = split.near or xs.near or a.graph.sv_near_cut or b.graph.sv_near_cut
        self.x_dim, self.y_dim, q, self.r = a.x_dim, a.y_dim, xs.span, xs.span.shape[1]
        self.domain = Subspace(self.x_dim, q, sv_near_cut=self.near)
        w = xs.right[:, : self.r] / xs.svals[: self.r]
        # Z's rounding level, per 1 + |lam|.
        self.noise = np.finfo(float).eps / xs.svals[self.r - 1] if self.r else 0.0
        z1, z2 = y1 @ w, y2 @ w
        # [Z1; Z2] = QR: R has its singular values and V, at a fraction of its size.
        ks = sub.svd_split(np.linalg.qr(np.vstack([z1, z2]), mode="r"))
        # K0 is split off only where [Z1; Z2] vanishes to Z's rounding level:
        # a value the cut relative to ||[Z1; Z2]|| drops can top some Z(lam).
        k0 = ks.null.shape[1]
        self.k0 = k0 if ks.svals[self.r - k0:].max(initial=0.0) <= 64 * self.noise else 0
        # K0-perp, and I, which leaves Z's bits alone, when K0 = {0}.
        wp = ks.right[:, : self.r - self.k0] if self.k0 else np.eye(self.r)
        self.k0_near, self.qw = ks.near and self.k0 > 0, q @ wp
        self.qk0 = q @ ks.null[:, : self.k0]
        self.z1, self.z2, self.m1, self.m2 = z1 @ wp, z2 @ wp, y1 @ xs.null, y2 @ xs.null
        self._kernels = {}
        # With no T(0) block, one empty T(0) for every point.
        self.t0 = None if self.m1.shape[1] else Subspace(
            self.y_dim, np.zeros((self.y_dim, 0)), sv_near_cut=self.near)

    def kernel(self, flag: bool) -> Subspace:
        """span(Q K0) flagged ``flag``: one object per flag, built on first read."""
        if flag not in self._kernels:
            self._kernels[flag] = Subspace(self.x_dim, self.qk0, sv_near_cut=flag)
        return self._kernels[flag]

    def __call__(self, lam: complex) -> "_PencilPoint":
        return _PencilPoint(self, lam)


class _PencilPoint(LinearRelation):
    """A - lam*B of a :func:`pencil_family`, values first: alpha, beta,
    gamma and every flag read the one cut of Z's singular values; U, V, the
    graph and the range, read later, keep that rank."""

    def __init__(self, fam: _PencilFamily, lam: complex):
        self.x_dim, self.y_dim, self._fam = fam.x_dim, fam.y_dim, fam
        z, t0, flag, self._perp = fam.z1 - lam * fam.z2, fam.t0, fam.near, None
        if t0 is None:  # P and a basis of T(0)-perp from the SVD of M^H
            ts = sub.svd_split((fam.m1 - lam * fam.m2).conj().T)
            self._perp, flag, z = ts.null, fam.near or ts.near, ts.null.conj().T @ z
            t0 = Subspace(fam.y_dim, ts.right[:, : fam.y_dim - ts.null.shape[1]], flag)
        self._p, self._z, self._s = t0.basis, z, sub.svd_values(z)
        values, floor = self._s / np.hypot(1.0, self._s), fam.noise * (1 + abs(lam))
        if t0.dim:
            values = np.concatenate([np.ones(t0.dim), values])
        self._floor = floor / np.hypot(1.0, floor)
        self._rank, self._near = sub.values_rank(values, self._floor)
        self._flag = flag or fam.k0_near  # the graph's
        self.__dict__["multivalued_part"] = t0
        if self._rank - t0.dim == fam.r - fam.k0:  # Z has full column rank
            self.__dict__["kernel"] = fam.kernel(self._flag or self._near)

    @property
    def domain(self) -> Subspace:
        """The family's D(A) ^ D(B), shared by every point."""
        return self._fam.domain

    @property
    def _gx_span(self) -> Subspace:
        """D(T) in the basis of the point's own split of Gx, not the family's."""
        return Subspace(self.x_dim, self._x_svd.span, sv_near_cut=self._x_svd.near)

    @property
    def _range_dim(self) -> int:
        return self._rank

    @property
    def _induced_svals(self) -> np.ndarray:
        """The kept singular values of Z."""
        return self._s[: self._rank - self._p.shape[1]]

    @cached_property
    def _vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U, in Y coordinates, and Q [W V, K0] from Z W = U S V^H, and
        the values first cut, with a 0 for each further column of Q [W V, K0]."""
        u, _, vh = sub.svd_factors(self._z, full=self._z.shape[1] > self._z.shape[0])
        qv = np.hstack([self._fam.qw @ vh.conj().T, self._fam.qk0])
        s = np.concatenate([self._s, np.zeros(self._fam.r - self._s.size)])
        return (u if self._perp is None else self._perp @ u), qv, s

    @cached_property
    def graph(self) -> Subspace:
        u, qv, s = self._vectors
        t0 = np.vstack([np.zeros((self.x_dim, self._p.shape[1])), self._p])
        return Subspace(self.x_dim + self.y_dim, np.hstack([t0, _cs_columns(qv, u, s)]),
                        sv_near_cut=self._flag)

    @cached_property
    def _y_svd(self) -> sub.Split:
        """The closed-form split of Gy = [P, U] diag([1, sC, 0]) I, cut at
        the point's floor as its values were."""
        s = self._vectors[2]
        values = np.concatenate([np.ones(self._p.shape[1]), s / np.hypot(1.0, s)])
        return sub.diagonal_split(np.hstack([self._p, self._vectors[0]]), values,
                                  np.eye(values.size, dtype=complex), self._floor)

    @cached_property
    def kernel(self) -> Subspace:
        """Q [W V, K0]'s columns past the kept values, where Z loses rank;
        the family's span(Q K0), set at construction, where it does not."""
        kept = self._rank - self._p.shape[1]
        return Subspace(self.x_dim, self._vectors[1][:, kept:],
                        sv_near_cut=self._flag or self._near)


def pencil(a: LinearRelation, b: LinearRelation, lam: complex) -> LinearRelation:
    """The relation A - lam*B.

    Its kernel is the solution set of the eigenvalue condition
    A(x) ^ lam*B(x) != empty whenever D(B) contains D(A) and B(0) is
    contained in A(0).
    """
    return pencil_family(a, b)(lam)


def image(t: LinearRelation, m: Subspace) -> Subspace:
    """T(M) = {Gy c : Gx c in M}, read off t's image map: c spans V_0 and
    V_r orth(S_r^-1 U_r^H M'), M' = M ^ D(T), cut out of M as the null
    space of D(T)-perp^H M.  The span of Gy c takes a rank cut of its own
    unless t's split of Gy proves that cut from c's angles to its null
    block N (:func:`subspace.certified_span`): the span is Gy c's Q factor
    where c is close enough to orthogonal to N, and otherwise E = N^H c's
    row-space block is dropped whole, which must lose no more than
    rounding; where the proof fails, Gy c's thin SVD cuts it.  Where that
    proof holds under an injective t whose Gx spread is at most
    ``COEF_SPREAD``, V_r's coefficients are S_r^-1 U_r^H M' as they stand:
    they span what their orthonormal basis spans, so the image keeps its
    dimension and flag, and its basis moves in the last bits only.
    Flagged as D's split, the graph, M and the cuts of M ^ D and of that
    span are."""
    if m.ambient != t.x_dim:
        raise ValueError(f"subspace ambient {m.ambient} != x_dim {t.x_dim}")
    imap = t._image_map
    basis, near = m.basis, imap.near or m.sv_near_cut
    if imap.perp is not None:
        cut = sub.svd_split(imap.perp @ basis)
        basis, near = basis @ cut.null, near or cut.near
    # c is orthonormal before Gy V_r applies unless COEF_SPREAD bounds its
    # condition: with S_r^-1's spread in it, the product's rounding would
    # swamp the image's small directions.
    c, injective = imap.coef @ basis, not imap.kr.shape[0]
    if not (injective and imap.limit is not None and imap.spread <= COEF_SPREAD):
        c = sub.q_factor(c)
    cols = imap.gv @ c
    if imap.gv0.shape[1]:
        cols = np.hstack([cols, imap.gv0])
    if cols.shape[1] and imap.limit is not None:
        e = None if injective else np.hstack([imap.kr @ c, imap.k0])
        kept = sub.certified_span(cols, e, imap.limit, near)
        if kept is not None:
            return kept
    return sub.span(cols, ambient=t.y_dim, near=near)


def preimage(t: LinearRelation, n: Subspace) -> Subspace:
    """T^{-1}(N): the image of N under t's one cached inverse, whose split
    of Gx is t's split of Gy, and of Gy t's split of Gx."""
    return image(t._inverse, n)


def adjoint(t: LinearRelation) -> LinearRelation:
    """Adjoint relation from Y' to X', graph stored y-then-x.

    The graph is the bilinear annihilator, inside Y (+) X, of
    {(y, -x) : (x, y) in G(T)}; equivalently the pairs (y', x') with
    [y, y'] = [x, x'] for every (x, y) in the graph.  For a matrix
    operator this is the plain transpose.  [Gy; -Gx], a row permutation
    and sign change of t's checked graph basis, is an orthonormal basis of
    that set as it stands.
    """
    flipped = Subspace(t.y_dim + t.x_dim, np.vstack([t._gy, -t._gx]),
                       sv_near_cut=t.graph.sv_near_cut)
    return LinearRelation(t.y_dim, t.x_dim, sub.annihilator(flipped))


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
    residual = sub.frobenius(t._gx @ c - x)
    if residual > tol * max(1.0, sub.frobenius(x)):
        raise DomainError("vector outside the domain", residual)
    return t._gy @ c
