"""Quotient-seminorm machinery for linear relations.

The value norm ||T x|| is the distance of any particular solution to
T(0); the operator norm and the minimum modulus are the extreme singular
values of the induced operator obtained by projecting particular
solutions onto the orthogonal complement of T(0).  This realizes the
quotient map without forming quotient spaces: for the Euclidean norm,
Y / T(0) is isometric to the complement of T(0).

The norm, gamma and alpha-prime read those singular values, which each
relation keeps, off the CS form of its graph's Y block; a pencil point
reads them, and beta its rank, off its values alone.  The relative
bounds and :func:`operator_part`, the reference that the norm and gamma
are checked against, solve for the induced operator by least squares.
Their floats are hashed, so until ROADMAP.md's item 5 they span T(0) and
N(T) from the relation's splits by thin SVD, not read its Q factors.

Conventions for degenerate relations:
  * D(T) inside N(T) (D(T) = {0} included): the norm is 0 (sup over a
    unit ball that T maps into T(0)) and gamma is +inf, and inf * 0 = 0
    wherever the product appears in radius formulas.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import relation as rel
from . import subspace as sub
from .relation import LinearRelation
from .tolerances import INEQ_SLACK

__all__ = [
    "RelativeBound",
    "HypothesisError",
    "operator_part",
    "relation_norm_at",
    "norm",
    "gamma",
    "alpha",
    "beta",
    "alpha_prime_eps",
    "alpha_prime",
    "beta_prime",
    "fit_relative_bound",
    "check_relative_bound",
    "stability_radius",
    "stability_radii",
    "finishing_bound",
    "RADIUS_KINDS",
]


class HypothesisError(ValueError):
    """A standing hypothesis (domain or multivalued-part containment) fails."""

    def __init__(self, which: str, gap_value: float):
        super().__init__(f"hypothesis violated: {which} (containment gap {gap_value:.3e})")
        self.which = which
        self.gap_value = gap_value


def operator_part(t: LinearRelation) -> np.ndarray:
    """The induced injective operator by least squares: the matrix mapping
    coordinates of an orthonormal basis of D(T) ^ N(T)-perp to the
    complement of T(0), with no columns where D(T) is inside N(T).

    The reference for :func:`norm` and :func:`gamma`, and for the
    perturbation suite's scale, which must not move with their last bits.
    """
    # N(T) as spanned until ROADMAP item 5: the perturbation scale is hashed.
    kernel = sub.span(t._gx @ t._y_svd.null, ambient=t.x_dim)
    # N(T) sits inside D(T), so D ^ N-perp is the complement of N within D.
    quot = sub.span(kernel.residual(t.domain.basis), ambient=t.x_dim)
    return _restricted_quotient_matrix(t, quot.basis)


def relation_norm_at(t: LinearRelation, x) -> float:
    """||T x||: distance of any particular solution to T(0)."""
    y = rel.particular_solution(t, x)
    return float(np.linalg.norm(t.multivalued_part.residual(y)))


def norm(t: LinearRelation) -> float:
    """||T||: supremum of ||T x|| over the unit ball of D(T), the largest
    singular value of the induced injective operator; 0 where D(T) is
    inside N(T)."""
    svals = t._induced_svals
    return float(svals.max()) if svals.size else 0.0


def gamma(t: LinearRelation) -> float:
    """Minimum modulus: +inf when D(T) is inside N(T), else the smallest
    singular value of the induced injective operator (strictly positive
    because finite-dimensional ranges are closed)."""
    svals = t._induced_svals
    return float(svals.min()) if svals.size else math.inf


def alpha(t: LinearRelation) -> int:
    """Nullity: dim N(T)."""
    return t.kernel.dim


def beta(t: LinearRelation) -> int:
    """Deficiency: codim R(T) in Y."""
    return t.y_dim - t._range_dim


def alpha_prime_eps(t: LinearRelation, eps: float) -> int:
    """Largest dimension of a subspace of D(T) on which ||T x|| <= eps ||x||.

    Equals dim N(T) plus the number of singular values of the induced
    injective operator that are at most eps (min-max argument).
    """
    if not eps >= 0:
        raise ValueError("eps must be a non-negative number")
    return alpha(t) + int(np.count_nonzero(t._induced_svals <= eps))


def alpha_prime(t: LinearRelation) -> int:
    """The eps -> 0+ limit of :func:`alpha_prime_eps`.

    At finite dimension the induced operator is injective, so this always
    equals the nullity; computed through the spectral characterization
    rather than assumed.
    """
    return alpha_prime_eps(t, 0.0)


def beta_prime(t: LinearRelation) -> int:
    """alpha-prime of the adjoint; equals beta(T) (tested, not assumed)."""
    return alpha_prime(rel.adjoint(t))


@dataclass(frozen=True)
class RelativeBound:
    """Constants (sigma, tau) with ||B x|| <= sigma ||x|| + tau ||A x|| on D(A).

    ``provenance`` records how the pair was obtained: "exact" (fitted by
    :func:`fit_relative_bound`) or "supplied".
    """

    sigma: float
    tau: float
    provenance: str = "supplied"
    witness: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.tau)):
            raise ValueError("sigma and tau must be finite")
        if self.sigma < 0 or self.tau < 0:
            raise ValueError("sigma and tau must be non-negative")


def _check_standing_hypotheses(a: LinearRelation, b: LinearRelation) -> None:
    """D(B) must contain D(A) and B(0) must sit inside A(0).

    The verdict, None or the failing hypothesis with its gap, is decided
    once per pair (the second gap only when the first hypothesis holds) and
    kept in the pair's record; every call raises a fresh error from it.
    """
    record = rel._pair(a, b)
    if "hypotheses" not in record:
        verdict = None
        if not sub.contains(b.domain, a.domain):
            verdict = ("D(A) subset of D(B)", sub.gap(a.domain, b.domain))
        elif not sub.contains(a.multivalued_part, b.multivalued_part):
            verdict = ("B(0) subset of A(0)", sub.gap(b.multivalued_part, a.multivalued_part))
        record["hypotheses"] = verdict
    if record["hypotheses"] is not None:
        raise HypothesisError(*record["hypotheses"])


def _restricted_quotient_matrix(t: LinearRelation, basis: np.ndarray) -> np.ndarray:
    """Map coordinates of ``basis`` (inside D(T)) to the complement of T(0)."""
    if basis.shape[1] == 0:
        return np.zeros((t.y_dim, 0), dtype=complex)
    coeff, *_ = np.linalg.lstsq(t.graph.basis[: t.x_dim, :], basis, rcond=None)
    y = t.graph.basis[t.x_dim:, :] @ coeff
    # T(0) as spanned until ROADMAP item 5: the stability case's sigma is hashed.
    return sub.span(t._gy @ t._x_svd.null, ambient=t.y_dim).residual(y)


def _sigma_tau(a: LinearRelation, b: LinearRelation,
               tau: float) -> tuple[float, float, np.ndarray | None]:
    """sigma(tau) = sup ||B x|| - tau ||A x|| over unit x in D(A), bracketed.

    Returns the bracket's upper end (clamped at 0), the unclamped value
    ||M_b c|| - tau ||M_a c|| that the witness x = Q c attains, and the
    witness (None when D(A) = {0}); M_b, M_a are the induced operators of
    B and A on the domain basis Q of D(A).

    tau = 0: sigma is ||M_b||, its largest singular value.  tau > 0: the
    points (p, q) = (c^H H_b c, c^H H_a c), H = M^H M, c a unit vector, fill
    a convex set (Toeplitz-Hausdorff); sqrt p - tau sqrt q peaks on the arc
    exposed by the top eigenvector of cos(phi) H_b - sin(phi) H_a, phi in
    [0, pi/2] (C. R. Johnson, 1978), which at pi/2 is B's top direction on
    N(A).  On a supporting line p and q rise together and a stationary point
    is a maximum only below 0, so the corner of two exposed points' lines
    bounds the objective (clamped at 0) on the arc between them; so does
    Kato's sqrt(lambda_max(H_b - tau^2 H_a)).  The sector with the highest
    corner is halved until the best exposed point, the witness, is within
    1e-10 relative (or eps ||M_b||) of it, or it is narrower than 1e-7 rad,
    where the corner is rounding noise.
    """
    _check_standing_hypotheses(a, b)
    dom_a = a.domain.basis
    if dom_a.shape[1] == 0:
        return 0.0, 0.0, None
    mat_b = _restricted_quotient_matrix(b, dom_a)
    if tau == 0:
        _, s, vh = np.linalg.svd(mat_b)
        return float(s[0]), float(s[0]), dom_a @ vh[0].conj()
    mat_a = _restricted_quotient_matrix(a, dom_a)
    hb, ha = mat_b.conj().T @ mat_b, mat_a.conj().T @ mat_a

    def point(cs, lam, c) -> tuple:
        value = np.linalg.norm(mat_b @ c) - tau * np.linalg.norm(mat_a @ c)
        return cs, lam, float(value), c

    def exposed(cos, sin) -> tuple:
        # Angles are (cos, sin) pairs, exact at both ends; a sum bisects.
        r = math.hypot(cos, sin)
        w, v = np.linalg.eigh(cos / r * hb - sin / r * ha)
        return point((cos / r, sin / r), float(w[-1]), v[:, -1])

    def sector(e0, e1) -> tuple:
        ((c0, s0), lam0, *_), ((c1, s1), lam1, *_) = e0, e1
        det = s0 * c1 - c0 * s1
        corner = (math.sqrt(max((lam1 * s0 - lam0 * s1) / det, 0.0))
                  - tau * math.sqrt(max((lam1 * c0 - lam0 * c1) / det, 0.0)))
        return -max(corner, 0.0), s0, e0, e1

    kato = math.sqrt(max(float(np.linalg.eigvalsh(hb - tau * tau * ha)[-1]), 0.0))
    # B's top direction on N(A), where ||A x|| = 0 leaves no slack.
    ker = dom_a.conj().T @ a.kernel.basis
    top = ker @ np.linalg.svd(mat_b @ ker)[2][:1].conj().T
    first = exposed(1.0, 0.0)
    last = point((0.0, 1.0), 0.0, top[:, 0]) if top.size else exposed(0.0, 1.0)
    floor = np.finfo(float).eps * math.sqrt(max(first[1], 0.0))
    best, heap = max(first, last, key=lambda e: e[2]), [sector(first, last)]
    while True:
        neg_corner, _, e0, e1 = heap[0]
        upper, attained = min(-neg_corner, kato), best[2]
        if (upper - max(attained, 0.0) <= max(1e-10 * upper, floor)
                or math.dist(e0[0], e1[0]) < 1e-7):
            return max(upper, attained), attained, dom_a @ best[3]
        mid = exposed(e0[0][0] + e1[0][0], e0[0][1] + e1[0][1])
        best = max(best, mid, key=lambda e: e[2])
        heapq.heapreplace(heap, sector(e0, mid))
        heapq.heappush(heap, sector(mid, e1))


def fit_relative_bound(a: LinearRelation, b: LinearRelation,
                       tau: float = 0.0) -> RelativeBound:
    """Smallest sigma with ||B x|| <= sigma ||x|| + tau ||A x|| on D(A).

    sigma is the upper end of :func:`_sigma_tau`'s bracket: never below
    the supremum, apart from rounding.
    """
    if not 0 <= tau < math.inf:
        raise ValueError("tau must be finite and non-negative")
    upper, _, witness = _sigma_tau(a, b, tau)
    return RelativeBound(upper, tau, "exact", witness=witness)


def check_relative_bound(a: LinearRelation, b: LinearRelation,
                         bound: RelativeBound) -> tuple[bool, dict]:
    """Decide ||B x|| <= sigma ||x|| + tau ||A x|| + slack on D(A).

    Runs the fit's bracket at ``bound.tau``: the residual is the value its
    witness attains minus sigma, so a failure is always attained there; a
    pass leaves unverified at most the bracket's width.
    """
    _, attained, witness = _sigma_tau(a, b, bound.tau)
    residual = attained - bound.sigma
    return residual <= INEQ_SLACK, {"residual": residual, "witness": witness}


RADIUS_KINDS = {"pencil": 1, "alpha": 2, "full": 3}


def stability_radius(gamma_val: float, bound: RelativeBound, kind: str) -> float:
    """Radius gamma / (k sigma + tau gamma) for k in {1, 2, 3}.

    kind "pencil" uses k = 1 (closedness of the pencil), "alpha" k = 2
    (nullity constant), "full" k = 3 (nullity and deficiency constant;
    closed range).  gamma = inf yields 1/tau (or inf when tau = 0);
    sigma = tau = 0 yields inf (B vanishes on D(A)).
    """
    if kind not in RADIUS_KINDS:
        raise ValueError(f"unknown radius kind {kind!r}")
    if not (gamma_val > 0):
        raise ValueError("gamma must be positive or infinite")
    k = RADIUS_KINDS[kind]
    if math.isinf(gamma_val):
        return math.inf if bound.tau == 0 else 1.0 / bound.tau
    denom = k * bound.sigma + bound.tau * gamma_val
    return math.inf if denom == 0 else gamma_val / denom


def stability_radii(gamma_val: float, bound: RelativeBound) -> dict:
    """Every :func:`stability_radius`, keyed by kind in RADIUS_KINDS order."""
    return {kind: stability_radius(gamma_val, bound, kind) for kind in RADIUS_KINDS}


def finishing_bound(gamma_val: float, bound: RelativeBound,
                    abs_lambda: float) -> float | None:
    """Predicted gap bound sigma|lambda| / (gamma - |lambda|(sigma + tau gamma)).

    Returns None when the denominator is not positive.  gamma = inf is
    the totally-degenerate branch: the bound is 0 for |lambda| < 1/tau
    (all lambda when tau = 0), following the inf * 0 = 0 stipulation.
    """
    if math.isinf(gamma_val):
        if bound.tau == 0 or abs_lambda < 1.0 / bound.tau:
            return 0.0
        return None
    denom = gamma_val - abs_lambda * (bound.sigma + bound.tau * gamma_val)
    if denom <= 0:
        return None
    return bound.sigma * abs_lambda / denom
