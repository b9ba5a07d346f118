"""Quotient-seminorm machinery for linear relations.

The value norm ||T x|| is the distance of any particular solution to
T(0); the operator norm and the minimum modulus are the extreme singular
values of the induced operator obtained by projecting particular
solutions onto the orthogonal complement of T(0).  This realizes the
quotient map without forming quotient spaces: for the Euclidean norm,
Y / T(0) is isometric to the complement of T(0).

Conventions for degenerate relations:
  * D(T) = {0}: the norm is 0 (sup over an empty unit ball).
  * D(T) inside N(T): gamma is +inf, and inf * 0 = 0 wherever the
    product appears in radius formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import relation as rel
from . import subspace as sub
from .relation import LinearRelation
from .tolerances import EQ_TOL, INEQ_SLACK

__all__ = [
    "OperatorPart",
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
    "graph_norm_at",
    "fit_relative_bound",
    "check_relative_bound",
    "stability_radius",
    "finishing_bound",
    "RADIUS_KINDS",
]


class HypothesisError(ValueError):
    """A standing hypothesis (domain or multivalued-part containment) fails."""

    def __init__(self, which: str, gap_value: float):
        super().__init__(f"hypothesis violated: {which} (containment gap {gap_value:.3e})")
        self.which = which
        self.gap_value = gap_value


@dataclass(frozen=True, eq=False)
class OperatorPart:
    """The injective operator induced by a relation.

    ``matrix_quot`` maps coordinates of D(T) ^ N(T)-perp (columns of
    ``quot_dom_basis``) to the complement of T(0); it is injective
    whenever that subdomain is nonzero.
    """

    quot_dom_basis: np.ndarray
    matrix_quot: np.ndarray

    @cached_property
    def quot_svals(self) -> np.ndarray:
        if self.matrix_quot.shape[1] == 0:
            return np.zeros(0)
        return np.linalg.svd(self.matrix_quot, compute_uv=False)


def operator_part(t: LinearRelation) -> OperatorPart:
    """Build (and cache on the relation) the induced operator data."""
    cached = t.__dict__.get("_operator_part")
    if cached is not None:
        return cached
    dom = t.domain
    ker = t.kernel
    # N(T) sits inside D(T), so D ^ N-perp is the complement of N within D.
    quot = sub.span(ker.residual(dom.basis), ambient=t.x_dim)
    part = OperatorPart(quot.basis, _restricted_quotient_matrix(t, quot.basis))
    t.__dict__["_operator_part"] = part
    return part


def relation_norm_at(t: LinearRelation, x) -> float | np.ndarray:
    """||T x||: distance of any particular solution to T(0); a matrix
    ``x`` gives the value at each column from one least-squares solve."""
    y = rel.particular_solution(t, x)
    r = t.multivalued_part.residual(y)
    return np.linalg.norm(r, axis=0) if r.ndim == 2 else float(np.linalg.norm(r))


def norm(t: LinearRelation) -> float:
    """||T||: supremum of ||T x|| over the unit ball of D(T); 0 if D = {0}."""
    dom = t.domain.basis
    if dom.shape[1] == 0:
        return 0.0
    full = _restricted_quotient_matrix(t, dom)
    return float(np.linalg.svd(full, compute_uv=False)[0])


def gamma(t: LinearRelation) -> float:
    """Minimum modulus: +inf when D(T) is inside N(T), else the smallest
    singular value of the induced injective operator (strictly positive
    because finite-dimensional ranges are closed)."""
    part = operator_part(t)
    if part.quot_dom_basis.shape[1] == 0:
        return math.inf
    return float(part.quot_svals[-1])


def alpha(t: LinearRelation) -> int:
    """Nullity: dim N(T)."""
    return t.kernel.dim


def beta(t: LinearRelation) -> int:
    """Deficiency: codim R(T) in Y."""
    return t.y_dim - t.range.dim


def alpha_prime_eps(t: LinearRelation, eps: float) -> int:
    """Largest dimension of a subspace of D(T) on which ||T x|| <= eps ||x||.

    Equals dim N(T) plus the number of singular values of the induced
    injective operator that are at most eps (min-max argument).
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    part = operator_part(t)
    return alpha(t) + int(np.count_nonzero(part.quot_svals <= eps))


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


def graph_norm_at(t: LinearRelation, x) -> float:
    """||x|| + ||T x|| for x in D(T)."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    return float(np.linalg.norm(x)) + relation_norm_at(t, x)


@dataclass(frozen=True)
class RelativeBound:
    """Constants (sigma, tau) with ||B x|| <= sigma ||x|| + tau ||A x|| on D(A).

    ``provenance`` records how the pair was obtained: "exact" (tau = 0,
    spectral), "heuristic" (tau > 0, multi-start ascent; ``sigma_upper``
    then carries the certified tau = 0 cap), or "supplied".
    """

    sigma: float
    tau: float
    provenance: str = "supplied"
    witness: np.ndarray | None = field(default=None, compare=False)
    sigma_upper: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.tau)):
            raise ValueError("sigma and tau must be finite")
        if self.sigma < 0 or self.tau < 0:
            raise ValueError("sigma and tau must be non-negative")
        if self.provenance == "exact" and self.tau != 0:
            raise ValueError("exact bounds have tau = 0")


def _check_standing_hypotheses(a: LinearRelation, b: LinearRelation) -> None:
    """D(B) must contain D(A) and B(0) must sit inside A(0)."""
    g = sub.gap(a.domain, b.domain)
    if g > EQ_TOL:
        raise HypothesisError("D(A) subset of D(B)", g)
    g = sub.gap(b.multivalued_part, a.multivalued_part)
    if g > EQ_TOL:
        raise HypothesisError("B(0) subset of A(0)", g)


def _restricted_quotient_matrix(t: LinearRelation, basis: np.ndarray) -> np.ndarray:
    """Map coordinates of ``basis`` (inside D(T)) to the complement of T(0)."""
    if basis.shape[1] == 0:
        return np.zeros((t.y_dim, 0), dtype=complex)
    coeff, *_ = np.linalg.lstsq(t.graph.basis[: t.x_dim, :], basis, rcond=None)
    y = t.graph.basis[t.x_dim:, :] @ coeff
    return t.multivalued_part.residual(y)


def fit_relative_bound(a: LinearRelation, b: LinearRelation, tau: float = 0.0,
                       seed: int = 0) -> RelativeBound:
    """Smallest sigma with ||B x|| <= sigma ||x|| + tau ||A x|| on D(A).

    tau = 0 is exact: sigma is the largest singular value of B's induced
    operator restricted to D(A).  tau > 0 maximizes the residual
    (||B x|| - tau ||A x||) over the unit sphere of D(A) by projected
    gradient ascent from B's top and A's bottom singular direction and 32
    random starts drawn from ``seed``; the result is a heuristic lower
    envelope and carries the certified tau = 0 value as ``sigma_upper``.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    _check_standing_hypotheses(a, b)
    dom_a = a.domain.basis
    mat_b = _restricted_quotient_matrix(b, dom_a)
    if dom_a.shape[1] == 0:
        return RelativeBound(0.0, tau, "exact" if tau == 0 else "heuristic",
                             witness=None, sigma_upper=None if tau == 0 else 0.0)
    u, s, vh = np.linalg.svd(mat_b)
    sigma0 = float(s[0]) if s.size else 0.0
    top = dom_a @ vh[0].conj() if s.size else dom_a[:, 0]
    if tau == 0:
        return RelativeBound(sigma0, 0.0, "exact", witness=top)

    mat_a = _restricted_quotient_matrix(a, dom_a)
    d = dom_a.shape[1]
    hb = mat_b.conj().T @ mat_b
    ha = mat_a.conj().T @ mat_a

    def value(c: np.ndarray) -> float:
        nb = math.sqrt(max(0.0, float((c.conj() @ hb @ c).real)))
        na = math.sqrt(max(0.0, float((c.conj() @ ha @ c).real)))
        return nb - tau * na

    def ascend(c: np.ndarray) -> tuple[float, np.ndarray]:
        c = c / np.linalg.norm(c)
        best = value(c)
        step = 0.5
        for _ in range(200):
            nb = math.sqrt(max(float((c.conj() @ hb @ c).real), 1e-30))
            na = math.sqrt(max(float((c.conj() @ ha @ c).real), 1e-30))
            grad = hb @ c / nb - tau * (ha @ c) / na
            # project onto the tangent space of the sphere
            grad = grad - (c.conj() @ grad) * c
            if np.linalg.norm(grad) < 1e-14:
                break
            cand = c + step * grad
            cand = cand / np.linalg.norm(cand)
            v = value(cand)
            if v > best + 1e-15:
                best, c = v, cand
                step = min(1.0, step * 1.3)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        return best, c

    rng = np.random.default_rng(seed)
    candidates = [vh[0].conj()]
    if mat_a.size:
        va = np.linalg.svd(mat_a)[2]
        candidates.append(va[-1].conj())
    for _ in range(32):
        candidates.append(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    best_val, best_c = -math.inf, None
    for c0 in candidates:
        v, c = ascend(np.asarray(c0, dtype=complex))
        if v > best_val:
            best_val, best_c = v, c
    return RelativeBound(max(0.0, best_val), tau, "heuristic",
                         witness=dom_a @ best_c, sigma_upper=sigma0)


def check_relative_bound(a: LinearRelation, b: LinearRelation,
                         bound: RelativeBound, trials: int = 64,
                         seed: int = 0) -> tuple[bool, dict]:
    """Sample the inequality ||B x|| <= sigma ||x|| + tau ||A x|| + slack.

    Samples ``trials`` random unit vectors of D(A) plus the singular
    directions of both restricted induced operators.  Returns the verdict
    and the worst-residual witness.
    """
    _check_standing_hypotheses(a, b)
    dom_a = a.domain.basis
    d = dom_a.shape[1]
    if d == 0:
        return True, {"residual": 0.0, "witness": None}
    # Trial k's real then imaginary part: one standard_normal(d) per part.
    draw = np.random.default_rng(seed).standard_normal((trials, 2, d))
    coords = [(draw[:, 0] + 1j * draw[:, 1]).T]
    for m in (_restricted_quotient_matrix(b, dom_a),
              _restricted_quotient_matrix(a, dom_a)):
        if m.size:
            coords.append(np.linalg.svd(m)[2].conj().T)
    coords = np.hstack(coords)
    nc = np.linalg.norm(coords, axis=0)
    keep = nc >= 1e-14
    xs = dom_a @ (coords[:, keep] / nc[keep])
    # tau = 0 adds 0 to every right-hand side; A's values are not needed.
    rhs = bound.sigma * np.linalg.norm(xs, axis=0) + (
        bound.tau * relation_norm_at(a, xs) if bound.tau else 0.0)
    residual = relation_norm_at(b, xs) - rhs
    i = int(np.argmax(residual))
    worst = {"residual": float(residual[i]), "witness": xs[:, i].copy()}
    return not bool(np.any(residual > INEQ_SLACK)), worst


RADIUS_KINDS = {"pencil": 1, "alpha": 2, "full": 3, "range": 3}


def stability_radius(gamma_val: float, bound: RelativeBound, kind: str) -> float:
    """Radius gamma / (k sigma + tau gamma) for k in {1, 2, 3}.

    kind "pencil" uses k = 1 (closedness of the pencil), "alpha" k = 2
    (nullity constant), "full" and "range" k = 3 (nullity and deficiency
    constant; closed range).  gamma = inf yields 1/tau (or inf when
    tau = 0); sigma = tau = 0 yields inf (B vanishes on D(A)).
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
