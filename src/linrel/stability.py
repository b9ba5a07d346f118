"""Structured instance generation, pencil sweeps and stability checks.

A generated pair (A, B) satisfies the standing hypotheses exactly by
construction: B is everywhere defined and B(0) sits inside A(0).  A is
assembled from orthonormal frames for its domain, kernel, range and
multivalued part plus a well-conditioned core matrix, so the requested
nullity, deficiency, multivalued dimension and domain codimension are
hit exactly and the minimum modulus is bounded away from zero.

Theorem verifiers return "not-applicable" reports when their gates fail
(hypothesis failure is distinguished from conclusion failure; only the
latter falsifies anything).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import chains as chn
from . import metrics as met
from . import relation as rel
from . import serialize as ser
from . import subspace as sub
from .metrics import RelativeBound
from .relation import LinearRelation
from .subspace import Subspace
from .tolerances import BOUND_SLACK, MIN_MARGIN

__all__ = [
    "InstanceSpec",
    "SweepReport",
    "generate",
    "random_feasible_spec",
    "default_grid",
    "sweep",
    "verify_perturbation",
    "verify_stability",
]


@dataclass(frozen=True)
class InstanceSpec:
    """Generator parameters for one (A, B) pair.

    The four shape numbers are linked by the fiber-dimension identity
    dim D + dim A(0) = dim R + dim N, i.e.

        (x_dim - dom_codim) + mv_dim == (y_dim - beta) + alpha,

    on top of alpha + dom_codim <= x_dim and beta + mv_dim <= y_dim.
    """

    x_dim: int
    y_dim: int
    alpha: int
    beta: int
    mv_dim: int = 0
    dom_codim: int = 0
    force_nu_infinite: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.x_dim < 1 or self.y_dim < 1:
            raise ValueError("x_dim and y_dim must be at least 1")
        for name in ("alpha", "beta", "mv_dim", "dom_codim"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.alpha + self.dom_codim > self.x_dim:
            raise ValueError(
                f"infeasible: alpha + dom_codim = {self.alpha + self.dom_codim} "
                f"> x_dim = {self.x_dim}")
        if self.beta + self.mv_dim > self.y_dim:
            raise ValueError(
                f"infeasible: beta + mv_dim = {self.beta + self.mv_dim} "
                f"> y_dim = {self.y_dim}")
        lhs = (self.x_dim - self.dom_codim) + self.mv_dim
        rhs = (self.y_dim - self.beta) + self.alpha
        if lhs != rhs:
            raise ValueError(
                "infeasible: fiber-dimension identity requires "
                f"(x_dim - dom_codim) + mv_dim = {lhs} to equal "
                f"(y_dim - beta) + alpha = {rhs}")

    def to_dict(self) -> dict:
        return asdict(self)


def _sub_subspace(host: Subspace, dim: int, rng) -> Subspace:
    """Random subspace of the given host with the requested dimension."""
    if dim == 0:
        return sub.zero_subspace(host.ambient)
    g = rng.standard_normal((host.dim, dim)) + 1j * rng.standard_normal((host.dim, dim))
    return Subspace(host.ambient, host.basis @ sub.q_factor(g))


def _complement_within(host: Subspace, part: Subspace) -> Subspace:
    """Orthogonal complement of ``part`` inside ``host`` (part within host)."""
    if part.dim == 0:
        return host
    return sub.span(part.residual(host.basis), ambient=host.ambient)


def _haar_like(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r).real)


def generate(spec: InstanceSpec) -> tuple[LinearRelation, LinearRelation]:
    """Deterministic pair with the exact requested shape (verified post hoc)."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    for _ in range(64):
        pair = _generate_once(spec, rng)
        if pair is not None:
            return pair
    raise RuntimeError(f"could not realize {spec} within the attempt budget")


def _generate_once(spec, rng):
    x, y = spec.x_dim, spec.y_dim
    d = x - spec.dom_codim            # dim D(A)
    r = y - spec.beta                 # dim R(A)
    m = spec.mv_dim                   # dim A(0)
    q = d - spec.alpha                # dim of the injective core (= r - m)

    dom = sub.random_subspace(x, d, rng)
    ker = _sub_subspace(dom, spec.alpha, rng)
    dom1 = _complement_within(dom, ker)
    ran = sub.random_subspace(y, r, rng)
    mv = _sub_subspace(ran, m, rng)
    ran1 = _complement_within(ran, mv)
    if dom1.dim != q or ran1.dim != q:
        return None

    blocks = []
    if spec.alpha:
        blocks.append(np.vstack([ker.basis, np.zeros((y, spec.alpha), dtype=complex)]))
    if q:
        svals = rng.uniform(0.5, 2.0, q)
        core = _haar_like(rng, q) @ np.diag(svals) @ _haar_like(rng, q)
        blocks.append(np.vstack([dom1.basis, ran1.basis @ core]))
    if m:
        blocks.append(np.vstack([np.zeros((x, m), dtype=complex), mv.basis]))
    if blocks:
        graph = sub.span(np.hstack(blocks), ambient=x + y)
    else:
        graph = sub.zero_subspace(x + y)
    a = rel.from_graph(graph, x, y)

    # B: everywhere defined, B(0) inside A(0); optionally N(A) inside N(B).
    mb_dim = int(rng.integers(0, m + 1))
    b0 = _sub_subspace(mv, mb_dim, rng)
    w = (rng.standard_normal((y, x)) + 1j * rng.standard_normal((y, x)))
    w *= rng.uniform(0.3, 1.2) / math.sqrt(x)
    if spec.force_nu_infinite and ker.dim:
        w = w @ (np.eye(x, dtype=complex) - ker.projector)
    b_cols = [np.vstack([np.eye(x, dtype=complex), w])]
    if mb_dim:
        b_cols.append(np.vstack([np.zeros((x, mb_dim), dtype=complex), b0.basis]))
    b = rel.from_graph(sub.span(np.hstack(b_cols), ambient=x + y), x, y)

    if not _measures_match(spec, a, b):
        return None
    return a, b


def _measures_match(spec, a: LinearRelation, b: LinearRelation) -> bool:
    if a.graph.sv_near_cut or b.graph.sv_near_cut:
        return False
    if met.alpha(a) != spec.alpha or met.beta(a) != spec.beta:
        return False
    if a.multivalued_part.dim != spec.mv_dim:
        return False
    if spec.x_dim - a.domain.dim != spec.dom_codim:
        return False
    if b.domain.dim != spec.x_dim:
        return False
    if not sub.contains(a.multivalued_part, b.multivalued_part):
        return False
    if spec.force_nu_infinite and not sub.contains(b.kernel, a.kernel):
        return False
    g = met.gamma(a)
    if not (math.isinf(g) or g > MIN_MARGIN):
        return False
    return True


def random_feasible_spec(rng, max_dim: int = 8, everywhere_defined: bool = False,
                         force_nu_infinite: bool = False) -> InstanceSpec:
    """Sample a feasible InstanceSpec; beta is forced by the fiber identity.

    Shapes are drawn so feasibility is automatic (no rejection bias):
    the injective-core dimension q = dim D - alpha only needs q <= y_dim.
    Full domains dominate, but degenerate shapes (empty domain, full
    kernel, pure multivalued) are kept in the mix.
    """
    for _ in range(512):
        x = int(rng.integers(1, max_dim + 1))
        y = int(rng.integers(1, max_dim + 1))
        if everywhere_defined or rng.random() < 0.55:
            d = x
        else:
            d = int(rng.integers(0, x + 1))
        a = int(rng.integers(0, d + 1))
        if rng.random() < 0.5 and a > 0:
            a = int(rng.integers(0, min(a, 2) + 1))
        q = d - a
        if q > y:
            continue
        m = int(rng.integers(0, y - q + 1))
        if rng.random() < 0.5 and m > 0:
            m = int(rng.integers(0, min(m, 2) + 1))
        beta = y - q - m
        return InstanceSpec(x, y, a, beta, m, x - d,
                            force_nu_infinite=force_nu_infinite,
                            seed=int(rng.integers(0, 2**31)))
    raise RuntimeError("failed to sample a feasible spec")


def default_grid(radius_full: float, gamma_a: float, points: int = 64,
                 phases: int = 8) -> list[complex]:
    """lambda = 0 plus ``points`` log-spaced moduli over (0, 0.999 * radius]
    at ``phases`` equally spaced arguments.

    An infinite radius falls back to gamma(A) (or 1 when that is also
    infinite) as the modulus scale.  points = 0 gives the empty grid.
    """
    if points == 0:
        return []
    rmax = radius_full if math.isfinite(radius_full) else (
        gamma_a if math.isfinite(gamma_a) else 1.0)
    rmax *= 0.999
    moduli = np.geomspace(rmax * 1e-4, rmax, points)
    grid = [0j]
    for mdl in moduli:
        for j in range(phases):
            theta = 2.0 * math.pi * j / phases
            grid.append(complex(mdl * math.cos(theta), mdl * math.sin(theta)))
    return grid


@dataclass
class SweepReport:
    """Per-lambda metrics of the pencil A - lambda B plus predicted radii,
    its fields in the order :meth:`to_dict` writes them."""

    alpha_a: int
    beta_a: int
    gamma_a: float
    radii: dict
    bound: RelativeBound
    range_exceeds_mv: bool
    indeterminate_count: int
    degenerate_violations: int
    records: list[dict]

    def to_dict(self) -> dict:
        return {**vars(self), "radii": dict(self.radii),
                "bound": ser.bound_to_dict(self.bound)}


def sweep(a: LinearRelation, b: LinearRelation, bound: RelativeBound,
          grid: list[complex], validate_bound: bool = True) -> SweepReport:
    """Evaluate the pencil over the grid and record stability diagnostics.

    Records are aligned 1:1 with the grid.  The "inside_*" flags derive
    only from |lambda| and the radii.  A lambda point whose rank
    decisions came out near the cut is flagged indeterminate; verifiers
    exclude such points and report the exclusion count.
    ``validate_bound=False`` checks neither the bound nor the standing
    hypotheses: the caller has decided both.
    """
    if validate_bound:
        ok, worst = met.check_relative_bound(a, b, bound)
        if not ok:
            raise ValueError(
                f"relative bound (sigma={bound.sigma}, tau={bound.tau}) fails "
                f"on D(A) with residual {worst['residual']:.3e}")
    gamma_a = met.gamma(a)
    alpha_a, beta_a = met.alpha(a), met.beta(a)
    kernel_a = a.kernel
    radii = met.stability_radii(gamma_a, bound)
    range_exceeds_mv = a.range.dim > a.multivalued_part.dim

    records, gaps = [], {}  # gaps per kernel object: most points share the family's
    indeterminate = 0
    degenerate_violations = 0
    pencil = rel.pencil_family(a, b)
    for lam in grid:
        p = pencil(lam)
        kernel_p = p.kernel
        gamma_p = met.gamma(p)
        abs_lam = abs(lam)
        flags = {kind: abs_lam < radii[kind] for kind in radii}
        shaky = kernel_p.sv_near_cut  # the kernel's flag carries the graph's and the Y cut's
        if shaky:
            indeterminate += 1
        degenerate = math.isinf(gamma_p) and p.domain.dim > 0
        if (degenerate and range_exceeds_mv and not shaky
                and abs_lam < radii["pencil"] * (1 - 1e-12)):
            degenerate_violations += 1
        if kernel_p not in gaps:
            gaps[kernel_p] = sub.gap(kernel_a, kernel_p), sub.gap(kernel_p, kernel_a)
        records.append({
            "re": lam.real, "im": lam.imag,
            "alpha": met.alpha(p), "beta": met.beta(p), "gamma": gamma_p,
            "gap_fwd": gaps[kernel_p][0], "gap_bwd": gaps[kernel_p][1],
            "bound": met.finishing_bound(gamma_a, bound, abs_lam),
            "inside_pencil": flags["pencil"],
            "inside_alpha": flags["alpha"],
            "inside_full": flags["full"],
            "indeterminate": shaky,
        })
    return SweepReport(alpha_a, beta_a, gamma_a, radii, bound, range_exceeds_mv,
                       indeterminate, degenerate_violations, records)


def verify_perturbation(a: LinearRelation, b: LinearRelation) -> dict:
    """Check the additive perturbation inequalities alpha(A+B) <= alpha(A),
    beta(A+B) <= beta(A) under the one gate sigma < gamma(A).

    sigma = ||B restricted to D(A)|| is the bound fitted at tau = 0, where
    the relative form sigma + tau gamma(A) < gamma(A) reads sigma <
    gamma(A).  It subsumes the bounded form ||B|| < gamma(A), as D(A)
    inside D(B) gives sigma <= ||B||.  A standing hypothesis failing (the
    report then has no sigma) or the gate closed means not-applicable.
    """
    report: dict = {"applicable": False}
    try:
        sigma = met.fit_relative_bound(a, b).sigma
    except met.HypothesisError as exc:
        report["reason"] = str(exc)
        return report
    gamma_a = met.gamma(a)
    report["gamma_a"], report["sigma"] = gamma_a, sigma
    if not sigma < gamma_a:
        report["reason"] = "gate closed: sigma >= gamma(A)"
        return report

    s = rel.add(a, b)
    report["applicable"] = True
    report["alpha_a"], report["alpha_sum"] = met.alpha(a), met.alpha(s)
    report["beta_a"], report["beta_sum"] = met.beta(a), met.beta(s)
    report["alpha_ok"] = report["alpha_sum"] <= report["alpha_a"]
    report["beta_ok"] = report["beta_sum"] <= report["beta_a"]
    report["ok"] = report["alpha_ok"] and report["beta_ok"]
    return report


def verify_stability(a: LinearRelation, b: LinearRelation, bound: RelativeBound,
                     grid: list[complex]) -> dict:
    """Constancy of alpha and beta strictly inside the k = 3 radius, the
    one-sided alpha inequality inside the k = 1 radius, and the
    quantitative minimum-modulus lower bound.

    The one gate is nu(A:B) = inf.  The kernel containment N(A) inside
    N(B) is no second gate: it is the first test :func:`chains.nu` makes
    before it returns inf.  (The reversed containment admits the pair
    A = diag(0,1), B = I whose nullity jumps 1 -> 0 arbitrarily close to
    lambda = 0, so it cannot gate anything.)

    An applicable report carries a "gap_bound" block: gap(N(A),
    N(A - lambda B)) against the predicted bound, read off the same
    sweep.  It skips grid points whose bound denominator is not positive.
    """
    report: dict = {"applicable": False}
    try:
        met._check_standing_hypotheses(a, b)
    except met.HypothesisError as exc:
        report["reason"] = str(exc)
        return report
    nu_val = chn.nu(a, b)
    report["nu"] = nu_val
    if not math.isinf(nu_val):
        report["reason"] = "gate closed: nu(A:B) finite"
        return report
    ok, worst = met.check_relative_bound(a, b, bound)
    if not ok:
        report["reason"] = f"bound invalid (residual {worst['residual']:.3e})"
        return report
    report["applicable"] = True

    rep = sweep(a, b, bound, grid, validate_bound=False)
    margin = 1e-9
    alpha_a, beta_a, gamma_a = rep.alpha_a, rep.beta_a, rep.gamma_a
    sig, tau = bound.sigma, bound.tau
    failures = []
    excluded = 0
    for record in rep.records:
        if record["indeterminate"]:
            excluded += 1
            continue
        abs_lam = math.hypot(record["re"], record["im"])
        if abs_lam < rep.radii["full"] - margin:
            if record["alpha"] != alpha_a or record["beta"] != beta_a:
                failures.append({"lambda": complex(record["re"], record["im"]),
                                 "check": "alpha_beta_constant",
                                 "alpha": record["alpha"], "beta": record["beta"]})
            if not math.isinf(gamma_a):
                floor = gamma_a - (3 * sig + tau * gamma_a) * abs_lam
                if record["gamma"] < floor - BOUND_SLACK:
                    failures.append({"lambda": complex(record["re"], record["im"]),
                                     "check": "gamma_lower_bound",
                                     "gamma": record["gamma"], "floor": floor})
        if abs_lam < rep.radii["pencil"] - margin:
            if record["alpha"] > alpha_a:
                failures.append({"lambda": complex(record["re"], record["im"]),
                                 "check": "alpha_one_sided",
                                 "alpha": record["alpha"]})
    report["radii"] = rep.radii
    report["excluded_indeterminate"] = excluded
    report["degenerate_violations"] = rep.degenerate_violations
    report["failures"] = failures
    report["ok"] = not failures and rep.degenerate_violations == 0
    rated = [r for r in rep.records if r["bound"] is not None]
    gap_failures = [{"lambda": complex(r["re"], r["im"]), "gap": r["gap_fwd"],
                     "bound": r["bound"]}
                    for r in rated if r["gap_fwd"] > r["bound"] + BOUND_SLACK]
    report["gap_bound"] = {"checked": len(rated),
                           "skipped": len(rep.records) - len(rated),
                           "failures": gap_failures, "ok": not gap_failures}
    return report

