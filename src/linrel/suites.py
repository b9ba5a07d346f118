"""Property suites over randomly generated instances.

Each suite draws deterministic cases from (seed, index), applies every
lemma check it owns, and tallies pass / fail / not-applicable /
indeterminate per lemma.  Hypothesis failure is never a conclusion
failure: gated checks record "not_applicable", and rank decisions that
came out inside the indeterminate band record "indeterminate" and are
excluded from assertions.

Per-case randomness (sampled vectors, random test subspaces) is derived
from the case content hash, so replaying a serialized case reproduces
the verdict bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import chains as chn
from . import metrics as met
from . import relation as rel
from . import serialize as ser
from . import stability as stab
from . import subspace as sub
from .relation import LinearRelation
from .subspace import Subspace
from .tolerances import EQ_TOL, INEQ_SLACK

__all__ = ["SuiteResult", "SUITE_NAMES", "ReplayError", "run_suite", "run_replay",
           "sampled_gap", "duality_checks"]

SUITE_NAMES = ("algebra", "duality", "gap", "chains", "perturbation", "stability")

_STATUSES = ("pass", "fail", "not_applicable", "indeterminate")


@dataclass
class SuiteResult:
    name: str
    trials: int
    seed: int
    lemmas: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    instances_digest: str = ""

    @property
    def conclusion_failures(self) -> int:
        return sum(c["fail"] for c in self.lemmas.values())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "seed": self.seed,
            "conclusion_failures": self.conclusion_failures,
            "lemmas": {k: dict(v) for k, v in sorted(self.lemmas.items())},
            "instances_digest": self.instances_digest,
            "failures": self.failures,
        }


class _Recorder:
    """Tally of verdicts for one case; merged into the suite result."""

    def __init__(self):
        self.lemmas: dict[str, dict] = {}
        self.failures: list[dict] = []

    def record(self, lemma: str, status: str, detail: str = ""):
        counts = self.lemmas.setdefault(
            lemma, {s: 0 for s in _STATUSES})
        counts[status] += 1
        if status == "fail":
            self.failures.append({"lemma": lemma, "detail": detail})

    def check(self, lemma: str, ok: bool, detail: str = ""):
        self.record(lemma, "pass" if ok else "fail", detail)


def _merge(result: SuiteResult, case_payload: dict, rec: _Recorder) -> None:
    for lemma, counts in rec.lemmas.items():
        agg = result.lemmas.setdefault(lemma, {s: 0 for s in _STATUSES})
        for s in _STATUSES:
            agg[s] += counts[s]
    for f in rec.failures:
        if len(result.failures) < 8:
            result.failures.append({**f, "case": case_payload})


def _run_cases(result: SuiteResult, cases, check) -> SuiteResult:
    """Check and merge each (payload, decoded case) pair in index order.
    Each payload is encoded once; its canonical text seeds the case RNG
    and feeds the suite digest."""
    digest = hashlib.sha256()
    for payload, case in cases:
        text = ser.canonical_json(payload).encode()
        case_seed = int.from_bytes(hashlib.sha256(text).digest()[:8], "big")
        rec = _Recorder()
        check(case, rec, np.random.default_rng(case_seed))
        digest.update(text)
        _merge(result, payload, rec)
    result.instances_digest = digest.hexdigest()
    return result


# ---------------------------------------------------------------------------
# case construction

def _well_conditioned(t: LinearRelation) -> bool:
    return not (t.graph.sv_near_cut or t.domain.sv_near_cut
                or t.range.sv_near_cut or t.kernel.sv_near_cut
                or t.multivalued_part.sv_near_cut)


def _raw_pair(rng, max_dim: int = 6) -> tuple[LinearRelation, LinearRelation]:
    """Generic pair: Haar graphs of random dimension in matching spaces."""
    for _ in range(64):
        x = int(rng.integers(1, max_dim + 1))
        y = int(rng.integers(1, max_dim + 1))
        a = rel.from_graph(
            sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng), x, y)
        b = rel.from_graph(
            sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng), x, y)
        if _well_conditioned(a) and _well_conditioned(b):
            return a, b
    raise RuntimeError("failed to draw a well-conditioned raw pair")


def _pair_case(seed: int, idx: int, *, everywhere: bool = False,
               force_nu: bool = False, raw_every: int = 0) -> dict:
    """Serialized relation-pair case; families alternate deterministically."""
    rng = np.random.default_rng([seed, idx])
    if raw_every and idx % raw_every == raw_every - 1:
        a, b = _raw_pair(rng)
    else:
        spec = stab.random_feasible_spec(rng, everywhere_defined=everywhere,
                                         force_nu_infinite=force_nu)
        a, b = stab.generate(spec)
    return ser.instance_to_dict(a, b)


# ---------------------------------------------------------------------------
# duality suite

def duality_checks(t: LinearRelation) -> list[tuple[str, bool, str]]:
    """The duality lemmas for T and its adjoint, as (lemma, ok, detail)."""
    adj = rel.adjoint(t)
    aa, bt = met.alpha(adj), met.beta(t)
    na, nt = met.norm(adj), met.norm(t)
    ga, gt = met.gamma(adj), met.gamma(t)
    same_gamma = (math.isinf(ga) and math.isinf(gt)) or \
        (math.isfinite(ga) and math.isfinite(gt) and abs(ga - gt) <= EQ_TOL)
    return [
        ("null_space_a", adj.kernel.is_same(sub.annihilator(t.range)),
         "N(T') != R(T)-perp"),
        ("null_space_b", adj.multivalued_part.is_same(sub.annihilator(t.domain)),
         "T'(0) != D(T)-perp"),
        ("null_space_c", t.kernel.is_same(sub.annihilator(adj.range)),
         "N(T) != R(T')-pre-perp"),
        ("null_space_d", t.multivalued_part.is_same(sub.annihilator(adj.domain)),
         "T(0) != D(T')-pre-perp"),
        ("alpha_adjoint_equals_beta", aa == bt, f"alpha(T')={aa} beta(T)={bt}"),
        ("norm_adjoint_invariant", abs(na - nt) <= EQ_TOL, f"|T'|={na} |T|={nt}"),
        ("gamma_adjoint_invariant", same_gamma, f"gamma(T')={ga} gamma(T)={gt}"),
    ]


def _check_duality(case, rec: _Recorder, rng) -> None:
    a, b = case
    for t in (a, b):
        for lemma, ok, detail in duality_checks(t):
            rec.check(lemma, ok, detail)


# ---------------------------------------------------------------------------
# algebra suite

def _check_algebra(case, rec: _Recorder, rng) -> None:
    a, b = case
    for t in (a, b):
        rec.check("fiber_dimension",
                  t.graph.dim == t.domain.dim + t.multivalued_part.dim
                  and t.graph.dim == t.range.dim + t.kernel.dim,
                  f"graph {t.graph.dim}, dom {t.domain.dim}, mv "
                  f"{t.multivalued_part.dim}, ran {t.range.dim}, ker {t.kernel.dim}")
        inv = rel.inverse(t)
        rec.check("inverse_swaps",
                  inv.domain.is_same(t.range) and inv.kernel.is_same(t.multivalued_part),
                  "inverse domain/kernel mismatch")
        rec.check("double_inverse", rel.equals(rel.inverse(inv), t),
                  "inverse is not an involution")
        rec.check("double_adjoint", rel.equals(rel.adjoint(rel.adjoint(t)), t),
                  "adjoint is not an involution")

        m_y = sub.random_subspace(t.y_dim, int(rng.integers(0, t.y_dim + 1)), rng)
        lhs = rel.image(t, rel.preimage(t, m_y))
        rhs = sub.sum(sub.intersect(m_y, t.range), t.multivalued_part)
        rec.check("t_tinv_identity", lhs.is_same(rhs), "T T^-1(M) identity")

        m_x = sub.random_subspace(t.x_dim, int(rng.integers(0, t.x_dim + 1)), rng)
        lhs = rel.preimage(t, rel.image(t, m_x))
        rhs = sub.sum(sub.intersect(m_x, t.domain), t.kernel)
        rec.check("tinv_t_identity", lhs.is_same(rhs), "T^-1 T(M) identity")

        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lam) < 0.1:
            lam += 0.5
        rec.check("scalar_adjoint",
                  rel.equals(rel.adjoint(rel.scalar_mul(lam, t)),
                             rel.scalar_mul(lam, rel.adjoint(t))),
                  f"(lam T)' != lam T' at lam={lam}")

        # T(M + N) = T(M) + T(N) for N inside D(T).
        dom = t.domain
        n_in = stab._sub_subspace(dom, int(rng.integers(0, dom.dim + 1)), rng)
        lhs = rel.image(t, sub.sum(m_x, n_in))
        rhs = sub.sum(rel.image(t, m_x), rel.image(t, n_in))
        rec.check("image_additive", lhs.is_same(rhs), "T(M+N) != T(M)+T(N)")

        _check_affine_fiber(t, rec, rng)

    _check_pair_algebra(a, b, rec, rng)


def _random_point(host: Subspace, rng) -> np.ndarray | None:
    if host.dim == 0:
        return None
    c = rng.standard_normal(host.dim) + 1j * rng.standard_normal(host.dim)
    c /= np.linalg.norm(c)
    return host.basis @ c


def _check_affine_fiber(t: LinearRelation, rec: _Recorder, rng) -> None:
    """T(x) = y0 + T(0) as a graph slice, per the image theorem."""
    x = _random_point(t.domain, rng)
    if x is None:
        rec.record("affine_fiber", "not_applicable")
        return
    y0 = rel.particular_solution(t, x)
    mv = t.multivalued_part
    shift = _random_point(mv, rng)
    probe = np.concatenate([x, y0 if shift is None else y0 + shift])
    ok = sub.distance(probe, t.graph) <= EQ_TOL * max(1.0, np.linalg.norm(probe))
    rec.check("affine_fiber", ok, "y0 + T(0) escapes the graph slice")


def _check_pair_algebra(a, b, rec: _Recorder, rng) -> None:
    if a.x_dim != b.x_dim or a.y_dim != b.y_dim:
        rec.record("sum_domain", "not_applicable")
        return
    s = rel.add(a, b)
    rec.check("sum_domain", s.domain.is_same(sub.intersect(a.domain, b.domain)),
              "D(A+B) != D(A) ^ D(B)")
    rec.check("sum_multivalued",
              s.multivalued_part.is_same(sub.sum(a.multivalued_part,
                                                 b.multivalued_part)),
              "(A+B)(0) != A(0) + B(0)")
    # A + (-A) kills every fiber: kernel is the whole domain.
    rec.check("sum_with_negation",
              rel.add(a, rel.scalar_mul(-1.0, a)).kernel.is_same(a.domain),
              "kernel of A - A is not D(A)")

    # Adjoint of a sum, under D(S) everywhere defined and containing D(T).
    if b.domain.dim == b.x_dim:
        rec.check("adjoint_of_sum",
                  rel.equals(rel.adjoint(rel.add(a, b)),
                             rel.add(rel.adjoint(a), rel.adjoint(b))),
                  "(T+S)' != T' + S'")
    else:
        rec.record("adjoint_of_sum", "not_applicable")

    _check_difference_lemma(a, b, rec, rng)


def _check_difference_lemma(a, b, rec: _Recorder, rng) -> None:
    """Intersecting fibers differ by an element of A(0)."""
    try:
        met._check_standing_hypotheses(a, b)
    except met.HypothesisError:
        rec.record("difference_lemma", "not_applicable")
        return
    x1 = _random_point(a.domain, rng)
    if x1 is None:
        rec.record("difference_lemma", "not_applicable")
        return
    y1 = rel.particular_solution(a, x1)
    if sub.distance(y1, b.range) > EQ_TOL * max(1.0, np.linalg.norm(y1)):
        rec.record("difference_lemma", "not_applicable")
        return
    x2 = rel.particular_solution(rel.inverse(b), y1)
    s1 = _random_point(a.multivalued_part, rng)
    s2 = _random_point(b.multivalued_part, rng)
    y1p = y1 if s1 is None else y1 + s1
    y2p = y1 if s2 is None else y1 + s2
    ok = sub.distance(y1p - y2p, a.multivalued_part) <= EQ_TOL
    rec.check("difference_lemma", ok,
              "admissible fiber difference escapes A(0)")
    # x2 really is admissible: y1 sits in B(x2).
    rec.check("difference_lemma_witness",
              sub.distance(np.concatenate([x2, y1]), b.graph)
              <= EQ_TOL * max(1.0, float(np.linalg.norm(y1))),
              "constructed pair is not admissible")


# ---------------------------------------------------------------------------
# gap suite

def sampled_gap(m: Subspace, n: Subspace, rng, samples: int = 2048,
                squarings: int = 60) -> float:
    """Dense-sampling estimate of the directed gap, refined by iterated
    squaring of the residual form (independent of the production SVD path)."""
    if m.dim == 0:
        return 0.0
    resid = m.basis - n.basis @ (n.basis.conj().T @ m.basis) if n.dim else m.basis
    c = rng.standard_normal((m.dim, samples)) + 1j * rng.standard_normal((m.dim, samples))
    c /= np.linalg.norm(c, axis=0, keepdims=True)
    vals = np.linalg.norm(resid @ c, axis=0)
    best = float(vals.max())
    if best < 1e-12:
        return best
    w = resid.conj().T @ resid
    w = w / np.linalg.norm(w)
    for _ in range(squarings):
        w = w @ w
        norm_w = np.linalg.norm(w)
        if norm_w < 1e-300:
            break
        w = w / norm_w
    c_best = c[:, int(vals.argmax())]
    refined = w @ c_best
    norm_refined = np.linalg.norm(refined)
    if norm_refined > 1e-150:
        refined = refined / norm_refined
        best = max(best, float(np.linalg.norm(resid @ refined)))
    return min(1.0, best)


def _gap_case(seed: int, idx: int) -> dict:
    rng = np.random.default_rng([seed, idx])
    small = idx % 4 == 0  # oracle-eligible ambient
    ambient = int(rng.integers(1, 5 if small else 9))
    dm = int(rng.integers(0, ambient + 1))
    dn = int(rng.integers(0, ambient + 1))
    m = sub.random_subspace(ambient, dm, rng)
    if idx % 3 == 1 and dm < ambient:
        # nested family: N strictly contains M
        dn = int(rng.integers(dm + 1, ambient + 1))
        extra = sub.random_subspace(ambient, dn - dm, rng)
        n = sub.sum(m, extra)
        if n.dim < dn:
            n = sub.random_subspace(ambient, dn, rng)
    else:
        n = sub.random_subspace(ambient, dn, rng)
    return {"M": ser.subspace_to_dict(m), "N": ser.subspace_to_dict(n)}


def _decode_gap(payload: dict) -> tuple[Subspace, Subspace]:
    return ser.subspace_from_dict(payload["M"]), ser.subspace_from_dict(payload["N"])


def _check_gap(case, rec: _Recorder, rng) -> None:
    m, n = case
    delta = sub.gap(m, n)
    rec.check("gap_range", 0.0 <= delta <= 1.0, f"gap={delta}")
    rec.check("gap_self", sub.gap(m, m) <= 1e-12, "gap(M,M) != 0")
    if delta < 1 - 1e-6:
        rec.check("gap_dimension", m.dim <= n.dim,
                  f"gap={delta} but dim M={m.dim} > dim N={n.dim}")
    else:
        rec.record("gap_dimension", "not_applicable")
    if delta <= EQ_TOL:
        rec.check("gap_zero_iff_contained", sub.contains(n, m), "gap 0, not contained")
    elif delta > 1e-6:
        rec.check("gap_zero_iff_contained", not sub.contains(n, m, tol=1e-10),
                  "contained but gap positive")
    else:
        rec.record("gap_zero_iff_contained", "indeterminate")

    p = m.projector
    rec.check("projector", float(np.linalg.norm(p @ p - p)) <= 1e-10
              and float(np.linalg.norm(p - p.conj().T)) <= 1e-10,
              "projector not idempotent/self-adjoint")
    rec.check("dimension_formula",
              sub.sum(m, n).dim + sub.intersect(m, n).dim == m.dim + n.dim,
              "dim sum + dim intersect mismatch")
    rec.check("complement_involution",
              sub.orth_complement(sub.orth_complement(m)).is_same(m),
              "complement is not an involution")
    ann = sub.annihilator(m)
    rec.check("annihilator_dimension", ann.dim == m.ambient - m.dim,
              "annihilator dimension")
    rec.check("biduality", sub.annihilator(ann).is_same(m), "double annihilator")

    if m.dim < n.dim and sub.contains(n, m):
        rec.check("gap_asymmetry",
                  sub.gap(m, n) <= EQ_TOL and sub.gap(n, m) >= 1 - 1e-9,
                  "nested pair fails asymmetry witness")
    if m.ambient <= 4:
        oracle = sampled_gap(m, n, rng)
        rec.check("oracle_agreement", abs(oracle - delta) <= 1e-6,
                  f"svd gap {delta} vs sampled {oracle}")
    else:
        rec.record("oracle_agreement", "not_applicable")


# ---------------------------------------------------------------------------
# chains suite

def _chains_case(seed: int, idx: int) -> dict:
    # Alternate general pairs with everywhere-defined ones for the duality lemma.
    return _pair_case(seed, idx, everywhere=(idx % 2 == 1),
                      force_nu=(idx % 5 == 0))


def _check_chains(case, rec: _Recorder, rng) -> None:
    a, b = case
    report = chn.chain_report(a, b)
    if report.ill_conditioned:
        rec.record("chain_conditioning", "indeterminate")
        return
    m_dims = [s.dim for s in report.m_chain]
    n_dims = [s.dim for s in report.n_chain]
    strict = all(m_dims[i + 1] < m_dims[i] for i in range(len(m_dims) - 2))
    rec.check("m_chain_monotone",
              strict and all(m_dims[i + 1] <= m_dims[i]
                             for i in range(len(m_dims) - 1)),
              f"m dims {m_dims}")
    rec.check("n_chain_monotone",
              all(n_dims[i] <= n_dims[i + 1] for i in range(len(n_dims) - 1)),
              f"n dims {n_dims}")
    rec.check("stabilization_bound", report.stabilized_at <= a.x_dim + 1,
              f"stabilized at {report.stabilized_at}")
    rec.check("n1_is_kernel", report.n_chain[0].is_same(a.kernel),
              "N_1 != N(A)")
    nb = b.kernel
    da = a.domain
    rec.check("sandwich",
              all(sub.contains(s, nb) for s in report.m_chain)
              and all(sub.contains(da, s) for s in report.n_chain),
              "N(B) inside M_n / N_n inside D(A) fails")
    if sub.contains(b.kernel, a.kernel):
        rec.check("nu_sufficient_condition", math.isinf(report.nu),
                  f"N(A) inside N(B) but nu={report.nu}")
    else:
        rec.record("nu_sufficient_condition", "not_applicable")

    equiv_ok, equiv_ill = True, False
    for n in range(1, a.x_dim + 1):
        res = chn.check_equivalent_conditions(a, b, n)
        equiv_ill = equiv_ill or res["ill_conditioned"]
        equiv_ok = equiv_ok and res["all_agree"] and res["implication_holds"]
    if equiv_ill:
        rec.record("equivalent_conditions", "indeterminate")
    else:
        rec.check("equivalent_conditions", equiv_ok,
                  "conditions disagree or kappa implication fails")

    dual = chn.verify_nu_duality(a, b)
    if not dual["applicable"]:
        rec.record("nu_duality", "not_applicable")
        return
    rec.check("nu_duality_equality_m", dual["equality_m"], "M'_1 != (B N_1)-perp")
    rec.check("nu_duality_equality_nu", dual["equality_nu"],
              f"nu={dual['nu']} nu'={dual['nu_dual']}")
    rec.check("adjoint_sequences", dual["adjoint_sequences_hold"],
              "adjoint chain containments fail")


# ---------------------------------------------------------------------------
# perturbation suite

def _perturbation_case(seed: int, idx: int) -> dict:
    rng = np.random.default_rng([seed, idx])
    spec = stab.random_feasible_spec(rng)
    a, b = stab.generate(spec)
    if idx % 4 != 3:
        # scale B so one of the theorem gates opens; every fourth case
        # keeps the raw pair to exercise the not-applicable path.  The
        # scale is hashed into the digest, so gamma(A) comes from the
        # least-squares reference, not from met.gamma.
        svals = met.operator_part(a).quot_svals
        g = float(svals[-1]) if svals.size else math.inf
        nb = met.norm(b)
        if nb > 0 and math.isfinite(g):
            b = rel.scalar_mul(float(0.45 * g / nb * rng.uniform(0.5, 1.0)), b)
    return ser.instance_to_dict(a, b)


def _check_perturbation(case, rec: _Recorder, rng) -> None:
    a, b = case
    rep = stab.verify_perturbation(a, b)
    if not rep["applicable"]:
        rec.record("perturbation_inequalities", "not_applicable")
    else:
        rec.check("perturbation_inequalities", rep["ok"],
                  f"alpha {rep['alpha_sum']}>{rep['alpha_a']} or "
                  f"beta {rep['beta_sum']}>{rep['beta_a']}")

    for t in (a, b):
        x = _random_point(t.domain, rng)
        if x is None:
            rec.record("norm_upper_bound", "not_applicable")
        else:
            rec.check("norm_upper_bound",
                      met.relation_norm_at(t, x)
                      <= met.norm(t) * float(np.linalg.norm(x)) + INEQ_SLACK,
                      "||Tx|| > ||T|| ||x||")
        part = met.operator_part(t)
        if part.quot_svals.size:
            rec.check("quot_injective", float(part.quot_svals[-1]) > 0,
                      "induced operator not injective")
            g = met.gamma(t)
            inv_norm = float(np.linalg.svd(np.linalg.pinv(part.matrix_quot),
                                           compute_uv=False)[0])
            rec.check("gamma_inverse_identity", abs(g * inv_norm - 1.0) <= EQ_TOL,
                      f"gamma * ||induced^-1|| = {g * inv_norm}")
            svals = part.quot_svals
            eps_grid = sorted(rng.uniform(0, float(svals[0]) * 1.2, 4))
            values = [met.alpha_prime_eps(t, e) for e in eps_grid]
            rec.check("alpha_prime_monotone",
                      all(values[i] <= values[i + 1] for i in range(len(values) - 1))
                      and met.alpha_prime_eps(t, float(svals[-1]) * 0.5)
                      == met.alpha(t),
                      "alpha-prime not monotone or limit differs from alpha")
        else:
            rec.record("quot_injective", "not_applicable")

    # || (S+T)x || >= ||Sx|| - ||Tx|| with S = A, T = B (D(A) in D(B), B0 in A0),
    # hypotheses that the verifier has decided: its report has sigma iff they hold.
    x = _random_point(a.domain, rng) if "sigma" in rep else None
    if x is None:
        rec.record("norm_difference", "not_applicable")
    else:
        s = rel.add(a, b)
        lhs = met.relation_norm_at(s, x)
        rhs = met.relation_norm_at(a, x) - met.relation_norm_at(b, x)
        rec.check("norm_difference", lhs >= rhs - INEQ_SLACK,
                  f"||(A+B)x||={lhs} < ||Ax||-||Bx||={rhs}")


# ---------------------------------------------------------------------------
# stability suite

def _stability_case(seed: int, idx: int) -> dict:
    rng = np.random.default_rng([seed, idx])
    if idx % 3 == 2:
        # identical pair: sigma = 0, tau = 1 is an exact analytic bound
        spec = stab.random_feasible_spec(rng)
        a, _ = stab.generate(spec)
        payload = ser.instance_to_dict(a, a)
        payload["bound"] = {"sigma": 0.0, "tau": 1.0, "provenance": "supplied"}
        return payload
    spec = stab.random_feasible_spec(rng, force_nu_infinite=True)
    a, b = stab.generate(spec)
    payload = ser.instance_to_dict(a, b)
    fitted = met.fit_relative_bound(a, b, 0.0)
    payload["bound"] = ser.bound_to_dict(fitted)
    return payload


def _decode_stability(payload: dict) -> tuple:
    return (*ser.instance_from_dict(payload), ser.bound_from_dict(payload["bound"]))


def _check_stability(case, rec: _Recorder, rng) -> None:
    a, b, bound = case
    gamma_a = met.gamma(a)
    radii = {k: met.stability_radius(gamma_a, bound, k)
             for k in ("pencil", "alpha", "full")}
    rec.check("radii_ordering",
              radii["full"] <= radii["alpha"] * (1 + 1e-12)
              and radii["alpha"] <= radii["pencil"] * (1 + 1e-12),
              f"radii {radii}")
    grid = stab.default_grid(radii["full"], gamma_a, points=5, phases=4)

    srep = stab.verify_stability(a, b, bound, grid)
    if not srep["applicable"]:
        rec.record("stability_alpha_beta", "not_applicable")
        rec.record("gap_bound", "not_applicable")
    else:
        by_check: dict[str, bool] = {}
        for fail in srep["failures"]:
            by_check[fail["check"]] = True
        rec.check("stability_alpha_beta", not by_check.get("alpha_beta_constant"),
                  "alpha/beta not constant inside the k=3 radius")
        rec.check("stability_alpha_one_sided", not by_check.get("alpha_one_sided"),
                  "alpha exceeds alpha(A) inside the k=1 radius")
        rec.check("stability_gamma_floor", not by_check.get("gamma_lower_bound"),
                  "gamma(pencil) beneath the quantitative floor")
        rec.check("degenerate_dichotomy", srep["degenerate_violations"] == 0,
                  "totally degenerate pencil strictly inside the k=1 radius")
        gap_rep = srep["gap_bound"]
        rec.check("gap_bound", gap_rep["ok"],
                  f"{len(gap_rep['failures'])} grid points violate the gap bound")

    _check_eigen_condition(a, b, rec, rng)


def _check_eigen_condition(a, b, rec: _Recorder, rng) -> None:
    """x in N(A - lam B) iff the fibers A(x) and lam B(x) intersect: iff
    A x - lam B x lies in A(0) + lam B(0) = A(0), as B(0) is inside A(0)."""
    try:
        met._check_standing_hypotheses(a, b)
    except met.HypothesisError:
        rec.record("eigen_kernel_consistency", "not_applicable")
        return
    lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    p = rel.pencil(a, b, lam)
    samples = []
    kx = _random_point(p.kernel, rng)
    if kx is not None:
        samples.append(kx)
    dx = _random_point(a.domain, rng)
    if dx is not None:
        samples.append(dx)
    if not samples:
        rec.record("eigen_kernel_consistency", "not_applicable")
        return
    ok = True
    for x in samples:
        in_kernel = sub.distance(x, p.kernel) <= EQ_TOL
        ya = rel.particular_solution(a, x)
        yb = rel.particular_solution(b, x)
        resid = sub.distance(ya - lam * yb, a.multivalued_part)
        if 1e-10 < resid < 1e-6:
            rec.record("eigen_kernel_consistency", "indeterminate")
            return
        ok = ok and (in_kernel == (resid <= 1e-10))
    rec.check("eigen_kernel_consistency", ok,
              "kernel membership disagrees with fiber intersection")


# ---------------------------------------------------------------------------
# public entry points

# Each suite builds a case payload, decodes it and checks the decoded case.
_SUITES = {
    "duality": (lambda seed, i: _pair_case(seed, i, raw_every=3),
                ser.instance_from_dict, _check_duality),
    "algebra": (lambda seed, i: _pair_case(seed, i, raw_every=3),
                ser.instance_from_dict, _check_algebra),
    "gap": (_gap_case, _decode_gap, _check_gap),
    "chains": (_chains_case, ser.instance_from_dict, _check_chains),
    "perturbation": (_perturbation_case, ser.instance_from_dict, _check_perturbation),
    "stability": (_stability_case, _decode_stability, _check_stability),
}


class ReplayError(ValueError):
    """A replay case that its suite's decoders reject."""


def run_suite(name: str, trials: int, seed: int) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    build, decode, check = _SUITES[name]
    result = SuiteResult(name=name, trials=trials, seed=seed)
    payloads = (build(seed, i) for i in range(trials))
    return _run_cases(result, ((p, decode(p)) for p in payloads), check)


def run_replay(payload: dict) -> SuiteResult:
    """Re-run the named suite's checks on previously serialized cases.

    Every case is decoded before any check runs; a case that the suite's
    decoders reject raises :class:`ReplayError` naming its index.
    """
    name = payload["suite"]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    _, decode, check = _SUITES[name]
    cases = payload["cases"]
    decoded = []
    for i, case in enumerate(cases):
        try:
            decoded.append(decode(case))
        except (KeyError, ValueError, TypeError) as exc:
            raise ReplayError(f"{name} case {i}: {type(exc).__name__}: {exc}") from exc
    result = SuiteResult(name=name, trials=len(cases), seed=int(payload.get("seed", 0)))
    return _run_cases(result, zip(cases, decoded), check)
