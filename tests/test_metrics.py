import gc
import math
import weakref

import numpy as np
import pytest

from linrel import metrics as met
from linrel import relation as rel
from linrel import stability as stab
from linrel import subspace as sub
from linrel.tolerances import INEQ_SLACK

from bound_oracle import ascent_sigma, sampled_sigma
from oracles import brute_alpha_prime_eps, seminorm_form


def test_relation_norm_at(e3, identity):
    ident = identity(2)
    assert abs(met.relation_norm_at(ident, [1, 0]) - 1.0) < 1e-12
    # E3 at e1: project e2 + span e1 onto the complement of span e1
    assert abs(met.relation_norm_at(e3, [1, 0]) - 1.0) < 1e-10
    assert met.relation_norm_at(e3, [0, 0]) < 1e-12
    with pytest.raises(rel.DomainError):
        met.relation_norm_at(e3, [0, 1])


def test_norm(identity):
    t = rel.from_matrix(np.diag([3.0, 0.0]))
    svd_oracle = np.linalg.svd(np.diag([3.0, 0.0]), compute_uv=False)[0]
    assert abs(met.norm(t) - svd_oracle) < 1e-12
    assert abs(met.norm(identity(3)) - 1.0) < 1e-12
    # nonzero relation with zero norm: D = {0}, T(0) = span e1
    g = sub.span(np.array([[0.0], [1.0]]))
    empty_dom = rel.from_graph(g, 1, 1)
    assert empty_dom.multivalued_part.dim == 1
    assert met.norm(empty_dom) == 0.0


def test_norm_is_zero_where_domain_inside_kernel():
    # D(T) = N(T) through a mixed graph basis: the least-squares path left
    # rounding noise (up to about 1e-16) where gamma was already +inf.
    rng = np.random.default_rng(0)
    for _ in range(20):
        k, m = sub.random_subspace(4, 3, rng).basis, sub.random_subspace(6, 2, rng).basis
        cols = np.block([[k, np.zeros((4, 2))], [np.zeros((6, 3)), m]])
        mix = sub.random_subspace(5, 5, rng).basis
        t = rel.from_graph(sub.span(cols @ mix), 4, 6)
        assert (t.domain.dim, t.kernel.dim) == (3, 3)
        assert math.isinf(met.gamma(t))
        assert met.norm(t) == 0.0


def test_norm_of_a_scaled_operator():
    # ||T|| near 1e6 with gamma near 1e-6; gamma is not checked against the
    # smallest s, which the input's own rounding moves by up to 1e-4.
    rng = np.random.default_rng(12)
    for _ in range(5):
        u, v = (sub.random_subspace(6, 6, rng).basis for _ in range(2))
        s = np.logspace(-6, 6, 6)
        rng.shuffle(s)
        t = rel.from_matrix(u @ np.diag(s) @ v.conj().T)
        assert abs(met.norm(t) - s.max()) <= 1e-13 * s.max(), met.norm(t)


def _reference_svals(t) -> np.ndarray:
    """Singular values of the least-squares reference, descending."""
    part = met.operator_part(t)
    return np.linalg.svd(part, compute_uv=False) if part.shape[1] else np.zeros(0)


def test_gamma(identity, e3):
    t = rel.from_matrix(np.diag([3.0, 0.0]))
    # operator part on the complement of the kernel maps e1 -> 3 e1
    assert abs(met.gamma(t) - 3.0) < 1e-12
    assert met.operator_part(e3).shape == (2, 1)
    assert float(_reference_svals(e3)[-1]) > 0  # induced operator injective
    assert abs(met.gamma(identity(2)) - 1.0) < 1e-12
    zero = rel.from_graph(sub.zero_subspace(4), 2, 2)
    assert math.isinf(met.gamma(zero))
    # D(T) inside N(T) through a nontrivial kernel
    allker = rel.from_matrix(np.zeros((2, 2)))
    assert math.isinf(met.gamma(allker))


def test_gamma_inverse_cross_identity(rng):
    for _ in range(10):
        spec = stab.random_feasible_spec(rng, max_dim=6)
        a, _ = stab.generate(spec)
        g = met.gamma(a)
        part = met.operator_part(a)
        if math.isinf(g):
            assert part.shape[1] == 0
            continue
        inv_norm = np.linalg.svd(np.linalg.pinv(part), compute_uv=False)[0]
        assert abs(g * inv_norm - 1.0) < 1e-8


def _cs_relations():
    """Generated relations of every shape, raw Haar graphs, and the pairs
    of the x = y = 64 sweep pool."""
    rng = np.random.default_rng(90210)
    relations = []
    # (x, y, alpha, beta, mv_dim, dom_codim): T(0) != 0, codim > 0,
    # D inside N, D = {0}, dim G > y.
    shapes = [(5, 5, 1, 1, 2, 2), (6, 4, 2, 0, 1, 1), (4, 6, 3, 4, 2, 1),
              (4, 3, 0, 3, 0, 4), (4, 3, 0, 1, 2, 4), (6, 3, 4, 0, 1, 0),
              (7, 2, 5, 0, 0, 0)]
    for x, y, al, be, mv, codim in shapes:
        for seed in range(10):
            relations.extend(stab.generate(stab.InstanceSpec(
                x, y, al, be, mv, codim, seed=seed)))
    for _ in range(100):
        relations.extend(stab.generate(stab.random_feasible_spec(rng, max_dim=8)))
    for _ in range(40):
        x, y = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        k = int(rng.integers(0, x + y + 1))
        relations.append(rel.from_graph(sub.random_subspace(x + y, k, rng), x, y))
    for seed in (101, 102, 103, 104, 105, 106):
        relations.extend(stab.generate(stab.InstanceSpec(
            64, 64, 2, 2, force_nu_infinite=True, seed=seed)))
    return relations


def test_gamma_from_cs_split_matches_operator_part():
    relations = _cs_relations()
    assert len(relations) >= 300
    seen = set()
    for t in relations:
        ref = _reference_svals(t)
        g, top = met.gamma(t), met.norm(t)
        if ref.size == 0:
            assert math.isinf(g)
            assert top == 0.0
        else:
            assert abs(g - ref[-1]) <= 1e-12 * ref[-1], (g, ref[-1])
            assert abs(top - ref[0]) <= 1e-12 * ref[0], (top, ref[0])
        assert t._induced_svals.size == ref.size
        # The counts of alpha-prime, away from the reference values.
        cuts = [0.0, 1e300]
        cuts += [math.sqrt(hi * lo) for hi, lo in zip(ref[:-1], ref[1:]) if hi > lo * 1.001]
        cuts += [ref[-1] * 0.5, ref[0] * 2.0] if ref.size else []
        for eps in cuts:
            want = met.alpha(t) + int(np.count_nonzero(ref <= eps))
            assert met.alpha_prime_eps(t, eps) == want
        seen.add(("mv" if t.multivalued_part.dim else "")
                 + (" codim" if t.domain.dim < t.x_dim else "")
                 + (" inf" if ref.size == 0 and t.domain.dim else "")
                 + (" D0" if t.domain.dim == 0 else "")
                 + (" tall" if t.graph.dim > t.y_dim else ""))
    for shape in ("mv", "codim", "inf", "D0", "tall"):
        assert any(shape in key for key in seen), (shape, seen)


def test_gamma_small_from_the_sines():
    rng = np.random.default_rng(11)
    for _ in range(5):
        u, v = (np.linalg.qr(rng.standard_normal((3, 3))
                             + 1j * rng.standard_normal((3, 3)))[0] for _ in range(2))
        m = u @ np.diag([3.0, 1.0, 1e-6]) @ v.conj().T
        smallest = np.linalg.svd(m, compute_uv=False)[-1]
        g = met.gamma(rel.from_matrix(m))
        assert abs(g - smallest) <= 1e-9 * smallest, (g, smallest)


def test_alpha_beta(diag01, identity):
    ident = identity(2)
    assert (met.alpha(ident), met.beta(ident)) == (0, 0)
    assert (met.alpha(diag01), met.beta(diag01)) == (1, 1)
    full = rel.from_graph(sub.full_space(5), 3, 2)
    assert (met.alpha(full), met.beta(full)) == (3, 0)


def test_alpha_prime_eps_frozen():
    t = rel.from_matrix(np.diag([3.0, 0.5, 0.0]))
    assert met.alpha_prime_eps(t, 0.6) == 2
    assert met.alpha_prime_eps(t, 0.4) == 1
    assert met.alpha_prime_eps(t, 100.0) == 3
    assert met.alpha_prime(t) == met.alpha(t) == 1
    with pytest.raises(ValueError):
        met.alpha_prime_eps(t, -0.1)


def test_alpha_prime_eps_refuses_nan():
    # NaN compares false with every value, so a plain "eps < 0" guard let
    # it through and alpha(T) came back.
    t = rel.from_matrix(np.diag([3.0, 0.5, 0.0]))
    with pytest.raises(ValueError, match="eps"):
        met.alpha_prime_eps(t, math.nan)
    assert met.alpha_prime_eps(t, math.inf) == 3


def test_fit_relative_bound_refuses_a_tau_that_is_not_finite():
    # A NaN or infinite tau reached the bracket's eigenvalue solver, which
    # raised LinAlgError rather than refusing the argument.
    a = rel.from_matrix(np.diag([2.0, 1.0]))
    b = rel.from_matrix(np.diag([1.0, 3.0]))
    for tau in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(ValueError, match="tau"):
            met.fit_relative_bound(a, b, tau)


def test_alpha_prime_matches_brute_force_oracle(rng):
    t = rel.from_matrix(np.diag([3.0, 0.5, 0.0]))
    assert brute_alpha_prime_eps(t, 0.6, rng) == 2
    assert brute_alpha_prime_eps(t, 0.4, rng) == 1
    # a rotated instance with a multivalued direction
    spec = stab.InstanceSpec(3, 3, alpha=1, beta=0, mv_dim=1, seed=11)
    a, _ = stab.generate(spec)
    svals = _reference_svals(a)
    eps = float(np.sqrt(svals[0] * svals[-1])) if svals.size > 1 else 0.1
    assert met.alpha_prime_eps(a, eps) == brute_alpha_prime_eps(a, eps, rng)


def test_beta_prime(diag01, identity):
    assert met.beta_prime(identity(2)) == 0
    assert met.beta_prime(diag01) == 1 == met.beta(diag01)
    full = rel.from_graph(sub.full_space(4), 2, 2)
    assert met.beta_prime(full) == 0 == met.beta(full)


def test_norm_difference_inequalities(rng):
    for _ in range(10):
        spec = stab.random_feasible_spec(rng, max_dim=5)
        a, b = stab.generate(spec)
        if a.domain.dim == 0:
            continue
        c = rng.standard_normal(a.domain.dim) + 1j * rng.standard_normal(a.domain.dim)
        x = a.domain.basis @ (c / np.linalg.norm(c))
        assert met.relation_norm_at(a, x) <= met.norm(a) * np.linalg.norm(x) + 1e-9
        s = rel.add(a, b)
        assert met.relation_norm_at(s, x) >= (met.relation_norm_at(a, x)
                                              - met.relation_norm_at(b, x)) - 1e-9


def test_duality_of_norm_and_gamma(rng):
    for _ in range(10):
        x = int(rng.integers(1, 6))
        y = int(rng.integers(1, 6))
        t = rel.from_graph(
            sub.random_subspace(x + y, int(rng.integers(0, x + y + 1)), rng), x, y)
        adj = rel.adjoint(t)
        assert abs(met.norm(adj) - met.norm(t)) < 1e-8
        ga, gt = met.gamma(adj), met.gamma(t)
        assert (math.isinf(ga) and math.isinf(gt)) or abs(ga - gt) < 1e-8
        assert met.alpha(adj) == met.beta(t)


def test_fit_relative_bound_exact(identity):
    a = rel.from_matrix(np.diag([0.0, 1.0]))
    b = identity(2)
    bound = met.fit_relative_bound(a, b, 0.0)
    assert bound.provenance == "exact"
    assert abs(bound.sigma - 1.0) < 1e-12
    same = met.fit_relative_bound(a, a, 1.0)
    assert same.provenance == "exact"
    assert same.sigma < 1e-9  # ||Ax|| <= ||Ax|| identically


def test_fit_relative_bound_hypothesis_error(identity):
    # B(0) not inside A(0)
    a = identity(2)
    g = sub.span(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    b = rel.from_graph(g, 2, 2)  # B(0) = span e2
    assert b.multivalued_part.dim == 1
    with pytest.raises(met.HypothesisError):
        met.fit_relative_bound(a, b, 0.0)


def _tau_fits():
    """The pairs of random_feasible_spec(default_rng(s)) for s in [1, 0..59]
    with D(A) != {0}, each at tau in {0.1, 0.3, 1}: 150 fits."""
    for s in [1, *range(60)]:
        a, b = stab.generate(stab.random_feasible_spec(np.random.default_rng(s)))
        if a.domain.dim:
            for tau in (0.1, 0.3, 1.0):
                yield s, tau, a, b


def test_fit_relative_bound_brackets_sigma_for_tau_positive():
    fits = 0
    for s, tau, a, b in _tau_fits():
        fits += 1
        fitted = met.fit_relative_bound(a, b, tau)
        dom = a.domain.basis
        mat_b = met._restricted_quotient_matrix(b, dom)
        mat_a = met._restricted_quotient_matrix(a, dom)
        lower, _ = ascent_sigma(mat_b, mat_a, tau)
        hb, ha = mat_b.conj().T @ mat_b, mat_a.conj().T @ mat_a
        kato = math.sqrt(max(float(np.linalg.eigvalsh(hb - tau ** 2 * ha)[-1]), 0.0))
        sigma = fitted.sigma
        assert fitted.provenance == "exact"
        assert sigma >= lower - 1e-12 * lower, (s, tau, sigma, lower)
        assert sigma <= kato + 1e-15 * kato, (s, tau, sigma, kato)
        x = fitted.witness
        attained = met.relation_norm_at(b, x) - tau * met.relation_norm_at(a, x)
        if sigma > 1e-30:
            assert attained >= sigma * (1 - 1e-7), (s, tau, sigma, attained)
    assert fits == 150


def test_fit_relative_bound_tau_positive_survives_dense_sampling():
    for s, tau, a, b in _tau_fits():
        fitted = met.fit_relative_bound(a, b, tau)
        sampled, _ = sampled_sigma(a, b, tau, 10_000, seed=s)
        assert sampled - fitted.sigma <= INEQ_SLACK, (s, tau, sampled - fitted.sigma)


def test_check_relative_bound_is_never_weaker_than_dense_sampling():
    for s, tau, a, b in _tau_fits():
        fitted = met.fit_relative_bound(a, b, tau)
        sampled, _ = sampled_sigma(a, b, tau, 10_000, seed=s)
        for factor in (1.0, 1 - 1e-7, 1 - 1e-4, 0.9):
            bound = met.RelativeBound(fitted.sigma * factor, tau)
            ok, worst = met.check_relative_bound(a, b, bound)
            where = (s, tau, factor, worst["residual"], sampled - bound.sigma)
            if factor == 1.0:
                assert ok, where  # the fitted bound passes its own check
            if sampled - bound.sigma > INEQ_SLACK:
                assert not ok, where
            x = worst["witness"]
            pointwise = (met.relation_norm_at(b, x)
                         - (bound.sigma * np.linalg.norm(x) + tau * met.relation_norm_at(a, x)))
            assert worst["residual"] == pytest.approx(pointwise, rel=1e-12, abs=1e-12), where


def _kernel_bound_pair():
    """``linrel gen --xdim 7 --ydim 4 --alpha 3 --beta 0 --seed 145186555``:
    at tau = 1 the supremum is attained on N(A), where the multi-start
    ascent stopped short (sigma = 0.918059)."""
    a, b = stab.generate(stab.InstanceSpec(7, 4, 3, 0, seed=145186555))
    top = np.linalg.svd(met._restricted_quotient_matrix(b, a.kernel.basis),
                        compute_uv=False)[0]
    return a, b, float(top)


def test_fit_relative_bound_reaches_b_on_the_kernel_of_a():
    a, b, top = _kernel_bound_pair()
    assert abs(top - 0.919487) < 1e-6
    fitted = met.fit_relative_bound(a, b, 1.0)
    assert fitted.sigma >= top


def test_check_relative_bound_samples_b_on_the_kernel_of_a():
    a, b, top = _kernel_bound_pair()
    ok, worst = met.check_relative_bound(a, b, met.RelativeBound(0.9185, 1.0))
    assert not ok
    assert worst["residual"] == pytest.approx(top - 0.9185, abs=1e-9)
    assert met.relation_norm_at(a, worst["witness"]) < 1e-9


def test_induced_svals_skip_t0_by_its_x_part_not_by_position():
    # A domain direction with a 1e-11 X part ties with T(0) in the Gy SVD;
    # dividing by T(0)'s zero X part raised a RuntimeWarning (an error here).
    t = rel.from_graph(sub.span(np.array([[1e-11, 0.0], [1.0, 0.0], [0.0, 1.0]])), 1, 2)
    g = met.gamma(t)
    assert g == pytest.approx(9.99999917e10, rel=1e-8)
    assert g == pytest.approx(met.norm(t), rel=1e-12)
    assert g == pytest.approx(_reference_svals(t)[-1], rel=1e-12)


def test_check_relative_bound(identity):
    a = rel.from_matrix(np.diag([0.0, 1.0]))
    b = identity(2)
    ok, _ = met.check_relative_bound(a, b, met.RelativeBound(1.0, 0.0))
    assert ok
    ok, worst = met.check_relative_bound(a, b, met.RelativeBound(0.5, 0.0))
    assert not ok
    assert worst["residual"] > 0.4  # witness close to e1
    ok, _ = met.check_relative_bound(a, a, met.RelativeBound(0.0, 1.0))
    assert ok


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_check_relative_bound_residual_is_pointwise(rng, tau):
    # The check must report at its witness what the one-vector norms give
    # there.
    for _ in range(6):
        spec = stab.random_feasible_spec(rng, max_dim=6)
        a, b = stab.generate(spec)
        bound = met.RelativeBound(0.3, tau)
        ok, worst = met.check_relative_bound(a, b, bound)
        x = worst["witness"]
        if x is None:
            assert a.domain.dim == 0
            continue
        pointwise = (met.relation_norm_at(b, x)
                     - (0.3 * np.linalg.norm(x) + tau * met.relation_norm_at(a, x)))
        assert worst["residual"] == pytest.approx(pointwise, rel=1e-12, abs=1e-13)
        assert ok == (worst["residual"] <= 1e-9)


def test_stability_radius_formulas():
    assert met.stability_radius(1.0, met.RelativeBound(1.0, 0.0), "full") == pytest.approx(1 / 3)
    assert met.stability_radius(1.0, met.RelativeBound(0.0, 1.0), "full") == pytest.approx(1.0)
    assert met.stability_radius(2.0, met.RelativeBound(1.0, 0.5), "pencil") == pytest.approx(1.0)
    assert met.stability_radius(2.0, met.RelativeBound(1.0, 0.5), "alpha") == pytest.approx(2 / 3)


def test_stability_radius_conventions():
    inf_bound = met.stability_radius(math.inf, met.RelativeBound(2.0, 0.5), "full")
    assert inf_bound == pytest.approx(2.0)  # 1 / tau in the limit
    assert math.isinf(met.stability_radius(math.inf, met.RelativeBound(2.0, 0.0), "full"))
    assert math.isinf(met.stability_radius(1.0, met.RelativeBound(0.0, 0.0), "full"))
    with pytest.raises(ValueError):
        met.stability_radius(0.0, met.RelativeBound(1.0, 0.0), "full")
    with pytest.raises(ValueError):
        met.stability_radius(1.0, met.RelativeBound(1.0, 0.0), "bogus")


def test_finishing_bound():
    b = met.RelativeBound(1.0, 0.5)
    assert met.finishing_bound(2.0, b, 0.5) == pytest.approx(0.5 / (2.0 - 0.5 * 2.0))
    assert met.finishing_bound(2.0, b, 1.5) is None
    assert met.finishing_bound(math.inf, b, 1.0) == 0.0
    assert met.finishing_bound(math.inf, b, 3.0) is None  # beyond 1/tau
    assert met.finishing_bound(math.inf, met.RelativeBound(1.0, 0.0), 5.0) == 0.0


def test_relative_bound_validation():
    with pytest.raises(ValueError):
        met.RelativeBound(-1.0, 0.0)
    with pytest.raises(ValueError):
        met.RelativeBound(math.inf, 0.0)


def test_cached_parts_leave_no_reference_cycle():
    # A cycle would hold the relation and its arrays until the cyclic
    # collector runs; plain reference counting must free them.
    a, b = stab.generate(stab.InstanceSpec(5, 5, alpha=1, beta=1, mv_dim=2,
                                           dom_codim=2, seed=3))
    gc.disable()
    try:
        for build in (lambda: rel.from_graph(a.graph, 5, 5),
                      lambda: rel.pencil(a, b, 0.25), lambda: rel.adjoint(b)):
            t = build()
            met.gamma(t), met.norm(t), t.kernel, t.multivalued_part
            ref = weakref.ref(t)
            del t
            assert ref() is None
    finally:
        gc.enable()


def test_seminorm_form_oracle_agrees(e3):
    h, q = seminorm_form(e3)
    # sup over the unit sphere of D equals the operator norm
    top = float(np.linalg.eigvalsh(h)[-1].real) ** 0.5
    assert abs(top - met.norm(e3)) < 1e-8
