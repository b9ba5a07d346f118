import math

import numpy as np
import pytest

from linrel import chains as chn
from linrel import metrics as met
from linrel import relation as rel
from linrel import serialize as ser
from linrel import stability as stab
from linrel import subspace as sub
from linrel import suites as sts


def test_instance_spec_validation():
    with pytest.raises(ValueError, match="alpha"):
        stab.InstanceSpec(2, 2, alpha=3, beta=1).validate()
    with pytest.raises(ValueError, match="mv"):
        stab.InstanceSpec(2, 2, alpha=0, beta=2, mv_dim=1).validate()
    with pytest.raises(ValueError, match="fiber"):
        stab.InstanceSpec(2, 2, alpha=1, beta=0).validate()
    stab.InstanceSpec(2, 2, alpha=1, beta=1).validate()


def test_generate_measured_shape():
    spec = stab.InstanceSpec(2, 2, alpha=1, beta=1, seed=7)
    a, b = stab.generate(spec)
    assert met.alpha(a) == 1 and met.beta(a) == 1
    assert a.multivalued_part.dim == 0 and a.domain.dim == 2
    assert b.domain.dim == 2
    assert sub.contains(a.multivalued_part, b.multivalued_part)


def test_generate_full_kernel_gamma_infinite():
    spec = stab.InstanceSpec(3, 2, alpha=3, beta=2, seed=1)
    a, _ = stab.generate(spec)
    assert met.alpha(a) == 3
    assert math.isinf(met.gamma(a))  # D(A) inside N(A)


def test_generate_deterministic():
    spec = stab.InstanceSpec(4, 3, alpha=2, beta=1, seed=123)
    a1, b1 = stab.generate(spec)
    a2, b2 = stab.generate(spec)
    np.testing.assert_array_equal(a1.graph.basis, a2.graph.basis)
    np.testing.assert_array_equal(b1.graph.basis, b2.graph.basis)


def test_generate_force_nu_infinite():
    spec = stab.InstanceSpec(4, 4, alpha=2, beta=2, force_nu_infinite=True, seed=3)
    a, b = stab.generate(spec)
    assert sub.contains(b.kernel, a.kernel)
    assert math.isinf(chn.nu(a, b))


def test_generate_richer_shapes():
    spec = stab.InstanceSpec(5, 6, alpha=1, beta=2, mv_dim=1, dom_codim=1, seed=21)
    a, b = stab.generate(spec)
    assert met.alpha(a) == 1 and met.beta(a) == 2
    assert a.multivalued_part.dim == 1
    assert spec.x_dim - a.domain.dim == 1
    assert sub.contains(a.multivalued_part, b.multivalued_part)
    g = met.gamma(a)
    assert g > 1e-6


def test_default_grid():
    assert stab.default_grid(1.0, 1.0, points=0) == []
    grid = stab.default_grid(1.0, 1.0, points=4, phases=8)
    assert grid[0] == 0j
    assert len(grid) == 1 + 4 * 8
    assert max(abs(z) for z in grid) <= 0.999 + 1e-12
    # infinite radius falls back to gamma, then to 1
    grid = stab.default_grid(math.inf, 2.0, points=2, phases=2)
    assert max(abs(z) for z in grid) == pytest.approx(2 * 0.999)
    grid = stab.default_grid(math.inf, math.inf, points=2, phases=2)
    assert max(abs(z) for z in grid) == pytest.approx(0.999)


def test_sweep_worked_identical_pair(diag01):
    bound = met.RelativeBound(0.0, 1.0)
    grid = stab.default_grid(1.0, 1.0, points=6, phases=8)
    rep = stab.sweep(diag01, diag01, bound, grid)
    assert rep.radii["full"] == pytest.approx(1.0)
    assert all(r["alpha"] == 1 and r["beta"] == 1 for r in rep.records)
    assert all(r["gap_fwd"] <= 1e-9 for r in rep.records)
    assert rep.degenerate_violations == 0


def test_sweep_nu_finite_counterexample(diag01, identity):
    # A = diag(0,1), B = I: nu = 1, alpha jumps 1 -> 0 off lambda = 0.
    ident = identity(2)
    bound = met.RelativeBound(1.0, 0.0)
    grid = [0j, 0.1 + 0j, 0.2j]
    rep = stab.sweep(diag01, ident, bound, grid)
    alphas = [r["alpha"] for r in rep.records]
    assert alphas == [1, 0, 0]
    assert chn.nu(diag01, ident) == 1


def test_sweep_empty_grid(diag01):
    rep = stab.sweep(diag01, diag01, met.RelativeBound(0.0, 1.0), [])
    assert rep.records == []


def test_sweep_rejects_invalid_bound(diag01, identity):
    ident = identity(2)
    with pytest.raises(ValueError, match="fails"):
        stab.sweep(diag01, ident, met.RelativeBound(0.25, 0.0), [0j])


def test_verify_perturbation_cases(diag01, identity):
    ident = identity(2)
    rep = stab.verify_perturbation(ident, rel.from_matrix(0.5 * np.eye(2)))
    assert rep["applicable"] and rep["ok"]

    b = rel.from_matrix(np.diag([0.0, 0.5]))
    rep = stab.verify_perturbation(diag01, b)
    assert rep["applicable"] and rep["ok"]
    assert rep["alpha_sum"] <= 1 and rep["beta_sum"] <= 1

    big = rel.from_matrix(5.0 * np.eye(2))
    rep = stab.verify_perturbation(diag01, big)
    assert not rep["applicable"]
    assert rep["reason"] == "gate closed: sigma >= gamma(A)"
    assert rep["sigma"] == pytest.approx(5.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sigma_gate_subsumes_the_norm_gate(seed):
    # D(A) inside D(B) gives sigma = ||B restricted to D(A)|| <= ||B||, so
    # every pair with ||B|| < gamma(A) passes the gate sigma < gamma(A).
    admitted = 0
    for i in range(200):
        a, b = ser.instance_from_dict(sts._perturbation_case(seed, i)[0])
        sigma, norm_b = met.fit_relative_bound(a, b).sigma, met.norm(b)
        assert sigma <= norm_b * (1 + 1e-12) + 1e-15, (i, sigma, norm_b)
        if norm_b < met.gamma(a):
            assert stab.verify_perturbation(a, b)["applicable"], i
            admitted += 1
    assert admitted > 100


def test_verify_gap_bound_cases(diag01, identity):
    bound = met.RelativeBound(0.0, 1.0)
    grid = stab.default_grid(1.0, 1.0, points=4, phases=4)
    gap_rep = stab.verify_stability(diag01, diag01, bound, grid)["gap_bound"]
    assert gap_rep["ok"]
    assert gap_rep["checked"] > 0

    # nu = 1 closes every gate, so no gap_bound block is reported.
    ident = identity(2)
    rep = stab.verify_stability(diag01, ident, met.RelativeBound(1.0, 0.0), grid)
    assert not rep["applicable"] and "gap_bound" not in rep
    assert rep["nu"] == 1


def test_verify_stability_cases(diag01):
    bound = met.RelativeBound(0.0, 1.0)
    grid = stab.default_grid(1.0, 1.0, points=5, phases=4)
    rep = stab.verify_stability(diag01, diag01, bound, grid)
    assert rep["applicable"] and rep["ok"]

    # empty admissible grid: vacuous pass
    rep = stab.verify_stability(diag01, diag01, bound, [])
    assert rep["applicable"] and rep["ok"]


def test_verify_stability_gate_closed(diag01, identity):
    # nu = 1 and N(A) not inside N(B): no gate admits.  The reversed
    # kernel containment would wrongly admit this very pair, whose
    # nullity jumps 1 -> 0 immediately off lambda = 0.
    ident = identity(2)
    assert chn.nu(diag01, ident) == 1
    rep = stab.verify_stability(diag01, ident, met.RelativeBound(1.0, 0.0), [0j])
    assert not rep["applicable"]
    assert rep["reason"] == "gate closed: nu(A:B) finite"


def test_verify_stability_kernel_gate_admits():
    # N(A) inside N(B) forces nu = inf, which opens the gate.
    a = rel.from_matrix(np.diag([0.0, 2.0]))
    b = rel.from_matrix(np.zeros((2, 2)))
    rep = stab.verify_stability(a, b, met.RelativeBound(0.0, 0.0),
                                [0j, 0.5 + 0.5j])
    assert rep["nu"] == math.inf and rep["applicable"] and rep["ok"]
    assert rep["gap_bound"]["ok"]


def test_verify_stability_random_instances(rng):
    for _ in range(8):
        spec = stab.random_feasible_spec(rng, max_dim=5, force_nu_infinite=True)
        a, b = stab.generate(spec)
        bound = met.fit_relative_bound(a, b, 0.0)
        radius = met.stability_radius(met.gamma(a), bound, "full")
        grid = stab.default_grid(radius, met.gamma(a), points=4, phases=4)
        rep = stab.verify_stability(a, b, bound, grid)
        assert rep["applicable"]
        assert rep["ok"], rep["failures"]
        gap_rep = rep["gap_bound"]
        assert gap_rep["ok"]


def test_radii_ordering(rng):
    for _ in range(10):
        g = float(rng.uniform(0.2, 3.0))
        bound = met.RelativeBound(float(rng.uniform(0.01, 2.0)),
                                  float(rng.uniform(0.0, 1.0)))
        rf = met.stability_radius(g, bound, "full")
        ra = met.stability_radius(g, bound, "alpha")
        rp = met.stability_radius(g, bound, "pencil")
        assert rf <= ra <= rp
    equal = met.RelativeBound(0.0, 0.7)
    assert met.stability_radius(1.5, equal, "full") == \
        met.stability_radius(1.5, equal, "pencil")


def test_sweep_report_determinism(diag01):
    from linrel import serialize as ser
    bound = met.RelativeBound(0.0, 1.0)
    grid = stab.default_grid(1.0, 1.0, points=3, phases=4)
    r1 = stab.sweep(diag01, diag01, bound, grid)
    r2 = stab.sweep(diag01, diag01, bound, grid)
    assert ser.canonical_json(r1.to_dict()) == ser.canonical_json(r2.to_dict())
