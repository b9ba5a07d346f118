"""LAPACK call budgets of the pencil sweep and of the relative-bound check.

``numpy.linalg.svd`` and ``lstsq`` are wrapped to count calls.  One lambda
point of a sweep may cost one SVD of the y x r block Z of the pencil's CS
form, the kernel span and two gaps: 4 SVDs, none with more than y_dim
rows, and no least-squares solve.  The domain D(A) ^ D(B) is the pencil
family's, computed once.  The SVD of the graph's Y block comes in closed
form with the graph, and gamma reads the induced operator's singular
values off it, so range and gamma add no call of their own.

The chain reports of one pair build its M and N chains once, and
``verify_nu_duality`` builds those of the adjoint pair once more.  Its
annihilator targets read the images the chain steps kept, so it computes
only the images of the two chains' last entries anew.

The relative-bound check solves for B's induced operator on D(A), and for
A's when tau > 0, from one least-squares call each.

One stability-suite case checks the relative bound once, computes nu once
and builds two pencil families: one for the sweep that both the stability
and the gap-bound verdicts read, one for the eigen-condition check.  It
decides the standing hypotheses three times: in the verifier, in the
bound check and in the eigen-condition check, which reads A(0) as
A(0) + lambda B(0) and maps no subspace.  The perturbation verifier's one
gate reads the fitted sigma, and ||B|| not at all.

``linrel analyze`` and ``linrel sweep`` run the sigma(tau) bracket once:
the bound they fit holds by construction and is not checked again.
"""

from collections import Counter

import numpy as np
import pytest

from linrel import chains as chn
from linrel import cli
from linrel import metrics as met
from linrel import relation as rel
from linrel import serialize as ser
from linrel import stability as stab
from linrel import subspace as sub
from linrel import suites as sts

from test_chains import _deep_pair


@pytest.fixture
def calls(monkeypatch):
    counts = {"svd": 0, "lstsq": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def _fresh_pair():
    """Pair, exact bound and grid as ``linrel sweep`` has them, with
    relations rebuilt from their graphs so that no cache is warm."""
    spec = stab.InstanceSpec(8, 8, alpha=2, beta=2, force_nu_infinite=True, seed=101)
    a, b = stab.generate(spec)
    bound = met.fit_relative_bound(a, b, 0.0)
    gamma_a = met.gamma(a)
    grid = stab.default_grid(met.stability_radius(gamma_a, bound, "full"), gamma_a,
                             points=2, phases=4)
    a, b = (rel.from_graph(t.graph, 8, 8) for t in (a, b))
    return a, b, bound, grid


def _counted(calls, fn) -> dict:
    before = dict(calls)
    fn()
    return {k: calls[k] - before[k] for k in calls}


def test_sweep_lambda_point_budget(calls, monkeypatch):
    a, b, bound, grid = _fresh_pair()
    rows, counted = Counter(), np.linalg.svd

    def svd(m, *args, **kwargs):
        rows[m.shape[0]] += 1
        return counted(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    stab.sweep(a, b, bound, [], validate_bound=False)  # cache A's parts
    rows.clear()
    setup = _counted(calls, lambda: stab.sweep(a, b, bound, [], validate_bound=False))
    setup_rows = Counter(rows)
    total = _counted(calls, lambda: stab.sweep(a, b, bound, grid, validate_bound=False))
    per_point = {k: (total[k] - setup[k]) / len(grid) for k in total}
    assert per_point["svd"] <= 4 and per_point["lstsq"] == 0, per_point
    in_loop = rows - setup_rows - setup_rows  # both runs did the set-up
    assert sum(in_loop.values()) == per_point["svd"] * len(grid)
    assert max(in_loop) <= a.y_dim, in_loop


def test_pencil_domain_is_computed_once_per_family(calls):
    a, b, _, grid = _fresh_pair()
    family = rel.pencil_family(a, b)
    pencils = [family(lam) for lam in grid]
    used = _counted(calls, lambda: [p.domain for p in pencils])
    assert used == {"svd": 0, "lstsq": 0}, used
    assert all(p.domain is pencils[0].domain for p in pencils)


def test_gamma_reads_the_cached_splits(calls):
    a, b, _, grid = _fresh_pair()
    for t in (a, b, rel.pencil(a, b, grid[-1]), rel.adjoint(a)):
        _ = t._y_svd, t.domain  # warm the two cached splits
        used = _counted(calls, lambda: met.gamma(t))
        assert used == {"svd": 0, "lstsq": 0}, used
    family = rel.pencil_family(a, b)
    for lam in grid:
        p = family(lam)
        used = _counted(calls, lambda: (p.range, met.gamma(p)))
        assert used == {"svd": 0, "lstsq": 0}, used
        used = _counted(calls, lambda: p.kernel)  # its span, no Gy SVD
        assert used["svd"] <= 1 and used["lstsq"] == 0, used


def test_check_relative_bound_budget(calls):
    for tau, lstsq in ((0.0, 1), (0.5, 2)):
        a, b, bound, _ = _fresh_pair()
        bound = met.RelativeBound(bound.sigma, tau)
        used = _counted(calls, lambda: met.check_relative_bound(a, b, bound))
        assert used["lstsq"] <= lstsq, (tau, used)


def test_chain_builds_once_per_pair(monkeypatch):
    built = {"m_chain": 0, "n_chain": 0}
    for name in built:
        real = getattr(chn, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(chn, name, counted)
    spec = stab.InstanceSpec(6, 6, alpha=2, beta=2, seed=7)
    a, b = stab.generate(spec)
    chn.chain_report(a, b)
    for n in range(1, a.x_dim + 1):
        chn.check_equivalent_conditions(a, b, n)
    assert chn.verify_nu_duality(a, b)["applicable"]
    assert built == {"m_chain": 2, "n_chain": 2}, built


def test_nu_duality_reads_the_kept_images(monkeypatch):
    a, b = _deep_pair(7, 5, seed=3)
    chn.chain_report(a, b)
    real, seen = rel.image, []

    def counted(t, m):
        seen.extend(name for name, u in (("a", a), ("b", b)) if t is u)
        return real(t, m)

    monkeypatch.setattr(rel, "image", counted)
    assert chn.verify_nu_duality(a, b)["adjoint_sequences_hold"]
    assert len(seen) <= 2, seen
    seen.clear()  # every annihilator target is memoised
    assert chn.verify_nu_duality(a, b)["adjoint_sequences_hold"]
    assert seen == [], seen


def _count_calls(monkeypatch, targets) -> dict:
    """Wrap each (module, name) of ``targets`` to count its calls."""
    used = {name: 0 for _, name in targets}
    for module, name in targets:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            used[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return used


def test_stability_case_budget(monkeypatch):
    case = sts._decode_stability(sts._stability_case(1, 0))
    used = _count_calls(monkeypatch, (
        (met, "check_relative_bound"), (chn, "nu"), (rel, "pencil_family"),
        (met, "_check_standing_hypotheses"), (sub, "apply_map")))
    rec = sts._Recorder()
    sts._check_stability(case, rec, np.random.default_rng(0))
    assert rec.lemmas["gap_bound"]["pass"] == 1, rec.lemmas
    assert used == {"check_relative_bound": 1, "nu": 1, "pencil_family": 2,
                    "_check_standing_hypotheses": 3, "apply_map": 0}, used


def test_perturbation_verifier_reads_no_norm(monkeypatch):
    a, b = ser.instance_from_dict(sts._perturbation_case(1, 0))
    used = _count_calls(monkeypatch, ((met, "norm"),))
    assert stab.verify_perturbation(a, b)["applicable"]
    assert used == {"norm": 0}, used


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "inst.json"
    assert cli.main(["gen", "--xdim", "16", "--ydim", "16", "--alpha", "2",
                     "--beta", "2", "--force-nu-infinite", "--seed", "101",
                     "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_fitted_bound_runs_the_bracket_once(monkeypatch, tmp_path, instance_file,
                                            command):
    used = _count_calls(monkeypatch, ((met, "_sigma_tau"),))
    out = ["--out", str(tmp_path / "out")]
    assert cli.main([command, str(instance_file), "--tau", "0.3", *out]) == 0
    assert used == {"_sigma_tau": 1}, used
