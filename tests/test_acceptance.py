"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria run the property suites at their stated instance counts and
tolerances; nothing here is calibrated after the fact.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from linrel import chains as chn
from linrel import metrics as met
from linrel import relation as rel
from linrel import serialize as ser
from linrel import stability as stab
from linrel import suites as sts

from oracles import brute_alpha_prime_eps, seminorm_form


def _verdict(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num} [{name}]: {status}{tail}")


def _counts(result, lemma):
    return result.lemmas.get(lemma, {"pass": 0, "fail": 0,
                                     "not_applicable": 0, "indeterminate": 0})


def test_criterion_1_duality_suite():
    r = sts.run_suite("duality", trials=200, seed=1)
    lemmas = ["null_space_a", "null_space_b", "null_space_c", "null_space_d",
              "alpha_adjoint_equals_beta", "norm_adjoint_invariant",
              "gamma_adjoint_invariant"]
    ok = all(_counts(r, m)["fail"] == 0 and _counts(r, m)["pass"] >= 200
             for m in lemmas)
    # the mix really contains multivalued and partial-domain relations
    mv = partial = 0
    for i in range(200):
        a, b = ser.instance_from_dict(sts._pair_case(1, i, raw_every=3)[0])
        mv += int(a.multivalued_part.dim > 0 or b.multivalued_part.dim > 0)
        partial += int(a.domain.dim < a.x_dim)
    ok = ok and mv >= 20 and partial >= 20
    _verdict(1, "duality", ok,
             f"{r.conclusion_failures} failures, {mv} multivalued, "
             f"{partial} partial-domain")
    assert ok


def test_criterion_2_algebra_suite():
    r = sts.run_suite("algebra", trials=200, seed=1)
    lemmas = ["t_tinv_identity", "tinv_t_identity", "fiber_dimension",
              "double_adjoint", "double_inverse", "adjoint_of_sum",
              "scalar_adjoint"]
    ok = r.conclusion_failures == 0 and all(
        _counts(r, m)["fail"] == 0 and _counts(r, m)["pass"] > 0 for m in lemmas)
    _verdict(2, "algebra", ok, f"{r.conclusion_failures} failures in 200 instances")
    assert ok


def test_criterion_3_gap_suite():
    r = sts.run_suite("gap", trials=500, seed=1)
    dim_cmp = _counts(r, "gap_dimension")
    oracle = _counts(r, "oracle_agreement")
    ok = (r.conclusion_failures == 0
          and dim_cmp["fail"] == 0 and dim_cmp["pass"] + dim_cmp["not_applicable"] == 500
          and oracle["fail"] == 0 and oracle["pass"] >= 50)
    _verdict(3, "gap", ok,
             f"dimension comparison on 500 pairs, oracle agreement on {oracle['pass']} pairs")
    assert ok


def test_criterion_4_chains_suite(diag01, identity):
    r = sts.run_suite("chains", trials=400, seed=1)
    equiv = _counts(r, "equivalent_conditions")
    eq_m = _counts(r, "nu_duality_equality_m")
    eq_nu = _counts(r, "nu_duality_equality_nu")
    worked = (chn.nu(diag01, identity(2)) == 1
              and math.isinf(chn.nu(diag01, diag01)))
    ok = (r.conclusion_failures == 0
          and equiv["fail"] == 0 and equiv["pass"] >= 200
          and eq_m["fail"] == 0 and eq_m["pass"] >= 200
          and eq_nu["fail"] == 0 and eq_nu["pass"] >= 200
          and worked)
    _verdict(4, "chains", ok,
             f"equivalence on {equiv['pass']}, nu-duality on {eq_nu['pass']} "
             f"everywhere-defined instances, worked nu values "
             f"{'ok' if worked else 'bad'}")
    assert ok


def test_criterion_5_perturbation_suite():
    r = sts.run_suite("perturbation", trials=240, seed=1)
    c = _counts(r, "perturbation_inequalities")
    na_rate = c["not_applicable"] / 240
    ok = (r.conclusion_failures == 0 and c["fail"] == 0 and c["pass"] >= 200)
    _verdict(5, "perturbation", ok,
             f"{c['pass']} applicable instances, "
             f"not-applicable rate {na_rate:.1%}")
    assert ok


def test_criterion_6_stability_suite(diag01):
    r = sts.run_suite("stability", trials=200, seed=1)
    ab = _counts(r, "stability_alpha_beta")
    gb = _counts(r, "gap_bound")
    gf = _counts(r, "stability_gamma_floor")
    ok = (r.conclusion_failures == 0
          and ab["fail"] == 0 and ab["pass"] == 200
          and gb["fail"] == 0 and gb["pass"] == 200
          and gf["fail"] == 0 and gf["pass"] == 200)

    # worked instance A = B = diag(0, 1): alpha = beta = 1 across 8 phases
    bound = met.RelativeBound(0.0, 1.0)
    grid = stab.default_grid(1.0, 1.0, points=8, phases=8)
    assert max(abs(z) for z in grid) == pytest.approx(0.999)
    rep = stab.sweep(diag01, diag01, bound, grid)
    worked = (all(rec["alpha"] == 1 and rec["beta"] == 1 for rec in rep.records)
              and rep.radii["full"] == pytest.approx(1.0))
    ok = ok and worked
    _verdict(6, "stability", ok,
             f"alpha/beta constant on {ab['pass']} nu-infinite instances, "
             f"gap bound on {gb['pass']}, gamma floor on {gf['pass']}, "
             f"worked diag(0,1) {'ok' if worked else 'bad'}")
    assert ok


def test_criterion_7_alpha_prime_oracle_equivalence():
    rng = np.random.default_rng(2024)
    matched = 0
    attempts = 0
    while matched < 50 and attempts < 400:
        attempts += 1
        spec = stab.random_feasible_spec(rng, max_dim=3)
        a, _ = stab.generate(spec)
        if a.domain.dim == 0:
            continue
        h, _ = seminorm_form(a)
        evs = np.sqrt(np.clip(np.linalg.eigvalsh(h).real, 0.0, None))
        levels = sorted(set(np.round(evs, 9)))
        candidates = [0.5 * levels[0] if levels[0] > 0 else None]
        candidates += [math.sqrt(levels[i] * levels[i + 1])
                       if levels[i] > 0 else 0.5 * levels[i + 1]
                       for i in range(len(levels) - 1)]
        candidates += [levels[-1] * 1.5 + 0.1]
        usable = [c for c in candidates
                  if c is not None and all(abs(c - l) > 0.1 * max(1.0, l)
                                           for l in levels)]
        if not usable:
            continue
        eps = float(usable[int(rng.integers(0, len(usable)))])
        spectral = met.alpha_prime_eps(a, eps)
        brute = brute_alpha_prime_eps(a, eps, rng)
        assert spectral == brute, (
            f"mismatch at eps={eps}: spectral {spectral} vs brute {brute} "
            f"(levels {levels})")
        matched += 1
    ok = matched >= 50
    _verdict(7, "alpha-prime oracle", ok, f"{matched} exact integer matches")
    assert ok


def test_criterion_8_reproducibility(tmp_path):
    outs = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "linrel.cli", "verify", "--suite", "all",
             "--trials", "200", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    doc = json.loads(outs[0])
    ok = identical and doc["conclusion_failures"] == 0
    _verdict(8, "reproducibility", ok,
             f"two verify-all runs exit 0, byte-identical: {identical}")
    assert ok
