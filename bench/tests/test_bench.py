"""Tests of the benchmark itself: tracer hygiene, repeatable counts,
failure accounting and byte-identical library output under tracing."""

import importlib

import numpy as np
import pytest

import harness
from linrel import chains as chn
from linrel import metrics as met
from linrel import serialize as ser
from linrel import stability as stab
from linrel import suites as sts
from tracer import LAYERS, Tracer, svd_flops
from workloads import (ChainsDeep, SweepN64, VerifyAll, drain, load_reference,
                       small_kernel)

KERNEL = small_kernel(1)
SWEEP_INPUTS = SweepN64.build(0)


def _module_attrs() -> dict:
    mods = [importlib.import_module(f"linrel.{name}") for name in LAYERS]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("numpy.linalg", k): getattr(np.linalg, k) for k in dir(np.linalg)})
    return snap


def _small_units() -> list:
    verify = VerifyAll.units({"jobs": [("chains", 1), ("stability", 2)]},
                             load_reference("verify-all"))
    chains = ChainsDeep.units({"pairs": [("x16-d4", ChainsDeep.build(16, 4))]},
                              load_reference("chains-deep"))
    # The bound check, the sweep's set-up and the first slice.
    sweep = SweepN64.units(SWEEP_INPUTS, load_reference("sweep-n64"))[:3]
    return verify + sweep + chains


def test_tracer_restores_every_patched_attribute():
    before = _module_attrs()
    with Tracer():
        during = _module_attrs()
        chn.nu(*stab.generate(stab.InstanceSpec(4, 4, 1, 1, seed=1)))
    patched = {k for k, v in before.items() if during[k] is not v}
    assert {("linrel.subspace", "span"), ("linrel.stability", "_generate_once"),
            ("numpy.linalg", "svd")} <= patched
    after = _module_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_counts_repeat_across_traced_runs():
    units = _small_units()
    first = harness.run_pass(units, KERNEL, Tracer())
    second = harness.run_pass(units, KERNEL, Tracer())
    assert not first["failures"] and not second["failures"]

    def counts(p):
        return ({k: v["calls"] for k, v in p["trace"]["functions"].items()},
                p["trace"]["svd_flops"])

    assert counts(first) == counts(second)
    calls = counts(first)[0]
    for name in ("lapack.svd", "subspace.span", "chains.m_chain",
                 "stability._generate_once", "suites.run_suite"):
        assert calls[name] > 0, name


def test_perturbed_output_is_counted_as_failed():
    units = _small_units()
    clean = harness.run_pass(units, KERNEL)
    assert clean["failures"] == []

    verify, chains = units[0], units[-1]

    def perturbed(steps, change):
        def run():
            out = yield from steps()
            change(out)
            return out
        return run

    def worse_verdict(res):
        counts = next(iter(res.lemmas.values()))
        counts["pass"] -= 1
        counts["not_applicable"] += 1  # a verdict moving anywhere but indeterminate

    def wrong_nu(doc):
        doc["nu"] += 1

    verify.steps = perturbed(verify.steps, worse_verdict)
    chains.steps = perturbed(chains.steps, wrong_nu)
    perturbed_pass = harness.run_pass(units, KERNEL)
    assert sorted(f["unit"] for f in perturbed_pass["failures"]) == sorted(
        [verify.label, chains.label])


def test_sweep_check_tolerances():
    ref = {f: [0.5] for f in SweepN64.FIELDS_CLOSE}
    ref.update({"alpha": [1], "beta": [1], "indeterminate": [False]})
    rec = {"alpha": 1, "beta": 1, "indeterminate": False,
           "gamma": 0.5, "gap_fwd": 0.5, "gap_bwd": 0.5}
    assert SweepN64.compare_records(ref, 0, [rec]) is None
    assert SweepN64.compare_records(ref, 0, [{**rec, "gamma": 0.5 * (1 + 1e-13)}]) is None
    assert SweepN64.compare_records(ref, 0, [{**rec, "gap_fwd": 0.5 * (1 + 1e-11)}])
    assert SweepN64.compare_records(ref, 0, [{**rec, "beta": 2}])


def test_verify_check_admits_only_moves_to_indeterminate():
    ref = {"digest": "d", "conclusion_failures": 0, "lemmas": {"l": [3, 0, 1, 0]}}
    ok = {"digest": "d", "conclusion_failures": 0, "lemmas": {"l": [2, 0, 1, 1]}}
    assert VerifyAll.compare(ref, ok) is None
    assert VerifyAll.compare(ref, {**ok, "lemmas": {"l": [2, 0, 2, 0]}})
    assert VerifyAll.compare(ref, {**ok, "digest": "e"})


def _outputs() -> list[str]:
    a, b = stab.generate(stab.InstanceSpec(6, 6, 1, 1, force_nu_infinite=True, seed=3))
    bound = met.fit_relative_bound(a, b, 0.0)
    gamma_a = met.gamma(a)
    grid = stab.default_grid(met.stability_radius(gamma_a, bound, "full"),
                             gamma_a, points=4, phases=4)
    am, bm = ChainsDeep.build(16, 4)
    return [ser.canonical_json(sts.run_suite(name, 2, 5).to_dict())
            for name in sts.SUITE_NAMES] + [
        ser.sweep_csv(stab.sweep(a, b, bound, grid).records),
        ser.canonical_json(drain(ChainsDeep.pair_steps(am, bm)))]


def test_canonical_output_identical_with_tracing():
    plain = _outputs()
    with Tracer() as tracer:
        traced = tracer.unit(_outputs)
    assert traced == plain
    assert tracer.summary()["layers"]["serialize"]["calls"] > 0


@pytest.mark.parametrize("shape, full, uv, expected", [
    ((4, 2), False, False, 4 * (4 * 4 * 4 - 4 * 8 / 3)),
    ((3, 2, 2), True, True, 3 * 4 * (4 * 4 * 2 + 8 * 2 * 4 + 9 * 8)),
])
def test_svd_flops(shape, full, uv, expected):
    assert svd_flops(shape, full, uv) == pytest.approx(expected)
