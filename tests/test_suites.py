import math

import numpy as np
import pytest

from linrel import metrics as met
from linrel import serialize as ser
from linrel import subspace as sub
from linrel import suites as sts


def test_suite_names_cover_cli_surfaces():
    assert set(sts.SUITE_NAMES) == {"algebra", "duality", "gap", "chains",
                                    "perturbation", "stability"}


@pytest.mark.parametrize("name", sts.SUITE_NAMES)
def test_each_suite_small_run_clean(name):
    r = sts.run_suite(name, trials=8, seed=3)
    assert r.conclusion_failures == 0, r.failures
    assert r.lemmas  # something was actually checked
    assert len(r.instances_digest) == 64


def test_each_case_is_encoded_once(monkeypatch):
    encoded = {"calls": 0}
    real = ser.canonical_json

    def counted(*args, **kwargs):
        encoded["calls"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ser, "canonical_json", counted)
    per_suite = {}
    for name in sts.SUITE_NAMES:
        before = encoded["calls"]
        sts.run_suite(name, trials=3, seed=5)
        per_suite[name] = encoded["calls"] - before
    assert per_suite == {name: 3 for name in sts.SUITE_NAMES}


def test_suite_determinism():
    a = sts.run_suite("stability", trials=6, seed=9)
    b = sts.run_suite("stability", trials=6, seed=9)
    assert ser.canonical_json(a.to_dict()) == ser.canonical_json(b.to_dict())


def test_replay_reproduces_cases():
    cases = [sts._gap_case(7, i) for i in range(5)]
    replay = sts.run_replay({"suite": "gap", "seed": 7, "cases": cases})
    assert replay.conclusion_failures == 0
    again = sts.run_replay({"suite": "gap", "seed": 7, "cases": cases})
    assert ser.canonical_json(replay.to_dict()) == ser.canonical_json(again.to_dict())


def test_sampled_gap_oracle_known_values(rng):
    e1 = sub.span(np.eye(2)[:, [0]])
    diag = sub.span(np.array([[1.0], [1.0]]) / math.sqrt(2))
    assert abs(sts.sampled_gap(e1, diag, rng) - math.sqrt(2) / 2) < 1e-9
    assert sts.sampled_gap(sub.zero_subspace(3), e1, rng) == 0.0
    m = sub.random_subspace(4, 2, rng)
    assert sts.sampled_gap(m, m, rng) < 1e-9
    n = sub.random_subspace(4, 3, rng)
    assert abs(sts.sampled_gap(m, n, rng) - sub.gap(m, n)) < 1e-9


def test_case_families_cover_degenerate_shapes():
    mv = partial = 0
    for i in range(60):
        a, b = ser.instance_from_dict(sts._pair_case(1, i, raw_every=3))
        if a.multivalued_part.dim > 0:
            mv += 1
        if a.domain.dim < a.x_dim:
            partial += 1
    assert mv >= 5, "multivalued instances missing from the mix"
    assert partial >= 5, "partial-domain instances missing from the mix"


def test_case_payloads_do_not_read_gamma(monkeypatch):
    # A case payload is hashed into instances_digest, so a last-bit change
    # in gamma must not reach it.
    def build_all():
        return [ser.canonical_json(build(1, i))
                for build, *_ in sts._SUITES.values() for i in range(8)]

    before = build_all()
    real = met.gamma
    monkeypatch.setattr(met, "gamma", lambda t: real(t) * (1 + 1e-13))
    assert build_all() == before
