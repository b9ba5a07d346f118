import hashlib
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


_STATUSES = ("pass", "fail", "not_applicable", "indeterminate")


def _synthetic_verdicts(i):
    """Case i's (lemma, status, detail) verdicts: passes, not-applicables,
    indeterminates and two or three failures, four cases giving ten."""
    verdicts = [("always", "pass", ""), (f"lemma_{i % 3}", "fail", f"case {i}, first"),
                ("gated", "not_applicable" if i % 2 else "pass", ""),
                ("late", "fail", f"case {i}, second")]
    if i % 2 == 0:
        verdicts += [("band", "indeterminate", ""), ("always", "fail", f"case {i}, third")]
    return verdicts


def _synthetic_check(case, rec, rng):
    for lemma, status, detail in _synthetic_verdicts(case):
        if status in ("pass", "fail"):
            rec.check(lemma, status == "pass", detail)
        else:
            rec.record(lemma, status, detail)


def _tally_then_merge(cases) -> sts.SuiteResult:
    """The reference: each case tallied on its own, then merged into the
    suite result in case order, at most eight failures kept."""
    result = sts.SuiteResult("synthetic", len(cases), 0)
    digest = hashlib.sha256()
    for payload, case in cases:
        tally, failures = {}, []
        for lemma, status, detail in _synthetic_verdicts(case):
            tally.setdefault(lemma, dict.fromkeys(_STATUSES, 0))[status] += 1
            if status == "fail":
                failures.append({"lemma": lemma, "detail": detail})
        for lemma, counts in tally.items():
            total = result.lemmas.setdefault(lemma, dict.fromkeys(_STATUSES, 0))
            for status in _STATUSES:
                total[status] += counts[status]
        for failure in failures:
            if len(result.failures) < 8:
                result.failures.append({**failure, "case": payload})
        digest.update(ser.canonical_json(payload).encode())
    result.instances_digest = digest.hexdigest()
    return result


def test_cases_record_straight_into_the_result():
    cases = [({"index": i}, i) for i in range(4)]
    got = sts._run_cases(sts.SuiteResult("synthetic", 4, 0), cases, _synthetic_check)
    want = _tally_then_merge(cases)
    assert got.to_dict() == want.to_dict()
    assert got.lemmas["always"] == {"pass": 4, "fail": 2, "not_applicable": 0,
                                    "indeterminate": 0}
    assert got.lemmas["gated"]["not_applicable"] == 2
    assert got.lemmas["band"]["indeterminate"] == 2
    # Ten failures, the first eight kept in order, each with its own case.
    assert [f["detail"] for f in got.failures] == [
        "case 0, first", "case 0, second", "case 0, third", "case 1, first",
        "case 1, second", "case 2, first", "case 2, second", "case 2, third"]
    assert [f["case"]["index"] for f in got.failures] == [0, 0, 0, 1, 1, 2, 2, 2]
    assert all(list(f) == ["lemma", "detail", "case"] for f in got.failures)
    assert got.conclusion_failures == 10


def test_suite_determinism():
    a = sts.run_suite("stability", trials=6, seed=9)
    b = sts.run_suite("stability", trials=6, seed=9)
    assert ser.canonical_json(a.to_dict()) == ser.canonical_json(b.to_dict())


def test_replay_reproduces_cases():
    cases = [sts._gap_case(7, i)[0] for i in range(5)]
    replay = sts.run_replay({"suite": "gap", "seed": 7, "cases": cases})
    assert replay.conclusion_failures == 0
    again = sts.run_replay({"suite": "gap", "seed": 7, "cases": cases})
    assert ser.canonical_json(replay.to_dict()) == ser.canonical_json(again.to_dict())


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("suite", sts.SUITE_NAMES)
def test_replaying_the_built_payloads_gives_the_suite_result(suite, seed):
    # run_suite checks the cases as built, run_replay as decoded.
    payloads = [sts._SUITES[suite][0](seed, i)[0] for i in range(10)]
    replay = sts.run_replay({"suite": suite, "seed": seed, "cases": payloads})
    assert replay.to_dict() == sts.run_suite(suite, 10, seed).to_dict()


def test_a_replay_read_from_text_gives_the_suite_result():
    # The 30 duality cases at seed 1 write five "-0" entries; read back as
    # the integer 0 they re-encode to another text, and so to another digest.
    payloads = [sts._SUITES["duality"][0](1, i)[0] for i in range(30)]
    text = ser.canonical_json({"suite": "duality", "seed": 1, "cases": payloads})
    assert text.count("-0,") + text.count("-0]") == 5
    replay = sts.run_replay(ser.loads(text))
    assert replay.instances_digest.startswith("c60234e6")
    assert replay.to_dict() == sts.run_suite("duality", 30, 1).to_dict()


@pytest.mark.parametrize("payload", [
    [], {"cases": []}, {"suite": "nosuch", "cases": []}, {"suite": "gap"},
    {"suite": "gap", "cases": 3}, {"suite": "gap", "seed": "x", "cases": []},
    {"suite": "gap", "seed": 1.0, "cases": []}, {"suite": "gap", "cases": [{"M": 3}]},
], ids=["not-a-dict", "no-suite", "unknown-suite", "no-cases", "cases-not-a-list",
        "seed-not-int", "seed-float", "case-body"])
def test_a_malformed_replay_payload_is_a_replay_error(payload):
    # The payload's structure is checked where it is read: a library caller
    # gets ReplayError, not the KeyError or TypeError of the first bad read.
    with pytest.raises(sts.ReplayError):
        sts.run_replay(payload)


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
        a, b = ser.instance_from_dict(sts._pair_case(1, i, raw_every=3)[0])
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
        return [ser.canonical_json(build(1, i)[0])
                for build, *_ in sts._SUITES.values() for i in range(8)]

    before = build_all()
    real = met.gamma
    monkeypatch.setattr(met, "gamma", lambda t: real(t) * (1 + 1e-13))
    assert build_all() == before
