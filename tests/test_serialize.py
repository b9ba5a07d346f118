import json
import math

import numpy as np
import pytest

from linrel import metrics as met
from linrel import relation as rel
from linrel import serialize as ser
from linrel import stability as stab
from linrel import suites as sts
from linrel import subspace as sub


def test_fmt_float_17_digits():
    x = 0.1 + 0.2
    assert ser.fmt_float(x) == format(x, ".17g")
    assert float(ser.fmt_float(x)) == x  # round-trip exact
    assert ser.fmt_float(math.inf) == '"inf"'
    assert ser.fmt_float(-math.inf) == '"-inf"'
    with pytest.raises(ValueError):
        ser.fmt_float(math.nan)


def test_canonical_json_shapes():
    doc = {"a": 1, "b": [True, False, None], "c": 1.5, "inf": math.inf,
            "s": "x\"y"}
    text = ser.canonical_json(doc)
    assert text == '{"a":1,"b":[true,false,null],"c":1.5,"inf":"inf","s":"x\\"y"}'
    # stable across calls and parseable
    assert ser.canonical_json(doc) == text
    parsed = json.loads(text)
    assert parsed["inf"] == "inf"


def test_canonical_json_rejects_unknown():
    with pytest.raises(TypeError):
        ser.canonical_json({"x": object()})
    with pytest.raises(TypeError):
        ser.canonical_json({1: "non-string key"})


def test_subspace_round_trip(rng):
    s = sub.random_subspace(4, 2, rng)
    d = ser.subspace_to_dict(s)
    back = ser.subspace_from_dict(d)
    assert back.is_same(s)
    # non-orthonormal columns are normalized on load
    skewed = {"ambient": 2, "basis": [[[1.0, 0.0], [0.0, 0.0]],
                                      [[3.0, 0.0], [1e-14, 0.0]]]}
    loaded = ser.subspace_from_dict(skewed)
    assert loaded.dim == 1


def test_subspace_from_dict_errors():
    with pytest.raises(ValueError):
        ser.subspace_from_dict({"ambient": 2, "basis": [[[1.0, 0.0]]]})
    assert ser.subspace_from_dict({"ambient": 3, "basis": []}).dim == 0


def test_relation_round_trip(e3):
    d = ser.relation_to_dict(e3)
    back = ser.relation_from_dict(d)
    assert rel.equals(back, e3)


def test_relation_matrix_shorthand():
    d = {"matrix": [[1.0, 0.0], [0.0, [0.0, 1.0]]]}
    t = ser.relation_from_dict(d)
    expected = rel.from_matrix(np.array([[1.0, 0.0], [0.0, 1.0j]]))
    assert rel.equals(t, expected)


def test_bound_round_trip():
    b = met.RelativeBound(1.25, 0.5, "exact")
    d = ser.bound_to_dict(b)
    assert d == {"sigma": 1.25, "tau": 0.5, "provenance": "exact"}
    back = ser.bound_from_dict(d)
    assert back.sigma == b.sigma and back.tau == b.tau
    assert back.provenance == "exact"
    plain = ser.bound_from_dict({"sigma": 1.0, "tau": 0.0})
    assert plain.provenance == "supplied"


def test_bound_from_an_older_file_ignores_sigma_upper():
    old = ser.bound_from_dict({"sigma": 0.5, "tau": 0.25, "provenance": "heuristic",
                               "sigma_upper": 2.0})
    assert (old.sigma, old.tau, old.provenance) == (0.5, 0.25, "heuristic")
    assert not hasattr(old, "sigma_upper")


def test_instance_hash_stable(e3, diag01):
    h1 = ser.instance_hash(e3, diag01)
    h2 = ser.instance_hash(e3, diag01)
    assert h1 == h2 and len(h1) == 64
    assert ser.instance_hash(diag01, e3) != h1


def test_sweep_csv_golden():
    records = [{
        "re": 0.5, "im": -0.25, "alpha": 1, "beta": 2, "gamma": math.inf,
        "gap_fwd": 0.125, "gap_bwd": 0.0, "bound": None,
        "inside_pencil": True, "inside_alpha": False, "inside_full": False,
        "indeterminate": False,
    }]
    text = ser.sweep_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == ser.SWEEP_CSV_HEADER
    assert lines[1] == "0.5,-0.25,1,2,inf,0.125,0,,1,0,0,0"
    assert ser.sweep_csv([]).strip() == ser.SWEEP_CSV_HEADER


# ---------------------------------------------------------------------------
# the canonical encoder against the recursive formulation it replaced

def _oracle_fmt_float(x) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    return format(float(x), ".17g")


def _oracle_encode(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_oracle_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, complex):
        _oracle_encode([obj.real, obj.imag], out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            out.append(json.dumps(k))
            out.append(":")
            _oracle_encode(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _oracle_encode(v, out)
        out.append("]")
    elif isinstance(obj, np.ndarray):
        _oracle_encode(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _oracle_json(obj) -> str:
    pieces: list = []
    _oracle_encode(obj, pieces)
    return "".join(pieces)


def _reports() -> list:
    """A verify_stability and a sweep report on a stability case with
    finite gamma(A) and fitted sigma > 0."""
    payload = sts._stability_case(1, 1)
    a, b = ser.instance_from_dict(payload)
    bound = ser.bound_from_dict(payload["bound"])
    gamma_a = met.gamma(a)
    grid = stab.default_grid(met.stability_radius(gamma_a, bound, "full"), gamma_a,
                             points=4, phases=3)
    return [stab.verify_stability(a, b, bound, grid),
            stab.sweep(a, b, bound, grid).to_dict()]


@pytest.mark.parametrize("suite", sts.SUITE_NAMES)
def test_canonical_json_matches_oracle_on_case_payloads(suite):
    build = sts._SUITES[suite][0]
    for i in range(3):
        payload = build(3, i)
        assert ser.canonical_json(payload) == _oracle_json(payload)


def test_canonical_json_matches_oracle_on_reports_and_edges():
    docs = _reports() + [
        [-0.0, 5e-324, 1e22, 1e-7, math.inf, -math.inf],
        [1, 2.0, True, None],
        (0.5, "t", (1,)),
        [np.float64(0.1), np.float32(0.1), np.float16(2.5), np.int64(-3), np.int8(7)],
        [1 + 2j, complex(-0.0, math.inf)],
        [[], [[]], [[], [[0.25]]]],
        {"a": {"b": {"c": [0.1, {"d": None}]}, "e": {}}, "f": np.arange(3.0)},
        0.1, 7, "plain", None,
    ]
    for doc in docs:
        assert ser.canonical_json(doc) == _oracle_json(doc)


@pytest.mark.parametrize("doc, exc", [
    ([0.5, math.nan], ValueError),
    ({"x": math.nan}, ValueError),
    (np.float64(math.nan), ValueError),
    ([object()], TypeError),
    ([np.bool_(True)], TypeError),
    ({1: "non-string key"}, TypeError),
    ({"x": {2.0: 1}}, TypeError),
], ids=["nan-in-list", "nan-in-dict", "numpy-nan", "object", "numpy-bool",
        "int-key", "float-key"])
def test_canonical_json_errors_match_oracle(doc, exc):
    with pytest.raises(exc):
        _oracle_json(doc)
    with pytest.raises(exc):
        ser.canonical_json(doc)


def test_fmt_float_errors_and_numbers():
    for bad, exc in [(math.nan, ValueError), (-math.nan, ValueError),
                     ("x", TypeError), ("1.5", TypeError), (None, TypeError)]:
        with pytest.raises(exc):
            ser.fmt_float(bad)
        with pytest.raises(exc):
            _oracle_fmt_float(bad)
    for x in [3, True, np.float64(-0.0), np.float32(0.1), np.int64(2**40), 1e308]:
        assert ser.fmt_float(x) == _oracle_fmt_float(x)
