import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_loads_reads_its_own_signed_zero():
    # fmt_float writes -0.0 as "-0", which json.loads reads as the integer 0.
    text = ser.canonical_json({"z": [-0.0, 0.0, [-0.0, 1.5]], "n": 0, "m": -3})
    assert '"z":[-0,0,[-0,1.5]]' in text
    doc = ser.loads(text)
    z = doc["z"]  # 0.0 is written "0" and reads back as 0, which writes "0"
    assert [type(v) for v in (z[0], z[1], z[2][0])] == [float, int, float]
    assert [math.copysign(1.0, v) for v in (z[0], z[1], z[2][0])] == [-1.0, 1.0, -1.0]
    assert (doc["n"], type(doc["n"]), doc["m"], type(doc["m"])) == (0, int, -3, int)
    assert ser.canonical_json(doc) == text
    assert ser.canonical_json(json.loads(text)) != text


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
    # columns that fail the Gram check are spanned on load
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
    payload = sts._stability_case(1, 1)[0]
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
        payload = build(3, i)[0]
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


# ---------------------------------------------------------------------------
# bulk payload encode and decode against the per-entry formulation

def _entrywise_to_dict(s: sub.Subspace) -> dict:
    cols = [[[float(z.real), float(z.imag)] for z in s.basis[:, j]]
            for j in range(s.dim)]
    return {"ambient": s.ambient, "basis": cols}


def _entrywise_entry(entry) -> complex:
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise ValueError(f"complex entry must be [re, im], got {entry!r}")
        return complex(float(entry[0]), float(entry[1]))
    return complex(float(entry), 0.0)


def _entrywise_from_dict(d: dict) -> sub.Subspace:
    ambient = int(d["ambient"])
    cols = d.get("basis", [])
    if not cols:
        return sub.zero_subspace(ambient)
    m = np.zeros((ambient, len(cols)), dtype=complex)
    for j, col in enumerate(cols):
        if len(col) != ambient:
            raise ValueError(f"basis column {j} has length {len(col)}, "
                             f"ambient is {ambient}")
        for i, entry in enumerate(col):
            m[i, j] = _entrywise_entry(entry)
    try:  # columns that pass the Gram check load as written
        return sub.Subspace(ambient, m)
    except ValueError:
        return sub.span(m, ambient=ambient)


def _outcome(fn, *args):
    """(ambient, basis bytes, flag) of a decoded subspace, or the
    exception's type and message."""
    try:
        s = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return s.ambient, s.basis.shape, s.basis.tobytes(), s.sv_near_cut


_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300,
          -1e300, 1e-300, 0.1, 1 / 3, 1.0, -1.0]
_values = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _bases(draw):
    """Orthonormal bases: Haar ones, and signed unit columns whose other
    entries are signed zeros, subnormals or tiny normals."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    if draw(st.booleans()):
        return sub.random_subspace(n, k, draw(st.integers(0, 2**32 - 1)))
    small = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-300])
    re = np.array(draw(st.lists(small, min_size=n * k, max_size=n * k))).reshape(n, k)
    im = np.array(draw(st.lists(small, min_size=n * k, max_size=n * k))).reshape(n, k)
    basis = re + 1j * im
    for j, i in enumerate(draw(st.permutations(range(n)))[:k]):
        basis[i, j] = draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
    return sub.Subspace(n, basis)


@settings(max_examples=150, deadline=None)
@given(_bases())
def test_bulk_encode_gives_the_entrywise_bytes_and_bits(s):
    d = ser.subspace_to_dict(s)
    ref = _entrywise_to_dict(s)
    assert d == ref
    assert [type(v) for col in d["basis"] for pair in col for v in pair] == \
        [float] * (2 * s.ambient * s.dim)
    text = ser.canonical_json(d)
    assert text == _oracle_json(ref)
    back = json.loads(text)
    assert _outcome(ser.subspace_from_dict, back) == _outcome(_entrywise_from_dict, back)


@settings(max_examples=150, deadline=None)
@given(_bases())
def test_a_written_basis_decodes_to_its_own_bits(s):
    d = ser.subspace_to_dict(s)
    back = ser.subspace_from_dict(d)
    assert (back.ambient, back.basis.shape) == (s.ambient, s.basis.shape)
    assert back.basis.tobytes() == s.basis.tobytes()
    assert back.sv_near_cut is False
    # Through the text too, but JSON reads "-0" as the integer 0: a signed
    # zero keeps its value and loses its sign.  ser.loads keeps the sign.
    back = ser.subspace_from_dict(json.loads(ser.canonical_json(d)))
    assert np.array_equal(back.basis, s.basis) and back.sv_near_cut is False
    back = ser.subspace_from_dict(ser.loads(ser.canonical_json(d)))
    assert back.basis.tobytes() == s.basis.tobytes() and back.sv_near_cut is False
    # span would keep the dimension and the flag, and moves only the bits.
    spanned = sub.span(s.basis, ambient=s.ambient)
    assert (spanned.dim, spanned.sv_near_cut) == (s.dim, False)


def _fingerprint(obj, exact=True):
    """Shapes, layouts, basis bytes (values where not ``exact``, so a
    signed zero equals zero) and flags of a case's subspaces and relations;
    anything else, such as a bound, as it compares.  The layout counts, as
    BLAS may round a product of another layout differently."""
    if isinstance(obj, sub.Subspace):
        bits = obj.basis.tobytes() if exact else obj.basis.tolist()
        return obj.ambient, obj.basis.shape, obj.basis.strides, bits, obj.sv_near_cut
    if isinstance(obj, rel.LinearRelation):
        return obj.x_dim, obj.y_dim, _fingerprint(obj.graph, exact)
    if isinstance(obj, tuple):
        return tuple(_fingerprint(x, exact) for x in obj)
    return obj


@pytest.mark.parametrize("suite", sts.SUITE_NAMES)
def test_each_built_case_is_its_decoded_payload(suite):
    build, decode, _ = sts._SUITES[suite]
    for seed in (1, 2, 3):
        for i in range(8):
            payload, case = build(seed, i)
            assert _fingerprint(decode(payload)) == _fingerprint(case), (seed, i)
            # Through the text, a signed zero comes back as the integer 0;
            # read by ser.loads, it comes back as itself.
            text = ser.canonical_json(payload)
            loaded = json.loads(text)
            assert _fingerprint(decode(loaded), False) == _fingerprint(case, False), (seed, i)
            back = ser.loads(text)
            assert ser.canonical_json(back) == text, (seed, i)
            assert _fingerprint(decode(back)) == _fingerprint(case), (seed, i)


def test_a_flagged_build_goes_as_decoded(monkeypatch):
    # The sum of a nested gap case and the scaled B of a perturbation case
    # are spanned; flagged, each is handed over as its payload decodes.
    flagged = []

    def flag(s):
        flagged.append(s)
        return sub.Subspace(s.ambient, s.basis, sv_near_cut=True)

    real_sum, real_mul = sub.sum, rel.scalar_mul
    monkeypatch.setattr(sub, "sum", lambda s1, s2: flag(real_sum(s1, s2)))
    monkeypatch.setattr(rel, "scalar_mul", lambda lam, t: rel.from_graph(
        flag(real_mul(lam, t).graph), t.x_dim, t.y_dim))
    for build, decode in ((sts._gap_case, sts._decode_gap),
                          (sts._perturbation_case, ser.instance_from_dict)):
        flagged.clear()
        payload, case = build(1, 1)
        assert len(flagged) == 1, build
        assert _fingerprint(case) == _fingerprint(decode(payload))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.one_of(_values, st.sampled_from([math.inf, -math.inf, math.nan])),
                         min_size=2, max_size=2), max_size=8))
def test_bulk_pair_text_matches_the_oracle(pairs):
    for doc in (pairs, [pairs, pairs], {"basis": [pairs]}):
        try:
            expected = _oracle_json(doc)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                ser.canonical_json(doc)
        else:
            assert ser.canonical_json(doc) == expected


@st.composite
def _payloads(draw):
    """Subspace payloads as JSON gives them, and worse: pair entries (of
    floats, or of strings, ints, booleans and nulls), bare numbers,
    mixtures, ragged columns and three-element entries."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 4))
    entry = st.one_of(st.lists(_values, min_size=2, max_size=2), _values,
                      st.lists(_values, min_size=3, max_size=3), st.sampled_from(["inf", 1, True]))
    odd = st.one_of(_values, st.sampled_from(["inf", "1.5", "x", 1, 2**70, True, None]))
    kind = draw(st.sampled_from(["pairs", "odd pairs", "bare", "mixed", "ragged"]))
    if kind == "pairs":
        col = st.lists(st.lists(_values, min_size=2, max_size=2), min_size=n, max_size=n)
    elif kind == "odd pairs":
        col = st.lists(st.lists(odd, min_size=2, max_size=2), min_size=n, max_size=n)
    elif kind == "bare":
        col = st.lists(_values, min_size=n, max_size=n)
    elif kind == "mixed":
        col = st.lists(entry, min_size=n, max_size=n)
    else:
        col = st.lists(st.lists(_values, min_size=2, max_size=2), min_size=0, max_size=n + 1)
    return {"ambient": n, "basis": draw(st.lists(col, min_size=k, max_size=k))}


@settings(max_examples=300, deadline=None)
@given(_payloads())
def test_bulk_decode_gives_the_entrywise_bits_and_errors(d):
    assert _outcome(ser.subspace_from_dict, d) == _outcome(_entrywise_from_dict, d)


def test_payload_edge_cases_keep_their_text_and_errors():
    assert ser.canonical_json([[1.0, math.inf], [-0.0, 5e-324]]) == \
        '[[1,"inf"],[-0,4.9406564584124654e-324]]'
    assert ser.canonical_json([[1e300, -1e-300]]) == "[[1.0000000000000001e+300,-1e-300]]"
    with pytest.raises(ValueError, match="NaN is not serializable"):
        ser.canonical_json([[0.5, 0.5], [math.nan, 0.0]])
    assert ser.subspace_to_dict(sub.zero_subspace(3)) == {"ambient": 3, "basis": []}
    bare = {"ambient": 2, "basis": [[1.0, 0.0], [0.0, -1.0]]}
    assert _outcome(ser.subspace_from_dict, bare) == _outcome(_entrywise_from_dict, bare)
    assert ser.subspace_from_dict(bare).dim == 2
    ragged = {"ambient": 2, "basis": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}
    with pytest.raises(ValueError, match="^basis column 1 has length 1, ambient is 2$"):
        ser.subspace_from_dict(ragged)
    triple = {"ambient": 2, "basis": [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]}
    with pytest.raises(ValueError, match=r"^complex entry must be \[re, im\], got \[1\.0, 0\.0, 0\.0\]$"):
        ser.subspace_from_dict(triple)
    infinite = {"ambient": 1, "basis": [[["inf", 0.0]]]}
    with pytest.raises(ValueError, match="non-finite"):
        ser.subspace_from_dict(infinite)
