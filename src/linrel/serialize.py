"""File formats: canonical JSON, subspace/relation schemas, sweep CSV.

Numbers are written with 17 significant digits (round-trip exact for
doubles, -0.0 included, when read back with :func:`loads`); infinities
serialize as the strings "inf" / "-inf".  The
encoder is deliberately hand-rolled so byte-identical output is under
our control: dictionaries keep insertion order, no whitespace varies.

Schemas
-------
Subspace        {"ambient": n, "basis": [column, ...]} where a column is
                a list of [re, im] pairs.  Columns that pass Subspace's
                Gram check load as written, unflagged, so a written
                basis decodes to its own bits; others are spanned on
                load (columns need not arrive orthonormal).  In a
                document built in process a <subspace> may be the
                Subspace value itself, as relation_to_dict leaves the
                graph: canonical_json writes it with one %.17g format over
                its basis's real and imaginary parts in column order, the
                text of subspace_to_dict (the JSON-native form) byte for
                byte, and the readers decode it through subspace_to_dict,
                so it loads as its text does.
LinearRelation  {"x_dim": n, "y_dim": m, "graph": <subspace>} or the
                {"matrix": [[...]]} shorthand for single-valued
                everywhere-defined operators (entries numbers or
                [re, im] pairs; rows map to Y).
Instance        {"A": <relation>, "B": <relation>, "spec": ..., "measured": ...}
RelativeBound   {"sigma": s, "tau": t, "provenance": "exact" (fitted) or
                "supplied"}; an older file's "sigma_upper" is ignored.

Sweep CSV columns: SWEEP_CSV_HEADER, in its order,
    re, im, alpha, beta, gamma, gap_fwd, gap_bwd, bound,
    inside_pencil, inside_alpha, inside_full, indeterminate
the keys of a sweep record: the numbers, then the flags as 0/1, with
infinite gamma as "inf" and an empty bound cell when the predicted
denominator is not positive.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers

import numpy as np

from . import relation as rel
from . import subspace as sub
from .metrics import RelativeBound
from .relation import LinearRelation
from .subspace import Subspace

__all__ = [
    "fmt_float",
    "canonical_json",
    "loads",
    "subspace_to_dict",
    "subspace_from_dict",
    "relation_to_dict",
    "relation_from_dict",
    "bound_to_dict",
    "bound_from_dict",
    "instance_to_dict",
    "instance_from_dict",
    "instance_hash",
    "sweep_csv",
    "SWEEP_CSV_HEADER",
]


def fmt_float(x: float) -> str:
    """17 significant digits of a real number; infinities as the strings
    "inf" and "-inf".  NaN raises ValueError, a non-number TypeError."""
    if type(x) is not float:
        if not isinstance(x, numbers.Real):
            raise TypeError(f"cannot format {type(x).__name__} as a number")
        x = float(x)
    text = format(x, ".17g")
    if text == "inf" or text == "-inf":
        return f'"{text}"'
    if text == "nan":
        raise ValueError("NaN is not serializable")
    return text


def canonical_json(obj) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    pieces: list[str] = []
    _encode(obj, pieces)
    return "".join(pieces)


def loads(text: str):
    """Read JSON text as :func:`canonical_json` writes it: the literal
    ``-0``, which :func:`fmt_float` writes for -0.0, reads back as -0.0,
    not as the integer 0, so a payload re-encodes to its own text."""
    return json.loads(text, parse_int=_parse_int)


def _parse_int(text: str):
    return -0.0 if text == "-0" else int(text)


def _encode(obj, out: list[str]) -> None:
    # Floats first: they are most of a payload that is not a Subspace.
    # Lists and dicts next; every later test rejects them anyway.
    if type(obj) is float:
        out.append(fmt_float(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _encode(v, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            out.append(json.dumps(k))
            out.append(":")
            _encode(v, out)
        out.append("}")
    elif isinstance(obj, Subspace):
        out.append(_subspace_json(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, complex):
        _encode([obj.real, obj.imag], out)
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _parse_number(v) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


def subspace_to_dict(s: Subspace) -> dict:
    cols = np.stack([s.basis.real, s.basis.imag]).transpose(2, 1, 0).tolist()
    return {"ambient": s.ambient, "basis": cols}


def _subspace_json(s: Subspace) -> str:
    # The text of subspace_to_dict(s) in one format: a checked basis is
    # finite, so every entry is fmt_float's %.17g, -0.0 included.
    column = "[" + ",".join(["[%.17g,%.17g]"] * s.ambient) + "]"
    parts = tuple(s.basis.T.ravel().view(float).tolist())
    return '{"ambient":%d,"basis":[%s]}' % (s.ambient, ",".join([column] * s.dim) % parts)


def subspace_from_dict(d: dict | Subspace) -> Subspace:
    if isinstance(d, Subspace):  # a live payload decodes as its text does
        d = subspace_to_dict(d)
    ambient = int(d["ambient"])
    cols = d.get("basis", [])
    if not cols:
        return sub.zero_subspace(ambient)
    m = np.zeros((ambient, len(cols)), dtype=complex)
    for j, col in enumerate(cols):
        if len(col) != ambient:
            raise ValueError(f"basis column {j} has length {len(col)}, ambient is {ambient}")
        for i, entry in enumerate(col):
            m[i, j] = _entry_to_complex(entry)
    try:  # columns that pass the Gram check are kept as written, unflagged
        return Subspace(ambient, m)
    except ValueError:  # others are spanned; span names non-finite input
        return sub.span(m, ambient=ambient)


def _entry_to_complex(entry) -> complex:
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise ValueError(f"complex entry must be [re, im], got {entry!r}")
        return complex(float(entry[0]), float(entry[1]))
    return complex(float(entry), 0.0)


def relation_to_dict(t: LinearRelation) -> dict:
    return {"x_dim": t.x_dim, "y_dim": t.y_dim,
            "graph": t.graph}


def relation_from_dict(d: dict) -> LinearRelation:
    if "matrix" in d:
        rows = d["matrix"]
        m = np.array([[_entry_to_complex(e) for e in row] for row in rows],
                     dtype=complex)
        return rel.from_matrix(m)
    graph = subspace_from_dict(d["graph"])
    return rel.from_graph(graph, int(d["x_dim"]), int(d["y_dim"]))


def bound_to_dict(b: RelativeBound) -> dict:
    return {"sigma": b.sigma, "tau": b.tau, "provenance": b.provenance}


def bound_from_dict(d: dict) -> RelativeBound:
    """Any other key, such as the ``sigma_upper`` of older files, is ignored."""
    return RelativeBound(_parse_number(d["sigma"]), _parse_number(d["tau"]),
                         str(d.get("provenance", "supplied")))


def instance_to_dict(a: LinearRelation, b: LinearRelation,
                     spec: dict | None = None,
                     measured: dict | None = None) -> dict:
    out = {"A": relation_to_dict(a), "B": relation_to_dict(b)}
    if spec is not None:
        out["spec"] = spec
    if measured is not None:
        out["measured"] = measured
    return out


def instance_from_dict(d: dict) -> tuple[LinearRelation, LinearRelation]:
    a, b = relation_from_dict(d["A"]), relation_from_dict(d["B"])
    if (a.x_dim, a.y_dim) != (b.x_dim, b.y_dim):
        raise ValueError(f"A acts from C^{a.x_dim} to C^{a.y_dim}, "
                         f"B from C^{b.x_dim} to C^{b.y_dim}")
    return a, b


def instance_hash(a: LinearRelation, b: LinearRelation) -> str:
    payload = canonical_json(instance_to_dict(a, b))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_CSV_NUMBERS = ("re", "im", "alpha", "beta", "gamma", "gap_fwd", "gap_bwd", "bound")
_CSV_FLAGS = ("inside_pencil", "inside_alpha", "inside_full", "indeterminate")
SWEEP_CSV_HEADER = ",".join(_CSV_NUMBERS + _CSV_FLAGS)


def _csv_number(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return format(float(x), ".17g")


def sweep_csv(records: list[dict]) -> str:
    """One row per lambda, plot-ready; header always present."""
    lines = [SWEEP_CSV_HEADER]
    for r in records:
        lines.append(",".join([*(_csv_number(r[k]) for k in _CSV_NUMBERS),
                               *(str(int(r[k])) for k in _CSV_FLAGS)]))
    return "\n".join(lines) + "\n"
