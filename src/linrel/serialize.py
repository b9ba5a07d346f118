"""File formats: canonical JSON, subspace/relation schemas, sweep CSV.

Numbers are written with 17 significant digits (round-trip exact for
doubles); infinities serialize as the strings "inf" / "-inf".  The
encoder is deliberately hand-rolled so byte-identical output is under
our control: dictionaries keep insertion order, no whitespace varies.

Schemas
-------
Subspace        {"ambient": n, "basis": [column, ...]} where a column is
                a list of [re, im] pairs; columns need not arrive
                orthonormal (span normalization applies on load).
LinearRelation  {"x_dim": n, "y_dim": m, "graph": <subspace>} or the
                {"matrix": [[...]]} shorthand for single-valued
                everywhere-defined operators (entries numbers or
                [re, im] pairs; rows map to Y).
Instance        {"A": <relation>, "B": <relation>, "spec": ..., "measured": ...}
RelativeBound   {"sigma": s, "tau": t, "provenance": "..."}.

Sweep CSV columns (fixed order):
    re, im, alpha, beta, gamma, gap_fwd, gap_bwd, bound,
    inside_pencil, inside_alpha, inside_full, indeterminate
with booleans as 0/1, infinite gamma as "inf" and an empty bound cell
when the predicted denominator is not positive.
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


def _encode(obj, out: list[str]) -> None:
    # Floats first, and inline inside lists: they are most of a payload.
    # Lists and dicts next; every later test rejects them anyway.
    if type(obj) is float:
        out.append(fmt_float(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            if type(v) is float:
                out.append(fmt_float(v))
            else:
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
    cols = [[[float(z.real), float(z.imag)] for z in s.basis[:, j]]
            for j in range(s.dim)]
    return {"ambient": s.ambient, "basis": cols}


def subspace_from_dict(d: dict) -> Subspace:
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
            m[i, j] = _entry_to_complex(entry)
    return sub.span(m, ambient=ambient)


def _entry_to_complex(entry) -> complex:
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise ValueError(f"complex entry must be [re, im], got {entry!r}")
        return complex(float(entry[0]), float(entry[1]))
    return complex(float(entry), 0.0)


def relation_to_dict(t: LinearRelation) -> dict:
    return {"x_dim": t.x_dim, "y_dim": t.y_dim,
            "graph": subspace_to_dict(t.graph)}


def relation_from_dict(d: dict) -> LinearRelation:
    if "matrix" in d:
        rows = d["matrix"]
        m = np.array([[_entry_to_complex(e) for e in row] for row in rows],
                     dtype=complex)
        return rel.from_matrix(m)
    graph = subspace_from_dict(d["graph"])
    return rel.from_graph(graph, int(d["x_dim"]), int(d["y_dim"]))


def bound_to_dict(b: RelativeBound) -> dict:
    out = {"sigma": b.sigma, "tau": b.tau, "provenance": b.provenance}
    if b.sigma_upper is not None:
        out["sigma_upper"] = b.sigma_upper
    return out


def bound_from_dict(d: dict) -> RelativeBound:
    return RelativeBound(_parse_number(d["sigma"]), _parse_number(d["tau"]),
                         str(d.get("provenance", "supplied")),
                         sigma_upper=(None if d.get("sigma_upper") is None
                                      else _parse_number(d["sigma_upper"])))


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
    return relation_from_dict(d["A"]), relation_from_dict(d["B"])


def instance_hash(a: LinearRelation, b: LinearRelation) -> str:
    payload = canonical_json({"A": relation_to_dict(a), "B": relation_to_dict(b)})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


SWEEP_CSV_HEADER = ("re,im,alpha,beta,gamma,gap_fwd,gap_bwd,bound,"
                    "inside_pencil,inside_alpha,inside_full,indeterminate")


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
        lines.append(",".join([
            _csv_number(r["re"]), _csv_number(r["im"]),
            _csv_number(r["alpha"]), _csv_number(r["beta"]),
            _csv_number(r["gamma"]),
            _csv_number(r["gap_fwd"]), _csv_number(r["gap_bwd"]),
            _csv_number(r["bound"]),
            str(int(r["inside_pencil"])), str(int(r["inside_alpha"])),
            str(int(r["inside_full"])), str(int(r["indeterminate"])),
        ]))
    return "\n".join(lines) + "\n"
