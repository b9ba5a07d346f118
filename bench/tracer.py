"""Span tracer that instruments linrel from outside the package.

The tracer replaces the public functions of each linrel module (plus
``stability._generate_once``) and ``numpy.linalg.svd/lstsq/qr`` with thin
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Every cross-module call in ``src/`` goes
through a module alias (``sub.``, ``rel.``, ``met.``, ``chn.``,
``np.linalg.``) and every intra-module call through the module's globals,
so replacing the module attribute sees every call.  Nothing under ``src/``
is touched; leaving the context restores every replaced attribute.

Spans live in flat arrays while recording and are reduced once per pass:
a span's self time is its duration minus the durations of its direct
children (calls are strictly nested in one thread).
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("subspace", "relation", "metrics", "chains", "stability", "suites",
          "serialize")
LAPACK = ("svd", "lstsq", "qr")

# Functions outside ``__all__`` that a per-layer metric needs.
_EXTRA = {"stability": ("_generate_once",)}


def svd_flops(shape, full_matrices: bool = True, compute_uv: bool = True) -> float:
    """Computed (not measured) flop count of one complex SVD call.

    Golub & Van Loan's Golub-Reinsch counts for an l x k problem (l >= k),
    times 4 for complex arithmetic, times the batch size for stacked input.
    """
    *batch, m, n = shape
    lo, hi = min(m, n), max(m, n)
    if not compute_uv:
        real = 4 * hi * lo ** 2 - 4 * lo ** 3 / 3
    elif full_matrices:
        real = 4 * hi ** 2 * lo + 8 * hi * lo ** 2 + 9 * lo ** 3
    else:
        real = 14 * hi * lo ** 2 + 8 * lo ** 3
    return 4.0 * real * float(np.prod(batch, dtype=float))


class Tracer:
    """Context manager: patch, record spans, restore.

    ``names`` maps a span name id to ``"layer.function"``; ``unit`` opens
    a root span around one benchmark unit so library spans have a parent.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.svd_flops = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        stack, span_name, parent = self._stack, self.span_name, self.parent
        start, end, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_svd(self, fn):
        inner = self._wrap("lapack.svd", fn)

        def svd(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            self.svd_flops += svd_flops(np.shape(a), full_matrices, compute_uv)
            return inner(a, full_matrices, compute_uv, *args, **kwargs)

        svd.__wrapped__ = fn
        return svd

    def unit(self, fn):
        """Call ``fn()`` inside a root span named ``bench.unit``."""
        return self._wrap("bench.unit", fn)()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            mod = importlib.import_module(f"linrel.{layer}")
            for attr in (*mod.__all__, *_EXTRA.get(layer, ())):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._patch(mod, attr, self._wrap(f"{layer}.{attr}", fn))
        for attr in LAPACK:
            fn = getattr(np.linalg, attr)
            wrapped = (self._wrap_svd(fn) if attr == "svd"
                       else self._wrap(f"lapack.{attr}", fn))
            self._patch(np.linalg, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def spans(self) -> dict:
        """Recorded spans as arrays, with per-span self time."""
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return {"names": np.array(self.names), "name": name, "parent": parent,
                "start": start, "end": end, "self": dur - child}

    def summary(self) -> dict:
        """Per function and per layer: call count and self seconds."""
        sp = self.spans()
        calls = np.bincount(sp["name"], minlength=len(self.names))
        self_s = np.bincount(sp["name"], weights=sp["self"], minlength=len(self.names))
        funcs = {n: {"calls": int(c), "self_s": float(s)}
                 for n, c, s in zip(self.names, calls, self_s)}
        layers: dict[str, dict] = {}
        for n, v in funcs.items():
            agg = layers.setdefault(n.split(".", 1)[0], {"calls": 0, "self_s": 0.0})
            agg["calls"] += v["calls"]
            agg["self_s"] += v["self_s"]
        return {"functions": funcs, "layers": layers, "svd_flops": self.svd_flops,
                "spans": int(sp["name"].size)}
