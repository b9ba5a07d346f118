"""Timing loop, metrics and result file for one benchmark run.

A pass runs every unit of the workload once, in the order the seed fixed.
The reference kernel is timed before the first step and after every step:
R S R S ... S R.  A step's reference time is the mean of the two kernel
runs around it, so its time divided by that reference cancels the
machine's speed at that moment; a unit's reference-normalised time is the
sum over its steps.  Set-up is timed the same way, with whole
interpreters: each set-up probe is divided by a reference interpreter
that imports numpy and scipy but no linrel code.  The probes run first;
then passes repeat while another whole pass fits in the run's seconds,
and the first pass always runs.

Per-unit figures are medians over passes; workload figures are medians
over units.  The traced run alternates untraced and traced passes, so the
tracing overhead is measured in the same run as the layer figures; a
workload may trace a fixed subset of its units (``traced_units``).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import linrel
from linrel.suites import SUITE_NAMES
from run import THREAD_ENV
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, drain, load_reference

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 5
# The reference interpreter: the third-party imports of ``linrel.cli``
# (numpy and scipy, which take most of its start-up), without linrel.
REFERENCE_IMPORT = "import numpy, scipy.linalg, scipy.optimize"
# Turns the probe / reference ratio into seconds: about the reference
# interpreter's own time on the 2-core host the bounds were set on, whose
# median over a set of ten runs ranged from 0.75 to 0.85 s.
REFERENCE_IMPORT_S = 0.8

# Function-level per-layer metrics: "<layer>.<function>" -> fields reported.
FUNCTION_METRICS = {
    "relation.pencil": ("calls",), "relation.add": ("calls",),
    "metrics.check_relative_bound": ("calls", "self_s"),
    "metrics.operator_part": ("calls",),
    "chains.m_chain": ("calls",), "chains.n_chain": ("calls",),
    "subspace.span": ("calls",), "subspace.intersect": ("calls",),
    "subspace.gap": ("calls",),
    "serialize.canonical_json": ("self_s",),
}


def _timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def run_pass(units, kernel, tracer: Tracer | None = None) -> dict:
    """One pass: every step's time, the kernel time before the first step
    and after each step, failures and, when traced, the tracer's summary."""
    clock = time.perf_counter
    steps, owner, refs, failures = [], [], [_timed(kernel)], []
    with tracer if tracer else nullcontext():
        for i, u in enumerate(units):
            gen = u.steps()
            step = (lambda: tracer.unit(gen.__next__)) if tracer else gen.__next__
            out, reason, done = None, None, False
            while not done:
                t = clock()
                try:
                    step()
                except StopIteration as stop:
                    out, done = stop.value, True
                except Exception as exc:  # a raising unit is a failed operation
                    reason, done = repr(exc), True
                steps.append(clock() - t)
                owner.append(i)
                refs.append(_timed(kernel))
            reason = reason or u.check(out)
            if reason:
                failures.append({"unit": u.label, "error": reason})
    return {"steps": np.array(steps), "owner": np.array(owner), "refs": np.array(refs),
            "failures": failures, "traced": tracer is not None,
            "trace": tracer.summary() if tracer else None}


def run_passes(units, kernel, deadline: float,
               trace: bool) -> tuple[list[dict], Tracer | None]:
    """Warm up, then repeat passes while another one ends before
    ``deadline`` (a ``perf_counter`` time); odd passes are traced when
    ``trace`` is set, and a traced run makes at least two passes.
    Returns the passes and the first traced pass's tracer, whose spans
    are written out at the end."""
    for _ in range(3):
        kernel()
    drain(units[0].steps())
    passes, first_tracer = [], None
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        passes.append(run_pass(units, kernel, tracer))
        first_tracer = first_tracer or tracer
        now = time.perf_counter()
        if trace and len(passes) < 2:
            continue
        if now + (now - start) / len(passes) > deadline:
            return passes, first_tracer


def per_unit(units, p: dict) -> tuple[np.ndarray, np.ndarray]:
    """A pass's unit times and reference-normalised unit times.  A step's
    reference is the mean of the kernel runs just before and after it."""
    local = (p["refs"][:-1] + p["refs"][1:]) / 2
    n = len(units)
    return (np.bincount(p["owner"], weights=p["steps"], minlength=n),
            np.bincount(p["owner"], weights=p["steps"] / local, minlength=n))


def unit_figures(units, passes: list[dict]) -> dict:
    """Per-unit medians over the given passes, then medians over units."""
    items = np.array([u.items for u in units], dtype=float)
    keep = items > 0
    times, ratios = map(np.array, zip(*(per_unit(units, p) for p in passes)))
    per_item = np.median(times[:, keep] / items[keep], axis=0)
    groups: dict[str, list[float]] = {}
    for u, t in zip([u for u in units if u.items], per_item):
        groups.setdefault(u.group, []).append(float(t))
    return {"wall_s": float(np.median(times.sum(axis=1))),
            "wall_ref": float(np.median(ratios.sum(axis=1))),
            "unit_ms": 1000 * float(np.median(per_item)),
            "unit_ref": float(np.median(np.median(ratios[:, keep] / items[keep], axis=0))),
            "ref_ms": 1000 * float(np.median(np.concatenate([p["refs"] for p in passes]))),
            "group_unit_ms": {g: 1000 * float(np.median(v)) for g, v in groups.items()}}


def setup_probes(workload: str, seed: int) -> dict:
    """Set-up time, normalised like the units.  Fresh interpreters run
    back to back: one untimed probe, the reference interpreter, then each
    probe followed by the reference interpreter.  A probe (``probe.py``)
    imports ``linrel.cli`` and builds the workload's inputs.  Its times
    are divided by the mean of the reference runs around it and scaled by
    ``REFERENCE_IMPORT_S``; the median over the probes counts.  Raw probe
    times follow the host's load over minutes, so they are kept in the
    result file only."""
    def launch(args: list[str]) -> tuple[float, str]:
        t = time.perf_counter()
        done = subprocess.run(args, capture_output=True, text=True, timeout=120,
                              check=True)
        return time.perf_counter() - t, done.stdout

    probe = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)]
    reference = [sys.executable, "-c", REFERENCE_IMPORT]
    launch(probe)  # warm-up: the files both interpreters read into the page cache
    refs, walls, imports, inputs = [launch(reference)[0]], [], [], []
    for _ in range(SETUP_PROBES):
        wall, out = launch(probe)
        child = json.loads(out.strip().splitlines()[-1])
        walls.append(wall)
        imports.append(child["import_s"])
        inputs.append(child["inputs_s"])
        refs.append(launch(reference)[0])
    scale = REFERENCE_IMPORT_S / ((np.array(refs[:-1]) + np.array(refs[1:])) / 2)
    return {"setup_s": float(np.median(scale * walls)),
            "import_s": float(np.median(scale * imports)),
            "inputs_s": float(np.median(scale * inputs)),
            "probe_s": walls, "reference_s": refs}


def layer_metrics(sums: list[dict], built: dict, untraced: dict, traced: dict,
                  setup: dict, workload: str) -> dict:
    """Per-layer figures from the traced passes' summaries: counts from the
    first (every pass makes the same calls), self times as medians.
    ``built`` is the summary of building the inputs, which is where
    ``sweep-n64`` generates its pair."""
    first = sums[0]

    def self_median(get) -> float:
        return float(np.median([get(s) for s in sums]))

    def layer(s, name, field):
        return s["layers"].get(name, {}).get(field, 0)

    def func(s, name, field):
        return s["functions"].get(name, {}).get(field, 0)

    m = {}
    for name in ("svd", "lstsq", "qr"):
        m[f"lapack.{name}_calls"] = (func(first, f"lapack.{name}", "calls"), "count")
    m["lapack.svd_flops"] = (first["svd_flops"], "flop_computed")
    m["lapack.self_s"] = (self_median(lambda s: layer(s, "lapack", "self_s")), "s")
    for name in LAYERS:
        m[f"{name}.calls"] = (layer(first, name, "calls"), "count")
        m[f"{name}.self_s"] = (self_median(lambda s: layer(s, name, "self_s")), "s")
    for name, fields in FUNCTION_METRICS.items():
        for field in fields:
            if field == "calls":
                m[f"{name}.calls"] = (func(first, name, "calls"), "count")
            else:
                m[f"{name}.self_s"] = (self_median(lambda s: func(s, name, "self_s")), "s")
    generated, attempts = (func(first, f"stability.{name}", "calls")
                           + func(built, f"stability.{name}", "calls")
                           for name in ("generate", "_generate_once"))
    m["stability.generate.attempts_per_success"] = (
        attempts / generated if generated else 0.0, "ratio")
    groups = untraced["group_unit_ms"] if workload == "verify-all" else {}
    for suite in SUITE_NAMES:
        m[f"suites.{suite}.unit_ms"] = (groups.get(suite, 0.0), "ms")
    m["setup.import_s"] = (setup["import_s"], "s")
    m["setup.inputs_s"] = (setup["inputs_s"], "s")
    m["trace.overhead"] = (traced["unit_ref"] / untraced["unit_ref"], "ratio")
    m["ref_ms"] = (untraced["ref_ms"], "ms")
    m["wall_s"] = (untraced["wall_s"], "s")
    m["unit_ms"] = (untraced["unit_ms"], "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": {"platform": platform.platform(), "processor": model,
                    "cpu_count": os.cpu_count(),
                    "usable_cpus": len(os.sched_getaffinity(0))},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "linrel": linrel.__version__,
                     "blas": f"{blas.get('name')} {blas.get('version')}"},
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes and passes share the run's ``seconds``; the first
    pass runs even when it ends later."""
    start = time.perf_counter()
    wl = WORKLOADS[workload]
    setup = setup_probes(workload, seed)
    reference = load_reference(workload)
    with Tracer() if trace else nullcontext() as built:
        inputs = wl.inputs(seed)
    units = wl.units(inputs, reference)
    if trace and hasattr(wl, "traced_units"):
        units = wl.traced_units(units)
    passes, tracer = run_passes(units, wl.kernel, start + seconds, trace)

    plain = [p for p in passes if not p["traced"]]
    untraced = unit_figures(units, plain)
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(units) * len(passes)
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        traced = unit_figures(units, traced_passes)
        metrics = layer_metrics([p["trace"] for p in traced_passes], built.summary(),
                                untraced, traced, setup, workload)
    else:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "wall_ref": {"value": untraced["wall_ref"], "unit": "ratio"},
            "unit_ref": {"value": untraced["unit_ref"], "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    detail = {
        **machine_info(),
        "run": {"workload": workload, "seed": seed, "seconds": seconds,
                "trace": trace, "passes": len(passes), "units": len(units),
                "untraced_passes": len(plain)},
        "inputs": wl.properties(inputs, reference),
        "setup": setup,
        "figures": {"untraced": untraced,
                    **({"traced": traced} if trace else {})},
        "passes": [{"traced": p["traced"], "step_s": p["steps"].round(6).tolist(),
                    "step_unit": p["owner"].tolist(), "ref_s": p["refs"].round(6).tolist()}
                   for p in passes],
        "units": [u.label for u in units],
        "failures": failures[:50],
        "result": result,
    }
    if trace:
        detail["trace"] = traced_passes[0]["trace"]
    write_results(detail, tracer)
    return result


def write_results(detail: dict, tracer: Tracer | None) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    r = detail["run"]
    stem = RESULTS_DIR / f"{r['workload']}-seed{r['seed']}-trace{int(r['trace'])}"
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    if tracer is not None:
        np.savez_compressed(stem.with_name(stem.name + "-spans.npz"), **tracer.spans())
    return stem
