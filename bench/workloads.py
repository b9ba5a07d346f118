"""The three benchmark workloads: inputs, units, reference kernels, checks.

Each workload makes its inputs from ``--seed``: a pair drawn from a fixed
pool for ``sweep-n64``, the order of a fixed set of units for the others.
The expected outputs were recorded at the commit that introduced the
benchmark (``reference/<workload>.json``, written by
``record_reference.py``).  A unit is timed library work on relations
built afresh from the generated arrays in every pass; its output is
checked against the recorded reference.

The reference kernel is a fixed numpy loop that calls no linrel code.
It runs between units so every unit time can be divided by the speed the
machine had at that moment; its matrix sizes match the workload.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Generator

import numpy as np
# Bound before any tracer patches numpy, so reference kernels stay untraced.
from numpy.linalg import lstsq as _lstsq
from numpy.linalg import qr as _qr
from numpy.linalg import svd as _svd

from linrel import chains as chn
from linrel import metrics as met
from linrel import relation as rel
from linrel import stability as stab
from linrel import subspace as sub
from linrel import suites as sts

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# |new - ref| <= REL_TOL |ref| + ABS_FLOOR for gamma, gaps and residuals.
REL_TOL = 1e-12
ABS_FLOOR = 64 * np.finfo(float).eps


@dataclass
class Unit:
    """One timed piece of work.

    ``steps()`` returns a generator that does the work, yields between
    steps and returns the unit's output; the reference kernel runs after
    every step, so a long unit is still timed against the machine's speed
    at each moment.  ``items`` is the number of work items the unit stands
    for (lambda points in a sweep slice); 0 keeps it out of the per-unit
    medians while its time still counts toward the pass.
    """

    label: str
    group: str
    steps: Callable[[], Generator]
    check: Callable[[object], str | None]
    items: int = 1


def single(fn: Callable[[], object]) -> Callable[[], Generator]:
    """A one-step unit: the generator returns ``fn()`` when first resumed."""
    def steps():
        yield from ()
        return fn()
    return steps


def drain(steps: Generator):
    """Run a unit's steps to the end; return its output."""
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        return stop.value


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def pencil_kernel(reps: int) -> Callable[[], None]:
    """``reps`` rounds of the LAPACK calls that dominate one ``sweep-n64``
    point: a 64 x 64 least-squares solve, a thin SVD of a 128 x 64 basis
    and a full 64 x 64 SVD.  Over five runs of one fixed pass, the pass
    time in these units varied by 0.9% (coefficient of variation), in
    units of two 128 x 128 SVDs by 1.7%, and in raw seconds by 6.9%."""
    rng = np.random.default_rng(20091239)
    square, rhs, tall = (_complex(rng, s) for s in ((64, 64), (64, 64), (128, 64)))

    def kernel() -> None:
        for _ in range(reps):
            _lstsq(square, rhs, rcond=None)
            _svd(tall, full_matrices=False)
            _svd(square)
    return kernel


def small_kernel(reps: int) -> Callable[[], None]:
    """``reps`` rounds of the tiny-matrix numpy work a suite call is made
    of: thin SVD, QR, projector, least squares, stacking and norms on
    complex bases with at most 16 rows.  Python and numpy call overhead
    weigh in it as they do in ``verify-all``; an SVD-only loop followed
    that workload's speed less closely (correlation 0.77 against 0.89)."""
    rng = np.random.default_rng(20091239)
    mats = [_complex(rng, shape) for shape in ((6, 3), (8, 4), (12, 6), (16, 4), (16, 8))]

    def kernel() -> None:
        for _ in range(reps):
            for m in mats:
                s = _svd(m, full_matrices=False)[1]
                q = _qr(m)[0]
                p = q @ q.conj().T
                _lstsq(m, p[:, :1], rcond=None)
                stacked = np.concatenate([m, p @ m], axis=1)
                float(np.abs(stacked - m.sum()).max()) + float(s.max())
    return kernel


def chains_kernel() -> Callable[[], None]:
    """Full SVDs at the chain pairs' own sizes (16, 24, 32, 32), then two
    rounds of ``small_kernel``.  ``chains-deep`` is LAPACK at those sizes
    plus Python overhead; over five runs of fixed work its time in these
    units varied by 1.3% (coefficient of variation), in units of four
    48 x 48 SVDs by 3.2%, and in raw seconds by 8.6%."""
    rng = np.random.default_rng(20091239)
    mats = [_complex(rng, (n, n)) for n in (16, 24, 32, 32)]
    small = small_kernel(2)

    def kernel() -> None:
        for m in mats:
            _svd(m)
        small()
    return kernel


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _close(new: float, ref: float) -> bool:
    if math.isinf(ref) or math.isinf(new):
        return new == ref
    return abs(new - ref) <= REL_TOL * abs(ref) + ABS_FLOOR


# ---------------------------------------------------------------------------
# verify-all: the six property suites, one (suite, seed) call per unit

class VerifyAll:
    name = "verify-all"
    # Trials per unit, chosen so every suite's unit costs about 50 ms.
    TRIALS = {"algebra": 4, "duality": 8, "gap": 24, "chains": 3,
              "perturbation": 8, "stability": 1}
    # The fixed suite seeds.  The benchmark seed sets the order of the
    # units only, so every run does the same work: a seed-drawn subset
    # changed the median unit with the draw.
    SUITE_SEEDS = tuple(range(1, 17))
    kernel = staticmethod(small_kernel(8))

    @classmethod
    def inputs(cls, seed: int) -> dict:
        jobs = [(suite, s) for s in cls.SUITE_SEEDS for suite in sts.SUITE_NAMES]
        order = np.random.default_rng(seed).permutation(len(jobs))
        return {"jobs": [jobs[i] for i in order]}

    @staticmethod
    def summarize(result) -> dict:
        return {"digest": result.instances_digest,
                "conclusion_failures": result.conclusion_failures,
                "lemmas": {k: [v[s] for s in ("pass", "fail", "not_applicable",
                                               "indeterminate")]
                           for k, v in sorted(result.lemmas.items())}}

    @staticmethod
    def compare(ref: dict, new: dict) -> str | None:
        """Equal, except that verdicts may move to indeterminate."""
        if new["conclusion_failures"]:
            return f"{new['conclusion_failures']} conclusion failure(s)"
        if new["digest"] != ref["digest"]:
            return "instances digest differs"
        if new["lemmas"].keys() != ref["lemmas"].keys():
            return "lemma set differs"
        for lemma, want in ref["lemmas"].items():
            got = new["lemmas"][lemma]
            if sum(got) != sum(want) or any(g > w for g, w in zip(got[:3], want[:3])):
                return f"{lemma}: tally {got} vs reference {want}"
        return None

    @classmethod
    def run_job(cls, suite: str, seed: int):
        return sts.run_suite(suite, cls.TRIALS[suite], seed)

    @classmethod
    def units(cls, inputs: dict, reference: dict) -> list[Unit]:
        out = []
        for suite, seed in inputs["jobs"]:
            ref = reference["suites"][suite][str(seed)]
            out.append(Unit(
                f"{suite}/{seed}", suite,
                steps=single(lambda suite=suite, seed=seed: cls.run_job(suite, seed)),
                check=lambda res, ref=ref: cls.compare(ref, cls.summarize(res))))
        return out

    @classmethod
    def properties(cls, inputs: dict, reference: dict) -> dict:
        return {"suite_seeds": list(cls.SUITE_SEEDS), "trials_per_unit": cls.TRIALS,
                "cases_per_pass": len(cls.SUITE_SEEDS) * sum(cls.TRIALS.values()),
                "first_units": [f"{suite}/{s}" for suite, s in inputs["jobs"][:6]]}

    @classmethod
    def record(cls) -> dict:
        return {"trials": cls.TRIALS,
                "suites": {suite: {str(s): cls.summarize(cls.run_job(suite, s))
                                   for s in cls.SUITE_SEEDS}
                           for suite in sts.SUITE_NAMES}}


# ---------------------------------------------------------------------------
# sweep-n64: one generated pair at x = y = 64 on the default 513-point grid

class SweepN64:
    name = "sweep-n64"
    # Generator seeds of the pool pairs.  One shape (alpha = beta = 2) for
    # all of them: other shapes cost up to 5% more per point, which would
    # make the run's cost depend on the seed.
    POOL = (101, 102, 103, 104, 105, 106)
    DIM, POINTS, PHASES = 64, 64, 8
    FIELDS_EXACT = ("alpha", "beta", "indeterminate")
    FIELDS_CLOSE = ("gamma", "gap_fwd", "gap_bwd")
    kernel = staticmethod(pencil_kernel(2))

    @classmethod
    def build(cls, index: int) -> dict:
        """Generated pair, exact tau = 0 bound and grid, as ``linrel sweep``."""
        spec = stab.InstanceSpec(cls.DIM, cls.DIM, 2, 2, force_nu_infinite=True,
                                 seed=cls.POOL[index])
        a, b = stab.generate(spec)
        bound = met.fit_relative_bound(a, b, 0.0)
        gamma_a = met.gamma(a)
        grid = stab.default_grid(met.stability_radius(gamma_a, bound, "full"),
                                 gamma_a, points=cls.POINTS, phases=cls.PHASES)
        return {"index": index, "spec": spec.to_dict(), "bound": bound,
                "graph_a": np.array(a.graph.basis), "graph_b": np.array(b.graph.basis),
                "grid": grid}

    @classmethod
    def inputs(cls, seed: int) -> dict:
        return cls.build(int(np.random.default_rng(seed).integers(len(cls.POOL))))

    @classmethod
    def pair(cls, inputs: dict):
        """Fresh relations from the generated bases, as ``linrel sweep``
        builds them after loading its input file."""
        n = 2 * cls.DIM
        a = rel.from_graph(sub.Subspace(n, inputs["graph_a"]), cls.DIM, cls.DIM)
        b = rel.from_graph(sub.Subspace(n, inputs["graph_b"]), cls.DIM, cls.DIM)
        return a, b

    @classmethod
    def slices(cls) -> list[tuple[int, int]]:
        """lambda = 0 with the first modulus, then one slice per modulus."""
        edges = [0] + list(range(1 + cls.PHASES, 1 + cls.POINTS * cls.PHASES + 1,
                                 cls.PHASES))
        return list(zip(edges[:-1], edges[1:]))

    @staticmethod
    def run_slice(a, b, inputs: dict, lo: int, hi: int) -> list[dict]:
        return stab.sweep(a, b, inputs["bound"], inputs["grid"][lo:hi],
                          validate_bound=False).records

    @staticmethod
    def run_bound(a, b, inputs: dict) -> tuple[bool, float]:
        ok, worst = met.check_relative_bound(a, b, inputs["bound"])
        return ok, worst["residual"]

    @classmethod
    def compare_records(cls, ref: dict, lo: int, records: list[dict]) -> str | None:
        for i, r in enumerate(records, start=lo):
            for f in cls.FIELDS_EXACT:
                if r[f] != ref[f][i]:
                    return f"lambda #{i}: {f} {r[f]} vs reference {ref[f][i]}"
            for f in cls.FIELDS_CLOSE:
                if not _close(float(r[f]), float(ref[f][i])):
                    return f"lambda #{i}: {f} {r[f]!r} vs reference {ref[f][i]!r}"
        return None

    @classmethod
    def compare_bound(cls, ref: dict, got: tuple[bool, float]) -> str | None:
        ok, residual = got
        if ok is not True or not _close(residual, ref["bound_residual"]):
            return f"bound check ({ok}, {residual!r}) vs (True, {ref['bound_residual']!r})"
        return None

    @classmethod
    def units(cls, inputs: dict, reference: dict) -> list[Unit]:
        """A pass is one ``linrel sweep``: the bound check on fresh
        relations, the sweep's lambda-independent set-up, then the grid in
        slices.  The slices share the pass's relations, so the set-up's
        cached results carry over from one slice to the next as they do
        within one sweep call.  Measured at x = y = 64: the set-up costs
        about 24 ms on fresh relations and 0.9 ms on the shared ones,
        against about 230 ms for a slice of 8 points.  Fresh relations
        per slice would add 9% of set-up to every slice, where one
        ``linrel sweep`` pays it once."""
        ref = reference["pairs"][inputs["index"]]
        pair: list = []

        def bound():
            pair[:] = cls.pair(inputs)
            return cls.run_bound(*pair, inputs)

        out = [Unit("check_relative_bound", "bound", items=0, steps=single(bound),
                    check=lambda got: cls.compare_bound(ref, got)),
               Unit("sweep_setup", "setup", items=0,
                    steps=single(lambda: cls.run_slice(*pair, inputs, 0, 0)),
                    check=lambda recs: None if recs == [] else "records on an empty grid")]
        for lo, hi in cls.slices():
            out.append(Unit(
                f"lambda[{lo}:{hi}]", "slice", items=hi - lo,
                steps=single(lambda lo=lo, hi=hi: cls.run_slice(*pair, inputs, lo, hi)),
                check=lambda recs, lo=lo: cls.compare_records(ref, lo, recs)))
        return out

    @staticmethod
    def traced_units(units: list[Unit]) -> list[Unit]:
        """A fixed quarter of the pass (the bound check, the set-up and
        every fourth slice), so that an untraced and a traced pass both
        fit in one run."""
        return units[:2] + units[2::4]

    @classmethod
    def properties(cls, inputs: dict, reference: dict) -> dict:
        return {"pool_index": inputs["index"], "spec": inputs["spec"],
                "sigma": inputs["bound"].sigma, "grid_points": len(inputs["grid"]),
                "slices": len(cls.slices())}

    @classmethod
    def record(cls) -> dict:
        pairs = []
        for index in range(len(cls.POOL)):
            inputs = cls.build(index)
            a, b = cls.pair(inputs)
            residual = cls.run_bound(a, b, inputs)[1]
            records = cls.run_slice(a, b, inputs, 0, len(inputs["grid"]))
            entry = {f: [r[f] for r in records]
                     for f in cls.FIELDS_EXACT + cls.FIELDS_CLOSE}
            entry["bound_residual"] = residual
            pairs.append(entry)
        return {"pool": cls.POOL, "pairs": pairs}


# ---------------------------------------------------------------------------
# chains-deep: `linrel chains` on pairs with long M and N chains

def _haar(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r).real)


def deep_pair(x: int, depth: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (A, B) on C^x whose chains run ``depth`` steps.

    B is a random well-conditioned operator and A = B C, where C is a
    unitarily rotated nilpotent Jordan block of size ``depth`` plus an
    invertible block.  Then M_n = R(C^n) and N_n = N(C^n), so both chains
    move one dimension per step until n = depth, and nu(A:B) = depth.
    """
    rng = np.random.default_rng(seed)
    core = np.zeros((x, x), dtype=complex)
    core[np.arange(depth - 1), np.arange(1, depth)] = 1.0
    rest = x - depth
    core[depth:, depth:] = (_haar(rng, rest) @ np.diag(rng.uniform(0.5, 2.0, rest))
                            @ _haar(rng, rest))
    q = _haar(rng, x)
    b = _haar(rng, x) @ np.diag(rng.uniform(0.5, 2.0, x)) @ _haar(rng, x)
    return b @ (q @ core @ q.conj().T), b


class ChainsDeep:
    name = "chains-deep"
    # (x, depth) of the pairs.  The pairs are fixed and the benchmark seed
    # sets their order only: pairs drawn by the seed differed in cost by
    # 5-13% within one (x, depth), so a drawn set moved the figures.
    CLASSES = [(16, 4), (16, 8), (24, 6), (24, 12), (32, 8), (32, 16)]
    kernel = staticmethod(chains_kernel())

    @staticmethod
    def key(x: int, depth: int) -> str:
        return f"x{x}-d{depth}"

    @classmethod
    def build(cls, x: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
        return deep_pair(x, depth, seed=1000 * x + 10 * depth)

    @classmethod
    def inputs(cls, seed: int) -> dict:
        order = np.random.default_rng(seed).permutation(len(cls.CLASSES))
        return {"pairs": [(cls.key(*cls.CLASSES[i]), cls.build(*cls.CLASSES[i]))
                          for i in order]}

    @staticmethod
    def pair_steps(am: np.ndarray, bm: np.ndarray) -> Generator:
        """What ``linrel chains`` computes for one instance, one library
        call per step, on relations built once for the pair."""
        a, b = rel.from_matrix(am), rel.from_matrix(bm)
        doc = chn.chain_report(a, b).to_dict()
        yield
        conditions = []
        for n in range(1, a.x_dim + 1):
            conditions.append(chn.check_equivalent_conditions(a, b, n))
            yield
        doc["equivalent_conditions"] = conditions
        doc["nu_duality"] = chn.verify_nu_duality(a, b)
        return doc

    @staticmethod
    def summarize(doc: dict) -> dict:
        return {"digest": _digest(doc), "m_dims": doc["m_dims"],
                "n_dims": doc["n_dims"], "nu": doc["nu"],
                "nu_dual": doc["nu_duality"].get("nu_dual")}

    @staticmethod
    def compare(ref: dict, new: dict) -> str | None:
        if new == ref:
            return None
        return f"chain report {new} vs reference {ref}"

    @classmethod
    def units(cls, inputs: dict, reference: dict) -> list[Unit]:
        out = []
        for key, (am, bm) in inputs["pairs"]:
            ref = reference["pairs"][key]
            out.append(Unit(key, key,
                            steps=lambda am=am, bm=bm: cls.pair_steps(am, bm),
                            check=lambda doc, ref=ref: cls.compare(ref, cls.summarize(doc))))
        return out

    @staticmethod
    def properties(inputs: dict, reference: dict) -> dict:
        """Chain dims and nu of each pair, as recorded in the reference."""
        return {key: {f: v for f, v in reference["pairs"][key].items() if f != "digest"}
                for key, _ in inputs["pairs"]}

    @classmethod
    def record(cls) -> dict:
        return {"pairs": {cls.key(x, d): cls.summarize(drain(cls.pair_steps(*cls.build(x, d))))
                          for x, d in cls.CLASSES}}


WORKLOADS = {w.name: w for w in (VerifyAll, SweepN64, ChainsDeep)}
