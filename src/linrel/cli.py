"""Command-line surface: gen, analyze, sweep, chains, verify.

All I/O goes through files or stdout.  Every report embeds the tool
version, the seeds and tolerances in force, and content hashes of the
instances involved, so a report can be reproduced bit for bit.

Exit codes: 0 all conclusions hold, 1 falsification candidate,
2 input error.  Not-applicable verdicts never change the exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from . import chains as chn
from . import metrics as met
from . import serialize as ser
from . import stability as stab
from . import suites as sts
from .tolerances import tolerance_header

_EXIT_OK = 0
_EXIT_FALSIFIED = 1
_EXIT_INPUT = 2

# Deepest `chains --max-n`.  The containment table has max_n (max_n + 1) / 2
# cells, and every chain of a pair in dimension x has stabilized by step x + 1.
_MAX_N_CEILING = 256


def _header(**extra) -> dict:
    return {"version": __version__, "tolerances": tolerance_header(), **extra}


def _emit(doc: dict, out_path: str | None) -> None:
    text = ser.canonical_json(doc) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(_EXIT_INPUT)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON in {path} at line {exc.lineno} "
              f"column {exc.colno}: {exc.msg}", file=sys.stderr)
        raise SystemExit(_EXIT_INPUT)


def _load_instance(path: str):
    doc = _load_json(path)
    try:
        a, b = ser.instance_from_dict(doc)
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: {path} is not an instance file: {exc}", file=sys.stderr)
        raise SystemExit(_EXIT_INPUT)
    return a, b, doc


def _bound_from_args(args, a, b) -> met.RelativeBound:
    if args.sigma is not None:
        return met.RelativeBound(args.sigma, args.tau or 0.0, "supplied")
    return met.fit_relative_bound(a, b, args.tau or 0.0)


def cmd_gen(args) -> int:
    spec = stab.InstanceSpec(args.xdim, args.ydim, args.alpha, args.beta,
                             args.mv, args.codim,
                             force_nu_infinite=args.force_nu_infinite,
                             seed=args.seed)
    try:
        a, b = stab.generate(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    measured = {
        "alpha": met.alpha(a),
        "beta": met.beta(a),
        "gamma": met.gamma(a),
        "nu": chn.nu(a, b),
    }
    doc = {"header": _header(seed=args.seed,
                             instance_hash=ser.instance_hash(a, b))}
    doc.update(ser.instance_to_dict(a, b, spec=spec.to_dict(), measured=measured))
    _emit(doc, args.out)
    return _EXIT_OK


def _relation_metrics(t, eps_list) -> dict:
    return {
        "alpha": met.alpha(t),
        "beta": met.beta(t),
        "gamma": met.gamma(t),
        "norm": met.norm(t),
        "alpha_prime": [{"eps": e, "value": met.alpha_prime_eps(t, e)}
                        for e in eps_list],
        "beta_prime": met.beta_prime(t),
        "duality": {lemma: ok for lemma, ok, _ in sts.duality_checks(t)},
    }


def cmd_analyze(args) -> int:
    a, b, _ = _load_instance(args.input)
    doc = {
        "header": _header(instance_hash=ser.instance_hash(a, b)),
        "A": _relation_metrics(a, args.eps),
        "B": _relation_metrics(b, args.eps),
    }
    pair: dict = {"nu": chn.nu(a, b)}
    try:
        bound = _bound_from_args(args, a, b)
        # A fitted bound holds by construction; only a supplied one is checked.
        ok = args.sigma is None or met.check_relative_bound(a, b, bound)[0]
        pair["bound"] = ser.bound_to_dict(bound)
        pair["bound_valid"] = ok
        gamma_a = met.gamma(a)
        pair["radii"] = {k: met.stability_radius(gamma_a, bound, k)
                         for k in ("pencil", "alpha", "full")}
        pair["hypotheses_ok"] = True
    except met.HypothesisError as exc:
        pair["hypotheses_ok"] = False
        pair["reason"] = str(exc)
    doc["pair"] = pair
    _emit(doc, args.out)
    return _EXIT_OK


def cmd_sweep(args) -> int:
    a, b, _ = _load_instance(args.input)
    try:
        bound = _bound_from_args(args, a, b)
    except met.HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    gamma_a = met.gamma(a)
    radius = met.stability_radius(gamma_a, bound, "full")
    grid = stab.default_grid(radius, gamma_a, points=args.grid_points,
                             phases=args.phases)
    try:
        report = stab.sweep(a, b, bound, grid,
                            validate_bound=args.sigma is not None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    doc = {"header": _header(instance_hash=ser.instance_hash(a, b),
                             grid_points=args.grid_points, phases=args.phases)}
    doc.update(report.to_dict())
    base = args.out
    with open(base + ".json", "w", encoding="utf-8") as fh:
        fh.write(ser.canonical_json(doc) + "\n")
    with open(base + ".csv", "w", encoding="utf-8") as fh:
        fh.write(ser.sweep_csv(report.records))
    return _EXIT_OK


def cmd_chains(args) -> int:
    a, b, _ = _load_instance(args.input)
    report = chn.chain_report(a, b, args.max_n)
    doc = {"header": _header(instance_hash=ser.instance_hash(a, b))}
    doc.update(report.to_dict())
    doc["equivalent_conditions"] = [
        chn.check_equivalent_conditions(a, b, n) for n in range(1, a.x_dim + 1)]
    doc["nu_duality"] = {
        k: v for k, v in chn.verify_nu_duality(a, b).items()
        if not isinstance(v, list) or k == "hypothesis_failures"}
    _emit(doc, args.out)
    return _EXIT_OK


def cmd_verify(args) -> int:
    if args.replay:
        return _run_replay(args)
    names = list(sts.SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = {name: sts.run_suite(name, args.trials, args.seed)
               for name in names}
    total_failures = sum(r.conclusion_failures for r in results.values())
    doc = {
        "header": _header(seed=args.seed, trials=args.trials, suite=args.suite),
        "suites": {name: results[name].to_dict() for name in names},
        "conclusion_failures": total_failures,
    }
    if total_failures:
        doc["replay"] = [
            {"suite": name, "seed": args.seed,
             "cases": [f["case"] for f in results[name].failures]}
            for name in names if results[name].failures]
    _emit(doc, args.out)
    if args.out:
        # keep stdout summary short and deterministic
        for name in names:
            r = results[name]
            print(f"{name}: {r.conclusion_failures} conclusion failure(s) "
                  f"in {r.trials} trials")
    return _EXIT_FALSIFIED if total_failures else _EXIT_OK


def _run_replay(args) -> int:
    doc = _load_json(args.replay)
    # One payload, or a verify summary's list of them under "replay".
    payloads = [doc]
    if isinstance(doc, dict) and "cases" not in doc:
        payloads = doc.get("replay")
    try:
        if not (isinstance(payloads, list) and all(
                isinstance(p, dict) and p.get("suite") in sts.SUITE_NAMES
                and isinstance(p.get("cases"), list)
                and isinstance(p.get("seed", 0), int) for p in payloads)):
            raise sts.ReplayError(
                "it needs 'cases' or 'replay', and each payload a 'suite', "
                "a list of 'cases' and an integer 'seed' if any")
        results = [sts.run_replay(payload) for payload in payloads]
    except sts.ReplayError as exc:
        print(f"error: {args.replay} is not a replay file: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    total = sum(r.conclusion_failures for r in results)
    _emit({"header": _header(), "suites": {r.name: r.to_dict() for r in results},
           "conclusion_failures": total}, args.out)
    return _EXIT_FALSIFIED if total else _EXIT_OK


def _nonneg_float(text: str) -> float:
    """argparse type: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _nonneg_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _max_n(text: str) -> int:
    """argparse type: an integer from 0 to the ceiling."""
    value = _nonneg_int(text)
    if value > _MAX_N_CEILING:
        raise argparse.ArgumentTypeError(
            f"must be <= {_MAX_N_CEILING}, got {text!r}")
    return value


def _eps_list(text: str) -> list[float]:
    """argparse type: comma-separated finite numbers >= 0."""
    return [_nonneg_float(e) for e in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linrel",
        description="Finite-dimensional calculus for linear relations: "
                    "instance generation, analysis, pencil sweeps and "
                    "property-suite verification.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a structured (A, B) instance")
    gen.add_argument("--xdim", type=int, required=True)
    gen.add_argument("--ydim", type=int, required=True)
    gen.add_argument("--alpha", type=int, required=True)
    gen.add_argument("--beta", type=int, required=True)
    gen.add_argument("--mv", type=int, default=0, help="dim A(0)")
    gen.add_argument("--codim", type=int, default=0, help="codim of D(A)")
    gen.add_argument("--force-nu-infinite", action="store_true")
    gen.add_argument("--seed", type=_nonneg_int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    analyze = commands.add_parser("analyze", help="indices, norms and duality "
                                                  "checks for one instance")
    analyze.add_argument("input")
    analyze.add_argument("--sigma", type=_nonneg_float, default=None)
    analyze.add_argument("--tau", type=_nonneg_float, default=None)
    analyze.add_argument("--eps", type=_eps_list, default=[0.25, 0.5, 1.0],
                         help="comma-separated eps list for approximate nullity")
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(func=cmd_analyze)

    swp = commands.add_parser("sweep", help="pencil sweep to JSON + CSV")
    swp.add_argument("input")
    swp.add_argument("--sigma", type=_nonneg_float, default=None)
    swp.add_argument("--tau", type=_nonneg_float, default=None)
    swp.add_argument("--grid-points", type=_nonneg_int, default=64,
                     help="log-spaced moduli count (0 gives a header-only CSV)")
    swp.add_argument("--phases", type=_nonneg_int, default=8)
    swp.add_argument("--out", required=True,
                     help="output base path; writes BASE.json and BASE.csv")
    swp.set_defaults(func=cmd_sweep)

    chains_p = commands.add_parser("chains", help="chain report for one instance")
    chains_p.add_argument("input")
    chains_p.add_argument("--max-n", type=_max_n, default=None,
                          help=f"chain steps to report, 0 to {_MAX_N_CEILING} "
                               "(default: until the chains stabilize)")
    chains_p.add_argument("--out", default=None)
    chains_p.set_defaults(func=cmd_chains)

    verify = commands.add_parser("verify", help="run property suites")
    verify.add_argument("--suite", default="all",
                        choices=list(sts.SUITE_NAMES) + ["all"])
    verify.add_argument("--trials", type=_nonneg_int, default=200)
    verify.add_argument("--seed", type=_nonneg_int, default=1)
    verify.add_argument("--replay", default=None,
                        help="re-run serialized cases from a summary/replay file")
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
