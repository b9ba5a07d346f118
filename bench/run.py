"""Benchmark entry point for linrel.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Runs one workload against the linrel package in ``src/`` of the checkout
this file sits in, checks every output against the recorded reference and
prints one JSON object as the last line of standard output: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  A
result file with machine, versions and input properties is written under
``bench/results/``.  See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# One thread: BLAS (set before numpy loads OpenBLAS) and linrel's own
# suite thread pool.  Set-up probes inherit it.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "LINREL_THREADS": "1"}


def use_checkout() -> None:
    """Pin threads and put the checkout's ``src/`` first on the path."""
    if not (SRC / "linrel" / "__init__.py").is_file():
        sys.exit(f"error: no linrel package under {SRC}; run inside a linrel checkout")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-all", "sweep-n64", "chains-deep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    use_checkout()
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
