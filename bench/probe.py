"""Set-up probe: one fresh interpreter that imports ``linrel.cli`` and
builds a workload's inputs, printing both times as JSON.

    python3 bench/probe.py <workload> <seed>
"""

import json
import sys
import time

from run import use_checkout


def main(workload: str, seed: int) -> None:
    use_checkout()
    t0 = time.perf_counter()
    import linrel.cli  # noqa: F401  (the start-up cost being measured)
    t1 = time.perf_counter()
    from workloads import WORKLOADS
    t2 = time.perf_counter()
    WORKLOADS[workload].inputs(seed)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
