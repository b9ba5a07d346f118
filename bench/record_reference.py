"""Record the expected outputs that the benchmark checks against.

    python3 bench/record_reference.py [workload ...]

Run once at the commit that defines the benchmark; the files it writes
under ``bench/reference/`` are committed.  Later commits are checked
against them, so rerunning this on a changed library would hide a change
in its results.
"""

import json
import sys

from run import use_checkout


def main(names: list[str]) -> None:
    use_checkout()
    from workloads import REFERENCE_DIR, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(WORKLOADS):
        with open(REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(WORKLOADS[name].record(), fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {REFERENCE_DIR / name}.json")


if __name__ == "__main__":
    main(sys.argv[1:])
