"""Child process for ``setup_s``: a fresh interpreter imports ``catproj.cli``,
then runs the workload's probe call once cold and three times warm.

Usage: python3 perfbench/setup_probe.py <workload> <work dir>
Prints one JSON line: the CLOCK_MONOTONIC reading right after the import,
the cold call's seconds and the warm calls' seconds.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import catproj.cli as cli  # noqa: E402

imported = time.monotonic()

from workloads import WORKLOADS, execute  # noqa: E402


def main() -> int:
    work = Path(sys.argv[2])
    call = WORKLOADS[sys.argv[1]]().probe(work)
    times = []
    for _ in range(4):
        rc, seconds, err = execute(call, cli)
        if rc != 0:
            print(err, file=sys.stderr)
            return 1
        times.append(seconds)
    print(json.dumps({"imported": imported, "cold": times[0], "warm": times[1:]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
