"""One ``setup_s`` sample, run in a fresh interpreter by the benchmark.

Usage: ``python perfbench/setup_probe.py WORKLOAD SEED SCALE STATE_DIR``.
Imports the package, starts the services the workload times against (the
runner or engine, and the pools it uses), prints ``ready``, closes them and
exits.  The parent times spawn-to-``ready``.
"""

import sys
from pathlib import Path


def main() -> None:
    workload, seed, scale, state = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    from workloads import IN_PROCESS

    service = IN_PROCESS[workload](seed, scale).setup_probe(state)
    print("ready", flush=True)
    service.close()


if __name__ == "__main__":
    main()
