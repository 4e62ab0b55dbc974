"""One set-up sample: a fresh interpreter imports numpy and qwalk1d, then
builds, writes and parses one workload's configs, and prints the seconds
that took.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR
(run.py starts it several times and reports the median as setup_s).
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.import_package()

import workloads  # noqa: E402  (needs the import path set above)

if __name__ == "__main__":
    name, seed, work = sys.argv[1:]
    workloads.setup(name, int(seed), Path(work))
    print(time.perf_counter() - T_START)
