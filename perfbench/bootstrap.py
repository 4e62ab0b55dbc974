"""Process set-up shared by every benchmark entry point.

Import this before anything that imports numpy: it pins the BLAS and OpenMP
thread pools to one thread, clears ``QWALK1D_WORKERS`` so the package runs
its default single-threaded paths, and puts this checkout's ``src/`` first
on the import path so the benchmark measures the sources next to it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("QWALK1D_WORKERS", None)


def import_package():
    """Import qwalk1d from ``ROOT/src``; exit with a message if it is not there."""
    package = SRC / "qwalk1d"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no qwalk1d sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qwalk1d

    if Path(qwalk1d.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported qwalk1d from {qwalk1d.__file__}, not {package}")
    return qwalk1d
