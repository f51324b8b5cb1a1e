"""Make the benchmark's modules and the program importable, BLAS pinned.

Run with ``python -m pytest perfbench/tests`` from the checkout root.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def pytest_sessionfinish(session, exitstatus):
    """Reap the resource tracker the service tests start, as a run does."""
    import run

    run._stop_resource_tracker()
