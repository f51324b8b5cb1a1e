"""The host and toolchain record attached to every benchmark result.

Speedups compare like with like only on one host, so each result names
the CPU count and model, the BLAS library and the thread count it
actually runs with, the Python / numpy / scipy versions, and the source
revision (the git commit when the checkout is a repository, and always
a digest of the ``src/`` tree, which identifies the code in an exported
checkout too).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path
from typing import Any, Dict, Optional

#: Environment variables that pin BLAS / OpenMP pools; the harness sets
#: each to ``1`` before numpy is first imported.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Thread-count getters of the BLAS builds numpy and scipy ship with.
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def pin_threads() -> None:
    """One BLAS / OpenMP thread: CPU time then equals wall time."""
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


#: File-name prefixes of BLAS shared libraries.
_BLAS_LIBRARIES = (
    "libscipy_openblas",
    "libopenblas",
    "libmkl_rt",
    "libblas",
    "libcblas",
    "libflexiblas",
)


def _loaded_blas_path() -> Optional[str]:
    """The first BLAS shared library mapped into this process."""
    try:
        with open("/proc/self/maps") as handle:
            for line in handle:
                path = line.rsplit(" ", 1)[-1].strip()
                if os.path.basename(path).lower().startswith(_BLAS_LIBRARIES):
                    return path
    except OSError:
        pass
    return None


def _blas_threads(path: Optional[str]) -> Optional[int]:
    if path is None:
        return None
    try:
        library = ctypes.CDLL(path)
    except OSError:
        return None
    for getter in _BLAS_THREAD_GETTERS:
        function = getattr(library, getter, None)
        if function is not None:
            function.restype = ctypes.c_int
            function.argtypes = []
            return int(function())
    return None


def _git_commit(root: Path) -> Optional[str]:
    """HEAD of ``root`` read from ``.git`` directly (no subprocess)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of ``src/**/*.py``."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(root: Path) -> Dict[str, Any]:
    """Everything a result needs to be compared on the same host."""
    import numpy
    import scipy

    blas = _loaded_blas_path()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "blas_library": os.path.basename(blas) if blas else None,
        "blas_threads": _blas_threads(blas),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root),
    }
