"""Process set-up shared by the benchmark scripts.

`prepare()` must run before numpy is imported: it caps the BLAS and OpenMP
thread pools at the number of usable cores and puts this checkout's `src/`
first on the import path, so the benchmark always measures the code next to
it and never an installed copy.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Cap thread pools at nproc and import cosub from this checkout.

    Exits with a message and a non-zero code when the checkout holds no
    cosub source tree.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    cap = nproc()
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= cap):
            os.environ[var] = str(cap)
    package = SRC / "cosub"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cosub source tree at {package}")
    sys.path.insert(0, str(SRC))
    import cosub

    if Path(cosub.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported cosub from {cosub.__file__}, "
                         f"expected {package}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """Name, version and live thread count of numpy's BLAS, where they can be read."""
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        pass
    # Wheels bundle OpenBLAS next to numpy; loading it again returns the
    # handle already in the process, so its thread count is the live one.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    """Machine and library facts recorded with every result."""
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
