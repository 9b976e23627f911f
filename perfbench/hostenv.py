"""Paths, the BLAS thread cap and host facts for the benchmark.

Nothing here imports numpy at module level: prepare() must run before the
first numpy import so that the thread cap reaches OpenBLAS.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "grassgeo"
WORK = ROOT / ".perfbench"
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CPUS = sorted(os.sched_getaffinity(0))
# The benchmark, its calibration kernel and its child processes share one
# CPU, so that the calibration measures the CPU the work ran on.  The
# highest-numbered one, as CPU 0 usually takes most interrupts.
PINNED_CPU = CPUS[-1]


class SetupError(Exception):
    """The checkout does not hold the grassgeo sources the benchmark measures."""


def prepare() -> None:
    """Pin to one CPU, cap BLAS threads and import grassgeo from this
    checkout's src/ only.

    Call it before numpy is imported, or the cap does not reach OpenBLAS;
    host_facts() reports the thread count actually in use.  The environment
    changes and the pinning are inherited by every child process, so the CLI
    subprocesses see the same sources, thread cap and CPU.
    """
    if not (PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no grassgeo sources at {PACKAGE}")
    os.sched_setaffinity(0, {PINNED_CPU})
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import grassgeo

    if Path(grassgeo.__file__).resolve().parent != PACKAGE:
        raise SetupError(f"imported grassgeo from {grassgeo.__file__}, not {PACKAGE}")


def _blas_threads_in_use():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the grassgeo sources, so runs outside git still name the code."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": int(BLAS_THREADS),
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": len(CPUS),
        "pinned_cpu": PINNED_CPU,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "source_sha256": source_digest(),
    }
