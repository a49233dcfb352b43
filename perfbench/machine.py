"""The machine record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import time

import numpy as np
import scipy
import scipy.linalg  # maps SciPy's own BLAS, so its threads are read too

#: Functions a BLAS exports that return the thread count it uses.
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
    "mkl_get_max_threads",
    "bli_thread_get_num_threads",
)
#: Substrings that mark a shared library (``lib*.so``) as a BLAS.
_BLAS_NAMES = ("openblas", "mkl", "blis", "blas", "atlas")


def _loaded_blas_libraries() -> list:
    """Paths of the BLAS shared objects mapped into this process."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if (name.startswith("lib") and ".so" in name
                    and any(tag in name for tag in _BLAS_NAMES)):
                paths.add(path)
    return sorted(paths)


def blas_threads() -> dict:
    """Thread count each loaded BLAS reports it is using, or "unknown".

    MKL spreads over several shared objects of which one answers; the
    others are left out once it has.
    """
    found = {}
    for path in _loaded_blas_libraries():
        lib = ctypes.CDLL(path)
        found[os.path.basename(path)] = "unknown"
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = int(fn())
                break
    if any(n != "unknown" for name, n in found.items() if "mkl" in name.lower()):
        found = {name: n for name, n in found.items()
                 if not ("mkl" in name.lower() and n == "unknown")}
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        entries = sorted(d for d in os.listdir(base) if d.startswith("index"))
    except OSError:
        return sizes
    for entry in entries:
        def read(key):
            with open(os.path.join(base, entry, key), encoding="utf-8") as fh:
                return fh.read().strip()
        sizes[f"L{read('level')}_{read('type').lower()}"] = read("size")
    return sizes


def _git_commit() -> str:
    """HEAD of the checkout in the working directory; git looks no further up."""
    here = os.getcwd()
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(here))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10, cwd=here, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def python_loop_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs now.

    Not a metric; it lets a reader tell a slower host from a slower program.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return float(np.median(times)) * 1e3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "python_loop_ms": python_loop_ms(),
    }
