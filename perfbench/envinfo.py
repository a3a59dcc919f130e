"""The environment a result was measured in, recorded with every result."""

import ctypes
import glob
import os
import platform
import subprocess

import numpy as np

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if it is not OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def llc_bytes():
    """Size of the highest cache level of CPU 0, from sysfs."""
    best = (0, None)
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        with open(os.path.join(index, "level")) as fh:
            level = int(fh.read())
        with open(os.path.join(index, "size")) as fh:
            size = fh.read().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * scale))
    return best[1]


def git_commit(root):
    """Commit checked out at ``root``, or None outside a git checkout."""
    # The ceiling keeps git from taking the commit of a repository that
    # merely contains an unversioned checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(os.path.abspath(root))}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, check=False)
    except OSError:             # no git on this machine
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc_bytes(),
        "seed": seed,
        "git_commit": git_commit(root),
    }
