"""Fixed-input probes reported by the traced run, and the host record.

The kernel probes are the fixed inputs of ``benchmarks/bench_kernels.py``,
called through the public ``ifsconj._kernels`` names only, so they keep
working whichever implementation sits behind those names. Each reports its
time and the bytes its arrays move, computed from the array sizes.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

F8 = 8  # bytes per float64 or int64 element


def kernel_probes() -> list:
    """(name, callable, megabytes moved) for each fixed kernel input."""
    from ifsconj import _kernels as K

    rng = np.random.default_rng(0)
    codes = np.array([1, 2], dtype=np.int64)
    ks, cs, bs = np.array([0.5, 0.3]), np.array([0.1, 0.1]), np.zeros(2)
    symbols = rng.integers(0, 2, 1_000_000).astype(np.int64)
    diags = np.array([[0.5, 0.3, 0.7], [0.25, 0.6, 0.4]])
    dsyms = rng.integers(0, 2, 200_000).astype(np.int64)
    xs = rng.uniform(-10, 10, 200_000)
    grid = np.linspace(-10, 10, 2048)
    fx = 0.5 * grid + 0.2 * np.sin(grid)
    n = grid.size
    return [
        # symbols in, trajectory out
        ("orbit_chain", lambda: K.orbit_chain(codes, ks, cs, bs, symbols, 5.0),
         2 * symbols.size * F8),
        # symbols in, (n, 3) trajectory out
        ("orbit_chain_diag", lambda: K.orbit_chain_diag(diags, dsyms, np.ones(3)),
         dsyms.size * F8 * (1 + 3)),
        # points in, values out, once per bridge
        ("fd_eval", lambda: (K.fd_eval(xs, 0.41, 0.73, 1.0, K.BRIDGE_LINEAR, 2048),
                             K.fd_eval(xs, 0.41, 0.73, 1.0, K.BRIDGE_POWER, 2048)),
         2 * 2 * xs.size * F8),
        # the all-pairs difference and quotient matrices
        ("pairwise_quotient_max", lambda: K.pairwise_quotient_max(grid, fx),
         3 * n * n * F8),
    ]


def run_kernel_probes(repeats: int = 3) -> dict:
    out = {}
    for name, fn, nbytes in kernel_probes():
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        out[f"kernels.{name}.probe_ms"] = 1e3 * statistics.median(times)
        out[f"kernels.{name}.probe_mb"] = nbytes / 1e6
    return out


def calibrate() -> float:
    """Milliseconds for a fixed pure-numpy loop; tracks host speed drift."""
    rng = np.random.default_rng(12345)
    a = rng.random(20_000)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(200):
        b = np.sort(a) * 1.0001
        acc += float(np.sum(np.sqrt(b)))
    return 1e3 * (time.perf_counter() - t0)


def cli_startup(root: str, repeats: int = 3) -> dict:
    """Interpreter start and `import ifsconj.cli`, each the median of repeats."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")

    def timed(code: str) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True)
            times.append(time.perf_counter() - t0)
        return 1e3 * statistics.median(times)

    interp = timed("pass")
    return {"cli.interp_ms": interp, "cli.import_ms": timed("import ifsconj.cli") - interp}


def host_record() -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }
