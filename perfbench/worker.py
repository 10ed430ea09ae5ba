"""One fresh process: set up a workload and, unless only set-up is timed,
run one pass over its operations.

    python3 perfbench/worker.py ROOT WORKLOAD SEED MODE

MODE is ``setup`` (import and build inputs only), ``pass`` (also run and
check every operation) or ``trace`` (a pass with spans around the
package's public functions). The result is one JSON line on stdout.
The package is imported from ROOT/src, never from an installed copy.
"""

import json
import os
import platform
import resource
import sys
import time


def main(argv) -> int:
    root, workload, seed, mode = argv[1], argv[2], int(argv[3]), argv[4]
    sys.path.insert(0, os.path.join(root, "src"))
    out = {}

    t0 = time.perf_counter()
    import focksobolev

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install(focksobolev)
    import workloads

    ops = workloads.build(workload, seed)
    out["setup_s"] = time.perf_counter() - t0
    if not os.path.samefile(os.path.dirname(focksobolev.__file__),
                            os.path.join(root, "src", "focksobolev")):
        raise RuntimeError(f"focksobolev was imported from {focksobolev.__file__}")
    if mode == "setup":
        print(json.dumps(out))
        return 0

    if tracer is not None:
        tracer.phase = "pass"
    results = []
    t_pass = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            value, error = op.run(), None
        except Exception as exc:  # a raising operation counts as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
        results.append((op, time.perf_counter() - t, value, error))
    out["pass_s"] = time.perf_counter() - t_pass
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out["ops"] = []
    for op, seconds, value, error in results:
        if error is None:
            error = op.check(value)
        out["ops"].append({"name": op.name, "s": seconds, "error": error,
                           "digest": None if error else op.digest(value)})
    if tracer is not None:
        out.update(tracer.summary())
        out["spans"] = tracer.span_records()
        out["span_cost_s"] = tracer.span_cost()
    out["env"] = _environment()
    print(json.dumps(out))
    return 0


def _environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            **_blas_threads()}


def _blas_threads() -> dict:
    """Name and thread count of the OpenBLAS that numpy loaded."""
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and config is not None:
                    getter.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return {"blas": config().decode(), "blas_threads": getter()}
    return {"blas": "unknown", "blas_threads": None}


if __name__ == "__main__":
    sys.exit(main(sys.argv))
