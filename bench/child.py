"""One benchmark iteration in a fresh interpreter.

Usage: python3 bench/child.py '<json spec>'

The spec gives the monotonic time the parent spawned this process, the
source directory to import conescale from, the CLI arguments (null for a
set-up-only run), whether to trace, and where to write the result JSON.
set-up time runs from the spawn until ``conescale.cli`` is imported.
"""

import json
import os
import resource
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
import conescale.cli  # noqa: E402

setup_s = time.monotonic() - spec["spawned"]


def blas_record():
    """BLAS library name and the thread count it actually runs with."""
    import ctypes
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


def main():
    here = os.path.realpath(conescale.cli.__file__)
    if not here.startswith(os.path.realpath(spec["src"]) + os.sep):
        print(f"conescale imported from {here}, not {spec['src']}",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if spec.get("env"):
        result["env"] = blas_record()
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        start = time.perf_counter()
        rc = conescale.cli.main(spec["argv"])
        result["wall_s"] = time.perf_counter() - start
        result["rc"] = rc
        if tracer is not None:
            result["trace"] = tracer.summary()
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
