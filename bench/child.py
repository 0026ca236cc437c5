"""One benchmark child process: a `sparsemkl batch` run, or a set-up probe.

Usage::

    python3 bench/child.py SPAWN_NS RESULT_JSON MODE [BATCH_ARGS...]

SPAWN_NS is the parent's ``time.monotonic_ns()`` taken just before the
process was started; CLOCK_MONOTONIC is system-wide on Linux, so the
difference to the same clock read here is the set-up time. MODE is
``probe`` (import, report versions, exit), ``plain`` (untraced batch) or
``traced`` (batch with spans recorded around the package's public
functions, see ``tracer.py``). The result is written as JSON to
RESULT_JSON; the batch's own exit code is part of it.
"""

import json
import resource
import sys
import time


def main():
    spawn_ns, result_path, mode = int(sys.argv[1]), sys.argv[2], sys.argv[3]
    batch_args = sys.argv[4:]

    from sparsemkl import cli

    setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
    result = {"setup_s": setup_s}
    if mode == "probe":
        result["versions"] = _versions()
    else:
        tracer = None
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        code = cli.main(["batch", *batch_args])
        t1 = time.perf_counter()
        result["exit_code"] = code
        result["batch_s"] = t1 - t0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.finish(t0, t1)
    # ru_maxrss is in KiB on Linux
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = kib * 1024 / 1e6
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _versions():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    sys.exit(main())
