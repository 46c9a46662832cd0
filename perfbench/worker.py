"""One benchmark sample in a fresh process.

Usage: worker.py SPAWNED SETUP_ONLY TRACE, with the job (JSON) on stdin;
prints one JSON result line on stdout.  The process pays for its own
imports and starts with crlab's module-level caches empty, as every
``crlab`` command does.

  setup_s      spawn (SPAWNED, the parent's monotonic clock) until
               crlab, numpy, scipy and jsonschema are imported and the
               workload's state is built
  wall_s       perf_counter span of one pass, after set-up
  cpu_s        user + system CPU of this process (all threads) for the pass
  peak_rss_mb  ru_maxrss of this process at the end of the pass

The outputs are verified after the timed region; an exception in the pass
is reported as one failed check.  With TRACE set, a Tracer is installed
between set-up and the pass.
"""

import json
import os
import resource
import sys
import time
import traceback


def environment(blas_threads):
    import jsonschema
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = {}
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "jsonschema": getattr(jsonschema, "__version__", "?"),
            "blas": blas, "blas_threads": blas_threads}


def main():
    spawned, setup_only, trace = float(sys.argv[1]), sys.argv[2] == "1", sys.argv[3] == "1"
    job = json.loads(sys.stdin.read())
    root = job["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import jsonschema  # noqa: F401  (crlab.cli imports it; set-up includes it)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401
    import crlab
    import crlab.cli  # noqa: F401  (pulls in every layer module)

    if not os.path.abspath(crlab.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"crlab imported from {crlab.__file__}, not from {root}/src")

    from workloads import WORKLOADS
    w = WORKLOADS[job["workload"]]
    state = w.setup(job["inputs"], job["workdir"])
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s}
    if setup_only:
        print(json.dumps(result))
        return

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    error = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        raw = w.run(state)
    except Exception:  # the sample reports the failure instead of dying
        error = traceback.format_exc()
        raw = None
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    if error is None:
        outputs = w.observe(state, raw)
        checks = w.checks(outputs, job["inputs"])
    else:
        print(error, file=sys.stderr)
        outputs = None
        checks = [("exception", False)]
    failed = [name for name, ok in checks if not ok]
    result.update({
        "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": rss_mb,
        "attempted": len(checks), "failed": len(failed), "failed_checks": failed[:20],
        "identity": None if outputs is None else w.identity(outputs),
        "env": environment(job["blas_threads"]),
    })
    if tracer is not None:
        from tracer import layer_metrics
        table = tracer.table()
        result["spans"] = table
        result["layers"] = layer_metrics(table, tracer.counts)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
