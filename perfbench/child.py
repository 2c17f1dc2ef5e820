"""One cold-start pass of a workload, in the fresh interpreter that runs this file.

    python3 perfbench/child.py --workload NAME --seed N --work DIR --record FILE
                               --spawned T [--setup-only] [--spans FILE]

``T`` is the parent's ``time.monotonic()`` just before it started this
interpreter; set-up time runs from there to ``pamlab`` imported and the CLI
parser built.  The pass then runs the workload (wall and CPU time of this
process and its finished children), checks its outputs, and writes a JSON
record to FILE.  With ``--spans`` the workload runs traced, the spans go to
that file, and the record carries the per-layer metrics.
"""
import argparse
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _machine_facts() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    facts = {"nproc": os.cpu_count(), "cpu_model": None, "python": platform.python_version(),
             "numpy": np.__version__, "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None)
    except OSError:
        pass
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            facts[f"l{level}_cache"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"] = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                break
    return facts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import pamlab
    from pamlab import cli

    cli.build_parser()
    record = {"setup_s": time.monotonic() - args.spawned,
              "pamlab": os.path.dirname(os.path.abspath(pamlab.__file__))}
    if args.setup_only:
        record["machine"] = _machine_facts()
    else:
        import tracing
        import workloads

        recorder = None
        if args.spans:
            recorder = tracing.Recorder(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
            recorder.install()
        cpu0, t0 = _cpu_s(), time.perf_counter()
        outputs = workloads.run(args.workload, args.seed, args.work)
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = _cpu_s() - cpu0
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            recorder.uninstall()
            recorder.write(args.spans)
            record["layers"] = tracing.span_metrics(recorder.spans)
            record["layers"].update(tracing.kernel_probes())
        record["ops"] = workloads.check(args.workload, args.seed, outputs)
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
