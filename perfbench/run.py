"""Run one benchmark workload of the wsdalg certificate pipeline.

    python3 perfbench/run.py --workload modular-hw0 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the inputs, the machine and the sample counts.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (see
NOTES.md).  Without the program's sources the run exits with code 2.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench.inputs import pick_inputs  # noqa: E402
from perfbench.spans import PER_LAYER, PROFILER_DERIVED, Tracer, profile_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, Gate, fresh_program  # noqa: E402

# set-up is repeated this many times per run, each time from a fresh
# import, and setup_s is the median
SETUP_REPS = 3
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("query_p50_ms", "ms"),
)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _cpu_time() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads(np) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it exposes one."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(np)},
    }


def run_plain(wl, inputs, seconds: int, workdir: str, gate: Gate, boot_s: float):
    """End-to-end run, tracing off.  The timed part repeats until it has
    run ``wl.min_passes`` times and taken ``seconds`` in total; wall_s is
    the median pass and query_p50_ms the median over all passes' calls."""
    setups: list[float] = []

    def cold_setup():
        gc.collect()
        t0 = time.perf_counter()
        prog = fresh_program()
        ctx = wl.setup(prog, inputs, workdir)
        setups.append(time.perf_counter() - t0)
        return prog, ctx

    for _ in range(SETUP_REPS):
        prog = ctx = None
        prog, ctx = cold_setup()
    walls: list[float] = []
    cpus: list[float] = []
    latencies: list[float] = []
    while True:
        t0, c0 = time.perf_counter(), _cpu_time()
        out = wl.timed(prog, ctx, latencies)
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_time() - c0)
        wl.check(ctx, out, gate)
        out = None
        if len(walls) >= wl.min_passes and sum(walls) >= seconds:
            break
        if wl.cold_timed:
            prog = ctx = None
            prog, ctx = cold_setup()
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": boot_s + statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "query_p50_ms": 1000 * statistics.median(latencies),
    }
    details = {
        "samples": {"setup": len(setups), "passes": len(walls), "query": len(latencies)},
        "ungated": {"wall_best_s": min(walls),
                    "query_p90_ms": 1000 * _percentile(latencies, 90),
                    "query_p99_ms": 1000 * _percentile(latencies, 99),
                    "cpu_s": statistics.median(cpus)},
    }
    return metrics, details


def run_traced(wl, inputs, workdir: str, gate: Gate):
    """One untraced pass, then the same pass from a fresh import with spans
    and the profiler on; the difference of the two is the overhead."""
    gc.collect()
    t0 = time.perf_counter()
    prog = fresh_program()
    ctx = wl.setup(prog, inputs, workdir)
    out = wl.timed(prog, ctx, [])
    plain_s = time.perf_counter() - t0
    wl.check(ctx, out, gate)
    prog = ctx = out = None
    gc.collect()

    tracer, profiler = Tracer(), cProfile.Profile()
    t0 = time.perf_counter()
    prog = fresh_program()
    tracer.install(prog)
    profiler.enable()
    try:
        ctx = wl.setup(prog, inputs, workdir)
        out = wl.timed(prog, ctx, [])
    finally:
        profiler.disable()
        tracer.uninstall()
    traced_s = time.perf_counter() - t0
    wl.check(ctx, out, gate)

    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    metrics.update(tracer.metrics())
    metrics.update(profile_metrics(profiler, prog))
    metrics["closure.state_bytes"] = getattr(ctx, "state_bytes", 0)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1
    details = {"untraced_s": plain_s, "traced_s": traced_s, "spans": len(tracer.spans),
               "span_self_s": tracer.self_times()}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wsdalg" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'wsdalg'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    import numpy  # noqa: F401  (the program's one dependency, part of set-up)

    boot_s = time.perf_counter() - T_START
    wl = WORKLOADS[args.workload]
    inputs = pick_inputs(args.seed)
    gate = Gate()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        if args.trace:
            values, details = run_traced(wl, inputs, workdir, gate)
            units = PER_LAYER
        else:
            values, details = run_plain(wl, inputs, args.seconds, workdir, gate, boot_s)
            units = END_TO_END
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": {"prime": inputs.prime, "orders": [list(o) for o in inputs.orders],
                   "even_order": list(inputs.even_order), "queries": len(inputs.queries)},
        "machine": machine_record(),
        "details": details,
        "failed_ratio": gate.failed / gate.attempted,
        "failures": gate.failures[:20],
    }
    if args.trace:
        record["profiler_derived"] = list(PROFILER_DERIVED)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
