"""One benchmark run in a fresh interpreter; started by run.py.

The first statement times a cold `import leaky_rbm.cli` (the set-up
cost).  With --import-only that time is all it prints.  Otherwise it runs
the workload's passes for --seconds and prints one JSON line of raw
results as its last line of output.

Untraced runs give pass k the inputs of (seed, k), so a run averages over
several inputs, and time whole cycles of the workload's passes.  Traced runs repeat the workload's `trace_passes`,
alternately without and with the tracer, so every count repeats exactly
for a seed and each traced repeat has an untraced twin to measure the
tracing overhead against.
"""
import time

_start = time.perf_counter()
import leaky_rbm.cli  # noqa: E402,F401  (this import is the measured set-up)

SETUP_S = time.perf_counter() - _start

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_DIR = Path(".perfbench_runs")


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it is one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _read(path, default=None):
    try:
        return Path(path).read_text()
    except OSError:
        return default


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo", "")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), "unknown")
    llc = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "llc_bytes": int(llc.strip().rstrip("K")) * 1024 if llc else None,
    }


def _untraced(workload, state, seconds):
    """Run whole cycles of passes until the next cycle would overrun.

    Returns the wall time of each cycle and the operations of all passes.
    """
    walls, ops = [], []
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        for _ in range(workload.cycle):
            ops += workload.run_pass(state, k)
            k += 1
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, ops


def _traced(workload, state, seconds):
    tracer = Tracer()
    walls = {False: [], True: []}
    layers, ops = [], []
    start = time.perf_counter()
    pair = 0
    while True:
        # alternate which twin runs first, so warm-up favours neither
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced:
                tracer.pass_id = pair
                tracer.reset_pass()
                tracer.install()
            t0 = time.perf_counter()
            try:
                for k in workload.trace_passes:
                    ops += workload.run_pass(state, k)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            if traced:
                layers.append(tracer.pass_metrics())
        pair += 1
        per_pair = statistics.median(walls[False]) + statistics.median(walls[True])
        if time.perf_counter() - start + per_pair > seconds:
            break
    RUN_DIR.mkdir(exist_ok=True)
    spans = RUN_DIR / f"spans-{workload.name}-seed{state['seed']}.jsonl"
    tracer.write_spans(spans)
    per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    per_layer["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(walls[True], walls[False]))
    per_layer["trace.wall_s"] = statistics.median(walls[True])
    return walls[False], ops, per_layer, str(spans)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.import_only:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    workload = WORKLOADS[args.workload]
    work = RUN_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        state = workload.prepare(work, args.seed)
        per_layer, spans = None, None
        if args.trace:
            walls, ops, per_layer, spans = _traced(workload, state, args.seconds)
        else:
            walls, ops = _untraced(workload, state, args.seconds)
        workload.finish(state, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    primary = [op for op in ops if op.work > 0]
    op_seconds = {}
    for op in primary:
        op_seconds.setdefault(op.label, []).append(op.seconds)
    result = {
        "setup_s": SETUP_S,
        "walls": walls,
        "op_seconds": op_seconds,
        "work": sum(op.work for op in primary),
        "attempted": len(ops),
        "failed": [op.label for op in ops if not op.ok],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "working_set_bytes": workload.working_set_bytes(),
        "per_layer": per_layer,
        "spans_file": spans,
        "env": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
