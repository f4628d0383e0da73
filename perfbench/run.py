"""Benchmark of the leaky_rbm package, run from the repository root:

    python3 perfbench/run.py --workload {train-784,ais-64,mixing-2d} \
        --seed N --seconds S --trace {0,1}

Each run starts fresh child interpreters with the BLAS thread count fixed
in their environment: a few that only time a cold `import leaky_rbm.cli`,
then one that builds the workload's inputs from the seed, runs it for S
seconds and checks every result (see workloads.py).  The last line of
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of the traced run (layertrace.py) with --trace 1.  A failed check makes
the exit code 1.

BENCHMARK.json lists train-784 and ais-64.  mixing-2d, whose time is the
quadrature oracle's, is run by hand: its spread on a shared machine is too
wide for a bound (see workloads.py).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1  # steadier than 2 on a shared machine; the SVD gains little from 2
IMPORT_SAMPLES = 4  # cold-import children per run, besides the workload child
TIMEOUT_S = 170  # for all children of one run together

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
    "op_s_p50": "s",
}
# Per-workload names of work_per_s and op_s_p50, printed beside them.
ALIASES = {
    "train-784": ("train_rows_per_s", "rows/s", "train_command_s_p50"),
    "ais-64": ("ais_particle_levels_per_s", "particle-levels/s", "ais_estimate_s_p50"),
    "mixing-2d": ("loglik_epochs_per_s", "epochs/s", "mixing_experiment_s_p50"),
}
PER_LAYER_UNITS = {"_s": "s", "_ms": "ms", "_frac": "ratio", "_gflop": "GFLOP-computed"}


def _per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _child_env() -> dict:
    src = str(Path.cwd() / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


def _child(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark child {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", required=True, type=_nonneg_int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (Path.cwd() / "src" / "leaky_rbm" / "__init__.py").is_file():
        print("error: run from the repository root (src/leaky_rbm not found)",
              file=sys.stderr)
        return 2
    env = _child_env()
    deadline = time.monotonic() + TIMEOUT_S
    try:
        imports = [_child(["--import-only"], env, deadline)["setup_s"]
                   for _ in range(IMPORT_SAMPLES)]
        res = _child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    imports.append(res["setup_s"])
    ops = res["op_seconds"]  # seconds of each primary operation, by kind
    n_ops = sum(map(len, ops.values()))
    e2e = {
        "setup_s": statistics.median(imports),
        "wall_s": statistics.median(res["walls"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "work_per_s": res["work"] / sum(map(sum, ops.values())),
        # a median per kind: ais-64 mixes four kinds of unequal cost
        "op_s_p50": statistics.fmean(map(statistics.median, ops.values())),
    }
    failed = res["failed"]
    env_info = res["env"]
    print("env " + json.dumps(env_info, sort_keys=True))
    print(f"{args.workload} working_set_bytes {res['working_set_bytes']} "
          f"(last-level cache {env_info['llc_bytes']} bytes)")
    print(f"{args.workload} timed cycles {len(res['walls'])}, primary operations {n_ops} "
          f"of {len(ops)} kinds, cold imports {len(imports)}")
    for name, value in e2e.items():
        print(f"{args.workload} {name} {value:.6g} {END_TO_END_UNITS[name]}")
    rate_name, rate_unit, p50_name = ALIASES[args.workload]
    print(f"{args.workload} {rate_name} {e2e['work_per_s']:.6g} {rate_unit} (= work_per_s)")
    print(f"{args.workload} {p50_name} {e2e['op_s_p50']:.6g} s "
          f"(= op_s_p50, n={n_ops})")
    print(f"{args.workload} ops_attempted {res['attempted']} ops_failed {len(failed)}"
          + (f" {sorted(set(failed))}" if failed else ""))

    if args.trace:
        metrics = {name: {"value": value, "unit": _per_layer_unit(name)}
                   for name, value in res["per_layer"].items()}
        for name, m in metrics.items():
            print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
        print(f"{args.workload} spans written to {res['spans_file']}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    print(json.dumps({
        "correct": not failed,
        "attempted": res["attempted"],
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
