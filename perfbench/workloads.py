"""The benchmark's workloads.

Each workload builds its inputs from the seed in `prepare`, then runs
numbered passes.  A pass drives the package only through public entry
points, called through their modules (so a tracer's wrappers are seen),
and checks every result.  Pass k's inputs depend only on (seed, k).

Every workload reports one kind of *primary operation* and the work it
does, both fixed by the workload definition:

  train-784  op: one CLI `train` command     work: epochs x rows trained
  ais-64     op: one CLI `estimate-z`        work: particles x levels
  mixing-2d  op: one `experiment_mixing`     work: its epochs, each ending in
                                                  its exact log-likelihood
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import leaky_rbm.cli as cli
import leaky_rbm.data_io as data_io
import leaky_rbm.experiments as experiments
import leaky_rbm.partition as partition
import leaky_rbm.projection as projection


@dataclass
class Op:
    label: str
    seconds: float
    work: float  # 0 for checks that are not the workload's primary operation
    ok: bool


def _cli(argv: list[str]) -> tuple[int, float]:
    """Run the CLI in-process with its stdout discarded; (exit code, seconds)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(argv)
        return rc, time.perf_counter() - start


def _failed(label: str, seconds: float = 0.0, work: float = 0.0) -> Op:
    """A failed operation for the exception being handled, named by its type."""
    traceback.print_exc(file=sys.stderr)
    return Op(f"{label} ({sys.exc_info()[0].__name__})", seconds, work, False)


# (hidden units, leakiness) of acceptance criterion 1's 2-D instances
ORACLE_MODELS = ((1, 0.01), (2, 0.1), (1, 0.5), (2, 1.0))


def _oracle_check(seed: int, j: int) -> Op:
    """Quadrature against the closed form on a 2-D orthogonal model.

    Acceptance criterion 1: the two oracles agree to a relative 1e-6.  The
    quadrature runs at experiment_mixing's tolerance, 1e-7.
    """
    n_hidden, leakiness = ORACLE_MODELS[(seed + j) % len(ORACLE_MODELS)]
    label = f"oracle-J{n_hidden}-c{leakiness}"
    try:
        params = experiments.random_orthogonal_params(
            2, n_hidden, leakiness, np.random.default_rng([seed, 2, j]),
            norm_range=(0.5, 0.9),
        )
        quad = partition.quadrature_log_z(params, tolerance=1e-7)
        exact = partition.exact_log_z_orthogonal(params)
    except Exception:  # a crash is a failed operation
        return _failed(label)
    return Op(label, 0.0, 0.0, abs(quad - exact) <= 1e-6 * abs(quad))


class Train784:
    """CLI `train` at 784 visible x 500 hidden, CD-1, batch 100, projection on.

    The data are low-rank plus noise: about 40% of the minibatch updates
    push a singular value past 1, so the projection both clips and skips.
    """

    name = "train-784"
    cycle = 1
    trace_passes = (0,)
    rows, cols, rank, noise = 1000, 784, 24, 3.0
    hidden, epochs, batch = 500, 3, 100

    def working_set_bytes(self) -> int:
        # standardized data, plus weights, velocity, update and the SVD factors
        return 8 * (self.rows * self.cols + 5 * self.cols * self.hidden)

    def prepare(self, work: Path, seed: int) -> dict:
        rng = np.random.default_rng([seed, 784])
        factors = rng.standard_normal((self.rows, self.rank))
        loadings = rng.standard_normal((self.rank, self.cols))
        x = factors @ loadings + self.noise * rng.standard_normal((self.rows, self.cols))
        data = work / "train.f32"
        data_io.write_raw_f32(data, x)
        return {"work": work, "seed": seed, "data": data}

    def run_pass(self, state: dict, k: int) -> list[Op]:
        model = state["work"] / f"train-{k}.rbm"
        argv = [
            "--seed", str(state["seed"] * 1000 + k), "--out", str(state["work"]),
            "train", "--data", str(state["data"]), "--data-format", "raw-f32",
            "--hidden", str(self.hidden), "--epochs", str(self.epochs),
            "--batch-size", str(self.batch), "--cd-steps", "1",
            "--model-out", str(model),
        ]
        work = float(self.epochs * self.rows)
        seconds = 0.0
        try:
            rc, seconds = _cli(argv)
            params, _prov = data_io.load_model(model)
            safe, _min_eig = projection.is_globally_safe(params.weights)
            ok = (rc == 0 and params.weights.shape == (self.cols, self.hidden)
                  and bool(safe))
        except Exception:  # a crash is a failed operation, not a benchmark error
            return [_failed("train", seconds, work)]
        finally:
            model.unlink(missing_ok=True)
        return [Op("train", seconds, work, ok)]

    def finish(self, state: dict, ops: list[Op]) -> None:
        pass


class Ais64:
    """CLI `estimate-z` on saved orthogonal-column 64-visible models.

    The partition-bias settings: J in {2, 16}, c = 0.01, 1000 particles,
    100 levels, leaky and energy paths, a distinct AIS seed per pass.  Pass
    0 also checks the quadrature oracle on a 2-D model, so the traced run
    measures the quadrature layer; the median pass time leaves it out.
    """

    name = "ais-64"
    cycle = 1
    trace_passes = (0, 1, 2, 3, 4)  # five leaky estimates per J for the bias check
    visible, hidden_counts, leakiness = 64, (2, 16), 0.01
    particles, levels, paths = 1000, 100, ("leaky", "energy")
    # Acceptance criterion 2 caps the leaky path's mean bias at 0.15 nats, on
    # one fixed model and 10 fixed AIS seeds.  Here model and AIS seeds are
    # random: a J = 16 estimate scatters by ~0.3 nats around a bias of
    # ~-0.03, so a run's mean of ~20 estimates would pass a bare 0.15 cap
    # only ~97% of the time.  A J fails when its mean bias exceeds the cap
    # by more than 3 standard errors of that mean.
    bias_cap, bias_z = 0.15, 3.0

    def working_set_bytes(self) -> int:
        # particle states v and h, responses and draws, at the largest J
        return 8 * 4 * self.particles * (self.visible + max(self.hidden_counts))

    def prepare(self, work: Path, seed: int) -> dict:
        models = {}
        for n_hidden in self.hidden_counts:
            params = experiments.random_orthogonal_params(
                self.visible, n_hidden, self.leakiness,
                np.random.default_rng([seed, self.visible, n_hidden]),
            )
            path = work / f"ais-{n_hidden}.rbm"
            data_io.save_model(path, params)
            models[n_hidden] = (path, partition.exact_log_z_orthogonal(params))
        return {"work": work, "seed": seed, "models": models, "bias": {}}

    def run_pass(self, state: dict, k: int) -> list[Op]:
        out = state["work"] / "ais"
        ops = [_oracle_check(state["seed"], 0)] if k == 0 else []
        for n_hidden, (model, exact) in state["models"].items():
            for path in self.paths:
                label = f"J{n_hidden}-{path}"
                argv = [
                    "--seed", str(state["seed"] * 1000 + k), "--out", str(out),
                    "estimate-z", "--model", str(model), "--path", path,
                    "--levels", str(self.levels), "--particles", str(self.particles),
                ]
                work = float(self.particles * self.levels)
                seconds = 0.0
                try:
                    (out / "estimate_z.csv").unlink(missing_ok=True)
                    rc, seconds = _cli(argv)
                    with open(out / "estimate_z.csv", newline="") as fh:
                        (row,) = list(csv.DictReader(fh))
                    log_z = float(row["log_z"])
                    ok = rc == 0 and math.isfinite(log_z) and int(row["dropped"]) == 0
                except Exception:  # a crash is a failed operation
                    ops.append(_failed(label, seconds, work))
                    continue
                if path == "leaky":
                    # keyed by AIS seed: a repeated pass adds no information
                    state["bias"].setdefault(n_hidden, {})[k] = (
                        log_z - exact, float(row["stderr"]))
                ops.append(Op(label, seconds, work, ok))
        return ops

    def finish(self, state: dict, ops: list[Op]) -> None:
        """Fail every leaky estimate of a J whose mean bias exceeds the cap."""
        for n_hidden, estimates in state["bias"].items():
            biases, stderrs = np.array(list(estimates.values())).T
            n = biases.size
            spread = max(stderrs.max(), biases.std(ddof=1) if n > 1 else 0.0)
            cap = self.bias_cap + self.bias_z * spread / np.sqrt(n)
            mean_bias = float(biases.mean())
            print(f"ais-64 J={n_hidden} leaky mean bias {mean_bias:+.4f} nats over "
                  f"{n} estimates (cap {cap:.3f})", file=sys.stderr)
            if abs(mean_bias) > cap:
                for op in ops:
                    if op.label == f"J{n_hidden}-leaky":
                        op.ok = False


class Mixing2d:
    """`experiment_mixing` at 2x2, one epoch per sampler, plus oracle checks.

    Pass k runs the experiment for one epoch on one of the first five seeds
    that the sampler comparison's acceptance criteria use, in an order set
    by the run's seed: three one-epoch trainings (CD, leaky-anneal, mix),
    each scored by the experiment's exact quadrature log-likelihood.  The
    oracle's cost varies by up to 60% from seed to seed, so every run does
    the same whole cycle of the five seeds.  On some other seeds the
    training set drives the weights to the spectral bound in one epoch and
    the quadrature oracle refuses the model (DivergentIntegralError), a
    known defect of the package.  At the end two orthogonal 2-D models
    check the oracle against the closed form.

    Not listed in BENCHMARK.json: ~95% of its time is interpreted Python
    (the quadrature's integrand callbacks), whose speed on a shared
    2-vCPU machine swings by up to 25% for minutes at a time, so its
    run-to-run spread exceeds any bound the benchmark may set.
    """

    name = "mixing-2d"
    trace_passes = (0,)
    cycle = 5  # experiment seeds 0-4, from those of acceptance criteria 5 and 9
    methods = 3  # epochs per pass: one for each negative sampler
    oracle_checks = 2

    def working_set_bytes(self) -> int:
        # 1000 training rows and 1000 chains of 2 visible + 2 hidden units
        return 8 * 4 * 1000 * 2

    def prepare(self, work: Path, seed: int) -> dict:
        return {"work": work, "seed": seed}

    def run_pass(self, state: dict, k: int) -> list[Op]:
        seed = (state["seed"] + k) % self.cycle
        out = state["work"] / f"mixing-{k}"
        out.mkdir(exist_ok=True)
        work = float(self.methods)
        start = time.perf_counter()
        try:
            csv_path = experiments.experiment_mixing(out, seed, epochs=1)
            seconds = time.perf_counter() - start
            with open(csv_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            ok = (len(rows) == self.methods
                  and all(math.isfinite(float(r["loglik"])) for r in rows))
        except Exception:  # a crash is a failed operation
            return [_failed(f"experiment seed {seed}", time.perf_counter() - start, work)]
        if not ok:
            print(f"mixing-2d seed {seed}: bad log-likelihoods {rows}", file=sys.stderr)
        return [Op("experiment", seconds, work, ok)]

    def finish(self, state: dict, ops: list[Op]) -> None:
        ops += [_oracle_check(state["seed"], j) for j in range(self.oracle_checks)]


WORKLOADS = {w.name: w for w in (Train784(), Ais64(), Mixing2d())}
