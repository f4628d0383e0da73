"""sha256 digests of the package's seeded outputs, to show a change keeps their bits.

Run by hand from the repository root, once on each tree, and compare:

    python tools/output_digests.py > digests.txt

Each line is ``<sha256>  <output>``, one per seeded output that ROADMAP
aim 2's same-bits rule covers:

* the CSVs of the four ``experiment`` commands at seed 0 (about 9 s in all);
* ``estimate-z`` rows on the ais-64 benchmark's models,
  ``random_orthogonal_params(64, J, 0.01, default_rng([s, 64, J]))`` for
  J in {2, 16} and s in {0, 1, 2}, on the leaky, energy and one-sided
  paths, at AIS seed 11 with 1000 particles and 100 levels;
* the model files that CLI ``train`` writes with each negative sampler
  (cd, leaky-anneal, mix) and with Bernoulli units, and the CSV of one
  ``sample`` run, all on one fixed synthetic CSV;
* the model file of one mix ``train`` run at 300 x 250, where an
  epoch's draws fill several chunks and dW is larger than one, so the
  draws and the positive statistics both come from ``train``'s one
  helper thread (``training.train``).

``tests/test_tools.py`` runs all but the experiments at a tiny size.  BLAS
runs on one thread unless the environment says otherwise, as in
``perfbench/run.py``, so both trees do their sums in the same order.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402  (after the thread settings)

from leaky_rbm import cli  # noqa: E402
from leaky_rbm.data_io import save_model, write_raw_f32  # noqa: E402
from leaky_rbm.experiments import EXPERIMENTS, random_orthogonal_params  # noqa: E402

AIS_SEED = 11
TRAIN_SEED = 3
# extra ``train`` flags of each trained model
TRAIN_RUNS = {
    "cd": ["--neg-sampler", "cd", "--cd-steps", "2"],
    "leaky-anneal": ["--neg-sampler", "leaky-anneal", "--cd-steps", "5"],
    "mix": ["--neg-sampler", "mix", "--cd-steps", "5"],
    "bernoulli": ["--kind", "bernoulli"],
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(*argv) -> None:
    """Run the CLI in-process with its stdout discarded; raise unless it exits 0."""
    argv = [str(arg) for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"leaky-rbm {' '.join(argv)} exited {rc}")


def experiment_digests(work: Path) -> list[tuple[str, str]]:
    """(output, sha256) of each experiment's CSV at seed 0."""
    rows = []
    for name in sorted(EXPERIMENTS):
        _cli("--seed", 0, "--out", work, "experiment", name)
    for path in sorted(work.glob("*.csv")):
        rows.append((f"experiment {path.name}", _sha256(path)))
    return rows


def estimate_z_digests(work: Path, n_visible: int = 64, particles: int = 1000,
                       levels: int = 100) -> list[tuple[str, str]]:
    """(output, sha256) of each estimate-z row on the ais-64 models."""
    rows = []
    for n_hidden in (2, 16):
        for seed in (0, 1, 2):
            params = random_orthogonal_params(
                n_visible, n_hidden, 0.01, np.random.default_rng([seed, n_visible, n_hidden]))
            model = work / f"orthogonal-{n_hidden}-{seed}.rbm"
            save_model(model, params)
            for path in ("leaky", "energy", "one-sided"):
                out = work / f"estimate-z-{n_hidden}-{seed}-{path}"
                _cli("--seed", AIS_SEED, "--out", out, "estimate-z", "--model", model,
                     "--path", path, "--levels", levels, "--particles", particles)
                rows.append((f"estimate-z {n_visible}x{n_hidden} model seed {seed} {path}",
                             _sha256(out / "estimate_z.csv")))
    return rows


def cli_digests(work: Path, n_rows: int = 300, n_cols: int = 12, hidden: int = 6,
                epochs: int = 3) -> list[tuple[str, str]]:
    """(output, sha256) of each trained model and of one sample CSV."""
    g = np.random.default_rng(0)
    x = g.standard_normal((n_rows, 3)) @ g.standard_normal((3, n_cols))
    x += g.standard_normal((n_rows, n_cols))
    data = work / "train.csv"
    np.savetxt(data, x, delimiter=",", fmt="%.17g")
    rows = []
    for name, flags in TRAIN_RUNS.items():
        model = work / f"{name}.rbm"
        _cli("--seed", TRAIN_SEED, "--out", work, "train", "--data", data, "--hidden", hidden,
             "--epochs", epochs, "--batch-size", 20, "--model-out", model, *flags)
        rows.append((f"train {name} model", _sha256(model)))
    out = work / "sample"
    _cli("--seed", TRAIN_SEED, "--out", out, "sample", "--model", work / "leaky-anneal.rbm",
         "--n", 50, "--steps", 20)
    rows.append(("sample csv", _sha256(out / "samples.csv")))
    return rows


def threaded_train_digests(work: Path, n_rows: int = 300, n_cols: int = 300,
                           hidden: int = 250) -> list[tuple[str, str]]:
    """(output, sha256) of the model of one mix ``train`` run at n_cols x hidden."""
    g = np.random.default_rng(1)
    x = g.standard_normal((n_rows, 5)) @ g.standard_normal((5, n_cols))
    x += g.standard_normal((n_rows, n_cols))
    data = work / "train.f32"
    write_raw_f32(data, x)
    model = work / "threaded.rbm"
    _cli("--seed", TRAIN_SEED, "--out", work, "train", "--data", data, "--hidden", hidden,
         "--epochs", 2, "--batch-size", 128, "--neg-sampler", "mix", "--cd-steps", 2,
         "--model-out", model)
    return [(f"train mix {n_cols}x{hidden} model", _sha256(model))]


def main(argv=None) -> None:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for step in (experiment_digests, estimate_z_digests, cli_digests,
                     threaded_train_digests):
            (work / step.__name__).mkdir()
            for name, digest in step(work / step.__name__):
                print(f"{digest}  {name}", flush=True)


if __name__ == "__main__":
    main()
