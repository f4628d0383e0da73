"""Canned experiments emitting CSV, deterministic given a seed.

Every experiment writes headered CSV under an output directory using a
fixed float format, so re-running with the same seed produces
byte-identical files.  Wall-clock timings go to stderr, never into the
CSV (they would break reproducibility).  Every trained model starts at
``training.initial_params``, each experiment on its own generator stream.
"""
from __future__ import annotations

import csv
import sys
import time
from pathlib import Path

import numpy as np

from .errors import TrainingDivergedError
from .model import HiddenKind, RbmParams
from .partition import (
    AnnealingPath,
    ais_estimate,
    eval_mean_log_likelihood,
    exact_log_z_bernoulli,
    exact_log_z_orthogonal,
    quadrature_log_z,
)
from .projection import is_globally_safe
from .sampler import anneal_leakiness_sample, gibbs_step, make_rng
from .training import NegSampler, TrainConfig, initial_params, train

MIXING_CD_STEPS = 2  # Gibbs sweeps per negative phase in ``train_mixing_method``


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _finish(name: str, t0: float, path: Path, header: list[str], rows: list[list],
            note: str = "") -> Path:
    """Write an experiment's CSV, report its wall time since t0 on stderr, return path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    print(f"{name} finished in {time.perf_counter() - t0:.1f}s{note} -> {path}", file=sys.stderr)
    return path


def random_orthogonal_params(
    n_visible: int,
    n_hidden: int,
    leakiness: float,
    rng: np.random.Generator,
    norm_range: tuple[float, float] = (0.98, 0.99),
) -> RbmParams:
    """Random model with pairwise-orthogonal weight columns and zero biases."""
    G = rng.standard_normal((n_visible, n_hidden))
    Q, _ = np.linalg.qr(G)
    norms = rng.uniform(*norm_range, size=n_hidden)
    return RbmParams.create(Q[:, :n_hidden] * norms, leakiness=leakiness)


def synthetic_leaky_data(params: RbmParams, n: int, rng) -> np.ndarray:
    """Approximate model samples via a 400-sweep leakiness-annealed run."""
    return anneal_leakiness_sample(params, 400, n, rng).v


def experiment_partition_bias(
    out_dir,
    seed: int,
    hidden_counts=(2, 4, 8, 16),
    particles: int = 1000,
    levels: int = 100,
    repeats: int = 10,
) -> Path:
    """Bias of the two AIS variants against the exact orthogonal oracle.

    ``dropped`` counts the non-finite particles over all repeats of a row.
    """
    t0 = time.perf_counter()
    rows = []
    for n_hidden in hidden_counts:
        rng = make_rng(seed, n_hidden)
        params = random_orthogonal_params(64, n_hidden, 0.01, rng)
        exact = exact_log_z_orthogonal(params)
        paths = {
            "ais-leaky": AnnealingPath.leaky(0.01, levels),
            "ais-energy": AnnealingPath.energy(levels),
        }
        for method, path in paths.items():
            estimates = [
                ais_estimate(params, path, particles, make_rng(seed, 1000 + n_hidden * 100 + r))
                for r in range(repeats)
            ]
            biases = np.array([est.log_z - exact for est in estimates])
            rows.append(
                [
                    n_hidden,
                    method,
                    float(biases.mean()),
                    float(biases.std(ddof=1)) if repeats > 1 else 0.0,
                    particles,
                    levels,
                    sum(est.n_dropped for est in estimates),
                ]
            )
    return _finish("partition-bias", t0, Path(out_dir) / "partition_bias.csv",
                   ["J", "method", "bias_mean", "bias_sd", "particles", "levels", "dropped"],
                   rows)


def _mixing_ground_truth(seed: int) -> RbmParams:
    rng = make_rng(seed, 7)
    W = rng.uniform(-1.0, 1.0, size=(2, 2))
    s = np.linalg.svd(W, compute_uv=False)[0]
    W *= 0.9 / s
    b = rng.uniform(0.5, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
    return RbmParams.create(W, hidden_bias=b, leakiness=0.01)


def mixing_task_data(seed: int) -> np.ndarray:
    """Training set for the sampler comparison: 1000 draws from the known model."""
    return synthetic_leaky_data(_mixing_ground_truth(seed), 1000, make_rng(seed, 4))


def train_mixing_method(
    seed: int,
    method: NegSampler,
    data: np.ndarray,
    epochs: int = 40,
    loglik_fn=None,
):
    """One arm of the sampler comparison; shared by the experiment and tests.

    The step budget ``MIXING_CD_STEPS`` is deliberately tiny.  With a large
    budget every sampler converges to the same optimum on a 2-unit task and
    the comparison measures nothing but noise; at a couple of sweeps the
    contrastive chains barely leave the data rows, so the quality of the
    negative-phase sampler is what separates the learning curves.
    """
    params0 = initial_params(2, 2, make_rng(seed, 5), leakiness=0.01)
    config = TrainConfig(
        cd_steps=MIXING_CD_STEPS,
        learning_rate=0.01,
        momentum=0.0,
        batch_size=100,
        epochs=epochs,
        neg_sampler=method,
        weight_decay=4e-3,
        seed=seed,
    )
    return train(params0, data, config, loglik_fn=loglik_fn)


def experiment_mixing(out_dir, seed: int, epochs: int = 40) -> Path:
    """Per-epoch oracle log-likelihood for the three negative-phase samplers.

    Every arm trains.  An arm whose training diverges is dropped from the
    CSV and named on stderr, and once the CSV holds the arms that finished,
    the first divergence is raised.
    """
    t0 = time.perf_counter()
    data = mixing_task_data(seed)

    def oracle_loglik(params: RbmParams) -> float:
        return eval_mean_log_likelihood(
            params, data, quadrature_log_z(params, tolerance=1e-7)
        )

    rows, dropped = [], []
    for method in (NegSampler.CD, NegSampler.LEAKY_ANNEAL, NegSampler.MIX):
        try:
            _final, log = train_mixing_method(
                seed, method, data, epochs=epochs, loglik_fn=oracle_loglik
            )
        except TrainingDivergedError as exc:
            dropped.append((method, exc))
            continue
        for rec in log.epochs:
            rows.append([rec.epoch, method.value, rec.log_likelihood, 0.0])
    note = "".join(f" (dropped {method.value}: {exc})" for method, exc in dropped)
    path = _finish("mixing", t0, Path(out_dir) / "mixing.csv",
                   ["epoch", "method", "loglik", "stderr"], rows, note)
    if dropped:
        raise dropped[0][1]
    return path


def experiment_divergence(out_dir, seed: int) -> Path:
    """Chain blow-up without the projection step vs stability with it.

    The projected model trains normally on synthetic data.  The
    unprojected run is driven with an amplified copy of the same data,
    wider than any constraint-satisfying model can represent, so without
    the projection the weights cross the feasible boundary and Gibbs
    chains blow up.
    """
    t0 = time.perf_counter()
    rng = make_rng(seed, 3)
    truth = random_orthogonal_params(
        16, 8, leakiness=0.05, rng=rng, norm_range=(0.92, 0.98)
    )
    base_data = synthetic_leaky_data(truth, 1000, make_rng(seed, 4))
    data = 3.0 * base_data
    params0 = initial_params(16, 8, make_rng(seed, 5), leakiness=0.05)

    projected, _ = train(
        params0,
        base_data,
        TrainConfig(
            cd_steps=1,
            learning_rate=0.005,
            momentum=0.5,
            batch_size=100,
            epochs=30,
            projection_enabled=True,
            seed=seed,
        ),
    )
    # Unprojected continuation: CD-1 with weight decay, full-batch updates
    # so the crossing of the feasible boundary is gradual; keep the most
    # unsafe finite model, stop on tiny reconstruction error or blow-up.
    current = projected
    unprojected = projected
    best_smax = projected.max_singular_value()
    for step_i in range(500):
        try:
            cand, ulog = train(
                current,
                data,
                TrainConfig(
                    cd_steps=1,
                    learning_rate=0.01,
                    momentum=0.0,
                    batch_size=data.shape[0],
                    epochs=1,
                    weight_decay=1e-4,
                    projection_enabled=False,
                    seed=seed * 1000 + step_i,
                ),
            )
        except TrainingDivergedError:
            break
        smax = cand.max_singular_value()
        if not np.isfinite(smax) or smax > 3.0:
            break
        current = cand
        if smax > best_smax:
            best_smax = smax
            unprojected = cand
        if smax >= 1.2 or ulog.epochs[-1].recon_error < 1e-2:
            break
    rows = []
    for label, model in (("projected", projected), ("unprojected", unprojected)):
        chain_rng = make_rng(seed, 6)
        v = chain_rng.standard_normal((1000, 16))
        for step in range(1, 201):
            with np.errstate(over="ignore", invalid="ignore"):
                v, _h = gibbs_step(model, v, chain_rng)
                mean_abs = float(np.mean(np.abs(v)))
            if not np.isfinite(mean_abs):
                rows.append([step, float("inf"), label])
                break
            rows.append([step, mean_abs, label])
    safe_flag, _ = is_globally_safe(unprojected.weights)
    return _finish("divergence", t0, Path(out_dir) / "divergence.csv",
                   ["step", "mean_abs_v", "model"], rows, f" (unprojected safe={safe_flag})")


def experiment_likelihood_compare(out_dir, seed: int) -> Path:
    """Held-out log-likelihood of leaky vs Bernoulli-Gaussian models (16x16)."""
    t0 = time.perf_counter()
    truth = random_orthogonal_params(
        16, 8, leakiness=0.05, rng=make_rng(seed, 21), norm_range=(0.5, 0.85)
    )
    data = synthetic_leaky_data(truth, 3000, make_rng(seed, 22))
    split = int(0.8 * data.shape[0])
    train_data, test_data = data[:split], data[split:]
    rows = []
    for kind in (HiddenKind.LEAKY_RELU, HiddenKind.BERNOULLI):
        params0 = initial_params(16, 16, make_rng(seed, 23), leakiness=0.1, hidden_kind=kind)
        config = TrainConfig(
            cd_steps=20,
            learning_rate=0.005,
            momentum=0.5,
            batch_size=100,
            epochs=20,
            weight_decay=1e-3,
            seed=seed,
        )
        model, _log = train(params0, train_data, config)
        if kind is HiddenKind.LEAKY_RELU:
            est = ais_estimate(
                model,
                AnnealingPath.leaky(model.leakiness, 200),
                2000,
                make_rng(seed, 24),
            )
            log_z, stderr, dropped = est.log_z, est.standard_error, est.n_dropped
        else:
            log_z, stderr, dropped = exact_log_z_bernoulli(model), 0.0, 0
        loglik = eval_mean_log_likelihood(model, test_data, log_z)
        label = "leaky" if kind is HiddenKind.LEAKY_RELU else "bernoulli-gaussian"
        rows.append([label, loglik, log_z, stderr, dropped])
    return _finish("likelihood-compare", t0, Path(out_dir) / "likelihood_compare.csv",
                   ["model", "loglik", "logz", "logz_stderr", "dropped"], rows)


EXPERIMENTS = {
    "partition-bias": experiment_partition_bias,
    "mixing": experiment_mixing,
    "divergence": experiment_divergence,
    "likelihood-compare": experiment_likelihood_compare,
}
