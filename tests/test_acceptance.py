"""Acceptance gate: ten go/no-go checks with one report line each.

Each test prints a single CRITERION line (bypassing capture) so the
verdicts are readable straight off the pytest output, then asserts.
"""
import csv
import sys

import numpy as np
import pytest

from leaky_rbm import (
    AnnealingPath,
    ais_estimate,
    eval_mean_log_likelihood,
    exact_log_z_orthogonal,
    gaussian_log_z,
    project_spectral,
    quadrature_log_z,
)
from leaky_rbm.cli import main as cli_main
from leaky_rbm.experiments import (
    MIXING_CD_STEPS,
    experiment_divergence,
    mixing_task_data,
    train_mixing_method,
)
from leaky_rbm.model import log_unnorm_marginal
from leaky_rbm.sampler import (
    gaussian_base_moments,
    gibbs_step,
    make_rng,
    sample_gaussian_base,
)
from leaky_rbm.training import NegSampler, TrainConfig, negative_phase, positive_phase

from conftest import random_orthogonal, random_safe_params


@pytest.fixture
def report(capfd):
    """Print one CRITERION line outside pytest's capture."""

    def _report(n, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            sys.stdout.write(f"CRITERION {n}: {verdict} - {detail}\n")
            sys.stdout.flush()

    return _report


def test_criterion_01_oracle_agreement(report):
    rng = make_rng(101)
    worst = 0.0
    checked = 0
    while checked < 20:
        c = [0.01, 0.1, 0.5, 1.0][checked % 4]
        n_hidden = 1 + checked % 2
        p = random_orthogonal(rng, 2, n_hidden, leakiness=c)
        exact = exact_log_z_orthogonal(p)
        quad = quadrature_log_z(p, tolerance=1e-9)
        worst = max(worst, abs(exact - quad) / abs(quad))
        checked += 1
    ok = worst <= 1e-6
    report(1, ok, f"exact vs quadrature on 20 instances, worst rel err {worst:.2e}")
    assert ok


def test_criterion_02_partition_bias_pattern(tmp_path, report):
    from leaky_rbm.experiments import experiment_partition_bias

    out = experiment_partition_bias(tmp_path, seed=0)
    rows = list(csv.DictReader(open(out)))
    bias = {
        (int(r["J"]), r["method"]): (float(r["bias_mean"]), float(r["bias_sd"]))
        for r in rows
    }
    js = (2, 4, 8, 16)
    leaky_ok = all(abs(bias[(J, "ais-leaky")][0]) <= 0.15 for J in js)
    sep_ok = all(
        abs(bias[(J, "ais-energy")][0]) >= 2 * abs(bias[(J, "ais-leaky")][0])
        for J in (8, 16)
    )
    mags = [abs(bias[(J, "ais-leaky")][0]) for J in js]
    sds = [bias[(J, "ais-leaky")][1] for J in js]
    trend_ok = all(
        mags[i + 1] >= mags[i] - (sds[i] + sds[i + 1]) / np.sqrt(10)
        for i in range(3)
    ) and mags[-1] > mags[0]
    ok = leaky_ok and sep_ok and trend_ok
    report(
        2,
        ok,
        f"leaky |bias| {['%.3f' % m for m in mags]} (cap 0.15 ok={leaky_ok}), "
        f"energy>=2x at J>=8 ok={sep_ok}, growth ok={trend_ok}",
    )
    assert ok


def test_criterion_03_region_precision_property(report):
    rng = make_rng(303)
    min_eig = np.inf
    for _ in range(200):
        n_vis = int(rng.integers(1, 5))
        n_hid = int(rng.integers(1, 5))
        W = rng.standard_normal((n_vis, n_hid))
        s = np.linalg.svd(W, compute_uv=False)[0]
        if s > 0:
            W *= rng.uniform(0.05, 0.999) / s
        alphas = rng.uniform(0.0, 1.0, size=(200, n_hid))
        for alpha in alphas:
            omega = np.eye(n_vis) - (W * alpha) @ W.T
            min_eig = min(min_eig, float(np.linalg.eigvalsh(omega)[0]))
    ok = min_eig >= -1e-10
    report(3, ok, f"200x200 safe-W precision matrices, min eigenvalue {min_eig:.2e}")
    assert ok


def test_criterion_04_projection_optimality(report):
    rng = make_rng(404)
    kept = []
    total = 0
    while total < 1_000_000:
        candidates = rng.uniform(-1.5, 1.5, size=(2_000_000, 2, 2))
        # sigma_max^2 of a 2 x 2 matrix in closed form, (f + sqrt(f^2 - 4 det^2)) / 2
        # with f = ||W||_F^2: it keeps the same grid as a batched SVD, 15x faster
        f = np.einsum("kij,kij->k", candidates, candidates)
        det = candidates[:, 0, 0] * candidates[:, 1, 1] - candidates[:, 0, 1] * candidates[:, 1, 0]
        batch = candidates[(f + np.sqrt(f * f - 4.0 * det * det)) / 2.0 <= 1.0]
        kept.append(batch)
        total += batch.shape[0]
    grid = np.concatenate(kept)[:1_000_000]
    worst_gap = -np.inf
    worst_idem = 0.0
    done = 0
    while done < 50:
        W = rng.uniform(-2.0, 2.0, size=(2, 2))
        if np.linalg.svd(W, compute_uv=False)[0] <= 1.0:
            continue
        W_proj, _ = project_spectral(W)
        d_proj = np.linalg.norm(W - W_proj)
        d_grid = np.linalg.norm(grid - W, axis=(1, 2)).min()
        worst_gap = max(worst_gap, d_proj - d_grid)
        twice, _ = project_spectral(W_proj)
        worst_idem = max(worst_idem, np.abs(twice - W_proj).max())
        done += 1
    ok = worst_gap <= 1e-6 and worst_idem <= 1e-12
    report(
        4,
        ok,
        f"50 matrices vs 1e6-point grid, worst gap {worst_gap:.2e}, "
        f"idempotence {worst_idem:.2e}",
    )
    assert ok


def test_criterion_05_gradient_vs_finite_difference(report):
    rng = make_rng(505)
    p = random_safe_params(rng, 2, 2, leakiness=0.1, max_norm=0.8)
    data = rng.standard_normal((30, 2)) * 1.5
    pos = positive_phase(p, data)
    cfg = TrainConfig(cd_steps=200, neg_sampler=NegSampler.CD, seed=0)
    big = np.repeat(data, 150_000 // len(data) + 1, axis=0)
    neg = negative_phase(p, big, cfg, make_rng(100))
    est_dW = pos.dW - neg.dW
    est_db = pos.db - neg.db

    def loglik(params):
        lz = quadrature_log_z(params, tolerance=1e-9)
        return float(np.mean(log_unnorm_marginal(params, data)) - lz)

    eps = 1e-5
    fd_dW = np.zeros_like(p.weights)
    for i in range(2):
        for j in range(2):
            dp = np.zeros_like(p.weights)
            dp[i, j] = eps
            fd_dW[i, j] = (
                loglik(p.with_(weights=p.weights + dp))
                - loglik(p.with_(weights=p.weights - dp))
            ) / (2 * eps)
    fd_db = np.zeros_like(p.hidden_bias)
    for j in range(2):
        dp = np.zeros_like(p.hidden_bias)
        dp[j] = eps
        fd_db[j] = (
            loglik(p.with_(hidden_bias=p.hidden_bias + dp))
            - loglik(p.with_(hidden_bias=p.hidden_bias - dp))
        ) / (2 * eps)
    rel_w = np.linalg.norm(est_dW - fd_dW) / np.linalg.norm(fd_dW)
    rel_b = np.linalg.norm(est_db - fd_db) / np.linalg.norm(fd_db)
    ok = rel_w <= 0.02 and rel_b <= 0.02
    report(5, ok, f"blockwise relative error W {rel_w:.4f}, b {rel_b:.4f} (cap 0.02)")
    assert ok


def test_criterion_06_c1_exactness_chain(report):
    rng = make_rng(606)
    p = random_safe_params(rng, 2, 2, leakiness=1.0, max_norm=0.75)
    mean, _ = gaussian_base_moments(p)
    W = p.weights
    cov = np.linalg.inv(np.eye(2) - W @ W.T)
    n = 40_000
    base = sample_gaussian_base(p, n, make_rng(61))
    se = np.sqrt(np.diag(cov) / n)
    base_ok = np.all(np.abs(base.mean(axis=0) - mean) < 3 * se)

    g = make_rng(62)
    v = sample_gaussian_base(p, 4000, g)
    for _ in range(80):
        v, _h = gibbs_step(p, v, g)
    gibbs_ok = np.all(np.abs(v.mean(axis=0) - mean) < 4 * np.sqrt(np.diag(cov) / 4000))

    closed = gaussian_log_z(p)
    ais = ais_estimate(p, AnnealingPath.leaky(1.0, 10), 200, make_rng(63))
    ais_ok = abs(ais.log_z - closed) <= 1e-8 and ais.standard_error <= 1e-12
    quad_ok = abs(quadrature_log_z(p, tolerance=1e-9) - closed) <= 1e-6
    ok = bool(base_ok and gibbs_ok and ais_ok and quad_ok)
    report(
        6,
        ok,
        f"base moments ok={bool(base_ok)}, gibbs stationary ok={bool(gibbs_ok)}, "
        f"degenerate AIS ok={ais_ok}, closed form vs quadrature ok={quad_ok}",
    )
    assert ok


def test_criterion_07_divergence_demonstration(tmp_path, report):
    good = 0
    for seed in range(10):
        d = tmp_path / f"s{seed}"
        d.mkdir()
        out = experiment_divergence(d, seed)
        rows = list(csv.DictReader(open(out)))
        proj = [float(r["mean_abs_v"]) for r in rows if r["model"] == "projected"]
        unproj = [float(r["mean_abs_v"]) for r in rows if r["model"] == "unprojected"]
        if max(proj) < 10.0 and max(unproj) > 1e6:
            good += 1
    ok = good >= 9
    report(7, ok, f"{good}/10 seeds diverge unprojected and stay bounded projected")
    assert ok


def test_criterion_08_one_sided_equals_leaky(report):
    rng = make_rng(808)
    p = random_safe_params(rng, 2, 2, leakiness=0.05, max_norm=0.85, with_bias=False)
    agree = 0
    worst = 0.0
    for k in range(10):
        leaky = ais_estimate(
            p, AnnealingPath.leaky(p.leakiness, 100), 800, make_rng(8100 + k)
        )
        one_sided = ais_estimate(
            p, AnnealingPath.one_sided(100), 800, make_rng(8200 + k)
        )
        bound = 3 * np.hypot(leaky.standard_error, one_sided.standard_error)
        gap = abs(leaky.log_z - one_sided.log_z)
        worst = max(worst, gap - bound)
        if gap <= bound:
            agree += 1
    ok = agree == 10
    report(
        8,
        ok,
        f"{agree}/10 repeats within combined 3 SE (worst exceedance {worst:.3f})",
    )
    assert ok


def test_criterion_09_sampler_training_direction(report):
    """Leaky annealing and the mixed sampler train at least as well as CD.

    Every arm runs at ``train_mixing_method``'s budget, ``MIXING_CD_STEPS``,
    the one the ``mixing`` experiment uses: with a large budget every
    sampler reaches the same optimum and the comparison measures noise.
    Arms are compared only on informative tasks, where some arm's final
    log-likelihood beats the untrained model's (``epochs=0``) by at least
    0.1 nats.  On the other tasks no arm learns anything, and ``>=`` would
    be decided by rounding between arms a few 1e-5 nats apart.
    """
    methods = (NegSampler.CD, NegSampler.LEAKY_ANNEAL, NegSampler.MIX)
    informative = []
    leaky_wins = 0
    mix_wins = 0
    for seed in range(10):
        data = mixing_task_data(seed)

        def loglik(model):
            return eval_mean_log_likelihood(
                model, data, quadrature_log_z(model, tolerance=1e-7)
            )

        initial = loglik(train_mixing_method(seed, NegSampler.CD, data, epochs=0)[0])
        final = {m: loglik(train_mixing_method(seed, m, data)[0]) for m in methods}
        if max(final.values()) - initial < 0.1:
            continue
        informative.append(seed)
        leaky_wins += final[NegSampler.LEAKY_ANNEAL] >= final[NegSampler.CD]
        mix_wins += final[NegSampler.MIX] >= final[NegSampler.CD]
    n = len(informative)
    ok = n >= 5 and 10 * leaky_wins >= 8 * n and 10 * mix_wins >= 7 * n
    report(
        9,
        ok,
        f"{MIXING_CD_STEPS}-sweep budget, informative seeds {informative} ({n}, need 5): "
        f"leaky>=cd in {leaky_wins}/{n} (need 80%), "
        f"mix>=cd in {mix_wins}/{n} (need 70%)",
    )
    assert ok


def test_criterion_10_csv_determinism(tmp_path, report):
    names = ["partition-bias", "mixing", "divergence", "likelihood-compare"]
    identical = []
    for name in names:
        blobs = []
        for run in range(2):
            d = tmp_path / f"{name}-{run}"
            rc = cli_main(["--seed", "0", "--out", str(d), "experiment", name])
            assert rc == 0
            (csv_file,) = sorted(d.glob("*.csv"))
            blobs.append(csv_file.read_bytes())
        identical.append(blobs[0] == blobs[1])
    ok = all(identical)
    report(10, ok, "byte-identical rerun: " + ", ".join(
        f"{n}={'yes' if i else 'no'}" for n, i in zip(names, identical)))
    assert ok
