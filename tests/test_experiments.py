import csv
import dataclasses

import numpy as np
import pytest

from leaky_rbm.experiments import (
    EXPERIMENTS,
    experiment_divergence,
    experiment_likelihood_compare,
    experiment_mixing,
    experiment_partition_bias,
    mixing_task_data,
    random_orthogonal_params,
    synthetic_leaky_data,
    train_mixing_method,
)
from leaky_rbm.errors import TrainingDivergedError
from leaky_rbm.sampler import make_rng
from leaky_rbm.training import NegSampler


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestHelpers:
    def test_registry_names(self):
        assert set(EXPERIMENTS) == {
            "partition-bias",
            "mixing",
            "divergence",
            "likelihood-compare",
        }

    def test_random_orthogonal_params_geometry(self):
        p = random_orthogonal_params(16, 4, leakiness=0.05, rng=make_rng(0))
        W = p.weights
        gram = W.T @ W
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-10
        assert p.is_safe()

    def test_synthetic_data_shape_and_determinism(self):
        p = random_orthogonal_params(4, 2, leakiness=0.1, rng=make_rng(1))
        a = synthetic_leaky_data(p, 50, make_rng(2))
        b = synthetic_leaky_data(p, 50, make_rng(2))
        assert a.shape == (50, 4)
        np.testing.assert_array_equal(a, b)


class TestPartitionBiasSchema:
    def test_small_run_schema(self, tmp_path):
        out = experiment_partition_bias(
            tmp_path, seed=0, hidden_counts=(2, 4), particles=50, levels=10, repeats=2
        )
        rows = _rows(out)
        assert set(rows[0]) == {
            "J", "method", "bias_mean", "bias_sd", "particles", "levels", "dropped",
        }
        assert {r["method"] for r in rows} == {"ais-energy", "ais-leaky"}
        assert {int(r["J"]) for r in rows} == {2, 4}
        for r in rows:
            float(r["bias_mean"])
            float(r["bias_sd"])
            assert int(r["dropped"]) == 0

    def test_dropped_sums_over_repeats(self, tmp_path, monkeypatch):
        import leaky_rbm.experiments as experiments

        real = experiments.ais_estimate
        monkeypatch.setattr(
            experiments, "ais_estimate",
            lambda *args: dataclasses.replace(real(*args), n_dropped=2),
        )
        out = experiment_partition_bias(
            tmp_path, seed=0, hidden_counts=(2,), particles=20, levels=5, repeats=3
        )
        assert [int(r["dropped"]) for r in _rows(out)] == [6, 6]


class TestMixingSchema:
    def test_short_run_schema(self, tmp_path):
        out = experiment_mixing(tmp_path, seed=0, epochs=2)
        rows = _rows(out)
        assert set(rows[0]) == {"epoch", "method", "loglik", "stderr"}
        methods = {r["method"] for r in rows}
        assert methods == {"cd", "leaky-anneal", "mix"}
        assert len(rows) == 6
        for r in rows:
            assert np.isfinite(float(r["loglik"]))


class TestMixingDivergence:
    @pytest.mark.parametrize("seed", [13, 35])
    def test_a_blown_up_leaky_anneal_arm_raises(self, seed):
        # a step takes sigma_max past 2^26 before the clip, to about 1e8 at
        # both seeds; the clip used to hide it, and seed 35 went on to return
        # a model with |b| 1e20.  At the seeds criterion 9 uses nothing clips
        with pytest.raises(TrainingDivergedError, match="^weights blew up to sigma_max"):
            train_mixing_method(seed, NegSampler.LEAKY_ANNEAL, mixing_task_data(seed))


    def test_the_arms_that_finish_are_written(self, tmp_path, capsys):
        # at seed 13 the leaky-anneal arm diverges at epoch 3, batch 6
        with pytest.raises(TrainingDivergedError) as exc:
            experiment_mixing(tmp_path, seed=13, epochs=4)
        assert (exc.value.epoch, exc.value.batch_index) == (3, 6)
        rows = _rows(tmp_path / "mixing.csv")
        assert [(r["method"], r["epoch"]) for r in rows] == [
            (method, str(epoch)) for method in ("cd", "mix") for epoch in range(4)]
        assert all(np.isfinite(float(r["loglik"])) for r in rows)
        assert f"(dropped leaky-anneal: {exc.value})" in capsys.readouterr().err


class TestDivergenceSchema:
    def test_projected_bounded_unprojected_explodes(self, tmp_path):
        out = experiment_divergence(tmp_path, seed=0)
        rows = _rows(out)
        assert set(rows[0]) == {"step", "mean_abs_v", "model"}
        proj = [float(r["mean_abs_v"]) for r in rows if r["model"] == "projected"]
        unproj = [float(r["mean_abs_v"]) for r in rows if r["model"] == "unprojected"]
        assert len(proj) == 200
        assert max(proj) < 10.0
        assert max(unproj) > 1e6


class TestLikelihoodCompareSchema:
    def test_leaky_beats_bernoulli_on_leaky_data(self, tmp_path):
        out = experiment_likelihood_compare(tmp_path, seed=0)
        rows = {r["model"]: r for r in _rows(out)}
        assert set(rows) == {"leaky", "bernoulli-gaussian"}
        assert set(rows["leaky"]) == {"model", "loglik", "logz", "logz_stderr", "dropped"}
        assert int(rows["leaky"]["dropped"]) == 0
        assert int(rows["bernoulli-gaussian"]["dropped"]) == 0
        assert float(rows["leaky"]["loglik"]) > float(
            rows["bernoulli-gaussian"]["loglik"]
        )


class TestDeterminism:
    @pytest.mark.parametrize(
        "runner",
        [
            lambda d: experiment_mixing(d, seed=3, epochs=2),
            lambda d: experiment_partition_bias(
                d, seed=3, hidden_counts=(2,), particles=30, levels=10, repeats=2
            ),
            lambda d: experiment_divergence(d, seed=3),
            lambda d: experiment_likelihood_compare(d, seed=3),
        ],
        ids=["mixing", "partition-bias", "divergence", "likelihood-compare"],
    )
    def test_rerun_byte_identical(self, tmp_path, runner):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        p1 = runner(d1)
        p2 = runner(d2)
        assert p1.read_bytes() == p2.read_bytes()
