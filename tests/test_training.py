import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from leaky_rbm import (
    DimensionError,
    HiddenKind,
    NegSampler,
    RbmParams,
    TrainConfig,
    TrainingDivergedError,
    train,
)
from leaky_rbm.experiments import mixing_task_data, train_mixing_method
from leaky_rbm.model import log_unnorm_marginal, visible_conditional
from leaky_rbm.partition import quadrature_log_z
from leaky_rbm.projection import _FAR, is_globally_safe, project_spectral
from leaky_rbm.sampler import anneal_leakiness_sample, gibbs_step, make_rng, mix_sample
from leaky_rbm.training import (
    EpochRecord,
    _chain_ends,
    expected_hidden,
    initial_params,
    negative_phase,
    positive_phase,
    reconstruction_error,
)

from conftest import random_safe_params


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(cd_steps=0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1e-3)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=float("nan"))
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=float("inf"))
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=float("inf"))
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(seed=-1)

    def test_unknown_negative_sampler_rejected(self):
        with pytest.raises(ValueError, match="unknown negative sampler"):
            TrainConfig(neg_sampler="cd")

    def test_hash_stable_and_sensitive(self):
        a = TrainConfig(seed=1)
        b = TrainConfig(seed=1)
        c = TrainConfig(seed=2)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_hash_pinned(self):
        # model files store these hashes, so they must not change between versions
        assert TrainConfig().config_hash() == 9567580982017328368
        mix = TrainConfig(neg_sampler=NegSampler.MIX, cd_steps=3, seed=7, projection_enabled=False)
        assert mix.config_hash() == 13825327152122696446


class TestPositivePhase:
    def test_zero_model_zero_gradient(self):
        p = RbmParams.create(np.zeros((2, 2)))
        batch = np.array([[1.0, -2.0], [0.5, 0.0]])
        g = positive_phase(p, batch)
        np.testing.assert_array_equal(g.dW, np.zeros((2, 2)))
        np.testing.assert_array_equal(g.db, np.zeros(2))
        np.testing.assert_allclose(g.da, batch.mean(axis=0))

    def test_all_active_hand_value(self):
        # single row with every response positive: E[h|v] = eta, dW = v eta^T
        W = np.array([[0.5, 0.2], [0.1, 0.3]])
        p = RbmParams.create(W, leakiness=0.1)
        v = np.array([[1.0, 2.0]])
        eta = v @ W
        g = positive_phase(p, v)
        assert np.all(eta > 0)
        np.testing.assert_allclose(g.dW, v.T @ eta, rtol=1e-12)
        np.testing.assert_allclose(g.db, eta[0], rtol=1e-12)

    def test_leaky_branch_scales_mean(self):
        W = np.array([[0.5], [0.0]])
        c = 0.25
        p = RbmParams.create(W, leakiness=c)
        v = np.array([[-2.0, 0.0]])
        g = positive_phase(p, v)
        np.testing.assert_allclose(g.db, [c * -1.0], rtol=1e-12)

    def test_bernoulli_midpoint(self):
        p = RbmParams.create(
            np.zeros((2, 3)), hidden_kind=HiddenKind.BERNOULLI, leakiness=1.0
        )
        g = positive_phase(p, np.zeros((1, 2)))
        np.testing.assert_allclose(g.db, [0.5, 0.5, 0.5])

    def test_empty_batch_rejected(self, rng):
        p = random_safe_params(rng)
        with pytest.raises(ValueError):
            positive_phase(p, np.zeros((0, 2)))


class TestNegativePhase:
    def test_mix_degenerate_equals_cd(self, rng):
        # at c = 1 the 4-step anneal holds c at 1, which
        # makes the mix sampler an ordinary CD chain, so the two gradient
        # estimates must be bit-identical
        p = random_safe_params(rng, 2, 2, leakiness=1.0)
        batch = rng.standard_normal((8, 2))
        cd_cfg = TrainConfig(cd_steps=4, neg_sampler=NegSampler.CD, seed=0)
        mix_cfg = TrainConfig(cd_steps=4, neg_sampler=NegSampler.MIX, seed=0)
        g_cd = negative_phase(p, batch, cd_cfg, make_rng(6))
        g_mix = negative_phase(p, batch, mix_cfg, make_rng(6))
        np.testing.assert_array_equal(g_cd.dW, g_mix.dW)
        np.testing.assert_array_equal(g_cd.db, g_mix.db)

    @pytest.mark.parametrize("cd_steps", [1, 5])
    def test_annealed_chain_ends_are_the_samplers_chains(self, rng, cd_steps):
        # both annealed schemes run the public samplers' chains, bit for bit,
        # over cd_steps steps and on the same generator
        p = random_safe_params(rng, 5, 3, leakiness=0.1)
        p = p.with_(visible_bias=rng.uniform(-1.0, 1.0, 5))
        W, a, b = p.weights, p.visible_bias, p.hidden_bias
        assert a.all() and b.all()
        batch = rng.standard_normal((7, 5))
        for sampler, chains in [
            (NegSampler.LEAKY_ANNEAL, anneal_leakiness_sample(p, cd_steps, 7, make_rng(9))),
            (NegSampler.MIX, mix_sample(p, batch, cd_steps, make_rng(9))),
        ]:
            cfg = TrainConfig(cd_steps=cd_steps, neg_sampler=sampler)
            v = _chain_ends(W, a, b, 0.1, batch, None, cfg, make_rng(9))
            np.testing.assert_array_equal(v, chains.v)

    def test_c1_long_chain_moments(self, rng):
        # at leakiness 1 the model is an exact Gaussian, so the negative
        # dW expectation converges to E[v h^T] = Cov(v) W (zero biases)
        p = random_safe_params(rng, 2, 2, leakiness=1.0, max_norm=0.7, with_bias=False)
        W = p.weights
        cov = np.linalg.inv(np.eye(2) - W @ W.T)
        target = cov @ W
        batch = rng.standard_normal((40_000, 2)) * 2.0
        cfg = TrainConfig(cd_steps=40, neg_sampler=NegSampler.CD, seed=0)
        g = negative_phase(p, batch, cfg, make_rng(12))
        np.testing.assert_allclose(g.dW, target, atol=0.05)


class TestGradientAgainstFiniteDifference:
    def test_two_percent_agreement(self, rng):
        # long-chain (positive - negative) estimate vs finite difference of
        # the quadrature-exact mean log-likelihood, blockwise
        p = random_safe_params(rng, 2, 2, leakiness=0.1, max_norm=0.8)
        data = rng.standard_normal((30, 2)) * 1.5

        pos = positive_phase(p, data)
        cfg = TrainConfig(cd_steps=200, neg_sampler=NegSampler.CD, seed=0)
        big = np.repeat(data, 50_000 // len(data) + 1, axis=0)
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

        assert np.linalg.norm(est_dW - fd_dW) <= 0.02 * np.linalg.norm(fd_dW)
        assert np.linalg.norm(est_db - fd_db) <= 0.02 * np.linalg.norm(fd_db)


class TestTrain:
    def test_zero_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_tiny_learning_rate_near_identity(self, rng):
        p = random_safe_params(rng, 2, 2)
        data = rng.standard_normal((50, 2))
        cfg = TrainConfig(learning_rate=1e-12, epochs=2, batch_size=25, seed=3)
        final, log = train(p, data, cfg)
        np.testing.assert_allclose(final.weights, p.weights, atol=1e-9)
        assert len(log.epochs) == 2

    def test_projection_keeps_model_safe_every_epoch(self, rng):
        p = random_safe_params(rng, 3, 3, leakiness=0.1)
        data = rng.standard_normal((200, 3)) * 3.0
        safety = []
        cfg = TrainConfig(
            learning_rate=0.05, epochs=6, batch_size=50, seed=1, cd_steps=2
        )
        final, _ = train(
            p, data, cfg, loglik_fn=lambda q: safety.append(is_globally_safe(q.weights)[0]) or 0.0
        )
        assert all(safety)
        assert is_globally_safe(final.weights)[0]

    def test_seed_determinism(self, rng):
        p = random_safe_params(rng, 2, 2)
        data = rng.standard_normal((60, 2))
        cfg = TrainConfig(learning_rate=0.02, epochs=3, batch_size=20, seed=9)
        a, _ = train(p, data, cfg)
        b, _ = train(p, data, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.hidden_bias, b.hidden_bias)

    def test_likelihood_rises_on_synthetic_task(self, rng):
        truth = random_safe_params(rng, 2, 2, leakiness=0.1, max_norm=0.8)
        g = make_rng(44)
        v = g.standard_normal((500, 2))
        for _ in range(300):
            v, _ = gibbs_step(truth, v, g)
        data = v
        p0 = RbmParams.create(
            make_rng(45).uniform(0, 0.01, (2, 2)), leakiness=0.1
        )
        curve = []

        def loglik(params):
            lz = quadrature_log_z(params, tolerance=1e-7)
            val = float(np.mean(log_unnorm_marginal(params, data)) - lz)
            curve.append(val)
            return val

        cfg = TrainConfig(
            learning_rate=0.02, epochs=12, batch_size=100, seed=2, cd_steps=5
        )
        train(p0, data, cfg, loglik_fn=loglik)
        # monotone up to small noise: every later epoch beats the first and
        # dips between neighbours stay tiny
        assert curve[-1] > curve[0]
        assert all(b - a > -0.01 for a, b in zip(curve, curve[1:]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self, rng):
        # unprojected ascent on wildly scaled data must abort with the
        # dedicated error rather than return non-finite parameters
        p = random_safe_params(rng, 2, 2, leakiness=0.05, max_norm=0.9)
        data = rng.standard_normal((100, 2)) * 100.0
        cfg = TrainConfig(
            learning_rate=5.0,
            epochs=50,
            batch_size=100,
            seed=0,
            projection_enabled=False,
        )
        with pytest.raises(TrainingDivergedError) as exc:
            train(p, data, cfg)
        assert exc.value.epoch >= 0

    def test_overflowing_reconstruction_raises(self, rng):
        # one step at learning rate 1e300 leaves the weights finite, but the
        # epoch's reconstruction error overflows
        p = random_safe_params(rng, 4, 2)
        data = rng.standard_normal((50, 4))
        cfg = TrainConfig(learning_rate=1e300, epochs=1, projection_enabled=False)
        with pytest.raises(TrainingDivergedError,
                           match="^reconstruction error overflowed at epoch 0$") as exc:
            train(p, data, cfg)
        assert exc.value.batch_index is None


    def test_empty_data_rejected(self, rng):
        # no rows would make every epoch's recon_error a silent NaN
        p = random_safe_params(rng, 2, 2)
        with pytest.raises(ValueError, match="at least one row"):
            train(p, np.empty((0, 2)), TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="at least one row"):
            reconstruction_error(p, np.empty((0, 2)))

    @pytest.mark.parametrize("sampler", [NegSampler.CD, NegSampler.MIX])
    def test_wrong_width_raises_dimension_error(self, rng, sampler):
        p = random_safe_params(rng, 2, 2)
        with pytest.raises(DimensionError):
            train(p, rng.standard_normal((10, 3)), TrainConfig(epochs=1, neg_sampler=sampler))

    @pytest.mark.parametrize("sampler", [NegSampler.LEAKY_ANNEAL, NegSampler.MIX])
    def test_annealed_sampler_rejects_bernoulli_units_before_any_epoch(self, sampler):
        p = RbmParams.create(np.full((2, 2), 0.3), hidden_kind=HiddenKind.BERNOULLI)
        data = np.zeros((4, 2))
        with pytest.raises(ValueError, match="leakiness annealing requires leaky hidden units"):
            train(p, data, TrainConfig(epochs=0, neg_sampler=sampler))
        with pytest.raises(ValueError, match="leakiness annealing requires leaky hidden units"):
            negative_phase(p, data, TrainConfig(neg_sampler=sampler), make_rng(0))

    def test_leaky_anneal_builds_no_params_per_minibatch(self, rng, monkeypatch):
        # the c = 1 base is drawn from raw arrays: leaky-anneal builds the
        # same models as CD, one per epoch, however many minibatches run
        built = []
        post_init = RbmParams.__post_init__

        def counting(obj):
            built.append(obj)
            post_init(obj)

        p = random_safe_params(rng, 4, 3, leakiness=0.1)
        data = rng.standard_normal((30, 4))
        monkeypatch.setattr(RbmParams, "__post_init__", counting)
        counts = {}
        for sampler in (NegSampler.CD, NegSampler.LEAKY_ANNEAL):
            built.clear()
            cfg = TrainConfig(epochs=2, batch_size=10, cd_steps=2, neg_sampler=sampler)
            train(p, data, cfg)
            counts[sampler] = len(built)
        assert counts[NegSampler.LEAKY_ANNEAL] == counts[NegSampler.CD] == 2

    def test_mix_at_one_sweep_is_cd1(self, rng):
        # the default schedule reaches the target leakiness on its first
        # sweep, so mix with cd_steps = 1 is CD-1 from the same data rows
        p = random_safe_params(rng, 20, 10, leakiness=0.1)
        data = rng.standard_normal((60, 20))
        for cd_steps, same in ((1, True), (2, False)):
            cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=20, seed=4,
                              cd_steps=cd_steps)
            cd, _ = train(p, data, cfg)
            mix, _ = train(p, data, replace(cfg, neg_sampler=NegSampler.MIX))
            assert np.array_equal(mix.weights, cd.weights) is same
            assert np.array_equal(mix.hidden_bias, cd.hidden_bias) is same


class TestTrainThreads:
    """The one helper thread that ``train`` starts ends with it."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("config", [
        TrainConfig(cd_steps=2, neg_sampler=NegSampler.LEAKY_ANNEAL, batch_size=100, seed=3),
        TrainConfig(learning_rate=1e150, projection_enabled=False, batch_size=100),
    ], ids=["blown-up", "non-finite"])
    def test_a_divergence_mid_epoch_joins_them(self, rng, threads_started, config):
        W = random_safe_params(rng, 300, 250, max_norm=0.99).weights
        p0 = RbmParams.create(W, hidden_bias=rng.uniform(-0.5, 0.5, 250), leakiness=0.1)
        data = rng.standard_normal((500, 300)) * 3.0
        before = threading.active_count()
        with pytest.raises(TrainingDivergedError) as exc:
            train(p0, data, config)
        assert 0 < exc.value.batch_index < 4  # mid-epoch, with draws made ahead
        assert (exc.value.max_singular_value is None) is (not config.projection_enabled)
        # one helper for the whole run, the executor's worker
        assert [t.job for t in threads_started] == ["_worker"]
        assert threading.active_count() == before
        assert not any(t.is_alive() for t in threads_started)

    def test_a_run_starts_one_thread(self, rng, threads_started):
        # each epoch's draws fill three chunks and dW has more than one chunk
        # of entries, so all three epochs' draws and statistics run on it
        W = random_safe_params(rng, 300, 250, max_norm=0.99).weights
        p0 = RbmParams.create(W, hidden_bias=rng.uniform(-0.5, 0.5, 250), leakiness=0.1)
        data = rng.standard_normal((300, 300))
        before = threading.active_count()
        _params, log = train(p0, data, TrainConfig(epochs=3, batch_size=128, seed=5))
        assert len(log.epochs) == 3
        assert [t.job for t in threads_started] == ["_worker"]
        assert threading.active_count() == before and not threads_started[0].is_alive()

    def test_concurrent_runs_under_fast_switching(self, rng):
        # three runs at once, each with its helper, on two
        # cores, switching threads every microsecond: positive statistics
        # read before the helper wrote them, or a draw buffer refilled while
        # in use, would change the bits
        W = random_safe_params(rng, 300, 250, max_norm=0.99).weights
        p0 = RbmParams.create(W, hidden_bias=rng.uniform(-0.5, 0.5, 250), leakiness=0.1)
        data = rng.standard_normal((300, 300)) * 3.0
        configs = [TrainConfig(epochs=1, batch_size=128, seed=k) for k in range(3)]
        refs = [train(p0, data, config)[0].weights for config in configs]
        out = [None] * 3

        def run(k):
            out[k] = train(p0, data, configs[k])[0].weights

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runners = [threading.Thread(target=run, args=(k,)) for k in range(3)]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners)
        for W_k, W_ref in zip(out, refs):
            np.testing.assert_array_equal(W_k, W_ref)

    @pytest.mark.parametrize("method", list(NegSampler))
    def test_the_mixing_task_starts_none(self, monkeypatch, method):
        # at 2 x 2 an epoch's draws fit in one chunk and dW in far less
        def no_thread(*args, **kwargs):
            raise AssertionError("a 2 x 2 training run started a thread")

        data = mixing_task_data(0)
        monkeypatch.setattr(threading, "Thread", no_thread)
        _params, log = train_mixing_method(0, method, data, epochs=2)
        assert len(log.epochs) == 2


class TestInitialParams:
    @pytest.mark.parametrize("shape", [(2, 2), (16, 8)])
    def test_feasible_draw_is_kept_bit_for_bit(self, shape):
        p = initial_params(*shape, make_rng(7, 5), leakiness=0.05)
        raw = make_rng(7, 5).uniform(0.0, 0.01, size=shape)
        assert p.weights.tobytes() == raw.tobytes()
        np.testing.assert_array_equal(p.visible_bias, np.zeros(shape[0]))
        np.testing.assert_array_equal(p.hidden_bias, np.zeros(shape[1]))
        assert p.leakiness == 0.05 and p.hidden_kind is HiddenKind.LEAKY_RELU

    def test_infeasible_draw_is_made_feasible(self):
        # U(0, 0.01) at 784x60 has sigma_max ~1.08
        raw = make_rng(0).uniform(0.0, 0.01, size=(784, 60))
        assert not is_globally_safe(raw)[0]
        assert is_globally_safe(initial_params(784, 60, make_rng(0)).weights)[0]

    @pytest.mark.parametrize("leakiness", [0.1, 1.0, 5.0])
    def test_bernoulli_units_store_leakiness_1(self, leakiness):
        p = initial_params(3, 2, make_rng(0), leakiness, HiddenKind.BERNOULLI)
        assert p.leakiness == 1.0 and p.hidden_kind is HiddenKind.BERNOULLI


class TestReconstructionError:
    def test_perfect_reconstruction_zero_model(self):
        p = RbmParams.create(np.zeros((2, 1)))
        batch = np.zeros((5, 2))
        assert reconstruction_error(p, batch) == pytest.approx(0.0)

    def test_positive_for_mismatched_data(self, rng):
        p = random_safe_params(rng)
        batch = rng.standard_normal((10, 2)) + 5.0
        assert reconstruction_error(p, batch) > 0.0

    @staticmethod
    def _one_shot(p, batch):
        recon = visible_conditional(p, expected_hidden(p, batch))
        return float(np.mean((batch - recon) ** 2))

    def test_one_block_is_the_one_shot_formula_bit_for_bit(self, rng):
        p = random_safe_params(rng, 5, 3)
        for n in (1, 700, 1024):
            batch = rng.standard_normal((n, 5)) * 2.0
            assert reconstruction_error(p, batch) == self._one_shot(p, batch)

    def test_blocks_match_the_one_shot_formula(self, rng):
        p = random_safe_params(rng, 5, 3)
        batch = rng.standard_normal((2500, 5)) * 2.0
        assert reconstruction_error(p, batch) == pytest.approx(
            self._one_shot(p, batch), rel=1e-12
        )


def _reference_train(params0, data, config, loglik_fn=None):
    """``train`` spelled out from the public phases, one batch at a time.

    Its epoch records take the reconstruction error from the one-shot
    formula, which ``reconstruction_error`` matches bit for bit up to 1024
    rows.  A step that the projection finds past sigma_max _FAR raises
    TrainingDivergedError, as in ``train``.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    rng = make_rng(config.seed)
    params = params0
    vel_W = np.zeros_like(params.weights)
    vel_b = np.zeros_like(params.hidden_bias)
    records = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(data))
        for bi, start in enumerate(range(0, len(data), config.batch_size)):
            batch = data[order[start : start + config.batch_size]]
            pos = positive_phase(params, batch)
            neg = negative_phase(params, batch, config, rng)
            g_W = pos.dW - neg.dW - config.weight_decay * params.weights
            g_b = pos.db - neg.db
            vel_W = config.momentum * vel_W + config.learning_rate * g_W
            vel_b = config.momentum * vel_b + config.learning_rate * g_b
            new_W = params.weights + vel_W
            if config.projection_enabled:
                new_W, report = project_spectral(new_W)
                if report.clipped_count and report.max_singular_value_before > _FAR:
                    raise TrainingDivergedError(epoch, bi, report.max_singular_value_before)
            params = params.with_(weights=new_W, hidden_bias=params.hidden_bias + vel_b)
        recon = float(np.mean((data - visible_conditional(params, expected_hidden(params, data))) ** 2))
        record = EpochRecord(epoch=epoch, recon_error=recon)
        if loglik_fn is not None:
            record.log_likelihood = float(loglik_fn(params))
        records.append(record)
    return params, records


class TestTrainReference:
    """``train`` reproduces the public-phase loop above bit for bit."""

    @staticmethod
    def _check(params0, data, config, loglik_fn=None):
        try:
            got, log = train(params0, data, config, loglik_fn=loglik_fn)
        except TrainingDivergedError as exc:
            # the same step diverges, with sigma_max of the same bits
            with pytest.raises(TrainingDivergedError) as want:
                _reference_train(params0, data, config, loglik_fn=loglik_fn)
            assert (exc.epoch, exc.batch_index, exc.max_singular_value) == (
                want.value.epoch, want.value.batch_index, want.value.max_singular_value)
            return None
        want, records = _reference_train(params0, data, config, loglik_fn=loglik_fn)
        np.testing.assert_array_equal(got.weights, want.weights)
        np.testing.assert_array_equal(got.hidden_bias, want.hidden_bias)
        np.testing.assert_array_equal(got.visible_bias, want.visible_bias)
        assert [r.epoch for r in log.epochs] == [r.epoch for r in records]
        np.testing.assert_array_equal(
            [r.recon_error for r in log.epochs], [r.recon_error for r in records]
        )
        np.testing.assert_array_equal(
            [r.log_likelihood for r in log.epochs], [r.log_likelihood for r in records]
        )
        return log

    @pytest.mark.parametrize(
        "n_visible, n_hidden, kind, config",
        [
            (6, 4, HiddenKind.LEAKY_RELU, TrainConfig(learning_rate=0.1, epochs=3, batch_size=40, seed=1)),
            (6, 4, HiddenKind.LEAKY_RELU, TrainConfig(
                cd_steps=3, learning_rate=0.05, momentum=0.5, weight_decay=1e-3,
                epochs=3, batch_size=40, seed=2)),
            (6, 4, HiddenKind.BERNOULLI, TrainConfig(
                cd_steps=2, learning_rate=0.1, momentum=0.5, epochs=3, batch_size=40, seed=3)),
            (6, 4, HiddenKind.LEAKY_RELU, TrainConfig(
                cd_steps=3, learning_rate=0.1, neg_sampler=NegSampler.MIX, epochs=3,
                batch_size=40, seed=4)),
            (6, 4, HiddenKind.LEAKY_RELU, TrainConfig(
                cd_steps=3, learning_rate=0.02, momentum=0.5, neg_sampler=NegSampler.LEAKY_ANNEAL,
                epochs=3, batch_size=40, seed=5)),
            (6, 4, HiddenKind.LEAKY_RELU, TrainConfig(
                learning_rate=0.01, momentum=0.5, projection_enabled=False, epochs=3,
                batch_size=40, seed=6)),
            (40, 30, HiddenKind.LEAKY_RELU, TrainConfig(
                learning_rate=0.02, momentum=0.5, weight_decay=1e-3, epochs=2, batch_size=64, seed=7)),
            # weight decay without momentum: the decay product and no velocity
            (6, 4, HiddenKind.LEAKY_RELU, TrainConfig(
                learning_rate=0.05, weight_decay=1e-2, epochs=3, batch_size=40, seed=8)),
        ],
    )
    def test_bit_identical_to_public_phase_loop(self, rng, n_visible, n_hidden, kind, config):
        # 130 and 250 rows are not multiples of the batch sizes
        W = random_safe_params(rng, n_visible, n_hidden, max_norm=0.99).weights
        p0 = RbmParams.create(W, hidden_bias=rng.uniform(-0.5, 0.5, n_hidden),
                              leakiness=0.1 if kind is HiddenKind.LEAKY_RELU else 1.0,
                              hidden_kind=kind)
        data = rng.standard_normal((130 if n_visible < 10 else 250, n_visible)) * 3.0
        self._check(p0, data, config)

    @pytest.mark.parametrize(
        "kind, config",
        [
            (HiddenKind.LEAKY_RELU, TrainConfig(
                learning_rate=0.01, momentum=0.5, weight_decay=1e-3, epochs=2, batch_size=128,
                seed=9)),
            (HiddenKind.LEAKY_RELU, TrainConfig(
                cd_steps=2, learning_rate=0.001, neg_sampler=NegSampler.LEAKY_ANNEAL, epochs=2,
                batch_size=128, seed=10)),
            (HiddenKind.LEAKY_RELU, TrainConfig(
                cd_steps=2, learning_rate=0.01, momentum=0.5, neg_sampler=NegSampler.MIX,
                epochs=2, batch_size=128, seed=11)),
            (HiddenKind.BERNOULLI, TrainConfig(
                cd_steps=2, learning_rate=0.01, momentum=0.5, epochs=2, batch_size=128, seed=12)),
        ],
        ids=["cd", "leaky-anneal", "mix", "bernoulli-cd"],
    )
    def test_bit_identical_with_the_helper_and_the_worker(self, rng, threads_started, kind,
                                                          config):
        # at 300 x 250 dW has more than one chunk of entries and an epoch's
        # draws fill several chunks; 300 rows leave a short last batch
        W = random_safe_params(rng, 300, 250, max_norm=0.99).weights
        p0 = RbmParams.create(W, hidden_bias=rng.uniform(-0.5, 0.5, 250),
                              leakiness=0.1 if kind is HiddenKind.LEAKY_RELU else 1.0,
                              hidden_kind=kind)
        data = rng.standard_normal((300, 300)) * 3.0
        self._check(p0, data, config)
        # train's one helper, started before the reference's threads, if any
        assert [t.job for t in threads_started[:1]] == ["_worker"]

    def test_loglik_fn(self, rng):
        p0 = random_safe_params(rng, 3, 3, max_norm=0.99)
        data = rng.standard_normal((90, 3)) * 2.0
        config = TrainConfig(learning_rate=0.05, epochs=8, batch_size=25)
        loglik = lambda q: float(np.sum(q.weights) + np.sum(q.hidden_bias))
        log = self._check(p0, data, config, loglik_fn=loglik)
        assert len(log.epochs) == 8
