import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy import stats

from leaky_rbm import (
    AnnealSchedule,
    DimensionError,
    HiddenKind,
    NonPDRegionError,
    RbmParams,
    anneal_leakiness_sample,
    gibbs_step,
    mix_sample,
    sample_gaussian_base,
)
from leaky_rbm.projection import project_spectral
from leaky_rbm.sampler import gaussian_base_moments, make_rng
from leaky_rbm.partition import quadrature_log_z
from leaky_rbm.model import log_unnorm_marginal

from conftest import random_safe_params


class TestMakeRng:
    def test_streams_differ(self):
        a = make_rng(0, 0).standard_normal(4)
        b = make_rng(0, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        a = make_rng(42, 3).standard_normal(4)
        b = make_rng(42, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)


class TestAnnealSchedule:
    def test_decrement_then_clamp_sequence(self):
        s = AnnealSchedule(c_target=0.5, total_steps=8, epsilon=0.1)
        np.testing.assert_allclose(
            s.leakiness_sequence(), [0.9, 0.8, 0.7, 0.6, 0.5, 0.5, 0.5, 0.5]
        )

    def test_default_epsilon_finishes_at_90_percent(self):
        s = AnnealSchedule(c_target=0.1, total_steps=100)
        seq = s.leakiness_sequence()
        assert np.all(np.diff(seq) <= 0)
        assert seq[89] == pytest.approx(0.1)
        assert np.all(seq[90:] == 0.1)

    def test_sequence_never_below_target(self):
        s = AnnealSchedule(c_target=0.25, total_steps=37)
        assert np.all(s.leakiness_sequence() >= 0.25)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            AnnealSchedule(c_target=0.0, total_steps=5)
        with pytest.raises(ValueError):
            AnnealSchedule(c_target=0.5, total_steps=5, c_start=0.4)
        with pytest.raises(ValueError):
            AnnealSchedule(c_target=0.5, total_steps=5, epsilon=-0.1)
        with pytest.raises(ValueError):
            AnnealSchedule(c_target=0.5, total_steps=5, epsilon=float("nan"))


class TestGaussianBase:
    def test_zero_weights_standard_normal(self):
        p = RbmParams.create(np.zeros((2, 1)))
        mean, chol = gaussian_base_moments(p)
        np.testing.assert_allclose(mean, np.zeros(2))
        np.testing.assert_allclose(chol, np.eye(2))
        draws = sample_gaussian_base(p, 40_000, make_rng(0))
        assert np.abs(draws.mean(axis=0)).max() < 4.0 / np.sqrt(40_000)

    def test_hand_computed_mean(self):
        p = RbmParams.create(np.array([[0.6], [0.0]]), hidden_bias=[1.0])
        mean, _ = gaussian_base_moments(p)
        np.testing.assert_allclose(mean, [0.9375, 0.0], rtol=1e-12)

    def test_covariance_monte_carlo(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=1.0, max_norm=0.8)
        n = 100_000
        draws = sample_gaussian_base(p, n, make_rng(5))
        W = p.weights
        cov_target = np.linalg.inv(np.eye(2) - W @ W.T)
        cov_emp = np.cov(draws.T)
        # entrywise standard error of a covariance estimate
        for i in range(2):
            for j in range(2):
                se = np.sqrt(
                    (cov_target[i, i] * cov_target[j, j] + cov_target[i, j] ** 2) / n
                )
                assert abs(cov_emp[i, j] - cov_target[i, j]) < 3 * se

    def test_unsafe_weights_rejected(self):
        p = RbmParams.create(np.diag([1.5, 0.1]), leakiness=0.1)
        with pytest.raises(NonPDRegionError):
            gaussian_base_moments(p)

    def test_determinism(self, rng):
        p = random_safe_params(rng, 2, 2)
        a = sample_gaussian_base(p, 16, make_rng(9))
        b = sample_gaussian_base(p, 16, make_rng(9))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [(2, 2), (5, 3), (64, 16), "boundary"])
    def test_draw_is_mean_plus_inverse_transpose_factor(self, shape):
        # the draw solves L^T x = z by one triangular solve, bit for bit
        # the general solve; the boundary model is shrunk by the base
        g = np.random.default_rng(3)
        if shape == "boundary":
            W, _ = project_spectral(2.0 * g.standard_normal((5, 3)))
            p = RbmParams.create(W, hidden_bias=g.standard_normal(3),
                                 visible_bias=g.standard_normal(5))
            assert p.max_singular_value() > 1.0 - 1e-6
        else:
            p = random_safe_params(g, *shape).with_(
                visible_bias=g.uniform(-1.0, 1.0, shape[0]))
        mean, chol = gaussian_base_moments(p)
        z = make_rng(8).standard_normal((100, p.n_visible))
        expected = mean + np.linalg.solve(chol.T, z.T).T
        np.testing.assert_array_equal(sample_gaussian_base(p, 100, make_rng(8)), expected)


class TestGibbsStep:
    def test_zero_weights_independent_of_state(self):
        p = RbmParams.create(np.zeros((2, 1)), visible_bias=[3.0, -1.0])
        v1, _ = gibbs_step(p, np.full((5000, 2), 100.0), make_rng(1))
        np.testing.assert_allclose(v1.mean(axis=0), [3.0, -1.0], atol=0.1)
        np.testing.assert_allclose(v1.std(axis=0), [1.0, 1.0], atol=0.05)

    def test_fixed_seed_bit_identical(self, rng):
        p = random_safe_params(rng, 3, 2)
        v0 = rng.standard_normal((4, 3))
        a1, h1 = gibbs_step(p, v0, make_rng(7))
        a2, h2 = gibbs_step(p, v0, make_rng(7))
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(h1, h2)

    def test_c1_stationary_mean(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=1.0, max_norm=0.7)
        mean, _ = gaussian_base_moments(p)
        g = make_rng(11)
        v = sample_gaussian_base(p, 2000, g)
        for _ in range(60):
            v, _ = gibbs_step(p, v, g)
        # chains stay at the exact Gaussian; mean within 4 standard errors
        W = p.weights
        cov = np.linalg.inv(np.eye(2) - W @ W.T)
        se = np.sqrt(np.diag(cov) / 2000)
        # chains are correlated in time but these are 2000 parallel chains
        assert np.all(np.abs(v.mean(axis=0) - mean) < 4 * se)

    def test_leaky_variance_branch(self):
        # all-negative responses: sampled h variance should be close to c
        c = 0.2
        p = RbmParams.create(np.array([[0.5]]), hidden_bias=[-10.0], leakiness=c)
        v = np.zeros((20_000, 1))
        _, h = gibbs_step(p, v, make_rng(3))
        assert abs(h.var() - c) < 0.01

    def test_rows_checked_like_training_data(self):
        p = RbmParams.create(np.full((2, 2), 0.3), leakiness=0.5)
        with pytest.raises(DimensionError):
            gibbs_step(p, np.zeros((3, 2, 2)), make_rng(0))
        with pytest.raises(ValueError, match="at least one row"):
            gibbs_step(p, np.zeros((0, 2)), make_rng(0))


class TestAnnealLeakinessSample:
    def test_degenerate_schedule_matches_base(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=1.0, max_norm=0.7)
        sched = AnnealSchedule(c_target=1.0, total_steps=10)
        chains = anneal_leakiness_sample(p, sched, 4000, make_rng(21))
        base = sample_gaussian_base(p, 4000, make_rng(22))
        # same distribution: compare means and covariances loosely
        np.testing.assert_allclose(
            chains.v.mean(axis=0), base.mean(axis=0), atol=0.15
        )
        np.testing.assert_allclose(np.cov(chains.v.T), np.cov(base.T), atol=0.3)

    def test_determinism(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.2)
        sched = AnnealSchedule(c_target=0.2, total_steps=15)
        a = anneal_leakiness_sample(p, sched, 8, make_rng(4)).v
        b = anneal_leakiness_sample(p, sched, 8, make_rng(4)).v
        np.testing.assert_array_equal(a, b)

    def test_1d_histogram_matches_quadrature(self):
        p = RbmParams.create(np.array([[0.7]]), hidden_bias=[0.4], leakiness=0.05)
        sched = AnnealSchedule(c_target=0.05, total_steps=150)
        v = anneal_leakiness_sample(p, sched, 10_000, make_rng(31)).v[:, 0]
        log_z = quadrature_log_z(p, tolerance=1e-9)
        edges = np.linspace(-5.0, 5.0, 21)
        counts, _ = np.histogram(v, bins=edges)
        # expected mass per bin from the normalized density
        grid = np.linspace(-5.0, 5.0, 2001)
        dens = np.exp(log_unnorm_marginal(p, grid[:, None]) - log_z)
        mass = np.array(
            [
                np.trapezoid(
                    dens[(grid >= edges[k]) & (grid <= edges[k + 1])],
                    grid[(grid >= edges[k]) & (grid <= edges[k + 1])],
                )
                for k in range(20)
            ]
        )
        inside = counts.sum()
        keep = mass * inside > 5
        chi2, pval = stats.chisquare(
            counts[keep], mass[keep] / mass[keep].sum() * counts[keep].sum()
        )
        assert pval > 0.01


class TestMixSample:
    def test_single_row_broadcast(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.3)
        sched = AnnealSchedule(c_target=0.3, total_steps=0)
        row = rng.standard_normal((1, 2))
        chains = mix_sample(p, row, sched, make_rng(1), n_chains=5)
        assert chains.v.shape == (5, 2)
        np.testing.assert_array_equal(chains.v, np.repeat(row, 5, axis=0))

    def test_one_dimensional_row_is_one_row(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.3)
        sched = AnnealSchedule(c_target=0.3, total_steps=4)
        row = rng.standard_normal(2)
        flat = mix_sample(p, row, sched, make_rng(1), n_chains=3)
        stacked = mix_sample(p, row[None, :], sched, make_rng(1), n_chains=3)
        np.testing.assert_array_equal(flat.v, stacked.v)
        np.testing.assert_array_equal(flat.h, stacked.h)

    def test_degenerate_schedule_equals_cd_chain(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.3)
        batch = rng.standard_normal((6, 2))
        sched = AnnealSchedule(c_target=0.3, total_steps=5, c_start=0.3)
        mixed = mix_sample(p, batch, sched, make_rng(8)).v
        g = make_rng(8)
        v = batch.copy()
        for _ in range(5):
            v, _ = gibbs_step(p, v, g)
        np.testing.assert_array_equal(mixed, v)

    def test_c1_two_sample_energy_distance(self, rng):
        # annealed chains at c_target = 1 vs exact base draws: the pooled
        # permutation test should not reject equality of distributions
        p = random_safe_params(rng, 2, 2, leakiness=1.0, max_norm=0.7)
        n = 2000
        sched = AnnealSchedule(c_target=1.0, total_steps=5)
        x = anneal_leakiness_sample(p, sched, n, make_rng(41)).v
        y = sample_gaussian_base(p, n, make_rng(42))
        pooled = np.vstack([x, y])
        D = cdist(pooled, pooled)

        def estat(idx):
            a, b = idx[:n], idx[n:]
            return (
                2 * D[np.ix_(a, b)].mean()
                - D[np.ix_(a, a)].mean()
                - D[np.ix_(b, b)].mean()
            )

        observed = estat(np.arange(2 * n))
        g = make_rng(43)
        null = []
        for _ in range(99):
            perm = g.permutation(2 * n)
            null.append(estat(perm))
        # permutation p-value at alpha = 0.01
        pval = (1 + sum(s >= observed for s in null)) / 100.0
        assert pval > 0.01


class TestAnnealedSweeps:
    """The annealed samplers run one gibbs_step per leakiness of the schedule."""

    @pytest.fixture
    def model(self, rng):
        p = random_safe_params(rng, 5, 3, leakiness=0.1)
        return p.with_(visible_bias=rng.uniform(-1.0, 1.0, 5))

    @staticmethod
    def _reference(p, schedule, v, g):
        h = np.zeros((v.shape[0], p.n_hidden))
        for c_t in schedule.leakiness_sequence():
            v, h = gibbs_step(p.with_(leakiness=c_t), v, g)
        return v, h

    def test_anneal_leakiness_sample_equals_gibbs_step_loop(self, model):
        sched = AnnealSchedule(c_target=0.1, total_steps=12)
        chains = anneal_leakiness_sample(model, sched, 7, make_rng(3))
        g = make_rng(3)
        v, h = self._reference(model, sched, sample_gaussian_base(model, 7, g), g)
        np.testing.assert_array_equal(chains.v, v)
        np.testing.assert_array_equal(chains.h, h)

    @pytest.mark.parametrize("n_chains", [None, 9])
    def test_mix_sample_equals_gibbs_step_loop(self, model, rng, n_chains):
        batch = rng.standard_normal((6, 5))
        sched = AnnealSchedule(c_target=0.1, total_steps=12)
        chains = mix_sample(model, batch, sched, make_rng(4), n_chains=n_chains)
        g = make_rng(4)
        v0 = batch if n_chains is None else batch[g.integers(6, size=n_chains)]
        v, h = self._reference(model, sched, v0, g)
        np.testing.assert_array_equal(chains.v, v)
        np.testing.assert_array_equal(chains.h, h)

    def test_bernoulli_units_are_rejected(self):
        p = RbmParams.create(np.full((2, 2), 0.3), hidden_kind=HiddenKind.BERNOULLI)
        sched = AnnealSchedule(c_target=1.0, total_steps=3)
        with pytest.raises(ValueError, match="leaky hidden units"):
            anneal_leakiness_sample(p, sched, 4, make_rng(0))
        with pytest.raises(ValueError, match="leaky hidden units"):
            mix_sample(p, np.zeros((4, 2)), sched, make_rng(0))
