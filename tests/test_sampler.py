import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy import stats

import leaky_rbm.sampler as sampler
from leaky_rbm import (
    AnnealingPath,
    AnnealSchedule,
    DimensionError,
    HiddenKind,
    NonPDRegionError,
    RbmParams,
    ais_estimate,
    anneal_leakiness_sample,
    gibbs_step,
    mix_sample,
    sample_gaussian_base,
)
from leaky_rbm.projection import project_spectral
from leaky_rbm.sampler import _run_chains, _sweep, gaussian_base_moments, make_rng
from leaky_rbm.partition import gaussian_log_z, quadrature_log_z
from leaky_rbm.model import log_unnorm_marginal
from leaky_rbm.experiments import random_orthogonal_params

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
        # the step is (1 - 0.55) / (0.9 * 5) = 0.1, and the fifth clamps
        s = AnnealSchedule(c_target=0.55, total_steps=5)
        np.testing.assert_allclose(s.leakiness_sequence(), [0.9, 0.8, 0.7, 0.6, 0.55])

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
        for c_target in (0.0, 1.5, float("nan")):
            with pytest.raises(ValueError):
                AnnealSchedule(c_target=c_target, total_steps=5)
        with pytest.raises(ValueError):
            AnnealSchedule(c_target=0.5, total_steps=-1)


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

    @pytest.mark.parametrize("kind", list(HiddenKind), ids=lambda kind: kind.value)
    def test_is_one_level_of_run_chains(self, monkeypatch, rng, kind):
        import leaky_rbm.sampler as sampler

        seen, run = [], sampler._run_chains

        def spy(W, a, b, levels, v, g, *args, **kwargs):
            seen.append((levels, run(W, a, b, levels, v, g, *args, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(sampler, "_run_chains", spy)
        p = random_safe_params(rng, 3, 2, leakiness=0.2).with_(hidden_kind=kind)
        v, h = gibbs_step(p, rng.standard_normal((4, 3)), make_rng(2))
        ((levels, chains),) = seen
        assert levels == [(None if kind is HiddenKind.BERNOULLI else 0.2, 1.0)]
        assert v is chains.v and h is chains.h

    def test_rows_checked_like_training_data(self):
        p = RbmParams.create(np.full((2, 2), 0.3), leakiness=0.5)
        with pytest.raises(DimensionError):
            gibbs_step(p, np.zeros((3, 2, 2)), make_rng(0))
        with pytest.raises(ValueError, match="at least one row"):
            gibbs_step(p, np.zeros((0, 2)), make_rng(0))


def _exact_1x1(w, c, n, rng):
    """n exact draws of the 1 x 1 leaky marginal with weight w > 0 and zero biases.

    The side v > 0 has precision 1 - w^2, and v < 0 has 1 - c w^2.  With
    m = precision^-1/2 per side, a draw is positive with probability
    m+ / (m+ + m-), and |v| is half-normal with its side's sd.  Returns
    (draws, P(v > 0), log Z).
    """
    m_pos, m_neg = (1.0 - w**2) ** -0.5, (1.0 - c * w**2) ** -0.5
    p_pos = m_pos / (m_pos + m_neg)
    v = np.where(rng.random(n) < p_pos, m_pos, -m_neg) * np.abs(rng.standard_normal(n))
    return v, p_pos, math.log(math.sqrt(2.0 * math.pi) * (m_pos + m_neg) / 2.0)


def _exact_2x2(p, n, rng):
    """Exact draws of the leaky marginal of p, by rejection from its c = 1 Gaussian.

    A proposal v is kept with probability f_c(v) / f_1(v) <= 1, as c eta^2
    <= eta^2.  Returns (kept draws, acceptance rate, exact acceptance
    probability Z_c / Z_1 from the quadrature and Gaussian oracles).
    """
    p1 = p.with_(leakiness=1.0)
    v = sample_gaussian_base(p1, n, rng)
    keep = rng.random(n) < np.exp(log_unnorm_marginal(p, v) - log_unnorm_marginal(p1, v))
    return v[keep], keep.mean(), math.exp(quadrature_log_z(p) - gaussian_log_z(p1))


class TestSweepInvariance:
    """One sweep from exact draws of the 1 x 1 marginal (w 0.6) keeps P(v > 0)."""

    @pytest.mark.parametrize("c", [0.01, 1.0])
    def test_exact_draws_match_the_oracle(self, c):
        p = RbmParams.create(np.array([[0.6]]), leakiness=c)
        _v, _p_pos, log_z = _exact_1x1(0.6, c, 1, make_rng(0))
        assert log_z == pytest.approx(quadrature_log_z(p), rel=1e-12)

    @pytest.mark.parametrize("c", [
        pytest.param(0.01, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP direction 1: at c < 1 one Gibbs sweep does not "
                                "leave the leaky marginal invariant")),
        1.0,
    ])
    def test_one_sweep_keeps_the_sign_probability(self, c):
        n = 200_000
        p = RbmParams.create(np.array([[0.6]]), leakiness=c)
        v, p_pos, _log_z = _exact_1x1(0.6, c, n, make_rng(5))
        v, _h = gibbs_step(p, v[:, None], make_rng(6))
        assert abs(np.mean(v > 0) - p_pos) < 4.0 * math.sqrt(p_pos * (1.0 - p_pos) / n)


class TestSweepInvariance2x2:
    """One sweep from exact draws of a 2 x 2 marginal keeps P(eta_1 > 0).

    W has sigma_max 0.767 and the biases are zero.  The rejection draws'
    acceptance rate is checked against the oracles first.
    """

    W = np.array([[0.7, 0.3], [-0.2, 0.6]])

    @pytest.mark.parametrize("c", [0.01, 1.0])
    def test_rejection_rate_matches_the_oracles(self, c):
        n = 200_000
        _v, rate, expected = _exact_2x2(RbmParams.create(self.W, leakiness=c), n, make_rng(0))
        # at c = 1 every proposal is kept, and the quadrature's log Z is good to 1e-9
        assert abs(rate - expected) <= 4.0 * math.sqrt(expected * (1.0 - expected) / n) + 1e-8

    @pytest.mark.parametrize("c", [
        pytest.param(0.01, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP direction 1: at c < 1 one Gibbs sweep does not "
                                "leave the leaky marginal invariant")),
        1.0,
    ])
    def test_one_sweep_keeps_the_sign_probability(self, c):
        p = RbmParams.create(self.W, leakiness=c)
        rng = make_rng(0)
        v, _rate, _expected = _exact_2x2(p, 200_000, rng)
        v_next, _h = gibbs_step(p, v, rng)
        # paired change of the indicator eta_1 > 0 (zero biases)
        d = (v_next @ self.W[:, 0] > 0).astype(float) - (v @ self.W[:, 0] > 0)
        assert abs(d.mean()) < 4.0 * d.std(ddof=1) / math.sqrt(d.size)


def _assert_same_bits(x, y):
    np.testing.assert_array_equal(x, y)
    assert x.tobytes() == y.tobytes()  # signed zeros too


def _textbook_sweep(eta, W, a, c, g):
    """(v, h) of the sweep as ``TestSweepKernel`` writes it, drawn from g."""
    if c is None:
        p_on = np.where(eta >= 0, 1.0 / (1.0 + np.exp(-eta)), np.exp(eta) / (1.0 + np.exp(eta)))
        h = (g.random(eta.shape) < p_on).astype(np.float64)
    else:
        alpha = np.where(eta > 0, 1.0, c)
        h = alpha * eta + np.sqrt(alpha) * g.standard_normal(eta.shape)
    return (h @ W.T + a) + g.standard_normal((eta.shape[0], W.shape[0])), h


class TestSweepKernel:
    """_sweep against the textbook sweep, drawn from a fresh generator of the same seed.

    h = alpha eta + sqrt(alpha) z1 with alpha = 1 for eta > 0 and c
    otherwise (Bernoulli: h = 1 where u < sigmoid(eta)), then
    v = (h W^T + a) + z2, with z1 (or u) of shape n x J drawn before z2 of
    shape n x I.  Equal generator states afterwards show that the kernel
    takes exactly as many draws as the formula, in the same order.  The
    cases cover I < J and I > J, and a zero a, whose add the kernel skips.
    """

    SHAPES = pytest.mark.parametrize("n_visible, n_hidden", [(5, 6), (7, 3)],
                                     ids=["I<J", "I>J"])
    BIASES = pytest.mark.parametrize("zero_a", [False, True], ids=["a", "a=0"])

    @staticmethod
    def _case(rng, n_visible=5, n_hidden=6, zero_a=False, n=40):
        W = rng.uniform(-1.0, 1.0, (n_visible, n_hidden))
        a = np.zeros(n_visible) if zero_a else rng.uniform(-1.0, 1.0, n_visible)
        eta = rng.standard_normal((n, n_hidden)) * 2.0
        eta[0, :3] = [0.0, -0.0, 1e-300]  # zero responses are on the leaky branch
        return W, a, eta

    @staticmethod
    def _layouts(W):
        return [W.T, np.ascontiguousarray(W.T)]

    @SHAPES
    @BIASES
    @pytest.mark.parametrize("c", [0.01, 0.3, 1.0])
    def test_leaky_sweep_is_the_formula(self, rng, c, zero_a, n_visible, n_hidden):
        W, a, eta = self._case(rng, n_visible, n_hidden, zero_a)
        for W_t in self._layouts(W):
            g, g_ref = make_rng(21), make_rng(21)
            v, h = _sweep(eta, W_t, a, c, g)
            v_ref, h_ref = _textbook_sweep(eta, W, a, c, g_ref)
            _assert_same_bits(h, h_ref)
            _assert_same_bits(v, v_ref)
            assert g.bit_generator.state == g_ref.bit_generator.state

    @SHAPES
    @BIASES
    def test_bernoulli_sweep_is_the_formula(self, rng, zero_a, n_visible, n_hidden):
        W, a, eta = self._case(rng, n_visible, n_hidden, zero_a)
        for W_t in self._layouts(W):
            g, g_ref = make_rng(22), make_rng(22)
            v, h = _sweep(eta, W_t, a, None, g)
            v_ref, h_ref = _textbook_sweep(eta, W, a, None, g_ref)
            _assert_same_bits(h, h_ref)
            _assert_same_bits(v, v_ref)
            assert g.bit_generator.state == g_ref.bit_generator.state

    def test_eta_is_not_written(self, rng):
        W, a, eta = self._case(rng)
        before = eta.copy()
        _sweep(eta, W.T, a, 0.2, make_rng(3))
        np.testing.assert_array_equal(eta, before)


class TestAnnealLeakinessSample:
    def test_degenerate_schedule_matches_base(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=1.0, max_norm=0.7)
        chains = anneal_leakiness_sample(p, 10, 4000, make_rng(21))
        base = sample_gaussian_base(p, 4000, make_rng(22))
        # same distribution: compare means and covariances loosely
        np.testing.assert_allclose(
            chains.v.mean(axis=0), base.mean(axis=0), atol=0.15
        )
        np.testing.assert_allclose(np.cov(chains.v.T), np.cov(base.T), atol=0.3)

    def test_determinism(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.2)
        a = anneal_leakiness_sample(p, 15, 8, make_rng(4)).v
        b = anneal_leakiness_sample(p, 15, 8, make_rng(4)).v
        np.testing.assert_array_equal(a, b)

    def test_1d_histogram_matches_quadrature(self):
        p = RbmParams.create(np.array([[0.7]]), hidden_bias=[0.4], leakiness=0.05)
        v = anneal_leakiness_sample(p, 150, 10_000, make_rng(31)).v[:, 0]
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
    def test_one_dimensional_row_is_one_row(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.3)
        row = rng.standard_normal(2)
        flat = mix_sample(p, row, 4, make_rng(1))
        stacked = mix_sample(p, row[None, :], 4, make_rng(1))
        assert flat.v.shape == (1, 2)
        np.testing.assert_array_equal(flat.v, stacked.v)
        np.testing.assert_array_equal(flat.h, stacked.h)

    def test_degenerate_schedule_equals_cd_chain(self, rng):
        # at c = 1 the schedule holds c at 1, so mix is an ordinary CD chain
        p = random_safe_params(rng, 2, 2, leakiness=1.0)
        batch = rng.standard_normal((6, 2))
        mixed = mix_sample(p, batch, 5, make_rng(8)).v
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
        x = anneal_leakiness_sample(p, 5, n, make_rng(41)).v
        y = sample_gaussian_base(p, n, make_rng(42))
        pooled = np.vstack([x, y])
        D = cdist(pooled, pooled)
        r = D.sum(axis=1)

        def estat(idx):
            # the three block sums from one mat-vec, t the first group's indicator
            t = np.zeros(2 * n)
            t[idx[:n]] = 1.0
            s_aa, t_r = t @ D @ t, t @ r
            s_ab, s_bb = t_r - s_aa, r.sum() - 2 * t_r + s_aa
            return (2 * s_ab - s_aa - s_bb) / n**2

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
    """The annealed samplers run one gibbs_step per leakiness of
    ``AnnealSchedule(p.leakiness, n_steps)``."""

    @pytest.fixture
    def model(self, rng):
        p = random_safe_params(rng, 5, 3, leakiness=0.1)
        return p.with_(visible_bias=rng.uniform(-1.0, 1.0, 5))

    @staticmethod
    def _reference(p, n_steps, v, g):
        h = np.zeros((v.shape[0], p.n_hidden))
        for c_t in AnnealSchedule(p.leakiness, n_steps).leakiness_sequence():
            v, h = gibbs_step(p.with_(leakiness=c_t), v, g)
        return v, h

    def test_anneal_leakiness_sample_equals_gibbs_step_loop(self, model):
        chains = anneal_leakiness_sample(model, 12, 7, make_rng(3))
        g = make_rng(3)
        v, h = self._reference(model, 12, sample_gaussian_base(model, 7, g), g)
        np.testing.assert_array_equal(chains.v, v)
        np.testing.assert_array_equal(chains.h, h)

    def test_mix_sample_equals_gibbs_step_loop(self, model, rng):
        batch = rng.standard_normal((6, 5))
        chains = mix_sample(model, batch, 12, make_rng(4))
        v, h = self._reference(model, 12, batch, make_rng(4))
        np.testing.assert_array_equal(chains.v, v)
        np.testing.assert_array_equal(chains.h, h)

    def test_bernoulli_units_are_rejected(self):
        p = RbmParams.create(np.full((2, 2), 0.3), hidden_kind=HiddenKind.BERNOULLI)
        with pytest.raises(ValueError, match="leaky hidden units"):
            anneal_leakiness_sample(p, 3, 4, make_rng(0))
        with pytest.raises(ValueError, match="leaky hidden units"):
            mix_sample(p, np.zeros((4, 2)), 3, make_rng(0))


class TestRunChains:
    """_run_chains over levels (c, s) is, bit for bit, the textbook sweep of
    the models (s W, a, s b) at leakiness c, level after level, whatever the
    layout of W^T and whether the caller gives the first responses; ``score``
    sees each level's chains and responses v (s W) + s b before its sweep."""

    SCALES = (1.0, 0.7, 0.4)

    @pytest.fixture(params=list(HiddenKind), ids=lambda kind: kind.value)
    def model(self, request, rng):
        W = random_safe_params(rng, 5, 3, max_norm=0.9).weights
        return RbmParams.create(W, hidden_bias=rng.uniform(-1.0, 1.0, 3),
                                visible_bias=rng.uniform(-1.0, 1.0, 5), leakiness=0.3,
                                hidden_kind=request.param)

    @staticmethod
    def _reference(p, v, g):
        c = None if p.hidden_kind is HiddenKind.BERNOULLI else p.leakiness
        states, h = [], None
        for s in TestRunChains.SCALES:
            states.append(v)
            W = s * p.weights
            v, h = _textbook_sweep(v @ W + s * p.hidden_bias, W, p.visible_bias, c, g)
        return states, v, h

    @pytest.mark.parametrize("contiguous", [False, True], ids=["view", "copy"])
    @pytest.mark.parametrize("given_eta", [False, True], ids=["eta", "given-eta"])
    def test_equals_textbook_sweeps(self, model, rng, contiguous, given_eta):
        W, a, b = model.weights, model.visible_bias, model.hidden_bias
        c = None if model.hidden_kind is HiddenKind.BERNOULLI else model.leakiness
        v0 = rng.standard_normal((8, 5))
        eta = v0 @ W + b if given_eta else None
        v0_before, eta_before = v0.copy(), None if eta is None else eta.copy()
        seen = []

        def score(v, eta, c_k, s):
            seen.append((v.copy(), eta.copy(), c_k, s))

        chains = _run_chains(W, a, b, [(c, s) for s in self.SCALES], v0, make_rng(5), eta,
                             np.ascontiguousarray(W.T) if contiguous else None, score)
        states, v_ref, h_ref = self._reference(model, v0, make_rng(5))
        _assert_same_bits(chains.v, v_ref)
        _assert_same_bits(chains.h, h_ref)
        assert [(c_k, s) for _v, _eta, c_k, s in seen] == [(c, s) for s in self.SCALES]
        for (v, eta_k, _c, s), state in zip(seen, states):
            _assert_same_bits(v, state)
            _assert_same_bits(eta_k, v @ (s * W) + s * b)
        np.testing.assert_array_equal(v0, v0_before)
        if eta is not None:
            np.testing.assert_array_equal(eta, eta_before)

    def test_no_levels_return_v_and_zero_h(self, model, rng):
        v0 = rng.standard_normal((4, 5))
        chains = _run_chains(model.weights, model.visible_bias, model.hidden_bias, [], v0,
                             make_rng(6))
        assert chains.v is v0
        _assert_same_bits(chains.h, np.zeros((4, 3)))


def _serial_run_chains(W, a, b, levels, v, rng, eta=None, W_t=None, score=None):
    """``_run_chains`` with every draw made by rng itself, inside ``_sweep``."""
    W_t = W.T if W_t is None else W_t
    h = np.zeros((v.shape[0], W.shape[1]))
    for c, s in levels:
        if eta is None:
            eta = v @ (W * s) + b * s
        if score is not None:
            score(v, eta, c, s)
        v, h = _sweep(eta, W_t * s, a, c, rng)
        eta = None
    return sampler.ChainSet(v=v, h=h)


@pytest.fixture
def threads_started(monkeypatch):
    """The threads started while the test runs."""
    started, Thread = [], threading.Thread

    class Spy(Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


class TestDrawsAhead:
    """A chain run whose draws fill more than one chunk makes them on one
    helper thread; its outputs, and the generator's state after it, are
    those of the serial loop that draws inside each sweep, bit for bit.
    The sizes are the ais-64 benchmark's, so every case here threads."""

    @staticmethod
    def _serially(monkeypatch, run):
        """run() with the chain loop swapped for the serial one."""
        import leaky_rbm.partition as partition

        with monkeypatch.context() as m:
            m.setattr(sampler, "_run_chains", _serial_run_chains)
            m.setattr(partition, "_run_chains", _serial_run_chains)
            return run()

    @staticmethod
    def _check_next_draws(g, g_ref):
        _assert_same_bits(g.standard_normal(3), g_ref.standard_normal(3))

    @pytest.mark.parametrize("n_hidden", [2, 16])
    @pytest.mark.parametrize("kind", ["leaky", "energy"])
    def test_ais_log_weights(self, monkeypatch, threads_started, n_hidden, kind):
        p = random_orthogonal_params(64, n_hidden, 0.01, np.random.default_rng([0, 64, n_hidden]))
        path = (AnnealingPath.leaky(0.01, 40) if kind == "leaky"
                else AnnealingPath.energy(40))
        g, g_ref = make_rng(11), make_rng(11)
        est = ais_estimate(p, path, 1000, g)
        assert len(threads_started) == 1
        ref = self._serially(monkeypatch, lambda: ais_estimate(p, path, 1000, g_ref))
        _assert_same_bits(est.log_weights, ref.log_weights)
        assert est.log_z == ref.log_z
        self._check_next_draws(g, g_ref)

    def test_anneal_leakiness_sample(self, monkeypatch, threads_started, rng):
        p = random_safe_params(rng, 64, 16, leakiness=0.05)
        g, g_ref = make_rng(12), make_rng(12)
        chains = anneal_leakiness_sample(p, 50, 1000, g)
        assert len(threads_started) == 1
        ref = self._serially(monkeypatch, lambda: anneal_leakiness_sample(p, 50, 1000, g_ref))
        _assert_same_bits(chains.v, ref.v)
        _assert_same_bits(chains.h, ref.h)
        self._check_next_draws(g, g_ref)

    @pytest.mark.parametrize("n_chains", [300, 1000], ids=["2-levels-a-chunk", "1-level"])
    def test_bernoulli_run_chains(self, threads_started, rng, n_chains):
        # uniforms then normals at every level: two rng calls a level
        W = random_safe_params(rng, 64, 16).weights
        a, b = rng.uniform(-1.0, 1.0, 64), rng.uniform(-1.0, 1.0, 16)
        levels = [(None, s) for s in np.linspace(1.0, 0.1, 9)]
        v0 = rng.standard_normal((n_chains, 64))
        g, g_ref = make_rng(13), make_rng(13)
        chains = _run_chains(W, a, b, levels, v0, g)
        assert len(threads_started) == 1
        ref = _serial_run_chains(W, a, b, levels, v0, g_ref)
        _assert_same_bits(chains.v, ref.v)
        _assert_same_bits(chains.h, ref.h)
        self._check_next_draws(g, g_ref)

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_a_raising_score_joins_the_helper(self, threads_started, rng, error):
        p = random_safe_params(rng, 64, 16)
        seen = []

        def score(v, eta, c, s):
            seen.append(c)
            if len(seen) == 5:
                raise error("level 5")

        before = threading.active_count()
        with pytest.raises(error, match="level 5"):
            _run_chains(p.weights, p.visible_bias, p.hidden_bias, [(0.1, 1.0)] * 20,
                        rng.standard_normal((1000, 64)), make_rng(14), score=score)
        assert len(seen) == 5 and len(threads_started) == 1
        assert threading.active_count() == before
        assert not threads_started[0].is_alive()

    def test_a_failing_draw_raises_in_the_caller(self, threads_started, rng):
        class Failing:
            def standard_normal(self, out):
                raise RuntimeError("no draws")

        p = random_safe_params(rng, 64, 16)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="no draws"):
            _run_chains(p.weights, p.visible_bias, p.hidden_bias, [(0.1, 1.0)] * 20,
                        rng.standard_normal((1000, 64)), Failing())
        assert len(threads_started) == 1 and threading.active_count() == before

    def test_concurrent_runs_under_fast_switching(self, rng):
        # three runs at once, each with its helper, on two cores, switching
        # threads every microsecond: a buffer handed back before its sweeps
        # were done with it, or filled twice, would change the bits
        p = random_safe_params(rng, 64, 16)
        levels = [(0.1, 1.0)] * 40
        starts = [rng.standard_normal((300, 64)) for _ in range(3)]
        refs = [_serial_run_chains(p.weights, p.visible_bias, p.hidden_bias, levels, v0,
                                   make_rng(17, k)).v for k, v0 in enumerate(starts)]
        out = [None] * 3

        def run(k):
            out[k] = _run_chains(p.weights, p.visible_bias, p.hidden_bias, levels, starts[k],
                                 make_rng(17, k)).v

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
        for v, v_ref in zip(out, refs):
            _assert_same_bits(v, v_ref)

    @pytest.mark.parametrize("n_levels", [1, 20], ids=["inline", "threaded"])
    def test_draws_are_freed_on_return(self, monkeypatch, rng, n_levels):
        # by reference counting, not later by the cyclic collector: training
        # makes one run per minibatch, and freeing each late cost 30 MiB
        freed = []

        class Spy(sampler._Draws):
            def __init__(self, *args):
                super().__init__(*args)
                freed.append(weakref.ref(self))

        monkeypatch.setattr(sampler, "_Draws", Spy)
        p = random_safe_params(rng, 64, 16)
        gc.disable()
        try:
            _run_chains(p.weights, p.visible_bias, p.hidden_bias, [(0.1, 1.0)] * n_levels,
                        rng.standard_normal((1000, 64)), make_rng(16))
            assert len(freed) == 1 and freed[0]() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("n_visible, n_hidden, n, n_levels", [
        (784, 500, 100, 1),  # CD-1 at the train-784 benchmark's size
        (64, 16, 1000, 1),
        (2, 2, 100, 20),  # an annealed negative phase of the mixing experiment
    ], ids=["784x500-cd1", "64x16-cd1", "2x2-20-levels"])
    def test_one_chunk_draws_inline(self, monkeypatch, rng, n_visible, n_hidden, n, n_levels):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-chunk run started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        p = random_safe_params(rng, n_visible, n_hidden)
        v0 = rng.standard_normal((n, n_visible))
        levels = [(0.1, 1.0)] * n_levels
        g, g_ref = make_rng(15), make_rng(15)
        chains = _run_chains(p.weights, p.visible_bias, p.hidden_bias, levels, v0, g)
        ref = _serial_run_chains(p.weights, p.visible_bias, p.hidden_bias, levels, v0, g_ref)
        _assert_same_bits(chains.v, ref.v)
        self._check_next_draws(g, g_ref)
