import math

import numpy as np
import pytest

from leaky_rbm import (
    AnnealingPath,
    DimensionError,
    DivergentIntegralError,
    HiddenKind,
    RbmParams,
    ais_estimate,
    eval_mean_log_likelihood,
    exact_log_z_bernoulli,
    exact_log_z_orthogonal,
    gaussian_log_z,
    project_spectral,
    quadrature_log_z,
)
from leaky_rbm.experiments import mixing_task_data, train_mixing_method
from leaky_rbm.model import bernoulli_log_unnorm_marginal, log_unnorm_marginal
from leaky_rbm.partition import (
    PathKind,
    _base_sample_and_density,
    _point_log_marginal,
    intermediate_log_density,
)
from leaky_rbm.sampler import make_rng, sample_gaussian_base
from leaky_rbm.training import NegSampler

from conftest import random_orthogonal, random_safe_params

LOG_2PI = math.log(2.0 * math.pi)


class TestGaussianLogZ:
    def test_zero_weights(self):
        p = RbmParams.create(np.zeros((3, 2)), leakiness=1.0)
        assert gaussian_log_z(p) == pytest.approx(1.5 * LOG_2PI, rel=1e-12)

    def test_diagonal_weights(self):
        W = np.diag([0.8, 0.5])
        p = RbmParams.create(W, leakiness=1.0)
        expected = LOG_2PI - 0.5 * math.log((1 - 0.64) * (1 - 0.25))
        assert gaussian_log_z(p) == pytest.approx(expected, rel=1e-12)

    def test_bias_shift_via_quadrature(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=1.0, max_norm=0.8)
        assert gaussian_log_z(p) == pytest.approx(
            quadrature_log_z(p, tolerance=1e-9), rel=1e-7
        )


class TestExactOrthogonal:
    def test_zero_weights(self):
        p = RbmParams.create(np.zeros((2, 1)), leakiness=0.3)
        assert exact_log_z_orthogonal(p) == pytest.approx(LOG_2PI, rel=1e-12)

    def test_c1_collapses_to_gaussian(self, rng):
        p = random_orthogonal(rng, 4, 3, leakiness=1.0)
        assert exact_log_z_orthogonal(p) == pytest.approx(
            gaussian_log_z(p), rel=1e-12
        )

    def test_single_column_hand_value(self):
        # I = 2, J = 1, |w| = 0.6, c = 0.1:
        # Z = pi * ((1 - 0.36)**-0.5 + (1 - 0.036)**-0.5)
        p = RbmParams.create(np.array([[0.6], [0.0]]), leakiness=0.1)
        z = math.pi * ((1 - 0.36) ** -0.5 + (1 - 0.036) ** -0.5)
        assert exact_log_z_orthogonal(p) == pytest.approx(math.log(z), rel=1e-12)

    def test_matches_quadrature_on_random_instances(self, rng):
        for c in (0.01, 0.1, 0.5, 1.0):
            for n_hidden in (1, 2):
                p = random_orthogonal(rng, 2, n_hidden, leakiness=c)
                exact = exact_log_z_orthogonal(p)
                quad = quadrature_log_z(p, tolerance=1e-9)
                assert exact == pytest.approx(quad, rel=1e-6)

    def test_rejects_nonzero_bias(self):
        p = RbmParams.create(np.array([[0.5], [0.0]]), hidden_bias=[0.2])
        with pytest.raises(ValueError):
            exact_log_z_orthogonal(p)

    def test_rejects_non_orthogonal_columns(self):
        W = np.array([[0.5, 0.4], [0.0, 0.3]])
        p = RbmParams.create(W, leakiness=0.1)
        with pytest.raises(ValueError):
            exact_log_z_orthogonal(p)


class TestQuadrature:
    def test_standard_normal_1d(self):
        p = RbmParams.create(np.zeros((1, 1)))
        assert quadrature_log_z(p, tolerance=1e-10) == pytest.approx(
            0.5 * LOG_2PI, abs=1e-10
        )

    def test_rejects_high_dimension(self):
        p = RbmParams.create(np.zeros((3, 1)))
        with pytest.raises(DimensionError):
            quadrature_log_z(p)

    def test_divergent_model_raises(self):
        W = np.diag([1.5, 0.2])
        p = RbmParams.create(W, leakiness=0.1)
        with pytest.raises(DivergentIntegralError):
            quadrature_log_z(p)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_massless_box_raises_divergent(self):
        # two sweeps of leaky-anneal training on mixing task 21 leave
        # I - WW^T with an eigenvalue of order -1e-16 along a ray the
        # integrability fan misses; with the SVD projection the grown box
        # then held no mass and dblquad returned 0
        data = mixing_task_data(21)
        model = train_mixing_method(21, NegSampler.LEAKY_ANNEAL, data, epochs=2)[0]
        with pytest.raises(DivergentIntegralError):
            quadrature_log_z(model, 1e-7)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_boundary_ray_between_fan_rays_raises_divergent(self):
        # I - WW^T has eigenvalue -5e-17 along a ray between two of the
        # fan's; checking the fan alone, the box holds mass and the
        # estimate came back as log Z = 2.4e21
        model = RbmParams.create(
            [[-0.0026230582707979407, -0.061278519983755636],
             [-0.18480291766847093, -0.9808988392441866]],
            hidden_bias=[-45.737490126577754, -243.47703708217426],
            leakiness=0.01,
        )
        with pytest.raises(DivergentIntegralError):
            quadrature_log_z(model, 1e-7)

    def test_nonzero_visible_bias(self):
        # shifting the visible bias of a c = 1 model multiplies Z by a
        # computable Gaussian factor
        W = np.array([[0.5], [0.1]])
        a = np.array([1.0, -2.0])
        flat = RbmParams.create(W, leakiness=1.0)
        shifted = RbmParams.create(W, visible_bias=a, leakiness=1.0)
        omega = np.eye(2) - W @ W.T
        expected = gaussian_log_z(flat) + 0.5 * a @ np.linalg.solve(omega, a) - 0.5 * a @ a
        assert quadrature_log_z(shifted, tolerance=1e-9) == pytest.approx(
            expected, rel=1e-7
        )

    def test_integrand_is_log_unnorm_marginal_bit_for_bit(self, rng):
        for n_visible in (1, 2):
            for n_hidden in range(1, 8):
                p = random_safe_params(rng, n_visible, n_hidden, leakiness=0.1)
                p = p.with_(visible_bias=rng.uniform(-1.0, 1.0, n_visible))
                logp = _point_log_marginal(p)
                for v in rng.standard_normal((50, n_visible)) * 5.0:
                    assert logp(*v.tolist()) == float(log_unnorm_marginal(p, v))


class TestAnnealingPath:
    def test_endpoint_identities_all_paths(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.2)
        v = rng.standard_normal((5, 2))
        paths = [
            AnnealingPath.energy(200),
            AnnealingPath.leaky(0.2, 200),
            AnnealingPath.one_sided(200),
        ]
        for path in paths:
            base_level = path.grid[0]
            top_level = path.grid[-1]
            target = log_unnorm_marginal(p, v)
            got = intermediate_log_density(p, path.kind, top_level, v)
            np.testing.assert_allclose(got, target, atol=1e-12)
            base = intermediate_log_density(p, path.kind, base_level, v)
            assert np.all(np.isfinite(base))

    def test_energy_base_is_standard_gaussian(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.3, with_bias=True)
        v = rng.standard_normal((7, 2))
        path = AnnealingPath.energy(50)
        base = intermediate_log_density(p, path.kind, path.grid[0], v)
        np.testing.assert_allclose(base, -0.5 * np.sum(v**2, axis=1), atol=1e-12)

    def test_one_sided_equals_leaky_at_matching_level(self, rng):
        # with b = 0 the one-sided coefficient beta + (1 - beta) c equals the
        # leaky marginal evaluated at that effective leakiness
        c = 0.2
        p = random_safe_params(rng, 2, 2, leakiness=c, with_bias=False)
        v = rng.standard_normal((9, 2))
        beta = 0.4
        c_eff = beta + (1 - beta) * c
        one_sided = intermediate_log_density(p, PathKind.ONE_SIDED, beta, v)
        leaky = log_unnorm_marginal(p, v, leakiness=c_eff)
        np.testing.assert_allclose(one_sided, leaky, atol=1e-12)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            AnnealingPath.leaky(0.5, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_leaky_base_is_the_samplers_once_shrunk_model(self, seed):
        # project_spectral leaves sigma_max at 1, where the base sampler
        # shrinks W by its 1e-6 margin; the AIS base must draw, score and
        # normalise with that same model, shrunk once
        g = np.random.default_rng(seed)
        W, _ = project_spectral(2.0 * g.standard_normal((5, 3)))
        p = RbmParams.create(
            W, hidden_bias=g.standard_normal(3), visible_bias=g.standard_normal(5),
            leakiness=0.1,
        )
        smax = p.max_singular_value()
        assert smax > 1.0 - 1e-6
        once = p.with_(weights=p.weights * ((1.0 - 1e-6) / smax))
        v, density, log_z_base = _base_sample_and_density(
            p, PathKind.LEAKY, 64, make_rng(seed)
        )
        np.testing.assert_array_equal(v, sample_gaussian_base(p, 64, make_rng(seed)))
        np.testing.assert_array_equal(
            density(v), log_unnorm_marginal(once, v, leakiness=1.0)
        )
        assert log_z_base == gaussian_log_z(once)


class TestAisEstimate:
    def test_degenerate_c1_zero_variance(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=1.0, max_norm=0.7)
        path = AnnealingPath.leaky(1.0, 10)
        est = ais_estimate(p, path, 200, make_rng(3))
        assert est.log_z == pytest.approx(gaussian_log_z(p), abs=1e-8)
        assert est.standard_error == pytest.approx(0.0, abs=1e-12)
        assert est.effective_sample_size == pytest.approx(200.0)

    def test_matches_quadrature_within_3se(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.05, max_norm=0.85)
        truth = quadrature_log_z(p, tolerance=1e-9)
        for path in (
            AnnealingPath.leaky(p.leakiness, 150),
            AnnealingPath.one_sided(150),
            AnnealingPath.energy(300),
        ):
            est = ais_estimate(p, path, 1500, make_rng(17))
            margin = 3 * max(est.standard_error, 1e-4)
            assert abs(est.log_z - truth) < margin + 0.05

    def test_z_domain_unbiasedness(self, rng):
        # mean of Z-hat over independent runs should approach exp(log Z)
        p = random_safe_params(rng, 2, 2, leakiness=0.1, max_norm=0.8)
        truth = quadrature_log_z(p, tolerance=1e-9)
        path = AnnealingPath.leaky(p.leakiness, 60)
        ratios = []
        for k in range(50):
            est = ais_estimate(p, path, 100, make_rng(1000 + k))
            ratios.append(np.exp(est.log_z - truth))
        ratios = np.array(ratios)
        se = ratios.std(ddof=1) / np.sqrt(len(ratios))
        assert abs(ratios.mean() - 1.0) < 3 * se + 0.02

    def test_log_weights_shape_and_identity(self, rng):
        p = random_safe_params(rng, 2, 1, leakiness=0.3)
        path = AnnealingPath.leaky(0.3, 25)
        est = ais_estimate(p, path, 64, make_rng(9))
        assert est.log_weights.shape == (64,)
        # internal consistency of the reported estimate
        from scipy.special import logsumexp

        recomputed = est.log_z_base + logsumexp(est.log_weights) - np.log(64)
        assert est.log_z == pytest.approx(recomputed, abs=1e-10)

    def test_determinism(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.2)
        path = AnnealingPath.energy(40)
        a = ais_estimate(p, path, 50, make_rng(5))
        b = ais_estimate(p, path, 50, make_rng(5))
        assert a.log_z == b.log_z
        np.testing.assert_array_equal(a.log_weights, b.log_weights)


class TestOrthogonalBiasPattern:
    def test_leaky_beats_energy_at_matched_compute(self, rng):
        p = random_orthogonal(rng, 32, 8, leakiness=0.01, lo=0.9, hi=0.98)
        exact = exact_log_z_orthogonal(p)
        leaky_err = []
        energy_err = []
        for k in range(3):
            g1 = make_rng(300 + k)
            g2 = make_rng(600 + k)
            leaky_err.append(
                ais_estimate(p, AnnealingPath.leaky(0.01, 100), 300, g1).log_z - exact
            )
            energy_err.append(
                ais_estimate(p, AnnealingPath.energy(100), 300, g2).log_z - exact
            )
        assert abs(np.mean(leaky_err)) < abs(np.mean(energy_err))
        assert abs(np.mean(leaky_err)) < 0.2


class TestExactBernoulli:
    def test_zero_weights(self):
        p = RbmParams.create(
            np.zeros((2, 2)), hidden_kind=HiddenKind.BERNOULLI, leakiness=1.0
        )
        # each hidden unit contributes a factor (1 + exp(b_j)) = 2
        assert exact_log_z_bernoulli(p) == pytest.approx(
            LOG_2PI + 2 * math.log(2.0), rel=1e-12
        )

    def test_against_numeric_integration(self, rng):
        W = rng.uniform(-0.7, 0.7, size=(1, 2))
        b = rng.uniform(-0.5, 0.5, size=2)
        p = RbmParams.create(
            W, hidden_bias=b, hidden_kind=HiddenKind.BERNOULLI, leakiness=1.0
        )
        grid = np.linspace(-12, 12, 20001)
        vals = bernoulli_log_unnorm_marginal(p, grid[:, None])
        num = np.log(np.trapezoid(np.exp(vals), grid))
        assert exact_log_z_bernoulli(p) == pytest.approx(num, rel=1e-8)


class TestEvalMeanLogLikelihood:
    def test_zero_data_point(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.2, with_bias=False)
        ll = eval_mean_log_likelihood(p, np.zeros((1, 2)), 1.7)
        assert ll == pytest.approx(-1.7)

    def test_c1_matches_gaussian_density(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=1.0, max_norm=0.8)
        data = rng.standard_normal((40, 2))
        W = p.weights
        omega = np.eye(2) - W @ W.T
        mean = np.linalg.solve(omega, p.visible_bias + W @ p.hidden_bias)
        cov = np.linalg.inv(omega)
        from scipy.stats import multivariate_normal

        expected = multivariate_normal(mean, cov).logpdf(data).mean()
        got = eval_mean_log_likelihood(p, data, gaussian_log_z(p))
        assert got == pytest.approx(expected, abs=1e-8)

    def test_rejects_non_finite_log_z(self, rng):
        p = random_safe_params(rng, 2, 2)
        with pytest.raises(ValueError):
            eval_mean_log_likelihood(p, np.zeros((1, 2)), float("nan"))
