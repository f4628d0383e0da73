import math

import numpy as np
import pytest
from scipy import integrate

from leaky_rbm import (
    AnnealingPath,
    DimensionError,
    DivergentIntegralError,
    HiddenKind,
    NonPDRegionError,
    PrecisionLossError,
    RbmParams,
    ais_estimate,
    eval_mean_log_likelihood,
    exact_log_z_bernoulli,
    exact_log_z_orthogonal,
    gaussian_log_z,
    project_spectral,
    quadrature_log_z,
)
from leaky_rbm.experiments import random_orthogonal_params
from leaky_rbm.model import bernoulli_log_unnorm_marginal, log_unnorm_marginal
from leaky_rbm.partition import (
    PathKind,
    _base_sample_and_density,
    _logsumexp,
    _span_model,
    intermediate_log_density,
)
from leaky_rbm.sampler import gibbs_step, make_rng, sample_gaussian_base

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

    def test_indefinite_omega_rejected(self):
        # with an even number of singular values above 1, det(I - W W^T) > 0
        # although the marginal diverges
        g = np.random.default_rng(0)
        U, _ = np.linalg.qr(g.standard_normal((3, 3)))
        V, _ = np.linalg.qr(g.standard_normal((3, 3)))
        for W in (np.diag([1.5, 1.5]), U @ np.diag([1.4, 1.2, 0.5]) @ V.T):
            assert np.linalg.det(np.eye(len(W)) - W @ W.T) > 0
            with pytest.raises(NonPDRegionError):
                gaussian_log_z(RbmParams.create(W, leakiness=1.0))


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
        p = RbmParams.create(np.zeros((3, 3)))
        with pytest.raises(DimensionError):
            quadrature_log_z(p)

    @pytest.mark.parametrize("n_hidden", [1, 2])
    def test_many_visible_units_on_the_span(self, n_hidden):
        p = random_orthogonal_params(64, n_hidden, 0.01, np.random.default_rng([0, 64, n_hidden]))
        assert quadrature_log_z(p) == pytest.approx(exact_log_z_orthogonal(p), rel=1e-12)

    def test_many_visible_units_with_biases_at_c1(self, rng):
        p = random_safe_params(rng, 64, 2, leakiness=1.0, max_norm=0.95)
        p = p.with_(visible_bias=rng.uniform(-1.0, 1.0, 64))
        assert quadrature_log_z(p) == pytest.approx(gaussian_log_z(p), rel=1e-12)

    def test_divergent_model_raises(self):
        W = np.diag([1.5, 0.2])
        p = RbmParams.create(W, leakiness=0.1)
        with pytest.raises(DivergentIntegralError):
            quadrature_log_z(p)

    # w = 1 puts the model on sigma_max = 1: past eta = 0 the marginal's
    # quadratic term is flat and only the linear term b eta can make it decay.
    # log Z = log(e^{-1/2} + the integral below eta = 0); the 3 x 1 models
    # reach the same line through _span_model, with b + a W = -1 and a norm
    # of 1 up to rounding
    @pytest.mark.parametrize("W, a, b", [
        ([[1.0]], [0.0], -1.0),
        ([[0.6], [0.8], [0.0]], [0.5, -0.25, 2.0], -1.1),
        ([[-0.8], [0.0], [0.6]], [0.0, 0.0, 0.0], -1.0),
    ], ids=["1x1", "3x1", "3x1-negative"])
    def test_flat_piece_that_decays_linearly(self, W, a, b):
        p = RbmParams.create(W, visible_bias=a, hidden_bias=[b], leakiness=0.01)
        dropped = 0.5 * (p.n_visible - 1) * LOG_2PI
        assert quadrature_log_z(p) - dropped == pytest.approx(1.0079230039753726, rel=1e-9)
        with pytest.raises(DivergentIntegralError):  # b eta grows past eta = 0
            quadrature_log_z(p.with_(hidden_bias=[-b]))

    # past eta = 0 a norm above 1 makes the quadratic term grow (q = 1 - 2.25),
    # and no decaying linear term b eta saves the integral
    @pytest.mark.parametrize("W, a", [
        ([[1.5]], [0.0]),
        ([[0.9], [1.2], [0.0]], [0.0, 0.0, 0.0]),
        ([[0.0], [-1.2], [0.9]], [0.5, 0.25, -0.5]),
    ], ids=["1x1", "3x1", "3x1-biased"])
    def test_growing_piece_raises_whatever_its_linear_term(self, W, a):
        p = RbmParams.create(W, visible_bias=a, hidden_bias=[-1.0], leakiness=0.01)
        with pytest.raises(DivergentIntegralError):
            quadrature_log_z(p)

    def test_flat_piece_whose_quadratic_term_matters_is_refused(self):
        # q = 1 - w^2 is about 1e-13, below the rounded-zero cut, but with
        # l = -1e-7 the tail's mass lies out to t ~ 1e8, where q t^2 / 2 is
        # in the hundreds: e^{k + l lo} / (-l) would be far off, so the
        # oracle refuses the model rather than return it
        p = RbmParams.create([[math.sqrt(1.0 - 1e-13)]], hidden_bias=[-1e-7],
                             leakiness=0.01)
        with pytest.raises(DivergentIntegralError):
            quadrature_log_z(p)

    @pytest.mark.parametrize("W, b", [
        ([[-0.0026230582707979407, -0.061278519983755636],
          [-0.18480291766847093, -0.9808988392441866]],
         [-45.737490126577754, -243.47703708217426]),
        # the model two sweeps of leaky-anneal training on mixing task 21
        # ended at before sigma_max came from numpy's eigvalsh: a massless
        # box, with an eigenvalue of I - WW^T of -1.6e-16
        ([[-0.0026230601841512003, -0.06127852630729107],
          [-0.1848029315407061, -0.9808988362318122]],
         [-45.737492533513425, -243.47707271671771]),
    ], ids=["fan-ray", "massless-box"])
    def test_boundary_ray_between_fan_rays_raises_divergent(self, W, b):
        # I - WW^T has an eigenvalue of order -1e-16 along a single ray
        # inside the all-active sector; no finite sample of rays need hit
        # it, but the sector's eigenvector does
        model = RbmParams.create(W, hidden_bias=b, leakiness=0.01)
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

    @pytest.mark.parametrize("n_visible", [1, 2])
    @pytest.mark.parametrize("n_hidden", [1, 2, 3])
    def test_matches_closed_forms_to_1e12(self, rng, n_visible, n_hidden):
        for c in (0.01, 0.1, 0.5, 1.0):
            # orthogonal columns, padded with zero columns past I
            k = min(n_visible, n_hidden)
            W = np.zeros((n_visible, n_hidden))
            W[:, :k] = random_orthogonal(rng, n_visible, k, leakiness=c).weights
            p = RbmParams.create(W[:, rng.permutation(n_hidden)], leakiness=c)
            assert quadrature_log_z(p) == pytest.approx(
                exact_log_z_orthogonal(p), rel=1e-12
            )
        p = random_safe_params(rng, n_visible, n_hidden, leakiness=1.0, max_norm=0.95)
        p = p.with_(visible_bias=rng.uniform(-1.0, 1.0, n_visible))
        assert quadrature_log_z(p) == pytest.approx(gaussian_log_z(p), rel=1e-12)

    def test_integrable_model_outside_feasible_set(self):
        # sigma_max = 1.27: the region where both units are active has
        # precision 1 - 2 * 0.81 < 0, but it is bounded
        p = RbmParams.create([[0.9, -0.9]], hidden_bias=[1.0, 1.0], leakiness=0.1)
        assert not p.is_safe()
        val, _err = integrate.quad(
            lambda v: math.exp(float(log_unnorm_marginal(p, [v]))),
            -np.inf, np.inf, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        log_z = quadrature_log_z(p)
        assert log_z == pytest.approx(math.log(val), rel=1e-12)
        plane = p.with_(weights=[[0.9, -0.9], [0.0, 0.0]], visible_bias=[0.0, 0.0])
        assert quadrature_log_z(plane) == pytest.approx(log_z + 0.5 * LOG_2PI, rel=1e-12)

    def test_mass_far_from_every_kink(self):
        # one slanted line 125 units out and no crossing: the mass sits at
        # the inactive region's mean, far from the line and from the c = 1
        # mean; rotating a 1-D model into the plane fixes the value
        line = RbmParams.create([[0.8]], hidden_bias=[-100.0], leakiness=0.01)
        turn = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
        plane = line.with_(weights=turn @ [[0.8], [0.0]], visible_bias=[0.0, 0.0])
        assert quadrature_log_z(plane) == pytest.approx(
            quadrature_log_z(line) + 0.5 * LOG_2PI, rel=1e-12
        )
        # two nearly parallel lines cross 2e4 units from the mass
        W = [[0.5, 0.5 * math.cos(1e-3)], [0.0, 0.5 * math.sin(1e-3)]]
        far = RbmParams.create(W, hidden_bias=[-50.0, -60.0], leakiness=1.0)
        assert quadrature_log_z(far) == pytest.approx(gaussian_log_z(far), rel=1e-12)


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
        leaky = log_unnorm_marginal(p.with_(leakiness=c_eff), v)
        np.testing.assert_allclose(one_sided, leaky, atol=1e-12)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            AnnealingPath.leaky(0.5, 0)
        # levels that name no intermediate model; a NaN level is named as one
        for kind, grid in [
            (PathKind.LEAKY, [1.0, 0.5, 0.0]),
            (PathKind.LEAKY, [1.5, 1.2, 0.5]),
            (PathKind.ENERGY, [1.0, 0.5, -0.5]),
            (PathKind.ONE_SIDED, [1.5, 0.5, 0.0]),
            *((kind, [1.0, np.nan]) for kind in PathKind),
        ]:
            with pytest.raises(ValueError, match="must lie in"):
                AnnealingPath(kind, grid)

    @pytest.mark.parametrize("c_target", [0.0, 1.5, -1.0, np.nan])
    def test_leaky_target_outside_unit_interval(self, c_target):
        # leaky() checks nothing itself: the grid check names the bad level
        with pytest.raises(ValueError, match="must lie in"):
            AnnealingPath.leaky(c_target, 4)

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
        np.testing.assert_array_equal(density, log_unnorm_marginal(once.with_(leakiness=1.0), v))
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

    @pytest.mark.parametrize("kind", list(PathKind))
    def test_single_particle_has_no_standard_error(self, rng, kind):
        # one weight shows no spread: the error used to read 0.0, as if exact
        p = random_safe_params(rng, 3, 2, leakiness=0.2)
        est = ais_estimate(p, _path(kind, p, 10), 1, make_rng(2))
        assert math.isfinite(est.log_z) and est.log_weights.shape == (1,)
        assert est.standard_error == math.inf
        assert est.effective_sample_size == pytest.approx(1.0)

    def test_rejects_no_particles(self):
        p = RbmParams.create(np.eye(3, 2) * 0.5, leakiness=0.1)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n_particles"):
                ais_estimate(p, AnnealingPath.leaky(0.1, 5), n, 1)

    @pytest.mark.parametrize("kind", list(PathKind))
    @pytest.mark.parametrize("n_visible", [2, 3])
    def test_infeasible_model_rejected_on_every_path(self, kind, n_visible):
        p = RbmParams.create(np.eye(n_visible, 2) * [1.5, 0.1], leakiness=0.1)
        with pytest.raises(NonPDRegionError):
            ais_estimate(p, _path(kind, p, 5), 8, make_rng(0))

    @pytest.mark.parametrize("kind", list(PathKind))
    def test_one_sigma_max_per_call(self, kind, monkeypatch):
        import leaky_rbm.projection as projection

        calls = []
        scaled_gram = projection._scaled_gram

        def counting(W):
            calls.append(W.shape)
            return scaled_gram(W)

        monkeypatch.setattr(projection, "_scaled_gram", counting)
        for p in (random_orthogonal(make_rng(6), 64, 16, 0.1),
                  random_safe_params(make_rng(7), 4, 4, leakiness=0.1)):
            calls.clear()
            ais_estimate(p, _path(kind, p, 5), 8, make_rng(0))
            assert len(calls) == 1, calls


    @pytest.mark.parametrize("kind", [PathKind.LEAKY, PathKind.ONE_SIDED])
    def test_one_factorisation_per_call(self, kind, monkeypatch):
        # the c = 1 base gives draws and log Z from one Cholesky: one solve
        # on Omega for the mean, one on L^T for the draws
        calls = dict.fromkeys(["cholesky", "solve", "slogdet"], 0)
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        for p in (random_orthogonal(make_rng(6), 64, 16, 0.1),
                  random_orthogonal(make_rng(7), 16, 16, 0.1)):
            calls.update(dict.fromkeys(calls, 0))
            ais_estimate(p, _path(kind, p, 5), 8, make_rng(0))
            assert calls == {"cholesky": 1, "solve": 2, "slogdet": 0}, p.weights.shape

    @staticmethod
    def _blown_up_estimate(monkeypatch, kind, k):
        """AIS on a 64 x 16 model, 50 particles, the first k set to inf after level 1.

        numpy's matmul flags the inf rows, so its overflow and invalid
        warnings are ignored for the run.
        """
        import leaky_rbm.sampler as sampler

        sweep, calls = sampler._sweep, []

        def blow_up(*args):
            v, h = sweep(*args)
            if not calls:
                v[:k] = np.inf
            calls.append(1)
            return v, h

        monkeypatch.setattr(sampler, "_sweep", blow_up)
        p = random_orthogonal(make_rng(6), 64, 16, 0.01)
        with np.errstate(invalid="ignore", over="ignore"):
            return ais_estimate(p, _path(kind, p, 10), 50, make_rng(0))

    @pytest.mark.parametrize("kind", [PathKind.LEAKY, PathKind.ENERGY])
    def test_non_finite_particles_are_dropped_with_a_warning(self, monkeypatch, kind):
        with pytest.warns(UserWarning, match="dropped 3 non-finite"):
            est = self._blown_up_estimate(monkeypatch, kind, 3)
        assert est.n_dropped == 3
        assert est.log_weights.shape == (47,) and np.isfinite(est.log_weights).all()
        assert est.log_z == est.log_z_base + (_logsumexp(est.log_weights) - math.log(47))

    @pytest.mark.parametrize("kind", [PathKind.LEAKY, PathKind.ENERGY])
    def test_all_particles_dropped_is_divergent(self, monkeypatch, kind):
        with pytest.warns(UserWarning, match="dropped 50 non-finite"):
            with pytest.raises(DivergentIntegralError):
                self._blown_up_estimate(monkeypatch, kind, 50)


def _path(kind, p, n_levels):
    """The path of ``kind`` with ``n_levels`` levels that ends at ``p``."""
    if kind is PathKind.LEAKY:
        return AnnealingPath.leaky(p.leakiness, n_levels)
    if kind is PathKind.ENERGY:
        return AnnealingPath.energy(n_levels)
    return AnnealingPath.one_sided(n_levels)


def _reference_log_weights(p, path, n_particles, seed):
    """AIS log weights from a loop over models rebuilt at every level, with
    a ``gibbs_step`` between levels and none after the last."""
    def level_model(level):
        if path.kind is PathKind.ENERGY:
            s = 1.0 - float(level)
            scale = s if p.hidden_kind is HiddenKind.BERNOULLI else math.sqrt(s)
            return p.with_(weights=p.weights * scale, hidden_bias=p.hidden_bias * scale)
        if path.kind is PathKind.LEAKY:
            return p.with_(leakiness=float(level))
        return p.with_(leakiness=float(level) + (1.0 - float(level)) * p.leakiness)

    score = (bernoulli_log_unnorm_marginal if p.hidden_kind is HiddenKind.BERNOULLI
             else log_unnorm_marginal)
    rng = make_rng(seed)
    v, prev, _ = _base_sample_and_density(p, path.kind, n_particles, rng)
    log_w = np.zeros(n_particles)
    for k, level in enumerate(path.grid[1:], start=1):
        q = level_model(level)
        log_w += score(q, v) - prev
        if k == len(path.grid) - 1:
            return log_w
        v, _h = gibbs_step(q, v, rng)
        prev = score(q, v)


@pytest.fixture
def sweeps(monkeypatch):
    """The (v, h) of every Gibbs sweep, from the AIS loop and ``gibbs_step`` alike."""
    import leaky_rbm.sampler as sampler

    record = []
    sweep = sampler._sweep

    def spy(*args):
        record.append(sweep(*args))
        return record[-1]

    monkeypatch.setattr(sampler, "_sweep", spy)
    return record


def _bernoulli_params(rng, n_visible, n_hidden):
    W = random_safe_params(rng, n_visible, n_hidden, max_norm=0.8).weights
    return RbmParams.create(W, hidden_bias=rng.uniform(-1.0, 1.0, n_hidden),
                            visible_bias=rng.uniform(-1.0, 1.0, n_visible),
                            hidden_kind=HiddenKind.BERNOULLI)


class TestAisKernel:
    """ais_estimate runs the level loop on raw arrays, on the span model
    when J < I and on the model itself otherwise: every sweep state is
    the reference loop's bit for bit, and an L-level estimate sweeps L - 1
    times, as no weight reads a sweep at level L.  The log weights sum
    closed-form increments where the reference takes differences of
    marginals, so they agree to rounding (worst seen 4.5e-15)."""

    @pytest.fixture
    def leaky(self, rng):
        p = random_safe_params(rng, 5, 3, leakiness=0.1, max_norm=0.9)
        return p.with_(visible_bias=rng.uniform(-1.0, 1.0, 5))

    @staticmethod
    def _check(sweeps, p, path, seed):
        est = ais_estimate(p, path, 40, make_rng(seed))
        ais_sweeps = sweeps[:]
        sweeps.clear()
        reference = _reference_log_weights(_span_model(p)[0], path, 40, seed)
        assert len(ais_sweeps) == len(sweeps) == len(path.grid) - 2
        for (v, h), (v_ref, h_ref) in zip(ais_sweeps, sweeps):
            np.testing.assert_array_equal(v, v_ref)
            np.testing.assert_array_equal(h, h_ref)
        assert est.n_dropped == 0
        np.testing.assert_allclose(est.log_weights, reference, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("kind", list(PathKind))
    def test_leaky_log_weights_match_reference_loop(self, sweeps, leaky, kind):
        self._check(sweeps, leaky, _path(kind, leaky, 30), 12)

    def test_bernoulli_log_weights_match_reference_loop(self, sweeps, rng):
        p = _bernoulli_params(rng, 4, 3)
        self._check(sweeps, p, AnnealingPath.energy(30), 13)

    @pytest.mark.parametrize("n_hidden", [3, 4])
    def test_bernoulli_no_span_reduction_when_j_reaches_i(self, sweeps, rng, n_hidden):
        p = _bernoulli_params(rng, 3, n_hidden)
        assert _span_model(p)[0] is p
        self._check(sweeps, p, AnnealingPath.energy(30), 16)

    @pytest.mark.parametrize("kind", list(PathKind))
    @pytest.mark.parametrize("n_hidden", [3, 4])
    def test_no_span_reduction_when_j_reaches_i(self, sweeps, rng, kind, n_hidden):
        p = random_safe_params(rng, 3, n_hidden, leakiness=0.1, max_norm=0.9)
        p = p.with_(visible_bias=rng.uniform(-1.0, 1.0, 3))
        span, n_dropped_dims = _span_model(p)
        assert span is p and n_dropped_dims == 0
        self._check(sweeps, p, _path(kind, p, 30), 15)

    @pytest.mark.parametrize("n_levels", [1, 2, 20])
    @pytest.mark.parametrize("kind", list(PathKind))
    def test_no_sweep_after_the_last_weight(self, sweeps, leaky, kind, n_levels):
        ais_estimate(leaky, _path(kind, leaky, n_levels), 8, make_rng(17))
        assert len(sweeps) == n_levels - 1

    @pytest.mark.parametrize("n_levels", [1, 2, 20])
    def test_bernoulli_no_sweep_after_the_last_weight(self, sweeps, rng, n_levels):
        ais_estimate(_bernoulli_params(rng, 4, 3), AnnealingPath.energy(n_levels), 8,
                     make_rng(17))
        assert len(sweeps) == n_levels - 1

    def test_models_built_do_not_grow_with_levels(self, leaky, monkeypatch):
        built = []
        post_init = RbmParams.__post_init__

        def counting(obj):
            built.append(obj)
            post_init(obj)

        monkeypatch.setattr(RbmParams, "__post_init__", counting)
        counts = {}
        for kind in PathKind:
            for n_levels in (10, 100):
                built.clear()
                ais_estimate(leaky, _path(kind, leaky, n_levels), 8, make_rng(14))
                counts[kind, n_levels] = len(built)
            assert counts[kind, 10] == counts[kind, 100], counts

    def test_marginals_scored_do_not_grow_with_levels(self, leaky, rng, monkeypatch):
        # level 1 scores against the base; later levels add closed forms
        import leaky_rbm.partition as partition

        calls = []
        score = partition.log_marginal_from_response

        def counting(*args):
            calls.append(args)
            return score(*args)

        monkeypatch.setattr(partition, "log_marginal_from_response", counting)
        cases = [(leaky, kind) for kind in PathKind]
        cases.append((_bernoulli_params(rng, 4, 3), PathKind.ENERGY))
        for p, kind in cases:
            counts = []
            for n_levels in (10, 100):
                calls.clear()
                ais_estimate(p, _path(kind, p, n_levels), 8, make_rng(14))
                counts.append(len(calls))
            assert counts[0] == counts[1], (p.hidden_kind, kind, counts)

    @pytest.mark.parametrize(
        "path",
        [
            AnnealingPath.leaky(0.5, 20),
            AnnealingPath(PathKind.ENERGY, np.linspace(1.0, 0.5, 21)),
            AnnealingPath(PathKind.ONE_SIDED, np.linspace(1.0, 0.5, 21)),
        ],
        ids=lambda path: path.kind.value,
    )
    def test_path_must_end_at_the_model(self, path):
        # unchecked, the leaky path estimates the c = 0.5 model (log Z 6.387)
        # and the energy path returns about 4.03; this model's log Z is 6.283
        p = random_orthogonal_params(4, 2, 0.01, np.random.default_rng(0))
        with pytest.raises(ValueError, match="path ends at 0.5"):
            ais_estimate(p, path, 16, make_rng(0))


def _increment_cases():
    """Leaky models on every path and Bernoulli ones on the energy path, with
    J < I and J > I, at sigma_max 0.9 and on the boundary sigma_max = 1."""
    g = np.random.default_rng(21)
    cases = []
    for shape in ((5, 3), (3, 4)):
        strict = g.uniform(-1.0, 1.0, shape)
        strict *= 0.9 / np.linalg.svd(strict, compute_uv=False)[0]
        boundary, _ = project_spectral(2.0 * g.standard_normal(shape))
        for name, W in (("strict", strict), ("boundary", boundary)):
            leaky = RbmParams.create(W, hidden_bias=g.uniform(-1.0, 1.0, shape[1]),
                                     visible_bias=g.uniform(-1.0, 1.0, shape[0]),
                                     leakiness=0.05)
            bernoulli = leaky.with_(hidden_kind=HiddenKind.BERNOULLI)
            tag = f"{shape[0]}x{shape[1]}-{name}"
            cases += [pytest.param(leaky, kind, id=f"{tag}-{kind.value}") for kind in PathKind]
            cases.append(pytest.param(bernoulli, PathKind.ENERGY, id=f"{tag}-bernoulli"))
    return cases


class TestLogWeightIncrements:
    """The loop adds, at each level k, log f_k(v) - log f_{k-1}(v) at the
    state v it reads: against the base density at level 1, and in closed
    form from the level's responses after that.  Each closed form agrees
    with the difference of ``intermediate_log_density`` to 1e-12 of the
    densities; that difference itself loses digits to cancellation."""

    @pytest.mark.parametrize("p, kind", _increment_cases())
    def test_each_increment_is_a_density_difference(self, sweeps, monkeypatch, p, kind):
        import leaky_rbm.partition as partition

        steps = []
        step = partition._log_weight_step

        def spy(*args):
            steps.append(step(*args))
            return steps[-1]

        monkeypatch.setattr(partition, "_log_weight_step", spy)
        path = _path(kind, p, 20)
        est = ais_estimate(p, path, 50, make_rng(8))
        span = _span_model(p)[0]
        density = lambda k, v: intermediate_log_density(span, kind, path.grid[k], v)
        v0, base_density, _ = _base_sample_and_density(span, kind, 50, make_rng(8))
        if kind is not PathKind.ENERGY and p.max_singular_value() > 1.0 - 1e-6:
            # the leaky base is the shrunk c = 1 model, not level 0
            assert not np.allclose(base_density, density(0, v0), rtol=1e-9)
        first = density(1, v0) - base_density
        assert len(steps) == len(sweeps) == len(path.grid) - 2
        for k, (increment, (v, _h)) in enumerate(zip(steps, sweeps), start=2):
            high, low = density(k, v), density(k - 1, v)
            scale = np.maximum(np.abs(high), np.abs(low))
            np.testing.assert_array_less(np.abs(increment - (high - low)), 1e-12 * scale)
        np.testing.assert_allclose(est.log_weights, first + np.sum(steps, axis=0), rtol=1e-12)


def _span_log_z(oracle, p):
    """``oracle`` of the span model of ``p``, lifted back to I visible units."""
    span, n_dropped_dims = _span_model(p)
    assert span.n_visible == p.n_hidden and n_dropped_dims == p.n_visible - p.n_hidden
    return oracle(span) + 0.5 * n_dropped_dims * LOG_2PI


class TestSpanModel:
    """log Z of a J < I model is its span model's plus (I - J) log(2 pi) / 2."""

    def test_orthogonal_closed_form_is_quadrature_of_the_span(self):
        p = random_orthogonal_params(64, 2, 0.01, np.random.default_rng(0))
        assert _span_log_z(quadrature_log_z, p) == pytest.approx(
            exact_log_z_orthogonal(p), rel=1e-12
        )

    def test_gaussian_with_biases(self, rng):
        p = random_safe_params(rng, 9, 3, leakiness=1.0, max_norm=0.9)
        p = p.with_(visible_bias=rng.uniform(-1.0, 1.0, 9))
        assert _span_log_z(gaussian_log_z, p) == pytest.approx(gaussian_log_z(p), rel=1e-12)

    def test_bernoulli_enumeration(self, rng):
        p = RbmParams.create(
            0.3 * rng.standard_normal((12, 5)), hidden_bias=rng.uniform(-1.0, 1.0, 5),
            visible_bias=rng.uniform(-1.0, 1.0, 12), hidden_kind=HiddenKind.BERNOULLI,
        )
        assert _span_log_z(exact_log_z_bernoulli, p) == pytest.approx(
            exact_log_z_bernoulli(p), rel=1e-12
        )

    def test_rank_deficient_weights(self, rng):
        W = rng.uniform(-1.0, 1.0, (6, 3))
        W[:, 2] = W[:, 0] - 0.5 * W[:, 1]
        W *= 0.9 / np.linalg.svd(W, compute_uv=False)[0]
        p = RbmParams.create(W, hidden_bias=rng.uniform(-1.0, 1.0, 3),
                             visible_bias=rng.uniform(-1.0, 1.0, 6))
        assert np.linalg.matrix_rank(W) == 2
        assert _span_log_z(gaussian_log_z, p) == pytest.approx(gaussian_log_z(p), rel=1e-12)

    def test_degenerate_c1_ais_with_biases(self, rng):
        p = random_safe_params(rng, 7, 3, leakiness=1.0, max_norm=0.8)
        p = p.with_(visible_bias=rng.uniform(-1.0, 1.0, 7))
        est = ais_estimate(p, AnnealingPath.leaky(1.0, 10), 200, make_rng(4))
        assert abs(est.log_z - gaussian_log_z(p)) <= 1e-8
        assert est.standard_error <= 1e-12


_DIRECTION_1 = pytest.mark.xfail(
    strict=True, reason="ROADMAP direction 1: at c < 1 the Gibbs sweep does not leave "
                        "the leaky marginal invariant, so AIS is biased")


class TestAisPin:
    """AIS on the 1 x 1 model (w 0.6, zero biases) within 4 standard errors of quadrature."""

    @pytest.mark.parametrize("kind, c", [
        pytest.param(PathKind.LEAKY, 0.01, marks=_DIRECTION_1),
        pytest.param(PathKind.ENERGY, 0.01, marks=_DIRECTION_1),
        (PathKind.ENERGY, 1.0),
    ], ids=["leaky-c0.01", "energy-c0.01", "energy-c1"])
    def test_within_4_standard_errors(self, kind, c):
        p = RbmParams.create(np.array([[0.6]]), leakiness=c)
        est = ais_estimate(p, _path(kind, p, 200), 20_000, make_rng(0))
        assert abs(est.log_z - quadrature_log_z(p, 1e-12)) <= 4.0 * est.standard_error


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

    @pytest.mark.parametrize("kind", [HiddenKind.LEAKY_RELU, HiddenKind.BERNOULLI])
    def test_mean_score_minus_log_z(self, rng, kind):
        p = random_safe_params(rng, 3, 2, leakiness=0.2).with_(hidden_kind=kind)
        leaky = kind is HiddenKind.LEAKY_RELU
        score = log_unnorm_marginal if leaky else bernoulli_log_unnorm_marginal
        data = rng.standard_normal((10, 3))
        assert eval_mean_log_likelihood(p, data, 1.7) == np.mean(score(p, data)) - 1.7

    def test_rejects_no_rows(self, rng):
        # the mean of no rows used to come back as a silent NaN
        p = random_safe_params(rng, 3, 2)
        with pytest.raises(ValueError, match="at least one row"):
            eval_mean_log_likelihood(p, np.zeros((0, 3)), 1.0)
        with pytest.raises(DimensionError):
            eval_mean_log_likelihood(p, np.zeros((4, 2)), 1.0)

    def test_rejects_non_finite_log_z(self, rng):
        p = random_safe_params(rng, 2, 2)
        with pytest.raises(ValueError):
            eval_mean_log_likelihood(p, np.zeros((1, 2)), float("nan"))

    def test_refuses_a_difference_with_no_digits_left(self):
        # with W = 0 the sum of alpha b^2 / 2 in log f and in log Z cancels,
        # but each is about 4.5e224: the difference used to read 8.2e208 where the
        # exact value is -2.84
        p = RbmParams.create(np.zeros((2, 2)), hidden_bias=np.array([3e112, -2e112]),
                             leakiness=0.01)
        data = np.random.default_rng(0).standard_normal((1000, 2))
        # QUADPACK reports ier = 5 here, so the oracle hands the call to
        # scipy's own quad, which warns, and keeps quad's value
        with pytest.warns(integrate.IntegrationWarning, match="probably divergent"):
            log_z = quadrature_log_z(p, 1e-7)
        assert log_z == 4.52e224
        with pytest.raises(PrecisionLossError, match="lost its digits"):
            eval_mean_log_likelihood(p, data, log_z)
        assert not issubclass(PrecisionLossError, ValueError)

    @pytest.mark.parametrize("log_z, kept", [(2.0**42, True), (2.0**43, False)])
    def test_refuses_past_1e_3_nats_of_rounding(self, rng, log_z, kept):
        # 2^-52 of 2^42 is 9.8e-4 nats, of 2^43 2.0e-3
        p = random_safe_params(rng, 2, 2)
        data = rng.standard_normal((10, 2))
        if kept:
            assert eval_mean_log_likelihood(p, data, log_z) < -2.0**41
        else:
            with pytest.raises(PrecisionLossError):
                eval_mean_log_likelihood(p, data, log_z)


class TestLogSumExp:
    """``_logsumexp`` is scipy.special.logsumexp, bit for bit, on finite 1-D input."""

    @staticmethod
    def _assert_same_bits(x):
        from scipy.special import logsumexp

        assert _logsumexp(x) == float(logsumexp(x)), x

    def test_random_vectors(self):
        g = np.random.default_rng(16)
        for _ in range(2000):
            n = int(g.integers(1, 400))
            self._assert_same_bits(g.standard_normal(n) * g.uniform(0.01, 60.0) + g.normal(0, 50))

    def test_ties_at_the_max(self):
        g = np.random.default_rng(17)
        for ties in range(2, 9):
            x = g.standard_normal(50)
            x[g.choice(50, ties, replace=False)] = x.max() + 0.5
            self._assert_same_bits(x)
        self._assert_same_bits(np.zeros(7))
        self._assert_same_bits(np.round(g.standard_normal(300) * 3.0))

    def test_one_element(self):
        for value in (0.0, -3.5, 7e10, -1e300, 1e300):
            self._assert_same_bits(np.array([value]))
            assert _logsumexp(np.array([value])) == value

    @pytest.mark.parametrize("offset", [1e300, -1e300])
    def test_offsets_near_the_float_limits(self, offset):
        g = np.random.default_rng(18)
        for _ in range(200):
            self._assert_same_bits(g.standard_normal(int(g.integers(1, 60))) * 40.0 + offset)
