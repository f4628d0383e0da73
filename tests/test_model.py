import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaky_rbm import (
    ActivationPattern,
    AnnealingPath,
    DimensionError,
    HiddenKind,
    PathKind,
    RbmParams,
    activation_pattern,
    ais_estimate,
    anneal_leakiness_sample,
    bernoulli_hidden_conditional,
    bernoulli_log_unnorm_marginal,
    exact_log_z_bernoulli,
    exact_log_z_orthogonal,
    hidden_conditional,
    intermediate_log_density,
    log_unnorm_marginal,
    mix_sample,
    quadrature_log_z,
    region_precision_mean,
    response,
    visible_conditional,
)
from leaky_rbm.model import branch_slopes, sigmoid
from leaky_rbm.sampler import make_rng

from conftest import random_safe_params


class TestRbmParams:
    def test_create_defaults_zero_biases(self):
        p = RbmParams.create(np.zeros((3, 2)), leakiness=0.5)
        assert p.n_visible == 3 and p.n_hidden == 2
        np.testing.assert_array_equal(p.visible_bias, np.zeros(3))
        np.testing.assert_array_equal(p.hidden_bias, np.zeros(2))

    def test_arrays_read_only(self):
        p = RbmParams.create(np.ones((2, 2)) * 0.1)
        with pytest.raises(ValueError):
            p.weights[0, 0] = 5.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            RbmParams(np.zeros((2, 2)), np.zeros(3), np.zeros(2))
        with pytest.raises(DimensionError):
            RbmParams(np.zeros((2, 2)), np.zeros(2), np.zeros(1))

    @pytest.mark.parametrize("leakiness", [np.nan, 5.0, 1.5, -3.0, 0.0])
    def test_leakiness_range_enforced(self, leakiness):
        with pytest.raises(ValueError, match="leakiness must be in"):
            RbmParams.create(np.zeros((2, 2)), leakiness=leakiness)
        with pytest.raises(ValueError, match="leakiness must be in"):
            RbmParams.create(np.zeros((2, 2)), leakiness=0.1).with_(leakiness=leakiness)

    def test_non_finite_rejected(self):
        W = np.zeros((2, 2))
        W[0, 0] = np.nan
        with pytest.raises(ValueError):
            RbmParams.create(W)

    def test_with_replaces_fields(self):
        p = RbmParams.create(np.zeros((2, 2)), leakiness=0.3)
        q = p.with_(leakiness=0.7)
        assert q.leakiness == 0.7 and p.leakiness == 0.3

    def test_is_safe(self):
        assert RbmParams.create(np.zeros((2, 2))).is_safe()
        W = np.array([[1.5, 0.0], [0.0, 0.0]])
        assert not RbmParams.create(W, leakiness=0.1).is_safe()


class TestResponse:
    def test_affine_evaluation(self):
        p = RbmParams.create(np.array([[1.0], [0.0]]), hidden_bias=[0.5], leakiness=0.1)
        np.testing.assert_allclose(response(p, np.array([2.0, 7.0])), [2.5])

    def test_zero_input_gives_bias(self):
        p = RbmParams.create(np.ones((3, 2)) * 0.2, hidden_bias=[0.4, -0.3])
        np.testing.assert_allclose(response(p, np.zeros(3)), [0.4, -0.3])

    def test_matches_entrywise_recomputation(self, rng):
        W = rng.standard_normal((3, 2)) * 0.3
        b = rng.standard_normal(2)
        v = rng.standard_normal(3)
        p = RbmParams.create(W, hidden_bias=b, leakiness=0.2)
        expected = [sum(W[i, j] * v[i] for i in range(3)) + b[j] for j in range(2)]
        np.testing.assert_allclose(response(p, v), expected, rtol=1e-12)

    def test_batch_shape(self, rng):
        p = random_safe_params(rng, 4, 3)
        batch = rng.standard_normal((7, 4))
        assert response(p, batch).shape == (7, 3)

    def test_dimension_error(self):
        p = RbmParams.create(np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            response(p, np.zeros(4))


class TestHiddenConditional:
    def test_positive_branch(self):
        p = RbmParams.create(np.array([[1.0]]), leakiness=0.1)
        mean, var = hidden_conditional(p, np.array([2.0]))
        np.testing.assert_allclose(mean, [2.0])
        np.testing.assert_allclose(var, [1.0])

    def test_leaky_branch(self):
        p = RbmParams.create(np.array([[1.0]]), leakiness=0.1)
        mean, var = hidden_conditional(p, np.array([-2.0]))
        np.testing.assert_allclose(mean, [-0.2])
        np.testing.assert_allclose(var, [0.1])

    def test_boundary_takes_leaky_branch(self):
        p = RbmParams.create(np.array([[1.0]]), leakiness=0.5)
        mean, var = hidden_conditional(p, np.array([0.0]))
        np.testing.assert_allclose(mean, [0.0])
        np.testing.assert_allclose(var, [0.5])

    def test_variance_never_interpolated(self, rng):
        p = random_safe_params(rng, 3, 4, leakiness=0.37)
        _, var = hidden_conditional(p, rng.standard_normal((50, 3)))
        assert np.all((var == 1.0) | (var == 0.37))

    def test_wrong_kind_rejected(self):
        p = RbmParams.create(np.zeros((2, 2)), hidden_kind=HiddenKind.BERNOULLI)
        with pytest.raises(ValueError):
            hidden_conditional(p, np.zeros(2))


class TestBernoulliHiddenConditional:
    def test_zero_response_half(self):
        p = RbmParams.create(np.zeros((2, 2)), hidden_kind=HiddenKind.BERNOULLI)
        np.testing.assert_allclose(bernoulli_hidden_conditional(p, np.zeros(2)), 0.5)

    def test_saturation(self):
        p = RbmParams.create(
            np.array([[50.0]]), hidden_kind=HiddenKind.BERNOULLI
        )
        assert abs(bernoulli_hidden_conditional(p, np.array([1.0]))[0] - 1.0) < 1e-15

    def test_unit_response(self):
        p = RbmParams.create(np.array([[1.0]]), hidden_kind=HiddenKind.BERNOULLI)
        got = bernoulli_hidden_conditional(p, np.array([1.0]))[0]
        np.testing.assert_allclose(got, 1.0 / (1.0 + np.exp(-1.0)), rtol=1e-14)

    def test_no_overflow_at_large_negative(self):
        p = RbmParams.create(np.array([[-400.0]]), hidden_kind=HiddenKind.BERNOULLI)
        got = bernoulli_hidden_conditional(p, np.array([2.0]))
        assert np.isfinite(got).all() and got[0] == 0.0


class TestKernels:
    """branch_slopes and sigmoid against the textbook formulas, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        eta=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
        c=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_branch_slopes_is_the_select(self, eta, c):
        eta = np.array(eta + [0.0, -0.0, np.inf, -np.inf, np.nan])
        got = branch_slopes(eta, c)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.where(eta > 0, 1.0, c))

    @staticmethod
    def _two_branch_sigmoid(eta):
        out = np.empty_like(eta)
        pos = eta >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
        e = np.exp(eta[~pos])
        out[~pos] = e / (1.0 + e)
        return out

    def test_sigmoid_is_the_two_branch_formula(self, rng):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 710.0, -710.0,
                   36.0, -36.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300]
        eta = np.concatenate([rng.standard_normal(100_000) * 20.0, special])
        np.testing.assert_array_equal(sigmoid(eta), self._two_branch_sigmoid(eta))

    def test_sigmoid_special_values(self):
        got = sigmoid(np.array([0.0, -0.0, np.inf, -np.inf, -745.0, 745.0]))
        np.testing.assert_array_equal(got, [0.5, 0.5, 1.0, 0.0, np.exp(-745.0), 1.0])
        assert np.isnan(sigmoid(np.array([np.nan]))[0])


class TestVisibleConditional:
    def test_zero_hidden_gives_visible_bias(self):
        p = RbmParams.create(np.ones((3, 2)), visible_bias=[0.1, 0.2, 0.3])
        np.testing.assert_allclose(visible_conditional(p, np.zeros(2)), [0.1, 0.2, 0.3])

    def test_basis_vector_selects_column(self, rng):
        W = rng.standard_normal((4, 3)) * 0.2
        p = RbmParams.create(W)
        np.testing.assert_allclose(
            visible_conditional(p, np.array([1.0, 0.0, 0.0])), W[:, 0]
        )

    def test_matches_matvec(self, rng):
        W = rng.standard_normal((4, 3)) * 0.2
        h = rng.standard_normal(3)
        p = RbmParams.create(W)
        np.testing.assert_allclose(visible_conditional(p, h), W @ h, rtol=1e-12)


class TestActivationPattern:
    def test_sign_pattern(self):
        # responses (3, -1, 0) with c = 0.2
        W = np.eye(3)
        p = RbmParams.create(W, hidden_bias=[3.0, -1.0, 0.0], leakiness=0.2)
        alpha = activation_pattern(p, np.zeros(3)).alpha
        np.testing.assert_allclose(alpha, [1.0, 0.2, 0.2])

    def test_batch_rejected(self):
        # a pattern belongs to one v; region_precision_mean takes a single (J,) pattern
        p = RbmParams.create(np.eye(2), leakiness=0.2)
        with pytest.raises(DimensionError):
            activation_pattern(p, np.zeros((3, 2)))

    def test_c_one_collapses(self, rng):
        p = random_safe_params(rng, 3, 3, leakiness=1.0)
        alpha = activation_pattern(p, rng.standard_normal(3)).alpha
        np.testing.assert_array_equal(alpha, np.ones(3))

    def test_consistent_with_response_signs(self, rng):
        p = random_safe_params(rng, 3, 4, leakiness=0.3)
        for _ in range(20):
            v = rng.standard_normal(3) * 2
            eta = response(p, v)
            alpha = activation_pattern(p, v).alpha
            np.testing.assert_array_equal(alpha, np.where(eta > 0, 1.0, 0.3))

    def test_piecewise_constant(self, rng):
        p = random_safe_params(rng, 2, 2, leakiness=0.2)
        v = rng.standard_normal(2)
        eta = response(p, v)
        if np.any(np.abs(eta) < 1e-3):
            v = v + 1.0
            eta = response(p, v)
        base = activation_pattern(p, v).alpha
        # perturbations small enough to keep every response sign
        delta = 0.4 * np.min(np.abs(eta)) / max(np.abs(p.weights).sum(), 1e-9)
        for _ in range(10):
            d = rng.uniform(-delta, delta, size=2)
            np.testing.assert_array_equal(activation_pattern(p, v + d).alpha, base)


class TestRegionPrecisionMean:
    def test_zero_weights_identity(self):
        p = RbmParams.create(np.zeros((3, 2)), leakiness=0.5)
        region = region_precision_mean(p, ActivationPattern(np.ones(2)))
        np.testing.assert_allclose(region.precision, np.eye(3))
        np.testing.assert_allclose(region.mean, np.zeros(3))
        assert region.is_pd

    def test_c_one_gaussian_moments(self, rng):
        p = random_safe_params(rng, 3, 2, leakiness=1.0)
        region = region_precision_mean(p, ActivationPattern(np.ones(2)))
        W = p.weights
        omega = np.eye(3) - W @ W.T
        np.testing.assert_allclose(region.precision, omega, rtol=1e-12)
        np.testing.assert_allclose(
            region.mean, np.linalg.solve(omega, W @ p.hidden_bias), rtol=1e-10
        )

    def test_rank_one_hand_computation(self):
        c = 0.3
        p = RbmParams.create(np.array([[0.6], [0.0]]), leakiness=c)
        region = region_precision_mean(p, ActivationPattern(np.array([c])))
        np.testing.assert_allclose(
            region.precision, np.diag([1.0 - 0.36 * c, 1.0]), rtol=1e-12
        )

    def test_pattern_length_checked(self):
        p = RbmParams.create(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            region_precision_mean(p, ActivationPattern(np.ones(3)))

    def test_unsafe_pattern_flagged(self):
        W = np.array([[1.2], [0.0]])
        p = RbmParams.create(W, leakiness=0.1)
        region = region_precision_mean(p, ActivationPattern(np.array([1.0])))
        assert not region.is_pd
        assert region.min_eigenvalue < 0


class TestLogUnnormMarginal:
    def test_origin_zero(self):
        p = RbmParams.create(np.array([[0.5], [0.1]]), leakiness=0.3)
        assert log_unnorm_marginal(p, np.zeros(2)) == 0.0

    def test_hand_value_leaky_branch(self):
        p = RbmParams.create(np.array([[0.5]]), leakiness=0.1)
        got = float(log_unnorm_marginal(p, np.array([-2.0])))
        # eta = -1: -v^2/2 + c eta^2 / 2 = -2 + 0.05
        np.testing.assert_allclose(got, -1.95, rtol=1e-12)

    def test_c_one_quadratic_form(self, rng):
        p = random_safe_params(rng, 3, 2, leakiness=1.0)
        W, b = p.weights, p.hidden_bias
        omega = np.eye(3) - W @ W.T
        for _ in range(20):
            v = rng.standard_normal(3) * 2
            expected = -0.5 * v @ omega @ v + (W @ b) @ v + 0.5 * b @ b
            np.testing.assert_allclose(
                float(log_unnorm_marginal(p, v)), expected, rtol=1e-10, atol=1e-10
            )

    def test_batch_matches_loop(self, rng):
        p = random_safe_params(rng, 2, 3)
        batch = rng.standard_normal((9, 2))
        batched = log_unnorm_marginal(p, batch)
        looped = [float(log_unnorm_marginal(p, row)) for row in batch]
        np.testing.assert_allclose(batched, looped, rtol=1e-14)


class TestBernoulliLogUnnormMarginal:
    def test_origin_value(self):
        p = RbmParams.create(np.zeros((2, 3)), hidden_kind=HiddenKind.BERNOULLI)
        got = float(bernoulli_log_unnorm_marginal(p, np.zeros(2)))
        np.testing.assert_allclose(got, 3 * np.log(2.0), rtol=1e-12)

    def test_saturated_negative_softplus_vanishes(self):
        p = RbmParams.create(
            np.array([[1.0]]), hidden_bias=[-50.0], hidden_kind=HiddenKind.BERNOULLI
        )
        got = float(bernoulli_log_unnorm_marginal(p, np.array([0.0])))
        np.testing.assert_allclose(got, 0.0, atol=1e-15)

    def test_matches_brute_force_enumeration(self, rng):
        W = rng.standard_normal((2, 2)) * 0.5
        b = rng.standard_normal(2)
        p = RbmParams.create(W, hidden_bias=b, hidden_kind=HiddenKind.BERNOULLI)
        for _ in range(10):
            v = rng.standard_normal(2)
            total = 0.0
            for h0 in (0, 1):
                for h1 in (0, 1):
                    h = np.array([h0, h1], dtype=float)
                    energy = 0.5 * v @ v - v @ W @ h - b @ h
                    total += np.exp(-energy)
            np.testing.assert_allclose(
                float(bernoulli_log_unnorm_marginal(p, v)), np.log(total), rtol=1e-9
            )

    def test_brute_force_larger_j(self, rng):
        n_hid = 6
        W = rng.standard_normal((2, n_hid)) * 0.3
        b = rng.standard_normal(n_hid) * 0.5
        p = RbmParams.create(W, hidden_bias=b, hidden_kind=HiddenKind.BERNOULLI)
        v = rng.standard_normal(2)
        codes = (np.arange(2**n_hid)[:, None] >> np.arange(n_hid)[None, :]) & 1
        h = codes.astype(float)
        log_terms = -0.5 * v @ v + h @ (W.T @ v) + h @ b
        expected = np.log(np.sum(np.exp(log_terms)))
        np.testing.assert_allclose(
            float(bernoulli_log_unnorm_marginal(p, v)), expected, rtol=1e-9
        )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_c1_quadratic_identity(data):
    seed = data.draw(st.integers(0, 10_000))
    rng = make_rng(seed)
    p = random_safe_params(rng, 2, 2, leakiness=1.0)
    v = rng.standard_normal(2) * 3
    W, b = p.weights, p.hidden_bias
    omega = np.eye(2) - W @ W.T
    expected = -0.5 * v @ omega @ v + (W @ b) @ v + 0.5 * b @ b
    np.testing.assert_allclose(
        float(log_unnorm_marginal(p, v)), expected, rtol=1e-10, atol=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_pattern_matches_c1_allones(data):
    seed = data.draw(st.integers(0, 10_000))
    rng = make_rng(seed)
    p = random_safe_params(rng, 2, 3, leakiness=1.0)
    v = rng.standard_normal(2)
    alpha = activation_pattern(p, v).alpha
    r_pattern = region_precision_mean(p, ActivationPattern(alpha))
    r_ones = region_precision_mean(p, ActivationPattern(np.ones(3)))
    np.testing.assert_allclose(r_pattern.precision, r_ones.precision, rtol=1e-12)
    np.testing.assert_allclose(r_pattern.mean, r_ones.mean, rtol=1e-10)


@pytest.mark.parametrize(
    "kind, entry",
    [
        (HiddenKind.LEAKY_RELU, lambda p: hidden_conditional(p, np.zeros(2))),
        (HiddenKind.BERNOULLI, lambda p: bernoulli_hidden_conditional(p, np.zeros(2))),
        (HiddenKind.LEAKY_RELU, lambda p: activation_pattern(p, np.zeros(2))),
        (HiddenKind.LEAKY_RELU, lambda p: log_unnorm_marginal(p, np.zeros(2))),
        (HiddenKind.BERNOULLI, lambda p: bernoulli_log_unnorm_marginal(p, np.zeros(2))),
        (HiddenKind.LEAKY_RELU, exact_log_z_orthogonal),
        (HiddenKind.LEAKY_RELU, quadrature_log_z),
        (HiddenKind.BERNOULLI, exact_log_z_bernoulli),
        (HiddenKind.LEAKY_RELU,
         lambda p: anneal_leakiness_sample(p, 2, 3, make_rng(0))),
        (HiddenKind.LEAKY_RELU,
         lambda p: mix_sample(p, np.zeros((3, 2)), 2, make_rng(0))),
        (HiddenKind.LEAKY_RELU,
         lambda p: ais_estimate(p, AnnealingPath.leaky(1.0, 3), 4, make_rng(0))),
    ],
    ids=[
        "hidden_conditional", "bernoulli_hidden_conditional", "activation_pattern",
        "log_unnorm_marginal", "bernoulli_log_unnorm_marginal", "exact_log_z_orthogonal",
        "quadrature_log_z", "exact_log_z_bernoulli", "anneal_leakiness_sample",
        "mix_sample", "ais_estimate_leaky_path",
    ],
)
def test_kind_guard_names_the_required_units(kind, entry):
    # every entry point refuses a model of the other kind with one message form
    other = HiddenKind.BERNOULLI if kind is HiddenKind.LEAKY_RELU else HiddenKind.LEAKY_RELU
    p = RbmParams.create(np.full((2, 2), 0.3), hidden_kind=other)
    with pytest.raises(ValueError, match="requires (leaky|Bernoulli) hidden units"):
        entry(p)


@pytest.mark.parametrize(
    "kind, width, entry",
    [
        (HiddenKind.LEAKY_RELU, 3, response),
        (HiddenKind.LEAKY_RELU, 3, hidden_conditional),
        (HiddenKind.BERNOULLI, 3, bernoulli_hidden_conditional),
        (HiddenKind.LEAKY_RELU, 3, log_unnorm_marginal),
        (HiddenKind.BERNOULLI, 3, bernoulli_log_unnorm_marginal),
        (HiddenKind.LEAKY_RELU, 3,
         lambda p, v: intermediate_log_density(p, PathKind.LEAKY, 0.5, v)),
        (HiddenKind.LEAKY_RELU, 2, visible_conditional),
    ],
    ids=[
        "response", "hidden_conditional", "bernoulli_hidden_conditional", "log_unnorm_marginal",
        "bernoulli_log_unnorm_marginal", "intermediate_log_density", "visible_conditional",
    ],
)
def test_rows_are_one_row_or_a_nonempty_stack(kind, width, entry):
    # a 3x2 model: width is the visible (3) or hidden (2) row length the function reads
    p = RbmParams.create(np.full((3, 2), 0.3), hidden_kind=kind)
    for bad in (np.float64(0.0), np.zeros((2, 4, width))):
        with pytest.raises(DimensionError):
            entry(p, bad)
    with pytest.raises(ValueError, match="at least one row"):
        entry(p, np.zeros((0, width)))
