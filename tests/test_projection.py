import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leaky_rbm.projection as projection
from leaky_rbm import (
    DimensionError,
    LeakyRbmError,
    RbmParams,
    is_globally_safe,
    project_spectral,
)
from leaky_rbm.projection import max_singular_value
from leaky_rbm.sampler import make_rng


class TestProjectSpectral:
    def test_feasible_matrix_unchanged(self):
        U, _ = np.linalg.qr(np.array([[1.0, 0.2], [0.1, 1.0]]))
        W = (U * np.array([0.9, 0.3])) @ np.eye(2)
        W_proj, report = project_spectral(W)
        np.testing.assert_array_equal(W_proj, W)
        assert report.clipped_count == 0

    def test_rank_one_clip(self, rng):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        W = 2.0 * np.outer(u, v)
        W_proj, report = project_spectral(W)
        np.testing.assert_allclose(W_proj, np.outer(u, v), rtol=1e-10, atol=1e-12)
        assert report.clipped_count == 1
        np.testing.assert_allclose(report.max_singular_value_before, 2.0, rtol=1e-12)
        np.testing.assert_allclose(report.max_singular_value_after, 1.0, rtol=1e-12)

    def test_non_finite_rejected(self):
        W = np.full((2, 2), np.inf)
        with pytest.raises(LeakyRbmError):
            project_spectral(W)

    def test_projection_beats_feasible_grid(self):
        # Frobenius-optimality on 2x2 matrices against a dense grid of
        # feasible competitors built from random feasible samples.
        rng = make_rng(77)
        grid = []
        while len(grid) < 4000:
            cand = rng.uniform(-1.5, 1.5, size=(2, 2))
            s = np.linalg.svd(cand, compute_uv=False)
            if s[0] <= 1.0:
                grid.append(cand)
        grid = np.array(grid)
        for _ in range(25):
            W = rng.uniform(-2.0, 2.0, size=(2, 2))
            if np.linalg.svd(W, compute_uv=False)[0] <= 1.0:
                continue
            W_proj, _ = project_spectral(W)
            d_proj = np.linalg.norm(W - W_proj)
            d_grid = np.linalg.norm(grid - W, axis=(1, 2)).min()
            assert d_proj <= d_grid + 1e-6


def _svd_projection(W):
    U, s, Vt = np.linalg.svd(W, full_matrices=False)
    return (U * np.minimum(s, 1.0)) @ Vt


class TestAgainstSvd:
    """The Gram-eigenpair projection against the full-SVD definition."""

    @pytest.mark.parametrize("shape", [(40, 16), (16, 40), (20, 20)])
    def test_matches_svd_reference(self, shape):
        rng = make_rng(5)
        # singular values 0.1 .. 3.0, so 11 or more of them exceed 1
        U, _ = np.linalg.qr(rng.standard_normal((shape[0], min(shape))))
        V, _ = np.linalg.qr(rng.standard_normal((shape[1], min(shape))))
        s = np.linspace(3.0, 0.1, min(shape))
        W = (U * s) @ V.T
        W_proj, report = project_spectral(W)
        assert report.clipped_count == int(np.count_nonzero(s > 1.0)) >= 10
        assert np.abs(W_proj - _svd_projection(W)).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(30, 12), (12, 30), (20, 20)])
    def test_report_matches_svd(self, shape):
        W = make_rng(6).standard_normal(shape) * 0.4
        _, report = project_spectral(W)
        s = np.linalg.svd(W, compute_uv=False)
        assert report.clipped_count == int(np.count_nonzero(s > 1.0)) > 0
        np.testing.assert_allclose(report.max_singular_value_before, s[0], rtol=1e-12)
        assert report.max_singular_value_after == 1.0
        # the sigma_max every other caller reads, without an SVD
        np.testing.assert_allclose(max_singular_value(W), s[0], rtol=1e-12)
        assert RbmParams.create(W).max_singular_value() == max_singular_value(W)
        np.testing.assert_allclose(is_globally_safe(W)[1], 1.0 - s[0] ** 2, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(30, 12), (12, 30), (20, 20)])
    def test_feasible_matrix_is_bitwise_unchanged(self, shape):
        W = make_rng(7).standard_normal(shape)
        W *= 0.999 / np.linalg.svd(W, compute_uv=False)[0]
        W_proj, report = project_spectral(W)
        assert W_proj is not W
        assert W_proj.tobytes() == W.tobytes()
        assert report.clipped_count == 0
        np.testing.assert_allclose(report.max_singular_value_before, 0.999, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)])
    def test_extreme_scales(self, shape, scale):
        # the Gram matrix of these overflows or underflows unless W is
        # rescaled first
        W = make_rng(8).standard_normal(shape) * scale
        W_proj, report = project_spectral(W)
        s = np.linalg.svd(W, compute_uv=False)
        assert np.isfinite(W_proj).all()
        assert is_globally_safe(W_proj)[0]
        np.testing.assert_allclose(report.max_singular_value_before, s[0], rtol=1e-12)
        np.testing.assert_allclose(max_singular_value(W), s[0], rtol=1e-12)
        assert report.clipped_count == int(np.count_nonzero(s > 1.0))

    def test_far_outside_with_a_small_clipped_value(self):
        # sigma_max 4459.5 beside clipped values near 2: estimating the
        # rounding from sigma_max alone skipped the second pass, and draws
        # 384 and 800 came back with 1 - sigma^2 of -2.4e-10 and -6.7e-10
        rng = np.random.default_rng(0)
        unsafe = []
        for k in range(3000):
            U, _, Vt = np.linalg.svd(rng.standard_normal((6, 4)))
            S = np.sort(rng.uniform(0.1, 4459.5, 4))[::-1]
            S[0] = 4459.5
            safe, min_eig = is_globally_safe(project_spectral((U[:, :4] * S) @ Vt)[0])
            if not safe:
                unsafe.append((k, min_eig))
        assert unsafe == []


def _with_singular_values(shape, s, seed):
    rng = make_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((shape[0], len(s))))
    V, _ = np.linalg.qr(rng.standard_normal((shape[1], len(s))))
    return (U * s) @ V.T


@pytest.fixture
def eigh_calls(monkeypatch):
    """The scipy.linalg.eigh calls the projection module makes."""
    calls = []
    eigh = projection.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(projection.linalg, "eigh", counting)
    return calls


class TestCertificate:
    """A Cholesky certifies feasible matrices; clipping takes one eigensolve."""

    @pytest.mark.parametrize("smax, eigensolves", [(0.9, 0), (1.5, 1)])
    def test_eigensolves_per_call(self, eigh_calls, smax, eigensolves):
        s = np.linspace(smax, 0.05, 80)
        W = _with_singular_values((120, 80), s, 9)
        W_proj, report = project_spectral(W)
        assert len(eigh_calls) == eigensolves
        assert report.clipped_count == int(np.count_nonzero(s > 1.0))
        if smax < 1.0:
            assert W_proj.tobytes() == W.tobytes()
        # a certified call computes sigma_max when it is first read
        np.testing.assert_allclose(
            report.max_singular_value_before,
            np.linalg.svd(W, compute_uv=False)[0], rtol=1e-12,
        )
        assert len(eigh_calls) == 1

    @pytest.mark.parametrize("shape", [(30, 12), (12, 30)])
    @pytest.mark.parametrize("offset", ["-10delta", "-delta/2", "0", "+1e-13", "+0.5"])
    def test_boundary_family(self, eigh_calls, shape, offset):
        n = min(shape)
        delta = (n + 1) ** 2 * np.finfo(np.float64).eps
        target = {
            "-10delta": 1.0 - 10.0 * delta, "-delta/2": 1.0 - delta / 2.0,
            "0": 1.0, "+1e-13": 1.0 + 1e-13, "+0.5": 1.5,
        }[offset]
        W = _with_singular_values(shape, np.linspace(target, 0.1, n), 10)
        s = np.linalg.svd(W, compute_uv=False)
        W_proj, report = project_spectral(W)
        assert np.abs(W_proj - _svd_projection(W)).max() <= 1e-12
        if s[0] <= 1.0 - delta:
            assert len(eigh_calls) == 0
            assert W_proj.tobytes() == W.tobytes()
            assert report.clipped_count == 0
        if s[0] > 1.0:
            assert report.clipped_count == int(np.count_nonzero(s > 1.0))
        np.testing.assert_allclose(report.max_singular_value_before, s[0], rtol=1e-12)
        assert report.max_singular_value_after == min(report.max_singular_value_before, 1.0)

    @pytest.mark.parametrize("shape", [(40, 25), (25, 40)])
    def test_report_keeps_no_view_of_the_input(self, shape):
        W = _with_singular_values(shape, np.linspace(0.9, 0.1, 25), 11)
        smax = np.linalg.svd(W, compute_uv=False)[0]
        _, report = project_spectral(W)
        W *= 2.0
        np.testing.assert_allclose(report.max_singular_value_before, smax, rtol=1e-12)
        assert report.max_singular_value_after == report.max_singular_value_before


@pytest.mark.parametrize("fn", [project_spectral, max_singular_value, is_globally_safe])
def test_weights_that_are_not_a_matrix_rejected(fn):
    with pytest.raises(DimensionError, match="2-D matrix"):
        fn(np.ones(3))


class TestIsGloballySafe:
    def test_zero_weights(self):
        safe, eig = is_globally_safe(np.zeros((3, 2)))
        assert safe and eig == 1.0

    def test_large_singular_value_unsafe(self):
        W = np.diag([1.5, 0.2])
        safe, eig = is_globally_safe(W)
        assert not safe
        np.testing.assert_allclose(eig, 1.0 - 1.5**2, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_property_projection_always_safe(seed):
    rng = make_rng(seed)
    shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    W = rng.standard_normal(shape) * rng.uniform(0.1, 3.0)
    W_proj, report = project_spectral(W)
    safe, _ = is_globally_safe(W_proj)
    assert safe
    assert report.max_singular_value_after <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_property_projection_idempotent(seed):
    rng = make_rng(seed)
    W = rng.standard_normal((3, 3)) * rng.uniform(0.1, 3.0)
    once, _ = project_spectral(W)
    twice, _ = project_spectral(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)
