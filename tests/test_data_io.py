import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaky_rbm import (
    DataFormatError,
    HiddenKind,
    ModelFileError,
    Provenance,
    RbmParams,
    ingest,
    load_model,
    normalize,
    save_model,
    write_raw_f32,
)
from leaky_rbm.data_io import MODEL_MAGIC, RAW_MAGIC
from leaky_rbm.sampler import make_rng

from conftest import random_safe_params


class TestNormalize:
    def test_columns_standardized(self, rng):
        m = rng.standard_normal((200, 3)) * [2.0, 0.5, 7.0] + [1.0, -4.0, 0.0]
        ds = normalize(m)
        np.testing.assert_allclose(ds.matrix.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(ds.matrix.std(axis=0), 1.0, atol=1e-6)

    def test_constant_column_clamped(self):
        m = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        ds = normalize(m)
        np.testing.assert_array_equal(ds.matrix[:, 0], np.zeros(10))
        assert ds.normalization.per_column_std[0] == 1.0

    def test_reuse_stats(self, rng):
        train = rng.standard_normal((100, 2)) + 5.0
        test = rng.standard_normal((30, 2)) + 5.0
        ds_train = normalize(train)
        ds_test = normalize(test, ds_train.normalization)
        np.testing.assert_array_equal(
            ds_test.normalization.per_column_mean,
            ds_train.normalization.per_column_mean,
        )
        expected = (test - ds_train.normalization.per_column_mean) / (
            ds_train.normalization.per_column_std
        )
        np.testing.assert_array_equal(ds_test.matrix, expected)

    def test_rejects_non_matrix(self):
        with pytest.raises(DataFormatError):
            normalize(np.zeros(5))


class TestIngest:
    def test_csv_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((20, 4))
        path = tmp_path / "data.csv"
        np.savetxt(path, m, delimiter=",")
        ds = ingest(path)
        assert ds.matrix.shape == (20, 4)

    def test_raw_f32_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((15, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "data.bin"
        write_raw_f32(path, m)
        ds = ingest(path)
        raw = ds.matrix * ds.normalization.per_column_std + ds.normalization.per_column_mean
        np.testing.assert_allclose(raw, m, atol=1e-7)

    def test_format_inference_by_suffix(self, tmp_path):
        m = np.arange(6.0).reshape(3, 2)
        csv_path = tmp_path / "d.csv"
        np.savetxt(csv_path, m, delimiter=",")
        bin_path = tmp_path / "d.dat"
        write_raw_f32(bin_path, m)
        a = ingest(csv_path)
        b = ingest(bin_path)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-7)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            ingest(tmp_path / "nope.csv")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_path(self, tmp_path, value):
        m = np.arange(12.0).reshape(4, 3)
        m[2, 1] = value
        np.savetxt(tmp_path / "d.csv", m, delimiter=",")
        write_raw_f32(tmp_path / "d.bin", m)
        for name in ("d.csv", "d.bin"):
            with pytest.raises(DataFormatError, match=rf"{name}: non-finite value at row 2, column 1"):
                ingest(tmp_path / name)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(DataFormatError) as exc:
            ingest(path)
        # diagnostic mentions the byte offset of the failure
        assert "offset" in str(exc.value)

    def test_truncated_raw(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(RAW_MAGIC + np.array([4, 4], "<u4").tobytes() + b"\0" * 8)
        with pytest.raises(DataFormatError):
            ingest(path)

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\nbanana,4.0\n")
        with pytest.raises(DataFormatError):
            ingest(path)

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            ingest(path)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0\n")
        with pytest.raises(DataFormatError):
            ingest(path, fmt="parquet")


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        p = random_safe_params(rng, 3, 2, leakiness=0.07)
        prov = Provenance(config_hash=123456789, seed=-42, epoch=17)
        path = tmp_path / "m.rbm"
        save_model(path, p, prov)
        q, prov2 = load_model(path)
        np.testing.assert_array_equal(q.weights, p.weights)
        np.testing.assert_array_equal(q.visible_bias, p.visible_bias)
        np.testing.assert_array_equal(q.hidden_bias, p.hidden_bias)
        assert q.leakiness == p.leakiness
        assert q.hidden_kind is p.hidden_kind
        assert prov2 == prov

    def test_bernoulli_kind_preserved(self, tmp_path):
        p = RbmParams.create(
            np.zeros((2, 2)), hidden_kind=HiddenKind.BERNOULLI, leakiness=1.0
        )
        path = tmp_path / "m.rbm"
        save_model(path, p)
        q, _ = load_model(path)
        assert q.hidden_kind is HiddenKind.BERNOULLI

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "m.rbm"
        path.write_bytes(b"NOPE" + b"\0" * 40)
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_truncated_rejected(self, tmp_path, rng):
        p = random_safe_params(rng)
        path = tmp_path / "m.rbm"
        save_model(path, p)
        blob = path.read_bytes()
        for cut in (10, 40):  # inside the provenance, inside the weights
            path.write_bytes(blob[: len(blob) - cut])
            with pytest.raises(ModelFileError, match="m.rbm"):
                load_model(path)

    @pytest.mark.parametrize(
        "offset, value, message",
        [
            (17, np.nan, "leakiness"),
            (17, 0.0, "leakiness"),
            (17, 1.5, "leakiness"),
            (25, np.inf, "finite"),
            (73, np.nan, "finite"),
        ],
        ids=["nan-leakiness", "zero-leakiness", "leakiness-above-1", "inf-weight",
             "nan-hidden-bias"],
    )
    def test_invalid_values_rejected(self, tmp_path, rng, offset, value, message):
        # 2x2 layout: leakiness at byte 17, W at 25, a at 57, b at 73
        path = tmp_path / "m.rbm"
        save_model(path, random_safe_params(rng))
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 8] = np.float64(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError, match=f"m.rbm.*{message}"):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path, rng):
        p = random_safe_params(rng)
        path = tmp_path / "m.rbm"
        save_model(path, p)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError):
            load_model(tmp_path / "missing.rbm")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_vis=st.integers(1, 5),
    n_hid=st.integers(1, 5),
)
def test_property_model_roundtrip(tmp_path_factory, seed, n_vis, n_hid):
    rng = make_rng(seed)
    W = rng.standard_normal((n_vis, n_hid))
    p = RbmParams(
        W,
        rng.standard_normal(n_vis),
        rng.standard_normal(n_hid),
        float(rng.uniform(0.001, 1.0)),
        HiddenKind.LEAKY_RELU,
    )
    path = tmp_path_factory.mktemp("models") / "m.rbm"
    save_model(path, p)
    q, _ = load_model(path)
    np.testing.assert_array_equal(q.weights, p.weights)
    np.testing.assert_array_equal(q.visible_bias, p.visible_bias)
    np.testing.assert_array_equal(q.hidden_bias, p.hidden_bias)
    assert q.leakiness == p.leakiness
