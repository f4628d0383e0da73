"""Dataset ingestion/normalization and the binary model file format.

Model files are versioned little-endian binaries (magic ``LRBM``) holding
all parameters as 64-bit floats plus training provenance; save/load is
bit-exact.  Datasets come from headerless numeric CSV or a raw float32
format (magic ``LRBF``, then uint32 row and column counts, then row-major
float32 values).
"""
from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ModelFileError
from .model import HiddenKind, RbmParams

MODEL_MAGIC = b"LRBM"
MODEL_VERSION = 1
RAW_MAGIC = b"LRBF"

_KIND_CODES = {HiddenKind.LEAKY_RELU: 0, HiddenKind.BERNOULLI: 1}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}


@dataclass(frozen=True)
class Normalization:
    per_column_mean: np.ndarray
    per_column_std: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """Standardized data matrix plus the statistics that produced it."""

    matrix: np.ndarray  # (N, I), already normalized
    normalization: Normalization


def normalize(matrix: np.ndarray, stats: Normalization | None = None) -> Dataset:
    """Per-column standardization; constant columns map to zero (std clamped to 1).

    A finite column too large to standardise, whose std or standardised
    values overflow, raises DataFormatError naming the first such column.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise DataFormatError("data must be a 2-D matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        if stats is None:
            mean = matrix.mean(axis=0)
            std = matrix.std(axis=0)
            std = np.where(std < 1e-12, 1.0, std)
            stats = Normalization(mean, std)
        standardized = matrix - stats.per_column_mean  # one data-sized array, divided in place
        standardized /= stats.per_column_std
    # an overflowed std alone leaves zeros; max and min see inf and NaN with no temporary
    finite = np.isfinite(stats.per_column_std) & np.isfinite(standardized.max(axis=0, initial=0.0))
    finite &= np.isfinite(standardized.min(axis=0, initial=0.0))
    if not finite.all():
        col = np.flatnonzero(~finite)[0]
        raise DataFormatError(f"column {col} (0-based) is too large to standardise")
    return Dataset(standardized, stats)


def ingest(path, fmt: str | None = None, stats: Normalization | None = None) -> Dataset:
    """Load and standardize a dataset file.

    ``fmt`` is 'csv' or 'raw-f32'; None infers from the extension
    ('.csv' vs anything else).  Pass ``stats`` to reuse stored
    normalization constants instead of recomputing them.  A missing,
    malformed or empty file, or one holding NaN or inf, raises
    DataFormatError naming the path.
    """
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"dataset file not found: {path}")
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "raw-f32"
    if fmt == "csv":
        matrix = _read_csv(path)
    elif fmt == "raw-f32":
        matrix = _read_raw_f32(path)
    else:
        raise DataFormatError(f"unknown dataset format {fmt!r}")
    if matrix.size == 0:
        raise DataFormatError(f"{path}: dataset is empty (shape {matrix.shape})")
    if not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        raise DataFormatError(f"{path}: non-finite value at row {row}, column {col} (0-based)")
    try:
        return normalize(matrix, stats)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _read_csv(path: Path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # numpy warns on an empty file; ingest rejects it with one message
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _read_raw_f32(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    if len(blob) < 12 or blob[:4] != RAW_MAGIC:
        raise DataFormatError(f"{path}: bad raw-f32 header (offset 0)")
    n_rows, n_cols = struct.unpack_from("<II", blob, 4)
    expected = 12 + 4 * n_rows * n_cols
    if len(blob) != expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes for {n_rows}x{n_cols}, got {len(blob)}"
        )
    flat = np.frombuffer(blob, dtype="<f4", offset=12)
    return flat.reshape(n_rows, n_cols).astype(np.float64)


def write_raw_f32(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise DataFormatError("raw-f32 data must be 2-D")
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC)
        fh.write(struct.pack("<II", matrix.shape[0], matrix.shape[1]))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


@dataclass(frozen=True)
class Provenance:
    config_hash: int = 0
    seed: int = 0
    epoch: int = 0


def save_model(path, params: RbmParams, provenance: Provenance = Provenance()) -> None:
    """Write a model file; numeric fields round-trip bit-exactly."""
    n_vis, n_hid = params.weights.shape
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(
            struct.pack(
                "<IBII", MODEL_VERSION, _KIND_CODES[params.hidden_kind], n_vis, n_hid
            )
        )
        fh.write(struct.pack("<d", params.leakiness))
        fh.write(np.ascontiguousarray(params.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.visible_bias, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(params.hidden_bias, dtype="<f8").tobytes())
        fh.write(
            struct.pack(
                "<QqI",
                provenance.config_hash & (2**64 - 1),
                provenance.seed,
                provenance.epoch,
            )
        )


def load_model(path) -> tuple[RbmParams, Provenance]:
    """Read a model file; any defect raises ModelFileError naming the path."""
    path = Path(path)
    if not path.exists():
        raise ModelFileError(f"model file not found: {path}")
    blob = path.read_bytes()
    off = 4 + struct.calcsize("<IBII")
    if len(blob) < off or blob[:4] != MODEL_MAGIC:
        raise ModelFileError(f"{path}: not a model file (bad magic or short header)")
    version, kind_code, n_vis, n_hid = struct.unpack_from("<IBII", blob, 4)
    if version != MODEL_VERSION:
        raise ModelFileError(f"{path}: unsupported format version {version}")
    if kind_code not in _CODE_KINDS:
        raise ModelFileError(f"{path}: unknown hidden kind code {kind_code}")
    n_w = n_vis * n_hid
    # leakiness, W, a and b as float64, then the provenance
    expected = off + 8 * (1 + n_w + n_vis + n_hid) + struct.calcsize("<QqI")
    if len(blob) != expected:
        raise ModelFileError(
            f"{path}: expected {expected} bytes for a {n_vis}x{n_hid} model, "
            f"got {len(blob)}"
        )
    values = np.frombuffer(blob, dtype="<f8", count=1 + n_w + n_vis + n_hid, offset=off)
    config_hash, seed, epoch = struct.unpack_from("<QqI", blob, off + 8 * values.size)
    try:
        params = RbmParams(
            values[1 : 1 + n_w].reshape(n_vis, n_hid),
            values[1 + n_w : 1 + n_w + n_vis],
            values[1 + n_w + n_vis :],
            float(values[0]),
            _CODE_KINDS[kind_code],
        )
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    return params, Provenance(config_hash=config_hash, seed=seed, epoch=epoch)
