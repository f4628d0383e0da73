"""Smoke test of tools/kernel_timings.py, which calls private kernels directly.

The tool is loaded by path and runs its kernel list at a tiny size with one
sample, so a renamed kernel or a changed signature fails here rather than
the next time someone times the kernels.  The tool sets the BLAS thread
variables and sys.path when imported; both are put back afterwards.
"""
import importlib.util
import math
import os
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "kernel_timings.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_kernel_timings_runs_at_a_tiny_size(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    saved = {var: os.environ.get(var) for var in THREAD_VARS}
    try:
        spec = importlib.util.spec_from_file_location("kernel_timings", TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        monkeypatch.setattr(tool, "SAMPLE_S", 1e-4)
        rows = tool._rows(n_visible=4, n_hidden=3, n=10, ais_levels=3, repeats=1)
        rows += list(tool._quadrature_rows(repeats=1))
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    assert {var: os.environ.get(var) for var in THREAD_VARS} == saved
    assert len(rows) == 10
    # an AIS level is a difference of two timings, so only its finiteness is checked
    assert all(isinstance(name, str) and math.isfinite(seconds) for name, seconds in rows)
