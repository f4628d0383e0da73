"""Smoke tests of the tools under tools/, which call the package directly.

Each tool is loaded by path and runs at a tiny size, so a renamed kernel or
a changed signature or option fails here rather than the next time someone
runs the tool.  A tool sets the BLAS thread variables and sys.path when
imported; both are put back afterwards.
"""
import importlib.util
import math
import os
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _with_tool(name, monkeypatch, run):
    """run(tool) on tools/<name>.py, loaded by path; the environment is put back."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    saved = {var: os.environ.get(var) for var in THREAD_VARS}
    try:
        spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return run(tool)
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
        assert {var: os.environ.get(var) for var in THREAD_VARS} == saved


def test_kernel_timings_runs_at_a_tiny_size(monkeypatch):
    def run(tool):
        monkeypatch.setattr(tool, "SAMPLE_S", 1e-4)
        rows = tool._rows(n_visible=4, n_hidden=3, n=10, ais_levels=3, repeats=1)
        return rows + list(tool._quadrature_rows(repeats=1))

    rows = _with_tool("kernel_timings", monkeypatch, run)
    assert len(rows) == 11
    # an AIS level is a difference of two timings, so only its finiteness is checked
    assert all(isinstance(name, str) and math.isfinite(seconds) for name, seconds in rows)


def test_output_digests_run_at_a_tiny_size(monkeypatch, tmp_path):
    def run(tool):
        rows = []
        for work in (tmp_path / "first", tmp_path / "second"):
            work.mkdir()
            rows.append(tool.estimate_z_digests(work, n_visible=16, particles=4, levels=2)
                        + tool.cli_digests(work, n_rows=40, n_cols=4, hidden=2, epochs=1))
        return rows

    first, second = _with_tool("output_digests", monkeypatch, run)
    # 2 models x 3 seeds x 3 paths, 4 trained models and one sample CSV
    assert len(first) == 18 + 5 == len({name for name, _digest in first})
    assert all(len(digest) == 64 for _name, digest in first)
    assert first == second  # the digests do not depend on the working directory
