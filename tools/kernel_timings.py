"""Median per-call time of the leaky-RBM kernels, at two model sizes.

Run by hand from the repository root:

    python tools/kernel_timings.py [--repeats N]

``tests/test_tools.py`` runs its kernel list at a tiny size, so a change
to a kernel it calls directly fails the test suite.

The sizes are those of ROADMAP aim 1: 64 visible x 16 hidden with 1000
chains (the ais-64 benchmark's larger model) and 784 x 500 with 100 rows
(the train-784 benchmark's).  Each line is the median over N samples of
the mean time of one call, where a sample runs enough calls to last about
5 ms.  One AIS level is the time of an estimate with L levels less that
of an estimate with one level, over L - 1, so it includes the level's
response pass, its log-weight increment and its Gibbs sweep, and leaves
out the base draw.  Beside it, "AIS level draws" times only the two
normal blocks that a leaky level's sweep draws on the span model of W,
(n, J) hidden and (n, min(I, J)) visible: the floor of a level, made on
a helper thread when a chain runs many levels.  BLAS runs on one thread
unless the environment says otherwise, as in ``perfbench/run.py``.
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402  (after the thread settings)

from leaky_rbm import AnnealingPath, RbmParams, ais_estimate, log_unnorm_marginal  # noqa: E402
from leaky_rbm.experiments import random_orthogonal_params  # noqa: E402
from leaky_rbm.partition import quadrature_log_z  # noqa: E402
from leaky_rbm.projection import project_spectral  # noqa: E402
from leaky_rbm.sampler import _draw_base, _sweep, gaussian_base_moments, make_rng  # noqa: E402

SAMPLE_S = 0.005
LEAKINESS = 0.01


def _per_call(fn, repeats: int) -> float:
    """Median over ``repeats`` samples of the mean seconds of one fn() call."""
    start = time.perf_counter()
    fn()
    calls = max(1, int(SAMPLE_S / max(time.perf_counter() - start, 1e-9)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _model(rng, n_visible: int, n_hidden: int, smax: float) -> RbmParams:
    """A random leaky model whose top singular value is ``smax``."""
    W = rng.uniform(-1.0, 1.0, (n_visible, n_hidden))
    W *= smax / np.linalg.svd(W, compute_uv=False)[0]
    return RbmParams.create(W, hidden_bias=rng.uniform(-0.5, 0.5, n_hidden),
                            leakiness=LEAKINESS)


def _ais_level(params, kind: str, n: int, levels: int, repeats: int) -> float:
    """Seconds of one AIS level: (T(levels) - T(1)) / (levels - 1)."""
    def path(n_levels):
        if kind == "leaky":
            return AnnealingPath.leaky(params.leakiness, n_levels)
        return AnnealingPath.energy(n_levels)

    rng = make_rng(1)
    long_path, short_path = path(levels), path(1)
    t_long = _per_call(lambda: ais_estimate(params, long_path, n, rng), repeats)
    t_short = _per_call(lambda: ais_estimate(params, short_path, n, rng), repeats)
    return (t_long - t_short) / (levels - 1)


def _rows(n_visible: int, n_hidden: int, n: int, ais_levels: int, repeats: int):
    """(kernel, seconds per call) at one size."""
    rng = make_rng(0)
    params = _model(rng, n_visible, n_hidden, 0.95)
    W, a, b = params.weights, params.visible_bias, params.hidden_bias
    v = rng.standard_normal((n, n_visible))
    eta = v @ W + b
    mean, chol_prec = gaussian_base_moments(params)
    inside = _model(rng, n_visible, n_hidden, 0.9).weights
    outside = _model(rng, n_visible, n_hidden, 1.2).weights
    g = make_rng(2)
    return [
        ("_sweep (leaky)", _per_call(lambda: _sweep(eta, W.T, a, LEAKINESS, g), repeats)),
        ("_sweep (Bernoulli)", _per_call(lambda: _sweep(eta, W.T, a, None, g), repeats)),
        ("AIS level (leaky path)", _ais_level(params, "leaky", n, ais_levels, repeats)),
        ("AIS level (energy path)", _ais_level(params, "energy", n, ais_levels, repeats)),
        ("AIS level draws (leaky path)", _per_call(
            lambda: (g.standard_normal((n, n_hidden)),
                     g.standard_normal((n, min(n_visible, n_hidden)))), repeats)),
        ("log_unnorm_marginal", _per_call(lambda: log_unnorm_marginal(params, v), repeats)),
        ("_draw_base", _per_call(lambda: _draw_base(mean, chol_prec, n, g), repeats)),
        ("project_spectral (certifies)", _per_call(lambda: project_spectral(inside), repeats)),
        ("project_spectral (clips)", _per_call(lambda: project_spectral(outside), repeats)),
    ]


def _quadrature_rows(repeats: int):
    """The 2-D oracle on the first two oracle models of the ais-64 benchmark."""
    for n_hidden, leakiness in ((1, 0.01), (2, 0.1)):
        params = random_orthogonal_params(2, n_hidden, leakiness,
                                          np.random.default_rng([0, 2, n_hidden]),
                                          norm_range=(0.5, 0.9))
        seconds = _per_call(lambda: quadrature_log_z(params, tolerance=1e-7), repeats)
        yield f"2x{n_hidden}, c {leakiness}", seconds


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15, help="samples per kernel")
    args = parser.parse_args(argv)
    sizes = [("64x16, 1000 chains", (64, 16, 1000, 21)),
             ("784x500, 100 rows", (784, 500, 100, 6))]
    print("| kernel | size | ms per call |")
    print("|---|---|---|")
    for label, (n_visible, n_hidden, n, ais_levels) in sizes:
        for name, seconds in _rows(n_visible, n_hidden, n, ais_levels, args.repeats):
            print(f"| {name} | {label} | {seconds * 1e3:.4g} |", flush=True)
    for label, seconds in _quadrature_rows(args.repeats):
        print(f"| quadrature_log_z (tolerance 1e-7) | {label} | {seconds * 1e3:.4g} |")


if __name__ == "__main__":
    main()
