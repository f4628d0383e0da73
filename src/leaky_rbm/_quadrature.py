"""The region-by-region quadrature behind ``partition.quadrature_log_z``.

A module of its own because only this oracle needs scipy's QUADPACK and
its special functions ``erfcx`` and ``log_ndtr``.  It loads their two
compiled extensions alone (``projection._scipy_extension``), not the
scipy.integrate and scipy.special packages, which import hundreds of
modules more.  ``quadrature_log_z`` imports it on first use, so importing
the package (and every CLI command but the oracle checks) loads neither.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DivergentIntegralError
from .model import branch_slopes, region_precision
from .partition import LOG_2PI
from .projection import _scipy_extension

_quadpack = _scipy_extension("scipy.integrate._quadpack", "QUADPACK")
# the ufuncs that scipy.special exports under these names
_ufuncs = _scipy_extension("scipy.special._special_ufuncs", "special-function")
erfcx, log_ndtr = _ufuncs.erfcx, _ufuncs.log_ndtr

_DIVERGES = "unnormalized marginal diverges along a ray (asymptotic precision {:.3e})"


def _quad(f, lo, hi, epsrel) -> float:
    """``scipy.integrate.quad(f, lo, hi, epsabs=0.0, epsrel=epsrel)[0]`` for
    lo < hi, bit for bit, on QUADPACK's extension alone.

    For these arguments scipy 1.17's ``quad`` calls qagse on a finite
    interval and qagie, with the finite end and which ends are infinite,
    otherwise; both with no args, no full output and 50 subintervals.  When
    QUADPACK reports a problem (ier != 0) the call is made again through
    ``quad`` itself, which returns the same value and warns or raises as
    it always has.
    """
    if math.isinf(lo) and math.isinf(hi):
        val, _err, ier = _quadpack._qagie(f, 0, 2, (), 0, 0.0, epsrel, 50)
    elif math.isinf(hi):
        val, _err, ier = _quadpack._qagie(f, lo, 1, (), 0, 0.0, epsrel, 50)
    elif math.isinf(lo):
        val, _err, ier = _quadpack._qagie(f, hi, -1, (), 0, 0.0, epsrel, 50)
    else:
        val, _err, ier = _quadpack._qagse(f, lo, hi, (), 0, 0.0, epsrel, 50)
    if ier != 0:
        from scipy import integrate

        val = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=epsrel)[0]
    return val


def _log_gauss_piece(q, l, k, lo, hi, epsrel) -> float:
    """log of the integral of exp(-q t^2/2 + l t + k) over lo < t < hi."""
    if q <= 1e-12:
        if math.isinf(lo) or math.isinf(hi):
            # a flat quadratic term (|q| this small is a rounded 0): the piece
            # is finite only on a half-line towards which l t + k falls, and
            # e^{k + l lo} / (-l) holds it to epsrel only while q t^2 / 2 stays
            # below epsrel where its mass lies, within a few 1/|l| of lo
            if math.isinf(lo):  # mirror onto the right
                lo, hi, l = -hi, -lo, -l
            if (math.isinf(lo) or l >= 0.0 or q < -1e-12
                    or abs(q) * (abs(lo) + 2.0 / -l) ** 2 > 2.0 * epsrel):
                raise DivergentIntegralError(_DIVERGES.format(q))
            return k + l * lo - math.log(-l)
        # flat or convex, as only a bounded piece outside the feasible set
        # can be: the exponent peaks at an end
        g = lambda t: (l - 0.5 * q * t) * t + k
        top = max(g(lo), g(hi))
        return top + math.log(_quad(lambda t: math.exp(g(t) - top), lo, hi, epsrel))
    mu = l / q
    if hi <= mu:  # mirror a piece left of the mean onto the right
        lo, hi, l, mu = -hi, -lo, -l, -mu
    z_lo, z_hi = math.sqrt(q) * (lo - mu), math.sqrt(q) * (hi - mu)
    if z_lo < 0.0:  # the piece holds the mean
        base, top, low = k + 0.5 * l * mu, log_ndtr(z_hi), log_ndtr(z_lo)
    else:  # upper tails anchored at lo: log Q(z) + z^2/2 cancels nothing
        base = (l - 0.5 * q * lo) * lo + k
        top = math.log(0.5 * erfcx(z_lo / math.sqrt(2.0)))
        low = log_ndtr(-z_hi) + 0.5 * z_lo * z_lo
    # log(1 - exp(low - top)); a piece too narrow to resolve holds nothing
    rest = math.log(-math.expm1(low - top)) if low < top else -math.inf
    return base + 0.5 * (LOG_2PI - math.log(q)) + top + rest


def _line_log_integral(p, r, k0, c, epsrel) -> float:
    """log of the integral over t of exp(k0 - t^2/2 + sum_j f(p_j t + r_j)).

    f(eta) = alpha eta^2 / 2 with alpha = 1 for eta > 0 and c otherwise.
    Between the zeros t = -r_j / p_j every alpha_j is fixed, so each piece
    is one Gaussian integral in closed form.
    """
    cuts = sorted((-rj / pj, j) for j, (pj, rj) in enumerate(zip(p, r)) if pj != 0.0)
    # as t -> -inf, eta_j > 0 iff p_j < 0; a flat eta_j keeps the sign of r_j
    alpha = [1.0 if pj < 0.0 or (pj == 0.0 and rj > 0.0) else c for pj, rj in zip(p, r)]
    edges = [-math.inf, *(t for t, _ in cuts), math.inf]
    logs = []
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        if hi > lo:
            q = 1.0 - sum(a * pj * pj for a, pj in zip(alpha, p))
            l = sum(a * pj * rj for a, pj, rj in zip(alpha, p, r))
            k = k0 + 0.5 * sum(a * rj * rj for a, rj in zip(alpha, r))
            logs.append(_log_gauss_piece(q, l, k, lo, hi, epsrel))
        if i < len(cuts):  # past its zero a unit switches branch
            j = cuts[i][1]
            alpha[j] = c if alpha[j] == 1.0 else 1.0
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def _check_sectors(W: np.ndarray, c: float, rays: np.ndarray) -> None:
    """Raise unless the 2-D marginal decays along every ray.

    The sorted ``rays``, the angles where some w_j . u = 0, cut the circle
    into arcs of at most pi.  On each the pattern alpha of large |v| is
    fixed and -2 log p* grows like r^2 u^T Omega_alpha u, which over the
    arc is smallest at an end or at an eigenvector of Omega_alpha inside.
    """
    ends = np.append(rays, rays[:1] + 2.0 * np.pi)
    lo, hi = ends[:-1][np.diff(ends) > 0.0], ends[1:][np.diff(ends) > 0.0]
    unit = lambda theta: np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    omega = region_precision(W, branch_slopes(unit((lo + hi) / 2) @ W, c))
    form = lambda theta: np.einsum("ni,nij,nj->n", unit(theta), omega, unit(theta))
    vals, vecs = np.linalg.eigh(omega)
    inside = np.mod(np.arctan2(vecs[:, 1, 0], vecs[:, 0, 0]) - lo, np.pi) < hi - lo
    worst = np.concatenate([form(lo), form(hi), vals[inside, 0]]).min(initial=np.inf)
    if worst <= 1e-12:
        raise DivergentIntegralError(_DIVERGES.format(worst))


def _plane_log_z(W: np.ndarray, b: np.ndarray, c: float, epsrel: float) -> float:
    """log Z for I = 2 and a = 0: exact y-integrals, one ``quad`` per x-interval."""
    # directions (-w_j1, w_j0) of the lines eta_j = 0, modulo pi
    psi = np.sort(np.mod(np.arctan2(W[0], -W[1])[np.any(W, axis=0)], np.pi))
    _check_sectors(W, c, np.append(psi, psi + np.pi))
    # integrate y along the direction farthest from every line, so that no
    # line sweeps through the columns as x moves; turning v and W together
    # leaves Z unchanged
    gaps = np.diff(np.append(psi, psi[:1] + np.pi))
    theta = psi[np.argmax(gaps)] + gaps.max() / 2 if psi.size else np.pi / 2
    W = np.array([[np.sin(theta), -np.cos(theta)], [np.cos(theta), np.sin(theta)]]) @ W
    (w0, w1), bs = W.tolist(), b.tolist()
    log_column = lambda x: _line_log_integral(  # log of the y-integral at x
        w1, [u * x + v for u, v in zip(w0, bs)], -0.5 * x * x, c, epsrel
    )
    # no line is vertical now: a column's pattern changes where two cross
    i, j = np.triu_indices(len(bs), 1)
    det = W[0, i] * W[1, j] - W[0, j] * W[1, i]
    i, j, det = i[det != 0.0], j[det != 0.0], det[det != 0.0]
    kinks = set(((b[j] * W[1, i] - b[i] * W[1, j]) / det).tolist())
    # every region meets a column between kinks, in one piece of its cut;
    # the local maxima of p* are means of positive-definite region Gaussians
    inside = lambda t: (  # a point in each piece of a line cut at sorted t
        [t[0] - 1, *((s + u) / 2 for s, u in zip(t, t[1:])), t[-1] + 1] if t else [0])
    pts = [(x, y) for x in inside(sorted(kinks))
           for y in inside(sorted(-(u * x + v) / s for u, s, v in zip(w0, w1, bs) if s))]
    alpha = np.unique(branch_slopes(np.array(pts) @ W + b, c), axis=0)
    omega = region_precision(W, alpha)
    pd = np.linalg.eigvalsh(omega)[:, 0] > 0.0
    omega, rhs = omega[pd], (alpha[pd] * b) @ W.T
    peaks = np.linalg.solve(omega, rhs[..., None])[:, 0, 0].tolist()
    # 40 marginal sds past every peak the mass is nil; splitting there keeps
    # quad's first nodes from stepping over a peak
    reach = 40.0 * np.sqrt(omega[:, 1, 1] / np.linalg.det(omega)).max(initial=1.0)
    edges = sorted(kinks.union(*({m - reach, m, m + reach} for m in peaks)))
    shift = max(map(log_column, edges or [0.0]))
    column = lambda x: math.exp(log_column(x) - shift)
    bounds = [-math.inf, *edges, math.inf]
    parts = [_quad(column, lo, hi, epsrel) for lo, hi in zip(bounds, bounds[1:])]
    return shift + math.log(sum(parts))
