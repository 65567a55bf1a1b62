"""The Green's-function kernel: G_plus and the Neumann image sums, in numpy.

This is the package's only kernel; greens.py calls it for every
evaluation.  Each kernel takes the model as one `greens.ModelParams`
argument `mp` and reads delta_plus, hyp_b, hyp_c, gamma_plus,
splice_const, d and gplus_interp from it.

Production path.  `gplus_array` evaluates G_plus for rho >= SPLICE_RHO
from `GplusInterpolant`: e^(Delta rho) G_plus as two Chebyshev series in
t = e^(-rho) on [0, e^(-SPLICE_RHO)], built once per model in
`ModelParams.__init__`.  Below SPLICE_RHO it calls `gplus_series`.

Reference and build path.  `gplus_series` sums the Gauss series in
four argument regimes; it computes the interpolant's node values and is
the oracle the tests compare the interpolant against:

    rho >= 2                 direct series at  z = -1/sinh^2(rho/2)   (alternating)
    1.0986 <= rho < 2        Pfaff-mapped series at z = sech^2(rho/2)
    rho < 1.0986             quadratic-transformation series at z = sech^2(rho)
                             (for d = 2 down to SPLICE_RHO only)
    rho < SPLICE_RHO         matched logarithmic form (d = 2 only)

The hypergeometric parameters are a = Delta, b = Delta + (2-d)/2,
c = 2*Delta + 2 - d; c = 2b holds for every d, which is what makes the
quadratic transformation applicable.
"""

import math

import numpy as np
from numpy.polynomial import Chebyshev, chebyshev, polyutils

from .errors import PrecisionLossError
from .geometry import ETA_DIAG

RHO_DIRECT = 2.0
RHO_PFAFF = 2.0 * math.acosh(1.0 / math.sqrt(0.75))  # series argument 0.75
SPLICE_RHO = 0.05
_SERIES_TOL = 5e-16
_SERIES_MAXITER = 200000
# interpolant pieces (t_lo, t_hi, degree) in t = e^-rho; t = 0.6 is rho = 0.51
_FAR_PIECE = (0.0, 0.6, 30)
_NEAR_PIECE = (0.6, math.exp(-SPLICE_RHO), 60)
INTERP_RTOL = 2e-13


def hyp2f1_series(a, b, c, z, tol=_SERIES_TOL, maxiter=_SERIES_MAXITER):
    """Plain Gauss series with term-ratio stopping; scalar, |z| < 1."""
    if z == 0.0:
        return 1.0
    term = 1.0
    total = 1.0
    for k in range(maxiter):
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        term *= ratio
        total += term
        if abs(term) <= tol * abs(total) and abs(ratio) < 1.0:
            return total
    raise PrecisionLossError(
        f"2F1 series did not converge within {maxiter} terms (z={z})", partial=total
    )


def _series_vec(a, b, c, z, tol=_SERIES_TOL, maxiter=_SERIES_MAXITER):
    """Vectorized Gauss series; shrinks the working set as entries converge."""
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    idx = np.arange(z.size)
    zw, tw, sw = z.ravel().copy(), term.ravel(), total.ravel()
    work = idx
    k = 0
    while work.size and k < maxiter:
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * zw[work]
        tw[work] *= ratio
        sw[work] += tw[work]
        k += 1
        still = (np.abs(tw[work]) > tol * np.abs(sw[work])) | (np.abs(ratio) >= 1.0)
        work = work[still]
    if work.size:
        raise PrecisionLossError(
            f"2F1 series did not converge within {maxiter} terms",
            partial=sw.reshape(z.shape),
        )
    return sw.reshape(z.shape)


def gplus_series(rho, mp):
    """Free Green's function by the series regimes (reference path, all rho > 0)."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    out = np.empty_like(rho)
    delta, b, c, gamma = mp.delta_plus, mp.hyp_b, mp.hyp_c, mp.gamma_plus

    lo = rho < SPLICE_RHO if mp.d == 2 else np.zeros(rho.shape, dtype=bool)
    if lo.any():
        # cosh(rho) - 1 = 2 sinh^2(rho/2), stable near zero
        out[lo] = -np.log(2.0 * np.sinh(rho[lo] / 2.0) ** 2) / (4.0 * math.pi) + mp.splice_const

    hi = rho >= RHO_DIRECT
    if hi.any():
        r = rho[hi]
        log_sh = np.where(
            r > 36.0,
            r / 2.0 - math.log(2.0) + np.log1p(-np.exp(-np.minimum(r, 700.0))),
            np.log(np.sinh(np.minimum(r, 36.0) / 2.0)),
        )
        z = -np.exp(-2.0 * log_sh)
        f = _series_vec(delta, b, c, z)
        out[hi] = gamma * np.exp(-delta * (math.log(4.0) + 2.0 * log_sh)) * f

    mid = (~lo) & (~hi) & (rho >= RHO_PFAFF)
    if mid.any():
        w = 1.0 + np.sinh(rho[mid] / 2.0) ** 2
        f = _series_vec(delta, b, c, 1.0 / w)
        out[mid] = gamma * (4.0 * w) ** (-delta) * f

    qd = (~lo) & (~hi) & (~mid)
    if qd.any():
        ch = np.cosh(rho[qd])
        f = _series_vec(delta / 2.0, (delta + 1.0) / 2.0, b + 0.5, 1.0 / ch**2)
        out[qd] = gamma * 2.0 ** (-delta) * ch ** (-delta) * f

    return out


class GplusInterpolant:
    """e^(Delta rho) G_plus as Chebyshev series in t = e^(-rho), rho >= SPLICE_RHO.

    In t the function is analytic on [0, 1): its nearest singularity is
    the diagonal t = 1.  The near piece ends at t = e^(-SPLICE_RHO), 0.049
    short of it, and gets twice the degree of the far piece.  The node
    values come from `gplus_series`.  The build compares the interpolant
    with the series midway between consecutive nodes and raises
    PrecisionLossError when the largest relative error exceeds INTERP_RTOL.
    """

    def __init__(self, mp):
        self.delta = mp.delta_plus
        pieces = (_FAR_PIECE, _NEAR_PIECE)
        nodes = [
            polyutils.mapdomain(chebyshev.chebpts1(deg + 1), (-1.0, 1.0), (lo, hi))
            for lo, hi, deg in pieces
        ]
        mids = [0.5 * (x[:-1] + x[1:]) for x in nodes]
        # one series call for every point: its cost is set by the slowest
        # converging point, next to t = 1, not by the number of points
        rho = -np.log(np.concatenate(nodes + mids))
        series = gplus_series(rho, mp)
        self.nodes = sum(len(x) for x in nodes)
        scaled = series[: self.nodes] * np.exp(self.delta * rho[: self.nodes])
        # a degree-deg fit through deg + 1 points is the interpolant
        self.far, self.near = (
            Chebyshev.fit(x, y, deg, domain=(lo, hi))
            for x, y, (lo, hi, deg) in zip(nodes, np.split(scaled, [len(nodes[0])]), pieces)
        )
        check = slice(self.nodes, None)
        self.max_rel_err = float(np.max(np.abs(self(rho[check]) / series[check] - 1.0)))
        if not self.max_rel_err <= INTERP_RTOL:
            raise PrecisionLossError(
                f"G_plus interpolant for m2={mp.m2}, d={mp.d} misses the series by "
                f"{self.max_rel_err:.2e} relative (limit {INTERP_RTOL:.0e}); "
                f"a mass this large needs more interpolation nodes"
            )

    def __call__(self, rho):
        """G_plus at an array of distances rho >= SPLICE_RHO."""
        t = np.exp(-rho)
        out = np.empty_like(t)
        near = t >= _NEAR_PIECE[0]
        out[~near] = self.far(t[~near])
        out[near] = self.near(t[near])
        return out * t**self.delta


def gplus_array(rho, mp):
    """Free Green's function on an array of geodesic distances (all > 0).

    rho >= SPLICE_RHO: the model's interpolant; below it `gplus_series`,
    which is the log splice for d = 2 and the series for d > 2.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    below = rho < SPLICE_RHO
    if not below.any():
        return mp.gplus_interp(rho)
    out = np.empty_like(rho)
    out[below] = gplus_series(rho[below], mp)
    out[~below] = mp.gplus_interp(rho[~below])
    return out


def image_sum_block(xs, ys, mats, rmax, mp):
    """S[i, j] = sum over images gamma(y_j) within distance rmax of x_i of G_plus."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    cosh_max = math.cosh(rmax)
    n, m = xs.shape[0], ys.shape[0]
    out = np.zeros((n, m))
    eta_x = xs * ETA_DIAG
    for j in range(m):
        imgs = mats @ ys[j]  # (K, 3)
        coshes = -(eta_x @ imgs.T)  # (n, K)
        np.maximum(coshes, 1.0, out=coshes)
        sel = coshes <= cosh_max
        if not sel.any():
            continue
        rho = np.arccosh(coshes[sel])
        vals = np.zeros_like(rho)
        pos = rho > 0.0
        vals[pos] = gplus_array(rho[pos], mp)
        vals[~pos] = np.inf  # coincident image: diagonal singularity
        acc = np.zeros((n, mats.shape[0]))
        acc[sel] = vals
        out[:, j] = acc.sum(axis=1)
    return out


def image_sum_self(xs, mats, rmax, mp):
    """Per point x: sum of G_plus over non-identity images gamma(x) within rmax.

    Returns (sums, nearest) where nearest[i] is the smallest included
    image distance (the divergence scale as x approaches a tile side).
    """
    xs = np.asarray(xs, dtype=float)
    cosh_max = math.cosh(rmax)
    n = xs.shape[0]
    sums = np.zeros(n)
    nearest = np.full(n, np.inf)
    for i in range(n):
        x = xs[i]
        imgs = mats @ x
        coshes = -(imgs @ (x * ETA_DIAG))
        np.maximum(coshes, 1.0, out=coshes)
        # identity (and any fixed-point) images: cosh - 1 below the fp noise
        # floor of the Lorentz product, which scales like x3^2
        skip = 1.0 + max(1e-12, 1e-13 * x[2] * x[2])
        sel = (coshes > skip) & (coshes <= cosh_max)
        if not sel.any():
            continue
        rho = np.arccosh(coshes[sel])
        sums[i] = gplus_array(rho, mp).sum()
        nearest[i] = rho.min()
    return sums, nearest
