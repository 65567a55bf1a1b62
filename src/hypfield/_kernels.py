"""The Green's-function kernel: G_plus and the Neumann image sums, in numpy.

This is the package's only kernel; greens.py calls it for every
evaluation.  Each kernel takes the model as one `greens.ModelParams`
argument `mp` and reads delta_plus, hyp_b, hyp_c, gamma_plus,
splice_const, d and gplus_interp from it.

Production path.  `gplus_array` evaluates G_plus for rho >= SPLICE_RHO
from `GplusInterpolant`, built once per model in `ModelParams.__init__`.
It holds e^(Delta rho) G_plus, an analytic function of s = t^2 with
t = e^(-rho), in three pieces:

    tail   s in [0, 1e-3]              degree 5 in s      rho >= 3.45
    far    t in [0, 0.6]               degree 30 in t     0.51 <= rho < 3.45
    near   t in [0.6, e^-SPLICE_RHO]   degree 60 in t     SPLICE_RHO <= rho < 0.51

The tail piece is a power series evaluated on every point; the far and
near pieces, Chebyshev series, fill in the points it does not cover.
Below SPLICE_RHO `gplus_array` calls `gplus_series`.

Image sums.  `image_sum_block` and `image_sum_self` drop, before they
scan, every image that no pair of their points can reach (a triangle
inequality about the points' Lorentz mean, exact for any set of
images), and a same-set block sums only its pairs i <= j and mirrors
them.  Each call logs at DEBUG on the `hypfield._kernels` logger its
points, the images passed in, the images kept by the reach test, the
(pair, image) terms summed and its seconds.

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

import logging
import math
import time

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial, chebyshev, polyutils

from .errors import PrecisionLossError
from .geometry import ETA_DIAG, lorentz_dot

RHO_DIRECT = 2.0
RHO_PFAFF = 2.0 * math.acosh(1.0 / math.sqrt(0.75))  # series argument 0.75
SPLICE_RHO = 0.05
_SERIES_TOL = 5e-16
_SERIES_MAXITER = 200000
# interpolant pieces (lo, hi, degree): the tail piece in s = e^(-2 rho),
# where s = 1e-3 is rho = 3.45, the far and near pieces in t = e^(-rho),
# where t = 0.6 is rho = 0.51
_TAIL_PIECE = (0.0, 1e-3, 5)
_FAR_PIECE = (0.0, 0.6, 30)
_NEAR_PIECE = (0.6, math.exp(-SPLICE_RHO), 60)
INTERP_RTOL = 2e-13

logger = logging.getLogger(__name__)


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
    """e^(Delta rho) G_plus by piecewise polynomials, rho >= SPLICE_RHO.

    The function is analytic in s = t^2 = e^(-2 rho) on [0, 1): its
    nearest singularity is the diagonal s = 1.  On s <= 1e-3, where image
    sums spend almost all their terms, its Taylor coefficients in s are
    of order one, so a degree-5 polynomial in s holds it to rounding: the
    tail piece is that interpolant, held as a power series.  The far and
    near pieces are Chebyshev series in t; the near piece ends at
    t = e^(-SPLICE_RHO), 0.049 short of the diagonal, and gets twice the
    degree of the far one.
    The node values come from `gplus_series`.  The build compares the
    interpolant with the series midway between consecutive nodes of each
    piece and raises PrecisionLossError when the largest relative error
    exceeds INTERP_RTOL.
    """

    def __init__(self, mp):
        self.delta = mp.delta_plus
        pieces = (_TAIL_PIECE, _FAR_PIECE, _NEAR_PIECE)
        nodes = [
            polyutils.mapdomain(chebyshev.chebpts1(deg + 1), (-1.0, 1.0), (lo, hi))
            for lo, hi, deg in pieces
        ]
        mids = [0.5 * (x[:-1] + x[1:]) for x in nodes]
        # the tail piece's variable is s = e^(-2 rho), the others' t = e^(-rho)
        powers = (2.0, 1.0, 1.0)
        # one series call for every point: its cost is set by the slowest
        # converging point, next to t = 1, not by the number of points
        rho = np.concatenate([-np.log(x) / p for x, p in zip(nodes + mids, powers * 2)])
        series = gplus_series(rho, mp)
        self.nodes = sum(len(x) for x in nodes)
        scaled = series[: self.nodes] * np.exp(self.delta * rho[: self.nodes])
        # a degree-deg fit through deg + 1 points is the interpolant
        tail, self.far, self.near = (
            Chebyshev.fit(x, y, deg, domain=(lo, hi))
            for x, y, (lo, hi, deg) in zip(
                nodes, np.split(scaled, np.cumsum([len(x) for x in nodes[:-1]])), pieces
            )
        )
        self.tail_coef = tail.convert(kind=Polynomial).coef
        check = slice(self.nodes, None)
        self.max_rel_err = float(np.max(np.abs(self(rho[check]) / series[check] - 1.0)))
        if not self.max_rel_err <= INTERP_RTOL:
            raise PrecisionLossError(
                f"G_plus interpolant for m2={mp.m2}, d={mp.d} misses the series by "
                f"{self.max_rel_err:.2e} relative (limit {INTERP_RTOL:.0e}); "
                f"a mass this large needs more interpolation nodes"
            )

    def tail(self, s):
        """The tail piece at an array of s = e^(-2 rho), by Horner's rule."""
        out = np.full_like(s, self.tail_coef[-1])
        for c in self.tail_coef[-2::-1]:
            out *= s
            out += c
        return out

    def __call__(self, rho):
        """G_plus at an array of distances rho >= SPLICE_RHO."""
        t = np.exp(-rho)
        s = t * t
        out = self.tail(s)
        rest = s > _TAIL_PIECE[1]
        if rest.any():
            tr = t[rest]
            near = tr >= _NEAR_PIECE[0]
            vals = np.empty_like(tr)
            vals[~near] = self.far(tr[~near])
            vals[near] = self.near(tr[near])
            out[rest] = vals
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


def _images(mats, y):
    """All g(y) for the rows g of mats, as a (K, 3) array, by one product."""
    return (mats.reshape(-1, 3) @ y).reshape(-1, 3)


def _max_dist(c, pts):
    """Largest distance from c to the rows of pts.

    Uses <x - c, x - c> = 4 sinh^2(rho/2), which keeps its digits where
    acosh of the Lorentz product loses them, at small rho.
    """
    diff = pts - c
    q = np.maximum(lorentz_dot(diff, diff), 0.0)
    return float(2.0 * np.arcsinh(np.sqrt(q.max()) / 2.0))


def _within_reach(mats, xs, ys, rmax):
    """The rows of `mats` that can bring some y_j within rmax of some x_i.

    Let c be the Lorentz mean of all the points.  If rho(x_i, g y_j) <=
    rmax then, g being an isometry, rho(c, g c) <= rho(c, x_i) + rmax +
    rho(y_j, c); so an image g with rho(c, g c) beyond rmax +
    max_i rho(c, x_i) + max_j rho(c, y_j) is reached by no pair.  This
    holds for any set of images.  The 1e-9 slack keeps rounding from
    dropping an image that lies on the cut.
    """
    c = xs.sum(axis=0) + ys.sum(axis=0)
    c = c / math.sqrt(-lorentz_dot(c, c))
    reach = rmax + _max_dist(c, xs) + _max_dist(c, ys) + 1e-9
    coshes = -(_images(mats, c) @ (c * ETA_DIAG))
    return mats[coshes <= math.cosh(reach)]


def image_sum_block(xs, ys, mats, rmax, mp):
    """S[i, j] = sum over images gamma(y_j) within distance rmax of x_i of G_plus.

    A coincident image (rho = 0) contributes inf, the diagonal singularity.

    Images that no pair can reach are dropped first (`_within_reach`):
    with c the Lorentz mean of all the points, an image gamma is kept
    when rho(c, gamma c) <= rmax + max_i rho(c, x_i) + max_j rho(c, y_j).
    By the triangle inequality that loses no term, for any `mats`.

    When xs and ys hold the same points, only the pairs i <= j are summed
    and S[j, i] is set to S[i, j].  That is exact when `mats` holds
    gamma^-1 for every gamma that brings a pair within rmax, because the
    terms of S[j, i] are those of S[i, j] with gamma replaced by its
    inverse.  A `NeumannTruncation`'s images do, for points of tile 0.
    """
    t_start = time.perf_counter()
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    same = xs.shape == ys.shape and np.array_equal(xs, ys)
    kept = _within_reach(mats, xs, ys, rmax)
    cosh_max = math.cosh(rmax)
    n, m = xs.shape[0], ys.shape[0]
    out = np.zeros((n, m))
    neg_eta_x = xs * -ETA_DIAG
    terms = 0
    for j in range(m):
        rows = j + 1 if same else n
        imgs = _images(kept, ys[j])
        # one matrix-vector product per row: a threaded BLAS runs the
        # (rows, 3) x (3, K) product an order of magnitude slower
        coshes = np.empty((rows, len(kept)))
        for i in range(rows):
            np.dot(imgs, neg_eta_x[i], out=coshes[i])
        sel = coshes <= cosh_max
        # coshes[sel] holds the kept terms row after row
        rho = np.arccosh(np.maximum(coshes[sel], 1.0))
        vals = np.full_like(rho, np.inf)  # coincident image: diagonal singularity
        pos = rho > 0.0
        vals[pos] = gplus_array(rho[pos], mp)
        ends = np.cumsum(np.count_nonzero(sel, axis=1))
        out[:rows, j] = [v.sum() for v in np.split(vals, ends[:-1])]
        terms += vals.size
    if same:
        lower = np.tril_indices(n, -1)
        out[lower] = out.T[lower]
    logger.debug(
        "image_sum_block %dx%d points, %d pairs, %d images passed, %d kept by reach, "
        "%d terms summed, %.4f s",
        n, m, n * (n + 1) // 2 if same else n * m, len(mats), len(kept), terms,
        time.perf_counter() - t_start,
    )
    return out


def image_sum_self(xs, mats, rmax, mp):
    """Per point x: sum of G_plus over non-identity images gamma(x) within rmax.

    Returns (sums, nearest) where nearest[i] is the smallest included
    image distance (the divergence scale as x approaches a tile side).
    Images out of reach of every point are dropped first, as in
    `image_sum_block`.
    """
    t_start = time.perf_counter()
    xs = np.asarray(xs, dtype=float)
    kept = _within_reach(mats, xs, xs, rmax)
    cosh_max = math.cosh(rmax)
    n = xs.shape[0]
    sums = np.zeros(n)
    nearest = np.full(n, np.inf)
    terms = 0
    for i in range(n):
        x = xs[i]
        coshes = -(_images(kept, x) @ (x * ETA_DIAG))
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
        terms += rho.size
    logger.debug(
        "image_sum_self %d points, %d images passed, %d kept by reach, %d terms summed, %.4f s",
        n, len(mats), len(kept), terms, time.perf_counter() - t_start,
    )
    return sums, nearest
