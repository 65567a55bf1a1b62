"""The Green's-function kernel: G_plus and the Neumann image sums, in numpy.

This is the package's only kernel; greens.py calls it for every
evaluation.  Each kernel takes the model as one `greens.ModelParams`
argument `mp` and reads delta_plus, gamma_plus, d and gplus_interp
from it.

Production path.  `gplus_array` calls `mp.gplus_interp`, built once per
model in `ModelParams.__init__`: for d = 3 the closed form of
`gplus_series`, for d = 2 a `GplusInterpolant`, which holds
e^(Delta rho) G_plus with t = e^(-rho), s = t^2, u = 1 - s in four pieces:

    tail      s in [0, 1e-3]          degree 5 in s      rho >= 3.45
    far       t in [0, 0.6]           degree 30 in t     0.51 <= rho < 3.45
    near      t in [0.6, sqrt(0.9)]   degree 60 in t     0.0527 <= rho < 0.51
    diagonal  u in (0, U_DIAG]        A(u) - B(u) ln u   rho < 0.0527

The diagonal piece is the reference's own log form, so G_plus keeps its
exact -ln(rho)/(2 pi) singularity.

Image sums.  `image_sum_block` and `image_sum_self` drop, before they
scan, every image that no pair of their points can reach (a triangle
inequality about the points' Lorentz mean, exact for any set of
images), and a same-set block sums only its pairs i < j and mirrors
them.  Each call logs at DEBUG on the `hypfield._kernels` logger its
points, the images passed in, the images kept by the reach test, the
(pair, image) terms summed and its seconds.

Reference and build path.  `gplus_series` computes the node values and
is the oracle the tests compare the interpolant against.  For d = 2,
G_plus = gamma t^Delta F(Delta, 1/2; Delta + 1/2; s): the Gauss series,
every term positive, where u > U_DIAG, and the c = a + b log form of
`log_case_coef` (DLMF 15.8.10) where u <= U_DIAG.  For d = 3,
G_plus = gamma t^Delta / u = e^(-(Delta-1) rho) / (4 pi sinh rho).
"""

import logging
import math
import time

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial, chebyshev, polyutils

from .errors import PrecisionLossError
from .geometry import ETA_DIAG, lorentz_dot, normalize

_SERIES_TOL = 5e-16
_SERIES_MAXITER = 200000
# the log form loses digits to cancellation as u and Delta grow; at
# u = 0.1 it holds 1e-14 up to m2 = 1000
U_DIAG = 0.1
# interpolant pieces (lo, hi, degree): the tail piece in s = e^(-2 rho),
# where s = 1e-3 is rho = 3.45, the far and near pieces in t = e^(-rho),
# where t = 0.6 is rho = 0.51
_TAIL_PIECE = (0.0, 1e-3, 5)
_FAR_PIECE = (0.0, 0.6, 30)
_NEAR_PIECE = (0.6, math.sqrt(1.0 - U_DIAG), 60)
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


def log_case_coef(a, b, umax):
    """Power series (A, B), lowest power first, with F(a, b; a+b; 1-u) = A(u) - B(u) ln u.

    DLMF 15.8.10: B_k = P c_k and A_k = B_k (2 psi(k+1) - psi(a+k) - psi(b+k)), with
    c_k = (a)_k (b)_k / (k!)^2 and P = Gamma(a+b) / (Gamma(a) Gamma(b)), until c_k umax^k <= 1e-17.
    """
    from scipy.special import digamma

    c = [1.0]
    while c[-1] * umax ** (len(c) - 1) > 1e-17:
        k = len(c) - 1
        c.append(c[-1] * (a + k) * (b + k) / (k + 1.0) ** 2)
    k = np.arange(len(c), dtype=float)
    bk = math.gamma(a + b) / (math.gamma(a) * math.gamma(b)) * np.array(c)
    return bk * (2.0 * digamma(k + 1.0) - digamma(a + k) - digamma(b + k)), bk


def _horner(coef, x):
    """sum_k coef[k] x^k at an array x, by an in-place Horner loop."""
    out = np.full_like(x, coef[-1])
    for c in coef[-2::-1]:
        out *= x
        out += c
    return out


def log_form(coef, u):
    """A(u) - B(u) ln u for coef = (A, B) from `log_case_coef`, at u > 0."""
    a_coef, b_coef = coef
    return _horner(a_coef, u) - _horner(b_coef, u) * np.log(u)


def gplus_series(rho, mp):
    """Free Green's function by the reference regimes (all rho > 0)."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    u = -np.expm1(-2.0 * rho)
    # t^Delta rather than e^(-Delta rho): its rounding does not grow with rho
    scale = mp.gamma_plus * np.exp(-rho) ** mp.delta_plus
    if mp.d == 3:
        return scale / u
    f = np.empty_like(rho)
    far = u > U_DIAG
    f[far] = _series_vec(mp.delta_plus, 0.5, mp.delta_plus + 0.5, np.exp(-2.0 * rho[far]))
    f[~far] = log_form(log_case_coef(mp.delta_plus, 0.5, U_DIAG), u[~far])
    return scale * f


class GplusInterpolant:
    """e^(Delta rho) G_plus for d = 2 by four pieces, all rho > 0.

    The function is gamma F(Delta, 1/2; Delta + 1/2; s), analytic in
    s = t^2 = e^(-2 rho) on [0, 1) but for the log singularity at the
    diagonal s = 1.  On s <= 1e-3, where image sums spend almost all
    their terms, its Taylor coefficients in s are of order one, so a
    degree-5 polynomial in s holds it to rounding: the tail piece is that
    interpolant, held as a power series.  The far and near pieces are
    Chebyshev series in t; the near piece ends at u = 1 - s = U_DIAG,
    where the diagonal piece, `gplus_series`' own log form, takes over.
    The node values come from `gplus_series`.  The build compares the
    interpolant with the series midway between consecutive nodes of each
    fitted piece and raises PrecisionLossError when the largest relative
    error exceeds INTERP_RTOL.
    """

    def __init__(self, mp):
        self.delta = mp.delta_plus
        self.log_coef = [mp.gamma_plus * c for c in log_case_coef(self.delta, 0.5, U_DIAG)]
        pieces = (_TAIL_PIECE, _FAR_PIECE, _NEAR_PIECE)
        nodes = [
            polyutils.mapdomain(chebyshev.chebpts1(deg + 1), (-1.0, 1.0), (lo, hi))
            for lo, hi, deg in pieces
        ]
        mids = [0.5 * (x[:-1] + x[1:]) for x in nodes]
        # the tail piece's variable is s = e^(-2 rho), the others' t = e^(-rho)
        powers = (2.0, 1.0, 1.0)
        # one series call for every point: its cost is set by the slowest
        # converging point, next to u = U_DIAG, not by the number of points
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
        """The tail piece at an array of s = e^(-2 rho)."""
        return _horner(self.tail_coef, s)

    def diagonal(self, u):
        """gamma (A(u) - B(u) ln u) at an array of u = 1 - e^(-2 rho) <= U_DIAG."""
        return log_form(self.log_coef, u)

    def __call__(self, rho):
        """G_plus at an array of distances rho > 0."""
        t = np.exp(-rho)
        tail = t <= math.sqrt(_TAIL_PIECE[1])
        if tail.all():  # nearly every call from the image sums
            return self.tail(t * t) * t**self.delta
        out = np.empty_like(t)
        diag = t > _NEAR_PIECE[1]
        for sel, piece in (
            (tail, lambda x: self.tail(x * x)),
            (~tail & (t <= _FAR_PIECE[1]), self.far),
            ((t > _FAR_PIECE[1]) & ~diag, self.near),
        ):
            if sel.any():
                out[sel] = piece(t[sel])
        if diag.any():
            out[diag] = self.diagonal(-np.expm1(-2.0 * rho[diag]))
        return out * t**self.delta


def gplus_array(rho, mp):
    """Free Green's function on an array of geodesic distances (all > 0)."""
    return mp.gplus_interp(np.atleast_1d(np.asarray(rho, dtype=float)))


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
    c = normalize(xs.sum(axis=0) + ys.sum(axis=0))
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

    When xs and ys hold the same points, S[i, i] is inf (the identity
    image coincides), only the pairs i < j are summed and S[j, i] is set
    to S[i, j].  That is exact when `mats` holds gamma^-1 for every
    gamma that brings a pair within rmax, because the terms of S[j, i]
    are those of S[i, j] with gamma replaced by its inverse.  A
    `NeumannTruncation`'s images do, for points of tile 0.
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
    for j in range(1 if same else 0, m):  # a same-set j = 0 has no pair i < j
        rows = j if same else n
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
        np.fill_diagonal(out, np.inf)
    logger.debug(
        "image_sum_block %dx%d points, %d pairs, %d images passed, %d kept by reach, "
        "%d terms summed, %.4f s",
        n, m, n * (n - 1) // 2 if same else n * m, len(mats), len(kept), terms,
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
