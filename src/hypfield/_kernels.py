"""The Green's-function kernel: G_plus and the Neumann image sums, in numpy.

This is the package's only kernel; greens.py calls it for every
evaluation.  Each kernel takes the model as one `greens.ModelParams`
argument `mp` and reads delta_plus, gamma_plus and gplus_interp from it.

Production path.  `gplus_array` calls `mp.gplus_interp`, the
`GplusInterpolant` built once per model in `ModelParams.__init__`.  It
holds e^(Delta rho) G_plus with t = e^(-rho), s = t^2, u = 1 - s in four
pieces, fitted through 82 nodes:

    tail      s in [0, 1e-3]          degree 5 in s      rho >= 3.45
    far       s in [1e-3, 0.36]       degree 14 in s     0.51 <= rho < 3.45
    near      t in [0.6, sqrt(0.9)]   degree 60 in t     0.0527 <= rho < 0.51
    diagonal  u in (0, U_DIAG]        A(u) - B(u) ln u   rho < 0.0527

The tail and far pieces are power series in s, evaluated by an in-place
Horner loop; the near piece is a Chebyshev series.  The diagonal piece
is the reference's own log form, so G_plus keeps its exact
-ln(rho)/(2 pi) singularity.

Cosh entry.  `GplusInterpolant.from_cosh` evaluates G_plus from
c = cosh rho, the Lorentz product the image sums compute, without
arccosh or exp: t = 1/(c + sqrt((c - 1)(c + 1))), s = t^2 and, on the
diagonal piece, u = 2 t sqrt((c - 1)(c + 1)).  It goes through the same
pieces as `gplus_array`.

Image sums.  `image_sum_block` and `image_sum_self` drop, before they
scan, every image that no pair of their points can reach (a triangle
inequality about the points' Lorentz mean, exact for any set of
images); `image_sum_block` then drops, per column, the images out of
reach of every row, and a same-set block sums only its pairs i < j and
mirrors them.  Each call logs at DEBUG on the `hypfield._kernels`
logger its points, the images passed in, the images kept by the reach
test, for a block the (pair, image) products scanned after the
per-column reach, the (pair, image) terms summed and its seconds.

Reference and build path.  `gplus_series` computes the node values and
is the oracle the tests compare the interpolant against:
G_plus = gamma t^Delta F(Delta, 1/2; Delta + 1/2; s), by the Gauss
series, every term positive, where u > U_DIAG, and by the c = a + b log
form of `log_case_coef` (DLMF 15.8.10) where u <= U_DIAG.
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
# where t = 0.6 is rho = 0.51; the far piece is fitted in s = t^2
_TAIL_PIECE = (0.0, 1e-3, 5)
_FAR_PIECE = (math.sqrt(_TAIL_PIECE[1]), 0.6, 14)
_NEAR_PIECE = (0.6, math.sqrt(1.0 - U_DIAG), 60)
# cosh rho at the tail piece's edge s = e^(-2 rho) = 1e-3
_TAIL_COSH = 0.5 * (_TAIL_PIECE[1] ** -0.5 + _TAIL_PIECE[1] ** 0.5)
INTERP_RTOL = 2e-13
# values per block of `GplusInterpolant.from_cosh`: 64 KB arrays, so its
# temporaries stay in cache (on one core, 11 ns a value at 8k-16k values
# against 29 ns at 128k)
_TERM_BLOCK = 8192

logger = logging.getLogger(__name__)


def hyp2f1_series(a, b, c, z, maxiter=_SERIES_MAXITER):
    """Plain Gauss series with term-ratio stopping; scalar, |z| < 1."""
    if z == 0.0:
        return 1.0
    term = 1.0
    total = 1.0
    for k in range(maxiter):
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        term *= ratio
        total += term
        if abs(term) <= _SERIES_TOL * abs(total) and abs(ratio) < 1.0:
            return total
    raise PrecisionLossError(
        f"2F1 series did not converge within {maxiter} terms (z={z})", partial=total
    )


def _series_vec(a, b, c, z):
    """Vectorized Gauss series; shrinks the working set as entries converge."""
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    idx = np.arange(z.size)
    zw, tw, sw = z.ravel().copy(), term.ravel(), total.ravel()
    work = idx
    k = 0
    while work.size and k < _SERIES_MAXITER:
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0)) * zw[work]
        tw[work] *= ratio
        sw[work] += tw[work]
        k += 1
        still = (np.abs(tw[work]) > _SERIES_TOL * np.abs(sw[work])) | (np.abs(ratio) >= 1.0)
        work = work[still]
    if work.size:
        raise PrecisionLossError(
            f"2F1 series did not converge within {_SERIES_MAXITER} terms",
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
    """sum_k coef[k] x^k at an array x (two or more coefficients), by an
    in-place Horner loop."""
    out = np.multiply(x, coef[-1])
    out += coef[-2]
    for c in coef[-3::-1]:
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
    f = np.empty_like(rho)
    far = u > U_DIAG
    f[far] = _series_vec(mp.delta_plus, 0.5, mp.delta_plus + 0.5, np.exp(-2.0 * rho[far]))
    f[~far] = log_form(log_case_coef(mp.delta_plus, 0.5, U_DIAG), u[~far])
    return scale * f


class GplusInterpolant:
    """e^(Delta rho) G_plus by four pieces, all rho > 0.

    The function is gamma F(Delta, 1/2; Delta + 1/2; s), analytic in
    s = t^2 = e^(-2 rho) on [0, 1) but for the log singularity at the
    diagonal s = 1.  Its Taylor coefficients in s are of order one, so
    polynomials in s hold it to rounding away from the diagonal: the tail
    piece at degree 5 on s <= 1e-3, where image sums spend almost all
    their terms, and the far piece at degree 14 on s <= 0.36, both
    interpolants held as power series and evaluated by `_horner`.  The
    near piece is a Chebyshev series in t (as a polynomial in s it loses
    digits next to the diagonal); it ends at u = 1 - s = U_DIAG, where the
    diagonal piece, `gplus_series`' own log form, takes over.  The node
    values come from `gplus_series`.  The build compares the interpolant
    with the series midway between consecutive nodes of each fitted
    piece and raises PrecisionLossError when the largest relative error
    exceeds INTERP_RTOL.

    `__call__` takes rho; `from_cosh` takes c = cosh rho and reaches the
    same pieces without arccosh or exp.
    """

    def __init__(self, mp):
        self.delta = mp.delta_plus
        self.log_coef = [mp.gamma_plus * c for c in log_case_coef(self.delta, 0.5, U_DIAG)]
        # each fitted piece's domain in its variable: s = e^(-2 rho) for
        # the tail and far pieces, t = e^(-rho) for the near piece
        fits = (
            (_TAIL_PIECE[:2], _TAIL_PIECE[2], 2.0),
            ((_TAIL_PIECE[1], _FAR_PIECE[1] ** 2), _FAR_PIECE[2], 2.0),
            (_NEAR_PIECE[:2], _NEAR_PIECE[2], 1.0),
        )
        nodes = [
            polyutils.mapdomain(chebyshev.chebpts1(deg + 1), (-1.0, 1.0), dom)
            for dom, deg, _ in fits
        ]
        mids = [0.5 * (x[:-1] + x[1:]) for x in nodes]
        powers = [p for _, _, p in fits]
        # one series call for every point: its cost is set by the slowest
        # converging point, next to u = U_DIAG, not by the number of points
        rho = np.concatenate([-np.log(x) / p for x, p in zip(nodes + mids, powers * 2)])
        series = gplus_series(rho, mp)
        self.nodes = sum(len(x) for x in nodes)
        scaled = series[: self.nodes] * np.exp(self.delta * rho[: self.nodes])
        # a degree-deg fit through deg + 1 points is the interpolant
        tail, far, self.near = (
            Chebyshev.fit(x, y, deg, domain=dom)
            for x, y, (dom, deg, _) in zip(
                nodes, np.split(scaled, np.cumsum([len(x) for x in nodes[:-1]])), fits
            )
        )
        self.tail_coef = tail.convert(kind=Polynomial).coef
        self.far_coef = far.convert(kind=Polynomial).coef
        check = slice(self.nodes, None)
        self.max_rel_err = float(np.max(np.abs(self(rho[check]) / series[check] - 1.0)))
        if not self.max_rel_err <= INTERP_RTOL:
            raise PrecisionLossError(
                f"G_plus interpolant for m2={mp.m2} misses the series by "
                f"{self.max_rel_err:.2e} relative (limit {INTERP_RTOL:.0e}); "
                f"a mass this large needs more interpolation nodes"
            )

    def tail(self, s):
        """The tail piece at an array of s = e^(-2 rho)."""
        return _horner(self.tail_coef, s)

    def far(self, t):
        """The far piece at t = e^(-rho) (a float or an array)."""
        return _horner(self.far_coef, np.square(t))

    def diagonal(self, u):
        """gamma (A(u) - B(u) ln u) at an array of u = 1 - e^(-2 rho) <= U_DIAG."""
        return log_form(self.log_coef, u)

    def _past_tail(self, t, s, diag_u):
        """e^(Delta rho) G_plus at arrays t = e^(-rho) and s = t^2 > 1e-3,
        by the far, near and diagonal pieces; diag_u(sel) gives u = 1 - s
        at the points sel of the diagonal piece."""
        out = np.empty_like(t)
        far = t <= _FAR_PIECE[1]
        diag = t > _NEAR_PIECE[1]
        near = ~(far | diag)
        out[far] = _horner(self.far_coef, s[far])
        if near.any():
            out[near] = self.near(t[near])
        if diag.any():
            out[diag] = self.diagonal(diag_u(diag))
        return out

    def __call__(self, rho):
        """G_plus at an array of distances rho > 0."""
        t = np.exp(-rho)
        s = t * t
        out = self.tail(s)
        rest = np.flatnonzero(s > _TAIL_PIECE[1])
        if rest.size:
            out[rest] = self._past_tail(
                t[rest], s[rest], lambda sel: -np.expm1(-2.0 * rho[rest[sel]])
            )
        out *= t**self.delta
        return out

    def from_cosh(self, c):
        """G_plus at an array of c = cosh rho; inf at c <= 1, a coincident point.

        t = 1 / (c + sinh rho), sinh rho = sqrt((c - 1)(c + 1)), and on the
        diagonal piece u = 1 - t^2 = 2 t sinh rho, which keeps its digits
        next to c = 1.  The tail piece runs on every point, over blocks
        of `_TERM_BLOCK` values so that its temporaries stay in cache.
        The points past it (in an image sum, the few images next to a
        point) are then overwritten, one call per piece.
        """
        out = np.empty_like(c)
        for lo in range(0, len(c), _TERM_BLOCK):
            t, _ = _t_sinh(c[lo : lo + _TERM_BLOCK])
            np.multiply(self.tail(t * t), np.power(t, self.delta, out=t), out=out[lo : lo + _TERM_BLOCK])
        rest = np.flatnonzero(c < _TAIL_COSH)
        if rest.size:
            t, sinh = _t_sinh(c[rest])
            with np.errstate(divide="ignore"):  # ln 0 at a coincident point
                vals = self._past_tail(t, t * t, lambda sel: 2.0 * t[sel] * sinh[sel])
            out[rest] = vals * t**self.delta
        return out


def _t_sinh(c):
    """(t, sinh rho) at an array of c = cosh rho, t = e^(-rho); c below 1
    (rounding at a coincident point) counts as 1."""
    sinh = np.subtract(c, 1.0)
    np.maximum(sinh, 0.0, out=sinh)
    sinh *= c + 1.0
    np.sqrt(sinh, out=sinh)
    t = np.add(c, sinh)
    np.reciprocal(t, out=t)
    return t, sinh


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


def _row_sums(vals, counts):
    """Sums of the consecutive runs of vals of lengths counts; 0 for an empty run."""
    sums = np.zeros(len(counts))
    hit = counts > 0
    if hit.any():
        sums[hit] = np.add.reduceat(vals, (np.cumsum(counts) - counts)[hit])
    return sums


def image_sum_block(xs, ys, mats, rmax, mp):
    """S[i, j] = sum over images gamma(y_j) within distance rmax of x_i of G_plus.

    A coincident image (rho = 0) contributes inf, the diagonal singularity.

    Images that no pair can reach are dropped first (`_within_reach`):
    with c the Lorentz mean of all the points, an image gamma is kept
    when rho(c, gamma c) <= rmax + max_i rho(c, x_i) + max_j rho(c, y_j).
    Then each column j scans only the kept images with rho(c_x, gamma y_j)
    <= rmax + max_i rho(c_x, x_i), c_x the Lorentz mean of the xs.  By
    the triangle inequality neither cut loses a term, for any `mats`.
    The terms are G_plus of cosh rho (`GplusInterpolant.from_cosh`),
    summed row by row.

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
    cx = normalize(xs.sum(axis=0))
    column_reach = math.cosh(rmax + _max_dist(cx, xs) + 1e-9)
    neg_eta_cx = cx * -ETA_DIAG
    n, m = xs.shape[0], ys.shape[0]
    out = np.zeros((n, m))
    neg_eta_x = xs * -ETA_DIAG
    buf = np.empty(n * len(kept))  # the products of every column, reused
    scanned = terms = 0
    for j in range(1 if same else 0, m):  # a same-set j = 0 has no pair i < j
        rows = j if same else n
        imgs = _images(kept, ys[j])
        imgs = imgs[imgs @ neg_eta_cx <= column_reach]
        # one matrix-vector product per row: a threaded BLAS runs the
        # (rows, 3) x (3, K) product an order of magnitude slower
        coshes = buf[: rows * len(imgs)].reshape(rows, len(imgs))
        for i in range(rows):
            np.dot(imgs, neg_eta_x[i], out=coshes[i])
        sel = coshes <= cosh_max
        # the kept terms row after row (np.compress outruns coshes[sel])
        c = np.compress(sel.ravel(), coshes.ravel())
        if c.size:
            out[:rows, j] = _row_sums(mp.gplus_interp.from_cosh(c), np.count_nonzero(sel, axis=1))
        scanned += coshes.size
        terms += c.size
    if same:
        lower = np.tril_indices(n, -1)
        out[lower] = out.T[lower]
        np.fill_diagonal(out, np.inf)
    logger.debug(
        "image_sum_block %dx%d points, %d pairs, %d images passed, %d kept by reach, "
        "%d products scanned, %d terms summed, %.4f s",
        n, m, n * (n - 1) // 2 if same else n * m, len(mats), len(kept), scanned, terms,
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
        # identity (and any fixed-point) images: cosh - 1 below the fp noise
        # floor of the Lorentz product, which scales like x3^2
        skip = 1.0 + max(1e-12, 1e-13 * x[2] * x[2])
        c = coshes[(coshes > skip) & (coshes <= cosh_max)]
        if not c.size:
            continue
        sums[i] = mp.gplus_interp.from_cosh(c).sum()
        nearest[i] = np.arccosh(c.min())
        terms += c.size
    logger.debug(
        "image_sum_self %d points, %d images passed, %d kept by reach, %d terms summed, %.4f s",
        n, len(mats), len(kept), terms, time.perf_counter() - t_start,
    )
    return sums, nearest
