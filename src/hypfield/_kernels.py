"""The Green's-function kernel: G_plus and the Neumann image sums, in numpy.

This is the package's only kernel; greens.py calls it for every
evaluation.  Each kernel takes the model as one `greens.ModelParams`
argument `mp` and reads delta_plus, gamma_plus and gplus_interp from it.

Production path.  `gplus_array` calls `mp.gplus_interp`, the
`GplusInterpolant` built once per model in `ModelParams.__init__`.  It
holds G_plus in four pieces, with c = cosh rho, t = e^(-rho), s = t^2,
u = 1 - s and w = 1/c^2, fitted through 82 nodes:

    piece     range                   held                        rho
    tail      s in [0, 1e-3]          c^Delta G, degree 5 in w    rho >= 3.45
    far       s in [1e-3, 0.36]       e^(Delta rho) G, 14 in s    0.51 <= rho < 3.45
    near      t in [0.6, sqrt(0.9)]   e^(Delta rho) G, 60 in t    0.0527 <= rho < 0.51
    diagonal  u in (0, U_DIAG]        A(u) - B(u) ln u            rho < 0.0527

The tail and far pieces are power series, evaluated by an in-place
Horner loop; the near piece is a Chebyshev series.  The diagonal piece
is the reference's own log form, so G_plus keeps its exact
-ln(rho)/(2 pi) singularity.

Cosh entry.  `GplusInterpolant.from_cosh` evaluates G_plus from
c = cosh rho, the Lorentz product the image sums compute, without
arccosh or exp: the tail piece is P(w) c^(-Delta), with no square root;
past it, t = 1/(c + sqrt((c - 1)(c + 1))) and, on the diagonal piece,
u = 2 t sqrt((c - 1)(c + 1)).  `tail_cosh` and `past_tail_cosh` are its
two halves, and `__call__(rho)` goes through the same pieces.

Image sums.  They serve the audits and the oracles; the chain's Neumann
covariance is the Galerkin solve of `galerkin`.  `image_sum_block` and
`image_sum_self` share one loop over columns j, which sums the rows i of
a range per column: every row for a block of two point sets, i <= j for
a same-set block (mirrored after), i = j for the self sums.  An image
that coincides with x_i in every digit, <x_i - gamma y_j, x_i - gamma
y_j> = 0 exactly, is the identity and left out, so a same-set block's
diagonal and the self sums are Delta G = G_N - G_plus.  Before it scans,
the loop drops every image that no pair of the points can reach (a
triangle inequality about their Lorentz mean, exact for any set of
images), puts first the images that can bring a pair within 3.45, the
tail piece's edge, and then drops, per column, the images out of reach
of every row.  It cuts a column's rows into chunks of at most
`_CHUNK_PRODUCTS` products divided by the workers, and of two rows or
more: numpy takes a one-row matrix product through a matrix-vector
routine, whose rounding differs.  A chunk's (rows, images) Lorentz
products are one BLAS matrix product, whose values depend neither on the
chunk's other rows nor on the BLAS thread count, which tests check.  Its
tail-piece terms are compressed into a buffer, evaluated and summed row
by row.  The terms past the tail piece, which only the leading images
give, go into a list, evaluated by one `past_tail_cosh` call whenever it
holds `_PAST_TAIL_TERMS` terms (divided by the workers) and at the end:
the near piece costs about 0.2 ms a call.  For those next to the
diagonal, c - 1 is taken from <x - gamma y, x - gamma y>/2, which keeps
the digits that c - 1 of the rounded Lorentz product loses.  Each call
logs one line at DEBUG on the `hypfield._kernels` logger, under its own
name: its points, pairs, the images passed in, the images kept by the
reach test, the (pair, image) products scanned after the per-column
reach, the (pair, image) terms summed, its workers and its seconds.

Threads.  `_map_blocks` runs block loops on `threads` workers, for the
image-sum blocks here and for the sampling batches and per-cell Wick
loops of `fieldmc`: None means
one worker per core this process may run on, 1 the plain loop in the
calling thread, with no executor.  numpy releases the interpreter lock
inside its ufuncs and matrix products, so the workers run on separate
cores.  The image-sum loop cuts its columns into contiguous runs of
about equal pair count (a same-set column j has j + 1 pairs), when they
average `_POOL_MIN_PRODUCTS` products or more; below that the lock's
hand-offs would cost more than a second core saves.  The self sums, one
pair a column, run on one worker: they would need `_POOL_MIN_PRODUCTS`
images kept, more than the whole 114,990-tile decay ball holds.
In a pass of the benchmark's library workload the domination audit's
block of 50 x 50 points at R = 6 (8,345 images kept, 11.1M products)
goes to the pool, and four rows of 1 x 10 points do not.  More than one
worker needs BLAS held to one thread (OPENBLAS_NUM_THREADS=1 or
OMP_NUM_THREADS=1): left at its default, OpenBLAS starts its own threads
inside each worker's matrix products, and on a 2-core host a pass of the
benchmark's library workload took 0.79 s instead of 0.61 s (medians).

Each run's partial sums and buffers are made in the calling thread, so
that no pool thread's malloc arena keeps them resident.  The result is
byte-identical for any number of workers: a row's products come from
one matrix product with its column's images in any chunk, and each
S[i, j] receives its tail-piece row sum and its past-tail terms once
each, from one worker, and only zeros from that worker's other
past-tail additions.  The runs cannot share one result array: a
past-tail addition adds a bincount over the whole of its run's sums.

Reference and build path.  `gplus_series` computes the node values and
is the oracle the tests compare the interpolant against:
G_plus = gamma t^Delta F(Delta, 1/2; Delta + 1/2; s), by the Gauss
series, every term positive, where u > U_DIAG, and by the c = a + b log
form of `log_case_coef` (DLMF 15.8.10) where u <= U_DIAG.  Its psi
terms come from their recurrence in k, started from the package's own
digamma (`_digamma`), so building a model loads no scipy module.
"""

import logging
import math
import os
import time

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial, chebyshev, polyutils

from .errors import PoleError, PrecisionLossError
from .geometry import ETA_DIAG, lorentz_dot, normalize

_SERIES_TOL = 5e-16
_SERIES_MAXITER = 200000
# Euler's constant, -psi(1), and ln 16, each as the sum of two floats;
# B_2k / (2k) for k = 1..7, the asymptotic series of psi, and the x from
# which it is held to rounding (its next term, B_16 / (16 x^16), is
# 2.4e-20 at x = 16)
_EULER_GAMMA = (0.5772156649015329, -4.942915152430645e-18)
_LN16 = (2.772588722239781, 9.276187255385198e-17)
_PSI_ASYMPTOTIC = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_PSI_ASYMPTOTIC_MIN = 16.0
# the log form loses digits to cancellation as u and Delta grow; at
# u = 0.1 it holds 1e-14 up to m2 = 1000
U_DIAG = 0.1
# interpolant pieces (lo, hi, degree), each listed in t = e^(-rho) or
# s = t^2: the tail piece for s <= 1e-3, that is rho >= 3.45, the far and
# near pieces in t, where t = 0.6 is rho = 0.51; the far piece is fitted
# in s and the tail piece in w = 1/cosh^2 rho
_TAIL_PIECE = (0.0, 1e-3, 5)
_FAR_PIECE = (math.sqrt(_TAIL_PIECE[1]), 0.6, 14)
_NEAR_PIECE = (0.6, math.sqrt(1.0 - U_DIAG), 60)
# cosh rho and w = 1/cosh^2 rho at the tail piece's edge s = e^(-2 rho) = 1e-3
_TAIL_COSH = 0.5 * (_TAIL_PIECE[1] ** -0.5 + _TAIL_PIECE[1] ** 0.5)
_TAIL_W = _TAIL_COSH**-2
_TAIL_RHO = math.acosh(_TAIL_COSH)
# cosh rho at the far piece's edge t = 0.6, raised by a margin over
# rounding: every c that `_past_tail` may give the near or diagonal piece
# lies below it
_NEAR_COSH = 0.5 * (1.0 / _FAR_PIECE[1] + _FAR_PIECE[1]) * (1.0 + 1e-12)
INTERP_RTOL = 2e-13
# values per block of the tail and far pieces: 512 KB arrays, which stay in
# a core's cache and make each ufunc call long next to the interpreter
# lock's hand-offs between workers.  On a 2-core host the tail piece alone
# took 8.8-12.7 ns a value on one thread at any block from 8k to 256k
# values; two threads at once, 9.5-10.3 ns at 8k, 6.5-7.5 at 16k, 5.8-6.4
# at 32k, 5.4-5.8 at 64k and 4.8-6.3 at 128k.
_TERM_BLOCK = 65536
# (pair, image) products of a chunk of an image-sum column, divided among
# the workers.  On a 2-core host the 50 x 50 domination block took 100-125
# ms on one worker from 128k to 1M and, on two, 96 ms at 128k and 74-85 ms
# at 256k and 512k: smaller chunks mean more hand-offs of the lock
_CHUNK_PRODUCTS = 1 << 18
# past-tail terms an image sum gathers before it evaluates them: 1.5 MB of
# cosh values, c - 1 and sum indices, divided among the runs of its loop
_PAST_TAIL_TERMS = 1 << 16
# the least average products a column of an image-sum block for which its
# columns go to more than one worker: below it a column's numpy calls are
# so short that the workers' hand-offs of the interpreter lock cost more
# than the second core saves
_POOL_MIN_PRODUCTS = 1 << 17

logger = logging.getLogger(__name__)


def _worker_count(threads, jobs):
    """Workers for `jobs` independent pieces of work: `threads`, or one
    per core this process may run on when None; at least 1, at most jobs."""
    if threads is None:
        threads = len(os.sched_getaffinity(0))
    return max(1, min(threads, jobs))


def _map_blocks(task, spans, threads, weights=None):
    """Run the block loops of task on consecutive runs of spans, one run
    per worker; returns the number of workers.

    task(run) allocates the scratch of a run once and returns the loop
    over the run's blocks.  It is called in the calling thread, in the
    order of the runs, so the scratch comes from that thread's malloc
    arena, which later allocations reuse; a pool thread's arena would keep
    it resident.  `threads` is as in `_worker_count`, with the spans as
    the jobs.  One worker runs task(spans)() in the calling thread, with
    no executor.  Otherwise the spans are cut into one contiguous,
    non-empty run per worker, of about equal total weight (`weights`,
    integers, one per span; all 1 when None); the calling thread loops
    over the first run and a thread pool over the others, since a pool
    thread's start-up is of the order of a short loop's work.  A loop's
    exception is raised here, after every loop ended.
    """
    spans = list(spans)
    workers = _worker_count(threads, len(spans))
    if workers == 1:
        task(spans)()
        return 1
    from concurrent.futures import ThreadPoolExecutor

    cum = np.cumsum(np.ones(len(spans), dtype=int) if weights is None else weights)
    cuts = [0]
    for w in range(1, workers):
        cut = int(np.searchsorted(cum, cum[-1] * w // workers, side="right"))
        cuts.append(min(max(cut, cuts[-1] + 1), len(spans) - workers + w))
    cuts.append(len(spans))
    loops = [task(spans[a:b]) for a, b in zip(cuts, cuts[1:])]
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        pending = [pool.submit(loop) for loop in loops[1:]]
        loops[0]()
        for future in pending:
            future.result()
    return workers


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


def _digamma(x):
    """psi(x) = Gamma'(x) / Gamma(x) at a real x, to about 3e-16
    absolute where |psi| < 1 and relative above; PoleError at x = 0, -1,
    -2, ...

    For 0 < x < 16 the recurrence psi(x) = psi(y) - sum_(j<n) 1/(x + j)
    lifts x to y = x + n in [16, 17), where the asymptotic series
    ln y - 1/(2y) - sum_(k=1..7) B_2k / (2k y^2k) (DLMF 5.11.2) is held to
    rounding.  y is carried with the rounding error e of x + n, and
    ln(y + e) as ln 16 + ln(1 + (y - 16)/16) + e/y, with ln 16 in two
    parts; the shift and these terms go into one `math.fsum`, so psi keeps
    its digits next to its zero at x = 1.46.  For x <= 0 the reflection
    psi(x) = psi(1 - x) - pi cot(pi x) (DLMF 5.5.4).
    """
    x = float(x)
    if x <= 0.0:
        if x == math.floor(x):
            raise PoleError(f"psi has a pole at x = {x!r}")
        # cot(pi x) has period 1: reduce x to [-1/2, 1/2] first
        return _digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
    n = max(0, math.ceil(_PSI_ASYMPTOTIC_MIN - x))
    terms = [-1.0 / (x + j) for j in range(n)]
    y = x + n
    if n:
        # y + e = x + n exactly (two-sum)
        back = y - x
        e = (x - (y - back)) + (n - back)
        terms += [*_LN16, math.log1p((y - 16.0) / 16.0), e / y]
    else:
        terms.append(math.log(y))
    inv2 = 1.0 / (y * y)
    series = 0.0
    for b in reversed(_PSI_ASYMPTOTIC):
        series = (series + b) * inv2
    return math.fsum(terms + [-0.5 / y, -series])


def log_case_coef(a, b, umax):
    """Power series (A, B), lowest power first, with F(a, b; a+b; 1-u) = A(u) - B(u) ln u.

    DLMF 15.8.10: B_k = P c_k and A_k = B_k D_k, with c_k = (a)_k (b)_k / (k!)^2,
    P = Gamma(a+b) / (Gamma(a) Gamma(b)) and D_k = 2 psi(k+1) - psi(a+k) - psi(b+k),
    until |c_k| umax^k <= 1e-17.  D_k comes from its recurrence
    D_(k+1) = D_k + 2/(k+1) - 1/(a+k) - 1/(b+k), started at
    D_0 = 2 psi(1) - psi(a) - psi(b) (`_digamma`): each D_k is the
    `math.fsum` of D_0's terms and of the first k steps, so it never
    subtracts psi values of size ln k and rounds once.  PoleError when a or
    b is 0, -1, -2, ...
    """
    c = [1.0]
    while abs(c[-1]) * umax ** (len(c) - 1) > 1e-17:
        k = len(c) - 1
        c.append(c[-1] * (a + k) * (b + k) / (k + 1.0) ** 2)
    parts = [-2.0 * _EULER_GAMMA[0], -2.0 * _EULER_GAMMA[1], -_digamma(a), -_digamma(b)]
    head = len(parts)
    k = np.arange(len(c) - 1, dtype=float)
    parts += (2.0 / (k + 1.0) - 1.0 / (a + k) - 1.0 / (b + k)).tolist()
    d = np.array([math.fsum(parts[: head + j]) for j in range(len(c))])
    bk = math.gamma(a + b) / (math.gamma(a) * math.gamma(b)) * np.array(c)
    return bk * d, bk


def _horner(coef, x, out=None):
    """sum_k coef[k] x^k at an array x (two or more coefficients), by an
    in-place Horner loop, into out (a new array if None)."""
    out = np.multiply(x, coef[-1], out=out)
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
    """G_plus by four pieces, all rho > 0.

    e^(Delta rho) G_plus is gamma F(Delta, 1/2; Delta + 1/2; s), analytic
    in s = t^2 = e^(-2 rho) on [0, 1) but for the log singularity at the
    diagonal s = 1.  Its Taylor coefficients in s are of order one, so
    polynomials in s hold it to rounding away from the diagonal: the far
    piece at degree 14 on 1e-3 <= s <= 0.36, held as a power series and
    evaluated by `_horner`.  The near piece is a Chebyshev series in t
    (as a polynomial in s it loses digits next to the diagonal); it ends
    at u = 1 - s = U_DIAG, where the diagonal piece, `gplus_series`' own
    log form, takes over.

    The tail piece, s <= 1e-3, where image sums spend almost all their
    terms, holds c^Delta G_plus = P(w) in w = 1/c^2, c = cosh rho: by the
    Legendre Q_(Delta - 1) series in 1/c^2 (DLMF 14.3.7 with the Gauss
    series), it is analytic in w on [0, 1), and degree 5 holds it to
    rounding on w <= 1/cosh^2(3.45) = 0.004 up to m2 = 1000.  G_plus is
    then P(w) c^(-Delta), from c with no square root.

    The node values come from `gplus_series`.  The build compares the
    interpolant with the series midway between consecutive nodes of each
    fitted piece and raises PrecisionLossError when the largest relative
    error exceeds INTERP_RTOL.

    `__call__` takes rho; `from_cosh` takes c = cosh rho and reaches the
    same pieces without arccosh or exp.
    """

    def __init__(self, mp):
        self.delta = mp.delta_plus
        self.log_coef = [mp.gamma_plus * c for c in log_case_coef(self.delta, 0.5, U_DIAG)]
        # each fitted piece's domain in its variable, its degree and its
        # rho: w = 1/cosh^2 rho for the tail piece, s = e^(-2 rho) for the
        # far piece, t = e^(-rho) for the near piece
        fits = (
            ((0.0, _TAIL_W), _TAIL_PIECE[2], lambda w: np.arccosh(1.0 / np.sqrt(w))),
            ((_TAIL_PIECE[1], _FAR_PIECE[1] ** 2), _FAR_PIECE[2], lambda s: -np.log(s) / 2.0),
            (_NEAR_PIECE[:2], _NEAR_PIECE[2], lambda t: -np.log(t)),
        )
        nodes = [
            polyutils.mapdomain(chebyshev.chebpts1(deg + 1), (-1.0, 1.0), dom)
            for dom, deg, _ in fits
        ]
        mids = [0.5 * (x[:-1] + x[1:]) for x in nodes]
        # one series call for every point: its cost is set by the slowest
        # converging point, next to u = U_DIAG, not by the number of points
        rho = np.concatenate([to_rho(x) for x, (_, _, to_rho) in zip(nodes + mids, fits * 2)])
        series = gplus_series(rho, mp)
        self.nodes = sum(len(x) for x in nodes)
        # c^Delta G_plus at the tail nodes, e^(Delta rho) G_plus at the others
        scaled = series[: self.nodes] * np.exp(self.delta * rho[: self.nodes])
        scaled[: len(nodes[0])] = series[: len(nodes[0])] * nodes[0] ** (-0.5 * self.delta)
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
        """The tail piece as e^(Delta rho) G_plus, like `far` and `near`, at
        an array of s = e^(-2 rho): c t = (1 + s)/2 and w = 4 s / (1 + s)^2,
        so it is P(w) ((1 + s)/2)^(-Delta)."""
        half = 0.5 * (1.0 + s)
        return _horner(self.tail_coef, s / (half * half)) * half**-self.delta

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
        """G_plus at an array of distances rho > 0: the tail piece from
        c = cosh rho, the other pieces from t = e^(-rho)."""
        with np.errstate(over="ignore"):  # cosh rho = inf past rho = 710: G_plus 0
            c = np.cosh(rho)
        out = self.tail_cosh(c, np.empty_like(c))
        rest = np.flatnonzero(c < _TAIL_COSH)
        if rest.size:
            t = np.exp(-rho[rest])
            vals = self._past_tail(t, t * t, lambda sel: -np.expm1(-2.0 * rho[rest[sel]]))
            out[rest] = vals * t**self.delta
        return out

    def from_cosh(self, c):
        """G_plus at an array of c = cosh rho; inf at c <= 1, a coincident point.

        The tail piece runs on every point (`tail_cosh`); the points past
        it (in an image sum, the few images next to a point) are then
        overwritten by `past_tail_cosh`.
        """
        out = self.tail_cosh(c, np.empty_like(c))
        rest = np.flatnonzero(c < _TAIL_COSH)
        if rest.size:
            out[rest] = self.past_tail_cosh(c[rest])
        return out

    def tail_cosh(self, c, out, scratch=None):
        """The tail piece's G_plus, P(w) c^(-Delta) with w = 1/c^2, at every
        c = cosh rho, written into out, which may be c itself.

        It runs over blocks of `_TERM_BLOCK` values with two scratch
        blocks, so that its temporaries stay in cache: the rows of scratch,
        a (2, block) array, when given, over blocks of their length.  Only
        the values at c >= cosh 3.45 are G_plus.
        """
        if scratch is None:
            scratch = np.empty((2, min(len(c), _TERM_BLOCK)))
        w_buf, p_buf = scratch
        for lo in range(0, len(c), max(1, len(w_buf))):
            block = c[lo : lo + len(w_buf)]
            w = np.reciprocal(block, out=w_buf[: len(block)])
            np.multiply(w, w, out=w)  # (1/c)^2 underflows where c^2 would overflow
            vals = np.power(block, -self.delta, out=out[lo : lo + len(w_buf)])
            vals *= _horner(self.tail_coef, w, out=p_buf[: len(block)])
        return out

    def past_tail_cosh(self, c, cm1=None, out=None):
        """G_plus at an array of c = cosh rho below cosh 3.45 by the far,
        near and diagonal pieces, written into out (a new array if None),
        which may be c itself; inf at c <= 1.

        The far piece runs on every value, over blocks of `_TERM_BLOCK`
        values, as the tail piece does.  The values next to the diagonal,
        t > 0.6, are then overwritten by the near and diagonal pieces, one
        call each: the near piece costs about 0.2 ms a call whatever the
        number of values, so callers gather these values and make few
        calls.  On the diagonal piece u = 1 - t^2 = 2 t sinh rho.  These two
        pieces read sinh rho from c - 1, which next to c = 1 has only the
        digits of the rounded c; cm1, when given, is c - 1 at every value to
        its own digits (an image sum takes it from <x - gamma y, x - gamma
        y>/2), and is read instead.
        """
        if out is None:
            out = np.empty_like(c)
        # taken before out, which may be c, is written
        rest = np.flatnonzero(c < _NEAR_COSH)
        c_rest, cm1_rest = c[rest], None if cm1 is None else cm1[rest]
        t_buf, s_buf = np.empty((2, min(len(c), _TERM_BLOCK)))
        for lo in range(0, len(c), max(1, len(t_buf))):
            block = c[lo : lo + len(t_buf)]
            t, s = _t_sinh(block, out=(t_buf[: len(block)], s_buf[: len(block)]))
            np.multiply(t, t, out=s)
            vals = _horner(self.far_coef, s, out=out[lo : lo + len(t_buf)])
            vals *= np.power(t, self.delta, out=t)
        if rest.size:
            t, sinh = _t_sinh(c_rest, cm1_rest)
            with np.errstate(divide="ignore"):  # ln 0 at a coincident point
                vals = self._past_tail(t, t * t, lambda sel: 2.0 * t[sel] * sinh[sel])
            out[rest] = vals * t**self.delta
        return out


def _t_sinh(c, cm1=None, out=(None, None)):
    """(t, sinh rho) at an array of c = cosh rho, t = e^(-rho), from
    sinh^2 rho = (c - 1)(c + 1), with c - 1 taken from cm1 when given; c
    below 1 (rounding at a coincident point) counts as 1.  They are written
    into the arrays out, when given."""
    t, sinh = out
    sinh = np.maximum(np.subtract(c, 1.0, out=sinh) if cm1 is None else cm1, 0.0, out=sinh)
    t = np.add(c, 1.0, out=t)
    sinh *= t
    np.sqrt(sinh, out=sinh)
    np.add(c, sinh, out=t)
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
    """The rows of `mats` that can bring some y_j within rmax of some x_i,
    those that can bring one within the tail piece's edge first: returns
    (images, near), the first `near` of them the latter.

    Let c be the Lorentz mean of all the points.  If rho(x_i, g y_j) <= r
    then, g being an isometry, rho(c, g c) <= rho(c, x_i) + r +
    rho(y_j, c); so an image g with rho(c, g c) beyond r +
    max_i rho(c, x_i) + max_j rho(c, y_j) is reached by no pair.  This
    holds for any set of images; r is rmax for the images kept and
    min(rmax, 3.45) for the leading ones.  The 1e-9 slack keeps rounding
    from dropping an image that lies on a cut.
    """
    c = normalize(xs.sum(axis=0) + ys.sum(axis=0))
    spread = _max_dist(c, xs) + _max_dist(c, ys) + 1e-9
    coshes = -(_images(mats, c) @ (c * ETA_DIAG))
    kept = coshes <= math.cosh(rmax + spread)
    near = np.flatnonzero(coshes <= math.cosh(min(rmax, _TAIL_RHO) + spread))
    kept[near] = False
    return mats[np.concatenate([near, np.flatnonzero(kept)])], len(near)


def _row_sums(vals, counts):
    """Sums of the consecutive runs of vals of lengths counts; 0 for an empty run."""
    sums = np.zeros(len(counts))
    hit = counts > 0
    if hit.any():
        sums[hit] = np.add.reduceat(vals, (np.cumsum(counts) - counts)[hit])
    return sums


def image_sum_block(xs, ys, mats, rmax, mp, *, threads=None):
    """S[i, j] = sum over images gamma(y_j) within distance rmax of x_i of
    G_plus, the identity image left out.

    The identity image is the one that coincides with x_i in every digit,
    <x_i - gamma y_j, x_i - gamma y_j> = 0 exactly; any other is summed,
    however close to x_i.  When xs and ys hold the same points, only the
    pairs i <= j are summed, S[i, i] is Delta G(x_i) as `image_sum_self`
    gives it, and S[j, i] is set to S[i, j].  That is exact when `mats`
    holds gamma^-1 for every gamma that brings a pair within rmax,
    because the terms of S[j, i] are those of S[i, j] with gamma replaced
    by its inverse.  A `NeumannTruncation`'s images do, for points of
    tile 0.

    Images that no pair can reach are dropped first (`_within_reach`):
    with c the Lorentz mean of all the points, an image gamma is kept
    when rho(c, gamma c) <= rmax + max_i rho(c, x_i) + max_j rho(c, y_j).
    Then each column j scans only the kept images with rho(c_x, gamma y_j)
    <= rmax + max_i rho(c_x, x_i), c_x the Lorentz mean of the xs.  By
    the triangle inequality neither cut loses a term, for any `mats`.
    The terms past the tail piece's edge, rho < 3.45, come from the
    leading images of `_within_reach` alone; they are gathered over the
    columns and evaluated together.

    The columns run on `threads` workers (None: one per core), in
    contiguous runs of about equal pair count (`_map_blocks`), when they
    average `_POOL_MIN_PRODUCTS` products or more; S is the same for any
    number (see the module docstring).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    if not (xs.shape == ys.shape and np.array_equal(xs, ys)):
        return _image_sums("image_sum_block", xs, ys, mats, rmax, mp, lambda j: (0, n), threads)
    out = _image_sums("image_sum_block", xs, ys, mats, rmax, mp, lambda j: (0, j + 1), threads)
    lower = np.tril_indices(n, -1)
    out[lower] = out.T[lower]
    return out


def image_sum_self(xs, mats, rmax, mp):
    """Delta G at each point x_i: the sum of G_plus over the images gamma(x_i)
    within rmax of x_i but the identity, the diagonal of
    `image_sum_block(xs, xs, ...)` and computed by its loop, with each
    column j given the one row i = j.  The sum grows like
    -ln(gap)/(2 pi) as x_i nears a side.
    """
    xs = np.asarray(xs, dtype=float)
    return _image_sums("image_sum_self", xs, xs, mats, rmax, mp, lambda j: (j, j + 1), 1)[0]


def _image_sums(name, xs, ys, mats, rmax, mp, rows, threads):
    """The image-sum loop of `image_sum_block` and `image_sum_self`: over
    the columns j, the sums S[i, j] of the rows rows(j) = (first, end) of
    xs, returned as an array whose row i - first holds x_i, zero where a
    column has no such row; it logs at DEBUG under name."""
    t_start = time.perf_counter()
    kept, near = _within_reach(mats, xs, ys, rmax)
    cosh_max = math.cosh(rmax)
    # the terms past the tail piece's edge and within rmax: c < past_cut
    past_cut = min(_TAIL_COSH, math.nextafter(cosh_max, math.inf))
    cx = normalize(xs.sum(axis=0))
    column_reach = math.cosh(rmax + _max_dist(cx, xs) + 1e-9)
    neg_eta_cx = cx * -ETA_DIAG
    neg_eta_x = xs * -ETA_DIAG
    interp = mp.gplus_interp
    m = len(ys)
    spans = [rows(j) for j in range(m)]
    col_rows = np.array([end - first for first, end in spans], dtype=int)
    height = int(col_rows.max(initial=0))
    pairs = int(col_rows.sum())
    workers = 1
    if pairs * len(kept) >= _POOL_MIN_PRODUCTS * m:
        workers = _worker_count(threads, m)
    # the products of a chunk of a column's rows: three rows or more, so
    # that every chunk of a column of two rows or more has two or more
    cap = max(_CHUNK_PRODUCTS // workers, 3 * len(kept))
    past_terms = _PAST_TAIL_TERMS // workers
    runs = []  # per run of columns: its sums, [products scanned, terms summed]

    def task(cols):
        # made here, in the calling thread (see `_map_blocks`)
        sums = np.zeros((height, len(cols)))
        tally = [0, 0]
        runs.append((sums, tally))
        images, imgs_buf = np.empty((2, len(kept), 3))
        to_cx = np.empty(len(kept))
        reach = np.empty(len(kept), dtype=bool)
        buf, tail_buf = np.empty((2, cap))
        within = np.empty(cap, dtype=bool)
        scratch = buf[: cap // 2 * 2].reshape(2, -1)  # for the tail piece, once buf is read
        pending = []  # past-tail terms: (c, c - 1, flat index of their sum in sums)

        def add_pending():
            c, cm1, to = map(np.concatenate, zip(*pending))
            pending.clear()
            vals = interp.past_tail_cosh(c, cm1, c)
            vals[cm1 == 0.0] = 0.0  # identity images
            flat = sums.reshape(-1)
            flat += np.bincount(to, weights=vals, minlength=len(flat))

        def loop():
            for at, j in enumerate(cols):
                np.matmul(kept.reshape(-1, 3), ys[j], out=images.reshape(-1))  # `_images`
                np.less_equal(np.matmul(images, neg_eta_cx, out=to_cx), column_reach, out=reach)
                # the leading images stay in front
                hit = np.flatnonzero(reach)
                imgs = np.take(images, hit, axis=0, out=imgs_buf[: len(hit)], mode="wrap")
                k = np.count_nonzero(reach[:near])
                first = spans[j][0]
                # the column's rows in near-equal chunks of at most cap products
                count = -(-col_rows[j] // (cap // max(len(imgs), 1)))
                cuts = [col_rows[j] * p // count for p in range(count + 1)]
                for r0, r1 in zip(cuts, cuts[1:]):
                    prod = buf[: (r1 - r0) * len(imgs)]
                    mat = prod.reshape(r1 - r0, -1)
                    np.matmul(neg_eta_x[first + r0 : first + r1], imgs.T, out=mat)
                    # the leading images' terms past the tail piece's edge,
                    # then out of the tail piece's cut
                    row, img = np.divmod(np.flatnonzero(mat[:, :k] < past_cut), max(k, 1))
                    past = row * len(imgs) + img
                    c = prod[past]
                    prod[past] = np.inf
                    # next to the diagonal, c - 1 = <x - gamma y, x - gamma y>/2
                    # keeps the digits that c - 1 of the rounded product loses
                    cm1 = c - 1.0
                    close = np.flatnonzero(c < _NEAR_COSH)
                    if close.size:
                        diff = xs[first + r0 + row[close]] - imgs[img[close]]
                        cm1[close] = 0.5 * lorentz_dot(diff, diff)
                        tally[1] -= np.count_nonzero(cm1[close] == 0.0)  # identity images
                    pending.append((c, cm1, (r0 + row) * len(cols) + at))
                    # the tail piece's terms, row by row, moved to their own buffer
                    sel = np.less_equal(prod, cosh_max, out=within[: prod.size])
                    counts = np.count_nonzero(sel.reshape(mat.shape), axis=1)
                    terms = np.compress(sel, prod, out=tail_buf[: counts.sum()])
                    interp.tail_cosh(terms, terms, scratch)
                    sums[r0:r1, at] += _row_sums(terms, counts)
                    tally[0] += prod.size
                    tally[1] += len(terms) + len(c)
                    if sum(len(p[0]) for p in pending) >= past_terms:
                        add_pending()
            if pending:
                add_pending()

        return loop

    workers = _map_blocks(task, range(m), workers, col_rows)
    out = np.concatenate([sums for sums, _ in runs], axis=1)
    scanned, terms = np.sum([tally for _, tally in runs], axis=0, dtype=int)
    logger.debug(
        "%s %dx%d points, %d pairs, %d images passed, %d kept by reach, "
        "%d products scanned, %d terms summed, %d workers, %.4f s",
        name, len(xs), m, pairs, len(mats), len(kept), scanned, terms, workers,
        time.perf_counter() - t_start,
    )
    return out
