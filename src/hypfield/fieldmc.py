"""Discretized Gaussian fields and the triviality decay experiment.

The field lives on quadrature cells of a tile union: a Gaussian vector
with free or Neumann covariance (cell-averaged on the diagonal at the
effective radius r_i = sqrt(w_i / pi), standing in for the mollified
field).  On top of it sit the Wick powers, the normal-ordered
exponential X, and the stable estimator of log L_X(s) = log E[exp(-s X)]
that bounds the decay of the boundary generating functional:

    log Z(h, Lambda_q) - log Z(0, Lambda_q)
        <=  U(q) = sum_j [ log L_{X_1}(lambda k_j) + lambda |T_1| ].

`triviality_run` evaluates U(q) along a conical tile sequence and fits
its decay rate eps_hat; `z_ratio` estimates the left-hand side directly
on a small region.

Monte Carlo batches draw from counter-based streams keyed by
(seed, batch index) and reduce in fixed batch order, so results are
bit-reproducible regardless of how batches are scheduled.

The reductions over samples (`wick_exp`, `wick_power_estimate`,
`log_laplace_stable`) stream over blocks of `_BLOCK_ROWS` rows (the
loops over one value per sample, `_FLAT` times as many) with
preallocated buffers and in-place ufuncs, so their memory is
O(n + block * cells) rather than several (n, cells) temporaries.  Each
row goes through the same elementwise operations as in the whole-array
formula, so the per-sample values equal it bit for bit for every block
size.  A row's sum over cells runs in fixed cell order, not through a
BLAS matrix-vector product, whose summation order depends on where the
row sits in the array and on the BLAS thread count.

The statistics over samples sum on one fixed tree: consecutive chunks of
`_CHUNK` samples counted from sample 0, each summed by numpy, then the
per-chunk results summed.  Blocks are whole chunks, so the statistics do
not depend on the block size either.  `log_laplace_stable` takes its
weights and their statistics in one pass without storing the weights:
each chunk gives its sum and its squared deviations from its own mean
M2_c, combined by the parallel-axis formula
M2 = sum_c M2_c + sum_c n_c (m_c - m)^2 (Chan, Golub & LeVeque, "Algorithms
for computing the sample variance", Amer. Statist. 37, 1983).
`wick_power_estimate` has its samples stored, so it takes numpy's mean
and sums the squared deviations from it on the chunk tree.
"""

import logging
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import boundary as bd
from . import greens
from .errors import ConfigurationError, CovarianceInvalidError, ThresholdError
from .geometry import ETA_DIAG, dist, lorentz_dot, normalize, outward_normals, pairwise_dist, triangle_area
from .tessellation import TriangleParams, conical_sequence, generate

logger = logging.getLogger(__name__)

WICK_POWER_CAP = 8
_RIDGES = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)
# The decay rate's standard error comes from this many sample batches;
# its one-sided 95% bound uses the Student t quantile on n - 1 degrees
# of freedom: T95 is float(scipy.special.stdtrit(9, 0.95)), written out
# so that importing the module does not load scipy.special.
SLOPE_BATCHES = 10
T95 = 1.833112932656237
# Rows per block of the Monte Carlo reductions; one (cells, block) float
# buffer is 295 KB at the 9 cells of a resolution-3 tile.
_BLOCK_ROWS = 4096
# Samples per chunk of the statistics' fixed summation tree; blocks of
# the reductions that take statistics are rounded up to whole chunks.
_CHUNK = 512
# The 1-D loops over samples (`_sum_sq_dev`, `log_laplace_stable`) hold
# one value per sample, not one per cell, so they take blocks this many
# times longer: each block pays about 12 us of ufunc calls and slicing.
_FLAT = 16


@dataclass
class Quadrature:
    """Cells (point, hyperbolic-area weight, owning tile) over a tile union."""

    points: np.ndarray  # (n, 3) Lorentz rows
    weights: np.ndarray  # (n,)
    tile_ids: np.ndarray  # (n,) int
    resolution: int

    def __len__(self):
        return len(self.weights)

    @property
    def total_weight(self):
        return float(self.weights.sum())

    def tile_mask(self, tile_id):
        return self.tile_ids == tile_id


def _subtriangle_cells(vertices):
    """Incenter and Gauss-Bonnet weight of one geodesic triangle."""
    area = triangle_area(vertices)
    normals = outward_normals(vertices)
    # incenter: equal signed distance to all three sides
    w = np.cross(normals[0] - normals[1], normals[1] - normals[2])
    w = w * ETA_DIAG
    q = -lorentz_dot(w, w)
    inc = w / math.sqrt(q) if q > 0 else vertices.mean(axis=0)
    if inc[2] < 0:
        inc = -inc
    return normalize(inc), area


def build_quadrature(tess, tile_ids, resolution):
    """Barycentric refinement into geodesic cells: resolution^2 per tile.

    Cells are built once on the fundamental tile and mapped by each
    tile's group element `tess.mats[k]`, with no renormalisation after
    the map, so every tile carries the same cell pattern and the
    per-tile weight vectors are identical.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    verts = tess.fund_vertices
    res = int(resolution)

    nodes = {}
    for i in range(res + 1):
        for j in range(res + 1 - i):
            b = np.array([res - i - j, i, j], dtype=float) / res
            nodes[(i, j)] = normalize(b @ verts)

    cells = []
    for i in range(res):
        for j in range(res - i):
            tri = np.stack([nodes[(i, j)], nodes[(i + 1, j)], nodes[(i, j + 1)]])
            cells.append(_subtriangle_cells(tri))
            if i + j <= res - 2:
                tri = np.stack([nodes[(i + 1, j)], nodes[(i, j + 1)], nodes[(i + 1, j + 1)]])
                cells.append(_subtriangle_cells(tri))

    base_pts = np.stack([c[0] for c in cells])
    base_wts = np.array([c[1] for c in cells])

    ids = np.asarray(tile_ids, dtype=int)
    return Quadrature(
        points=np.concatenate([base_pts @ tess.mats[tid].T for tid in ids]),
        weights=np.tile(base_wts, len(ids)),
        tile_ids=np.repeat(ids, len(base_wts)),
        resolution=res,
    )


@dataclass
class CovarianceModel:
    """Cell covariance matrix with its factorization and diagonal rule."""

    kind: str  # "free" | "neumann"
    matrix: np.ndarray
    factor: np.ndarray  # lower triangular
    ridge: float

    @property
    def diag(self):
        return np.diag(self.matrix)


def build_covariance(mp, nt, quad, kind):
    """Covariance of the cell-regularized field.

    Off-diagonal entries are the kernel values; the diagonal is the
    same-kind kernel at the cell's effective radius r_i = sqrt(w_i/pi)
    (free part) plus the image-sum defect Delta G for the Neumann kind.
    Cross-tile Neumann entries are exact zeros.
    """
    if kind not in ("free", "neumann"):
        raise ValueError("kind must be 'free' or 'neumann'")
    pts, wts = quad.points, quad.weights
    n = len(wts)
    rho = pairwise_dist(pts, pts)
    off = ~np.eye(n, dtype=bool)
    if n > 1 and rho[off].min() < 1e-6:
        raise ValueError("quadrature cells closer than 1e-6; refine differently")

    free_diag = greens.g_plus(mp, np.sqrt(wts / math.pi))
    c = np.zeros((n, n))
    if kind == "free":
        c[off] = greens.g_plus(mp, rho[off])
        np.fill_diagonal(c, free_diag)
    else:
        # block diagonal over tiles; every tile carries the first tile's cell
        # pattern mapped by its isometry, so all tiles share the first block
        first = quad.tile_ids[0]
        sub = pts[quad.tile_mask(first)]
        block = greens.g_neumann_block(mp, nt, sub, sub, first)
        dgt = greens.delta_g_many(mp, nt, sub, tile_id=first)
        dg = np.zeros(n)
        for tid in dict.fromkeys(quad.tile_ids.tolist()):
            mask = quad.tile_mask(tid)
            idx = np.nonzero(mask)[0]
            c[np.ix_(idx, idx)] = block
            dg[mask] = dgt
        np.fill_diagonal(c, free_diag + dg)

    c = 0.5 * (c + c.T)  # symmetrize fp noise
    factor, ridge = _factor_with_ridge(c)
    return CovarianceModel(kind=kind, matrix=c, factor=factor, ridge=ridge)


def _factor_with_ridge(c):
    for ridge in _RIDGES:
        try:
            factor = np.linalg.cholesky(c + ridge * np.eye(len(c)))
            if ridge > 0.0:
                logger.info("covariance factorization needed ridge %.1e", ridge)
            return factor, ridge
        except np.linalg.LinAlgError:
            continue
    raise CovarianceInvalidError(
        "covariance not positive definite even with ridge 1e-8; "
        "check truncation radius and mesh"
    )


def sample_fields(cov, n, seed, batch_size=8192, threads=None):
    """n covariance-distributed Gaussian vectors, bit-reproducible from seed.

    Returns an (n, cells) array whose row s is sample s.  Each batch b
    draws from a Philox stream keyed by (seed, b) and the batches land at
    fixed offsets, so the result is independent of worker count and
    scheduling.
    """
    t_start = time.perf_counter()
    m = cov.factor.shape[0]
    out = np.empty((n, m))
    spans = []
    done = 0
    batch = 0
    while done < n:
        take = min(batch_size, n - done)
        spans.append((batch, done, take))
        done += take
        batch += 1

    def fill(span):
        b, start, take = span
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
        )
        out[start : start + take] = rng.standard_normal((take, m)) @ cov.factor.T

    workers = threads if threads and threads > 1 and len(spans) > 1 else 1
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, spans))
    else:
        for span in spans:
            fill(span)
    logger.info(
        "sample_fields %d samples x %d cells: %d batches, %d threads, %.3f s",
        n, m, len(spans), workers, time.perf_counter() - t_start,
    )
    return out


def _check_alpha(alpha):
    if abs(alpha) >= greens.ALPHA_MAX:
        raise ThresholdError(f"|alpha| = {abs(alpha):.4f} >= sqrt(4 pi)")


def _block_rows(align, scale=1):
    """scale * `_BLOCK_ROWS` rounded up to a multiple of align."""
    return -(-(scale * _BLOCK_ROWS) // align) * align


def _row_blocks(n, align=1, scale=1):
    """(start, stop) of the consecutive `_block_rows(align, scale)`-row blocks of n rows."""
    rows = _block_rows(align, scale)
    for start in range(0, n, rows):
        yield start, min(start + rows, n)


def _chunk_rows(v):
    """v, starting on a chunk boundary, as 2-D views whose rows are its
    `_CHUNK`-value chunks: the whole chunks, then the short last one."""
    full = len(v) // _CHUNK * _CHUNK
    parts = [v[:full].reshape(-1, _CHUNK)] if full else []
    if full < len(v):
        parts.append(v[full:].reshape(1, -1))
    return parts


def _sum_sq_dev(v, center):
    """sum (v - center)^2, block by block over the fixed chunk tree."""
    sums = np.empty(-(-len(v) // _CHUNK))
    buf = np.empty(min(len(v), _block_rows(_CHUNK, _FLAT)))
    for start, stop in _row_blocks(len(v), _CHUNK, _FLAT):
        dev = buf[: stop - start]
        np.subtract(v[start:stop], center, out=dev)
        np.square(dev, out=dev)
        c = start // _CHUNK
        for rows in _chunk_rows(dev):
            np.add.reduce(rows, axis=1, out=sums[c : c + len(rows)])
            c += len(rows)
    return float(sums.sum())


class _ChunkMoments:
    """Sum and sum of squared deviations M2 of n values, taken over the
    fixed `_CHUNK`-value chunks counted from value 0 and combined by the
    parallel-axis formula, so they do not depend on how the values
    arrive in blocks.  Holds two floats per chunk, nothing per value."""

    def __init__(self, n):
        self.n = n
        self.sums = np.empty(-(-n // _CHUNK))
        self.m2s = np.empty_like(self.sums)

    def add(self, start, block):
        """Record values start, ..., start + len(block) - 1; overwrites block.

        start is a multiple of `_CHUNK`, and the block ends on a chunk
        boundary or at value n.
        """
        c = start // _CHUNK
        for vals in _chunk_rows(block):
            stop = c + len(vals)
            sums = self.sums[c:stop]
            np.add.reduce(vals, axis=1, out=sums)
            np.subtract(vals, (sums / vals.shape[1])[:, None], out=vals)
            np.square(vals, out=vals)
            np.add.reduce(vals, axis=1, out=self.m2s[c:stop])
            c = stop

    def result(self):
        """(sum, mean, M2) of all n values."""
        counts = np.full(len(self.sums), float(_CHUNK))
        counts[-1] = self.n - _CHUNK * (len(counts) - 1)
        total = float(self.sums.sum())
        mean = total / self.n
        dev = self.sums / counts - mean
        return total, mean, float(self.m2s.sum() + (counts * np.square(dev)).sum())


def _weighted_cell_sum(block, wg, out):
    """out = sum_i wg_i block[i], accumulated over the cells i in order.

    block is (cells, rows) and is overwritten.  The fixed order makes a
    row's sum independent of the block it sits in.
    """
    np.multiply(block[0], wg[0], out=out)
    for row, w in zip(block[1:], wg[1:]):
        np.multiply(row, w, out=row)
        np.add(out, row, out=out)


def wick_exp(samples, cov, quad, alpha, g=None):
    """Normal-ordered exponential X = sum_i w_i g_i exp(alpha phi_i - alpha^2 C_ii / 2).

    Nonnegative samplewise for g >= 0; E[X] = sum_i w_i g_i exactly.
    Returns one value per sample.
    """
    _check_alpha(alpha)
    return _wick_exp(samples, cov, quad, alpha, g, None)


def _wick_exp(samples, cov, quad, alpha, g, shift):
    """`wick_exp` of the samples shifted by the per-cell vector `shift`
    (None for no shift), added block by block: each row of samples + shift
    goes through the same operations as in the whole-array formula."""
    wg = quad.weights if g is None else quad.weights * np.asarray(g, dtype=float)
    half_var = (0.5 * alpha * alpha * cov.diag)[:, None]
    n, m = samples.shape
    out = np.empty(n)
    buf = np.empty((m, min(n, _BLOCK_ROWS)))
    for start, stop in _row_blocks(n):
        block = buf[:, : stop - start]
        if shift is None:
            np.multiply(samples[start:stop].T, alpha, out=block)
        else:
            np.add(samples[start:stop].T, shift.reshape(-1, 1), out=block)
            np.multiply(block, alpha, out=block)
        np.subtract(block, half_var, out=block)
        np.exp(block, out=block)
        _weighted_cell_sum(block, wg, out[start:stop])
    return out


@dataclass
class WickPowerEstimate:
    k: int
    mean: float
    mean_stderr: float
    variance: float
    second_moment: float
    second_moment_stderr: float


def _wick_power_samples(samples, cov, wg, k):
    """:phi^k:(g) of every sample, by the Wick recurrence in row blocks."""
    n, m = samples.shape
    diag = cov.diag[:, None]
    out = np.empty(n)
    bufs = [np.empty((m, min(n, _BLOCK_ROWS))) for _ in range(4)]
    for start, stop in _row_blocks(n):
        phi, prev, cur, nxt = (b[:, : stop - start] for b in bufs)
        np.copyto(phi, samples[start:stop].T)
        cur.fill(1.0)  # W_0
        if k >= 1:
            prev, cur = cur, prev
            np.copyto(cur, phi)  # W_1
        for j in range(1, k):
            # W_{j+1} = phi W_j - j C_ii W_{j-1}
            np.multiply(phi, cur, out=nxt)
            np.multiply(prev, j * diag, out=prev)
            np.subtract(nxt, prev, out=nxt)
            prev, cur, nxt = cur, nxt, prev
        _weighted_cell_sum(cur, wg, out[start:stop])
    return out


def wick_power_estimate(samples, cov, quad, k, g=None):
    """Monte Carlo moments of the k-th Wick power :phi^k:(g).

    The discrete Wick power is C_ii^(k/2) He_k(phi_i / sqrt(C_ii)) with
    He_k the probabilist Hermite polynomial, built by the recurrence
    (DLMF 18.9.1)

        W_0 = 1,  W_1 = phi_i,  W_(j+1) = phi_i W_j - j C_ii W_(j-1);

    its L^2 norm contracts the covariance to k-th power, which the tests
    pin against the direct matrix evaluation.

    The moments of w and then of w^2 (squared in place) are numpy's
    mean and the squared deviations from it summed on the fixed chunk
    tree, so no array beyond w is allocated.
    """
    if not 0 <= k <= WICK_POWER_CAP:
        raise ValueError(f"need 0 <= k <= {WICK_POWER_CAP} for conditioning")
    wg = quad.weights if g is None else quad.weights * np.asarray(g, dtype=float)
    w = _wick_power_samples(samples, cov, wg, k)
    s = len(w)
    mean = float(w.mean())
    m2 = _sum_sq_dev(w, mean)
    np.square(w, out=w)
    second = float(w.mean())
    m2_sq = _sum_sq_dev(w, second)
    variance = m2 / (s - 1) if s > 1 else 0.0
    return WickPowerEstimate(
        k=k,
        mean=mean,
        mean_stderr=math.sqrt(variance) / math.sqrt(s) if s > 1 else 0.0,
        variance=variance,
        second_moment=second,
        second_moment_stderr=math.sqrt(m2_sq / (s - 1)) / math.sqrt(s) if s > 1 else 0.0,
    )


def shift_audit(samples, cov, quad, alpha, f, g=None):
    """Both sides of the shift identity
    :exp(alpha(phi + f)):(g) = :exp(alpha phi):(e^(alpha f) g);
    equal to machine precision, exact algebra at the discrete level.
    """
    _check_alpha(alpha)
    f = np.asarray(f, dtype=float)
    lhs = _wick_exp(samples, cov, quad, alpha, g, f)
    gmult = np.exp(alpha * f) if g is None else np.exp(alpha * f) * np.asarray(g, dtype=float)
    rhs = wick_exp(samples, cov, quad, alpha, g=gmult)
    return lhs, rhs


def _laplace_weights(x, xmin, log_s, out=None):
    """w = exp(-s (x - x_min)), s = e^log_s capped at the largest float;
    exactly 1 at x_min.  Into out (a new array if None); s (x - x_min)
    may overflow to inf, which gives w = 0."""
    try:
        neg_s = -math.exp(log_s)
    except OverflowError:
        neg_s = -sys.float_info.max  # not -inf: -inf * 0 would be NaN at x_min
    out = np.subtract(x, xmin, out=out)
    np.multiply(out, neg_s, out=out)
    return np.exp(out, out=out)


def log_laplace_stable(x, log_s):
    """(log L(s), stderr of log L, saturated) for possibly huge s = e^log_s.

    Shifts by the sample minimum so the estimate stays representable as
    long as s * min(x) does:

        log L(s) = -s x_min + log mean(w),  w = exp(-s (x - x_min)),

    with one exp per sample.  Past s x_min = e^700 there is no estimate:
    the result is (-inf, inf, True).  Below it s itself may still
    overflow (log s > 709.78 when x_min < e^-9.78); s is then taken as
    the largest float, so w is exactly 1 at x_min and 0 elsewhere.
    `saturated` marks estimates carried by a handful of samples (weight
    ESS below 10), which the decay fit drops.  The weights and their
    statistics are taken block by block in one pass, on the fixed chunk
    tree of the module docstring; no (n,) array is allocated.  Logs n,
    log s, ESS, `saturated` and the time at DEBUG.
    """
    t_start = time.perf_counter()
    x = np.asarray(x, dtype=float)
    n = len(x)
    xmin = float(x.min())
    if xmin <= 0.0:
        raise ValueError("Laplace argument must be positive (wick_exp output)")
    lead = log_s + math.log(xmin)
    if lead > 700.0:
        result, ess = (-math.inf, math.inf, True), math.nan
    else:
        moments = _ChunkMoments(n)
        buf = np.empty(min(n, _block_rows(_CHUNK, _FLAT)))
        with np.errstate(over="ignore"):
            for start, stop in _row_blocks(n, _CHUNK, _FLAT):
                block = _laplace_weights(x[start:stop], xmin, log_s, out=buf[: stop - start])
                moments.add(start, block)
        total, mean_w, m2 = moments.result()
        log_l = -math.exp(lead) + math.log(mean_w)
        se = math.sqrt(m2 / (n - 1)) / (mean_w * math.sqrt(n)) if n > 1 else 0.0
        ess = total**2 / (m2 + n * mean_w**2)
        result = (log_l, se, bool(ess < 10.0))
    logger.debug(
        "log_laplace_stable %d samples at log s = %.6g: ESS %.4g, saturated %s, %.4f s",
        n, log_s, ess, result[2], time.perf_counter() - t_start,
    )
    return result


@dataclass
class ZRatioResult:
    ratio: float
    stderr: float
    ess: float
    unreliable: bool


def z_ratio(mp, nt, quad, alpha, lam, h, n, seed, threads=None):
    """Direct estimate of Z(h, Lambda)/Z(0, Lambda) on common random numbers.

    The numerator shifts the field by H_plus h through the exact shift
    identity, so both estimators share every sample and most of the
    variance cancels in the ratio.  `threads` goes to `sample_fields`,
    whose samples do not depend on it.
    """
    _check_alpha(alpha)
    if lam < 0:
        raise ValueError("need lambda >= 0")
    cov = build_covariance(mp, nt, quad, "free")
    samples = sample_fields(cov, n, seed, threads=threads)
    if lam == 0.0:
        return ZRatioResult(ratio=1.0, stderr=0.0, ess=float(n), unreliable=False)
    if h is None or h.is_zero:
        f = np.zeros(len(quad))
    else:
        f = bd.h_plus_at_points(mp, h, quad.points)
    v0 = lam * wick_exp(samples, cov, quad, alpha)
    vh = lam * wick_exp(samples, cov, quad, alpha, g=np.exp(alpha * f))
    a = np.exp(-vh)
    b = np.exp(-v0)
    am, bm = a.mean(), b.mean()
    ratio = am / bm
    va, vb = a.var(ddof=1), b.var(ddof=1)
    cab = np.cov(a, b, ddof=1)[0, 1]
    stderr = abs(ratio) * math.sqrt(
        max(va / am**2 + vb / bm**2 - 2.0 * cab / (am * bm), 0.0) / n
    )
    ess = float(a.sum() ** 2 / (a**2).sum())
    # a NaN ESS (every weight underflowed) is unreliable too
    return ZRatioResult(ratio=float(ratio), stderr=float(stderr), ess=ess, unreliable=not ess >= 100.0)


@dataclass
class TrivialityConfig:
    m2: float = 2.0
    alpha: float = 1.0
    lam: float = 0.1
    p: int = 3
    q: int = 4
    r: int = 4
    beta0: float = math.pi / 6
    beta1: float = math.pi / 3
    amplitude: float = 1.0
    p_angle: float = math.pi / 4
    cone_c: float = 1.2
    q_max: int = 8
    n_mc: int = 20_000
    resolution: int = 3
    orbit_radius: float = 8.0
    seed: int = 7
    min_step: float = 0.35
    tail_tol: float = 1e-2
    k_grid: int = 4
    threads: int = 1


@dataclass
class QRecord:
    q: int
    tile_ids: list
    log_k: list
    terms: list
    u: float
    u_stderr: float
    saturated: bool


@dataclass
class TrivialityRun:
    config: TrivialityConfig
    tile_area: float
    records: list
    eps_hat: float
    eps_stderr: float
    ci95_low: float
    passed: bool
    control: bool
    plateau_log_laplace: float
    direct_ratio: ZRatioResult | None
    empirical_a: float

    def summary(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict}: eps_hat = {self.eps_hat:.6g} "
            f"(stderr {self.eps_stderr:.2g}, 95% lower bound {self.ci95_low:.6g})"
        )

    def to_json_dict(self):
        return {
            "config": self.config.__dict__,
            "tile_area": self.tile_area,
            "records": [
                {
                    "q": r.q,
                    "tile_ids": r.tile_ids,
                    "log_k": r.log_k,
                    "terms": r.terms,
                    "U": r.u,
                    "U_stderr": r.u_stderr,
                    "saturated": r.saturated,
                }
                for r in self.records
            ],
            "eps_hat": self.eps_hat,
            "eps_stderr": self.eps_stderr,
            "ci95_low": self.ci95_low,
            "passed": self.passed,
            "control": self.control,
            "plateau_log_laplace": self.plateau_log_laplace,
            "direct_ratio": None
            if self.direct_ratio is None
            else {
                "ratio": self.direct_ratio.ratio,
                "stderr": self.direct_ratio.stderr,
                "ess": self.direct_ratio.ess,
                "unreliable": self.direct_ratio.unreliable,
            },
            "empirical_a": self.empirical_a,
            "summary": self.summary(),
        }


def triviality_run(cfg):
    """The decay experiment: certify U(q) <= -eps*q along a conical tile
    sequence approaching a boundary point inside the support of h.

    Every tile is an isometric image of the fundamental one and the
    Neumann field decouples across them,
    so one Laplace-transform sample set (X_1 on the fundamental tile)
    serves every factor.  h = 0 runs are the control: all k_j = 1 and no
    decay should be certified.  The smallness condition on lambda
    involves the continuum mass mu(X_1 = 0), which has no finite-mesh
    counterpart; the run certifies the bound-chain decay itself and
    reports the Laplace plateau at the largest k as the empirical proxy.
    """
    if cfg.lam <= 0:
        raise ConfigurationError("triviality run needs lambda > 0")
    mp = greens.ModelParams(cfg.m2)
    tp = TriangleParams(cfg.p, cfg.q, cfg.r)
    probe = generate(tp, 0.0)  # fundamental tile only
    margin = probe.anchor_spread + probe.circumradius
    tess = generate(tp, cfg.orbit_radius + margin)
    nt = greens.NeumannTruncation(tess, cfg.orbit_radius, tail_tol=cfg.tail_tol)

    control = cfg.amplitude == 0.0
    h = bd.BoundarySource.bump(cfg.beta0, cfg.beta1, amplitude=cfg.amplitude)
    if not control and not (cfg.beta0 < cfg.p_angle < cfg.beta1):
        raise ConfigurationError("conical point p_angle must lie inside the bump support")

    quad = build_quadrature(tess, [0], cfg.resolution)
    cov = build_covariance(mp, nt, quad, "neumann")
    samples = sample_fields(cov, cfg.n_mc, cfg.seed, threads=cfg.threads)
    # The Laplace variable is the per-tile Neumann exponential ordered by
    # its own covariance: E[X_1] equals the tile area exactly, so Jensen
    # pins the h = 0 control terms at >= 0 and no decay gets certified.
    x1 = wick_exp(samples, cov, quad, cfg.alpha)
    area = tess.tile_area

    ids = conical_sequence(tess, cfg.p_angle, tess.centroids[0], cfg.q_max, cfg.cone_c, min_step=cfg.min_step)
    log_ks = [row["log_k_j"] for row in bd.k_table(mp, h, cfg.alpha, tess, ids, grid=cfg.k_grid)]
    if not control:
        diffs = np.diff(log_ks)
        if (diffs <= 0).any():
            raise ConfigurationError(
                "k_j not strictly increasing along the conical sequence; "
                "h support misaligned with the conical point"
            )

    records = []
    log_lam = math.log(cfg.lam)
    laplace = [log_laplace_stable(x1, log_lam + lk) for lk in log_ks]
    terms = [ll + cfg.lam * area for ll, _, _ in laplace]
    ses = [se for _, se, _ in laplace]
    sat_flags = [sat for _, _, sat in laplace]
    for qi in range(1, cfg.q_max + 1):
        u = float(sum(terms[:qi]))
        se = float(math.sqrt(sum(s * s for s in ses[:qi])))
        records.append(
            QRecord(
                q=qi,
                tile_ids=[int(t) for t in ids[:qi]],
                log_k=[float(v) for v in log_ks[:qi]],
                terms=[float(t) for t in terms[:qi]],
                u=u,
                u_stderr=se,
                saturated=bool(any(sat_flags[:qi])),
            )
        )

    fit = fit_records(records)
    if len(fit) < 2:
        raise ConfigurationError("too few unsaturated U(q) points to fit a decay rate")
    fit_qs = [r.q for r in fit]
    eps_hat = _fit_decay(fit_qs, [r.u for r in fit])
    eps_se = _slope_se_by_batches(x1, log_ks, log_lam, cfg.lam * area, fit_qs)
    ci95_low = eps_hat - T95 * eps_se  # one-sided 95%
    plateau = laplace[-1][0]

    # direct ratio check on a small region: the anchor tile plus the first
    # conical tile separated enough that the cell-averaged free covariance
    # stays positive definite (adjacent tiles put cells across a shared
    # side closer than the effective regularization radius)
    direct = None
    if len(quad) * 2 <= 80:
        direct_ids = [ids[0]]
        for tid in ids[1:]:
            if dist(tess.centroids[ids[0]], tess.centroids[tid]) >= 1.0:
                direct_ids.append(tid)
                break
        dq = build_quadrature(tess, direct_ids, cfg.resolution)
        direct = z_ratio(
            mp, nt, dq, cfg.alpha, cfg.lam, None if control else h, cfg.n_mc, cfg.seed + 101,
            threads=cfg.threads,
        )

    return TrivialityRun(
        config=cfg,
        tile_area=area,
        records=records,
        eps_hat=float(eps_hat),
        eps_stderr=float(eps_se),
        ci95_low=float(ci95_low),
        passed=bool(ci95_low > 0.0),
        control=control,
        plateau_log_laplace=float(plateau),
        direct_ratio=direct,
        empirical_a=float(nt.empirical_a),
    )


def fit_records(records):
    """The U(q) records `eps_hat` is fitted on: the unsaturated, finite ones."""
    return [r for r in records if not r.saturated and math.isfinite(r.u)]


def _fit_decay(qs, us):
    """Least-squares slope of U(q) on q; eps_hat = -slope."""
    slope = np.polyfit(np.asarray(qs, dtype=float), np.asarray(us, dtype=float), 1)[0]
    return -float(slope)


def _slope_se_by_batches(x1, log_ks, log_lam, area_term, fit_qs, n_batches=SLOPE_BATCHES):
    """Standard error of the fitted decay rate by sample batching.

    The U(q) points share one sample set and are nested partial sums, so
    their errors are strongly correlated; refitting the slope on disjoint
    sample batches captures that without modeling the covariance.
    """
    x1 = np.asarray(x1)
    n = len(x1)
    if n < 2 * n_batches:
        return float("inf")
    slopes = []
    for b in range(n_batches):
        xb = x1[b::n_batches]
        terms = []
        for lk in log_ks:
            ll, _, _ = log_laplace_stable(xb, log_lam + lk)
            terms.append(ll + area_term)
        us = [float(sum(terms[:qi])) for qi in fit_qs]
        if not all(math.isfinite(u) for u in us):
            return float("inf")
        slopes.append(_fit_decay(fit_qs, us))
    return float(np.std(slopes, ddof=1) / math.sqrt(n_batches))
