"""Discretized Gaussian fields and the triviality decay experiment.

The field lives on quadrature cells of a tile union: a Gaussian vector
with Neumann or free covariance, standing in for the mollified field.
The Neumann covariance holds the cell averages of the tile's Neumann
Green's function, from a P1 Galerkin solve on the fundamental tile
(`galerkin`); it is positive definite on every mesh.  The free
covariance is the point rule: G_plus between cell points, and G_plus at
the effective radius r_i = sqrt(w_i / pi) on the diagonal.  On top of it
sit the Wick powers, the normal-ordered exponential X, and the stable
estimator of log L_X(s) = log E[exp(-s X)] that bounds the decay of the
boundary generating functional:

    log Z(h, Lambda_q) - log Z(0, Lambda_q)
        <=  U(q) = sum_j [ log L_{X_1}(lambda k_j) + lambda |T_1| ].

`triviality_run` evaluates U(q) along a conical tile sequence and fits
its decay rate eps_hat; `z_ratio` estimates the left-hand side directly
on a small region.

Monte Carlo batches draw from counter-based streams keyed by
(seed, batch index) and reduce in fixed batch order, so results are
bit-reproducible regardless of how batches are scheduled.

The samples are cell-major: `sample_fields` returns the (n, cells)
transpose view of a (cells, n) array, so the values of one cell over a
block of samples are contiguous.  The reductions over samples
(`wick_exp`, `wick_power_estimate`, `log_laplace_stable`) stream over
blocks of `_BLOCK_ROWS` samples (the loops over one value per sample,
`_FLAT` times as many) with preallocated buffers and in-place ufuncs, so
their memory is O(n + block * cells) rather than several (n, cells)
temporaries.  They read a block's cell rows in place and never write
into the samples: the Wick recurrence takes W_1 = phi as it stands.
Each sample goes through the same elementwise operations as in the
whole-array formula, so the per-sample values equal it bit for bit for
every block size.  A sample's sum over cells runs in fixed cell order,
not through a BLAS matrix-vector product, whose summation order depends
on where the sample sits in the array and on the BLAS thread count.

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

Threads.  Every Monte Carlo block loop (the sampling batches, the Wick
reductions, the squared deviations and the Laplace weights) runs through
`_kernels._map_blocks`, the package's one worker pool, which hands each
worker thread one contiguous run of blocks; numpy releases the GIL
inside the ufuncs and the matrix products, so the workers run on
separate cores.  Each worker allocates its buffers once; the loops over
one value per sample divide their `_FLAT`-times longer blocks among the
workers, so that the buffers together stay one serial block.  A block
writes only its own slice of the output and its own chunk slots, and the
chunk tree is combined in one thread afterwards, so every result is
byte-identical for any thread count.  The public functions take
`threads`: None means one worker per core this process may run on, 1 the
plain loop in the calling thread.  `triviality_run` passes its config's
`threads`; the covariance is built in the calling thread.  More than one
worker needs BLAS held to one thread (OPENBLAS_NUM_THREADS=1 or
OMP_NUM_THREADS=1): left at its default, OpenBLAS starts its own threads
inside each worker's matrix products, and on a 2-core host
`sample_fields(cov, 1_000_000, 0, threads=2)` on the resolution-3
covariance took 0.25 s instead of 0.13 s.
"""

import logging
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import boundary as bd
from . import galerkin, greens
from ._kernels import _map_blocks, _worker_count
from .errors import ConfigurationError, CovarianceInvalidError, ThresholdError
from .geometry import ETA_DIAG, dist, lorentz_dot, normalize, outward_normals, pairwise_dist, triangle_area
from .tessellation import TriangleParams, ball_radius, conical_sequence, generate

logger = logging.getLogger(__name__)

WICK_POWER_CAP = 8
# The decay rate's standard error comes from this many sample batches;
# its one-sided 95% bound uses the Student t quantile on n - 1 degrees
# of freedom: T95 is float(scipy.special.stdtrit(9, 0.95)), written out
# so that importing the module does not load scipy.special.
SLOPE_BATCHES = 10
T95 = 1.833112932656237
_SAMPLE_BATCH = 8192  # samples per `sample_fields` Philox stream, keyed (seed, batch)
# Samples per block of the Monte Carlo reductions; one (cells, block)
# float buffer is 590 KB at the 9 cells of a resolution-3 tile.  On two
# workers the Wick loops over 1M samples ran 25% faster than at 4096.
_BLOCK_ROWS = 8192
# Samples per chunk of the statistics' fixed summation tree; blocks of
# the reductions that take statistics are rounded up to whole chunks.
_CHUNK = 512
# The 1-D loops over samples (`_sum_sq_dev`, `log_laplace_stable`) hold
# one value per sample, not one per cell, so they take blocks this many
# times longer: each block pays about 12 us of ufunc calls and slicing.
_FLAT = 8


@dataclass
class Quadrature:
    """Cells (point, hyperbolic-area weight, owning tile) over a tile union."""

    points: np.ndarray  # (n, 3) Lorentz rows
    weights: np.ndarray  # (n,)
    tile_ids: np.ndarray  # (n,) int
    resolution: int
    vertices: np.ndarray  # (3, 3) vertex rows of the fundamental tile the cells cut

    def __len__(self):
        return len(self.weights)

    @property
    def total_weight(self):
        return float(self.weights.sum())

    def tile_mask(self, tile_id):
        return self.tile_ids == tile_id


def build_quadrature(tess, tile_ids, resolution):
    """Barycentric refinement into geodesic cells: resolution^2 per tile.

    The cells are built once on the fundamental tile as one (cells, 3, 3)
    stack of node rows, and their incenters and closed-form areas
    (`geometry.triangle_area`) are taken for the whole stack at once.
    They are mapped by each tile's group element `tess.mats[k]`, with no
    renormalisation after the map, so every tile carries the same cell
    pattern and the per-tile weight vectors are identical.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    res = int(resolution)

    i, j, triples, inside = galerkin.barycentric_grid(res)
    cells = galerkin.grid_rows(tess.fund_vertices, res, i, j)[triples[inside]]

    base_wts = triangle_area(cells)
    normals = outward_normals(cells)
    # incenter: equal signed distance to all three sides
    w = np.cross(normals[:, 0] - normals[:, 1], normals[:, 1] - normals[:, 2]) * ETA_DIAG
    q = -lorentz_dot(w, w)
    inc = np.where((q > 0)[:, None], w / np.sqrt(np.where(q > 0, q, 1.0))[:, None], cells.mean(axis=1))
    base_pts = normalize(np.where(inc[:, 2:] < 0, -inc, inc))

    ids = np.asarray(tile_ids, dtype=int)
    return Quadrature(
        points=np.concatenate([base_pts @ tess.mats[tid].T for tid in ids]),
        weights=np.tile(base_wts, len(ids)),
        tile_ids=np.repeat(ids, len(base_wts)),
        resolution=res,
        vertices=tess.fund_vertices,
    )


@dataclass
class CovarianceModel:
    """Cell covariance matrix with its factorization; `estimate` is the
    Richardson error estimate of the Neumann kind (None for the free kind)."""

    kind: str  # "free" | "neumann"
    matrix: np.ndarray
    factor: np.ndarray  # lower triangular
    ridge: float  # always 0.0: the factor is a plain Cholesky of the matrix
    estimate: float | None = None

    @property
    def diag(self):
        return np.diag(self.matrix)


def build_covariance(mp, nt, quad, kind):
    """Covariance of the cell-regularized field.

    Free kind: off-diagonal entries are the kernel values G_plus between
    the cell points, and the diagonal is G_plus at the cell's effective
    radius r_i = sqrt(w_i / pi).  Neumann kind: the cell averages of the
    tile's Neumann Green's function, from a P1 Galerkin solve of
    -Laplacian + m^2 on the fundamental tile (`galerkin.cell_averages`).
    They are extrapolated as (4 C_8 - C_4) / 3 from the meshes that cut
    each cell `galerkin.CUTS` = 8 and `galerkin.CUTS_COARSE` = 4 times,
    whose error is O(h^2); max |C_8 - C_4| / 3 is the model's `estimate`,
    logged at INFO with the node counts and the time.  Every tile of quad
    is an isometric image of the fundamental one with the same cells, so
    all share that block, and cross-tile entries are exact zeros.  No
    kind reads the truncation `nt`: the parameter stays so that callers
    keep their positional signature.
    """
    if kind not in ("free", "neumann"):
        raise ValueError("kind must be 'free' or 'neumann'")
    n = len(quad)
    estimate = None
    if kind == "free":
        pts, wts = quad.points, quad.weights
        rho = pairwise_dist(pts, pts)
        off = ~np.eye(n, dtype=bool)
        if n > 1 and rho[off].min() < 1e-6:
            raise ValueError("quadrature cells closer than 1e-6; refine differently")
        c = np.zeros((n, n))
        c[off] = greens.g_plus(mp, rho[off])
        np.fill_diagonal(c, greens.g_plus(mp, np.sqrt(wts / math.pi)))
        c = 0.5 * (c + c.T)  # symmetrize fp noise
    else:
        t_start = time.perf_counter()
        fine, _, fine_nodes = galerkin.cell_averages(quad.vertices, quad.resolution, mp.m2, galerkin.CUTS)
        coarse, _, coarse_nodes = galerkin.cell_averages(quad.vertices, quad.resolution, mp.m2, galerkin.CUTS_COARSE)
        block = (4.0 * fine - coarse) / 3.0
        estimate = float(np.abs(fine - coarse).max() / 3.0)
        logger.info(
            "neumann covariance resolution %d: Galerkin on %d and %d nodes, estimate %.2e, %.4f s",
            quad.resolution, fine_nodes, coarse_nodes, estimate, time.perf_counter() - t_start,
        )
        c = np.zeros((n, n))
        for tid in dict.fromkeys(quad.tile_ids.tolist()):
            idx = np.nonzero(quad.tile_mask(tid))[0]
            c[np.ix_(idx, idx)] = block
    try:
        factor = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        raise CovarianceInvalidError(
            f"{kind} covariance at resolution {quad.resolution} is not positive definite "
            "(see ROADMAP item 4)"
        ) from None
    return CovarianceModel(kind=kind, matrix=c, factor=factor, ridge=0.0, estimate=estimate)


def sample_fields(cov, n, seed, threads=None):
    """n covariance-distributed Gaussian vectors, bit-reproducible from seed.

    Returns an (n, cells) array whose row s is sample s.  It is the
    transpose view of a (cells, n) array, so each cell's values are
    contiguous and the reductions read a block's cell rows in place.
    Each batch b draws from a Philox stream keyed by (seed, b), takes the
    (take, cells) @ factor.T product and lands at a fixed offset, so the
    result is independent of worker count and scheduling.  The batches
    run on `threads` workers (None: one per core; see the module
    docstring), each drawing and multiplying in its own two
    (`_SAMPLE_BATCH`, cells) buffers, allocated once.
    """
    t_start = time.perf_counter()
    m = cov.factor.shape[0]
    cells = np.empty((m, n))
    spans = [(start, min(start + _SAMPLE_BATCH, n)) for start in range(0, n, _SAMPLE_BATCH)]

    def task(run):
        draws, prods = np.empty((2, _widest(run), m))

        def loop():
            for start, stop in run:
                key = np.random.SeedSequence(entropy=seed, spawn_key=(start // _SAMPLE_BATCH,))
                z = np.random.Generator(np.random.Philox(key)).standard_normal(out=draws[: stop - start])
                cells[:, start:stop] = np.matmul(z, cov.factor.T, out=prods[: stop - start]).T

        return loop

    workers = _map_blocks(task, spans, threads)
    logger.info(
        "sample_fields %d samples x %d cells: %d batches, %d threads, %.3f s",
        n, m, len(spans), workers, time.perf_counter() - t_start,
    )
    return cells.T


def _check_alpha(alpha):
    if abs(alpha) >= greens.ALPHA_MAX:
        raise ThresholdError(f"|alpha| = {abs(alpha):.4f} >= sqrt(4 pi)")


def _row_blocks(n, align=1, scale=1):
    """(start, stop) of the consecutive blocks of n rows, each scale *
    `_BLOCK_ROWS` rows rounded up to a multiple of align but the last."""
    rows = int(-(-(scale * _BLOCK_ROWS) // align) * align)
    return [(start, min(start + rows, n)) for start in range(0, n, rows)]


def _flat_blocks(n, threads):
    """The blocks of a loop over one value per sample: `_FLAT` times the
    cell loops' blocks in whole chunks, shared among the workers, so that
    their buffers together hold about one serial block."""
    return _row_blocks(n, _CHUNK, _FLAT / _worker_count(threads, -(-n // _CHUNK)))


def _widest(run):
    """Rows of the longest (start, stop) block of a run of consecutive
    blocks, its first: the size of a task's buffers."""
    return run[0][1] - run[0][0] if run else 0


def _log_blocks(what, n, blocks, workers, t_start):
    logger.debug(
        "%s %d samples: %d blocks, %d workers, %.4f s",
        what, n, len(blocks), workers, time.perf_counter() - t_start,
    )


def _chunk_rows(v):
    """v, starting on a chunk boundary, as 2-D views whose rows are its
    `_CHUNK`-value chunks: the whole chunks, then the short last one."""
    full = len(v) // _CHUNK * _CHUNK
    parts = [v[:full].reshape(-1, _CHUNK)] if full else []
    if full < len(v):
        parts.append(v[full:].reshape(1, -1))
    return parts


def _sum_sq_dev(v, center, threads=None):
    """sum (v - center)^2, block by block over the fixed chunk tree."""
    t_start = time.perf_counter()
    n = len(v)
    sums = np.empty(-(-n // _CHUNK))
    blocks = _flat_blocks(n, threads)

    def task(run):
        buf = np.empty(_widest(run))

        def loop():
            for start, stop in run:
                dev = buf[: stop - start]
                np.subtract(v[start:stop], center, out=dev)
                np.square(dev, out=dev)
                c = start // _CHUNK
                for rows in _chunk_rows(dev):
                    np.add.reduce(rows, axis=1, out=sums[c : c + len(rows)])
                    c += len(rows)

        return loop

    _log_blocks("squared deviations", n, blocks, _map_blocks(task, blocks, threads), t_start)
    return float(sums.sum())


class _ChunkMoments:
    """Sum and sum of squared deviations M2 of n values, taken over the
    fixed `_CHUNK`-value chunks counted from value 0 and combined by the
    parallel-axis formula, so they do not depend on how the values
    arrive in blocks.  Holds three floats per chunk (sum, mean, M2),
    nothing per value; blocks that record disjoint chunks may be added
    from different threads."""

    def __init__(self, n):
        self.n = n
        self.sums, self.means, self.m2s = np.empty((3, -(-n // _CHUNK)))

    def add(self, start, block):
        """Record values start, ..., start + len(block) - 1; overwrites block.

        start is a multiple of `_CHUNK`, and the block ends on a chunk
        boundary or at value n.
        """
        c = start // _CHUNK
        full = len(block) // _CHUNK
        if full:
            vals = block[: full * _CHUNK].reshape(full, _CHUNK)
            means = self.means[c : c + full]
            np.divide(np.add.reduce(vals, axis=1, out=self.sums[c : c + full]), _CHUNK, out=means)
            np.subtract(vals, means[:, None], out=vals)
            np.square(vals, out=vals)
            np.add.reduce(vals, axis=1, out=self.m2s[c : c + full])
        tail = block[full * _CHUNK :]
        if len(tail):  # the short last chunk, by scalars
            self.sums[c + full] = total = np.add.reduce(tail)
            self.means[c + full] = mean = total / len(tail)
            np.square(np.subtract(tail, mean, out=tail), out=tail)
            self.m2s[c + full] = np.add.reduce(tail)

    def result(self):
        """(sum, mean, M2) of all n values."""
        total = float(np.add.reduce(self.sums))
        mean = total / self.n
        # n_c (m_c - m)^2: n_c is _CHUNK but for the last chunk
        dev = np.subtract(self.means, mean)
        np.square(dev, out=dev)
        np.multiply(dev, float(_CHUNK), out=dev)
        dev[-1] *= (self.n - _CHUNK * (len(dev) - 1)) / _CHUNK
        return total, mean, float(np.add.reduce(self.m2s) + np.add.reduce(dev))


def _weighted_cell_sum(block, wg, out, scratch):
    """out = sum_i wg_i block[i], accumulated over the cells i in order.

    block is (cells, rows); the weighted rows go to `scratch`, a (cells,
    rows) buffer that may be block itself.  The fixed order makes a row's
    sum independent of the block it sits in.
    """
    np.multiply(block, wg[:, None], out=scratch)
    np.copyto(out, scratch[0])
    for row in scratch[1:]:
        np.add(out, row, out=out)


def wick_exp(samples, cov, quad, alpha, g=None, threads=None):
    """Normal-ordered exponential X = sum_i w_i g_i exp(alpha phi_i - alpha^2 C_ii / 2).

    Nonnegative samplewise for g >= 0; E[X] = sum_i w_i g_i exactly.
    Returns one value per sample, the same for any `threads`.
    """
    _check_alpha(alpha)
    return _wick_exp(samples, cov, quad, alpha, g, None, threads)


def _wick_exp(samples, cov, quad, alpha, g, shift, threads):
    """`wick_exp` of the samples shifted by the per-cell vector `shift`
    (None for no shift), added block by block: each row of samples + shift
    goes through the same operations as in the whole-array formula.  A
    block's cells are `samples[start:stop].T`, the cell rows in place
    for the cell-major samples of `sample_fields`."""
    t_start = time.perf_counter()
    wg = quad.weights if g is None else quad.weights * np.asarray(g, dtype=float)
    half_var = (0.5 * alpha * alpha * cov.diag)[:, None]
    n, m = samples.shape
    out = np.empty(n)
    blocks = _row_blocks(n)

    def task(run):
        buf = np.empty((m, _widest(run)))

        def loop():
            for start, stop in run:
                block = buf[:, : stop - start]
                if shift is None:
                    np.multiply(samples[start:stop].T, alpha, out=block)
                else:
                    np.add(samples[start:stop].T, shift.reshape(-1, 1), out=block)
                    np.multiply(block, alpha, out=block)
                np.subtract(block, half_var, out=block)
                np.exp(block, out=block)
                _weighted_cell_sum(block, wg, out[start:stop], block)

        return loop

    _log_blocks("wick_exp", n, blocks, _map_blocks(task, blocks, threads), t_start)
    return out


@dataclass
class WickPowerEstimate:
    k: int
    mean: float
    mean_stderr: float
    variance: float
    second_moment: float
    second_moment_stderr: float


def _wick_power_samples(samples, cov, wg, k, threads=None):
    """:phi^k:(g) of every sample, by the Wick recurrence in row blocks.

    phi is read in place and never written: W_1 is phi itself, the
    recurrence starts from W_2 = phi^2 - C_ii, and three buffers rotate
    through the later W_j.
    """
    t_start = time.perf_counter()
    n, m = samples.shape
    diag = cov.diag[:, None]
    out = np.empty(n)
    blocks = _row_blocks(n)

    def task(run):
        rows = _widest(run)
        ones = np.ones((m, rows)) if k == 0 else None  # W_0
        bufs = [np.empty((m, rows)) for _ in range(3)]

        def loop():
            for start, stop in run:
                width = stop - start
                phi = samples[start:stop].T
                if k == 0:
                    cur = ones[:, :width]
                elif k == 1:
                    cur = phi
                else:
                    cur, nxt, spare = (b[:, :width] for b in bufs)
                    np.multiply(phi, phi, out=cur)
                    np.subtract(cur, diag, out=cur)  # W_2 = phi W_1 - C_ii W_0
                    prev = phi
                    for j in range(2, k):
                        # W_(j+1) = phi W_j - j C_ii W_(j-1), scaling W_(j-1)
                        # in place once it is a buffer, not phi
                        np.multiply(phi, cur, out=nxt)
                        scaled = spare if prev is phi else prev
                        np.multiply(prev, j * diag, out=scaled)
                        np.subtract(nxt, scaled, out=nxt)
                        prev, cur, nxt = cur, nxt, scaled
                # W_k is weighted in place when it is a buffer, not phi or W_0
                _weighted_cell_sum(cur, wg, out[start:stop], cur if k >= 2 else bufs[0][:, :width])

        return loop

    _log_blocks(f"wick power {k}", n, blocks, _map_blocks(task, blocks, threads), t_start)
    return out


def wick_power_estimate(samples, cov, quad, k, g=None, threads=None):
    """Monte Carlo moments of the k-th Wick power :phi^k:(g).

    The discrete Wick power is C_ii^(k/2) He_k(phi_i / sqrt(C_ii)) with
    He_k the probabilist Hermite polynomial, built by the recurrence
    (DLMF 18.9.1)

        W_0 = 1,  W_1 = phi_i,  W_(j+1) = phi_i W_j - j C_ii W_(j-1);

    its L^2 norm contracts the covariance to k-th power, which the tests
    pin against the direct matrix evaluation.

    The moments of w and then of w^2 (squared in place) are numpy's
    mean and the squared deviations from it summed on the fixed chunk
    tree, so no array beyond w is allocated.  The block loops run on
    `threads` workers, with the same result for any number.
    """
    if not 0 <= k <= WICK_POWER_CAP:
        raise ValueError(f"need 0 <= k <= {WICK_POWER_CAP} for conditioning")
    wg = quad.weights if g is None else quad.weights * np.asarray(g, dtype=float)
    w = _wick_power_samples(samples, cov, wg, k, threads)
    s = len(w)
    mean = float(w.mean())
    m2 = _sum_sq_dev(w, mean, threads)
    np.square(w, out=w)
    second = float(w.mean())
    m2_sq = _sum_sq_dev(w, second, threads)
    variance = m2 / (s - 1) if s > 1 else 0.0
    return WickPowerEstimate(
        k=k,
        mean=mean,
        mean_stderr=math.sqrt(variance) / math.sqrt(s) if s > 1 else 0.0,
        variance=variance,
        second_moment=second,
        second_moment_stderr=math.sqrt(m2_sq / (s - 1)) / math.sqrt(s) if s > 1 else 0.0,
    )


def shift_audit(samples, cov, quad, alpha, f, g=None, threads=None):
    """Both sides of the shift identity
    :exp(alpha(phi + f)):(g) = :exp(alpha phi):(e^(alpha f) g);
    equal to machine precision, exact algebra at the discrete level.
    """
    _check_alpha(alpha)
    f = np.asarray(f, dtype=float)
    lhs = _wick_exp(samples, cov, quad, alpha, g, f, threads)
    gmult = np.exp(alpha * f) if g is None else np.exp(alpha * f) * np.asarray(g, dtype=float)
    rhs = wick_exp(samples, cov, quad, alpha, g=gmult, threads=threads)
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


def log_laplace_stable(x, log_s, threads=None):
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
    tree of the module docstring, by `threads` workers; no (n,) array is
    allocated, and one block is one call in the calling thread.  Logs n,
    log s, ESS, `saturated`, blocks, workers and the time at DEBUG.
    """
    t_start = time.perf_counter()
    x = np.asarray(x, dtype=float)
    n = len(x)
    xmin = float(np.minimum.reduce(x))
    if xmin <= 0.0:
        raise ValueError("Laplace argument must be positive (wick_exp output)")
    lead = log_s + math.log(xmin)
    blocks, workers = [], 0
    if lead > 700.0:
        result, ess = (-math.inf, math.inf, True), math.nan
    else:
        moments = _ChunkMoments(n)
        blocks = _flat_blocks(n, threads)

        def task(run):
            buf = np.empty(_widest(run))

            def loop():
                with np.errstate(over="ignore"):  # numpy's error state is per thread
                    for start, stop in run:
                        moments.add(start, _laplace_weights(x[start:stop], xmin, log_s, out=buf[: stop - start]))

            return loop

        workers = _map_blocks(task, blocks, threads)
        total, mean_w, m2 = moments.result()
        log_l = -math.exp(lead) + math.log(mean_w)
        se = math.sqrt(m2 / (n - 1)) / (mean_w * math.sqrt(n)) if n > 1 else 0.0
        ess = total**2 / (m2 + n * mean_w**2)
        result = (log_l, se, bool(ess < 10.0))
    logger.debug(
        "log_laplace_stable %d samples at log s = %.6g: ESS %.4g, saturated %s, "
        "%d blocks, %d workers, %.4f s",
        n, log_s, ess, result[2], len(blocks), workers, time.perf_counter() - t_start,
    )
    return result


@dataclass
class ZRatioResult:
    ratio: float
    log_ratio: float
    stderr: float
    ess: float
    unreliable: bool


def z_ratio(mp, quad, alpha, lam, h, n, seed, threads=None):
    """Direct estimate of Z(h, Lambda)/Z(0, Lambda) on common random numbers.

    The numerator shifts the field by H_plus h through the exact shift
    identity, so both estimators share every sample and most of the
    variance cancels in the ratio.  Both means are taken in log space:
    the weights exp(-v) are shifted by their largest value, so
    `log_ratio` stays finite where every exp(-v_h) underflows (at
    m^2 = 6 on the decay config); `ratio` is its exp and may underflow
    to 0.  The stderr of the ratio and the ESS of the numerator's weights
    do not depend on the shift.  At lambda = 0 the ratio is 1 exactly,
    and no covariance is built and no sample drawn.  `threads` goes to
    `sample_fields` and `wick_exp`, whose results do not depend on it.
    """
    _check_alpha(alpha)
    if lam < 0:
        raise ValueError("need lambda >= 0")
    if lam == 0.0:
        return ZRatioResult(ratio=1.0, log_ratio=0.0, stderr=0.0, ess=float(n), unreliable=False)
    cov = build_covariance(mp, None, quad, "free")
    samples = sample_fields(cov, n, seed, threads=threads)
    if h is None or h.is_zero:
        f = np.zeros(len(quad))
    else:
        f = bd.h_plus_at_points(mp, h, quad.points)
    v0 = lam * wick_exp(samples, cov, quad, alpha, threads=threads)
    vh = lam * wick_exp(samples, cov, quad, alpha, g=np.exp(alpha * f), threads=threads)
    # exp(-v + min v): the largest weight is exactly 1
    a = np.exp(vh.min() - vh)
    b = np.exp(v0.min() - v0)
    am, bm = a.mean(), b.mean()
    log_ratio = float(v0.min() - vh.min() + math.log(am) - math.log(bm))
    va, vb = a.var(ddof=1), b.var(ddof=1)
    cab = np.cov(a, b, ddof=1)[0, 1]
    rel_var = max(va / am**2 + vb / bm**2 - 2.0 * cab / (am * bm), 0.0) / n
    ratio = math.exp(log_ratio)
    ess = float(a.sum() ** 2 / (a**2).sum())
    return ZRatioResult(
        ratio=ratio, log_ratio=log_ratio, stderr=ratio * math.sqrt(rel_var), ess=ess, unreliable=bool(ess < 100.0),
    )


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
                "log_ratio": self.direct_ratio.log_ratio,
                "stderr": self.direct_ratio.stderr,
                "ess": self.direct_ratio.ess,
                "unreliable": self.direct_ratio.unreliable,
            },
            "summary": self.summary(),
        }


def _geometry(cfg, mp, h, control):
    """The geometry stage of `triviality_run`, the only one that reads the ball.

    Enumerates the ball of radius `ball_radius(tp, cfg.orbit_radius)`,
    finds the conical sequence and its k_j, and cuts the quadratures of
    tile 0 and of the direct ratio's tiles (None when that check is too
    large to run).  Returns (ids, log k_j, quadrature, direct quadrature,
    tile area): no reference to the ball leaves it, so the ball is freed
    on return, before any covariance is built or sample drawn.
    """
    tp = TriangleParams(cfg.p, cfg.q, cfg.r)
    tess = generate(tp, ball_radius(tp, cfg.orbit_radius))
    ids = conical_sequence(tess, cfg.p_angle, tess.centroids[0], cfg.q_max, cfg.cone_c, min_step=cfg.min_step)
    log_ks = [row["log_k_j"] for row in bd.k_table(mp, h, cfg.alpha, tess, ids, grid=cfg.k_grid)]
    if not control and (np.diff(log_ks) <= 0).any():
        raise ConfigurationError(
            "k_j not strictly increasing along the conical sequence; "
            "h support misaligned with the conical point"
        )
    quad = build_quadrature(tess, [0], cfg.resolution)

    # direct ratio check on a small region: the anchor tile plus the first
    # conical tile separated enough that the cell-averaged free covariance
    # stays positive definite (adjacent tiles put cells across a shared
    # side closer than the effective regularization radius)
    direct_quad = None
    if len(quad) * 2 <= 80:
        direct_ids = [ids[0]]
        for tid in ids[1:]:
            if dist(tess.centroids[ids[0]], tess.centroids[tid]) >= 1.0:
                direct_ids.append(tid)
                break
        direct_quad = build_quadrature(tess, direct_ids, cfg.resolution)
    return ids, log_ks, quad, direct_quad, tess.tile_area


def triviality_run(cfg):
    """The decay experiment: certify U(q) <= -eps*q along a conical tile
    sequence approaching a boundary point inside the support of h.

    Every tile is an isometric image of the fundamental one and the
    Neumann field decouples across them,
    so one Laplace-transform sample set (X_1 on the fundamental tile)
    serves every factor.  Its covariance is the Galerkin cell average of
    the Neumann Green's function on one tile (`build_covariance`), so no
    image sum and no truncation enter the chain.  h = 0 runs are the
    control: all k_j = 1 and no decay should be certified.  The
    smallness condition on lambda involves the continuum mass
    mu(X_1 = 0), which has no finite-mesh counterpart; the run certifies
    the bound-chain decay itself and reports the Laplace plateau at the
    largest k as the empirical proxy.

    The stages run in this order: geometry (`_geometry`: the ball, the
    conical sequence, the k_j and the quadratures), the Neumann
    covariance, sampling and X_1, the Laplace terms and the fit with its
    batched stderr, then the direct ratio (`z_ratio`).  The ball lives
    only in the geometry stage.  Every Monte Carlo loop runs on
    `cfg.threads` workers; at 1 (the default) no thread pool is started.
    """
    if cfg.lam <= 0:
        raise ConfigurationError("triviality run needs lambda > 0")
    mp = greens.ModelParams(cfg.m2)
    control = cfg.amplitude == 0.0
    h = bd.BoundarySource.bump(cfg.beta0, cfg.beta1, amplitude=cfg.amplitude)
    if not control and not (cfg.beta0 < cfg.p_angle < cfg.beta1):
        raise ConfigurationError("conical point p_angle must lie inside the bump support")

    ids, log_ks, quad, direct_quad, area = _geometry(cfg, mp, h, control)

    cov = build_covariance(mp, None, quad, "neumann")
    samples = sample_fields(cov, cfg.n_mc, cfg.seed, threads=cfg.threads)
    # The Laplace variable is the per-tile Neumann exponential ordered by
    # its own covariance: E[X_1] equals the tile area exactly, so Jensen
    # pins the h = 0 control terms at >= 0 and no decay gets certified.
    x1 = wick_exp(samples, cov, quad, cfg.alpha, threads=cfg.threads)

    records = []
    log_lam = math.log(cfg.lam)
    laplace = [log_laplace_stable(x1, log_lam + lk, threads=cfg.threads) for lk in log_ks]
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
    eps_se = _slope_se_by_batches(x1, log_ks, log_lam, cfg.lam * area, fit_qs, threads=cfg.threads)
    ci95_low = eps_hat - T95 * eps_se  # one-sided 95%
    plateau = laplace[-1][0]

    direct = None
    if direct_quad is not None:
        direct = z_ratio(
            mp, direct_quad, cfg.alpha, cfg.lam, None if control else h, cfg.n_mc, cfg.seed + 101,
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
    )


def fit_records(records):
    """The U(q) records `eps_hat` is fitted on: the unsaturated, finite ones."""
    return [r for r in records if not r.saturated and math.isfinite(r.u)]


def _fit_decay(qs, us):
    """Least-squares slope of U(q) on q; eps_hat = -slope."""
    slope = np.polyfit(np.asarray(qs, dtype=float), np.asarray(us, dtype=float), 1)[0]
    return -float(slope)


def _slope_se_by_batches(x1, log_ks, log_lam, area_term, fit_qs, threads=None):
    """Standard error of the fitted decay rate by sample batching.

    The U(q) points share one sample set and are nested partial sums, so
    their errors are strongly correlated; refitting the slope on disjoint
    sample batches captures that without modeling the covariance.
    """
    x1 = np.asarray(x1)
    n = len(x1)
    if n < 2 * SLOPE_BATCHES:
        return float("inf")
    slopes = []
    for b in range(SLOPE_BATCHES):
        xb = np.ascontiguousarray(x1[b::SLOPE_BATCHES])  # one copy for its len(log_ks) calls
        terms = []
        for lk in log_ks:
            ll, _, _ = log_laplace_stable(xb, log_lam + lk, threads=threads)
            terms.append(ll + area_term)
        us = [float(sum(terms[:qi])) for qi in fit_qs]
        if not all(math.isfinite(u) for u in us):
            return float("inf")
        slopes.append(_fit_decay(fit_qs, us))
    return float(np.std(slopes, ddof=1) / math.sqrt(SLOPE_BATCHES))
