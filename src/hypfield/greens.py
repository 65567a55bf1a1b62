"""Free and Neumann Green's functions on H^2.

The free kernel G_plus of (-Laplacian + m^2)^-1 is a Gauss hypergeometric
function of the geodesic distance, evaluated by a piecewise interpolant
that is exact next to the diagonal (see `_kernels`).  The Neumann kernel
G_N on a reflection tessellation is the image sum over the group orbit,
truncated by orbit radius rho(x, gamma(y)) <= R with a reported tail
bound.  Between distinct tiles G_N is identically zero, which is what
decouples the field.  The decay chain takes its Neumann covariance from
the Galerkin solve of `fieldmc.build_covariance` instead; the image sums
serve the audits (`neumann_symmetry_audit`, `domination_audit`) and the
tests that check that solve.

The two printed closed forms of G_plus differ by a factor 2^(-Delta) in
the source; the form implemented here (prefactor 2^(-2*Delta) in both)
is the one consistent with the half-space representation and with the
Legendre identity G_plus = Q_{Delta-1}(cosh rho) / (2 pi), which the
test suite pins against an independent Legendre evaluation.
"""

import logging
import math
import time
import warnings

import numpy as np

from . import _kernels
from .errors import (
    DiagonalSingularityError,
    DivergentTailError,
    NearSingularWarning,
    PrecisionLossError,
    ThresholdError,
    TruncationError,
)
from .geometry import ETA_DIAG, dist, normalize, pairwise_dist, reflection
from .tessellation import ball_radius, orbital_count

ALPHA_MAX = math.sqrt(4.0 * math.pi)

_Z_PLAIN_MAX = 0.75

logger = logging.getLogger(__name__)


class ModelParams:
    """Mass, conformal weight and normalization of the free kernel on H^2.

    delta_plus = 1/2 + sqrt(1 + 4 m^2)/2
    gamma_plus = Gamma(delta) / (2 sqrt(pi) Gamma(delta + 1/2))

    The constructor also sets `gplus_interp`, the
    `_kernels.GplusInterpolant` through which `_kernels.gplus_array` and
    the image sums compute G_plus for every rho > 0, and logs it at INFO
    on `hypfield.greens`.  The interpolant is fitted through 82 nodes and
    its diagonal piece keeps the exact -ln(rho)/(2 pi) singularity; the
    constructor raises PrecisionLossError when it misses the series by
    more than `_kernels.INTERP_RTOL`.
    """

    def __init__(self, m2):
        if m2 <= 0:
            raise ValueError("m2 must be > 0 (image sums need delta_plus > 1)")
        self.m2 = float(m2)
        dp = 0.5 + 0.5 * math.sqrt(1.0 + 4.0 * self.m2)
        self.delta_plus = dp
        # not dp + 0.5, which rounds differently for 3% of masses and would
        # move the pinned numbers
        self.gamma_plus = math.gamma(dp) / (2.0 * math.sqrt(math.pi) * math.gamma(dp + 1.0 - 0.5))
        t_start = time.perf_counter()
        self.gplus_interp = _kernels.GplusInterpolant(self)
        logger.info(
            "G_plus interpolant m2=%g: %d nodes, max rel err %.1e, %.3f s",
            self.m2, self.gplus_interp.nodes, self.gplus_interp.max_rel_err,
            time.perf_counter() - t_start,
        )

    def __repr__(self):
        return f"ModelParams(m2={self.m2}, delta_plus={self.delta_plus})"


def hyp2f1(a, b, c, z, u=None):
    """Gauss hypergeometric function by series, for -1 < z < 1.

    u = 1 - z, passed by a caller that knows it to more digits than z.
    For c = a + b and u <= min(0.03, 1.44 / (a b)), the log form of
    `_kernels.log_case_coef`, the connection formula DLMF 15.8.10, is
    taken.  Its terms grow like those of I_0(2 sqrt(a b u)) and cancel,
    so it loses digits as a b u grows: at a = b = 32.1 it is 2e-15 off at
    u = 1.1e-3, 2e-13 at 2.4e-3 and 4e-7 at 0.03, while at a = b <= 5 it
    holds 2e-15 up to u = 0.03.  PrecisionLossError is raised where its
    Gamma(a + b) overflows, past a + b = 171.6.
    Where a or b is 0, -1, -2, ..., F is a polynomial in z, and its
    terminating Gauss series is summed whatever c and z (the log form's
    psi(a) or psi(b) has a pole there).
    Otherwise, for z > 0.75 or z < 0, c = 2b takes the quadratic argument
    transformation, a series in (z / (z - 2))^2 < 1 whose terms are
    positive for a, b > 0; next to z = 1 it needs about 1/(4u) terms and
    loses about 1.2e-16/u to rounding, whatever a and b.
    Every other case sums the plain Gauss series in z.
    """
    if c <= 0 and c == int(c):
        raise ValueError("c must not be a nonpositive integer")
    u = 1.0 - z if u is None else u
    if not (z > -1.0 and u > 0.0):
        raise ValueError("series evaluation requires -1 < z < 1")
    if any(p <= 0 and float(p).is_integer() for p in (a, b)):
        return _kernels.hyp2f1_series(a, b, c, z)
    if abs(c - a - b) < 1e-13 and u <= min(0.03, 1.44 / (a * b)):
        try:
            coef = _kernels.log_case_coef(a, b, u)
        except OverflowError:
            raise PrecisionLossError(f"Gamma function overflows in 2F1 at c = {c}") from None
        return float(_kernels.log_form(coef, u))
    if (z > _Z_PLAIN_MAX or z < 0.0) and abs(c - 2.0 * b) < 1e-13:
        pref = (1.0 - z / 2.0) ** (-a)
        return pref * _kernels.hyp2f1_series(a / 2.0, (a + 1.0) / 2.0, b + 0.5, (z / (z - 2.0)) ** 2)
    return _kernels.hyp2f1_series(a, b, c, z)


def g_plus(mp, rho):
    """Free Green's function at geodesic distance rho > 0 (scalar or array)."""
    arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if (arr <= 0).any():
        raise DiagonalSingularityError("G_plus diverges on the diagonal (rho <= 0)")
    out = _kernels.gplus_array(arr, mp)
    return float(out[0]) if np.isscalar(rho) or np.asarray(rho).ndim == 0 else out


def g_plus_forms(mp, rho):
    """Evaluate the two printed closed forms separately (audit path).

    Returns (g2, g3): the sinh^(-2 delta) form gamma (4 sinh^2(rho/2))^-delta
    F(delta, delta; 2 delta; -1/sinh^2(rho/2)) and the w^(-delta) form
    gamma 2^(-2 delta) w^(-delta) F(delta, delta; 2 delta; 1/w), w =
    cosh^2(rho/2).  For rho >= 1.98 (sinh^2(rho/2) >= 1/0.74) the two sum
    different series of positive terms: G2 the quadratic transformation
    of its argument, G3 the plain series in 1/w <= 0.43.  Below that they
    share the series in 1/w and its complement u = tanh^2(rho/2), exact
    where 1/w rounds to 1, but not the prefactor algebra.
    """
    dp = mp.delta_plus
    sh2 = math.sinh(rho / 2.0) ** 2
    w = 1.0 + sh2

    # (G2): gamma * (4 sinh^2(rho/2))^-delta * F(delta, delta; 2 delta; -1/sinh^2)
    z = -1.0 / sh2
    if abs(z) <= 0.74:
        g2 = mp.gamma_plus * (4.0 * sh2) ** (-dp) * hyp2f1(dp, dp, 2.0 * dp, z)
    else:
        # Pfaff: F(a,b;c;z) = (1-z)^-a F(a, c-b; c; z/(z-1)); here c - b = b
        f2 = hyp2f1(dp, dp, 2.0 * dp, z / (z - 1.0), sh2 / w)
        g2 = mp.gamma_plus * (4.0 * sh2 * (1.0 - z)) ** (-dp) * f2

    # (G3), corrected prefactor: gamma * 2^-2delta * w^-delta * F(delta, delta; 2 delta; 1/w)
    f3 = hyp2f1(dp, dp, 2.0 * dp, 1.0 / w, sh2 / w)
    g3 = mp.gamma_plus * 2.0 ** (-2.0 * dp) * w ** (-dp) * f3
    return g2, g3


class NeumannTruncation:
    """Image-sum truncation policy: include gamma with rho(x, gamma y) <= R.

    The tail estimate combines the exponential orbit growth N < A e^theta
    (A measured empirically on this tessellation) with the kernel decay
    G_plus ~ gamma_plus e^(-delta rho):

        tail <= gamma_plus * A * exp((1 - delta) R) / (delta - 1).

    `_mats`, the group elements the image sums run over, are those of the
    tiles with centroids within `ball_radius(params, R)`.  Tile ids run in
    nondecreasing centroid distance, so it is a view of the prefix
    `tess.mats[:k]`; only a cut inside a 1e-11 tie group, whose members
    keep enumeration order, makes it a copy of the selection.
    """

    def __init__(self, tess, max_orbit_radius, tail_tol=1e-4):
        self.tess = tess
        self.max_orbit_radius = float(max_orbit_radius)
        self.tail_tol = float(tail_tol)
        need = ball_radius(tess.params, self.max_orbit_radius)
        if tess.radius < need:
            raise TruncationError(
                f"tessellation radius {tess.radius} too small for orbit radius "
                f"{max_orbit_radius}; need >= {need:.2f}"
            )
        self.empirical_a = self._measure_orbit_constant()
        sel = tess.centroid_rho <= need
        k = int(np.count_nonzero(sel))
        self._mats = np.ascontiguousarray(tess.mats[:k] if sel[:k].all() else tess.mats[sel])

    def _measure_orbit_constant(self):
        c1 = self.tess.centroids[0]
        rc1 = math.acosh(max(c1[2], 1.0))
        theta_max = self.tess.radius - 2.0 * rc1 - 1e-9
        thetas = np.linspace(1.0, max(theta_max, 1.0), 24)
        sup = 0.0
        for theta, n in zip(thetas, orbital_count(self.tess, thetas, c1, c1)):
            sup = max(sup, int(n) * math.exp(-theta))
        return sup

    def tail_bound(self, mp):
        dp = mp.delta_plus
        if dp <= 1.0:
            raise DivergentTailError("image-sum tail bound requires delta_plus > 1")
        return (
            mp.gamma_plus
            * self.empirical_a
            * math.exp((1.0 - dp) * self.max_orbit_radius)
            / (dp - 1.0)
        )

    def check_tail(self, mp):
        tb = self.tail_bound(mp)
        if tb > self.tail_tol:
            raise TruncationError(
                f"truncation tail bound {tb:.3e} exceeds tail_tol {self.tail_tol:.3e}"
            )
        return tb


def _pull_back(tess, tile_id, vecs):
    """Rows of tile `tile_id` mapped into the fundamental tile by the exact
    inverse eta m^T eta of its element m, in one product."""
    m = tess.mats[tile_id]
    return np.asarray(vecs, dtype=float) @ (ETA_DIAG[:, None] * m * ETA_DIAG)


def g_neumann(mp, nt, x, y):
    """Neumann Green's function at the Lorentz rows x and y; exactly 0
    across distinct tiles."""
    tess = nt.tess
    tx, ty = tess.locate(x), tess.locate(y)
    if tx is None or ty is None:
        raise TruncationError("point outside the enumerated tessellation")
    if tx != ty:
        return 0.0
    nt.check_tail(mp)
    xv = _pull_back(tess, tx, [x])[0]
    yv = _pull_back(tess, ty, [y])[0]
    # acosh resolves nothing below ~1e-8, so coincidence is tested there
    if dist(xv, yv) < 1e-6:
        raise DiagonalSingularityError("G_N diverges at x = y")
    block = _kernels.image_sum_block(
        xv[None, :], yv[None, :], nt._mats, nt.max_orbit_radius, mp
    )
    return float(block[0, 0])


def g_neumann_block(mp, nt, xs, ys, tile_id, *, threads=None):
    """Image-sum matrix for cell arrays known to lie in one tile, on
    `threads` workers (None: one per core), the same for any number;
    when xs and ys hold the same points, its diagonal is Delta G."""
    nt.check_tail(mp)
    xv = _pull_back(nt.tess, tile_id, xs)
    yv = _pull_back(nt.tess, tile_id, ys)
    return _kernels.image_sum_block(xv, yv, nt._mats, nt.max_orbit_radius, mp, threads=threads)


def delta_g(mp, nt, x):
    """Diagonal defect Delta G(x) = G_N(x,x) - G_plus(x,x) >= 0 at the
    Lorentz row x.

    The divergent diagonal cancels; what remains is the image sum over
    gamma != e, which blows up as x approaches a tile side.
    """
    out = delta_g_many(mp, nt, [x], warn=True)
    return float(out[0])


def delta_g_many(mp, nt, vecs, tile_id=None, warn=False):
    """Delta G at each Lorentz row of vecs, pulled back from its own tile
    or, when given, from tile_id."""
    tess = nt.tess
    vecs = np.asarray(vecs, dtype=float)
    if tile_id is None:
        ids = [tess.locate(v) for v in vecs]
        if any(i is None for i in ids):
            raise TruncationError("point outside the enumerated tessellation")
        pulled = np.stack([_pull_back(tess, i, v) for i, v in zip(ids, vecs)])
    else:
        pulled = _pull_back(tess, tile_id, vecs)
    nt.check_tail(mp)
    sums = _kernels.image_sum_self(pulled, nt._mats, nt.max_orbit_radius, mp)
    if warn:
        fund_normals = tess.fund_normals
        for v in pulled:
            side_gap = np.abs(fund_normals @ (v * ETA_DIAG)).min()
            if side_gap < 1e-9:
                warnings.warn(
                    "Delta G evaluated within 1e-9 of a tile side; value is near-singular",
                    NearSingularWarning,
                )
    return sums


def sample_tile_points(tess, tile_id, n, rng, min_side_gap=0.0):
    """Uniform-ish interior points of a tile via Dirichlet vertex weights."""
    m = tess.mats[tile_id]
    normals = tess.fund_normals @ m.T
    pts = []
    while len(pts) < n:
        wts = rng.dirichlet((1.0, 1.0, 1.0), size=n)
        cand = normalize(wts @ tess.fund_vertices) @ m.T
        if min_side_gap > 0.0:
            gaps = np.abs(np.einsum("sk,nk->ns", normals * ETA_DIAG, cand))
            cand = cand[gaps.min(axis=1) > min_side_gap]
        pts.extend(cand)
    return np.asarray(pts[:n])


def neumann_symmetry_audit(mp, nt, side_index=0, t0=0.2, k=10):
    """Check the Neumann boundary condition across one fundamental side.

    f(t) is the two-sided profile of the paper's construction: the image
    sum from x for t <= 0 and from the reflected source for t > 0.  With
    the orbit-radius truncation the profile is even by an exact pairing
    of images, so the violations sit at the fp floor; the audit also
    reports a fixed-group-subset variant whose evenness defect carries
    the genuine truncation error and shrinks as the radius grows.
    """
    tess = nt.tess
    a, b = ((0, 1), (0, 2), (1, 2))[side_index]
    y0 = normalize(tess.fund_vertices[a] + tess.fund_vertices[b])
    v = tess.fund_normals[side_index]
    xv = normalize(0.55 * tess.centroids[0] + 0.45 * y0)
    xref = reflection(v) @ xv

    def geodesic_point(t):
        return math.cosh(t) * y0 + math.sinh(t) * v

    sel = tess.centroid_rho <= nt.max_orbit_radius
    fixed_mats = np.ascontiguousarray(tess.mats[sel])
    big = 500.0  # effectively untruncated for the fixed-subset flavor

    ts = np.linspace(t0 / k, t0, k)
    minus = np.stack([geodesic_point(-t) for t in ts])
    plus = np.stack([geodesic_point(t) for t in ts])

    def profile(mats, rmax):
        """(f(-t), f(+t)) at every t of ts: one image-sum row from x over
        the points at -t, one from its reflection over those at +t."""
        return [
            _kernels.image_sum_block(src[None, :], pts, mats, rmax, mp)[0]
            for src, pts in ((xv, minus), (xref, plus))
        ]

    f_minus, f_plus = profile(nt._mats, nt.max_orbit_radius)
    fixed_minus, fixed_plus = profile(fixed_mats, big)
    even_orbit = float(np.abs(f_plus - f_minus).max())
    even_fixed = float(np.abs(fixed_plus - fixed_minus).max())
    # f'(0) by the central difference over +-ts[0] = +-t0/k
    dt = ts[0]
    fp_orbit = float((f_plus[0] - f_minus[0]) / (2.0 * dt))
    fp_fixed = float((fixed_plus[0] - fixed_minus[0]) / (2.0 * dt))
    return {
        "audit_name": "neumann_symmetry",
        "params": {
            "m2": mp.m2,
            "orbit_radius": nt.max_orbit_radius,
            "side_index": side_index,
            "t0": t0,
            "k": k,
        },
        "n_samples": int(k),
        "max_violation": even_orbit,
        "fprime0": fp_orbit,
        "fixed_set_max_violation": even_fixed,
        "fixed_set_fprime0": fp_fixed,
        "tail_bound": nt.tail_bound(mp),
        "passed": bool(even_orbit < 1e-6),
    }


def domination_audit(mp, nt, n_pairs=10_000, seed=0, *, threads=None):
    """Check G_plus(rho(x,y)) <= G_N(x,y) on same-tile pairs.

    Structural: the image sum contains the identity term G_plus plus
    nonnegative terms, so a violation flags a numerical defect.  Reports
    the empirical sup of G_N/G_plus as the estimate for the constant c
    in G_N <= c G_plus.  The image sums run on `threads` workers (None:
    one per core); the report is the same for any number.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    m = max(2, int(math.isqrt(n_pairs)))
    xs = sample_tile_points(nt.tess, 0, m, rng)
    ys = sample_tile_points(nt.tess, 0, m, rng)
    block = g_neumann_block(mp, nt, xs, ys, 0, threads=threads)
    rho = pairwise_dist(xs, ys)
    ok = rho >= 1e-3  # pairs next to the diagonal singularity are left out
    gp = np.zeros_like(rho)
    gp[ok] = g_plus(mp, rho[ok])
    ratios = block[ok] / gp[ok]
    gaps = gp[ok] - block[ok]
    n_used = int(ok.sum())
    half = ratios[: n_used // 2]
    violations = int((gaps > 1e-10).sum())
    return {
        "audit_name": "domination",
        "params": {"m2": mp.m2, "orbit_radius": nt.max_orbit_radius, "seed": seed},
        "n_samples": n_used,
        "max_violation": float(gaps.max()),
        "violations": violations,
        "sup_ratio": float(ratios.max()),
        "sup_ratio_first_half": float(half.max()) if half.size else float("nan"),
        "tail_bound": nt.tail_bound(mp),
        "passed": bool(violations == 0),
    }


def gk_norm(mp, k, q):
    """|| G_plus^k ||_q = (2 pi Int_0^inf G_plus(rho)^(kq) sinh(rho) drho)^(1/q).

    Splits the radial integral at rho = 1: the inner part carries the
    logarithmic singularity, the outer one the exponential tail, which
    converges precisely when delta * k * q > 1.
    """
    if k < 1 or q <= 1.0:
        raise ValueError("need k >= 1 and q > 1")
    from scipy import integrate

    kq = k * q
    if mp.delta_plus * kq <= 1.0:
        raise DivergentTailError(
            f"delta*k*q = {mp.delta_plus * kq:.3f} <= 1: radial tail diverges"
        )

    def integrand(rho):
        return float(g_plus(mp, np.array([rho]))[0]) ** kq * math.sinh(rho)

    inner, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
    outer, _ = integrate.quad(integrand, 1.0, np.inf, limit=200)
    return (2.0 * math.pi * (inner + outer)) ** (1.0 / q)


def exp_kernel_integral(mp, alpha, tess, tile_ids, mesh, resolution=None):
    """Double integral of exp(alpha^2 G_plus(x,y)) over a tile union.

    Off-diagonal pairs (rho > mesh) are summed by quadrature; the
    diagonal band integrates exp(alpha^2 G_plus) over rho <= mesh, where
    the local exponent -alpha^2/(2 pi) of G_plus's log singularity makes
    it integrable exactly when alpha^2 < 4 pi.  Returns
    (offdiagonal_value, band_estimate).
    """
    if abs(alpha) >= ALPHA_MAX:
        raise ThresholdError(
            f"|alpha| = {abs(alpha):.4f} >= sqrt(4 pi): diagonal estimate diverges"
        )
    if mesh <= 0:
        raise ValueError("mesh must be > 0")
    from scipy import integrate

    from .fieldmc import build_quadrature

    if resolution is None:
        resolution = min(24, max(2, math.ceil(tess.tile_diameter / mesh)))
    quad = build_quadrature(tess, tile_ids, resolution)
    pts, wts = quad.points, quad.weights
    rho = pairwise_dist(pts, pts)
    off = rho > mesh
    kern = np.zeros_like(rho)
    kern[off] = np.exp(alpha**2 * g_plus(mp, rho[off]))
    value = float(wts @ kern @ wts)

    a2 = alpha * alpha

    def band_integrand(r):
        # g_plus keeps the exact -ln(r)/(2 pi) singularity down to r -> 0
        return math.exp(a2 * float(g_plus(mp, np.array([r]))[0])) * math.sinh(r)

    # quad's default epsabs, 1.5e-8, is 1e-5 of the band at mesh 0.05
    band_per_center, _ = integrate.quad(band_integrand, 0.0, mesh, limit=200, epsabs=0.0, epsrel=1e-12)
    band = float(wts.sum() * 2.0 * math.pi * band_per_center)
    return value, band
