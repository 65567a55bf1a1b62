"""Free and Neumann Green's functions on H^2.

The free kernel G_plus of (-Laplacian + m^2)^-1 is a Gauss hypergeometric
function of the geodesic distance; for d = 2 a piecewise interpolant,
exact next to the diagonal, evaluates it, and for d = 3 a closed form
(see `_kernels`).  The Neumann kernel G_N on a reflection tessellation
is the image sum over the group orbit, truncated by orbit radius
rho(x, gamma(y)) <= R with a reported tail bound.  Between distinct
tiles G_N is identically zero, which is what decouples the field.

The two printed closed forms of G_plus differ by a factor 2^(-Delta) in
the source; the form implemented here (prefactor 2^(-2*Delta) in both)
is the one consistent with the half-space representation and with the
d = 2 Legendre identity G_plus = Q_{Delta-1}(cosh rho) / (2 pi), which
the test suite pins against an independent Legendre evaluation.
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
from .tessellation import orbital_count

ALPHA_MAX = math.sqrt(4.0 * math.pi)

_Z_PLAIN_MAX = 0.75

logger = logging.getLogger(__name__)


class ModelParams:
    """Mass, conformal weight and normalization of the free kernel.

    delta_plus = (d-1)/2 + sqrt((d-1)^2 + 4 m^2)/2
    gamma_plus = Gamma(delta) / (2 pi^((d-1)/2) Gamma(delta + 1 - (d-1)/2))

    d is 2 or 3.  The constructor also sets `gplus_interp`, the
    evaluator through which `_kernels.gplus_array` computes G_plus for
    every rho > 0, and logs it at INFO on `hypfield.greens`.  For d = 2
    that is a `_kernels.GplusInterpolant` fitted through 82 nodes, whose
    diagonal piece keeps the exact -ln(rho)/(2 pi) singularity, and
    which the image sums evaluate from cosh rho; the constructor raises
    PrecisionLossError when the interpolant misses the series by more
    than `_kernels.INTERP_RTOL`.  For d = 3 it is the closed form
    e^(-(Delta-1) rho) / (4 pi sinh rho).
    """

    def __init__(self, m2, d=2, delta_plus=None, gamma_plus=None):
        if m2 <= 0:
            raise ValueError("m2 must be > 0 (image sums need delta_plus > 1)")
        if d not in (2, 3):
            raise ValueError("d must be 2 or 3")
        self.d = int(d)
        self.m2 = float(m2)
        dp = (d - 1) / 2.0 + 0.5 * math.sqrt((d - 1) ** 2 + 4.0 * self.m2)
        if delta_plus is not None and abs(delta_plus - dp) > 1e-14:
            raise ValueError(f"delta_plus={delta_plus} inconsistent with m2 (want {dp})")
        gp = math.gamma(dp) / (2.0 * math.pi ** ((d - 1) / 2.0) * math.gamma(dp + 1.0 - (d - 1) / 2.0))
        if gamma_plus is not None and abs(gamma_plus - gp) > 1e-12:
            raise ValueError(f"gamma_plus={gamma_plus} inconsistent with delta_plus (want {gp})")
        self.delta_plus = dp
        self.gamma_plus = gp
        self.hyp_b = dp + (2.0 - d) / 2.0
        self.hyp_c = 2.0 * dp + 2.0 - d
        if self.d == 3:
            self.gplus_interp = lambda rho: _kernels.gplus_series(rho, self)
            logger.info("G_plus m2=%g d=3: closed form e^(-(Delta-1) rho) / (4 pi sinh rho)", self.m2)
            return
        t_start = time.perf_counter()
        self.gplus_interp = _kernels.GplusInterpolant(self)
        logger.info(
            "G_plus interpolant m2=%g d=%d: %d nodes, max rel err %.1e, %.3f s",
            self.m2, self.d, self.gplus_interp.nodes, self.gplus_interp.max_rel_err,
            time.perf_counter() - t_start,
        )

    def __repr__(self):
        return f"ModelParams(m2={self.m2}, d={self.d}, delta_plus={self.delta_plus})"


def hyp2f1(a, b, c, z, u=None):
    """Gauss hypergeometric function by series, for -1 < z < 1.

    u = 1 - z, passed by a caller that knows it to more digits than z.
    For u <= 0.03, c = a + b takes the log form of `_kernels.log_case_coef`
    (at u = 0.1 it is 1e-9 off for a = b = 12.6), and a non-integer
    c - a - b the connection formula DLMF 15.8.4, two Gauss series in u.
    Otherwise, for z > 0.75, the quadratic argument transformation is
    applied when c = 2b.
    """
    if c <= 0 and c == int(c):
        raise ValueError("c must not be a nonpositive integer")
    u = 1.0 - z if u is None else u
    if not (z > -1.0 and u > 0.0):
        raise ValueError("series evaluation requires -1 < z < 1")
    s = c - a - b
    if abs(s) < 1e-13 and u <= 0.03:
        return float(_kernels.log_form(_kernels.log_case_coef(a, b, u), u))
    if u <= 0.03 and s != round(s):
        try:
            g1 = math.gamma(c) * math.gamma(s) / (math.gamma(c - a) * math.gamma(c - b))
            g2 = math.gamma(c) * math.gamma(-s) / (math.gamma(a) * math.gamma(b))
        except OverflowError:
            raise PrecisionLossError(f"Gamma function overflows in 2F1 at c = {c}") from None
        f1 = _kernels.hyp2f1_series(a, b, 1.0 - s, u)
        f2 = _kernels.hyp2f1_series(c - a, c - b, 1.0 + s, u)
        return g1 * f1 + u**s * g2 * f2
    if z > _Z_PLAIN_MAX and abs(c - 2.0 * b) < 1e-13:
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

    Returns (g2, g3): the sinh^(-2 delta) form and the w^(-delta) form.
    For rho >= 2 the two use genuinely different series (alternating
    versus positive argument); below that they share the series argument
    1/w and its complement u = tanh^2(rho/2), exact where 1/w rounds to 1,
    but not the prefactor algebra.
    """
    dp, b, c = mp.delta_plus, mp.hyp_b, mp.hyp_c
    sh2 = math.sinh(rho / 2.0) ** 2
    w = 1.0 + sh2

    # (G2): gamma * (4 sinh^2(rho/2))^-delta * F(a, b; c; -1/sinh^2)
    z = -1.0 / sh2
    if abs(z) <= 0.74:
        f2 = _kernels.hyp2f1_series(dp, b, c, z)
        g2 = mp.gamma_plus * (4.0 * sh2) ** (-dp) * f2
    else:
        # Pfaff: F(a,b;c;z) = (1-z)^-a F(a, c-b; c; z/(z-1)); here c - b = b
        zp = z / (z - 1.0)
        f2 = hyp2f1(dp, b, c, zp, sh2 / w)
        g2 = mp.gamma_plus * (4.0 * sh2 * (1.0 - z)) ** (-dp) * f2

    if mp.d != 2:
        return g2, float("nan")

    # (G3), corrected prefactor: gamma * 2^-2delta * w^-delta * F(d,d;2d;1/w)
    f3 = hyp2f1(dp, dp, 2.0 * dp, 1.0 / w, sh2 / w)
    g3 = mp.gamma_plus * 2.0 ** (-2.0 * dp) * w ** (-dp) * f3
    return g2, g3


class NeumannTruncation:
    """Image-sum truncation policy: include gamma with rho(x, gamma y) <= R.

    The tail estimate combines the exponential orbit growth N < A e^theta
    (A measured empirically on this tessellation) with the kernel decay
    G_plus ~ gamma_plus e^(-delta rho):

        tail <= gamma_plus * A * exp((1 - delta) R) / (delta - 1).
    """

    def __init__(self, tess, max_orbit_radius, tail_tol=1e-4):
        self.tess = tess
        self.max_orbit_radius = float(max_orbit_radius)
        self.tail_tol = float(tail_tol)
        # orbit elements reached from pulled-back same-tile pairs satisfy
        # rho(o, gamma c1) <= rho(o, x') + R + rho(y', c1)
        margin = tess.anchor_spread + tess.circumradius
        need = self.max_orbit_radius + margin
        if tess.radius < need:
            raise TruncationError(
                f"tessellation radius {tess.radius} too small for orbit radius "
                f"{max_orbit_radius}; need >= {need:.2f}"
            )
        self.empirical_a = self._measure_orbit_constant()
        sel = tess.centroid_rho <= self.max_orbit_radius + margin
        self._mats = np.ascontiguousarray(tess.mats[sel])

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


def g_neumann_block(mp, nt, xs, ys, tile_id):
    """Image-sum matrix for cell arrays known to lie in one tile."""
    nt.check_tail(mp)
    xv = _pull_back(nt.tess, tile_id, xs)
    yv = _pull_back(nt.tess, tile_id, ys)
    return _kernels.image_sum_block(xv, yv, nt._mats, nt.max_orbit_radius, mp)


def delta_g(mp, nt, x):
    """Diagonal defect Delta G(x) = G_N(x,x) - G_plus(x,x) >= 0 at the
    Lorentz row x.

    The divergent diagonal cancels; what remains is the image sum over
    gamma != e, which blows up as x approaches a tile side.
    """
    out = delta_g_many(mp, nt, [x], warn=True)
    return float(out[0])


def delta_g_many(mp, nt, vecs, tile_id=None, warn=False):
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
    sums, nearest = _kernels.image_sum_self(pulled, nt._mats, nt.max_orbit_radius, mp)
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


def neumann_symmetry_audit(mp, nt, side_index=0, x=None, t0=0.2, k=10):
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
    xv = normalize(0.55 * tess.centroids[0] + 0.45 * y0) if x is None else np.asarray(x, dtype=float)
    xref = reflection(v) @ xv

    def geodesic_point(t):
        return math.cosh(t) * y0 + math.sinh(t) * v

    sel = tess.centroid_rho <= nt.max_orbit_radius
    fixed_mats = np.ascontiguousarray(tess.mats[sel])
    big = 500.0  # effectively untruncated for the fixed-subset flavor

    def f_orbit(t):
        src = xv if t < 0 else xref
        return float(
            _kernels.image_sum_block(
                src[None, :], geodesic_point(t)[None, :], nt._mats, nt.max_orbit_radius, mp
            )[0, 0]
        )

    def f_fixed(t):
        src = xv if t < 0 else xref
        return float(
            _kernels.image_sum_block(
                src[None, :], geodesic_point(t)[None, :], fixed_mats, big, mp
            )[0, 0]
        )

    ts = np.linspace(t0 / k, t0, k)
    even_orbit = max(abs(f_orbit(t) - f_orbit(-t)) for t in ts)
    even_fixed = max(abs(f_fixed(t) - f_fixed(-t)) for t in ts)
    dt = t0 / k
    fp_orbit = (f_orbit(dt) - f_orbit(-dt)) / (2.0 * dt)
    fp_fixed = (f_fixed(dt) - f_fixed(-dt)) / (2.0 * dt)
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


def domination_audit(mp, nt, n_pairs=10_000, seed=0, min_separation=1e-3):
    """Check G_plus(rho(x,y)) <= G_N(x,y) on same-tile pairs.

    Structural: the image sum contains the identity term G_plus plus
    nonnegative terms, so a violation flags a numerical defect.  Reports
    the empirical sup of G_N/G_plus as the estimate for the constant c
    in G_N <= c G_plus.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    m = max(2, int(math.isqrt(n_pairs)))
    xs = sample_tile_points(nt.tess, 0, m, rng)
    ys = sample_tile_points(nt.tess, 0, m, rng)
    block = g_neumann_block(mp, nt, xs, ys, 0)
    rho = pairwise_dist(xs, ys)
    ok = rho >= min_separation
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
