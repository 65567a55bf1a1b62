"""Boundary sources on the circle at infinity and the propagator H_plus.

A source h lives intrinsically on the boundary circle (disk angle beta).
The half-plane integral representation

    (H_plus h)(z, zeta) = Int_R  z^Delta / (z^2 + (zeta - eta)^2)^Delta h(eta) deta

is evaluated after transporting h through the package Cayley map
eta = tan(beta/2), carrying h as a scalar (no chart Jacobian): the
downstream bounds only use positivity and the z-scaling, which are
convention independent.  The production evaluator substitutes
eta = zeta + z tan(theta), turning the kernel peak into a smooth
cos^(2 Delta - 2) profile on (-pi/2, pi/2); the raw kernel form is kept
as the audit route.
"""

import math

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .errors import ConfigurationError
from .geometry import convert

_TWO_PI = 2.0 * math.pi


class BoundarySource:
    """A function on the boundary circle: a smooth bump or tabulated data.

    The bump is A * exp(-s/((beta-beta0)(beta1-beta))), rescaled so its
    peak value is `amplitude`; it is strictly positive on (beta0, beta1),
    zero outside, and infinitely flat at the endpoints.
    """

    def __init__(self, kind, beta0=None, beta1=None, amplitude=1.0, smoothness=1.0,
                 angles=None, values=None):
        self.kind = kind
        if kind == "bump":
            if not beta0 < beta1 < beta0 + _TWO_PI:
                raise ConfigurationError("bump needs beta0 < beta1 < beta0 + 2 pi")
            self.beta0 = float(beta0)
            self.beta1 = float(beta1)
            self.amplitude = float(amplitude)
            self.smoothness = float(smoothness)
            half = (beta1 - beta0) / 2.0
            self._log_peak = self.smoothness / (half * half)
            self._spline = None
        elif kind == "tabulated":
            angles = np.asarray(angles, dtype=float)
            values = np.asarray(values, dtype=float)
            if angles[0] + _TWO_PI != angles[-1]:
                angles = np.append(angles, angles[0] + _TWO_PI)
                values = np.append(values, values[0])
            self._spline = CubicSpline(angles, values, bc_type="periodic")
            self._table_base = angles[0]
        else:
            raise ConfigurationError(f"unknown source kind {kind!r}")

    @classmethod
    def bump(cls, beta0, beta1, amplitude=1.0, smoothness=1.0):
        return cls("bump", beta0=beta0, beta1=beta1, amplitude=amplitude, smoothness=smoothness)

    @classmethod
    def tabulated(cls, angles, values):
        return cls("tabulated", angles=angles, values=values)

    @classmethod
    def constant(cls, value):
        grid = np.linspace(-math.pi, math.pi, 9)
        return cls.tabulated(grid, np.full(grid.shape, float(value)))

    def __call__(self, beta):
        beta = np.asarray(beta, dtype=float)
        if self.kind == "tabulated":
            t = (beta - self._table_base) % _TWO_PI + self._table_base
            return self._spline(t)
        span = self.beta1 - self.beta0
        t = (beta - self.beta0) % _TWO_PI
        out = np.zeros_like(t)
        inside = (t > 0.0) & (t < span)
        ti = t[inside]
        out[inside] = self.amplitude * np.exp(
            -self.smoothness / (ti * (span - ti)) + self._log_peak
        )
        return out if out.ndim else float(out)

    def eval_eta(self, eta):
        """The source transported to the half-plane boundary line."""
        eta = np.asarray(eta, dtype=float)
        beta = 2.0 * np.arctan(eta)
        return self.__call__(beta)

    @property
    def is_zero(self):
        if self.kind == "bump":
            return self.amplitude == 0.0
        return bool(np.all(np.abs(self._spline.c) == 0.0))

    def positive_segment(self):
        """(beta0, beta1) on which h > 0, or None."""
        if self.kind == "bump" and self.amplitude > 0:
            return (self.beta0, self.beta1)
        return None


def _halfplane_coords(p):
    hp = convert(p, "halfplane")
    return hp.z, hp.zeta


def h_plus(mp, h, z, zeta=None):
    """Bulk-to-boundary propagator at (z, zeta), or at a Point.

    Uses the substitution eta = zeta + z tan(theta):

        H = z^(1-Delta) Int_(-pi/2)^(pi/2) cos(theta)^(2 Delta - 2) h(zeta + z tan theta) dtheta
    """
    if zeta is None:
        z, zeta = _halfplane_coords(z)
    if z <= 0:
        raise ValueError("need z > 0")
    if h.is_zero:
        return 0.0
    dp = mp.delta_plus
    power = 2.0 * dp - 2.0

    def integrand(theta):
        ct = math.cos(theta)
        return ct**power * float(h.eval_eta(np.array([zeta + z * math.tan(theta)]))[0])

    pts = _support_thetas(h, z, zeta)
    val, _ = integrate.quad(integrand, -math.pi / 2.0, math.pi / 2.0, points=pts, limit=300)
    return z ** (1.0 - dp) * val


def _support_thetas(h, z, zeta):
    """Quadrature breakpoints where a bump support starts and ends."""
    if h.kind != "bump":
        return None
    pts = []
    for beta in (h.beta0, h.beta1):
        # wrap-around supports reach eta = infinity; skip those edges
        b = (beta + math.pi) % _TWO_PI - math.pi
        if abs(b) < math.pi - 1e-12:
            pts.append(math.atan((math.tan(b / 2.0) - zeta) / z))
    return sorted(pts) or None


def h_plus_forms(mp, h, z, zeta):
    """(direct kernel integral, substituted form) for the agreement audit.

    The direct route integrates the raw kernel over the boundary angle
    with the tan(beta/2) change of variables; the substituted route is
    the production evaluator.
    """
    dp = mp.delta_plus

    def direct_integrand(beta):
        eta = math.tan(beta / 2.0)
        sec2 = 1.0 + eta * eta
        kern = z**dp / (z * z + (zeta - eta) ** 2) ** dp
        return kern * float(h(np.array([beta]))[0]) * 0.5 * sec2

    if h.kind == "bump" and h.beta1 <= math.pi:
        lo, hi = h.beta0, h.beta1
    else:
        lo, hi = -math.pi + 1e-12, math.pi - 1e-12
    peak = 2.0 * math.atan(zeta)
    pts = [peak] if lo < peak < hi else None
    direct, _ = integrate.quad(direct_integrand, lo, hi, points=pts, limit=300)
    return direct, h_plus(mp, h, z, zeta)


def h_plus_at_points(mp, h, points):
    """Vector of H_plus h over an iterable of bulk points."""
    return np.array([h_plus(mp, h, p) for p in points])


def sector_lower_bound_audit(mp, h, sector, n, seed=0):
    """Empirical lower bound for H_plus h scaled by z^(Delta - 1) on a sector.

    The product is bounded below by a positive constant when the sector's
    angular footprint sits inside the support of h; reports the min over
    samples and over the first half so stability under doubling can be
    checked.
    """
    if n == 0:
        return {
            "audit_name": "sector_lower_bound",
            "n_samples": 0,
            "min_product": float("nan"),
            "min_first_half": float("nan"),
            "inconclusive": True,
            "passed": False,
        }
    seg = h.positive_segment()
    inconclusive = seg is None or not (seg[0] <= sector.beta0 and sector.beta1 <= seg[1])
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(13,)))
    from .geometry import DiskPoint

    dp = mp.delta_plus
    vals = np.empty(n)
    for i in range(n):
        r = rng.uniform(sector.r0, 1.0 - 1e-7)
        beta = rng.uniform(sector.beta0, sector.beta1)
        pt = DiskPoint(r * math.cos(beta), r * math.sin(beta))
        z, zeta = _halfplane_coords(pt)
        vals[i] = h_plus(mp, h, z, zeta) * z ** (dp - 1.0)
    return {
        "audit_name": "sector_lower_bound",
        "params": {"m2": mp.m2, "r0": sector.r0, "beta0": sector.beta0, "beta1": sector.beta1},
        "n_samples": int(n),
        "min_product": float(vals.min()),
        "min_first_half": float(vals[: n // 2].min()) if n >= 2 else float("nan"),
        "inconclusive": bool(inconclusive),
        "passed": bool(not inconclusive and vals.min() > 0.0),
    }


def _barycentric_grid(grid):
    pts = []
    for i in range(grid + 1):
        for j in range(grid + 1 - i):
            k = grid - i - j
            pts.append((i / grid, j / grid, k / grid))
    return np.asarray(pts)


def _h_at_barycentric(mp, h, tile, bary):
    from .geometry import Point, lorentz_dot

    v = bary @ tile.vertex_vecs
    v = v / np.sqrt(-lorentz_dot(v, v))
    return h_plus(mp, h, Point.from_vec(v))


def k_constant_log(mp, h, alpha, tile, grid=4):
    """log k_j = alpha * extremum over the tile of H_plus h.

    Minimum for alpha > 0, maximum for alpha < 0 (monotonicity of exp).
    Barycentric grid scan followed by one golden-section refinement in
    each barycentric direction around the best cell.
    """
    if h.is_zero:
        return 0.0, 0.0
    sign = 1.0 if alpha > 0 else -1.0

    def score_at(b):
        if min(b) < 0.0:
            return math.inf
        return sign * _h_at_barycentric(mp, h, tile, np.asarray(b))

    bary = _barycentric_grid(grid)
    scores = [score_at(b) for b in bary]
    best = int(np.argmin(scores))
    b_best, s_best = bary[best].copy(), scores[best]
    step = 1.0 / grid
    gr = (math.sqrt(5.0) - 1.0) / 2.0

    for axis in (0, 1):
        def shifted(t):
            b = b_best.copy()
            b[axis] += t
            b[2] -= t
            return b

        lo, hi = -step, step
        c1, c2 = hi - gr * (hi - lo), lo + gr * (hi - lo)
        f1, f2 = score_at(shifted(c1)), score_at(shifted(c2))
        for _ in range(16):
            if f1 <= f2:
                hi, c2, f2 = c2, c1, f1
                c1 = hi - gr * (hi - lo)
                f1 = score_at(shifted(c1))
            else:
                lo, c1, f1 = c1, c2, f2
                c2 = lo + gr * (hi - lo)
                f2 = score_at(shifted(c2))
        t_star, f_star = (c1, f1) if f1 <= f2 else (c2, f2)
        if f_star < s_best:
            b_best, s_best = shifted(t_star), f_star

    m_star = sign * s_best
    return alpha * m_star, m_star


def k_constant(mp, h, alpha, tile, grid=4):
    """k_j = exp(alpha * min_{x in T_j} H_plus h(x))  (max for alpha < 0)."""
    log_k, _ = k_constant_log(mp, h, alpha, tile, grid)
    return math.exp(log_k) if log_k < 700.0 else math.inf


def k_table(mp, h, alpha, tess, tile_ids, grid=4):
    """Rows (tile_id, rho_centroid, z_centroid, extremum of H, k_j) per tile."""
    from .geometry import dist, origin

    rows = []
    for tid in tile_ids:
        tile = tess.tiles[tid]
        log_k, m_star = k_constant_log(mp, h, alpha, tile, grid)
        cen = tile.centroid
        rows.append(
            {
                "tile_id": int(tid),
                "rho_centroid": dist(origin(), cen),
                "z_centroid": convert(cen, "halfplane").z,
                "Hmin_or_max": m_star,
                "k_j": math.exp(log_k) if log_k < 700.0 else math.inf,
                "log_k_j": log_k,
            }
        )
    return rows
