"""Boundary sources on the circle at infinity and the propagator H_plus.

A source h lives intrinsically on the boundary circle (disk angle beta).
The half-plane integral representation

    (H_plus h)(z, zeta) = Int_R  z^Delta / (z^2 + (zeta - eta)^2)^Delta h(eta) deta

is evaluated after transporting h through the package Cayley map
eta = tan(beta/2), carrying h as a scalar (no chart Jacobian): the
downstream bounds only use positivity and the z-scaling, which are
convention independent.

The production evaluator `h_plus` substitutes eta = zeta + z tan(theta),
turning the kernel peak into a smooth cos^(2 Delta - 2) profile on
(-pi/2, pi/2), and integrates many points in one batched, globally
adaptive Gauss-Legendre pass in numpy (QUADPACK-style bisection,
Piessens et al. 1983).  Each point starts from the theta-image of the
support of h, split at theta = 0 and, for a tabulated source, at the
spline's knots, and cut geometrically toward the support's end far from
zeta where that end's image lies next to the pole (`_start_panels`);
panels are held as offsets from the
pole theta = +-pi/2 on their side, where supports far from zeta
collapse.  A panel is accepted when a 16-node rule and the same rule on
its two halves agree to 1e-13 of the point's value; the rest are
bisected, and only they are evaluated again.

The audit route `h_plus_forms` integrates the raw kernel over beta by
a tanh-sinh rule in numpy, independently of the production evaluator.
"""

import logging
import math
import time

import numpy as np

from .errors import ConfigurationError, PrecisionLossError
from .geometry import disk_to_lorentz, halfplane_coords, normalize

logger = logging.getLogger(__name__)

_TWO_PI = 2.0 * math.pi

# The adaptive H_plus rule: Gauss-Legendre nodes per panel, the accepted
# gap between a panel and its two halves relative to the point's value,
# and the bisection rounds and open panels per point before a point
# counts as failed (the panel cap bounds memory).
_GL_NODES = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
_RTOL = 1e-13
_MAX_ROUNDS = 40
_MAX_PANELS = 2048
# The direct route of `h_plus_forms`: the tanh-sinh rule on t in
# [-_TS_T, _TS_T], where q = e^(-pi sinh t) falls to 3e-23 of the
# interval, the agreement of two successive levels of a piece relative
# to the sum of the pieces' magnitudes, and the levels (steps 1/2 to
# 1/1024) before a piece counts as failed.
_TS_T = 3.5
_TS_RTOL = 1e-13
_TS_LEVELS = 10


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
            from scipy.interpolate import CubicSpline

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


def h_plus(mp, h, z, zeta):
    """Bulk-to-boundary propagator at the half-plane points (z, zeta).

    Uses the substitution eta = zeta + z tan(theta):

        H = z^(1-Delta) Int_(-pi/2)^(pi/2) cos(theta)^(2 Delta - 2) h(zeta + z tan theta) dtheta

    `z` and `zeta` broadcast against each other, and all points go
    through one batched adaptive Gauss-Legendre pass (`_h_plus_batch`):
    the theta-image of the support of h is bisected until every panel's
    16-node value matches the sum over its halves to 1e-13 of the
    point's value.  Scalar coordinates give a float, arrays an array of
    their broadcast shape; `h_plus_at_points` takes Lorentz rows.  A point
    that does not converge within 40 rounds, or that holds more than 2048
    open panels, raises PrecisionLossError naming z, zeta and m2.
    `h_plus_forms` is the independent audit of this evaluator.
    """
    z, zeta = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(zeta, dtype=float))
    if not (np.all(z > 0) and np.isfinite(z).all() and np.isfinite(zeta).all()):
        raise ValueError("need finite z > 0 and zeta")
    if h.is_zero:
        out = np.zeros(z.shape)
    else:
        out = _h_plus_batch(mp, h, z.ravel(), zeta.ravel())[0].reshape(z.shape)
    return float(out) if out.ndim == 0 else out


def _wrapped(beta):
    """Boundary angles reduced to [-pi, pi)."""
    return (beta + math.pi) % _TWO_PI - math.pi


def _support_etas(h):
    """The support of h on the boundary line as (eta_lo, eta_hi) intervals;
    a tabulated source's, the whole line, is cut at the spline's knots,
    where it is only C^2."""
    if h.kind != "bump":
        betas = _wrapped(h._spline.x)
        ends = [-math.inf, *np.unique(np.tan(betas[np.abs(betas) < math.pi] / 2.0)), math.inf]
        return tuple(zip(ends[:-1], ends[1:]))
    b0 = _wrapped(h.beta0)
    b1 = b0 + (h.beta1 - h.beta0)
    eta0, eta1 = math.tan(b0 / 2.0), math.tan(b1 / 2.0)
    if b1 <= math.pi:
        return ((eta0, eta1),)
    return ((eta0, math.inf), (-math.inf, eta1))  # wraps past beta = pi


def _start_panels(h, z, zeta):
    """(point index, side, phi_lo, phi_hi) of the first-round panels.

    A panel is a theta interval held as its offset phi = pi/2 - |theta|
    from the pole on its side (side = sign of theta), so theta next to
    +-pi/2, where tan(theta) blows up, keeps full relative precision.
    The panels are the theta-image of the support of h, split at
    theta = 0: one interval per side, or two when a bump's support wraps
    past beta = pi (eta = infinity, theta = +-pi/2), and one per side of
    each interval between a tabulated source's knots.

    Each interval (a, b) is then graded toward a, the image of the
    support's end far from zeta, cut at a 2^k while that is at most
    (b - a) / 64.  There the mass sits at phi ~ z / |eta - zeta|, of order
    a; when a is far below b - a, as for a point with zeta on one end of
    a bump's support and z <= 1e-6, the 16 nodes of (a, b) all fall where
    the bump is flat, and the panel would be accepted at 0.  An interval
    with a > (b - a) / 128 is not cut.
    """
    idx = np.arange(z.size)
    pidx, side, lo, hi = [], [], [], []
    for eta_lo, eta_hi in _support_etas(h):
        for s in (1.0, -1.0):
            # phi = atan(z / (s (eta - zeta))) falls as eta moves away from zeta
            near, far = (eta_lo, eta_hi) if s > 0 else (eta_hi, eta_lo)
            a = np.arctan2(z, np.maximum(s * (far - zeta), 0.0))
            b = np.arctan2(z, np.maximum(s * (near - zeta), 0.0))
            keep = a < b
            pidx.append(idx[keep])
            side.append(np.full(int(keep.sum()), s))
            lo.append(a[keep])
            hi.append(b[keep])
    pidx, side, lo, hi = (np.concatenate(v) for v in (pidx, side, lo, hi))
    # a = 0 at a support that reaches eta = +-inf: nothing to grade toward
    graded = np.flatnonzero((lo > 0.0) & (128.0 * lo <= hi - lo))
    if not graded.size:
        return pidx, side, lo, hi
    counts = np.ones(len(lo), dtype=int)
    counts[graded] += np.floor(np.log2(hi[graded] - lo[graded]) - np.log2(lo[graded]) - 6.0).astype(int)
    at = np.repeat(np.arange(len(lo)), counts)
    # k counts each interval's panels from a; a 2^k is exact
    k = np.arange(len(at)) - np.repeat(np.cumsum(counts) - counts, counts)
    last = k == counts[at] - 1
    return pidx[at], side[at], np.ldexp(lo[at], k), np.where(last, hi[at], np.ldexp(lo[at], k + 1))


def _gauss(power, h, signed_z, zeta, lo, hi):
    """Gauss-Legendre values of the theta integrand on the panels (lo, hi)
    of phi; signed_z = side * z and zeta belong to each panel's point.

    With theta = side (pi/2 - phi): cos(theta) = sin(phi) and
    tan(theta) = side / tan(phi).
    """
    half = 0.5 * (hi - lo)
    phi = (lo + half)[:, None] + half[:, None] * _GL_X
    f = np.sin(phi) ** power * h.eval_eta(zeta[:, None] + signed_z[:, None] / np.tan(phi))
    return half * (f @ _GL_W)


def _twice(a):
    return np.concatenate([a, a])


def _h_plus_batch(mp, h, z, zeta):
    """H_plus h at the points (z[i], zeta[i]), with (panels refined, rounds).

    Globally adaptive over (point, panel) pairs: a panel is accepted when
    its Gauss-Legendre value and the sum over its two halves differ by at
    most _RTOL times the point's largest estimate so far; otherwise its
    two halves, whose values are already known, go to the next round.
    A point still unconverged after _MAX_ROUNDS rounds, or holding more
    than _MAX_PANELS open panels, raises PrecisionLossError.
    """
    power = 2.0 * mp.delta_plus - 2.0
    pidx, side, lo, hi = _start_panels(h, z, zeta)
    signed_z, pzeta = side * z[pidx], zeta[pidx]
    whole = _gauss(power, h, signed_z, pzeta, lo, hi)
    total = np.zeros(z.size)
    scale = np.zeros(z.size)
    refined = 0
    for rounds in range(1, _MAX_ROUNDS + 1):
        # halves share the split point they will have as panels, so the
        # next round's whole values are these numbers exactly
        n = len(lo)
        mid = 0.5 * (lo + hi)
        halves = _gauss(
            power, h, _twice(signed_z), _twice(pzeta), np.concatenate([lo, mid]), np.concatenate([mid, hi])
        )
        left, right = halves[:n], halves[n:]
        est = left + right
        scale = np.maximum(scale, np.abs(total + np.bincount(pidx, weights=est, minlength=z.size)))
        done = np.abs(whole - est) <= _RTOL * scale[pidx]
        total += np.bincount(pidx[done], weights=est[done], minlength=z.size)
        if done.all():
            return z ** (1.0 - mp.delta_plus) * total, refined, rounds
        keep = ~done
        refined += n - int(done.sum())
        pidx, signed_z, pzeta = _twice(pidx[keep]), _twice(signed_z[keep]), _twice(pzeta[keep])
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        whole = np.concatenate([left[keep], right[keep]])
        if len(lo) > _MAX_PANELS and np.bincount(pidx).max() > _MAX_PANELS:
            break
    i = int(np.bincount(pidx).argmax())
    raise PrecisionLossError(
        f"H_plus quadrature did not converge within {_MAX_ROUNDS} rounds and "
        f"{_MAX_PANELS} panels per point at z={float(z[i])!r}, zeta={float(zeta[i])!r}, m2={mp.m2!r}"
    )


def _direct_pieces(h, peak):
    """(lo, hi) rows of the beta intervals of the direct route: the support
    of h in [-pi, pi] (a bump that wraps past beta = pi gives two), cut at
    the kernel's peak and, for a tabulated source, at the spline's knots,
    where it is only C^2."""
    if h.kind == "bump":
        b0 = _wrapped(h.beta0)
        b1 = b0 + (h.beta1 - h.beta0)
        spans = [(b0, b1)] if b1 <= math.pi else [(b0, math.pi), (-math.pi, b1 - _TWO_PI)]
        cuts = [peak]
    else:
        spans = [(-math.pi, math.pi)]
        cuts = [peak, *_wrapped(h._spline.x)]
    rows = []
    for lo, hi in spans:
        ends = [lo, *sorted({c for c in cuts if lo < c < hi}), hi]
        rows += zip(ends[:-1], ends[1:])
    return np.array(rows)


def _tanh_sinh_nodes(level):
    """Nodes t of the tanh-sinh rule at step 2^-(level + 1) on [-_TS_T, _TS_T]:
    every node at level 0, the odd multiples of the step after it.  Returns
    (upper, offset, weight), the last two per unit interval length: on
    [a, b] the node is b - offset where upper (t >= 0) and a + offset
    elsewhere, with offset = q / (1 + q), q = e^(-pi sinh |t|), and
    dx/dt = pi cosh t q / (1 + q)^2, so a node next to an end keeps its
    distance to that end."""
    step = 0.5 ** (level + 1)
    if level == 0:
        t = np.arange(-_TS_T, _TS_T + step / 2, step)
    else:
        t = np.arange(-_TS_T + step, _TS_T, 2.0 * step)
    q = np.exp(-math.pi * np.sinh(np.abs(t)))
    return t >= 0.0, q / (1.0 + q), math.pi * np.cosh(t) * q / (1.0 + q) ** 2


def h_plus_forms(mp, h, z, zeta):
    """(direct kernel integral, substituted form) for the agreement audit.

    The direct route integrates the raw kernel over the boundary angle,

        Int z^Delta / (z^2 + (zeta - eta)^2)^Delta h(beta) (1 + eta^2)/2 dbeta,  eta = tan(beta/2),

    on the support of h, cut at the kernel's peak beta_p = 2 atan(zeta)
    and, for a tabulated source, at the spline's knots.  Each piece takes
    the tanh-sinh rule (Takahasi & Mori 1974) with its nodes held as
    offsets from the nearer end, and every node of a level is evaluated
    at once.  eta - zeta is taken as
    sin((beta - beta_p)/2) / (cos(beta/2) cos(beta_p/2)) from the node's
    offset, so it keeps its digits next to the peak, where the kernel's
    width is z.  The step is halved from 1/2 until two successive levels
    of a piece agree to 1e-13 of the sum of the pieces' magnitudes; a
    piece unconverged after 10 levels raises PrecisionLossError naming z,
    zeta and m2.

    The route is independent of the production evaluator `h_plus` on
    every count: the variable (beta, not theta), the rule (double
    exponential, not Gauss-Legendre panels), the cuts and the convergence
    test.  The substituted route is `h_plus` itself.
    """
    peak = 2.0 * math.atan(zeta)
    cos_peak = 1.0 / math.sqrt(1.0 + zeta * zeta)
    ends = _direct_pieces(h, peak)
    width = ends[:, 1] - ends[:, 0]
    total = np.zeros(len(ends))
    live = np.arange(len(ends))
    for level in range(_TS_LEVELS):
        upper, offset, weight = _tanh_sinh_nodes(level)
        near = ends[live][:, upper.astype(int)]  # each node's nearer end
        shift = np.where(upper, -1.0, 1.0) * (width[live, None] * offset)
        beta = near + shift
        eta = np.tan(beta / 2.0)
        # eta - zeta from beta - beta_p, which is the bare shift on a piece
        # that ends at the peak
        gap = np.sin(((near - peak) + shift) / 2.0) / (np.cos(beta / 2.0) * cos_peak)
        # z^Delta / (z^2 + gap^2)^Delta, with no power that can overflow
        kern = (z / (z * z + gap * gap)) ** mp.delta_plus
        f = kern * h(beta.ravel()).reshape(beta.shape) * (0.5 + 0.5 * eta * eta)
        step = 0.5 ** (level + 1)
        prev = total[live]
        total[live] = step * width[live] * (f @ weight) + (0.5 * prev if level else 0.0)
        if level:
            done = np.abs(total[live] - prev) <= _TS_RTOL * np.abs(total).sum()
            live = live[~done]
            if not live.size:
                return float(total.sum()), h_plus(mp, h, z, zeta)
    raise PrecisionLossError(
        f"direct H_plus quadrature did not converge within {_TS_LEVELS} levels "
        f"at z={z!r}, zeta={zeta!r}, m2={mp.m2!r}"
    )


def h_plus_at_points(mp, h, points):
    """Vector of H_plus h in one batch at an (n, 3) array of Lorentz rows,
    read off by the closed-form half-plane chart."""
    return h_plus(mp, h, *halfplane_coords(np.asarray(points, dtype=float).reshape(-1, 3)))


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
    xs, ys = np.empty(n), np.empty(n)
    for i in range(n):
        r = rng.uniform(sector.r0, 1.0 - 1e-7)
        beta = rng.uniform(sector.beta0, sector.beta1)
        xs[i], ys[i] = r * math.cos(beta), r * math.sin(beta)
    z, zeta = halfplane_coords(disk_to_lorentz(xs, ys))
    vals = h_plus(mp, h, z, zeta) * z ** (mp.delta_plus - 1.0)
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


def _k_search(mp, h, alpha, fund_vertices, mats, grid):
    """Extremum of H_plus h over each tile m(C), m in the (tiles, 3, 3)
    `mats` and C the triangle with vertex rows `fund_vertices`, all tiles
    in lockstep.  The minimum for alpha > 0, the maximum for alpha < 0.

    The point of barycentric row b is m normalize(b C), never
    renormalised, read off by the closed-form half-plane chart: its z
    keeps its relative precision at any depth.  A barycentric grid scan
    of every tile is one H_plus batch.  A golden-section search in each
    barycentric direction around each tile's best grid point follows;
    each of its steps is one batch with one point per tile, and each
    tile keeps its own bracket, its own branch and its own rule that a
    point outside the tile scores +inf.  A tile's points come from
    products of the same shapes whatever the other tiles, and H_plus at
    a point does not depend on its batch, so each tile's extremum is the
    one a search over that tile alone finds, bit for bit.  Returns
    (extrema, work) with work the points evaluated, the quadrature
    panels refined and the most rounds any batch took.
    """
    sign = 1.0 if alpha > 0 else -1.0
    work = {"points": 0, "refined": 0, "rounds": 0}

    def scores_at(points):
        # points: (group element, barycentric rows) pairs, all in one batch
        vecs = np.concatenate([normalize(bary @ fund_vertices) @ m.T for m, bary in points])
        vals, refined, rounds = _h_plus_batch(mp, h, *halfplane_coords(vecs))
        work["points"] += len(vals)
        work["refined"] += refined
        work["rounds"] = max(work["rounds"], rounds)
        return sign * vals

    def score_at(bs):
        # one point per tile; points outside their tile score +inf
        out = np.full(len(bs), math.inf)
        inside = bs.min(axis=1) >= 0.0
        if inside.any():
            out[inside] = scores_at([(m, b[None, :]) for m, b, ok in zip(mats, bs, inside) if ok])
        return out

    n = len(mats)
    bary = _barycentric_grid(grid)
    scores = scores_at([(m, bary) for m in mats]).reshape(n, len(bary))
    best = np.argmin(scores, axis=1)
    b_best, s_best = bary[best], scores[np.arange(n), best]
    step = 1.0 / grid
    gr = (math.sqrt(5.0) - 1.0) / 2.0

    for axis in (0, 1):
        def shifted(t):
            b = b_best.copy()
            b[:, axis] += t
            b[:, 2] -= t
            return b

        lo, hi = np.full(n, -step), np.full(n, step)
        c1, c2 = hi - gr * (hi - lo), lo + gr * (hi - lo)
        f1, f2 = score_at(shifted(c1)), score_at(shifted(c2))
        for _ in range(16):
            # f1 <= f2 keeps [lo, c2] and moves c1 to c2; otherwise it keeps
            # [c1, hi] and moves c2 to c1.  Either way a tile gets one new point.
            left = f1 <= f2
            kept_t, kept_f = np.where(left, c1, c2), np.where(left, f1, f2)
            hi, lo = np.where(left, c2, hi), np.where(left, lo, c1)
            new_t = np.where(left, hi - gr * (hi - lo), lo + gr * (hi - lo))
            new_f = score_at(shifted(new_t))
            c1, f1 = np.where(left, new_t, kept_t), np.where(left, new_f, kept_f)
            c2, f2 = np.where(left, kept_t, new_t), np.where(left, kept_f, new_f)
        first = f1 <= f2
        t_star, f_star = np.where(first, c1, c2), np.where(first, f1, f2)
        better = f_star < s_best
        b_best = np.where(better[:, None], shifted(t_star), b_best)
        s_best = np.where(better, f_star, s_best)

    return sign * s_best, work


def k_constant_log(mp, h, alpha, tess, tile_id, grid=4):
    """(log k_j, extremum): log k_j = alpha * extremum over the tile
    `tile_id` of `tess` of H_plus h.

    Minimum for alpha > 0, maximum for alpha < 0 (monotonicity of exp).
    The one-tile case of the lockstep search of `k_table`: a barycentric
    grid scan in one H_plus batch, then a golden-section refinement in
    each barycentric direction around the best cell.  Logs the points
    evaluated, the quadrature panels refined, the most rounds any batch
    took and the seconds at INFO on the `hypfield.boundary` logger.
    """
    if h.is_zero:
        return 0.0, 0.0
    t_start = time.perf_counter()
    (m_star,), work = _k_search(mp, h, alpha, tess.fund_vertices, tess.mats[[tile_id]], grid)
    logger.info(
        "k_constant_log tile %d: %d points, %d panels refined, %d rounds, %.3f s",
        tile_id, work["points"], work["refined"], work["rounds"], time.perf_counter() - t_start,
    )
    return alpha * float(m_star), float(m_star)


def k_table(mp, h, alpha, tess, tile_ids, grid=4):
    """Rows (tile_id, rho_centroid, z_centroid, extremum of H, k_j) per tile.

    One lockstep search (`_k_search`) covers every tile, so the extrema
    equal `k_constant_log`'s bit for bit; the centroid columns come from
    `tess.centroid_rho` and `tess.centroids`.  Logs the tiles, points,
    panels refined, rounds and seconds of the batch at INFO on the
    `hypfield.boundary` logger.
    """
    t_start = time.perf_counter()
    ids = np.asarray(tile_ids, dtype=int)
    if h.is_zero or not len(ids):
        m_stars = [0.0] * len(ids)
    else:
        m_stars, work = _k_search(mp, h, alpha, tess.fund_vertices, tess.mats[ids], grid)
        logger.info(
            "k_table: %d tiles, %d points, %d panels refined, %d rounds, %.3f s",
            len(ids), work["points"], work["refined"], work["rounds"], time.perf_counter() - t_start,
        )
    z_cen, _ = halfplane_coords(tess.centroids[ids])
    rows = []
    for tid, m_star, z in zip(ids, m_stars, z_cen):
        log_k = alpha * float(m_star)
        rows.append(
            {
                "tile_id": int(tid),
                "rho_centroid": float(tess.centroid_rho[tid]),
                "z_centroid": float(z),
                "Hmin_or_max": float(m_star),
                "k_j": math.exp(log_k) if log_k < 700.0 else math.inf,
                "log_k_j": log_k,
            }
        )
    return rows
