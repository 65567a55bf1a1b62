"""Hyperbolic plane geometry in the Lorentz (hyperboloid) model.

Points live on the upper sheet x1^2 + x2^2 - x3^2 = -1, x3 > 0 of the
Lorentz quadric; isometries are 3x3 matrices preserving the form
eta = diag(1, 1, -1).  Points pass between modules as Lorentz rows, a
set of them as an (n, 3) array.  The Poincare disk and the upper
half-plane are views given by closed-form charts, whose images land on
the sheet with no renormalisation:

    disk:       u = (x1, x2) / (1 + x3),  x = (2 u1, 2 u2, 1 + |u|^2) / (1 - |u|^2)
    half-plane: (z, zeta) = (1, x2) / (x1 + x3),
                x = (1 - z^2 - zeta^2, 2 zeta, 1 + z^2 + zeta^2) / (2 z)

The half-plane chart equals the Cayley map W = i (1 - w) / (1 + w) of
the disk point w, (z, zeta) = (Im W, Re W), the package's convention:
the boundary angle beta goes to eta = tan(beta/2), the origin to (1, 0).
For x1 < 0, x1 + x3 is evaluated as (1 + x2^2) / (x3 - x1).

Normalise where shallow, map without renormalising: a point of tile k is
`normalize` of a combination of the fundamental tile's vertices, mapped
by the tile's group element.  Renormalising at depth rho costs about
e^(2 rho) eps, the cancellation in <v, v>: at depth 5.65 the k_j search
points, renormalised and then charted by complex division, were 1.5e-11
off a 40-digit evaluation of the same points; built this way, 4.2e-16.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartOverflowError,
    DegenerateGeodesicError,
    InvalidNormalError,
)

ETA_DIAG = np.array([1.0, 1.0, -1.0])  # the Lorentz signature
ETA_DIAG.setflags(write=False)
ETA = np.diag(ETA_DIAG)


def lorentz_dot(a, b):
    """Lorentz inner product on stacked 3-vectors (broadcasts over leading axes)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] - a[..., 2] * b[..., 2]


def normalize(v):
    """v / sqrt(-<v, v>): a timelike row, or each row of an (n, 3) array,
    scaled onto the hyperboloid."""
    q = -lorentz_dot(v, v)
    if np.any(q <= 0):
        raise ChartOverflowError("vector left the timelike cone; cannot renormalize")
    v = v / np.sqrt(q)[..., None] if v.ndim > 1 else v / math.sqrt(q)
    return v


class Point:
    """A point of H^2 carried in the Lorentz model."""

    __slots__ = ("vec",)

    def __init__(self, x1, x2, x3, renormalize=True):
        v = np.array([x1, x2, x3], dtype=float)
        if v[2] <= 0:
            raise ChartOverflowError("point not on the upper sheet (x3 <= 0)")
        if renormalize:
            v = normalize(v)
        self.vec = v
        self.vec.setflags(write=False)

    @classmethod
    def from_vec(cls, v, renormalize=True):
        return cls(v[0], v[1], v[2], renormalize=renormalize)

    def hyperboloid_residual(self):
        """Defect of x1^2 + x2^2 - x3^2 = -1, relative to the height scale.

        The absolute defect cannot beat eps * x3^2 in floating point, so
        the meaningful invariant is the scaled one.
        """
        raw = abs(self.vec[0] ** 2 + self.vec[1] ** 2 - self.vec[2] ** 2 + 1.0)
        return raw / max(1.0, self.vec[2] ** 2)

    def to_disk(self):
        s = 1.0 + self.vec[2]
        u1, u2 = self.vec[0] / s, self.vec[1] / s
        if u1 * u1 + u2 * u2 >= 1.0:
            raise ChartOverflowError("point at the numerical boundary of the disk chart")
        return DiskPoint(u1, u2)

    def to_halfplane(self):
        return HalfPlanePoint(*halfplane_coords(self.vec))

    def __repr__(self):
        return f"Point({self.vec[0]!r}, {self.vec[1]!r}, {self.vec[2]!r})"


class DiskPoint:
    """A point of the Poincare disk chart, Cartesian coordinates with |x| < 1."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        if x * x + y * y >= 1.0:
            raise ChartOverflowError("disk point with |x| >= 1")
        self.x = float(x)
        self.y = float(y)

    @property
    def r(self):
        return math.hypot(self.x, self.y)

    @property
    def beta(self):
        return math.atan2(self.y, self.x)

    def to_lorentz(self):
        s = 1.0 - (self.x * self.x + self.y * self.y)
        return Point(2.0 * self.x / s, 2.0 * self.y / s, (2.0 - s) / s, renormalize=False)

    def to_halfplane(self):
        return self.to_lorentz().to_halfplane()

    def __repr__(self):
        return f"DiskPoint({self.x!r}, {self.y!r})"


class HalfPlanePoint:
    """A point of the upper half-plane chart, coordinates (z, zeta) with z > 0."""

    __slots__ = ("z", "zeta")

    def __init__(self, z, zeta):
        if z <= 0.0:
            raise ChartOverflowError("half-plane point with z <= 0")
        self.z = float(z)
        self.zeta = float(zeta)

    def to_disk(self):
        return self.to_lorentz().to_disk()

    def to_lorentz(self):
        z, zeta = self.z, self.zeta
        q = z * z + zeta * zeta
        return Point((1.0 - q) / (2.0 * z), zeta / z, (1.0 + q) / (2.0 * z), renormalize=False)

    def __repr__(self):
        return f"HalfPlanePoint({self.z!r}, {self.zeta!r})"


def origin():
    return Point(0.0, 0.0, 1.0)


def point_at(theta, rho):
    """The point at geodesic distance rho from the origin in disk direction theta."""
    return Point(math.sinh(rho) * math.cos(theta), math.sinh(rho) * math.sin(theta), math.cosh(rho))


_MODEL_CLASSES = {"lorentz": Point, "disk": DiskPoint, "halfplane": HalfPlanePoint}


def convert(p, target):
    """Convert a point between the three models; target in {lorentz, disk, halfplane}."""
    if target not in _MODEL_CLASSES:
        raise ValueError(f"unknown model {target!r}")
    cls = _MODEL_CLASSES[target]
    if isinstance(p, cls):
        return p
    if not isinstance(p, Point):
        p = p.to_lorentz()
    if target == "lorentz":
        return p
    return p.to_disk() if target == "disk" else p.to_halfplane()


def as_lorentz_vec(p):
    """The Lorentz vector of a point given in any model, or a Lorentz row
    (an ndarray, returned as it is)."""
    if isinstance(p, Point):
        return p.vec
    if isinstance(p, np.ndarray):
        return p
    return p.to_lorentz().vec


def dist(a, b):
    """Geodesic distance; accepts points in any model."""
    c = -lorentz_dot(as_lorentz_vec(a), as_lorentz_vec(b))
    # rounding can push the cosh argument a hair below 1 for nearby points
    return math.acosh(max(c, 1.0))


def pairwise_dist(xs, ys):
    """rho[i, j] = rho(xs[i], ys[j]) for (n, 3) and (m, 3) Lorentz rows."""
    # rounding can push a cosh a hair below 1 for nearby points
    return np.arccosh(np.maximum(-(xs * ETA_DIAG) @ ys.T, 1.0))


def halfplane_coords(vecs):
    """(z, zeta) = (1, x2) / (x1 + x3) of a Lorentz row or of each row of
    an (n, 3) array, with x1 + x3 = (1 + x2^2) / (x3 - x1) for x1 < 0."""
    v = np.asarray(vecs, dtype=float)
    x1, x2, x3 = v[..., 0], v[..., 1], v[..., 2]
    # x3 + |x1| is x3 - x1 where it is used, and never 0
    s = np.where(x1 < 0.0, (1.0 + x2 * x2) / (x3 + np.abs(x1)), x1 + x3)
    return 1.0 / s, x2 / s


def halfplane_z(p):
    """The half-plane height z(x) of a point under the package chart."""
    return convert(p, "halfplane").z


class Isometry:
    """An element of O+(2,1) acting on the hyperboloid by matrix multiplication."""

    __slots__ = ("m", "det_sign")

    def __init__(self, m, check=True):
        m = np.array(m, dtype=float)
        if check:
            scale = max(1.0, float(np.abs(m).max()) ** 2)
            residual = np.abs(m.T @ ETA @ m - ETA).max() / scale
            if residual > 1e-9:
                raise InvalidNormalError(f"matrix is not Lorentz to tolerance ({residual:.2e})")
            if m[2, 2] <= 0:
                raise InvalidNormalError("matrix swaps the sheets (m33 <= 0)")
        self.m = m
        self.m.setflags(write=False)
        self.det_sign = 1 if np.linalg.det(m) > 0 else -1

    @classmethod
    def identity(cls):
        return cls(np.eye(3), check=False)

    def apply(self, p):
        if isinstance(p, Point):
            return Point.from_vec(self.m @ p.vec)
        return convert(Point.from_vec(self.m @ as_lorentz_vec(p)), _model_of(p))

    def __matmul__(self, other):
        return Isometry(self.m @ other.m, check=False)

    def inverse(self):
        # Lorentz inverse is exact: m^-1 = eta m^T eta
        return Isometry(ETA @ self.m.T @ ETA, check=False)

    def lorentz_residual(self):
        """Form defect |m^T eta m - eta| relative to the entry scale.

        Matrix entries grow like e^rho, so the achievable absolute
        residual degrades like |m|^2 * eps; the relative figure is the
        meaningful one.
        """
        scale = max(1.0, float(np.abs(self.m).max()) ** 2)
        return np.abs(self.m.T @ ETA @ self.m - ETA).max() / scale

    def __repr__(self):
        return f"Isometry(det_sign={self.det_sign},\n{self.m!r})"


def _model_of(p):
    if isinstance(p, DiskPoint):
        return "disk"
    if isinstance(p, HalfPlanePoint):
        return "halfplane"
    return "lorentz"


class Geodesic:
    """A complete geodesic {x : (x, v)_L = 0} with unit spacelike normal v.

    v and -v carry the same geodesic with opposite side orientation;
    side(p) > 0 means p lies on the side v points into.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        v = np.array(v, dtype=float)
        n2 = lorentz_dot(v, v)
        if n2 <= 0:
            raise InvalidNormalError("geodesic normal must be spacelike")
        self.v = v / math.sqrt(n2)
        self.v.setflags(write=False)

    def signed_eval(self, p):
        """(p, v)_L; equals sinh of the signed distance to the geodesic."""
        return lorentz_dot(as_lorentz_vec(p), self.v)

    def __repr__(self):
        return f"Geodesic(v={self.v!r})"


def geodesic_through(a, b):
    """The unique geodesic through two distinct points."""
    av, bv = as_lorentz_vec(a), as_lorentz_vec(b)
    scale = max(1.0, np.abs(av).max(), np.abs(bv).max())
    if np.abs(av - bv).max() <= 1e-12 * scale:
        raise DegenerateGeodesicError("coincident points do not determine a geodesic")
    # Lorentz cross product: (a x_L b, c)_L = det[a; b; c]
    w = ETA @ np.cross(av, bv)
    return Geodesic(w)


def reflect_in(geo):
    """The reflection isometry fixing a geodesic pointwise: R = I - 2 v v^T eta."""
    v = geo.v
    m = np.eye(3) - 2.0 * np.outer(v, ETA @ v)
    return Isometry(m, check=False)


def midpoint(a, b):
    return Point.from_vec(as_lorentz_vec(a) + as_lorentz_vec(b))


def angle_at(vertex, p, q):
    """Interior angle at `vertex` between the geodesic rays toward p and q."""
    vv = as_lorentz_vec(vertex)

    def tangent(toward):
        t = as_lorentz_vec(toward) + lorentz_dot(vv, as_lorentz_vec(toward)) * vv
        n2 = lorentz_dot(t, t)
        if n2 <= 0:
            raise DegenerateGeodesicError("tangent direction degenerate at vertex")
        return t / math.sqrt(n2)

    t1, t2 = tangent(p), tangent(q)
    c = lorentz_dot(t1, t2)
    return math.acos(min(1.0, max(-1.0, c)))


@dataclass(frozen=True)
class Sector:
    """Disk-chart sector {r(x) >= r0, beta(x) in (beta0, beta1)}."""

    r0: float
    beta0: float
    beta1: float

    def __post_init__(self):
        if not 0.0 < self.r0 < 1.0:
            raise ValueError("sector needs r0 in (0, 1)")
        if not self.beta0 < self.beta1:
            raise ValueError("sector needs beta0 < beta1")


def in_sector(s, p):
    """Membership test in the disk chart; closed at r = r0, open in angle."""
    d = convert(p, "disk")
    if d.r < s.r0 - 1e-14:
        return False
    span = s.beta1 - s.beta0
    t = (d.beta - s.beta0) % (2.0 * math.pi)
    return 0.0 < t < span


def z_bound_check(s, n_samples, seed=0):
    """Empirical check that z(x) <= C exp(-rho(o, x)) on the sector.

    Samples the sector uniformly in (r, beta), reports the sup of
    z(x) * exp(rho(o, x)) plus the same sup on the first half of the
    samples so stability under doubling can be asserted.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))
    o = origin()
    vals = np.empty(n_samples)
    for i in range(n_samples):
        r = rng.uniform(s.r0, 1.0 - 1e-8)
        beta = rng.uniform(s.beta0, s.beta1)
        p = DiskPoint(r * math.cos(beta), r * math.sin(beta))
        vals[i] = halfplane_z(p) * math.exp(dist(o, p))
    return {
        "n_samples": int(n_samples),
        "sup_z_exp_rho": float(vals.max()) if n_samples else float("nan"),
        "sup_first_half": float(vals[: n_samples // 2].max()) if n_samples >= 2 else float("nan"),
    }
