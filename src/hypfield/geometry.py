"""Hyperbolic plane geometry in the Lorentz (hyperboloid) model.

Points live on the upper sheet x1^2 + x2^2 - x3^2 = -1, x3 > 0 of the
Lorentz quadric; isometries are 3x3 matrices preserving the form
eta = diag(1, 1, -1).  Points are Lorentz rows, a set of them an (n, 3)
array, and a geodesic is its unit spacelike normal v, the set
{x : (x, v)_L = 0}.  There are no point, geodesic or isometry objects:
the functions here take and return rows and matrices.  The Poincare
disk and the upper half-plane are views given by closed-form charts,
whose images land on the sheet with no renormalisation:

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

from .errors import ChartOverflowError, DegenerateGeodesicError

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


def point_at(theta, rho):
    """The row at geodesic distance rho from the origin in disk direction theta."""
    return normalize(np.array([math.sinh(rho) * math.cos(theta), math.sinh(rho) * math.sin(theta), math.cosh(rho)]))


def dist(a, b):
    """The geodesic distance between two Lorentz rows."""
    c = -lorentz_dot(a, b)
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


def halfplane_to_lorentz(z, zeta):
    """The Lorentz row(s) of the half-plane point(s) (z, zeta), z > 0."""
    z, zeta = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(zeta, dtype=float))
    if not np.all(z > 0.0):
        raise ChartOverflowError("half-plane point with z <= 0")
    q = z * z + zeta * zeta
    return np.stack([(1.0 - q) / (2.0 * z), zeta / z, (1.0 + q) / (2.0 * z)], axis=-1)


def disk_coords(vecs):
    """(u1, u2) = (x1, x2) / (1 + x3): the disk chart of a Lorentz row or
    of each row of an (n, 3) array."""
    v = np.asarray(vecs, dtype=float)
    s = 1.0 + v[..., 2]
    u1, u2 = v[..., 0] / s, v[..., 1] / s
    if np.any(u1 * u1 + u2 * u2 >= 1.0):
        raise ChartOverflowError("point at the numerical boundary of the disk chart")
    return u1, u2


def disk_to_lorentz(x, y):
    """The Lorentz row(s) of the disk point(s) (x, y), x^2 + y^2 < 1."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    s = 1.0 - (x * x + y * y)
    if not np.all(s > 0.0):
        raise ChartOverflowError("disk point with |x| >= 1")
    return np.stack([2.0 * x / s, 2.0 * y / s, (2.0 - s) / s], axis=-1)


def geodesic_normal(a, b):
    """Unit spacelike normal v of the geodesic through the rows a and b,
    {x : (x, v)_L = 0}; -v is the same geodesic with the sides swapped."""
    scale = max(1.0, np.abs(a).max(), np.abs(b).max())
    if np.abs(a - b).max() <= 1e-12 * scale:
        raise DegenerateGeodesicError("coincident points do not determine a geodesic")
    # Lorentz cross product: (a x_L b, c)_L = det[a; b; c]
    w = ETA @ np.cross(a, b)
    return w / math.sqrt(lorentz_dot(w, w))


def outward_normals(vertices):
    """Outward unit side normals of the geodesic triangle with Lorentz
    vertex rows `vertices`, one row per side in the order v0-v1, v0-v2, v1-v2."""
    pts = normalize(vertices)
    normals = []
    for ia, ib, iopp in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        v = geodesic_normal(pts[ia], pts[ib])
        normals.append(v if lorentz_dot(v, vertices[iopp]) < 0 else -v)
    return np.stack(normals)


def reflection(v):
    """The reflection I - 2 v (eta v)^T in the geodesic with unit normal v,
    or a (k, 3, 3) stack of them for a (k, 3) array of normals."""
    v = np.asarray(v, dtype=float)
    return np.eye(3) - 2.0 * v[..., :, None] * (v * ETA_DIAG)[..., None, :]


def angle_at(vertex, p, q):
    """Interior angle at the row `vertex` between the geodesic rays toward
    the rows p and q."""

    def tangent(toward):
        t = toward + lorentz_dot(vertex, toward) * vertex
        n2 = lorentz_dot(t, t)
        if n2 <= 0:
            raise DegenerateGeodesicError("tangent direction degenerate at vertex")
        return t / math.sqrt(n2)

    t1, t2 = tangent(p), tangent(q)
    c = lorentz_dot(t1, t2)
    return math.acos(min(1.0, max(-1.0, c)))


def triangle_angles(rows):
    """The interior angles at the three vertex rows of a geodesic triangle."""
    v = normalize(np.asarray(rows, dtype=float))
    return angle_at(v[0], v[1], v[2]), angle_at(v[1], v[0], v[2]), angle_at(v[2], v[0], v[1])


def triangle_area(rows):
    """Area of the geodesic triangle with vertex rows `rows`, by the
    Gauss-Bonnet defect pi minus its measured angles."""
    return math.pi - sum(triangle_angles(rows))


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
