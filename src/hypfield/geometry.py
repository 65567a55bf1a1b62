"""Hyperbolic plane geometry in the Lorentz (hyperboloid) model.

Points live on the upper sheet x1^2 + x2^2 - x3^2 = -1, x3 > 0 of the
Lorentz quadric; isometries are 3x3 matrices preserving the form
eta = diag(1, 1, -1).  Points are Lorentz rows, a set of them an (n, 3)
array, and a geodesic is its unit spacelike normal v, the set
{x : (x, v)_L = 0}.  There are no point, geodesic or isometry objects:
the functions here take and return rows and matrices.  A function of
rows takes one row (one triangle: a (3, 3) array of vertex rows) or a
stack along leading axes, with the same numpy operations and so the same
bits for both: there is no scalar path.  Only `dist` takes one pair of
rows; `pairwise_dist` takes every pair of two sets and keeps the digits
that `dist` loses next to rho = 0.  The Poincare disk and the upper
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

from .errors import ChartOverflowError, DegenerateGeodesicError

ETA_DIAG = np.array([1.0, 1.0, -1.0])  # the Lorentz signature
ETA_DIAG.setflags(write=False)
ETA = np.diag(ETA_DIAG)


def lorentz_dot(a, b):
    """Lorentz inner product of two rows, or of each pair of rows of two
    stacks (broadcasts over leading axes)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] - a[..., 2] * b[..., 2]


def normalize(v):
    """v / sqrt(-<v, v>): a timelike row, or each row of a stack, scaled
    onto the hyperboloid."""
    q = -lorentz_dot(v, v)
    if np.any(q <= 0):
        raise ChartOverflowError("vector left the timelike cone; cannot renormalize")
    return v / np.sqrt(q)[..., None]


def point_at(theta, rho):
    """The row at geodesic distance rho from the origin in disk direction
    theta, in closed form: (sinh rho cos theta, sinh rho sin theta, cosh rho)
    lies on the sheet as it stands, and renormalising it would cancel
    cosh^2 rho - sinh^2 rho, about e^(2 rho) eps of it."""
    return np.array([math.sinh(rho) * math.cos(theta), math.sinh(rho) * math.sin(theta), math.cosh(rho)])


def dist(a, b):
    """The geodesic distance between two Lorentz rows, by acosh, which
    loses digits next to rho = 0; it stays so, since the decay ball's size
    comes from its bits (`tessellation.ball_radius`, `tile_diameter`)."""
    c = -lorentz_dot(a, b)
    # rounding can push the cosh argument a hair below 1 for nearby points
    return math.acosh(max(c, 1.0))


def pairwise_dist(xs, ys):
    """rho[i, j] = rho(xs[i], ys[j]) for (n, 3) and (m, 3) Lorentz rows,
    as 2 asinh(sqrt(<x - y, x - y>) / 2): <x - y, x - y> = 4 sinh^2(rho/2)
    keeps its digits where acosh of the Lorentz product loses them, next
    to rho = 0."""
    diff = xs[:, None, :] - ys[None, :, :]
    # rounding can push <x - y, x - y> a hair below 0 for nearby points
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(lorentz_dot(diff, diff), 0.0)))


def image_rows(mats, v):
    """g(v) for each matrix g of a (k, 3, 3) stack, as a (k, 3) array: one
    (3k, 3) @ (3,) product, `mats @ v` bit for bit and eight times faster on
    one BLAS thread (0.6 against 4.7 ms, 114,990 tiles), though OpenBLAS at
    its default thread count took 7.8 against 4.4 ms on a busy 2-core host."""
    return (mats.reshape(-1, 3) @ v).reshape(-1, 3)


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


def _check_distinct(a, b):
    """Raise DegenerateGeodesicError where a row of a coincides with the
    row of b it pairs with, to 1e-12 of their size."""
    scale = np.maximum(1.0, np.maximum(np.abs(a).max(axis=-1), np.abs(b).max(axis=-1)))
    if np.any(np.abs(a - b).max(axis=-1) <= 1e-12 * scale):
        raise DegenerateGeodesicError("coincident points do not determine a geodesic")


def geodesic_normal(a, b):
    """Unit spacelike normal v of the geodesic through the rows a and b,
    {x : (x, v)_L = 0}, or of each pair of rows of two stacks; -v is the
    same geodesic with the sides swapped."""
    _check_distinct(a, b)
    # Lorentz cross product: (a x_L b, c)_L = det[a; b; c]
    w = np.cross(a, b) @ ETA
    return w / np.sqrt(lorentz_dot(w, w))[..., None]


def outward_normals(vertices):
    """Outward unit side normals of the geodesic triangle with Lorentz
    vertex rows `vertices`, one row per side in the order v0-v1, v0-v2,
    v1-v2; a (..., 3, 3) stack of triangles gives one (3, 3) block each."""
    pts = normalize(vertices)
    v = geodesic_normal(pts[..., [0, 0, 1], :], pts[..., [1, 2, 2], :])
    outward = lorentz_dot(v, vertices[..., [2, 1, 0], :]) < 0
    return np.where(outward[..., None], v, -v)


def reflection(v):
    """The reflection I - 2 v (eta v)^T in the geodesic with unit normal v,
    or a (k, 3, 3) stack of them for a (k, 3) array of normals."""
    v = np.asarray(v, dtype=float)
    return np.eye(3) - 2.0 * v[..., :, None] * (v * ETA_DIAG)[..., None, :]


def angle_at(vertex, p, q):
    """Interior angle at the row `vertex` between the geodesic rays toward
    the rows p and q, or at each row of a stack."""

    def tangent(toward):
        t = toward + lorentz_dot(vertex, toward)[..., None] * vertex
        n2 = lorentz_dot(t, t)
        if np.any(n2 <= 0):
            raise DegenerateGeodesicError("tangent direction degenerate at vertex")
        return t / np.sqrt(n2)[..., None]

    c = lorentz_dot(tangent(p), tangent(q))
    return np.arccos(np.clip(c, -1.0, 1.0))


def triangle_angles(rows):
    """The interior angles at the three vertex rows of a geodesic triangle,
    an array (..., 3) for a (..., 3, 3) stack of triangles."""
    v = normalize(np.asarray(rows, dtype=float))
    v0, v1, v2 = v[..., 0, :], v[..., 1, :], v[..., 2, :]
    return np.stack([angle_at(v0, v1, v2), angle_at(v1, v0, v2), angle_at(v2, v0, v1)], axis=-1)


def triangle_area(rows):
    """Area of the geodesic triangle with vertex rows `rows`, or of each
    triangle of a (..., 3, 3) stack, in closed form: for the rows a, b, c
    scaled onto the hyperboloid,

        tan(area / 2) = |det[a; b; c]| / (1 - <a, b> - <b, c> - <c, a>).

    The determinant is taken as a . ((b - a) x (c - a)), whose small factors
    keep their digits, and the denominator is at least 4, so a small cell
    keeps its relative digits: at resolution 24 the cells of
    `fieldmc.build_quadrature` are within 1e-14 of a 40-digit evaluation,
    where the Gauss-Bonnet defect pi minus three angles of order 1 lost
    up to 1e-11 of them.
    """
    v = normalize(np.asarray(rows, dtype=float))
    a, b, c = v[..., 0, :], v[..., 1, :], v[..., 2, :]
    _check_distinct(v[..., [0, 0, 1], :], v[..., [1, 2, 2], :])
    det = np.einsum("...i,...i->...", a, np.cross(b - a, c - a))
    return 2.0 * np.arctan2(np.abs(det), 1.0 - lorentz_dot(a, b) - lorentz_dot(b, c) - lorentz_dot(c, a))


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
