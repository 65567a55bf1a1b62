"""Regular tessellations of H^2 from triangle reflection groups.

A (p, q, r) triangle with angles pi/p, pi/q, pi/r and angle sum below pi
tiles the hyperbolic plane under the group generated by reflections in
its sides.  Tiles are enumerated breadth-first in order of centroid
distance from the origin, deduplicated geometrically (reflection groups
have relations, so words are not canonical identifiers).  The group acts
simply transitively on tiles, so the tile list doubles as an enumeration
of the group itself; that is what the Green's-function image sums and
the orbital counting function consume.
"""

import bisect
import csv
import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    EnumerationTooSmallError,
    IncompleteOrbitError,
    NotHyperbolicError,
)
from .geometry import (
    ETA_DIAG,
    Geodesic,
    Isometry,
    Point,
    angle_at,
    as_lorentz_vec,
    dist,
    geodesic_through,
    lorentz_dot,
    lorentz_project,
    origin,
    point_at,
    reflect_in,
)

DEFAULT_TILE_CAP = 200_000
_DEDUP_WINDOW = 1e-5  # centroid-distance window scanned for duplicates


@dataclass(frozen=True)
class TriangleParams:
    p: int
    q: int
    r: int

    def __post_init__(self):
        for k in (self.p, self.q, self.r):
            if int(k) != k or k < 2:
                raise NotHyperbolicError("triangle orders must be integers >= 2")
        p, q, r = self.p, self.q, self.r
        # exact integer form of 1/p + 1/q + 1/r < 1
        if q * r + p * r + p * q >= p * q * r:
            raise NotHyperbolicError(
                f"1/{p} + 1/{q} + 1/{r} >= 1: no hyperbolic triangle"
            )

    @property
    def angles(self):
        return (math.pi / self.p, math.pi / self.q, math.pi / self.r)


class Tile:
    """One tile: a group element g together with g(fundamental triangle)."""

    def __init__(self, tile_id, word, g, fund_vertices, fund_normals):
        self.id = tile_id
        self.word = word
        self.g = g
        self._fund_vertices = fund_vertices  # (3, 3) Lorentz rows
        self._fund_normals = fund_normals  # (3, 3) outward unit side normals

    @cached_property
    def vertex_vecs(self):
        return self._fund_vertices @ self.g.m.T

    @cached_property
    def vertices(self):
        return tuple(Point.from_vec(v) for v in self.vertex_vecs)

    @cached_property
    def side_normals(self):
        # Lorentz matrices push geodesic normals forward by plain action
        return self._fund_normals @ self.g.m.T

    @cached_property
    def sides(self):
        return tuple(Geodesic(v) for v in self.side_normals)

    @cached_property
    def centroid(self):
        return Point.from_vec(self.vertex_vecs.sum(axis=0))

    @cached_property
    def angles(self):
        v = self.vertices
        return (
            angle_at(v[0], v[1], v[2]),
            angle_at(v[1], v[0], v[2]),
            angle_at(v[2], v[0], v[1]),
        )

    def disk_vertices(self):
        return [pt.to_disk() for pt in self.vertices]


def fundamental_triangle(tp):
    """Canonical (p, q, r) triangle: the pi/p vertex at the disk origin and
    one side along the positive real axis."""
    a1, a2, a3 = tp.angles

    def opposite_side(at1, at2, opp):
        return math.acosh((math.cos(opp) + math.cos(at1) * math.cos(at2)) / (math.sin(at1) * math.sin(at2)))

    len_12 = opposite_side(a1, a2, a3)
    len_13 = opposite_side(a1, a3, a2)
    v1 = origin()
    v2 = point_at(0.0, len_12)
    v3 = point_at(a1, len_13)
    vertices = np.stack([v1.vec, v2.vec, v3.vec])

    # outward unit normals; side i is opposite vertex i+... side order:
    # 0: v1-v2 (real axis), 1: v1-v3, 2: v2-v3
    pairs = ((0, 1, 2), (0, 2, 1), (1, 2, 0))
    normals = []
    for ia, ib, iopp in pairs:
        geo = geodesic_through(Point.from_vec(vertices[ia]), Point.from_vec(vertices[ib]))
        v = geo.v if lorentz_dot(geo.v, vertices[iopp]) < 0 else -geo.v
        normals.append(v)
    normals = np.stack(normals)

    tile = Tile(0, (), Isometry.identity(), vertices, normals)
    measured = tile.angles
    for got, want in zip(measured, (a1, a2, a3)):
        if abs(got - want) > 1e-10:
            raise NotHyperbolicError(f"triangle construction angle off: {got} vs {want}")
    return tile


def tile_area(tile):
    """Hyperbolic area by the Gauss-Bonnet angle defect."""
    return math.pi - sum(tile.angles)


class Tessellation:
    """The enumerated tile ball plus fast array views used by locate and
    the image sums."""

    def __init__(self, params, tiles, radius, dedup_tol, fund_vertices, fund_normals, reflections):
        self.params = params
        self.tiles = tiles
        self.radius = radius
        self.dedup_tol = dedup_tol
        self.fund_vertices = fund_vertices
        self.fund_normals = fund_normals
        self.reflections = reflections
        self.mats = np.stack([t.g.m for t in tiles])
        self.centroids = self.mats @ (fund_vertices.sum(axis=0) / math.sqrt(-lorentz_dot(fund_vertices.sum(axis=0), fund_vertices.sum(axis=0))))
        self.centroid_rho = np.arccosh(np.maximum(self.centroids[:, 2], 1.0))
        self.side_normals = np.einsum("tab,ib->tia", self.mats, fund_normals)
        self.adjacency = None  # built on demand

    def __len__(self):
        return len(self.tiles)

    @cached_property
    def tile_diameter(self):
        vs = [Point.from_vec(v) for v in self.fund_vertices]
        return max(dist(a, b) for a in vs for b in vs)

    @cached_property
    def anchor_spread(self):
        """Max distance from the origin to points of the fundamental tile."""
        o = origin()
        return max(dist(o, Point.from_vec(v)) for v in self.fund_vertices)

    @cached_property
    def circumradius(self):
        c = Point.from_vec(self.centroids[0])
        return max(dist(c, Point.from_vec(v)) for v in self.fund_vertices)

    @cached_property
    def fundamental_area(self):
        return tile_area(self.tiles[0])

    def locate(self, p, slack=1e-12):
        """Tile id whose three outward side tests all pass, or None.

        Boundary points resolve to the smallest claiming id.  The slack
        scales with x3 because the Lorentz products do.
        """
        x = np.asarray(as_lorentz_vec(p)) * ETA_DIAG
        vals = self.side_normals @ x  # (n, 3)
        inside = (vals <= slack * max(1.0, abs(x[2]))).all(axis=1)
        idx = int(np.argmax(inside))
        if not inside[idx]:
            return None
        return idx

    def neighbors(self, tile_id):
        """Ids of the three side-sharing neighbors (None beyond the frontier)."""
        if self.adjacency is None:
            self._build_adjacency()
        return self.adjacency[tile_id]

    def _build_adjacency(self):
        index = _CentroidIndex(self.dedup_tol)
        c1 = self.centroids[0]
        for i in range(len(self.tiles)):
            index.add(self.centroids[i], self.centroid_rho[i], i)
        adj = []
        for t in self.tiles:
            row = []
            for refl in self.reflections:
                cand = (t.g.m @ refl.m) @ c1
                row.append(index.find(cand, math.acosh(max(cand[2], 1.0))))
            adj.append(tuple(row))
        self.adjacency = adj

    def export_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tile_id", "word", "v1x", "v1y", "v2x", "v2y", "v3x", "v3y"])
            for t in self.tiles:
                dv = t.disk_vertices()
                row = [t.id, "".join(str(i) for i in t.word) or "e"]
                for d in dv:
                    row.extend([f"{d.x:.17g}", f"{d.y:.17g}"])
                writer.writerow(row)


class _CentroidIndex:
    """Duplicate detection among centroids, windowed on distance from o.

    Two distinct tile centroids are at least an inradius apart while
    re-derivations of the same tile agree to fp noise, so a cosh-space
    threshold with an x3^2-scaled noise floor separates them cleanly.
    Entries arrive in nondecreasing rho order (the BFS pops that way),
    so storage is append-only.
    """

    def __init__(self, dedup_tol):
        self.rhos = []
        self.vecs = []
        self.ids = []
        self.dedup_tol = dedup_tol

    def find(self, vec, rho):
        lo = bisect.bisect_left(self.rhos, rho - _DEDUP_WINDOW)
        hi = bisect.bisect_right(self.rhos, rho + _DEDUP_WINDOW)
        if hi <= lo:
            return None
        window = np.asarray(self.vecs[lo:hi])
        cd = -(window[:, 0] * vec[0] + window[:, 1] * vec[1] - window[:, 2] * vec[2])
        thr = 1.0 + max(0.5 * self.dedup_tol**2, 1e-12 * vec[2] * vec[2])
        j = int(np.argmin(cd))
        if cd[j] <= thr:
            return self.ids[lo + j]
        return None

    def add(self, vec, rho, tile_id):
        # BFS and adjacency both insert in nondecreasing rho order
        if self.rhos and rho < self.rhos[-1] - _DEDUP_WINDOW:
            raise AssertionError("centroid index expects near-sorted insertion")
        self.rhos.append(rho)
        self.vecs.append(vec)
        self.ids.append(tile_id)


def generate(tp, radius, dedup_tol=1e-9, cap=DEFAULT_TILE_CAP):
    """Enumerate all tiles whose centroid lies within `radius` of the origin.

    Breadth-first over reflection words with the frontier keyed by
    centroid distance, so truncation yields a metric ball of tiles.  The
    frontier runs one tile circumradius past `radius`: every ball tile is
    dual-graph reachable through tiles of that padded ball (the tiles
    crossed by the geodesic from o to its centroid), which makes the
    returned set complete.  The cap counts the returned ball.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    fund = fundamental_triangle(tp)
    fund_vertices = fund._fund_vertices
    fund_normals = fund._fund_normals
    reflections = [reflect_in(Geodesic(v)) for v in fund_normals]
    refl_mats = [r.m for r in reflections]

    csum = fund_vertices.sum(axis=0)
    c1 = csum / math.sqrt(-lorentz_dot(csum, csum))
    circum = max(dist(Point.from_vec(c1), Point.from_vec(v)) for v in fund_vertices)
    frontier_radius = radius + circum + 0.1

    index = _CentroidIndex(dedup_tol)
    # accepted rows: (parent_index, generator, word_length, matrix, centroid_rho)
    accepted = []
    in_ball = 0
    heap = [(math.acosh(max(c1[2], 1.0)), 0, -1, -1, 0, np.eye(3))]
    counter = 1

    while heap:
        rho_c, _, parent, gen, depth, m = heapq.heappop(heap)
        if rho_c > frontier_radius:
            break
        cvec = m @ c1
        if index.find(cvec, rho_c) is not None:
            continue
        index.add(cvec, rho_c, len(accepted))
        accepted.append((parent, gen, depth, m, rho_c))
        if rho_c <= radius + 1e-9:
            in_ball += 1
            if in_ball > cap:
                partial = _finalize(
                    tp, accepted, radius, dedup_tol, fund_vertices, fund_normals, reflections
                )
                raise CapacityError(f"tile cap {cap} exceeded at radius {radius}", partial=partial)
        me = len(accepted) - 1
        for i in range(3):
            if i == gen:
                continue  # immediate backtrack reproduces the parent
            child = m @ refl_mats[i]
            if (depth + 1) % 16 == 0:
                child = lorentz_project(child)
            crho = math.acosh(max(child[2, 0] * c1[0] + child[2, 1] * c1[1] + child[2, 2] * c1[2], 1.0))
            if crho > frontier_radius:
                continue
            heapq.heappush(heap, (crho, counter, me, i, depth + 1, child))
            counter += 1

    return _finalize(tp, accepted, radius, dedup_tol, fund_vertices, fund_normals, reflections)


def _finalize(tp, accepted, radius, dedup_tol, fund_vertices, fund_normals, reflections):
    def word_of(idx):
        out = []
        while idx >= 0:
            parent, gen, _, _, _ = accepted[idx]
            if gen >= 0:
                out.append(gen)
            idx = parent
        return tuple(reversed(out))

    tiles = []
    for idx, (parent, gen, depth, m, rho_c) in enumerate(accepted):
        # the fundamental tile is always part of the result (radius 0 ball)
        if idx > 0 and rho_c > radius + 1e-9:
            continue
        g = Isometry(lorentz_project(m), check=False)
        tiles.append(Tile(len(tiles), word_of(idx), g, fund_vertices, fund_normals))
    return Tessellation(tp, tiles, radius, dedup_tol, fund_vertices, fund_normals, reflections)


def orbital_count(tess, theta, x, y):
    """N(theta, x, y) = #{group elements g : rho(x, g(y)) < theta}.

    Requires enough enumeration that the count is provably complete:
    rho(o, g(c1)) <= rho(o, x) + theta + rho(y, c1) for every counted g.
    """
    xv, yv = as_lorentz_vec(x), as_lorentz_vec(y)
    o = origin()
    guard = tess.radius - dist(o, Point.from_vec(xv)) - dist(Point.from_vec(yv), Point.from_vec(tess.centroids[0]))
    if theta > guard:
        raise IncompleteOrbitError(
            f"theta={theta} exceeds the completeness guard {guard:.3f} of this enumeration"
        )
    imgs = tess.mats @ yv
    coshes = -(imgs[:, 0] * xv[0] + imgs[:, 1] * xv[1] - imgs[:, 2] * xv[2])
    return int((coshes < math.cosh(theta)).sum())


def conical_sequence(tess, p_angle, a, n, c, min_step=0.0):
    """Tile ids gamma_i(T_a) marching toward the boundary point at angle
    p_angle inside the c-tube of the ray from the origin.

    Returned depths rho(o, gamma_i(a)) are strictly increasing (by at
    least min_step); tiles are reported in increasing depth.
    """
    if n == 0:
        return []
    av = as_lorentz_vec(a)
    tile_a = tess.locate(Point.from_vec(av))
    if tile_a is None:
        raise EnumerationTooSmallError("anchor point lies outside the enumerated region")
    ray_normal = np.array([-math.sin(p_angle), math.cos(p_angle), 0.0])
    ray_dir = np.array([math.cos(p_angle), math.sin(p_angle), 0.0])

    pts = tess.mats @ av  # all gamma(a)
    off = pts @ (ray_normal * ETA_DIAG)
    forward = pts @ (ray_dir * ETA_DIAG) > 0.0
    in_tube = (np.abs(np.arcsinh(off)) <= c) & forward
    depth = np.arccosh(np.maximum(pts[:, 2], 1.0))
    usable = in_tube & (depth <= tess.radius - tess.tile_diameter)

    order = np.argsort(depth[usable], kind="stable")
    cand = np.nonzero(usable)[0][order]
    ids = []
    last_depth = -math.inf
    for k in cand:
        if depth[k] <= last_depth + max(min_step, 1e-12):
            continue
        tid = tess.locate(Point.from_vec(pts[k]))
        if tid is None:
            continue
        ids.append(int(tid))
        last_depth = depth[k]
        if len(ids) == n:
            return ids
    raise EnumerationTooSmallError(
        f"only {len(ids)} of {n} conical tiles found; enlarge the tessellation radius or the tube"
    )
