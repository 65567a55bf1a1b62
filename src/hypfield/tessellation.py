"""Regular tessellations of H^2 from triangle reflection groups.

A (p, q, r) triangle with angles pi/p, pi/q, pi/r and angle sum below pi
tiles the hyperbolic plane under the Coxeter group W generated by the
reflections s_0, s_1, s_2 in its sides.  The group acts simply
transitively on tiles, so the tile list doubles as an enumeration of the
group itself; that is what the Green's-function image sums and the
orbital counting function consume.

Tile identity is exact group structure, not a coordinate comparison.
Every element w has one canonical reduced word, the one that ends in its
largest right descent (the largest i with l(w s_i) < l(w)), and a right
descent is a sign test on a 3-vector of w whose margin does not shrink
with depth.  `generate` walks the tree these words form, level by level in
word length, and the tessellation is stored as arrays indexed by tile
id: group elements, centroids, and the vertex and side-normal rows of
the fundamental triangle.  Every function here takes and returns Lorentz
rows and matrices.
"""

import csv
import logging
import math
import operator
import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    CapacityError,
    ChartOverflowError,
    EnumerationTooSmallError,
    IncompleteOrbitError,
    NotHyperbolicError,
)
from .geometry import (
    ETA_DIAG,
    disk_coords,
    dist,
    image_rows,
    lorentz_dot,
    normalize,
    outward_normals,
    point_at,
    reflection,
    triangle_angles,
    triangle_area,
)

logger = logging.getLogger(__name__)

DEFAULT_TILE_CAP = 200_000
_LOCATE_SLACK = 1e-13  # `Tessellation.locate`'s side tolerance, per x3^2
_ASSEMBLE_CHUNK = 8192  # tiles per stacked product when `generate` forms the matrices
_CONICAL_BLOCK = 8192  # tiles per block of `conical_sequence`'s image scan


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


class Tile(NamedTuple):
    """One tile as rows: its id, canonical word and group element m, the
    rows of its vertices and outward side normals, and its centroid row
    `tess.centroids[id]`.

    The package itself reads the arrays of `Tessellation`; `Tile` and
    `tess.tiles` remain because the benchmark workloads read
    `tess.tiles[0].centroid`.
    """

    id: int
    word: tuple
    m: np.ndarray
    vertex_vecs: np.ndarray
    side_normals: np.ndarray
    centroid: np.ndarray


def fundamental_triangle(tp):
    """Canonical (p, q, r) triangle: the pi/p vertex at the disk origin and
    one side along the positive real axis.  Returns its (3, 3) vertex rows
    and outward unit side normals (side 0, v0-v1, on the real axis)."""
    a1, a2, a3 = tp.angles

    def opposite_side(at1, at2, opp):
        return math.acosh((math.cos(opp) + math.cos(at1) * math.cos(at2)) / (math.sin(at1) * math.sin(at2)))

    len_12 = opposite_side(a1, a2, a3)
    len_13 = opposite_side(a1, a3, a2)
    # the vertices lie within 1.1 of the origin, where normalising a row
    # costs no digits
    vertices = np.stack([normalize(point_at(*at)) for at in ((0.0, 0.0), (0.0, len_12), (a1, len_13))])
    for got, want in zip(triangle_angles(vertices), (a1, a2, a3)):
        if abs(got - want) > 1e-10:
            raise NotHyperbolicError(f"triangle construction angle off: {got} vs {want}")
    return vertices, outward_normals(vertices)


def _anchor_spread(vertices):
    """Max distance from the origin to the vertex rows of a triangle."""
    return max(math.acosh(max(v[2], 1.0)) for v in normalize(vertices))


def _circumradius(vertices):
    """Max distance from a triangle's centroid row to its vertex rows; the
    centroid is the vertex sum normalised twice, and ball radii carry the
    bits of the second step."""
    c = normalize(normalize(vertices.sum(axis=0)))
    return max(dist(c, v) for v in normalize(vertices))


def ball_radius(tp, orbit_radius):
    """The tessellation radius image sums out to orbit radius R need: orbit
    elements reached from pulled-back same-tile pairs satisfy rho(o, gamma
    c1) <= rho(o, x') + R + rho(y', c1), so R plus the fundamental
    triangle's anchor spread and circumradius (2.39 for (4,4,4))."""
    vertices, _ = fundamental_triangle(tp)
    return orbit_radius + (_anchor_spread(vertices) + _circumradius(vertices))


class Tessellation:
    """The enumerated tile ball, stored as arrays indexed by tile id.

    `mats[k]` is the group element of tile k.  `parent[k]` and `gen[k]`
    place it in the descent tree, mats[k] = mats[parent[k]] @ R[gen[k]]
    with R = `reflections`, the (3, 3, 3) side reflections of the
    fundamental triangle; both are -1 for the identity, tile 0.
    `side_normals`, the (tiles, 3, 3) outward side normals, is built on
    first use: `locate` folds instead of scanning them.  `tiles` builds a
    `Tile` on access.
    """

    def __init__(self, params, radius, mats, parent, gen, fund_vertices, fund_normals, reflections):
        self.params = params
        self.radius = radius
        self.mats = mats
        self.parent = parent
        self.gen = gen
        self.fund_vertices = fund_vertices
        self.fund_normals = fund_normals
        self.reflections = reflections
        self.centroids = image_rows(mats, normalize(fund_vertices.sum(axis=0)))
        self.centroid_rho = np.arccosh(np.maximum(self.centroids[:, 2], 1.0))

    def __len__(self):
        return len(self.mats)

    @cached_property
    def side_normals(self):
        """(tiles, 3, 3): the outward unit side normals of every tile."""
        return np.einsum("tab,ib->tia", self.mats, self.fund_normals)

    @property
    def tiles(self):
        # a fresh view on each access: storing it would make a reference
        # cycle that keeps the arrays alive until a full garbage collection
        return _TileSequence(self)

    @cached_property
    def tile_diameter(self):
        vs = normalize(self.fund_vertices)
        return max(dist(a, b) for a in vs for b in vs)

    @cached_property
    def tile_area(self):
        """Area of every tile, the closed-form area of tile 0."""
        return float(triangle_area(self.fund_vertices))

    def locate(self, x):
        """Id of the tile holding the Lorentz row x, or None outside the ball.

        Folds x into the fundamental triangle C: while x lies beyond a
        side j of C by more than the tolerance, it is reflected across
        that side.  Each such side separates x from C, so the folds spell
        a reduced word of the element w with x in w(C), and
        `_id_of_descents` finds its id.  The folded point lies on the sides of C within the
        tolerance of it; then x lies on every tile w u with u in the
        subgroup those sides generate (two tiles across a side, 2m around
        a vertex of angle pi/m), and the smallest enumerated id among
        them wins.  The tolerance on sinh of the distance to a side is
        `_LOCATE_SLACK` * x3^2: folding a point of height x3 rounds the
        folded point by about 1e-16 x3^2 (at most 10.4 eps x3^2 on 24,000
        vertices and side midpoints of a (3,4,4) ball of radius 9.86).

        Raises ChartOverflowError for a row that is not a point of H^2:
        not finite, x3 <= 0 or not timelike.  Folding such a row never ends.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (3,):
            raise ValueError(f"locate takes one Lorentz row of shape (3,), got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ChartOverflowError(f"cannot locate {x}: the row is not finite")
        if not x[2] > 0.0:
            raise ChartOverflowError(f"cannot locate {x}: x3 <= 0, not on the upper sheet")
        if not lorentz_dot(x, x) < 0.0:
            raise ChartOverflowError(f"cannot locate {x}: the row is not timelike, <x, x> >= 0")
        tol = _LOCATE_SLACK * max(1.0, float(x[2])) ** 2
        _, normals_eta, refl = self._letters
        x0, x1, x2 = x.tolist()
        word = []
        while True:
            vals = [a0 * x0 + a1 * x1 + a2 * x2 for a0, a1, a2 in normals_eta]
            j = max(range(3), key=vals.__getitem__)
            if vals[j] <= tol:
                break
            (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = refl[j]
            x0, x1, x2 = (
                r00 * x0 + r01 * x1 + r02 * x2,
                r10 * x0 + r11 * x1 + r12 * x2,
                r20 * x0 + r21 * x1 + r22 * x2,
            )
            word.append(j)
        on = sorted(j for j in sorted(range(3), key=lambda j: abs(vals[j]))[:2] if abs(vals[j]) <= tol)
        # the descent vector (c1 eta) m of the element m = R_w1 R_w2 ... the
        # folds spelled, and those of the candidate elements
        u = self._c1_eta
        for j in word:
            u = self._times(u, j)
        cands = [u]
        if len(on) == 1:
            cands.append(self._times(u, on[0]))
        elif len(on) == 2:
            # the dihedral group of the vertex where sides a and b meet
            a, b = on
            order = {(0, 1): self.params.p, (0, 2): self.params.q, (1, 2): self.params.r}[a, b]
            for first, second in ((a, b), (b, a)):
                g = u
                for t in range(order):
                    g = self._times(g, first if t % 2 == 0 else second)
                    cands.append(g)
        ids = [k for k in map(self._id_of_descents, cands) if k is not None]
        return min(ids) if ids else None

    def neighbors(self, tile_id):
        """Ids of the three side-sharing neighbors (None beyond the frontier).

        The neighbor of tile w across its side i is w s_i.
        """
        return tuple(self._id_of(self.mats[tile_id] @ r) for r in self.reflections)

    @cached_property
    def _children(self):
        # _children[k, i] is the id of the tree child mats[k] @ R[i], or -1;
        # ids stay below DEFAULT_TILE_CAP, so int32 holds them
        out = np.full((len(self), 3), -1, dtype=np.int32)
        out[self.parent[1:], self.gen[1:]] = np.arange(1, len(self))
        return out

    @cached_property
    def _letters(self):
        """Python floats for the per-letter loops of `locate` and `_id_of`,
        which numpy's per-call overhead would dominate: the outward normals
        of C, the same eta-scaled, and the side reflections, as nested
        tuples."""
        normals = tuple(tuple(row) for row in self.fund_normals.tolist())
        normals_eta = tuple(tuple(row) for row in (self.fund_normals * ETA_DIAG).tolist())
        refl = tuple(tuple(tuple(row) for row in r) for r in self.reflections.tolist())
        return normals, normals_eta, refl

    @cached_property
    def _c1_eta(self):
        return tuple((self.centroids[0] * ETA_DIAG).tolist())

    def _times(self, u, d):
        """The row vector u @ R[d], in Python floats."""
        u0, u1, u2 = u
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = self._letters[2][d]
        return (
            u0 * r00 + u1 * r10 + u2 * r20,
            u0 * r01 + u1 * r11 + u2 * r21,
            u0 * r02 + u1 * r12 + u2 * r22,
        )

    def _id_of(self, m):
        """Tile id of the group element m, or None outside the enumerated ball."""
        return self._id_of_descents(tuple(((self.centroids[0] * ETA_DIAG) @ m).tolist()))

    def _id_of_descents(self, u):
        """Tile id of the group element m with u = (c1 eta) m, or None.

        Peels the canonical word off m by repeated largest-right-descent
        tests, then walks the descent tree from the root along it.  The
        descent values of m are u n_j, and peeling the letter d maps u to
        u s_d, so the walk carries the 3-vector u, in Python floats.  The
        largest j with u n_j > 0 is the largest right descent (see
        `_largest_descent`).
        """
        normals = self._letters[0]
        word = []
        while True:
            u0, u1, u2 = u
            for d in (2, 1, 0):
                a0, a1, a2 = normals[d]
                if u0 * a0 + u1 * a1 + u2 * a2 > 0.0:
                    break
            else:
                break
            word.append(d)
            u = self._times(u, d)
        kids = self._children.data  # a memoryview: indexing it gives Python ints
        k = 0
        for i in reversed(word):
            k = kids[k, i]
            if k < 0:
                return None
        return k

    def _word(self, k):
        out = []
        while k:
            out.append(int(self.gen[k]))
            k = int(self.parent[k])
        return tuple(reversed(out))

    def disk_vertices(self):
        """(tiles, 3, 2): the disk chart of every tile's vertices, each
        vertex row normalised before it is charted."""
        return np.stack(disk_coords(normalize(self.fund_vertices @ self.mats.transpose(0, 2, 1))), axis=-1)

    def export_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tile_id", "word", "v1x", "v1y", "v2x", "v2y", "v3x", "v3y"])
            for k, dv in enumerate(self.disk_vertices()):
                row = [k, "".join(str(i) for i in self._word(k)) or "e"]
                row.extend(f"{u:.17g}" for u in dv.ravel())
                writer.writerow(row)


class _TileSequence(Sequence):
    """`tess.tiles`: a `Tile` for each id, built when it is asked for."""

    def __init__(self, tess):
        self._tess = tess

    def __len__(self):
        return len(self._tess)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = operator.index(k)
        n = len(self)
        if not -n <= k < n:
            raise IndexError(f"tile id {k} out of range for {n} tiles")
        k %= n
        t = self._tess
        m = t.mats[k]
        return Tile(k, t._word(k), m, t.fund_vertices @ m.T, t.fund_normals @ m.T, t.centroids[k])


def _largest_descent(vals):
    """Largest right descent per row of descent values (..., 3); -1 for none.

    vals[..., j] = <w n_j, c1> for the group element w, the outward side
    normals n_j and the centroid c1 of the fundamental triangle C.  j is
    a right descent of w, l(w s_j) < l(w), exactly when the wall w(H_j)
    separates C from w(C), that is when <w n_j, c1> > 0.  That product
    is sinh of the signed distance from c1 to the wall, and no wall of
    the tessellation enters C, so its modulus is at least sinh of the
    distance from c1 to the sides of C at any depth.  Rounding in w moves
    it by about |w| * 1e-16, orders of magnitude below that margin, so
    the sign test needs no tolerance.
    """
    desc = (vals > 0.0).view(np.int8)
    # max_j (j + 1) desc_j - 1, on the three columns
    return np.maximum(np.maximum(desc[..., 0], 2 * desc[..., 1]), 3 * desc[..., 2]) - 1


def generate(tp, radius, cap=DEFAULT_TILE_CAP):
    """Enumerate all tiles whose centroid lies within `radius` of the origin.

    Tile w is w(C) for w in the reflection group and C the fundamental
    triangle with centroid c1.  Each w other than the identity has one
    parent, w s_d with d its largest right descent, one letter shorter;
    so the largest-right-descent tree holds every group element exactly
    once, at depth l(w).  The tree is walked level by level: the children
    of w are the w s_i whose largest right descent is i (which makes i a
    non-descent of w), kept when rho(o, w s_i c1) <= radius (+1e-9).
    Both tests run on two 3-vectors of the frontier tile w.

    Completeness: the ball is closed under descent parents, so pruning
    the children outside it loses no tile.  If j is a right descent of
    w, the wall w(H_j) separates C from w(C).  The origin o is a vertex
    of C, so it lies on C's closed side of that wall.  Reflecting w c1
    across the wall gives w s_j c1, which is then no farther from o: the
    segment from o to w c1 meets the wall at some x, the reflection fixes
    x, and so rho(o, w c1) = rho(o, x) + rho(x, w s_j c1), which is at
    least rho(o, w s_j c1).  So every ancestor of a ball tile is a ball
    tile, and the walk reaches each ball tile through ball tiles only.
    No frontier padding and no duplicate check are needed.

    Tile 0 is the identity; the others follow in nondecreasing centroid
    distance, ties (distances within 1e-11) in enumeration order.  The
    walk keeps no matrix: a frontier tile w is carried as two Lorentz
    rows, u_w = (c1 eta) w for the descent tests and w[2] for the
    centroid heights, and each level keeps only its parent ids,
    generators and distances.  After the sort every matrix is formed once
    at its final id as mats[parent] @ R[gen], level by level, parents
    first.  So the peak holds the returned matrices, the ids and one
    chunk of `_ASSEMBLE_CHUNK` products, 0.22 copies of the matrices
    beyond what is returned on the decay ball.  The cap counts the
    returned ball and is checked after every level; the CapacityError
    carries the levels completed so far, a tessellation in which every
    parent is present.
    """
    if not radius >= 0:  # also rejects NaN, whose comparisons are all false
        raise ValueError(f"radius must be a number >= 0, got {radius}")
    t_start = time.perf_counter()
    fund_vertices, fund_normals = fundamental_triangle(tp)
    # The normals are rescaled to unit length once more before they are
    # reflected in: without that rounding step the (4,4,4) and (5,5,5)
    # group elements move by up to 3e-13 and the CSV export changes.
    refl = reflection(fund_normals / np.sqrt(lorentz_dot(fund_normals, fund_normals))[:, None])
    c1 = normalize(fund_vertices.sum(axis=0))

    # one entry per level: tiles, parent ids, generators, centroid distances
    sizes, parent, gen = [1], [np.array([-1])], [np.array([-1])]
    rho = [np.array([math.acosh(c1[2])])]

    def assemble():
        # Distances within 1e-11 count as equal and keep enumeration order,
        # so ids never hang on last-digit rounding: equal distances spread
        # by under 4e-15 here, distinct ones differ by 6e-8 or more ((3,4,4)
        # to radius 9.86, (2,3,7) to radius 6).
        r = np.concatenate(rho)[1:]
        rho.clear()
        by_rho = np.argsort(r)
        group = np.empty_like(by_rho)
        group[by_rho] = np.cumsum(np.diff(r[by_rho], prepend=-np.inf) > 1e-11)
        # (group, enumeration index) is a unique key, so the plain sort on
        # it is the stable sort on the group
        order = np.concatenate([[0], 1 + np.argsort(group * len(r) + np.arange(len(r)))])
        del r, by_rho, group
        new_id = np.empty_like(order)
        new_id[order] = np.arange(len(order))
        par = np.concatenate(parent)[order]
        parent.clear()
        par[1:] = new_id[par[1:]]
        g = np.concatenate(gen)[order]
        gen.clear()
        del order
        # Each matrix is its parent's times one reflection, one stacked
        # (n, 3, 3) @ (n, 3, 3) product per chunk: a grouped or broadcast
        # product may round differently on other BLAS kernels.  A level's
        # parents lie in the levels before it.
        out = np.empty((len(new_id), 3, 3))
        out[0] = np.eye(3)
        lo = 1
        for size in sizes[1:]:
            for a in range(lo, lo + size, _ASSEMBLE_CHUNK):
                ids = new_id[a:min(a + _ASSEMBLE_CHUNK, lo + size)]
                out[ids] = np.take(out, par[ids], axis=0) @ np.take(refl, g[ids], axis=0)
            lo += size
        return Tessellation(tp, radius, out, par, g, fund_vertices, fund_normals, refl)

    # Descent and radius tests on the two rows: the descent values of the
    # child w s_i are u_w (s_i N^T) and its centroid height is w[2] (s_i c1),
    # and the child's rows are u_w s_i and w[2] s_i, so a level needs three
    # (F, 3) @ (3, 9) products and an (F, 3) @ (3, 3) one.
    desc_of_child = np.concatenate([r @ fund_normals.T for r in refl], axis=1)
    height_of_child = (refl @ c1).T
    step = np.concatenate(refl, axis=1)  # row @ step = [row s_0, row s_1, row s_2]
    u, w2 = (c1 * ETA_DIAG)[None], np.array([[0.0, 0.0, 1.0]])
    first, n = 0, 1
    while True:
        desc_vals = (u @ desc_of_child).reshape(-1, 3, 3)
        kid_rho = np.arccosh(np.maximum(w2 @ height_of_child, 1.0))
        keep = (_largest_descent(desc_vals) == np.arange(3)) & (kid_rho <= radius + 1e-9)
        f, i = np.nonzero(keep)
        if len(f) == 0:
            break
        u = (u @ step).reshape(-1, 3, 3)[f, i]
        w2 = (w2 @ step).reshape(-1, 3, 3)[f, i]
        sizes.append(len(f))
        parent.append(first + f)
        gen.append(i)
        rho.append(kid_rho[f, i])
        first, n = n, n + len(f)
        if n > cap:
            raise CapacityError(f"tile cap {cap} exceeded at radius {radius}", partial=assemble())

    tess = assemble()
    logger.info(
        "generate (%d,%d,%d) radius %g: %d tiles, %d levels, %.3f s",
        tp.p, tp.q, tp.r, radius, len(tess), len(sizes) - 1, time.perf_counter() - t_start,
    )
    return tess


def orbital_count(tess, theta, x, y):
    """N(theta, x, y) = #{group elements g : rho(x, g(y)) < theta}.

    theta may be a number, which gives an int, or an array, which gives
    an int array of the counts at each of its values from one scan: the
    image coshes are sorted once and each threshold math.cosh(theta) is
    placed among them by binary search.

    Requires enough enumeration that the count is provably complete:
    rho(o, g(c1)) <= rho(o, x) + theta + rho(y, c1) for every counted g.
    """
    thetas = np.asarray(theta, dtype=float)
    xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    guard = tess.radius - math.acosh(max(xv[2], 1.0)) - dist(yv, tess.centroids[0])
    if thetas.size and not thetas.max() <= guard:
        raise IncompleteOrbitError(
            f"theta={thetas.max()} exceeds the completeness guard {guard:.3f} of this enumeration"
        )
    imgs = image_rows(tess.mats, yv)
    coshes = np.sort(-(imgs[:, 0] * xv[0] + imgs[:, 1] * xv[1] - imgs[:, 2] * xv[2]))
    # side="left" counts the coshes strictly below each threshold
    limits = np.array([math.cosh(t) for t in thetas.ravel()]).reshape(thetas.shape)
    counts = np.searchsorted(coshes, limits, side="left")
    return int(counts) if thetas.ndim == 0 else counts


def conical_sequence(tess, p_angle, a, n, c, min_step=0.0):
    """Tile ids gamma_i(T_a) marching toward the boundary point at angle
    p_angle inside the c-tube of the ray from the origin, with T_a the
    tile of the Lorentz row a.

    Returned depths rho(o, gamma_i(a)) are strictly increasing (by at
    least min_step); tiles are reported in increasing depth.  The images
    gamma(a) are scanned in blocks of `_CONICAL_BLOCK` tiles, so beyond
    the candidates in the tube the scan holds a few arrays of one block.
    """
    if n == 0:
        return []
    av = np.asarray(a, dtype=float)
    tile_a = tess.locate(av)
    if tile_a is None:
        raise EnumerationTooSmallError("anchor point lies outside the enumerated region")
    ray_normal = np.array([-math.sin(p_angle), math.cos(p_angle), 0.0])
    ray_dir = np.array([math.cos(p_angle), math.sin(p_angle), 0.0])

    limit = tess.radius - tess.tile_diameter
    found, found_depth = [], []
    for lo in range(0, len(tess), _CONICAL_BLOCK):
        pts = image_rows(tess.mats[lo:lo + _CONICAL_BLOCK], av)
        forward = pts @ (ray_dir * ETA_DIAG) > 0.0
        in_tube = (np.abs(np.arcsinh(pts @ (ray_normal * ETA_DIAG))) <= c) & forward
        depth = np.arccosh(np.maximum(pts[:, 2], 1.0))
        k = np.nonzero(in_tube & (depth <= limit))[0]
        found.append(lo + k)
        found_depth.append(depth[k])
    depth = np.concatenate(found_depth)
    # the blocks keep id order, so the stable sort is the whole-ball one
    order = np.argsort(depth, kind="stable")
    cand, depth = np.concatenate(found)[order], depth[order]
    # gamma_k(a) lies in the tile gamma_k g_a, with g_a the element of a's tile
    g_a = tess.mats[tile_a]
    ids = []
    deepest = -math.inf
    for k, d in zip(cand, depth.tolist()):
        if d <= deepest + max(min_step, 1e-12):
            continue
        tid = tess._id_of(tess.mats[k] @ g_a)
        if tid is None:
            continue
        ids.append(tid)
        deepest = d
        if len(ids) == n:
            return ids
    raise EnumerationTooSmallError(
        f"only {len(ids)} of {n} conical tiles found; enlarge the tessellation radius or the tube"
    )
