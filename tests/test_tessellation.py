import gc
import importlib
import logging
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest

from hypfield import tessellation
from hypfield.errors import (
    CapacityError,
    ChartOverflowError,
    EnumerationTooSmallError,
    IncompleteOrbitError,
    NotHyperbolicError,
)
from hypfield.geometry import (
    ETA,
    disk_coords,
    dist,
    lorentz_dot,
    normalize,
    point_at,
    reflection,
    triangle_angles,
    triangle_area,
)
from hypfield.tessellation import (
    TriangleParams,
    ball_radius,
    conical_sequence,
    fundamental_triangle,
    generate,
    orbital_count,
)


def test_params_validation():
    with pytest.raises(NotHyperbolicError):
        TriangleParams(3, 3, 3)  # angle sum exactly pi: Euclidean
    with pytest.raises(NotHyperbolicError):
        TriangleParams(2, 3, 6)
    with pytest.raises(NotHyperbolicError):
        TriangleParams(1, 8, 8)
    TriangleParams(2, 3, 7)


def test_fundamental_angles_and_area():
    # Gauss-Bonnet: area = pi - angle sum
    verts, _ = fundamental_triangle(TriangleParams(3, 4, 4))
    want = (math.pi / 3, math.pi / 4, math.pi / 4)
    for got, expect in zip(triangle_angles(verts), want):
        assert got == pytest.approx(expect, abs=1e-10)
    assert triangle_area(verts) == pytest.approx(math.pi / 6, abs=1e-9)
    # the closed form, bit for bit; math.pi / 6 is 2 ulp below it
    assert triangle_area(verts) == 0.523598775598299
    assert generate(TriangleParams(3, 4, 4), 0.0).tile_area == 0.523598775598299
    assert triangle_area(fundamental_triangle(TriangleParams(2, 3, 7))[0]) == pytest.approx(
        math.pi / 42, abs=1e-9
    )


def test_equilateral_triangle():
    v = normalize(fundamental_triangle(TriangleParams(4, 4, 4))[0])
    sides = [dist(v[0], v[1]), dist(v[1], v[2]), dist(v[0], v[2])]
    assert max(sides) - min(sides) < 1e-12


def test_canonical_placement():
    verts, _ = fundamental_triangle(TriangleParams(3, 4, 4))
    assert np.abs(verts[0] - np.array([0.0, 0.0, 1.0])).max() < 1e-14
    assert abs(verts[1][1]) < 1e-14  # second vertex on the real axis


def test_radius_zero_single_tile():
    t = generate(TriangleParams(3, 4, 4), 0.0)
    assert len(t) == 1
    assert t.tiles[0].word == ()


def _brute_force_words(tp, max_len):
    """Oracle: all distinct group elements from words of length <= max_len."""
    verts, normals = fundamental_triangle(tp)
    refls = reflection(normals)
    c1 = normalize(verts.sum(axis=0))
    found = {}  # rounded centroid -> matrix
    frontier = [(np.eye(3), -1)]
    key = lambda m: tuple(np.round(m @ c1, 7))
    found[key(np.eye(3))] = np.eye(3)
    for _ in range(max_len):
        nxt = []
        for m, last in frontier:
            for i in range(3):
                if i == last:
                    continue
                child = m @ refls[i]
                k = key(child)
                if k not in found:
                    found[k] = child
                    nxt.append((child, i))
        frontier = nxt
    return found


@pytest.mark.parametrize(
    "pqr, radius, max_len",
    [((3, 4, 4), 1.5, 8), ((3, 4, 4), 3.0, 8), ((2, 3, 7), 2.0, 15), ((4, 4, 4), 3.0, 8)],
    ids=["344-r1.5", "344-r3", "237-r2", "444-r3"],
)
def test_generate_matches_word_oracle(pqr, radius, max_len):
    tp = TriangleParams(*pqr)
    tess = generate(tp, radius)
    # saturate the oracle: word length L and L+1 give the same ball
    prev = None
    for L in (max_len, max_len + 1):
        oracle = _brute_force_words(tp, L)
        ball = {
            k: m
            for k, m in oracle.items()
            if math.acosh(max((m @ tess.centroids[0])[2], 1.0)) <= radius + 1e-9
        }
        if prev is not None:
            assert set(ball) == prev, "oracle not saturated at this word length"
        prev = set(ball)
    assert len(tess) == len(prev)
    mine = {tuple(np.round(c, 7)) for c in tess.centroids}
    assert mine == prev


def test_descent_tree_invariants():
    tess = generate(TriangleParams(3, 4, 4), 8.0)
    assert len(tess) == 17_898
    assert tess.parent[0] == -1 and np.array_equal(tess.mats[0], np.eye(3))
    # after the identity, nondecreasing centroid distance up to rounding
    assert (np.diff(tess.centroid_rho[1:]) >= -1e-11).all()
    c1 = tess.centroids[0]
    refls = tess.reflections
    for k in range(1, len(tess)):
        # j is a right descent of w when the wall w(H_j) separates C from w(C)
        descents = [j for j, n in enumerate(tess.fund_normals) if lorentz_dot(tess.mats[k] @ n, c1) > 0]
        assert tess.gen[k] == max(descents)
    rebuilt = tess.mats[tess.parent[1:]] @ refls[tess.gen[1:]]
    scale = np.abs(tess.mats[1:]).max(axis=(1, 2))
    assert (np.abs(rebuilt - tess.mats[1:]).max(axis=(1, 2)) <= 1e-13 * scale).all()
    words = [t.word for t in tess.tiles]
    assert len(set(words)) == len(tess)
    # equal distances keep enumeration order, which is by word length
    depth = np.array([len(w) for w in words])
    tie = np.diff(tess.centroid_rho[1:]) < 1e-11
    assert (np.diff(depth[1:])[tie] >= 0).all()


def test_deep_matrices_match_exact_products(tess344_big):
    import mpmath

    tess = tess344_big
    depth = np.zeros(len(tess), dtype=int)
    anc = tess.parent.copy()
    while (anc >= 0).any():
        depth += anc >= 0
        anc = np.where(anc >= 0, tess.parent[anc], -1)
    for k in np.argsort(depth, kind="stable")[-20:]:
        word = tess.tiles[k].word
        assert len(word) == depth[k]
        with mpmath.workdps(50):
            m = mpmath.eye(3)
            for i in word:
                m = m * mpmath.matrix(tess.reflections[i].tolist())
            exact = np.array(m.tolist(), dtype=float)
        assert np.abs(tess.mats[k] - exact).max() <= 1e-13 * np.abs(exact).max()


def test_words_reproduce_tiles(tess344_small):
    tess = tess344_small
    refls = tess.reflections
    for t in tess.tiles[:: max(1, len(tess.tiles) // 40)]:
        m = np.eye(3)
        for i in t.word:
            m = m @ refls[i]
        verts = tess.fund_vertices @ m.T
        scale = max(1.0, np.abs(t.vertex_vecs).max())
        assert np.abs(verts - t.vertex_vecs).max() < 1e-10 * scale


def test_locate_centroids(tess344_small):
    tess = tess344_small
    for tid in range(0, len(tess), 7):
        assert tess.locate(tess.centroids[tid]) == tid


def test_locate_outside(tess344_small):
    assert tess344_small.locate(point_at(0.3, 8.0)) is None


def test_locate_unique_claim(tess344_small):
    # oracle: exhaustive sign test over all tiles
    tess = tess344_small
    rng = np.random.default_rng(17)
    inner = tess.radius - tess.tile_diameter
    eta = np.array([1.0, 1.0, -1.0])
    for _ in range(10_000):
        p = point_at(rng.uniform(0, 2 * math.pi), rng.uniform(0, inner))
        vals = tess.side_normals @ (p * eta)
        claims = int((vals <= 1e-12 * max(1.0, p[2])).all(axis=1).sum())
        assert claims == 1


def test_orbital_count_basics(tess344_small):
    tess = tess344_small
    c1 = tess.centroids[0]
    assert orbital_count(tess, 1e-6, c1, c1) == 1  # identity only
    counts = [orbital_count(tess, th, c1, c1) for th in (0.5, 1.0, 1.5, 2.0)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_orbital_count_guard(tess344_small):
    c1 = tess344_small.centroids[0]
    with pytest.raises(IncompleteOrbitError):
        orbital_count(tess344_small, 10.0, c1, c1)


def test_orbital_growth_bound(tess344_big):
    # sup of N(theta) e^{-theta} finite and stable as theta grows
    tess = tess344_big
    c1 = tess.centroids[0]
    vals = [orbital_count(tess, th, c1, c1) * math.exp(-th) for th in np.arange(1.0, 8.1, 0.5)]
    assert max(vals) < 20.0
    assert max(vals[:-2]) > 0.85 * max(vals)  # no blow-up at the deep end


def test_orbital_count_array_equals_scalar_calls(tess344_big):
    tess = tess344_big
    c1 = tess.centroids[0]
    x = normalize(0.7 * c1 + 0.3 * tess.fund_vertices[2])
    # the orbit-constant grid, plus thetas at image distances where numpy's
    # cosh and math.cosh, an ulp apart, disagree on whether the image counts
    coshes = -lorentz_dot(tess.mats @ c1, x)
    ulp_apart = [
        th
        for c in np.sort(coshes[(coshes > 1.5) & (coshes < 300.0)])
        for th in (np.nextafter(math.acosh(c), 0.0), math.acosh(c), np.nextafter(math.acosh(c), 9.0))
        if (c < math.cosh(th)) != (c < np.cosh(th))
    ]
    thetas = np.concatenate([np.linspace(1.0, 6.0, 24), ulp_apart[:40]])
    counts = orbital_count(tess, thetas, x, c1)
    assert counts.shape == thetas.shape
    # the definition: images with cosh rho(x, g c1) below math.cosh(theta)
    want = [int((coshes < math.cosh(th)).sum()) for th in thetas]
    assert [int(n) for n in counts] == want
    assert [orbital_count(tess, float(th), x, c1) for th in thetas] == want
    assert isinstance(orbital_count(tess, 2.0, x, c1), int)
    with pytest.raises(IncompleteOrbitError):
        orbital_count(tess, np.array([1.0, 10.0]), x, c1)


def test_conical_sequence_empty(tess344_small):
    assert conical_sequence(tess344_small, 0.3, tess344_small.centroids[0], 0, 1.0) == []


def test_conical_sequence_properties(tess344_big):
    tess = tess344_big
    a = tess.centroids[0]
    c = 0.8
    ids = conical_sequence(tess, math.pi / 4, a, 8, c, min_step=0.3)
    assert len(ids) == 8
    g_a = tess.mats[tess.locate(a)]
    theta = math.pi / 4
    normal = np.array([-math.sin(theta), math.cos(theta), 0.0])
    eta = np.array([1.0, 1.0, -1.0])
    depths = []
    diam_eucl = []
    for tid in ids:
        # the exact Lorentz inverse of g_a is eta g_a^T eta
        gamma = tess.mats[tid] @ ETA @ g_a.T @ ETA
        ga = normalize(gamma @ a)
        # inside the tube and marching outward
        assert abs(math.asinh(float(np.dot(ga * eta, normal)))) <= c + 1e-9
        depths.append(math.acosh(ga[2]))
        dv = [complex(x, y) for x, y in zip(*disk_coords(normalize(tess.tiles[tid].vertex_vecs)))]
        diam_eucl.append(max(abs(x - y) for x in dv for y in dv))
    assert all(b > a_ for a_, b in zip(depths, depths[1:]))
    # Euclidean diameters strictly decreasing beyond some index
    tail = diam_eucl[2:]
    assert all(b < a_ for a_, b in zip(tail, tail[1:]))


def test_conical_sequence_exhaustion(tess344_small):
    with pytest.raises(EnumerationTooSmallError):
        conical_sequence(tess344_small, 0.3, tess344_small.centroids[0], 50, 0.5)


def _conical_by_locate(tess, p_angle, a, n, c, min_step):
    """The conical walk that finds each candidate's tile by `locate`."""
    av = a
    ray_normal = np.array([-math.sin(p_angle), math.cos(p_angle), 0.0])
    ray_dir = np.array([math.cos(p_angle), math.sin(p_angle), 0.0])
    eta = np.array([1.0, 1.0, -1.0])
    pts = tess.mats @ av
    forward = pts @ (ray_dir * eta) > 0.0
    in_tube = (np.abs(np.arcsinh(pts @ (ray_normal * eta))) <= c) & forward
    depth = np.arccosh(np.maximum(pts[:, 2], 1.0))
    usable = in_tube & (depth <= tess.radius - tess.tile_diameter)
    ids, deepest = [], -math.inf
    for k in np.nonzero(usable)[0][np.argsort(depth[usable], kind="stable")]:
        if depth[k] <= deepest + max(min_step, 1e-12):
            continue
        tid = tess.locate(pts[k])
        if tid is None:
            continue
        ids.append(tid)
        deepest = depth[k]
        if len(ids) == n:
            break
    return ids


@pytest.mark.parametrize("cone_c", [0.6, 1.2])
@pytest.mark.parametrize("tile", [0, 3, 17])
def test_conical_sequence_matches_locate_walk(tess344_big, tile, cone_c):
    tess = tess344_big
    # an interior point of the tile, off its centroid
    a = tess.mats[tile] @ normalize(0.8 * tess.centroids[0] + 0.2 * tess.fund_vertices[1])
    assert tess.locate(a) == tile
    ids = conical_sequence(tess, math.pi / 4, a, 8, cone_c, min_step=0.35)
    assert len(ids) == 8
    assert ids == _conical_by_locate(tess, math.pi / 4, a, 8, cone_c, 0.35)


@pytest.mark.parametrize("block", [1000, None], ids=["blocks-of-1000", "one-block"])
def test_conical_scan_gives_the_same_ids_in_any_block_size(tess344_big, monkeypatch, block):
    # the image scan runs in blocks of _CONICAL_BLOCK tiles; one block of
    # the whole ball is the unblocked scan
    tess = tess344_big
    a = tess.mats[3] @ normalize(0.8 * tess.centroids[0] + 0.2 * tess.fund_vertices[1])
    cases = [(math.pi / 4, tess.centroids[0], 0.6), (math.pi / 4, a, 1.2), (1.0, tess.centroids[0], 0.8)]
    want = [conical_sequence(tess, p, x, 8, c, min_step=0.35) for p, x, c in cases]
    assert len(tess) > 8 * tessellation._CONICAL_BLOCK
    monkeypatch.setattr(tessellation, "_CONICAL_BLOCK", block or len(tess))
    assert [conical_sequence(tess, p, x, 8, c, min_step=0.35) for p, x, c in cases] == want


def test_one_product_images_equal_the_stacked_product(tess344_big):
    # orbital_count takes every image g(v) as one (3n, 3) @ (3,) product,
    # and conical_sequence one such product per block, not the stacked
    # mats @ v: the images, and so the counts and the ids, are the stacked
    # product's bit for bit
    tess = tess344_big
    c1, x = tess.centroids[0], point_at(0.4, 1.1)
    a = tess.mats[3] @ normalize(0.8 * c1 + 0.2 * tess.fund_vertices[1])
    block = tessellation._CONICAL_BLOCK
    for v in (c1, x, a, tess.fund_vertices[2]):
        assert np.array_equal((tess.mats.reshape(-1, 3) @ v).reshape(-1, 3), tess.mats @ v)
        for lo in range(0, len(tess), block):
            mats = tess.mats[lo:lo + block]
            assert np.array_equal((mats.reshape(-1, 3) @ v).reshape(-1, 3), mats @ v)
    imgs = tess.mats @ c1
    coshes = np.sort(-(imgs[:, 0] * x[0] + imgs[:, 1] * x[1] - imgs[:, 2] * x[2]))
    # thresholds at the image distances themselves, where one ulp flips a count
    thetas = np.arccosh(coshes[coshes < math.cosh(tess.radius - 1.2)][::97])
    want = np.searchsorted(coshes, [math.cosh(t) for t in thetas], side="left")
    assert np.array_equal(orbital_count(tess, thetas, x, c1), want)
    for cone_c in (0.6, 1.2):
        ids = conical_sequence(tess, math.pi / 4, c1, 8, cone_c, min_step=0.35)
        assert ids == _conical_by_locate(tess, math.pi / 4, c1, 8, cone_c, 0.35)


def test_tile_area_invariance(tess344_small):
    tess = tess344_small
    areas = [triangle_area(t.vertex_vecs) for t in tess.tiles[::11]]
    assert max(abs(a - math.pi / 6) for a in areas) < 1e-9


def test_tile_area_vs_ball_area(tess344_big):
    # total tile area consistent with the area of the enumerated region
    tess = tess344_big
    total = len(tess) * math.pi / 6
    ball = 2.0 * math.pi * (math.cosh(tess.radius) - 1.0)
    assert abs(total - ball) / ball < 0.01


def test_congruence(tess344_small):
    tess = tess344_small
    rng = np.random.default_rng(23)
    for _ in range(20):
        j, k = rng.integers(0, len(tess), size=2)
        g = tess.mats[k] @ ETA @ tess.mats[j].T @ ETA
        mapped = tess.tiles[j].vertex_vecs @ g.T
        scale = max(1.0, np.abs(tess.tiles[k].vertex_vecs).max())
        assert np.abs(mapped - tess.tiles[k].vertex_vecs).max() < 1e-9 * scale


def test_group_property_words(tess344_small):
    for m in tess344_small.mats[::9]:
        # the form defect relative to the entry scale, which grows like e^rho
        assert np.abs(m.T @ ETA @ m - ETA).max() / max(1.0, float(np.abs(m).max()) ** 2) < 1e-10


def test_adjacency(tess344_small):
    tess = tess344_small
    nb = tess.neighbors(0)
    assert len(nb) == 3
    for side, other in enumerate(nb):
        assert other is not None
        # the neighbor through side i is g R_i
        expect = tess.mats[0] @ tess.reflections[side] @ tess.centroids[0]
        assert np.abs(expect - tess.centroids[other]).max() < 1e-9


def test_neighbors_match_geometry(tess344_small):
    # every side of every tile: the neighbor w s_i is found exactly when
    # its centroid is inside the enumerated ball
    tess = tess344_small
    c1 = tess.centroids[0]
    for k in range(len(tess)):
        for side, other in enumerate(tess.neighbors(k)):
            expect = tess.mats[k] @ tess.reflections[side] @ c1
            if other is None:
                assert math.acosh(expect[2]) > tess.radius
            else:
                assert np.abs(expect - tess.centroids[other]).max() < 1e-9 * expect[2]


def test_capacity_error():
    with pytest.raises(CapacityError) as exc:
        generate(TriangleParams(3, 4, 4), 6.0, cap=100)
    assert exc.value.partial is not None
    assert len(exc.value.partial) >= 100


@pytest.mark.parametrize("radius", [float("nan"), -1.0])
def test_generate_rejects_bad_radius(radius):
    with pytest.raises(ValueError):
        generate(TriangleParams(3, 4, 4), radius)


def test_infinite_radius_hits_cap():
    with pytest.raises(CapacityError) as exc:
        generate(TriangleParams(3, 4, 4), math.inf, cap=50)
    part = exc.value.partial
    assert len(part) > 50
    assert part.parent[0] == -1
    assert ((part.parent[1:] >= 0) & (part.parent[1:] < len(part))).all()
    assert np.allclose(part.mats[part.parent[1:]] @ part.reflections[part.gen[1:]], part.mats[1:])


def test_generate_logs_summary(caplog):
    with caplog.at_level(logging.INFO, logger="hypfield.tessellation"):
        tess = generate(TriangleParams(3, 4, 4), 3.0)
    [record] = caplog.records
    assert f"{len(tess)} tiles" in record.getMessage()
    assert f"{max(len(t.word) for t in tess.tiles)} levels" in record.getMessage()


def test_export_csv(tmp_path, tess344_small):
    path = tmp_path / "t.csv"
    tess344_small.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tile_id,word,v1x,v1y,v2x,v2y,v3x,v3y"
    assert len(lines) == len(tess344_small) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "e"


def test_tessellation_freed_by_reference_counting():
    # no reference cycle: dropping the last reference frees the arrays at
    # once, without waiting for a full garbage collection
    gc.disable()
    try:
        tess = generate(TriangleParams(3, 4, 4), 2.0)
        assert tess.tiles[1].id == 1
        ref = weakref.ref(tess)
        del tess
        assert ref() is None
    finally:
        gc.enable()


# --- generate against the previous full-children level loop ----------------

def _previous_generate(tp, radius):
    """(mats, parent, gen) from the former level loop: it formed all three
    child matrices of every frontier tile and tested their descents as
    (F, 3, 3, 3) stacks."""
    verts, normals = fundamental_triangle(tp)
    refl = generate(tp, 0.0).reflections
    csum = verts.sum(axis=0)
    c1 = csum / math.sqrt(-lorentz_dot(csum, csum))

    def largest_descent(m):
        desc = ((c1 * np.array([1.0, 1.0, -1.0])) @ m @ normals.T) > 0.0
        last = desc.shape[-1] - 1 - np.argmax(desc[..., ::-1], axis=-1)
        return np.where(desc.any(axis=-1), last, -1)

    mats, parent, gen = [np.eye(3)[None]], [np.array([-1])], [np.array([-1])]
    rho = [np.array([math.acosh(c1[2])])]
    frontier, first, n = mats[0], 0, 1
    while True:
        kids = frontier[:, None] @ refl
        kid_rho = np.arccosh(np.maximum(kids[..., 2, :] @ c1, 1.0))
        keep = (largest_descent(kids) == np.arange(3)) & (kid_rho <= radius + 1e-9)
        f, i = np.nonzero(keep)
        if len(f) == 0:
            break
        frontier = kids[f, i]
        mats.append(frontier)
        parent.append(first + f)
        gen.append(i)
        rho.append(kid_rho[f, i])
        first, n = n, n + len(f)
    r = np.concatenate(rho)[1:]
    by_rho = np.argsort(r)
    group = np.empty_like(by_rho)
    group[by_rho] = np.cumsum(np.diff(r[by_rho], prepend=-np.inf) > 1e-11)
    order = np.concatenate([[0], 1 + np.argsort(group, kind="stable")])
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    par = np.concatenate(parent)[order]
    par[1:] = new_id[par[1:]]
    return np.concatenate(mats)[order], par, np.concatenate(gen)[order]


def _decay_radius():
    return ball_radius(TriangleParams(3, 4, 4), 8.0)


@pytest.mark.parametrize(
    "pqr, radius, tiles",
    [((3, 4, 4), None, 114_990), ((2, 3, 7), 6.0, None), ((4, 4, 4), 8.0, None), ((3, 3, 4), 8.0, None)],
    ids=["344-decay", "237-r6", "444-r8", "334-r8"],
)
def test_generate_equals_previous_level_loop(pqr, radius, tiles):
    tp = TriangleParams(*pqr)
    radius = _decay_radius() if radius is None else radius
    tess = generate(tp, radius)
    mats, parent, gen = _previous_generate(tp, radius)
    if tiles is not None:
        assert len(tess) == tiles
    assert np.array_equal(tess.mats, mats)
    assert np.array_equal(tess.parent, parent)
    assert np.array_equal(tess.gen, gen)


def test_generate_holds_the_matrices_once_more_at_most():
    # the walk keeps no matrix and each one is formed once at its final id:
    # beyond what it returns, generate's peak holds the ids and one chunk of
    # products, 0.22 copies of the matrices
    radius = _decay_radius()
    tracemalloc.start()
    try:
        tess = generate(TriangleParams(3, 4, 4), radius)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 0.35 * tess.mats.nbytes


def test_side_normals_are_built_on_first_use():
    tess = generate(TriangleParams(3, 4, 4), 2.0)
    assert "side_normals" not in vars(tess)
    tess.locate(tess.centroids[5])
    assert "side_normals" not in vars(tess)
    want = np.stack([t.side_normals for t in tess.tiles])
    assert np.abs(tess.side_normals - want).max() <= 1e-12 * np.abs(want).max()


# --- locate by folding --------------------------------------------------------

def _scan_locate(tess, x, slack=1e-12):
    """The former locate: the smallest id whose three outward side tests
    pass, with a slack that scales with x3."""
    vals = (tess.side_normals.reshape(-1, 3) @ (x * np.array([1.0, 1.0, -1.0]))).reshape(-1, 3)
    inside = (vals <= slack * max(1.0, abs(x[2]))).all(axis=1)
    return int(np.argmax(inside)) if inside.any() else None


def _unit(v):
    return v / math.sqrt(-lorentz_dot(v, v))


def test_locate_matches_scan_on_interior_points(tess344_small, tess344_big):
    rng = np.random.default_rng(23)
    inner = tess344_small.radius - tess344_small.tile_diameter
    for _ in range(500):
        p = point_at(rng.uniform(0, 2 * math.pi), rng.uniform(0, inner))
        assert tess344_small.locate(p) == _scan_locate(tess344_small, p)
    tess = tess344_big
    for k in rng.choice(len(tess), 300, replace=False):
        assert tess.locate(tess.centroids[k]) == k == _scan_locate(tess, tess.centroids[k])
        # barycentric weights >= 0.05: well inside tile k
        bary = 0.05 + 0.85 * rng.dirichlet([1.0, 1.0, 1.0])
        x = _unit(tess.mats[k] @ (bary @ tess.fund_vertices))
        assert tess.locate(x) == k == _scan_locate(tess, x)


def test_id_of_every_tile_of_the_radius_8_ball(tess344_big):
    # the tree walk on Python floats gives each group element its own id
    tess = tess344_big
    ball = np.flatnonzero(tess.centroid_rho <= 8.0)
    assert len(ball) == 17_898 and (ball == np.arange(len(ball))).all()
    assert [tess._id_of(tess.mats[k]) for k in ball] == ball.tolist()


def _star(tess, tile_id, sides):
    """The tiles reached from tile_id by crossing the given sides, through
    `neighbors`: the two tiles of a side, the 2m tiles around a vertex."""
    seen, front = {tile_id}, [tile_id]
    while front:
        nxt = []
        for t in front:
            nb = tess.neighbors(t)
            for s in sides:
                if nb[s] is not None and nb[s] not in seen:
                    seen.add(nb[s])
                    nxt.append(nb[s])
        front = nxt
    return seen


def test_locate_boundary_points_take_the_smallest_id_of_their_star(tess344_big):
    tess = tess344_big
    fv = tess.fund_vertices
    # vertex i lies on the sides vertex_sides[i]; side j joins side_ends[j]
    vertex_sides = ((0, 1), (0, 2), (1, 2))
    side_ends = ((0, 1), (0, 2), (1, 2))
    rng = np.random.default_rng(29)
    deep = np.argsort(tess.centroid_rho)[-2000:]
    picks = np.concatenate([rng.choice(deep, 40, replace=False), rng.choice(len(tess), 40, replace=False)])
    for k in picks:
        cases = [(tess.mats[k] @ fv[i], vertex_sides[i]) for i in range(3)]
        cases += [(tess.mats[k] @ _unit(fv[a] + fv[b]), (j,)) for j, (a, b) in enumerate(side_ends)]
        for x, sides in cases:
            star = _star(tess, int(k), sides)
            got = tess.locate(x)
            assert got == min(star), (k, sides)
            # the returned tile's closure holds the point, to the rounding
            # of the Lorentz products at this height
            vals = tess.tiles[got].side_normals @ (x * np.array([1.0, 1.0, -1.0]))
            assert (vals <= 1e-13 * x[2] ** 2).all()
            assert (np.abs(vals) <= 1e-13 * x[2] ** 2).sum() == len(sides)


# --- rows that are not points of H^2 ------------------------------------------

# Folding any of these rows never ends: each reflection moves it without
# bringing it into the fundamental triangle.
_NOT_POINTS = (
    ("[0.1, 0.2, -1.0247]", "x3 <= 0"),
    ("[2.0, 0.0, 1.0]", "not timelike"),
    ("[math.nan, 0.0, 1.0]", "not finite"),
)


@pytest.mark.parametrize(
    "call", ["tess.locate(row)", "conical_sequence(tess, 0.3, row, 8, 0.6)"], ids=["locate", "conical"]
)
@pytest.mark.parametrize("row, reason", _NOT_POINTS, ids=["lower-sheet", "spacelike", "nan"])
def test_locate_rejects_rows_off_the_hyperboloid(call, row, reason):
    # in a child process with a timeout, so that a missing check fails the
    # test instead of hanging the suite
    code = textwrap.dedent(f"""
        import math
        import numpy as np
        from hypfield.errors import ChartOverflowError
        from hypfield.tessellation import TriangleParams, conical_sequence, generate
        tess = generate(TriangleParams(3, 4, 4), 3.0)
        row = np.array({row})
        try:
            {call}
        except ChartOverflowError as exc:
            print(exc)
        else:
            print("no error")
    """)
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout
    assert "cannot locate" in out and reason in out, out


def test_locate_rejects_a_stack_of_rows(tess344_small):
    with pytest.raises(ValueError, match="one Lorentz row"):
        tess344_small.locate(tess344_small.centroids[:2])
    with pytest.raises(ChartOverflowError):
        tess344_small.locate(np.array([0.0, 0.0, 0.0]))


# --- what the benchmark harness reads of the package -------------------------

def test_benchmark_contract(tess344_big):
    # perfbench/ is read, never changed: its tracer wraps every TARGETS
    # attribute, and its workloads import Sector and anchor the conical
    # sequence at tess.tiles[0].centroid
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.pop(0)
    for _, module, attrs in spans.TARGETS:
        for dotted in attrs:
            owner = importlib.import_module(module)
            for part in dotted.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (module, dotted)
    from hypfield.geometry import Sector

    assert Sector(0.5, 0.1, 0.2).r0 == 0.5
    tess = tess344_big
    for c in (0.6, 1.2):
        by_tile = conical_sequence(tess, math.pi / 4, tess.tiles[0].centroid, 8, c, min_step=0.35)
        assert by_tile == conical_sequence(tess, math.pi / 4, tess.centroids[0], 8, c, min_step=0.35)
