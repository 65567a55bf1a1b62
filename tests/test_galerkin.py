"""The Galerkin cell averages of a tile's Neumann Green's function."""

import numpy as np
import pytest

from hypfield import fieldmc as fm
from hypfield import galerkin, greens


@pytest.mark.parametrize("resolution", [1, 3, 8])
def test_loads_sum_to_the_cell_weights(tess344_small, resolution):
    # each element's rule integrates omega to its closed-form area, so the
    # loads of a cell add up to the cell's weight
    quad = fm.build_quadrature(tess344_small, [0], resolution)
    for cuts in (galerkin.CUTS_COARSE, galerkin.CUTS):
        _, wts, nodes = galerkin.cell_averages(quad.vertices, resolution, 2.0, cuts)
        n = resolution * cuts
        assert nodes == (n + 1) * (n + 2) // 2
        assert np.abs(wts / quad.weights - 1.0).max() <= 1e-13


@pytest.mark.parametrize("resolution", [2, 3])
def test_cell_averages_converge_at_second_order(tess344_small, resolution):
    quad = fm.build_quadrature(tess344_small, [0], resolution)
    c4, c8, c16 = (galerkin.cell_averages(quad.vertices, resolution, 2.0, cuts)[0] for cuts in (4, 8, 16))
    ratio = np.abs(c8 - c4).max() / np.abs(c16 - c8).max()
    assert 3.0 <= ratio <= 5.0


def _cell_rule(corners, cuts):
    """Lorentz rows and hyperbolic weights of the six-point rule on the
    Klein-straight triangles that cut a cell `cuts` times."""
    i, j, triples, inside = galerkin.barycentric_grid(cuts)
    rows = galerkin.grid_rows(corners, cuts, i, j)[triples[inside]]
    kv = rows[..., :2] / rows[..., 2:]
    xq = galerkin._RULE_BARY @ kv
    e1, e2 = kv[:, 1] - kv[:, 0], kv[:, 2] - kv[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    s = 1.0 - (xq * xq).sum(axis=2)
    weights = area[:, None] * galerkin._RULE_WEIGHTS * s**-1.5
    points = np.concatenate([xq, np.ones(xq.shape[:2] + (1,))], axis=2) / np.sqrt(s)[..., None]
    return points.reshape(-1, 3), weights.ravel()


def test_cell_averages_agree_with_image_sums_on_cells_apart(mp2, nt8, tess344_big):
    # the three corner cells of resolution 3 share no vertex, so G_N is
    # smooth on each pair and a cut rule averages the image sum; the
    # image sum misses the tail, at most the tail bound, and the Galerkin
    # block is within its estimate
    res = 3
    quad = fm.build_quadrature(tess344_big, [0], res)
    cov = fm.build_covariance(mp2, None, quad, "neumann")
    i, j, triples, inside = galerkin.barycentric_grid(res)
    cells = triples[inside]
    corners = [int(np.nonzero((cells == node).any(axis=1))[0][0]) for node in (0, res, len(i) - 1)]
    rows = galerkin.grid_rows(tess344_big.fund_vertices, res, i, j)[cells]
    tail = nt8.tail_bound(mp2)
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        ca, cb = corners[a], corners[b]
        assert not np.intersect1d(cells[ca], cells[cb]).size
        xa, wa = _cell_rule(rows[ca], 2)
        xb, wb = _cell_rule(rows[cb], 2)
        average = wa @ greens.g_neumann_block(mp2, nt8, xa, xb, 0) @ wb / (wa.sum() * wb.sum())
        gap = cov.matrix[ca, cb] - average
        assert -cov.estimate <= gap <= tail + cov.estimate
