"""Cell averages of a tile's Neumann Green's function by a P1 Galerkin solve.

The Neumann Green's function G_N of a tile is the Green's function of
-Laplacian + m^2 on the triangle with Neumann sides.  `cell_averages`
solves for its averages over the cells of `fieldmc.build_quadrature` by
finite elements on that one triangle, with numpy alone: no
tessellation, truncation radius or tail bound enters.  Lindgren, Rue &
Lindstrom (J. R. Stat. Soc. B 73, 2011) use the same Galerkin idea to
sample fields; here only the small matrix of cell averages is formed.

The mesh.  The cells' corners are `grid_rows`, the normalised
barycentric combinations of the triangle's vertex rows.  Nodes whose
barycentric coordinates lie on a line lie on one geodesic, so in the
Klein chart k = (x1, x2) / x3 every cell is a straight triangle, and so
is every element of the grid that cuts each cell `cuts` times; each
element lies in one cell.  In that chart the weak form is

    a(u, v) = int grad u^T A grad v + m^2 int u v omega,
    A = (I - k k^T) / sqrt(1 - |k|^2),  omega = (1 - |k|^2)^(-3/2),

and the Neumann condition on the sides is the natural one.

The identity.  K 1 = m^2 M 1, and the loads B of the cells sum to M 1,
so m^2 C w = 1 holds in every row on every mesh, up to rounding: the
discrete form of int_T G_N(x, .) = 1 / m^2.  The cell averages are a
Galerkin projection of a positive operator, so they are positive
definite on every mesh.
"""

import math

import numpy as np

from .geometry import normalize, triangle_area

# The meshes cut every cell's barycentric grid this many times; the coarse
# one is the Richardson partner of the fine one (the error is O(h^2)).
CUTS = 8
CUTS_COARSE = 4

# Strang & Fix's six-point rule of degree 4 on a triangle (Dunavant,
# Int. J. Numer. Meth. Eng. 21, 1985): barycentric points (a, a, 1 - 2a)
# and their permutations, weights summing to 1.
_A1 = (8.0 - math.sqrt(10.0) + math.sqrt(38.0 - 44.0 * math.sqrt(0.4))) / 18.0
_A2 = (8.0 - math.sqrt(10.0) - math.sqrt(38.0 - 44.0 * math.sqrt(0.4))) / 18.0
_W1 = (620.0 + math.sqrt(213125.0 - 53320.0 * math.sqrt(10.0))) / 3720.0
_W2 = (620.0 - math.sqrt(213125.0 - 53320.0 * math.sqrt(10.0))) / 3720.0
_RULE_BARY = np.array([
    [a, a, 1.0 - 2.0 * a][k:] + [a, a, 1.0 - 2.0 * a][:k] for a in (_A1, _A2) for k in range(3)
])
_RULE_WEIGHTS = np.repeat([_W1, _W2], 3)
_RULE_PAIRS = (_RULE_BARY[:, :, None] * _RULE_BARY[:, None, :]).reshape(6, 9)  # phi_a phi_b


def barycentric_grid(res):
    """The nodes (i, j), i + j <= res, of a triangle's barycentric grid in
    row order (i, then j), and each node's up and down triangle as node
    triples (nodes, 2, 3) with the (nodes, 2) mask of those inside: the
    up triangle of (i, j) is (i, j), (i + 1, j), (i, j + 1), its down
    triangle (i + 1, j), (i, j + 1), (i + 1, j + 1)."""
    i, j = np.nonzero(np.add.outer(np.arange(res + 1), np.arange(res + 1)) <= res)
    node_id = np.full((res + 2, res + 2), -1)
    node_id[i, j] = np.arange(len(i))
    corners = node_id[i[:, None] + [0, 1, 0, 1], j[:, None] + [0, 0, 1, 1]]
    triples = np.stack([corners[:, :3], corners[:, 1:]], axis=1)
    return i, j, triples, triples.min(axis=2) >= 0


def grid_rows(vertices, res, i, j):
    """normalize(bary @ vertices) at the barycentric nodes (i, j) / res:
    the rows of a triangle's grid, as `fieldmc.build_quadrature` places
    its cell corners."""
    return normalize(np.stack([res - i - j, i, j], axis=-1) / res @ vertices)


def cell_averages(vertices, res, m2, cuts):
    """Cell averages C = B^T K^-1 B / (w w^T) of the Neumann Green's function
    of -Laplacian + m2 on the triangle with vertex rows `vertices`, over
    the res^2 cells of its barycentric grid, on the P1 mesh that cuts each
    cell `cuts` times.  Returns C, the cell weights w = B^T 1 and the
    number of nodes.

    Each element's rule is scaled so that it integrates omega to the
    element's closed-form area (`geometry.triangle_area`), so a cell's
    weight in w is its closed-form area to rounding.  K is block
    tridiagonal over the node rows of the grid, its diagonal blocks
    tridiagonal and the others bidiagonal, and only those bands are
    assembled.  Its block LDL^T elimination, one `np.linalg.solve` per
    row, gives C = sum_r Y_r^T S_r^-1 Y_r with S_r the Schur complements
    and Y = L^-1 B (Golub & Van Loan, Matrix Computations, section 4.5).
    No matrix of all the nodes is formed: the memory is that of B and of
    one row's blocks.
    """
    n = res * cuts
    i, j, triples, inside = barycentric_grid(n)
    rows = grid_rows(vertices, n, i, j)
    elems = triples[inside]  # (elements, 3) node ids
    base, elem_down = np.nonzero(inside)

    # the cell of each element, from its barycentric centroid: (i + 1/3,
    # j + 1/3) for an up element, (i + 2/3, j + 2/3) for a down one
    ci3, cj3 = 3 * i[base] + 1 + elem_down, 3 * j[base] + 1 + elem_down
    ci, cj = ci3 // (3 * cuts), cj3 // (3 * cuts)
    cell_down = (ci3 - 3 * cuts * ci) + (cj3 - 3 * cuts * cj) > 3 * cuts
    ci_all, cj_all, _, cell_inside = barycentric_grid(res)
    cell_no = np.full((res + 1, res + 1, 2), -1)
    cell_no[ci_all, cj_all] = np.cumsum(cell_inside.ravel()).reshape(cell_inside.shape) - 1
    cell = cell_no[ci, cj, cell_down.astype(int)]
    cells = int(cell_inside.sum())

    klein = rows[:, :2] / rows[:, 2:]
    kv = klein[elems]  # (elements, 3, 2)
    e1, e2 = kv[:, 1] - kv[:, 0], kv[:, 2] - kv[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=-1) / det[:, None]
    g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=-1) / det[:, None]
    grads = np.stack([-(g1 + g2), g1, g2], axis=1)  # (elements, 3, 2)

    xq = _RULE_BARY @ kv  # (elements, points, 2)
    s = 1.0 - (xq * xq).sum(axis=2)
    omega = s**-1.5
    wq = 0.5 * np.abs(det)[:, None] * _RULE_WEIGHTS
    wq *= (triangle_area(rows[elems]) / (wq * omega).sum(axis=1))[:, None]
    # int A = sum_q v_q (I - x_q x_q^T), v = wq / sqrt(1 - |x|^2)
    v = wq / np.sqrt(s)
    a_bar = v.sum(axis=1)[:, None, None] * np.eye(2) - (xq * v[:, :, None]).transpose(0, 2, 1) @ xq
    mass = ((wq * omega) @ _RULE_PAIRS).reshape(-1, 3, 3)
    k_el = grads @ a_bar @ grads.transpose(0, 2, 1) + m2 * mass

    # Nodes run row by row, so row r is the node range [start, start + m),
    # m = n + 1 - r.  In its own row a node (r, j) meets (r, j - 1) and
    # (r, j + 1), and in the next row (r + 1, j) and (r + 1, j - 1): K is
    # held as the bands tri[node] = K to (r, j - 1), (r, j), (r, j + 1) and
    # nxt[node] = K to (r + 1, j), (r + 1, j - 1).
    nodes = len(i)
    ie, je = i[elems], j[elems]
    na = np.broadcast_to(elems[:, :, None], k_el.shape)
    dj = je[:, None, :] - je[:, :, None]
    same = np.broadcast_to(ie[:, :, None] == ie[:, None, :], k_el.shape)
    above = np.broadcast_to(ie[:, None, :] == ie[:, :, None] + 1, k_el.shape)
    tri = np.bincount((3 * na + 1 + dj)[same], k_el[same], minlength=3 * nodes).reshape(nodes, 3)
    nxt = np.bincount((2 * na - dj)[above], k_el[above], minlength=2 * nodes).reshape(nodes, 2)
    loads = np.zeros((nodes, cells))
    np.add.at(loads, (elems, cell[:, None]), mass.sum(axis=2))

    c = np.zeros((cells, cells))
    schur, y = _tridiagonal(tri[: n + 1]), loads[: n + 1]
    start = 0
    for m in range(n + 1, 0, -1):
        stop = start + m
        if m > 1:
            u = np.zeros((m, m - 1))
            k = np.arange(m - 1)
            u[k, k] = nxt[start : stop - 1, 0]
            u[k + 1, k] = nxt[start + 1 : stop, 1]
            sol = np.linalg.solve(schur, np.concatenate([u, y], axis=1))
            gu, gy = sol[:, : m - 1], sol[:, m - 1 :]
        else:
            gy = np.linalg.solve(schur, y)
        c += y.T @ gy
        if m > 1:
            schur = _tridiagonal(tri[stop : stop + m - 1]) - u.T @ gu
            y = loads[stop : stop + m - 1] - u.T @ gy
        start = stop
    wts = loads.sum(axis=0)
    return 0.5 * (c + c.T) / np.outer(wts, wts), wts, nodes


def _tridiagonal(band):
    """The (m, m) matrix with band[:, 1] on its diagonal, band[:-1, 2] above
    it and band[1:, 0] below it."""
    return np.diag(band[:, 1]) + np.diag(band[:-1, 2], 1) + np.diag(band[1:, 0], -1)
