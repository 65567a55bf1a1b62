import bisect
import logging
import math

import mpmath
import numpy as np
import pytest

from hypfield import boundary as bd
from hypfield.boundary import (
    BoundarySource,
    h_plus,
    h_plus_at_points,
    h_plus_forms,
    k_constant_log,
    k_table,
    sector_lower_bound_audit,
)
from hypfield.errors import ConfigurationError, PrecisionLossError
from hypfield.geometry import Sector, halfplane_coords
from hypfield.greens import ModelParams
from hypfield.tessellation import conical_sequence

B0, B1 = math.pi / 6, math.pi / 3


def test_bump_support_and_flatness():
    h = BoundarySource.bump(B0, B1, amplitude=2.0)
    assert h(np.array([B0 - 0.01]))[0] == 0.0
    assert h(np.array([B1 + 0.01]))[0] == 0.0
    # positive wherever the double-exponential tail is representable
    inside = np.linspace(B0 + 0.04, B1 - 0.04, 50)
    assert (h(inside) > 0.0).all()
    # infinitely flat endpoints: below 1e-300 within 1e-6 of the ends
    assert h(np.array([B0 + 1e-6]))[0] < 1e-300
    assert h(np.array([B1 - 1e-6]))[0] < 1e-300
    # amplitude is the peak value
    assert h(np.array([(B0 + B1) / 2.0]))[0] == pytest.approx(2.0)


def test_bump_wraps_angles():
    h = BoundarySource.bump(B0, B1)
    mid = (B0 + B1) / 2.0
    assert h(np.array([mid + 2.0 * math.pi]))[0] == pytest.approx(h(np.array([mid]))[0])


def test_bump_validation():
    with pytest.raises(ConfigurationError):
        BoundarySource.bump(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        BoundarySource("gaussian")


def test_tabulated_constant():
    h = BoundarySource.constant(3.5)
    grid = np.linspace(-math.pi, math.pi, 17)
    assert np.abs(h(grid) - 3.5).max() < 1e-12


def test_h_plus_zero_source(mp2):
    h = BoundarySource.bump(B0, B1, amplitude=0.0)
    assert h_plus(mp2, h, 0.5, 0.3) == 0.0


def test_h_plus_uniform_closed_form(mp2):
    # H_+ 1 = sqrt(pi) Gamma(D - 1/2)/Gamma(D) * z^(1-D); D = 2 gives (pi/2)/z
    h = BoundarySource.constant(1.0)
    for z, zeta in ((0.37, 1.3), (1.0, 0.0), (0.05, -2.0)):
        expect = math.sqrt(math.pi) * math.gamma(1.5) / math.gamma(2.0) * z ** (-1.0)
        assert h_plus(mp2, h, z, zeta) == pytest.approx(expect, rel=1e-6)


def test_h_plus_uniform_massless_limit():
    # at Delta_+ = 1 the closed form is pi * z^0 = pi
    mp1 = ModelParams(1e-12)
    h = BoundarySource.constant(1.0)
    assert h_plus(mp1, h, 0.43, 0.8) == pytest.approx(math.pi, rel=1e-6)


def test_h_plus_two_forms_agree(mp2):
    # the direct route and h_plus, for a bump and a tabulated source, at
    # m2 = 2 and at a light, a heavier and a heavy mass
    angles = np.linspace(-math.pi, math.pi, 33)
    values = np.random.default_rng(2).uniform(0.1, 1.0, 33)
    values[-1] = values[0]
    sources = (BoundarySource.bump(B0, B1), BoundarySource.tabulated(angles, values))
    for mp in (mp2, ModelParams(0.5), ModelParams(6.0), ModelParams(30.0)):
        for h in sources:
            worst = 0.0
            for z in np.geomspace(0.02, 1.0, 5):
                for zeta in np.linspace(0.0, 1.0, 4):
                    direct, subst = h_plus_forms(mp, h, float(z), float(zeta))
                    worst = max(worst, abs(direct - subst) / max(abs(direct), 1e-300))
            assert worst < 1e-12, (mp.m2, h.kind)
    # zeta on an end of the bump's support and z <= 1e-6: the mass sits at
    # phi ~ z / |eta - zeta|, next to the far end of the start interval
    for z in (1e-6, 1e-7, 1e-8):
        for beta in (B0, B1):
            direct, subst = h_plus_forms(mp2, sources[0], z, math.tan(beta / 2))
            assert abs(subst / direct - 1.0) <= 1e-12, (z, beta)


def test_h_plus_linearity(mp2):
    angles = np.linspace(-math.pi, math.pi, 33)
    rng = np.random.default_rng(2)
    v1, v2 = rng.uniform(0.1, 1.0, size=(2, 33))
    v1[-1], v2[-1] = v1[0], v2[0]
    h1 = BoundarySource.tabulated(angles, v1)
    h2 = BoundarySource.tabulated(angles, v2)
    combo = BoundarySource.tabulated(angles, 2.0 * v1 + 3.0 * v2)
    z, zeta = 0.4, 0.7
    lhs = h_plus(mp2, combo, z, zeta)
    rhs = 2.0 * h_plus(mp2, h1, z, zeta) + 3.0 * h_plus(mp2, h2, z, zeta)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_h_plus_positivity(mp2):
    h = BoundarySource.bump(B0, B1)
    rng = np.random.default_rng(4)
    for _ in range(40):
        z, zeta = rng.uniform(0.05, 2.0), rng.uniform(-3.0, 3.0)
        assert h_plus(mp2, h, z, zeta) >= 0.0


def test_sector_audit_empty(mp2):
    h = BoundarySource.bump(B0, B1)
    rep = sector_lower_bound_audit(mp2, h, Sector(0.5, B0 + 0.1, B1 - 0.1), 0)
    assert rep["n_samples"] == 0 and not rep["passed"]


def test_sector_audit_positive_and_stable(mp2):
    h = BoundarySource.bump(B0, B1)
    span = B1 - B0
    sector = Sector(0.5, B0 + span / 3.0, B1 - span / 3.0)
    rep = sector_lower_bound_audit(mp2, h, sector, 2000, seed=5)
    assert not rep["inconclusive"]
    assert rep["min_product"] > 0.0
    assert abs(rep["min_product"] - rep["min_first_half"]) <= 0.10 * rep["min_first_half"]


def test_sector_audit_uniform_is_constant(mp2):
    # for h = 1 the product equals the Beta constant at every point
    h = BoundarySource.constant(1.0)
    sector = Sector(0.4, 0.2, 1.1)
    rep = sector_lower_bound_audit(mp2, h, sector, 200, seed=6)
    const = math.sqrt(math.pi) * math.gamma(1.5) / math.gamma(2.0)
    assert rep["min_product"] == pytest.approx(const, rel=1e-6)
    assert rep["inconclusive"]  # constant source has no bump segment flag


def test_sector_audit_outside_support_flag(mp2):
    h = BoundarySource.bump(B0, B1)
    rep = sector_lower_bound_audit(mp2, h, Sector(0.5, B0 - 0.2, B1), 50, seed=7)
    assert rep["inconclusive"]


def _k(mp, h, alpha, tess, tile_id, grid=4):
    """k_j = exp(alpha * min_{x in T_j} H_plus h(x))  (max for alpha < 0)."""
    return math.exp(k_constant_log(mp, h, alpha, tess, tile_id, grid)[0])


def test_k_zero_source(mp2, tess344_small):
    h = BoundarySource.bump(B0, B1, amplitude=0.0)
    assert _k(mp2, h, 1.0, tess344_small, 0) == 1.0


def test_k_grid_refinement_stable(mp2, tess344_small):
    h = BoundarySource.bump(B0, B1)
    k4 = _k(mp2, h, 1.0, tess344_small, 0, grid=4)
    k8 = _k(mp2, h, 1.0, tess344_small, 0, grid=8)
    assert abs(k8 - k4) <= 0.01 * k4


def test_k_sign_of_alpha(mp2, tess344_small):
    h = BoundarySource.bump(B0, B1)
    _, m_min = k_constant_log(mp2, h, 1.0, tess344_small, 0)
    _, m_max = k_constant_log(mp2, h, -1.0, tess344_small, 0)
    assert m_min <= m_max  # min of H for alpha > 0, max for alpha < 0
    assert _k(mp2, h, -1.0, tess344_small, 0) < 1.0 < _k(mp2, h, 1.0, tess344_small, 0)


def test_k_increases_along_conical_sequence(mp2, tess344_big):
    h = BoundarySource.bump(B0, B1)
    a = tess344_big.centroids[0]
    ids = conical_sequence(tess344_big, math.pi / 4, a, 7, 0.6, min_step=0.35)
    ks = [k_constant_log(mp2, h, 1.0, tess344_big, t)[0] for t in ids]
    assert all(b > a_ for a_, b in zip(ks[-5:], ks[-4:]))


def test_k_table_rows(mp2, tess344_small):
    h = BoundarySource.bump(B0, B1)
    rows = k_table(mp2, h, 1.0, tess344_small, [0, 1], grid=3)
    assert [r["tile_id"] for r in rows] == [0, 1]
    for r in rows:
        assert r["k_j"] > 0.0 and r["z_centroid"] > 0.0


def test_h_plus_at_points_matches_scalar(mp2, tess344_small):
    h = BoundarySource.bump(B0, B1)
    pts = tess344_small.centroids[:3]
    vec = h_plus_at_points(mp2, h, pts)
    for p, v in zip(pts, vec):
        z, zeta = halfplane_coords(p)
        assert v == pytest.approx(h_plus(mp2, h, z, zeta), rel=1e-12)


# --- the batched adaptive evaluator against a 30-digit reference ---------

TAB_ANGLES = np.linspace(-math.pi, math.pi, 17)[:-1]
SOURCES = {
    # (source, support ends in eta or None, theta breakpoints in beta)
    "bump": (BoundarySource.bump(B0, B1), (math.tan(B0 / 2), math.tan(B1 / 2)), ()),
    "wrapping": (BoundarySource.bump(2.5, 4.0), (math.tan(1.25), math.tan(2.0)), ()),
    "tabulated": (
        BoundarySource.tabulated(TAB_ANGLES, 1.0 + 0.5 * np.sin(TAB_ANGLES) + 0.2 * np.cos(3 * TAB_ANGLES)),
        None,
        TAB_ANGLES,
    ),
}


def _zetas(ends):
    """zeta inside the support, 1e-2 inside each end, and outside it."""
    if ends is None:  # a tabulated source is supported everywhere
        return (-1.0, 0.4, 2.0)
    e0, e1 = ends
    if e0 < e1:
        return ((e0 + e1) / 2, e0 + 1e-2, e1 - 1e-2, 1.5)
    return (5.0, e0 + 1e-2, e1 - 1e-2, 0.0)  # support (e0, inf) and (-inf, e1)


def _mp_source(h):
    """h as a function of mpmath beta: the bump formula, or the spline's
    cubic pieces from its knots and coefficients."""
    two_pi = 2 * mpmath.pi
    if h.kind == "bump":
        span = mpmath.mpf(h.beta1) - mpmath.mpf(h.beta0)
        log_peak = h.smoothness / (span / 2) ** 2

        def value(beta):
            t = (beta - h.beta0) % two_pi
            if not 0 < t < span:
                return mpmath.mpf(0)
            return h.amplitude * mpmath.exp(-h.smoothness / (t * (span - t)) + log_peak)

        return value
    knots, coef = h._spline.x.tolist(), h._spline.c.T.tolist()

    def value(beta):
        t = (beta - knots[0]) % two_pi + knots[0]
        i = min(bisect.bisect_right(knots, t) - 1, len(knots) - 2)
        c3, c2, c1, c0 = coef[i]
        dt = t - knots[i]
        return ((c3 * dt + c2) * dt + c1) * dt + c0

    return value


def _mp_h_plus(mp, h, z, zeta, breaks):
    """30-digit tanh-sinh quadrature of the theta form, split at the theta
    images of the support ends and of the tabulation knots."""
    with mpmath.workdps(30):
        dp = mpmath.mpf(mp.delta_plus)
        z_mp, zeta_mp = mpmath.mpf(z), mpmath.mpf(zeta)
        source = _mp_source(h)

        def integrand(theta):
            beta = 2 * mpmath.atan(zeta_mp + z_mp * mpmath.tan(theta))
            return mpmath.cos(theta) ** (2 * dp - 2) * source(beta)

        def theta_of(beta):
            return mpmath.atan((mpmath.tan(mpmath.mpf(beta) / 2) - zeta_mp) / z_mp)

        half = mpmath.pi / 2
        if h.kind == "bump":
            b0 = (h.beta0 + math.pi) % (2 * math.pi) - math.pi
            b1 = b0 + h.beta1 - h.beta0
            lo, hi = theta_of(b0), theta_of(b1)
            pieces = [(lo, hi)] if b1 <= math.pi else [(-half, hi), (lo, half)]
        else:
            pieces = [(-half, half)]
        total = mpmath.mpf(0)
        for a, b in pieces:
            cuts = sorted({a, b} | {t for t in map(theta_of, breaks) if a < t < b})
            total += mpmath.quad(integrand, cuts)
        return float(z_mp ** (1 - dp) * total)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_h_plus_matches_mpmath(mp2, name):
    h, ends, breaks = SOURCES[name]
    worst = 0.0
    for z in (1e-3, 2.4e-3, 0.1, 2.0):
        for zeta in _zetas(ends):
            ref = _mp_h_plus(mp2, h, z, zeta, breaks)
            worst = max(worst, abs(h_plus(mp2, h, z, zeta) - ref) / abs(ref))
    assert worst <= 1e-10


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_h_plus_forms_direct_route_matches_mpmath(mp2, name):
    # the audit's own route, beta by tanh-sinh, against the 30-digit theta form
    h, ends, breaks = SOURCES[name]
    worst = 0.0
    for z in (1e-3, 0.1, 2.0):
        for zeta in _zetas(ends):
            ref = _mp_h_plus(mp2, h, z, zeta, breaks)
            worst = max(worst, abs(h_plus_forms(mp2, h, z, zeta)[0] - ref) / abs(ref))
    assert worst <= 1e-14


def test_h_plus_forms_level_cap_raises(mp2, monkeypatch):
    monkeypatch.setattr(bd, "_TS_LEVELS", 2)
    h = BoundarySource.bump(B0, B1)
    with pytest.raises(PrecisionLossError, match=r"2 levels at z=0\.0024, zeta=0\.569, m2=2\.0"):
        h_plus_forms(mp2, h, 2.4e-3, 0.569)


def test_h_plus_array_equals_scalar_calls(mp2):
    h = BoundarySource.bump(B0, B1)
    z = np.array([[1e-3, 2.4e-3, 0.1], [0.5, 2.0, 4.0]])
    zeta = np.array([[0.3, 0.569, -1.0], [0.4, 2.5, 0.0]])
    vec = h_plus(mp2, h, z, zeta)
    assert vec.shape == z.shape
    scalar = np.array([[h_plus(mp2, h, a, b) for a, b in zip(ra, rb)] for ra, rb in zip(z, zeta)])
    assert isinstance(scalar[0, 0], float)
    assert np.abs(vec - scalar).max() <= 1e-14 * np.abs(scalar).max()
    assert np.all(np.abs(vec - scalar) <= 1e-14 * np.abs(scalar))


def test_h_plus_repeated_calls_bit_identical(mp2):
    h = BoundarySource.bump(2.5, 4.0)
    rng = np.random.default_rng(11)
    z, zeta = np.exp(rng.uniform(-7.0, 1.5, 200)), rng.uniform(-3.0, 4.0, 200)
    first = h_plus(mp2, h, z, zeta)
    assert np.array_equal(first, h_plus(mp2, h, z, zeta))
    assert np.array_equal(first[::-1], h_plus(mp2, h, z[::-1], zeta[::-1]))


def test_h_plus_round_cap_raises(mp2, monkeypatch):
    # zeta sits 8e-3 inside the support end eta_1 = 0.577 at small z
    monkeypatch.setattr(bd, "_MAX_ROUNDS", 1)
    h = BoundarySource.bump(B0, B1)
    with pytest.raises(PrecisionLossError, match=r"z=0\.0024, zeta=0\.569, m2=2\.0"):
        h_plus(mp2, h, 2.4e-3, 0.569)


def test_h_plus_panel_cap_raises(mp2, monkeypatch):
    # the hard point keeps two panels open for 9 rounds
    monkeypatch.setattr(bd, "_MAX_PANELS", 1)
    h = BoundarySource.bump(B0, B1)
    with pytest.raises(PrecisionLossError, match=r"z=0\.0024, zeta=0\.569, m2=2\.0"):
        h_plus(mp2, h, 2.4e-3, 0.569)


def test_h_plus_rejects_bad_points(mp2):
    h = BoundarySource.bump(B0, B1)
    for z, zeta in ((0.0, 0.4), (-1.0, 0.4), (math.nan, 0.4), (0.1, math.inf)):
        with pytest.raises(ValueError):
            h_plus(mp2, h, z, zeta)


def test_k_constant_log_logs_its_work(mp2, tess344_small, caplog):
    h = BoundarySource.bump(B0, B1)
    with caplog.at_level(logging.INFO, logger="hypfield.boundary"):
        k_constant_log(mp2, h, 1.0, tess344_small, 1, grid=3)
    (record,) = [r for r in caplog.records if r.name == "hypfield.boundary"]
    assert record.levelno == logging.INFO
    msg = record.getMessage()
    assert msg.startswith("k_constant_log tile 1: ")
    points = int(msg.split(": ")[1].split(" points")[0])
    assert points >= 10  # the 10 grid points of grid 3, then the refinement
    assert "panels refined" in msg and "rounds" in msg and msg.endswith(" s")


@pytest.mark.parametrize("alpha", [1.0, -1.0])
@pytest.mark.parametrize("cone_c", [0.6, 1.2])
def test_k_table_equals_per_tile_k_constant_log(mp2, tess344_big, cone_c, alpha):
    # one lockstep search over all tiles finds each tile's extremum bit for bit
    h = BoundarySource.bump(B0, B1)
    a = tess344_big.centroids[0]
    ids = conical_sequence(tess344_big, math.pi / 4, a, 8, cone_c, min_step=0.35)
    rows = k_table(mp2, h, alpha, tess344_big, ids)
    assert [r["tile_id"] for r in rows] == ids
    for r, tid in zip(rows, ids):
        log_k, m_star = k_constant_log(mp2, h, alpha, tess344_big, tid)
        assert r["log_k_j"] == log_k and r["Hmin_or_max"] == m_star


def test_k_table_z_centroid_keeps_its_digits_at_depth(mp2, tess344_big):
    # The reference maps the exactly normalised centroid of the fundamental
    # tile by the float mats[k] in 40 digits and applies the chart's closed
    # form there: 1 / (x1 + x3), with x1 + x3 = (1 + x2^2) / (x3 - x1) for
    # x1 < 0.  (The float mats are Lorentz only to about eps e^(2 rho), so
    # the two forms differ by that much on the exact vector; each branch
    # is checked against its own form.)
    ids = np.nonzero(tess344_big.centroid_rho >= 5.5)[0][::37]
    rows = k_table(mp2, BoundarySource.bump(B0, B1, amplitude=0.0), 1.0, tess344_big, ids)
    with mpmath.workdps(40):
        c = [mpmath.fsum(mpmath.mpf(float(v)) for v in col) for col in tess344_big.fund_vertices.T]
        c = [v / mpmath.sqrt(c[2] ** 2 - c[0] ** 2 - c[1] ** 2) for v in c]
        for r in rows:
            m = tess344_big.mats[r["tile_id"]]
            x1, x2, x3 = (mpmath.fsum(mpmath.mpf(float(m[i, j])) * c[j] for j in range(3)) for i in range(3))
            z = 1 / (x1 + x3) if x1 >= 0 else (x3 - x1) / (1 + x2**2)
            assert abs(r["z_centroid"] - z) <= 2e-15 * z, r["tile_id"]


def test_k_table_zero_source_and_no_tiles(mp2, tess344_small):
    h = BoundarySource.bump(B0, B1, amplitude=0.0)
    rows = k_table(mp2, h, 1.0, tess344_small, [0, 3])
    assert [(r["log_k_j"], r["k_j"]) for r in rows] == [(0.0, 1.0), (0.0, 1.0)]
    assert k_table(mp2, BoundarySource.bump(B0, B1), 1.0, tess344_small, []) == []


def test_k_table_logs_one_line_per_batch(mp2, tess344_small, caplog):
    h = BoundarySource.bump(B0, B1)
    with caplog.at_level(logging.INFO, logger="hypfield.boundary"):
        k_table(mp2, h, 1.0, tess344_small, [0, 1, 2], grid=3)
    (record,) = [r for r in caplog.records if r.name == "hypfield.boundary"]
    assert record.levelno == logging.INFO
    msg = record.getMessage()
    assert msg.startswith("k_table: 3 tiles, ")
    points = int(msg.split(", ")[1].split(" points")[0])
    assert points >= 30  # the 10 grid points of grid 3 per tile, then the refinement
    assert "panels refined" in msg and "rounds" in msg and msg.endswith(" s")
