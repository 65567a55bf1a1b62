import dataclasses
import gc
import json
import logging
import math
import pathlib
import re
import sys
import tracemalloc
import warnings
import weakref

import mpmath
import numpy as np
import pytest
import scipy.special
from numpy.polynomial import hermite_e

from hypfield import _kernels, galerkin, greens
from hypfield import fieldmc as fm
from hypfield import geometry
from hypfield.boundary import BoundarySource
from hypfield.errors import CovarianceInvalidError
from hypfield.tessellation import TriangleParams, ball_radius, conical_sequence, generate

ALPHA = 1.0
TILE_AREA_344 = math.pi / 6  # pi - (pi/3 + pi/4 + pi/4)


@pytest.fixture(scope="module")
def quad3(tess344_big):
    return fm.build_quadrature(tess344_big, [0], 3)


@pytest.fixture(scope="module")
def cov_neumann(mp2, nt6, quad3):
    return fm.build_covariance(mp2, nt6, quad3, "neumann")


@pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6])
def test_quadrature_weights_sum_to_tile_area(tess344_small, resolution):
    quad = fm.build_quadrature(tess344_small, [0], resolution)
    assert len(quad) == resolution**2
    assert quad.total_weight == pytest.approx(TILE_AREA_344, rel=1e-12)


def _cells_one_by_one(tess, res):
    """The quadrature cells of tile 0 one cell at a time: the incenter and
    the closed-form weight of each triangle, in `build_quadrature` order."""
    verts = tess.fund_vertices
    nodes = {}
    for i in range(res + 1):
        for j in range(res + 1 - i):
            nodes[i, j] = geometry.normalize(np.array([res - i - j, i, j], dtype=float) / res @ verts)
    tris = []
    for i in range(res):
        for j in range(res - i):
            tris.append(np.stack([nodes[i, j], nodes[i + 1, j], nodes[i, j + 1]]))
            if i + j <= res - 2:
                tris.append(np.stack([nodes[i + 1, j], nodes[i, j + 1], nodes[i + 1, j + 1]]))
    points = []
    for tri in tris:
        n = geometry.outward_normals(tri)
        w = np.cross(n[0] - n[1], n[1] - n[2]) * geometry.ETA_DIAG
        q = -geometry.lorentz_dot(w, w)
        inc = w / math.sqrt(q) if q > 0 else tri.mean(axis=0)
        points.append(geometry.normalize(-inc if inc[2] < 0 else inc))
    return np.stack(tris), np.stack(points), np.array([geometry.triangle_area(tri) for tri in tris])


@pytest.mark.parametrize("resolution", range(1, 9))
def test_quadrature_cells_equal_the_cell_by_cell_construction(tess344_small, resolution):
    quad = fm.build_quadrature(tess344_small, [0], resolution)
    tris, points, weights = _cells_one_by_one(tess344_small, resolution)
    assert quad.points.tobytes() == points.tobytes()
    # the same closed form on one triangle and on the stack; a vectorised
    # ufunc loop may round its arctan2 differently, by far less than this
    assert np.abs(quad.weights - weights).max() <= 4.0 * np.finfo(float).eps * math.pi
    # each point is the incenter: sinh of its distance to the three sides agrees
    sides = -geometry.lorentz_dot(geometry.outward_normals(tris), quad.points[:, None, :])
    assert (sides > 0.0).all()
    assert np.abs(np.arcsinh(sides) - np.arcsinh(sides[:, :1])).max() < 1e-13


def _gauss_bonnet_40_digits(rows):
    """pi minus the three angles of the geodesic triangle of three float
    rows, each scaled onto the hyperboloid, at 40 digits."""
    with mpmath.workdps(40):
        def dot(a, b):
            return a[0] * b[0] + a[1] * b[1] - a[2] * b[2]

        pts = [[mpmath.mpf(float(x)) for x in row] for row in rows]
        pts = [[x / mpmath.sqrt(-dot(p, p)) for x in p] for p in pts]

        def angle(v, p, q):
            def tangent(t):
                u = [t[k] + dot(v, t) * v[k] for k in range(3)]
                norm = mpmath.sqrt(dot(u, u))
                return [x / norm for x in u]

            return mpmath.acos(dot(tangent(p), tangent(q)))

        a, b, c = pts
        return mpmath.pi - angle(a, b, c) - angle(b, a, c) - angle(c, a, b)


def test_quadrature_weights_keep_their_digits_at_resolution_24(tess344_small):
    # the closed form keeps 1e-14 of each small cell's area, where the
    # float Gauss-Bonnet defect kept 1e-11
    res = 24
    quad = fm.build_quadrature(tess344_small, [0], res)
    i, j, triples, inside = galerkin.barycentric_grid(res)
    cells = galerkin.grid_rows(tess344_small.fund_vertices, res, i, j)[triples[inside]]
    want = np.array([float(_gauss_bonnet_40_digits(cell)) for cell in cells])
    assert np.abs(quad.weights / want - 1.0).max() <= 1e-14


# --- the Neumann covariance: Galerkin cell averages ------------------------


@pytest.mark.parametrize("resolution", range(2, 13))
def test_neumann_covariance_integrates_to_one_over_m2_and_factors(mp2, tess344_small, resolution):
    # K 1 = m^2 M 1 gives m^2 C w = 1 in every row on every mesh, and the
    # Richardson mix of two meshes keeps it; C factors with no ridge
    quad = fm.build_quadrature(tess344_small, [0], resolution)
    cov = fm.build_covariance(mp2, None, quad, "neumann")
    assert cov.ridge == 0.0
    assert np.abs(mp2.m2 * cov.matrix @ quad.weights - 1.0).max() <= 1e-12
    assert 0.0 < cov.estimate < 1e-2


def test_a_covariance_that_is_not_positive_definite_raises_after_one_cholesky(monkeypatch, mp2, tess344_small):
    # the free kind stops being positive definite at resolution 4 (ROADMAP
    # item 4); no ridge is tried
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    quad = fm.build_quadrature(tess344_small, [0], 4)
    with pytest.raises(CovarianceInvalidError, match=r"^free covariance at resolution 4 .*ROADMAP item 4"):
        fm.build_covariance(mp2, None, quad, "free")
    assert calls == [(16, 16)]


def test_neumann_covariance_logs_its_solve(caplog, mp2, quad3):
    with caplog.at_level(logging.INFO, logger="hypfield.fieldmc"):
        cov = fm.build_covariance(mp2, None, quad3, "neumann")
    [record] = [r for r in caplog.records if r.name == "hypfield.fieldmc"]
    # 24 and 12 cuts of the tile's side: 325 and 91 nodes
    assert record.getMessage().startswith(
        f"neumann covariance resolution 3: Galerkin on 325 and 91 nodes, estimate {cov.estimate:.2e}, "
    )


def test_the_chain_needs_no_truncation_and_no_image_sum(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the decay chain reached the image sums")

    monkeypatch.setattr(greens, "NeumannTruncation", refused)
    monkeypatch.setattr(_kernels, "image_sum_block", refused)
    monkeypatch.setattr(_kernels, "image_sum_self", refused)
    run = _small_run()
    assert run.passed is True


def test_light_mass_runs_to_a_verdict():
    # m^2 = 0.5 needs no orbit radius: its image-sum tail bound at R = 8
    # is 0.23, and the run used to stop there
    run = fm.triviality_run(dataclasses.replace(fm.TrivialityConfig(), cone_c=0.6, m2=0.5))
    assert run.passed is True
    assert run.eps_hat == pytest.approx(0.744, abs=0.01)


def test_z_ratio_stays_finite_where_every_weight_underflows():
    # at m^2 = 6 on the decay config every exp(-v_h) underflows
    run = fm.triviality_run(dataclasses.replace(fm.TrivialityConfig(), cone_c=0.6, m2=6.0))
    direct = run.direct_ratio
    assert math.isfinite(direct.log_ratio) and direct.log_ratio < -700.0
    assert math.isfinite(direct.stderr) and math.isfinite(direct.ess)
    assert direct.unreliable is True


def test_z_ratio_in_log_space_equals_the_plain_ratio(mp2, tess344_big):
    # where nothing underflows, the shifted means give the plain ratio
    quad = fm.build_quadrature(tess344_big, [0], 2)
    h = BoundarySource.bump(math.pi / 6, math.pi / 3)
    res = fm.z_ratio(mp2, quad, ALPHA, 0.1, h, 5_000, seed=3)
    cov = fm.build_covariance(mp2, None, quad, "free")
    samples = fm.sample_fields(cov, 5_000, 3)
    g = np.exp(ALPHA * fm.bd.h_plus_at_points(mp2, h, quad.points))
    a = np.exp(-0.1 * fm.wick_exp(samples, cov, quad, ALPHA, g=g))
    b = np.exp(-0.1 * fm.wick_exp(samples, cov, quad, ALPHA))
    assert res.ratio == pytest.approx(a.mean() / b.mean(), rel=1e-12)
    assert res.log_ratio == pytest.approx(math.log(a.mean() / b.mean()), rel=1e-12)
    assert res.ess == pytest.approx(a.sum() ** 2 / (a**2).sum(), rel=1e-12)
    assert res.unreliable is False


def test_z_ratio_at_lambda_zero_draws_no_samples(monkeypatch, mp2, tess344_big):
    def refused(*args, **kwargs):
        raise AssertionError("z_ratio built a covariance or drew samples at lambda = 0")

    quad = fm.build_quadrature(tess344_big, [0], 2)
    monkeypatch.setattr(fm, "build_covariance", refused)
    monkeypatch.setattr(fm, "sample_fields", refused)
    h = BoundarySource.bump(math.pi / 6, math.pi / 3)
    res = fm.z_ratio(mp2, quad, ALPHA, 0.0, h, 5_000, seed=3)
    assert res == fm.ZRatioResult(ratio=1.0, log_ratio=0.0, stderr=0.0, ess=5_000.0, unreliable=False)


def test_wick_exp_mean_is_tile_area(cov_neumann, quad3):
    samples = fm.sample_fields(cov_neumann, 20_000, seed=3)
    x = fm.wick_exp(samples, cov_neumann, quad3, ALPHA)
    assert (x > 0.0).all()
    se = x.std(ddof=1) / math.sqrt(len(x))
    assert abs(x.mean() - TILE_AREA_344) <= 5.0 * se


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wick_power_second_moment(cov_neumann, quad3, k):
    # E[(:phi^k:(w))^2] = k! w . C^k . w, with C^k taken entrywise
    samples = fm.sample_fields(cov_neumann, 20_000, seed=4)
    est = fm.wick_power_estimate(samples, cov_neumann, quad3, k)
    oracle = math.factorial(k) * quad3.weights @ cov_neumann.matrix**k @ quad3.weights
    assert abs(est.second_moment - oracle) <= 5.0 * est.second_moment_stderr


def test_shift_identity(cov_neumann, quad3):
    samples = fm.sample_fields(cov_neumann, 2_000, seed=5)
    f = np.random.default_rng(5).normal(scale=0.5, size=len(quad3))
    lhs, rhs = fm.shift_audit(samples, cov_neumann, quad3, ALPHA, f)
    assert float(np.abs(lhs - rhs).max() / np.abs(lhs).max()) < 1e-12


def test_sampling_bit_identical_across_threads(monkeypatch, cov_neumann, quad3):
    # 1000 samples in batches of 300: four batches, the last one short
    monkeypatch.setattr(fm, "_SAMPLE_BATCH", 300)
    serial = fm.sample_fields(cov_neumann, 1_000, seed=9, threads=1)
    pooled = fm.sample_fields(cov_neumann, 1_000, seed=9, threads=2)
    x1 = fm.wick_exp(serial, cov_neumann, quad3, ALPHA)
    x2 = fm.wick_exp(pooled, cov_neumann, quad3, ALPHA)
    assert len(x1) == 1_000
    assert np.array_equal(x1, x2)


def _row_major_samples(cov, n, seed, batch_size):
    """The samples as row-major (take, cells) @ factor.T products, batch by
    batch from the Philox streams keyed by (seed, batch)."""
    parts = []
    for b, start in enumerate(range(0, n, batch_size)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(b,))))
        parts.append(rng.standard_normal((min(batch_size, n - start), cov.factor.shape[0])) @ cov.factor.T)
    return np.concatenate(parts)


@pytest.mark.parametrize("threads", [1, 2])
def test_samples_equal_the_row_major_product_and_are_never_written(monkeypatch, cov_neumann, quad3, threads):
    monkeypatch.setattr(fm, "_SAMPLE_BATCH", 300)
    samples = fm.sample_fields(cov_neumann, 1_000, seed=9, threads=threads)
    assert samples.shape == (1_000, len(quad3))
    assert np.array_equal(samples, _row_major_samples(cov_neumann, 1_000, 9, 300))
    # cell-major: each cell's values are contiguous
    assert samples.T.flags.c_contiguous
    kept = samples.copy()
    # a reduction that writes into the samples raises here
    samples.flags.writeable = False
    f = np.random.default_rng(5).normal(scale=0.5, size=len(quad3))
    fm.wick_exp(samples, cov_neumann, quad3, ALPHA)
    for k in range(5):
        fm.wick_power_estimate(samples, cov_neumann, quad3, k)
    fm.shift_audit(samples, cov_neumann, quad3, ALPHA, f)
    assert np.array_equal(samples, kept)


def _small_run(**changes):
    cfg = dataclasses.replace(fm.TrivialityConfig(), cone_c=0.6, n_mc=2_000, **changes)
    return fm.triviality_run(cfg)


def test_triviality_run_certifies_decay():
    run = _small_run()
    assert run.passed is True
    assert run.control is False
    assert run.eps_hat > 0.0


def test_triviality_control_does_not_certify():
    run = _small_run(amplitude=0.0)
    assert run.passed is False
    assert run.control is True


def test_the_ball_is_freed_before_sampling(monkeypatch):
    # only the geometry stage reads the ball: it is freed, by reference
    # counting alone, before either sampling stage draws
    balls, draws = [], []
    make_ball, draw = fm.generate, fm.sample_fields

    def kept(*args, **kwargs):
        tess = make_ball(*args, **kwargs)
        balls.append(weakref.ref(tess))
        return tess

    def checked(*args, **kwargs):
        assert [ref() for ref in balls] == [None], "the ball is alive at sampling"
        draws.append(args[1])
        return draw(*args, **kwargs)

    monkeypatch.setattr(fm, "generate", kept)
    monkeypatch.setattr(fm, "sample_fields", checked)
    gc.disable()
    try:
        run = _small_run()
    finally:
        gc.enable()
    assert run.passed is True
    assert len(balls) == 1 and draws == [2_000, 2_000]  # X_1, then the direct ratio


def test_ci95_low_uses_student_t():
    # one-sided 95% Student t quantile on SLOPE_BATCHES - 1 = 9 degrees of freedom
    assert fm.SLOPE_BATCHES == 10
    assert fm.T95 == float(scipy.special.stdtrit(fm.SLOPE_BATCHES - 1, 0.95))
    run = _small_run()
    assert math.isfinite(run.eps_stderr) and run.eps_stderr > 0.0
    assert run.ci95_low == pytest.approx(run.eps_hat - 1.8331 * run.eps_stderr, abs=1e-4 * run.eps_stderr)
    assert run.passed is (run.ci95_low > 0.0)


# --- the row-blocked reductions against their whole-array formulas ----------

# not a multiple of any block size used below, and more than one default block
N_BLOCKED = fm._BLOCK_ROWS + 905


@pytest.fixture(scope="module")
def blocked_samples(cov_neumann):
    return fm.sample_fields(cov_neumann, N_BLOCKED, seed=11)


@pytest.fixture(scope="module")
def cell_g(quad3):
    return np.random.default_rng(12).uniform(0.5, 2.0, len(quad3))


def _hermite_wick_terms(samples, cov, k):
    """C_ii^(k/2) He_k(phi_i / sqrt(C_ii)), the whole (samples, cells) array."""
    sd = np.sqrt(cov.diag)
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    return sd**k * hermite_e.hermeval(samples / sd, coeffs)


def _cell_sum(terms, wg):
    """sum_i wg_i terms[:, i], accumulated over the cells in order."""
    out = terms[:, 0] * wg[0]
    for i in range(1, len(wg)):
        out += terms[:, i] * wg[i]
    return out


@pytest.mark.parametrize("with_g", [False, True])
@pytest.mark.parametrize("k", range(fm.WICK_POWER_CAP + 1))
def test_wick_power_matches_hermite_formula(cov_neumann, quad3, blocked_samples, cell_g, k, with_g):
    g = cell_g if with_g else None
    wg = quad3.weights if g is None else quad3.weights * g
    terms = _hermite_wick_terms(blocked_samples, cov_neumann, k)
    # in fixed cell order, as the package sums: at k = 0 every sample then
    # has the same value, and the statistics compare no BLAS rounding
    oracle = _cell_sum(terms, wg)
    got = fm._wick_power_samples(blocked_samples, cov_neumann, wg, k)
    # per sample, relative to the sum of the absolute terms, which is the
    # scale of the rounding in a sum that cancels
    scale = np.abs(terms) @ np.abs(wg)
    assert np.all(np.abs(got - oracle) <= 1e-13 * scale)

    est = fm.wick_power_estimate(blocked_samples, cov_neumann, quad3, k, g=g)
    n = len(oracle)
    want = {
        "mean": oracle.mean(),
        "mean_stderr": oracle.std(ddof=1) / math.sqrt(n),
        "variance": oracle.var(ddof=1),
        "second_moment": (oracle**2).mean(),
        "second_moment_stderr": (oracle**2).std(ddof=1) / math.sqrt(n),
    }
    assert est.k == k
    for field, value in want.items():
        assert getattr(est, field) == pytest.approx(value, rel=1e-12, abs=0.0), field


@pytest.mark.parametrize("with_g", [False, True])
def test_wick_exp_equals_whole_array_formula(cov_neumann, quad3, blocked_samples, cell_g, with_g):
    g = cell_g if with_g else None
    wg = quad3.weights if g is None else quad3.weights * g
    terms = np.exp(ALPHA * blocked_samples - 0.5 * ALPHA * ALPHA * cov_neumann.diag)
    got = fm.wick_exp(blocked_samples, cov_neumann, quad3, ALPHA, g=g)
    assert np.array_equal(got, _cell_sum(terms, wg))
    # a matrix-vector product sums the same positive terms in another order
    np.testing.assert_allclose(got, terms @ wg, rtol=1e-14, atol=0.0)


def _whole_array_log_laplace(x, log_s):
    """The definition, written out on the whole array: one-exp weights
    w = exp(-s (x - x_min)), each 512-sample chunk from sample 0 reduced
    by numpy to its sum and its squared deviations from its own mean, the
    chunks combined by the parallel-axis formula."""
    n = len(x)
    xmin = float(x.min())
    with np.errstate(over="ignore"):
        w = np.exp((x - xmin) * -math.exp(log_s))
    chunks = [w[i : i + 512] for i in range(0, n, 512)]
    sums = np.array([c.sum() for c in chunks])
    counts = np.array([len(c) for c in chunks], dtype=float)
    means = sums / counts
    m2s = np.array([((c - m) ** 2).sum() for c, m in zip(chunks, means)])
    total = float(sums.sum())
    mean_w = total / n
    m2 = float(m2s.sum() + (counts * (means - mean_w) ** 2).sum())
    se = math.sqrt(m2 / (n - 1)) / (mean_w * math.sqrt(n))
    ess = total**2 / (m2 + n * mean_w**2)
    return -math.exp(log_s + math.log(xmin)) + math.log(mean_w), se, bool(ess < 10.0)


def test_log_laplace_equals_whole_array_formula(cov_neumann, quad3, blocked_samples):
    x = fm.wick_exp(blocked_samples, cov_neumann, quad3, ALPHA)
    for log_s in np.linspace(-6.0, 6.0, 32):
        assert fm.log_laplace_stable(x, float(log_s)) == _whole_array_log_laplace(x, float(log_s))
    # s x_min = e^699: a saturated estimate, and the largest s (x - x_min)
    # is past e^700, where the weights underflow to 0
    log_s = 699.0 - math.log(float(x.min()))
    assert log_s + math.log(float(x.max() - x.min())) > 700.0
    got = fm.log_laplace_stable(x, log_s)
    assert got == _whole_array_log_laplace(x, log_s)
    assert got[2] is True


@pytest.mark.parametrize("rows", [1, 7, N_BLOCKED + 5])
def test_reductions_independent_of_block_size(monkeypatch, cov_neumann, quad3, blocked_samples, cell_g, rows):
    def reductions():
        x = fm.wick_exp(blocked_samples, cov_neumann, quad3, ALPHA, g=cell_g)
        wick = [fm._wick_power_samples(blocked_samples, cov_neumann, quad3.weights, k) for k in (0, 1, 4, 8)]
        laplace = [fm.log_laplace_stable(x, log_s) for log_s in (-3.0, 0.0, 5.0)]
        return x, wick, laplace

    x, wick, laplace = reductions()
    monkeypatch.setattr(fm, "_BLOCK_ROWS", rows)
    x_b, wick_b, laplace_b = reductions()
    assert np.array_equal(x, x_b)
    assert all(np.array_equal(a, b) for a, b in zip(wick, wick_b))
    assert laplace == laplace_b


def test_log_laplace_edge_cases():
    x = np.array([0.5, 0.7, 2.0])
    # s * min(x) past e^700: saturated, no estimate
    assert fm.log_laplace_stable(x, 701.0) == (-math.inf, math.inf, True)
    with pytest.raises(ValueError):
        fm.log_laplace_stable(np.array([0.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        fm.log_laplace_stable(np.array([-1.0, 1.0]), 0.0)
    log_l, se, _ = fm.log_laplace_stable(np.array([0.3]), 1.0)
    assert se == 0.0
    assert log_l == -math.exp(1.0 + math.log(0.3))
    flat = np.full(10, 0.4)
    assert np.array_equal(fm._laplace_weights(flat, 0.4, 2.0), np.ones(10))
    assert fm.log_laplace_stable(flat, 2.0) == (-math.exp(2.0 + math.log(0.4)), 0.0, False)


def test_log_laplace_overflow_nan_and_degenerate_inputs():
    # s = e^715 overflows while s x_min = e^694.3 does not: the weight is
    # exactly 1 at x_min and 0 past it, with no NaN and no warning
    x = np.array([1e-9, 0.5, 1e-9, 2e-9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(fm._laplace_weights(x, 1e-9, 715.0), [1.0, 0.0, 1.0, 0.0])
        got = fm.log_laplace_stable(x, 715.0)
    assert got == (-math.exp(715.0 + math.log(1e-9)) + math.log(0.5), math.sqrt(1.0 / 3.0) / (0.5 * 2.0), True)
    # NaN in, NaN out, not marked saturated
    log_l, se, saturated = fm.log_laplace_stable(np.array([0.5, np.nan, 2.0]), 0.0)
    assert math.isnan(log_l) and math.isnan(se) and saturated is False
    # one sample: no spread, an ESS of 1; constant samples: ESS n
    assert fm.log_laplace_stable(np.array([0.3]), 1.0) == (-math.exp(1.0 + math.log(0.3)), 0.0, True)
    assert fm.log_laplace_stable(np.full(9, 0.4), 2.0) == (-math.exp(2.0 + math.log(0.4)), 0.0, True)
    assert fm.log_laplace_stable(np.full(10, 0.4), 2.0)[2] is False


def _mp_log_laplace(x, log_s):
    """(log L, stderr, ESS) of the float samples x, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        xmin = mpmath.mpf(float(x.min()))
        s = mpmath.exp(log_s)
        w = [mpmath.exp(-s * (mpmath.mpf(float(v)) - xmin)) for v in x]
        n = len(w)
        total = mpmath.fsum(w)
        mean = total / n
        m2 = mpmath.fsum((v - mean) ** 2 for v in w)
        ess = total**2 / mpmath.fsum(v * v for v in w)
        return (
            float(-s * xmin + mpmath.log(mean)),
            float(mpmath.sqrt(m2 / (n - 1)) / (mean * mpmath.sqrt(n))),
            float(ess),
        )


def _ess_crossing(x):
    """log s where the float weight ESS of x falls through 10, by bisection."""
    lo, hi = 0.0, 12.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        w = np.exp((x - x.min()) * -math.exp(mid))
        lo, hi = (mid, hi) if w.sum() ** 2 / (w * w).sum() > 10.0 else (lo, mid)
    return lo


@pytest.mark.parametrize("case", ["-6", "0", "6", "ess above 10", "ess below 10"])
def test_log_laplace_matches_mpmath(cov_neumann, quad3, blocked_samples, case):
    # log s = -6 has mean w near 1, where log L is tiny and log amplifies
    # the weights' error; the ESS cases sit 1e-3 in log s either side of
    # the crossing, so the flag is decided well above rounding.  The bound
    # also holds for the former log-and-two-exp weights with numpy's
    # whole-array mean and std.
    x = fm.wick_exp(blocked_samples, cov_neumann, quad3, ALPHA)
    offsets = {"ess above 10": -1e-3, "ess below 10": 1e-3}
    log_s = _ess_crossing(x) + offsets[case] if case in offsets else float(case)
    want_l, want_se, want_ess = _mp_log_laplace(x, log_s)
    if case in offsets:
        assert abs(want_ess - 10.0) < 0.05
    log_l, se, saturated = fm.log_laplace_stable(x, log_s)
    assert abs(log_l - want_l) <= 1e-14 * (1.0 + math.exp(log_s) * float(x.min()))
    assert abs(se - want_se) <= 1e-14 * want_se
    assert saturated is (want_ess < 10.0)


@pytest.mark.parametrize("rows", [1, 7, 512, 1536, N_BLOCKED + 5])
def test_statistics_independent_of_block_size(monkeypatch, cov_neumann, quad3, blocked_samples, cell_g, rows):
    assert N_BLOCKED % fm._CHUNK != 0

    def statistics():
        x = fm.wick_exp(blocked_samples, cov_neumann, quad3, ALPHA, g=cell_g)
        wick = [fm.wick_power_estimate(blocked_samples, cov_neumann, quad3, k, g=cell_g) for k in (0, 1, 4, 8)]
        laplace = [fm.log_laplace_stable(x, log_s) for log_s in (-6.0, 0.0, 5.0, 8.0)]
        return wick, laplace

    wick, laplace = statistics()
    monkeypatch.setattr(fm, "_BLOCK_ROWS", rows)
    wick_b, laplace_b = statistics()
    assert wick == wick_b
    assert laplace == laplace_b


def test_log_laplace_logs_ess_and_saturation(caplog):
    with caplog.at_level(logging.DEBUG, logger="hypfield.fieldmc"):
        fm.log_laplace_stable(np.full(10, 0.4), 2.0)
        fm.log_laplace_stable(np.array([0.5, 0.7, 2.0]), 701.0)
    first, second = [r for r in caplog.records if r.name == "hypfield.fieldmc"]
    assert first.levelno == logging.DEBUG
    assert first.getMessage().startswith("log_laplace_stable 10 samples at log s = 2: ESS 10, saturated False, ")
    assert first.getMessage().endswith(" s")
    # past s x_min = e^700 no weight is computed: no ESS
    assert second.getMessage().startswith("log_laplace_stable 3 samples at log s = 701: ESS nan, saturated True, ")


def _traced_peak(call):
    """Peak memory traced while call() runs, in bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reductions_need_no_samples_by_cells_temporaries(cov_neumann, quad3):
    samples = fm.sample_fields(cov_neumann, 200_000, seed=13)
    n = len(samples)
    x = fm.wick_exp(samples, cov_neumann, quad3, ALPHA)
    column = 8 * n  # one float array over the samples
    # one (n, cells) array is 9 columns
    assert _traced_peak(lambda: fm.wick_exp(samples, cov_neumann, quad3, ALPHA)) < 9 * column
    assert _traced_peak(lambda: fm.wick_power_estimate(samples, cov_neumann, quad3, 4)) < 9 * column
    assert _traced_peak(lambda: fm.log_laplace_stable(x, 1.0)) <= 3 * column


def test_statistics_allocate_no_sample_columns(monkeypatch, cov_neumann, quad3):
    samples = fm.sample_fields(cov_neumann, 200_000, seed=13)
    column = 8 * len(samples)  # one float array over the samples
    x = fm.wick_exp(samples, cov_neumann, quad3, ALPHA)
    assert _traced_peak(lambda: fm.log_laplace_stable(x, 1.0)) < 0.5 * column
    # 1024-row blocks keep the four (cells, block) buffers of the Wick
    # recurrence at 0.18 of a column, so the bound sees the O(n)
    # allocations: the one output column of the Wick powers, nothing else
    monkeypatch.setattr(fm, "_BLOCK_ROWS", 1024)
    assert _traced_peak(lambda: fm.wick_power_estimate(samples, cov_neumann, quad3, 4)) < 1.5 * column


def test_sample_fields_logs_its_work(monkeypatch, caplog, cov_neumann):
    monkeypatch.setattr(fm, "_SAMPLE_BATCH", 300)
    with caplog.at_level(logging.INFO, logger="hypfield.fieldmc"):
        fm.sample_fields(cov_neumann, 1_000, seed=9, threads=2)
    [record] = [r for r in caplog.records if r.name == "hypfield.fieldmc"]
    assert record.levelno == logging.INFO
    assert record.getMessage().startswith("sample_fields 1000 samples x 9 cells: 4 batches, 2 threads, ")


def test_shift_audit_needs_no_samples_copy(cov_neumann, quad3):
    samples = fm.sample_fields(cov_neumann, 200_000, seed=13)
    f = np.random.default_rng(5).normal(scale=0.5, size=len(quad3))
    column = 8 * len(samples)
    # the shift is added block by block: no (n, cells) copy of the samples
    assert _traced_peak(lambda: fm.shift_audit(samples, cov_neumann, quad3, ALPHA, f)) < 9 * column
    lhs, _ = fm.shift_audit(samples, cov_neumann, quad3, ALPHA, f)
    assert np.array_equal(lhs, fm.wick_exp(samples + f, cov_neumann, quad3, ALPHA))


def test_z_ratio_marks_underflow_unreliable(mp2, tess344_big):
    # at lambda = 1e4 every exp(-v_h) underflows; in log space the ratio,
    # its stderr and its ESS stay finite, and a few samples carry it
    quad = fm.build_quadrature(tess344_big, [0], 2)
    h = BoundarySource.bump(math.pi / 6, math.pi / 3)
    res = fm.z_ratio(mp2, quad, ALPHA, 1e4, h, 200, seed=3)
    assert math.isfinite(res.log_ratio) and math.isfinite(res.stderr)
    assert 1.0 <= res.ess < 100.0
    assert res.unreliable is True


def test_z_ratio_samples_on_the_threads_it_is_given(caplog, mp2, tess344_big):
    # 20,000 samples are three sampling batches, enough for two workers
    quad = fm.build_quadrature(tess344_big, [0], 2)
    h = BoundarySource.bump(math.pi / 6, math.pi / 3)
    results = {}
    for threads in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="hypfield.fieldmc"):
            results[threads] = fm.z_ratio(mp2, quad, ALPHA, 0.1, h, 20_000, seed=3, threads=threads)
        assert f"3 batches, {threads} threads" in caplog.text
    assert results[2] == results[1]


# --- the thread count changes no result ------------------------------------

# three blocks of 4096 samples and a part of one, and fewer samples than a block
N_THREADED = (3 * 4096 + 777, 1_000)


def _mc_results(samples, cov, quad, g, f, threads):
    """Every Monte Carlo reduction of the samples, on `threads` workers."""
    x = fm.wick_exp(samples, cov, quad, ALPHA, g=g, threads=threads)
    wick = [fm.wick_power_estimate(samples, cov, quad, k, g=g, threads=threads) for k in range(5)]
    lhs, rhs = fm.shift_audit(samples, cov, quad, ALPHA, f, g=g, threads=threads)
    # lead = log s + log x_min below 700, past it (no weights), and on
    # x * 1e-6 below it with s = e^712 past the largest float
    log_xmin = math.log(float(x.min()))
    laplace = [fm.log_laplace_stable(x, log_s, threads=threads) for log_s in (-6.0, 0.0, 6.0, 700.5 - log_xmin)]
    tiny = x * 1e-6
    assert 712.0 + math.log(float(tiny.min())) < 700.0
    laplace.append(fm.log_laplace_stable(tiny, 712.0, threads=threads))
    return x, wick, lhs, rhs, laplace


@pytest.mark.parametrize("rows", [None, 1024])
@pytest.mark.parametrize("n", N_THREADED)
def test_reductions_do_not_depend_on_thread_count(monkeypatch, caplog, cov_neumann, quad3, cell_g, n, rows):
    # at 1024-row blocks every loop over 13,065 samples has three blocks or more
    if rows is not None:
        monkeypatch.setattr(fm, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(fm, "_SAMPLE_BATCH", 1_000)
    samples = fm.sample_fields(cov_neumann, n, seed=21, threads=1)
    samples.flags.writeable = False
    f = np.random.default_rng(22).normal(scale=0.5, size=len(quad3))
    x, wick, lhs, rhs, laplace = _mc_results(samples, cov_neumann, quad3, cell_g, f, 1)
    for threads in (2, 3):
        caplog.clear()
        # a short switch interval interleaves the workers' Python steps finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = fm.sample_fields(cov_neumann, n, seed=21, threads=threads)
            with caplog.at_level(logging.DEBUG, logger="hypfield.fieldmc"):
                x_t, wick_t, lhs_t, rhs_t, laplace_t = _mc_results(samples, cov_neumann, quad3, cell_g, f, threads)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(pooled, samples)
        assert np.array_equal(x_t, x)
        assert wick_t == wick
        assert np.array_equal(lhs_t, lhs) and np.array_equal(rhs_t, rhs)
        assert laplace_t == laplace
        # each loop ran on as many workers as it had blocks, up to `threads`
        loops = [re.search(r"(\d+) blocks, (\d+) workers", r.getMessage()) for r in caplog.records]
        counts = [(int(m[1]), int(m[2])) for m in loops if m]
        assert len(counts) == 1 + 5 * 3 + 2 + 5
        assert all(workers == min(blocks, threads) for blocks, workers in counts)
        if rows is not None and n > rows * threads:
            assert all(workers == threads for blocks, workers in counts if blocks)


def test_decay_at_one_thread_starts_no_executor(monkeypatch):
    import concurrent.futures

    pool_class = concurrent.futures.ThreadPoolExecutor
    started = []

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a run at threads=1 started a thread pool")

    class Counted(pool_class):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    cfg = dataclasses.replace(fm.TrivialityConfig(), cone_c=0.6)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Refused)
    serial = fm.triviality_run(dataclasses.replace(cfg, threads=1)).to_json_dict()
    # 20,000 samples: three sampling batches and three Wick blocks, so
    # threads=2 sends work to a pool
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    pooled = fm.triviality_run(dataclasses.replace(cfg, threads=2)).to_json_dict()
    assert started
    assert {**pooled, "config": {**pooled["config"], "threads": 1}} == serial


def test_decay_matches_golden_seeds():
    # tests/data/eps_hat_seeds.json pins the decay run on seeds 0-9; a change
    # meant to move the physics regenerates it on purpose
    golden = _golden()
    assert [g["seed"] for g in golden["runs"]] == list(range(10))
    for g in golden["runs"]:
        cfg = dataclasses.replace(fm.TrivialityConfig(), seed=g["seed"], **golden["triviality_run"])
        run = fm.triviality_run(cfg)
        assert run.records[-1].tile_ids == g["tile_ids"], g["seed"]
        assert run.summary().split(":")[0] == g["verdict"], g["seed"]
        assert run.eps_hat == pytest.approx(g["eps_hat"], rel=1e-12, abs=0.0), g["seed"]


# --- ROADMAP item 17: a ball sized to the conical sequence ------------------

def _golden():
    return json.loads((pathlib.Path(__file__).parent / "data" / "eps_hat_seeds.json").read_text())


@pytest.fixture(scope="module")
def decay_ball():
    cfg = fm.TrivialityConfig()
    tp = TriangleParams(cfg.p, cfg.q, cfg.r)
    return generate(tp, ball_radius(tp, cfg.orbit_radius))


@pytest.mark.parametrize("radius", [7.0, 7.77, 8.0])
def test_smaller_balls_are_prefixes_of_the_decay_ball(decay_ball, radius):
    # a ball sized to the conical sequence keeps the decay ball's tile ids
    assert len(decay_ball) == 114_990
    ball = generate(decay_ball.params, radius)
    n = len(ball)
    assert n < len(decay_ball)
    for name in ("mats", "parent", "gen"):
        assert getattr(ball, name).tobytes() == getattr(decay_ball, name)[:n].tobytes(), name


def test_the_radius_7_77_ball_holds_the_golden_conical_ids():
    golden = _golden()
    cfg = dataclasses.replace(fm.TrivialityConfig(), **golden["triviality_run"])
    ball = generate(TriangleParams(cfg.p, cfg.q, cfg.r), 7.77)
    ids = conical_sequence(ball, cfg.p_angle, ball.centroids[0], cfg.q_max, cfg.cone_c, min_step=cfg.min_step)
    assert ids == [0, 6, 13, 37, 67, 121, 415, 1693]
    assert all(g["tile_ids"] == ids for g in golden["runs"])
