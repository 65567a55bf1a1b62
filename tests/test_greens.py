import copy
import logging
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hypfield.errors import (
    DiagonalSingularityError,
    NearSingularWarning,
    PoleError,
    PrecisionLossError,
    ThresholdError,
    TruncationError,
)
from hypfield import _kernels
from hypfield.fieldmc import build_covariance, build_quadrature
from hypfield.geometry import dist, lorentz_dot, normalize
from hypfield.greens import (
    ALPHA_MAX,
    ModelParams,
    NeumannTruncation,
    delta_g,
    domination_audit,
    exp_kernel_integral,
    g_neumann,
    g_plus,
    g_plus_forms,
    gk_norm,
    hyp2f1,
    neumann_symmetry_audit,
    sample_tile_points,
)
from hypfield.tessellation import TriangleParams, ball_radius, generate


def _masses_on_h2(masses):
    """Parametrise a test over m2; each id ends in the dimension of H^2, as in [2.0-2]."""
    return pytest.mark.parametrize("m2", masses, ids=lambda m2: f"{m2}-2")


# ---------------------------------------------------------------- parameters


def test_model_params_derived():
    mp = ModelParams(2.0)
    assert mp.delta_plus == pytest.approx(2.0, abs=1e-14)
    gamma = math.gamma(2.0) / (2.0 * math.sqrt(math.pi) * math.gamma(2.5))
    assert mp.gamma_plus == pytest.approx(gamma, abs=1e-12)
    assert ModelParams(6.0).delta_plus == pytest.approx(3.0, abs=1e-14)
    assert ModelParams(0.5).delta_plus == pytest.approx(0.5 + math.sqrt(3.0) / 2.0, abs=1e-14)


def test_model_params_consistency_checks():
    with pytest.raises(ValueError):
        ModelParams(-0.5)


# ------------------------------------------------------------------- hyp2f1


def test_hyp2f1_at_zero():
    assert hyp2f1(0.7, 1.3, 2.1, 0.0) == 1.0


def test_hyp2f1_log_identity():
    # 2F1(1,1;2;z) = -log(1-z)/z
    assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(1.3862943611198906, abs=1e-12)
    z = -0.3
    assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(-math.log1p(-z) / z, abs=1e-12)


def test_hyp2f1_quadratic_transformation_grid():
    # both sides of the c = 2b argument transformation agree
    for a in (0.6, 1.3, 2.0):
        for b in (0.8, 1.5, 2.5):
            for w in (0.1, 0.4, 0.7):
                lhs = _kernels.hyp2f1_series(a, b, 2.0 * b, w)
                rhs = (1.0 - w / 2.0) ** (-a) * _kernels.hyp2f1_series(
                    a / 2.0, (a + 1.0) / 2.0, b + 0.5, (w / (w - 2.0)) ** 2
                )
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_hyp2f1_precision_loss_carries_partial():
    with pytest.raises(PrecisionLossError) as exc:
        _kernels.hyp2f1_series(1.0, 1.0, 2.0, 0.9999, maxiter=10)
    assert exc.value.partial is not None and exc.value.partial > 1.0


def test_hyp2f1_connection_formula_next_to_one():
    # u = 1 - z <= 1e-3 with c = a + b: the log form, DLMF 15.8.10
    mpmath = pytest.importorskip("mpmath")
    for a, b in ((1.3, 0.7), (0.6, 2.2), (3.0, 2.5), (32.1, 32.1)):
        for u in (1e-3, 1e-6, 1e-9):
            with mpmath.workdps(30):
                want = float(mpmath.hyp2f1(a, b, a + b, 1 - mpmath.mpf(u)))
            assert hyp2f1(a, b, a + b, 1.0 - u, u) == pytest.approx(want, rel=1e-13)


def test_hyp2f1_connection_formula_overflow_is_precision_loss():
    # Gamma(a + b) of the log form overflows past a + b = 171.6; G3 reaches
    # it at m2 = 10000 (Delta = 100.5) next to the diagonal
    with pytest.raises(PrecisionLossError, match="Gamma function overflows"):
        hyp2f1(100.0, 100.0, 200.0, 1.0 - 1e-4, 1e-4)


def test_hyp2f1_connection_formula_with_negative_parameters():
    # a, b < 0 with c = a + b takes the log form; psi(a) and psi(b) come
    # from the reflection formula
    mpmath = pytest.importorskip("mpmath")
    for a, b in ((-0.3, -0.6), (-2.7, -0.2)):
        for u in (1e-3, 1e-6, 1e-9):
            with mpmath.workdps(30):
                want = float(mpmath.hyp2f1(a, b, a + b, 1 - mpmath.mpf(u)))
            assert hyp2f1(a, b, a + b, 1.0 - u, u) == pytest.approx(want, rel=1e-13)
    # psi has a pole at a = -1: the log form raises a typed error, not NaN
    with pytest.raises(PoleError, match=r"pole at x = -1\.0"):
        _kernels.log_case_coef(-1.0, -0.5, 1e-3)


@pytest.mark.parametrize("a, b, c, z, u", [
    (-1.0, -0.5, -1.5, 1.0 - 1e-3, 1e-3),  # F = 1 - z/3, c = a + b next to z = 1
    (-2.0, 3.1, 1.1, 0.999, None),
    (-3.0, -0.25, -3.25, 0.9999, None),
    (0.0, 2.5, 2.5, 0.99, None),
    (-2.0, 1.5, 3.0, 0.9, None),  # c = 2b with z > 0.75
    (-3.0, 0.5, 1.0, -0.7, None),  # c = 2b with z < 0
    (0.7, -4.0, -3.3, 0.98, None),
    (-5.0, 2.2, -2.8, -0.9, None),
])
def test_hyp2f1_terminating_series_matches_mpmath(a, b, c, z, u):
    # a or b = 0, -1, -2, ...: F is a polynomial, summed by the Gauss series
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = float(mpmath.hyp2f1(a, b, c, mpmath.mpf(z) if u is None else 1 - mpmath.mpf(u)))
    assert hyp2f1(a, b, c, z, u) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_digamma_matches_mpmath():
    # within 1e-15: absolute where |psi| < 1 (psi has a zero at x = 1.46),
    # relative above; a grid over (0, 40], the zero, and negative x
    mpmath = pytest.importorskip("mpmath")
    xs = np.concatenate([np.linspace(0.01, 40.0, 2000), [1e-8, 1.4616321449683623, 15.999, 16.0, -2.3, -0.5]])
    with mpmath.workdps(40):
        want = [mpmath.digamma(mpmath.mpf(float(x))) for x in xs]
        err = [abs(_kernels._digamma(x) - w) / max(1, abs(w)) for x, w in zip(xs, want)]
    assert float(max(err)) <= 1e-15
    for pole in (0.0, -3.0):
        with pytest.raises(PoleError, match="pole"):
            _kernels._digamma(pole)


def _log_case_coef_error(a, b, umax):
    """Largest relative error of the coefficients A_k and B_k of
    `log_case_coef` against DLMF 15.8.10 at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    coef_a, coef_b = _kernels.log_case_coef(a, b, umax)
    worst = 0.0
    with mpmath.workdps(40):
        am, bm = mpmath.mpf(a), mpmath.mpf(b)
        p = mpmath.gamma(am + bm) / (mpmath.gamma(am) * mpmath.gamma(bm))
        for k, (got_a, got_b) in enumerate(zip(coef_a, coef_b)):
            want_b = p * mpmath.rf(am, k) * mpmath.rf(bm, k) / mpmath.factorial(k) ** 2
            want_a = want_b * (2 * mpmath.digamma(k + 1) - mpmath.digamma(am + k) - mpmath.digamma(bm + k))
            worst = max(worst, float(abs(got_a / want_a - 1)), float(abs(got_b / want_b - 1)))
    return worst


@pytest.mark.parametrize("m2, tol", [(0.5, 1e-14), (2.0, 1e-14), (6.0, 2e-15), (30.0, 2e-15), (1000.0, 2e-15)])
def test_log_case_coef_matches_mpmath(m2, tol):
    # the (Delta, 1/2) coefficients of G_plus's diagonal piece; at light
    # masses D_k = A_k / B_k falls to 0.008 by k = 17 (m2 = 0.5), so a
    # fixed absolute error in D_0 is a larger relative one there
    assert _log_case_coef_error(ModelParams(m2).delta_plus, 0.5, _kernels.U_DIAG) <= tol


@pytest.mark.parametrize("m2", [0.5, 2.0, 6.0, 140.0, 1000.0])
def test_log_case_coef_matches_mpmath_for_the_closed_forms(m2):
    # the (Delta, Delta) coefficients `g_plus_forms` takes through hyp2f1,
    # out to the largest u of its log form, min(0.03, 1.44 / Delta^2)
    delta = ModelParams(m2).delta_plus
    assert _log_case_coef_error(delta, delta, min(0.03, 1.44 / delta**2)) <= 2e-15


def test_hyp2f1_domain():
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, -2.0, 0.5)


# ------------------------------------------------------------------- g_plus


def _legendre_q(nu, x):
    """Oracle: Legendre Q_nu(x) for integer nu by closed form + recurrence."""
    q0 = 0.5 * math.log((x + 1.0) / (x - 1.0))
    if nu == 0:
        return q0
    q1 = x * q0 - 1.0
    prev, cur = q0, q1
    for n in range(1, nu):
        prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
    return cur


def test_g_plus_legendre_identity_integer_weights():
    # m2 = 2, 6 give Delta_+ = 2, 3 exactly; the closed-form oracle itself
    # cancels catastrophically at large cosh, so compare where it is healthy
    for m2, nu in ((2.0, 1), (6.0, 2)):
        mp = ModelParams(m2)
        for rho in (0.06, 0.2, 0.7, 1.5, 3.0):
            oracle = _legendre_q(nu, math.cosh(rho)) / (2.0 * math.pi)
            assert abs(g_plus(mp, rho) - oracle) <= 1e-9 * oracle


def _legendre_g(mpmath, delta, rho):
    """Oracle: Q_{Delta-1}(cosh rho) / (2 pi) at the working precision of mpmath."""
    x = mpmath.cosh(mpmath.mpf(rho))
    return (mpmath.legenq(mpmath.mpf(delta) - 1, 0, x, type=3) / (2 * mpmath.pi)).real


def test_g_plus_legendre_identity_deep():
    # every rho from next to the diagonal to deep in the tail, at masses
    # from the massless limit to Delta_+ = 32, against 30-digit Legendre Q
    mpmath = pytest.importorskip("mpmath")
    rho = np.geomspace(1e-8, 40.0, 60)
    for m2 in (1e-12, 0.5, 2.0, 6.0, 20.0, 140.0, 1000.0):
        mp = ModelParams(m2)
        with mpmath.workdps(30):
            oracle = np.array([float(_legendre_g(mpmath, mp.delta_plus, r)) for r in rho])
        # below the smallest normal double only absolute accuracy has a meaning
        np.testing.assert_allclose(g_plus(mp, rho), oracle, rtol=1e-13, atol=np.finfo(float).tiny)


def test_g_plus_massless_limit():
    # Delta_+ -> 1: G_plus -> Q_0(cosh rho)/(2 pi); at cosh rho = 2 this is log(3)/(4 pi)
    mp = ModelParams(1e-12)
    rho = math.acosh(2.0)
    assert g_plus(mp, rho) == pytest.approx(math.log(3.0) / (4.0 * math.pi), abs=1e-9)


def test_g_plus_forms_agree():
    for m2 in (0.5, 2.0, 6.0):
        mp = ModelParams(m2)
        for rho in np.concatenate([np.linspace(0.05, 2.5, 30), np.linspace(3.0, 20.0, 15)]):
            g2, g3 = g_plus_forms(mp, float(rho))
            assert abs(g2 - g3) <= 1e-9 * abs(g2)
            assert abs(g_plus(mp, float(rho)) - g2) <= 1e-9 * abs(g2)


def test_g_plus_forms_match_legendre_next_to_the_diagonal():
    # both forms take the c = a + b log form where u = tanh^2(rho/2) <= 1e-3
    # and the quadratic transformation above it; at m2 = 1000 the log form
    # is 2e-7 off at rho = 0.335 (u = 0.028).  Past rho = 2 G2 sums the
    # quadratic transformation of -1/sinh^2(rho/2), where the direct
    # series alternates and is 8e-7 off at rho = 2.055
    mpmath = pytest.importorskip("mpmath")
    rho = np.concatenate([np.geomspace(1e-8, 20.0, 40), [0.335, 2.055]])
    for m2 in (2.0, 140.0, 1000.0):
        mp = ModelParams(m2)
        with mpmath.workdps(30):
            oracle = np.array([float(_legendre_g(mpmath, mp.delta_plus, r)) for r in rho])
        forms = np.array([g_plus_forms(mp, float(r)) for r in rho])
        assert np.max(np.abs(forms / oracle[:, None] - 1.0)) <= 1e-12


@pytest.mark.parametrize("m2, tol", [(0.5, 5e-15), (2.0, 5e-15), (1000.0, 2.1e-13)])
def test_g_plus_forms_keep_their_digits_past_the_log_cut(m2, tol):
    # u = tanh^2(rho/2) in (1e-3, 0.03): the log form's cut grows as Delta
    # falls, so light masses stay in it where the quadratic transformation
    # would lose 1e-13; at m2 = 1000 the cut sits at u = 1.4e-3
    mpmath = pytest.importorskip("mpmath")
    u = np.geomspace(1.0001e-3, 0.0299, 25)
    rho = 2.0 * np.arctanh(np.sqrt(u))
    mp = ModelParams(m2)
    with mpmath.workdps(40):
        oracle = np.array([float(_legendre_g(mpmath, mp.delta_plus, r)) for r in rho])
    forms = np.array([g_plus_forms(mp, float(r)) for r in rho])
    assert np.max(np.abs(forms / oracle[:, None] - 1.0)) <= tol


def test_g_plus_log_slope_small_rho():
    mp = ModelParams(2.0)
    rhos = np.geomspace(1e-6, 1e-4, 9)
    slope = np.polyfit(np.log(rhos), g_plus(mp, rhos), 1)[0]
    assert abs(slope + 1.0 / (2.0 * math.pi)) < 0.01 / (2.0 * math.pi)


def test_g_plus_decay_rate():
    mp = ModelParams(2.0)
    rate = -(math.log(g_plus(mp, 30.0)) - math.log(g_plus(mp, 25.0))) / 5.0
    assert abs(rate - mp.delta_plus) < 0.01 * mp.delta_plus


def test_g_plus_positive_decreasing():
    mp = ModelParams(0.5)
    rhos = np.linspace(0.01, 15.0, 300)
    vals = g_plus(mp, rhos)
    assert (vals > 0).all()
    assert (np.diff(vals) < 0).all()


def test_g_plus_diagonal_error():
    with pytest.raises(DiagonalSingularityError):
        g_plus(ModelParams(2.0), 0.0)
    with pytest.raises(DiagonalSingularityError):
        g_plus(ModelParams(2.0), np.array([0.5, -0.1]))


def test_g_plus_isometry_invariance(tess344_small):
    # factors through dist, so exact by construction; spot-check anyway
    mp = ModelParams(2.0)
    g = tess344_small.mats[7]
    a, b = tess344_small.centroids[0], tess344_small.centroids[2]
    assert g_plus(mp, dist(normalize(g @ a), normalize(g @ b))) == pytest.approx(
        g_plus(mp, dist(a, b)), rel=1e-12
    )


# -------------------------------------------------- G_plus interpolant


@_masses_on_h2([1e-12, 0.5, 2.0, 6.0, 20.0])
def test_gplus_interpolant_matches_series(m2):
    mp = ModelParams(m2)
    rho = np.linspace(1e-8, 60.0, 20_001)
    vals = _kernels.gplus_array(rho, mp)
    assert (np.diff(vals) < 0).all()
    assert np.max(np.abs(vals / _kernels.gplus_series(rho, mp) - 1.0)) <= 2e-13


@pytest.mark.parametrize("m2", [1e-12, 0.5, 2.0, 6.0, 20.0, 140.0, 1000.0])
def test_gplus_continuous_at_splice(m2):
    # the far and near pieces meet at t = 0.6, the near and diagonal ones at
    # u = 1 - t^2 = U_DIAG; the tail piece's edge has a test of its own
    interp = ModelParams(m2).gplus_interp
    t_far = _kernels._FAR_PIECE[1]
    assert abs(interp.far(t_far) - interp.near(t_far)) <= 1e-13 * interp.near(t_far)
    t_diag = _kernels._NEAR_PIECE[1]
    diag = interp.diagonal(np.array([1.0 - t_diag**2]))[0]
    assert abs(interp.near(t_diag) - diag) <= 1e-13 * diag


def test_gplus_interpolant_built_once(monkeypatch):
    mp = ModelParams(2.0)
    interp = mp.gplus_interp
    assert isinstance(interp, _kernels.GplusInterpolant)

    def fail(*args):
        raise AssertionError("evaluation rebuilt the interpolant or summed the series")

    monkeypatch.setattr(_kernels, "GplusInterpolant", fail)
    monkeypatch.setattr(_kernels, "gplus_series", fail)
    monkeypatch.setattr(_kernels, "log_case_coef", fail)
    rho = np.geomspace(1e-8, 30.0, 100)
    _kernels.gplus_array(rho, mp)
    g_plus(mp, 1.5)
    g_plus(mp, 1e-3)
    assert mp.gplus_interp is interp


def test_model_params_logs_interpolant_build(caplog):
    with caplog.at_level(logging.INFO, logger="hypfield.greens"):
        mp = ModelParams(6.0)
    [record] = caplog.records
    msg = record.getMessage()
    assert "m2=6:" in msg
    assert f"{mp.gplus_interp.nodes} nodes" in msg
    assert f"max rel err {mp.gplus_interp.max_rel_err:.1e}" in msg


def test_interpolant_self_check_names_the_model(monkeypatch):
    # at m2 = 1000 (Delta_+ = 32) the interpolant builds and holds G_plus
    # where the alternating direct series used to lose digits
    mpmath = pytest.importorskip("mpmath")
    mp = ModelParams(1000.0)
    for rho in (2.149, 2.369):
        with mpmath.workdps(40):
            oracle = float(_legendre_g(mpmath, mp.delta_plus, rho))
        assert abs(g_plus(mp, rho) - oracle) <= 1e-13 * oracle
    monkeypatch.setattr(_kernels, "INTERP_RTOL", 0.0)
    with pytest.raises(PrecisionLossError, match=r"m2=1000\.0 misses"):
        ModelParams(1000.0)


_MASSES = [1e-12, 0.5, 2.0, 6.0, 20.0, 50.0, 80.0, 100.0, 120.0, 140.0, 150.0, 159.0, 200.0]


@_masses_on_h2(_MASSES)
def test_model_params_builds_for_every_supported_mass(m2):
    # the self-check holds at m2 and at every multiple of 0.5 between it
    # and the mass listed before it, so the ids cover 0.5, 1.0, ..., 200
    lower = _MASSES[_MASSES.index(m2) - 1] if m2 > _MASSES[0] else m2
    for m in np.union1d(np.arange(lower + 0.5, m2, 0.5), [m2]):
        mp = ModelParams(m)
        assert mp.gplus_interp.max_rel_err <= _kernels.INTERP_RTOL, m


@_masses_on_h2([1e-12, 2.0, 20.0, 159.0])
def test_gplus_tail_piece_continuous_at_its_edge(m2):
    interp = ModelParams(m2).gplus_interp
    s_edge = _kernels._TAIL_PIECE[1]
    tail = interp.tail(np.array([s_edge]))[0]
    far = interp.far(math.sqrt(s_edge))
    assert abs(tail - far) <= 1e-13 * far


# ---------------------------------------------------------------- G_Neumann


def test_truncation_views_the_prefix_of_the_ball(tess344_small, nt6, nt8):
    decay = generate(TriangleParams(3, 4, 4), ball_radius(TriangleParams(3, 4, 4), 8.0))
    nt_decay = NeumannTruncation(decay, 8.0)
    for nt in (nt6, nt8, nt_decay):
        assert np.shares_memory(nt._mats, nt.tess.mats)
        sel = nt.tess.centroid_rho <= ball_radius(nt.tess.params, nt.max_orbit_radius)
        assert np.array_equal(nt._mats, nt.tess.mats[sel])
    assert len(nt_decay._mats) == len(decay)  # the decay run sums over the whole ball


def test_truncation_copies_a_selection_that_is_no_prefix(tess344_big):
    tess = copy.copy(tess344_big)
    rho = tess.centroid_rho.copy()
    need = ball_radius(tess.params, 6.0)
    k = int(np.count_nonzero(rho <= need))
    rho[[k - 1, k]] = rho[[k, k - 1]]
    tess.centroid_rho = rho
    nt = NeumannTruncation(tess, 6.0, tail_tol=1e-2)
    sel = rho <= need
    assert not sel[k - 1] and sel[k]
    assert not np.shares_memory(nt._mats, tess.mats)
    assert nt._mats.flags.c_contiguous
    assert nt._mats.tobytes() == tess.mats[sel].tobytes()


def test_neumann_truncation_requires_enumeration(tess344_small):
    with pytest.raises(TruncationError):
        NeumannTruncation(tess344_small, 6.0)


def test_neumann_tail_bound_formula(nt6, mp2):
    dp = mp2.delta_plus
    expect = mp2.gamma_plus * nt6.empirical_a * math.exp((1 - dp) * 6.0) / (dp - 1.0)
    assert nt6.tail_bound(mp2) == pytest.approx(expect, rel=1e-12)


def test_g_neumann_cross_tile_zero(nt6, mp2):
    tess = nt6.tess
    x = tess.centroids[0]
    y = normalize(tess.mats[3] @ x)
    assert g_neumann(mp2, nt6, x, y) == 0.0


def test_g_neumann_dominates_identity_term(nt6, mp2):
    tess = nt6.tess
    rng = np.random.default_rng(3)
    xs = sample_tile_points(tess, 0, 20, rng)
    ys = sample_tile_points(tess, 0, 20, rng)
    for xv, yv in zip(xs, ys):
        x, y = normalize(xv), normalize(yv)
        if dist(x, y) < 1e-3:
            continue
        assert g_neumann(mp2, nt6, x, y) >= g_plus(mp2, dist(x, y))


def test_g_neumann_symmetry(nt6, mp2):
    tess = nt6.tess
    rng = np.random.default_rng(5)
    xs = sample_tile_points(tess, 0, 100, rng)
    ys = sample_tile_points(tess, 0, 100, rng)
    worst = 0.0
    for xv, yv in zip(xs, ys):
        x, y = normalize(xv), normalize(yv)
        if dist(x, y) < 1e-3:
            continue
        worst = max(worst, abs(g_neumann(mp2, nt6, x, y) - g_neumann(mp2, nt6, y, x)))
    assert worst < 1e-10


def test_g_neumann_diagonal_error(nt6, mp2):
    x = nt6.tess.centroids[0]
    with pytest.raises(DiagonalSingularityError):
        g_neumann(mp2, nt6, x, x)


def test_g_neumann_tail_tol_guard(tess344_big, mp2):
    nt = NeumannTruncation(tess344_big, 4.0, tail_tol=1e-9)
    x = tess344_big.centroids[0]
    y = normalize(0.9 * x + 0.1 * tess344_big.fund_vertices[1])
    with pytest.raises(TruncationError):
        g_neumann(mp2, nt, x, y)


# ------------------------------------------------------------------ Delta G


def test_delta_g_nonnegative_and_interior(nt6, mp2):
    tess = nt6.tess
    rng = np.random.default_rng(7)
    for v in sample_tile_points(tess, 0, 50, rng):
        assert delta_g(mp2, nt6, normalize(v)) >= 0.0
    # the Neumann covariance of two tiles: each carries the same block of
    # Galerkin cell averages, which integrate to 1/m^2 against the cell
    # weights, and the tiles decouple
    quad = build_quadrature(tess, [0, 1], 3)
    cov = build_covariance(mp2, nt6, quad, "neumann")
    first, second = quad.tile_mask(0), quad.tile_mask(1)
    assert np.array_equal(cov.matrix[np.ix_(first, first)], cov.matrix[np.ix_(second, second)])
    assert not cov.matrix[np.ix_(first, second)].any()
    assert np.abs(mp2.m2 * cov.matrix @ quad.weights - 1.0).max() <= 1e-12


def test_delta_g_truncation_stability(tess344_big, mp2):
    # value stable under raising the orbit radius, within the tail bound
    c1 = tess344_big.centroids[0]
    nt_lo = NeumannTruncation(tess344_big, 5.0, tail_tol=1e-1)
    nt_hi = NeumannTruncation(tess344_big, 7.0, tail_tol=1e-1)
    lo = delta_g(mp2, nt_lo, c1)
    hi = delta_g(mp2, nt_hi, c1)
    assert abs(hi - lo) <= nt_lo.tail_bound(mp2)


def test_delta_g_blows_up_toward_side(nt6, mp2):
    tess = nt6.tess
    c1 = tess.centroids[0]
    v = tess.fund_vertices
    side_mid = normalize(v[0] + v[1])
    vals = []
    for t in np.linspace(0.3, 0.98, 6):
        x = normalize((1 - t) * c1 + t * side_mid)
        vals.append(delta_g(mp2, nt6, x))
    assert all(b > a for a, b in zip(vals[-5:], vals[-4:]))


def test_delta_g_grows_like_the_log_of_the_side_gap(nt6, mp2):
    # next to a side the reflected image lies at rho proportional to the gap,
    # and G_plus ~ -ln(rho)/(2 pi): each decade of gap adds ln(10)/(2 pi);
    # a cut at c - 1 < 1e-12 dropped that image from a gap of 1e-6 on
    tess = nt6.tess
    c1 = tess.centroids[0]
    side_mid = normalize(tess.fund_vertices[0] + tess.fund_vertices[1])
    vals = []
    for gap in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearSingularWarning)
            vals.append(delta_g(mp2, nt6, normalize(gap * c1 + (1.0 - gap) * side_mid)))
    assert np.diff(vals) == pytest.approx(math.log(10.0) / (2.0 * math.pi), abs=1e-6)


def test_delta_g_near_side_warns(nt6, mp2):
    tess = nt6.tess
    c1 = tess.centroids[0]
    side_mid = normalize(tess.fund_vertices[0] + tess.fund_vertices[1])
    x = normalize(1e-10 * c1 + (1.0 - 1e-10) * side_mid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        delta_g(mp2, nt6, x)
    assert any(issubclass(w.category, NearSingularWarning) for w in caught)


# ------------------------------------------------------------------- audits


def test_symmetry_audit_exact_evenness(nt6, mp2):
    rep = neumann_symmetry_audit(mp2, nt6, side_index=0, t0=0.2, k=8)
    assert rep["max_violation"] < 1e-10  # orbit-radius truncation is exactly even
    assert rep["passed"]
    # f'(0) on the orbit would read only the rounding max_violation bounds
    assert "fprime0" not in rep and "fixed_set_fprime0" in rep


def test_symmetry_audit_fixed_set_shrinks(tess344_big, mp2):
    nt4 = NeumannTruncation(tess344_big, 4.0, tail_tol=1.0)
    nt6b = NeumannTruncation(tess344_big, 6.0, tail_tol=1.0)
    r4 = neumann_symmetry_audit(mp2, nt4, side_index=0, t0=0.2, k=8)
    r6 = neumann_symmetry_audit(mp2, nt6b, side_index=0, t0=0.2, k=8)
    assert abs(r6["fixed_set_fprime0"]) <= 0.5 * abs(r4["fixed_set_fprime0"])
    assert r6["fixed_set_max_violation"] <= 0.5 * r4["fixed_set_max_violation"]


def test_two_element_group_exact_evenness(mp2, tess344_small):
    # degenerate strip group {e, reflection}: evenness is exact
    tess = tess344_small
    fund = tess.tiles[0]
    v = fund.side_normals[0]
    y0 = normalize(fund.vertex_vecs[0] + fund.vertex_vecs[1])
    mats = np.stack([np.eye(3), (np.eye(3) - 2.0 * np.outer(v, np.array([1, 1, -1]) * v))])
    x = fund.centroid
    xr = mats[1] @ x
    for t in (0.05, 0.1, 0.2):
        yp = math.cosh(t) * y0 + math.sinh(t) * v
        ym = math.cosh(-t) * y0 + math.sinh(-t) * v
        fp = _kernels.image_sum_block(xr[None], yp[None], mats, 50.0, mp2)[0, 0]
        fm = _kernels.image_sum_block(x[None], ym[None], mats, 50.0, mp2)[0, 0]
        assert abs(fp - fm) < 1e-13


def _image_distances(mats, x, y, rmax, skip_identity=False):
    """Per-image oracle: distances rho(x, g y) <= rmax, one matrix at a time.

    Below rho = 1.3 rho comes from <x - g y, x - g y> = 4 sinh^2(rho/2),
    which keeps the digits that acosh of the rounded Lorentz product loses
    next to the diagonal.
    """
    out = []
    for k, g in enumerate(mats):
        if skip_identity and k == 0:
            continue
        rho = math.acosh(max(-float(lorentz_dot(x, g @ y)), 1.0))
        if rho < 1.3:
            diff = x - g @ y
            rho = 2.0 * math.asinh(math.sqrt(max(float(lorentz_dot(diff, diff)), 0.0)) / 2.0)
        if rho <= rmax:
            out.append(rho)
    return np.array(out)


def test_image_sums_match_per_image_oracle(nt6, mp2):
    mats, rmax = nt6._mats, nt6.max_orbit_radius
    assert np.array_equal(mats[0], np.eye(3))
    # two interior points and one 1e-4 of the way from a side midpoint, whose
    # reflected image is the near image the identity cut must keep
    c1 = nt6.tess.centroids[0]
    side_mid = normalize(nt6.tess.fund_vertices[0] + nt6.tess.fund_vertices[1])
    near_side = normalize(1e-4 * c1 + (1.0 - 1e-4) * side_mid)
    interior = sample_tile_points(nt6.tess, 0, 2, np.random.default_rng(11), min_side_gap=0.05)
    pts = np.vstack([interior, near_side])
    xs, ys = pts[:1], pts[1:]
    block = _kernels.image_sum_block(xs, ys, mats, rmax, mp2)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            rho = _image_distances(mats, x, y, rmax)
            assert 0 < rho.size < len(mats)  # the radius cut drops images
            assert block[i, j] == pytest.approx(_kernels.gplus_series(rho, mp2).sum(), rel=1e-12)
    sums = _kernels.image_sum_self(pts, mats, rmax, mp2)
    for i, x in enumerate(pts):
        rho = _image_distances(mats, x, x, rmax, skip_identity=True)
        assert sums[i] == pytest.approx(_kernels.gplus_series(rho, mp2).sum(), rel=1e-12)


def _edge_points(tess):
    """A point 1e-4 of the way from a side midpoint, one 1e-3 from a vertex."""
    c1 = tess.centroids[0]
    side_mid = normalize(tess.fund_vertices[0] + tess.fund_vertices[1])
    near_side = normalize(1e-4 * c1 + (1.0 - 1e-4) * side_mid)
    near_vertex = normalize(1e-3 * c1 + (1.0 - 1e-3) * tess.fund_vertices[1])
    return np.stack([near_side, near_vertex])


def test_same_set_block_matches_per_image_oracle(nt6, mp2):
    mats, rmax = nt6._mats, nt6.max_orbit_radius
    interior = sample_tile_points(nt6.tess, 0, 2, np.random.default_rng(17), min_side_gap=0.05)
    pts = np.vstack([interior, _edge_points(nt6.tess)])
    block = _kernels.image_sum_block(pts, pts, mats, rmax, mp2)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            # the diagonal leaves out the identity image: S[i, i] = Delta G(x_i)
            rho = _image_distances(mats, x, y, rmax, skip_identity=i == j)
            assert block[i, j] == pytest.approx(_kernels.gplus_series(rho, mp2).sum(), rel=1e-12)


def _unpruned_block(xs, ys, mats, rmax, mp):
    """Every image of every pair, with no reach test and no mirror."""
    out = np.empty((len(xs), len(ys)))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            coshes = -lorentz_dot(mats @ y, x)
            rho = np.arccosh(np.maximum(coshes[coshes <= math.cosh(rmax)], 1.0))
            out[i, j] = np.inf if (rho == 0.0).any() else _kernels.gplus_array(rho, mp).sum()
    return out


def test_reach_pruned_block_equals_unpruned_sum(nt8, mp2, tess344_big):
    mats, rmax = nt8._mats, nt8.max_orbit_radius
    cells = build_quadrature(tess344_big, [0], 3).points
    edge = _edge_points(tess344_big)
    for xs, ys in ((cells, cells), (edge[1:], cells), (cells[:2], edge)):
        block = _kernels.image_sum_block(xs, ys, mats, rmax, mp2)
        want = _unpruned_block(xs, ys, mats, rmax, mp2)
        off = np.ones(want.shape, dtype=bool)
        if xs is ys:
            # a same-set diagonal leaves out the identity image, mats[0]
            without = [_unpruned_block(x[None], x[None], mats[1:], rmax, mp2)[0, 0] for x in xs]
            assert np.max(np.abs(np.diag(block) / without - 1.0)) <= 1e-13
            off = ~np.eye(len(xs), dtype=bool)
        assert np.max(np.abs(block[off] / want[off] - 1.0)) <= 1e-13
    # the two-element strip group {e, reflection in side 0}
    fund = tess344_big.tiles[0]
    v = fund.side_normals[0]
    strip = np.stack([np.eye(3), np.eye(3) - 2.0 * np.outer(v, np.array([1.0, 1.0, -1.0]) * v)])
    y0 = normalize(fund.vertex_vecs[0] + fund.vertex_vecs[1])
    ys = np.stack([math.cosh(t) * y0 + math.sinh(t) * v for t in (-0.2, -0.05, 0.1)])
    xs = np.stack([fund.centroid, strip[1] @ fund.centroid])
    block = _kernels.image_sum_block(xs, ys, strip, 50.0, mp2)
    want = _unpruned_block(xs, ys, strip, 50.0, mp2)
    assert np.max(np.abs(block / want - 1.0)) <= 1e-13


def _moved(x, d, w):
    """The point at distance d from x along the direction of w."""
    v = w + lorentz_dot(w, x) * x  # tangent at x: <v, x> = 0
    v = v / math.sqrt(lorentz_dot(v, v))
    return math.cosh(d) * x + math.sinh(d) * v


def test_block_rows_without_terms_are_exactly_zero(nt6, mp2, tess344_big):
    mats = nt6._mats
    c = tess344_big.centroids[0]
    w = np.array([1.0, 0.3, 0.0])
    ys = np.stack([c, _moved(c, 0.05, np.array([0.0, 1.0, 0.0]))])
    # rows 0 and 1 reach the identity image of y_0 within rmax, rows 2 and 3
    # (the last) lie 0.27 from the centroid and reach no image: the nearest
    # image of the centroid but itself is 0.53 away
    xs = np.stack([_moved(c, 0.1, w), _moved(c, 0.15, -w), _moved(c, 0.27, w), _moved(c, 0.27, -w)])
    rmax = 0.2
    block = _kernels.image_sum_block(xs, ys, mats, rmax, mp2)
    want = _unpruned_block(xs, ys, mats, rmax, mp2)
    empty = want == 0.0
    assert empty[2:].all() and not empty[:2, 0].any()
    assert (block[empty] == 0.0).all()
    assert np.max(np.abs(block[~empty] / want[~empty] - 1.0)) <= 1e-13
    # a block with no term at all
    block = _kernels.image_sum_block(xs[2:], ys, mats, rmax, mp2)
    assert block.shape == (2, 2) and (block == 0.0).all()


def _in_every_piece():
    """Distances in the diagonal, near, far and tail pieces of the interpolant."""
    rho = np.concatenate([
        np.geomspace(1e-7, 0.05, 30),
        np.linspace(0.06, 0.5, 30),
        np.linspace(0.52, 3.4, 60),
        np.linspace(3.5, 14.0, 40),
    ])
    t = np.exp(-rho)
    assert (t > _kernels._NEAR_PIECE[1]).any() and (t * t <= _kernels._TAIL_PIECE[1]).any()
    assert ((t > _kernels._FAR_PIECE[1]) & (t <= _kernels._NEAR_PIECE[1])).any()
    assert ((t <= _kernels._FAR_PIECE[1]) & (t * t > _kernels._TAIL_PIECE[1])).any()
    return rho


@pytest.mark.parametrize("m2", [1e-12, 2.0, 20.0])
def test_gplus_cosh_entry_equals_rho_entry(m2):
    interp = ModelParams(m2).gplus_interp
    c = np.cosh(_in_every_piece())
    got = interp.from_cosh(c)
    want = interp(np.arccosh(c))
    assert np.max(np.abs(got / want - 1.0)) <= 1e-14


@_masses_on_h2([1e-12, 0.5, 2.0, 6.0, 20.0, 140.0, 1000.0])
def test_gplus_cosh_matches_series(m2):
    mp = ModelParams(m2)
    c = np.cosh(_in_every_piece())
    got = mp.gplus_interp.from_cosh(c)
    want = _kernels.gplus_series(np.arccosh(c), mp)
    assert np.max(np.abs(got / want - 1.0)) <= 2e-13
    # a coincident point, c = 1 or rounded below it, is the diagonal singularity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(mp.gplus_interp.from_cosh(np.array([1.0, 1.0 - 2.0**-53, 5.0]))[:2]).all()


def test_near_diagonal_terms_keep_their_digits(mp2, tess344_small):
    # the identity terms of the domination block's pairs, seeds 0-2: on the
    # diagonal piece (rho < 0.0527) c - 1 comes from <x - y, x - y>/2, not
    # from the rounded Lorentz product, which left them up to 1.6e-12 off
    mpmath = pytest.importorskip("mpmath")
    eye = np.eye(3)[None]
    checked = 0
    for seed in range(3):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
        xs = sample_tile_points(tess344_small, 0, 50, rng)
        ys = sample_tile_points(tess344_small, 0, 50, rng)
        block = _kernels.image_sum_block(xs, ys, eye, 6.0, mp2)
        c = -lorentz_dot(xs[:, None, :], ys[None, :, :])
        for i, j in zip(*np.nonzero(c < math.cosh(-0.5 * math.log1p(-_kernels.U_DIAG)))):
            with mpmath.workdps(40):
                x, y = ([mpmath.mpf(float(v)) for v in row] for row in (xs[i], ys[j]))

                def dot(a, b):
                    return a[0] * b[0] + a[1] * b[1] - a[2] * b[2]

                # the rows normalised onto the sheet, then Q_(Delta-1)(cosh rho) / (2 pi)
                cosh = -dot(x, y) / mpmath.sqrt(dot(x, x) * dot(y, y))
                want = float((mpmath.legenq(mp2.delta_plus - 1, 0, cosh, type=3) / (2 * mpmath.pi)).real)
            assert abs(block[i, j] / want - 1.0) <= 1e-14, (seed, i, j)
            checked += 1
    assert checked >= 20


def test_self_sums_next_to_a_side_keep_their_digits(mp2, tess344_small):
    # points of tile 0 whose nearest image lies on the diagonal piece
    # (rho < 0.0527): every image within 0.1, on the rows the kernel sums
    # over (x and its rounded images g x, normalised onto the sheet), against
    # Q_(Delta-1)(cosh rho) / (2 pi) at 40 digits; c - 1 of the rounded
    # Lorentz product left these sums up to 1.4e-9 off
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    xs = sample_tile_points(tess344_small, 0, 400, rng)
    mats = tess344_small.mats
    sums = _kernels.image_sum_self(xs, mats, 0.1, mp2)
    close = [i for i, x in enumerate(xs) if (_image_distances(mats, x, x, 0.1, skip_identity=True) < 0.0527).any()]
    assert len(close) >= 50

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] - a[2] * b[2]

    for i in close:
        with mpmath.workdps(40):
            x = [mpmath.mpf(float(v)) for v in xs[i]]
            want = 0
            for g in mats[1:]:
                y = [mpmath.mpf(float(v)) for v in g @ xs[i]]
                cosh = -dot(x, y) / mpmath.sqrt(dot(x, x) * dot(y, y))
                if cosh <= mpmath.cosh(0.1):
                    want += (mpmath.legenq(mp2.delta_plus - 1, 0, cosh, type=3) / (2 * mpmath.pi)).real
        assert abs(sums[i] / float(want) - 1.0) <= 1e-14, i


def test_image_sums_evaluate_tail_and_far_distances_without_chebval(monkeypatch, nt6, mp2, tess344_big):
    from numpy.polynomial import Chebyshev, chebyshev

    mats, rmax = nt6._mats, nt6.max_orbit_radius
    c = tess344_big.centroids[0]
    verts = tess344_big.fund_vertices
    # every image of a vertex lies 0.61 or more from the centroid, every
    # image of the centroid but itself 0.53 or more: tail and far pieces only
    near = math.log(1.0 / _kernels._FAR_PIECE[1])
    assert min(_image_distances(mats, c, y, rmax).min() for y in verts) > near
    assert _image_distances(mats, c, c, rmax, skip_identity=True).min() > near
    want_block = _kernels.image_sum_block(c[None], verts, mats, rmax, mp2)
    want_self = _kernels.image_sum_self(c[None], mats, rmax, mp2)

    def fail(*args):
        raise AssertionError("chebval evaluated a tail or far distance")

    monkeypatch.setattr(chebyshev, "chebval", fail)
    monkeypatch.setattr(Chebyshev, "_val", staticmethod(fail))
    assert np.array_equal(_kernels.image_sum_block(c[None], verts, mats, rmax, mp2), want_block)
    assert np.array_equal(_kernels.image_sum_self(c[None], mats, rmax, mp2), want_self)
    # the patch is live: the near piece still goes through chebval
    with pytest.raises(AssertionError, match="chebval"):
        g_plus(mp2, 0.3)


_BLAS_THREADS_SCRIPT = """
import hashlib, math, sys
import numpy as np
from hypfield import _kernels
from hypfield.fieldmc import build_quadrature
from hypfield.greens import ModelParams, NeumannTruncation, sample_tile_points
from hypfield.tessellation import TriangleParams, generate
mp = ModelParams(2.0)
tess = generate(TriangleParams(3, 4, 4), 8.0)
nt = NeumannTruncation(tess, 6.0, tail_tol=1e-2)
rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(7,)))
xs = sample_tile_points(tess, 0, 50, rng)
ys = sample_tile_points(tess, 0, 50, rng)
cells = build_quadrature(tess, [0], 3).points
for block in (
    _kernels.image_sum_block(xs, ys, nt._mats, 6.0, mp),
    _kernels.image_sum_block(cells, cells, nt._mats, 6.0, mp),
):
    print(hashlib.sha256(block.tobytes()).hexdigest())
"""


def test_image_sums_do_not_depend_on_the_blas_thread_count():
    # each column's Lorentz products are one BLAS matrix product; the
    # domination block (50 x 50 points) and the resolution-3 same-set block
    # must come out byte-equal on one and on two BLAS threads
    src = str(pathlib.Path(_kernels.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS_SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        hashes.append(done.stdout.split())
    assert len(hashes[0]) == 2 and hashes[0] == hashes[1]


def _thread_count_inputs(tess):
    """The domination block's 50 x 50 points (seed 0) and the resolution-3
    and resolution-6 cells of tile 0."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(7,)))
    xs = sample_tile_points(tess, 0, 50, rng)
    ys = sample_tile_points(tess, 0, 50, rng)
    cells = [build_quadrature(tess, [0], res).points for res in (3, 6)]
    return xs, ys, cells


def test_image_sums_do_not_depend_on_the_thread_count(monkeypatch, caplog, nt6, mp2, tess344_big):
    mats, rmax = nt6._mats, nt6.max_orbit_radius
    xs, ys, cells = _thread_count_inputs(tess344_big)
    shapes = [(xs, ys)] + [(c, c) for c in cells]
    pairs = len(xs) * len(ys) + sum(len(c) * (len(c) + 1) // 2 for c in cells)
    columns = len(ys) + sum(len(c) for c in cells)
    # the rows of each chunk a column is cut into: one `_row_sums` call a chunk
    chunks = []
    row_sums = _kernels._row_sums
    monkeypatch.setattr(_kernels, "_row_sums", lambda vals, counts: chunks.append(len(counts)) or row_sums(vals, counts))

    def run(threads):
        caplog.clear()
        chunks.clear()
        with caplog.at_level(logging.DEBUG, logger="hypfield._kernels"):
            blocks = [_kernels.image_sum_block(a, b, mats, rmax, mp2, threads=threads) for a, b in shapes]
        workers = [int(re.search(r", (\d+) workers, ", r.getMessage())[1]) for r in caplog.records]
        return blocks, workers

    blocks, workers = run(1)
    assert workers == [1] * 3
    assert len(chunks) == columns  # one worker takes a column whole
    # a block whose columns average less than _POOL_MIN_PRODUCTS products
    # stays on one worker: the resolution-3 block (26k products a column at
    # most); the domination and resolution-6 blocks (417k and 134k) go to
    # the pool
    assert run(2)[1] == [2, 1, 2]
    # every block on the pool, and the past-tail terms added to a run's sums
    # a chunk at a time, so that each addition adds zeros to the run's
    # other sums in between their tail-piece additions
    monkeypatch.setattr(_kernels, "_POOL_MIN_PRODUCTS", 0)
    monkeypatch.setattr(_kernels, "_PAST_TAIL_TERMS", 1)
    # a short switch interval interleaves the workers' Python steps finely
    interval = sys.getswitchinterval()
    for threads in (1, 2, 3, 5):
        sys.setswitchinterval(1e-5)
        try:
            blocks_t, workers_t = run(threads)
        finally:
            sys.setswitchinterval(interval)
        assert workers_t == [threads] * 3
        for got, want in zip(blocks_t, blocks):
            assert got.tobytes() == want.tobytes()
        # each row of a column lies in one chunk, and a chunk has two rows
        # or more but in a same-set block's first column, which has one
        assert sum(chunks) == pairs
        assert chunks.count(1) == len(cells) and min(chunks) == 1
        # a worker's share of the product budget cuts the columns
        assert (len(chunks) > columns) == (threads > 1)


def test_image_sum_block_buffers_do_not_grow_with_the_workers(nt6, mp2, tess344_big):
    # a run's chunk buffers hold `_CHUNK_PRODUCTS` products and its
    # past-tail list `_PAST_TAIL_TERMS` terms, both divided by the
    # workers, so that the runs' buffers together stay one worker's and a
    # run adds only its copies of the kept images and its own column sums:
    # on the domination block three more workers add less than one n x
    # images product matrix, and three workers peak below twice one's
    import tracemalloc

    mats, rmax = nt6._mats, nt6.max_orbit_radius
    xs, ys, _ = _thread_count_inputs(tess344_big)
    kept, _ = _kernels._within_reach(mats, xs, ys, rmax)
    peaks = {}
    for threads in (1, 3, 6):
        tracemalloc.start()
        try:
            _kernels.image_sum_block(xs, ys, mats, rmax, mp2, threads=threads)
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[6] - peaks[3] < len(xs) * len(kept) * 8
    assert peaks[3] < 2 * peaks[1]


def test_map_blocks_balances_its_runs_by_weight():
    runs = []

    def task(run):
        runs.append(run)
        return lambda: None

    # a same-set block's columns j = 1..49 sum j pairs each
    assert _kernels._map_blocks(task, range(1, 50), 2, np.arange(1, 50)) == 2
    assert runs[0] + runs[1] == list(range(1, 50))
    assert abs(sum(runs[0]) - sum(runs[1])) <= 49
    # equal weights: the runs differ in length by one at most, and a heavy
    # last span still leaves every worker a run
    runs.clear()
    assert _kernels._map_blocks(task, range(10), 3) == 3
    assert [len(r) for r in runs] == [3, 3, 4]
    runs.clear()
    assert _kernels._map_blocks(task, range(3), 3, [1, 1, 100]) == 3
    assert runs == [[0], [1], [2]]


def test_single_point_image_sums_start_no_executor(monkeypatch, nt6, mp2):
    import concurrent.futures

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a one-column image sum started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Refused)
    x, y = sample_tile_points(nt6.tess, 0, 2, np.random.default_rng(5), min_side_gap=0.05)
    assert g_neumann(mp2, nt6, x, y) > 0.0
    # a same-set block of one point holds Delta G, the image sum without the identity
    one = _kernels.image_sum_block(x[None], x[None], nt6._mats, nt6.max_orbit_radius, mp2)[0, 0]
    assert one > 0.0 and one == delta_g(mp2, nt6, x)


def test_self_sums_start_no_executor_even_past_the_pool_threshold(monkeypatch, nt6, mp2, tess344_big):
    import concurrent.futures

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("image_sum_self started a thread pool")

    cells = build_quadrature(tess344_big, [0], 3).points
    want = _kernels.image_sum_self(cells, nt6._mats, nt6.max_orbit_radius, mp2)
    monkeypatch.setattr(_kernels, "_POOL_MIN_PRODUCTS", 0)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Refused)
    assert np.array_equal(_kernels.image_sum_self(cells, nt6._mats, nt6.max_orbit_radius, mp2), want)


def test_leading_images_hold_every_term_past_the_tail_piece(nt6, tess344_big):
    # a term with rho < 3.45 comes from one of the first `near` images, so
    # the tail piece never sees it
    mats, rmax = nt6._mats, nt6.max_orbit_radius
    cells = build_quadrature(tess344_big, [0], 3).points
    edge = _edge_points(tess344_big)
    for xs, ys in ((cells, cells), (edge[1:], cells), (cells[:2], edge), (cells[:1], cells[:1])):
        kept, near = _kernels._within_reach(mats, xs, ys, rmax)
        coshes = -np.einsum("ia,kja->ijk", xs * [1.0, 1.0, -1.0], np.einsum("kab,jb->kja", kept, ys))
        past = coshes < _kernels._TAIL_COSH
        assert past[:, :, :near].any() and not past[:, :, near:].any()


def test_past_tail_terms_are_evaluated_together(monkeypatch, nt6, mp2, tess344_big):
    # the near piece costs about 0.2 ms a call whatever its size: the terms
    # past the tail piece are gathered over all columns (points) of a
    # worker's run, one run per worker
    cells = build_quadrature(tess344_big, [0], 3).points
    mats, rmax = nt6._mats, nt6.max_orbit_radius
    interp = mp2.gplus_interp
    calls = []
    near = interp.near
    monkeypatch.setattr(interp, "near", lambda t: calls.append(len(t)) or near(t))
    block = _kernels.image_sum_block(cells, cells, mats, rmax, mp2, threads=1)
    sums = _kernels.image_sum_self(cells, mats, rmax, mp2)
    assert len(calls) == 2 and min(calls) > 0
    calls.clear()
    monkeypatch.setattr(_kernels, "_POOL_MIN_PRODUCTS", 0)
    assert np.array_equal(_kernels.image_sum_block(cells, cells, mats, rmax, mp2, threads=2), block)
    assert len(calls) == 2 and min(calls) > 0
    calls.clear()
    # evaluating them whenever a few columns' or one point's terms are
    # pending gives the same bits: each sum takes one addition of its
    # past-tail terms
    monkeypatch.setattr(_kernels, "_PAST_TAIL_TERMS", 1)
    assert np.array_equal(_kernels.image_sum_block(cells, cells, mats, rmax, mp2), block)
    assert np.array_equal(_kernels.image_sum_self(cells, mats, rmax, mp2), sums)
    assert len(calls) > 4  # the patch is live


def _kernel_counts(caplog, name):
    """(points, pairs, passed, kept, scanned, terms, workers) from the one
    log line of `name`."""
    [msg] = [r.getMessage() for r in caplog.records if r.getMessage().startswith(name)]
    nums = re.match(
        rf"{name} (\S+) points, (\d+) pairs, (\d+) images passed, (\d+) kept by reach, "
        r"(\d+) products scanned, (\d+) terms summed, (\d+) workers, [0-9.]+ s$",
        msg,
    )
    assert nums, msg
    return nums.group(1), *(int(g) for g in nums.groups()[1:])


def test_image_sum_kernels_log_their_work(caplog, nt8, mp2, tess344_big):
    mats, rmax = nt8._mats, nt8.max_orbit_radius
    cells = build_quadrature(tess344_big, [0], 3).points
    n = len(cells)
    coshes = -np.einsum("ia,kja->ijk", cells, np.einsum("kab,jb->kja", mats, cells) * [1.0, 1.0, -1.0])
    within = (coshes <= math.cosh(rmax)).sum(axis=2)  # images per (i, j) pair
    with caplog.at_level(logging.DEBUG, logger="hypfield._kernels"):
        _kernels.image_sum_block(cells, cells, mats, rmax, mp2, threads=2)
    points, pairs, passed, kept, scanned, terms, workers = _kernel_counts(caplog, "image_sum_block")
    assert workers == 2
    assert points == f"{n}x{n}" and passed == len(mats)
    assert kept < 0.4 * len(mats)
    # the same-set block sums the pairs i <= j and no other, each diagonal
    # pair without its identity image
    assert pairs == n * (n + 1) // 2
    assert terms == within[np.triu_indices(n)].sum() - n
    # the per-column reach scans fewer products than every pair times every kept image
    assert terms <= scanned < 0.8 * pairs * kept
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hypfield._kernels"):
        _kernels.image_sum_self(cells, mats, rmax, mp2)
    points, pairs, passed, kept_self, scanned, terms, workers = _kernel_counts(caplog, "image_sum_self")
    # the self sums are the same loop with one pair a column, below the pool's threshold
    assert (points, pairs, passed, kept_self, workers) == (f"{n}x{n}", n, len(mats), kept, 1)
    assert terms == np.diag(within).sum() - n  # all but the identity images
    assert terms <= scanned <= n * kept


def test_domination_audit(nt6, mp2):
    rep = domination_audit(mp2, nt6, n_pairs=2500, seed=1)
    assert rep["passed"] and rep["violations"] == 0
    assert math.isfinite(rep["sup_ratio"])
    # empirical c stable under doubling the pair count
    rep2 = domination_audit(mp2, nt6, n_pairs=10_000, seed=1)
    assert rep2["sup_ratio"] <= 1.5 * rep["sup_ratio"]


# ---------------------------------------------------------------- integrals


def _gk_trapezoid_oracle(mp, k, q, n=200_000, rho_max=40.0):
    rho = np.linspace(1e-7, rho_max, n)
    vals = g_plus(mp, rho) ** (k * q) * np.sinh(rho)
    return (2.0 * math.pi * np.trapezoid(vals, rho)) ** (1.0 / q)


def test_gk_norm_against_trapezoid(mp2):
    mine = gk_norm(mp2, 1, 2.0)
    oracle = _gk_trapezoid_oracle(mp2, 1, 2.0)
    assert abs(mine - oracle) <= 1e-6 * oracle


def test_gk_norm_raw_integral_decreasing_in_k(mp2):
    raw = [gk_norm(mp2, k, 2.0) ** 2.0 for k in (1, 2, 3)]
    assert raw[0] > raw[1] > raw[2]


def test_gk_norm_validation(mp2):
    with pytest.raises(ValueError):
        gk_norm(mp2, 0, 2.0)
    with pytest.raises(ValueError):
        gk_norm(mp2, 1, 1.0)


def test_exp_kernel_alpha_zero(tess344_big, mp2):
    value, band = exp_kernel_integral(mp2, 0.0, tess344_big, [0], 0.05)
    area = math.pi / 6.0
    assert value + band == pytest.approx(area * area, rel=5e-3)


def test_exp_kernel_band_matches_legendre_quadrature(tess344_big, mp2):
    # the band rho <= mesh is where G_plus is next to its log singularity
    mpmath = pytest.importorskip("mpmath")
    alpha, mesh, resolution = 1.0, 0.05, 4
    _, band = exp_kernel_integral(mp2, alpha, tess344_big, [0], mesh, resolution=resolution)
    with mpmath.workdps(30):
        # the integrand tends to 0 as r -> 0, where Q is infinite; it is
        # below 1e-25 wherever cosh(r) rounds to 1 at 30 digits
        per_center = mpmath.quad(
            lambda r: (
                mpmath.exp(alpha**2 * _legendre_g(mpmath, mp2.delta_plus, r)) * mpmath.sinh(r)
                if mpmath.cosh(r) > 1 else 0
            ),
            [0, mesh],
        )
    area = build_quadrature(tess344_big, [0], resolution).weights.sum()
    assert abs(band / float(2 * mpmath.pi * per_center * area) - 1.0) <= 1e-10


def test_exp_kernel_monotone_in_alpha(tess344_big, mp2):
    totals = []
    for alpha in (0.0, 0.8, 1.6):
        v, b = exp_kernel_integral(mp2, alpha, tess344_big, [0], 0.05, resolution=12)
        totals.append(v + b)
    assert totals[0] < totals[1] < totals[2]


def test_exp_kernel_threshold(tess344_big, mp2):
    v, band = exp_kernel_integral(mp2, 0.95 * ALPHA_MAX, tess344_big, [0], 0.05, resolution=8)
    assert math.isfinite(band) and band > 0
    with pytest.raises(ThresholdError):
        exp_kernel_integral(mp2, 1.05 * ALPHA_MAX, tess344_big, [0], 0.05, resolution=8)
