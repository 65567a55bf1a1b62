import dataclasses
import math

import numpy as np
import pytest

from hypfield import fieldmc as fm

ALPHA = 1.0
TILE_AREA_344 = math.pi / 6  # pi - (pi/3 + pi/4 + pi/4)


@pytest.fixture(scope="module")
def quad3(tess344_big):
    return fm.build_quadrature(tess344_big, [0], 3)


@pytest.fixture(scope="module")
def cov_neumann(mp2, nt6, quad3):
    return fm.build_covariance(mp2, nt6, quad3, "neumann")


@pytest.mark.parametrize("resolution", [1, 2, 3, 4])
def test_quadrature_weights_sum_to_tile_area(tess344_small, resolution):
    quad = fm.build_quadrature(tess344_small, [0], resolution)
    assert len(quad) == resolution**2
    assert quad.total_weight == pytest.approx(TILE_AREA_344, rel=1e-12)


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


def test_sampling_bit_identical_across_threads(cov_neumann, quad3):
    # 1000 samples in batches of 300: four batches, the last one short
    serial = fm.sample_fields(cov_neumann, 1_000, seed=9, batch_size=300, threads=1)
    pooled = fm.sample_fields(cov_neumann, 1_000, seed=9, batch_size=300, threads=2)
    x1 = fm.wick_exp(serial, cov_neumann, quad3, ALPHA)
    x2 = fm.wick_exp(pooled, cov_neumann, quad3, ALPHA)
    assert len(x1) == 1_000
    assert np.array_equal(x1, x2)


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


def test_ci95_low_uses_student_t():
    # one-sided 95% Student t quantile on SLOPE_BATCHES - 1 = 9 degrees of freedom
    assert fm.SLOPE_BATCHES == 10
    assert fm.T95 == pytest.approx(1.8331, abs=5e-5)
    run = _small_run()
    assert math.isfinite(run.eps_stderr) and run.eps_stderr > 0.0
    assert run.ci95_low == pytest.approx(run.eps_hat - 1.8331 * run.eps_stderr, abs=1e-4 * run.eps_stderr)
    assert run.passed is (run.ci95_low > 0.0)
