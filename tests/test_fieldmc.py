import dataclasses
import json
import logging
import math
import pathlib
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from numpy.polynomial import hermite_e

from hypfield import fieldmc as fm
from hypfield.boundary import BoundarySource

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
    oracle = terms @ wg
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


def test_sample_fields_logs_its_work(caplog, cov_neumann):
    with caplog.at_level(logging.INFO, logger="hypfield.fieldmc"):
        fm.sample_fields(cov_neumann, 1_000, seed=9, batch_size=300, threads=2)
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


def test_z_ratio_marks_underflow_unreliable(mp2, nt6, tess344_big):
    # at lambda = 1e4 every exp(-v_h) underflows: the ratio is 0/0 or 0 and
    # the ESS NaN, which must not pass as reliable
    quad = fm.build_quadrature(tess344_big, [0], 2)
    h = BoundarySource.bump(math.pi / 6, math.pi / 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        res = fm.z_ratio(mp2, nt6, quad, ALPHA, 1e4, h, 200, seed=3)
    assert math.isnan(res.ess)
    assert res.unreliable is True


def test_z_ratio_samples_on_the_threads_it_is_given(caplog, mp2, nt6, tess344_big):
    # 20,000 samples are three sampling batches, enough for two workers
    quad = fm.build_quadrature(tess344_big, [0], 2)
    h = BoundarySource.bump(math.pi / 6, math.pi / 3)
    results = {}
    for threads in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="hypfield.fieldmc"):
            results[threads] = fm.z_ratio(mp2, nt6, quad, ALPHA, 0.1, h, 20_000, seed=3, threads=threads)
        assert f"3 batches, {threads} threads" in caplog.text
    assert results[2] == results[1]


def test_decay_matches_golden_seeds():
    # tests/data/eps_hat_seeds.json pins the decay run on seeds 0-9; a change
    # meant to move the physics regenerates it on purpose
    golden = json.loads((pathlib.Path(__file__).parent / "data" / "eps_hat_seeds.json").read_text())
    assert [g["seed"] for g in golden["runs"]] == list(range(10))
    for g in golden["runs"]:
        cfg = dataclasses.replace(fm.TrivialityConfig(), seed=g["seed"], **golden["triviality_run"])
        run = fm.triviality_run(cfg)
        assert run.records[-1].tile_ids == g["tile_ids"], g["seed"]
        assert run.summary().split(":")[0] == g["verdict"], g["seed"]
        assert run.eps_hat == pytest.approx(g["eps_hat"], rel=1e-12, abs=0.0), g["seed"]
