import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypfield.errors import ChartOverflowError, DegenerateGeodesicError
from hypfield.geometry import (
    DiskPoint,
    Geodesic,
    HalfPlanePoint,
    Isometry,
    Point,
    Sector,
    angle_at,
    convert,
    dist,
    geodesic_through,
    halfplane_z,
    in_sector,
    midpoint,
    origin,
    point_at,
    reflect_in,
    z_bound_check,
)

RNG = np.random.default_rng(20240811)


def random_point(rng=RNG, rho_max=3.0):
    return point_at(rng.uniform(0, 2 * math.pi), rng.uniform(0, rho_max))


def random_reflection(rng=RNG):
    theta, rho = rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 2.0)
    a = point_at(theta, rho)
    b = point_at(theta + rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0))
    return reflect_in(geodesic_through(a, b))


def test_dist_identity():
    assert dist(origin(), origin()) == 0.0


def test_dist_halfplane_example():
    # u = 1/2 for the pair (1,0),(1,1): rho = arccosh(1.5)
    a, b = HalfPlanePoint(1.0, 0.0), HalfPlanePoint(1.0, 1.0)
    assert dist(a, b) == pytest.approx(0.9624236501192069, abs=1e-12)


def test_dist_isometry_invariance():
    for _ in range(100):
        g = random_reflection() @ random_reflection()
        a, b = random_point(), random_point()
        assert dist(g.apply(a), g.apply(b)) == pytest.approx(dist(a, b), abs=1e-10)


def test_convert_origin():
    d = origin().to_disk()
    assert (d.x, d.y) == (0.0, 0.0)
    hp = DiskPoint(0.0, 0.0).to_halfplane()
    assert (hp.z, hp.zeta) == (1.0, 0.0)


def test_convert_preserves_distances():
    a, b = DiskPoint(0.0, 0.0), DiskPoint(0.5, 0.0)
    d_disk = dist(a, b)
    d_half = dist(a.to_halfplane(), b.to_halfplane())
    d_lor = dist(a.to_lorentz(), b.to_lorentz())
    assert d_half == pytest.approx(d_disk, abs=1e-10)
    assert d_lor == pytest.approx(d_disk, abs=1e-10)


def test_convert_roundtrips():
    worst = 0.0
    for _ in range(1000):
        p = random_point()
        d = convert(p, "disk")
        h = convert(p, "halfplane")
        pd = convert(d, "lorentz")
        ph = convert(h, "lorentz")
        scale = max(1.0, np.abs(p.vec).max())
        worst = max(worst, np.abs(pd.vec - p.vec).max() / scale, np.abs(ph.vec - p.vec).max() / scale)
        d2 = convert(convert(d, "halfplane"), "disk")
        worst = max(worst, abs(d2.x - d.x), abs(d2.y - d.y))
    assert worst < 1e-12


def test_halfplane_chart_keeps_digits_near_the_boundary():
    # x3 = (1 + z^2 + zeta^2) / (2 z) in closed form, with no renormalisation
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for k in range(1, 13):
            z = 10.0**-k
            for zeta in (0.0, 0.3, -2.0, 5.0):
                zm, tm = mpmath.mpf(z), mpmath.mpf(zeta)
                ref = mpmath.acosh((1 + zm**2 + tm**2) / (2 * zm))
                got = dist(origin(), HalfPlanePoint(z, zeta))
                assert abs(got - ref) <= 1e-15 * ref, (z, zeta)
                # and back: x1 + x3 is read off without cancellation for x1 < 0
                back = HalfPlanePoint(z, zeta).to_lorentz().to_halfplane()
                assert abs(back.z - z) <= 4 * eps * z and abs(back.zeta - zeta) <= 4 * eps * abs(zeta)
    # the disk chart keeps what 1 - |w|^2 keeps of float inputs
    with mpmath.workdps(40):
        for k in range(1, 10):
            for beta in np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False):
                x, y = (1.0 - 10.0**-k) * math.cos(beta), (1.0 - 10.0**-k) * math.sin(beta)
                w = mpmath.sqrt(mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2)
                ref = 2 * mpmath.atanh(w)
                got = dist(origin(), DiskPoint(x, y))
                assert abs(got - ref) <= 100 * eps / (1 - w) * ref, (k, beta)


def test_chart_overflow_errors():
    with pytest.raises(ChartOverflowError):
        DiskPoint(1.0, 0.0)
    with pytest.raises(ChartOverflowError):
        HalfPlanePoint(0.0, 2.0)
    with pytest.raises(ChartOverflowError):
        HalfPlanePoint(-1.0, 0.0)


def test_apply_identity_and_involution():
    p = random_point()
    assert np.abs(Isometry.identity().apply(p).vec - p.vec).max() < 1e-15
    for _ in range(100):
        r = random_reflection()
        q = r.apply(r.apply(p))
        # fp error scales with the squared matrix norm and the point height
        scale = max(1.0, float(np.abs(r.m).max()) ** 2 * p.vec[2])
        assert np.abs(q.vec - p.vec).max() < 1e-12 * scale


def test_reflection_in_horizontal_axis():
    refl = reflect_in(Geodesic([0.0, 1.0, 0.0]))
    d = refl.apply(DiskPoint(0.3, 0.2))
    assert (d.x, d.y) == pytest.approx((0.3, -0.2), abs=1e-14)
    assert refl.det_sign == -1


def test_reflection_fixes_geodesic_points():
    for _ in range(50):
        a, b = random_point(), random_point()
        if dist(a, b) < 1e-3:
            continue
        geo = geodesic_through(a, b)
        refl = reflect_in(geo)
        assert np.abs(refl.apply(a).vec - a.vec).max() < 1e-10 * max(1.0, a.vec[2])
        assert np.abs(refl.apply(b).vec - b.vec).max() < 1e-10 * max(1.0, b.vec[2])
        assert abs(geo.signed_eval(a)) < 1e-10


def _foot_by_minimization(geo, p):
    """Oracle: the closest point of a geodesic by golden-section search."""
    v = geo.v
    # pick any point on the geodesic and its tangent
    seed = np.array([0.0, 0.0, 1.0]) + 0.0
    w = seed - (np.dot(seed * np.array([1, 1, -1]), v)) * v
    w = w / math.sqrt(-(w[0] ** 2 + w[1] ** 2 - w[2] ** 2))
    t = np.cross(v, w) * np.array([1.0, 1.0, -1.0])
    t = t / math.sqrt(t[0] ** 2 + t[1] ** 2 - t[2] ** 2)

    def gamma(s):
        return Point.from_vec(math.cosh(s) * w + math.sinh(s) * t)

    lo, hi = -8.0, 8.0
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c1, c2 = hi - gr * (hi - lo), lo + gr * (hi - lo)
    f1, f2 = dist(gamma(c1), p), dist(gamma(c2), p)
    for _ in range(80):
        if f1 <= f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - gr * (hi - lo)
            f1 = dist(gamma(c1), p)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + gr * (hi - lo)
            f2 = dist(gamma(c2), p)
    return gamma((lo + hi) / 2.0)


def test_reflection_midpoint_is_foot():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = point_at(rng.uniform(0, 6.28), rng.uniform(0.2, 1.5))
        b = point_at(rng.uniform(0, 6.28), rng.uniform(0.2, 1.5))
        if dist(a, b) < 0.2:
            continue
        geo = geodesic_through(a, b)
        p = random_point(rng, rho_max=1.5)
        if abs(geo.signed_eval(p)) < 1e-3:
            continue
        mid = midpoint(p, reflect_in(geo).apply(p))
        assert abs(geo.signed_eval(mid)) < 1e-10
        foot = _foot_by_minimization(geo, p)
        assert dist(mid, foot) < 1e-6


def test_geodesic_through_real_axis():
    geo = geodesic_through(DiskPoint(0.0, 0.0), DiskPoint(0.5, 0.0))
    # the real-axis diameter has normal parallel to (0, 1, 0)
    assert abs(abs(geo.v[1]) - 1.0) < 1e-14
    assert abs(geo.v[0]) < 1e-14 and abs(geo.v[2]) < 1e-14
    n2 = geo.v[0] ** 2 + geo.v[1] ** 2 - geo.v[2] ** 2
    assert n2 == pytest.approx(1.0, abs=1e-14)


def test_geodesic_degenerate():
    p = random_point()
    with pytest.raises(DegenerateGeodesicError):
        geodesic_through(p, p)


def test_in_sector():
    s = Sector(0.5, 0.0, math.pi / 2)
    assert not in_sector(s, DiskPoint(0.0, 0.0))
    mid = math.pi / 4
    assert in_sector(s, DiskPoint(0.5 * math.cos(mid), 0.5 * math.sin(mid)))
    assert not in_sector(s, DiskPoint(0.6 * math.cos(3.0), 0.6 * math.sin(3.0)))


def test_z_bound_check_sector():
    s = Sector(0.5, 0.0, math.pi / 2)
    rep = z_bound_check(s, 10_000, seed=3)
    assert math.isfinite(rep["sup_z_exp_rho"])
    # stable under doubling: the first-half sup already saturates the bound
    assert rep["sup_z_exp_rho"] <= 1.10 * rep["sup_first_half"]


def test_hyperboloid_residual_chain():
    # walk under the (3,4,4) side reflections: bounded steps keep the chain
    # in the fp-representable region of the chart
    from hypfield.tessellation import TriangleParams, fundamental_triangle

    fund = fundamental_triangle(TriangleParams(3, 4, 4))
    refls = [reflect_in(s) for s in fund.sides]
    rng = np.random.default_rng(11)
    p = point_at(0.3, 0.9)
    for _ in range(100):
        p = refls[rng.integers(0, 3)].apply(p)
        assert p.hyperboloid_residual() < 1e-12


def test_group_closure_50_compositions():
    rng = np.random.default_rng(13)
    g = Isometry.identity()
    for _ in range(50):
        g = g @ random_reflection(rng)
    assert g.lorentz_residual() < 1e-10


def test_angle_at_right_angle():
    a = angle_at(origin(), point_at(0.0, 1.0), point_at(math.pi / 2, 1.0))
    assert a == pytest.approx(math.pi / 2, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0, 2 * math.pi),
    st.floats(0, 2.5),
    st.floats(0, 2 * math.pi),
    st.floats(0, 2.5),
    st.floats(0, 2 * math.pi),
    st.floats(0, 2.5),
)
def test_triangle_inequality(t1, r1, t2, r2, t3, r3):
    a, b, c = point_at(t1, r1), point_at(t2, r2), point_at(t3, r3)
    # near-coincident points put acosh in its sqrt(eps) noise regime
    assume(min(dist(a, b), dist(b, c), dist(a, c)) > 1e-6)
    assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-10


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 2 * math.pi), st.floats(0.01, 2.5))
def test_halfplane_z_positive(theta, rho):
    assert halfplane_z(point_at(theta, rho)) > 0.0
