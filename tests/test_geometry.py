import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypfield.errors import ChartOverflowError, DegenerateGeodesicError
from hypfield.geometry import (
    ETA,
    angle_at,
    disk_coords,
    disk_to_lorentz,
    dist,
    geodesic_normal,
    halfplane_coords,
    halfplane_to_lorentz,
    lorentz_dot,
    normalize,
    point_at,
    reflection,
    triangle_area,
)

O = np.array([0.0, 0.0, 1.0])  # the origin of the disk chart

RNG = np.random.default_rng(20240811)


def random_point(rng=RNG, rho_max=3.0):
    return point_at(rng.uniform(0, 2 * math.pi), rng.uniform(0, rho_max))


def random_reflection(rng=RNG):
    theta, rho = rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 2.0)
    a = point_at(theta, rho)
    b = point_at(theta + rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0))
    return reflection(geodesic_normal(a, b))


def test_dist_identity():
    assert dist(O, O) == 0.0


def test_dist_halfplane_example():
    # u = 1/2 for the pair (1,0),(1,1): rho = arccosh(1.5)
    a, b = halfplane_to_lorentz(1.0, 0.0), halfplane_to_lorentz(1.0, 1.0)
    assert dist(a, b) == pytest.approx(0.9624236501192069, abs=1e-12)


def test_dist_isometry_invariance():
    for _ in range(100):
        g = random_reflection() @ random_reflection()
        a, b = random_point(), random_point()
        assert dist(normalize(g @ a), normalize(g @ b)) == pytest.approx(dist(a, b), abs=1e-10)


def test_convert_origin():
    assert disk_coords(O) == (0.0, 0.0)
    assert halfplane_coords(disk_to_lorentz(0.0, 0.0)) == (1.0, 0.0)


def test_convert_preserves_distances():
    a, b = disk_to_lorentz(0.0, 0.0), disk_to_lorentz(0.5, 0.0)
    d_disk = dist(a, b)
    d_half = dist(halfplane_to_lorentz(*halfplane_coords(a)), halfplane_to_lorentz(*halfplane_coords(b)))
    d_lor = dist(disk_to_lorentz(*disk_coords(a)), disk_to_lorentz(*disk_coords(b)))
    assert d_half == pytest.approx(d_disk, abs=1e-10)
    assert d_lor == pytest.approx(d_disk, abs=1e-10)


def test_convert_roundtrips():
    worst = 0.0
    for _ in range(1000):
        p = random_point()
        d = disk_coords(p)
        h = halfplane_coords(p)
        pd = disk_to_lorentz(*d)
        ph = halfplane_to_lorentz(*h)
        scale = max(1.0, np.abs(p).max())
        worst = max(worst, np.abs(pd - p).max() / scale, np.abs(ph - p).max() / scale)
        d2 = disk_coords(halfplane_to_lorentz(*halfplane_coords(disk_to_lorentz(*d))))
        worst = max(worst, abs(d2[0] - d[0]), abs(d2[1] - d[1]))
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
                got = dist(O, halfplane_to_lorentz(z, zeta))
                assert abs(got - ref) <= 1e-15 * ref, (z, zeta)
                # and back: x1 + x3 is read off without cancellation for x1 < 0
                back_z, back_zeta = halfplane_coords(halfplane_to_lorentz(z, zeta))
                assert abs(back_z - z) <= 4 * eps * z and abs(back_zeta - zeta) <= 4 * eps * abs(zeta)
    # the disk chart keeps what 1 - |w|^2 keeps of float inputs
    with mpmath.workdps(40):
        for k in range(1, 10):
            for beta in np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False):
                x, y = (1.0 - 10.0**-k) * math.cos(beta), (1.0 - 10.0**-k) * math.sin(beta)
                w = mpmath.sqrt(mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2)
                ref = 2 * mpmath.atanh(w)
                got = dist(O, disk_to_lorentz(x, y))
                assert abs(got - ref) <= 100 * eps / (1 - w) * ref, (k, beta)


def test_chart_overflow_errors():
    with pytest.raises(ChartOverflowError):
        disk_to_lorentz(1.0, 0.0)
    with pytest.raises(ChartOverflowError):
        halfplane_to_lorentz(0.0, 2.0)
    with pytest.raises(ChartOverflowError):
        halfplane_to_lorentz(-1.0, 0.0)
    # at depth 40 the disk chart rounds the point onto the unit circle
    with pytest.raises(ChartOverflowError):
        disk_coords(np.array([math.sinh(40.0), 0.0, math.cosh(40.0)]))


def test_apply_identity_and_involution():
    p = random_point()
    assert np.abs(np.eye(3) @ p - p).max() < 1e-15
    for _ in range(100):
        r = random_reflection()
        q = normalize(r @ normalize(r @ p))
        # fp error scales with the squared matrix norm and the point height
        scale = max(1.0, float(np.abs(r).max()) ** 2 * p[2])
        assert np.abs(q - p).max() < 1e-12 * scale


def test_reflection_in_horizontal_axis():
    refl = reflection([0.0, 1.0, 0.0])
    d = disk_coords(normalize(refl @ disk_to_lorentz(0.3, 0.2)))
    assert d == pytest.approx((0.3, -0.2), abs=1e-14)
    assert np.linalg.det(refl) < 0


def test_reflection_fixes_geodesic_points():
    for _ in range(50):
        a, b = random_point(), random_point()
        if dist(a, b) < 1e-3:
            continue
        v = geodesic_normal(a, b)
        refl = reflection(v)
        assert np.abs(normalize(refl @ a) - a).max() < 1e-10 * max(1.0, a[2])
        assert np.abs(normalize(refl @ b) - b).max() < 1e-10 * max(1.0, b[2])
        assert abs(lorentz_dot(a, v)) < 1e-10


def _foot_by_minimization(v, p):
    """Oracle: the closest point of the geodesic with unit normal v by
    golden-section search."""
    # pick any point on the geodesic and its tangent
    seed = np.array([0.0, 0.0, 1.0]) + 0.0
    w = seed - (np.dot(seed * np.array([1, 1, -1]), v)) * v
    w = w / math.sqrt(-(w[0] ** 2 + w[1] ** 2 - w[2] ** 2))
    t = np.cross(v, w) * np.array([1.0, 1.0, -1.0])
    t = t / math.sqrt(t[0] ** 2 + t[1] ** 2 - t[2] ** 2)

    def gamma(s):
        return normalize(math.cosh(s) * w + math.sinh(s) * t)

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
        v = geodesic_normal(a, b)
        p = random_point(rng, rho_max=1.5)
        if abs(lorentz_dot(p, v)) < 1e-3:
            continue
        mid = normalize(p + normalize(reflection(v) @ p))
        assert abs(lorentz_dot(mid, v)) < 1e-10
        foot = _foot_by_minimization(v, p)
        assert dist(mid, foot) < 1e-6


def test_geodesic_through_real_axis():
    v = geodesic_normal(disk_to_lorentz(0.0, 0.0), disk_to_lorentz(0.5, 0.0))
    # the real-axis diameter has normal parallel to (0, 1, 0)
    assert abs(abs(v[1]) - 1.0) < 1e-14
    assert abs(v[0]) < 1e-14 and abs(v[2]) < 1e-14
    n2 = v[0] ** 2 + v[1] ** 2 - v[2] ** 2
    assert n2 == pytest.approx(1.0, abs=1e-14)


def test_geodesic_degenerate():
    p = random_point()
    with pytest.raises(DegenerateGeodesicError):
        geodesic_normal(p, p)


def test_z_bound_check_sector():
    # z(x) <= C exp(-rho(o, x)) on the sector r >= 0.5, beta in (0, pi/2)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(101,)))
    n = 10_000
    vals = np.empty(n)
    for i in range(n):
        r = rng.uniform(0.5, 1.0 - 1e-8)
        beta = rng.uniform(0.0, math.pi / 2)
        p = disk_to_lorentz(r * math.cos(beta), r * math.sin(beta))
        vals[i] = halfplane_coords(p)[0] * math.exp(dist(O, p))
    assert math.isfinite(vals.max())
    # stable under doubling: the first-half sup already saturates the bound
    assert vals.max() <= 1.10 * vals[: n // 2].max()


def test_hyperboloid_residual_chain():
    # walk under the (3,4,4) side reflections: bounded steps keep the chain
    # in the fp-representable region of the chart
    from hypfield.tessellation import TriangleParams, fundamental_triangle

    _, normals = fundamental_triangle(TriangleParams(3, 4, 4))
    refls = reflection(normals)
    rng = np.random.default_rng(11)
    p = point_at(0.3, 0.9)
    for _ in range(100):
        p = normalize(refls[rng.integers(0, 3)] @ p)
        # the defect of x1^2 + x2^2 - x3^2 = -1 cannot beat eps * x3^2
        assert abs(p[0] ** 2 + p[1] ** 2 - p[2] ** 2 + 1.0) / max(1.0, p[2] ** 2) < 1e-12


def test_group_closure_50_compositions():
    rng = np.random.default_rng(13)
    g = np.eye(3)
    for _ in range(50):
        g = g @ random_reflection(rng)
    # entries grow like e^rho, so the form defect is taken relative to |g|^2
    assert np.abs(g.T @ ETA @ g - ETA).max() / max(1.0, float(np.abs(g).max()) ** 2) < 1e-10


def test_angle_at_right_angle():
    a = angle_at(O, point_at(0.0, 1.0), point_at(math.pi / 2, 1.0))
    assert a == pytest.approx(math.pi / 2, abs=1e-12)


def test_triangle_area_is_the_angle_defect():
    # a right angle at the origin between legs of length 1
    rows = np.stack([O, point_at(0.0, 1.0), point_at(math.pi / 2, 1.0)])
    angles = [angle_at(rows[i], *np.delete(rows, i, axis=0)) for i in range(3)]
    assert triangle_area(rows) == math.pi - sum(angles)
    # tan(angle at a leg end) = tanh(1) / sinh(1) = 1 / cosh(1) in a right triangle
    assert triangle_area(rows) == pytest.approx(math.pi / 2 - 2 * math.atan(1 / math.cosh(1.0)), abs=1e-14)
    # the vertices need not lie on the hyperboloid
    assert triangle_area(3.0 * rows) == pytest.approx(triangle_area(rows), abs=1e-14)


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
    assert halfplane_coords(point_at(theta, rho))[0] > 0.0
