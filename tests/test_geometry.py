"""Hyperboloid geometry: oracles, closed forms, and property checks."""

import math
import pickle

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hyperpam import brownian, covariance, geometry, heatkernel, moments
from hyperpam.covariance import CovarianceModel, psd_check
from hyperpam.geometry import (
    HPoint, TangentVec, angle_at, cone_sets, distance, exp_map, log_map,
    minkowski_product, origin, triangle_deficit, uniform_sphere_direction,
)

SEED = 20260809


def test_minkowski_defining_identity():
    o = origin(3)
    assert minkowski_product(o.coords, o.coords) == pytest.approx(-1.0, abs=1e-15)


def test_minkowski_symmetry():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        assert minkowski_product(a, b) == pytest.approx(minkowski_product(b, a),
                                                        rel=1e-14, abs=1e-14)


def test_minkowski_hand_value():
    a = [1.0, 0.0, 0.0, math.sqrt(2.0)]
    b = [0.0, 1.0, 0.0, math.sqrt(2.0)]
    assert minkowski_product(a, b) == pytest.approx(-2.0, abs=1e-14)


def test_minkowski_dimension_mismatch():
    with pytest.raises(ValueError):
        minkowski_product([1.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0])


def test_hpoint_validation():
    with pytest.raises(ValueError):
        HPoint(np.array([0.0, 0.0, 0.0, -1.0]), 3)  # lower sheet
    with pytest.raises(ValueError):
        HPoint(np.array([1.0, 0.0, 0.0, 1.0]), 3)  # off the surface
    with pytest.raises(ValueError):
        HPoint(np.array([0.0, 0.0, 1.0]), 3)  # wrong length
    with pytest.raises(ValueError):
        HPoint(np.array([0.0, 1.0]), 1)  # dim too small


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hpoint_rejects_nonfinite_coordinates(bad):
    with pytest.raises(ValueError, match="finite"):
        HPoint(np.array([bad, 0.0, 0.0, 1.0]), 3)
    with pytest.raises(ValueError, match="finite"):
        HPoint(np.array([0.0, 0.0, 0.0, bad]), 3)


def test_distance_trivia():
    o = origin(3)
    assert distance(o, o) == 0.0
    y = HPoint([math.sinh(1.0), 0.0, 0.0, math.cosh(1.0)], 3)
    assert distance(y, o) == pytest.approx(1.0, abs=1e-12)


def test_distance_off_hyperboloid_rejected():
    o = origin(3)
    bad = np.array([0.0, 0.0, 0.0, 0.5])  # <bad,bad> = -0.25
    with pytest.raises(ValueError):
        distance(o.coords, bad)


_O3 = origin(3)
_P = geometry.points_from_polar(np.array(1.0), np.array([1.0, 0.0, 0.0]))
_Q = geometry.points_from_polar(np.array(1.0), np.array([0.0, 1.0, 0.0]))
_TP = CovarianceModel("truncated-power", alpha=0.5)

# entry point -> a call with one raw coordinate row replaced by p; exp_map's
# sigma = e2 is a unit vector Minkowski-orthogonal to every 4-coordinate row below
_SHEET_ENTRY_POINTS = {
    "distance-a": lambda p: distance(p, _O3.coords),
    "distance-b": lambda p: distance(_O3.coords, p),
    "exp_map": lambda p: exp_map(p, np.array([0.0, 1.0, 0.0, 0.0]), 1.0),
    "log_map": lambda p: log_map(p, _O3.coords),
    "angle_at": lambda p: angle_at(p, _P, _Q),
    "triangle_deficit": lambda p: triangle_deficit(p, _P, _Q),
    "uniform_sphere_direction": lambda p: uniform_sphere_direction(
        p, np.random.default_rng(SEED)),
    "transport_from_origin": lambda p: geometry.transport_from_origin(
        p, np.array([1.0, 0.0, 0.0])),
    "psd_check": lambda p: psd_check(_TP, [_O3.coords, p]),
    "evaluate": lambda p: _TP.evaluate(p, _O3),
}
_BAD_ROWS = {
    "off-sheet": np.array([5.0, 0.0, 0.0, 1.0]),
    "lower-sheet": np.array([0.0, 0.0, 0.0, -1.0]),
    "nan": np.array([0.0, 0.0, math.nan, 1.0]),
    "time-like-0": np.array([1.0, 0.0, 0.0, 0.0]),
    # <z,z> overflowed to inf, and inf > _REL_TOL * inf is false
    "huge": np.array([1e300, 0.0, 0.0, 1.0]),
    "length": origin(2).coords,
}


# a base alone has no length to disagree with: uniform_sphere_direction of a
# point of H^2 is a direction of H^2
@pytest.mark.parametrize("entry,row", [
    (entry, row) for entry in sorted(_SHEET_ENTRY_POINTS) for row in _BAD_ROWS
    if (entry, row) != ("uniform_sphere_direction", "length")])
def test_every_entry_point_refuses_a_row_off_the_sheet(entry, row):
    # distance tested -<a, b> >= 1 on the pair only, so it read 2.31 from o to
    # the off-sheet row and NaN from the NaN row; exp_map and
    # uniform_sphere_direction tested no base and returned coordinates
    match = None if row == "length" else "off the hyperboloid"
    with pytest.raises(ValueError, match=match):
        _SHEET_ENTRY_POINTS[entry](_BAD_ROWS[row])


@pytest.mark.parametrize("rho", [400.0, 700.0])
def test_far_points_pass_the_sheet_test(rho):
    # squaring coordinates past rho ~ 355 overflowed: HPoint raised numpy's
    # RuntimeWarning, and without it passed on an inf comparison
    for u in np.eye(3):
        p = HPoint(geometry.points_from_polar(np.array(rho), u), 3)
        assert distance(_O3, p) == pytest.approx(rho, rel=1e-14)
        assert distance(p.coords, _O3.coords) == pytest.approx(rho, rel=1e-14)


def test_distance_vs_geodesic_shooting_oracle():
    """Integrate the geodesic ODE gamma'' = gamma for the claimed arclength and
    check it lands on the target point."""
    rng = np.random.default_rng(SEED)
    o = origin(3)
    for _ in range(20):
        a_pt = exp_map(o, uniform_sphere_direction(o, rng), rng.uniform(0, 3))
        b_pt = exp_map(o, uniform_sphere_direction(o, rng), rng.uniform(0, 3))
        rho = float(distance(a_pt, b_pt))
        if rho < 1e-6:
            continue
        u, _ = log_map(a_pt, b_pt)

        def rhs(s, y):
            return np.concatenate([y[4:], y[:4]])

        sol = solve_ivp(rhs, (0.0, rho), np.concatenate([a_pt.coords, u.vec]),
                        rtol=1e-12, atol=1e-12)
        end = sol.y[:4, -1]
        assert np.max(np.abs(end - b_pt.coords)) < 1e-8 * max(1.0, b_pt.coords[-1])


def test_exp_map_identity_and_closed_form():
    o = origin(3)
    rng = np.random.default_rng(SEED)
    sig = uniform_sphere_direction(o, rng)
    assert np.allclose(exp_map(o, sig, 0.0).coords, o.coords)
    e1 = TangentVec(o, np.array([1.0, 0.0, 0.0, 0.0]))
    p = exp_map(o, e1, 1.0)
    assert np.allclose(p.coords, [math.sinh(1.0), 0.0, 0.0, math.cosh(1.0)],
                       atol=1e-14)


def test_exp_map_roundtrip_property():
    rng = np.random.default_rng(SEED)
    o = origin(3)
    base = exp_map(o, uniform_sphere_direction(o, rng), 1.7)
    for _ in range(1000):
        rho = rng.uniform(0.0, 30.0)
        sig = uniform_sphere_direction(base, rng)
        assert distance(base, exp_map(base, sig, rho)) == pytest.approx(
            rho, abs=1e-9 * max(1.0, rho))


def test_exp_map_rejects_bad_inputs():
    o = origin(3)
    with pytest.raises(ValueError):
        exp_map(o, TangentVec(o, np.array([1.0, 0.0, 0.0, 0.0])), -1.0)
    with pytest.raises(ValueError):
        exp_map(o.coords, np.array([2.0, 0.0, 0.0, 0.0]), 1.0)  # non-unit
    # a NaN length returned NaN coordinates from a raw base
    with pytest.raises(ValueError, match="rho must be nonnegative"):
        exp_map(o.coords, np.array([1.0, 0.0, 0.0, 0.0]), math.nan)
    # a unit tangent vector at p = exp_o(2 e1) is not tangent at o; the final
    # projection onto the hyperboloid used to hide that and land 2.19 from o
    v = log_map(exp_map(o, TangentVec(o, np.array([1.0, 0.0, 0.0, 0.0])), 2.0), o)[0]
    for base, sigma in ((o, v), (o.coords, v.vec)):
        with pytest.raises(ValueError, match="not tangent"):
            exp_map(base, sigma, 1.0)


def test_log_map_inverts_exp_map():
    rng = np.random.default_rng(SEED)
    o = origin(3)
    for _ in range(200):
        rho = rng.uniform(1e-3, 30.0)
        sig = uniform_sphere_direction(o, rng)
        u, r = log_map(o, exp_map(o, sig, rho))
        assert r == pytest.approx(rho, abs=1e-8 * max(1.0, rho))
        assert np.max(np.abs(u.vec - sig.vec)) < 1e-8


def test_angle_trivia():
    rng = np.random.default_rng(SEED)
    o = origin(3)
    sig = uniform_sphere_direction(o, rng)
    p = exp_map(o, sig, 2.0)
    # the angle between coincident targets is zero up to the distance noise
    # floor sqrt(eps) * cosh(rho)
    assert angle_at(o, p, p) == pytest.approx(0.0, abs=1e-6)
    anti = TangentVec(o, -sig.vec)
    q = exp_map(o, anti, 1.3)
    assert angle_at(o, p, q) == pytest.approx(math.pi, abs=1e-6)
    with pytest.raises(ValueError):
        angle_at(o, o, p)


def test_angle_law_of_cosines_oracle():
    rng = np.random.default_rng(SEED)
    n = 4000
    va = geometry.random_points(n, 3, rng, max_radius=1.5)
    vb = geometry.random_points(n, 3, rng, max_radius=1.5)
    vc = geometry.random_points(n, 3, rng, max_radius=1.5)
    a = distance(vb, vc)
    b = distance(va, vc)
    c = distance(va, vb)
    ang = angle_at(va, vb, vc)
    resid = np.cosh(a) - (np.cosh(b) * np.cosh(c)
                          - np.sinh(b) * np.sinh(c) * np.cos(ang))
    assert np.max(np.abs(resid) / np.cosh(a)) < 1e-8


def test_angle_matches_logmap_inner_product():
    """The half-angle evaluation agrees with the tangent-space definition."""
    rng = np.random.default_rng(SEED)
    o = origin(3)
    for _ in range(200):
        p = exp_map(o, uniform_sphere_direction(o, rng), rng.uniform(0.1, 4.0))
        q = exp_map(o, uniform_sphere_direction(o, rng), rng.uniform(0.1, 4.0))
        up, _ = log_map(o, p)
        uq, _ = log_map(o, q)
        ref = math.acos(float(np.clip(minkowski_product(up.vec, uq.vec), -1, 1)))
        assert angle_at(o, p, q) == pytest.approx(ref, abs=1e-7)


def test_triangle_deficit_collinear():
    # C beyond B on the ray from A; the vertex between them sees angle pi
    o = origin(3)
    e1 = TangentVec(o, np.array([1.0, 0.0, 0.0, 0.0]))
    b = exp_map(o, e1, 1.0)
    c = exp_map(o, e1, 2.0)
    out = triangle_deficit(b, o, c)
    assert out["deficit"] == pytest.approx(0.0, abs=1e-10)
    assert out["bound"] == pytest.approx(0.0, abs=1e-6)


def test_triangle_deficit_right_angle_bound():
    o = origin(3)
    b = exp_map(o, TangentVec(o, np.array([1.0, 0.0, 0.0, 0.0])), 1.2)
    c = exp_map(o, TangentVec(o, np.array([0.0, 1.0, 0.0, 0.0])), 0.8)
    out = triangle_deficit(o, b, c)
    assert out["angle"] == pytest.approx(math.pi / 2, abs=1e-12)
    assert out["bound"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert 0.0 <= out["deficit"] <= out["bound"]


def test_triangle_deficit_small_angle_sentinel():
    # nearly collinear forward: angle ~ 0, bound reported as +inf
    o = origin(3)
    e1 = TangentVec(o, np.array([1.0, 0.0, 0.0, 0.0]))
    b = exp_map(o, e1, 1.0)
    c = exp_map(o, e1, 2.0)
    out = triangle_deficit(o, b, c)
    assert math.isinf(out["bound"])
    with pytest.raises(ValueError):
        triangle_deficit(o, o, b)


def test_reverse_triangle_property():
    rng = np.random.default_rng(SEED)
    n = 30000
    va = geometry.random_points(n, 3, rng, max_radius=8.0)
    vb = geometry.random_points(n, 3, rng, max_radius=8.0)
    vc = geometry.random_points(n, 3, rng, max_radius=8.0)
    deficit = distance(va, vc) + distance(va, vb) - distance(vb, vc)
    ang = angle_at(va, vb, vc)
    keep = ang >= 1e-3
    bound = math.log(2.0) - np.log1p(-np.cos(ang[keep]))
    assert np.min(deficit[keep]) >= 0.0
    assert np.max(deficit[keep] - bound) <= 1e-6


def test_triangle_inequality_property():
    rng = np.random.default_rng(SEED)
    n = 100000
    a = geometry.random_points(n, 3, rng, max_radius=10.0)
    b = geometry.random_points(n, 3, rng, max_radius=10.0)
    c = geometry.random_points(n, 3, rng, max_radius=10.0)
    excess = distance(a, c) - distance(a, b) - distance(b, c)
    assert np.max(excess) <= 1e-8


def test_cone_sets_basics():
    caps = cone_sets(3)
    a, b = caps["A"], caps["B"]
    assert float(np.arccos(np.dot(a.axis, b.axis))) == pytest.approx(math.pi)
    assert caps["min_pair_angle"] == pytest.approx(3 * math.pi / 4)
    # membership: 0.3 rad < pi/8 ~ 0.3927 off-axis is inside
    v = np.array([math.cos(0.3), math.sin(0.3), 0.0])
    assert a.contains(v)
    assert not a.contains(np.array([math.cos(0.5), math.sin(0.5), 0.0]))
    with pytest.raises(ValueError):
        cone_sets(1)


def test_cone_localization_property():
    rng = np.random.default_rng(SEED)
    caps = cone_sets(3)
    n = 10000
    y = geometry.points_from_polar(rng.uniform(0, 30, n), caps["A"].sample(rng, n))
    z = geometry.points_from_polar(rng.uniform(0, 30, n), caps["B"].sample(rng, n))
    o = origin(3).coords
    lhs = distance(y, z)
    rhs = np.maximum(distance(y, o), distance(z, o))
    assert np.min(lhs - rhs) >= -1e-9


def test_uniform_direction_is_unit_tangent():
    rng = np.random.default_rng(SEED)
    o = origin(3)
    base = exp_map(o, uniform_sphere_direction(o, rng), 2.2)
    for _ in range(100):
        v = uniform_sphere_direction(base, rng)
        assert v.norm() == pytest.approx(1.0, abs=1e-12)
        assert abs(minkowski_product(base.coords, v.vec)) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_uniform_direction_angular_density(d):
    """Angle to a fixed axis has density ~ sin^{d-2}; chi^2 at the 1% level."""
    rng = np.random.default_rng(SEED + d)
    o = origin(d)
    n = 100000
    vecs = np.stack([uniform_sphere_direction(o, rng).vec[:d] for _ in range(2000)])
    # bulk draws through the same transport map used by the samplers
    more = geometry.random_directions(n - 2000, d, rng)
    vecs = np.vstack([vecs, more])
    ang = np.arccos(np.clip(vecs[:, 0], -1.0, 1.0))
    k = 20
    if d == 3:
        edges = np.arccos(1.0 - 2.0 * np.arange(k + 1) / k)
    else:
        edges = np.linspace(0.0, math.pi, k + 1)
    counts, _ = np.histogram(ang, bins=edges)
    expected = n / k
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi2_{19} 1% critical value
    assert chi2 < 36.19


def test_sampled_points_stay_on_sheet():
    rng = np.random.default_rng(SEED)
    pts = geometry.random_points(50000, 3, rng, max_radius=30.0)
    q = minkowski_product(pts, pts)
    # representation noise of <z,z>+1 scales with cosh^2(rho)
    assert np.max(np.abs(q + 1.0) / np.maximum(1.0, pts[:, -1] ** 2)) <= 1e-8
    assert np.min(pts[:, -1]) >= 1.0
    near = geometry.random_points(5000, 3, rng, max_radius=8.0)
    assert np.max(np.abs(minkowski_product(near, near) + 1.0)) <= 1e-8


def test_logsinh_matches_series_just_above_small_x():
    # log sinh x = log x + x^2/6 - x^4/180 + O(x^6); 1e-15 absolute, widened by
    # one ulp of the value, since doubles near log(1e-8) = -18.4 are 3.6e-15 apart
    x = np.geomspace(1e-8, 1e-3, 20001)
    series = np.log(x) + x**2 / 6.0 - x**4 / 180.0
    err = np.abs(geometry._logsinh(x) - series)
    assert np.all(err <= 1e-15 + np.spacing(np.abs(series)))


def test_exp_map_accepts_a_tangent_direction_at_a_far_base():
    # at rho = 30, <base, sigma> carries roundoff far above 1e-8 in absolute
    # terms; the tangency tolerance scales with base_d * max|sigma|
    rng = np.random.default_rng(SEED)
    u = geometry.random_directions(1, 3, rng)[0]
    base = geometry.points_from_polar(np.array(30.0), u)
    w = np.cross(u, rng.standard_normal(3))
    sigma = np.append(w / np.linalg.norm(w), 0.0)
    assert abs(minkowski_product(base, sigma)) > 1e-8
    # sigma is orthogonal to the geodesic from o, so cosh rho(o, q) = cosh 30 cosh 1
    # (hyperbolic Pythagoras)
    q = exp_map(base, sigma, 1.0)
    assert distance(origin(3), q) == pytest.approx(30.0 + math.log(math.cosh(1.0)), rel=1e-12)


def _far_points(rho, rng, n):
    """n HPoints at distance rho from o, in uniform directions."""
    return [HPoint(geometry.points_from_polar(np.array(rho), u), 3)
            for u in geometry.random_directions(n, 3, rng)]


@pytest.mark.parametrize("rho", [10.0, 20.0, 30.0, 60.0])
def test_uniform_direction_then_exp_map_at_far_bases(rho):
    # the unit-norm test was absolute and the TangentVec tangency test had no
    # base_d factor, so both refused valid directions this far from o.  The
    # coordinates resolve the distance from o, not from the base, so the
    # landing point is held to the triangle inequality
    rng = np.random.default_rng(SEED)
    o = origin(3)
    for base in _far_points(rho, rng, 25):
        for b in (base, base.coords):
            q = exp_map(b, uniform_sphere_direction(b, rng), 1.0)
            assert isinstance(q, HPoint) == (b is base)
            geometry._check_on_sheet(geometry._coords(q))
            assert rho - 1.0 - 1e-9 <= float(distance(o, q)) <= rho + 1.0 + 1e-9


@pytest.mark.parametrize("rho", [10.0, 20.0, 30.0, 60.0])
def test_log_map_then_exp_map_at_far_bases(rho):
    # exp_map sums cosh(r) base and sinh(r) u, both of size cosh(r) base_d, so
    # at a far base the round trip holds to the roundoff of that size
    rng = np.random.default_rng(SEED)
    for base in _far_points(rho, rng, 10):
        for p in (origin(3).coords, *geometry.random_points(3, 3, rng, max_radius=rho)):
            for b, target in ((base, HPoint(p, 3)), (base.coords, p)):
                u, r = log_map(b, target)
                q = geometry._coords(exp_map(b, u, r))
                assert np.max(np.abs(q - p)) <= 1e-12 * math.cosh(r) * base.coords[-1]


@pytest.mark.parametrize("rho", [10.0, 15.0, 20.0, 30.0])
def test_self_distance_at_far_points_is_zero(rho):
    # -<p, p> - 1 is roundoff of order eps cosh^2 rho: distance(p, p) raised
    # "off the hyperboloid" for most such p, or read up to 2 rho - 36
    rng = np.random.default_rng(SEED)
    for p in _far_points(rho, rng, 50):
        for x in (p, p.coords):
            assert distance(x, x) == 0.0


def test_distance_resolves_nearby_far_points_and_far_pairs():
    # arccosh(-<p, q>) was off by up to 2e-4 for points 1e-4 apart at rho = 10;
    # the radii and the angle at o resolve them, and serve far pairs as well
    rng = np.random.default_rng(SEED)
    for p in _far_points(10.0, rng, 25):
        q = exp_map(p, uniform_sphere_direction(p, rng), 1e-4)
        assert float(distance(p, q)) == pytest.approx(1e-4, abs=1e-6)
    for p in _far_points(60.0, rng, 5):
        assert float(distance(origin(3), p)) == pytest.approx(60.0, rel=1e-14)


def test_product_checks_refuse_a_base_component_at_a_far_base():
    # a product test sees a component of size 1 along the base only while
    # _REL_TOL * (2 cosh^2 rho - 1) < 1: out to rho ~ 12 (only to 9.6 at 1e-8)
    rng = np.random.default_rng(SEED)
    for base in _far_points(10.0, rng, 10):
        radial = base.coords.copy()
        radial[:-1] *= math.cosh(10.0) / math.sinh(10.0)
        radial[-1] = math.sinh(10.0)
        with pytest.raises(ValueError, match="not tangent"):
            TangentVec(base, base.coords)
        for b in (base, base.coords):
            with pytest.raises(ValueError, match="unit Minkowski norm"):
                exp_map(b, base.coords, 1.0)
            with pytest.raises(ValueError, match="unit Minkowski norm"):
                exp_map(b, 2.0 * radial, 1.0)
            exp_map(b, radial, 1.0)


def test_spherical_cap_refuses_bad_parameters():
    e1 = np.array([1.0, 0.0, 0.0])
    for half_angle in (0.0, -0.1, math.pi + 1e-9, math.nan):
        with pytest.raises(ValueError, match="half_angle"):
            geometry.SphericalCap(e1, half_angle)
    for axis in (2.0 * e1, np.zeros(3), np.full(3, math.nan)):
        with pytest.raises(ValueError, match="unit vector"):
            geometry.SphericalCap(axis, 0.5)
    assert geometry.SphericalCap(e1, math.pi).sample(np.random.default_rng(SEED), 4).shape \
        == (4, 3)


@pytest.mark.parametrize("rho", [10.0, 15.0, 20.0])
def test_far_pair_distance_from_radii_and_angle(rho):
    # two far points 10 apart: -<a, b> and the chord both carry roundoff of order
    # eps cosh^2 rho, so at rho = 20 most such pairs read 0 and nearly all were
    # off by more than 1; the radii and the angle at o lose nothing to cancellation
    rng = np.random.default_rng(0)
    bases = geometry.points_from_polar(np.full(1000, rho),
                                       geometry.random_directions(1000, 3, rng))
    sigma = geometry.transport_from_origin(bases, geometry.random_directions(1000, 3, rng))
    targets = exp_map(bases, sigma, 10.0)
    assert np.max(np.abs(distance(bases, targets) - 10.0)) <= 1e-5


@pytest.mark.parametrize("gap", [1e-7, 1e-6])
@pytest.mark.parametrize("rho", [0.0, 5.0, 10.0])
def test_log_map_of_a_nearby_target_is_tangent(rho, gap):
    # the time-like part of (target - cosh r base) / sinh r carried roundoff
    # eps / r, above the tangency tolerance, so log_map refused its own output
    # with "not tangent"; it now solves <base, u> = 0 for that part
    rng = np.random.default_rng(0)
    bases = [origin(3)] * 100 if rho == 0.0 else _far_points(rho, rng, 100)
    for base in bases:
        sigma = uniform_sphere_direction(base, rng)
        u, r = log_map(base, exp_map(base, sigma, gap))
        assert isinstance(u, TangentVec)
        assert r == pytest.approx(gap, rel=1e-3)


@pytest.mark.parametrize("rho", [20.0, 30.0])
def test_points_below_the_distance_floor_are_too_close(rho):
    # 1e-9 apart, below the eps sinh rho the coordinates resolve: the absolute
    # 1e-8 floor let log_map return a direction for most such pairs, with a
    # claimed distance up to the formula's floor
    rng = np.random.default_rng(0)
    o = origin(3)
    for p in _far_points(rho, rng, 100):
        q = exp_map(p, uniform_sphere_direction(p, rng), 1e-9)
        with pytest.raises(ValueError, match="too close"):
            log_map(p, q)
        with pytest.raises(ValueError, match="degenerate vertex"):
            angle_at(p, q, o)
        with pytest.raises(ValueError, match="pairwise distinct"):
            triangle_deficit(o, p, q)


@pytest.mark.parametrize("rho,gap", [(5.0, 1e-8), (5.0, 1e-7), (5.0, 1e-6), (10.0, 1e-8),
                                     (10.0, 1e-7)])
def test_exp_map_takes_every_direction_log_map_returns(rho, gap):
    # the spatial part of (target - cosh r base) / sinh r carries roundoff
    # eps |base| / r that nothing renormalized, so exp_map refused up to a
    # quarter of these directions as "sigma must have unit Minkowski norm"
    rng = np.random.default_rng(0)
    returned = 0
    for base in _far_points(rho, rng, 100):
        try:
            u, r = log_map(base, exp_map(base, uniform_sphere_direction(base, rng), gap))
        except ValueError as exc:
            assert "too close" in str(exc)
            continue
        returned += 1
        exp_map(base, u, r)
    assert returned >= 40


def test_parameter_error_names_its_argument_and_pickles():
    exc = geometry.ParameterError("dim", "dim must be an integer >= 2")
    assert isinstance(exc, ValueError)
    assert exc.args == ("dim", "dim must be an integer >= 2")
    assert str(exc) == "dim must be an integer >= 2"
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is geometry.ParameterError and back.args == exc.args


_O3 = origin(3)
_CFG3 = brownian.SamplerConfig(dim=3, step=1e-2)
_TP = CovarianceModel("truncated-power", alpha=2.0)
_FLAGS = [True, np.True_]


# the values geometry._positive refuses, with low=0 and without
_NONNEGATIVE = [*_FLAGS, math.nan, math.inf, -math.inf, -1.0]
_POSITIVE = [*_NONNEGATIVE, 0.0]


# NaN and +-inf were refused as "alpha must be finite" already
_ALPHA = [*_FLAGS, 0.0, -1.0]


# the distance arrays geometry._nonnegative refuses; NaN and inf pass, since an
# overflowed pair distance must reach the estimators that exclude it
_DISTANCES = [*_FLAGS, -math.inf, -1.0, [0.5, -1e-3]]


def _counts(low, high=None):
    """The values geometry._count(name, v, low, high) refuses; float(low) is not a count."""
    return [*_FLAGS, math.nan, math.inf, float(low), low - 1,
            *([] if high is None else [high + 1])]


# entry -> (parameter, call, refused values): every argument that one of the
# three rules checks
_RULE_ENTRY_POINTS = {
    "_schedule": ("t", lambda v: brownian._schedule(v, 1e-2), _POSITIVE),
    "sample_path": ("t", lambda v: brownian.sample_path(_O3, v, _CFG3), _POSITIVE),
    "exit_times-r": ("r", lambda v: brownian.exit_times(_O3, v, 0.1, _CFG3, 2), _POSITIVE),
    "event_indicators": ("delta", lambda v: brownian.event_indicators(
        brownian.sample_pair(_O3, 0.1, _CFG3), _O3, v, 0.1), _POSITIVE),
    "lower_incomplete_gamma": ("a", lambda v: covariance.lower_incomplete_gamma(v, 1.0),
                               _POSITIVE),
    "phi_alpha": ("alpha", lambda v: covariance.phi_alpha(1.0, v), _POSITIVE),
    "CovarianceModel-alpha-tp": ("alpha", lambda v: CovarianceModel("truncated-power",
                                                                    alpha=v), _ALPHA),
    "CovarianceModel-alpha-phi": ("alpha", lambda v: CovarianceModel("phi-alpha", alpha=v),
                                  _ALPHA),
    "CovarianceModel-C": ("C", lambda v: CovarianceModel("truncated-power", alpha=2.0, C=v),
                          _POSITIVE),
    "CovarianceModel-c": ("c", lambda v: CovarianceModel("constant", c=v), _POSITIVE),
    "log_hk_exact_d3": ("t", lambda v: heatkernel.log_hk_exact_d3(v, 1.0), _POSITIVE),
    "log_hk_envelope-t": ("t", lambda v: heatkernel.log_hk_envelope(v, 1.0, 3), _POSITIVE),
    "RadialLaw": ("t", heatkernel.RadialLaw, _POSITIVE),
    "sample_radial_exact_d3-t": ("t", lambda v: heatkernel.sample_radial_exact_d3(
        v, np.random.default_rng(SEED)), _POSITIVE),
    "exit_tail_estimate": ("r", lambda v: heatkernel.exit_tail_estimate(
        v, [0.05], 2, _CFG3), _POSITIVE),
    "PhaseRow": ("t", lambda v: moments.PhaseRow(1.0, 0.0, v, 0.0, 0.0, 2, "fk", 0),
                 _POSITIVE),
    "fk_second_moment-t": ("t", lambda v: moments.fk_second_moment(
        _O3, v, 0.5, _TP, 2, _CFG3), _POSITIVE),
    "fk_second_moment-beta": ("beta", lambda v: moments.fk_second_moment(
        _O3, 0.1, v, _TP, 2, _CFG3), _NONNEGATIVE),
    "m_f": ("r", lambda v: moments.m_f(_TP, v), _NONNEGATIVE),
    "HPoint": ("dim", lambda v: HPoint(_O3.coords, v), _counts(2)),
    "origin": ("d", geometry.origin, _counts(2)),
    "cone_sets": ("d", cone_sets, _counts(2)),
    "SamplerConfig-dim": ("dim", lambda v: brownian.SamplerConfig(dim=v),
                          _counts(2, brownian.MAX_DIM)),
    "SamplerConfig-seed": ("seed", lambda v: brownian.SamplerConfig(seed=v),
                           _counts(0, brownian.MAX_SEED)),
    "endpoints": ("n_paths", lambda v: brownian.endpoints(_O3, 0.1, _CFG3, v), _counts(1)),
    "pair_profile_matrix": ("n_paths", lambda v: brownian.pair_profile_matrix(
        _O3, _O3, 0.1, _CFG3, v, _TP.profile), _counts(1)),
    "exit_times-n_paths": ("n_paths", lambda v: brownian.exit_times(_O3, 1.0, 0.1, _CFG3, v),
                           _counts(1)),
    "PairEnsemble": ("n_paths", lambda v: moments.PairEnsemble(_O3, _TP, _CFG3, v, (0.1,)),
                     _counts(1)),
    "sample_radial_exact_d3-size": ("size", lambda v: heatkernel.sample_radial_exact_d3(
        1.0, np.random.default_rng(SEED), size=v), _counts(0)),
    "dirichlet_eigenvalue": ("d", lambda v: heatkernel.dirichlet_eigenvalue(1.0, v),
                             _counts(2, heatkernel.MAX_DIM)),
    "log_hk_envelope-d": ("d", lambda v: heatkernel.log_hk_envelope(1.0, 1.0, v), _counts(2)),
    "dyson_partial": ("n_terms", lambda v: moments.dyson_partial(
        _O3, 0.1, 0.5, _TP, v, 2, _CFG3), _counts(0, 8)),
    "psi": ("rho", covariance.psi, _DISTANCES),
    "lower_incomplete_gamma-x": ("x", lambda v: covariance.lower_incomplete_gamma(1.0, v),
                                 _DISTANCES),
    "profile-phi": ("rho", CovarianceModel("phi-alpha", alpha=2.0).profile, _DISTANCES),
    "profile-tp": ("rho", _TP.profile, _DISTANCES),
    "profile-constant": ("rho", CovarianceModel("constant").profile, _DISTANCES),
    "log_hk_exact_d3-rho": ("rho", lambda v: heatkernel.log_hk_exact_d3(1.0, v), _DISTANCES),
    "log_hk_envelope-rho": ("rho", lambda v: heatkernel.log_hk_envelope(1.0, v, 3),
                            _DISTANCES),
    # True ran as a geodesic of length 1
    "exp_map": ("rho", lambda v: exp_map(_O3, np.eye(4)[0], v),
                [True, math.nan, -1.0, geometry.MAX_RADIUS + 1.0]),
    # an end time of NaN or inf returned xi_t NaN
    "radial_statistics": ("t", lambda v: brownian.radial_statistics(brownian.BrownianPath(
        np.array([0.0, v]), np.vstack([_O3.coords, _O3.coords]), seed=0), _O3),
        [math.nan, math.inf, 0.5]),
    "psd_check": ("len(points)", lambda v: psd_check(_TP, v), [[], [_O3] * 501]),
    # size True drew one direction as a (1, 3) array, and 2.7 drew 2
    "SphericalCap.sample": ("size", lambda v: geometry.SphericalCap(np.eye(3)[0], 0.5).sample(
        np.random.default_rng(SEED), v), _counts(0)),
}


@pytest.mark.parametrize("entry,value", [
    (entry, value) for entry, (_, _, values) in _RULE_ENTRY_POINTS.items() for value in values])
def test_each_rule_refusal_names_its_parameter(entry, value):
    # a bool ran as 1 (or 0) at most of these, delta = inf passed, d = inf
    # raised an OverflowError, and seeds -1 and 2^64 drew seed 2^64 - 1's and 0's streams;
    # a float HPoint dim built, cone_sets(2.0) raised a TypeError and alpha = True ran as 1
    name, call, _ = _RULE_ENTRY_POINTS[entry]
    with pytest.raises(geometry.ParameterError) as info:
        call(value)
    assert info.value.args[0] == name
    assert str(info.value).startswith(f"{name} must be ")


# entry -> (parameter, low, high, call): every number geometry._positive bounds
# by low (None: above 0) or high (None: finite)
_INTERVAL_ENTRY_POINTS = {
    "SamplerConfig-step": ("step", None, 0.1, lambda v: brownian.SamplerConfig(step=v)),
    "dirichlet_eigenvalue": ("r", heatkernel.MIN_RADIUS, 100.0,
                             lambda v: heatkernel.dirichlet_eigenvalue(v, 3)),
    "critical_beta_exponential": ("r", None, 200.0, lambda v: moments.critical_beta_exponential(
        _TP, v, 3)),
    "SphericalCap": ("half_angle", None, math.pi,
                     lambda v: geometry.SphericalCap(np.eye(3)[0], v)),
    "event_indicators-s": ("s", None, 0.1, lambda v: brownian.event_indicators(
        brownian.sample_pair(_O3, 0.1, _CFG3), _O3, 1.0, v)),
    "lower_incomplete_gamma-a": ("a", np.finfo(float).tiny, None,
                                 lambda v: covariance.lower_incomplete_gamma(v, 1.0)),
    "lambda_constant": ("T_max", moments.MIN_T_MAX, None, lambda v: moments.lambda_constant(
        _TP, [(_O3, _O3)], v, 2, _CFG3)),
}


@pytest.mark.parametrize("entry,value", [
    (entry, value) for entry, (_, low, high, _) in _INTERVAL_ENTRY_POINTS.items()
    for value in [*_POSITIVE, *([] if low is None else [0.5 * low]),
                  *([] if high is None else [2.0 * high])]])
def test_each_interval_refusal_names_its_parameter_and_bound(entry, value):
    # a bool ran as 1: dirichlet_eigenvalue(True, 3) returned 10.8696, the cap
    # had a 1-radian half angle and event_indicators ran at s = 1
    name, low, high, call = _INTERVAL_ENTRY_POINTS[entry]
    with pytest.raises(geometry.ParameterError) as info:
        call(value)
    assert info.value.args[0] == name
    rule = f"be finite and at least {low:g}" if high is None else \
        f"lie in {'(0' if low is None else f'[{low:g}'}, {high:g}]"
    assert str(info.value) == f"{name} must {rule}, got {value}"


def test_tangent_vector_and_geodesic_length_refusals():
    with pytest.raises(ValueError, match="wrong number of coordinates"):
        TangentVec(_O3, np.zeros(3))
    with pytest.raises(ValueError, match="^rho must be nonnegative and at most 700$"):
        exp_map(_O3, TangentVec(_O3, np.array([1.0, 0.0, 0.0, 0.0])), 701.0)
