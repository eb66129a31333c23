"""Covariance profiles: special-function oracles, decay, positivity."""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import quad

from hyperpam import covariance, geometry
from hyperpam.covariance import (
    CovarianceModel, lower_incomplete_gamma, phi_alpha, psd_check, psi,
)

SEED = 20260809


def test_psi_values():
    assert psi(0.0) == 0.0
    assert psi(1.0) == pytest.approx(math.log(math.cosh(1.0)), abs=1e-12)
    assert psi(100.0) == pytest.approx(100.0 - math.log(2.0), abs=1e-12)
    grid = np.linspace(0.0, 25.0, 200)
    assert np.allclose(psi(grid), np.log(np.cosh(grid)), atol=1e-12)
    with pytest.raises(ValueError):
        psi(-1.0)


def test_gamma_closed_forms():
    xs = np.linspace(0.0, 30.0, 50)
    assert np.allclose(lower_incomplete_gamma(1.0, xs), 1.0 - np.exp(-xs),
                       atol=1e-12)
    assert lower_incomplete_gamma(0.5, 50.0) == pytest.approx(
        math.sqrt(math.pi), rel=1e-10)
    assert lower_incomplete_gamma(2.0, 1.0) == pytest.approx(
        1.0 - 2.0 * math.exp(-1.0), rel=1e-12)


def test_gamma_vs_scipy_oracle():
    xs = np.array([1e-6, 0.01, 0.3, 1.0, 2.5, 7.0, 20.0, 80.0, 300.0])
    for a in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.7, 6.0):
        mine = lower_incomplete_gamma(a, xs)
        ref = sp.gammainc(a, xs) * sp.gamma(a)
        assert np.max(np.abs(mine - ref) / ref) < 1e-10


@pytest.mark.parametrize("a", [0.25, 0.5, 1.5, 3.0])
def test_gamma_recurrence(a):
    """gamma(a+1, x) = a gamma(a, x) - x^a e^{-x}, on both sides of x = a + 1."""
    xs = np.array([0.1, 0.5, 0.5 * (a + 1.0), a + 1.0, 1.5 * (a + 1.0), 10.0, 30.0])
    lhs = lower_incomplete_gamma(a + 1.0, xs)
    rhs = a * lower_incomplete_gamma(a, xs) - xs**a * np.exp(-xs)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)


def test_gamma_half_is_erf():
    """gamma(1/2, x) = sqrt(pi) erf(sqrt(x))."""
    xs = np.linspace(0.0, 50.0, 201)
    expect = [math.sqrt(math.pi) * math.erf(math.sqrt(x)) for x in xs]
    assert np.allclose(lower_incomplete_gamma(0.5, xs), expect, rtol=1e-12, atol=0.0)


def test_gamma_at_zero_and_return_types():
    for a in (0.25, 1.0, 3.0):
        assert lower_incomplete_gamma(a, 0.0) == 0.0
    assert type(lower_incomplete_gamma(1.5, 2.0)) is float
    assert type(lower_incomplete_gamma(1.5, np.float64(2.0))) is float
    arr = lower_incomplete_gamma(1.5, np.array([0.0, 2.0]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,) and arr[0] == 0.0


# phi_alpha(rho, alpha) recorded from the earlier series / continued-fraction
# evaluation of the incomplete gamma function
_PHI_PINNED = [
    (0.25, 0.1, 0.9990030449180105), (0.25, 3.0, 0.7266869060134424),
    (0.25, 40.0, 0.3619962032976729), (0.5, 1.0, 0.8724325309999361),
    (0.5, 10.0, 0.2904935982332738), (1.5, 0.1, 0.9970103191521802),
    (1.5, 3.0, 0.3023006853894898), (1.5, 40.0, 0.005394283792452531),
    (3.0, 1.0, 0.7248994078779417), (3.0, 10.0, 0.007406674816314939),
    (3.0, 40.0, 9.879760861724269e-05),
]


@pytest.mark.parametrize("alpha,rho,expect", _PHI_PINNED)
def test_phi_alpha_pinned_values(alpha, rho, expect):
    assert phi_alpha(rho, alpha) == pytest.approx(expect, rel=1e-12)


def test_gamma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        lower_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(1.0, -0.5)


@pytest.mark.parametrize("a", [math.nan, math.inf], ids=["nan", "inf"])
def test_gamma_rejects_nonfinite_a(a):
    with pytest.raises(ValueError, match="a must be positive and finite"):
        lower_incomplete_gamma(a, 1.0)


def test_gamma_propagates_nan_x():
    # phi_alpha reports NaN at a NaN distance through this
    assert math.isnan(lower_incomplete_gamma(1.0, math.nan))
    out = lower_incomplete_gamma(0.5, np.array([1.0, math.nan]))
    assert math.isnan(out[1]) and out[0] > 0


def test_phi_alpha_at_zero_and_alpha_one():
    assert phi_alpha(0.0, 0.7) == 1.0
    p = psi(1.0)
    expect = (1.0 - 1.0 / math.cosh(1.0)) / p
    assert phi_alpha(1.0, 1.0) == pytest.approx(expect, rel=1e-10)
    assert phi_alpha(1.0, 1.0) == pytest.approx(0.8113, abs=5e-5)


def test_phi_alpha_matches_direct_quadrature():
    """The u-integral definition and the incomplete-gamma closed form agree."""
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
        for rho in (0.0, 0.25, 1.0, 2.0, 5.0, 15.0, 60.0):
            p = float(psi(rho))
            direct = quad(lambda u: math.exp(-(u ** (1.0 / alpha)) * p),
                          0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
            assert phi_alpha(rho, alpha) == pytest.approx(direct, abs=1e-8)


def test_phi_alpha_decay_limit():
    """rho^alpha Phi_alpha -> alpha Gamma(alpha); at rho = 50 the residual is
    alpha*log(2)/50 to first order (1.4% at alpha = 1, 2.1% at alpha = 1.5)."""
    for alpha in (0.5, 1.0):
        target = alpha * math.gamma(alpha)
        got = 50.0**alpha * phi_alpha(50.0, alpha)
        assert abs(got - target) / target <= 0.02
    # alpha = 1.5 sits just above 2%: the exact deviation is
    # (50/psi(50))^1.5 - 1 = 2.116e-2; pin it so regressions are visible
    got = 50.0**1.5 * phi_alpha(50.0, 1.5)
    target = 1.5 * math.gamma(1.5)
    assert abs(got - target) / target == pytest.approx(2.116e-2, abs=2e-4)


def test_phi_alpha_monotone_and_bounded():
    grid = np.linspace(0.0, 100.0, 4001)
    for alpha in (0.25, 0.5, 1.0, 2.0):
        vals = phi_alpha(grid, alpha)
        assert vals[0] == 1.0
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals > 0.0)


def test_phi_alpha_propagates_nan():
    # an overflowed pair distance is NaN; the profile must not turn it into 1
    assert math.isnan(phi_alpha(math.nan, 0.5))
    vals = phi_alpha(np.array([0.0, math.nan, 1.0, math.inf]), 0.5)
    assert vals[0] == 1.0 and math.isnan(vals[1]) and 0.0 < vals[2] < 1.0
    assert vals[3] == 0.0 == phi_alpha(math.inf, 0.5)


def test_phi_alpha_return_types_and_small_psi_limit():
    # Psi(1e-7) = 5e-15 <= 1e-12 takes the limit 1 in place of the 0/0 form
    assert type(phi_alpha(0.0, 0.5)) is float and phi_alpha(1e-7, 0.5) == 1.0
    assert type(phi_alpha(np.float64(1.0), 0.5)) is float
    grid = np.array([[0.0, 1e-7], [1.0, 2.0]])
    out = phi_alpha(grid, 0.5)
    assert isinstance(out, np.ndarray) and out.shape == (2, 2)
    assert out[0].tolist() == [1.0, 1.0]
    assert out[1].tolist() == [phi_alpha(1.0, 0.5), phi_alpha(2.0, 0.5)]


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_phi_alpha_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        phi_alpha(1.0, alpha)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        phi_alpha(0.0, alpha)


def test_phi_alpha_power_envelopes():
    """Fitted-constant upper/lower power bounds hold on rho in [5, 100]."""
    grid = np.linspace(5.0, 100.0, 400)
    for alpha in (0.5, 1.0, 2.0):
        ratio = grid**alpha * phi_alpha(grid, alpha) / (alpha * math.gamma(alpha))
        assert np.all(ratio >= 1.0 - 1e-12)
        assert np.all(ratio <= 1.3)


def test_model_validation():
    with pytest.raises(ValueError):
        CovarianceModel("phi-alpha")  # missing alpha
    with pytest.raises(ValueError):
        CovarianceModel("truncated-power", alpha=-1.0)
    with pytest.raises(ValueError):
        CovarianceModel("nonsense")
    with pytest.raises(ValueError):
        CovarianceModel("constant", c=-0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            CovarianceModel("phi-alpha", alpha=bad)
        with pytest.raises(ValueError):
            CovarianceModel("truncated-power", alpha=2.0, C=bad)
        with pytest.raises(ValueError):
            CovarianceModel("constant", c=bad)


def test_evaluate_kinds():
    o = geometry.origin(3)
    rng = np.random.default_rng(SEED)
    p = geometry.exp_map(o, geometry.uniform_sphere_direction(o, rng), 1.0)
    const = CovarianceModel("constant", c=0.7)
    assert const.evaluate(o, p) == 0.7
    tp = CovarianceModel("truncated-power", alpha=1.0, C=1.0)
    assert tp.evaluate(o, p) == pytest.approx(0.5, abs=1e-12)
    pa = CovarianceModel("phi-alpha", alpha=1.0)
    assert pa.evaluate(o, p) == pytest.approx(phi_alpha(1.0, 1.0), rel=1e-12)
    assert pa.evaluate(o, o) == 1.0  # unit variance on the diagonal
    assert pa.evaluate(o, p) == pytest.approx(pa.evaluate(p, o), rel=1e-14)
    with pytest.raises(ValueError):
        pa.evaluate(o, geometry.origin(4))
    # every kind refuses a point off the hyperboloid; constant used to return c
    for model in (const, tp, pa):
        with pytest.raises(ValueError, match="off the hyperboloid"):
            model.evaluate(np.array([1.0, 0.0, 0.0, 0.0]), o)


def test_psd_check_singleton_and_pair():
    o = geometry.origin(3)
    model = CovarianceModel("phi-alpha", alpha=1.0)
    out = psd_check(model, [o])
    assert out["min_eigenvalue"] == pytest.approx(1.0)
    rng = np.random.default_rng(SEED)
    p = geometry.exp_map(o, geometry.uniform_sphere_direction(o, rng), 1.0)
    out2 = psd_check(model, [o, p])
    val = phi_alpha(1.0, 1.0)
    assert out2["min_eigenvalue"] == pytest.approx(1.0 - val, rel=1e-9)
    assert out2["gram_trace"] == pytest.approx(2.0)


def test_psd_property_random_sets():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        n = int(rng.integers(2, 100))
        pts = geometry.random_points(n, 3, rng, max_radius=30.0)
        out = psd_check(CovarianceModel("phi-alpha", alpha=alpha), pts)
        assert out["min_eigenvalue"] >= -1e-8 * out["gram_trace"]


def test_psd_check_diagonal_is_the_profile_at_zero():
    # psd_check built its own -<x_i, x_j>, and the roundoff of far points
    # reached the diagonal: the point at rho = 28.5 here had F(20.1) = 0.201
    model = CovarianceModel("phi-alpha", alpha=0.5)
    pts = geometry.random_points(40, 3, np.random.default_rng(1), 30.0)
    assert psd_check(model, pts)["gram_trace"] == 40.0
    # off-sheet points raise, as in evaluate
    with pytest.raises(ValueError, match="off the hyperboloid"):
        psd_check(model, [geometry.origin(3).coords, np.array([1.0, 0.0, 0.0, 0.0])])


@pytest.mark.parametrize("rho", [10.0, 15.0, 20.0, 30.0])
def test_evaluate_at_a_far_point_and_itself(rho):
    # distance(p, p) raised "off the hyperboloid" for most p this far from o,
    # and where it did not, read up to 2 rho - 36: F was 0.185 at rho = 30
    rng = np.random.default_rng(SEED)
    model = CovarianceModel("phi-alpha", alpha=0.5)
    for u in geometry.random_directions(50, 3, rng):
        p = geometry.HPoint(geometry.points_from_polar(np.array(rho), u), 3)
        assert model.evaluate(p, p) == 1.0


def test_psd_check_size_limits():
    model = CovarianceModel("phi-alpha", alpha=1.0)
    with pytest.raises(ValueError):
        psd_check(model, np.empty((0, 4)))
    # the count is checked before the points are stacked
    for points in ([], [geometry.origin(3)] * 501):
        with pytest.raises(ValueError, match="need between 1 and 500 points"):
            psd_check(model, points)


def test_psd_check_input_forms_agree():
    rng = np.random.default_rng(SEED)
    hpoints = [geometry.HPoint(row, 3)
               for row in geometry.random_points(12, 3, rng, max_radius=10.0)]
    pts = np.array([h.coords for h in hpoints])
    model = CovarianceModel("phi-alpha", alpha=0.5)
    expect = psd_check(model, pts)
    assert psd_check(model, hpoints) == expect
    assert psd_check(model, pts.tolist()) == expect


def test_sup_and_label():
    assert CovarianceModel("phi-alpha", alpha=0.5).sup_value() == 1.0
    assert CovarianceModel("truncated-power", alpha=2.0, C=3.0).sup_value() == 3.0
    assert CovarianceModel("constant", c=2.0).sup_value() == 2.0
    assert "phi-alpha" in CovarianceModel("phi-alpha", alpha=0.5).label()


@pytest.mark.parametrize("rho", [-2.0, -1.0, [0.5, -1e-3]], ids=["-2", "-1", "array"])
@pytest.mark.parametrize("model", [
    CovarianceModel("phi-alpha", alpha=2.0), CovarianceModel("truncated-power", alpha=2.0),
    CovarianceModel("constant")], ids=["phi-alpha", "truncated-power", "constant"])
def test_every_profile_kind_refuses_a_negative_distance(model, rho):
    # truncated-power returned 1.0 at rho = -2 and inf (with a warning) at -1
    with pytest.raises(ValueError, match="rho must be nonnegative"):
        model.profile(rho)


@pytest.mark.parametrize("kind", ["phi-alpha", "truncated-power", "constant"])
def test_profile_propagates_nan(kind):
    # an overflowed pair distance must be excluded, not counted as f = c
    out = CovarianceModel(kind, alpha=2.0).profile(np.array([math.nan, 1.0]))
    assert np.isnan(out[0]) and np.isfinite(out[1])


@pytest.mark.parametrize("a,message", [
    (200.0, "Gamma\\(a\\) overflows at a = 200"),
    (171.7, "Gamma\\(a\\) overflows at a = 171.7"),
    (1e-310, "a must be at least 2.2e-308, got 1e-310"),
    (6e-309, "a must be at least 2.2e-308, got 6e-309"),
], ids=["200", "171.7", "1e-310", "6e-309"])
def test_gamma_refuses_an_a_it_cannot_evaluate(a, message):
    # math.gamma raised a bare OverflowError (math range error) at 200 and
    # 1e-310, and gammainc is 0 at a subnormal a: 0 was returned at 6e-309
    with pytest.raises(ValueError, match=message):
        lower_incomplete_gamma(a, 1.0)


_ALPHA_MAX = 23.690728162032478  # the root of lgamma(alpha + 1) + 12 alpha ln 10 = 1022 ln 2


@pytest.mark.parametrize("fields,name", [
    ({"kind": "gauss", "alpha": math.nan}, "kind"),
    ({"kind": "phi-alpha", "alpha": math.inf, "C": -1.0}, "alpha"),
    ({"kind": "truncated-power", "C": -1.0}, "alpha"),
    ({"kind": "phi-alpha", "alpha": _ALPHA_MAX * (1 + 1e-12)}, "alpha"),
    ({"kind": "phi-alpha", "alpha": 2e-308}, "alpha"),
    ({"kind": "truncated-power", "alpha": 2.0, "C": math.nan, "c": -1.0}, "C"),
    ({"kind": "constant", "c": 0.0}, "c"),
])
def test_model_names_the_first_field_it_refuses(fields, name):
    with pytest.raises(geometry.ParameterError) as info:
        CovarianceModel(**fields)
    assert info.value.args[0] == name


@pytest.mark.parametrize("alpha", [_ALPHA_MAX * (1 - 1e-12), np.finfo(float).tiny],
                         ids=["largest", "smallest"])
def test_phi_alpha_is_accurate_at_every_accepted_extreme(alpha):
    # phi_alpha was 0 near rho = 1.4e-6 from alpha ~ 24 (gamma(alpha, Psi)
    # underflowed) and NaN from alpha = 27 (Psi^alpha too); Gamma(200) overflowed
    model = CovarianceModel("phi-alpha", alpha=alpha)
    rho = np.geomspace(1e-7, 710.0, 4001)
    f = model.profile(rho)
    assert np.isfinite(f).all()
    p = psi(rho)
    ref = np.where(p <= 1e-12, 1.0, sp.hyp1f1(alpha, alpha + 1.0, -p))
    np.testing.assert_allclose(f, ref, rtol=1e-10, atol=0.0)


def test_phi_alpha_bound_is_closed_form():
    lhs = math.lgamma(_ALPHA_MAX + 1.0) - _ALPHA_MAX * math.log(covariance._PSI_CUTOFF)
    assert lhs == pytest.approx(-math.log(np.finfo(float).tiny), rel=1e-12)
    with pytest.raises(ValueError, match="phi-alpha requires alpha between"):
        CovarianceModel("phi-alpha", alpha=23.7)
    assert CovarianceModel("phi-alpha", alpha=23.69).alpha == 23.69


@pytest.mark.parametrize("kind,alpha", [("truncated-power", 1e9), ("phi-alpha", 23.0)])
def test_a_power_overflow_is_its_limit_zero(kind, alpha):
    # numpy printed "overflow encountered in power" on stderr
    model = CovarianceModel(kind, alpha=alpha)
    rho = np.array([0.0, 1e-12, 1e-3, 1.0, 1e100, 1e300, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = model.profile(rho)
    assert f[0] == 1.0 and (f[-3:] == 0.0).all()
    assert np.isfinite(f).all()
