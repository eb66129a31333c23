"""Heat kernels, radial laws, eigenvalues, exit tails."""

import math
import re

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st
from scipy.integrate import quad

from hyperpam import brownian, geometry, heatkernel
from hyperpam.heatkernel import (
    RadialLaw, dirichlet_eigenfunction, dirichlet_eigenvalue,
    exit_tail_estimate, hk_envelope, hk_exact_d3, log_hk_envelope,
    log_hk_exact_d3, log_radial_density_d3, sample_radial_exact_d3,
)

SEED = 20260809


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_exact_kernel_normalization(t):
    total, err = quad(lambda r: hk_exact_d3(t, r) * 4.0 * math.pi * math.sinh(r) ** 2,
                      0.0, (2.0 * t + 14.0 * math.sqrt(2.0 * t) + 40.0), limit=300)
    assert abs(total - 1.0) < 1e-6


def test_exact_kernel_small_time_flat_limit():
    t, rho = 1e-4, 0.01
    flat = (4.0 * math.pi * t) ** -1.5 * math.exp(-rho**2 / (4.0 * t))
    assert hk_exact_d3(t, rho) / flat == pytest.approx(1.0, abs=0.01)


def test_exact_kernel_rejects_bad_t():
    with pytest.raises(ValueError):
        hk_exact_d3(0.0, 1.0)
    with pytest.raises(ValueError):
        hk_exact_d3(1.0, -1.0)


def test_envelope_plugin_value():
    # d=3, rho=0, t=1: t^{-3/2} e^{-1} (1+0+1)^0 (1+0) = e^{-1}
    assert hk_envelope(1.0, 0.0, 3) == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError):
        hk_envelope(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        hk_envelope(-1.0, 0.0, 3)


def test_envelope_monotone_decay_in_rho():
    rhos = np.linspace(0.0, 80.0, 2000)
    for t in (1.0, 2.0, 10.0):
        vals = log_hk_envelope(t, rhos, 3)
        assert np.all(np.diff(vals) < 0.0)


def test_envelope_log_matches_direct():
    for t in (0.5, 1.0, 5.0):
        for rho in (0.0, 1.0, 10.0, 30.0):
            direct = (t ** (-1.5) * math.exp(-t - rho**2 / (4 * t) - rho)
                      * (1.0 + rho + t) ** 0.0 * (1.0 + rho))
            assert hk_envelope(t, rho, 3) == pytest.approx(direct, rel=1e-12)


def test_envelope_sandwich_ratio():
    """exact / envelope stays inside the theoretical band
    [(4 pi)^{-3/2}, 2 (4 pi)^{-3/2}] over a wide (t, rho) grid."""
    base = (4.0 * math.pi) ** -1.5
    for t in np.linspace(0.5, 20.0, 30):
        rhos = np.linspace(0.0, 60.0, 200)
        ratio = np.exp(log_hk_exact_d3(t, rhos) - log_hk_envelope(t, rhos, 3))
        assert np.min(ratio) >= base * (1.0 - 1e-9)
        assert np.max(ratio) <= 2.0 * base * (1.0 + 1e-9)


def test_radial_law_tables():
    law = RadialLaw(2.0)
    grid = np.linspace(0.0, law.support_hi(), 500)
    cdf = law.cdf(grid)
    assert cdf[0] == 0.0
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(cdf) >= 0.0)


@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 25.0, 100.0])
def test_radial_law_cdf_matches_noncentral_chi2(t):
    # rho^2 / (2t) is noncentral chi-square with 3 degrees of freedom and
    # noncentrality |2t e_1|^2 / (2t) = 2t
    law = RadialLaw(t)
    rho = np.linspace(0.0, law.support_hi(), 2001)
    np.testing.assert_allclose(law.cdf(rho), st.ncx2.cdf(rho**2 / (2.0 * t), 3, 2.0 * t),
                               rtol=0.0, atol=1e-12)
    assert law.cdf(0.0) == 0.0
    assert law.cdf(law.support_hi()) == pytest.approx(1.0, abs=1e-9)


def test_log_radial_density_tiny_rho():
    # density ~ 4 pi (4 pi t)^{-3/2} e^{-t} rho^2 as rho -> 0; log sinh must
    # stay finite (log rho) far below where sinh rho = rho in floating point
    t = 1.0
    for rho in (1e-12, 1e-17, 1e-30):
        expect = (math.log(4.0 * math.pi) - 1.5 * math.log(4.0 * math.pi * t)
                  + 2.0 * math.log(rho) - t)
        got = heatkernel.log_radial_density_d3(t, np.array([rho]))[0]
        assert got == pytest.approx(expect, rel=1e-12)


def test_radial_sampler_moments():
    rng = np.random.default_rng(SEED)
    t = 25.0
    x = sample_radial_exact_d3(t, rng, size=100000)
    # exact mean is 2t + 1, variance 2t - 1 (+ exponentially small terms)
    assert x.mean() / t == pytest.approx(2.0, abs=0.05)
    assert 1.0 <= x.var() / t <= 3.0


@pytest.mark.parametrize("size", [2.5, True, "3", -1, 3.0])
def test_radial_sampler_refuses_a_size_that_is_not_a_count(size):
    # int(size) drew 2 values for 2.5, 1 for True and 3 for "3"
    with pytest.raises(ValueError, match=f"^size must be an integer >= 0, got {size!r}$"):
        sample_radial_exact_d3(1.0, np.random.default_rng(SEED), size=size)


def test_radial_sampler_sizes():
    rng = np.random.default_rng(SEED)
    assert isinstance(sample_radial_exact_d3(1.0, rng), float)
    assert sample_radial_exact_d3(1.0, rng, size=0).shape == (0,)
    assert sample_radial_exact_d3(1.0, rng, size=np.int64(3)).shape == (3,)


def test_radial_sampler_small_time_flat_limit():
    rng = np.random.default_rng(SEED + 1)
    t = 1e-3
    x = sample_radial_exact_d3(t, rng, size=50000)
    # flat-space limit: radius of a 3d Gaussian with per-axis variance 2t
    ks = st.kstest(x, st.chi(3, scale=math.sqrt(2.0 * t)).cdf).statistic
    assert ks <= 0.02


def test_radial_sampler_matches_cdf():
    rng = np.random.default_rng(SEED + 2)
    for t in (0.5, 5.0):
        x = sample_radial_exact_d3(t, rng, size=30000)
        assert st.kstest(x, RadialLaw(t).cdf).statistic <= 0.012


@pytest.mark.parametrize("t", [1e-3, 0.5, 5.0, 25.0])
def test_radial_sampler_law(t):
    """rho(x, B_t) has the law of |2t e1 + sqrt(2t) Z| with Z a standard 3-d
    Gaussian (complete the square in rho sinh rho e^{-t - rho^2/4t}), so
    E rho^2 = 4t^2 + 6t exactly."""
    rng = np.random.default_rng(SEED + 3)
    x = sample_radial_exact_d3(t, rng, size=30000)
    sq = x**2
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - (4.0 * t * t + 6.0 * t)) <= 4.0 * se
    assert st.kstest(x, RadialLaw(t).cdf).statistic <= 0.012


def test_radial_sampler_validates_t():
    rng = np.random.default_rng(SEED)
    with pytest.raises(ValueError):
        sample_radial_exact_d3(-1.0, rng)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_eigenvalue_euclidean_closed_form(r):
    lam = dirichlet_eigenvalue(r, 3, "euclidean")
    assert lam * r**2 == pytest.approx(math.pi**2, rel=1e-6)


@pytest.mark.parametrize("r", [0.1, 1.0, 2.0, 8.0, 30.0, 60.0, 100.0])
def test_eigenvalue_hyperbolic_closed_form(r):
    # d=3 conjugates to a flat problem: lambda = 1 + (pi/r)^2.  The
    # eigenfunction decays like e^{-rho}, so large r catches any absolute
    # tolerance or weight underflow that swallows it
    lam = dirichlet_eigenvalue(r, 3, "hyperbolic")
    assert lam == pytest.approx(1.0 + (math.pi / r) ** 2, rel=1e-8)


@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("r", [30.0, 100.0])
def test_eigenvalue_above_spectral_bottom(d, r):
    # no ball eigenvalue lies below the bottom (d-1)^2/4 of the spectrum
    lam = dirichlet_eigenvalue(r, d, "hyperbolic")
    assert (d - 1) ** 2 / 4.0 < lam < (d - 1) ** 2 / 4.0 + 0.05


def test_eigenvalue_limits():
    # spectrum bottom (d-1)^2/4 = 1 as r -> infinity
    assert dirichlet_eigenvalue(30.0, 3, "hyperbolic") == pytest.approx(1.0, abs=0.02)
    # blow-up as r -> 0+, comparable to the flat pi^2/r^2
    assert dirichlet_eigenvalue(0.1, 3, "hyperbolic") > 100.0


def test_eigenvalue_other_dimensions():
    # flat-ball eigenvalues are squared Bessel zeros: j_{d/2-1,1}
    assert math.sqrt(dirichlet_eigenvalue(1.0, 2, "euclidean")) == pytest.approx(
        2.404825557695773, rel=1e-7)
    assert math.sqrt(dirichlet_eigenvalue(1.0, 4, "euclidean")) == pytest.approx(
        3.8317059702075125, rel=1e-7)


def test_eigenvalue_dimension_range():
    # the flat closed form j_{(d-2)/2,1}^2 / r^2 holds to 2e-8 up to MAX_DIM;
    # past it the error grew unseen, to -7.2e20 at d = 100
    d = heatkernel.MAX_DIM
    j = sp.jn_zeros((d - 2) // 2, 1)[0]
    assert dirichlet_eigenvalue(1.0, d, "euclidean") == pytest.approx(j**2, rel=2e-8)
    for bad in (d + 1, 100):
        with pytest.raises(ValueError, match=f"d must be an integer in .*, got {bad}"):
            dirichlet_eigenvalue(1.0, bad)


def test_eigenvalue_rayleigh_quotient():
    for mode in ("hyperbolic", "euclidean"):
        lam, grid, phi, dphi = dirichlet_eigenfunction(2.0, 3, mode, n_grid=6000)
        w = np.sinh(grid) ** 2 if mode == "hyperbolic" else grid**2
        rayleigh = (np.trapezoid(dphi**2 * w, grid)
                    / np.trapezoid(phi**2 * w, grid))
        assert rayleigh == pytest.approx(lam, rel=1e-6)


@pytest.mark.parametrize("r", [30.0, 60.0])
def test_eigenfunction_large_radius(r):
    # phi decays like e^{-rho}: a shot on phi itself drops under its absolute
    # tolerance here and turns negative near rho = 34
    lam, grid, phi, dphi = dirichlet_eigenfunction(r, 3, "hyperbolic", n_grid=20000)
    w = np.sinh(grid) ** 2
    rayleigh = np.trapezoid(dphi**2 * w, grid) / np.trapezoid(phi**2 * w, grid)
    assert rayleigh == pytest.approx(lam, rel=1e-6)
    assert np.all(phi[:-1] > 0)


@pytest.mark.parametrize("mode", ["hyperbolic", "euclidean"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_eigenfunction_rayleigh_quotient_in_dimension(d, mode):
    lam, grid, phi, dphi = dirichlet_eigenfunction(5.0, d, mode, n_grid=6000)
    assert grid[0] == 0.0 and grid[-1] == 5.0
    assert phi[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(phi[:-1] > 0)
    assert abs(phi[-1]) < 1e-12
    w = np.exp(heatkernel._log_weight(grid, d, mode))
    rayleigh = np.trapezoid(dphi**2 * w, grid) / np.trapezoid(phi**2 * w, grid)
    assert rayleigh == pytest.approx(lam, rel=1e-6)


def test_eigenvalue_validates_arguments():
    with pytest.raises(ValueError):
        dirichlet_eigenvalue(0.0, 3)
    with pytest.raises(ValueError):
        dirichlet_eigenvalue(200.0, 3)
    with pytest.raises(ValueError):
        dirichlet_eigenvalue(1.0, 3, "spherical")


def test_exit_tail_estimate():
    cfg = brownian.SamplerConfig(dim=3, step=1e-3, seed=SEED)
    out = exit_tail_estimate(2.0, [0.0, 0.25, 0.5, 0.75, 1.0, 6.0], 4000, cfg)
    rows = out["rows"]
    assert rows[0]["prob"] == 1.0
    probs = [r["prob"] for r in rows]
    assert all(p1 >= p2 for p1, p2 in zip(probs, probs[1:]))
    # by t=6 survival ~ e^{-20}: the cell is flagged and excluded
    assert rows[-1]["flagged"]
    lam = 1.0 + (math.pi / 2.0) ** 2
    assert -out["slope"] == pytest.approx(lam, rel=0.15)
    with pytest.raises(ValueError):
        exit_tail_estimate(-1.0, [0.5], 10, cfg)
    with pytest.raises(ValueError):
        exit_tail_estimate(1.0, [0.5, 0.25], 10, cfg)


@pytest.mark.parametrize("t_grid", [[0.5, math.nan, 1.0], [], [0.5, math.inf]],
                         ids=["inner-nan", "empty", "inf"])
def test_exit_tail_rejects_nonfinite_or_empty_grid(t_grid):
    cfg = brownian.SamplerConfig(dim=3, step=1e-2, seed=SEED)
    with pytest.raises(ValueError, match="t_grid"):
        exit_tail_estimate(2.0, t_grid, 10, cfg)


@pytest.mark.parametrize("n_paths", [0, -3])
def test_exit_tail_rejects_fewer_than_one_path(n_paths):
    cfg = brownian.SamplerConfig(dim=3, step=1e-2, seed=SEED)
    message = f"n_paths must be an integer in [1, {brownian.MAX_PATHS}], got {n_paths}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        exit_tail_estimate(2.0, [0.5], n_paths, cfg)


def test_exit_tail_rejects_non_integer_path_count():
    cfg = brownian.SamplerConfig(dim=3, step=1e-2, seed=SEED)
    with pytest.raises(ValueError, match="n_paths"):
        exit_tail_estimate(1.0, [0.1, 0.2], 2.5, cfg)


_T_OR_R_ENTRY_POINTS = {
    "log_hk_exact_d3": lambda v: log_hk_exact_d3(v, 1.0),
    "log_radial_density_d3": lambda v: log_radial_density_d3(v, 1.0),
    "log_hk_envelope": lambda v: log_hk_envelope(v, 1.0, 3),
    "RadialLaw": RadialLaw,
    "sample_radial_exact_d3": lambda v: sample_radial_exact_d3(
        v, np.random.default_rng(SEED)),
    "exit_tail_estimate": lambda v: exit_tail_estimate(
        v, [0.5], 10, brownian.SamplerConfig(dim=3, step=1e-2, seed=SEED)),
    "exit_times": lambda v: brownian.exit_times(
        geometry.origin(3), v, 0.5, brownian.SamplerConfig(dim=3, step=1e-2, seed=SEED), 4),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("entry", sorted(_T_OR_R_ENTRY_POINTS))
def test_rejects_nonfinite_time_or_radius(entry, bad):
    with pytest.raises(ValueError, match="must be positive and finite"):
        _T_OR_R_ENTRY_POINTS[entry](bad)


def test_chapman_kolmogorov_radial():
    """Chaining t1 then t2 reproduces the exact radial law at t1 + t2."""
    cfg = brownian.SamplerConfig(dim=3, step=1e-3, seed=SEED + 7)
    o = geometry.origin(3)
    n = 20000
    mid = brownian.endpoints(o, 1.0, cfg, n, tag=brownian.TAG_PRIMARY)
    end = brownian.endpoints(o, 1.0, cfg, n, tag=brownian.TAG_CHAIN, starts=mid)
    radii = geometry.distance(o.coords, end)
    ks = st.kstest(radii, RadialLaw(2.0).cdf).statistic
    assert ks <= 0.02


def test_eigenvalue_names_the_argument_it_refuses():
    for args, name in [((1.0, 11), "d"), ((200.0, 3), "r"), ((1.0, 3, "spherical"), "mode"),
                       ((1e-61, 3), "r"), ((math.nan, 100), "d")]:
        with pytest.raises(geometry.ParameterError) as info:
            dirichlet_eigenvalue(*args)
        assert info.value.args[0] == name


def test_eigenvalue_at_the_smallest_radius():
    # below ~1e-72 LAPACK's bisection failed ("stebz did not converge"), and
    # below ~1e-150 the operator overflowed with numpy warnings
    r = heatkernel.MIN_RADIUS
    assert dirichlet_eigenvalue(r, 3) * r * r == pytest.approx(math.pi**2, rel=1e-8)
    with pytest.raises(ValueError, match="r must be at least 1e-60, got 1e-300"):
        dirichlet_eigenvalue(1e-300, 3)
