"""The validate checks' own statistics and quadrature, held equal to scipy.stats
and scipy.integrate as the oracles."""

import math

import numpy as np
import pytest
import scipy.stats as st
from scipy.integrate import quad

from hyperpam import brownian, checks, covariance, heatkernel

_RNG = np.random.default_rng(7)
_NORMAL = _RNG.standard_normal(300)
_TIES = np.round(_RNG.standard_normal(400), 1)  # about 60 distinct values


@pytest.mark.parametrize("x", [_NORMAL, _TIES, _NORMAL[:1], _NORMAL + 0.3],
                         ids=["normal", "ties", "single", "shifted"])
def test_ks_distance_equals_scipy(x):
    assert checks._ks_distance(x, st.norm.cdf) == st.kstest(x, st.norm.cdf).statistic


def test_sphere_direction_chi2_limit_is_the_chi2_quantile():
    rec = checks._check_sphere_direction_chi2(20260809)
    assert rec.limit == st.chi2.ppf(0.99, 19)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 3.0])
def test_gauss_jacobi_phi_alpha_equals_quad(alpha):
    # the 25 (alpha, rho) cells of the quadrature-consistency check
    for rho in (0.0, 0.5, 2.0, 10.0, 60.0):
        p = covariance.psi(rho)
        direct = quad(lambda u: math.exp(-u ** (1.0 / alpha) * p), 0, 1,
                      epsabs=1e-12, epsrel=1e-12)[0]
        assert abs(checks._phi_alpha_gauss_jacobi(rho, alpha) - direct) <= 1e-11


def test_quadrature_check_fails_on_a_perturbed_profile(monkeypatch):
    rec = checks._check_quadrature_consistency(0)
    assert rec.observed <= rec.limit
    phi_alpha = covariance.phi_alpha
    monkeypatch.setattr(covariance, "phi_alpha",
                        lambda rho, alpha: phi_alpha(rho, alpha) * (1.0 + 1e-7))
    rec = checks._check_quadrature_consistency(0)
    assert not rec.observed <= rec.limit


def test_radial_speed_aims_at_the_exact_mean(monkeypatch):
    # E rho_25 = 2 * 25 + 1 = 51 in d = 3: a target of 2.0 observed 0.04 here
    monkeypatch.setattr(brownian, "endpoint_radii", lambda *args: np.full(3000, 51.0))
    assert checks._check_radial_speed(0).observed == 0.0


def _judged(monkeypatch, check, scale):
    """``check``'s record as run_suite judges it at ``scale``, run on its own."""
    monkeypatch.setitem(checks.SUITES, "geometry", [check])
    return checks.run_suite("geometry", tolerance_scale=scale)["checks"][0]


# each check below used to hold a window that --tolerance-scale did not scale

def test_determinism_fails_a_nondeterministic_sampler_at_any_scale(monkeypatch):
    # 1.0 against a limit of 0.5 passed at scale 2
    sample_pair = brownian.sample_pair
    rng = np.random.default_rng(0)

    def jittered(*args, **kwargs):
        a, b = sample_pair(*args, **kwargs)
        a.points[-1, 0] += 1e-12 * rng.standard_normal()
        return a, b

    assert _judged(monkeypatch, checks._check_determinism, 1.0)["passed"]
    monkeypatch.setattr(brownian, "sample_pair", jittered)
    assert not _judged(monkeypatch, checks._check_determinism, 2.0)["passed"]


def test_radial_sampler_moments_scale_their_windows(monkeypatch):
    # mean/t off by 0.04 sat inside the fixed 0.05 window at every scale
    sample = heatkernel.sample_radial_exact_d3
    monkeypatch.setattr(heatkernel, "sample_radial_exact_d3",
                        lambda t, rng, size: sample(t, rng, size=size) + 0.04 * t)
    assert _judged(monkeypatch, checks._check_radial_sampler_moments, 2.0)["passed"]
    assert not _judged(monkeypatch, checks._check_radial_sampler_moments, 0.5)["passed"]


def test_dirichlet_limits_fail_a_large_ball_off_its_eigenvalue(monkeypatch):
    # lambda_30 = 1.015 sat inside the fixed window |lambda_30 - 1| <= 0.02
    assert _judged(monkeypatch, checks._check_dirichlet_hyperbolic, 0.5)["passed"]
    eigenvalue = heatkernel.dirichlet_eigenvalue
    monkeypatch.setattr(heatkernel, "dirichlet_eigenvalue",
                        lambda r, d, mode: 1.015 if r == 30.0 else eigenvalue(r, d, mode))
    assert not _judged(monkeypatch, checks._check_dirichlet_hyperbolic, 0.5)["passed"]


def test_envelope_sandwich_passes_the_exact_envelope_at_half_scale(monkeypatch):
    # the band ratio 1.000 was judged, so any scale below 1 failed
    assert _judged(monkeypatch, checks._check_envelope_sandwich, 0.5)["passed"]
