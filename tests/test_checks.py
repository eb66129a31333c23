"""The validate checks' own statistics and quadrature, held equal to scipy.stats
and scipy.integrate as the oracles."""

import math

import numpy as np
import pytest
import scipy.stats as st
from scipy.integrate import quad

from hyperpam import brownian, checks, covariance

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
