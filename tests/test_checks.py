"""The validate checks' own statistics and quadrature, held equal to scipy.stats
and scipy.integrate as the oracles; each check's pass rule; and the pool that
run_suite runs the checks on."""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.stats as st
from scipy.integrate import quad

from hyperpam import brownian, checks, covariance, geometry, heatkernel

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


def test_hyperboloid_constraint_fails_points_1e9_off_the_sheet(monkeypatch):
    # |<z,z> + 1| / max(1, z_d^2) against 1e-8 passed a time-like coordinate
    # 1e-9 too large relative; the roundoff scale is about 2 z_d^2
    random_points = geometry.random_points

    def lifted(*args, **kwargs):
        pts = random_points(*args, **kwargs)
        pts[:, -1] *= 1.0 + 1e-9
        return pts

    assert _judged(monkeypatch, checks._check_hyperboloid_constraint, 1.0)["passed"]
    monkeypatch.setattr(geometry, "random_points", lifted)
    assert not _judged(monkeypatch, checks._check_hyperboloid_constraint, 1.0)["passed"]


# ------------------------------------------------------------ the check pool

def _untimed(report):
    report.pop("elapsed_s")
    for c in report["checks"]:
        c.pop("elapsed_s")
    return report


def _counted_pools(mp, cpus):
    """Make run_suite see ``cpus`` CPUs; returns the list that collects the worker
    count of each pool it builds."""
    pools = []

    def counted(workers, **kwargs):
        pools.append(workers)
        return ProcessPoolExecutor(workers, **kwargs)

    mp.setattr(checks, "ProcessPoolExecutor", counted)
    mp.setattr(checks, "_available_cpus", lambda: cpus)
    return pools


@pytest.fixture(scope="module")
def forward_report():
    """The untimed run_suite("all") report on 2 CPUs, in SUITES order, and the
    worker counts of the pools it built; the tests below share this one run."""
    with pytest.MonkeyPatch.context() as mp:
        pools = _counted_pools(mp, 2)
        report = _untimed(checks.run_suite("all"))
    return report, pools


def test_report_does_not_depend_on_the_cpu_count(monkeypatch, forward_report):
    two_cpus, pools = forward_report
    one_cpu_pools = _counted_pools(monkeypatch, 1)
    one_cpu = _untimed(checks.run_suite("all"))
    assert pools + one_cpu_pools == [2]
    assert one_cpu == two_cpus
    assert [c["suite"] for c in two_cpus["checks"]] \
        == [s for s, fns in checks.SUITES.items() for _ in fns]


def test_no_check_depends_on_the_checks_run_before_it(monkeypatch, forward_report):
    # the pool hands the checks out in SUITES order, so a worker runs some of
    # them after each other; in reverse order every check must read the same
    forward = {c["name"]: c for c in forward_report[0]["checks"]}
    monkeypatch.setattr(checks, "_available_cpus", lambda: 2)
    monkeypatch.setattr(checks, "SUITES", {name: fns[::-1] for name, fns
                                           in reversed(checks.SUITES.items())})
    backward = _untimed(checks.run_suite("all"))["checks"]
    assert [c["name"] for c in backward] != list(forward)
    assert {c["name"]: c for c in backward} == forward


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was built")


@pytest.mark.parametrize("suite,cpus", [("geometry", 2), ("covariance", 1)],
                         ids=["one-check", "one-cpu"])
def test_one_check_or_one_cpu_builds_no_pool(monkeypatch, suite, cpus):
    monkeypatch.setattr(checks, "ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(checks, "_available_cpus", lambda: cpus)
    if suite == "geometry":
        monkeypatch.setitem(checks.SUITES, "geometry", [checks._check_hyperboloid_constraint])
    report = checks.run_suite(suite)
    assert len(report["checks"]) == len(checks.SUITES[suite])
    assert report["all_passed"]


def test_an_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        checks.run_suite("nope")
