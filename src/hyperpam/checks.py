"""Property-check registry behind the ``validate`` CLI subcommand.

Each check ``_check_*(seed)`` only measures: it returns its name, observed
value, limit and detail.  :func:`run_suite` judges them all by one rule,
``tolerance_scale > 0 and observed <= limit * tolerance_scale``, so at scale 0
(the harness self-test) every check fails.  Each observed value is a
deviation (or the largest deviation/window ratio, with limit 1), so the
scale multiplies every window a check has.

Sizes here are trimmed for a fast default run; the pytest suite carries the
full-size versions of the same properties.

The checks do not use ``scipy.stats``, which costs about half a second and
45 MB to import for a few numbers: the chi-square bound is an inverse
incomplete gamma, and the Kolmogorov-Smirnov distances come from the helper
:func:`_ks_distance` (the pytest suite holds it equal to ``scipy.stats``).
Nor do they use ``scipy.integrate``: the quadrature check integrates with a
Gauss-Jacobi rule from ``scipy.special`` (the pytest suite holds it equal to
``quad``).  Importing this module loads no scipy module; ``scipy.special``
loads inside the checks that call it.

The checks are independent and each seeds its own generators, so
:func:`run_suite` runs them on up to one forked worker process per available
CPU (``taskset -c 0`` runs them one after another in this process).  The
report lists them in ``SUITES`` order and is the same at any worker count,
apart from the ``elapsed_s`` timings.

The pool hands the checks out in ``SUITES`` order, so ``brownian`` comes
first: its ``radial-speed`` (3,000 paths to t = 25 in one call) is by far the
longest check, and started first it runs while the other workers take the
rest, instead of starting late and leaving them idle at the end.
"""

import contextlib
import math
import multiprocessing
import os
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import brownian, covariance, geometry, heatkernel


# what one check measured; run_suite scales the limit and judges it
_Measured = namedtuple("_Measured", "name observed limit detail", defaults=("",))


def _ks_distance(x, cdf):
    """One-sample Kolmogorov-Smirnov D: max(i/n - F, F - (i-1)/n) over sorted x."""
    n = len(x)
    f = cdf(np.sort(x))
    return max((np.arange(1.0, n + 1) / n - f).max(), (f - np.arange(0.0, n) / n).max())


# ---------------------------------------------------------------- geometry

def _check_hyperboloid_constraint(seed):
    rng = np.random.default_rng(seed)
    pts = geometry.random_points(20000, 3, rng, max_radius=30.0)
    q = geometry.minkowski_product(pts, pts)
    # <z,z>+1 carries roundoff of order eps times the sum of its terms' magnitudes
    worst = float(np.max(np.abs(q + 1.0) / geometry._roundoff_scale(pts, pts)))
    return _Measured("hyperboloid-constraint", worst, geometry._REL_TOL)


def _check_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a = geometry.random_points(20000, 3, rng, max_radius=10.0)
    b = geometry.random_points(20000, 3, rng, max_radius=10.0)
    c = geometry.random_points(20000, 3, rng, max_radius=10.0)
    excess = geometry.distance(a, c) - geometry.distance(a, b) - geometry.distance(b, c)
    return _Measured("triangle-inequality", float(np.max(excess)), 1e-8)


def _check_reverse_triangle(seed):
    rng = np.random.default_rng(seed)
    n = 20000
    va = geometry.random_points(n, 3, rng, max_radius=8.0)
    vb = geometry.random_points(n, 3, rng, max_radius=8.0)
    vc = geometry.random_points(n, 3, rng, max_radius=8.0)
    tri = geometry.triangle_deficit(va, vb, vc)
    keep = tri["angle"] >= 1e-3
    deficit = tri["deficit"][keep]
    worst = max(float(np.max(deficit - tri["bound"][keep])), float(np.max(-deficit)))
    return _Measured("reverse-triangle-bound", worst, 1e-6,
                      detail=f"{int(np.sum(keep))} triangles")


def _check_cone_localization(seed):
    rng = np.random.default_rng(seed)
    caps = geometry.cone_sets(3)
    n = 5000
    y = geometry.points_from_polar(rng.uniform(0, 30, n), caps["A"].sample(rng, n))
    z = geometry.points_from_polar(rng.uniform(0, 30, n), caps["B"].sample(rng, n))
    o = geometry.origin(3).coords
    gap = np.maximum(geometry.distance(y, o), geometry.distance(z, o)) \
        - geometry.distance(y, z)
    return _Measured("cone-localization", float(np.max(gap)), 1e-9)


def _check_exp_log_roundtrip(seed):
    rng = np.random.default_rng(seed)
    o = geometry.origin(3)
    worst = 0.0
    for _ in range(300):
        rho = rng.uniform(1e-4, 30.0)
        sig = geometry.uniform_sphere_direction(o, rng)
        p = geometry.exp_map(o, sig, rho)
        u, r = geometry.log_map(o, p)
        worst = max(worst, abs(r - rho),
                    float(np.max(np.abs(u.vec - sig.vec))))
    return _Measured("exp-log-roundtrip", worst, 1e-8)


def _check_law_of_cosines(seed):
    rng = np.random.default_rng(seed)
    n = 5000
    # moderate radii keep the e^{b+c-a} conditioning of the identity benign
    vb = geometry.random_points(n, 3, rng, max_radius=1.5)
    vc = geometry.random_points(n, 3, rng, max_radius=1.5)
    va = geometry.random_points(n, 3, rng, max_radius=1.5)
    a = geometry.distance(vb, vc)
    b = geometry.distance(va, vc)
    c = geometry.distance(va, vb)
    ang = geometry.angle_at(va, vb, vc)
    resid = np.cosh(a) - (np.cosh(b) * np.cosh(c) - np.sinh(b) * np.sinh(c) * np.cos(ang))
    rel = np.abs(resid) / np.cosh(a)
    return _Measured("law-of-cosines", float(np.max(rel)), 1e-8)


def _check_sphere_direction_chi2(seed):
    rng = np.random.default_rng(seed)
    n = 40000
    dirs = geometry.random_directions(n, 3, rng)
    ang = np.arccos(np.clip(dirs[:, 0], -1, 1))
    k = 20
    # equal-probability bins for the sin(theta)/2 angular density
    edges = np.arccos(1.0 - 2.0 * np.arange(k + 1) / k)
    counts, _ = np.histogram(ang, bins=edges)
    expected = n / k
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    from scipy.special import gammaincinv
    # the 0.99 quantile of chi-square with k - 1 degrees of freedom
    return _Measured("sphere-direction-chi2", chi2, 2.0 * gammaincinv((k - 1) / 2, 0.99))


# -------------------------------------------------------------- heatkernel

def _check_radial_normalization(seed):
    worst = 0.0
    for t in (0.1, 1.0, 10.0):
        grid = np.linspace(1e-9, heatkernel.RadialLaw(t).support_hi(), 40001)
        mass = np.trapezoid(np.exp(heatkernel.log_radial_density_d3(t, grid)), grid)
        worst = max(worst, abs(mass - 1.0))
    return _Measured("radial-density-normalization", worst, 1e-6)


def _check_envelope_sandwich(seed):
    ts = np.linspace(0.5, 20, 40)
    rhos = np.linspace(0.0, 60, 121)
    ratios = []
    for t in ts:
        log_ratio = (heatkernel.log_hk_exact_d3(t, rhos)
                     - heatkernel.log_hk_envelope(t, rhos, 3))
        ratios.append(np.exp(log_ratio))
    r = np.concatenate(ratios)
    lo, hi = float(np.min(r)), float(np.max(r))
    # theory pins the ratio inside [(4 pi)^{-3/2}, 2 (4 pi)^{-3/2}]; observed is
    # the relative excursion past the nearer edge, <= 0 inside the band
    base = (4.0 * math.pi) ** -1.5
    return _Measured("envelope-sandwich", max(base / lo, hi / (2.0 * base)) - 1.0, 1e-9,
                      detail=f"ratio in [{lo:.5f}, {hi:.5f}]")


def _check_radial_sampler_moments(seed):
    rng = np.random.default_rng(seed)
    t = 25.0
    x = heatkernel.sample_radial_exact_d3(t, rng, size=20000)
    # each moment's deviation over its window: mean/t within 0.05 of the exact
    # d = 3 mean 2 + 1/t, var/t within 1 of 2
    ratio = max(abs(x.mean() / t - (2.0 + 1.0 / t)) / 0.05, abs(x.var() / t - 2.0) / 1.0)
    return _Measured("radial-sampler-moments", ratio, 1.0,
                      detail=f"mean/t={x.mean()/t:.4f} var/t={x.var()/t:.4f}")


def _check_dirichlet_euclidean(seed):
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        lam = heatkernel.dirichlet_eigenvalue(r, 3, "euclidean")
        worst = max(worst, abs(lam * r**2 - math.pi**2) / math.pi**2)
    return _Measured("dirichlet-euclidean-scaling", worst, 1e-6)


def _check_dirichlet_hyperbolic(seed):
    # in d = 3 the ball of radius r has lambda = 1 + (pi/r)^2 exactly, which
    # holds both limits: lambda -> 1 as r -> inf and r^2 lambda -> pi^2 as r -> 0
    lam = {r: heatkernel.dirichlet_eigenvalue(r, 3, "hyperbolic") for r in (8.0, 30.0, 0.1)}
    err = max(abs(v / (1.0 + (math.pi / r) ** 2) - 1.0) for r, v in lam.items())
    return _Measured("dirichlet-hyperbolic-limits", err, 1e-7,
                      detail=f"lam8={lam[8.0]:.6f} lam30={lam[30.0]:.4f} lam0.1={lam[0.1]:.1f}")


def _check_exit_tail(seed):
    cfg = brownian.SamplerConfig(dim=3, step=2e-3, seed=seed)
    out = heatkernel.exit_tail_estimate(2.0, [0.3, 0.6, 0.9], 3000, cfg)
    lam = 1.0 + (math.pi / 2.0) ** 2
    rel = abs(-out["slope"] - lam) / lam
    return _Measured("exit-tail-slope", rel, 0.15,
                      detail=f"slope={out['slope']:.3f} target={-lam:.3f}")


# -------------------------------------------------------------- brownian

def _check_radial_speed(seed):
    cfg = brownian.SamplerConfig(dim=3, step=2e-3, seed=seed)
    o = geometry.origin(3)
    radii = brownian.endpoint_radii(o, 25.0, cfg, 3000)
    # the exact d = 3 mean of rho_t / t is 2 + 1/t
    return _Measured("radial-speed", abs(radii.mean() / 25.0 - (2.0 + 1.0 / 25.0)), 0.05,
                      detail=f"mean rho/t = {radii.mean()/25.0:.4f}")


def _check_radial_law(seed):
    o = geometry.origin(3)
    cdf = heatkernel.RadialLaw(1.0).cdf
    ks = {}
    for scheme in brownian._SCHEMES:
        cfg = brownian.SamplerConfig(dim=3, step=1e-3, scheme=scheme, seed=seed)
        ks[scheme] = _ks_distance(brownian.endpoint_radii(o, 1.0, cfg, 6000), cdf)
    return _Measured("radial-law-vs-exact", max(ks.values()), 0.02,
                      detail=" ".join(f"{s}={d:.4g}" for s, d in ks.items()))


def _check_determinism(seed):
    cfg = brownian.SamplerConfig(dim=3, step=1e-2, seed=seed)
    o = geometry.origin(3)
    a1, a2 = brownian.sample_pair(o, 1.0, cfg, path_index=3)
    b1, b2 = brownian.sample_pair(o, 1.0, cfg, path_index=3)
    # the largest coordinate difference between the two runs (NaN if either has one)
    diff = np.max(np.abs(np.array([a1.points, a2.points]) - np.array([b1.points, b2.points])))
    return _Measured("determinism", float(diff), 0.0)


def _check_pair_independence(seed):
    cfg = brownian.SamplerConfig(dim=3, step=5e-3, seed=seed)
    o = geometry.origin(3)
    r1 = brownian.endpoint_radii(o, 5.0, cfg, 4000, tag=brownian.TAG_PRIMARY)
    r2 = brownian.endpoint_radii(o, 5.0, cfg, 4000, tag=brownian.TAG_SECONDARY)
    corr = float(np.corrcoef(r1, r2)[0, 1])
    return _Measured("pair-independence", abs(corr), 0.05)


# -------------------------------------------------------------- covariance

def _check_decay_limit(seed):
    worst = 0.0
    for alpha in (0.5, 1.0):
        target = alpha * math.gamma(alpha)
        got = 50.0**alpha * covariance.phi_alpha(50.0, alpha)
        worst = max(worst, abs(got - target) / target)
    return _Measured("decay-limit", worst, 0.02)


def _phi_alpha_gauss_jacobi(rho, alpha):
    """phi_alpha(rho) = int_0^1 alpha v^{alpha-1} e^{-v psi} dv, by 40-node
    Gauss-Jacobi: weight (1+x)^{alpha-1} on [-1, 1], v = (1+x)/2."""
    from scipy.special import roots_jacobi
    x, w = roots_jacobi(40, 0.0, alpha - 1.0)
    terms = np.exp(-0.5 * (1.0 + x) * covariance.psi(rho))
    return alpha * 2.0**-alpha * float(np.dot(w, terms))


def _check_quadrature_consistency(seed):
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 2.0, 3.0):
        for rho in (0.0, 0.5, 2.0, 10.0, 60.0):
            worst = max(worst, abs(_phi_alpha_gauss_jacobi(rho, alpha)
                                   - covariance.phi_alpha(rho, alpha)))
    return _Measured("quadrature-consistency", worst, 1e-8)


def _check_positive_type(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(30):
        alpha = rng.choice([0.5, 1.0, 2.0])
        n = rng.integers(2, 80)
        pts = geometry.random_points(int(n), 3, rng, max_radius=30.0)
        out = covariance.psd_check(covariance.CovarianceModel("phi-alpha", alpha=alpha),
                                   pts)
        worst = max(worst, -out["min_eigenvalue"] / out["gram_trace"])
    return _Measured("positive-type", worst, 1e-8)


def _check_monotone_profile(seed):
    grid = np.linspace(0.0, 80.0, 2001)
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 2.0):
        vals = covariance.phi_alpha(grid, alpha)
        worst = max(worst, float(np.max(np.diff(vals))))
    return _Measured("profile-monotone", worst, 1e-12)


SUITES = {
    "brownian": [
        _check_radial_speed,
        _check_radial_law,
        _check_determinism,
        _check_pair_independence,
    ],
    "geometry": [
        _check_hyperboloid_constraint,
        _check_triangle_inequality,
        _check_reverse_triangle,
        _check_cone_localization,
        _check_exp_log_roundtrip,
        _check_law_of_cosines,
        _check_sphere_direction_chi2,
    ],
    "heatkernel": [
        _check_radial_normalization,
        _check_envelope_sandwich,
        _check_radial_sampler_moments,
        _check_dirichlet_euclidean,
        _check_dirichlet_hyperbolic,
        _check_exit_tail,
    ],
    "covariance": [
        _check_decay_limit,
        _check_quadrature_consistency,
        _check_positive_type,
        _check_monotone_profile,
    ],
}


def _available_cpus():
    """CPUs this process may run on; the sweep's pool and the checks' pool are
    both sized by it (``cli`` reads it under the same name)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_check(job):
    """Run check ``index`` of ``suite``: (its measurement, its seconds).

    The check is looked up here, in the worker, so a forked worker runs the
    entry its parent holds, even one replaced in place that pickle could not
    find by name.
    """
    suite, index, seed = job
    started = time.perf_counter()
    m = SUITES[suite][index](seed)
    return m, time.perf_counter() - started


def run_suite(suite, tolerance_scale=1.0, seed=None):
    """Run and judge one named suite (or 'all'); the JSON-ready report dict.

    The checks run on min(checks, available CPUs) forked workers, or in this
    process when that is 1; the first check to raise, in ``SUITES`` order,
    raises here.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    names = list(SUITES) if suite == "all" else [suite]
    seed = 20260809 if seed is None else seed
    jobs = [(name, i, seed) for name in names for i in range(len(SUITES[name]))]
    workers = min(len(jobs), _available_cpus())
    # forked, not spawned: a worker must see the SUITES entries this process holds
    fork = multiprocessing.get_context("fork")
    t0 = time.perf_counter()
    with ProcessPoolExecutor(workers, mp_context=fork) if workers > 1 \
            else contextlib.nullcontext() as pool:
        measured = list((pool.map if pool else map)(_run_check, jobs))
    checks = []
    for (name, _, _), (m, elapsed) in zip(jobs, measured):
        eff = m.limit * tolerance_scale
        checks.append({"name": m.name, "observed": float(m.observed),
                       "limit": float(m.limit), "effective_limit": float(eff),
                       "passed": bool(tolerance_scale > 0 and m.observed <= eff),
                       "detail": m.detail, "suite": name,
                       "elapsed_s": round(elapsed, 3)})
    return {
        "suite": suite,
        "tolerance_scale": tolerance_scale,
        "seed": seed,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
