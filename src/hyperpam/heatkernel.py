"""Hyperbolic heat kernels, radial laws, and ball exit-time spectra.

Conventions match the Brownian sampler: the heat semigroup is exp(t * Delta)
with Delta the full Laplace-Beltrami operator, so for d = 3 the kernel has the
closed form

    H_t(rho) = (4 pi t)^{-3/2} * (rho / sinh rho) * exp(-t - rho^2 / (4 t)),

and the radial density of the endpoint distance is H_t(rho) * 4 pi sinh^2 rho.
d = 3 serves as the exact validation dimension; other dimensions are covered
by the two-sided comparison envelope

    t^{-d/2} exp(-(d-1)^2 t/4 - rho^2/(4t) - (d-1) rho/2) (1+rho+t)^{(d-3)/2} (1+rho),

which brackets the true kernel with universal positive constants.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from . import brownian
from .geometry import _logsinh, origin


class SamplerFailure(RuntimeError):
    """Rejection sampler exhausted its try budget."""


class SolverFailure(RuntimeError):
    """Eigenvalue bracketing or integration failed."""


def log_hk_exact_d3(t, rho):
    """log of the d = 3 heat kernel, safe where the kernel itself underflows."""
    if t <= 0:
        raise ValueError("t must be positive")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("rho must be nonnegative")
    # log(rho/sinh rho) -> 0 as rho -> 0
    log_ratio = np.where(rho > 1e-8,
                         np.log(np.maximum(rho, 1e-300))
                         - _logsinh(np.maximum(rho, 1e-300)),
                         -rho**2 / 6.0)
    out = -1.5 * math.log(4.0 * math.pi * t) + log_ratio - t - rho**2 / (4.0 * t)
    return out if out.ndim else float(out)


def hk_exact_d3(t, rho):
    """Closed-form heat kernel on 3-dimensional hyperbolic space."""
    out = np.exp(log_hk_exact_d3(t, rho))
    return out if out.ndim else float(out)


def log_radial_density_d3(t, rho):
    """Log of the normalized radial endpoint density at time t (d = 3).

    density(rho) = hk_exact_d3(t, rho) * 4 pi sinh^2(rho); evaluated in log
    domain so it stays finite far beyond the cosh overflow radius.  The
    density is zero (log -inf) at rho <= 0.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    rho = np.maximum(np.asarray(rho, dtype=float), 0.0)
    with np.errstate(divide="ignore"):
        out = (math.log(4.0 * math.pi) - 1.5 * math.log(4.0 * math.pi * t)
               + np.log(rho) + _logsinh(rho) - t - rho**2 / (4.0 * t))
    return out if out.ndim else float(out)


def log_hk_envelope(t, rho, d):
    """Log of the two-sided comparison envelope (any d >= 2, any t > 0)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if d < 2 or int(d) != d:
        raise ValueError("d must be an integer >= 2")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("rho must be nonnegative")
    return (-0.5 * d * np.log(t)
            - (d - 1) ** 2 * t / 4.0
            - rho**2 / (4.0 * t)
            - (d - 1) * rho / 2.0
            + 0.5 * (d - 3) * np.log1p(rho + t)
            + np.log1p(rho))


def hk_envelope(t, rho, d):
    """The comparison envelope itself (log-domain evaluation, then exp)."""
    out = np.exp(log_hk_envelope(t, rho, d))
    return out if out.ndim else float(out)


@dataclass
class RadialLaw:
    """Distribution of the endpoint distance rho(x, B_t).

    kind "exact-d3" uses the closed-form d = 3 density (already normalized);
    kind "envelope-d" normalizes the envelope numerically and is only meant
    for qualitative comparisons.
    """

    t: float
    dim: int = 3
    kind: str = "exact-d3"
    _grid: np.ndarray = field(init=False, repr=False, default=None)
    _cdf: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.kind not in ("exact-d3", "envelope-d"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "exact-d3" and self.dim != 3:
            raise ValueError("the exact law is only available for d = 3")

    def support_hi(self):
        return (self.dim - 1) * self.t + 14.0 * math.sqrt(2.0 * self.t) + 30.0

    def log_pdf_unnorm(self, rho):
        if self.kind == "exact-d3":
            return log_radial_density_d3(self.t, rho)
        rho = np.asarray(rho, dtype=float)
        return log_hk_envelope(self.t, rho, self.dim) + (self.dim - 1) * _logsinh(
            np.maximum(rho, 1e-300))

    def _ensure_tables(self):
        if self._grid is not None:
            return
        grid = np.linspace(0.0, self.support_hi(), 8001)
        logp = np.full(grid.shape, -np.inf)
        logp[1:] = self.log_pdf_unnorm(grid[1:])
        p = np.exp(logp - np.max(logp[np.isfinite(logp)]))
        cdf = np.concatenate([[0.0], np.cumsum((p[1:] + p[:-1]) * 0.5 * np.diff(grid))])
        self._grid, self._cdf = grid, cdf / cdf[-1]

    def pdf(self, rho):
        """Normalized density (numeric normalization for the envelope kind)."""
        rho = np.asarray(rho, dtype=float)
        out = np.where(rho > 0, np.exp(self.log_pdf_unnorm(np.maximum(rho, 1e-300))), 0.0)
        if self.kind == "envelope-d":
            total = np.trapezoid(np.exp(self.log_pdf_unnorm(
                np.linspace(1e-12, self.support_hi(), 8001))), dx=self.support_hi() / 8000)
            out = out / total
        return out

    def cdf(self, rho):
        self._ensure_tables()
        return np.interp(np.asarray(rho, dtype=float), self._grid, self._cdf,
                         left=0.0, right=1.0)


def sample_radial_exact_d3(t, rng, size=None, return_info=False):
    """Draw endpoint distances from the exact d = 3 radial law by rejection.

    Proposal: a Gaussian centered at the asymptotic drift 2t, scale inflated
    by 1.25 over sqrt(2t) so the acceptance ratio stays bounded, truncated to
    rho > 0.  The envelope constant is located numerically at setup.  Raises
    :class:`SamplerFailure` when more than 1e4 proposals per requested sample
    are consumed.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    n = 1 if size is None else int(size)
    mu = 2.0 * t
    sd = 1.25 * math.sqrt(2.0 * t)

    def log_ratio(rho):
        # unnormalized target log(rho) + log sinh(rho) - rho^2/(4t) over the proposal
        return (np.log(rho) + _logsinh(rho) - rho**2 / (4.0 * t)
                + (rho - mu) ** 2 / (2.0 * sd**2))

    # envelope constant: the max of the (strictly concave) log ratio
    best = minimize_scalar(lambda rho: -log_ratio(rho), method="bounded",
                           bounds=(1e-12, mu + 14.0 * sd + 30.0))
    log_k = -float(best.fun) + 1e-6

    out = np.empty(n)
    filled = 0
    proposed = 0
    budget = 10**4 * n
    while filled < n:
        block = max(256, 2 * (n - filled))
        if proposed + block > budget:
            block = budget - proposed
            if block <= 0:
                raise SamplerFailure(
                    f"rejection budget exhausted at t={t} "
                    f"({filled}/{n} accepted after {proposed} proposals)")
        cand = rng.normal(mu, sd, block)
        u = rng.uniform(0.0, 1.0, block)
        proposed += block
        ok = cand > 0
        with np.errstate(invalid="ignore"):
            ok &= np.log(u) < log_ratio(np.where(ok, cand, 1.0)) - log_k
        keep = cand[ok]
        take = min(len(keep), n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    result = float(out[0]) if size is None else out
    if return_info:
        return result, {"acceptance_rate": n / max(proposed, 1),
                        "log_envelope_const": log_k}
    return result


_EIGEN_EPS = 1e-6  # shooting start; regularizes the coth/1-rho singularity at 0


def _eigen_rhs(mode, d):
    if mode == "hyperbolic":
        def rhs(rho, y, lam):
            return [y[1], -(d - 1) / math.tanh(rho) * y[1] - lam * y[0]]
    else:
        def rhs(rho, y, lam):
            return [y[1], -(d - 1) / rho * y[1] - lam * y[0]]
    return rhs


def _shoot(r, d, mode, lam):
    rhs = _eigen_rhs(mode, d)
    sol = solve_ivp(rhs, (_EIGEN_EPS, r), [1.0, 0.0], args=(lam,),
                    rtol=1e-10, atol=1e-12, dense_output=True)
    if not sol.success:
        raise SolverFailure(f"ODE integration failed at lambda={lam}: {sol.message}")
    return sol


def _has_zero(r, d, mode, lam, probe):
    """Sturm oscillation predicate: does phi(.; lam) vanish somewhere in (0, r]?

    Monotone nondecreasing in lam, which makes the principal-eigenvalue
    bisection immune to bracketing past higher modes.
    """
    sol = _shoot(r, d, mode, lam)
    vals = sol.sol(probe)[0]
    return bool(np.any(vals <= 0.0))


def dirichlet_eigenvalue(r, d, mode="hyperbolic"):
    """Principal Dirichlet eigenvalue of -Delta on the geodesic ball of radius r.

    Radial shooting with phi(eps) = 1, phi'(eps) = 0; the eigenvalue is the
    infimum of lam for which phi(.; lam) has a zero in (0, r], located by
    bisection on that (monotone) oscillation predicate to ~1e-10 relative.
    ``mode`` selects the hyperbolic or the flat (euclidean) radial operator.
    """
    if not 0 < r <= 100:
        raise ValueError("r must lie in (0, 100]")
    if d < 2 or int(d) != d:
        raise ValueError("d must be an integer >= 2")
    if mode not in ("hyperbolic", "euclidean"):
        raise ValueError(f"unknown mode {mode!r}")

    guess = (math.pi / r) ** 2 + ((d - 1) ** 2 / 4.0 if mode == "hyperbolic" else 0.0)
    probe = np.linspace(_EIGEN_EPS, r, 2001)

    lo = 0.4 * guess
    for _ in range(80):
        if not _has_zero(r, d, mode, lo, probe):
            break
        lo *= 0.5
    else:
        raise SolverFailure(f"no lower bracket for r={r}, d={d}, mode={mode}")
    hi = max(2.0 * lo, 1.2 * guess)
    for _ in range(80):
        if _has_zero(r, d, mode, hi, probe):
            break
        hi *= 2.0
    else:
        raise SolverFailure(f"no upper bracket for r={r}, d={d}, mode={mode}")
    while (hi - lo) > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if _has_zero(r, d, mode, mid, probe):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def dirichlet_eigenfunction(r, d, mode="hyperbolic", n_grid=4000):
    """Eigenvalue together with the radial eigenfunction sampled on a grid.

    Returns (lam, rho_grid, phi, dphi); used for Rayleigh-quotient checks.
    """
    lam = dirichlet_eigenvalue(r, d, mode)
    sol = _shoot(r, d, mode, lam)
    grid = np.linspace(_EIGEN_EPS, r, n_grid)
    vals = sol.sol(grid)
    return lam, grid, vals[0], vals[1]


def exit_tail_estimate(r, t_grid, n_paths, cfg, x0=None):
    """Monte Carlo survival probabilities of the ball exit time.

    Estimates P(sigma_r > t) over ``t_grid`` with binomial standard errors and
    fits a log-linear slope through the unflagged entries (entries with zero
    survivors are flagged and excluded).  The slope should approach the
    negative principal Dirichlet eigenvalue of the ball.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be increasing")
    start = origin(cfg.dim) if x0 is None else x0
    times = brownian.exit_times(start, r, float(t_grid[-1]), cfg, n_paths)

    rows = []
    for t in t_grid:
        p = float(np.mean(times > t))
        rows.append({
            "t": float(t),
            "prob": p,
            "stderr": math.sqrt(max(p * (1.0 - p), 0.0) / n_paths),
            "flagged": p == 0.0,
        })
    usable = [(row["t"], row["prob"]) for row in rows
              if not row["flagged"] and row["t"] > 0]
    slope = float("nan")
    if len(usable) >= 2:
        ts = np.array([u[0] for u in usable])
        lp = np.log([u[1] for u in usable])
        slope = float(np.polyfit(ts, lp, 1)[0])
    return {"rows": rows, "slope": slope}
