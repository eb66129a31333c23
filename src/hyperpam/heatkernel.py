"""Hyperbolic heat kernels, radial laws, and ball exit-time spectra.

Conventions match the Brownian sampler: the heat semigroup is exp(t * Delta)
with Delta the full Laplace-Beltrami operator, so for d = 3 the kernel has the
closed form

    H_t(rho) = (4 pi t)^{-3/2} * (rho / sinh rho) * exp(-t - rho^2 / (4 t)),

and the radial density of the endpoint distance is H_t(rho) * 4 pi sinh^2 rho
= rho sinh rho exp(-t - rho^2/(4t)) / (t sqrt(4 pi t)).  Completing the square
shows this is the density of |2t e_1 + sqrt(2t) Z| with Z a standard 3-d
Gaussian (Bessel(3) with drift): the radius drifts at speed 2 with Gaussian
fluctuations of variance 2t, and the exact sampler draws it this way.  d = 3
serves as the exact validation dimension; other dimensions are covered by the
two-sided comparison envelope

    t^{-d/2} exp(-(d-1)^2 t/4 - rho^2/(4t) - (d-1) rho/2) (1+rho+t)^{(d-3)/2} (1+rho),

which brackets the true kernel with universal positive constants.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from . import brownian
from .geometry import _logsinh, origin


class SolverFailure(RuntimeError):
    """Integration of the radial eigenfunction ODE failed."""


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


def sample_radial_exact_d3(t, rng, size=None):
    """Draw endpoint distances from the exact d = 3 radial law.

    Each draw is |2t e_1 + sqrt(2t) Z| for three standard normals Z (the
    drifted-Gaussian identity in the module docstring); no rejection.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    n = 1 if size is None else int(size)
    z = math.sqrt(2.0 * t) * rng.standard_normal((n, 3))
    z[:, 0] += 2.0 * t
    rho = np.linalg.norm(z, axis=1)
    return float(rho[0]) if size is None else rho


def _log_weight(rho, d, mode):
    """log of the radial volume weight sinh^{d-1} rho (or rho^{d-1})."""
    if mode == "hyperbolic":
        return (d - 1) * _logsinh(rho)
    with np.errstate(divide="ignore"):
        return (d - 1) * np.log(rho)


def _fv_eigenvalue(r, d, mode, n):
    """Lowest eigenvalue of the n-cell finite-volume radial operator.

    Cell-centred cells of width h = r/n for -(1/w)(w u')' with w the volume
    weight: zero flux at 0 (w vanishes there), a mirrored ghost cell for the
    Dirichlet face at r, symmetrised by sqrt(w).  Weights stay in log domain,
    since sinh^{d-1} r overflows long before r = 100 does.
    """
    h = r / n
    faces = h * np.arange(n + 1)
    log_face = _log_weight(faces, d, mode)
    log_cell = _log_weight(faces[:-1] + 0.5 * h, d, mode)
    outer = np.exp(log_face[1:] - log_cell)
    outer[-1] *= 2.0
    diag = (np.exp(log_face[:-1] - log_cell) + outer) / h**2
    off = -np.exp(log_face[1:-1] - 0.5 * (log_cell[:-1] + log_cell[1:])) / h**2
    return eigh_tridiagonal(diag, off, eigvals_only=True,
                            select="i", select_range=(0, 0))[0]


def dirichlet_eigenvalue(r, d, mode="hyperbolic"):
    """Principal Dirichlet eigenvalue of -Delta on the geodesic ball of radius r.

    The second-order finite-volume eigenvalue (:func:`_fv_eigenvalue`) at
    n = 2000 and 4000 cells, Richardson-extrapolated; about 5e-9 relative
    against the closed forms over r in [1e-3, 100].  A finer pair loses
    digits to rounding.  ``mode`` selects the hyperbolic or the flat
    (euclidean) radial operator.
    """
    if not 0 < r <= 100:
        raise ValueError("r must lie in (0, 100]")
    if d < 2 or int(d) != d:
        raise ValueError("d must be an integer >= 2")
    if mode not in ("hyperbolic", "euclidean"):
        raise ValueError(f"unknown mode {mode!r}")
    coarse, fine = (_fv_eigenvalue(r, d, mode, n) for n in (2000, 4000))
    return float((4.0 * fine - coarse) / 3.0)


_EIGEN_EPS = 1e-6  # shooting start; regularizes the coth/1-rho singularity at 0


def _shoot(r, d, mode, lam):
    """Shot of the Liouville-scaled w = s^k phi, k = (d-1)/2, s = sinh rho (flat: rho).

    w'' = (k^2 + k(k-1)/sinh^2 rho - lam) w (flat: (k(k-1)/rho^2 - lam) w) has
    no first-order term, so w stays O(1) where phi decays like e^{-k rho}.
    Starts from phi(eps) = 1, phi'(eps) = 0.
    """
    k = 0.5 * (d - 1)
    if mode == "hyperbolic":
        def rhs(rho, y):
            return [y[1], (k * k + k * (k - 1.0) / math.sinh(rho) ** 2 - lam) * y[0]]
        s0, ds0 = math.sinh(_EIGEN_EPS), math.cosh(_EIGEN_EPS)
    else:
        def rhs(rho, y):
            return [y[1], (k * (k - 1.0) / rho**2 - lam) * y[0]]
        s0, ds0 = _EIGEN_EPS, 1.0
    sol = solve_ivp(rhs, (_EIGEN_EPS, r), [s0**k, k * s0 ** (k - 1.0) * ds0],
                    rtol=1e-10, atol=1e-12, dense_output=True)
    if not sol.success:
        raise SolverFailure(f"ODE integration failed at lambda={lam}: {sol.message}")
    return sol


def dirichlet_eigenfunction(r, d, mode="hyperbolic", n_grid=4000):
    """Eigenvalue together with the radial eigenfunction sampled on a grid.

    Returns (lam, rho_grid, phi, dphi) from one shot at the eigenvalue, with
    phi(eps) = 1, phi'(eps) = 0; used for Rayleigh-quotient checks.  The shot
    (:func:`_shoot`) integrates w = s^k phi, k = (d-1)/2, s = sinh rho (flat:
    rho), which stays O(1) where phi decays like e^{-k rho}; then
    phi = w / s^k and phi' = (w' - k (s'/s) w) / s^k.  The Rayleigh quotient
    matches the eigenvalue to about 1e-9 for r up to 60 (d = 3).
    """
    lam = dirichlet_eigenvalue(r, d, mode)
    grid = np.linspace(_EIGEN_EPS, r, n_grid)
    w, dw = _shoot(r, d, mode, lam).sol(grid)
    k = 0.5 * (d - 1)
    if mode == "hyperbolic":
        s_k, ds_over_s = np.exp(k * _logsinh(grid)), 1.0 / np.tanh(grid)
    else:
        s_k, ds_over_s = grid**k, 1.0 / grid
    return lam, grid, w / s_k, (dw - k * ds_over_s * w) / s_k


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
