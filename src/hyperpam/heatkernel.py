"""Hyperbolic heat kernels, radial laws, and ball exit-time spectra.

Conventions match the Brownian sampler: the heat semigroup is exp(t * Delta)
with Delta the full Laplace-Beltrami operator, so for d = 3 the kernel has the
closed form

    H_t(rho) = (4 pi t)^{-3/2} * (rho / sinh rho) * exp(-t - rho^2 / (4 t)),

and the radial density of the endpoint distance is H_t(rho) * 4 pi sinh^2 rho
= rho sinh rho exp(-t - rho^2/(4t)) / (t sqrt(4 pi t)).  Completing the square
shows this is the density of |2t e_1 + sqrt(2t) Z| with Z a standard 3-d
Gaussian (Bessel(3) with drift): the radius drifts at speed 2 with Gaussian
fluctuations of variance 2t.  The exact sampler draws it this way, and
:class:`RadialLaw` takes its CDF in closed form from the same identity
(normal CDFs from ``scipy.special.ndtr``, loaded on the first ``cdf`` call).
d = 3 serves as the exact validation dimension; other dimensions are covered
by the two-sided comparison envelope

    t^{-d/2} exp(-(d-1)^2 t/4 - rho^2/(4t) - (d-1) rho/2) (1+rho+t)^{(d-3)/2} (1+rho),

which brackets the true kernel with universal positive constants.

The principal Dirichlet eigenvalue and its eigenfunction both come from one
finite-volume radial operator (:func:`_fv_operator`).  ``scipy.linalg`` and
``scipy.interpolate`` load on first use too, not at import: every subcommand
imports this module, and a sweep calls none of them.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import brownian
from .geometry import ParameterError, _count, _logsinh, _nonnegative, _positive, origin

MAX_DIM = 10  # largest d dirichlet_eigenvalue was checked at; 6e-4 off at d = 30
MIN_RADIUS = 1e-60  # LAPACK's bisection fails from r ~ 1e-72, on entries (4000 / r)^2


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on call; nothing in the package calls it."""
    from scipy.integrate import solve_ivp
    return solve_ivp(*args, **kwargs)


def log_hk_exact_d3(t, rho):
    """log of the d = 3 heat kernel, safe where the kernel itself underflows."""
    _positive("t", t)
    rho = _nonnegative("rho", rho)
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
    rho = np.maximum(np.asarray(rho, dtype=float), 0.0)
    out = math.log(4.0 * math.pi) + 2.0 * _logsinh(rho) + log_hk_exact_d3(t, rho)
    return out if out.ndim else float(out)


def log_hk_envelope(t, rho, d):
    """Log of the two-sided comparison envelope (any d >= 2, any t > 0)."""
    _positive("t", t)
    _count("d", d, 2)
    rho = _nonnegative("rho", rho)
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
    """Exact distribution of the endpoint distance rho(x, B_t) in d = 3.

    ``cdf`` is P(|m e_1 + s Z| <= rho) with m = 2t, s = sqrt(2t) (the module
    docstring's identity) in closed form: Phi(a) - Phi(-b) - (s/m)(phi(a) - phi(b))
    with a = (rho - m)/s and b = (rho + m)/s.
    """

    t: float

    def __post_init__(self):
        _positive("t", self.t)

    def support_hi(self):
        return 2.0 * self.t + 14.0 * math.sqrt(2.0 * self.t) + 30.0

    def cdf(self, rho):
        m, s = 2.0 * self.t, math.sqrt(2.0 * self.t)
        rho = np.asarray(rho, dtype=float)
        a, b = (rho - m) / s, (rho + m) / s
        from scipy.special import ndtr
        # Phi(a) - Phi(-b), not Phi(a) + Phi(b) - 1: exactly 0 at rho = 0
        out = ndtr(a) - ndtr(-b) \
            - (s / m) * (np.exp(-0.5 * a**2) - np.exp(-0.5 * b**2)) / math.sqrt(2.0 * math.pi)
        return np.clip(out, 0.0, 1.0)


def sample_radial_exact_d3(t, rng, size=None):
    """Draw endpoint distances from the exact d = 3 radial law.

    Each draw is |2t e_1 + sqrt(2t) Z| for three standard normals Z (the
    drifted-Gaussian identity in the module docstring); no rejection.
    """
    _positive("t", t)
    if size is not None:
        _count("size", size, 0)
    n = 1 if size is None else size
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


def _fv_operator(r, d, mode, n):
    """The n-cell finite-volume radial operator: (diag, off, log_cell).

    Cell-centred cells of width h = r/n for -(1/w)(w u')' with w the volume
    weight: zero flux at 0 (w vanishes there), a mirrored ghost cell for the
    Dirichlet face at r, symmetrised by sqrt(w), so an eigenvector v of the
    symmetric tridiagonal (diag, off) is u = v / sqrt(w) at the cell centres,
    whose log weights are ``log_cell``.  Weights stay in log domain, since
    sinh^{d-1} r overflows long before r = 100 does.
    """
    h = r / n
    faces = h * np.arange(n + 1)
    log_face = _log_weight(faces, d, mode)
    log_cell = _log_weight(faces[:-1] + 0.5 * h, d, mode)
    outer = np.exp(log_face[1:] - log_cell)
    outer[-1] *= 2.0
    diag = (np.exp(log_face[:-1] - log_cell) + outer) / h**2
    off = -np.exp(log_face[1:-1] - 0.5 * (log_cell[:-1] + log_cell[1:])) / h**2
    return diag, off, log_cell


def _fv_eigenvalue(r, d, mode, n):
    """Lowest eigenvalue of the n-cell finite-volume radial operator."""
    diag, off, _ = _fv_operator(r, d, mode, n)
    from scipy.linalg import eigh_tridiagonal
    return eigh_tridiagonal(diag, off, eigvals_only=True,
                            select="i", select_range=(0, 0))[0]


def dirichlet_eigenvalue(r, d, mode="hyperbolic"):
    """Principal Dirichlet eigenvalue of -Delta on the geodesic ball of radius r.

    :func:`_fv_eigenvalue` (``mode``: hyperbolic or flat) at 2000 and 4000 cells,
    Richardson-extrapolated (a finer pair loses digits to rounding); for d <= MAX_DIM
    within 2e-8 relative up to r = 20 and 2e-6 at r = 100 of closed forms and shooting.
    A refused d, r or mode raises a :class:`geometry.ParameterError` naming it.
    """
    _count("d", d, 2, MAX_DIM)
    _positive("r", r, high=100)
    if r < MIN_RADIUS:
        raise ParameterError("r", f"r must be at least {MIN_RADIUS:g}, got {r:g}")
    if mode not in ("hyperbolic", "euclidean"):
        raise ParameterError("mode", f"unknown mode {mode!r}")
    coarse, fine = (_fv_eigenvalue(r, d, mode, n) for n in (2000, 4000))
    return float((4.0 * fine - coarse) / 3.0)


def dirichlet_eigenfunction(r, d, mode="hyperbolic", n_grid=4000):
    """Eigenvalue together with the radial eigenfunction sampled on a grid.

    Returns (lam, rho_grid, phi, dphi) on ``linspace(0, r, n_grid)`` with
    phi(0) = 1, for Rayleigh-quotient checks.  phi is the ground eigenvector of
    the 4000-cell :func:`_fv_operator`, unsymmetrised by 1/sqrt(w) in log
    domain and splined through the mirrored cell at 0, the cell centres and
    the zero at r; its Rayleigh quotient is within about 3e-8 of lam.
    """
    lam = dirichlet_eigenvalue(r, d, mode)
    n = 4000
    diag, off, log_cell = _fv_operator(r, d, mode, n)
    from scipy.interpolate import CubicSpline
    from scipy.linalg import eigh_tridiagonal
    v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[1][:, 0]
    log_u = np.log(np.abs(v)) - 0.5 * log_cell
    u = np.exp(log_u - log_u[0])
    spline = CubicSpline(np.append(r / n * np.arange(-0.5, n + 0.5), r),
                         np.concatenate([u[:1], u, [0.0]]))
    grid = np.linspace(0.0, r, n_grid)
    phi0 = spline(0.0)
    return lam, grid, spline(grid) / phi0, spline(grid, 1) / phi0


def exit_tail_estimate(r, t_grid, n_paths, cfg):
    """Monte Carlo survival probabilities of the exit time from the ball B(o, r).

    Estimates P(sigma_r > t) over ``t_grid`` with binomial standard errors and
    fits a log-linear slope through the unflagged entries (entries with zero
    survivors are flagged and excluded).  The slope should approach the
    negative principal Dirichlet eigenvalue of the ball.
    """
    _positive("r", r)
    t_grid = np.asarray(t_grid, dtype=float)
    if not (t_grid.size and np.all(np.isfinite(t_grid)) and np.all(np.diff(t_grid) > 0)):
        raise ValueError("t_grid must be a nonempty increasing grid of finite times")
    times = brownian.exit_times(origin(cfg.dim), r, float(t_grid[-1]), cfg, n_paths)

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
