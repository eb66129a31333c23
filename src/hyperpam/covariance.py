"""Radial covariance profiles for the noise field, and their verification.

Three profile families are supported, all functions of the hyperbolic
distance rho alone:

* ``phi-alpha``     the positive-type kernel alpha * Psi^{-alpha} * gamma(alpha, Psi)
                    with Psi = log cosh rho; decays like alpha*Gamma(alpha) / rho^alpha.
* ``truncated-power``  C / (1 + rho)^alpha; a decay envelope used to drive the
                    moment estimators.  It carries no positive-definiteness
                    claim and is excluded from the Gram-matrix checks.
* ``constant``      f == c.  Not a decaying covariance at all; exists purely as
                    an analytic oracle (the second moment is exp(beta^2 c t)).

The lower incomplete gamma function comes from scipy's regularized
``gammainc``, vectorized, so profile evaluation along large path ensembles
stays cheap.  ``scipy.special`` loads when a ``phi-alpha`` model is built (a
sweep builds it while parsing its config, before its pool forks), not at
import: the other kinds never call it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import HPoint, _coords, distance

_KINDS = ("phi-alpha", "truncated-power", "constant")


def psi(rho):
    """log cosh rho, overflow-safe: rho - log 2 + log1p(exp(-2 rho))."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("rho must be nonnegative")
    out = rho - math.log(2.0) + np.log1p(np.exp(-2.0 * rho))
    return out if out.ndim else float(out)


def lower_incomplete_gamma(a, x):
    """gamma(a, x) = integral_0^x e^{-v} v^{a-1} dv for finite a > 0, x >= 0.

    scipy's regularized P(a, x) times Gamma(a); vectorized over x.  A scalar
    x returns a float, an array x an ndarray.
    """
    if not 0 < a < math.inf:  # also rejects NaN
        raise ValueError("a must be positive and finite")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    from scipy.special import gammainc
    out = gammainc(a, x) * math.gamma(a)
    return out if out.ndim else float(out)


def phi_alpha(rho, alpha):
    """The power-decay positive-type profile alpha * Psi^{-alpha} * gamma(alpha, Psi).

    The average of exp(-u^{1/alpha} * Psi) over u uniform in [0, 1].  One
    expression for every rho, its limit 1 wherever Psi <= 1e-12 (so 1 at rho = 0);
    0 at rho = inf, NaN at rho = NaN.  A float for scalar rho, else an ndarray.
    """
    if not 0 < alpha < math.inf:  # also rejects NaN
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    p = np.asarray(psi(rho))
    with np.errstate(invalid="ignore"):
        out = np.where(p <= 1e-12, 1.0, alpha * lower_incomplete_gamma(alpha, p) / p**alpha)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CovarianceModel:
    """A radial covariance profile f(x, y) = F(rho(x, y))."""

    kind: str
    alpha: float | None = None
    C: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        if self.alpha is not None and not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.kind in ("phi-alpha", "truncated-power"):
            if self.alpha is None or self.alpha <= 0:
                raise ValueError(f"{self.kind} requires alpha > 0")
        if self.kind == "phi-alpha":
            # load scipy.special now, in the process that parses the config,
            # so a sweep's forked workers inherit it instead of each paying it
            import scipy.special  # noqa: F401
        # chained comparisons also reject NaN
        if not (0 < self.C < math.inf and 0 < self.c < math.inf):
            raise ValueError("amplitudes must be positive and finite")

    def profile(self, rho):
        """F(rho) for rho >= 0 (or NaN, which propagates); vectorized over rho."""
        rho = np.asarray(rho, dtype=float)
        if self.kind == "phi-alpha":
            return phi_alpha(rho, self.alpha)  # psi refuses rho < 0
        if np.any(rho < 0):
            raise ValueError("rho must be nonnegative")
        if self.kind == "truncated-power":
            return self.C / (1.0 + rho) ** self.alpha
        f = np.where(np.isnan(rho), np.nan, self.c)
        return f if rho.ndim else float(f)

    def evaluate(self, x, y):
        """F(rho(x, y)) for two hyperboloid points, every kind alike (radial, symmetric)."""
        if isinstance(x, HPoint) and isinstance(y, HPoint) and x.dim != y.dim:
            raise ValueError("points have different dimensions")
        return float(self.profile(distance(x, y)))

    def sup_value(self):
        """Supremum of the profile: every kind attains it at rho = 0."""
        return float(self.profile(0.0))

    def label(self):
        if self.kind == "phi-alpha":
            return f"phi-alpha(alpha={self.alpha:g})"
        if self.kind == "truncated-power":
            return f"truncated-power(alpha={self.alpha:g},C={self.C:g})"
        return f"constant(c={self.c:g})"


def psd_check(model, points):
    """Gram-matrix positivity probe: min eigenvalue and trace of [f(x_i, x_j)].

    ``points``: 1 <= n <= 500 HPoints or coordinate rows (an (n, d+1) array
    too), counted first, then unwrapped alike.  For the phi-alpha kind the
    contract is min_eigenvalue >= -1e-8 * trace.
    """
    if not 1 <= len(points) <= 500:
        raise ValueError("need between 1 and 500 points")
    coords = np.stack([_coords(p) for p in points])
    gram = np.asarray(model.profile(distance(coords[:, None], coords[None])), dtype=float)
    eig = np.linalg.eigvalsh(gram)
    return {"min_eigenvalue": float(eig[0]), "gram_trace": float(np.trace(gram))}
