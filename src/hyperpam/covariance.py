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

from .geometry import HPoint, ParameterError, _coords, _nonnegative, _positive, distance

_KINDS = ("phi-alpha", "truncated-power", "constant")
_PSI_CUTOFF = 1e-12  # phi_alpha is 1 wherever Psi <= _PSI_CUTOFF


def psi(rho):
    """log cosh rho, overflow-safe: rho - log 2 + log1p(exp(-2 rho))."""
    rho = _nonnegative("rho", rho)
    out = rho - math.log(2.0) + np.log1p(np.exp(-2.0 * rho))
    return out if out.ndim else float(out)


def lower_incomplete_gamma(a, x):
    """gamma(a, x) = integral_0^x e^{-v} v^{a-1} dv for finite a > 0, x >= 0.

    scipy's regularized P(a, x) times Gamma(a); vectorized over x.  A scalar
    x returns a float, an array x an ndarray.  A subnormal a (gammainc is 0
    there) and an a whose Gamma(a) overflows (above about 171.6) are refused.
    """
    _positive("a", a)
    x = _nonnegative("x", x)
    if a < np.finfo(float).tiny:
        raise ValueError(f"a must be at least 2.2e-308, got {a:g}")
    try:
        gamma_a = math.gamma(a)
    except OverflowError:
        raise ValueError(f"Gamma(a) overflows at a = {a:g}") from None
    from scipy.special import gammainc
    out = gammainc(a, x) * gamma_a
    return out if out.ndim else float(out)


def phi_alpha(rho, alpha):
    """The power-decay positive-type profile alpha * Psi^{-alpha} * gamma(alpha, Psi).

    The average of exp(-u^{1/alpha} * Psi) over u uniform in [0, 1].  One
    expression for every rho, its limit 1 wherever Psi <= 1e-12 (so 1 at rho = 0);
    0 at rho = inf, and where Psi^alpha overflows; NaN at rho = NaN.  A float
    for scalar rho, else an ndarray.
    """
    _positive("alpha", alpha)
    p = np.asarray(psi(rho))
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.where(p <= _PSI_CUTOFF, 1.0,
                       alpha * lower_incomplete_gamma(alpha, p) / p**alpha)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CovarianceModel:
    """A radial covariance profile f(x, y) = F(rho(x, y)).

    The fields are checked in order; the first one refused raises a
    :class:`geometry.ParameterError` that names it.  A phi-alpha alpha keeps
    :func:`phi_alpha` accurate at every rho: it is a normal double (gammainc
    is 0 at a subnormal a), and 1e-12^alpha / Gamma(alpha + 1) >= 2^-1022, so
    Psi^alpha and gamma(alpha, Psi) stay normal down to Psi = 1e-12.
    """

    kind: str
    alpha: float | None = None
    C: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError("kind", f"unknown covariance kind {self.kind!r}")
        if self.kind in ("phi-alpha", "truncated-power"):
            if self.alpha is None:
                raise ParameterError("alpha", f"{self.kind} requires alpha > 0")
            _positive("alpha", self.alpha)
        elif self.alpha is not None and not math.isfinite(self.alpha):
            raise ParameterError("alpha", f"alpha must be finite, got {self.alpha}")
        if self.kind == "phi-alpha":
            tiny = np.finfo(float).tiny
            if not (self.alpha >= tiny and math.lgamma(self.alpha + 1)
                    - self.alpha * math.log(_PSI_CUTOFF) <= -math.log(tiny)):
                raise ParameterError("alpha", "phi-alpha requires alpha between 2.2e-308 "
                                     "and about 23.69, where phi_alpha is finite and "
                                     f"accurate at every rho, got {self.alpha}")
            # load scipy.special now, in the process that parses the config,
            # so a sweep's forked workers inherit it instead of each paying it
            import scipy.special  # noqa: F401
        for name in ("C", "c"):
            _positive(name, getattr(self, name))

    def profile(self, rho):
        """F(rho) for rho >= 0 (or NaN, which propagates); vectorized over rho."""
        if self.kind == "phi-alpha":
            return phi_alpha(rho, self.alpha)  # psi refuses rho < 0
        rho = _nonnegative("rho", rho)
        if self.kind == "truncated-power":
            with np.errstate(over="ignore"):  # past the overflow, F is its limit 0
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
