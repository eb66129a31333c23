"""Second-moment machinery for the parabolic Anderson model.

All estimators start from the pair representation of the second moment,

    E[u(t, x)^2] = E exp(beta^2 * integral_0^t f(B_s, B_s~) ds),

with B, B~ independent hyperbolic Brownian motions from x.  The exponential
functional is heavy tailed, so every reduction happens in log domain:
estimates are reported as log E[u^2] with a delta-method standard error,
plus a max-exponent diagnostic that flags ensemble undersampling.

Estimators
----------
Each pair estimator is one reduction of z = beta^2 q, with q = integral_0^t
f ds the profile integral of one path, inside one shell, ``_estimate``, which
also reports max_z = max(z) as the diagnostic (z = 0 at beta = 0).

* ``fk_second_moment``       log-mean-exp of z (direct Monte Carlo).
* ``jensen_lower``           mean(z); a low-variance guaranteed lower bound
                             (per sample, log-mean-exp's Jensen minorant).
* ``dyson_partial``          log mean of sum_{n <= N} z^n / n!, the first
                             terms of the expansion in beta^2.
* ``lambda_constant``        the uniform bound on integral_0^inf E f(B_t, B_t~) dt
                             and the derived smallness threshold 1/sqrt(Lambda).
* ``euclidean_second_moment``  the same direct estimator driven by flat
                             Brownian motion (variance 2t per coordinate).

Ensembles
---------
Every pair estimator reads its kernel's q per path from a :class:`PairEnsemble`
through :meth:`PairEnsemble.integrals`, a lookup: the ensemble holds q per
(kernel, horizon) and no profile matrix.  A sweep builds one ensemble that
drives exactly the kernels (hyperbolic, flat) its estimators need and passes
it to every cell: beta never enters the paths, the estimators share the
streams, and a path to a shorter horizon with the same dt is a prefix of the
path to the longest.  The ensemble simulates each dt group once, to its
largest horizon, on the union of the group's stored step indices, and each
shard of paths returns its q.  Called without an ensemble, an estimator
builds a one-horizon ensemble of its own.

Time integrals use the trapezoid rule on each horizon's own storage grid
(spacing min(t/128, 0.05), rounded down to whole steps): a horizon's q
integrates exactly the columns a simulation to it alone would store.  The
quadrature error is zero for the constant oracle and ~0.02% for phi-alpha,
but truncated-power has a sqrt(s) cusp at s = 0 that the first panels
overestimate: +4.0% at t = 5 and +5.6% at t = 10 for alpha = 2.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import brownian, geometry, heatkernel

_M_F_GRID = 2001  # distances in [0, r] at which m_f evaluates the profile


class EstimatorError(RuntimeError):
    """An invalid estimator configuration, or too many excluded paths."""


class NonFiniteError(EstimatorError):
    """More than 1e-3 of the paths carry a non-finite value (too many excluded)."""


@dataclass
class MomentEstimate:
    """A log-domain Monte Carlo estimate of E[u(t, x)^2]."""

    t: float
    log_m2: float
    stderr_log: float
    n_paths: int
    beta: float
    model: object
    seed: int
    estimator_kind: str
    max_z: float = 0.0
    n_excluded: int = 0
    terms: np.ndarray | None = None
    truncation_flag: bool = False


@dataclass
class PhaseRow:
    """One growth-fit input; its fields, in order, are the rows.csv/rows.json columns."""

    alpha: float
    beta: float
    t: float
    log_m2: float
    stderr_log: float
    n_paths: int
    estimator_kind: str
    seed: int

    def __post_init__(self):
        geometry._positive("t", self.t)
        for name in ("log_m2", "stderr_log"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def _finite_paths(values, what):
    """Mask of the paths (rows of ``values``) with only finite values; more than
    1e-3 of the paths with a non-finite value is a NonFiniteError."""
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    n_excl = int(np.sum(~finite))
    if n_excl > 1e-3 * len(finite):
        raise NonFiniteError(f"{n_excl}/{len(finite)} non-finite {what}")
    return finite


class PairEnsemble:
    """n_paths pairs (B, B~) from x observed through model.profile, for several horizons.

    The ensemble holds q per path for each (kernel, horizon) and nothing
    else.  It schedules each horizon once on construction
    (``brownian._schedule``: dt and stored step indices); horizons with one
    dt form a group, which the first :meth:`integrals` call for one of them
    simulates once, to its largest horizon, keeping the q of all of them.
    The paths are split into ``shards`` contiguous index ranges, each reduced by
    :func:`_simulate_shard` through ``pmap`` (``map`` or a process pool's
    ``map``) and joined; every path draws from its own streams, so the split
    does not change a bit.  A horizon that cannot be scheduled joins no
    group, and :meth:`integrals` raises its scheduling error.

    ``kernels`` names what is driven: "hyperbolic" pairs, both walkers from
    x, and "flat" Euclidean pairs from a common start, which needs no x (it
    may be None or in R^d, too).  Path i of either kernel uses the streams of
    path i, and one simulation of a dt group steps all the kernels in one
    pass per shard, on one draw of the noise.
    """

    def __init__(self, x, model, cfg, n_paths, horizons, kernels=("hyperbolic",), pmap=map,
                 shards=1):
        self.kernels = frozenset(kernels)
        if not self.kernels or not self.kernels <= {"hyperbolic", "flat"}:
            raise ValueError(f"kernels must be hyperbolic and/or flat, got {sorted(kernels)}")
        geometry._count("n_paths", n_paths, 1, brownian.MAX_PATHS)
        if "hyperbolic" in self.kernels or not (x is None or (
                not isinstance(x, geometry.HPoint) and np.shape(x) == (cfg.dim,)
                and np.isfinite(x).all())):
            brownian._start(x, cfg, "x0")
        self.x, self.model, self.cfg, self.n_paths, self.pmap = x, model, cfg, n_paths, pmap
        self.shards = max(1, min(int(shards), n_paths))
        self._plan = {}  # horizon -> (dt, stored step indices)
        for h in horizons:
            try:
                self._plan[h] = brownian._schedule(h, cfg.step)[1:3]
            except ValueError:
                continue
        self._q = {}  # (kernel, horizon) -> q per path

    def integrals(self, t, kernel):
        """q = integral_0^t f(B_s, B_s~) ds per path of ``kernel``: the trapezoid of
        the profile values a simulation to t alone would store, on its grid."""
        if kernel not in self.kernels:
            raise ValueError(f"kernel {kernel!r} is not one of {sorted(self.kernels)}")
        if t not in self._plan:
            brownian._schedule(t, self.cfg.step)  # raises if t cannot be scheduled
            raise ValueError(f"t = {t} is not a horizon of this ensemble")
        if (kernel, t) not in self._q:
            group = {h: s for h, (dt, s) in self._plan.items() if dt == self._plan[t][0]}
            bounds = [self.n_paths * i // self.shards for i in range(self.shards + 1)]
            shards = list(self.pmap(_simulate_shard, [
                (self.x, self.model, self.cfg, self.kernels, a, b, group)
                for a, b in zip(bounds, bounds[1:])]))
            self._q.update({key: np.concatenate([q[key] for q in shards]) for key in shards[0]})
        return self._q[kernel, t]


def _simulate_shard(job):
    """{(kernel, horizon): q} of the pairs [lo, hi) for each horizon of one dt group,
    the trapezoid of its own columns of one simulation to the group's last
    horizon storing the union of their step indices; a process pool can run it."""
    x, model, cfg, kernels, lo, hi, group = job
    union = np.unique(np.concatenate(list(group.values())))
    walk = (max(group), cfg, hi - lo, model.profile)
    if "flat" not in kernels:
        times, F = brownian.pair_profile_matrix(x, x, *walk, first_index=lo, stored=union)
        F = {"hyperbolic": F}
    else:
        hyperbolic = (x, x) if "hyperbolic" in kernels else None
        times, *F = _euclidean_pair_profile_matrix(*walk, first_index=lo, stored=union,
                                                   hyperbolic=hyperbolic)
        F = dict(zip(("flat", "hyperbolic"), F))
    cols = {h: np.searchsorted(union, stored) for h, stored in group.items()}
    # a contiguous copy keeps the summation order of a run to h alone
    return {(k, h): np.trapezoid(np.ascontiguousarray(F[k][:, c]), times[c], axis=1)
            for k in F for h, c in cols.items()}


def _own_ensemble(ensemble, x, t, model, n_paths, cfg, kernel):
    """``ensemble``, else the one-horizon ensemble to t, built either way to check x
    and n_paths (it simulates nothing until read).  A given ensemble must match
    it: same n_paths, model and sampler config, driving the estimator's kernel,
    and (hyperbolic kernel) started at x; the flat kernel is translation invariant."""
    own = PairEnsemble(x, model, cfg, n_paths, (t,), kernels=(kernel,))
    if ensemble is None:
        return own
    same_start = kernel == "flat" or np.array_equal(geometry._coords(ensemble.x),
                                                    geometry._coords(x))
    if not same_start or kernel not in ensemble.kernels or (
            ensemble.n_paths, ensemble.model, ensemble.cfg) != (n_paths, model, cfg):
        raise ValueError("the ensemble's n_paths, kernel, model, sampler config or start "
                         "point differs from the estimator's")
    return ensemble


def _estimate(kind, x, t, beta, model, n_paths, cfg, ensemble, reduce, kernel="hyperbolic"):
    """The one pair-estimator shell around ``reduce``.

    Checks t, beta and (flat ``kernel``) the euclidean-mode setting, takes the
    ensemble from :func:`_own_ensemble`, forms z = beta^2 q (zero on
    every path at beta = 0, where nothing is simulated) and keeps the paths
    whose z is finite: a non-finite profile value or an overflowing beta^2,
    up to 1e-3 of the paths.  ``reduce(z)`` returns (log_m2, stderr_log,
    extra MomentEstimate fields).
    """
    geometry._positive("t", t)
    geometry._positive("beta", beta, zero=True)
    if kernel == "flat" and (problem := _euclidean_problem(model, cfg.dim)):
        raise EstimatorError(problem[1])
    ensemble = _own_ensemble(ensemble, x, t, model, n_paths, cfg, kernel)
    z = beta**2 * ensemble.integrals(t, kernel) if beta else np.zeros(ensemble.n_paths)
    z = z[_finite_paths(z, "profile integrals")]
    log_m2, se, extra = reduce(z)
    # beta or 0.0: a beta of -0.0 is recorded, and written to rows.csv, as 0.0
    return MomentEstimate(t, log_m2, se, n_paths, beta or 0.0, model, cfg.seed, kind,
                          max_z=float(np.max(z)), n_excluded=n_paths - len(z), **extra)


def _stderr(values, scale=1.0):
    """std(values, ddof=1) / (scale sqrt(n)); 0 for a single value."""
    n = len(values)
    return float(np.std(values, ddof=1) / (scale * math.sqrt(n))) if n > 1 else 0.0


def _log_mean(w, shift=0.0):
    """(shift + log mean(w), delta-method SE of the log) for positive w."""
    m = float(np.mean(w))
    return shift + math.log(m), _stderr(w, m)


def _log_mean_exp(z):
    """log mean exp(z), shifted by max(z) so the largest weight is 1."""
    zmax = float(np.max(z))
    return (*_log_mean(np.exp(z - zmax), zmax), {})


def fk_second_moment(x, t, beta, model, n_paths, cfg, ensemble=None):
    """Direct Monte Carlo estimate of log E[u(t, x)^2]: log mean exp(z)."""
    return _estimate("fk", x, t, beta, model, n_paths, cfg, ensemble, _log_mean_exp)


def jensen_lower(x, t, beta, model, n_paths, cfg, ensemble=None):
    """Jensen lower-bound estimator: mean(z) = beta^2 times the mean of q.

    Requires a nonnegative profile, which every CovarianceModel kind is
    (their amplitudes are checked positive).  On a shared ensemble this is a
    pathwise lower bound for :func:`fk_second_moment` (arithmetic-geometric
    mean).
    """
    return _estimate("jensen", x, t, beta, model, n_paths, cfg, ensemble,
                     lambda z: (float(np.mean(z)), _stderr(z), {}))


def dyson_partial(x, t, beta, model, n_terms, n_paths, cfg):
    """Partial sum of the beta^2-expansion up to order ``n_terms``.

    Each path contributes sum_n z^n / n! for its exponent z = beta^2 q, so the
    series is exact in q: the error is path noise plus truncation.  The
    result carries a truncation flag when the last term exceeds 1% of the
    partial sum.
    """
    geometry._count("n_terms", n_terms, 0, 8)
    coef = np.array([1.0 / math.factorial(n) for n in range(n_terms + 1)])

    def reduce(z):
        powers = z[:, None] ** np.arange(n_terms + 1)
        terms = coef * powers.mean(axis=0)
        truncated = bool(n_terms >= 1 and terms[-1] > 0.01 * np.sum(terms))
        return (*_log_mean(powers @ coef), {"terms": terms, "truncation_flag": truncated})

    return _estimate("dyson", x, t, beta, model, n_paths, cfg, None, reduce)


def _check_T_max(T_max):
    """Refuse a :func:`lambda_constant` horizon unless it is finite and at least 50."""
    if not 50 <= T_max < math.inf:  # also rejects NaN
        raise geometry.ParameterError("T_max",
                                      f"T_max must be finite and at least 50, got {T_max}")


def lambda_constant(model, start_pairs, T_max, n_paths, cfg):
    """Estimate the uniform bound on integral_0^inf E f(B_t, B_t~) dt.

    For the k-th start pair (x, y) the integral over [0, T_max] is computed
    from the slice means of ``brownian.pair_profile_matrix`` from x and y on
    paths [k n_paths, (k + 1) n_paths), extended by a power-law tail
    correction fitted to the integrand's late-time decay.  Returns the max
    over pairs as ``lambda_hat`` and ``beta0_hat = 1/sqrt(lambda_hat)``.

    Refuses profiles with alpha <= 1 (the tail integral does not converge),
    and raises a :class:`geometry.ParameterError` naming T_max, never an
    infinite total, for a pair without a tail fit: fewer than 3 positive
    slice means on [T_max/4, T_max], or a late slope >= -1 (not integrable).
    """
    alpha = getattr(model, "alpha", None)
    if model.kind == "constant" or alpha is None or alpha <= 1.0:
        raise EstimatorError(
            "lambda_constant requires a profile decaying faster than 1/rho "
            "(alpha > 1); the tail integral diverges otherwise")
    _check_T_max(T_max)
    start_pairs = list(start_pairs)
    if not start_pairs:
        raise ValueError("start_pairs must hold at least one (x, y) pair")
    pairs_out = []
    for k, (x, y) in enumerate(start_pairs):
        times, F = brownian.pair_profile_matrix(x, y, T_max, cfg, n_paths, model.profile,
                                                first_index=k * n_paths)
        means = F[_finite_paths(F, "profile values")].mean(axis=0)
        integral = float(np.trapezoid(means, times))
        late = times >= T_max / 4.0
        late &= means > 0
        separation = float(geometry.distance(x, y))
        if np.sum(late) < 3:
            raise geometry.ParameterError("T_max", (
                f"no tail fit for the pair at separation {separation:g}: {np.sum(late)} "
                f"of its slice means on [T_max/4, T_max] are positive, fewer than 3"))
        slope = float(np.polyfit(np.log(times[late]), np.log(means[late]), 1)[0])
        if not slope < -1.0:
            raise geometry.ParameterError("T_max", (
                f"no tail fit for the pair at separation {separation:g}: its slice means "
                f"on [T_max/4, T_max] decay with slope {slope:.3g} >= -1"))
        tail = float(means[-1] * T_max / (-slope - 1.0))
        pairs_out.append({
            "separation": separation,
            "integral": integral,
            "tail_correction": tail,
            "decay_slope": slope,
            "total": integral + tail,
        })
    lam = max(p["total"] for p in pairs_out)
    return {"lambda_hat": lam, "beta0_hat": lam ** -0.5, "pairs": pairs_out,
            "T_max": T_max, "n_paths": n_paths, "seed": cfg.seed}


def _euclidean_pair_profile_matrix(t, cfg, n_paths, profile, first_index=0, stored=None,
                                   hyperbolic=None):
    """f(|B_s - B_s~|) at stored steps for flat pairs (variance 2t per coord).

    ``hyperbolic`` = (x0, y0) also observes hyperbolic pairs from x0 and y0 on
    the same streams, in one pass through :func:`brownian.pair_profile_matrix`,
    and returns (times, F_flat, F_hyperbolic).
    """
    if hyperbolic is None:
        times, F = brownian._pair_profile({"flat": np.zeros((2, cfg.dim))}, t, cfg, n_paths,
                                          profile, first_index, stored)
        return times, F["flat"]
    times, F, F_flat = brownian.pair_profile_matrix(*hyperbolic, t, cfg, n_paths, profile,
                                                    first_index, stored, flat=True)
    return times, F_flat, F


def euclidean_second_moment(x, t, beta, model, n_paths, cfg, ensemble=None):
    """The direct estimator driven by flat Brownian motion (comparison mode).

    Requires d >= 3 (transience) and a truncated-power or constant profile;
    translation invariance makes x immaterial: None, or a point of R^d or H^d.
    """
    return _estimate("fk-euclidean", x, t, beta, model, n_paths, cfg, ensemble,
                     _log_mean_exp, kernel="flat")


def _euclidean_problem(model, dim):
    """(setting, reason) that rules out euclidean mode -- "dim" or "kind" -- or None."""
    if dim < 3:
        return "dim", "euclidean mode requires d >= 3"
    if model.kind not in ("truncated-power", "constant"):
        return "kind", "euclidean mode expects a truncated-power or constant profile"
    return None


def m_f(model, r):
    """min f over pairs of points in the ball of radius r/2 around a common center.

    For a radial profile this is the minimum of F over distances [0, r]
    (computed on a dense grid rather than assuming monotonicity).
    """
    geometry._positive("r", r, zero=True)
    grid = np.linspace(0.0, r, _M_F_GRID)
    return float(np.min(model.profile(grid)))


def critical_beta_exponential(model, r, d):
    """The sufficient inverse temperature for exponential growth at radius r.

    beta1 = sqrt(2 * lambda_{r/2} / m_f(r)); for beta above this, the
    localization lower bound exp((beta^2 m_f - 2 lambda_{r/2}) t) grows.
    r must lie in (0, 200]: the eigen-solver takes r / 2 in (0, 100].
    """
    geometry._positive("r", r, high=200)
    lam = heatkernel.dirichlet_eigenvalue(r / 2.0, d, "hyperbolic")
    return math.sqrt(2.0 * lam / m_f(model, r)), lam


@dataclass
class GrowthFit:
    """One growth fit; its fields, in order, are a summary.json entry's keys."""

    classification: str
    rate_or_exponent: float
    r_squared: float
    slope_linear: float
    r2_linear: float
    r2_power: float
    exponent_loglog: float


def _wls(x, y, w):
    """Weighted least squares of y on x: (slope, R^2).

    y and w are first scaled by powers of two to a largest magnitude below 1.
    That changes no rounding, so a fit that did not overflow keeps its bits,
    and the squares of a log moment near 1e200, or of the 1e24 weight of a
    zero stderr, cannot overflow.
    """
    ey = np.frexp(np.max(np.abs(y)))[1]
    y = np.ldexp(y, -ey)
    w = np.ldexp(w, -np.frexp(np.max(w))[1])
    W = np.sum(w)
    xm = np.sum(w * x) / W
    ym = np.sum(w * y) / W
    var = np.sum(w * (x - xm) ** 2)
    if var == 0:
        return 0.0, 0.0
    b = np.sum(w * (x - xm) * (y - ym)) / var
    a = ym - b * xm
    ss_res = np.sum(w * (y - a - b * x) ** 2)
    ss_tot = np.sum(w * (y - ym) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res < 1e-30 else 0.0)
    return float(np.ldexp(b, ey)), float(r2)


def growth_fit(rows, hypothesis):
    """Weighted least squares of log_m2 against a growth hypothesis.

    ``hypothesis`` is one of "linear-in-t", "power-t^{1-alpha}", "bounded".
    Classification rule: "bounded" when the fitted linear slope times t_max
    is within twice the largest standard error; otherwise the better-R^2
    hypothesis among linear and power wins.
    """
    if hypothesis not in ("linear-in-t", "power-t^{1-alpha}", "bounded"):
        raise ValueError(f"unknown hypothesis {hypothesis!r}")
    rows = list(rows)
    t = np.array([r.t for r in rows], dtype=float)
    if len(np.unique(t)) < 4:
        raise ValueError("need at least 4 distinct t values")
    y = np.array([r.log_m2 for r in rows], dtype=float)
    se = np.array([r.stderr_log for r in rows], dtype=float)
    w = 1.0 / np.maximum(se, 1e-12) ** 2

    b_lin, r2_lin = _wls(t, y, w)

    alphas = {r.alpha for r in rows if r.alpha is not None and np.isfinite(r.alpha)}
    r2_pow = float("nan")
    if len(alphas) == 1:
        alpha = alphas.pop()
        if 0 < alpha < 1:
            _, r2_pow = _wls(t ** (1.0 - alpha), y, w)

    exponent = float("nan")
    pos = y > 0
    if np.sum(pos) >= 2:
        exponent = float(np.polyfit(np.log(t[pos]), np.log(y[pos]), 1)[0])

    if b_lin * np.max(t) <= 2.0 * np.max(se):
        classification = "bounded"
    elif not np.isnan(r2_pow) and r2_pow > r2_lin:
        classification = "power"
    else:
        classification = "linear"

    if hypothesis == "linear-in-t":
        rate, r2 = b_lin, r2_lin
    elif hypothesis == "power-t^{1-alpha}":
        rate, r2 = exponent, r2_pow
    else:
        rate, r2 = b_lin, float("nan")
    return GrowthFit(classification, rate, r2, b_lin, r2_lin, r2_pow, exponent)


CSV_COLUMNS = tuple(f.name for f in fields(PhaseRow))


def to_phase_row(est):
    """PhaseRow view of a MomentEstimate (alpha is NaN for the constant kind)."""
    alpha = getattr(est.model, "alpha", None)
    return PhaseRow(float("nan") if alpha is None else float(alpha),
                    est.beta, est.t, est.log_m2, est.stderr_log,
                    est.n_paths, est.estimator_kind, est.seed)


def _row_values(row):
    """The row's values in CSV_COLUMNS order, each cast to its field's type."""
    return [f.type(getattr(row, f.name)) for f in fields(PhaseRow)]


def write_rows_csv(rows, file, meta=None):
    """Write PhaseRows to the open ``file``: a '#' meta header, then CSV_COLUMNS."""
    if meta:
        file.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
    file.write(",".join(CSV_COLUMNS) + "\n")
    for r in rows:
        file.write(",".join(map(str, _row_values(r))) + "\n")


def write_rows_json(rows, file, meta=None):
    """Write PhaseRows to the open ``file`` as JSON, one object per row."""
    payload = {"meta": meta or {},
               "rows": [dict(zip(CSV_COLUMNS, _row_values(r))) for r in rows]}
    json.dump(payload, file, indent=1, allow_nan=True)
    file.write("\n")
