"""Second-moment machinery for the parabolic Anderson model.

All estimators start from the pair representation of the second moment,

    E[u(t, x)^2] = E exp(beta^2 * integral_0^t f(B_s, B_s~) ds),

with B, B~ independent hyperbolic Brownian motions from x.  The exponential
functional is heavy tailed, so every reduction happens in log domain:
estimates are reported as log E[u^2] with a delta-method standard error,
plus a max-exponent diagnostic that flags ensemble undersampling.

Estimators
----------
* ``fk_second_moment``       log-mean-exp over the pair ensemble (the direct
                             Monte Carlo estimator).
* ``jensen_lower``           exp(beta^2 * integral of the ensemble-averaged
                             integrand); a low-variance guaranteed lower bound
                             (per-sample, it is log-mean-exp's Jensen minorant).
* ``dyson_partial``          the first terms of the expansion in beta^2, with
                             the iterated time integrals estimated by uniform
                             time tuples on the same ensemble.
* ``lambda_constant``        the uniform bound on integral_0^inf E f(B_t, B_t~) dt
                             and the derived smallness threshold 1/sqrt(Lambda).
* ``euclidean_second_moment``  the same direct estimator driven by flat
                             Brownian motion (variance 2t per coordinate).

Ensembles
---------
Every estimator reads its profile matrix from a :class:`PairEnsemble`.  A
sweep builds one per kernel (hyperbolic, flat) and passes it to every cell:
beta never enters the paths, the estimators share the streams, and a path to
a shorter horizon with the same dt is a prefix of the path to the longest.
The ensemble is the one owner of the storage plan: it schedules each horizon
once, simulates each dt group once, to its largest horizon, and hands the
driver the union of the group's stored step indices as ``stored``.  Called
without an ensemble, an estimator builds a one-horizon ensemble of its own.

Time integrals use the trapezoid rule on each horizon's own storage grid
(spacing min(t/128, 0.05), rounded down to whole steps): a cell reads
exactly the columns a simulation to its horizon alone would store.  The
quadrature error is zero for the constant oracle and ~0.02% for phi-alpha,
but truncated-power has a sqrt(s) cusp at s = 0 that the first panels
overestimate: +4.0% at t = 5 and +5.6% at t = 10 for alpha = 2.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import brownian, geometry, heatkernel
from .brownian import path_stream


class EstimatorError(RuntimeError):
    """Too many excluded paths or an invalid estimator configuration."""


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
        if self.t <= 0:
            raise ValueError("t must be positive")


def _direct(kind, t, beta, model, n_paths, cfg, ensemble):
    """log mean exp(beta^2 q) over the pathwise integrals q, with delta-method SE.

    The profile matrix of horizon t comes from ``ensemble``; it is not read
    at beta = 0, where the estimate is exactly 0.  Non-finite exponents are
    dropped and counted, up to 1e-3 of the paths.
    """
    if beta == 0.0:
        return MomentEstimate(t, 0.0, 0.0, n_paths, 0.0, model, cfg.seed, kind)
    times, F = ensemble.matrix(t)
    z = beta**2 * np.trapezoid(F, times, axis=1)
    finite = np.isfinite(z)
    n_excl = int(np.sum(~finite))
    if n_excl > 1e-3 * n_paths:
        raise EstimatorError(f"{n_excl}/{n_paths} non-finite exponents")
    z = z[finite]
    zmax = float(np.max(z))
    w = np.exp(z - zmax)
    m = float(np.mean(w))
    se = float(np.std(w, ddof=1) / (m * math.sqrt(len(z)))) if len(z) > 1 else 0.0
    return MomentEstimate(t, zmax + math.log(m), se, n_paths, beta, model, cfg.seed,
                          kind, max_z=zmax, n_excluded=n_excl)


class PairEnsemble:
    """n_paths pairs (B, B~) observed through model.profile, for several horizons.

    The ensemble owns the storage plan: on construction it schedules each
    horizon once (``brownian._schedule``: dt and stored step indices), and
    horizons with one dt form a group.  The first :meth:`matrix` call for a
    horizon simulates its group once, to its largest horizon, storing the
    union of the group's step indices; each horizon reads its own columns.
    The paths are split into ``shards`` contiguous index ranges, simulated
    through ``pmap`` (``map`` or a process pool's ``map``) and joined; every
    path draws from its own streams, so the split does not change a bit.  A
    horizon that cannot be scheduled joins no group, and :meth:`matrix`
    raises its scheduling error.

    B starts at x and B~ at y (default x); path i uses the streams of path
    first_index + i.  ``flat`` drives Euclidean pairs from a common start.
    """

    def __init__(self, x, model, cfg, n_paths, horizons, flat=False, pmap=map,
                 shards=1, y=None, first_index=0):
        self.x, self.y = x, x if y is None else y
        self.model, self.cfg, self.flat, self.pmap = model, cfg, flat, pmap
        self.n_paths, self.first_index = int(n_paths), int(first_index)
        self.shards = max(1, min(int(shards), self.n_paths))
        self._plan = {}  # horizon -> (dt, stored step indices)
        for h in horizons:
            try:
                self._plan[h] = brownian._schedule(h, cfg.step)[1:3]
            except ValueError:
                continue
        self._simulated = {}  # dt -> (stored union, F)

    def matrix(self, t):
        """(times, F) for horizon t: the grid and profile values of a simulation to t."""
        if t not in self._plan:
            brownian._schedule(t, self.cfg.step)  # raises if t cannot be scheduled
            raise ValueError(f"t = {t} is not a horizon of this ensemble")
        dt, stored = self._plan[t]
        if dt not in self._simulated:
            self._simulated[dt] = self._simulate(dt)
        union, F = self._simulated[dt]
        # a contiguous copy keeps every later reduction's summation order
        return stored * dt, np.ascontiguousarray(F[:, np.searchsorted(union, stored)])

    def _simulate(self, dt):
        group = [h for h, (dt_h, _) in self._plan.items() if dt_h == dt]
        union = np.unique(np.concatenate([self._plan[h][1] for h in group]))
        lo, n, k = self.first_index, self.n_paths, self.shards
        bounds = [lo + n * i // k for i in range(k + 1)]
        jobs = [(self.x, self.y, self.model, self.cfg, self.flat, a, b, max(group), union)
                for a, b in zip(bounds, bounds[1:])]
        return union, np.concatenate([F for _, F in self.pmap(_simulate_shard, jobs)])


def _simulate_shard(job):
    """(times, F) of the pairs [lo, hi) of one dt group; a process pool can run it."""
    x, y, model, cfg, flat, lo, hi, t, stored = job
    if flat:
        return _euclidean_pair_profile_matrix(t, cfg, hi - lo, model.profile,
                                              first_index=lo, stored=stored)
    return brownian.pair_profile_matrix(x, y, t, cfg, hi - lo, model.profile,
                                        first_index=lo, stored=stored)


def _own_ensemble(ensemble, x, t, model, n_paths, cfg, flat=False):
    """``ensemble``, or a one-horizon ensemble to t when it is None."""
    if ensemble is None:
        return PairEnsemble(x, model, cfg, n_paths, (t,), flat=flat)
    if ensemble.n_paths != n_paths or ensemble.flat != flat:
        raise ValueError("the ensemble's n_paths or kernel differs from the estimator's")
    return ensemble


def fk_second_moment(x, t, beta, model, n_paths, cfg, ensemble=None):
    """Direct Monte Carlo estimate of log E[u(t, x)^2] over pair ensembles."""
    _check_common(t, beta, n_paths)
    return _direct("fk", t, beta, model, n_paths, cfg,
                   _own_ensemble(ensemble, x, t, model, n_paths, cfg))


def jensen_lower(x, t, beta, model, n_paths, cfg, ensemble=None):
    """Jensen lower-bound estimator: average the integrand first, then exponentiate.

    Requires a nonnegative profile, which every CovarianceModel kind is
    (their amplitudes are checked positive).  On a shared ensemble this is a
    pathwise lower bound for :func:`fk_second_moment` (arithmetic-geometric
    mean).
    """
    _check_common(t, beta, n_paths)
    if beta == 0.0:
        return MomentEstimate(t, 0.0, 0.0, n_paths, 0.0, model, cfg.seed, "jensen")
    times, F = _own_ensemble(ensemble, x, t, model, n_paths, cfg).matrix(t)
    q = np.trapezoid(F, times, axis=1)
    slice_means = F.mean(axis=0)
    integral = float(np.trapezoid(slice_means, times))
    se_int = float(np.std(q, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return MomentEstimate(t, beta**2 * integral, beta**2 * se_int, n_paths, beta,
                          model, cfg.seed, "jensen",
                          max_z=float(beta**2 * np.max(q)))


def dyson_partial(x, t, beta, model, n_terms, n_paths, cfg, tuples_per_order=64):
    """Partial sum of the beta^2-expansion up to order ``n_terms``.

    Each iterated time integral is estimated on the same path ensemble by
    Monte Carlo over uniform time tuples in [0, t]^n (linear interpolation of
    the stored integrand).  The result carries a truncation flag when the last
    term exceeds 1% of the partial sum.
    """
    _check_common(t, beta, n_paths)
    if not 0 <= n_terms <= 8:
        raise ValueError("n_terms must lie in [0, 8]")
    times, F = PairEnsemble(x, model, cfg, n_paths, (t,)).matrix(t)
    est = np.ones((n_paths, n_terms + 1))
    for p in range(n_paths):
        gen = path_stream(cfg.seed, p, brownian.TAG_TUPLES)
        row = F[p]
        for n in range(1, n_terms + 1):
            u = gen.uniform(0.0, t, size=(tuples_per_order, n))
            vals = np.interp(u.ravel(), times, row).reshape(tuples_per_order, n)
            est[p, n] = t**n * float(np.mean(np.prod(vals, axis=1)))
    coef = np.array([beta ** (2 * n) / math.factorial(n)
                     for n in range(n_terms + 1)])
    per_path = est @ coef
    total = float(np.mean(per_path))
    se = float(np.std(per_path, ddof=1) / (total * math.sqrt(n_paths))) \
        if n_paths > 1 else 0.0
    term_means = coef * est.mean(axis=0)
    truncated = bool(n_terms >= 1 and term_means[-1] > 0.01 * np.sum(term_means))
    return MomentEstimate(t, math.log(total), se, n_paths, beta, model, cfg.seed,
                          "dyson", max_z=float(np.max(per_path)), terms=term_means,
                          truncation_flag=truncated)


def lambda_constant(model, start_pairs, T_max, n_paths, cfg):
    """Estimate the uniform bound on integral_0^inf E f(B_t, B_t~) dt.

    For each start pair the time-truncated integral over [0, T_max] is
    computed from ensemble slice means, extended by a power-law tail
    correction fitted to the integrand's late-time decay.  Returns the max
    over pairs as ``lambda_hat`` and ``beta0_hat = 1/sqrt(lambda_hat)``.

    Refuses profiles with alpha <= 1 (the tail integral does not converge).
    """
    alpha = getattr(model, "alpha", None)
    if model.kind == "constant" or alpha is None or alpha <= 1.0:
        raise EstimatorError(
            "lambda_constant requires a profile decaying faster than 1/rho "
            "(alpha > 1); the tail integral diverges otherwise")
    if T_max < 50:
        raise ValueError("T_max must be at least 50")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    pairs_out = []
    for k, (x, y) in enumerate(start_pairs):
        times, F = PairEnsemble(x, model, cfg, n_paths, (T_max,), y=y,
                                first_index=k * n_paths).matrix(T_max)
        means = F.mean(axis=0)
        integral = float(np.trapezoid(means, times))
        late = times >= T_max / 4.0
        late &= means > 0
        slope = float("nan")
        tail = math.inf
        if np.sum(late) >= 3:
            slope = float(np.polyfit(np.log(times[late]), np.log(means[late]), 1)[0])
            if slope < -1.0:
                tail = float(means[-1] * T_max / (-slope - 1.0))
        pairs_out.append({
            "separation": float(geometry.distance(x, y)),
            "integral": integral,
            "tail_correction": tail,
            "decay_slope": slope,
            "total": integral + tail,
        })
    lam = max(p["total"] for p in pairs_out)
    return {"lambda_hat": lam, "beta0_hat": lam ** -0.5, "pairs": pairs_out,
            "T_max": T_max, "n_paths": n_paths, "seed": cfg.seed}


def _euclidean_pair_profile_matrix(t, cfg, n_paths, profile, first_index=0, stored=None):
    """f(|B_s - B_s~|) at stored steps for flat pairs (variance 2t per coord)."""
    return brownian._pair_profile(np.zeros((2, cfg.dim)), t, cfg, n_paths, profile,
                                  first_index, kernel="flat", stored=stored)


def euclidean_second_moment(x, t, beta, model, n_paths, cfg, ensemble=None):
    """The direct estimator driven by flat Brownian motion (comparison mode).

    Requires d >= 3 (transience) and a truncated-power or constant profile;
    translation invariance makes the starting point immaterial.
    """
    _check_common(t, beta, n_paths)
    problem = _euclidean_problem(model, cfg.dim)
    if problem:
        raise EstimatorError(problem[1])
    return _direct("fk-euclidean", t, beta, model, n_paths, cfg,
                   _own_ensemble(ensemble, x, t, model, n_paths, cfg, flat=True))


def _euclidean_problem(model, dim):
    """(setting, reason) that rules out euclidean mode -- "dim" or "kind" -- or None."""
    if dim < 3:
        return "dim", "euclidean mode requires d >= 3"
    if model.kind not in ("truncated-power", "constant"):
        return "kind", "euclidean mode expects a truncated-power or constant profile"
    return None


def _check_common(t, beta, n_paths):
    if t <= 0:
        raise ValueError("t must be positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")


def m_f(model, r, n_grid=2001):
    """min f over pairs of points in the ball of radius r/2 around a common center.

    For a radial profile this is the minimum of F over distances [0, r]
    (computed on a dense grid rather than assuming monotonicity).
    """
    grid = np.linspace(0.0, r, n_grid)
    return float(np.min(model.profile(grid)))


def critical_beta_exponential(model, r, d):
    """The sufficient inverse temperature for exponential growth at radius r.

    beta1 = sqrt(2 * lambda_{r/2} / m_f(r)); for beta above this, the
    localization lower bound exp((beta^2 m_f - 2 lambda_{r/2}) t) grows.
    """
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
    W = np.sum(w)
    xm = np.sum(w * x) / W
    ym = np.sum(w * y) / W
    var = np.sum(w * (x - xm) ** 2)
    if var == 0:
        return 0.0, ym, 0.0
    b = np.sum(w * (x - xm) * (y - ym)) / var
    a = ym - b * xm
    ss_res = np.sum(w * (y - a - b * x) ** 2)
    ss_tot = np.sum(w * (y - ym) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res < 1e-30 else 0.0)
    return float(b), float(a), float(r2)


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

    b_lin, _, r2_lin = _wls(t, y, w)

    alphas = {r.alpha for r in rows if r.alpha is not None and np.isfinite(r.alpha)}
    r2_pow = float("nan")
    if len(alphas) == 1:
        alpha = alphas.pop()
        if 0 < alpha < 1:
            _, _, r2_pow = _wls(t ** (1.0 - alpha), y, w)

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
