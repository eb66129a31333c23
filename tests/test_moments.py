"""Second-moment estimators: analytic oracles, ordering, cross-validation."""

import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest

from hyperpam import brownian, geometry, moments
from hyperpam.brownian import SamplerConfig
from hyperpam.covariance import CovarianceModel
from hyperpam.heatkernel import exit_tail_estimate
from hyperpam.moments import (
    EstimatorError, PhaseRow, critical_beta_exponential, dyson_partial,
    euclidean_second_moment, fk_second_moment, growth_fit, jensen_lower,
    lambda_constant, m_f, to_phase_row, write_rows_csv, write_rows_json,
)

SEED = 20260809
O3 = geometry.origin(3)


def _cfg(seed=SEED, step=1e-2):
    return SamplerConfig(dim=3, step=step, scheme="embedded-sde", seed=seed)


def test_beta_zero_is_exact():
    # beta = 0 simulates nothing: also at t = 1e9, far over the step budget;
    # a beta of -0.0 is recorded as 0.0
    model = CovarianceModel("truncated-power", alpha=2.0)
    for t, beta in ((3.0, 0.0), (1e9, 0.0), (3.0, -0.0)):
        for fn in (fk_second_moment, jensen_lower, euclidean_second_moment):
            est = fn(O3, t, beta, model, 16, _cfg())
            assert (est.log_m2, est.stderr_log, est.max_z) == (0.0, 0.0, 0.0)
            assert est.n_excluded == 0 and str(est.beta) == "0.0"
        est = dyson_partial(O3, t, beta, model, 3, 16, _cfg())
        assert (est.log_m2, est.stderr_log, est.max_z) == (0.0, 0.0, 0.0)
        assert est.terms.tolist() == [1.0, 0.0, 0.0, 0.0] and str(est.beta) == "0.0"
        assert not est.truncation_flag


def test_constant_model_analytic_oracle():
    # E[u^2] = exp(beta^2 c t): the path integral is deterministic
    model = CovarianceModel("constant", c=1.0)
    est = fk_second_moment(O3, 4.0, 0.5, model, 200, _cfg())
    assert est.log_m2 == pytest.approx(1.0, abs=1e-9)
    assert est.stderr_log <= 1e-12
    jen = jensen_lower(O3, 4.0, 0.5, model, 200, _cfg())
    assert jen.log_m2 == pytest.approx(est.log_m2, abs=1e-9)
    euc = euclidean_second_moment(np.zeros(3), 4.0, 0.5, model, 200, _cfg())
    assert euc.log_m2 == pytest.approx(1.0, abs=1e-9)


def test_jensen_is_lower_bound_per_sample():
    model = CovarianceModel("truncated-power", alpha=0.5)
    cfg = _cfg(step=5e-3)
    for t in (2.0, 8.0):
        fk = fk_second_moment(O3, t, 0.4, model, 256, cfg)
        jen = jensen_lower(O3, t, 0.4, model, 256, cfg)
        # shared ensemble: log-mean-exp dominates the mean exponent exactly
        assert jen.log_m2 <= fk.log_m2 + 1e-12
        assert jen.log_m2 <= fk.log_m2 + 3.0 * math.hypot(jen.stderr_log,
                                                          fk.stderr_log)


def test_fk_monotone_in_beta_at_fixed_seed():
    model = CovarianceModel("truncated-power", alpha=1.0)
    cfg = _cfg(step=5e-3)
    vals = [fk_second_moment(O3, 3.0, b, model, 128, cfg).log_m2
            for b in (0.0, 0.1, 0.2, 0.4, 0.8)]
    assert all(a < b or (a == b == 0.0) for a, b in zip(vals, vals[1:]))


def test_fk_determinism_and_diagnostics():
    model = CovarianceModel("truncated-power", alpha=2.0)
    a = fk_second_moment(O3, 2.0, 0.3, model, 64, _cfg(seed=99))
    b = fk_second_moment(O3, 2.0, 0.3, model, 64, _cfg(seed=99))
    assert (a.log_m2, a.stderr_log, a.max_z) == (b.log_m2, b.stderr_log, b.max_z)
    c = fk_second_moment(O3, 2.0, 0.3, model, 64, _cfg(seed=100))
    assert a.log_m2 != c.log_m2
    assert a.max_z >= a.log_m2 - 1e-12
    assert a.n_excluded == 0


def test_stderr_scales_with_ensemble_size():
    model = CovarianceModel("truncated-power", alpha=2.0)
    cfg = _cfg(step=5e-3)
    se1 = fk_second_moment(O3, 5.0, 0.3, model, 1000, cfg).stderr_log
    se2 = fk_second_moment(O3, 5.0, 0.3, model, 2000, cfg).stderr_log
    assert se1 / se2 == pytest.approx(math.sqrt(2.0), rel=0.2)


def test_dyson_constant_model_truncated_exponential():
    model = CovarianceModel("constant", c=1.0)
    beta, t, n_terms = 0.5, 2.0, 4
    est = dyson_partial(O3, t, beta, model, n_terms, 64, _cfg())
    x = beta**2 * t
    expect = sum(x**n / math.factorial(n) for n in range(n_terms + 1))
    assert est.log_m2 == pytest.approx(math.log(expect), abs=1e-9)
    assert not est.truncation_flag
    # a large exponent leaves visible truncation: the flag trips
    big = dyson_partial(O3, t, 2.0, model, 4, 64, _cfg())
    assert big.truncation_flag


def test_dyson_first_order_matches_jensen_expansion():
    model = CovarianceModel("truncated-power", alpha=2.0)
    cfg = _cfg(step=5e-3)
    beta = 0.2
    dy = dyson_partial(O3, 3.0, beta, model, 1, 512, cfg)
    jen = jensen_lower(O3, 3.0, beta, model, 512, cfg)
    # both reduce the same per-path q: 1 + mean(z) is the first-order sum
    assert math.exp(dy.log_m2) == pytest.approx(1.0 + jen.log_m2, rel=1e-12)


def test_dyson_cross_validates_fk_at_small_beta():
    model = CovarianceModel("truncated-power", alpha=2.0)
    cfg = _cfg(step=5e-3, seed=SEED + 4)
    beta = math.sqrt(0.5 / (model.sup_value() * 5.0))
    fk = fk_second_moment(O3, 5.0, beta, model, 1000, cfg)
    dy = dyson_partial(O3, 5.0, beta, model, 4, 1000, cfg)
    tol = 3.0 * math.hypot(fk.stderr_log, dy.stderr_log) \
        + dy.terms[-1] / math.exp(dy.log_m2)
    assert abs(dy.log_m2 - fk.log_m2) <= tol


def test_dyson_fields_survive_dataclass_replace():
    model = CovarianceModel("constant", c=1.0)
    est = dyson_partial(O3, 2.0, 2.0, model, 4, 8, _cfg())
    copy = dataclasses.replace(est, seed=est.seed + 1)
    assert np.array_equal(copy.terms, est.terms) and len(copy.terms) == 5
    assert copy.truncation_flag is est.truncation_flag is True


def test_dyson_refuses_non_finite_profile_values():
    # past t ~ 180 at d = 3 the pair distance overflows to NaN on every path
    model = CovarianceModel("truncated-power", alpha=2.0)
    with pytest.raises(EstimatorError, match="non-finite profile integrals"):
        dyson_partial(O3, 200.0, 0.5, model, 2, 4, _cfg(step=0.1))


@pytest.mark.parametrize("estimator", [fk_second_moment, jensen_lower])
def test_phi_alpha_overflowed_pair_distance_is_an_error(estimator):
    # 6 of the 8 final pair distances are NaN at t = 200
    model = CovarianceModel("phi-alpha", alpha=0.5)
    with pytest.raises(EstimatorError, match="6/8 non-finite"):
        estimator(O3, 200.0, 0.5, model, 8, _cfg(seed=1, step=0.1))


_OTHER_RUN = {"model": CovarianceModel("truncated-power", alpha=1.5), "cfg": _cfg(seed=3),
              "x": geometry.HPoint(np.array([1.0, 0.0, 0.0, math.sqrt(2.0)]), 3)}


@pytest.mark.parametrize("flat", [False, True])
@pytest.mark.parametrize("change", sorted(_OTHER_RUN))
def test_estimator_rejects_another_runs_ensemble(flat, change):
    estimator = euclidean_second_moment if flat else fk_second_moment
    run = {"model": CovarianceModel("truncated-power", alpha=2.0), "cfg": _cfg(seed=2),
           "x": O3}

    def ensemble(r):
        return moments.PairEnsemble(r["x"], r["model"], r["cfg"], 4, (1.0,),
                                    kernels=("flat",) if flat else ("hyperbolic",))

    own = estimator(O3, 1.0, 0.5, run["model"], 4, run["cfg"], ensemble=ensemble(run))
    other = ensemble(dict(run, **{change: _OTHER_RUN[change]}))
    if flat and change == "x":  # flat pairs are translation invariant
        est = estimator(O3, 1.0, 0.5, run["model"], 4, run["cfg"], ensemble=other)
        assert est.log_m2 == own.log_m2
        return
    # also at beta = 0, where the estimate needs no path
    for fn, beta in ((estimator, 0.5), (estimator if flat else jensen_lower, 0.0)):
        with pytest.raises(ValueError, match="differs from the estimator's"):
            fn(O3, 1.0, beta, run["model"], 4, run["cfg"], ensemble=other)


@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_estimator_needs_its_kernel_in_the_ensemble(beta):
    model, cfg = CovarianceModel("truncated-power", alpha=2.0), _cfg(seed=2)
    lacking = [(("hyperbolic",), euclidean_second_moment), (("flat",), fk_second_moment),
               (("flat",), jensen_lower)]
    for kernels, estimator in lacking:
        ens = moments.PairEnsemble(O3, model, cfg, 4, (1.0,), kernels=kernels)
        with pytest.raises(ValueError, match="differs from the estimator's"):
            estimator(O3, 1.0, beta, model, 4, cfg, ensemble=ens)
    both = moments.PairEnsemble(O3, model, cfg, 4, (1.0,), kernels=("hyperbolic", "flat"))
    for estimator in (fk_second_moment, jensen_lower, euclidean_second_moment):
        alone = estimator(O3, 1.0, beta, model, 4, cfg)
        assert estimator(O3, 1.0, beta, model, 4, cfg, ensemble=both) == alone
    with pytest.raises(ValueError, match="not one of"):
        both.integrals(1.0, "geodesic-walk")
    with pytest.raises(ValueError, match="kernels must be"):
        moments.PairEnsemble(O3, model, cfg, 4, (1.0,), kernels=("geodesic-walk",))


def test_dyson_validates_n_terms():
    model = CovarianceModel("constant")
    with pytest.raises(ValueError):
        dyson_partial(O3, 1.0, 0.1, model, 9, 8, _cfg())
    with pytest.raises(ValueError, match="n_terms"):
        dyson_partial(O3, 1.0, 0.1, model, 2.5, 8, _cfg())


def test_lambda_constant_refuses_slow_decay():
    with pytest.raises(EstimatorError):
        lambda_constant(CovarianceModel("constant"), [(O3, O3)], 50.0, 8, _cfg())
    with pytest.raises(EstimatorError):
        lambda_constant(CovarianceModel("phi-alpha", alpha=1.0),
                        [(O3, O3)], 50.0, 8, _cfg())
    with pytest.raises(ValueError):
        lambda_constant(CovarianceModel("truncated-power", alpha=2.0),
                        [(O3, O3)], 10.0, 8, _cfg())


def test_lambda_constant_needs_a_start_pair():
    with pytest.raises(ValueError, match="start_pairs"):
        lambda_constant(CovarianceModel("truncated-power", alpha=2.0), [], 50.0, 8, _cfg())


def test_lambda_constant_rejects_non_integer_path_count():
    with pytest.raises(ValueError, match="n_paths"):
        lambda_constant(CovarianceModel("truncated-power", alpha=2.0),
                        [(O3, O3)], 50.0, 2.5, _cfg())


@pytest.mark.parametrize("T_max", [math.nan, math.inf])
def test_lambda_constant_names_a_non_finite_horizon(T_max):
    with pytest.raises(ValueError, match="T_max must be finite"):
        lambda_constant(CovarianceModel("truncated-power", alpha=2.0),
                        [(O3, O3)], T_max, 8, _cfg())


@pytest.mark.parametrize("flag", [True, np.True_])
def test_counts_refuse_a_bool(flag):
    # True == 1 and isinstance(True, int): a flag would otherwise run as one
    # path or one term, and be reported as the count
    model = CovarianceModel("truncated-power", alpha=2.0)
    calls = {"n_paths": [lambda: fk_second_moment(O3, 1.0, 0.5, model, flag, _cfg()),
                         lambda: jensen_lower(O3, 1.0, 0.0, model, flag, _cfg()),
                         lambda: dyson_partial(O3, 1.0, 0.5, model, 2, flag, _cfg()),
                         lambda: lambda_constant(model, [(O3, O3)], 50.0, flag, _cfg()),
                         lambda: exit_tail_estimate(1.0, [0.5], flag, _cfg())],
             "n_terms": [lambda: dyson_partial(O3, 1.0, 0.5, model, flag, 4, _cfg())]}
    for name, fns in calls.items():
        for fn in fns:
            with pytest.raises(ValueError, match=name):
                fn()


@pytest.mark.parametrize("flag", [True, np.True_])
@pytest.mark.parametrize("arg", ["t", "beta"])
def test_estimators_refuse_a_bool_time_or_coupling(arg, flag):
    # t = True ran as t = 1, and beta = True was recorded as the coupling
    model = CovarianceModel("truncated-power", alpha=2.0)
    args = {"t": 1.0, "beta": 0.5, arg: flag}
    for estimator in (fk_second_moment, jensen_lower, euclidean_second_moment):
        with pytest.raises(ValueError, match=f"^{arg} must be"):
            estimator(O3, args["t"], args["beta"], model, 4, _cfg())
    with pytest.raises(ValueError, match=f"^{arg} must be"):
        dyson_partial(O3, args["t"], args["beta"], model, 2, 4, _cfg())


def test_lambda_constant_decay_and_stability():
    model = CovarianceModel("truncated-power", alpha=2.0)
    cfg = SamplerConfig(dim=3, step=5e-3, seed=SEED + 5)
    e1 = np.array([1.0, 0.0, 0.0])
    pairs = [(O3, O3)]
    for s in (5.0, 10.0):
        y = geometry.points_from_polar(np.array([s]), e1[None, :])[0]
        pairs.append((O3, geometry.HPoint(y, 3)))
    out = lambda_constant(model, pairs, 50.0, 256, cfg)
    # the mean integrand decays like t^{-alpha}
    assert -2.4 <= out["pairs"][0]["decay_slope"] <= -1.6
    # the max over pairs is driven by the coincident-start pair, so the
    # estimate is stable under adding well-separated pairs
    solo = lambda_constant(model, [(O3, O3)], 50.0, 256, cfg)
    assert abs(out["lambda_hat"] - solo["lambda_hat"]) <= 0.25 * out["lambda_hat"]
    assert out["beta0_hat"] == pytest.approx(out["lambda_hat"] ** -0.5)
    seps = [p["separation"] for p in out["pairs"]]
    assert seps == pytest.approx([0.0, 5.0, 10.0], abs=1e-9)


def test_euclidean_mode_validation():
    model = CovarianceModel("phi-alpha", alpha=0.5)
    with pytest.raises(EstimatorError):
        euclidean_second_moment(np.zeros(3), 1.0, 0.1, model, 8, _cfg())
    tp = CovarianceModel("truncated-power", alpha=0.5)
    with pytest.raises(EstimatorError):
        euclidean_second_moment(np.zeros(2), 1.0, 0.1, tp, 8,
                                SamplerConfig(dim=2, step=1e-2, seed=1))


def test_m_f_and_critical_beta():
    tp = CovarianceModel("truncated-power", alpha=2.0)
    assert m_f(tp, 1.0) == pytest.approx(0.25, rel=1e-9)
    beta1, lam = critical_beta_exponential(tp, 1.0, 3)
    assert lam == pytest.approx(1.0 + (math.pi / 0.5) ** 2, rel=1e-6)
    assert beta1 == pytest.approx(math.sqrt(2.0 * lam / 0.25), rel=1e-6)
    assert m_f(tp, 0.0) == 1.0


@pytest.mark.parametrize("r", [250.0, 0.0, -1.0, math.nan])
def test_critical_beta_exponential_states_its_own_radius_range(r):
    with pytest.raises(ValueError, match=r"r must lie in \(0, 200\]"):
        critical_beta_exponential(CovarianceModel("truncated-power", alpha=2.0), r, 3)


@pytest.mark.parametrize("r", [math.nan, math.inf, -1.0])
def test_m_f_rejects_radius_outside_zero_to_infinity(r):
    with pytest.raises(ValueError, match="r must be finite and nonnegative"):
        m_f(CovarianceModel("truncated-power", alpha=2.0), r)


def test_growth_fit_exact_linear():
    rows = [PhaseRow(2.0, 1.0, t, 3.0 * t, 0.01, 100, "fk", 1)
            for t in (1.0, 2.0, 4.0, 8.0)]
    fit = growth_fit(rows, "linear-in-t")
    assert fit.rate_or_exponent == pytest.approx(3.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.classification == "linear"


def test_growth_fit_power_synthetic():
    rng = np.random.default_rng(SEED)
    rows = [PhaseRow(0.5, 1.0, t, 2.0 * math.sqrt(t) + rng.normal(0.0, 0.05),
                     0.05, 100, "jensen", 1)
            for t in (5.0, 10.0, 20.0, 40.0, 80.0)]
    fit = growth_fit(rows, "power-t^{1-alpha}")
    assert fit.rate_or_exponent == pytest.approx(0.5, abs=0.05)
    assert fit.classification == "power"
    assert fit.r2_power > fit.r2_linear


def test_growth_fit_bounded_classification():
    rows = [PhaseRow(2.0, 0.1, t, 0.5 + 0.001 * (t > 4), 0.05, 100, "fk", 1)
            for t in (1.0, 2.0, 4.0, 8.0)]
    fit = growth_fit(rows, "bounded")
    assert fit.classification == "bounded"
    assert math.isnan(fit.r_squared)


def test_growth_fit_constant_model_rate():
    model = CovarianceModel("constant", c=1.0)
    beta = 0.5
    rows = [to_phase_row(fk_second_moment(O3, t, beta, model, 50, _cfg()))
            for t in (1.0, 2.0, 3.0, 4.0)]
    fit = growth_fit(rows, "linear-in-t")
    assert fit.rate_or_exponent == pytest.approx(beta**2, rel=0.01)
    assert fit.classification == "linear"


def test_growth_fit_validation():
    rows = [PhaseRow(2.0, 1.0, t, t, 0.01, 10, "fk", 1) for t in (1.0, 2.0, 3.0)]
    with pytest.raises(ValueError):
        growth_fit(rows, "linear-in-t")
    with pytest.raises(ValueError):
        growth_fit(rows + [PhaseRow(2.0, 1.0, 4.0, 4.0, 0.01, 10, "fk", 1)],
                   "exponential")


@pytest.mark.parametrize("field", ["log_m2", "stderr_log"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_growth_fit_input_rejects_non_finite_values(field, value):
    rows = [PhaseRow(2.0, 1.0, t, 3.0 * t, 0.01, 100, "fk", 1) for t in (1.0, 2.0, 4.0, 8.0)]
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        growth_fit([dataclasses.replace(r, **{field: value}) for r in rows], "linear-in-t")


def test_row_io_roundtrip():
    rows = [PhaseRow(0.5, 0.3, 5.0, 1.25, 0.01, 100, "fk", 42),
            PhaseRow(float("nan"), 0.0, 10.0, 0.0, 0.0, 100, "jensen", 42)]
    buf = io.StringIO()
    write_rows_csv(rows, buf, meta={"config_hash": "abc", "seed": 42})
    text = buf.getvalue()
    lines = text.strip().splitlines()
    assert lines[0].startswith("# config_hash=abc")
    assert lines[1] == "alpha,beta,t,log_m2,stderr_log,n_paths,estimator_kind,seed"
    assert lines[3] == "nan,0.0,10.0,0.0,0.0,100,jensen,42"
    assert len(lines) == 4
    # byte-stable: writing the same rows twice gives identical text
    buf2 = io.StringIO()
    write_rows_csv(rows, buf2, meta={"config_hash": "abc", "seed": 42})
    assert buf2.getvalue() == text

    jbuf = io.StringIO()
    write_rows_json(rows, jbuf, meta={"seed": 42})
    payload = json.loads(jbuf.getvalue())
    assert payload["meta"]["seed"] == 42
    assert payload["rows"][0]["log_m2"] == 1.25
    assert all(tuple(row) == moments.CSV_COLUMNS for row in payload["rows"])


def test_validation_of_common_arguments():
    model = CovarianceModel("constant")
    with pytest.raises(ValueError):
        fk_second_moment(O3, -1.0, 0.1, model, 8, _cfg())
    for beta in (-0.1, math.nan, math.inf):
        for estimator in (fk_second_moment, jensen_lower):
            with pytest.raises(ValueError, match="beta must be"):
                estimator(O3, 1.0, beta, model, 8, _cfg())
    with pytest.raises(ValueError):
        fk_second_moment(O3, 1.0, 0.1, model, 0, _cfg())
    with pytest.raises(ValueError, match="n_paths"):
        fk_second_moment(O3, 1.0, 0.5, model, 2.5, _cfg())
    # beta = 0 returns before any path is scheduled: t is checked first
    for t in (math.nan, math.inf):
        for estimator in (fk_second_moment, jensen_lower):
            with pytest.raises(ValueError, match="t must be finite and positive"):
                estimator(O3, t, 0.0, model, 8, _cfg())
        with pytest.raises(ValueError, match="t must be finite and positive"):
            PhaseRow(1.0, 0.0, t, 0.0, 0.0, 8, "fk", 0)


@pytest.mark.parametrize("flat", [False, True])
def test_ensemble_union_of_strides_matches_one_horizon_runs(flat):
    # t = 2.56, 5.12, 10 at step 1e-2 share dt = 0.01 but store every 2nd,
    # 4th and 5th step: the group's grid is a union of different strides
    model = CovarianceModel("truncated-power", alpha=0.5)
    cfg = _cfg(seed=SEED + 11)
    horizons = (2.56, 5.12, 10.0)
    assert {brownian._schedule(t, cfg.step)[1] for t in horizons} == {0.01}
    kernel = "flat" if flat else "hyperbolic"
    ens = moments.PairEnsemble(O3, model, cfg, 5, horizons, shards=3, kernels=(kernel,))

    def run(t, stored=None):
        if flat:
            return moments._euclidean_pair_profile_matrix(t, cfg, 5, model.profile,
                                                          stored=stored)
        return brownian.pair_profile_matrix(O3, O3, t, cfg, 5, model.profile, stored=stored)

    own = {t: brownian._schedule(t, cfg.step)[2] for t in horizons}
    union = np.unique(np.concatenate(list(own.values())))
    union_times, union_F = run(10.0, union)
    for t in horizons:
        times, F = run(t)
        cols = np.searchsorted(union, own[t])
        assert union_times[cols].tobytes() == times.tobytes()
        assert union_F[:, cols].tobytes() == F.tobytes()
        assert ens.integrals(t, kernel).tobytes() == np.trapezoid(F, times, axis=1).tobytes()


def _rows(log_m2, stderr, alpha=0.5):
    return [PhaseRow(alpha, 0.5, t, y, se, 4, "fk", 1)
            for t, y, se in zip((1.0, 2.0, 3.0, 4.0), log_m2, stderr)]


@pytest.mark.parametrize("scale", [2.0**-700, 2.0**600])
def test_growth_fit_scales_exactly(scale):
    # the fit scales log_m2 and the weights by powers of two: a fit whose
    # squares do not overflow keeps its bits, and a scaled one scales exactly
    y, se = [0.11, 0.23, 0.31, 0.47], [0.01, 0.02, 0.0, 0.03]
    fit = growth_fit(_rows(y, se), "power-t^{1-alpha}")
    scaled = growth_fit(_rows([v * scale for v in y], se), "power-t^{1-alpha}")
    assert scaled.slope_linear == fit.slope_linear * scale
    assert (scaled.r2_linear, scaled.r2_power) == (fit.r2_linear, fit.r2_power)


def test_growth_fit_of_huge_log_moments_is_finite():
    # log_m2 near 1e199 overflowed the squared residuals (NaN R^2); zero
    # stderrs, weight 1e24, overflowed ss_tot at log_m2 near 1e150
    for y, se in [([1e199, 2.1e199, 2.9e199, 4e199], [1.0, 1.0, 1.0, 1.0]),
                  ([1e150, 2e150, 3e150, 4.2e150], [0.0, 0.0, 0.0, 0.0])]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = growth_fit(_rows(y, se), "linear-in-t")
        assert math.isfinite(fit.r_squared) and 0.9 < fit.r2_linear <= 1.0
        assert fit.slope_linear == pytest.approx((y[3] - y[0]) / 3, rel=0.1)
