"""Second-moment estimators: analytic oracles, ordering, cross-validation."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from hyperpam import brownian, geometry, moments
from hyperpam.brownian import SamplerConfig
from hyperpam.covariance import CovarianceModel
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
    model = CovarianceModel("truncated-power", alpha=2.0)
    for fn in (fk_second_moment, jensen_lower):
        est = fn(O3, 3.0, 0.0, model, 16, _cfg())
        assert est.log_m2 == 0.0
        assert est.stderr_log == 0.0
    est = euclidean_second_moment(np.zeros(3), 3.0, 0.0, model, 16, _cfg())
    assert est.log_m2 == 0.0 and est.stderr_log == 0.0


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
    first_order = 1.0 + jen.log_m2  # beta^2 * integral of the mean integrand
    se = math.hypot(dy.stderr_log, jen.stderr_log)
    assert math.exp(dy.log_m2) == pytest.approx(first_order, abs=3 * se + 1e-4)


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


def test_dyson_validates_n_terms():
    model = CovarianceModel("constant")
    with pytest.raises(ValueError):
        dyson_partial(O3, 1.0, 0.1, model, 9, 8, _cfg())


def test_lambda_constant_refuses_slow_decay():
    with pytest.raises(EstimatorError):
        lambda_constant(CovarianceModel("constant"), [(O3, O3)], 50.0, 8, _cfg())
    with pytest.raises(EstimatorError):
        lambda_constant(CovarianceModel("phi-alpha", alpha=1.0),
                        [(O3, O3)], 50.0, 8, _cfg())
    with pytest.raises(ValueError):
        lambda_constant(CovarianceModel("truncated-power", alpha=2.0),
                        [(O3, O3)], 10.0, 8, _cfg())


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
    with pytest.raises(ValueError):
        fk_second_moment(O3, 1.0, -0.1, model, 8, _cfg())
    with pytest.raises(ValueError):
        fk_second_moment(O3, 1.0, 0.1, model, 0, _cfg())


@pytest.mark.parametrize("flat", [False, True])
def test_ensemble_union_of_strides_matches_one_horizon_runs(flat):
    # t = 2.56, 5.12, 10 at step 1e-2 share dt = 0.01 but store every 2nd,
    # 4th and 5th step: the group's grid is a union of different strides
    model = CovarianceModel("truncated-power", alpha=0.5)
    cfg = _cfg(seed=SEED + 11)
    horizons = (2.56, 5.12, 10.0)
    assert {brownian._schedule(t, cfg.step)[1] for t in horizons} == {0.01}
    ens = moments.PairEnsemble(O3, model, cfg, 5, horizons, flat=flat, shards=3)
    for t in horizons:
        if flat:
            want = moments._euclidean_pair_profile_matrix(t, cfg, 5, model.profile)
        else:
            want = brownian.pair_profile_matrix(O3, O3, t, cfg, 5, model.profile)
        times, F = ens.matrix(t)
        assert times.tobytes() == want[0].tobytes()
        assert F.tobytes() == want[1].tobytes()
