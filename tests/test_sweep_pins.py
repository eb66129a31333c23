"""Pinned behaviour of phase-sweep cells against per-call estimates.

A sweep row must equal, bit for bit, the estimate of the same cell computed on
its own, whatever the grouping of horizons, the worker count or the failure of
another cell.  The Dyson and Lambda values are compared as values at
rtol=1e-12, since libm may round transcendental functions differently across
machines.
"""

import json

import numpy as np

from hyperpam import cli, geometry, moments
from hyperpam.brownian import SamplerConfig
from hyperpam.cli import main
from hyperpam.covariance import CovarianceModel

RTOL = 1e-12

# step 1e-2: t = 1 and t = 2 share dt = 0.01, t = 1.001 has dt = 0.01001
TWO_GROUPS = """\
[model]
kind = truncated-power
alpha = 0.5

[run]
dim = 3
step = 1e-2
n_paths = {n_paths}
seed = 77
estimators = fk, jensen, fk-euclidean

[sweep]
beta = 0, 0.5, 1.5
t = {t}
"""

_ESTIMATORS = {
    "fk": moments.fk_second_moment,
    "jensen": moments.jensen_lower,
    "fk-euclidean": moments.euclidean_second_moment,
}


def _sweep(tmp_path, name, text, *flags):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / name
    assert main(["phase-sweep", "--config", str(cfg), "--out", str(out), *flags]) == 0
    return out


def test_sweep_rows_equal_per_call_estimates(tmp_path):
    out = _sweep(tmp_path, "groups", TWO_GROUPS.format(n_paths=8, t="1, 2, 1.001"))
    rows = json.loads((out / "rows.json").read_text())["rows"]
    assert len(rows) == 3 * 3 * 3
    model = CovarianceModel("truncated-power", alpha=0.5)
    cfg = SamplerConfig(dim=3, step=1e-2, seed=77)
    for r in rows:
        est = _ESTIMATORS[r["estimator_kind"]](geometry.origin(3), r["t"], r["beta"],
                                               model, 8, cfg)
        assert (r["log_m2"], r["stderr_log"]) == (est.log_m2, est.stderr_log), r


def test_sweep_files_do_not_depend_on_workers(tmp_path, monkeypatch):
    # more CPUs than the machine may have, so that three workers really run
    monkeypatch.setattr(cli, "_available_cpus", lambda: 8)
    text = TWO_GROUPS.format(n_paths=10, t="0.5, 1, 1.5, 2, 1.001")
    outs = [_sweep(tmp_path, f"w{w}", text, "--workers", str(w)) for w in (1, 2, 3)]
    for name in ("rows.csv", "rows.json", "summary.json"):
        first = (outs[0] / name).read_bytes()
        assert all((o / name).read_bytes() == first for o in outs[1:]), name


def test_over_budget_horizon_fails_only_its_cells(tmp_path, capsys):
    text = TWO_GROUPS.format(n_paths=4, t="1, 2, 3, 4, 1e7").replace(
        "beta = 0, 0.5, 1.5", "beta = 0.5")
    out = _sweep(tmp_path, "budget", text)
    rows = json.loads((out / "rows.json").read_text())["rows"]
    summary = json.loads((out / "summary.json").read_text())
    assert sorted({r["t"] for r in rows}) == [1.0, 2.0, 3.0, 4.0]
    assert len(rows) == 3 * 4
    errors = summary["errors"]
    assert sorted(e["estimator"] for e in errors) == ["fk", "fk-euclidean", "jensen"]
    assert all(e["t"] == 1e7 and "step budget" in e["error"] for e in errors)
    assert "classification" in summary["summaries"]["fk:beta=0.5"]
    assert "step budget" in capsys.readouterr().err


def test_dyson_partial_pinned():
    model = CovarianceModel("truncated-power", alpha=0.5)
    est = moments.dyson_partial(geometry.origin(3), 0.5, 0.7, model, 3, 4,
                                SamplerConfig(3, 1e-2, "embedded-sde", 36))
    np.testing.assert_allclose([est.log_m2, est.stderr_log, est.max_z],
                               [0.15519037265225608, 0.008165005201014777,
                                0.1776085366406653], rtol=RTOL)
    np.testing.assert_allclose(est.terms, [1.0, 0.15511329731338416,
                                           0.012129274468650048,
                                           0.0006377006263991482], rtol=RTOL)


def test_lambda_constant_pinned():
    model = CovarianceModel("truncated-power", alpha=2.0)
    o = geometry.origin(3)
    y = geometry.exp_map(o, geometry.TangentVec(o, np.array([0.0, 1.0, 0.0, 0.0])), 2.0)
    res = moments.lambda_constant(model, [(o, o), (o, y)], 50.0, 3,
                                  SamplerConfig(3, 0.1, "embedded-sde", 37))
    got = [res["lambda_hat"]] + [p[k] for p in res["pairs"]
                                 for k in ("integral", "tail_correction", "decay_slope")]
    np.testing.assert_allclose(got, [
        0.1913329096960423,
        0.18987716739301286, 0.0014557423030294343, -2.097201576513622,
        0.15055788950174598, 0.0013063700462268581, -1.999267364998039,
    ], rtol=RTOL)
