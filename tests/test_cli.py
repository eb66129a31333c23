"""CLI: configs, sweeps, validation driver, exit codes, determinism."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperpam import checks, cli, geometry
from hyperpam.cli import main
from hyperpam.moments import PhaseRow, growth_fit

BASE_CONFIG = """\
[model]
kind = constant
c = 1.0

[run]
dim = 3
step = 1e-2
n_paths = 64
seed = 4242
estimators = fk

[sweep]
beta = 0.5
t = 1, 2, 3, 4
"""


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["phase-sweep", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_config_error_reports_location(tmp_path, capsys):
    bad = BASE_CONFIG.replace("beta = 0.5", "beta = fast")
    rc = main(["phase-sweep", "--config", _write(tmp_path, bad),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "beta" in err and ":" in err


def test_missing_seed_rejected(tmp_path, capsys):
    bad = BASE_CONFIG.replace("seed = 4242\n", "")
    rc = main(["phase-sweep", "--config", _write(tmp_path, bad),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_estimator_rejected(tmp_path, capsys):
    bad = BASE_CONFIG.replace("estimators = fk", "estimators = mc3000")
    rc = main(["phase-sweep", "--config", _write(tmp_path, bad),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "mc3000" in capsys.readouterr().err


@pytest.mark.parametrize("key,good,bad", [
    ("dim", "dim = 3", "dim = 1"),
    ("step", "step = 1e-2", "step = 0.5"),
    ("scheme", "dim = 3", "dim = 3\nscheme = leapfrog"),
])
def test_sampler_config_error_names_key(tmp_path, capsys, key, good, bad):
    rc = main(["phase-sweep", "--config",
               _write(tmp_path, BASE_CONFIG.replace(good, bad)),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"[run] {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("key,good,bad", [
    ("t", "t = 1, 2, 3, 4", "t = 1, nan, 3, 4"),
    ("t", "t = 1, 2, 3, 4", "t = 1, 2, 3, inf"),
    ("beta", "beta = 0.5", "beta = nan"),
    ("beta", "beta = 0.5", "beta = inf"),
])
def test_sweep_nonfinite_grid_value_rejected(tmp_path, capsys, key, good, bad):
    rc = main(["phase-sweep", "--config",
               _write(tmp_path, BASE_CONFIG.replace(good, bad)),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"[sweep] {key}:" in capsys.readouterr().err


class _SerialPool:
    """Stand-in for ProcessPoolExecutor: records max_workers, starts no process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def pool_sizes(monkeypatch):
    sizes = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor",
                        lambda max_workers: _SerialPool(sizes, max_workers))
    return sizes


# 16 cells of the constant oracle
_SIXTEEN_CELLS = BASE_CONFIG.replace("beta = 0.5", "beta = 0.1, 0.2, 0.3, 0.4") \
    .replace("n_paths = 64", "n_paths = 4")


@pytest.mark.parametrize("text,flag", [
    (_SIXTEEN_CELLS.replace("seed = 4242", "seed = 4242\nworkers = 1000000"), []),
    (_SIXTEEN_CELLS, ["--workers", "1000000"]),
], ids=["config", "flag"])
def test_sweep_pool_size_is_bounded(tmp_path, pool_sizes, text, flag):
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    assert main(["phase-sweep", "--config", _write(tmp_path, text),
                 "--out", str(tmp_path / "out")] + flag) == 0
    assert all(n <= min(16, cpus) for n in pool_sizes)
    rows = (tmp_path / "out" / "rows.csv").read_text().splitlines()
    assert len(rows) == 2 + 16


@pytest.mark.parametrize("text,flag,named", [
    (BASE_CONFIG.replace("seed = 4242", "seed = 4242\nworkers = 0"), [], "[run] workers"),
    (BASE_CONFIG.replace("seed = 4242", "seed = 4242\nworkers = -3"), [], "[run] workers"),
    (BASE_CONFIG, ["--workers", "0"], "--workers"),
], ids=["config-zero", "config-negative", "flag-zero"])
def test_sweep_rejects_workers_below_one(tmp_path, capsys, pool_sizes, text, flag, named):
    rc = main(["phase-sweep", "--config", _write(tmp_path, text),
               "--out", str(tmp_path / "out")] + flag)
    assert rc == 2
    assert named in capsys.readouterr().err
    assert pool_sizes == []


def test_sweep_summary_fits_only_its_own_estimator(tmp_path):
    """The fk summary must not absorb the fk-euclidean rows."""
    cfg = """\
[model]
kind = truncated-power
alpha = 0.5

[run]
dim = 3
step = 1e-2
n_paths = 16
seed = 4242
estimators = fk, fk-euclidean

[sweep]
beta = 0.5
t = 1, 2, 3, 4
"""
    out = tmp_path / "out"
    assert main(["phase-sweep", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = [PhaseRow(**r) for r in json.loads((out / "rows.json").read_text())["rows"]]
    summary = json.loads((out / "summary.json").read_text())["summaries"]
    for kind in ("fk", "fk-euclidean"):
        own = [r for r in rows if r.estimator_kind == kind]
        assert len(own) == 4
        fit = growth_fit(own, "power-t^{1-alpha}")
        assert summary[f"{kind}:beta=0.5"]["slope_linear"] == pytest.approx(
            fit.slope_linear, rel=1e-12)


def test_sweep_with_fewer_than_four_horizons_writes_a_note(tmp_path):
    """Three distinct t cannot be fitted: every estimator and beta gets the note."""
    cfg = """\
[model]
kind = phi-alpha
alpha = 0.5

[run]
dim = 3
step = 2e-3
n_paths = 16
seed = 5
estimators = fk, jensen

[sweep]
beta = 0.2, 0.4
t = 1.25, 2.5, 5
"""
    out = tmp_path / "out"
    assert main(["phase-sweep", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert len(json.loads((out / "rows.json").read_text())["rows"]) == 12
    summary = json.loads((out / "summary.json").read_text())
    assert summary["errors"] == []
    assert summary["summaries"] == {
        f"{kind}:beta={beta}": {"note": "need >= 4 distinct t values"}
        for kind in ("fk", "jensen") for beta in ("0.2", "0.4")}


def test_beta_zero_sweep_rows_are_zero(tmp_path):
    cfg = BASE_CONFIG.replace("beta = 0.5", "beta = 0")
    out = tmp_path / "out"
    assert main(["phase-sweep", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    rows = json.loads((out / "rows.json").read_text())["rows"]
    assert len(rows) == 4
    assert all(r["log_m2"] == 0.0 and r["stderr_log"] == 0.0 for r in rows)


def test_constant_sweep_reproduces_rate(tmp_path):
    out = tmp_path / "out"
    assert main(["phase-sweep", "--config", _write(tmp_path, BASE_CONFIG),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summaries"]
    fit = summary["fk:beta=0.5"]
    assert fit["classification"] == "linear"
    assert fit["rate_or_exponent"] == pytest.approx(0.25, rel=0.01)
    # header comment carries the config hash and seed
    first = (out / "rows.csv").read_text().splitlines()[0]
    assert first.startswith("#") and "config_hash=" in first and "seed=4242" in first


def test_summary_entry_key_order(tmp_path):
    out = tmp_path / "out"
    assert main(["phase-sweep", "--config", _write(tmp_path, BASE_CONFIG),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summaries"]
    assert list(summary["fk:beta=0.5"]) == [
        "hypothesis", "classification", "rate_or_exponent", "r_squared",
        "slope_linear", "r2_linear", "r2_power", "exponent_loglog"]


def test_sweep_reruns_byte_identical(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["phase-sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["phase-sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "rows.csv").read_bytes() == (out2 / "rows.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_sweep_worker_pool_matches_serial(tmp_path):
    cfg = _write(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "serial", tmp_path / "pool"
    assert main(["phase-sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["phase-sweep", "--config", cfg, "--workers", "2",
                 "--out", str(out2)]) == 0
    assert (out1 / "rows.csv").read_bytes() == (out2 / "rows.csv").read_bytes()


def test_power_regime_sweep_classification(tmp_path):
    cfg = """\
[model]
kind = phi-alpha
alpha = 0.5

[run]
dim = 3
step = 5e-3
n_paths = 256
seed = 777
estimators = jensen

[sweep]
beta = 0.3
t = 4, 8, 16, 32
"""
    out = tmp_path / "out"
    assert main(["phase-sweep", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summaries"]
    fit = summary["jensen:beta=0.3"]
    assert fit["hypothesis"] == "power-t^{1-alpha}"
    assert fit["classification"] == "power"
    assert fit["r2_power"] > fit["r2_linear"]


@pytest.mark.parametrize("suite,some_checks", [
    ("geometry", {"hyperboloid-constraint", "triangle-inequality"}),
    ("heatkernel", {"radial-density-normalization", "dirichlet-hyperbolic-limits"}),
    ("brownian", {"radial-law-vs-exact", "pair-independence"}),
    ("covariance", {"decay-limit", "positive-type", "quadrature-consistency"}),
], ids=["geometry", "heatkernel", "brownian", "covariance"])
def test_validate_suite_passes_and_self_test(tmp_path, capsys, suite, some_checks):
    report_path = tmp_path / "report.json"
    rc = main(["validate", "--suite", suite, "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["all_passed"]
    assert some_checks <= {c["name"] for c in report["checks"]}
    capsys.readouterr()
    # corrupted tolerance: a zero scale must fail every check, not only turn the run red
    rc = main(["validate", "--suite", suite, "--tolerance-scale", "0.0",
               "--out", str(report_path)])
    assert rc == 1
    report = json.loads(report_path.read_text())
    assert report["checks"] and not any(c["passed"] for c in report["checks"])


def test_lambda_requires_integrable_decay(tmp_path, capsys):
    cfg = BASE_CONFIG  # constant kind: no decay
    rc = main(["lambda", "--config", _write(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "alpha > 1" in capsys.readouterr().err


def test_lambda_run_writes_threshold(tmp_path):
    cfg = """\
[model]
kind = truncated-power
alpha = 2.0
C = 1.0

[run]
dim = 3
step = 5e-3
seed = 902

[lambda]
t_max = 50
separations = 0, 5
n_paths = 96
"""
    out = tmp_path / "out"
    assert main(["lambda", "--config", _write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    result = json.loads((out / "lambda.json").read_text())
    assert result["lambda_hat"] > 0
    assert result["beta0_hat"] == pytest.approx(result["lambda_hat"] ** -0.5)
    assert len(result["pairs"]) == 2
    assert all(np.isfinite(p["tail_correction"]) for p in result["pairs"])


def test_sample_path_dump(tmp_path):
    out = tmp_path / "paths.csv"
    rc = main(["sample-path", "--t", "0.5", "--n-paths", "2", "--step", "1e-2",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "path_id,t,z1,z2,z3,z4"
    assert len(lines) > 4


def test_eigenvalue_subcommand(capsys):
    assert main(["eigenvalue", "--r", "1.0", "--mode", "euclidean"]) == 0
    out = capsys.readouterr().out
    val = float(out.strip().split("=")[-1])
    assert val == pytest.approx(math.pi**2, rel=1e-6)


def test_eigenvalue_subcommand_large_radius(capsys):
    assert main(["eigenvalue", "--r", "100", "--dim", "3"]) == 0
    val = float(capsys.readouterr().out.strip().split("=")[-1])
    assert val == pytest.approx(1.0 + (math.pi / 100.0) ** 2, rel=1e-8)


_EUCLIDEAN = BASE_CONFIG.replace("estimators = fk", "estimators = fk, fk-euclidean")

_TP_CONFIG = """\
[model]
kind = truncated-power
alpha = 0.5
C = 1

[run]
step = 0.05
n_paths = 4
seed = 5
estimators = fk, jensen

[sweep]
beta = 0.5
t = 1, 2, 3, 4
"""


@pytest.mark.parametrize("text,named", [
    (BASE_CONFIG.replace("n_paths = 64", "n_paths = 0"), "[run] n_paths:"),
    (BASE_CONFIG.replace("beta = 0.5", "beta ="), "[sweep] beta:"),
    (BASE_CONFIG.replace("t = 1, 2, 3, 4", "t ="), "[sweep] t:"),
    (_EUCLIDEAN.replace("dim = 3", "dim = 2"), "[run] dim:"),
    (_EUCLIDEAN.replace("kind = constant", "kind = phi-alpha\nalpha = 0.5"),
     "[model] kind:"),
    # each of these ran every cell and exited 0: 1e308 failed its cells with a
    # bare OverflowError, C = 1e308 and step = 1e-9 wrote 0 rows, step = 1e-300
    # printed a 301-digit step count and 5e-324 raised an OverflowError
    (_TP_CONFIG.replace("beta = 0.5", "beta = 0.5, 1e308"),
     "[sweep] beta: 1e+308: beta^2 F(0) max t overflows"),
    (_TP_CONFIG.replace("C = 1", "C = 1e308"),
     "[model] C: F(0) = 1e+308 times max t = 4 overflows"),
    (_TP_CONFIG.replace("kind = truncated-power\nalpha = 0.5\nC = 1",
                        "kind = constant\nc = 1e308"), "[model] c: F(0) = 1e+308"),
    (_TP_CONFIG.replace("C = 1", "C = 1e200"),
     "[sweep] beta: 0.5: jensen squares beta^2 F(0) max t"),
    (_TP_CONFIG.replace("step = 0.05", "step = 1e-9"), "[run] step: 1e-09 schedules no "
     "[sweep] t: t/step = 1e+09 exceeds the 100000000 step budget"),
    (_TP_CONFIG.replace("step = 0.05", "step = 1e-300"), "t/step = 1e+300 exceeds"),
    (_TP_CONFIG.replace("step = 0.05", "step = 5e-324"), "t/step = inf exceeds"),
    (BASE_CONFIG + "\n[run]\nseed = 1\n", "exp.cfg: While reading from '<string>' "
     "[line 16]: section 'run' already exists"),
], ids=["no-paths", "no-beta", "no-t", "euclidean-dim", "euclidean-kind", "beta-overflow",
        "C-overflow", "c-overflow", "jensen-square-overflow", "step-budget", "step-digits",
        "step-subnormal", "duplicate-section"])
def test_sweep_that_cannot_produce_rows_exits_2(tmp_path, capsys, text, named):
    rc = main(["phase-sweep", "--config", _write(tmp_path, text),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_overflow_checks_pass_a_large_amplitude(tmp_path, capsys):
    # beta^2 F(0) max t = 1e150, and its square, are finite
    text = _TP_CONFIG.replace("C = 1", "C = 1e150")
    assert main(["phase-sweep", "--config", _write(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 0
    assert "errors=0" in capsys.readouterr().out


def test_lambda_rejects_no_paths(tmp_path, capsys):
    cfg = """\
[model]
kind = truncated-power
alpha = 2.0

[run]
seed = 902

[lambda]
separations = 0
n_paths = 0
"""
    out = tmp_path / "out"
    assert main(["lambda", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert "n_paths" in capsys.readouterr().err
    assert not (out / "lambda.json").exists()


def test_sample_path_rejects_no_paths(tmp_path, capsys):
    rc = main(["sample-path", "--n-paths", "0", "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "--n-paths" in capsys.readouterr().err


def test_validate_honours_seed_zero(tmp_path):
    report_path = tmp_path / "report.json"
    main(["validate", "--suite", "covariance", "--seed", "0", "--out", str(report_path)])
    assert json.loads(report_path.read_text())["seed"] == 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_raising_check_exits_2_at_any_cpu_count(monkeypatch, capsys, cpus):
    # the first check to raise, in SUITES order, is the one reported
    def raising(message):
        def check(seed):
            raise ValueError(message)
        return check

    fns = list(checks.SUITES["covariance"])
    fns[1], fns[3] = raising("bad quadrature"), raising("bad profile")
    monkeypatch.setitem(checks.SUITES, "covariance", fns)
    monkeypatch.setattr(checks, "_available_cpus", lambda: cpus)
    assert main(["validate", "--suite", "covariance"]) == 2
    assert capsys.readouterr().err == "error: bad quadrature\n"


_LAMBDA_CONFIG = """\
[model]
kind = truncated-power
alpha = 2.0

[run]
step = 1e-1
seed = 902

[lambda]
t_max = {t_max}
separations = {seps}
n_paths = 2
"""


@pytest.mark.parametrize("t_max,seps,named", [
    ("inf", "0", "[lambda] t_max"),
    ("nan", "0", "[lambda] t_max"),
    ("50", "nan", "[lambda] separations"),
    ("50", "0, inf", "[lambda] separations"),
    ("50", "-1", "[lambda] separations"),
    ("50", "", "[lambda] separations"),
    ("50", "0, 5, 0", "[lambda] separations: lists 0.0 more than once"),
    ("1e9", "0", "[lambda] t_max: t/step = 1e+10 exceeds the 100000000 step budget"),
    ("200", "0", "[lambda] t_max: 2/2 non-finite profile values"),
], ids=["t_max-inf", "t_max-nan", "sep-nan", "sep-inf", "sep-negative", "sep-empty",
        "sep-repeated", "t_max-step-budget", "t_max-overflow"])
def test_lambda_rejects_nonfinite_settings(tmp_path, capsys, t_max, seps, named):
    out = tmp_path / "out"
    cfg = _write(tmp_path, _LAMBDA_CONFIG.format(t_max=t_max, seps=seps))
    assert main(["lambda", "--config", cfg, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "lambda.json").exists()


# past t ~ 180 at d = 3 the two radii sum beyond ~711 and the pair distance
# overflows; pytest turns a leaked numpy warning into an error
def test_lambda_long_horizon_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, _LAMBDA_CONFIG.format(t_max=200, seps=0).replace(
        "n_paths = 2", "n_paths = 4"))
    assert main(["lambda", "--config", cfg, "--out", str(out)]) == 2
    assert "non-finite profile values" in capsys.readouterr().err
    assert not (out / "lambda.json").exists()


@pytest.mark.parametrize("kind", ["truncated-power", "phi-alpha"])
def test_long_horizon_jensen_cell_is_an_error(tmp_path, kind):
    text = BASE_CONFIG.replace("kind = constant\nc = 1.0", f"kind = {kind}\nalpha = 0.5")
    text = text.replace("step = 1e-2", "step = 1e-1").replace("n_paths = 64", "n_paths = 4")
    text = text.replace("estimators = fk", "estimators = fk, jensen").replace(
        "t = 1, 2, 3, 4", "t = 200")
    out = tmp_path / "out"
    assert main(["phase-sweep", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    errors = json.loads((out / "summary.json").read_text())["errors"]
    assert sorted(e["estimator"] for e in errors) == ["fk", "jensen"]
    assert "non-finite profile integrals" in errors[1]["error"]
    assert (out / "rows.csv").read_text().splitlines()[2:] == []


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("section", ["lambda", "run"])
def test_lambda_bad_n_paths_names_its_key(tmp_path, capsys, section, value):
    # [lambda] n_paths overrides [run] n_paths: the error names the one in use
    text = _LAMBDA_CONFIG.format(t_max=50, seps=0).replace("n_paths = 2\n", "")
    text = text.replace(f"[{section}]\n", f"[{section}]\nn_paths = {value}\n")
    line = text.splitlines().index(f"n_paths = {value}") + 1
    out = tmp_path / "out"
    assert main(["lambda", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    assert f"exp.cfg:{line}: [{section}] n_paths: n_paths must be an integer in " \
        f"[1, 100000000], got {value}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t", ["inf", "nan", "0"])
def test_sample_path_rejects_bad_horizon(tmp_path, capsys, t):
    rc = main(["sample-path", "--t", t, "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "--t" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("key,good,bad", [
    ("alpha", "kind = constant\nc = 1.0", "kind = truncated-power\nalpha = -1"),
    ("alpha", "kind = constant\nc = 1.0", "kind = phi-alpha\nalpha = nan"),
    ("alpha", "kind = constant\nc = 1.0", "kind = constant\nalpha = inf"),
    ("C", "kind = constant\nc = 1.0", "kind = truncated-power\nC = -1\nalpha = 2"),
    ("C", "kind = constant\nc = 1.0", "kind = truncated-power\nC = nan\nalpha = 2"),
    ("c", "c = 1.0", "c = -1"),
    ("c", "c = 1.0", "c = inf"),
    ("c", "c = 1.0", "c = nan"),
])
def test_model_config_error_names_key(tmp_path, capsys, key, good, bad):
    text = BASE_CONFIG.replace(good, bad)
    line = text.splitlines().index(next(ln for ln in bad.splitlines()
                                        if ln.startswith(key + " "))) + 1
    rc = main(["phase-sweep", "--config", _write(tmp_path, text),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"exp.cfg:{line}: [model] {key}:" in capsys.readouterr().err


@pytest.mark.parametrize("good,bad,named", [
    ("n_paths = 64", "n_path = 4", "[run] n_path: unknown key"),
    ("estimators = fk", "estimator = jensen", "[run] estimator: unknown key"),
    ("c = 1.0", "beta = 0.5\nc = 1.0", "[model] beta: unknown key"),
    ("[sweep]", "[sweeps]", "[sweeps]: unknown section"),
    ("[model]", "[DEFAULT]\nseed = 1\n\n[model]", "[DEFAULT]: unknown section"),
], ids=["n_path", "estimator", "model-beta", "section", "default-section"])
def test_unknown_config_key_exits_2(tmp_path, capsys, good, bad, named):
    text = BASE_CONFIG.replace(good, bad)
    line = text.splitlines().index(bad.splitlines()[0]) + 1
    rc = main(["phase-sweep", "--config", _write(tmp_path, text),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"exp.cfg:{line}: {named}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_estimator_rejected(tmp_path, capsys):
    bad = BASE_CONFIG.replace("estimators = fk", "estimators = fk, jensen,fk")
    rc = main(["phase-sweep", "--config", _write(tmp_path, bad),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "exp.cfg:10: [run] estimators: lists fk more than once" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,good,bad", [
    ("sweep", "beta", "beta = 0.5", "beta = -1"),
    ("sweep", "beta", "beta = 0.5", "beta ="),
    ("sweep", "t", "t = 1, 2, 3, 4", "t = 1, 0"),
    ("run", "estimators", "estimators = fk", "estimators = fk, mc3000"),
    ("sweep", "beta", "beta = 0.5", "beta: -1"),
    ("model", "c", "c = 1.0", "c: -1"),
    ("sweep", "beta", "beta = 0.5", "beta = 0.5, 0.5"),
    # both would write the summary.json key fk:beta=0.1
    ("sweep", "beta", "beta = 0.5", "beta = 0.1, 0.1000001"),
    ("sweep", "t", "t = 1, 2, 3, 4", "t = 1, 1, 2, 3, 4"),
    ("sweep", "t", "t = 1, 2, 3, 4", "t = 1, 2, 3, 4, 2.0"),
])
def test_sweep_config_error_carries_line(tmp_path, capsys, section, key, good, bad):
    text = BASE_CONFIG.replace(good, bad)
    line = text.splitlines().index(bad) + 1
    rc = main(["phase-sweep", "--config", _write(tmp_path, text),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"exp.cfg:{line}: [{section}] {key}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_out_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("")
    rc = main(["phase-sweep", "--config",
               _write(tmp_path, BASE_CONFIG.replace("n_paths = 64", "n_paths = 4")),
               "--out", str(out)])
    assert rc == 2
    assert "config error: --out:" in capsys.readouterr().err


class _BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_stdout_write_error_propagates_after_outputs(tmp_path, monkeypatch):
    out = tmp_path / "out"
    cfg = _write(tmp_path, BASE_CONFIG.replace("n_paths = 64", "n_paths = 4"))
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    with pytest.raises(BrokenPipeError):
        main(["phase-sweep", "--config", cfg, "--out", str(out)])
    assert (out / "rows.csv").read_text().count("\n") == 2 + 4


def test_closed_stdout_ends_quietly_with_141(tmp_path):
    # the console entry point, run with the read end of its stdout pipe closed
    out = tmp_path / "out"
    cfg = _write(tmp_path, BASE_CONFIG.replace("n_paths = 64", "n_paths = 4"))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hyperpam.cli", "phase-sweep",
                               "--config", cfg, "--out", str(out)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (out / "rows.csv").read_text().count("\n") == 2 + 4
    assert (out / "summary.json").exists()


@pytest.mark.parametrize("argv", [["validate", "--suite", "covariance"], ["sample-path"]],
                         ids=["validate", "sample-path"])
def test_out_that_is_a_directory_exits_2(tmp_path, capsys, argv):
    rc = main([*argv, "--out", str(tmp_path)])
    assert rc == 2
    assert "config error: --out:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["rows.csv", "rows.json", "summary.json"])
def test_sweep_output_that_is_a_directory_exits_2(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = _write(tmp_path, BASE_CONFIG.replace("n_paths = 64", "n_paths = 4"))
    assert main(["phase-sweep", "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: --out: cannot open {out / name}" in capsys.readouterr().err


def test_lambda_output_that_is_a_directory_exits_2(tmp_path, capsys):
    cfg = """\
[model]
kind = truncated-power
alpha = 2.0

[run]
step = 0.1
seed = 902

[lambda]
separations = 0
n_paths = 2
"""
    out = tmp_path / "out"
    (out / "lambda.json").mkdir(parents=True)
    assert main(["lambda", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"config error: --out: cannot open {out / 'lambda.json'}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["inf", "nan", "-1"])
def test_validate_rejects_bad_tolerance_scale(capsys, scale):
    rc = main(["validate", "--suite", "covariance", "--tolerance-scale", scale])
    assert rc == 2
    assert "config error: --tolerance-scale:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["sample-path", "--dim", "1"], "--dim"),
    (["sample-path", "--step", "0"], "--step"),
    (["eigenvalue", "--r", "nan"], "--r"),
    (["eigenvalue", "--r", "1", "--dim", "1"], "--dim"),
    (["eigenvalue", "--r", "1", "--dim", "100"], "--dim"),
    (["validate", "--seed", "-1"], "--seed"),
    (["sample-path", "--t", "1e9"], "--t"),
    # r = 1e-100 exited 2 naming no flag (LAPACK did not converge), and
    # r = 1e-300 raised numpy warnings
    (["eigenvalue", "--r", "1e-100"], "--r"),
    (["eigenvalue", "--r", "1e-300"], "--r"),
], ids=["sample-path-dim", "sample-path-step", "eigenvalue-r", "eigenvalue-dim",
        "eigenvalue-dim-above-max", "validate-seed", "sample-path-step-budget",
        "eigenvalue-r-1e-100", "eigenvalue-r-1e-300"])
def test_argument_error_names_flag(tmp_path, capsys, argv, flag):
    out = ["--out", str(tmp_path / "out.csv")] if argv[0] != "eigenvalue" else []
    assert main([*argv, *out]) == 2
    assert f"config error: {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_eigenvalue_dim_is_named_by_its_flag(capsys):
    # read "--dim: d must be ...", the library's name for it
    assert main(["eigenvalue", "--r", "1", "--dim", "1"]) == 2
    assert capsys.readouterr().err == \
        "config error: --dim: dim must be an integer in [2, 10], got 1\n"


def test_record_builds_the_record_once():
    built = []

    class Record:
        def __init__(self, **fields):
            built.append(fields)
            if fields["b"] < 0:
                raise geometry.ParameterError("b", f"b must be >= 0, got {fields['b']}")

    fields = {"a": 1, "b": 2}
    assert isinstance(cli._checked(_refuse_always, Record, **fields), Record)
    with pytest.raises(cli.ConfigError, match="--b: b must be >= 0, got -1"):
        cli._checked(cli._flag_error, Record, a=1, b=-1)
    assert built == [fields, {"a": 1, "b": -1}]


@pytest.mark.parametrize("argv,change,message", [
    (["phase-sweep"], ("estimators = fk", "estimators = fk\nworkers = 0"),
     "exp.cfg:11: [run] workers: workers must be an integer >= 1, got 0"),
    (["phase-sweep", "--workers", "0"], None,
     "--workers: workers must be an integer >= 1, got 0"),
    (["sample-path", "--n-paths", "0"], None,
     "--n-paths: n-paths must be an integer in [1, 100000000], got 0"),
    (["phase-sweep"], ("n_paths = 64", "n_paths = 100000001"),
     "exp.cfg:8: [run] n_paths: n_paths must be an integer in [1, 100000000], got 100000001"),
    (["phase-sweep"], ("t = 1, 2, 3, 4", "t = 1, -1"),
     "exp.cfg:14: [sweep] t: t must be positive and finite, got -1.0"),
    (["validate", "--tolerance-scale", "nan"], None,
     "--tolerance-scale: tolerance-scale must be finite and nonnegative, got nan"),
    # these two blamed a joint limit with "(with --step 0.001)"
    (["sample-path", "--t", "-1"], None, "--t: t must be positive and finite, got -1.0"),
    (["sample-path", "--t", "nan"], None, "--t: t must be positive and finite, got nan"),
], ids=["run-workers", "flag-workers", "flag-n-paths", "run-n_paths-above-budget",
        "sweep-t-negative", "flag-tolerance-scale", "flag-t-negative", "flag-t-nan"])
def test_a_refused_count_or_number_is_worded_by_its_rule(tmp_path, capsys, argv, change,
                                                         message):
    if argv[0] == "phase-sweep":
        text = BASE_CONFIG.replace(*change) if change else BASE_CONFIG
        argv = [*argv, "--config", _write(tmp_path, text)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    where = f"{tmp_path}/" if change else ""
    assert capsys.readouterr().err == f"config error: {where}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("t_max", ["10", "nan"])
def test_lambda_names_only_t_max_for_a_short_horizon(tmp_path, capsys, t_max):
    # the message also named [run] dim and [run] step, neither of them at fault
    out = tmp_path / "out"
    cfg = _write(tmp_path, _LAMBDA_CONFIG.format(t_max=t_max, seps=0))
    assert main(["lambda", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {cfg}:10: [lambda] t_max: T_max must be finite and at " \
        f"least 50, got {float(t_max)}\n"
    assert "[run] dim" not in err
    assert not out.exists()


def _refuse_always(key, message):
    raise AssertionError(f"{key}: {message}")


def test_a_fault_inside_a_cell_escapes_main(tmp_path, monkeypatch):
    # every Exception became a summary.json error and exit 0
    def broken(*args, **kwargs):
        raise OverflowError("a fault of the program")

    monkeypatch.setitem(cli._ESTIMATORS, "fk", broken)
    with pytest.raises(OverflowError, match="a fault of the program"):
        main(["phase-sweep", "--config", _write(tmp_path, _TP_CONFIG),
              "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("change,named", [
    (("alpha = 2.0", "alpha = 1"), "[model] alpha: lambda_constant requires a profile "
     "decaying faster than 1/rho"),
    (("kind = truncated-power\nalpha = 2.0", "kind = constant"), "[model] kind: "
     "lambda_constant requires"),
    (("separations = {seps}", "separations = 0, 800"),
     "[lambda] separations: values must be at most 700, got [0.0, 800.0]"),
    (("alpha = 2.0", "alpha = 2.0\nC = 1e308"),
     "[model] C: F(0) = 1e+308 times n_paths = 2 or t_max = 50 overflows"),
    (("step = 1e-1", "step = 1e-300"), "[lambda] t_max: t/step = 5e+301 exceeds the "
     "100000000 step budget (with [run] dim = 3 and [run] step = 1e-300)"),
], ids=["alpha-1", "constant", "separation-800", "C-1e308", "step-budget"])
def test_lambda_names_the_key_of_each_refusal(tmp_path, capsys, change, named):
    # alpha <= 1 and the constant kind named no key; a separation of 800 leaked
    # numpy warnings first; C = 1e308 wrote "lambda_hat": Infinity with exit 0
    text = _LAMBDA_CONFIG.replace(*change).format(t_max=50, seps=0)
    out = tmp_path / "out"
    assert main(["lambda", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change,named", [
    (("C = 1", "C = 1e200"), "[sweep] beta: 0.5: jensen squares beta^2 F(0) max t = "
     "1e+200, which overflows, at F(0) = 1e+200 ([model] C) and max [sweep] t = 4"),
    (("t = 1, 2, 3, 4", "t = 1e308"), "[sweep] beta: 0.5: jensen squares beta^2 F(0) max "
     "t = 2.5e+307, which overflows, at F(0) = 1 ([model] C) and max [sweep] t = 1e+308"),
    (("beta = 0.5", "beta = 1e200"), "[sweep] beta: 1e+200: beta^2 F(0) max t overflows, "
     "at F(0) = 1 ([model] C) and max [sweep] t = 4"),
], ids=["C", "t", "beta"])
def test_sweep_joint_limit_names_all_its_keys(tmp_path, capsys, change, named):
    # these named [sweep] beta alone, whichever key was set
    rc = main(["phase-sweep", "--config", _write(tmp_path, _TP_CONFIG.replace(*change)),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert named in capsys.readouterr().err


def test_sample_path_step_budget_names_both_flags(tmp_path, capsys):
    rc = main(["sample-path", "--step", "1e-300", "--out", str(tmp_path / "p.csv")])
    assert rc == 2
    assert "config error: --t: t/step = 1e+300 exceeds the 100000000 step budget " \
        "(with --step 1e-300)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["phase-sweep", "t = 1, 2, 3, 4", "t = 5e-324, 0.5, 0.75, 1"],
    ["sample-path", "--t", "5e-324"],
], ids=["phase-sweep", "sample-path"])
def test_a_subnormal_horizon_runs(tmp_path, argv):
    # int(0.05 / dt) raised an OverflowError at dt = 5e-324: a traceback, exit 1
    if argv[0] == "phase-sweep":
        out = tmp_path / "out"
        text = _TP_CONFIG.replace(argv[1], argv[2])
        assert main(["phase-sweep", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        rows = json.loads((out / "rows.json").read_text())["rows"]
        assert [r["log_m2"] for r in rows if r["t"] == 5e-324] == [0.0, 0.0]
    else:
        out = tmp_path / "p.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-1].startswith("0,5e-324,")



@pytest.mark.parametrize("change,named", [
    (("alpha = 2.0", "alpha = 200"), "[lambda] t_max: no tail fit for the pair at separation "
     "0: 0 of its slice means on [T_max/4, T_max] are positive, fewer than 3 (with [lambda] "
     "separations = [0.0, 5.0, 10.0], [model] alpha = 200 and [model] C = 1)"),
    (("separations = {seps}", "separations = 200"), "[lambda] t_max: no tail fit for the "
     "pair at separation 200: its slice means on [T_max/4, T_max] decay with slope -0.633 >= -1 "
     "(with [lambda] separations = [200.0], [model] alpha = 2 and [model] C = 1)"),
    (("alpha = 2.0", "alpha = 2.0\nC = 5e-324"), "[lambda] t_max: no tail fit for the pair "
     "at separation 0: 0 of its slice means on [T_max/4, T_max] are positive, fewer than 3 "
     "(with [lambda] separations = [0.0, 5.0, 10.0], [model] alpha = 2 and [model] C = "
     "4.94066e-324)"),
], ids=["alpha-200", "separation-200", "C-5e-324"])
def test_lambda_without_a_tail_fit_names_every_key_it_rests_on(tmp_path, capsys, change,
                                                              named):
    # each wrote "lambda_hat": Infinity and "beta0_hat": 0.0 and exited 0
    text = _LAMBDA_CONFIG.replace(*change).format(t_max=50, seps="0, 5, 10")
    out = tmp_path / "out"
    assert main(["lambda", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", ["phase-sweep", "lambda", "validate"])
def test_a_refused_seed_flag_is_named_seed(tmp_path, capsys, command, seed):
    # phase-sweep and lambda ran seed -1 on seed 2^64 - 1's streams, and
    # validate --seed 2^64 ran seed 0's checks but recorded 2^64
    config = {"phase-sweep": BASE_CONFIG, "lambda": _LAMBDA_CONFIG.format(t_max=50, seps=0)}
    argv = [command, "--seed", seed, "--out", str(tmp_path / "out")]
    if command in config:
        argv += ["--config", _write(tmp_path, config[command])]
    assert main(argv) == 2
    assert "config error: --seed: seed must be an integer in [0, 18446744073709551615], " \
        f"got {seed}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
