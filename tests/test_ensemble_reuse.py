"""A sweep simulates its pair ensemble once and reads every cell from it."""

import json

import numpy as np
import pytest

from hyperpam import brownian, geometry, moments
from hyperpam.brownian import SamplerConfig
from hyperpam.cli import main
from hyperpam.covariance import CovarianceModel

SWEEP = """\
[model]
kind = truncated-power
alpha = 0.5

[run]
dim = 3
step = 1e-2
n_paths = 8
seed = 91
estimators = fk, jensen

[sweep]
beta = 0.5, 1.0
t = 1, 2, 3, 4
"""


def test_serial_sweep_simulates_each_path_once(tmp_path, monkeypatch):
    calls = []
    original = brownian.pair_profile_matrix

    def counting(x0, y0, t, cfg, n_paths, *args, **kwargs):
        calls.append((n_paths, t))
        return original(x0, y0, t, cfg, n_paths, *args, **kwargs)

    monkeypatch.setattr(brownian, "pair_profile_matrix", counting)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP)
    out = tmp_path / "out"
    assert main(["phase-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(json.loads((out / "rows.json").read_text())["rows"]) == 2 * 2 * 4
    # 2 estimators x 2 betas x 4 horizons, all with dt = 0.01: one simulation to t = 4
    assert sum(n * t for n, t in calls) == 8 * 4.0
    assert len(calls) == 1


@pytest.mark.parametrize("flat", [False, True])
def test_ensemble_columns_equal_one_horizon_simulations(flat):
    x = geometry.origin(3)
    model = CovarianceModel("truncated-power", alpha=0.5)
    cfg = SamplerConfig(3, 1e-2, "embedded-sde", 92)
    horizons = (0.3, 2.0, 0.75, 1.001)
    kernel = "flat" if flat else "hyperbolic"
    ens = moments.PairEnsemble(x, model, cfg, 7, horizons, shards=3, kernels=(kernel,))

    def run(t, stored=None):
        if flat:
            return moments._euclidean_pair_profile_matrix(t, cfg, 7, model.profile,
                                                          stored=stored)
        return brownian.pair_profile_matrix(x, x, t, cfg, 7, model.profile, stored=stored)

    plan = {t: brownian._schedule(t, cfg.step)[1:3] for t in horizons}
    for t in horizons:
        times, F = run(t)
        # a run to t's dt group's last horizon, storing the group's union of
        # steps, holds the run to t alone in t's columns ...
        group = [h for h in horizons if plan[h][0] == plan[t][0]]
        union = np.unique(np.concatenate([plan[h][1] for h in group]))
        union_times, union_F = run(max(group), union)
        cols = np.searchsorted(union, plan[t][1])
        assert union_times[cols].tobytes() == times.tobytes()
        assert union_F[:, cols].tobytes() == F.tobytes()
        # ... and the ensemble's q is the trapezoid of the run alone, to the bit
        assert ens.integrals(t, kernel).tobytes() == np.trapezoid(F, times, axis=1).tobytes()


def test_shards_return_q_per_kernel_and_horizon_of_their_dt_group():
    x = geometry.origin(3)
    model = CovarianceModel("truncated-power", alpha=0.5)
    cfg = SamplerConfig(3, 1e-2, "embedded-sde", 94)
    horizons, kernels = (1.0, 2.0), ("hyperbolic", "flat")  # one dt group
    calls = []

    def spying_pmap(fn, jobs):
        calls.append(list(map(fn, jobs)))
        return calls[-1]

    ens = moments.PairEnsemble(x, model, cfg, 7, horizons, kernels=kernels,
                               pmap=spying_pmap, shards=3)
    q = {(k, t): ens.integrals(t, k) for t in horizons for k in kernels}
    # the first read simulated the group; the second horizon's reads are lookups
    assert len(calls) == 1
    keys = {(k, t) for k in kernels for t in horizons}
    for shard, n in zip(calls[0], (2, 2, 3), strict=True):
        assert set(shard) == keys
        for v in shard.values():
            assert isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == (n,)
    # the ensemble keeps one q vector per (kernel, horizon) and no profile matrix
    assert {key: v.shape for key, v in ens._q.items()} == dict.fromkeys(keys, (7,))
    for (k, t), v in q.items():
        times, F = moments._euclidean_pair_profile_matrix(t, cfg, 7, model.profile) \
            if k == "flat" else brownian.pair_profile_matrix(x, x, t, cfg, 7, model.profile)
        assert v.tobytes() == np.trapezoid(F, times, axis=1).tobytes()


def test_ensemble_rejects_foreign_and_unschedulable_horizons():
    x = geometry.origin(3)
    model = CovarianceModel("truncated-power", alpha=0.5)
    cfg = SamplerConfig(3, 1e-2, seed=93)
    ens = moments.PairEnsemble(x, model, cfg, 2, (1.0, 1e9))
    with pytest.raises(ValueError, match="not a horizon"):
        ens.integrals(2.0, "hyperbolic")
    with pytest.raises(ValueError, match="step budget"):
        ens.integrals(1e9, "hyperbolic")
    times, F = brownian.pair_profile_matrix(x, x, 1.0, cfg, 2, model.profile)
    assert F.shape == (2, 101)
    q = ens.integrals(1.0, "hyperbolic")
    assert np.all(np.isfinite(q))
    assert q.tobytes() == np.trapezoid(F, times, axis=1).tobytes()


@pytest.mark.parametrize("scheme,passes", [("embedded-sde", 1), ("geodesic-walk", 1)])
def test_mixed_sweep_opens_each_pair_stream_once_per_pass(tmp_path, monkeypatch, scheme,
                                                          passes):
    # under either scheme the flat pairs step in the hyperbolic pass, on the
    # same 2 x n_paths streams: every kernel draws d normals per step
    opened = []
    original = brownian.path_stream

    def counting(*args, **kwargs):
        opened.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(brownian, "path_stream", counting)
    text = SWEEP.replace("estimators = fk, jensen",
                         f"estimators = fk, fk-euclidean\nscheme = {scheme}")
    rows = {}
    for estimators in ("fk, fk-euclidean", "fk", "fk-euclidean"):
        cfg = tmp_path / f"{estimators}.cfg"
        cfg.write_text(text.replace("fk, fk-euclidean", estimators))
        out = tmp_path / estimators
        opened.clear()
        assert main(["phase-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows[estimators] = json.loads((out / "rows.json").read_text())["rows"]
        if estimators == "fk, fk-euclidean":
            assert len(opened) == passes * 2 * 8
    # the mixed sweep's cells are those of the one-kernel sweeps, to the bit
    assert rows["fk, fk-euclidean"] == rows["fk"] + rows["fk-euclidean"]
