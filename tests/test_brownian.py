"""Path sampler: radial law, independence, determinism, events."""

import io
import math

import numpy as np
import pytest
import scipy.stats as st

from hyperpam import brownian, geometry, heatkernel, moments
from hyperpam.brownian import (
    BrownianPath, SamplerConfig, dump_paths_csv, event_indicators,
    radial_statistics, sample_pair, sample_path,
)
from hyperpam.covariance import CovarianceModel

SEED = 20260809


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(dim=3, step=0.2)
    with pytest.raises(ValueError):
        SamplerConfig(dim=1)
    for dim in (3.5, 3.0):
        with pytest.raises(ValueError, match="dim must be an integer >= 2"):
            SamplerConfig(dim=dim)
    with pytest.raises(ValueError):
        SamplerConfig(scheme="leapfrog")
    # a float seed drew int(seed)'s streams but was recorded as given
    for seed in (1.5, 2.0, True, "1"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SamplerConfig(seed=seed)
    assert SamplerConfig(seed=np.int64(3)).seed == 3


def test_step_budget_guard():
    cfg = SamplerConfig(dim=3, step=1e-3, seed=SEED)
    with pytest.raises(ValueError):
        sample_path(geometry.origin(3), 2e5, cfg)


_CFG3 = SamplerConfig(dim=3, step=1e-2, seed=1)
_O3 = geometry.origin(3)
_TP = CovarianceModel("truncated-power", alpha=0.5)
_PROFILE = _TP.profile

# entry point -> (the argument it names, a call with that start replaced by p)
_START_ENTRY_POINTS = {
    "sample_path": ("x0", lambda p: sample_path(p, 0.1, _CFG3)),
    "sample_pair": ("x0", lambda p: sample_pair(p, 0.1, _CFG3)),
    "endpoints": ("x0", lambda p: brownian.endpoints(p, 0.1, _CFG3, 2)),
    "endpoints-starts": ("starts", lambda p: brownian.endpoints(
        _O3, 0.1, _CFG3, 2, starts=np.stack([geometry._coords(p)] * 2))),
    "endpoint_radii": ("x0", lambda p: brownian.endpoint_radii(p, 0.1, _CFG3, 2)),
    "exit_times": ("x0", lambda p: brownian.exit_times(p, 1.0, 0.1, _CFG3, 2)),
    "pair_profile_matrix-x0": ("x0", lambda p: brownian.pair_profile_matrix(
        p, _O3, 0.1, _CFG3, 2, _PROFILE)),
    "pair_profile_matrix-y0": ("y0", lambda p: brownian.pair_profile_matrix(
        _O3, p, 0.1, _CFG3, 2, _PROFILE, flat=True)),
    "fk_second_moment": ("x0", lambda p: moments.fk_second_moment(
        p, 0.1, 0.5, CovarianceModel("truncated-power", alpha=0.5), 2, _CFG3)),
    # beta = 0 simulates nothing, but its ensemble still checks the start
    "fk_second_moment-beta0": ("x0", lambda p: moments.fk_second_moment(
        p, 0.1, 0.0, _TP, 2, _CFG3)),
    "euclidean_second_moment": ("x0", lambda p: moments.euclidean_second_moment(
        p, 0.1, 0.5, _TP, 2, _CFG3)),
    "euclidean_second_moment-ensemble": ("x0", lambda p: moments.euclidean_second_moment(
        p, 0.1, 0.5, _TP, 2, _CFG3, ensemble=moments.PairEnsemble(
            _O3, _TP, _CFG3, 2, (0.1,), kernels=("flat",)))),
}


@pytest.mark.parametrize("start", [
    geometry.origin(4), geometry.origin(2), np.array([5.0, 0.0, 0.0, 1.0]),
    np.array([0.0, 0.0, 0.0, -1.0]), np.array([0.0, 0.0, math.nan, 1.0])],
    ids=["origin4", "origin2", "off-sheet", "lower-sheet", "nan"])
@pytest.mark.parametrize("entry", sorted(_START_ENTRY_POINTS))
def test_path_starts_must_be_points_of_the_sampler_dimension(entry, start):
    # a start of another dimension read every pair distance as 0 (or raised
    # an IndexError), and one off the sheet was driven as given
    name, call = _START_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be .* cfg.dim = 3"):
        call(start)


def test_endpoints_check_every_start_row():
    good = np.tile(_O3.coords, (3, 1))
    off = good.copy()
    off[1] = [5.0, 0.0, 0.0, 1.0]
    for starts in (off, good[:2]):
        with pytest.raises(ValueError, match="^starts must be 3 points"):
            brownian.endpoints(_O3, 0.1, _CFG3, 3, starts=starts)
    # more rows than paths: the first n_paths are used, as before
    assert brownian.endpoints(_O3, 0.1, _CFG3, 2, starts=good).shape == (2, 4)


_N_PATHS_ENTRY_POINTS = {
    "endpoints": lambda n: brownian.endpoints(_O3, 0.1, _CFG3, n),
    "endpoint_radii": lambda n: brownian.endpoint_radii(_O3, 0.1, _CFG3, n),
    "exit_times": lambda n: brownian.exit_times(_O3, 1.0, 0.1, _CFG3, n),
    "pair_profile_matrix": lambda n: brownian.pair_profile_matrix(
        _O3, _O3, 0.1, _CFG3, n, _PROFILE),
    "euclidean_pair_profile_matrix": lambda n: moments._euclidean_pair_profile_matrix(
        0.1, _CFG3, n, _PROFILE),
    "PairEnsemble": lambda n: moments.PairEnsemble(_O3, _TP, _CFG3, n, (0.1,)),
}


@pytest.mark.parametrize("n_paths", [-1, 0, 2.5, True])
@pytest.mark.parametrize("entry", sorted(_N_PATHS_ENTRY_POINTS))
def test_path_counts_are_checked_before_anything_is_allocated(entry, n_paths):
    # -1 failed inside numpy, 2.5 with a TypeError, 0 and True ran on
    with pytest.raises(ValueError, match="n_paths must be at least 1 and an integer"):
        _N_PATHS_ENTRY_POINTS[entry](n_paths)


@pytest.mark.parametrize("t", [math.inf, math.nan, -math.inf])
def test_schedule_rejects_nonfinite_horizon(t):
    with pytest.raises(ValueError, match="finite"):
        brownian._schedule(t, 1e-2)


def test_path_structure_and_constraint():
    cfg = SamplerConfig(dim=3, step=1e-3, seed=SEED)
    o = geometry.origin(3)
    path = sample_path(o, 5.0, cfg, path_index=11)
    assert path.times[0] == 0.0
    assert path.times[-1] == pytest.approx(5.0)
    assert np.all(np.diff(path.times) > 0)
    # stored spacing respects both the relative and the absolute cap
    assert np.max(np.diff(path.times)) <= min(0.01 * 5.0, 0.05) + 1e-12
    q = geometry.minkowski_product(path.points, path.points)
    rel = np.abs(q + 1.0) / np.maximum(1.0, path.points[:, -1] ** 2)
    assert np.max(rel) <= 1e-8
    # in the regime where <z,z>+1 is representable, the absolute form holds too
    small = path.points[:, -1] < 100.0
    assert np.max(np.abs(q[small] + 1.0)) <= 1e-8
    assert np.all(path.points[:, -1] >= 1.0)


def test_radial_speed_and_fluctuation():
    cfg = SamplerConfig(dim=3, step=2e-3, seed=SEED)
    o = geometry.origin(3)
    t = 25.0
    radii = brownian.endpoint_radii(o, t, cfg, 4000)
    assert radii.mean() / t == pytest.approx(2.0 + 1.0 / t, abs=0.05)  # E rho_t = 2t + 1
    xi = (radii - 2.0 * t) / math.sqrt(t)
    # sub-gaussian fluctuation scale (variance ~2): |xi| > 4 is ~0.5% events
    assert np.mean(np.abs(xi) > 4.0) <= 0.01
    # the large-deviation tail at delta = 1: P(rho < (2-1) t) ~ 0.5% at t = 25
    assert np.mean(xi <= -1.0 * math.sqrt(t)) <= 0.02


@pytest.mark.parametrize("scheme, t", [
    pytest.param("embedded-sde", 1.0, id="embedded-sde"),
    pytest.param("geodesic-walk", 1.0, id="geodesic-walk"),
    pytest.param("geodesic-walk", 5.0, id="geodesic-walk-t5"),
])
def test_endpoint_law_matches_exact_sampler(scheme, t):
    cfg = SamplerConfig(dim=3, step=1e-3, scheme=scheme, seed=SEED + 1)
    o = geometry.origin(3)
    radii = brownian.endpoint_radii(o, t, cfg, 8000)
    ks = st.kstest(radii, heatkernel.RadialLaw(t).cdf).statistic
    assert ks <= 0.02


def test_small_time_chi_limit():
    # t -> 0: rho/sqrt(t) approaches the radius of a 3d Gaussian with
    # per-coordinate variance 2 (generator-Delta normalization)
    cfg = SamplerConfig(dim=3, step=1e-6, seed=SEED + 2)
    o = geometry.origin(3)
    t = 1e-4
    radii = brownian.endpoint_radii(o, t, cfg, 20000)
    ks = st.kstest(radii / math.sqrt(t), st.chi(3, scale=math.sqrt(2.0)).cdf).statistic
    assert ks <= 0.03


def test_markov_chaining():
    cfg = SamplerConfig(dim=3, step=1e-3, seed=SEED + 3)
    o = geometry.origin(3)
    n = 10000
    mid = brownian.endpoints(o, 2.0, cfg, n, tag=brownian.TAG_PRIMARY)
    end = brownian.endpoints(o, 3.0, cfg, n, tag=brownian.TAG_CHAIN, starts=mid)
    direct = brownian.endpoint_radii(o, 5.0, cfg, n, tag=brownian.TAG_SECONDARY)
    chained = geometry.distance(o.coords, end)
    assert st.ks_2samp(chained, direct).statistic <= 0.03


def test_rotation_invariance():
    """Angular component of B_t is uniform on the sphere (chi^2 at 1%)."""
    cfg = SamplerConfig(dim=3, step=1e-3, seed=SEED + 4)
    o = geometry.origin(3)
    pts = brownian.endpoints(o, 0.5, cfg, 40000)
    dirs = pts[:, :3] / np.linalg.norm(pts[:, :3], axis=1, keepdims=True)
    ang = np.arccos(np.clip(dirs[:, 0], -1.0, 1.0))
    k = 20
    edges = np.arccos(1.0 - 2.0 * np.arange(k + 1) / k)
    counts, _ = np.histogram(ang, bins=edges)
    chi2 = np.sum((counts - len(pts) / k) ** 2 / (len(pts) / k))
    assert chi2 < 36.19  # chi2_{19} at 1%


def test_pair_independence_and_separation():
    cfg = SamplerConfig(dim=3, step=2e-3, seed=SEED + 5)
    o = geometry.origin(3)
    r1 = brownian.endpoint_radii(o, 10.0, cfg, 8000, tag=brownian.TAG_PRIMARY)
    r2 = brownian.endpoint_radii(o, 10.0, cfg, 8000, tag=brownian.TAG_SECONDARY)
    assert abs(np.corrcoef(r1, r2)[0, 1]) <= 0.03

    # separation speed 2(d-1): the pair-distance matrix gives rho directly
    t = 25.0
    times, F = brownian.pair_profile_matrix(o, o, t, cfg, 1500,
                                            profile=lambda r: r)
    sep = F[:, -1]
    assert sep.mean() / t == pytest.approx(4.0, abs=0.1)


def test_pair_determinism_bytes():
    cfg = SamplerConfig(dim=3, step=1e-2, seed=12345)
    o = geometry.origin(3)
    a1, a2 = sample_pair(o, 1.0, cfg, path_index=9)
    b1, b2 = sample_pair(o, 1.0, cfg, path_index=9)
    assert a1.points.tobytes() == b1.points.tobytes()
    assert a2.points.tobytes() == b2.points.tobytes()
    # different master seed changes the trajectories
    c1, _ = sample_pair(o, 1.0, SamplerConfig(3, 1e-2, "embedded-sde", 54321),
                        path_index=9)
    assert a1.points.tobytes() != c1.points.tobytes()


def test_ensembles_are_batch_order_independent():
    cfg = SamplerConfig(dim=3, step=5e-3, seed=777)
    o = geometry.origin(3)
    all_at_once = brownian.endpoint_radii(o, 1.0, cfg, 64)
    shifted = brownian.endpoint_radii(o, 1.0, cfg, 32, first_index=32)
    assert np.array_equal(all_at_once[32:], shifted)


def test_radial_statistics():
    o = geometry.origin(3)
    t = 4.0
    target = geometry.exp_map(
        o, geometry.TangentVec(o, np.array([1.0, 0.0, 0.0, 0.0])), (3 - 1) * t)
    path = BrownianPath(np.array([0.0, t]),
                        np.vstack([o.coords, target.coords]), seed=0)
    assert radial_statistics(path, o)["xi_t"] == pytest.approx(0.0, abs=1e-9)
    short = BrownianPath(np.array([0.0, 0.5]),
                         np.vstack([o.coords, o.coords]), seed=0)
    with pytest.raises(ValueError):
        radial_statistics(short, o)


def test_xi_tail_bound():
    """P(xi_t <= -delta sqrt(t)) decays like a Gaussian in delta sqrt(t);
    at delta = 1, t = 10 the exact radial law gives ~0.0054."""
    cfg = SamplerConfig(dim=3, step=5e-3, seed=SEED + 6)
    o = geometry.origin(3)
    t = 10.0
    radii = brownian.endpoint_radii(o, t, cfg, 10000)
    xi = (radii - 2.0 * t) / math.sqrt(t)
    assert np.mean(xi <= -1.0 * math.sqrt(t)) <= 0.02


def test_event_indicators():
    cfg = SamplerConfig(dim=3, step=5e-3, seed=SEED + 7)
    o = geometry.origin(3)
    pair = sample_pair(o, 2.0, cfg, path_index=0)
    # vacuous threshold: the radial and angle conditions hold trivially
    out = event_indicators(pair, o, delta=1e6, s=1.0)
    assert out["A_s"] and out["M_s"]
    with pytest.raises(ValueError):
        event_indicators(pair, o, delta=-1.0, s=1.0)
    with pytest.raises(ValueError, match="delta"):
        event_indicators(pair, o, delta=math.nan, s=1.0)
    with pytest.raises(ValueError):
        event_indicators(pair, o, delta=1.0, s=5.0)

    # distinct starting points activate the two-angle variant
    rng = np.random.default_rng(SEED)
    y0 = geometry.exp_map(o, geometry.uniform_sphere_direction(o, rng), 5.0)
    out2 = event_indicators(pair, o, delta=1e6, s=1.0, y0=y0)
    assert isinstance(out2["M_s"], bool)


def test_event_probability_decay():
    """The complement of the localization event is rare for moderate delta*s.

    Vectorized over endpoint ensembles; spot-checked against the path-level
    event_indicators on a few pairs.
    """
    cfg = SamplerConfig(dim=3, step=5e-3, seed=SEED + 8)
    o = geometry.origin(3)
    s, delta, n = 10.0, 1.0, 10000
    b = brownian.endpoints(o, s, cfg, n, tag=brownian.TAG_PRIMARY)
    bt = brownian.endpoints(o, s, cfg, n, tag=brownian.TAG_SECONDARY)
    xi = (geometry.distance(o.coords, b) - 2.0 * s) / math.sqrt(s)
    eta = (geometry.distance(o.coords, bt) - 2.0 * s) / math.sqrt(s)
    ang = geometry.angle_at(o.coords, b, bt)
    penalty = math.log(2.0) - np.log1p(-np.cos(ang))
    ok = (np.minimum(xi, eta) > -delta * math.sqrt(s)) & (penalty <= delta * s)
    assert np.mean(~ok) <= 0.02
    assert np.mean(penalty > delta * s) <= 0.05

    # path-level API agrees with the vectorized computation
    for i in (0, 1):
        pair = sample_pair(o, s, cfg, path_index=i)
        out = event_indicators(pair, o, delta=delta, s=s)
        expect = bool(min(xi[i], eta[i]) > -delta * math.sqrt(s)
                      and penalty[i] <= delta * s)
        assert out["A_s"] == expect


def test_dump_paths_csv():
    cfg = SamplerConfig(dim=3, step=1e-2, seed=3)
    o = geometry.origin(3)
    paths = [sample_path(o, 0.5, cfg, path_index=i) for i in range(2)]
    buf = io.StringIO()
    dump_paths_csv(paths, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "path_id,t,z1,z2,z3,z4"
    assert len(lines) == 1 + sum(len(p.times) for p in paths)
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


def test_reproject_far_rows_without_overflow():
    # spatial entries beyond ~1e154 overflow the direct square-sum; every row
    # then goes through the rescaled projection
    x = np.array([[3e200, 4e200, 0.0, 0.0], [0.6, 0.8, 0.0, 9.0]])
    brownian._reproject(x.T, 3)  # the driver state is (d+1, N)
    assert x[0, 3] == pytest.approx(5e200, rel=1e-15)
    assert x[1, 3] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert x[0, 0] == 3e200 and x[1, 1] == 0.8


@pytest.mark.parametrize("n", [1, 2, 1024])
@pytest.mark.parametrize("d", [2, 3, 4, 8, 10])
def test_dot_sums_the_rows_in_index_order(d, n):
    # the step kernels' dot products must stay bit-identical to a row-by-row
    # multiply-add; np.add.reduce sums a single column pairwise from d = 8 on
    rng = np.random.default_rng(d * 10_000 + n)
    for _ in range(20):
        a = rng.standard_normal((d, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (d, 1))
        b = rng.standard_normal((d, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (d, 1))
        expected = a[0] * b[0]
        for i in range(1, d):
            expected = expected + a[i] * b[i]
        out, prod = np.empty(n), np.empty((d, n))
        assert brownian._dot(a, b, out, prod) is out
        assert out.tobytes() == expected.tobytes()
        assert brownian._dot(a, b).tobytes() == expected.tobytes()


def _driver_outputs(d, scheme):
    o = geometry.origin(d)
    y = geometry.exp_map(o, geometry.TangentVec(o, np.eye(d + 1)[1]), 0.7)
    cfg = SamplerConfig(d, 1e-2, scheme, SEED)
    return [
        brownian.endpoints(o, 0.5, cfg, 5, first_index=3),
        brownian.exit_times(o, 0.3, 0.5, cfg, 5),
        brownian.pair_profile_matrix(o, y, 0.5, cfg, 5, np.cos)[1],
        moments._euclidean_pair_profile_matrix(0.5, cfg, 5, np.cos)[1],
    ]


_DRIVER_PATCHES = pytest.mark.parametrize("chunk,block_doubles,max_columns", [
    pytest.param(7, None, None, id="7-None"),
    pytest.param(None, 64, None, id="None-64"),
    pytest.param(7, 64, None, id="7-64"),
    pytest.param(None, None, 3, id="cols3"),
    pytest.param(None, None, 4, id="cols4"),
])


def _patch_driver(monkeypatch, chunk, block_doubles, max_columns):
    if chunk is not None:
        monkeypatch.setattr(brownian, "_chunk_size", lambda ncols, n_steps: chunk)
    if block_doubles is not None:
        monkeypatch.setattr(brownian, "_BLOCK_DOUBLES", block_doubles)
    if max_columns is not None:
        monkeypatch.setattr(brownian, "_MAX_COLUMNS", max_columns)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("scheme", ["embedded-sde", "geodesic-walk"])
@_DRIVER_PATCHES
def test_driver_bytes_independent_of_chunk_and_block(monkeypatch, d, scheme, chunk,
                                                     block_doubles, max_columns):
    # 50 steps: chunks of 7 and noise blocks of 1-4 steps leave partial chunks
    # and blocks, which must not shift the noise against the steps; column caps
    # of 3 and 4 split the 5 walkers and 5 pairs into uneven batches
    expect = _driver_outputs(d, scheme)
    _patch_driver(monkeypatch, chunk, block_doubles, max_columns)
    for got, want in zip(_driver_outputs(d, scheme), expect):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("scheme", ["embedded-sde", "geodesic-walk"])
@_DRIVER_PATCHES
def test_mixed_ensemble_matrices_equal_each_kernel_alone(monkeypatch, d, scheme, chunk,
                                                         block_doubles, max_columns):
    # under either scheme the flat pairs step in the hyperbolic pass; from
    # distinct starts each kernel's columns are its matrix of a run alone, bit
    # for bit, through 3 path ranges, two horizons of one dt group stored as
    # their union, and the patched driver
    o = geometry.origin(d)
    y = geometry.exp_map(o, geometry.TangentVec(o, np.eye(d + 1)[1]), 0.7)
    cfg = SamplerConfig(d, 1e-2, scheme, SEED)
    model = CovarianceModel("truncated-power", alpha=0.5)
    horizons = (0.3, 0.5)
    alone = {t: {"hyperbolic": brownian.pair_profile_matrix(o, y, t, cfg, 5, model.profile),
                 "flat": moments._euclidean_pair_profile_matrix(t, cfg, 5, model.profile)}
             for t in horizons}
    own = {t: brownian._schedule(t, cfg.step)[2] for t in horizons}
    union = np.unique(np.concatenate(list(own.values())))
    _patch_driver(monkeypatch, chunk, block_doubles, max_columns)
    runs = [brownian.pair_profile_matrix(o, y, 0.5, cfg, hi - lo, model.profile,
                                         first_index=lo, stored=union, flat=True)
            for lo, hi in ((0, 1), (1, 3), (3, 5))]
    mixed = {"hyperbolic": np.concatenate([r[1] for r in runs]),
             "flat": np.concatenate([r[2] for r in runs])}
    for t in horizons:
        cols = np.searchsorted(union, own[t])
        for kernel, (times, want) in alone[t].items():
            assert runs[0][0][cols].tobytes() == times.tobytes()
            assert mixed[kernel][:, cols].tobytes() == want.tobytes()


@pytest.mark.parametrize("stored", [[0, 10, 5], [0, 10, 10], [0, 10, 80], [-1, 10]])
def test_driver_refuses_stored_steps_it_would_not_record(stored):
    # unsorted, repeated, past the horizon (n_steps = 50) or before the start:
    # a slot left unrecorded would return uninitialised profile values
    o = geometry.origin(3)
    cfg = SamplerConfig(3, 1e-2, seed=SEED)
    with pytest.raises(ValueError, match="stored"):
        brownian.pair_profile_matrix(o, o, 0.5, cfg, 3, lambda rho: rho,
                                     stored=np.array(stored))


@pytest.mark.parametrize("max_columns", [1, 3, 4, 4096])
@pytest.mark.parametrize("tags", [(0,), (0, 1)])
@pytest.mark.parametrize("n_paths", [1, 5, 2048, 2049, 5000])
def test_batches_respect_column_cap_and_split_evenly(monkeypatch, max_columns, tags,
                                                     n_paths):
    monkeypatch.setattr(brownian, "_MAX_COLUMNS", max_columns)
    monkeypatch.setattr(brownian, "path_stream", lambda seed, i, tag: (i, tag))
    batches = list(brownian._batches(SamplerConfig(seed=SEED), n_paths, 10, tags))
    sizes = [hi - lo for lo, hi, _ in batches]
    assert [lo for lo, _, _ in batches] == [0, *np.cumsum(sizes)[:-1]]
    assert sum(sizes) == n_paths and min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert all(len(gens) == size * len(tags) for (_, _, gens), size in zip(batches, sizes))
    assert all(len(gens) <= max(max_columns, len(tags)) for _, _, gens in batches)
    # as few batches as the cap allows
    assert len(batches) == -(-n_paths // max(1, max_columns // len(tags)))
    lo, hi, gens = batches[-1]
    assert gens == [(i, tag) for tag in tags for i in range(10 + lo, 10 + hi)]


@pytest.mark.parametrize("fields,name", [
    ({"dim": 1, "step": 0.5}, "dim"),
    ({"step": 0.5, "scheme": "leapfrog"}, "step"),
    ({"scheme": "leapfrog", "seed": 1.5}, "scheme"),
    ({"seed": 1.5}, "seed"),
])
def test_config_names_the_first_field_it_refuses(fields, name):
    with pytest.raises(geometry.ParameterError) as info:
        SamplerConfig(**fields)
    assert info.value.args[0] == name


@pytest.mark.parametrize("t,step", [(5e-324, 1e-3), (1e-310, 0.1), (5e-324, 5e-324)])
def test_schedule_takes_a_subnormal_horizon(t, step):
    # int(0.05 / dt) was int(inf), an OverflowError, for dt below ~2.8e-310
    n_steps, dt, stored, times = brownian._schedule(t, step)
    assert (n_steps, dt, stored.tolist(), times.tolist()) == (1, t, [0, 1], [0.0, t])


def test_schedule_keeps_every_finite_spacing():
    # the min is taken before the int: the same stored steps wherever
    # int(0.05 / dt) was finite
    for t, step in [(1.0, 1e-3), (10.0, 2e-3), (40.0, 2e-3), (0.3, 0.1), (7.0, 0.05),
                    (1e-300, 1e-3), (6.4, 1e-3)]:
        n_steps, dt, stored, _ = brownian._schedule(t, step)
        m = max(1, min(n_steps // 128, int(0.05 / dt)))
        assert stored.tolist() == sorted({*range(0, n_steps + 1, m), n_steps})


def test_walkers_past_the_overflow_radius_warn_nothing():
    # the radius drifts like (d - 1) t: at d = 200 it passes ~710 before t = 50;
    # stepping leaked numpy overflow warnings, and the paths end as NaN
    cfg = SamplerConfig(dim=200, step=0.1, seed=1)
    o = geometry.origin(200)
    _, F = brownian.pair_profile_matrix(o, o, 50.0, cfg, 2, _TP.profile)
    assert np.isnan(F[:, -1]).all()
