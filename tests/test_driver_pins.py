"""Pinned values of every path driver at small sizes.

The values were recorded from the per-walker batch loops that preceded the
single row-stacked driver; any rewrite of the stepping loop must reproduce
them.  The geodesic-walk pins were re-recorded when that scheme moved onto
the d tangent normals of the Euler step.  They are compared as values at
rtol=1e-12, not as byte digests, since libm may round transcendental
functions differently across machines.
"""

import numpy as np
import pytest

from hyperpam import brownian, geometry, moments
from hyperpam.brownian import SamplerConfig
from hyperpam.covariance import CovarianceModel

RTOL = 1e-12


def _distance(rho):
    return rho


@pytest.mark.parametrize("scheme,expect", [
    ("embedded-sde", [1.782845339598193, 4.060907140862045, 1.6452226582575626,
                      5.682242254507832, 1.354929426322102, 4.125643714256125]),
    ("geodesic-walk", [1.7915080897817848, 3.751627856376897, 1.6507461897010758,
                       5.3521384440072115, 1.3360009560829884, 3.720241707267529]),
])
def test_pair_profile_matrix_pinned(scheme, expect):
    o = geometry.origin(3)
    y = geometry.exp_map(o, geometry.TangentVec(o, np.array([0.0, 1.0, 0.0, 0.0])), 1.5)
    cfg = SamplerConfig(3, 1e-2, scheme, 31)
    times, F = brownian.pair_profile_matrix(o, y, 0.5, cfg, 3, _distance, first_index=4)
    assert len(times) == 51
    np.testing.assert_allclose(F[:, [1, -1]].ravel(), expect, rtol=RTOL)


def test_chained_endpoints_pinned():
    o = geometry.origin(3)
    cfg = SamplerConfig(3, 1e-2, "embedded-sde", 32)
    mid = brownian.endpoints(o, 0.3, cfg, 3)
    end = brownian.endpoints(o, 0.2, cfg, 3, tag=brownian.TAG_CHAIN, starts=mid)
    np.testing.assert_allclose(end.ravel(), [
        0.5544580981696424, -0.24933711826935306, -0.852953813339339, 1.4481446712476216,
        -1.1335683831730554, -0.6916910909042944, -0.18925472077695374, 1.6730903125361494,
        6.375760909243123, -3.32708108391782, 14.596065717190474, 16.30229830825517,
    ], rtol=RTOL)


def test_exit_times_pinned():
    o = geometry.origin(3)
    cfg = SamplerConfig(3, 1e-2, "geodesic-walk", 33)
    out = brownian.exit_times(o, 0.4, 1.0, cfg, 5, first_index=2)
    np.testing.assert_allclose(out, [0.04, 0.08, 0.02, 0.03, 0.03], rtol=RTOL)


def test_sample_pair_pinned():
    o = geometry.origin(3)
    a, b = brownian.sample_pair(o, 0.5, SamplerConfig(3, 1e-2, "geodesic-walk", 34),
                                path_index=6)
    assert len(a.times) == len(b.times) == 51
    np.testing.assert_allclose(a.points[-1], [
        -1.8875456765102236, -4.4130721749967305, 0.8824479969977106, 4.9816412124969505,
    ], rtol=RTOL)
    np.testing.assert_allclose(b.points[-1], [
        -1.6601926517994843, -1.2864252606647046, -5.510794130589505, 5.981637028615578,
    ], rtol=RTOL)


def test_flat_pair_matrix_pinned():
    cfg = SamplerConfig(3, 1e-2, "embedded-sde", 35)
    times, F = moments._euclidean_pair_profile_matrix(0.5, cfg, 3, _distance,
                                                      first_index=2)
    assert len(times) == 51
    np.testing.assert_allclose(F[:, [1, -1]].ravel(), [
        0.17261985612814734, 2.5730750715212465, 0.18671851535311362,
        3.7766213506828077, 0.3098868798169966, 2.1977589656818743,
    ], rtol=RTOL)


def test_lambda_constant_pinned():
    # per start pair (separation 0, then 5): integral, decay_slope and total
    o = geometry.origin(3)
    ys = geometry.points_from_polar(np.array([0.0, 5.0]), np.eye(3)[0])
    out = moments.lambda_constant(CovarianceModel("truncated-power", alpha=2.0),
                                  [(o, geometry.HPoint(y, 3)) for y in ys], 50.0, 4,
                                  SamplerConfig(3, 1e-1, "embedded-sde", 36))
    np.testing.assert_allclose(
        [[p[k] for k in ("integral", "decay_slope", "total")] for p in out["pairs"]], [
            [0.2437517905034997, -1.9431413780275293, 0.24513745961608546],
            [0.043021375569602296, -1.9536578120130257, 0.04460509525177682],
        ], rtol=RTOL)


def test_exit_times_start_never_counts():
    # at this start -<x0, x0> rounds to 1 + 1.4e-14, above cosh(1e-9) = 1.0;
    # the first exit can still only come after the first step
    o = geometry.origin(3)
    x0 = geometry.exp_map(o, geometry.TangentVec(o, np.array([0.6, 0.8, 0.0, 0.0])), 3.1)
    cfg = SamplerConfig(3, 1e-2, "embedded-sde", 1)
    assert np.all(brownian.exit_times(x0, 1e-9, 0.1, cfg, 8) == 0.01)
