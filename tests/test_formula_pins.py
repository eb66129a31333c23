"""Pinned values of formulas that have, or had, more than one implementation.

The values were recorded before the duplicate implementations were folded
into one owner each; the folded code must reproduce them.  They are compared
as values at rtol=1e-12, not as byte digests, since libm may round
transcendental functions differently across machines.
"""

import numpy as np
import pytest

from hyperpam import brownian, checks, covariance, heatkernel, moments

RTOL = 1e-12


def test_hk_exact_d3_pinned():
    assert heatkernel.hk_exact_d3(0.7, 1.3) == pytest.approx(0.00796731756551138, rel=RTOL)
    assert heatkernel.hk_exact_d3(0.7, 0.0) == pytest.approx(0.019034085097133762, rel=RTOL)
    assert heatkernel.hk_exact_d3(2.0, 1e-9) == pytest.approx(0.0010741161503603589,
                                                              rel=RTOL)
    assert isinstance(heatkernel.hk_exact_d3(0.7, 1.3), float)
    np.testing.assert_allclose(
        heatkernel.hk_exact_d3(1.5, np.array([0.0, 1e-9, 0.5, 3.0, 12.0])),
        [0.0027265068462009505, 0.0027265068462009505, 0.002509364979918456,
         0.0001821841199795953, 1.5178067704361385e-17], rtol=RTOL)


def test_log_radial_density_d3_pinned():
    f = heatkernel.log_radial_density_d3
    assert f(0.7, 1.3) == pytest.approx(-1.2420305810638426, rel=RTOL)
    assert f(3.0, 500.0) == pytest.approx(-20333.725302971958, rel=RTOL)
    assert f(0.7, 0.0) == -np.inf
    assert isinstance(f(0.7, 1.3), float)
    out = f(1.5, np.array([0.0, 1e-9, 0.5, 3.0, 800.0]))
    assert out[0] == -np.inf
    np.testing.assert_allclose(out[1:], [-44.820241459539716, -4.760345958820532,
                                         -1.4707265069076876, -105864.0489119052],
                               rtol=RTOL)


@pytest.mark.parametrize("t,first4,single", [
    (1e-3, [0.08191559720982065, 0.03416694240654991, 0.04332498914420638,
            0.10689016217452842], 0.057372557443313404),
    (0.5, [2.1020013733464777, 0.7789217391078334, 1.7392590901739025,
           1.7836293168652964], 1.6219624594348572),
    (1.0, [3.3005260154748517, 1.5388091832933224, 2.998999483510462,
           2.302589658751602], 2.692622041876914),
    (5.0, [11.647436751102052, 8.60224848032604, 12.036957810645701,
           6.474932626821568], 10.7709049910524),
    (25.0, [51.88139502311465, 46.58889424506082, 54.28752936209453,
            38.56868243131739], 50.76803646627247),
], ids=["0.001", "0.5", "1.0", "5.0", "25.0"])  # t only: re-recording keeps the names
def test_sample_radial_exact_d3_first_draws_pinned(t, first4, single):
    draws = heatkernel.sample_radial_exact_d3(t, np.random.default_rng(11), size=4)
    np.testing.assert_allclose(draws, first4, rtol=RTOL)
    one = heatkernel.sample_radial_exact_d3(t, np.random.default_rng(12))
    assert one == pytest.approx(single, rel=RTOL)


def test_reverse_triangle_check_observed_pinned():
    rec = checks._check_reverse_triangle(20260809)
    assert rec.observed == pytest.approx(-1.7296617693673966e-08, rel=RTOL)
    assert rec.detail == "19121 triangles"


def test_euclidean_second_moment_pinned():
    cfg = brownian.SamplerConfig(3, 1e-2, "embedded-sde", 36)
    model = covariance.CovarianceModel("truncated-power", alpha=2.0)
    est = moments.euclidean_second_moment(None, 0.5, 0.7, model, 8, cfg)
    assert est.log_m2 == pytest.approx(0.049785910357705604, rel=RTOL)
    assert est.stderr_log == pytest.approx(0.003878522912710217, rel=RTOL)
    assert est.max_z == pytest.approx(0.07059606935247921, rel=RTOL)
    assert est.n_excluded == 0


def test_log_hk_exact_d3_rejects_negative_rho():
    with pytest.raises(ValueError, match="rho"):
        heatkernel.log_hk_exact_d3(1.0, -1.0)
    with pytest.raises(ValueError, match="rho"):
        heatkernel.log_hk_exact_d3(1.0, np.array([0.5, -1.0]))
