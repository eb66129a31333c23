"""The validate checks' own statistics, held equal to scipy.stats as the oracle."""

import numpy as np
import pytest
import scipy.stats as st

from hyperpam import checks

_RNG = np.random.default_rng(7)
_NORMAL = _RNG.standard_normal(300)
_TIES = np.round(_RNG.standard_normal(400), 1)  # about 60 distinct values


@pytest.mark.parametrize("x", [_NORMAL, _TIES, _NORMAL[:1], _NORMAL + 0.3],
                         ids=["normal", "ties", "single", "shifted"])
def test_ks_distance_equals_scipy(x):
    assert checks._ks_distance(x, st.norm.cdf) == st.kstest(x, st.norm.cdf).statistic


@pytest.mark.parametrize("a,b", [
    (_NORMAL, _NORMAL[::-1] + 0.1),
    (_TIES[:150], _TIES[150:]),
    (_TIES, np.round(_NORMAL, 1)),
    (_NORMAL[:7], _NORMAL[7:]),
    (_NORMAL, _NORMAL),
], ids=["shifted", "ties", "ties-across", "unequal-sizes", "identical"])
def test_ks_2samp_distance_equals_scipy(a, b):
    assert checks._ks_2samp_distance(a, b) == st.ks_2samp(a, b).statistic


def test_sphere_direction_chi2_limit_is_the_chi2_quantile():
    rec = checks._check_sphere_direction_chi2(1.0, 20260809)
    assert rec["limit"] == st.chi2.ppf(0.99, 19)
