import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bayes_arbiter.distributions import (
    CountDataset,
    log_pmf_geometric_mean,
    log_pmf_poisson,
)


class TestCountDataset:
    def test_fields(self):
        d = CountDataset(np.array([2, 3]))
        assert d.n == 2
        assert d.total == 5
        assert d.mean == 2.5
        assert d.log_factorial_sum == pytest.approx(math.log(2) + math.log(6), abs=1e-12)

    def test_accepts_lists_and_float_integers(self):
        assert CountDataset([0, 1, 2]).total == 3
        assert CountDataset(np.array([1.0, 4.0])).total == 5

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            CountDataset([])
        with pytest.raises(ValueError):
            CountDataset([-1, 2])
        with pytest.raises(ValueError):
            CountDataset([1.5])

    def test_immutable(self):
        d = CountDataset([1, 2])
        with pytest.raises(ValueError):
            d.values[0] = 9


class TestPoissonPmf:
    def test_point_values(self):
        assert log_pmf_poisson(0, 1.0) == pytest.approx(-1.0, abs=1e-14)
        # direct evaluation: 2 ln 4 - 4 - ln 2
        assert log_pmf_poisson(2, 4.0) == pytest.approx(-1.9205584583201642, abs=1e-12)

    def test_normalizes(self):
        xs = np.arange(0, 201)
        total = np.exp(log_pmf_poisson(xs, 4.0)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_pmf_poisson(1, 0.0)
        with pytest.raises(ValueError):
            log_pmf_poisson(-1, 2.0)


class TestGeometricMeanPmf:
    def test_point_values(self):
        assert log_pmf_geometric_mean(0, 1.0) == pytest.approx(math.log(0.5), abs=1e-14)
        # direct evaluation: 3 ln 4 - 4 ln 5
        assert log_pmf_geometric_mean(3, 4.0) == pytest.approx(-2.2788685663767297, abs=1e-12)

    def test_mean_parameterisation(self):
        xs = np.arange(0, 501)
        pmf = np.exp(log_pmf_geometric_mean(xs, 4.0))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
        assert (xs * pmf).sum() == pytest.approx(4.0, abs=1e-8)

    def test_normalizes_other_means(self):
        for mean in (0.3, 1.0, 9.0):
            xs = np.arange(0, 3000)
            assert np.exp(log_pmf_geometric_mean(xs, mean)).sum() == pytest.approx(
                1.0, abs=1e-10
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            log_pmf_geometric_mean(0, -0.5)


@settings(max_examples=200, deadline=None)
@given(
    xs=st.lists(st.integers(0, 10_000), min_size=1, max_size=20),
    log10_mean=st.floats(-3.0, 3.0),
)
def test_log_pmfs_match_scipy_reference(xs, log10_mean):
    # both log pmfs come from one kernel shared with the samplers and the
    # grid oracle; scipy.stats is the independent reference
    x = np.array(xs)
    mean = 10.0**log10_mean
    ref_p = stats.poisson.logpmf(x, mean)
    ref_g = stats.geom.logpmf(x + 1, 1.0 / (1.0 + mean))
    assert np.all(np.abs(log_pmf_poisson(x, mean) - ref_p) <= 1e-10 * np.maximum(1.0, np.abs(ref_p)))
    assert np.all(np.abs(log_pmf_geometric_mean(x, mean) - ref_g) <= 1e-10 * np.maximum(1.0, np.abs(ref_g)))
