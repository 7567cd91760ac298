import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln

from bayes_arbiter.calibration import lambda_posterior_draws, predictive_bf_tails
from bayes_arbiter.distributions import (
    CountDataset, _component_log_pmfs, count_totals, log_factorial_sums, require_positive_total,
)
from bayes_arbiter.errors import DegeneracyError, ImproperEvidenceError
from bayes_arbiter.evidence import (
    log_bf12_shared_improper,
    log_marginal_geometric_improper,
    log_marginal_poisson_improper,
    log_marginal_quadrature,
)
from bayes_arbiter.mixture import (
    McmcConfig, MixtureSpec, grid_posterior_alpha, run_gibbs, run_gibbs_chains, run_marginal_mh,
)
from bayes_arbiter.rng import Rng, RngSeed
from bayes_arbiter.special import log_factorial


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
        for bad in ([float("nan")], [float("inf")], [1e19], [2**63], [2**64], [2**70, 1]):
            with pytest.raises(ValueError, match="integers|int64"):
                CountDataset(bad)

    def test_values_and_total_fit_int64(self):
        # the largest int64 count is kept exactly, as a Python int total
        assert CountDataset([2**63 - 1]).total == 2**63 - 1
        assert CountDataset([2**62, 2**62 - 1]).total == 2**63 - 1
        for bad in ([2**62, 2**62], [2**63 - 1, 1], [2**61] * 5):
            with pytest.raises(ValueError, match="total"):
                CountDataset(bad)
        # row totals of a replicate matrix: one row past int64 is refused
        rows = np.array([[2**62, 2**62 - 1], [3, 4]])
        assert count_totals(rows).tolist() == [2**63 - 1, 7]
        with pytest.raises(ValueError, match="total"):
            count_totals(np.array([[3, 4], [2**62, 2**62]]))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(st.integers(0, 1000), st.integers(0, 2**62 // 200)),
            min_size=1,
            max_size=200,
        )
    )
    def test_log_factorial_sum_is_the_sum_of_log_factorial(self, values):
        # the property skips log_factorial's checks, not its value
        d = CountDataset(values)
        assert d.log_factorial_sum == float(np.sum(log_factorial(d.values)))

    def test_immutable(self):
        d = CountDataset([1, 2])
        with pytest.raises(ValueError):
            d.values[0] = 9


def log_pmfs(x, mean: float):
    """(Poisson, geometric) log pmfs of x at `mean`, through the shared kernel."""
    x = np.asarray(x)
    return _component_log_pmfs(x, log_factorial(x), math.log(mean))


class TestPoissonPmf:
    def test_point_values(self):
        assert log_pmfs(0, 1.0)[0] == pytest.approx(-1.0, abs=1e-14)
        # direct evaluation: 2 ln 4 - 4 - ln 2
        assert log_pmfs(2, 4.0)[0] == pytest.approx(-1.9205584583201642, abs=1e-12)

    def test_normalizes(self):
        xs = np.arange(0, 201)
        total = np.exp(log_pmfs(xs, 4.0)[0]).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        # finite wherever the samplers evaluate it: u = ln(mean) up to their
        # 690 cut, and counts up to 10^6
        xs = np.array([0, 1, 10**6])
        for u in (-690.0, 0.0, 690.0):
            assert np.all(np.isfinite(_component_log_pmfs(xs, log_factorial(xs), u)[0]))


class TestGeometricMeanPmf:
    def test_point_values(self):
        assert log_pmfs(0, 1.0)[1] == pytest.approx(math.log(0.5), abs=1e-14)
        # direct evaluation: 3 ln 4 - 4 ln 5
        assert log_pmfs(3, 4.0)[1] == pytest.approx(-2.2788685663767297, abs=1e-12)

    def test_mean_parameterisation(self):
        xs = np.arange(0, 501)
        pmf = np.exp(log_pmfs(xs, 4.0)[1])
        assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
        assert (xs * pmf).sum() == pytest.approx(4.0, abs=1e-8)

    def test_normalizes_other_means(self):
        for mean in (0.3, 1.0, 9.0):
            xs = np.arange(0, 3000)
            assert np.exp(log_pmfs(xs, mean)[1]).sum() == pytest.approx(
                1.0, abs=1e-10
            )

    def test_domain(self):
        xs = np.array([0, 1, 10**6])
        for u in (-690.0, 0.0, 690.0):
            assert np.all(np.isfinite(_component_log_pmfs(xs, log_factorial(xs), u)[1]))


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
    lf1, lf2 = log_pmfs(x, mean)
    assert np.all(np.abs(lf1 - ref_p) <= 1e-10 * np.maximum(1.0, np.abs(ref_p)))
    assert np.all(np.abs(lf2 - ref_g) <= 1e-10 * np.maximum(1.0, np.abs(ref_g)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from([(1,), (7,), (300,), (1, 5), (4, 25), (60, 100)]),
    top=st.sampled_from([0, 1, 6, 99, 100, 2999, 3000, 6000, 2**40, 2**62]),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_factorial_sums_are_the_per_count_sums(shape, top, seed):
    # the gammaln table below the number of counts, count by count from
    # there: the same doubles either way, in 1-D and 2-D
    values = np.random.default_rng(seed).integers(0, top, shape, endpoint=True)
    values.flat[0] = top  # the largest count decides the form
    got = log_factorial_sums(values)
    assert np.array_equal(got, gammaln(values + 1.0).sum(axis=-1))
    assert np.shape(got) == shape[:-1]


_MCMC = McmcConfig(iterations=20, burn_in=10)
# every entry point that needs a positive total, each called on all-zero data
ALL_ZERO_ENTRY_POINTS = {
    "poisson marginal": log_marginal_poisson_improper,
    "geometric marginal": log_marginal_geometric_improper,
    "shared-improper BF": log_bf12_shared_improper,
    "predictive BF tails": lambda d: predictive_bf_tails(d, mode="posterior", n_rep=100),
    "poisson quadrature": lambda d: log_marginal_quadrature(d, "poisson"),
    "geometric quadrature": lambda d: log_marginal_quadrature(d, "geometric"),
    "run_gibbs": lambda d: run_gibbs(d, MixtureSpec(0.5), _MCMC),
    "run_gibbs_chains": lambda d: run_gibbs_chains([(CountDataset([1]), MixtureSpec(0.5), RngSeed(1)),
                                                    (d, MixtureSpec(0.5), RngSeed(2))], _MCMC),
    "run_marginal_mh": lambda d: run_marginal_mh(d, MixtureSpec(0.5), _MCMC),
    "grid_posterior_alpha": lambda d: grid_posterior_alpha(d, MixtureSpec(0.5)),
    "poisson posterior draws": lambda d: lambda_posterior_draws(d, "poisson", 10, Rng(RngSeed(1))),
    "geometric posterior draws": lambda d: lambda_posterior_draws(d, "geometric", 10, Rng(RngSeed(1))),
}


@pytest.mark.parametrize("name", ALL_ZERO_ENTRY_POINTS)
def test_every_all_zero_entry_point_raises_one_error(name):
    zeros = CountDataset([0, 0, 0])
    with pytest.raises(ImproperEvidenceError) as expected:
        require_positive_total(zeros)
    with pytest.raises(ImproperEvidenceError) as got:
        ALL_ZERO_ENTRY_POINTS[name](zeros)
    assert type(got.value) is ImproperEvidenceError and isinstance(got.value, DegeneracyError)
    assert str(got.value) == str(expected.value)
    assert "all-zero" in str(got.value) and "improper" in str(got.value)
