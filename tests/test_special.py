import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from bayes_arbiter import special
from bayes_arbiter.special import (
    log_factorial,
    log_gamma,
    log_normal_pdf,
)


class TestLogGamma:
    def test_exact_small_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)
        assert log_gamma(6.0) == pytest.approx(math.log(120.0), abs=1e-12)

    def test_against_lgamma_wide_range(self):
        # abs error <= 1e-12 * max(1, |ln Gamma|); the relative form is what
        # float64 can represent once ln Gamma exceeds ~1e4.
        xs = np.concatenate(
            [
                np.linspace(0.5, 10.0, 501),
                np.linspace(10.0, 5000.0, 500),
                np.logspace(4, 6, 50),
            ]
        )
        ours = log_gamma(xs)
        ref = np.array([math.lgamma(float(x)) for x in xs])
        tol = 1e-12 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(ours - ref) <= tol)

    def test_recurrence(self):
        xs = np.arange(0.5, 100.5, 0.5)
        lhs = log_gamma(xs + 1.0)
        rhs = log_gamma(xs) + np.log(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-11

    def test_reflection_region(self):
        for x in (0.01, 0.1, 0.3, 0.49):
            assert log_gamma(x) == pytest.approx(math.lgamma(x), abs=1e-11)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.2)


class TestLogFactorial:
    def test_matches_lgamma(self):
        ks = np.arange(0, 2000)
        assert np.allclose(
            log_factorial(ks),
            [math.lgamma(k + 1.0) for k in ks],
            rtol=0.0,
            atol=1e-9,
        )

    def test_scalar_and_negative(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(5) == pytest.approx(math.log(120.0), abs=1e-12)
        with pytest.raises(ValueError):
            log_factorial(-1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 5000), max_size=4), min_size=1, max_size=8))
    def test_any_growth_order_gives_one_call_table(self, calls):
        # the table is module state: grow it from empty along `calls`,
        # then in one call at the largest k, and restore it after
        saved = special._LOG_FACTORIAL_TABLE
        try:
            special._LOG_FACTORIAL_TABLE = np.zeros(1)
            got = [log_factorial(np.array(ks, dtype=np.int64)) for ks in calls]
            grown = special._LOG_FACTORIAL_TABLE
            special._LOG_FACTORIAL_TABLE = np.zeros(1)
            log_factorial(max(max(ks, default=0) for ks in calls))
            one_call = special._LOG_FACTORIAL_TABLE
        finally:
            special._LOG_FACTORIAL_TABLE = saved
        assert grown.shape == one_call.shape
        assert np.array_equal(grown, one_call)
        for ks, lf in zip(calls, got):
            assert np.array_equal(lf, one_call[ks])


def test_normal_cdf_reference_points():
    # the normal CDF behind the closed-form tail checks in the calibration tests
    assert ndtr(0.0) == pytest.approx(0.5, abs=1e-15)
    assert ndtr(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    assert ndtr(-8.0) == pytest.approx(6.22096e-16, rel=1e-4)


def test_log_normal_pdf_normalizes():
    xs = np.linspace(-20, 20, 40001)
    dens = np.exp(log_normal_pdf(xs, 0.3, 1.7))
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-10)
