import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

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

    def test_within_four_ulp_of_exact(self):
        # reference: the log of the exact integer k!, which math.log rounds
        # to within one ulp
        ks = np.arange(2, 2000)
        exact, f = [], 1
        for k in range(2, 2000):
            f *= k
            exact.append(math.log(f))
        exact = np.array(exact)
        assert np.all(np.abs(log_factorial(ks) - exact) <= 4 * np.spacing(exact))

    def test_large_count_allocates_no_table(self):
        tracemalloc.start()
        try:
            got = log_factorial(np.array([10**7], dtype=np.int64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0] == pytest.approx(math.lgamma(10**7 + 1.0), rel=1e-15)
        assert peak < 1 << 20


def test_normal_cdf_reference_points():
    # the normal CDF behind the closed-form tail checks in the calibration tests
    assert ndtr(0.0) == pytest.approx(0.5, abs=1e-15)
    assert ndtr(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    assert ndtr(-8.0) == pytest.approx(6.22096e-16, rel=1e-4)


def test_log_normal_pdf_normalizes():
    xs = np.linspace(-20, 20, 40001)
    dens = np.exp(log_normal_pdf(xs, 0.3, 1.7))
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-10)
