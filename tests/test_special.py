import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from bayes_arbiter.special import log_factorial, log_normal_pdf


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
