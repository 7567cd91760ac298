"""Log-scale special functions: log-gamma, log-factorial, normal log-density.

Everything here is pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x):
    """ln Gamma(x) for x > 0 (scalar or array).

    Raises ValueError off the positive half-line.  Accuracy:
    |error| <= 1e-12 * max(1, |ln Gamma(x)|) on [0.5, 1e6].
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or np.any(np.isnan(arr)):
        raise ValueError("log_gamma requires x > 0")
    out = gammaln(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def log_factorial(k):
    """ln k! = ln Gamma(k + 1) for non-negative integers (scalar or array)."""
    arr = np.asarray(k)
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0):
        raise ValueError("log_factorial requires non-negative integers")
    out = gammaln(arr + 1.0)
    return float(out) if np.isscalar(k) or arr.ndim == 0 else out


def log_normal_pdf(x, mean, sd):
    """ln of the N(mean, sd^2) density (scalar or array)."""
    z = (np.asarray(x, dtype=float) - mean) / sd
    out = -0.5 * z * z - math.log(sd) - _HALF_LOG_TWO_PI
    return float(out) if out.ndim == 0 else out
