"""Log-scale special functions: log-gamma, log-factorial, normal log-density.

Everything here is pure and reentrant.  The log-factorial table grows
in powers of two, and each growth recomputes it from scratch; numpy's
cumsum is sequential, so every entry depends on k alone and the table
is the same whatever order of calls grew it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# ln k! for k = 0..len-1; len is a power of two, grown on demand.
_LOG_FACTORIAL_TABLE = np.zeros(1)


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
    """ln k! for non-negative integers (scalar or array), via a cached table."""
    global _LOG_FACTORIAL_TABLE
    arr = np.asarray(k)
    if arr.size and (np.any(arr < 0) or not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError("log_factorial requires non-negative integers")
    top = int(arr.max()) if arr.size else 0
    if top >= _LOG_FACTORIAL_TABLE.shape[0]:
        size = 1 << top.bit_length()
        table = np.zeros(size)
        np.cumsum(np.log(np.arange(1, size, dtype=float)), out=table[1:])
        _LOG_FACTORIAL_TABLE = table
    out = _LOG_FACTORIAL_TABLE[arr]
    return float(out) if np.isscalar(k) or arr.ndim == 0 else out


def log_normal_pdf(x, mean, sd):
    """ln of the N(mean, sd^2) density (scalar or array)."""
    z = (np.asarray(x, dtype=float) - mean) / sd
    out = -0.5 * z * z - math.log(sd) - _HALF_LOG_TWO_PI
    return float(out) if out.ndim == 0 else out
