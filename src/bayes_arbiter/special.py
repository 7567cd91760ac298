"""Log-scale special functions: log-gamma, log-factorial, log-sum-exp.

Everything here is pure and reentrant; the log-factorial table grows
monotonically and is only ever appended to.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# ln k! for k = 0..len-1; extended on demand.
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
        n_old = _LOG_FACTORIAL_TABLE.shape[0]
        n_new = max(top + 1, 2 * n_old)
        ext = np.cumsum(np.log(np.arange(n_old, n_new, dtype=float)))
        _LOG_FACTORIAL_TABLE = np.concatenate(
            [_LOG_FACTORIAL_TABLE, _LOG_FACTORIAL_TABLE[-1] + ext]
        )
    out = _LOG_FACTORIAL_TABLE[arr]
    return float(out) if np.isscalar(k) or arr.ndim == 0 else out


def _log_factorial_held(k: np.ndarray) -> np.ndarray:
    """ln k! for the longest prefix of the non-negative integer array k
    that the table already holds; the table does not grow."""
    beyond = np.flatnonzero(k >= _LOG_FACTORIAL_TABLE.shape[0])
    return _LOG_FACTORIAL_TABLE[k[: beyond[0]] if beyond.size else k]


def log_sum_exp(values, axis=None, weights=None):
    """log sum_i w_i exp(v_i), max-shifted; -inf inputs are handled.

    `weights`, when given, must be positive and match the reduced axis.
    """
    return logsumexp(values, axis=axis, b=weights)


def log_normal_pdf(x, mean, sd):
    """ln of the N(mean, sd^2) density (scalar or array)."""
    z = (np.asarray(x, dtype=float) - mean) / sd
    out = -0.5 * z * z - math.log(sd) - _HALF_LOG_TWO_PI
    return float(out) if out.ndim == 0 else out
