"""Count data container and log densities for the two count families.

Both families are parameterised by their mean so they can share one
positive parameter: Poisson(mean), and the geometric failure-count law
with success probability 1/(1+mean), i.e. pmf p (1-p)^x with p = 1/(1+mean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special import log_factorial


@dataclass(frozen=True)
class CountDataset:
    """Immutable vector of non-negative integer observations."""

    values: np.ndarray
    n: int = field(init=False)
    total: int = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("values must be a non-empty 1-D sequence")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == np.floor(arr)):
                raise ValueError("values must be integers")
            arr = arr.astype(np.int64)
        if np.any(arr < 0):
            raise ValueError("values must be non-negative")
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "n", int(arr.size))
        object.__setattr__(self, "total", int(arr.sum()))

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def log_factorial_sum(self) -> float:
        """sum_i ln(x_i!), the base-measure constant of the Poisson likelihood."""
        return float(np.sum(log_factorial(self.values)))


def _component_log_pmfs(values, lfact, u):
    """(Poisson, geometric) log pmfs of `values` at the shared mean e^u.

    `lfact` is ln(values!).  Arguments broadcast, so one call serves a
    scalar mean or a whole grid of them:
    Poisson x u - e^u - ln x!, geometric x u - (x+1) ln(1+e^u).
    """
    xu = values * u
    return xu - np.exp(u) - lfact, xu - (values + 1.0) * np.logaddexp(0.0, u)


def _log_pmfs(x, mean: float):
    if mean <= 0.0:
        raise ValueError("mean must be positive")
    xa = np.asarray(x)
    if np.any(xa < 0):
        raise ValueError("x must be non-negative")
    return _component_log_pmfs(xa, log_factorial(xa), math.log(mean))


def log_pmf_poisson(x, mean: float):
    """ln P(X = x) for X ~ Poisson(mean); x scalar or integer array."""
    out = _log_pmfs(x, mean)[0]
    return float(out) if np.ndim(out) == 0 else out


def log_pmf_geometric_mean(x, mean: float):
    """ln P(X = x) for the mean-parameterised geometric failure count.

    With p = 1/(1+mean): ln[p (1-p)^x] = x ln(mean) - (x+1) ln(1+mean).
    """
    out = _log_pmfs(x, mean)[1]
    return float(out) if np.ndim(out) == 0 else out
