"""Count data container and log densities for the two count families.

Both families are parameterised by their mean so they can share one
positive parameter: Poisson(mean), and the geometric failure-count law
with success probability 1/(1+mean), i.e. pmf p (1-p)^x with p = 1/(1+mean).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import ImproperEvidenceError

_INT64_MAX = (1 << 63) - 1


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
        if arr.dtype.kind == "O":
            # Python integers beyond every numpy integer type
            raise ValueError(f"values must fit in int64 (at most {_INT64_MAX})")
        if arr.dtype.kind not in "iu" and not np.all(arr == np.floor(arr)):
            raise ValueError("values must be integers")
        if arr.min() < 0:
            raise ValueError("values must be non-negative")
        top = arr.max()
        if top >= 1 << 63:  # 2^63 is exact as a float; 2^63 - 1 would round up to it
            raise ValueError(f"values must fit in int64 (at most {_INT64_MAX})")
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        total = int(count_totals(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "n", int(arr.size))
        object.__setattr__(self, "total", total)

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def log_factorial_sum(self) -> float:
        """sum_i ln(x_i!), the base-measure constant of the Poisson likelihood."""
        return float(log_factorial_sums(self.values))


def count_totals(values: np.ndarray) -> np.ndarray:
    """Totals along the last axis of non-negative int64 counts, exact where
    they fit in int64; ValueError where one does not."""
    totals = values.sum(axis=-1)
    if int(values.max()) > _INT64_MAX // values.shape[-1]:
        # an int64 sum may have wrapped: add exactly
        if max(map(sum, values.reshape(-1, values.shape[-1]).tolist())) > _INT64_MAX:
            raise ValueError(f"the total of the values must fit in int64 (at most {_INT64_MAX})")
    return totals


def log_factorial_sums(values: np.ndarray):
    """sum ln(x!) along the last axis of non-negative int64 counts (unchecked).

    ln(x!) is gammaln(x + 1.0).  Where the largest count is below the
    number of counts, each is gathered from that function's table over
    0..largest, which holds fewer values than the counts; elsewhere it is
    taken count by count.  Both give the same doubles, summed in the same
    order.
    """
    top = int(values.max(initial=0))
    if top < values.size:
        return gammaln(np.arange(top + 1.0) + 1.0)[values].sum(axis=-1)
    return gammaln(values + 1.0).sum(axis=-1)


COUNT_FAMILIES = ("poisson", "geometric")  # in the order of _component_log_pmfs's pair


def require_family(family: str) -> None:
    """ValueError unless `family` is one of COUNT_FAMILIES."""
    if family not in COUNT_FAMILIES:
        raise ValueError(f"family must be one of {COUNT_FAMILIES}")


def require_positive_total(data: CountDataset) -> None:
    """ImproperEvidenceError for an all-zero dataset: against the 1/lambda
    prior, lambda^(S-1) is not integrable near 0 at S = 0."""
    if data.total < 1:
        raise ImproperEvidenceError(
            "all-zero dataset: under the 1/lambda prior the marginal likelihood "
            "diverges and the posterior is improper"
        )


def _component_log_pmfs(values, lfact, u):
    """(Poisson, geometric) log pmfs of `values` at the shared mean e^u.

    `lfact` is ln(values!).  Arguments broadcast, so one call serves a
    scalar mean or a whole grid of them:
    Poisson x u - e^u - ln x!, geometric x u - (x+1) ln(1+e^u).
    """
    xu = values * u
    return xu - np.exp(u) - lfact, xu - (values + 1.0) * np.logaddexp(0.0, u)

