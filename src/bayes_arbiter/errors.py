"""Exception types shared across the package, and the bound on what a run stores."""

from __future__ import annotations

import math

# Values one stored array of a run may hold: 800 MB of float64
_MAX_STORED_VALUES = 10**8


def require_storable(what: str, *shape: int) -> None:
    """ValueError, before anything is drawn, when an array of `shape` would
    hold more than _MAX_STORED_VALUES values."""
    if math.prod(shape) > _MAX_STORED_VALUES:
        raise ValueError(
            f"at most {_MAX_STORED_VALUES} stored values: {what} would hold {' x '.join(map(str, shape))}"
        )


class DegeneracyError(ValueError):
    """Raised when a dataset or state makes the target distribution improper.

    The canonical case is an all-zero count dataset under the 1/lambda
    prior, whose marginal likelihood integral diverges.
    """


class ImproperEvidenceError(DegeneracyError):
    """Raised when a marginal likelihood does not exist (non-integrable)."""


class AccuracyError(RuntimeError):
    """Raised when a numerical routine cannot meet its accuracy target.

    Carries the best available estimate so callers can inspect it.
    """

    def __init__(self, message: str, estimate: float | None = None):
        super().__init__(message)
        self.estimate = estimate
