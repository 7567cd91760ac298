"""Closed-form marginal likelihoods, Bayes factors, and a quadrature oracle.

All evidence arithmetic stays in log space.  Every closed form has an
independent Gauss-Legendre route (`log_marginal_quadrature`,
`log_bf10_normal_quadrature`) so the algebra can be cross-checked
numerically rather than trusted.  Both check their rule against a refined
one and raise AccuracyError when it moves the log integral by more than an
absolute 1e-8, as it may from count totals of about 1e8 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln, logsumexp

from .distributions import CountDataset, require_family, require_positive_total
from .errors import AccuracyError
from .special import log_normal_pdf

_BRACKET_DROP = 40.0  # support: log-integrand within this many nats of its max
_PANEL_WIDTH_SDS = 0.5  # panel width in Laplace standard deviations
_REFINEMENT_TOL = 1e-8  # a refined rule that moves the answer by more raises AccuracyError
_NODES_PER_PANEL = 24  # Gauss-Legendre nodes per panel; the refined rule has 8 more
_MAX_PANELS = 128


# ----------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class NormalSummary:
    """Sufficient statistics for the normal-mean point-null testbed.

    The observed mean is N(theta, sigma^2/n); the point null pins theta at
    theta0 and the alternative puts a N(theta0, sigma^2) prior on theta.
    """

    n: int
    xbar: float
    theta0: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _require_sample_size(self.n)
        for name in ("xbar", "theta0", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")

    @property
    def t_statistic(self) -> float:
        """sqrt(n) |xbar - theta0| / sigma."""
        return math.sqrt(self.n) * abs((self.xbar - self.theta0) / self.sigma)


@dataclass(frozen=True)
class LogEvidence:
    log_evidence: float
    method: str = "closed_form"
    error_estimate: float | None = None


@dataclass(frozen=True)
class LogBayesFactor:
    log_bf: float
    method: str = "closed_form"

    @property
    def bf(self) -> float:
        try:
            return math.exp(self.log_bf)
        except OverflowError:
            return math.inf


# ----------------------------------------------------------------------
# closed forms
#
# log_bf10_normal negates the expression of log_bf01_lindley, so that
# their sum cancels exactly in floating point, not just in algebra.


def _require_sample_size(n) -> None:
    # above 2^1022, 2 (1 + n) in the evidence exponent overflows to inf
    if not 1 <= n <= 2.0**1022:
        raise ValueError("n must be a number from 1 to 2^1022")


def _require_finite_exponent(n: int, t: float) -> None:
    if not math.isfinite(n * t * t):
        raise ValueError(f"n t^2 overflows at t = {t:.10g}, n = {n:.10g}")


def _log_bf01(n, t):
    """0.5 ln(1+n) - n t^2 / (2 (1+n)) at one t or at an array of them.  An
    n t^2 past the largest double gives -inf, below every finite value."""
    with np.errstate(over="ignore"):
        return 0.5 * math.log1p(float(n)) - n * t * t / (2.0 * (1.0 + n))


def log_bf10_normal(summary: NormalSummary) -> LogBayesFactor:
    """log BF of the unit-prior alternative over the point null.

    Equals -0.5 ln(1+n) + n^2 xbar^2 / (2 (1+n)) in the standardized
    (theta0=0, sigma=1) coordinates; general summaries are standardized
    through the t statistic first.
    """
    t = summary.t_statistic
    _require_finite_exponent(summary.n, t)
    return LogBayesFactor(-_log_bf01(summary.n, t))


def log_bf01_lindley(n: int, t: float) -> LogBayesFactor:
    """log BF of the point null over the alternative at fixed test statistic t.

    0.5 ln(1+n) - n t^2 / (2 (1+n)): for fixed t > 0 this grows without
    bound in n, the Jeffreys-Lindley behaviour.
    """
    _require_sample_size(n)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be non-negative and finite")
    _require_finite_exponent(n, t)
    return LogBayesFactor(_log_bf01(n, t))


def log_marginal_poisson_improper(data: CountDataset) -> LogEvidence:
    """ln m(x) for Poisson sampling under the improper 1/lambda prior.

    ln Gamma(S) - S ln n - sum_i ln(x_i!), defined only for S >= 1.
    """
    require_positive_total(data)
    value = (
        gammaln(float(data.total))
        - data.total * math.log(data.n)
        - data.log_factorial_sum
    )
    return LogEvidence(value)


def log_marginal_geometric_improper(data: CountDataset) -> LogEvidence:
    """ln m(x) for mean-parameterised geometric sampling under the 1/lambda prior.

    The likelihood is lambda^S (1+lambda)^-(S+n); against 1/lambda the
    integral is the Beta function B(S, n).
    """
    require_positive_total(data)
    value = (
        gammaln(float(data.total))
        + gammaln(float(data.n))
        - gammaln(float(data.total + data.n))
    )
    return LogEvidence(value)


def _log_bf12(total, n: int, log_factorial_sum):
    """ln Gamma(S+n) - S ln n - sum_i ln(x_i!) - ln Gamma(n) at one total S
    (an int) or at an array of them, with their log-factorial sums."""
    return (
        gammaln(np.asarray(total + n, dtype=float))
        - total * math.log(n)
        - log_factorial_sum
        - gammaln(float(n))
    )


def log_bf12_shared_improper(data: CountDataset) -> LogBayesFactor:
    """Poisson-over-geometric log BF under the shared 1/lambda prior.

    Difference of the two improper marginals:
    ln Gamma(S+n) - S ln n - sum_i ln(x_i!) - ln Gamma(n).
    """
    require_positive_total(data)
    return LogBayesFactor(_log_bf12(data.total, data.n, data.log_factorial_sum))


def log_bf12_printed(data: CountDataset) -> LogBayesFactor:
    """Alternative Poisson-over-geometric closed form, kept for comparison.

    S ln n + sum_i ln(x_i!) + ln Gamma(n+2+S) - ln Gamma(n+2).  This does
    NOT equal integration under the 1/lambda prior (see
    log_bf12_shared_improper); it is quarantined under the
    "printed_formula" method label and never used as the default
    comparison.  Unlike the shared-improper route it stays finite at S=0.
    """
    value = (
        data.total * math.log(data.n)
        + data.log_factorial_sum
        + gammaln(float(data.n + 2 + data.total))
        - gammaln(float(data.n + 2))
    )
    return LogBayesFactor(value, method="printed_formula")


def posterior_prob_from_log_bf(log_bf: float) -> float:
    """B/(1+B) with equal prior weights, computed stably from log B."""
    return float(expit(log_bf))


# ----------------------------------------------------------------------
# quadrature oracle


def _bracket_support(log_f, center: float, scale: float, drop: float, max_steps: int = 200):
    """Expand left/right from `center` until log_f falls `drop` below its max."""
    g0 = log_f(center)
    ends = []
    for side, name in ((-1.0, "left"), (1.0, "right")):
        end, step = center, scale
        for _ in range(max_steps):
            end += side * step
            if log_f(end) < g0 - drop:
                break
            step *= 2.0
        else:
            raise AccuracyError(f"bracketing failed on the {name} tail")
        ends.append(end)
    return tuple(ends)


def _panel_nodes(lo: float, hi: float, panels: int, nodes: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return u, wts


def _count_bracket(data: CountDataset, family: str, drop: float = _BRACKET_DROP):
    """(log-integrand, lo, hi, Laplace sd) on u = ln(lambda) for one family;
    the 1/lambda prior is flat in u."""
    total, n = float(data.total), float(data.n)
    if family == "poisson":
        const = data.log_factorial_sum
        log_f = lambda u: total * np.asarray(u) - n * np.exp(np.asarray(u)) - const
        sd = 1.0 / math.sqrt(data.total)
    else:
        # geometric: lambda^S (1+lambda)^-(S+n); log1p(e^u) via softplus
        log_f = lambda u: total * np.asarray(u) - (total + n) * np.logaddexp(0.0, np.asarray(u))
        sd = math.sqrt((data.total + data.n) / (data.total * data.n))
    lo, hi = _bracket_support(log_f, math.log(data.total / data.n), sd, drop)
    return log_f, lo, hi, sd


def _panel_count(lo: float, hi: float, sd: float) -> int:
    """Panels of about _PANEL_WIDTH_SDS sds on [lo, hi]: at least 8, at most _MAX_PANELS."""
    return min(_MAX_PANELS, max(8, math.ceil((hi - lo) / (_PANEL_WIDTH_SDS * sd))))


def _refined_log_integral(log_f, lo: float, hi: float, sd: float) -> tuple[float, float]:
    """(ln of the integral of e^log_f on [lo, hi], error estimate) by composite
    Gauss-Legendre: the rule with 8 more nodes per panel gives the value, and
    a move above _REFINEMENT_TOL raises AccuracyError with it attached."""
    panels = _panel_count(lo, hi, sd)
    coarse, fine = (
        logsumexp(log_f(u), b=wts)
        for u, wts in (
            _panel_nodes(lo, hi, panels, _NODES_PER_PANEL),
            _panel_nodes(lo, hi, panels, _NODES_PER_PANEL + 8),
        )
    )
    err = abs(fine - coarse)
    if not math.isfinite(fine) or err > _REFINEMENT_TOL:
        raise AccuracyError(f"quadrature did not converge (refinement moved by {err:.3e})", estimate=fine)
    return fine, err


def log_marginal_quadrature(data: CountDataset, family: str) -> LogEvidence:
    """Numerical marginal likelihood for a count family, independent of the
    closed forms.

    Integrates against the 1/lambda prior on u = ln(lambda) with composite
    Gauss-Legendre panels over an automatically bracketed support.  The
    error estimate is the change under a refined rule; exceeding 1e-8
    raises AccuracyError with the estimate attached.
    """
    require_family(family)
    require_positive_total(data)
    value, err = _refined_log_integral(*_count_bracket(data, family))
    return LogEvidence(value, method="quadrature", error_estimate=err)


def log_bf10_normal_quadrature(summary: NormalSummary) -> LogBayesFactor:
    """Quadrature route to log_bf10_normal: integrate the standardized mean
    likelihood against the unit normal prior, then divide by the null.  A
    refined rule that moves the integral by more than 1e-8 raises AccuracyError."""
    n = summary.n
    z = (summary.xbar - summary.theta0) / summary.sigma
    samp_sd = 1.0 / math.sqrt(n)

    def log_f(mu):
        return log_normal_pdf(z, mu, samp_sd) + log_normal_pdf(mu, 0.0, 1.0)

    post_mean = n * z / (n + 1.0)
    post_sd = 1.0 / math.sqrt(n + 1.0)
    half_width = (math.sqrt(2.0 * _BRACKET_DROP) + 2.0) * post_sd
    log_m1, _ = _refined_log_integral(log_f, post_mean - half_width, post_mean + half_width, post_sd)
    log_m0 = log_normal_pdf(z, 0.0, samp_sd)
    return LogBayesFactor(log_m1 - log_m0, method="quadrature")
