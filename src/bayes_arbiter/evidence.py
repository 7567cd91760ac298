"""Closed-form marginal likelihoods, Bayes factors, and a quadrature oracle.

All evidence arithmetic stays in log space.  Every closed form has an
independent Gauss-Legendre route (`log_marginal_quadrature`,
`log_bf10_normal_quadrature`) so the algebra can be cross-checked
numerically rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln, logsumexp

from .distributions import CountDataset
from .errors import AccuracyError, ImproperEvidenceError
from .special import log_normal_pdf

_COUNT_FAMILIES = ("poisson", "geometric")
_BRACKET_DROP = 40.0  # support: log-integrand within this many nats of its max
_PANEL_WIDTH_SDS = 0.5  # panel width in Laplace standard deviations
_REFINEMENT_TOL = 1e-8  # a refined rule that moves the answer by more raises AccuracyError
# Largest Gauss-Legendre rule per panel: numpy builds an n-node rule in
# O(n^2) or more (0.03 s at 512, 0.12 s at 1024), and 1e19 nodes overflowed.
_MAX_NODES_PER_PANEL = 512


# ----------------------------------------------------------------------
# result and configuration types


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
    model: str
    method: str = "closed_form"
    error_estimate: float | None = None


@dataclass(frozen=True)
class LogBayesFactor:
    log_bf: float
    numerator_model: str
    denominator_model: str
    method: str = "closed_form"

    @property
    def bf(self) -> float:
        try:
            return math.exp(self.log_bf)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre settings for the evidence oracle and the 2-D grid.

    The support is bracketed automatically where the log-integrand stays
    within 40 nats of its maximum, then split into at most `max_panels`
    panels of roughly half a Laplace standard deviation each (at least 8
    unless `max_panels` is smaller), with `nodes_per_panel` nodes per panel,
    at most 512.
    """

    nodes_per_panel: int = 24
    max_panels: int = 128

    def __post_init__(self):
        for name in ("nodes_per_panel", "max_panels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.nodes_per_panel > _MAX_NODES_PER_PANEL:
            raise ValueError(f"nodes_per_panel must be at most {_MAX_NODES_PER_PANEL}")


# ----------------------------------------------------------------------
# closed forms
#
# log_bf10_normal and log_bf01_lindley route the exponent through one
# shared expression so that their sum cancels exactly in floating point,
# not just in algebra.


def _half_log1p(n: int) -> float:
    return 0.5 * math.log1p(float(n))


def _require_sample_size(n) -> None:
    if not 1 <= n < math.inf:
        raise ValueError("n must be a finite number of at least 1")


def _evidence_exponent(n: int, t: float) -> float:
    if not math.isfinite(n * t * t):
        raise ValueError(f"n t^2 overflows at t = {t:.10g}, n = {n:.10g}")
    return n * t * t / (2.0 * (1.0 + n))


def log_bf10_normal(summary: NormalSummary) -> LogBayesFactor:
    """log BF of the unit-prior alternative over the point null.

    Equals -0.5 ln(1+n) + n^2 xbar^2 / (2 (1+n)) in the standardized
    (theta0=0, sigma=1) coordinates; general summaries are standardized
    through the t statistic first.
    """
    t = summary.t_statistic
    return LogBayesFactor(
        log_bf=_evidence_exponent(summary.n, t) - _half_log1p(summary.n),
        numerator_model="normal_unit_prior",
        denominator_model="normal_point_null",
    )


def log_bf01_lindley(n: int, t: float) -> LogBayesFactor:
    """log BF of the point null over the alternative at fixed test statistic t.

    0.5 ln(1+n) - n t^2 / (2 (1+n)): for fixed t > 0 this grows without
    bound in n, the Jeffreys-Lindley behaviour.
    """
    _require_sample_size(n)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be non-negative and finite")
    return LogBayesFactor(
        log_bf=_half_log1p(n) - _evidence_exponent(n, t),
        numerator_model="normal_point_null",
        denominator_model="normal_unit_prior",
    )


def _require_positive_total(data: CountDataset) -> None:
    if data.total < 1:
        raise ImproperEvidenceError(
            "all-zero dataset: the 1/lambda prior gives a divergent marginal "
            "(integral of lambda^(S-1) near 0 with S=0)"
        )


def log_marginal_poisson_improper(data: CountDataset) -> LogEvidence:
    """ln m(x) for Poisson sampling under the improper 1/lambda prior.

    ln Gamma(S) - S ln n - sum_i ln(x_i!), defined only for S >= 1.
    """
    _require_positive_total(data)
    value = (
        gammaln(float(data.total))
        - data.total * math.log(data.n)
        - data.log_factorial_sum
    )
    return LogEvidence(value, model="poisson")


def log_marginal_geometric_improper(data: CountDataset) -> LogEvidence:
    """ln m(x) for mean-parameterised geometric sampling under the 1/lambda prior.

    The likelihood is lambda^S (1+lambda)^-(S+n); against 1/lambda the
    integral is the Beta function B(S, n).
    """
    _require_positive_total(data)
    value = (
        gammaln(float(data.total))
        + gammaln(float(data.n))
        - gammaln(float(data.total + data.n))
    )
    return LogEvidence(value, model="geometric")


def log_bf12_shared_improper(data: CountDataset) -> LogBayesFactor:
    """Poisson-over-geometric log BF under the shared 1/lambda prior.

    Difference of the two improper marginals:
    ln Gamma(S+n) - S ln n - sum_i ln(x_i!) - ln Gamma(n).
    """
    _require_positive_total(data)
    value = (
        gammaln(float(data.total + data.n))
        - data.total * math.log(data.n)
        - data.log_factorial_sum
        - gammaln(float(data.n))
    )
    return LogBayesFactor(
        log_bf=value,
        numerator_model="poisson",
        denominator_model="geometric",
    )


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
    return LogBayesFactor(
        log_bf=value,
        numerator_model="poisson",
        denominator_model="geometric",
        method="printed_formula",
    )


def posterior_prob_from_log_bf(log_bf: float) -> float:
    """B/(1+B) with equal prior weights, computed stably from log B."""
    return float(expit(log_bf))


# ----------------------------------------------------------------------
# quadrature oracle


def _bracket_support(log_f, center: float, scale: float, drop: float, max_steps: int = 200):
    """Expand left/right from `center` until log_f falls `drop` below its max."""
    g0 = log_f(center)
    lo = hi = center
    step = scale
    for _ in range(max_steps):
        if log_f(lo - step) < g0 - drop:
            lo -= step
            break
        lo -= step
        step *= 2.0
    else:
        raise AccuracyError("bracketing failed on the left tail")
    step = scale
    for _ in range(max_steps):
        if log_f(hi + step) < g0 - drop:
            hi += step
            break
        hi += step
        step *= 2.0
    else:
        raise AccuracyError("bracketing failed on the right tail")
    return lo, hi


def _panel_nodes(lo: float, hi: float, panels: int, nodes: int):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return u, wts


def _log_integral(log_f, lo: float, hi: float, panels: int, nodes: int) -> float:
    u, wts = _panel_nodes(lo, hi, panels, nodes)
    return logsumexp(log_f(u), b=wts)


def _count_log_integrand(data: CountDataset, family: str):
    """Log-integrand on u = ln(lambda); the 1/lambda prior is flat in u."""
    total = float(data.total)
    n = float(data.n)
    const = data.log_factorial_sum
    if family == "poisson":
        return lambda u: total * np.asarray(u) - n * np.exp(np.asarray(u)) - const
    # geometric: lambda^S (1+lambda)^-(S+n); log1p(e^u) via softplus
    return lambda u: total * np.asarray(u) - (total + n) * np.logaddexp(0.0, np.asarray(u))


def _count_bracket(data: CountDataset, family: str, drop: float = _BRACKET_DROP):
    """(log-integrand, lo, hi, Laplace sd) on u = ln(lambda) for one family."""
    log_f = _count_log_integrand(data, family)
    mode = math.log(data.total / data.n)
    if family == "poisson":
        sd = 1.0 / math.sqrt(data.total)
    else:
        sd = math.sqrt((data.total + data.n) / (data.total * data.n))
    lo, hi = _bracket_support(log_f, mode, sd, drop)
    return log_f, lo, hi, sd


def _panel_count(lo: float, hi: float, sd: float, grid: QuadratureConfig) -> int:
    """Panels of about _PANEL_WIDTH_SDS sds on [lo, hi]: at least 8, at most grid.max_panels."""
    return min(grid.max_panels, max(8, math.ceil((hi - lo) / (_PANEL_WIDTH_SDS * sd))))


def log_marginal_quadrature(
    data: CountDataset,
    family: str,
    grid: QuadratureConfig = QuadratureConfig(),
) -> LogEvidence:
    """Numerical marginal likelihood for a count family, independent of the
    closed forms.

    Integrates against the 1/lambda prior on u = ln(lambda) with composite
    Gauss-Legendre panels over an automatically bracketed support.  The
    error estimate is the change under a refined rule; exceeding 1e-8
    raises AccuracyError with the estimate attached.
    """
    if family not in _COUNT_FAMILIES:
        raise ValueError(f"family must be one of {_COUNT_FAMILIES}")
    _require_positive_total(data)
    log_f, lo, hi, sd = _count_bracket(data, family)
    panels = _panel_count(lo, hi, sd, grid)
    coarse = _log_integral(log_f, lo, hi, panels, grid.nodes_per_panel)
    fine = _log_integral(log_f, lo, hi, panels, grid.nodes_per_panel + 8)
    err = abs(fine - coarse)
    if not math.isfinite(fine) or err > _REFINEMENT_TOL:
        raise AccuracyError(
            f"quadrature did not converge (refinement moved by {err:.3e})",
            estimate=fine,
        )
    return LogEvidence(fine, model=family, method="quadrature", error_estimate=err)


def log_bf10_normal_quadrature(summary: NormalSummary) -> LogBayesFactor:
    """Quadrature route to log_bf10_normal: integrate the standardized mean
    likelihood against the unit normal prior, then divide by the null."""
    grid = QuadratureConfig()
    n = summary.n
    z = (summary.xbar - summary.theta0) / summary.sigma
    samp_sd = 1.0 / math.sqrt(n)

    def log_f(mu):
        mu = np.asarray(mu, dtype=float)
        return log_normal_pdf(z, mu, samp_sd) + log_normal_pdf(mu, 0.0, 1.0)

    post_mean = n * z / (n + 1.0)
    post_sd = 1.0 / math.sqrt(n + 1.0)
    half_width = (math.sqrt(2.0 * _BRACKET_DROP) + 2.0) * post_sd
    lo, hi = post_mean - half_width, post_mean + half_width
    panels = _panel_count(lo, hi, post_sd, grid)
    log_m1 = _log_integral(log_f, lo, hi, panels, grid.nodes_per_panel)
    log_m0 = log_normal_pdf(z, 0.0, samp_sd)
    return LogBayesFactor(
        log_bf=log_m1 - log_m0,
        numerator_model="normal_unit_prior",
        denominator_model="normal_point_null",
        method="quadrature",
    )
