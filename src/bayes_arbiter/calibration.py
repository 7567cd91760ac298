"""Predictive distributions of decision statistics.

Tail probabilities of a Bayes factor under each model's predictive
(prior or posterior mode), posterior predictive p-values for a chosen
discrepancy, and parametric-bootstrap calibration of the mixture-weight
summary.  Ties always count toward the extreme tail, which is the
conservative convention and the only sensible one for discrete data;
a statistic within 1e-12 * max(1, |observed|) of the observed one is a tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import CountDataset
from .errors import DegeneracyError, ImproperEvidenceError
from .evidence import NormalSummary
from .mixture import McmcConfig, MixtureSpec, run_gibbs_chains
from .rng import Rng, RngSeed

_TIE_RTOL = 1e-12
_MAX_ATTEMPTS = 1000  # all-zero draws of one dataset before it counts as degenerate


@dataclass(frozen=True)
class CalibrationReport:
    """Two predictive tail probabilities for one observed statistic.

    p0 is the model-0 predictive probability of a statistic at least as
    large as observed; p1 the model-1 probability of one at most as large.
    Replicates on which the statistic is undefined (degenerate datasets
    under an improper prior) are redrawn and counted, so each tail rests
    on exactly n_rep valid replicates.
    """

    p0: float
    p1: float
    n_rep: int
    mode: str
    n_degenerate_p0: int = 0
    n_degenerate_p1: int = 0

    @property
    def mc_se_p0(self) -> float:
        return math.sqrt(self.p0 * (1.0 - self.p0) / self.n_rep)

    @property
    def mc_se_p1(self) -> float:
        return math.sqrt(self.p1 * (1.0 - self.p1) / self.n_rep)


# ----------------------------------------------------------------------
# model adapters: draw a parameter (prior or posterior), then a replicate
# dataset of the observed size


class NormalPointNullModel:
    """Known-mean model in standardized coordinates: theta pinned at 0,
    replicates are xbar ~ N(0, 1/n)."""

    def __init__(self, n: int):
        self.n = n

    def draw_param_prior(self, rng: Rng) -> float:
        return 0.0

    def draw_param_posterior(self, observed: NormalSummary, rng: Rng) -> float:
        return 0.0

    def replicate(self, theta: float, rng: Rng) -> NormalSummary:
        return NormalSummary(self.n, rng.normal(theta, 1.0 / math.sqrt(self.n)))


class NormalUnitPriorModel:
    """Free-mean model with the conjugate N(0, 1) prior, replicates
    xbar ~ N(theta, 1/n)."""

    def __init__(self, n: int):
        self.n = n

    def draw_param_prior(self, rng: Rng) -> float:
        return rng.normal(0.0, 1.0)

    def draw_param_posterior(self, observed: NormalSummary, rng: Rng) -> float:
        n = self.n
        return rng.normal(n * observed.xbar / (n + 1.0), 1.0 / math.sqrt(n + 1.0))

    def replicate(self, theta: float, rng: Rng) -> NormalSummary:
        return NormalSummary(self.n, rng.normal(theta, 1.0 / math.sqrt(self.n)))


class PoissonImproperMeanModel:
    """Poisson sampling with the improper 1/lambda prior on the mean."""

    def __init__(self, n: int):
        self.n = n

    def draw_param_prior(self, rng: Rng) -> float:
        raise ImproperEvidenceError(
            "the 1/lambda prior is improper: no prior predictive exists; "
            "use mode='posterior'"
        )

    def draw_param_posterior(self, observed: CountDataset, rng: Rng) -> float:
        if observed.total < 1:
            raise DegeneracyError("posterior is improper for an all-zero dataset")
        # lambda | x ~ Gamma(S, rate n)
        return rng.gamma(float(observed.total)) / observed.n

    def replicate(self, lam: float, rng: Rng) -> CountDataset:
        return CountDataset(rng.poisson(lam, size=self.n))


class GeometricImproperMeanModel:
    """Mean-parameterised geometric sampling with the 1/lambda prior."""

    def __init__(self, n: int):
        self.n = n

    def draw_param_prior(self, rng: Rng) -> float:
        raise ImproperEvidenceError(
            "the 1/lambda prior is improper: no prior predictive exists; "
            "use mode='posterior'"
        )

    def draw_param_posterior(self, observed: CountDataset, rng: Rng) -> float:
        if observed.total < 1:
            raise DegeneracyError("posterior is improper for an all-zero dataset")
        # 1/(1+lambda) ~ Beta(n, S), i.e. lambda = B/(1-B) with B ~ Beta(S, n)
        b = min(rng.beta(float(observed.total), float(self.n)), 1.0 - 1e-15)
        return b / (1.0 - b)

    def replicate(self, lam: float, rng: Rng) -> CountDataset:
        return CountDataset(rng.geometric_mean(lam, size=self.n))


def _draw_param(model, mode: str, observed, rng: Rng):
    if mode == "prior":
        return model.draw_param_prior(rng)
    try:
        drawer = model.draw_param_posterior
    except AttributeError:
        raise TypeError(
            f"{type(model).__name__} has no posterior sampler; attach a "
            "draw_param_posterior(observed, rng) method to use mode='posterior'"
        ) from None
    return drawer(observed, rng)


# ----------------------------------------------------------------------
# predictive tails of a decision statistic


def _at_least(s: float, s_obs: float) -> bool:
    """s >= s_obs, counting s within _TIE_RTOL * max(1, |s_obs|) as a tie."""
    return s >= s_obs - _TIE_RTOL * max(1.0, abs(s_obs))


def _tail(model, observed, statistic, s_obs: float, upper: bool, mode: str, n_rep: int, rng: Rng):
    """Share of n_rep valid replicates of `model` with statistic >= s_obs
    (upper) or <= s_obs (lower), and the number of degenerate replicates
    redrawn."""
    sign = 1.0 if upper else -1.0
    hits = kept = degenerate = 0
    while kept < n_rep:
        theta = _draw_param(model, mode, observed, rng)
        rep = model.replicate(theta, rng)
        try:
            s = float(statistic(rep))
        except DegeneracyError:
            degenerate += 1
            if degenerate > 100 * n_rep:
                raise
            continue
        kept += 1
        hits += _at_least(sign * s, sign * s_obs)
    return hits / n_rep, degenerate


def predictive_bf_tails(
    observed,
    model0,
    model1,
    statistic,
    mode: str,
    n_rep: int,
    seed: RngSeed = RngSeed(0),
) -> CalibrationReport:
    """Monte Carlo tail probabilities of `statistic` under both predictives.

    p0 = P_model0(statistic(X_rep) >= statistic(observed)),
    p1 = P_model1(statistic(X_rep) <= statistic(observed)),
    parameters drawn from each model's prior (mode='prior') or from its
    posterior given `observed` (mode='posterior'); ties count.  Any
    monotone transform of the statistic (BF or log BF) gives the same
    probabilities.
    """
    if mode not in ("prior", "posterior"):
        raise ValueError("mode must be 'prior' or 'posterior'")
    if n_rep < 100:
        raise ValueError("n_rep must be at least 100")
    s_obs = float(statistic(observed))
    p0, deg0 = _tail(model0, observed, statistic, s_obs, True, mode, n_rep, Rng(seed.child(0)))
    p1, deg1 = _tail(model1, observed, statistic, s_obs, False, mode, n_rep, Rng(seed.child(1)))
    return CalibrationReport(
        p0=p0,
        p1=p1,
        n_rep=n_rep,
        mode=mode,
        n_degenerate_p0=deg0,
        n_degenerate_p1=deg1,
    )


# ----------------------------------------------------------------------
# posterior predictive p-values


_REPLICATE_FAMILIES = ("poisson", "geometric")


def nonzero_counts(family: str, mean: float, n: int, seed: RngSeed, *path: int) -> tuple[CountDataset, int]:
    """n counts from `family` at `mean`, redrawn until the total is positive.

    Attempt k draws from the fresh stream seed.child(*path, k); returns
    the dataset and the number of all-zero sets redrawn.  If all
    _MAX_ATTEMPTS attempts are all-zero, raises DegeneracyError.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    for attempt in range(_MAX_ATTEMPTS):
        rng = Rng(seed.child(*path, attempt))
        draw = rng.poisson if family == "poisson" else rng.geometric_mean
        values = draw(mean, size=n)
        if values.sum() >= 1:
            return CountDataset(values), attempt
    raise DegeneracyError(
        f"{_MAX_ATTEMPTS} datasets of {n} {family} counts at mean {mean:.10g} were all zero"
    )


def posterior_predictive_pvalue(
    observed,
    posterior_draws,
    family: str,
    discrepancy,
    n_rep: int,
    seed: RngSeed = RngSeed(0),
) -> float:
    """P(T(X_rep, theta) >= T(x_obs, theta) | x_obs), ties counting.

    theta and X_rep are drawn jointly: each replicate picks one posterior
    draw uniformly, then samples a dataset of the observed size from the
    family at that draw.  A NaN discrepancy raises ValueError.
    """
    if n_rep < 1:
        raise ValueError("n_rep must be at least 1")
    if family not in _REPLICATE_FAMILIES:
        raise ValueError(f"family must be one of {_REPLICATE_FAMILIES}")
    draws = np.asarray(posterior_draws, dtype=float)
    if draws.size == 0:
        raise ValueError("posterior_draws must be non-empty")
    obs_values = observed.values if isinstance(observed, CountDataset) else np.asarray(observed)
    rng = Rng(seed)
    draw = rng.poisson if family == "poisson" else rng.geometric_mean
    hits = 0
    for _ in range(n_rep):
        lam = float(draws[min(int(rng.uniform() * draws.size), draws.size - 1)])
        t_rep = float(discrepancy(draw(lam, size=obs_values.size), lam))
        t_obs = float(discrepancy(obs_values, lam))
        if math.isnan(t_rep) or math.isnan(t_obs):
            raise ValueError(f"discrepancy is NaN at parameter {lam:.6g}")
        hits += _at_least(t_rep, t_obs)
    return hits / n_rep


# shipped discrepancy measures; user callables with the same (values,
# parameter) signature are accepted anywhere these are


def discrepancy_mean(values, param) -> float:
    return float(np.mean(values))


def discrepancy_variance(values, param) -> float:
    return float(np.var(values))


def discrepancy_max(values, param) -> float:
    return float(np.max(values))


def discrepancy_zero_count(values, param) -> float:
    return float(np.sum(np.asarray(values) == 0))


DISCREPANCIES = {
    "mean": discrepancy_mean,
    "variance": discrepancy_variance,
    "max": discrepancy_max,
    "zeros": discrepancy_zero_count,
}


# ----------------------------------------------------------------------
# parametric bootstrap of the mixture-weight summary


@dataclass(frozen=True)
class BootstrapCutoff:
    """Empirical quantile of a mixture-weight summary over bootstrap replicas."""

    cutoff: float
    q: float
    summary: str
    generator: str
    alpha_summaries: tuple[float, ...]
    n_resimulated: int


def bootstrap_alpha_cutoff(
    spec: MixtureSpec,
    generator: str,
    lambda_true: float,
    n_obs: int,
    replicas: int,
    mcmc: McmcConfig = McmcConfig(),
    summary: str = "median",
    q: float = 0.1,
    seed: RngSeed = RngSeed(0),
) -> BootstrapCutoff:
    """Sampling distribution of the posterior weight summary under a known
    generator, reduced to its empirical q-quantile as a decision cutoff.

    All-zero simulated datasets are redrawn (fresh stream) and counted;
    the replicas' chains then run in lockstep, one `run_gibbs_chains` call.
    """
    if generator not in _REPLICATE_FAMILIES:
        raise ValueError(f"generator must be one of {_REPLICATE_FAMILIES}")
    if summary not in ("mean", "median"):
        raise ValueError("summary must be 'mean' or 'median'")
    if not (math.isfinite(lambda_true) and lambda_true > 0.0):
        raise ValueError("lambda_true must be positive and finite")
    if replicas < 20:
        raise ValueError("need at least 20 replicas for a usable quantile")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")

    cells = []
    n_resimulated = 0
    for r in range(replicas):
        data, attempt = nonzero_counts(generator, lambda_true, n_obs, seed, 10, r)
        n_resimulated += attempt
        cells.append((data, spec, seed.child(11, r, attempt)))
    reduce = np.mean if summary == "mean" else np.median
    summaries = [float(reduce(chain.alpha_draws)) for chain in run_gibbs_chains(cells, mcmc)]

    cutoff = float(np.quantile(np.asarray(summaries), q))
    return BootstrapCutoff(
        cutoff=cutoff,
        q=q,
        summary=summary,
        generator=generator,
        alpha_summaries=tuple(summaries),
        n_resimulated=n_resimulated,
    )
