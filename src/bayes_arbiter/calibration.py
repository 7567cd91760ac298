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
from scipy.special import fdtri, gammaincinv, ndtri

from .distributions import (
    COUNT_FAMILIES, CountDataset, count_totals, log_factorial_sums, require_family, require_positive_total,
)
from .errors import DegeneracyError, ImproperEvidenceError, require_simulable, require_storable
from .evidence import NormalSummary, _log_bf01, _log_bf12, log_bf01_lindley, log_bf12_shared_improper
from .mixture import McmcConfig, MixtureSpec, run_gibbs_chains
from .rng import Rng, RngSeed

_TIE_RTOL = 1e-12
_MAX_ATTEMPTS = 1000  # all-zero draws of one dataset before it counts as degenerate
_BLOCK_VALUES = 1 << 15  # replicate values drawn at once: memory stays flat in n_rep
_MAX_POSTERIOR_DRAWS = 10**7  # 80 MB


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
# replicates, a block of parameters and datasets at a time


def lambda_posterior_draws(data: CountDataset, family: str, size: int, rng: Rng) -> np.ndarray:
    """At most 10^7 draws of lambda | x under the 1/lambda prior, each the
    inverse cdf at one uniform of `rng`: Gamma(S, rate n) under Poisson
    sampling, BetaPrime(S, n) = (S/n) F(2S, 2n) under geometric sampling
    (B/(1-B) with B ~ Beta(S, n) rounds B to 1 at large S)."""
    require_family(family)
    if size > _MAX_POSTERIOR_DRAWS:
        raise ValueError(f"at most {_MAX_POSTERIOR_DRAWS} posterior draws, got {size}")
    require_positive_total(data)
    s = float(data.total)
    u = rng.uniform(size)
    if family == "poisson":
        return gammaincinv(s, u) / data.n
    return s / data.n * fdtri(2.0 * s, 2.0 * data.n, u)


def _normal_statistics(observed: NormalSummary, mode: str, model: int, k: int, params: Rng, reps: Rng):
    """log BF01 of k replicate standardized means under model 0 (theta = 0)
    or model 1 (theta ~ N(0, 1), or its posterior given the observed z)."""
    n = observed.n
    if model == 0:
        theta = 0.0
    elif mode == "prior":
        theta = ndtri(params.uniform(k))
    else:  # theta | z ~ N(n z / (n+1), 1/(n+1))
        z = (observed.xbar - observed.theta0) / observed.sigma
        theta = n * z / (n + 1.0) + ndtri(params.uniform(k)) / math.sqrt(n + 1.0)
    # a replicate's t statistic is |sqrt(n) zbar|, with sqrt(n) zbar ~ N(sqrt(n) theta, 1)
    return _log_bf01(n, np.abs(math.sqrt(n) * theta + ndtri(reps.uniform(k))))


def _count_statistics(observed: CountDataset, mode: str, model: int, k: int, params: Rng, reps: Rng):
    """log BF12 of the replicates that are not all zero, among k datasets
    drawn from the Poisson (model 0) or geometric (model 1) posterior predictive."""
    family = COUNT_FAMILIES[model]  # model 0 and model 1 of the count tails
    rows = reps.counts(family, lambda_posterior_draws(observed, family, k, params), observed.n)
    totals = count_totals(rows)
    valid = totals > 0  # an all-zero dataset has no Bayes factor under the 1/lambda prior
    return _log_bf12(totals[valid], observed.n, log_factorial_sums(rows)[valid])


# ----------------------------------------------------------------------
# predictive tails of the Bayes factor


def _at_least(s, s_obs):
    """s >= s_obs elementwise, counting s within _TIE_RTOL * max(1, |s_obs|) as a tie."""
    return s >= s_obs - _TIE_RTOL * np.maximum(1.0, np.abs(s_obs))


def predictive_bf_tails(
    observed: NormalSummary | CountDataset,
    mode: str,
    n_rep: int,
    seed: RngSeed = RngSeed(0),
) -> CalibrationReport:
    """Monte Carlo tail probabilities of the observed Bayes factor under both predictives.

    p0 = P_model0(statistic(X_rep) >= statistic(observed)),
    p1 = P_model1(statistic(X_rep) <= statistic(observed)),
    parameters drawn from each model's prior (mode='prior') or from its
    posterior given `observed` (mode='posterior'); ties count.

    * NormalSummary: the statistic is log BF01 of the standardized mean
      z = (xbar - theta0) / sigma; model 0 is the point null and model 1
      the unit-prior alternative.
    * CountDataset: the statistic is log BF12; model 0 is Poisson and
      model 1 geometric, under the shared 1/lambda prior.  That prior is
      improper, so mode='prior' raises ImproperEvidenceError, and an
      all-zero replicate, whose statistic is undefined, is redrawn and
      counted.

    Tail j draws its parameters from seed.child(j, 0) and its replicates
    from seed.child(j, 1), a bounded block at a time.
    """
    if mode not in ("prior", "posterior"):
        raise ValueError("mode must be 'prior' or 'posterior'")
    if n_rep < 100:
        raise ValueError("n_rep must be at least 100")
    if isinstance(observed, NormalSummary):
        s_obs = log_bf01_lindley(observed.n, observed.t_statistic).log_bf
        statistics, block = _normal_statistics, _BLOCK_VALUES
    elif isinstance(observed, CountDataset):
        s_obs = log_bf12_shared_improper(observed).log_bf
        if mode == "prior":
            raise ImproperEvidenceError(
                "the 1/lambda prior is improper: no prior predictive exists; "
                "use mode='posterior'"
            )
        statistics, block = _count_statistics, max(1, _BLOCK_VALUES // observed.n)
    else:
        raise TypeError("observed must be a NormalSummary or a CountDataset")

    def tail(model: int, sign: float) -> tuple[float, int]:
        params, reps = Rng(seed.child(model, 0)), Rng(seed.child(model, 1))
        hits = kept = degenerate = 0
        while kept < n_rep:
            # at most the replicates still needed: a block then ends at
            # the last one needed, as a one-at-a-time pass would
            k = min(block, n_rep - kept)
            s = statistics(observed, mode, model, k, params, reps)
            degenerate += k - s.size
            if degenerate > 100 * n_rep:
                raise DegeneracyError(f"more than {100 * n_rep} degenerate replicates redrawn")
            kept += s.size
            hits += int(np.count_nonzero(_at_least(sign * s, sign * s_obs)))
        return hits / n_rep, degenerate

    (p0, deg0), (p1, deg1) = tail(0, 1.0), tail(1, -1.0)
    return CalibrationReport(p0, p1, n_rep, mode, n_degenerate_p0=deg0, n_degenerate_p1=deg1)


# ----------------------------------------------------------------------
# posterior predictive p-values


def nonzero_counts(family: str, mean: float, n: int, seed: RngSeed, *path: int) -> tuple[CountDataset, int]:
    """n counts from `family` at `mean`, redrawn until the total is positive.

    Attempt k draws from the fresh stream seed.child(*path, k); returns
    the dataset and the number of all-zero sets redrawn.  If all
    _MAX_ATTEMPTS attempts are all-zero, raises DegeneracyError.
    """
    require_simulable((n,))
    for attempt in range(_MAX_ATTEMPTS):
        values = Rng(seed.child(*path, attempt)).counts(family, [mean], n)[0]
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
    draw uniformly (stream seed.child(0)), then samples a dataset of the
    observed size from the family at that draw (stream seed.child(1)).
    Replicates come a bounded block at a time: `discrepancy(values, params)`
    maps a (k, n) matrix of datasets and their k parameters to k values.
    A NaN discrepancy raises ValueError.
    """
    if n_rep < 1:
        raise ValueError("n_rep must be at least 1")
    require_family(family)
    draws = np.asarray(posterior_draws, dtype=float)
    if draws.size == 0:
        raise ValueError("posterior_draws must be non-empty")
    obs_values = observed.values if isinstance(observed, CountDataset) else np.asarray(observed)
    n = obs_values.size
    if n == 0:
        raise ValueError("observed data must be non-empty")
    picks, reps = Rng(seed.child(0)), Rng(seed.child(1))
    block = max(1, _BLOCK_VALUES // n)
    hits = 0
    for done in range(0, n_rep, block):
        k = min(block, n_rep - done)
        lams = draws[np.minimum((picks.uniform(k) * draws.size).astype(np.int64), draws.size - 1)]
        t_rep, t_obs = (
            np.broadcast_to(np.asarray(discrepancy(values, lams), dtype=float), (k,))
            for values in (reps.counts(family, lams, n), np.broadcast_to(obs_values, (k, n)))
        )
        nan = np.isnan(t_rep) | np.isnan(t_obs)
        if nan.any():
            raise ValueError(f"discrepancy is NaN at parameter {lams[nan.argmax()]:.6g}")
        hits += int(np.count_nonzero(_at_least(t_rep, t_obs)))
    return hits / n_rep


# shipped discrepancy measures, each reducing the last axis; user callables
# with the same (values, parameters) signature are accepted anywhere these are


def discrepancy_mean(values, param):
    return np.mean(values, axis=-1)


def discrepancy_variance(values, param):
    return np.var(values, axis=-1)


def discrepancy_max(values, param):
    return np.max(values, axis=-1)


def discrepancy_zero_count(values, param):
    return np.count_nonzero(np.asarray(values) == 0, axis=-1)


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
    require_family(generator)
    if summary not in ("mean", "median"):
        raise ValueError("summary must be 'mean' or 'median'")
    if not (math.isfinite(lambda_true) and lambda_true > 0.0):
        raise ValueError("lambda_true must be positive and finite")
    if replicas < 20:
        raise ValueError("need at least 20 replicas for a usable quantile")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    require_storable("the replicas' chain traces", replicas, mcmc.iterations - mcmc.burn_in)
    require_simulable((n_obs,), replicas)

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
