"""Posterior inference for the two-component shared-mean count mixture.

The model puts weight alpha on Poisson(lambda) and 1-alpha on the
mean-parameterised geometric, with a Beta(a0, a0) prior on alpha and the
improper 1/lambda prior on the shared mean.  Component roles are fixed
(1 = Poisson, 2 = geometric), so no label-switching handling exists or
is needed.

Three independent routes to the same posterior:

* `run_gibbs` - latent-allocation Gibbs with a random-walk Metropolis
  step on ln(lambda); `run_gibbs_chains` runs many such chains in
  lockstep,
* `run_marginal_mh` - random-walk Metropolis on (logit alpha, ln lambda)
  against the allocation-marginalized posterior,
* `grid_posterior_alpha` - 2-D tensor-grid quadrature (Gauss-Jacobi in
  alpha, Gauss-Legendre in ln lambda), used as the oracle for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit, roots_jacobi

from .distributions import CountDataset, _component_log_pmfs
from .errors import AccuracyError, DegeneracyError
from .evidence import _BRACKET_DROP, _REFINEMENT_TOL, QuadratureConfig, _count_bracket, _panel_count, _panel_nodes
from .rng import Rng, RngSeed
from .special import log_factorial

_ACCEPTANCE_HEALTHY = (0.05, 0.95)
# step-size adaptation targets: the 1-D lambda step and the 2-D joint step
_TARGET_ACCEPTANCE_GIBBS = 0.44
_TARGET_ACCEPTANCE_MARGINAL = 0.35
_ALPHA_NODES = 96  # mixture-weight axis of the 2-D grid
_LOG_2 = math.log(2.0)


# ----------------------------------------------------------------------
# configuration and state types


@dataclass(frozen=True)
class MixtureSpec:
    """Fixed-role (1 = Poisson, 2 = geometric) two-component mixture with
    one shared mean parameter and a Beta(a0, a0) prior on the weight."""

    a0: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.a0) and self.a0 > 0.0):
            raise ValueError("a0 must be positive and finite")


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 10_000
    burn_in: int = 2_000
    initial_step: float = 0.5

    def __post_init__(self):
        if self.iterations <= self.burn_in:
            raise ValueError("iterations must exceed burn_in")
        if self.burn_in < 0 or self.initial_step <= 0.0:
            raise ValueError("burn_in must be >= 0 and initial_step positive")


@dataclass(frozen=True)
class MixtureChain:
    """Post-burn-in draws of (alpha, lambda) plus sampler diagnostics."""

    alpha_draws: np.ndarray
    lambda_draws: np.ndarray
    iterations: int
    burn_in: int
    mh_acceptance_rate: float
    seed: RngSeed
    kernel: str = "gibbs"
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        kept = self.iterations - self.burn_in
        if self.alpha_draws.shape[0] != kept or self.lambda_draws.shape[0] != kept:
            raise ValueError("chain length must equal iterations - burn_in")


@dataclass(frozen=True)
class SummaryTable:
    """Location summaries of a chain, for the weight and the shared mean."""

    alpha_mean: float
    alpha_median: float
    alpha_quantiles: dict[float, float]
    lambda_mean: float
    lambda_median: float
    mh_acceptance_rate: float


@dataclass(frozen=True)
class DiscretizedPosterior:
    """Marginal posterior of the mixture weight on a quadrature grid."""

    alpha_grid: np.ndarray
    density: np.ndarray
    node_mass: np.ndarray
    mean: float
    median: float
    normalization_error: float


# ----------------------------------------------------------------------
# conditionals
#
# Each public conditional validates its arguments and calls a private core;
# the Gibbs sweep calls the cores on the sufficient statistics (n1, n2, s1, s2).


def conditional_alpha(n1: int, n2: int, a0: float) -> tuple[float, float]:
    """Conjugate update of the weight: Beta(a0 + n1, a0 + n2) shapes."""
    if a0 <= 0.0:
        raise ValueError("a0 must be positive")
    return a0 + n1, a0 + n2


def _allocation_probability(values, lfact, logit_alpha, u):
    lf1, lf2 = _component_log_pmfs(values, lfact, u)
    return expit(logit_alpha + (lf1 - lf2))


def allocation_probability(x, alpha: float, lam: float):
    """P(component 1 | x, alpha, lambda), from log pmfs for stability."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    xa = np.asarray(x, dtype=np.int64)
    out = _allocation_probability(
        xa, log_factorial(xa), math.log(alpha) - math.log1p(-alpha), math.log(lam)
    )
    return float(out) if np.ndim(out) == 0 else out


def _log_u_conditional(u: float, n1: int, n2: int, s1: int, s2: int) -> float:
    # density of u = ln(lambda): lambda^(s1+s2) e^(-n1 lambda) (1+lambda)^-(s2+n2)
    if u > 690.0:
        return -math.inf
    # ln(1 + e^u) by the same operations as np.logaddexp(0.0, u)
    if u > 0.0:
        softplus = u + math.log1p(math.exp(-u))
    elif u < 0.0:
        softplus = math.log1p(math.exp(u))
    else:
        softplus = _LOG_2
    return (s1 + s2) * u - n1 * math.exp(u) - (s2 + n2) * softplus


def log_lambda_conditional(lam: float, n1: int, n2: int, s1: int, s2: int) -> float:
    """Unnormalized log density of lambda given the allocation counts.

    (s1+s2-1) ln(lambda) - n1 lambda - (s2+n2) ln(1+lambda); improper
    when s1+s2 = 0 and n1 = 0 (exponent of lambda is -1 at the origin).
    """
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if s1 + s2 == 0 and n1 == 0:
        raise DegeneracyError(
            "all-zero allocation to the geometric component leaves an "
            "improper lambda conditional under the 1/lambda prior"
        )
    u = math.log(lam)
    return _log_u_conditional(u, n1, n2, s1, s2) - u


def _require_nondegenerate(data: CountDataset) -> None:
    if data.total < 1:
        raise DegeneracyError(
            "all-zero dataset: the 1/lambda prior gives an improper posterior"
        )


# ----------------------------------------------------------------------
# the shared random-walk loop


def _random_walk_chains(rngs, xs, sweep, params, config, target_acceptance, seeds, kernel, step_name):
    """Adapted random-walk Metropolis loop over K chains in lockstep,
    shared by both samplers.

    `sweep(xs, steps)` runs one iteration of every chain up to the accept
    decision and returns per-chain lists of (next point if rejected, next
    point if accepted, log ratio); `params(x)` maps one chain's point to
    the recorded (alpha, lambda).  Each chain draws its accept uniform
    from its own stream, and its step scale is Robbins-Monro adapted
    toward the target acceptance during burn-in only.
    """
    chains = range(len(rngs))
    kept = config.iterations - config.burn_in
    alphas = np.empty((len(rngs), kept))
    lambdas = np.empty((len(rngs), kept))
    log_steps = [math.log(config.initial_step)] * len(rngs)
    accepted = [0] * len(rngs)
    for it in range(config.iterations):
        stays, moves, log_ratios = sweep(xs, [math.exp(s) for s in log_steps])
        burning = it < config.burn_in
        if burning:
            gamma = (it + 1.0) ** -0.6
        for c in chains:
            log_ratio = log_ratios[c]
            accept_prob = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
            moved = rngs[c].uniform() < accept_prob
            xs[c] = moves[c] if moved else stays[c]
            if burning:
                log_steps[c] += gamma * (accept_prob - target_acceptance)
            else:
                accepted[c] += moved
                alphas[c, it - config.burn_in], lambdas[c, it - config.burn_in] = params(xs[c])

    out = []
    for c in chains:
        rate = accepted[c] / kept
        warnings = ()
        if not _ACCEPTANCE_HEALTHY[0] <= rate <= _ACCEPTANCE_HEALTHY[1]:
            warnings = (
                f"{step_name} acceptance {rate:.3f} outside "
                f"[{_ACCEPTANCE_HEALTHY[0]}, {_ACCEPTANCE_HEALTHY[1]}] after adaptation",
            )
        out.append(
            MixtureChain(
                alpha_draws=alphas[c],
                lambda_draws=lambdas[c],
                iterations=config.iterations,
                burn_in=config.burn_in,
                mh_acceptance_rate=rate,
                seed=seeds[c],
                kernel=kernel,
                warnings=warnings,
            )
        )
    return out


# ----------------------------------------------------------------------
# Gibbs with latent allocations


def run_gibbs_chains(cells, config: McmcConfig = McmcConfig()) -> list[MixtureChain]:
    """One latent-allocation Gibbs chain per (data, spec, seed) cell, run in lockstep.

    Each chain draws from its own `Rng(seed)` in the order a chain run
    alone would, so every chain equals `run_gibbs` on its cell; the
    allocation step of all chains is one set of array operations over
    the (chain, distinct value) pairs, gathered back to the observations.
    """
    cells = list(cells)
    if not cells:
        return []
    for data, _, _ in cells:
        _require_nondegenerate(data)
    rngs = [Rng(seed) for _, _, seed in cells]
    sizes = [data.n for data, _, _ in cells]
    totals = [data.total for data, _, _ in cells]
    a0s = [spec.a0 for _, spec, _ in cells]
    distinct, inverse = zip(*(np.unique(data.values, return_inverse=True) for data, _, _ in cells))
    counts = [d.size for d in distinct]
    starts = np.cumsum([0] + counts[:-1])
    gather = np.concatenate([i + s for i, s in zip(inverse, starts)])
    obs_starts = np.cumsum([0] + sizes[:-1])
    value_chain = np.repeat(np.arange(len(cells)), counts)
    values = np.concatenate(distinct)
    lfact = log_factorial(values)
    values = values.astype(np.float64)
    obs_values = values[gather]

    def sweep(xs, steps):
        u = np.concatenate([rng.uniform(n) for rng, n in zip(rngs, sizes)])
        logits = np.array([math.log(a) - math.log1p(-a) for a, _ in xs])[value_chain]
        vs = np.array([v for _, v in xs])[value_chain]
        in1 = u < _allocation_probability(values, lfact, logits, vs)[gather]
        # integer-valued sums over each chain's observations, so exact
        n1s = np.add.reduceat(in1, obs_starts).tolist()
        s1s = np.add.reduceat(obs_values * in1, obs_starts).tolist()
        stays, moves, log_ratios = [], [], []
        for rng, (_, v), step, n, total, a0, n1, s1 in zip(rngs, xs, steps, sizes, totals, a0s, n1s, s1s):
            s1 = int(s1)
            stats = (n1, n - n1, s1, total - s1)
            alpha = float(rng.beta(*conditional_alpha(n1, n - n1, a0)))
            alpha = min(max(alpha, 1e-300), 1.0 - 1e-16)
            v_prop = v + rng.normal(0.0, step)
            stays.append((alpha, v))
            moves.append((alpha, v_prop))
            log_ratios.append(_log_u_conditional(v_prop, *stats) - _log_u_conditional(v, *stats))
        return stays, moves, log_ratios

    xs = [
        (min(max(float(rng.beta(a0, a0)), 1e-12), 1.0 - 1e-12), math.log(data.mean))
        for rng, a0, (data, _, _) in zip(rngs, a0s, cells)
    ]
    return _random_walk_chains(
        rngs, xs, sweep, lambda x: (x[0], math.exp(x[1])), config,
        _TARGET_ACCEPTANCE_GIBBS, [seed for _, _, seed in cells], "gibbs", "lambda-step",
    )


def run_gibbs(
    data: CountDataset,
    spec: MixtureSpec,
    config: McmcConfig = McmcConfig(),
    seed: RngSeed = RngSeed(0),
) -> MixtureChain:
    """Latent-allocation Gibbs sweep: {z | alpha, lambda} -> {alpha | z} -> {lambda | z}.

    The lambda step is a Gaussian random walk on ln(lambda).
    Deterministic given (data, spec, config, seed).
    """
    return run_gibbs_chains([(data, spec, seed)], config)[0]


# ----------------------------------------------------------------------
# marginalized random-walk Metropolis


def _marginal_loglik(values, lfact, counts, log_alpha: float, log_1m_alpha: float, v: float) -> float:
    """sum_i ln(alpha f1(x_i) + (1-alpha) f2(x_i)) at lambda = e^v, over
    the distinct values of x weighted by their counts."""
    lf1, lf2 = _component_log_pmfs(values, lfact, v)
    return float(np.logaddexp(log_alpha + lf1, log_1m_alpha + lf2) @ counts)


def run_marginal_mh(
    data: CountDataset,
    spec: MixtureSpec,
    config: McmcConfig = McmcConfig(),
    seed: RngSeed = RngSeed(0),
) -> MixtureChain:
    """Random-walk Metropolis on (logit alpha, ln lambda) against the
    allocation-marginalized posterior; validation kernel for run_gibbs.
    Starts at the prior mean of the weight and at lambda = the data mean."""
    _require_nondegenerate(data)
    rng = Rng(seed)
    distinct, counts = np.unique(data.values, return_counts=True)
    lfact = log_factorial(distinct)
    values, counts = distinct.astype(np.float64), counts.astype(np.float64)
    a0 = spec.a0

    def log_target(s: float, v: float) -> float:
        if v > 690.0:
            return -math.inf
        log_alpha = float(log_expit(s))
        log_1m_alpha = float(log_expit(-s))
        loglik = _marginal_loglik(values, lfact, counts, log_alpha, log_1m_alpha, v)
        # Beta(a0,a0) prior plus logit Jacobian leaves alpha^a0 (1-alpha)^a0;
        # the 1/lambda prior is flat in ln(lambda).
        return loglik + a0 * (log_alpha + log_1m_alpha)

    def sweep(xs, steps):
        (x,), (step,) = xs, steps
        s, v, cur = x
        s_prop = s + rng.normal(0.0, step)
        v_prop = v + rng.normal(0.0, step)
        prop = log_target(s_prop, v_prop)
        return [x], [(s_prop, v_prop, prop)], [prop - cur]

    v = math.log(data.mean)
    return _random_walk_chains(
        [rng], [(0.0, v, log_target(0.0, v))], sweep, lambda x: (expit(x[0]), math.exp(x[1])),
        config, _TARGET_ACCEPTANCE_MARGINAL, [seed], "marginal_mh", "joint-step",
    )[0]


# ----------------------------------------------------------------------
# 2-D grid oracle


def _alpha_nodes(a0: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Jacobi absorbs the Beta(a0,a0) kernel, so a0 < 1 endpoint
    # singularities cost nothing; constants cancel in normalization.
    x, w = roots_jacobi(k, a0 - 1.0, a0 - 1.0)
    return (x + 1.0) / 2.0, w


def grid_posterior_alpha(
    data: CountDataset,
    spec: MixtureSpec,
    grid: QuadratureConfig = QuadratureConfig(),
) -> DiscretizedPosterior:
    """Marginal posterior of the mixture weight by tensor-grid quadrature.

    Gauss-Jacobi nodes on the weight axis (prior absorbed into the rule),
    composite Gauss-Legendre on u = ln(lambda) over a bracketed support.
    A refined grid that moves the log normalizer or the mean by more than
    1e-8 raises AccuracyError with the mean attached.
    """
    _require_nondegenerate(data)

    def evaluate(n_alpha: int, nodes_per_panel: int, drop: float):
        a_nodes, a_wts = _alpha_nodes(spec.a0, n_alpha)
        lo, hi, panels = _mixture_u_bracket(data, grid, drop)
        u, u_wts = _panel_nodes(lo, hi, panels, nodes_per_panel)
        # log-likelihood matrix over (alpha node, u node)
        loglik = _mixture_loglik_grid(data, a_nodes, u)
        shift = loglik.max()
        integ_u = (np.exp(loglik - shift) * u_wts[None, :]).sum(axis=1)
        raw_mass = a_wts * integ_u
        z = raw_mass.sum()
        mass = raw_mass / z
        return a_nodes, a_wts, mass, shift + math.log(z), float(np.sum(mass * a_nodes))

    a_nodes, a_wts, mass, log_z, mean = evaluate(
        _ALPHA_NODES, grid.nodes_per_panel, _BRACKET_DROP
    )
    # refinement pass doubles the weight axis, adds nodes, and widens the
    # bracket, so truncation errors show up as well as rule errors
    _, _, _, log_z_ref, mean_ref = evaluate(
        _ALPHA_NODES * 2, grid.nodes_per_panel + 8, _BRACKET_DROP + 20.0
    )
    err = max(abs(log_z - log_z_ref), abs(mean - mean_ref))
    if err > _REFINEMENT_TOL:
        raise AccuracyError(
            f"grid refinement moved the posterior by {err:.3e}", estimate=mean
        )

    # true posterior density at the nodes: mass_j = density_j w_j 2^(1-2a0) / kernel_j
    log_kernel = (spec.a0 - 1.0) * (np.log(a_nodes) + np.log1p(-a_nodes))
    density = mass * np.exp(log_kernel + (2.0 * spec.a0 - 1.0) * math.log(2.0)) / a_wts

    cum = np.cumsum(mass)
    mid = cum - 0.5 * mass
    median = float(np.interp(0.5, mid, a_nodes))
    return DiscretizedPosterior(
        alpha_grid=a_nodes,
        density=density,
        node_mass=mass,
        mean=mean,
        median=median,
        normalization_error=err,
    )


def _mixture_u_bracket(data: CountDataset, grid: QuadratureConfig, drop: float):
    """Support and panel count of the u = ln(lambda) axis, wide enough for any alpha.

    Takes the union of the pure-Poisson and pure-geometric brackets (both
    profiles peak at ln(total/n); every mixture profile sits between them
    up to per-observation weighting).
    """
    _, lo_p, hi_p, sd_p = _count_bracket(data, "poisson", drop)
    _, lo_g, hi_g, sd_g = _count_bracket(data, "geometric", drop)
    lo, hi = min(lo_p, lo_g), max(hi_p, hi_g)
    return lo, hi, _panel_count(lo, hi, max(sd_p, sd_g), grid)


def _mixture_loglik_grid(data: CountDataset, alpha: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_i ln(alpha f1 + (1-alpha) f2) on the (alpha, u) tensor grid.

    Observations are grouped by distinct value, and each value's term is
    added to the (alpha, u) matrix in turn, through two reused buffers.
    """
    distinct, counts = np.unique(data.values, return_counts=True)
    lf1, lf2 = _component_log_pmfs(
        distinct.astype(np.float64)[:, None], log_factorial(distinct)[:, None], u[None, :]
    )
    la = np.log(alpha)[:, None]
    l1a = np.log1p(-alpha)[:, None]
    out = np.zeros((alpha.size, u.size))
    t1, t2 = np.empty_like(out), np.empty_like(out)
    for count, f1, f2 in zip(counts.astype(np.float64), lf1, lf2):
        np.add(la, f1, out=t1)
        np.add(l1a, f2, out=t2)
        np.logaddexp(t1, t2, out=t1)
        t1 *= count
        out += t1
    return out


# ----------------------------------------------------------------------
# summaries


def posterior_summary(chain: MixtureChain, quantiles=(0.1, 0.25, 0.5, 0.75, 0.9)) -> SummaryTable:
    """Means, medians, and requested quantiles of the chain."""
    if chain.alpha_draws.size == 0:
        raise ValueError("chain is empty")
    qs = tuple(float(q) for q in quantiles)
    if any(not 0.0 <= q <= 1.0 for q in qs):
        raise ValueError("quantiles must lie in [0, 1]")
    a = chain.alpha_draws
    l = chain.lambda_draws
    return SummaryTable(
        alpha_mean=float(a.mean()),
        alpha_median=float(np.median(a)),
        alpha_quantiles={q: float(np.quantile(a, q)) for q in qs},
        lambda_mean=float(l.mean()),
        lambda_median=float(np.median(l)),
        mh_acceptance_rate=chain.mh_acceptance_rate,
    )
