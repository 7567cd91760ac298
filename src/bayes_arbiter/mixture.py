"""Posterior inference for the two-component shared-mean count mixture.

The model puts weight alpha on Poisson(lambda) and 1-alpha on the
mean-parameterised geometric, with a Beta(a0, a0) prior on alpha and the
improper 1/lambda prior on the shared mean.  Component roles are fixed
(1 = Poisson, 2 = geometric), so no label-switching handling exists or
is needed.

Three independent routes to the same posterior:

* `run_gibbs` - latent-allocation Gibbs in which every step is an exact
  conditional draw, lambda's through an auxiliary Gamma variable;
  `run_gibbs_chains` runs many such chains in lockstep,
* `run_marginal_mh` - Metropolis on (logit alpha, ln lambda) against the
  allocation-marginalized posterior: a prior proposal for logit alpha,
  then a random-walk step on both,
* `grid_posterior_alpha` - 2-D tensor-grid quadrature (Gauss-Jacobi in
  alpha, Gauss-Legendre in ln lambda), used as the oracle for both.

Both samplers draw a fixed count of values per chain and iteration from
the chain's own stream.  A Gibbs iteration takes one raw 32-bit word per
observation for the allocations, then three uniforms: the weight, drawn
by inverting the Beta cdf, then the auxiliary omega and lambda, each
drawn by inverting a Gamma cdf.  Gibbs chains draw a block of iterations
at a time (`LaneBlocks`).  A marginal-MH iteration takes seven uniforms:
the prior proposal for the weight and its accept uniform, two normals
and the accept uniform.  They are drawn `_MH_BLOCK` iterations at a
time, in that order, so the layout is the same as one iteration's seven
after another's.  The only draw outside that layout is the one
allocation in 2^32 whose word ties its threshold: the k-th word of a
chain's j-th distinct value in iteration `it` takes the first uniform of
`seed.child(it, j, k)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, expit, gammaincinv, log_expit, logit, roots_jacobi

from .distributions import CountDataset, _component_log_pmfs, require_positive_total
from .errors import AccuracyError, require_storable
from .evidence import _BRACKET_DROP, _NODES_PER_PANEL, _REFINEMENT_TOL, _count_bracket, _panel_count, _panel_nodes
from .rng import LaneBlocks, Rng, RngSeed, _box_muller
from .special import log_factorial

_ACCEPTANCE_HEALTHY = (0.05, 0.95)
_TARGET_ACCEPTANCE = 0.35  # of marginal MH's adapted joint step
_INITIAL_STEP = 0.5  # random-walk scale before adaptation
_ALPHA_NODES = 96  # mixture-weight axis of the 2-D grid
_GRID_ROWS = 16  # weight rows per pass of the grid's value loop, to stay in cache
_MH_BLOCK = 1024  # marginal-MH iterations whose state-free work is done together
# Largest a0.  From about 1403 on, the grid oracle's refined (192-node)
# weight rule has no finite nodes, and near 1e16 betaincinv returns NaN.
_MAX_A0 = 1000.0


# ----------------------------------------------------------------------
# configuration and state types


@dataclass(frozen=True)
class MixtureSpec:
    """Fixed-role (1 = Poisson, 2 = geometric) two-component mixture with
    one shared mean parameter and a Beta(a0, a0) prior on the weight,
    0 < a0 <= 1000."""

    a0: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.a0 <= _MAX_A0:
            raise ValueError(f"a0 must be positive and at most {_MAX_A0:g}, got {self.a0!r}")


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 10_000
    burn_in: int = 2_000

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) for v in (self.iterations, self.burn_in)):
            raise ValueError("iterations and burn_in must be integers")
        if self.iterations <= self.burn_in:
            raise ValueError("iterations must exceed burn_in")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")


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
# conditionals, on the sufficient statistics (n1, n2, s1, s2)


def _allocation_probability(values, lfact, logit_alpha, u):
    """P(component 1 | x, alpha, lambda = e^u) for each x in `values`."""
    lf1, lf2 = _component_log_pmfs(values, lfact, u)
    return expit(logit_alpha + (lf1 - lf2))


def _allocate(words, p, counts, starts, settle) -> np.ndarray:
    """Component-1 count of each run of observations.

    Run r is the counts[r] observations from starts[r] on, all with
    P(component 1) = p[r], and words[i] is observation i's raw 32-bit word.
    With t = p 2^32, a word below floor(t) puts its observation in
    component 1, and the k-th word of run r equal to it (probability 2^-32)
    does so when settle(r, k) is below t - floor(t): the probability is
    t / 2^32 = p exactly.  floor(t) is capped at 2^32 - 1, where the
    fraction is 1, so p = 1 still gives component 1 always.
    """
    t = p * 2.0**32
    floor = np.minimum(t, 2.0**32 - 1.0).astype(np.uint32)  # truncation: t >= 0
    thresholds = floor.repeat(counts)
    n1 = np.add.reduceat(words < thresholds, starts)
    for i in (words == thresholds).nonzero()[0]:
        r = np.searchsorted(starts, i, side="right") - 1
        n1[r] += settle(r, i - starts[r]) < t[r] - floor[r]
    return n1


def _lambda_step(lam, n1, m, total, u_omega, u_lambda):
    """The next lambda given z, from the current one, elementwise.

    lambda | z has density lambda^(S-1) e^(-n1 lambda) (1+lambda)^-m, with
    S = total and m = s2 + n2.  Given omega | lambda ~ Gamma(m, rate
    1 + lambda), which is 0 at m = 0, lambda is Gamma(S, rate n1 + omega);
    each draw inverts its Gamma cdf at its uniform.  S >= 1, and n1 = 0
    forces m >= 1, so both draws are proper.
    """
    # gammaincinv(0, u) is NaN, which fmax replaces by 0
    omega = np.fmax(gammaincinv(m, u_omega), 0.0) / (1.0 + lam)
    return gammaincinv(total, u_lambda) / (n1 + omega)


# ----------------------------------------------------------------------
# Gibbs with latent allocations


def run_gibbs_chains(cells, config: McmcConfig = McmcConfig()) -> list[MixtureChain]:
    """One latent-allocation Gibbs chain per (data, spec, seed) cell, run in lockstep.

    Each chain reads its own stream in an order fixed by its own draws, so
    every chain equals `run_gibbs` on its cell.  Within a chain the
    allocation words go to the observations sorted by value; observations
    of one value are exchangeable, so only the count of each value in
    component 1 is drawn.  The allocation step of all chains is one set
    of array operations over the (chain, distinct value) runs, and each
    of the weight, omega and lambda steps of all chains is one inversion.
    """
    cells = list(cells)
    if not cells:
        return []
    kept = config.iterations - config.burn_in
    require_storable("the chain traces", len(cells), kept)
    for data, _, _ in cells:
        require_positive_total(data)
    seeds = [seed for _, _, seed in cells]
    sizes = np.array([data.n for data, _, _ in cells])
    totals = np.array([data.total for data, _, _ in cells])
    a0s = np.array([spec.a0 for _, spec, _ in cells])
    distinct, counts = zip(*(np.unique(data.values, return_counts=True) for data, _, _ in cells))
    chain_starts = np.cumsum([0] + [d.size for d in distinct[:-1]])
    value_chain = np.repeat(np.arange(len(cells)), [d.size for d in distinct])
    int_values = np.concatenate(distinct)
    counts = np.concatenate(counts)
    starts = np.cumsum(counts) - counts
    value_index = np.arange(int_values.size) - chain_starts[value_chain]  # j of each run
    lfact = log_factorial(int_values)
    values = int_values.astype(np.float64)
    # raw words: one per observation; uniforms: the weight, omega, lambda
    lanes = LaneBlocks(seeds, sizes, 3)
    alpha = np.clip(betaincinv(a0s, a0s, lanes.uniforms()), 1e-12, 1.0 - 1e-12)
    lam = np.array([data.mean for data, _, _ in cells])
    alphas, lambdas = np.empty((len(cells), kept)), np.empty((len(cells), kept))
    for it, (words, uniforms) in enumerate(lanes.iterations(config.iterations)):
        u_alpha, u_omega, u_lambda = uniforms.T
        p = _allocation_probability(values, lfact, logit(alpha)[value_chain], np.log(lam)[value_chain])
        in1 = _allocate(
            words, p, counts, starts,
            lambda r, k: Rng(seeds[value_chain[r]].child(it, value_index[r], k)).uniform(),
        )
        n1 = np.add.reduceat(in1, chain_starts)
        s1 = np.add.reduceat(in1 * int_values, chain_starts)
        # m = s2 + n2, summed in float64: in int64 it can pass 2^63
        m = np.add(totals - s1, sizes - n1, dtype=np.float64)
        # the conjugate Beta(a0 + n1, a0 + n2) weight; MixtureSpec checked a0
        alpha = betaincinv(a0s + n1, a0s + (sizes - n1), u_alpha).clip(1e-300, 1.0 - 1e-16)
        lam = _lambda_step(lam, n1, m, totals, u_omega, u_lambda)
        if it >= config.burn_in:
            alphas[:, it - config.burn_in] = alpha
            lambdas[:, it - config.burn_in] = lam
    # every step is an exact conditional draw, so every draw is accepted
    return [
        MixtureChain(
            alpha_draws=a, lambda_draws=l, iterations=config.iterations, burn_in=config.burn_in,
            mh_acceptance_rate=1.0, seed=seed,
        )
        for a, l, seed in zip(alphas, lambdas, seeds)
    ]


def run_gibbs(
    data: CountDataset,
    spec: MixtureSpec,
    config: McmcConfig = McmcConfig(),
    seed: RngSeed = RngSeed(0),
) -> MixtureChain:
    """Latent-allocation Gibbs sweep: {z | alpha, lambda} -> {alpha | z} ->
    {omega | lambda, z} -> {lambda | omega, z}.

    Every step is an exact draw from its conditional, so the chain has no
    step size to adapt and reports an acceptance rate of 1.  The auxiliary
    omega turns the Beta-prime factor (1+lambda)^-m of the lambda
    conditional into a Gamma one (Damien, Wakefield & Walker 1999).
    Deterministic given (data, spec, config, seed).
    """
    return run_gibbs_chains([(data, spec, seed)], config)[0]


# ----------------------------------------------------------------------
# marginalized random-walk Metropolis


def _marginal_loglik(lf1, lf2, counts, log_alpha: float, log_1m_alpha: float) -> float:
    """sum_i ln(alpha f1(x_i) + (1-alpha) f2(x_i)), over the distinct
    values of x weighted by their counts, from their component log-pmfs."""
    return float(np.logaddexp(log_alpha + lf1, log_1m_alpha + lf2) @ counts)


def _logit_beta_draw(a0: float, u: np.ndarray) -> np.ndarray:
    """logit of the Beta(a0, a0) draws that invert the cdf at u, elementwise.
    The upper half comes from the lower by symmetry, so draws near 1 keep
    their precision; the draws are clamped at 1e-300 as the Gibbs weight
    is.  The logs are math.log/log1p per element, not np.log, which can
    differ from them in the last bit."""
    x = np.maximum(betaincinv(a0, a0, np.minimum(u, 1.0 - u)), 1e-300)
    s = np.array([math.log(t) - math.log1p(-t) for t in x.tolist()])
    return np.where(u <= 0.5, s, -s)


def run_marginal_mh(
    data: CountDataset,
    spec: MixtureSpec,
    config: McmcConfig = McmcConfig(),
    seed: RngSeed = RngSeed(0),
) -> MixtureChain:
    """Metropolis on (logit alpha, ln lambda) against the
    allocation-marginalized posterior; validation kernel for run_gibbs.
    Starts at the prior mean of the weight and at lambda = the data mean.

    Each iteration first proposes logit alpha afresh from its prior at
    fixed lambda, which crosses between the spikes that a small a0 puts
    at 0 and 1, then takes an adapted random-walk step on both.  The work
    that does not depend on the chain's state (the uniforms, the prior
    proposals and their log_expit) is done a block of up to `_MH_BLOCK`
    iterations at a time."""
    kept = config.iterations - config.burn_in
    require_storable("the chain traces", kept)
    require_positive_total(data)
    distinct, counts = np.unique(data.values, return_counts=True)
    lfact = log_factorial(distinct)
    values, counts = distinct.astype(np.float64), counts.astype(np.float64)
    a0 = spec.a0

    # lp is the log prior of the state (s, v) = (logit alpha, ln lambda):
    # the Beta(a0,a0) prior plus logit Jacobian leaves alpha^a0 (1-alpha)^a0,
    # and the 1/lambda prior is flat in ln(lambda)
    s, v = 0.0, math.log(data.mean)
    log_a, log_b = float(log_expit(s)), float(log_expit(-s))
    lf = _component_log_pmfs(values, lfact, v)
    ll = _marginal_loglik(*lf, counts, log_a, log_b)
    lp = a0 * (log_a + log_b)
    log_step = math.log(_INITIAL_STEP)
    logits, lambdas = np.empty(kept), np.empty(kept)
    accepted = 0
    rng = Rng(seed)
    for start in range(0, config.iterations, _MH_BLOCK):
        rows = min(_MH_BLOCK, config.iterations - start)
        # per iteration: the prior proposal and its accept uniform, two per
        # normal of the joint step, then the joint step's accept uniform
        uniforms = rng.uniform(7 * rows).reshape(rows, 7)
        s_new = _logit_beta_draw(a0, uniforms[:, 0])
        block = zip(
            range(start, start + rows), uniforms[:, 1:].tolist(), s_new.tolist(),
            log_expit(s_new).tolist(), log_expit(-s_new).tolist(),
        )
        for it, (u_swap, u1, u2, u3, u4, u_accept), s_new_it, log_a_new, log_b_new in block:
            # the proposal density is the prior's, so the ratio is the likelihood's
            ll_new = _marginal_loglik(*lf, counts, log_a_new, log_b_new)
            if ll_new >= ll or u_swap < math.exp(ll_new - ll):
                s, ll, lp = s_new_it, ll_new, a0 * (log_a_new + log_b_new)
            step = math.exp(log_step)
            s_prop = _box_muller(s, step, u1, u2)
            v_prop = _box_muller(v, step, u3, u4)
            log_ratio = -math.inf  # past v = 690, e^v overflows: reject
            if v_prop <= 690.0:
                log_a_prop, log_b_prop = float(log_expit(s_prop)), float(log_expit(-s_prop))
                lf_prop = _component_log_pmfs(values, lfact, v_prop)
                ll_prop = _marginal_loglik(*lf_prop, counts, log_a_prop, log_b_prop)
                lp_prop = a0 * (log_a_prop + log_b_prop)
                log_ratio = ll_prop + lp_prop - (ll + lp)
            accept_prob = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
            moved = u_accept < accept_prob
            if moved:
                s, v, ll, lf, lp = s_prop, v_prop, ll_prop, lf_prop, lp_prop
            if it < config.burn_in:
                # Robbins-Monro adaptation of the step, during burn-in only
                log_step += (it + 1.0) ** -0.6 * (accept_prob - _TARGET_ACCEPTANCE)
            else:
                accepted += moved
                logits[it - config.burn_in], lambdas[it - config.burn_in] = s, math.exp(v)

    rate = accepted / kept
    warnings = ()
    if not _ACCEPTANCE_HEALTHY[0] <= rate <= _ACCEPTANCE_HEALTHY[1]:
        warnings = (
            f"joint-step acceptance {rate:.3f} outside "
            f"[{_ACCEPTANCE_HEALTHY[0]}, {_ACCEPTANCE_HEALTHY[1]}] after adaptation",
        )
    return MixtureChain(
        alpha_draws=expit(logits), lambda_draws=lambdas, iterations=config.iterations,
        burn_in=config.burn_in, mh_acceptance_rate=rate, seed=seed, kernel="marginal_mh", warnings=warnings,
    )


# ----------------------------------------------------------------------
# 2-D grid oracle


def _alpha_nodes(a0: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Jacobi absorbs the Beta(a0,a0) kernel, so a0 < 1 endpoint
    # singularities cost nothing; constants cancel in normalization.
    # Above a0 of about 1e4 scipy's Newton iteration for the nodes breaks
    # down into NaN, and below about 1e-12 it divides by zero; those rules
    # are refused here rather than warned about.
    if a0 - 1.0 == -1.0:
        raise AccuracyError(f"no Gauss-Jacobi rule for the weight at a0 = {a0:.10g}: a0 - 1 rounds to -1")
    with np.errstate(divide="ignore", invalid="ignore"):
        x, w = roots_jacobi(k, a0 - 1.0, a0 - 1.0)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise AccuracyError(f"no finite {k}-node Gauss-Jacobi rule for the weight at a0 = {a0:.10g}")
    return (x + 1.0) / 2.0, w


def grid_posterior_alpha(data: CountDataset, spec: MixtureSpec) -> DiscretizedPosterior:
    """Marginal posterior of the mixture weight by tensor-grid quadrature.

    Gauss-Jacobi nodes on the weight axis (prior absorbed into the rule),
    composite Gauss-Legendre on u = ln(lambda) over a bracketed support.
    A refined grid that moves the log normalizer or the mean by more than
    1e-8 raises AccuracyError with the mean attached, and so does a weight
    rule whose nodes are not finite (a0 above about 1e4 or below 1e-12).

    The log-likelihood on each grid is `_mixture_loglik_grid`: per cell,
    max(ln f1, ln f2) plus ln(alpha e1 + (1-alpha) e2) with e1, e2 <= 1,
    within a few 1e-15 relative of a per-observation logaddexp.  Against
    that logaddexp form it moves the mean by under 1e-14, the median by
    under 1e-13 and ln Z by under 1e-12 (144 datasets, n up to 1000).

    Each pass holds one (alpha x u) float64 matrix and integrates it over u
    in place: the refined pass's 192 x n_u matrix is about 3 MB at n = 1000
    and at most 6.3 MB at the 128-panel cap.
    """
    require_positive_total(data)

    def evaluate(n_alpha: int, nodes_per_panel: int, drop: float):
        a_nodes, a_wts = _alpha_nodes(spec.a0, n_alpha)
        lo, hi, panels = _mixture_u_bracket(data, drop)
        u, u_wts = _panel_nodes(lo, hi, panels, nodes_per_panel)
        # log-likelihood matrix over (alpha node, u node)
        loglik = _mixture_loglik_grid(data, a_nodes, u)
        shift = loglik.max()
        # integrate over u in place, so that a pass holds one (alpha, u) matrix
        loglik -= shift
        np.exp(loglik, out=loglik)
        loglik *= u_wts[None, :]
        integ_u = loglik.sum(axis=1)
        raw_mass = a_wts * integ_u
        z = raw_mass.sum()
        mass = raw_mass / z
        return a_nodes, a_wts, mass, shift + math.log(z), float(np.sum(mass * a_nodes))

    a_nodes, a_wts, mass, log_z, mean = evaluate(_ALPHA_NODES, _NODES_PER_PANEL, _BRACKET_DROP)
    # refinement pass doubles the weight axis, adds nodes, and widens the
    # bracket, so truncation errors show up as well as rule errors
    _, _, _, log_z_ref, mean_ref = evaluate(_ALPHA_NODES * 2, _NODES_PER_PANEL + 8, _BRACKET_DROP + 20.0)
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


def _mixture_u_bracket(data: CountDataset, drop: float):
    """Support and panel count of the u = ln(lambda) axis, wide enough for any alpha.

    Takes the union of the pure-Poisson and pure-geometric brackets (both
    profiles peak at ln(total/n); every mixture profile sits between them
    up to per-observation weighting).
    """
    _, lo_p, hi_p, sd_p = _count_bracket(data, "poisson", drop)
    _, lo_g, hi_g, sd_g = _count_bracket(data, "geometric", drop)
    lo, hi = min(lo_p, lo_g), max(hi_p, hi_g)
    return lo, hi, _panel_count(lo, hi, max(sd_p, sd_g))


def _mixture_loglik_grid(data: CountDataset, alpha: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_i ln(alpha f1 + (1-alpha) f2) on the (alpha, u) tensor grid.

    Observations are grouped by distinct value x.  Per u node, with
    m = max(ln f1, ln f2), e1 = f1 / e^m and e2 = f2 / e^m, each value adds
    count ln(alpha e1 + (1-alpha) e2) to the (alpha, u) matrix, and sum
    count m is added once per u node.  The value loop runs over blocks of
    `_GRID_ROWS` alpha rows through two reused (rows, u) buffers, which stay
    in cache where whole-matrix ones did not; every cell takes the same
    float operations in the same order either way.  Both terms
    are non-negative and one of e1, e2 is 1, so nothing cancels and nothing
    overflows at any alpha in (0, 1): the result stays within a few 1e-15
    relative of the per-cell logaddexp(ln alpha + ln f1, ln(1-alpha) + ln f2),
    down to alpha = 1e-300 and up to 1 - 1e-15.  Every step over the matrix
    is an exp/log/multiply/add ufunc (numpy's logaddexp has no SIMD loop).
    """
    distinct, counts = np.unique(data.values, return_counts=True)
    counts = counts.astype(np.float64)
    lf1, lf2 = _component_log_pmfs(
        distinct.astype(np.float64)[:, None], log_factorial(distinct)[:, None], u[None, :]
    )
    m = np.maximum(lf1, lf2)
    m_total = counts @ m
    # e1 and e2 overwrite lf1 and lf2
    e1 = np.exp(np.subtract(lf1, m, out=lf1), out=lf1)
    e2 = np.exp(np.subtract(lf2, m, out=lf2), out=lf2)
    del m
    out = np.empty((alpha.size, u.size))
    out[:] = m_total
    scratch = np.empty((2, _GRID_ROWS, u.size))
    for lo in range(0, alpha.size, _GRID_ROWS):
        a = alpha[lo : lo + _GRID_ROWS, None]
        b = 1.0 - a
        rows = out[lo : lo + _GRID_ROWS]
        t1, t2 = scratch[:, : a.shape[0]]
        for count, f1, f2 in zip(counts, e1, e2):
            np.multiply(a, f1, out=t1)
            np.multiply(b, f2, out=t2)
            t1 += t2
            np.log(t1, out=t1)
            t1 *= count
            rows += t1
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
    )
