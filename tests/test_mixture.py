import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import betaincinv, expit, gammaincinv, log_expit, logit, logsumexp

from bayes_arbiter import mixture as mixture_module
from bayes_arbiter import rng as rng_module
from bayes_arbiter.distributions import CountDataset, _component_log_pmfs
from bayes_arbiter.errors import AccuracyError, DegeneracyError
from bayes_arbiter.evidence import _BRACKET_DROP, _NODES_PER_PANEL, _REFINEMENT_TOL, _panel_nodes
from bayes_arbiter.mixture import (
    DiscretizedPosterior,
    McmcConfig,
    MixtureChain,
    MixtureSpec,
    _allocate,
    _allocation_probability,
    _lambda_step,
    _marginal_loglik,
    _mixture_loglik_grid,
    _mixture_u_bracket,
    grid_posterior_alpha,
    posterior_summary,
    run_gibbs,
    run_gibbs_chains,
    run_marginal_mh,
)
from bayes_arbiter.rng import _APOW, _GSUM, Rng, RngSeed
from bayes_arbiter.special import log_factorial


def pinned_dataset(n: int, stream: int = 0, mean: float = 4.0, geometric: bool = False) -> CountDataset:
    rng = Rng(RngSeed(777, stream))
    values = rng.geometric_mean(mean, n) if geometric else rng.poisson(mean, size=n)
    if values.sum() < 1:
        values[0] = 1
    return CountDataset(values)


def large_mixed_dataset() -> CountDataset:
    """10^4 counts, half Poisson and half geometric, both at mean 4."""
    gen = np.random.default_rng(0)
    return CountDataset(np.concatenate([gen.poisson(4.0, 5000), gen.geometric(0.2, 5000) - 1]))


def make_chain(alpha_values) -> MixtureChain:
    a = np.asarray(alpha_values, dtype=float)
    return MixtureChain(
        alpha_draws=a,
        lambda_draws=np.full_like(a, 4.0),
        iterations=a.size,
        burn_in=0,
        mh_acceptance_rate=0.4,
        seed=RngSeed(0),
    )


class _ReferenceStream:
    """One chain's PCG32 stream, read a few words at a time."""

    def __init__(self, seed: RngSeed):
        rng = Rng(seed)
        self.state, self.inc = rng._state, rng._inc

    def words(self, k: int) -> np.ndarray:
        out = rng_module._pcg32_block(np.uint64(self.state), _APOW[:k], _GSUM[:k] * np.uint64(self.inc))
        self.state = (int(_APOW[k]) * self.state + int(_GSUM[k]) * self.inc) % 2**64
        return out

    def uniforms(self, m: int) -> list[float]:
        w = self.words(2 * m).tolist()
        return [min(((((hi << 32) | lo) >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53) for hi, lo in zip(w[0::2], w[1::2])]


def _reference_gibbs(data, spec, seed, config):
    """One latent-allocation Gibbs chain, one iteration at a time: n
    allocation words for the observations sorted by value, then the
    weight, omega and lambda uniforms.  A word that ties its threshold
    takes the first uniform of seed.child(it, j, k), for the j-th distinct
    value and the k-th word of that value."""
    stream = _ReferenceStream(seed)
    x = np.sort(data.values)
    distinct, first = np.unique(x, return_index=True)
    values = x.astype(np.float64)
    lfact = log_factorial(x)
    n, total = data.n, data.total
    kept = config.iterations - config.burn_in
    alphas, lambdas = np.empty(kept), np.empty(kept)
    alpha = min(max(float(betaincinv(spec.a0, spec.a0, stream.uniforms(1)[0])), 1e-12), 1.0 - 1e-12)
    lam = data.mean
    for it in range(config.iterations):
        words = stream.words(n)
        u_alpha, u_omega, u_lambda = stream.uniforms(3)
        t = mixture_module._allocation_probability(values, lfact, logit(alpha), np.log(lam)) * 2.0**32
        floor = np.minimum(np.floor(t), 2.0**32 - 1.0)
        in1 = words < floor
        for i in np.flatnonzero(words == floor):
            j = int(np.searchsorted(distinct, x[i]))
            in1[i] = _ReferenceStream(seed.child(it, j, i - first[j])).uniforms(1)[0] < t[i] - floor[i]
        n1 = int(in1.sum())
        s1 = int(x[in1].sum())
        alpha = float(betaincinv(spec.a0 + n1, spec.a0 + (n - n1), u_alpha))
        alpha = min(max(alpha, 1e-300), 1.0 - 1e-16)
        m = total - s1 + n - n1
        omega = float(gammaincinv(m, u_omega)) / (1.0 + lam) if m else 0.0
        lam = float(gammaincinv(total, u_lambda)) / (n1 + omega)
        if it >= config.burn_in:
            alphas[it - config.burn_in], lambdas[it - config.burn_in] = alpha, lam
    return alphas, lambdas


def _reference_marginal_mh(data, spec, seed, config):
    """One marginal-MH chain, one iteration at a time: seven uniforms per
    iteration, the prior proposal's logit weight from a scalar betaincinv,
    and the current state's log prior recomputed every iteration.  Returns
    the kept draws, the acceptance rate and the warnings."""
    distinct, counts = np.unique(data.values, return_counts=True)
    lfact = log_factorial(distinct)
    values, counts = distinct.astype(np.float64), counts.astype(np.float64)
    a0 = spec.a0

    def logit_beta_draw(u):
        x = max(float(betaincinv(a0, a0, min(u, 1.0 - u))), 1e-300)
        s = math.log(x) - math.log1p(-x)
        return s if u <= 0.5 else -s

    def loglik(s, lf):
        return _marginal_loglik(*lf, counts, float(log_expit(s)), float(log_expit(-s)))

    def log_prior(s):
        return a0 * (float(log_expit(s)) + float(log_expit(-s)))

    s, v = 0.0, math.log(data.mean)
    lf = _component_log_pmfs(values, lfact, v)
    ll = loglik(s, lf)
    log_step = math.log(mixture_module._INITIAL_STEP)
    kept = config.iterations - config.burn_in
    alphas, lambdas = np.empty(kept), np.empty(kept)
    accepted = 0
    rng = Rng(seed)
    for it in range(config.iterations):
        u_prior, u_swap, u1, u2, u3, u4, u_accept = rng.uniform(7).tolist()
        s_new = logit_beta_draw(u_prior)
        ll_new = loglik(s_new, lf)
        if ll_new >= ll or u_swap < math.exp(ll_new - ll):
            s, ll = s_new, ll_new
        step = math.exp(log_step)
        s_prop = rng_module._box_muller(s, step, u1, u2)
        v_prop = rng_module._box_muller(v, step, u3, u4)
        log_ratio = -math.inf
        if v_prop <= 690.0:
            lf_prop = _component_log_pmfs(values, lfact, v_prop)
            ll_prop = loglik(s_prop, lf_prop)
            log_ratio = ll_prop + log_prior(s_prop) - (ll + log_prior(s))
        accept_prob = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
        moved = u_accept < accept_prob
        if moved:
            s, v, ll, lf = s_prop, v_prop, ll_prop, lf_prop
        if it < config.burn_in:
            log_step += (it + 1.0) ** -0.6 * (accept_prob - mixture_module._TARGET_ACCEPTANCE)
        else:
            accepted += moved
            alphas[it - config.burn_in], lambdas[it - config.burn_in] = expit(s), math.exp(v)
    rate = accepted / kept
    lo, hi = mixture_module._ACCEPTANCE_HEALTHY
    warnings = () if lo <= rate <= hi else (
        f"joint-step acceptance {rate:.3f} outside [{lo}, {hi}] after adaptation",
    )
    return alphas, lambdas, rate, warnings


def _batch_means_se(draws: np.ndarray, batches: int = 40) -> float:
    means = draws[: draws.size // batches * batches].reshape(batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


class TestSpecAndState:
    def test_component_roles_are_fixed(self):
        for a0 in (0.0, -1.0, math.nan, math.inf, 1000.0000000001, 1e16, 1e308):
            with pytest.raises(ValueError, match="a0 must be positive and at most 1000"):
                MixtureSpec(a0=a0)
        assert MixtureSpec(a0=1000.0).a0 == 1000.0

    def test_mcmc_config_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=100, burn_in=100)
        with pytest.raises(ValueError, match="burn_in"):
            McmcConfig(iterations=100, burn_in=-1)
        with pytest.raises(ValueError, match="iterations"):
            McmcConfig(iterations=400.5, burn_in=100)
        with pytest.raises(ValueError, match="burn_in"):
            McmcConfig(iterations=400, burn_in=100.0)


class TestConditionals:
    def test_allocation_probability_reference_points(self):
        # alpha = 1/2 (logit 0) and lambda = 1 (u = 0)
        x = np.array([0, 10])
        p = _allocation_probability(x.astype(np.float64), log_factorial(x), 0.0, 0.0)
        # e^-1 / (e^-1 + 1/2), frozen by direct evaluation
        assert p[0] == pytest.approx(0.4238831152341709, abs=1e-12)
        # Poisson(1) at 10 vs geometric: 1.01e-7 vs 2^-11
        assert p[1] == pytest.approx(0.00020757845633858217, rel=1e-10)

    def test_allocation_probability_symmetric_boundary(self):
        # as lambda -> 0 both log pmfs at x=0 coincide, so alpha=1/2 splits evenly
        assert _allocation_probability(0.0, 0.0, 0.0, math.log(1e-9)) == pytest.approx(0.5, abs=1e-9)

    def test_allocation_probability_vector_and_domain(self):
        x = np.array([0, 1, 10])
        logit = math.log(0.3 / 0.7)
        p = _allocation_probability(x.astype(np.float64), log_factorial(x), logit, math.log(2.0))
        assert p.shape == (3,)
        assert np.all((p > 0) & (p < 1))

    def test_tied_words_settle_to_the_exact_probability(self):
        # p on, just above and just below multiples of 2^-32, from below
        # 2^-32 up to 1, where floor(p 2^32) is capped at 2^32 - 1
        t = np.array([0.3, 1.0, 1.25, 2.0**31 - 0.5, 2.0**31, 2.0**31 + 0.25, 2.0**32 - 0.75, 2.0**32])
        p = t * 2.0**-32
        floor = np.minimum(np.floor(t), 2.0**32 - 1.0)
        frac = t - floor
        assert np.all((floor + frac) * 2.0**-32 == p)  # P(component 1), exactly
        reps = 20_000
        counts = np.full(t.size, reps)
        starts = np.arange(t.size) * reps
        rng = Rng(RngSeed(5))
        settled = []

        def settle(r, k):
            settled.append(r)
            return rng.uniform()

        tied = np.repeat(floor.astype(np.uint32), reps)
        n1 = _allocate(tied, p, counts, starts, settle)
        assert len(settled) == tied.size
        sd = np.sqrt(reps * frac * (1.0 - frac))
        assert np.all(np.abs(n1 - reps * frac) <= 4.0 * sd)
        assert n1[frac == 0.0].tolist() == [0, 0] and n1[-1] == reps
        # one below the threshold is always component 1, one above never
        # (no word is above 2^32 - 1), and neither draws a uniform
        settled.clear()
        for keep, shift, expected in ((floor > 0, -1, reps), (floor < 2.0**32 - 1.0, 1, 0)):
            k = int(keep.sum())
            words = np.repeat(floor[keep] + shift, reps).astype(np.uint32)
            got = _allocate(words, p[keep], counts[:k], starts[:k], settle)
            assert got.tolist() == [expected] * k
        assert not settled

    def test_tied_words_of_a_run_settle_by_their_offsets(self):
        # runs of 3, 1 and 4 words at thresholds 5, 7 and 9 + 1/2: the 1st
        # and 3rd words of run 0 tie, none of run 1 and all of run 2
        p = np.array([5.0, 7.0, 9.5]) * 2.0**-32
        words = np.array([5, 4, 5, 6, 9, 9, 9, 9], dtype=np.uint32)
        settled = []

        def settle(r, k):
            settled.append((r, k))
            return 0.25

        n1 = _allocate(words, p, np.array([3, 1, 4]), np.array([0, 3, 4]), settle)
        assert settled == [(0, 0), (0, 2), (2, 0), (2, 1), (2, 2), (2, 3)]
        assert n1.tolist() == [1, 1, 4]  # a tie at a whole threshold never settles to 1

    @pytest.mark.parametrize(
        "n1, n2, s1, s2",
        [
            (5, 5, 20, 15),  # both components
            (10, 0, 30, 0),  # m = 0, every count in component 1: omega = 0
            (0, 10, 0, 25),  # n1 = 0: omega alone makes the rate positive
            (1, 50, 2, 150),  # geometric-heavy
        ],
    )
    def test_lambda_step_keeps_the_lambda_conditional(self, n1, n2, s1, s2):
        # 3000 independent (omega, lambda) chains, 50 steps each from
        # lambda = 1 on fresh uniforms: the mean and variance of lambda match
        # those of lambda^(S-1) e^(-n1 lambda) (1+lambda)^-m by quadrature
        total, m = s1 + s2, s2 + n2
        lanes, steps = 3000, 50
        gen = np.random.default_rng([n1, n2, s1, s2])
        lam = np.ones(lanes)
        for _ in range(steps):
            lam = _lambda_step(lam, n1, m, total, gen.random(lanes), gen.random(lanes))

        def log_density(x):
            return (total - 1) * np.log(x) - n1 * x - m * np.log1p(x)

        grid = np.geomspace(1e-3, 1e3, 2001)
        mode = grid[np.argmax(log_density(grid))]
        shift = log_density(mode)
        raw = [
            sum(
                integrate.quad(lambda x: x**k * np.exp(log_density(x) - shift), lo, hi, epsabs=0.0, epsrel=1e-12)[0]
                for lo, hi in ((0.0, mode), (mode, np.inf))
            )
            for k in range(5)
        ]
        mean = raw[1] / raw[0]
        central = [sum(math.comb(k, j) * raw[j] / raw[0] * (-mean) ** (k - j) for j in range(k + 1)) for k in range(5)]
        var, mu4 = central[2], central[4]
        if m == 0:  # Gamma(S, rate n1)
            assert (mean, var) == pytest.approx((total / n1, total / n1**2), rel=1e-9)
        if n1 == 0:  # Beta-prime(S, m - S)
            b = m - total
            assert (mean, var) == pytest.approx((total / (b - 1), total * (m - 1) / ((b - 1) ** 2 * (b - 2))), rel=1e-9)
        assert abs(lam.mean() - mean) <= 4.0 * math.sqrt(var / lanes)
        assert abs(lam.var() - var) <= 4.0 * math.sqrt((mu4 - var**2) / lanes)


class TestMarginalLikelihood:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 500), st.integers(1, 50)), min_size=1, max_size=40),
        st.floats(-30.0, 30.0),
        st.floats(-10.0, 10.0),
    )
    def test_grouped_equals_per_observation_sum(self, runs, s, v):
        # runs of tied values, possibly repeated, in shuffled order (n <= 2000)
        x = np.random.default_rng(len(runs)).permutation(np.repeat(*np.array(runs).T))
        log_alpha, log_1m_alpha = float(log_expit(s)), float(log_expit(-s))
        lf1, lf2 = _component_log_pmfs(x.astype(np.float64), log_factorial(x), v)
        ref = float(np.logaddexp(log_alpha + lf1, log_1m_alpha + lf2).sum())
        distinct, counts = np.unique(x, return_counts=True)
        got = _marginal_loglik(
            *_component_log_pmfs(distinct.astype(np.float64), log_factorial(distinct), v),
            counts.astype(np.float64), log_alpha, log_1m_alpha,
        )
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


class TestSamplers:
    def test_gibbs_deterministic(self):
        data = pinned_dataset(20)
        cfg = McmcConfig(iterations=2_000, burn_in=500)
        a = run_gibbs(data, MixtureSpec(0.5), cfg, RngSeed(3, 9))
        b = run_gibbs(data, MixtureSpec(0.5), cfg, RngSeed(3, 9))
        assert np.array_equal(a.alpha_draws, b.alpha_draws)
        assert np.array_equal(a.lambda_draws, b.lambda_draws)
        assert a.mh_acceptance_rate == b.mh_acceptance_rate

    @staticmethod
    def _check_lockstep_against_reference(cells, config):
        chains = run_gibbs_chains(cells, config)
        refs = [_reference_gibbs(*cell, config) for cell in cells]
        for chain, cell, (alphas, lambdas) in zip(chains, cells, refs):
            assert np.array_equal(chain.alpha_draws, alphas)
            assert np.array_equal(chain.lambda_draws, lambdas)
            # every step is an exact conditional draw
            assert (chain.mh_acceptance_rate, chain.warnings) == (1.0, ())
            assert chain.seed == cell[2]
        for chain, back in zip(chains, reversed(run_gibbs_chains(cells[::-1], config))):
            assert np.array_equal(chain.alpha_draws, back.alpha_draws)
            assert np.array_equal(chain.lambda_draws, back.lambda_draws)
        single = run_gibbs(*cells[4][:2], config, cells[4][2])
        assert np.array_equal(single.alpha_draws, chains[4].alpha_draws)
        assert np.array_equal(single.lambda_draws, chains[4].lambda_draws)

    @pytest.mark.parametrize("config", [McmcConfig(1_000, 300), McmcConfig(600, 0)])
    def test_lockstep_chains_match_scalar_reference(self, config):
        # burn_in = 0 keeps every draw from the first iteration on
        sizes = (1, 10, 1000) if config.burn_in else (1, 10, 3000)
        cells = [
            (pinned_dataset(n, stream=i), MixtureSpec(a0), RngSeed(41, i))
            for i, (n, a0) in enumerate(
                (n, a0) for n in sizes for a0 in (0.001, 0.5, 3.0)
            )
        ]
        self._check_lockstep_against_reference(cells, config)

    def test_lockstep_chains_match_reference_when_words_tie(self, monkeypatch):
        # every word in {0, 1, 2, 3} or 2^31 + {0, 1, 2, 3}, and every
        # threshold 2 + 1/2: an eighth of the allocations tie, in every lane
        # and most iterations, and each settles by the top bit of the first
        # word of a stream of its own
        block = rng_module._pcg32_block
        monkeypatch.setattr(rng_module, "_pcg32_block", lambda *args: block(*args) & np.uint32(0x80000003))
        monkeypatch.setattr(
            mixture_module, "_allocation_probability", lambda values, *_: np.full(np.shape(values), 2.5 * 2.0**-32)
        )
        cells = [
            (pinned_dataset(n, stream=i), MixtureSpec(a0), RngSeed(43, i))
            for i, (n, a0) in enumerate((n, a0) for n in (1, 10, 40) for a0 in (0.5, 3.0))
        ]
        self._check_lockstep_against_reference(cells, McmcConfig(120, 20))

    def test_marginal_mh_deterministic(self):
        data = pinned_dataset(20)
        cfg = McmcConfig(iterations=2_000, burn_in=500)
        a = run_marginal_mh(data, MixtureSpec(0.5), cfg, RngSeed(3, 10))
        b = run_marginal_mh(data, MixtureSpec(0.5), cfg, RngSeed(3, 10))
        assert np.array_equal(a.alpha_draws, b.alpha_draws)

    @pytest.mark.parametrize(
        "config", [McmcConfig(1023, 0), McmcConfig(1025, 0), McmcConfig(2049, 1000), McmcConfig(1500, 0)]
    )
    def test_marginal_mh_matches_scalar_reference(self, config):
        # iteration counts on both sides of a block boundary, burn-in
        # ending inside a block, and (1500, 0) at n = 1000, whose
        # unadapted step gives an unhealthy acceptance rate and a warning
        warned = 0
        for i, (n, a0) in enumerate((n, a0) for n in (1, 10, 1000) for a0 in (0.001, 0.5, 1000.0)):
            data, seed = pinned_dataset(n, stream=i), RngSeed(45, i)
            chain = run_marginal_mh(data, MixtureSpec(a0), config, seed)
            alphas, lambdas, rate, warnings = _reference_marginal_mh(data, MixtureSpec(a0), seed, config)
            assert np.array_equal(chain.alpha_draws, alphas), (n, a0)
            assert np.array_equal(chain.lambda_draws, lambdas), (n, a0)
            assert (chain.mh_acceptance_rate, chain.warnings) == (rate, warnings), (n, a0)
            warned += bool(warnings)
        if config == McmcConfig(1500, 0):
            assert warned

    def test_chain_support_and_shape(self):
        data = pinned_dataset(30, stream=5)
        cfg = McmcConfig(iterations=3_000, burn_in=1_000)
        for runner in (run_gibbs, run_marginal_mh):
            chain = runner(data, MixtureSpec(0.5), cfg, RngSeed(11, 0))
            assert chain.alpha_draws.shape == (2_000,)
            assert np.all((chain.alpha_draws > 0.0) & (chain.alpha_draws < 1.0))
            assert np.all(chain.lambda_draws > 0.0)
            assert 0.0 <= chain.mh_acceptance_rate <= 1.0

    def test_unhealthy_acceptance_rate_warns(self):
        # no burn-in, so no adaptation: marginal MH's fixed initial step is
        # far wider than the posterior of 3000 counts, and acceptance stays
        # near zero
        data = pinned_dataset(3000)
        chain = run_marginal_mh(data, MixtureSpec(0.5), McmcConfig(iterations=1_500, burn_in=0), RngSeed(8, 0))
        assert chain.mh_acceptance_rate < 0.05
        assert chain.warnings
        assert "acceptance" in chain.warnings[0]

    def test_degenerate_dataset_rejected(self):
        zeros = CountDataset([0, 0, 0, 0])
        with pytest.raises(DegeneracyError):
            run_gibbs(zeros, MixtureSpec(0.5), McmcConfig(1000, 100), RngSeed(0))
        with pytest.raises(DegeneracyError):
            run_marginal_mh(zeros, MixtureSpec(0.5), McmcConfig(1000, 100), RngSeed(0))

    @settings(max_examples=40, deadline=None)
    @given(log10_a0=st.floats(min_value=-4.0, max_value=3.0), seed=st.integers(min_value=0, max_value=2**32))
    def test_any_a0_gives_weights_in_unit_interval(self, log10_a0, seed):
        # from a0 = 1e-4, where most Beta(a0, a0) draws sit within 1e-300 of 0 or 1, to 1000
        a0 = 10.0**log10_a0
        rng = Rng(RngSeed(seed))
        draws = np.array([rng.beta(a0, a0) for _ in range(50)])
        chain = run_gibbs(CountDataset([1, 2, 3]), MixtureSpec(a0), McmcConfig(300, 100), RngSeed(seed))
        for alpha in (draws, chain.alpha_draws):
            assert np.all(np.isfinite(alpha)) and np.all((alpha >= 0.0) & (alpha <= 1.0))

    def test_samplers_match_grid_oracle(self):
        # shortened version of the acceptance check
        data = pinned_dataset(20)
        cfg = McmcConfig(iterations=22_000, burn_in=2_000)
        g = run_gibbs(data, MixtureSpec(0.5), cfg, RngSeed(777, 1))
        m = run_marginal_mh(data, MixtureSpec(0.5), cfg, RngSeed(777, 2))
        grid = grid_posterior_alpha(data, MixtureSpec(0.5))
        assert abs(g.alpha_draws.mean() - grid.mean) <= 0.02
        assert abs(m.alpha_draws.mean() - grid.mean) <= 0.02
        assert abs(g.alpha_draws.mean() - m.alpha_draws.mean()) <= 0.02

    def test_samplers_within_four_batch_means_se_of_grid(self):
        # 12 nonzero Poisson(4) datasets per (a0, n) cell at the desk chain
        # length, and 12 geometric ones of mean 4 per n at a0 = 0.5, where
        # Gibbs's lambda step mixes slowest; each chain's weight mean must
        # sit within 4 batch-means standard errors (40 batches) of the grid
        # oracle's.  Without its prior proposal, marginal MH missed by up to
        # 6.3 at a0 = 0.1.
        cells = [
            (pinned_dataset(n, stream=100 + seed), MixtureSpec(a0), RngSeed(2026, seed))
            for a0 in (0.1, 0.5, 1.0) for n in (10, 100) for seed in range(12)
        ] + [
            (pinned_dataset(n, stream=200 + seed, geometric=True), MixtureSpec(0.5), RngSeed(2027, seed))
            for n in (10, 100) for seed in range(12)
        ]
        gibbs = run_gibbs_chains(cells, McmcConfig())
        for (data, spec, seed), chain in zip(cells, gibbs):
            grid = grid_posterior_alpha(data, spec).mean
            for c in (chain, run_marginal_mh(data, spec, McmcConfig(), seed.child(1))):
                gap = abs(c.alpha_draws.mean() - grid)
                assert gap <= 4.0 * _batch_means_se(c.alpha_draws), (c.kernel, spec.a0, data.n, seed)

    def test_mixture_truth_with_lambda_fixed_structure(self):
        # data drawn from the 50/50 mixture itself: posterior mass should sit
        # in the interior, and the two kernels should agree with the grid
        rng = Rng(RngSeed(2024, 8))
        vals = np.where(
            rng.uniform(60) < 0.5, rng.poisson(4.0, size=60), rng.geometric_mean(4.0, size=60)
        )
        data = CountDataset(vals)
        cfg = McmcConfig(iterations=22_000, burn_in=2_000)
        g = run_gibbs(data, MixtureSpec(0.5), cfg, RngSeed(2024, 9))
        m = run_marginal_mh(data, MixtureSpec(0.5), cfg, RngSeed(2024, 10))
        grid = grid_posterior_alpha(data, MixtureSpec(0.5))
        assert abs(g.alpha_draws.mean() - grid.mean) <= 0.02
        assert abs(m.alpha_draws.mean() - grid.mean) <= 0.02


def _logaddexp_loglik_grid(values, counts, alpha, u):
    """The grid log-likelihood as count-weighted per-cell logaddexp."""
    lf1, lf2 = _component_log_pmfs(values.astype(np.float64)[:, None], log_factorial(values)[:, None], u[None, :])
    la, l1a = np.log(alpha)[:, None], np.log1p(-alpha)[:, None]
    return sum(c * np.logaddexp(la + f1, l1a + f2) for c, f1, f2 in zip(counts, lf1, lf2))


def _grouped_logaddexp_kernel(data, alpha, u):
    return _logaddexp_loglik_grid(*np.unique(data.values, return_counts=True), alpha, u)


def _unblocked_loglik_grid(data, alpha, u):
    """`_mixture_loglik_grid`'s value loop over the whole (alpha, u) matrix at once."""
    distinct, counts = np.unique(data.values, return_counts=True)
    lf1, lf2 = _component_log_pmfs(
        distinct.astype(np.float64)[:, None], log_factorial(distinct)[:, None], u[None, :]
    )
    m = np.maximum(lf1, lf2)
    e1, e2 = np.exp(lf1 - m), np.exp(lf2 - m)
    a = alpha[:, None]
    b = 1.0 - a
    out = np.empty((alpha.size, u.size))
    out[:] = counts.astype(np.float64) @ m
    t1, t2 = np.empty_like(out), np.empty_like(out)
    for count, f1, f2 in zip(counts.astype(np.float64), e1, e2):
        np.multiply(a, f1, out=t1)
        np.multiply(b, f2, out=t2)
        t1 += t2
        np.log(t1, out=t1)
        t1 *= count
        out += t1
    return out


def _grid_case(n: int, family: int) -> CountDataset:
    """Poisson(4) with one outlier at 60, geometric of mean 4, Poisson(200), half zeros."""
    gen = np.random.default_rng([n, family])
    if family == 0:
        values = gen.poisson(4.0, n)
        values[-1] = 60
    elif family == 1:
        values = gen.geometric(0.2, n) - 1
    elif family == 2:
        values = gen.poisson(200.0, n)
    else:
        values = gen.poisson(4.0, n)
        values[: n // 2] = 0
    if values.sum() < 1:
        values[-1] = 1
    return CountDataset(values)


def _recording(kernel, grids):
    """`kernel`, appending each log-likelihood matrix it returns to `grids`."""

    def run(*args):
        grids.append(kernel(*args))
        return grids[-1].copy()  # the oracle integrates the matrix it is given in place

    return run


def _reference_grid_posterior(data, spec):
    """`grid_posterior_alpha` with its integration over u written as
    expressions on new arrays: the reference for the in-place form."""

    def evaluate(n_alpha, nodes_per_panel, drop):
        a_nodes, a_wts = mixture_module._alpha_nodes(spec.a0, n_alpha)
        lo, hi, panels = _mixture_u_bracket(data, drop)
        u, u_wts = _panel_nodes(lo, hi, panels, nodes_per_panel)
        loglik = _mixture_loglik_grid(data, a_nodes, u)
        shift = loglik.max()
        integ_u = (np.exp(loglik - shift) * u_wts[None, :]).sum(axis=1)
        raw_mass = a_wts * integ_u
        z = raw_mass.sum()
        mass = raw_mass / z
        return a_nodes, a_wts, mass, shift + math.log(z), float(np.sum(mass * a_nodes))

    a_nodes, a_wts, mass, log_z, mean = evaluate(mixture_module._ALPHA_NODES, _NODES_PER_PANEL, _BRACKET_DROP)
    _, _, _, log_z_ref, mean_ref = evaluate(
        mixture_module._ALPHA_NODES * 2, _NODES_PER_PANEL + 8, _BRACKET_DROP + 20.0
    )
    err = max(abs(log_z - log_z_ref), abs(mean - mean_ref))
    if err > _REFINEMENT_TOL:
        raise AccuracyError(f"grid refinement moved the posterior by {err:.3e}", estimate=mean)
    log_kernel = (spec.a0 - 1.0) * (np.log(a_nodes) + np.log1p(-a_nodes))
    density = mass * np.exp(log_kernel + (2.0 * spec.a0 - 1.0) * math.log(2.0)) / a_wts
    cum = np.cumsum(mass)
    median = float(np.interp(0.5, cum - 0.5 * mass, a_nodes))
    return DiscretizedPosterior(a_nodes, density, mass, mean, median, err)


def _oracle_shaped_case() -> CountDataset:
    """1000 counts, each Poisson(4) or geometric of mean 4 by a fair coin."""
    gen = np.random.default_rng([2500, 1])
    poisson = gen.random(1000) < 0.5
    return CountDataset(np.where(poisson, gen.poisson(4.0, 1000), gen.geometric(0.2, 1000) - 1))


_TEN_COUNTS = CountDataset([3, 5, 2, 4, 6, 1, 4, 0, 7, 2])


def _base_log_normalizer(data, a0, loglik):
    """ln Z of `loglik` over the grid oracle's first (unrefined) grid."""
    _, a_wts = mixture_module._alpha_nodes(a0, mixture_module._ALPHA_NODES)
    lo, hi, panels = _mixture_u_bracket(data, _BRACKET_DROP)
    _, u_wts = _panel_nodes(lo, hi, panels, _NODES_PER_PANEL)
    return logsumexp(loglik, b=a_wts[:, None] * u_wts[None, :])


# weights down to 1e-300 and up to 1 - 1e-15, where one mixture term is
# negligible against the other
_EXTREME_WEIGHTS = (1e-300, 1e-20, 1e-8, 0.5, 1.0 - 1e-8, 1.0 - 1e-12, 1.0 - 1e-15)


class TestGridPosterior:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=40),
        st.lists(st.floats(1e-300, 1.0 - 1e-16), max_size=5),
        st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8),
    )
    def test_kernel_matches_per_observation_logaddexp(self, values, alphas, us):
        values = np.array(values)
        alpha = np.array(_EXTREME_WEIGHTS + tuple(alphas))
        u = np.array(us)
        got = _mixture_loglik_grid(CountDataset(values), alpha, u)
        ref = _logaddexp_loglik_grid(values, np.ones(values.size), alpha, u)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("k", [1, 15, 16, 17, 96, 192])
    def test_blocked_kernel_equals_the_unblocked_loop(self, k):
        # alpha axes shorter than, equal to and past one block of rows, and
        # the oracle's two rules, with the extreme weights in the first rows
        alpha, _ = mixture_module._alpha_nodes(0.5, k)
        alpha[: len(_EXTREME_WEIGHTS)] = _EXTREME_WEIGHTS[:k]
        for data in (_grid_case(300, 0), _grid_case(1000, 1), _grid_case(50, 2)):
            lo, hi, panels = _mixture_u_bracket(data, _BRACKET_DROP)
            u, _ = _panel_nodes(lo, hi, panels, _NODES_PER_PANEL)
            assert np.array_equal(_mixture_loglik_grid(data, alpha, u), _unblocked_loglik_grid(data, alpha, u))

    def test_grid_matches_the_logaddexp_kernel(self, monkeypatch):
        # 24 of the (n, a0, family) cases: every n with every family, each
        # a0 once per family; (1000, 50, Poisson(200)) fails refinement
        # under both kernels
        a0s = (0.001, 0.01, 0.1, 1.0, 5.0, 50.0)
        for family in range(4):
            for i, n in enumerate((1, 3, 10, 50, 300, 1000)):
                data, spec = _grid_case(n, family), MixtureSpec(a0s[(2 * family - i) % 6])
                runs = []
                for kernel in (_mixture_loglik_grid, _grouped_logaddexp_kernel):
                    grids = []
                    monkeypatch.setattr(mixture_module, "_mixture_loglik_grid", _recording(kernel, grids))
                    try:
                        post = grid_posterior_alpha(data, spec)
                        runs.append((post.mean, post.median, grids))
                    except AccuracyError as exc:  # the refined grid moved it: no median
                        runs.append((exc.estimate, None, grids))
                (mean, median, grids), (ref_mean, ref_median, ref_grids) = runs
                case = (n, spec.a0, family)
                assert abs(mean - ref_mean) <= 1e-13, case
                assert (median is None) == (ref_median is None), case
                if median is not None:
                    assert abs(median - ref_median) <= 1e-12, case
                log_z, ref_log_z = (_base_log_normalizer(data, spec.a0, g[0]) for g in (grids, ref_grids))
                assert abs(log_z - ref_log_z) <= 1e-11, case

    @pytest.mark.parametrize("a0", [0.01, 0.5, 5.0])
    @pytest.mark.parametrize("case", ["oracle_shaped", "ten_counts", "geometric_mean_20"])
    def test_in_place_integration_keeps_every_bit(self, case, a0):
        data = {
            "oracle_shaped": _oracle_shaped_case,
            "ten_counts": lambda: _TEN_COUNTS,
            "geometric_mean_20": lambda: CountDataset(np.random.default_rng(20).geometric(1.0 / 21.0, 1000) - 1),
        }[case]()
        spec = MixtureSpec(a0)
        got, ref = grid_posterior_alpha(data, spec), _reference_grid_posterior(data, spec)
        for name in ("alpha_grid", "density", "node_mass"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        for name in ("mean", "median", "normalization_error"):
            assert getattr(got, name) == getattr(ref, name), name

    @pytest.mark.parametrize("case", ["oracle_shaped", "ten_counts"])
    def test_peak_memory_is_under_two_refined_matrices(self, case):
        data = _oracle_shaped_case() if case == "oracle_shaped" else _TEN_COUNTS
        spec = MixtureSpec(0.5)
        _, _, panels = _mixture_u_bracket(data, _BRACKET_DROP + 20.0)
        refined_bytes = 2 * mixture_module._ALPHA_NODES * panels * (_NODES_PER_PANEL + 8) * 8
        grid_posterior_alpha(data, spec)  # the first call fills scipy's caches
        tracemalloc.start()
        try:
            grid_posterior_alpha(data, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * refined_bytes, peak / refined_bytes

    def test_normalization_and_location(self):
        post = grid_posterior_alpha(pinned_dataset(20), MixtureSpec(0.5))
        assert post.node_mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert post.normalization_error <= 1e-8
        assert 0.0 < post.mean < 1.0
        assert 0.0 < post.median < 1.0

    def test_density_matches_plain_grid_when_a0_is_one(self):
        # with a0=1 the Jacobi rule is plain Legendre, so brute-force
        # normalization on a fine uniform grid must agree with the density
        data = pinned_dataset(10, stream=6)
        spec = MixtureSpec(1.0)
        post = grid_posterior_alpha(data, spec)
        from bayes_arbiter.mixture import _mixture_loglik_grid, _mixture_u_bracket
        from bayes_arbiter.evidence import _panel_nodes

        alphas = np.linspace(1e-4, 1 - 1e-4, 4001)
        lo, hi, panels = _mixture_u_bracket(data, 40.0)
        u, w = _panel_nodes(lo, hi, panels, 24)
        loglik = _mixture_loglik_grid(data, alphas, u)
        marg = (np.exp(loglik - loglik.max()) * w[None, :]).sum(axis=1)
        dens = marg / np.trapezoid(marg, alphas)
        interp = np.interp(post.alpha_grid, alphas, dens)
        assert np.max(np.abs(post.density - interp) / interp.max()) < 1e-3

    def test_unconverged_raises_accuracy_error(self):
        # at n = 10^4 the weight posterior is too narrow for the grid: the
        # refined grid moves the mean by about 1e-4
        data = large_mixed_dataset()
        for a0 in (0.01, 0.5, 5.0):
            with pytest.raises(AccuracyError, match="grid refinement") as exc:
                grid_posterior_alpha(data, MixtureSpec(a0))
            assert 0.0 < exc.value.estimate < 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneracyError):
            grid_posterior_alpha(CountDataset([0, 0]), MixtureSpec(0.5))

    def test_weight_rule_without_finite_nodes_raises_accuracy_error(self):
        # MixtureSpec refuses a0 above 1000; past about 1403 scipy's
        # Gauss-Jacobi nodes turn NaN, and the rule is refused, not used
        for k in (mixture_module._ALPHA_NODES, 2 * mixture_module._ALPHA_NODES):
            nodes, weights = mixture_module._alpha_nodes(1000.0, k)
            assert np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
        with pytest.raises(AccuracyError, match="Gauss-Jacobi"):
            mixture_module._alpha_nodes(1e5, mixture_module._ALPHA_NODES)


class TestPosteriorSummary:
    def test_constant_chain(self):
        s = posterior_summary(make_chain(np.full(100, 0.7)))
        assert s.alpha_mean == pytest.approx(0.7, abs=1e-15)
        assert s.alpha_median == pytest.approx(0.7, abs=1e-15)

    def test_decile_chain_median(self):
        s = posterior_summary(make_chain([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]))
        assert s.alpha_median == pytest.approx(0.5, abs=1e-15)

    def test_quantile_monotonicity(self):
        rng = Rng(RngSeed(99, 0))
        s = posterior_summary(make_chain(rng.uniform(500)), quantiles=(0.1, 0.5, 0.9))
        assert (
            s.alpha_quantiles[0.1] <= s.alpha_quantiles[0.5] <= s.alpha_quantiles[0.9]
        )

    def test_empty_chain_rejected(self):
        chain = MixtureChain(
            alpha_draws=np.empty(0),
            lambda_draws=np.empty(0),
            iterations=10,
            burn_in=10,
            mh_acceptance_rate=0.0,
            seed=RngSeed(0),
        )
        with pytest.raises(ValueError):
            posterior_summary(chain)

    def test_bad_quantiles_rejected(self):
        with pytest.raises(ValueError):
            posterior_summary(make_chain([0.5, 0.6]), quantiles=(1.2,))
