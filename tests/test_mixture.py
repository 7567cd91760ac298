import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_expit

from bayes_arbiter.distributions import CountDataset, _component_log_pmfs
from bayes_arbiter.errors import AccuracyError, DegeneracyError
from bayes_arbiter import special
from bayes_arbiter.evidence import QuadratureConfig
from bayes_arbiter.mixture import (
    McmcConfig,
    MixtureChain,
    MixtureSpec,
    _marginal_loglik,
    allocation_probability,
    conditional_alpha,
    grid_posterior_alpha,
    log_lambda_conditional,
    posterior_summary,
    run_gibbs,
    run_gibbs_chains,
    run_marginal_mh,
)
from bayes_arbiter.rng import Rng, RngSeed
from bayes_arbiter.special import log_factorial


def pinned_dataset(n: int, stream: int = 0, mean: float = 4.0) -> CountDataset:
    values = Rng(RngSeed(777, stream)).poisson(mean, size=n)
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


def _reference_log_u_conditional(u, n1, n2, s1, s2):
    if u > 690.0:
        return -math.inf
    return (s1 + s2) * u - n1 * math.exp(u) - (s2 + n2) * float(np.logaddexp(0.0, u))


def _reference_gibbs(data, spec, seed, config):
    """One latent-allocation Gibbs chain, one scalar sweep per iteration."""
    from scipy.special import expit

    rng = Rng(seed)
    values = data.values.astype(np.float64)
    lfact = log_factorial(data.values)
    n, total = data.n, data.total
    kept = config.iterations - config.burn_in
    alphas, lambdas = np.empty(kept), np.empty(kept)
    log_step = math.log(config.initial_step)
    accepted = 0
    alpha = min(max(float(rng.beta(spec.a0, spec.a0)), 1e-12), 1.0 - 1e-12)
    v = math.log(data.mean)
    for it in range(config.iterations):
        lf1, lf2 = _component_log_pmfs(values, lfact, v)
        in1 = rng.uniform(n) < expit((math.log(alpha) - math.log1p(-alpha)) + (lf1 - lf2))
        n1 = int(in1.sum())
        s1 = int(in1.dot(values))
        counts = (n1, n - n1, s1, total - s1)
        alpha = float(rng.beta(*conditional_alpha(n1, n - n1, spec.a0)))
        alpha = min(max(alpha, 1e-300), 1.0 - 1e-16)
        v_prop = v + rng.normal(0.0, math.exp(log_step))
        log_ratio = _reference_log_u_conditional(v_prop, *counts) - _reference_log_u_conditional(v, *counts)
        accept_prob = 1.0 if log_ratio >= 0.0 else math.exp(log_ratio)
        moved = rng.uniform() < accept_prob
        if moved:
            v = v_prop
        if it < config.burn_in:
            log_step += (it + 1.0) ** -0.6 * (accept_prob - 0.44)
        else:
            accepted += moved
            alphas[it - config.burn_in], lambdas[it - config.burn_in] = alpha, math.exp(v)
    return alphas, lambdas, accepted / kept


class TestSpecAndState:
    def test_component_roles_are_fixed(self):
        for a0 in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                MixtureSpec(a0=a0)

    def test_mcmc_config_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=100, burn_in=100)
        with pytest.raises(ValueError):
            McmcConfig(initial_step=0.0)


class TestConditionals:
    def test_conditional_alpha_prior_recovered(self):
        assert conditional_alpha(0, 0, 0.5) == (0.5, 0.5)

    def test_conditional_alpha_conjugate_algebra(self):
        a, b = conditional_alpha(3, 7, 0.5)
        assert (a, b) == (3.5, 7.5)
        assert a / (a + b) == pytest.approx(3.5 / 11.0, abs=1e-15)

    def test_conditional_alpha_exhaustive_sweep(self):
        for a0 in (0.1, 0.5, 1.0):
            for n1 in range(0, 31):
                for n2 in range(0, 31 - n1):
                    a, b = conditional_alpha(n1, n2, a0)
                    assert a == a0 + n1
                    assert b == a0 + n2

    def test_allocation_probability_reference_points(self):
        # e^-1 / (e^-1 + 1/2), frozen by direct evaluation
        assert allocation_probability(0, 0.5, 1.0) == pytest.approx(
            0.4238831152341709, abs=1e-12
        )
        # Poisson(1) at 10 vs geometric: 1.01e-7 vs 2^-11
        assert allocation_probability(10, 0.5, 1.0) == pytest.approx(
            0.00020757845633858217, rel=1e-10
        )

    def test_allocation_probability_symmetric_boundary(self):
        # as lambda -> 0 both log pmfs at x=0 coincide, so alpha=1/2 splits evenly
        assert allocation_probability(0, 0.5, 1e-9) == pytest.approx(0.5, abs=1e-9)

    def test_allocation_probability_vector_and_domain(self):
        p = allocation_probability(np.array([0, 1, 10]), 0.3, 2.0)
        assert p.shape == (3,)
        assert np.all((p > 0) & (p < 1))
        with pytest.raises(ValueError):
            allocation_probability(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            allocation_probability(1, 0.5, -1.0)

    def test_log_lambda_conditional_reference(self):
        assert log_lambda_conditional(1.0, n1=1, n2=0, s1=1, s2=0) == pytest.approx(-1.0, abs=1e-14)

    def test_log_lambda_conditional_degenerate(self):
        with pytest.raises(DegeneracyError):
            log_lambda_conditional(1.0, n1=0, n2=3, s1=0, s2=0)

    def test_log_lambda_conditional_ratio_structure(self):
        # MH ratios depend only on differences; check against the expanded form
        n1, n2, s1, s2 = 4, 6, 9, 11
        l1, l2 = 2.0, 3.5
        diff = log_lambda_conditional(l2, n1, n2, s1, s2) - log_lambda_conditional(l1, n1, n2, s1, s2)
        expected = (
            (s1 + s2 - 1) * math.log(l2 / l1)
            - n1 * (l2 - l1)
            - (s2 + n2) * (math.log1p(l2) - math.log1p(l1))
        )
        assert diff == pytest.approx(expected, abs=1e-12)


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
            distinct.astype(np.float64), log_factorial(distinct), counts.astype(np.float64),
            log_alpha, log_1m_alpha, v,
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

    @pytest.mark.parametrize(
        "config", [McmcConfig(1_000, 300), McmcConfig(600, 0, initial_step=200.0)]
    )
    def test_lockstep_chains_match_scalar_reference(self, config, monkeypatch):
        cells = [
            (pinned_dataset(n, stream=i), MixtureSpec(a0), RngSeed(41, i))
            for i, (n, a0) in enumerate(
                (n, a0) for n in (1, 10, 1000) for a0 in (0.001, 0.5, 3.0)
            )
        ]
        # log-factorial table entries depend on the order of the calls
        # that grow it, so both runs start from an empty table
        monkeypatch.setattr(special, "_LOG_FACTORIAL_TABLE", np.zeros(1))
        chains = run_gibbs_chains(cells, config)
        table = special._LOG_FACTORIAL_TABLE
        monkeypatch.setattr(special, "_LOG_FACTORIAL_TABLE", np.zeros(1))
        refs = [_reference_gibbs(*cell, config) for cell in cells]
        assert np.array_equal(special._LOG_FACTORIAL_TABLE, table)
        for chain, cell, (alphas, lambdas, rate) in zip(chains, cells, refs):
            assert np.array_equal(chain.alpha_draws, alphas)
            assert np.array_equal(chain.lambda_draws, lambdas)
            assert chain.mh_acceptance_rate == rate
            assert bool(chain.warnings) == (not 0.05 <= rate <= 0.95)
            assert chain.seed == cell[2]
        if config.burn_in == 0:
            assert all(chain.warnings for chain in chains)
        for chain, back in zip(chains, reversed(run_gibbs_chains(cells[::-1], config))):
            assert np.array_equal(chain.alpha_draws, back.alpha_draws)
            assert np.array_equal(chain.lambda_draws, back.lambda_draws)
            assert (chain.mh_acceptance_rate, chain.warnings) == (back.mh_acceptance_rate, back.warnings)
        single = run_gibbs(*cells[4][:2], config, cells[4][2])
        assert np.array_equal(single.alpha_draws, chains[4].alpha_draws)
        assert np.array_equal(single.lambda_draws, chains[4].lambda_draws)
        assert (single.mh_acceptance_rate, single.warnings) == (chains[4].mh_acceptance_rate, chains[4].warnings)

    def test_marginal_mh_deterministic(self):
        data = pinned_dataset(20)
        cfg = McmcConfig(iterations=2_000, burn_in=500)
        a = run_marginal_mh(data, MixtureSpec(0.5), cfg, RngSeed(3, 10))
        b = run_marginal_mh(data, MixtureSpec(0.5), cfg, RngSeed(3, 10))
        assert np.array_equal(a.alpha_draws, b.alpha_draws)

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
        # no burn-in, so no adaptation, and an absurd step size force
        # near-zero acceptance
        data = pinned_dataset(20)
        cfg = McmcConfig(iterations=1_500, burn_in=0, initial_step=200.0)
        chain = run_gibbs(data, MixtureSpec(0.5), cfg, RngSeed(8, 0))
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
        # a0 near 1e-4 underflows both gamma draws of a Beta(a0, a0) draw
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


class TestGridPosterior:
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
        lo, hi, panels = _mixture_u_bracket(data, QuadratureConfig(), 40.0)
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
