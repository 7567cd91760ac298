import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import betaincinv, gammaincinv, ndtr

from bayes_arbiter.calibration import (
    CalibrationReport,
    DISCREPANCIES,
    GeometricImproperMeanModel,
    NormalPointNullModel,
    NormalUnitPriorModel,
    PoissonImproperMeanModel,
    bootstrap_alpha_cutoff,
    discrepancy_mean,
    nonzero_counts,
    discrepancy_zero_count,
    posterior_predictive_pvalue,
    predictive_bf_tails,
)
from bayes_arbiter.distributions import CountDataset
from bayes_arbiter.errors import DegeneracyError, ImproperEvidenceError
from bayes_arbiter.evidence import NormalSummary, log_bf01_lindley, log_bf12_shared_improper
from bayes_arbiter.mixture import McmcConfig, MixtureSpec, run_gibbs
from bayes_arbiter.rng import Rng, RngSeed


def lindley_statistic(summary: NormalSummary) -> float:
    return log_bf01_lindley(summary.n, summary.t_statistic).log_bf


def log_bf12(data: CountDataset) -> float:
    return log_bf12_shared_improper(data).log_bf


class FixedReplicateModel:
    """Prior-mode model whose every replicate is the same dataset."""

    def __init__(self, values):
        self.values = values

    def draw_param_prior(self, rng):
        return None

    def replicate(self, theta, rng):
        return CountDataset(self.values)


class TestPredictiveBfTails:
    def test_constant_statistic_gives_all_ties(self):
        obs = NormalSummary(25, 0.3)
        rep = predictive_bf_tails(
            obs,
            NormalPointNullModel(25),
            NormalUnitPriorModel(25),
            statistic=lambda s: 1.0,
            mode="prior",
            n_rep=500,
            seed=RngSeed(1),
        )
        assert rep.p0 == 1.0
        assert rep.p1 == 1.0

    def test_observed_at_null_boundary(self):
        # xbar = 0 maximises B01; the >= tie set has measure zero under the
        # continuous null and the <= set is everything under the alternative
        obs = NormalSummary(25, 0.0)
        rep = predictive_bf_tails(
            obs,
            NormalPointNullModel(25),
            NormalUnitPriorModel(25),
            statistic=lindley_statistic,
            mode="prior",
            n_rep=2_000,
            seed=RngSeed(2),
        )
        assert rep.p0 == 0.0
        assert rep.p1 == 1.0

    def test_prior_mode_matches_gaussian_tail_closed_form(self):
        # under the null, B01(X) >= B01(obs) iff |Z| <= t_obs with Z std normal
        n, xbar = 25, 0.3
        obs = NormalSummary(n, xbar)
        rep = predictive_bf_tails(
            obs,
            NormalPointNullModel(n),
            NormalUnitPriorModel(n),
            statistic=lindley_statistic,
            mode="prior",
            n_rep=10_000,
            seed=RngSeed(3),
        )
        t_obs = math.sqrt(n) * abs(xbar)
        p0_exact = 2.0 * ndtr(t_obs) - 1.0
        # under the alternative, t ~ |N(0, n+1)| so B01 <= obs iff |Z| >= t/sqrt(n+1)
        p1_exact = 2.0 * (1.0 - ndtr(t_obs / math.sqrt(n + 1.0)))
        assert abs(rep.p0 - p0_exact) <= 3.0 * max(rep.mc_se_p0, 1e-3)
        assert abs(rep.p1 - p1_exact) <= 3.0 * max(rep.mc_se_p1, 1e-3)

    def test_small_run_consistent_with_large_run(self):
        obs = NormalSummary(16, 0.4)
        kwargs = dict(
            model0=NormalPointNullModel(16),
            model1=NormalUnitPriorModel(16),
            statistic=lindley_statistic,
            mode="prior",
        )
        small = predictive_bf_tails(obs, n_rep=10_000, seed=RngSeed(4), **kwargs)
        big = predictive_bf_tails(obs, n_rep=100_000, seed=RngSeed(5), **kwargs)
        se = math.sqrt(small.mc_se_p0**2 + big.mc_se_p0**2)
        assert abs(small.p0 - big.p0) <= 3.0 * se

    def test_posterior_mode_count_models(self):
        obs = CountDataset(Rng(RngSeed(6, 0)).poisson(4.0, size=30))
        rep = predictive_bf_tails(
            obs,
            PoissonImproperMeanModel(30),
            GeometricImproperMeanModel(30),
            statistic=lambda d: log_bf12_shared_improper(d).log_bf,
            mode="posterior",
            n_rep=400,
            seed=RngSeed(7),
        )
        assert 0.0 <= rep.p0 <= 1.0
        assert 0.0 <= rep.p1 <= 1.0
        # Poisson data should not look extreme under the Poisson predictive
        assert rep.p0 > 0.05

    def test_tie_mass_with_discrete_statistic(self):
        # zero-count statistic on tiny Poisson data has large tie probability;
        # both tails must then exceed what strict inequalities would give
        obs = CountDataset([0, 1, 0, 2, 0])
        rep = predictive_bf_tails(
            obs,
            PoissonImproperMeanModel(5),
            GeometricImproperMeanModel(5),
            statistic=lambda d: discrepancy_zero_count(
                d.values if isinstance(d, CountDataset) else d, None
            ),
            mode="posterior",
            n_rep=4_000,
            seed=RngSeed(8),
        )
        assert rep.p0 + rep.p1 > 1.0  # overlap = tie mass, counted on both sides

    def test_degenerate_replicates_redrawn_and_counted(self):
        # observed total of 1 makes all-zero replicates common (the BF is
        # undefined there); they must be redrawn, counted, and not crash
        obs = CountDataset([1])
        rep = predictive_bf_tails(
            obs,
            PoissonImproperMeanModel(1),
            GeometricImproperMeanModel(1),
            statistic=lambda d: log_bf12_shared_improper(d).log_bf,
            mode="posterior",
            n_rep=500,
            seed=RngSeed(23),
        )
        assert rep.n_degenerate_p0 > 50  # about half of the draws degenerate
        assert 0.0 <= rep.p0 <= 1.0
        assert 0.0 <= rep.p1 <= 1.0

    def test_ties_within_rounding_count_on_both_tails(self):
        # both log BF12 values are ln(10/9) in exact arithmetic, but their
        # floating-point evaluations differ in the last bits
        a, b = [1, 0, 2], [2, 2, 0]
        assert log_bf12(CountDataset(a)) != log_bf12(CountDataset(b))
        for obs, other in ((a, b), (b, a)):
            model = FixedReplicateModel(other)
            rep = predictive_bf_tails(
                CountDataset(obs), model, model, statistic=log_bf12, mode="prior", n_rep=100, seed=RngSeed(0)
            )
            assert (rep.p0, rep.p1) == (1.0, 1.0)

    def test_improper_prior_mode_raises(self):
        obs = CountDataset([1, 2])
        with pytest.raises(ImproperEvidenceError):
            predictive_bf_tails(
                obs,
                PoissonImproperMeanModel(2),
                GeometricImproperMeanModel(2),
                statistic=lambda d: 0.0,
                mode="prior",
                n_rep=100,
                seed=RngSeed(9),
            )

    def test_missing_posterior_sampler_message(self):
        class PriorOnly:
            def draw_param_prior(self, rng):
                return 1.0

            def replicate(self, lam, rng):
                return CountDataset([1])

        with pytest.raises(TypeError, match="draw_param_posterior"):
            predictive_bf_tails(
                CountDataset([1]),
                PriorOnly(),
                PriorOnly(),
                statistic=lambda d: 0.0,
                mode="posterior",
                n_rep=100,
                seed=RngSeed(10),
            )

    def test_mode_and_nrep_validation(self):
        obs = NormalSummary(4, 0.0)
        with pytest.raises(ValueError):
            predictive_bf_tails(
                obs, NormalPointNullModel(4), NormalUnitPriorModel(4),
                statistic=lindley_statistic, mode="predictive", n_rep=200,
            )
        with pytest.raises(ValueError):
            predictive_bf_tails(
                obs, NormalPointNullModel(4), NormalUnitPriorModel(4),
                statistic=lindley_statistic, mode="prior", n_rep=10,
            )

    def test_mc_se_matches_binomial_formula(self):
        rep = CalibrationReport(p0=0.3, p1=0.8, n_rep=400, mode="prior")
        assert rep.mc_se_p0 == math.sqrt(0.3 * 0.7 / 400)
        assert rep.mc_se_p1 == math.sqrt(0.8 * 0.2 / 400)


def _dataset(total: int, n: int) -> CountDataset:
    return CountDataset([total] + [0] * (n - 1))


# (S, n): from one count to the largest int64 totals, and one count in 10^5
POSTERIOR_CASES = [(1, 1), (10, 4), (1225, 50), (10**14, 1), (9 * 10**18, 1), (1, 10**5)]


class TestCountPosteriors:
    @pytest.mark.parametrize("total, n", POSTERIOR_CASES)
    def test_law(self, total, n):
        # lambda | x is Gamma(S, rate n) under Poisson sampling and
        # BetaPrime(S, n) under geometric sampling; a clamp at B = 1 - 1e-15
        # put 9% of the geometric draws on one value at S = 1e14
        data = _dataset(total, n)
        for model, law, stream in (
            (PoissonImproperMeanModel(n), stats.gamma(total, scale=1.0 / n), 0),
            (GeometricImproperMeanModel(n), stats.betaprime(total, n), 1),
        ):
            rng = Rng(RngSeed(40, stream))
            draws = np.array([model.draw_param_posterior(data, rng) for _ in range(4000)])
            assert np.all(np.isfinite(draws) & (draws > 0.0))
            assert stats.kstest(draws, law.cdf).pvalue > 0.01, type(model).__name__

    def test_each_draw_takes_one_uniform(self):
        def after(draw):
            rng = Rng(RngSeed(41))
            value = draw(rng)
            return value, rng.uniform()

        u, next_u = Rng(RngSeed(41)).uniform(2).tolist()
        for shape in (1e-3, 0.5, 1.0, 50.5, 1e14):
            assert after(lambda r: r.gamma(shape)) == (gammaincinv(shape, u), next_u)
        for a, b in ((1e-3, 0.5), (0.5, 0.5), (37.0, 10.0), (1e14, 1.0)):
            assert after(lambda r: r.beta(a, b)) == (betaincinv(a, b, u), next_u)
        for total, n in POSTERIOR_CASES:
            data = _dataset(total, n)
            for model in (PoissonImproperMeanModel(n), GeometricImproperMeanModel(n)):
                assert after(lambda r: model.draw_param_posterior(data, r))[1] == next_u


class TestPosteriorPredictivePvalue:
    def test_constant_discrepancy_is_one(self):
        obs = CountDataset([1, 2, 3])
        p = posterior_predictive_pvalue(
            obs, [2.0], "poisson", lambda x, t: 7.0, n_rep=500, seed=RngSeed(14)
        )
        assert p == 1.0

    def test_extreme_observed_mean(self):
        obs = CountDataset([100] * 20)
        p = posterior_predictive_pvalue(
            obs, [4.0], "poisson", discrepancy_mean, n_rep=5_000, seed=RngSeed(15)
        )
        assert p < 0.001

    def test_two_disjoint_seeds_agree(self):
        obs = CountDataset(Rng(RngSeed(16, 0)).poisson(4.0, size=40))
        rng = Rng(RngSeed(16, 1))
        draws = [rng.normal(4.0, 0.1) for _ in range(200)]
        p_a = posterior_predictive_pvalue(obs, draws, "poisson", discrepancy_mean, 20_000, RngSeed(17))
        p_b = posterior_predictive_pvalue(obs, draws, "poisson", discrepancy_mean, 20_000, RngSeed(18))
        se = math.sqrt(p_a * (1 - p_a) / 20_000 + p_b * (1 - p_b) / 20_000)
        assert abs(p_a - p_b) <= 3.0 * max(se, 1e-3)

    def test_nan_discrepancy_raises(self):
        obs = CountDataset([1, 2, 3])
        with pytest.raises(ValueError, match="NaN"):
            posterior_predictive_pvalue(
                obs, [2.0], "poisson", lambda x, t: math.nan, n_rep=100, seed=RngSeed(14)
            )

    def test_ties_within_rounding_count(self):
        # the observed discrepancy is 0.1 * 3 = 0.30000000000000004, every
        # replicate's is 0.3: a tie that exact comparison would miss
        obs = CountDataset([1, 2, 3])
        p = posterior_predictive_pvalue(
            obs, [2.0], "poisson", lambda x, t: 0.1 * 3 if x is obs.values else 0.3,
            n_rep=100, seed=RngSeed(14),
        )
        assert p == 1.0

    def test_non_finite_posterior_draw_raises(self):
        # an infinite geometric mean drew -2^63 counts, and a NaN Poisson
        # mean never left the inversion loop
        obs = CountDataset([1, 2, 3])
        for family, lam in (("geometric", math.inf), ("poisson", math.nan), ("poisson", math.inf)):
            with pytest.raises(ValueError, match="mean must be positive"):
                posterior_predictive_pvalue(obs, [lam], family, discrepancy_mean, n_rep=10, seed=RngSeed(14))

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError, match="n_rep"):
            posterior_predictive_pvalue(CountDataset([1, 2, 3]), [2.0], "poisson", discrepancy_mean, n_rep=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            posterior_predictive_pvalue(CountDataset([1, 2]), [4.0], "normal", discrepancy_mean, 1)
        with pytest.raises(ValueError):
            posterior_predictive_pvalue(CountDataset([1, 2]), [], "poisson", discrepancy_mean, 1)

    def test_shipped_discrepancies(self):
        x = np.array([0, 2, 5, 0])
        assert DISCREPANCIES["mean"](x, None) == pytest.approx(1.75)
        assert DISCREPANCIES["variance"](x, None) == pytest.approx(np.var(x))
        assert DISCREPANCIES["max"](x, None) == 5.0
        assert DISCREPANCIES["zeros"](x, None) == 2.0


class TestNonzeroCounts:
    def test_redraws_are_bounded(self):
        # e^-1e-17 rounds to 1, so every Poisson draw is 0 and no redraw can help
        with pytest.raises(DegeneracyError, match="1000 datasets of 5 poisson counts at mean 1e-17"):
            nonzero_counts("poisson", 1e-17, 5, RngSeed(1), 10, 0)
        # a rare nonzero set is still found: P(all zero) = e^-0.2 per attempt
        data, attempt = nonzero_counts("poisson", 0.2, 1, RngSeed(1), 10, 0)
        assert data.total >= 1 and attempt >= 0

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            nonzero_counts("geometric", 4.0, 0, RngSeed(1))
        with pytest.raises(ValueError, match="n must be at least 1"):
            bootstrap_alpha_cutoff(MixtureSpec(0.5), "poisson", 4.0, 0, 20)


@pytest.fixture(scope="module")
def poisson_cutoff():
    return bootstrap_alpha_cutoff(
        MixtureSpec(0.5),
        generator="poisson",
        lambda_true=4.0,
        n_obs=300,
        replicas=20,
        mcmc=McmcConfig(iterations=2_500, burn_in=500),
        summary="median",
        q=0.1,
        seed=RngSeed(19),
    )


class TestBootstrapCutoff:
    def test_poisson_truth_cutoff_above_half(self, poisson_cutoff):
        # the weight posterior concentrates near 1 under the Poisson truth
        assert poisson_cutoff.cutoff > 0.5
        assert len(poisson_cutoff.alpha_summaries) == 20

    def test_q_zero_is_minimum_and_monotone(self):
        kwargs = dict(
            generator="poisson",
            lambda_true=4.0,
            n_obs=50,
            replicas=20,
            mcmc=McmcConfig(iterations=600, burn_in=100),
            seed=RngSeed(20),
        )
        cuts = [bootstrap_alpha_cutoff(MixtureSpec(0.5), q=q, **kwargs) for q in (0.0, 0.1, 0.9)]
        assert cuts[0].cutoff == min(cuts[0].alpha_summaries)
        assert cuts[0].cutoff <= cuts[1].cutoff <= cuts[2].cutoff

    def test_deterministic(self):
        kwargs = dict(
            generator="poisson",
            lambda_true=4.0,
            n_obs=50,
            replicas=20,
            mcmc=McmcConfig(iterations=600, burn_in=100),
            summary="mean",
            q=0.25,
            seed=RngSeed(20),
        )
        a = bootstrap_alpha_cutoff(MixtureSpec(0.5), **kwargs)
        b = bootstrap_alpha_cutoff(MixtureSpec(0.5), **kwargs)
        assert a == b

    @pytest.mark.parametrize(
        "generator, lambda_true, n_obs, summary",
        # the geometric case redraws most of its all-zero datasets
        [("poisson", 4.0, 50, "mean"), ("geometric", 0.05, 5, "median")],
    )
    def test_summaries_equal_one_chain_per_replica(self, generator, lambda_true, n_obs, summary):
        mcmc, seed = McmcConfig(iterations=500, burn_in=100), RngSeed(21)
        got = bootstrap_alpha_cutoff(
            MixtureSpec(0.3), generator, lambda_true, n_obs, 20, mcmc, summary, 0.2, seed
        )
        ref, redrawn = [], 0
        for r in range(20):
            data, attempt = nonzero_counts(generator, lambda_true, n_obs, seed, 10, r)
            redrawn += attempt
            draws = run_gibbs(data, MixtureSpec(0.3), mcmc, seed.child(11, r, attempt)).alpha_draws
            ref.append(float(draws.mean() if summary == "mean" else np.median(draws)))
        assert got.alpha_summaries == tuple(ref)
        assert got.n_resimulated == redrawn
        assert (generator == "geometric") == (redrawn > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_alpha_cutoff(MixtureSpec(0.5), "binomial", 4.0, 10, 20)
        with pytest.raises(ValueError):
            bootstrap_alpha_cutoff(MixtureSpec(0.5), "poisson", 4.0, 10, 5)
        with pytest.raises(ValueError):
            bootstrap_alpha_cutoff(MixtureSpec(0.5), "poisson", 4.0, 10, 20, summary="mode")
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="lambda_true must be positive and finite"):
                bootstrap_alpha_cutoff(MixtureSpec(0.5), "poisson", bad, 10, 20)
