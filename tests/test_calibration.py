import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import betaincinv, gammaincinv, ndtr

from bayes_arbiter import calibration
from bayes_arbiter import rng as rng_module
from bayes_arbiter.calibration import (
    CalibrationReport,
    DISCREPANCIES,
    _at_least,
    bootstrap_alpha_cutoff,
    discrepancy_mean,
    lambda_posterior_draws,
    nonzero_counts,
    posterior_predictive_pvalue,
    predictive_bf_tails,
)
from bayes_arbiter.distributions import CountDataset
from bayes_arbiter.errors import DegeneracyError, ImproperEvidenceError
from bayes_arbiter.evidence import NormalSummary, log_bf12_shared_improper
from bayes_arbiter.mixture import McmcConfig, MixtureSpec, run_gibbs
from bayes_arbiter.rng import Rng, RngSeed


def log_bf12(data: CountDataset) -> float:
    return log_bf12_shared_improper(data).log_bf


class TestPredictiveBfTails:
    def test_observed_at_null_boundary(self):
        # xbar = 0 maximises B01; the >= tie set has measure zero under the
        # continuous null and the <= set is everything under the alternative
        rep = predictive_bf_tails(NormalSummary(25, 0.0), mode="prior", n_rep=2_000, seed=RngSeed(2))
        assert rep.p0 == 0.0
        assert rep.p1 == 1.0

    def test_prior_mode_matches_gaussian_tail_closed_form(self):
        # under the null, B01(X) >= B01(obs) iff |Z| <= t_obs with Z std normal
        n, xbar = 25, 0.3
        rep = predictive_bf_tails(NormalSummary(n, xbar), mode="prior", n_rep=10_000, seed=RngSeed(3))
        t_obs = math.sqrt(n) * abs(xbar)
        p0_exact = 2.0 * ndtr(t_obs) - 1.0
        # under the alternative, t ~ |N(0, n+1)| so B01 <= obs iff |Z| >= t/sqrt(n+1)
        p1_exact = 2.0 * (1.0 - ndtr(t_obs / math.sqrt(n + 1.0)))
        assert abs(rep.p0 - p0_exact) <= 3.0 * max(rep.mc_se_p0, 1e-3)
        assert abs(rep.p1 - p1_exact) <= 3.0 * max(rep.mc_se_p1, 1e-3)

    def test_small_run_consistent_with_large_run(self):
        obs = NormalSummary(16, 0.4)
        small = predictive_bf_tails(obs, mode="prior", n_rep=10_000, seed=RngSeed(4))
        big = predictive_bf_tails(obs, mode="prior", n_rep=100_000, seed=RngSeed(5))
        se = math.sqrt(small.mc_se_p0**2 + big.mc_se_p0**2)
        assert abs(small.p0 - big.p0) <= 3.0 * se

    @pytest.mark.parametrize("mode", ["prior", "posterior"])
    def test_normal_tails_read_the_standardized_mean(self, mode):
        # the posterior of theta once took the raw xbar: with theta0 = 1,
        # p1 read 0.99985 instead of 0.498
        reports = [
            predictive_bf_tails(obs, mode=mode, n_rep=20_000, seed=RngSeed(3))
            for obs in (NormalSummary(25, 0.3), NormalSummary(25, 1.3, theta0=1.0), NormalSummary(25, 0.6, sigma=2.0))
        ]
        assert reports[0] == reports[1] == reports[2]
        # a model-1 replicate's sqrt(n) zbar is N(mean, sd^2), from the prior
        # N(0, 1) or the posterior N(n z / (n+1), 1/(n+1)) of theta; B01 is at
        # most the observed one iff its size is at least t = sqrt(n) z
        n, t = 25, 1.5
        mean, sd = (0.0, math.sqrt(n + 1.0)) if mode == "prior" else (n * t / (n + 1.0), math.sqrt(1.0 + n / (n + 1.0)))
        p1_exact = ndtr((-t - mean) / sd) + 1.0 - ndtr((t - mean) / sd)
        assert abs(reports[0].p1 - p1_exact) <= 3.0 * reports[0].mc_se_p1

    def test_posterior_mode_count_models(self):
        obs = CountDataset(Rng(RngSeed(6, 0)).poisson(4.0, size=30))
        rep = predictive_bf_tails(obs, mode="posterior", n_rep=400, seed=RngSeed(7))
        assert 0.0 <= rep.p0 <= 1.0
        assert 0.0 <= rep.p1 <= 1.0
        # Poisson data should not look extreme under the Poisson predictive
        assert rep.p0 > 0.05

    def test_tie_mass_with_discrete_statistic(self):
        # log BF12 on tiny datasets takes few values, so ties have mass;
        # both tails must then exceed what strict inequalities would give
        rep = predictive_bf_tails(CountDataset([0, 1, 0, 2, 0]), mode="posterior", n_rep=4_000, seed=RngSeed(8))
        assert rep.p0 + rep.p1 > 1.0  # overlap = tie mass, counted on both sides

    def test_degenerate_replicates_redrawn_and_counted(self):
        # observed total of 1 makes all-zero replicates common (the BF is
        # undefined there); they must be redrawn, counted, and not crash
        rep = predictive_bf_tails(CountDataset([1]), mode="posterior", n_rep=500, seed=RngSeed(23))
        assert rep.n_degenerate_p0 > 50  # about half of the draws degenerate
        assert 0.0 <= rep.p0 <= 1.0
        assert 0.0 <= rep.p1 <= 1.0

    def test_ties_within_rounding_count_on_both_tails(self):
        # both log BF12 values are ln(10/9) in exact arithmetic, but their
        # floating-point evaluations differ in the last bits
        a, b = log_bf12(CountDataset([1, 0, 2])), log_bf12(CountDataset([2, 2, 0]))
        assert a != b
        for s, s_obs in ((a, b), (b, a)):
            for sign in (1.0, -1.0):  # the upper (p0) and the lower (p1) tail
                assert _at_least(sign * s, sign * s_obs)

    def test_reports_do_not_depend_on_the_block_size(self, monkeypatch):
        # [1] redraws about half of its replicates
        def run():
            return (
                predictive_bf_tails(NormalSummary(9, 0.5), mode="prior", n_rep=300, seed=RngSeed(24)),
                predictive_bf_tails(NormalSummary(9, 0.5), mode="posterior", n_rep=300, seed=RngSeed(24)),
                predictive_bf_tails(CountDataset([1]), mode="posterior", n_rep=300, seed=RngSeed(24)),
                posterior_predictive_pvalue(
                    CountDataset([1, 4, 2]), [1.5, 2.5, 3.0], "geometric", DISCREPANCIES["variance"], 300, RngSeed(24)
                ),
            )

        default = run()
        assert default[2].n_degenerate_p0 > 50
        monkeypatch.setattr(calibration, "_BLOCK_VALUES", 1)  # one replicate per block
        monkeypatch.setattr(rng_module, "_TABLE_VALUES", 1)  # one Poisson row per cdf table block
        assert run() == default

    def test_improper_prior_mode_raises(self):
        with pytest.raises(ImproperEvidenceError):
            predictive_bf_tails(CountDataset([1, 2]), mode="prior", n_rep=100, seed=RngSeed(9))

    def test_mode_and_nrep_validation(self):
        obs = NormalSummary(4, 0.0)
        with pytest.raises(ValueError):
            predictive_bf_tails(obs, mode="predictive", n_rep=200)
        with pytest.raises(ValueError):
            predictive_bf_tails(obs, mode="prior", n_rep=10)
        with pytest.raises(TypeError, match="NormalSummary or a CountDataset"):
            predictive_bf_tails([1, 2], mode="posterior", n_rep=100)

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
        for family, law, stream in (
            ("poisson", stats.gamma(total, scale=1.0 / n), 0),
            ("geometric", stats.betaprime(total, n), 1),
        ):
            draws = lambda_posterior_draws(data, family, 4000, Rng(RngSeed(40, stream)))
            assert np.all(np.isfinite(draws) & (draws > 0.0))
            assert stats.kstest(draws, law.cdf).pvalue > 0.01, family

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
            for family in ("poisson", "geometric"):
                assert after(lambda r: lambda_posterior_draws(data, family, 1, r))[1] == next_u

    def test_one_call_reads_what_a_loop_reads(self):
        # `calibrate pvalue` draws --posterior-draws in one call, and its
        # draws equal those of a loop of one-draw calls on the same stream
        for total, n in POSTERIOR_CASES:
            data = _dataset(total, n)
            for family in ("poisson", "geometric"):
                rng = Rng(RngSeed(43))
                loop = np.concatenate([lambda_posterior_draws(data, family, 1, rng) for _ in range(300)])
                assert np.array_equal(lambda_posterior_draws(data, family, 300, Rng(RngSeed(43))), loop)

    def test_draws_are_bounded(self):
        # 10^12 draws once grew past 4 GB before anyone stopped them
        with pytest.raises(ValueError, match="at most 10000000 posterior draws"):
            lambda_posterior_draws(CountDataset([1, 2]), "poisson", 10**7 + 1, Rng(RngSeed(42)))


def _one_row(family, mean, n, rng):
    """n draws at `mean` as one row was drawn before `Rng.counts`: the
    geometric inversion, Poisson PTRS from mean 512 on, and below it a cdf
    table built term by term, p(0) = e^-mean and p(x) = p(x-1) * (mean / x),
    its length that of `_poisson_table_length`, searched up to its first
    largest entry."""
    if family == "geometric":
        if not 0.0 < mean < 2.0**53:
            raise ValueError(f"geometric mean must be positive and below 2^53, got {mean:.10g}")
        return np.floor(np.log(rng.uniform(n)) / math.log(mean / (1.0 + mean))).astype(np.int64).tolist()
    if not 0.0 < mean <= 2.0**46:
        raise ValueError(f"Poisson mean must be positive and at most 2^46, got {mean:.10g}")
    if mean >= 512.0:
        draws = np.empty(n, dtype=np.int64)
        rng._poisson_ptrs(mean, draws)
        return draws.tolist()
    term = cdf = math.exp(-mean)
    table = [cdf]
    for x in range(1, int(mean + 10.0 * math.sqrt(mean) + 40.0)):
        term *= mean / x
        cdf += term
        table.append(cdf)
    table = table[: table.index(max(table)) + 1]
    return [bisect_left(table, u) for u in rng.uniform(n).tolist()]


def _rows_one_at_a_time(family, means, n, rng):
    return [_one_row(family, mean, n, rng) for mean in means]


# Poisson means on both sides of 512 (the table below, PTRS from there),
# tiny and huge; geometric means up to the largest below 2^53
_VALID_MEANS = {
    "poisson": st.one_of(
        st.sampled_from([1e-300, 1e-3, 4.0, 15.0, 511.9, float(np.nextafter(512.0, 0.0)), 512.0, 600.0, 2.0**46]),
        st.floats(1e-3, 600.0),
    ),
    "geometric": st.one_of(
        st.sampled_from([1e-300, 1e-3, 4.0, 600.0, 1e15, float(np.nextafter(2.0**53, 0.0))]),
        st.floats(1e-3, 5000.0),
    ),
}
_INVALID_MEANS = {
    "poisson": [0.0, -1.0, math.nan, math.inf, -math.inf, float(np.nextafter(2.0**46, math.inf)), 1e300],
    "geometric": [0.0, -1.0, math.nan, math.inf, -math.inf, 2.0**53, 1e300],
}


@st.composite
def _count_row_cases(draw, invalid: bool):
    family = draw(st.sampled_from(("poisson", "geometric")))
    means = st.floats(0.0, 1.0).flatmap(
        lambda bad: st.sampled_from(_INVALID_MEANS[family]) if bad < 0.1 else _VALID_MEANS[family]
    ) if invalid else _VALID_MEANS[family]
    return (
        family,
        draw(st.lists(means, min_size=1, max_size=30)),
        draw(st.sampled_from([1, 2, 7, 100])),
        draw(st.sampled_from([1, 90, 700, 1 << 15])),  # cdf table entries per chunk
        draw(st.integers(0, 300)),  # uniforms read before the rows
    )


class TestCountRows:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_count_row_cases(invalid=False))
    def test_block_rows_are_the_rows_drawn_one_at_a_time(self, case):
        family, means, n, table_values, skip = case
        one, block = Rng(RngSeed(3, 60)), Rng(RngSeed(3, 60))
        one.uniform(skip)
        block.uniform(skip)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng_module, "_TABLE_VALUES", table_values)
            got = block.counts(family, np.array(means), n)
        assert got.dtype == np.int64
        assert got.tolist() == _rows_one_at_a_time(family, means, n, one)
        assert block.uniform() == one.uniform()

    @pytest.mark.parametrize("family, mean", [("poisson", 4.0), ("poisson", 600.0), ("geometric", 4.0)])
    def test_one_row_methods_draw_the_reference_row(self, family, mean):
        rng, one = Rng(RngSeed(5, 62)), Rng(RngSeed(5, 62))
        draw = rng.poisson if family == "poisson" else rng.geometric_mean
        got = draw(mean, size=50)
        assert got.dtype == np.int64 and got.shape == (50,)
        assert got.tolist() == _one_row(family, mean, 50, one)
        assert rng.uniform() == one.uniform()

    def test_unknown_family_raises(self):
        rng = Rng(RngSeed(5, 63))
        with pytest.raises(ValueError, match="family must be one of"):
            rng.counts("binomial", [4.0], 3)
        assert rng.uniform() == Rng(RngSeed(5, 63)).uniform()  # nothing was drawn

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_count_row_cases(invalid=True))
    def test_invalid_means_raise_what_the_row_loop_raises(self, case):
        family, means, n, table_values, skip = case
        try:
            expected = _rows_one_at_a_time(family, means, n, Rng(RngSeed(4, 61)))
        except ValueError as err:
            expected = str(err)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng_module, "_TABLE_VALUES", table_values)
            try:
                got = Rng(RngSeed(4, 61)).counts(family, np.array(means), n).tolist()
            except ValueError as err:
                got = str(err)
        assert got == expected


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
            obs, [2.0], "poisson", lambda x, t: np.where((x == obs.values).all(axis=-1), 0.1 * 3, 0.3),
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

    def test_rejects_empty_observed_data(self):
        for observed in ([], np.array([], dtype=np.int64)):
            with pytest.raises(ValueError, match="observed data must be non-empty"):
                posterior_predictive_pvalue(observed, [2.0], "poisson", DISCREPANCIES["mean"], 100)

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

    def test_refuses_more_than_ten_million_counts(self):
        # 10^16 counts filled memory block by block before the refusal
        for n in (10**7 + 1, 10**16):
            with pytest.raises(ValueError, match="at most 10000000 counts"):
                nonzero_counts("poisson", 4.0, n, RngSeed(1))
        with pytest.raises(ValueError, match="at most 10000000 counts"):
            bootstrap_alpha_cutoff(MixtureSpec(0.5), "geometric", 4.0, 10**16, 20)


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
