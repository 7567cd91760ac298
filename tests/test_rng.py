import math

import numpy as np
import pytest

from bayes_arbiter.rng import Rng, RngSeed

# Scalar PCG32 reference, kept independent of the production block path.
_M64 = (1 << 64) - 1
_MULT = 6364136223846793005


def _reference_u32_stream(seed: int, stream: int, k: int) -> list[int]:
    inc = ((stream << 1) | 1) & _M64
    state = (0 * _MULT + inc) & _M64
    state = (state + seed) & _M64
    state = (state * _MULT + inc) & _M64
    out = []
    for _ in range(k):
        old = state
        state = (old * _MULT + inc) & _M64
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = (old >> 59) & 31
        out.append(((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF)
    return out


class TestRawStream:
    def test_block_path_matches_scalar_recurrence(self):
        ref = _reference_u32_stream(42, 7, 300)
        rng = Rng(RngSeed(42, 7))
        assert [rng.next_u32() for _ in range(300)] == ref

    def test_reproducible_across_instances(self):
        a = Rng(RngSeed(123456789, 3)).uniform(10_000)
        b = Rng(RngSeed(123456789, 3)).uniform(10_000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ_and_decorrelate(self):
        n = 100_000
        u0 = Rng(RngSeed(2024, 0)).uniform(n)
        u1 = Rng(RngSeed(2024, 1)).uniform(n)
        assert not np.array_equal(u0, u1)
        r = np.corrcoef(u0, u1)[0, 1]
        assert abs(r) < 0.01

    def test_scalar_vector_uniform_same_stream(self):
        r1 = Rng(RngSeed(5, 5))
        r2 = Rng(RngSeed(5, 5))
        vec = r2.uniform(50)
        scal = np.array([r1.uniform() for _ in range(50)])
        assert np.array_equal(vec, scal)

    def test_uniform_open_interval(self):
        u = Rng(RngSeed(9, 0)).uniform(200_000)
        assert np.all(u > 0.0)
        assert np.all(u < 1.0)

    def test_uniform_ks_statistic(self):
        n = 100_000
        u = np.sort(Rng(RngSeed(31337, 0)).uniform(n))
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(grid - u)), np.max(np.abs(u - (grid - 1.0 / n))))
        assert ks < 0.01


class TestDistributions:
    def test_normal_moments(self):
        z = Rng(RngSeed(1, 0)).normal(2.0, 3.0, size=100_000)
        assert z.mean() == pytest.approx(2.0, abs=3 * 3.0 / math.sqrt(100_000))
        assert z.std() == pytest.approx(3.0, rel=0.02)

    def test_normal_scalar_vector_agree(self):
        r1 = Rng(RngSeed(77, 2))
        r2 = Rng(RngSeed(77, 2))
        vec = r2.normal(0.0, 1.0, size=20)
        scal = np.array([r1.normal() for _ in range(20)])
        assert np.array_equal(vec, scal)

    def test_poisson_mean_small(self):
        x = Rng(RngSeed(4, 0)).poisson(4.0, size=100_000)
        # CLT bound: 3 sigma = 3 * 2 / sqrt(1e5) ~ 0.019; spec allows 0.05
        assert x.mean() == pytest.approx(4.0, abs=0.05)
        assert x.min() >= 0

    def test_poisson_pmf_chi2_sanity(self):
        n = 50_000
        x = Rng(RngSeed(8, 0)).poisson(4.0, size=n)
        counts = np.bincount(x, minlength=20)[:20]
        ks = np.arange(20)
        expected = n * np.exp(ks * math.log(4.0) - 4.0 - np.array([math.lgamma(k + 1.0) for k in ks]))
        mask = expected > 10
        chi2 = np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask])
        # 13 dof-ish; 60 is far out in the tail, catches gross pmf errors
        assert chi2 < 60.0

    def test_poisson_large_mean_ptrs(self):
        x = np.array([Rng(RngSeed(12, i)).poisson(50.0) for i in range(20_000)])
        assert x.mean() == pytest.approx(50.0, abs=3 * math.sqrt(50.0 / 20_000) + 0.2)
        assert x.var() == pytest.approx(50.0, rel=0.1)

    def test_geometric_mean_parameterisation(self):
        x = Rng(RngSeed(21, 0)).geometric_mean(4.0, size=100_000)
        # var = mean (1 + mean) = 20
        assert x.mean() == pytest.approx(4.0, abs=0.1)
        assert x.var() == pytest.approx(20.0, rel=0.05)
        assert x.min() >= 0

    def test_geometric_zero_probability(self):
        x = Rng(RngSeed(22, 0)).geometric_mean(1.0, size=100_000)
        assert np.mean(x == 0) == pytest.approx(0.5, abs=0.01)

    def test_beta_uniform_case_ks(self):
        n = 100_000
        b = np.sort(Rng(RngSeed(33, 0)).beta(1.0, 1.0, size=n))
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(grid - b)), np.max(np.abs(b - (grid - 1.0 / n))))
        assert ks < 0.01

    def test_beta_small_shapes_moments(self):
        # Beta(0.5, 0.5): mean 1/2, var 1/8
        b = Rng(RngSeed(34, 0)).beta(0.5, 0.5, size=50_000)
        assert b.mean() == pytest.approx(0.5, abs=0.006)
        assert b.var() == pytest.approx(0.125, rel=0.03)
        assert np.all((b > 0) & (b < 1))

    def test_beta_conjugate_shape_moments(self):
        b = Rng(RngSeed(35, 0)).beta(3.5, 7.5, size=50_000)
        assert b.mean() == pytest.approx(3.5 / 11.0, abs=0.005)

    def test_domain_errors(self):
        rng = Rng(RngSeed(0, 0))
        with pytest.raises(ValueError):
            rng.poisson(0.0)
        with pytest.raises(ValueError):
            rng.geometric_mean(-1.0)
        with pytest.raises(ValueError):
            rng.beta(0.0, 1.0)
        with pytest.raises(ValueError):
            rng.normal(0.0, 0.0)
        with pytest.raises(ValueError):
            rng.gamma(-2.0)


class TestRngSeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            RngSeed(-1, 0)
        with pytest.raises(ValueError):
            RngSeed(0, -2)

    def test_child_streams_are_stable_and_distinct(self):
        s = RngSeed(11, 4)
        a = s.child(1, 2, 3)
        b = s.child(1, 2, 3)
        c = s.child(1, 2, 4)
        assert a == b
        assert a != c
        assert a.master_seed == s.master_seed
