import bisect
import math

import numpy as np
import pytest
from scipy import stats

from bayes_arbiter.rng import (
    _APOW,
    _GSUM,
    LaneBlocks,
    Rng,
    RngSeed,
    _pcg32_block,
    _poisson_inversion,
    _poisson_table_length,
)
from bayes_arbiter.special import log_factorial

# Scalar PCG32 reference, kept independent of the production block path.
_M64 = (1 << 64) - 1
_MULT = 6364136223846793005


def _reference_start(seed: int, stream: int) -> tuple[int, int]:
    """(state, increment) of a stream before its first output."""
    inc = ((stream << 1) | 1) & _M64
    state = (0 * _MULT + inc) & _M64
    state = (state + seed) & _M64
    return (state * _MULT + inc) & _M64, inc


def _reference_u32_stream(seed: int, stream: int, k: int) -> list[int]:
    state, inc = _reference_start(seed, stream)
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
        inc = np.uint64(rng._inc)
        words = _pcg32_block(np.uint64(rng._state), _APOW[:200], _GSUM[:200] * inc)
        state = (int(_APOW[200]) * rng._state + int(_GSUM[200]) * rng._inc) % 2**64
        rest = _pcg32_block(np.uint64(state), _APOW[:100], _GSUM[:100] * inc)
        assert words.tolist() + rest.tolist() == ref

    def test_lanes_read_each_stream_in_order(self):
        # three lanes of different widths in blocks of several iterations,
        # and a lane wider than the jump tables, against the scalar
        # recurrence of each stream
        seeds = [RngSeed(42, 7), RngSeed(43, 0), RngSeed(44, 9)]
        for raw in ([3, 0, 40], [20_000, 1, 2]):
            lanes = LaneBlocks(seeds, raw, 2)
            refs = [_ReferenceWords(s.master_seed, s.stream_index, 30 * (r + 4) + 10) for s, r in zip(seeds, raw)]
            starts = lanes.uniforms()
            assert starts.tolist() == [_to_uniform(*ref.take(2)) for ref in refs]
            for words, uniforms in lanes.iterations(30):
                expected = []
                for ref, r in zip(refs, raw):
                    expected.extend(ref.take(r))
                assert words.tolist() == expected
                assert uniforms.tolist() == [[_to_uniform(*ref.take(2)), _to_uniform(*ref.take(2))] for ref in refs]

    def test_scalar_and_vector_draws_across_refills(self):
        # a pass computes at most 8192 uniforms; these calls stop short of,
        # reach and cross the edges of their passes
        sizes = [8190, None, None, None, 5, 0, 20_000, None, 8191, None, 3]
        words = _reference_u32_stream(17, 4, 2 * sum(1 if k is None else k for k in sizes))
        ref = [((((hi << 32) | lo) >> 11) + 0.5) * 2.0**-53 for hi, lo in zip(words[0::2], words[1::2])]
        rng = Rng(RngSeed(17, 4))
        got = []
        for k in sizes:
            if k is None:
                u = rng.uniform()
                assert type(u) is float
                got.append(u)
            else:
                got.extend(rng.uniform(k).tolist())
        assert got == ref

    @pytest.mark.parametrize("k", [0, 1, 8191, 8192, 8193, 20_000])
    def test_uniform_moves_the_lcg_two_steps_per_uniform(self, k):
        # a call computes exactly the words it returns, none ahead
        rng = Rng(RngSeed(17, 4))
        rng.uniform(k)
        state, inc = _reference_start(17, 4)
        for _ in range(2 * k):
            state = (state * _MULT + inc) & _M64
        assert rng._state == state

    def test_negative_size_raises_and_leaves_the_stream(self):
        # a negative size used to rewind a buffer of uniforms and replay them
        rng, ref = Rng(RngSeed(1)), Rng(RngSeed(1))
        rng.uniform(3)
        ref.uniform(3)
        calls = (
            lambda: rng.uniform(-2),
            lambda: rng.counts("poisson", [4.0], -2),
            lambda: rng.poisson(4.0, -2),
            lambda: rng.geometric_mean(4.0, -2),
        )
        for call in calls:
            with pytest.raises(ValueError, match="negative"):
                call()
            assert rng._state == ref._state
        assert rng.uniform(2).tolist() == ref.uniform(2).tolist()

    def test_all_ones_words_give_uniforms_below_one(self, monkeypatch):
        # the largest pair of words rounds to 1.0 before the clamp; PTRS
        # (mean >= 512) never accepts a constant stream, so it stays out
        monkeypatch.setattr(
            "bayes_arbiter.rng._pcg32_block", lambda state, mult, add: np.full(np.shape(mult), 0xFFFFFFFF, dtype=np.uint32)
        )
        rng = Rng(RngSeed(3))
        assert rng.uniform() < 1.0
        assert np.all(rng.uniform(100) < 1.0)
        assert math.isfinite(rng.normal())
        assert rng.poisson(4.0, 10).tolist() == [31] * 10

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


def _inverted(u: np.ndarray, mean: float) -> np.ndarray:
    """`_poisson_inversion` of the uniforms u at one mean, as one row."""
    out = np.empty((1, u.size), dtype=np.int64)
    _poisson_inversion(u[None], [mean], out)
    return out[0]


def _ptrs(rng: Rng, mean: float, size: int) -> np.ndarray:
    """`size` PTRS draws of `rng` at `mean`, as one row."""
    out = np.empty(size, dtype=np.int64)
    rng._poisson_ptrs([mean], out[None])
    return out


def _poisson_ptrs_scalar(rng: Rng, mean: float) -> int:
    # Hoermann's transformed rejection with squeeze (PTRS), one candidate
    # (u, v) pair at a time; `Rng.poisson` takes it from mean 512 on, and
    # the method holds from mean 10, where these tests start.
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_mean = math.log(mean)
    while True:
        u = rng.uniform() - 0.5
        v = rng.uniform()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        lhs = math.log(v * inv_alpha / (a / (us * us) + b))
        rhs = k * log_mean - mean - float(log_factorial(int(k)))
        if lhs <= rhs:
            return int(k)


def _scalar_draws_and_round_end(rng, mean: float, size: int) -> tuple[list[int], int]:
    """`size` draws of the scalar loop, and the number of uniforms the
    vector PTRS reads for them: whole rounds of need + need // 4 + 4
    candidate pairs (at most 4096), until `size` candidates are accepted."""
    start = rng.pos
    draws, ends = [], []  # ends[i]: the pairs read by the loop's draw i
    for _ in range(size):
        draws.append(_poisson_ptrs_scalar(rng, mean))
        ends.append((rng.pos - start) // 2)
    pairs, need = 0, size
    while need:
        pairs += min(need + need // 4 + 4, 4096)
        need = size - bisect.bisect_right(ends, pairs)
    return draws, 2 * pairs


class _Counted:
    """An `Rng` that counts the uniforms drawn from it one at a time."""

    def __init__(self, rng: Rng):
        self.rng, self.pos = rng, 0

    def uniform(self) -> float:
        self.pos += 1
        return self.rng.uniform()


class TestPoissonPtrs:
    # PTRS holds from mean 10; Rng.poisson sends it the means from 512 up
    @pytest.mark.parametrize("mean", [10.0, 15.0, 37.5, 400.0, 512.0, 600.0, 4000.0, 1e6])
    def test_vector_matches_scalar_loop(self, mean):
        # 5000 draws need more pairs than one round holds
        for seed in range(10):
            for size in (1, 7, 100, 5000):
                if size == 5000 and seed >= 2:
                    continue
                # skip up to one pass of uniforms first, at either parity
                skip = (8192 - 2 * size - seed) % 8192
                r1, r2 = Rng(RngSeed(seed, 40)), Rng(RngSeed(seed, 40))
                r1.uniform(skip)
                r2.uniform(skip)
                draws, used = _scalar_draws_and_round_end(_Counted(r1), mean, size)
                got = _ptrs(r2, mean, size)
                assert got.dtype == np.int64
                assert got.tolist() == draws
                # the call leaves the stream past its whole rounds
                assert r2.uniform() == Rng(RngSeed(seed, 40)).uniform(skip + used + 1)[-1]

    def test_poisson_draws_by_table_below_512_and_by_ptrs_from_512(self):
        for mean, table in ((511.9, True), (np.nextafter(512.0, 0.0), True), (512.0, False), (600.0, False)):
            r1, r2 = Rng(RngSeed(7, 41)), Rng(RngSeed(7, 41))
            ref = _inverted(r1.uniform(50), mean) if table else _ptrs(r1, mean, 50)
            assert r2.poisson(mean, 50).tolist() == ref.tolist()
            assert r2.uniform() == r1.uniform()


def _to_uniform(hi: int, lo: int) -> float:
    return ((((hi << 32) | lo) >> 11) + 0.5) * 2.0**-53


class _ReferenceWords:
    """The first k scalar reference words of a stream, read in order."""

    def __init__(self, seed: int, stream: int, k: int):
        self.w = _reference_u32_stream(seed, stream, k)
        self.pos = 0

    def take(self, k: int) -> list[int]:
        self.pos += k
        return self.w[self.pos - k : self.pos]


class _ReferenceUniforms:
    """Uniforms built from the scalar reference words, drawn like `Rng.uniform`."""

    def __init__(self, seed: int, stream: int, k: int):
        words = _reference_u32_stream(seed, stream, 2 * k)
        self.u = [_to_uniform(hi, lo) for hi, lo in zip(words[0::2], words[1::2])]
        self.pos = 0

    def uniform(self, size=None):
        self.pos += 1 if size is None else size
        return self.u[self.pos - 1] if size is None else np.array(self.u[self.pos - size : self.pos])

    def normal(self) -> float:
        u1, u2 = self.uniform(), self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class TestPassEdges:
    # stream positions that each kind of draw crosses; the skip call that
    # reaches each one is one pass of at most 8192 uniforms (positions 64,
    # 8192 or 1000 apart), or crosses one pass edge (8256 apart) or two
    # (16448 apart)
    ENDS = np.cumsum([64, 8256, 16448, 8192, 1000, 8256]).tolist()

    @pytest.mark.parametrize("shift", [0, 1, 2])
    def test_scalar_vector_and_ptrs_draws_straddle_each_block_end(self, shift):
        # every kind of draw reads across every position in ENDS, once per shift
        kinds = ("scalar", "vector", "ptrs")
        rng = Rng(RngSeed(29, shift))
        ref = _ReferenceUniforms(29, shift, self.ENDS[-1] + 200)
        for i, end in enumerate(self.ENDS):
            kind = kinds[(i + shift) % 3]
            skip = end - ref.pos - 1 - shift
            assert np.array_equal(rng.uniform(skip), ref.uniform(skip))
            if kind == "scalar":
                for _ in range(4):
                    assert rng.uniform() == ref.uniform()
            elif kind == "vector":
                assert np.array_equal(rng.uniform(5), ref.uniform(5))
                assert [rng.normal() for _ in range(3)] == [ref.normal() for _ in range(3)]
            else:
                start = ref.pos
                draws, used = _scalar_draws_and_round_end(ref, 512.0 + i, 4 + shift)
                assert rng.poisson(512.0 + i, 4 + shift).tolist() == draws
                ref.pos = start + used
            assert ref.pos > end
        assert rng.uniform() == ref.uniform()


def _poisson_inversion_loop(u: np.ndarray, mean: float, cap: int) -> np.ndarray:
    # the vector inversion loop the cdf table replaced
    size = u.size
    p = math.exp(-mean)
    prob = np.full(size, p)
    cdf = prob.copy()
    k = np.zeros(size, dtype=np.int64)
    active = u > cdf
    j = 0
    while active.any() and j < cap:
        j += 1
        prob = prob * (mean / j)
        cdf = cdf + prob
        k[active] = j
        active = u > cdf
    return k


_INVERSION_MEANS = [1e-3, 0.5, 4.0, 9.999, 10.0, 15.0, 37.5, 400.0, 511.9]


def _poisson_cdf_loop(mean: float) -> list[float]:
    # the scalar recurrence the table is built by, to its first term too
    # small to change the sum
    prob = c = math.exp(-mean)
    cdf = [c]
    for j in range(1, 10_000):
        prob = prob * (mean / j)
        if c + prob == c:
            return cdf
        c = c + prob
        cdf.append(c)
    raise AssertionError(f"no end to the cdf at mean {mean}")


class TestPoissonInversion:
    @pytest.mark.parametrize("mean", _INVERSION_MEANS)
    def test_matches_vector_loop(self, mean):
        cap = int(mean + 60.0 * math.sqrt(mean) + 60.0)
        for seed, (skip, size) in enumerate([(0, 1), (61, 7), (190, 500), (8126, 3000), (0, 20_000)]):
            r1, r2 = Rng(RngSeed(seed, 50)), Rng(RngSeed(seed, 50))
            r1.uniform(skip)
            r2.uniform(skip)
            got = r2.poisson(mean, size)
            assert got.dtype == np.int64
            assert got.tolist() == _poisson_inversion_loop(r1.uniform(size), mean, cap).tolist()
            assert r2.uniform() == r1.uniform()

    @pytest.mark.parametrize("mean", _INVERSION_MEANS)
    def test_cdf_ties_tails_and_forced_cap(self, mean):
        # uniforms on, just below and just above every cdf value, and the
        # largest uniforms, where the cdf has stopped growing below them;
        # above the last cdf value the length of the cdf table is the draw
        cap = int(mean + 60.0 * math.sqrt(mean) + 60.0)
        prob = c = math.exp(-mean)
        cdf = [c]
        for j in range(1, cap + 1):
            prob = prob * (mean / j)
            c = c + prob
            cdf.append(c)
        cdf = np.array(cdf)
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), 1.0 - 2.0 ** -np.arange(1, 54)])
        u = u[(u > 0.0) & (u < 1.0)]
        below = u <= cdf[-1]
        got = _inverted(u, mean)
        assert got[below].tolist() == _poisson_inversion_loop(u[below], mean, cap).tolist()
        assert np.all(got[~below] == np.argmax(cdf == cdf[-1]) + 1)

    def test_table_is_the_scalar_recurrence_at_many_means(self):
        # the table equals the scalar cdf bit for bit, and it ends (at the
        # first repeated cdf value) inside the array it is cut from: a
        # table value off by one bit moves a draw at a uniform on it or
        # next to it, and a table cut short moves the draw above it
        rs = np.random.default_rng(2024)
        means = np.concatenate([np.geomspace(1e-6, 511.99, 1000), rs.uniform(0.0, 512.0, 1000)])
        for mean in means[means > 0.0].tolist():
            cdf = np.array(_poisson_cdf_loop(mean))
            assert cdf.size < _poisson_table_length(mean)
            u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), [1.0 - 2.0**-53]])
            u = u[(u > 0.0) & (u < 1.0)]
            got = _inverted(u, mean)
            assert np.array_equal(got, np.searchsorted(cdf, u, side="left")), mean

    def test_each_row_ends_inside_its_own_length(self):
        # rows share the length of the block's largest mean; a row's draws
        # are its own only if its table ends (argmax + 1) strictly inside
        # its own length, so that the terms past that length leave its cdf
        # at its largest value
        below_512 = np.nextafter(512.0, 0.0) - np.arange(50) * 2.0**-44
        means = np.sort(np.concatenate([
            np.linspace(0.0, 512.0, 40_001)[1:-1], np.geomspace(1e-300, 1.0, 500), below_512,
        ]))
        for block in np.array_split(means, 400):
            ks = np.arange(float(_poisson_table_length(block[-1])))
            ks[0] = 1.0
            terms = block[:, None] / ks
            terms[:, 0] = [math.exp(-m) for m in block.tolist()]
            ends = np.add.accumulate(np.multiply.accumulate(terms, axis=1), axis=1).argmax(axis=1) + 1
            own = np.array([_poisson_table_length(m) for m in block.tolist()])
            assert np.all(ends < own), block[ends >= own]


class TestDistributions:
    def test_normal_moments(self):
        rng = Rng(RngSeed(1, 0))
        z = np.array([rng.normal(2.0, 3.0) for _ in range(100_000)])
        assert z.mean() == pytest.approx(2.0, abs=3 * 3.0 / math.sqrt(100_000))
        assert z.std() == pytest.approx(3.0, rel=0.02)

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
        x = np.array([Rng(RngSeed(12, i)).poisson(50.0, 1)[0] for i in range(20_000)])
        assert x.mean() == pytest.approx(50.0, abs=3 * math.sqrt(50.0 / 20_000) + 0.2)
        assert x.var() == pytest.approx(50.0, rel=0.1)

    @pytest.mark.parametrize("mean", [15.0, 511.9, 600.0])
    def test_poisson_chi2_against_scipy(self, mean):
        # the cdf table below 512, PTRS from 512 on; cells hold at least
        # 20 expected draws, the tails pooled into the end cells
        n = 200_000
        x = Rng(RngSeed(14, int(mean))).poisson(mean, n)
        ks = np.flatnonzero(n * stats.poisson.pmf(np.arange(2 * int(mean) + 100), mean) >= 20.0)
        lo, hi = int(ks[0]), int(ks[-1])
        counts = np.bincount(np.clip(x, lo, hi) - lo, minlength=hi - lo + 1)
        cdf = stats.poisson.cdf(np.arange(lo, hi), mean)
        expected = n * np.diff(np.concatenate([[0.0], cdf, [1.0]]))
        assert expected.min() >= 20.0
        assert stats.chisquare(counts, expected).pvalue > 1e-3

    def test_poisson_moments_at_the_largest_mean(self):
        # at 1e16 PTRS's acceptance test rounded so coarsely that the sd
        # was 1.18 sqrt(mean)
        mean, n = 2.0**46, 20_000
        x = Rng(RngSeed(13, 0)).poisson(mean, n).astype(np.float64)
        assert abs(x.mean() - mean) <= 4.0 * math.sqrt(mean / n)
        assert x.std() / math.sqrt(mean) == pytest.approx(1.0, abs=0.03)

    def test_size_zero_draws_nothing(self):
        # PTRS used to raise "need at least one array to concatenate"
        rng, ref = Rng(RngSeed(15, 0)), Rng(RngSeed(15, 0))
        for got in (rng.poisson(4.0, 0), rng.poisson(15.0, 0), rng.poisson(600.0, 0), rng.geometric_mean(4.0, 0)):
            assert got.dtype == np.int64
            assert got.size == 0
        assert rng.uniform() == ref.uniform()

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
        rng = Rng(RngSeed(33, 0))
        b = np.sort(np.array([rng.beta(1.0, 1.0) for _ in range(n)]))
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(grid - b)), np.max(np.abs(b - (grid - 1.0 / n))))
        assert ks < 0.01

    def test_beta_small_shapes_moments(self):
        # Beta(0.5, 0.5): mean 1/2, var 1/8
        rng = Rng(RngSeed(34, 0))
        b = np.array([rng.beta(0.5, 0.5) for _ in range(50_000)])
        assert b.mean() == pytest.approx(0.5, abs=0.006)
        assert b.var() == pytest.approx(0.125, rel=0.03)
        assert np.all((b > 0) & (b < 1))

    def test_beta_conjugate_shape_moments(self):
        rng = Rng(RngSeed(35, 0))
        b = np.array([rng.beta(3.5, 7.5) for _ in range(50_000)])
        assert b.mean() == pytest.approx(3.5 / 11.0, abs=0.005)

    def test_domain_errors(self):
        rng = Rng(RngSeed(0, 0))
        # NaN used to hang the inversion; infinite means and means past
        # 2^53 (geometric) gave draws outside int64, and Poisson means past
        # 2^46 a law too wide (see test_poisson_moments_at_the_largest_mean)
        for bad in (0.0, -1.0, math.nan, math.inf, 1e19, 1e14):
            with pytest.raises(ValueError, match="Poisson mean"):
                rng.poisson(bad, 3)
        for bad in (0.0, -1.0, math.nan, math.inf, 2.0**53):
            with pytest.raises(ValueError, match="geometric mean"):
                rng.geometric_mean(bad, 3)
        # the largest accepted means still give non-negative int64 draws
        assert rng.poisson(2.0**46, 100).min() > 0
        assert rng.geometric_mean(2.0**53 - 1, 100).min() >= 0
        # non-finite shapes used to give nan, 1.0 or 0.0 without an error
        for bad in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma shape"):
                rng.gamma(bad)
        for a, b in ((0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(ValueError, match="beta shapes"):
                rng.beta(a, b)
        with pytest.raises(ValueError):
            rng.normal(0.0, 0.0)


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
