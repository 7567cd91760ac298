"""Seeded random sampling on a fixed PCG32 generator.

The generator is pinned so that every experiment is reproducible from an
`RngSeed` (master_seed, stream_index) pair alone:

* PCG32 (O'Neill): 64-bit LCG state, multiplier 6364136223846793005,
  XSH-RR output to 32 bits.
* stream_index selects the odd LCG increment ((stream_index << 1) | 1)
  and is folded into the initial state by the standard init sequence,
  so distinct streams diverge immediately.
* uniform doubles take 53 bits from two consecutive 32-bit outputs and
  land strictly inside (0, 1).

Passing the same (master_seed, stream_index) always replays the same
draw sequence; each `Rng` owns private state and must not be shared
between concurrent tasks without external exclusion.

Draws come from blocks of 32-bit outputs computed at once: the LCG is
jumped k steps ahead with precomputed tables of multiplier powers and
geometric sums modulo 2^64, which reproduces the scalar recurrence bit
for bit.  An `Rng` holds only its LCG state; a `uniform` call computes
exactly the words it returns, so a stream costs what it draws.  A run of
PTRS rows, whose rounds are sized only as they are judged, reads passes
computed ahead and then sets the stream back to just past the rounds it
used, so that rows of a few draws share a pass.  `LaneBlocks` draws the
streams of many lockstep chains together, a block of iterations at a
time, with a fixed number of words per chain and iteration.  They are the
only code that reads a stream.

`Rng.counts` draws every row of Poisson or geometric counts in the
package, k rows at k means: geometric rows by one inversion, Poisson rows
below mean 512 by inverting cdf tables built a chunk of rows at a time
(`_poisson_inversion`), and Poisson rows from mean 512 on by PTRS rejection.
However the rows are chunked, each draws what a one-row call at its mean
draws, and `Rng.poisson` and `Rng.geometric_mean` are that one-row case.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, gammaincinv

from .distributions import require_family
from .special import log_factorial

# Version of the order in which the samplers read their streams, recorded
# in each run manifest.  A change that alters what a fixed seed draws on
# purpose increments it; 1 was the layout with four uniforms per Gibbs
# iteration, 2 drew each predictive replicate of `calibrate tails` and
# `calibrate pvalue` from one stream with its parameter, and 3 settled a tied
# Gibbs word from the chain's own stream and ended PTRS at its last pair.
STREAM_LAYOUT = 4
_MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005
_BLOCK_WORDS = 1 << 14  # words in a lane block of several iterations
_PASS_UNIFORMS = _BLOCK_WORDS // 2  # uniforms computed at once by `Rng.uniform`
_INV_2_53 = 2.0 ** -53
# XSH-RR shifts and rotation mask, built once rather than on every block
_SHIFT_18, _SHIFT_27, _SHIFT_59 = np.uint64(18), np.uint64(27), np.uint64(59)
_ROT_MASK = np.uint32(31)
# Largest Poisson mean.  Above about 1e14 PTRS's log acceptance test
# subtracts numbers whose rounding error exceeds the test's own scale, and
# the draws spread wider than the Poisson law (sd 1.18 sqrt(mean) at 1e16).
_POISSON_MAX_MEAN = 2.0**46
# Poisson means below this are drawn by inversion of one cdf table.
_POISSON_TABLE_LIMIT = 512.0
_TABLE_VALUES = 1 << 15  # Poisson cdf table entries built at once: flat at n = 1 and near mean 512
# From this geometric mean on, 1 + mean rounds to mean, so mean / (1 + mean)
# rounds to 1 and the inversion divides by ln 1 = 0.
_GEOMETRIC_MEAN_LIMIT = 2.0**53


@dataclass(frozen=True)
class RngSeed:
    """Addressable point in the seed space: one master seed, one stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if not 0 <= self.stream_index < (1 << 63):
            raise ValueError("stream_index must be a non-negative 63-bit integer")

    def child(self, *path: int) -> "RngSeed":
        """Derive a task-addressed stream under the same master seed.

        The new stream_index is a 63-bit blake2b digest of this seed's
        stream_index followed by the path integers, so any tuple of task
        coordinates maps to a stable, platform-independent stream.
        """
        h = hashlib.blake2b(digest_size=8)
        h.update(self.stream_index.to_bytes(16, "little", signed=False))
        for p in path:
            h.update(int(p).to_bytes(16, "little", signed=True))
        idx = int.from_bytes(h.digest(), "little") & ((1 << 63) - 1)
        return RngSeed(self.master_seed, idx)


def _jump_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(a^j, 1 + a + ... + a^(j-1)) mod 2^64 for j = 0..k: j steps of the
    LCG take state s to a^j s + (1 + ... + a^(j-1)) inc."""
    apow = np.cumprod(np.concatenate([[1], np.full(k, _MULT)]).astype(np.uint64))
    return apow, np.concatenate([np.zeros(1, dtype=np.uint64), np.cumsum(apow[:-1])])


_APOW, _GSUM = _jump_tables(_BLOCK_WORDS)


def _seed_state(seed: RngSeed) -> tuple[int, int]:
    """(state, increment) of the stream `seed` before its first output."""
    inc = ((seed.stream_index << 1) | 1) & _MASK64
    return ((inc + seed.master_seed) * _MULT + inc) & _MASK64, inc


def _pcg32_block(state, jump_mult, jump_add) -> np.ndarray:
    """PCG32 outputs (uint32) at the LCG states jump_mult * state + jump_add
    mod 2^64, elementwise with broadcasting.

    With jump_mult = _APOW[j] and jump_add = _GSUM[j] * inc, the entry is
    the output j steps past `state` on the stream with increment inc, so
    one call draws a block of any number of lanes, each entry of `state`
    (uint64) a lane.
    """
    s = jump_mult * state
    s += jump_add
    x = s >> _SHIFT_18
    x ^= s
    x >>= _SHIFT_27
    xorshifted = x.astype(np.uint32)
    rot = (s >> _SHIFT_59).astype(np.uint32)
    out = xorshifted >> rot
    rot = -rot  # wraps: (32 - rot) & 31 below
    rot &= _ROT_MASK
    xorshifted <<= rot
    out |= xorshifted
    return out


def _uniforms(words: np.ndarray) -> np.ndarray:
    """One uniform per pair of consecutive words along the last axis,
    ((hi * 2^21 + (lo >> 11)) + 1/2) * 2^-53; the sum is below 2^53, so
    float64 holds it exactly.  Adding 1/2 rounds the largest sum,
    2^53 - 1, up to 2^53, and that one value is clamped to the largest
    double below 1."""
    u = words[..., 0::2].astype(np.float64)
    u *= 2.0**21
    u += words[..., 1::2] >> np.uint32(11)
    u += 0.5
    u *= _INV_2_53
    np.minimum(u, 1.0 - _INV_2_53, out=u)
    return u


def _box_muller(mean: float, sd: float, u1: float, u2: float) -> float:
    """The Gaussian draw of the uniforms (u1, u2), by Box-Muller."""
    return mean + sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class LaneBlocks:
    """The streams of K lockstep chains, drawn a block of iterations at a time.

    Lane c is the stream of `Rng(seeds[c])`.  Each iteration takes the
    next raw[c] words of lane c as raw 32-bit words, then the next
    2 * `uniforms` words as that many uniforms.  A block holds as many
    whole iterations as fit in 2^14 words over all lanes, and at least
    one.  Every lane thus reads its stream in an order fixed by its own
    draws alone, whatever the other lanes and wherever blocks start: a
    chain run with others draws what it draws alone.
    """

    def __init__(self, seeds, raw, uniforms: int):
        lanes = len(seeds)
        self.state, self._inc = (np.array(v, dtype=np.uint64) for v in zip(*map(_seed_state, seeds)))
        raw = np.asarray(raw, dtype=np.int64)
        self._widths = raw + 2 * uniforms
        self._raw_total = int(raw.sum())
        self._iters = max(1, _BLOCK_WORDS // int(self._widths.sum()))
        # columns: every lane's raw words, lane after lane, then every
        # lane's uniform words; steps past the state at the block's start
        lane_ids = np.arange(lanes)
        col_lane = np.concatenate([np.repeat(lane_ids, raw), np.repeat(lane_ids, 2 * uniforms)])
        col_step = np.concatenate([
            np.arange(self._raw_total) - np.repeat(np.cumsum(raw) - raw, raw),
            np.repeat(raw, 2 * uniforms) + np.tile(np.arange(2 * uniforms), lanes),
        ])
        steps = np.arange(self._iters)[:, None] * self._widths[col_lane] + col_step
        most = self._iters * int(self._widths.max())
        self._apow, self._gsum = (_APOW, _GSUM) if most <= _BLOCK_WORDS else _jump_tables(most)
        self._col_lane = col_lane
        self._mult = self._apow[steps]
        self._add = self._gsum[steps] * self._inc[col_lane]

    def uniforms(self) -> np.ndarray:
        """The next uniform of each lane."""
        words = _pcg32_block(self.state[:, None], _APOW[:2], _GSUM[:2] * self._inc[:, None])
        self.state = _APOW[2] * self.state + _GSUM[2] * self._inc
        return _uniforms(words)[:, 0]

    def iterations(self, count: int):
        """Yield per iteration the raw words of all lanes (one uint32
        array, lane after lane) and each lane's uniforms (one row per lane)."""
        for done in range(0, count, self._iters):
            rows = min(self._iters, count - done)
            words = _pcg32_block(self.state[self._col_lane], self._mult[:rows], self._add[:rows])
            steps = rows * self._widths
            self.state = self._apow[steps] * self.state + self._gsum[steps] * self._inc
            uniforms = _uniforms(words[:, self._raw_total:]).reshape(rows, self.state.size, -1)
            for row in range(rows):
                yield words[row, : self._raw_total], uniforms[row]


def _poisson_table_length(mean: float) -> int:
    """Terms in the cdf table at `mean`: 10 sd and 40 terms past the mean."""
    return int(mean + 10.0 * math.sqrt(mean) + 40.0)


def _poisson_inversion(u: np.ndarray, means: list[float], out: np.ndarray) -> None:
    """Poisson draws by inversion, written into the (k, n) int64 rows
    `out`: row i from the uniforms u[i] at means[i] in (0, 512), each the
    least x with u <= cdf_i(x), or the length of row i's cdf table if u is
    above it.  `Rng.counts` calls it once per chunk of rows, and a one-row
    `Rng.poisson` call is a chunk of one row.

    Along each row, the terms p(0) = e^-mean and p(x) = p(x-1) * (mean / x)
    are multiplied, then summed, in order: the same float operations as a
    scalar loop over x.  A row's table ends at its first term too small to
    change the sum; the cdf rises at every term before it and holds its
    largest value from there on, so the end is the row's argmax + 1.  Up to
    x = mean, p(x) >= cdf(x-1) / x, so that end comes after the mode, where
    the terms only shrink (to 0, where they underflow), and it lies inside
    the row's own length, `_poisson_table_length(mean)`.  Every row takes
    the length of the largest mean's, so one accumulation along each row
    builds the whole (k, length) block, and each row is cut at its own end
    and searched.  Below mean 512, e^-mean is a normal double and a row
    holds under 800 terms.
    """
    ks = np.arange(float(_poisson_table_length(max(means))))
    ks[0] = 1.0
    terms = np.divide.outer(means, ks)  # p(x) / p(x-1) at x >= 1
    terms[:, 0] = [math.exp(-mean) for mean in means]
    cdf = np.add.accumulate(np.multiply.accumulate(terms, axis=1), axis=1)
    for row, last, x, draws in zip(cdf, cdf.argmax(axis=1).tolist(), u, out):
        draws[:] = row[: last + 1].searchsorted(x, side="left")


def _geometric_log_ratio(mean: float) -> float:
    """ln(mean / (1 + mean)), the divisor of the geometric inversion at `mean`."""
    if not 0.0 < mean < _GEOMETRIC_MEAN_LIMIT:
        raise ValueError(f"geometric mean must be positive and below 2^53, got {mean:.10g}")
    return math.log(mean / (1.0 + mean))


class Rng:
    """PCG32-backed sampler with scalar and vectorized draw paths."""

    def __init__(self, seed: RngSeed):
        self._state, self._inc = _seed_state(seed)

    def uniform(self, size: int | None = None):
        """Uniform draw(s) strictly inside (0, 1), 53-bit resolution: a
        float, or an array of `size` (ValueError if size < 0).

        An `Rng` holds only its LCG state; a call computes exactly the
        words it returns, 2 * size of them, in passes of at most
        _PASS_UNIFORMS uniforms (one pass's temporaries stay in cache).
        """
        if size is None:
            return float(self.uniform(1)[0])
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        out = np.empty(size)
        inc = np.uint64(self._inc)
        for done in range(0, size, _PASS_UNIFORMS):
            k = 2 * min(size - done, _PASS_UNIFORMS)
            out[done : done + k // 2] = _uniforms(_pcg32_block(np.uint64(self._state), _APOW[:k], _GSUM[:k] * inc))
            self._state = self._jumped(self._state, k)
        return out

    def _jumped(self, state: int, words: int) -> int:
        """The LCG state `words` (at most 2^14) steps past `state`."""
        return (int(_APOW[words]) * state + int(_GSUM[words]) * self._inc) & _MASK64

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        """Gaussian draw via Box-Muller; consumes exactly two uniforms."""
        if sd <= 0.0:
            raise ValueError("sd must be positive")
        return _box_muller(mean, sd, *self.uniform(2).tolist())

    def counts(self, family: str, means, n: int) -> np.ndarray:
        """A (k, n) int64 array whose row i holds n draws from `family` at
        means[i], the rows drawn one after another.

        Geometric rows are one inversion of one `uniform(k * n)`.  Each run
        of consecutive Poisson rows at means in (0, 512) is inverted through
        cdf tables (`_poisson_inversion`), a chunk of rows per
        `uniform(rows * n)`, with at most _TABLE_VALUES table entries in a
        chunk (each row as long as the chunk's longest).  Each run of
        Poisson rows at other means takes PTRS (`_poisson_ptrs`) from 512 up
        to 2^46, or raises ValueError.
        However the rows are chunked, the draws and the stream's position
        after them are those of one row at a time.
        """
        require_family(family)
        means = means.tolist() if isinstance(means, np.ndarray) else list(means)
        if family == "geometric":
            log_ratio = np.array([_geometric_log_ratio(mean) for mean in means])
            u = self.uniform(len(means) * n).reshape(len(means), n)
            return np.floor(np.log(u) / log_ratio[:, None]).astype(np.int64)
        rows = np.empty((len(means), n), dtype=np.int64)
        tabled = [0.0 < mean < _POISSON_TABLE_LIMIT for mean in means]
        chunk = max(1, _TABLE_VALUES // _poisson_table_length(max(itertools.compress(means, tabled), default=0.0)))
        start = 0
        for table, run in itertools.groupby(tabled):
            end = start + len(list(run))
            if table:
                for lo in range(start, end, chunk):
                    hi = min(lo + chunk, end)
                    _poisson_inversion(self.uniform((hi - lo) * n).reshape(hi - lo, n), means[lo:hi], rows[lo:hi])
            else:
                self._poisson_ptrs(means[start:end], rows[start:end])
            start = end
        return rows

    def poisson(self, mean: float, size: int) -> np.ndarray:
        """`size` Poisson draws at `mean`: one row of `counts`."""
        return self.counts("poisson", [mean], size)[0]

    def _poisson_ptrs(self, means: list[float], rows: np.ndarray) -> None:
        """Poisson draws at means[i] into rows[i] by Hoermann's transformed
        rejection with squeeze (PTRS); `counts` takes it from mean 512 on,
        and the method holds from mean 10.  ValueError unless every
        0 < mean <= 2^46.

        Each candidate is one (u, v) pair of consecutive uniforms.  A round
        draws up to 4096 pairs, judges them as arrays and keeps the accepted
        ones in order, up to the number still needed: the draws are those of
        a one-pair-at-a-time loop, and a row ends past its last round.  The
        rounds of all rows are cut, in order, from passes of uniforms
        computed ahead (as many as the rows left would read in one round
        each, at most _PASS_UNIFORMS), and the stream is then set back to
        just past the last round, so rows of a few draws share a pass.
        """
        for mean in means:
            if not 0.0 < mean <= _POISSON_MAX_MEAN:
                raise ValueError(f"Poisson mean must be positive and at most 2^46, got {mean:.10g}")
        first = 2 * min(rows.shape[1] + rows.shape[1] // 4 + 4, 4096)  # uniforms in a row's first round
        start, ahead, pos = self._state, np.empty(0), 0
        for i, (mean, out) in enumerate(zip(means, rows)):
            b = 0.931 + 2.53 * math.sqrt(mean)
            a = -0.059 + 0.02483 * b
            inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
            v_r = 0.9277 - 3.6224 / (b - 2.0)
            log_mean = math.log(mean)
            done = 0
            while done < out.size:
                need = out.size - done
                size = 2 * min(need + need // 4 + 4, 4096)
                if pos + size > ahead.size:
                    self._state = start = self._jumped(start, 2 * pos)
                    ahead, pos = self.uniform(min(_PASS_UNIFORMS, (len(means) - i) * first)), 0
                uv = ahead[pos : pos + size]
                pos += size
                u = uv[0::2] - 0.5
                v = uv[1::2]
                us = 0.5 - np.abs(u)
                k = np.floor((2.0 * a / us + b) * u + mean + 0.43)
                accept = (us >= 0.07) & (v <= v_r)
                idx = np.flatnonzero(~accept & (k >= 0.0) & ((us >= 0.013) | (v <= us)))
                if idx.size:
                    lf = log_factorial(k[idx].astype(np.int64))
                    ratio = v[idx] * inv_alpha / (a / (us[idx] * us[idx]) + b)
                    # math.log: np.log differs from it in the last bit on some inputs
                    lhs = np.array([math.log(r) for r in ratio.tolist()])
                    accept[idx] = lhs <= k[idx] * log_mean - mean - lf
                hits = np.flatnonzero(accept)[:need]
                out[done : done + hits.size] = k[hits]
                done += hits.size
        self._state = self._jumped(start, 2 * pos)

    def geometric_mean(self, mean: float, size: int) -> np.ndarray:
        """`size` geometric (failure-count) draws with the given mean: one
        row of `counts`.

        Success probability is 1/(1+mean); inversion X = floor(ln U / ln(mean/(1+mean))).
        """
        return self.counts("geometric", [mean], size)[0]

    def gamma(self, shape: float) -> float:
        """Gamma(shape, 1) draw: the inverse cdf at one uniform."""
        if not 0.0 < shape < math.inf:
            raise ValueError(f"gamma shape must be positive and finite, got {shape!r}")
        return float(gammaincinv(shape, self.uniform()))

    def beta(self, a: float, b: float) -> float:
        """Beta(a, b) draw: the inverse cdf at one uniform."""
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(f"beta shapes must be positive and finite, got {a!r} and {b!r}")
        return float(betaincinv(a, b, self.uniform()))
