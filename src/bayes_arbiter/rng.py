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
for bit.  An `Rng` turns each block into a buffer of uniforms; a fresh
stream's first block is 64 uniforms, and each refill doubles it up to
8192, so a stream costs about what it draws.  `LaneBlocks` draws the
streams of many lockstep chains together, a block of iterations at a
time, with a fixed number of words per chain and iteration.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, gammaincinv

from .special import log_factorial

_MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005
_BLOCK_WORDS = 1 << 14  # words in the largest refill, and in a lane block of several iterations
_FIRST_UNIFORMS = 64  # uniforms in a fresh stream's first block
_INV_2_53 = 2.0 ** -53
# Largest Poisson mean.  Above about 1e14 PTRS's log acceptance test
# subtracts numbers whose rounding error exceeds the test's own scale, and
# the draws spread wider than the Poisson law (sd 1.18 sqrt(mean) at 1e16).
_POISSON_MAX_MEAN = 2.0**46
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
    x = s >> np.uint64(18)
    x ^= s
    x >>= np.uint64(27)
    xorshifted = x.astype(np.uint32)
    rot = (s >> np.uint64(59)).astype(np.uint32)
    out = xorshifted >> rot
    rot = -rot  # wraps: (32 - rot) & 31 below
    rot &= np.uint32(31)
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
    one.  `fresh_uniform` draws one more uniform from a lane just past
    the current iteration, and the next block starts after it.  Every
    lane thus reads its stream in an order fixed by its own draws alone,
    whatever the other lanes and wherever blocks start: a chain run with
    others draws what it draws alone.
    """

    def __init__(self, seeds, raw, uniforms: int):
        lanes = len(seeds)
        self.state, inc = (np.array(v, dtype=np.uint64) for v in zip(*map(_seed_state, seeds)))
        self._inc = inc
        raw = np.asarray(raw, dtype=np.int64)
        self._widths = raw + 2 * uniforms
        self._raw_total = int(raw.sum())
        self._shape = (lanes, uniforms)
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
        self._add = self._gsum[steps] * inc[col_lane]
        self._start = self.state
        self._row = 0
        self._cut = False

    def _advance(self, start: np.ndarray, steps: np.ndarray) -> np.ndarray:
        return self._apow[steps] * start + self._gsum[steps] * self._inc

    def uniforms(self, lanes=slice(None)) -> np.ndarray:
        """The next uniform of each of the given lanes (all by default)."""
        state = self.state[lanes]
        inc = self._inc[lanes]
        words = _pcg32_block(state[:, None], self._apow[:2], self._gsum[:2] * inc[:, None])
        self.state[lanes] = self._apow[2] * state + self._gsum[2] * inc
        return _uniforms(words)[:, 0]

    def fresh_uniform(self, lane: int) -> float:
        """One more uniform of `lane`, drawn past the current iteration;
        the block ends with that iteration."""
        if not self._cut:
            self.state = self._advance(self._start, (self._row + 1) * self._widths)
            self._cut = True
        return float(self.uniforms([lane])[0])

    def iterations(self, count: int):
        """Yield per iteration the raw words of all lanes (one uint32
        array, lane after lane) and each lane's uniforms (a list of lists)."""
        done = 0
        while done < count:
            rows = min(self._iters, count - done)
            self._start = start = self.state
            words = _pcg32_block(start[self._col_lane], self._mult[:rows], self._add[:rows])
            self.state = self._advance(start, rows * self._widths)
            uniforms = _uniforms(words[:, self._raw_total:]).reshape(rows, *self._shape).tolist()
            for row in range(rows):
                self._row = row
                self._cut = False
                yield words[row, : self._raw_total], uniforms[row]
                done += 1
                if self._cut:
                    break


def _poisson_inversion(u: np.ndarray, mean: float) -> np.ndarray:
    """Poisson(mean < 10) by inversion of the uniforms u: the least k
    with u <= cdf(k), or the length of the cdf table if u is above it.

    The cdf is summed once, in Python floats, by the recurrence
    p(k) = p(k-1) * (mean / k).  The sum stops at the first term too small
    to change it: every term is at least e^-mean > 4e-5 until k passes the
    mean, and the terms only shrink after that (to 0, where they
    underflow), so the cdf is final.
    """
    prob = cdf = math.exp(-mean)
    table = [cdf]
    for j in itertools.count(1):
        prob = prob * (mean / j)
        if cdf + prob == cdf:
            break
        cdf = cdf + prob
        table.append(cdf)
    return np.searchsorted(table, u, side="left")


class Rng:
    """PCG32-backed sampler with scalar and vectorized draw paths."""

    def __init__(self, seed: RngSeed):
        self.seed = seed
        self._state, self._inc = _seed_state(seed)
        self._buf = np.empty(0)
        self._view = memoryview(self._buf)
        self._pos = 0
        self._block = _FIRST_UNIFORMS

    # ------------------------------------------------------------------
    # buffered uniforms

    def _refill(self) -> None:
        """Replace the buffer with the next block of uniforms, one lane of
        the block kernel."""
        k = 2 * self._block
        words = _pcg32_block(np.uint64(self._state), _APOW[:k], _GSUM[:k] * np.uint64(self._inc))
        self._state = (int(_APOW[k]) * self._state + int(_GSUM[k]) * self._inc) & _MASK64
        self._buf = buf = _uniforms(words)
        self._view = memoryview(buf)
        self._pos = 0
        self._block = min(2 * self._block, _BLOCK_WORDS // 2)

    def uniform(self, size: int | None = None):
        """Uniform draw(s) strictly inside (0, 1), 53-bit resolution."""
        pos = self._pos
        if size is None:
            if pos == len(self._view):
                self._refill()
                pos = 0
            self._pos = pos + 1
            return self._view[pos]
        end = pos + size
        if end <= self._buf.shape[0]:
            self._pos = end
            return self._buf[pos:end]
        # Whole blocks, one at a time: one block's temporaries stay in
        # cache, where a block sized to the request would not.
        parts = [self._buf[pos:]]
        need = end - self._buf.shape[0]
        while need > 0:
            self._refill()
            self._pos = min(need, self._buf.shape[0])
            parts.append(self._buf[: self._pos])
            need -= self._pos
        return np.concatenate(parts)

    def normal(self, mean: float = 0.0, sd: float = 1.0) -> float:
        """Gaussian draw via Box-Muller; consumes exactly two uniforms."""
        if sd <= 0.0:
            raise ValueError("sd must be positive")
        return _box_muller(mean, sd, self.uniform(), self.uniform())

    # ------------------------------------------------------------------
    # discrete and shape-constrained laws

    def poisson(self, mean: float, size: int) -> np.ndarray:
        """`size` Poisson draws; inversion below mean 10, PTRS rejection above."""
        if not 0.0 < mean <= _POISSON_MAX_MEAN:
            raise ValueError(f"Poisson mean must be positive and at most 2^46, got {mean:.10g}")
        if mean >= 10.0:
            return self._poisson_ptrs(mean, size)
        return _poisson_inversion(self.uniform(size), mean)

    def _poisson_ptrs(self, mean: float, size: int) -> np.ndarray:
        """Hoermann's transformed rejection with squeeze (PTRS), mean >= 10.

        Each candidate is one (u, v) pair of consecutive uniforms.  Pairs
        are judged as arrays, a block at a time straight from the buffer
        and never across a refill; the cursor then moves past exactly the
        pairs that a one-candidate-at-a-time loop would have used, so the
        stream and the draws are the same as that loop's.
        """
        b = 0.931 + 2.53 * math.sqrt(mean)
        a = -0.059 + 0.02483 * b
        inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
        v_r = 0.9277 - 3.6224 / (b - 2.0)
        log_mean = math.log(mean)
        draws = []
        need = size
        while need:
            pairs = (self._buf.shape[0] - self._pos) // 2
            if pairs:
                m = min(pairs, need + need // 4 + 4)
                uv = self._buf[self._pos : self._pos + 2 * m]
            else:
                # fewer than two uniforms left: the next pair may straddle
                # the refill, and it is used whatever it holds
                m = 1
                uv = self.uniform(2)
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
            hits = np.flatnonzero(accept[:m])[:need]
            if hits.size == need:
                m = hits[-1] + 1
            if pairs:
                self._pos += 2 * m
            draws.append(k[hits])
            need -= hits.size
        return np.concatenate(draws).astype(np.int64)

    def geometric_mean(self, mean: float, size: int) -> np.ndarray:
        """`size` geometric (failure-count) draws with the given mean.

        Success probability is 1/(1+mean); inversion X = floor(ln U / ln(mean/(1+mean))).
        """
        if not 0.0 < mean < _GEOMETRIC_MEAN_LIMIT:
            raise ValueError(f"geometric mean must be positive and below 2^53, got {mean:.10g}")
        log_ratio = math.log(mean / (1.0 + mean))
        u = self.uniform(size)
        return np.floor(np.log(u) / log_ratio).astype(np.int64)

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
