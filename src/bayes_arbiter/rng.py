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

Draws come from a buffer of uniforms.  Each refill turns the next block
of 32-bit outputs into uniforms at once: the LCG is jumped k steps ahead
with precomputed tables of multiplier powers and geometric sums modulo
2^64, which reproduces the scalar recurrence bit for bit.  A fresh
stream's first block is 64 uniforms, and each refill doubles it up to
8192, so a stream costs about what it draws.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .special import log_factorial

_MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005
_BUFFER = 1 << 14  # words in the largest refill block
_FIRST_UNIFORMS = 64  # uniforms in a fresh stream's first block
_INV_2_53 = 2.0 ** -53


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


# jump tables for the largest block, mod 2^64: _APOW[j] = a^j and
# _GSUM[j] = 1 + a + ... + a^{j-1}
_APOW = np.cumprod(np.concatenate([[1], np.full(_BUFFER - 1, _MULT)]).astype(np.uint64))
_GSUM = np.concatenate([np.zeros(1, dtype=np.uint64), np.cumsum(_APOW[:-1])])


def _pcg32_block(state: int, inc: int, k: int) -> tuple[np.ndarray, int]:
    """The next k <= 2^14 PCG32 outputs after `state` (as uint32), and the
    state after them."""
    with np.errstate(over="ignore"):
        s = _APOW[:k] * np.uint64(state)
        s += _GSUM[:k] * np.uint64(inc)
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
    return out, (int(s[-1]) * _MULT + inc) & _MASK64


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
        self._inc = (((seed.stream_index << 1) | 1)) & _MASK64
        state = (0 * _MULT + self._inc) & _MASK64
        state = (state + (seed.master_seed & _MASK64)) & _MASK64
        self._state = (state * _MULT + self._inc) & _MASK64
        self._buf = np.empty(0)
        self._view = memoryview(self._buf)
        self._pos = 0
        self._block = _FIRST_UNIFORMS

    # ------------------------------------------------------------------
    # buffered uniforms

    def _refill(self) -> None:
        """Replace the buffer with the next block of uniforms, each
        ((hi * 2^21 + (lo >> 11)) + 1/2) * 2^-53 from a pair of words;
        the sum is below 2^53, so float64 holds it exactly.  Adding 1/2
        rounds the largest sum, 2^53 - 1, up to 2^53, and that one value
        is clamped to the largest double below 1."""
        words, self._state = _pcg32_block(self._state, self._inc, 2 * self._block)
        buf = words[0::2].astype(np.float64)
        buf *= 2.0**21
        buf += words[1::2] >> np.uint32(11)
        buf += 0.5
        buf *= _INV_2_53
        np.minimum(buf, 1.0 - _INV_2_53, out=buf)
        self._buf = buf
        self._view = memoryview(buf)
        self._pos = 0
        self._block = min(2 * self._block, _BUFFER // 2)

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

    def normal(self, mean: float = 0.0, sd: float = 1.0, size: int | None = None):
        """Gaussian draw(s) via Box-Muller; each consumes exactly two uniforms."""
        if sd <= 0.0:
            raise ValueError("sd must be positive")
        if size is None:
            u1 = self.uniform()
            u2 = self.uniform()
            return mean + sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        u = self.uniform(2 * size)
        r = np.sqrt(-2.0 * np.log(u[0::2]))
        return mean + sd * r * np.cos(2.0 * np.pi * u[1::2])

    # ------------------------------------------------------------------
    # discrete and shape-constrained laws

    def poisson(self, mean: float, size: int | None = None):
        """Poisson draw(s); inversion below mean 10, PTRS rejection above."""
        if mean <= 0.0:
            raise ValueError("mean must be positive")
        if size is None:
            return int(self.poisson(mean, 1)[0])
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

    def geometric_mean(self, mean: float, size: int | None = None):
        """Geometric (failure-count) draw(s) with the given mean.

        Success probability is 1/(1+mean); inversion X = floor(ln U / ln(mean/(1+mean))).
        """
        if mean <= 0.0:
            raise ValueError("mean must be positive")
        log_ratio = math.log(mean / (1.0 + mean))
        if size is None:
            return int(math.log(self.uniform()) / log_ratio)
        u = self.uniform(size)
        return np.floor(np.log(u) / log_ratio).astype(np.int64)

    def _log_gamma(self, shape: float) -> float:
        """ln of a Gamma(shape, 1) draw; finite where the draw itself underflows."""
        if shape < 1.0:
            # Valid for 0 < shape < 1: Gamma(shape) ~ Gamma(shape + 1) * U^(1/shape).
            return self._log_gamma(shape + 1.0) + math.log(self.uniform()) / shape
        return math.log(self.gamma(shape))

    def gamma(self, shape: float) -> float:
        """Gamma(shape, 1) draw via Marsaglia-Tsang, boosted below shape 1."""
        if shape <= 0.0:
            raise ValueError("shape must be positive")
        if shape < 1.0:
            return math.exp(self._log_gamma(shape))
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            u = self.uniform()
            if u < 1.0 - 0.0331 * x * x * x * x:
                return d * v
            if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v

    def beta(self, a: float, b: float) -> float:
        """Beta(a, b) draw as a gamma ratio, formed from log-gammas so that
        shapes small enough to underflow both gammas still give a draw."""
        if a <= 0.0 or b <= 0.0:
            raise ValueError("beta shapes must be positive")
        return float(expit(self._log_gamma(a) - self._log_gamma(b)))
