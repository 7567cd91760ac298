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

Refills of the internal 32-bit buffer are vectorized: the LCG is jumped
k steps ahead with precomputed tables of multiplier powers and
geometric sums modulo 2^64, which reproduces the scalar recurrence bit
for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .special import log_factorial

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MULT = 6364136223846793005
_BUFFER = 1 << 14
_INV_2_53 = 2.0 ** -53

# k -> (a^1..a^k, 1, 1+a, ..., 1+a+..+a^{k-1}) mod 2^64, shared across instances.
_JUMP_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


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
    cached = _JUMP_TABLES.get(k)
    if cached is not None:
        return cached
    with np.errstate(over="ignore"):
        apow = np.ones(k, dtype=np.uint64)
        if k > 1:
            apow[1:] = np.uint64(_MULT)
            apow = np.cumprod(apow)  # apow[j] = a^j mod 2^64
        gsum = np.zeros(k, dtype=np.uint64)
        if k > 1:
            gsum[1:] = np.cumsum(apow[:-1])  # gsum[j] = 1 + a + ... + a^{j-1}
    _JUMP_TABLES[k] = (apow, gsum)
    return apow, gsum


class Rng:
    """PCG32-backed sampler with scalar and vectorized draw paths."""

    def __init__(self, seed: RngSeed):
        self.seed = seed
        self._inc = (((seed.stream_index << 1) | 1)) & _MASK64
        state = (0 * _MULT + self._inc) & _MASK64
        state = (state + (seed.master_seed & _MASK64)) & _MASK64
        self._state = (state * _MULT + self._inc) & _MASK64
        self._buf = np.empty(0, dtype=np.uint32)
        self._pos = 0

    # ------------------------------------------------------------------
    # raw 32-bit stream

    def _refill(self, k: int = _BUFFER) -> None:
        apow, gsum = _jump_tables(k)
        with np.errstate(over="ignore"):
            s = apow * np.uint64(self._state) + gsum * np.uint64(self._inc)
            xorshifted = ((s >> np.uint64(18)) ^ s) >> np.uint64(27)
            xorshifted = xorshifted & np.uint64(_MASK32)
            rot = s >> np.uint64(59)
            out = (xorshifted >> rot) | (
                xorshifted << ((np.uint64(32) - rot) & np.uint64(31))
            )
            self._state = (int(s[-1]) * _MULT + self._inc) & _MASK64
        self._buf = (out & np.uint64(_MASK32)).astype(np.uint32)
        self._pos = 0

    def _take_u32(self, k: int) -> np.ndarray:
        avail = self._buf.shape[0] - self._pos
        if k <= avail:
            out = self._buf[self._pos : self._pos + k]
            self._pos += k
            return out
        head = self._buf[self._pos :]
        need = k - avail
        # Round the block up to a multiple of the base size so the jump
        # tables stay few; over-buffered values are served on later calls.
        self._refill(-(-need // _BUFFER) * _BUFFER)
        self._pos = need
        return np.concatenate((head, self._buf[:need]))

    def next_u32(self) -> int:
        if self._pos >= self._buf.shape[0]:
            self._refill()
        v = int(self._buf[self._pos])
        self._pos += 1
        return v

    # ------------------------------------------------------------------
    # uniforms and normals

    def uniform(self, size: int | None = None):
        """Uniform draw(s) strictly inside (0, 1), 53-bit resolution."""
        if size is None:
            hi = self.next_u32()
            lo = self.next_u32()
            return ((((hi << 32) | lo) >> 11) + 0.5) * _INV_2_53
        raw = self._take_u32(2 * size).astype(np.uint64)
        u64 = (raw[0::2] << np.uint64(32)) | raw[1::2]
        return ((u64 >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53

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
            if mean < 10.0:
                return int(self.poisson(mean, 1)[0])
            return self._poisson_ptrs_scalar(mean)
        if mean < 10.0:
            u = self.uniform(size)
            p = math.exp(-mean)
            prob = np.full(size, p)
            cdf = prob.copy()
            k = np.zeros(size, dtype=np.int64)
            active = u > cdf
            j = 0
            cap = int(mean + 60.0 * math.sqrt(mean) + 60.0)  # P(X > cap) is far below 2^-53
            while active.any() and j < cap:
                j += 1
                prob = prob * (mean / j)
                cdf = cdf + prob
                k[active] = j
                active = u > cdf
            return k
        return np.array([self._poisson_ptrs_scalar(mean) for _ in range(size)], dtype=np.int64)

    def _poisson_ptrs_scalar(self, mean: float) -> int:
        # Hoermann's transformed rejection with squeeze (PTRS), mean >= 10.
        b = 0.931 + 2.53 * math.sqrt(mean)
        a = -0.059 + 0.02483 * b
        inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
        v_r = 0.9277 - 3.6224 / (b - 2.0)
        log_mean = math.log(mean)
        while True:
            u = self.uniform() - 0.5
            v = self.uniform()
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

    def beta(self, a: float, b: float, size: int | None = None):
        """Beta(a, b) draw(s) as a gamma ratio, formed from log-gammas so that
        shapes small enough to underflow both gammas still give a draw."""
        if a <= 0.0 or b <= 0.0:
            raise ValueError("beta shapes must be positive")
        if size is None:
            return float(expit(self._log_gamma(a) - self._log_gamma(b)))
        return np.array([self.beta(a, b) for _ in range(size)])
