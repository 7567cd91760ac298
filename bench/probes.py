"""Layer probes: per-call cost of rng, special, distributions, evidence and
mixture through their public API, at the ROADMAP sizes n = 10/100/1000.

Only names expected to survive the planned refactors are used: the Rng
draw methods (u32/s is measured through ``Rng.uniform(size)``, which
takes two 32-bit outputs per double), ``special.log_factorial``,
``CountDataset``, the closed-form and quadrature evidence, the two
samplers and the grid oracle.  A probe whose target is gone is skipped
and reported.  Each figure is the median of three timed repeats.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3
SAMPLER_ITERS = 2000
SAMPLER_BURN_IN = 500


def _median_seconds(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _counts(gen: np.random.Generator, n: int, mean: float) -> np.ndarray:
    values = gen.poisson(mean, size=n)
    values[0] = max(int(values[0]), 1)  # a positive total keeps every model proper
    return values


def probe_rng(seed: int, gen: np.random.Generator) -> dict[str, float]:
    from bayes_arbiter import Rng, RngSeed

    rng = Rng(RngSeed(seed, 1))
    out = {}

    def scalar_ns(draw, calls: int) -> float:
        def loop():
            for _ in range(calls):
                draw()

        return _median_seconds(loop) / calls * 1e9

    out["rng.uniform_scalar_ns"] = scalar_ns(rng.uniform, 20_000)
    out["rng.normal_scalar_ns"] = scalar_ns(rng.normal, 10_000)
    # shapes of the Gibbs weight update at n = 100 (a0 + n1, a0 + n2)
    out["rng.gamma_scalar_ns"] = scalar_ns(lambda: rng.gamma(50.5), 5_000)
    out["rng.beta_scalar_ns"] = scalar_ns(lambda: rng.beta(50.5, 50.5), 3_000)

    size, calls = 1 << 15, 20
    sec = _median_seconds(lambda: [rng.uniform(size) for _ in range(calls)])
    out["rng.u32_per_s"] = 2 * size * calls / sec

    def draws_per_s(draw, size: int, calls: int) -> float:
        return size * calls / _median_seconds(lambda: [draw(size) for _ in range(calls)])

    out["rng.poisson_inv_draws_per_s"] = draws_per_s(lambda k: rng.poisson(4.0, size=k), 1000, 50)
    out["rng.poisson_ptrs_draws_per_s"] = draws_per_s(lambda k: rng.poisson(15.0, size=k), 1000, 4)
    out["rng.geometric_draws_per_s"] = draws_per_s(lambda k: rng.geometric_mean(4.0, size=k), 1000, 100)
    return out


def probe_special(seed: int, gen: np.random.Generator) -> dict[str, float]:
    from bayes_arbiter.special import log_factorial

    ks = [int(k) for k in gen.poisson(15.0, size=5_000)]

    def loop():
        for k in ks:
            log_factorial(k)

    return {"special.log_factorial_scalar_ns": _median_seconds(loop) / len(ks) * 1e9}


def probe_distributions(seed: int, gen: np.random.Generator) -> dict[str, float]:
    from bayes_arbiter import CountDataset

    values = _counts(gen, 100, 4.0)
    calls = 5000

    def loop():
        for _ in range(calls):
            CountDataset(values)

    return {"distributions.count_dataset_us": _median_seconds(loop) / calls * 1e6}


def probe_evidence(seed: int, gen: np.random.Generator) -> dict[str, float]:
    from bayes_arbiter import CountDataset, log_bf12_shared_improper, log_marginal_quadrature

    small = CountDataset(_counts(gen, 100, 4.0))
    calls = 1000

    def loop():
        for _ in range(calls):
            log_bf12_shared_improper(small)

    out = {"evidence.bf12_us": _median_seconds(loop) / calls * 1e6}
    large = CountDataset(_counts(gen, 1000, 4.0))

    def both_families():
        log_marginal_quadrature(large, "poisson")
        log_marginal_quadrature(large, "geometric")

    out["evidence.quadrature_ms"] = _median_seconds(both_families) / 2 * 1e3
    return out


def probe_mixture(seed: int, gen: np.random.Generator) -> dict[str, float]:
    from bayes_arbiter import (
        CountDataset,
        McmcConfig,
        MixtureSpec,
        RngSeed,
        grid_posterior_alpha,
        run_gibbs,
        run_marginal_mh,
    )

    spec = MixtureSpec(0.5)
    config = McmcConfig(iterations=SAMPLER_ITERS, burn_in=SAMPLER_BURN_IN)
    out = {}
    for n in (10, 100, 1000):
        data = CountDataset(_counts(gen, n, 4.0))
        for label, kernel in (("gibbs", run_gibbs), ("mh", run_marginal_mh)):
            sec = _median_seconds(lambda: kernel(data, spec, config, RngSeed(seed, n)))
            out[f"mixture.{label}_us_per_iter.n{n}"] = sec / SAMPLER_ITERS * 1e6
        if n >= 100:
            out[f"mixture.grid_ms.n{n}"] = _median_seconds(lambda: grid_posterior_alpha(data, spec)) * 1e3
    return out


PROBES = {
    "rng": (
        probe_rng,
        (
            "rng.uniform_scalar_ns",
            "rng.normal_scalar_ns",
            "rng.gamma_scalar_ns",
            "rng.beta_scalar_ns",
            "rng.u32_per_s",
            "rng.poisson_inv_draws_per_s",
            "rng.poisson_ptrs_draws_per_s",
            "rng.geometric_draws_per_s",
        ),
    ),
    "special": (probe_special, ("special.log_factorial_scalar_ns",)),
    "distributions": (probe_distributions, ("distributions.count_dataset_us",)),
    "evidence": (probe_evidence, ("evidence.bf12_us", "evidence.quadrature_ms")),
    "mixture": (
        probe_mixture,
        tuple(
            f"mixture.{k}_us_per_iter.n{n}" for k in ("gibbs", "mh") for n in (10, 100, 1000)
        )
        + ("mixture.grid_ms.n100", "mixture.grid_ms.n1000"),
    ),
}


def run_probes(seed: int, skipped: set[str]) -> dict[str, float]:
    """All probe metrics; a layer whose API is gone reports 0 and is listed in `skipped`."""
    out: dict[str, float] = {}
    for layer, (probe, names) in PROBES.items():
        gen = np.random.default_rng([seed, 7])
        try:
            values = probe(seed, gen)
        except (ImportError, AttributeError) as e:
            skipped.add(f"probe {layer}: {e}")
            values = {}
        for name in names:
            out[name] = values.get(name, 0.0)
    return out
