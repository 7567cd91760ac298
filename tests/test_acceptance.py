"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers when it holds.

Criteria 7 and 8 share one fig3 run (same settings, same streams; the
weight columns are identical to fig2's by construction, which
test_experiments verifies on a small config).
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest
from scipy.special import betaincinv, ndtr

from bayes_arbiter import mixture as mixture_module
from bayes_arbiter.calibration import predictive_bf_tails
from bayes_arbiter.cli import main
from bayes_arbiter.distributions import CountDataset
from bayes_arbiter.evidence import (
    NormalSummary,
    log_bf01_lindley,
    log_bf10_normal,
    log_marginal_geometric_improper,
    log_marginal_poisson_improper,
    log_marginal_quadrature,
)
from bayes_arbiter.experiments import RIBBON_QUANTILES, ExperimentConfig, run_experiment
from bayes_arbiter.mixture import (
    McmcConfig,
    MixtureSpec,
    grid_posterior_alpha,
    run_gibbs,
    run_marginal_mh,
)
from bayes_arbiter.rng import Rng, RngSeed


def report(criterion: int, detail: str) -> None:
    print(f"[PASS] acceptance criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def fig3_desk_run(tmp_path_factory):
    config = ExperimentConfig(
        "fig3",
        n_grid=(10, 100, 1000),
        replicas=20,
        a0_list=(0.5,),
        lambda_true=4.0,
        mcmc=McmcConfig(iterations=10_000, burn_in=2_000),
        seed=RngSeed(20260808),
        output_dir=tmp_path_factory.mktemp("fig3_desk"),
    )
    started = time.time()
    result = run_experiment(config)
    return result, time.time() - started


def test_criterion_1_reciprocal_identity():
    started = time.time()
    rng = Rng(RngSeed(101, 0))
    worst = 0.0
    for _ in range(1000):
        n = 1 + int(rng.uniform() * 10**6)
        xbar = (rng.uniform() - 0.5) * 10.0
        t = math.sqrt(n) * abs(xbar)
        total = log_bf10_normal(NormalSummary(n, xbar)).log_bf + log_bf01_lindley(n, t).log_bf
        worst = max(worst, abs(total))
    elapsed = time.time() - started
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, f"reciprocal identity over 1000 draws, worst |sum| = {worst:.3g}, {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence_evidence():
    started = time.time()
    rng = Rng(RngSeed(102, 0))
    worst = 0.0
    for _ in range(50):
        n = 1 + int(rng.uniform() * 50)
        values = np.minimum(rng.poisson(3.0, size=n), 30)
        if values.sum() < 1:
            values[0] = 1
        d = CountDataset(values)
        gap_p = abs(
            log_marginal_poisson_improper(d).log_evidence
            - log_marginal_quadrature(d, "poisson").log_evidence
        )
        gap_g = abs(
            log_marginal_geometric_improper(d).log_evidence
            - log_marginal_quadrature(d, "geometric").log_evidence
        )
        worst = max(worst, gap_p, gap_g)
    elapsed = time.time() - started
    assert worst <= 1e-6
    assert elapsed < 10.0
    report(2, f"closed forms vs quadrature on 50 datasets, worst log gap = {worst:.3g}, {elapsed:.2f}s")


def test_criterion_3_lindley_paradox():
    started = time.time()
    grid = [100, 1_000, 10_000, 100_000, 1_000_000]
    values = [log_bf01_lindley(n, 1.96).log_bf for n in grid]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    final = values[-1]
    elapsed = time.time() - started
    assert increasing
    assert abs(final - 4.9869) <= 1e-3
    assert elapsed < 1.0
    report(3, f"log BF01 increasing over decades, value at n=1e6 is {final:.5f} (target 4.9869 +/- 1e-3)")


def test_criterion_4_fig1_reproduction():
    started = time.time()
    config = ExperimentConfig(
        "fig1", n_grid=(10, 100, 1000), replicas=250, seed=RngSeed(20260808)
    )
    result = run_experiment(config)
    rows_h0_1000 = [r for r in result.csv_rows if r[1] == "H0" and r[2] == 1000]
    frac_negative = sum(1 for r in rows_h0_1000 if r[4] < 0.0) / len(rows_h0_1000)
    median = RIBBON_QUANTILES.index(0.5)
    h0_medians = result.table["H0"]["log_bf10"][:, median].tolist()
    h1_medians = result.table["H1"]["log_bf10"][:, median].tolist()
    elapsed = time.time() - started
    assert frac_negative >= 0.9
    assert all(b < a for a, b in zip(h0_medians, h0_medians[1:]))
    assert all(b > a for a, b in zip(h1_medians, h1_medians[1:]))
    assert elapsed < 5.0
    report(
        4,
        f"fig1 at 250 replicas: H0 n=1000 negative fraction {frac_negative:.3f} (>= 0.9), "
        f"H0 medians decreasing {['%.2f' % v for v in h0_medians]}, "
        f"H1 medians increasing {['%.1f' % v for v in h1_medians]}, {elapsed:.2f}s",
    )


def test_criterion_5_mixture_sampler_three_routes():
    started = time.time()
    data = CountDataset(Rng(RngSeed(777, 0)).poisson(4.0, size=20))
    spec = MixtureSpec(a0=0.5)
    config = McmcConfig(iterations=60_000, burn_in=10_000)  # 5e4 kept draws
    gibbs = run_gibbs(data, spec, config, RngSeed(777, 1))
    marginal = run_marginal_mh(data, spec, config, RngSeed(777, 2))
    grid = grid_posterior_alpha(data, spec)
    m_g, m_m, m_q = gibbs.alpha_draws.mean(), marginal.alpha_draws.mean(), grid.mean
    elapsed = time.time() - started
    assert gibbs.alpha_draws.size >= 50_000
    assert abs(m_g - m_q) <= 0.02
    assert abs(m_m - m_q) <= 0.02
    assert abs(m_g - m_m) <= 0.02
    assert elapsed < 120.0
    report(
        5,
        f"posterior mean of weight: gibbs {m_g:.4f}, marginal MH {m_m:.4f}, grid {m_q:.4f} "
        f"(pairwise within 0.02), {elapsed:.1f}s",
    )


def test_criterion_6_conjugacy_exactness(monkeypatch):
    started = time.time()
    # the Gibbs weight step draws from Beta(a0 + n1, a0 + n2), n1 + n2 = n
    calls = []

    def spy(a, b, u):
        calls.append((float(a[0]), float(b[0])))
        return betaincinv(a, b, u)

    monkeypatch.setattr(mixture_module, "betaincinv", spy)
    data = CountDataset([0, 1, 2, 3, 5, 8])
    checked = 0
    for a0 in (0.1, 0.5, 1.0):
        calls.clear()
        run_gibbs(data, MixtureSpec(a0), McmcConfig(iterations=50, burn_in=10), RngSeed(6))
        # the first call draws the starting weight from the Beta(a0, a0) prior
        assert calls[0] == (a0, a0) and len(calls) == 51
        for a, b in calls[1:]:
            n1 = round(a - a0)
            assert 0 <= n1 <= data.n and (a, b) == (a0 + n1, a0 + (data.n - n1))
            checked += 1
    elapsed = time.time() - started
    assert elapsed < 1.0
    report(
        6,
        f"conditional weight exactly Beta(a0+n1, a0+n2) in each of {checked} Gibbs iterations "
        f"at a0 in (0.1, 0.5, 1), {elapsed:.2f}s",
    )


def test_criterion_7_fig2_trend(fig3_desk_run):
    result, elapsed = fig3_desk_run
    med_of_medians = {
        n: float(np.median([r[4] for r in result.csv_rows if r[1] == n]))
        for n in (10, 100, 1000)
    }
    seq = [med_of_medians[n] for n in (10, 100, 1000)]
    assert all(b >= a for a, b in zip(seq, seq[1:]))
    assert seq[-1] >= 0.9
    assert elapsed < 900.0
    report(
        7,
        "median posterior-median weight over 20 replicas: "
        + ", ".join(f"n={n}: {v:.3f}" for n, v in med_of_medians.items())
        + f" (nondecreasing, >= 0.9 at n=1000), sweep took {elapsed:.1f}s",
    )


def test_criterion_8_fig3_schema_and_consistency(fig3_desk_run):
    result, _ = fig3_desk_run
    assert result.csv_header == (
        "a0", "n", "replica", "post_mean_alpha", "post_median_alpha",
        "post_prob_m1_shared", "post_prob_m1_printed",
    )
    shared = np.array([r[5] for r in result.csv_rows])
    printed = np.array([r[6] for r in result.csv_rows])
    assert np.all((shared >= 0.0) & (shared <= 1.0))
    assert printed.shape == shared.shape  # printed column emitted for every row
    shared_1000 = np.median([r[5] for r in result.csv_rows if r[1] == 1000])
    assert shared_1000 >= 0.9
    gap = float(np.median(printed - shared))
    report(
        8,
        f"shared-improper P(M1|x) in [0,1] on all {shared.size} rows, n=1000 median "
        f"{shared_1000:.4f} (>= 0.9); printed-formula column emitted, median gap to "
        f"shared {gap:.3g} (logged, not asserted)",
    )


def test_criterion_9_predictive_tails_analytic():
    started = time.time()
    n, xbar = 25, 0.3
    observed = NormalSummary(n, xbar)

    rep = predictive_bf_tails(observed, mode="prior", n_rep=10_000, seed=RngSeed(109))
    t_obs = math.sqrt(n) * abs(xbar)
    p0_exact = 2.0 * ndtr(t_obs) - 1.0  # P0(B01(X) >= b_obs) = P(|Z| <= t_obs)
    gap = abs(rep.p0 - p0_exact)
    tol = 3.0 * rep.mc_se_p0
    elapsed = time.time() - started
    assert gap <= tol
    # complementary direction: P0(B01(X) <= b_obs) has no tie mass here
    assert abs((1.0 - rep.p0) - (1.0 - p0_exact)) <= tol
    assert elapsed < 5.0
    report(
        9,
        f"prior-mode P0 tail {rep.p0:.4f} vs Gaussian closed form {p0_exact:.4f}, "
        f"|gap| = {gap:.4f} <= 3*mc_se = {tol:.4f}, {elapsed:.1f}s",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    argv_of = lambda out: [
        "experiment", "fig2", "--seed", "31", "--replicas", "3",
        "--n-grid", "5,20", "--a0-list", "0.5", "--iters", "600",
        "--burn-in", "150", "--out", str(out),
    ]
    assert main(argv_of(tmp_path / "a")) == 0
    json_a = capsys.readouterr().out
    assert main(argv_of(tmp_path / "b")) == 0
    json_b = capsys.readouterr().out
    assert json_a == json_b  # includes the artifact checksums

    checks = []
    for name in ("fig2.csv", "fig2_a0_0.5.svg"):
        digest_a = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
        digest_b = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
        assert digest_a == digest_b
        checks.append(name)

    # scalar commands: identical stdout on rerun
    for argv in (
        ["bf", "normal", "--n", "100", "--xbar", "0.2"],
        ["bf", "poisgeo", "--data", "2,3"],
        ["lindley", "--t", "1.96", "--n", "1e6"],
        ["mixture", "--data", "4,2,5,3", "--iters", "500", "--burn-in", "100", "--seed", "3"],
    ):
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == first
    # the run manifest carries wall time by design and is excluded from the
    # byte-identity contract (provenance sidecar, checksummed artifacts only)
    manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
    assert set(manifest["artifacts"]) == set(checks)
    report(10, f"byte-identical reruns for {checks} and 4 scalar commands (sha256 verified)")
