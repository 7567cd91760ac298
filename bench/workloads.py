"""The three benchmark workloads: inputs, CLI commands and output checks.

Inputs come from numpy's own Generator seeded with the workload seed, so
a change to the package's PCG32 stream does not change what the program
is given.  Every command goes through ``cli.main`` exactly as a user
types it; each starts when the previous one has returned.

* fig3_sweep - the paper's headline figure: many independent Gibbs
  chains at small-to-moderate n on the replica thread pool.  Per-call
  overhead in rng/mixture and the pool dominate.
* oracle_fit - one observed dataset, one chain per kernel, no pool: the
  O(n) numpy work per iteration, the 2-D grid oracle and the quadrature.
  It bypasses chain-level parallelism and batching.
* calibrate - predictive calibration with no MCMC: vector Poisson
  inversion and geometric draws at mean ~4, the scalar PTRS rejection
  path at mean ~15, CountDataset checks and the closed-form BF per
  replicate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FIG3_A0 = "0.1,0.5,1"
FIG3_N_GRID = "10,100,1000"
FIG3_REPLICAS = 1
FIG3_CHAINS = len(FIG3_A0.split(",")) * len(FIG3_N_GRID.split(",")) * FIG3_REPLICAS
MCMC_ITERS = 10_000
MCMC_BURN_IN = 2_000
ORACLE_N = 1000
ORACLE_LAMBDA = 4.0
CAL_N = 100
CAL_MEANS = {"low": 4.0, "high": 15.0}
CAL_N_REP = 1000
QUADRATURE_TOL = 1e-6
# The weight mean of a chain of `kept` draws has Monte Carlo error
# sd * sqrt(tau / kept).  The gap to the grid oracle may be MC_Z such
# errors, with tau an upper bound on the integrated autocorrelation time
# of the weight (about 10 for Gibbs and 50-65 for marginal MH at n = 1000).
MC_Z = 5.0
IAT_BOUND = {"gibbs": 20.0, "marginal_mh": 120.0}


Check = tuple[str, bool, str]  # name, passed, detail


@dataclass
class Command:
    argv: list[str]
    items: int  # MCMC iterations or predictive replicates the command performs
    out_dir: Path | None = None  # experiment artifacts to digest


@dataclass
class Plan:
    workload: str
    item: str  # what `items` counts: "mcmc_iters" or "predictive_reps"
    commands: list[Command]
    warmup: list[list[str]]
    inputs: list[Path]
    check: Callable[[list[dict]], list[Check]]


def _write_counts(path: Path, values: np.ndarray) -> None:
    path.write_text(" ".join(str(int(v)) for v in values) + "\n", encoding="utf-8")


def _program_seed(seed: int) -> str:
    # the CLI takes seeds >= 1
    return str(seed + 1)


def plan_fig3_sweep(seed: int, work: Path) -> Plan:
    out = work / "fig3"
    argv = [
        "experiment", "fig3", "--seed", _program_seed(seed), "--out", str(out),
        "--replicas", str(FIG3_REPLICAS), "--a0-list", FIG3_A0, "--n-grid", FIG3_N_GRID,
        "--iters", str(MCMC_ITERS), "--burn-in", str(MCMC_BURN_IN),
    ]
    warmup = [
        "experiment", "fig3", "--seed", _program_seed(seed), "--out", str(work / "warmup"),
        "--replicas", "1", "--a0-list", "0.5", "--n-grid", "10,100",
        "--iters", "300", "--burn-in", "100",
    ]
    return Plan("fig3_sweep", "mcmc_iters", [Command(argv, FIG3_CHAINS * MCMC_ITERS, out)],
                [warmup], [], _check_fig3)


def plan_oracle_fit(seed: int, work: Path) -> Plan:
    gen = np.random.default_rng([seed, 1])
    poisson = gen.random(ORACLE_N) < 0.5
    # numpy's geometric counts trials; failures have mean (1 - p) / p = lambda
    values = np.where(
        poisson,
        gen.poisson(ORACLE_LAMBDA, ORACLE_N),
        gen.geometric(1.0 / (1.0 + ORACLE_LAMBDA), ORACLE_N) - 1,
    )
    data = work / "oracle_counts.txt"
    _write_counts(data, values)
    s = _program_seed(seed)
    mixture = ["mixture", "--data-file", str(data), "--a0", "0.5",
               "--iters", str(MCMC_ITERS), "--burn-in", str(MCMC_BURN_IN), "--seed", s]
    commands = [
        Command(mixture + ["--kernel", "gibbs", "--grid-check"], MCMC_ITERS),
        Command(mixture + ["--kernel", "mh"], MCMC_ITERS),
        Command(["bf", "poisgeo", "--data-file", str(data), "--check-quadrature"], 0),
    ]
    warmup = [
        ["mixture", "--data-file", str(data), "--iters", "300", "--burn-in", "100",
         "--seed", s, "--kernel", kernel] for kernel in ("gibbs", "mh")
    ]
    return Plan("oracle_fit", "mcmc_iters", commands, warmup, [data], _check_oracle)


def plan_calibrate(seed: int, work: Path) -> Plan:
    gen = np.random.default_rng([seed, 2])
    s = _program_seed(seed)
    commands = []
    inputs = []
    for label, mean in CAL_MEANS.items():
        values = gen.poisson(mean, CAL_N)
        data = work / f"calibrate_{label}.txt"
        _write_counts(data, values)
        inputs.append(data)
        commands.append(Command(
            ["calibrate", "tails", "--family", "poisgeo", "--mode", "posterior",
             "--data-file", str(data), "--n-rep", str(CAL_N_REP), "--seed", s],
            2 * CAL_N_REP,
        ))
        commands.append(Command(
            ["calibrate", "pvalue", "--family", "poisson", "--stat", "variance",
             "--data-file", str(data), "--n-rep", str(CAL_N_REP), "--seed", s],
            CAL_N_REP,
        ))
    warmup = [c.argv[:-4] + ["--n-rep", "100", "--seed", s] for c in commands]
    return Plan("calibrate", "predictive_reps", commands, warmup, inputs, _check_calibrate)


def _mc_tolerance(out: dict) -> float:
    qs = out["alpha_quantiles"]
    sd = (qs["0.9"] - qs["0.1"]) / (2 * 1.2815515655446004)
    kept = out["iterations"] - out["burn_in"]
    return MC_Z * sd * math.sqrt(IAT_BOUND[out["kernel"]] / kept)


def _check_fig3(outputs: list[dict]) -> list[Check]:
    (exp,) = outputs
    return [("fig3 rows", exp["rows"] == FIG3_CHAINS, f"{exp['rows']} rows, expected {FIG3_CHAINS}")]


def _check_oracle(outputs: list[dict]) -> list[Check]:
    gibbs, mh, bf = outputs
    grid = gibbs["grid_alpha_mean"]
    checks = []
    for out in (gibbs, mh):
        gap = abs(out["alpha_mean"] - grid)
        tol = _mc_tolerance(out)
        checks.append((f"{out['kernel']} vs grid weight mean", gap <= tol,
                       f"gap {gap:.3g}, tolerance {tol:.3g}"))
    gap = abs(bf["log_bf12_shared"] - bf["log_bf12_quadrature"])
    checks.append(("closed form vs quadrature", gap <= QUADRATURE_TOL,
                   f"gap {gap:.3g}, tolerance {QUADRATURE_TOL:g}"))
    return checks


def _check_calibrate(outputs: list[dict]) -> list[Check]:
    checks = []
    for out in outputs:
        for key in ("p0", "p1") if out["what"] == "tails" else ("p_value",):
            p = out[key]
            ok = isinstance(p, (int, float)) and 0.0 <= p <= 1.0
            checks.append((f"{out['what']} {key} in [0, 1]", ok, f"{key} = {p}"))
    return checks


def check_outputs(plan: Plan, outputs: list[dict | None]) -> list[Check]:
    """Semantic checks on the parsed stdout of every command of one pass."""
    if any(o is None for o in outputs):
        return [("stdout is JSON", False, "a command printed no JSON object")]
    return plan.check(outputs)


def layer_counts(outputs: list[dict | None]) -> dict[str, float]:
    """Waste ratios the program reports on stdout."""
    outputs = [o for o in outputs if o is not None]
    rows = sum(o.get("rows", 0) for o in outputs if "experiment" in o)
    resim = sum(o.get("n_resimulated", 0) for o in outputs if "experiment" in o)
    replicates = 0
    degenerate = 0
    for o in outputs:
        if o.get("what") == "tails":
            extra = o["n_degenerate_p0"] + o["n_degenerate_p1"]
            replicates += 2 * o["n_rep"] + extra
            degenerate += extra
        elif o.get("what") == "pvalue":
            replicates += o["n_rep"]
    return {
        "experiments.resimulated": resim / rows if rows else 0.0,
        "calibration.replicates": float(replicates),
        "calibration.degenerate_redraws": degenerate / replicates if replicates else 0.0,
    }


def parse_stdout(text: str) -> dict | None:
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


PLANS = {
    "fig3_sweep": plan_fig3_sweep,
    "oracle_fit": plan_oracle_fit,
    "calibrate": plan_calibrate,
}
