"""Seed-pinned replication experiments with CSV tables and SVG ribbons.

Four bundled experiments:

* fig1    - consistency sweep: spread of log BF10 across replicas drawn
            under the point null and under the alternative's prior
            predictive, per sample size.
* fig2    - mixture-weight concentration: posterior mean/median of the
            weight over replicated Poisson datasets, per Beta(a0, a0)
            prior and sample size.
* fig3    - fig2 plus the posterior probability of the Poisson model from
            the shared-improper Bayes factor (and the printed-formula
            column for comparison; their gap is logged, never asserted).
* lindley - log BF01 against n at a fixed test statistic.

Every experiment is a pure function of (config, seed): identical inputs
produce byte-identical CSV/SVG artifacts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import nonzero_counts
from .evidence import (
    NormalSummary,
    log_bf01_lindley,
    log_bf10_normal,
    log_bf12_printed,
    log_bf12_shared_improper,
    posterior_prob_from_log_bf,
)
from .mixture import McmcConfig, MixtureSpec, run_gibbs_chains
from .rng import Rng, RngSeed

logger = logging.getLogger(__name__)

EXPERIMENTS = ("fig1", "fig2", "fig3", "lindley")
RIBBON_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)
_MEDIAN = RIBBON_QUANTILES.index(0.5)

CSV_HEADERS = {
    "fig1": ("experiment", "hypothesis", "n", "replica", "log_bf10"),
    "fig2": ("a0", "n", "replica", "post_mean_alpha", "post_median_alpha"),
    "fig3": (
        "a0",
        "n",
        "replica",
        "post_mean_alpha",
        "post_median_alpha",
        "post_prob_m1_shared",
        "post_prob_m1_printed",
    ),
    "lindley": ("t", "n", "log_bf01"),
}

_Y_LABELS = {"fig1": "log BF10", "fig2": "mixture weight", "fig3": "weight / model probability"}
_BAND_COLORS = ("#87ceeb", "#d0d0d0", "#e88080", "#a0d890")
_LINE_COLORS = ("#1f3a5f", "#555555", "#8c1f1f", "#2f6f2f")

# stream-derivation labels (RngSeed.child path roots)
_PATH_FIG1 = 1
_PATH_MIX_DATA = 2
_PATH_MIX_CHAIN = 3


def _fmt(v) -> str:
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def _a0_label(a0: float) -> str:
    """Condition label of one prior: names its SVG file and table entry."""
    return f"a0_{a0:.10g}"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n_grid: tuple[int, ...]
    replicas: int = 20
    a0_list: tuple[float, ...] = (0.1, 0.5, 1.0)
    lambda_true: float = 4.0
    mcmc: McmcConfig = McmcConfig()
    seed: RngSeed = RngSeed(0)
    output_dir: Path | None = None
    t: float = 1.96

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}")
        if len(self.n_grid) == 0 or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be non-empty and strictly ascending")
        if any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid entries must be positive")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if not all(math.isfinite(a) and a > 0.0 for a in self.a0_list):
            raise ValueError("a0 values must be positive and finite")
        if len({_a0_label(a) for a in self.a0_list}) < len(self.a0_list):
            raise ValueError("a0 values must differ at 10 significant digits")
        if not (math.isfinite(self.lambda_true) and self.lambda_true > 0.0):
            raise ValueError("lambda_true must be positive and finite")
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError("t must be non-negative and finite")


def desk_scale_config(experiment: str, seed: RngSeed, **overrides) -> ExperimentConfig:
    """Default desk-scale settings per experiment (full scale is a flag away)."""
    if experiment == "fig1":
        base = dict(n_grid=(10, 100, 1000), replicas=250)
    elif experiment in ("fig2", "fig3"):
        base = dict(n_grid=(1, 2, 5, 10, 20, 50, 100, 200, 500, 1000), replicas=20)
    else:
        base = dict(n_grid=(10, 100, 1000, 10_000, 100_000, 1_000_000), replicas=1)
    base.update(overrides)
    return ExperimentConfig(experiment=experiment, seed=seed, **base)


@dataclass(frozen=True)
class ExperimentResult:
    """`table[condition][series]` holds one row of RIBBON_QUANTILES per
    `n_grid` entry, taken over the replicas of that cell."""

    experiment: str
    table: dict[str, dict[str, np.ndarray]]
    csv_header: tuple[str, ...]
    csv_rows: tuple[tuple, ...]
    artifacts: tuple[Path, ...] = ()
    n_resimulated: int = 0


def _expect(config: ExperimentConfig, experiment: str) -> None:
    if config.experiment != experiment:
        raise ValueError(f"config.experiment must be {experiment!r}")


def _ribbon_quantiles(block: np.ndarray) -> np.ndarray:
    """(n, replica) block -> one row of RIBBON_QUANTILES per n."""
    return np.quantile(block, RIBBON_QUANTILES, axis=-1).T


def _sweep_result(
    config: ExperimentConfig, leads: dict[str, tuple], series: dict[str, np.ndarray], n_resimulated: int = 0
) -> ExperimentResult:
    """CSV rows, ribbon table and artifacts of a replicated sweep.

    `leads` maps each condition label to the columns that open its CSV
    rows. Each array in `series` has shape (condition, n, replica) and is
    both one CSV column and one ribbon series of the same name.
    """
    cells = np.stack(list(series.values()), axis=-1).tolist()
    csv_rows = tuple(
        (*lead, n, r, *cells[c][i][r])
        for c, lead in enumerate(leads.values())
        for i, n in enumerate(config.n_grid)
        for r in range(config.replicas)
    )
    table = {
        cond: {name: _ribbon_quantiles(block[c]) for name, block in series.items()}
        for c, cond in enumerate(leads)
    }
    artifacts = _emit(config, csv_rows, _ribbon_svgs(config, table))
    return ExperimentResult(
        config.experiment, table, CSV_HEADERS[config.experiment], csv_rows, artifacts, n_resimulated
    )


def _ribbon_svgs(config: ExperimentConfig, table):
    """Yield (file name, SVG text) per condition: each series draws its
    min-max band and its median line."""
    from .svg import Band, Line, ribbon_plot_svg

    for cond, series in table.items():
        bands, lines = [], []
        for i, (name, q) in enumerate(series.items()):
            lo, mid, hi = (tuple(q[:, j].tolist()) for j in (0, _MEDIAN, -1))
            bands.append(Band(f"{name} min-max", lo, hi, _BAND_COLORS[i % len(_BAND_COLORS)]))
            lines.append(
                Line(f"{name} q50", mid, _LINE_COLORS[i % len(_LINE_COLORS)], "" if i == 0 else "5,3")
            )
        svg = ribbon_plot_svg(
            config.n_grid, bands, lines,
            title=f"{config.experiment} {cond}", y_label=_Y_LABELS[config.experiment],
        )
        yield f"{config.experiment}_{cond}.svg", svg


def _emit(config: ExperimentConfig, csv_rows, svgs) -> tuple[Path, ...]:
    """Write <experiment>.csv and each (file name, SVG text) pair of `svgs`.

    Without an output directory nothing is written and `svgs` is never
    iterated, so a generator of SVGs renders none.
    """
    if config.output_dir is None:
        return ()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv = "".join(",".join(map(_fmt, row)) + "\n" for row in (CSV_HEADERS[config.experiment], *csv_rows))
    paths = []
    for name, text in ((f"{config.experiment}.csv", csv), *svgs):
        paths.append(out / name)
        with open(paths[-1], "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    return tuple(paths)


# ----------------------------------------------------------------------
# fig1: Bayes factor consistency sweep


def run_fig1(config: ExperimentConfig) -> ExperimentResult:
    """Spread of log BF10 under both hypotheses across replicated means.

    Null replicas draw xbar ~ N(0, 1/n); alternative replicas draw
    mu ~ N(0,1) then xbar ~ N(mu, 1/n) (the prior predictive).
    """
    _expect(config, "fig1")
    values = np.empty((2, len(config.n_grid), config.replicas))
    for cell in np.ndindex(values.shape):
        hyp_idx, n_idx, _ = cell
        n = config.n_grid[n_idx]
        rng = Rng(config.seed.child(_PATH_FIG1, *cell))
        mu = 0.0 if hyp_idx == 0 else rng.normal()
        xbar = rng.normal(mu, 1.0 / math.sqrt(n))
        values[cell] = log_bf10_normal(NormalSummary(n, xbar)).log_bf
    return _sweep_result(config, {"H0": ("fig1", "H0"), "H1": ("fig1", "H1")}, {"log_bf10": values})


# ----------------------------------------------------------------------
# fig2 / fig3: mixture-weight concentration


def _run_mixture(config: ExperimentConfig) -> ExperimentResult:
    """One Gibbs chain per (a0, n, replica) cell on nonzero Poisson data;
    fig3 adds both closed-form posterior probabilities of the Poisson model.

    Every cell's dataset (and its closed-form columns) comes first, in
    cell order; then all chains run in one lockstep call."""
    shape = (len(config.a0_list), len(config.n_grid), config.replicas)
    series = {name: np.empty(shape) for name in CSV_HEADERS[config.experiment][3:]}
    gaps = np.empty(shape)
    n_resimulated = 0
    chain_cells = []
    for cell in np.ndindex(shape):
        a0_idx, n_idx, _ = cell
        data, attempt = nonzero_counts(
            "poisson", config.lambda_true, config.n_grid[n_idx], config.seed, _PATH_MIX_DATA, *cell
        )
        n_resimulated += attempt
        chain_cells.append(
            (data, MixtureSpec(config.a0_list[a0_idx]), config.seed.child(_PATH_MIX_CHAIN, *cell, attempt))
        )
        if config.experiment == "fig3":
            shared = log_bf12_shared_improper(data).log_bf
            printed = log_bf12_printed(data).log_bf
            series["post_prob_m1_shared"][cell] = posterior_prob_from_log_bf(shared)
            series["post_prob_m1_printed"][cell] = posterior_prob_from_log_bf(printed)
            gaps[cell] = printed - shared
    for cell, chain in zip(np.ndindex(shape), run_gibbs_chains(chain_cells, config.mcmc)):
        series["post_mean_alpha"][cell] = chain.alpha_draws.mean()
        series["post_median_alpha"][cell] = np.median(chain.alpha_draws)
    if config.experiment == "fig3":
        logger.info(
            "printed-formula vs shared-improper log BF12 gap over %d replicas: "
            "median %.6g, min %.6g, max %.6g (columns emitted side by side)",
            gaps.size,
            float(np.median(gaps)),
            float(gaps.min()),
            float(gaps.max()),
        )
    leads = {_a0_label(a0): (a0,) for a0 in config.a0_list}
    return _sweep_result(config, leads, series, n_resimulated)


def run_fig2(config: ExperimentConfig) -> ExperimentResult:
    """Posterior mean/median of the mixture weight over Poisson replicas."""
    _expect(config, "fig2")
    return _run_mixture(config)


def run_fig3(config: ExperimentConfig) -> ExperimentResult:
    """fig2 columns plus the posterior probability of the Poisson model.

    The shared-improper route is the comparison column; the printed
    formula is emitted alongside and its divergence logged.
    """
    _expect(config, "fig3")
    return _run_mixture(config)


# ----------------------------------------------------------------------
# lindley: fixed test statistic against growing n


def run_lindley(config: ExperimentConfig) -> ExperimentResult:
    """log BF01 at a fixed test statistic across sample sizes."""
    _expect(config, "lindley")
    from .svg import Line, ribbon_plot_svg

    t = float(config.t)
    values = [log_bf01_lindley(n, t).log_bf for n in config.n_grid]
    csv_rows = tuple((t, n, v) for n, v in zip(config.n_grid, values))
    cond = f"t_{t:.10g}"
    table = {cond: {"log_bf01": _ribbon_quantiles(np.array(values)[:, None])}}
    svg = ribbon_plot_svg(
        config.n_grid, [], [Line("log_bf01", tuple(values))],
        title=f"log BF01 at fixed t = {t:.10g}", y_label="log BF01",
    )
    artifacts = _emit(config, csv_rows, [(f"lindley_{cond}.svg", svg)])
    return ExperimentResult("lindley", table, CSV_HEADERS["lindley"], csv_rows, artifacts)


_RUNNERS = {"fig1": run_fig1, "fig2": run_fig2, "fig3": run_fig3, "lindley": run_lindley}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch on config.experiment."""
    return _RUNNERS[config.experiment](config)
