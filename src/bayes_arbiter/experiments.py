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
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .calibration import nonzero_counts
from .errors import require_simulable, require_storable
from .evidence import (
    NormalSummary,
    log_bf01_lindley,
    log_bf10_normal,
    log_bf12_printed,
    log_bf12_shared_improper,
    posterior_prob_from_log_bf,
)
from .mixture import McmcConfig, MixtureSpec, run_gibbs_chains
from .rng import Rng, RngSeed, _box_muller

logger = logging.getLogger(__name__)

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


_MIXTURE_SETTINGS = {
    "n_grid": (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000),
    "replicas": 20,
    "a0_list": (0.1, 0.5, 1.0),
    "lambda_true": 4.0,
    "mcmc": McmcConfig(),
}
# the settings each experiment reads, with their desk-scale defaults
# (full scale is a flag away); seed and output_dir are run-level
SETTINGS = {
    "fig1": {"n_grid": (10, 100, 1000), "replicas": 250},
    "fig2": _MIXTURE_SETTINGS,
    "fig3": _MIXTURE_SETTINGS,
    "lindley": {"n_grid": (10, 100, 1000, 10_000, 100_000, 1_000_000), "t": 1.96},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One run of an experiment: a setting left as None takes the experiment's
    default from SETTINGS, and one the experiment does not read raises ValueError."""

    experiment: str
    n_grid: tuple[int, ...] | None = None
    replicas: int | None = None
    a0_list: tuple[float, ...] | None = None
    lambda_true: float | None = None
    mcmc: McmcConfig | None = None
    t: float | None = None
    seed: RngSeed = RngSeed(0)
    output_dir: Path | None = None

    def __post_init__(self):
        if self.experiment not in SETTINGS:
            raise ValueError(f"experiment must be one of {tuple(SETTINGS)}")
        reads = SETTINGS[self.experiment]
        for name in ("n_grid", "replicas", "a0_list", "lambda_true", "mcmc", "t"):
            if name in reads:
                if getattr(self, name) is None:
                    object.__setattr__(self, name, reads[name])
            elif getattr(self, name) is not None:
                raise ValueError(f"{self.experiment} does not read {name}; it reads {', '.join(reads)}")
        if len(self.n_grid) == 0 or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be non-empty and strictly ascending")
        if any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid entries must be positive")
        if self.replicas is not None and self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.a0_list is not None:
            if len(self.a0_list) == 0:
                raise ValueError("a0_list must be non-empty")
            for a0 in self.a0_list:
                MixtureSpec(a0)  # refuses a0 outside (0, 1000]
            if len({_a0_label(a) for a in self.a0_list}) < len(self.a0_list):
                raise ValueError("a0 values must differ at 10 significant digits")
        if self.lambda_true is not None and not (math.isfinite(self.lambda_true) and self.lambda_true > 0.0):
            raise ValueError("lambda_true must be positive and finite")
        if self.t is not None and not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError("t must be non-negative and finite")
        if self.replicas is not None:
            # one cell per hypothesis (fig1) or prior (fig2, fig3), n and replica, and a chain per cell
            cells = (2 if self.a0_list is None else len(self.a0_list), len(self.n_grid), self.replicas)
            kept = () if self.mcmc is None else (self.mcmc.iterations - self.mcmc.burn_in,)
            require_storable("the chain traces" if kept else "the fig1 table", *cells, *kept)
            if self.a0_list is not None:
                # fig2 and fig3 hold every cell's dataset before the first chain
                require_simulable(self.n_grid, len(self.a0_list) * self.replicas)


@dataclass(frozen=True)
class ExperimentResult:
    """`table[condition][series]` holds one row of RIBBON_QUANTILES per
    `n_grid` entry, taken over the replicas of that cell.  `stage_seconds`
    holds the wall time of each stage of a replicated sweep."""

    experiment: str
    table: dict[str, dict[str, np.ndarray]]
    csv_header: tuple[str, ...]
    csv_rows: tuple[tuple, ...]
    artifacts: tuple[Path, ...] = ()
    n_resimulated: int = 0
    stage_seconds: dict[str, float] = field(default_factory=dict)


def _ribbon_quantiles(block: np.ndarray) -> np.ndarray:
    """(n, replica) block -> one row of RIBBON_QUANTILES per n."""
    return np.quantile(block, RIBBON_QUANTILES, axis=-1).T


def _sweep_result(
    config: ExperimentConfig,
    leads: dict[str, tuple],
    series: dict[str, np.ndarray],
    stage_seconds: dict[str, float],
    n_resimulated: int = 0,
) -> ExperimentResult:
    """CSV rows, ribbon table and artifacts of a replicated sweep.

    `leads` maps each condition label to the columns that open its CSV
    rows. Each array in `series` has shape (condition, n, replica) and is
    both one CSV column and one ribbon series of the same name.  The time
    this takes joins `stage_seconds` as "emission".
    """
    started = time.perf_counter()
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
    stage_seconds = {**stage_seconds, "emission": time.perf_counter() - started}
    return ExperimentResult(
        config.experiment, table, CSV_HEADERS[config.experiment], csv_rows, artifacts, n_resimulated,
        stage_seconds,
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


def _run_fig1(config: ExperimentConfig) -> ExperimentResult:
    """Spread of log BF10 under both hypotheses across replicated means.

    Null replicas draw xbar ~ N(0, 1/n); alternative replicas draw
    mu ~ N(0,1) then xbar ~ N(mu, 1/n) (the prior predictive).
    """
    started = time.perf_counter()
    values = np.empty((2, len(config.n_grid), config.replicas))
    for cell in np.ndindex(values.shape):
        hyp_idx, n_idx, _ = cell
        n = config.n_grid[n_idx]
        # the cell's stream read once: a normal per uniform pair, as Rng.normal
        u = Rng(config.seed.child(_PATH_FIG1, *cell)).uniform(2 + 2 * hyp_idx).tolist()
        mu = 0.0 if hyp_idx == 0 else _box_muller(0.0, 1.0, *u[:2])
        xbar = _box_muller(mu, 1.0 / math.sqrt(n), *u[-2:])
        values[cell] = log_bf10_normal(NormalSummary(n, xbar)).log_bf
    leads = {"H0": ("fig1", "H0"), "H1": ("fig1", "H1")}
    return _sweep_result(config, leads, {"log_bf10": values}, {"data": time.perf_counter() - started})


# ----------------------------------------------------------------------
# fig2 / fig3: mixture-weight concentration


def _run_mixture(config: ExperimentConfig) -> ExperimentResult:
    """One Gibbs chain per (a0, n, replica) cell on nonzero Poisson data;
    fig3 adds both closed-form posterior probabilities of the Poisson model.

    Every cell's dataset (and its closed-form columns) comes first, in
    cell order; then all chains run in one lockstep call.  The two are
    timed as the stages "data" and "chains"."""
    started = time.perf_counter()
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
    stage_seconds = {"data": time.perf_counter() - started}
    started = time.perf_counter()
    for cell, chain in zip(np.ndindex(shape), run_gibbs_chains(chain_cells, config.mcmc)):
        series["post_mean_alpha"][cell] = chain.alpha_draws.mean()
        series["post_median_alpha"][cell] = np.median(chain.alpha_draws)
    stage_seconds["chains"] = time.perf_counter() - started
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
    return _sweep_result(config, leads, series, stage_seconds, n_resimulated)


# ----------------------------------------------------------------------
# lindley: fixed test statistic against growing n


def _run_lindley(config: ExperimentConfig) -> ExperimentResult:
    """log BF01 at a fixed test statistic across sample sizes."""
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


_RUNNERS = {"fig1": _run_fig1, "fig2": _run_mixture, "fig3": _run_mixture, "lindley": _run_lindley}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run config.experiment and write its artifacts to config.output_dir."""
    return _RUNNERS[config.experiment](config)
