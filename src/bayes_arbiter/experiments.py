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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .calibration import nonzero_counts
from .distributions import CountDataset
from .evidence import (
    NormalSummary,
    log_bf01_lindley,
    log_bf10_normal,
    log_bf12_printed,
    log_bf12_shared_improper,
    posterior_prob_from_log_bf,
)
from .mixture import McmcConfig, MixtureSpec, run_gibbs
from .rng import Rng, RngSeed

logger = logging.getLogger(__name__)

EXPERIMENTS = ("fig1", "fig2", "fig3", "lindley")
RIBBON_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)

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

# stream-derivation labels (RngSeed.child path roots)
_PATH_FIG1 = 1
_PATH_MIX_DATA = 2
_PATH_MIX_CHAIN = 3


def _fmt(v) -> str:
    return f"{v:.10g}" if isinstance(v, float) else str(v)


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
        if not (math.isfinite(self.lambda_true) and self.lambda_true > 0.0):
            raise ValueError("lambda_true must be positive and finite")
        if self.t < 0.0:
            raise ValueError("t must be non-negative")


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
class RibbonRow:
    condition: str
    series: str
    n: int
    quantile: str
    value: float


@dataclass(frozen=True)
class RibbonTable:
    rows: tuple[RibbonRow, ...]

    def conditions(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.rows:
            seen.setdefault(r.condition, None)
        return list(seen)

    def series(self, condition: str) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.rows:
            if r.condition == condition:
                seen.setdefault(r.series, None)
        return list(seen)

    def quantile_values(self, condition: str, series: str, quantile: str) -> list[tuple[int, float]]:
        out = [
            (r.n, r.value)
            for r in self.rows
            if r.condition == condition and r.series == series and r.quantile == quantile
        ]
        return sorted(out)


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    table: RibbonTable
    csv_header: tuple[str, ...]
    csv_rows: tuple[tuple, ...]
    artifacts: tuple[Path, ...] = ()
    n_resimulated: int = 0


def _quantile_label(q: float) -> str:
    if q == 0.0:
        return "min"
    if q == 1.0:
        return "max"
    return f"q{int(round(q * 100))}"


def _ribbon_rows(condition: str, series: str, n: int, samples) -> list[RibbonRow]:
    arr = np.asarray(samples, dtype=float)
    return [
        RibbonRow(condition, series, n, _quantile_label(q), float(np.quantile(arr, q)))
        for q in RIBBON_QUANTILES
    ]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _ribbon_svg_for_condition(table: RibbonTable, condition: str, title: str, y_label: str) -> str:
    from .svg import Band, Line, ribbon_plot_svg

    lo_label, hi_label = _quantile_label(RIBBON_QUANTILES[0]), _quantile_label(RIBBON_QUANTILES[-1])
    palette = ("#87ceeb", "#d0d0d0", "#e88080", "#a0d890")
    line_colors = ("#1f3a5f", "#555555", "#8c1f1f", "#2f6f2f")
    bands, lines = [], []
    xs: list[int] = []
    for i, series in enumerate(table.series(condition)):
        lo = table.quantile_values(condition, series, lo_label)
        hi = table.quantile_values(condition, series, hi_label)
        xs = [n for n, _ in lo]
        bands.append(
            Band(
                label=f"{series} {lo_label}-{hi_label}",
                low=tuple(v for _, v in lo),
                high=tuple(v for _, v in hi),
                color=palette[i % len(palette)],
            )
        )
        mid = table.quantile_values(condition, series, "q50")
        if mid:
            lines.append(
                Line(
                    label=f"{series} q50",
                    values=tuple(v for _, v in mid),
                    color=line_colors[i % len(line_colors)],
                    dasharray="" if i == 0 else "5,3",
                )
            )
    return ribbon_plot_svg(xs, bands, lines, title=title, y_label=y_label)


# ----------------------------------------------------------------------
# fig1: Bayes factor consistency sweep


def run_fig1(config: ExperimentConfig) -> ExperimentResult:
    """Spread of log BF10 under both hypotheses across replicated means.

    Null replicas draw xbar ~ N(0, 1/n); alternative replicas draw
    mu ~ N(0,1) then xbar ~ N(mu, 1/n) (the prior predictive).
    """
    if config.experiment != "fig1":
        raise ValueError("config.experiment must be 'fig1'")

    csv_rows: list[tuple] = []
    ribbon: list[RibbonRow] = []
    for hyp_idx, hyp in enumerate(("H0", "H1")):
        for n_idx, n in enumerate(config.n_grid):
            values = np.empty(config.replicas)
            for r in range(config.replicas):
                rng = Rng(config.seed.child(_PATH_FIG1, hyp_idx, n_idx, r))
                if hyp_idx == 0:
                    xbar = rng.normal(0.0, 1.0 / math.sqrt(n))
                else:
                    mu = rng.normal()
                    xbar = rng.normal(mu, 1.0 / math.sqrt(n))
                values[r] = log_bf10_normal(NormalSummary(n, xbar)).log_bf
                csv_rows.append(("fig1", hyp, n, r, float(values[r])))
            ribbon.extend(_ribbon_rows(hyp, "log_bf10", n, values))

    table = RibbonTable(tuple(ribbon))
    artifacts = _emit(config, table, csv_rows, y_label="log BF10")
    return ExperimentResult("fig1", table, CSV_HEADERS["fig1"], tuple(csv_rows), artifacts)


# ----------------------------------------------------------------------
# fig2 / fig3: mixture-weight concentration


@dataclass(frozen=True)
class _MixOutcome:
    a0: float
    n: int
    replica: int
    post_mean: float
    post_median: float
    data: CountDataset = field(repr=False)
    attempts: int = 0


def _mixture_replica(config: ExperimentConfig, a0_idx: int, n_idx: int, replica: int) -> _MixOutcome:
    a0 = config.a0_list[a0_idx]
    n = config.n_grid[n_idx]
    data, attempt = nonzero_counts(
        "poisson", config.lambda_true, n, config.seed, _PATH_MIX_DATA, a0_idx, n_idx, replica
    )
    chain = run_gibbs(
        data,
        MixtureSpec(a0),
        config.mcmc,
        config.seed.child(_PATH_MIX_CHAIN, a0_idx, n_idx, replica, attempt),
    )
    return _MixOutcome(
        a0=a0,
        n=n,
        replica=replica,
        post_mean=float(chain.alpha_draws.mean()),
        post_median=float(np.median(chain.alpha_draws)),
        data=data,
        attempts=attempt,
    )


def _run_mixture_sweep(config: ExperimentConfig) -> list[_MixOutcome]:
    return [
        _mixture_replica(config, a, i, r)
        for a in range(len(config.a0_list))
        for i in range(len(config.n_grid))
        for r in range(config.replicas)
    ]


def _mixture_result(config: ExperimentConfig, outcomes, extra_columns, y_label: str) -> ExperimentResult:
    """CSV rows, per-(a0, n) ribbons and artifacts for fig2/fig3.

    Each column after the replica index holds one value per outcome and
    becomes one ribbon series of the same name.
    """
    columns = {
        "post_mean_alpha": [o.post_mean for o in outcomes],
        "post_median_alpha": [o.post_median for o in outcomes],
        **extra_columns,
    }
    csv_rows = [
        (o.a0, o.n, o.replica, *(col[i] for col in columns.values()))
        for i, o in enumerate(outcomes)
    ]
    ribbon: list[RibbonRow] = []
    for a0 in config.a0_list:
        for n in config.n_grid:
            cell = [i for i, o in enumerate(outcomes) if o.a0 == a0 and o.n == n]
            for series, col in columns.items():
                ribbon.extend(_ribbon_rows(f"a0_{a0:.10g}", series, n, [col[i] for i in cell]))
    table = RibbonTable(tuple(ribbon))
    artifacts = _emit(config, table, csv_rows, y_label=y_label)
    return ExperimentResult(
        config.experiment,
        table,
        CSV_HEADERS[config.experiment],
        tuple(csv_rows),
        artifacts,
        n_resimulated=sum(o.attempts for o in outcomes),
    )


def run_fig2(config: ExperimentConfig) -> ExperimentResult:
    """Posterior mean/median of the mixture weight over Poisson replicas."""
    if config.experiment != "fig2":
        raise ValueError("config.experiment must be 'fig2'")
    return _mixture_result(config, _run_mixture_sweep(config), {}, y_label="mixture weight")


def run_fig3(config: ExperimentConfig) -> ExperimentResult:
    """fig2 columns plus the posterior probability of the Poisson model.

    The shared-improper route is the comparison column; the printed
    formula is emitted alongside and its divergence logged.
    """
    if config.experiment != "fig3":
        raise ValueError("config.experiment must be 'fig3'")
    outcomes = _run_mixture_sweep(config)

    p_shared, p_printed, gaps = [], [], []
    for o in outcomes:
        shared = log_bf12_shared_improper(o.data).log_bf
        printed = log_bf12_printed(o.data).log_bf
        p_shared.append(posterior_prob_from_log_bf(shared))
        p_printed.append(posterior_prob_from_log_bf(printed))
        gaps.append(printed - shared)

    gaps_arr = np.asarray(gaps)
    logger.info(
        "printed-formula vs shared-improper log BF12 gap over %d replicas: "
        "median %.6g, min %.6g, max %.6g (columns emitted side by side)",
        gaps_arr.size,
        float(np.median(gaps_arr)),
        float(gaps_arr.min()),
        float(gaps_arr.max()),
    )
    return _mixture_result(
        config,
        outcomes,
        {"post_prob_m1_shared": p_shared, "post_prob_m1_printed": p_printed},
        y_label="weight / model probability",
    )


# ----------------------------------------------------------------------
# lindley: fixed test statistic against growing n


def run_lindley(
    t: float,
    n_grid,
    output_dir: Path | None = None,
) -> ExperimentResult:
    """log BF01 at a fixed test statistic across sample sizes."""
    if t < 0.0:
        raise ValueError("t must be non-negative")
    ns = [int(n) for n in n_grid]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ValueError("n_grid must be non-empty, positive, strictly ascending")
    csv_rows = [(float(t), n, log_bf01_lindley(n, t).log_bf) for n in ns]
    ribbon = tuple(
        RibbonRow(f"t_{t:.10g}", "log_bf01", n, "q50", v) for (_, n, v) in csv_rows
    )
    table = RibbonTable(ribbon)
    artifacts: tuple[Path, ...] = ()
    if output_dir is not None:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        csv_path = output_dir / "lindley.csv"
        _write_csv(csv_path, CSV_HEADERS["lindley"], csv_rows)
        from .svg import Line, ribbon_plot_svg

        svg_path = output_dir / f"lindley_t_{t:.10g}.svg"
        _write_text(
            svg_path,
            ribbon_plot_svg(
                ns,
                bands=[],
                lines=[Line("log_bf01", tuple(v for _, _, v in csv_rows))],
                title=f"log BF01 at fixed t = {t:.10g}",
                y_label="log BF01",
            ),
        )
        artifacts = (csv_path, svg_path)
    return ExperimentResult("lindley", table, CSV_HEADERS["lindley"], tuple(csv_rows), artifacts)


# ----------------------------------------------------------------------
# artifact emission


def _emit(config: ExperimentConfig, table: RibbonTable, csv_rows, y_label: str) -> tuple[Path, ...]:
    if config.output_dir is None:
        return ()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    csv_path = out / f"{config.experiment}.csv"
    _write_csv(csv_path, CSV_HEADERS[config.experiment], csv_rows)
    paths.append(csv_path)
    for cond in table.conditions():
        svg_path = out / f"{config.experiment}_{cond}.svg"
        _write_text(
            svg_path,
            _ribbon_svg_for_condition(table, cond, title=f"{config.experiment} {cond}", y_label=y_label),
        )
        paths.append(svg_path)
    return tuple(paths)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch on config.experiment."""
    if config.experiment == "fig1":
        return run_fig1(config)
    if config.experiment == "fig2":
        return run_fig2(config)
    if config.experiment == "fig3":
        return run_fig3(config)
    return run_lindley(config.t, config.n_grid, config.output_dir)
