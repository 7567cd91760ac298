"""Command-line front door.

Scalar results print as JSON on stdout; experiments write CSV/SVG
artifacts plus a run manifest (provenance sidecar with checksums and
wall time) beside them.  Exit codes: 0 success, 2 usage error, 3 domain
degeneracy (improper marginal/posterior), 4 numeric accuracy failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .calibration import (
    DISCREPANCIES,
    bootstrap_alpha_cutoff,
    lambda_posterior_draws,
    posterior_predictive_pvalue,
    predictive_bf_tails,
)
from .distributions import COUNT_FAMILIES, CountDataset
from .errors import AccuracyError, DegeneracyError
from .evidence import (
    NormalSummary,
    log_bf01_lindley,
    log_bf10_normal,
    log_bf12_printed,
    log_bf12_shared_improper,
    log_marginal_geometric_improper,
    log_marginal_poisson_improper,
    log_marginal_quadrature,
    posterior_prob_from_log_bf,
)
from .experiments import SETTINGS, ExperimentConfig, run_experiment
from .mixture import (
    McmcConfig,
    MixtureSpec,
    grid_posterior_alpha,
    posterior_summary,
    run_gibbs,
    run_marginal_mh,
)
from .rng import STREAM_LAYOUT, Rng, RngSeed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERACY = 3
EXIT_ACCURACY = 4


# ----------------------------------------------------------------------
# output helpers


def _round10(obj):
    """Round floats to 10 significant digits recursively; non-finite -> None."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round10(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round10(v) for v in obj]
    return obj


# JSON has no infinity: a Bayes factor past the largest double prints as this
# bound, and its log field keeps the value
_BF_OVERFLOW = f">{sys.float_info.max:.10g}"


def _linear_bf(bf) -> float | str:
    value = bf.bf
    return value if math.isfinite(value) else _BF_OVERFLOW


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(_round10(obj), indent=2) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int, digests: dict[str, str],
                    n_resimulated: int, wall_time: float, stage_seconds: dict[str, float]) -> Path:
    manifest = {
        "command": command,
        "config": _round10(config),
        "seed": seed,
        "artifacts": digests,
        "n_resimulated": n_resimulated,
        "wall_time_s": round(wall_time, 3),
        "stage_seconds": {stage: round(seconds, 3) for stage, seconds in stage_seconds.items()},
        "version": __version__,
        "stream_layout": STREAM_LAYOUT,
    }
    path = out_dir / "run_manifest.json"
    tmp = out_dir / "run_manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    tmp.replace(path)
    return path


# ----------------------------------------------------------------------
# argument parsing helpers


def _parse_counts(text: str) -> list[int]:
    items = [s for chunk in text.split(",") for s in chunk.split()]
    try:
        return [int(s) for s in items if s]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected integers: {e}") from None


def _text_lines(path: str) -> list[str]:
    """The lines of a text file, each stripped of its # comment and of
    surrounding blanks, less those left empty."""
    with open(path, "r", encoding="utf-8") as f:
        return [line for line in (raw.split("#", 1)[0].strip() for raw in f) if line]


def _read_data_file(path: str) -> list[int]:
    return [value for line in _text_lines(path) for value in _parse_counts(line)]


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _dataset_from_args(args) -> CountDataset:
    if getattr(args, "data", None):
        return CountDataset(_parse_counts(args.data))
    if getattr(args, "data_file", None):
        return CountDataset(_read_data_file(args.data_file))
    raise _usage_error("provide --data or --data-file")


def _int_like(text: str, least: int = 1) -> int:
    # accept 1e6-style notation for counts
    v = float(text)
    if v < least or not v.is_integer():
        kind = "positive" if least > 0 else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return int(v)


def _burn_in(text: str) -> int:
    return _int_like(text, least=0)  # 0 keeps every draw


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(s) for s in text.split(",") if s)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(_int_like(s) for s in text.split(",") if s)


def _load_config_file(path: str) -> dict[str, str]:
    """Flat key=value file with # comments; later keys override earlier."""
    out: dict[str, str] = {}
    for line in _text_lines(path):
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


# Each experiment setting and its parser, in --help order: the setting is
# both a flag (its key with - for _) and a config-file key.  The seed and
# the output directory are flags only.
_EXPERIMENT_SETTINGS = {
    "replicas": _int_like,
    "n_grid": _int_list,
    "a0_list": _float_list,
    "lambda_true": float,
    "t": float,
    "iters": _int_like,
    "burn_in": _burn_in,
}


def _given(args, *names, **renamed) -> dict:
    """Library keyword -> value of each flag given, for flags that feed a
    library default: they default to None, so the library's default applies.
    `renamed` maps a keyword to the flag destination that feeds it."""
    dests = {**{name: name for name in names}, **renamed}
    return {key: getattr(args, dest) for key, dest in dests.items() if getattr(args, dest) is not None}


def _mcmc_config(args) -> McmcConfig:
    return McmcConfig(**_given(args, "burn_in", iterations="iters"))


def _experiment_settings(args) -> dict:
    """ExperimentConfig settings resolved as flag > config file.

    Every experiment flag defaults to None, so any value argparse parsed
    (abbreviated option names included) wins over the file, whose values
    fill the flags left unset.  Keys set by neither are left out, and
    ExperimentConfig gives them the desk default.
    """
    if args.config:
        for key, raw in _load_config_file(args.config).items():
            if key not in _EXPERIMENT_SETTINGS:
                raise ValueError(f"unknown config key {key!r}")
            if getattr(args, key) is None:
                setattr(args, key, _EXPERIMENT_SETTINGS[key](raw))
    settings = _given(args, "replicas", "n_grid", "a0_list", "lambda_true", "t")
    if args.iters is not None or args.burn_in is not None:
        settings["mcmc"] = _mcmc_config(args)
    return settings


# ----------------------------------------------------------------------
# commands


def cmd_bf(args) -> int:
    if args.family == "normal":
        summary = NormalSummary(args.n, args.xbar, **_given(args, "theta0", "sigma"))
        bf10 = log_bf10_normal(summary)
        _print_json(
            {
                "family": "normal",
                "n": summary.n,
                "xbar": summary.xbar,
                "theta0": summary.theta0,
                "sigma": summary.sigma,
                "log_bf10": bf10.log_bf,
                "bf10": _linear_bf(bf10),
                "log_bf01": -bf10.log_bf,
                "method": bf10.method,
            }
        )
        return EXIT_OK
    data = _dataset_from_args(args)
    shared = log_bf12_shared_improper(data)
    printed = log_bf12_printed(data)
    out = {
        "family": "poisgeo",
        "n": data.n,
        "total": data.total,
        "log_marginal_poisson": log_marginal_poisson_improper(data).log_evidence,
        "log_marginal_geometric": log_marginal_geometric_improper(data).log_evidence,
        "log_bf12_shared": shared.log_bf,
        "bf12_shared": _linear_bf(shared),
        "log_bf12_printed": printed.log_bf,
        "bf12_printed": _linear_bf(printed),
        "post_prob_m1_shared": posterior_prob_from_log_bf(shared.log_bf),
        "post_prob_m1_printed": posterior_prob_from_log_bf(printed.log_bf),
        "methods": [shared.method, printed.method],
    }
    if args.check_quadrature:
        q_p = log_marginal_quadrature(data, "poisson")
        q_g = log_marginal_quadrature(data, "geometric")
        out["log_bf12_quadrature"] = q_p.log_evidence - q_g.log_evidence
        out["quadrature_error_estimate"] = max(q_p.error_estimate, q_g.error_estimate)
    _print_json(out)
    return EXIT_OK


def cmd_mixture(args) -> int:
    data = _dataset_from_args(args)
    spec = MixtureSpec(**_given(args, "a0"))
    runner = run_gibbs if args.kernel == "gibbs" else run_marginal_mh
    chain = runner(data, spec, _mcmc_config(args), RngSeed(args.seed))
    summary = posterior_summary(chain, **_given(args, "quantiles"))
    out = {
        "kernel": chain.kernel,
        "a0": spec.a0,
        "n": data.n,
        "total": data.total,
        "iterations": chain.iterations,
        "burn_in": chain.burn_in,
        "alpha_mean": summary.alpha_mean,
        "alpha_median": summary.alpha_median,
        "alpha_quantiles": {f"{q:g}": v for q, v in summary.alpha_quantiles.items()},
        "lambda_mean": summary.lambda_mean,
        "lambda_median": summary.lambda_median,
        "mh_acceptance_rate": chain.mh_acceptance_rate,
        "warnings": list(chain.warnings),
    }
    if args.grid_check:
        post = grid_posterior_alpha(data, spec)
        out["grid_alpha_mean"] = post.mean
        out["grid_alpha_median"] = post.median
        out["grid_normalization_error"] = post.normalization_error
    _print_json(out)
    return EXIT_OK


def cmd_lindley(args) -> int:
    bf = log_bf01_lindley(args.n, args.t)
    _print_json(
        {"t": args.t, "n": args.n, "log_bf01": bf.log_bf, "bf01": _linear_bf(bf), "method": bf.method}
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    seed = RngSeed(args.seed)
    if args.what == "tails":
        if args.family == "normal":
            if args.n is None or args.xbar is None:
                raise _usage_error("--n and --xbar are required with --family normal")
            observed = NormalSummary(args.n, args.xbar)
            method = "closed_form"
        else:
            observed = _dataset_from_args(args)
            method = "closed_form(improper prior)"
        report = predictive_bf_tails(observed, mode=args.mode, n_rep=args.n_rep, seed=seed)
        _print_json(
            {
                "what": "tails",
                "family": args.family,
                "mode": report.mode,
                "n_rep": report.n_rep,
                "p0": report.p0,
                "p1": report.p1,
                "mc_se_p0": report.mc_se_p0,
                "mc_se_p1": report.mc_se_p1,
                "n_degenerate_p0": report.n_degenerate_p0,
                "n_degenerate_p1": report.n_degenerate_p1,
                "statistic_method": method,
            }
        )
        return EXIT_OK
    if args.what == "pvalue":
        data = _dataset_from_args(args)
        draws = lambda_posterior_draws(data, args.family, args.posterior_draws, Rng(seed.child(99)))
        p = posterior_predictive_pvalue(
            data, draws, args.family, DISCREPANCIES[args.stat], n_rep=args.n_rep, seed=seed
        )
        _print_json(
            {
                "what": "pvalue",
                "family": args.family,
                "statistic": args.stat,
                "n_rep": args.n_rep,
                "p_value": p,
                "mc_se": math.sqrt(p * (1.0 - p) / args.n_rep),
            }
        )
        return EXIT_OK
    # cutoff
    result = bootstrap_alpha_cutoff(
        MixtureSpec(**_given(args, "a0")),
        generator=args.generator,
        lambda_true=args.lambda_true,
        n_obs=args.n_obs,
        replicas=args.replicas,
        mcmc=_mcmc_config(args),
        seed=seed,
        **_given(args, "summary", "q"),
    )
    _print_json(
        {
            "what": "cutoff",
            "generator": result.generator,
            "summary": result.summary,
            "q": result.q,
            "cutoff": result.cutoff,
            "replicas": len(result.alpha_summaries),
            "n_resimulated": result.n_resimulated,
        }
    )
    return EXIT_OK


def _manifest_config(config: ExperimentConfig) -> dict:
    """The settings the experiment read, with McmcConfig's fields inlined."""
    out = {"experiment": config.experiment}
    for name in SETTINGS[config.experiment]:
        value = getattr(config, name)
        out.update(vars(value) if name == "mcmc" else {name: value})
    return out


def cmd_experiment(args) -> int:
    started = time.time()
    out_dir = Path(args.out)
    config = ExperimentConfig(
        args.name, seed=RngSeed(args.seed), output_dir=out_dir, **_experiment_settings(args)
    )
    pre_existing = set(out_dir.glob("*")) if out_dir.exists() else set()
    try:
        result = run_experiment(config)
    except BaseException:
        # remove partial outputs written during this run
        if out_dir.exists():
            for p in set(out_dir.glob("*")) - pre_existing:
                if p.is_file():
                    p.unlink(missing_ok=True)
        raise
    wall = time.time() - started
    digests = {p.name: _sha256(p) for p in result.artifacts}
    manifest = _write_manifest(
        out_dir,
        command=f"experiment {args.name}",
        config=_manifest_config(config),
        seed=args.seed,
        digests=digests,
        n_resimulated=result.n_resimulated,
        wall_time=wall,
        stage_seconds=result.stage_seconds,
    )
    _print_json(
        {
            "experiment": result.experiment,
            "rows": len(result.csv_rows),
            "n_resimulated": result.n_resimulated,
            "artifacts": digests,
            "manifest": manifest.name,
        }
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayes-arbiter",
        description="Bayes factors, mixture-weight testing, predictive calibration, "
        "and seeded replication experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # bf
    p_bf = sub.add_parser("bf", help="closed-form Bayes factors")
    bf_sub = p_bf.add_subparsers(dest="family", required=True)
    p_norm = bf_sub.add_parser("normal", help="point null vs unit-prior mean")
    p_norm.add_argument("--n", type=_int_like, required=True)
    p_norm.add_argument("--xbar", type=float, required=True)
    p_norm.add_argument("--theta0", type=float)
    p_norm.add_argument("--sigma", type=float)
    p_norm.set_defaults(func=cmd_bf)
    p_pg = bf_sub.add_parser("poisgeo", help="Poisson vs geometric, shared 1/lambda prior")
    p_pg.add_argument("--data", help="comma-separated counts")
    p_pg.add_argument("--data-file", help="file of counts (whitespace/comma separated)")
    p_pg.add_argument(
        "--check-quadrature", action="store_true",
        help="also integrate both marginals numerically and report the BF",
    )
    p_pg.set_defaults(func=cmd_bf)

    # mixture
    p_mix = sub.add_parser("mixture", help="mixture-weight posterior for observed counts")
    p_mix.add_argument("--data")
    p_mix.add_argument("--data-file")
    p_mix.add_argument("--a0", type=float)
    p_mix.add_argument("--iters", type=_int_like)
    p_mix.add_argument("--burn-in", type=_burn_in)
    p_mix.add_argument("--kernel", choices=("gibbs", "mh"), default="gibbs")
    p_mix.add_argument("--quantiles", type=_float_list)
    p_mix.add_argument("--grid-check", action="store_true", help="also report grid-oracle mean/median")
    p_mix.add_argument("--seed", type=_int_like, required=True)
    p_mix.set_defaults(func=cmd_mixture)

    # lindley
    p_lin = sub.add_parser("lindley", help="log BF01 at a fixed test statistic")
    p_lin.add_argument("--t", type=float, required=True)
    p_lin.add_argument("--n", type=_int_like, required=True)
    p_lin.set_defaults(func=cmd_lindley)

    # calibrate
    p_cal = sub.add_parser("calibrate", help="predictive calibration of decision statistics")
    cal_sub = p_cal.add_subparsers(dest="what", required=True)
    p_tails = cal_sub.add_parser("tails", help="predictive tail probabilities of a Bayes factor")
    p_tails.add_argument("--family", choices=("normal", "poisgeo"), default="normal")
    p_tails.add_argument("--n", type=_int_like, help="sample size (normal family)")
    p_tails.add_argument("--xbar", type=float, help="observed mean (normal family)")
    p_tails.add_argument("--data")
    p_tails.add_argument("--data-file")
    p_tails.add_argument("--mode", choices=("prior", "posterior"), default="posterior")
    p_tails.add_argument("--n-rep", type=_int_like, default=10_000)
    p_tails.add_argument("--seed", type=_int_like, required=True)
    p_tails.set_defaults(func=cmd_calibrate)
    p_pv = cal_sub.add_parser("pvalue", help="posterior predictive p-value")
    p_pv.add_argument("--data")
    p_pv.add_argument("--data-file")
    p_pv.add_argument("--family", choices=COUNT_FAMILIES, default="poisson")
    p_pv.add_argument("--stat", choices=tuple(DISCREPANCIES), default="mean")
    p_pv.add_argument("--n-rep", type=_int_like, default=10_000)
    p_pv.add_argument("--posterior-draws", type=_int_like, default=2_000)
    p_pv.add_argument("--seed", type=_int_like, required=True)
    p_pv.set_defaults(func=cmd_calibrate)
    p_cut = cal_sub.add_parser("cutoff", help="parametric-bootstrap weight cutoff")
    p_cut.add_argument("--generator", choices=COUNT_FAMILIES, default="poisson")
    p_cut.add_argument("--lambda-true", type=float, default=4.0)
    p_cut.add_argument("--n-obs", type=_int_like, required=True)
    p_cut.add_argument("--replicas", type=_int_like, default=20)
    p_cut.add_argument("--a0", type=float)
    p_cut.add_argument("--iters", type=_int_like)
    p_cut.add_argument("--burn-in", type=_burn_in)
    p_cut.add_argument("--summary", choices=("mean", "median"))
    p_cut.add_argument("--q", type=float)
    p_cut.add_argument("--seed", type=_int_like, required=True)
    p_cut.set_defaults(func=cmd_calibrate)

    # experiment
    p_exp = sub.add_parser("experiment", help="replication experiments with CSV/SVG output")
    p_exp.add_argument("name", choices=SETTINGS)
    p_exp.add_argument("--seed", type=_int_like, required=True)
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--config", help="flat key=value config file; flags override")
    for key, parse in _EXPERIMENT_SETTINGS.items():
        p_exp.add_argument("--" + key.replace("_", "-"), type=parse)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegeneracyError as e:
        print(f"degenerate input: {e}", file=sys.stderr)
        return EXIT_DEGENERACY
    except AccuracyError as e:
        print(f"accuracy failure: {e}", file=sys.stderr)
        return EXIT_ACCURACY
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_OK
    except (ValueError, OSError, argparse.ArgumentTypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
