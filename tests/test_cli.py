import argparse
import inspect
import json
import math
import warnings

import numpy as np
import pytest

from bayes_arbiter.calibration import bootstrap_alpha_cutoff
from bayes_arbiter.cli import build_parser, main
from bayes_arbiter.evidence import NormalSummary, QuadratureConfig
from bayes_arbiter.experiments import ExperimentConfig
from bayes_arbiter.mixture import McmcConfig, MixtureSpec, posterior_summary


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBfCommand:
    def test_normal_reference(self, capsys):
        out = run_json(capsys, "bf", "normal", "--n", "1", "--xbar", "0")
        assert out["log_bf10"] == pytest.approx(-0.34657, abs=1e-5)
        assert out["log_bf01"] == -out["log_bf10"]

    def test_poisgeo_both_methods(self, capsys):
        out = run_json(capsys, "bf", "poisgeo", "--data", "2,3")
        assert out["log_bf12_shared"] == pytest.approx(0.6286086594, abs=1e-9)
        assert out["log_bf12_printed"] == pytest.approx(14.76348599, abs=1e-7)
        assert out["methods"] == ["closed_form", "printed_formula"]

    def test_overflowing_factor_prints_a_bound(self, capsys):
        out = run_json(capsys, "bf", "poisgeo", "--data", "100000000")
        assert out["bf12_printed"] == ">1.797693135e+308"
        assert out["log_bf12_printed"] == 3484136205.0
        assert out["bf12_shared"] == 1.0
        out = run_json(capsys, "bf", "normal", "--n", "1000000", "--xbar", "10")
        assert out["bf10"] == ">1.797693135e+308"
        assert out["log_bf10"] == pytest.approx(49999943.09, abs=0.01)

    def test_poisgeo_degenerate_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "bf", "poisgeo", "--data", "0,0")
        assert code == 3
        assert "improper" in err or "divergent" in err

    def test_data_file(self, capsys, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("2,3\n# comment\n4\n")
        out = run_json(capsys, "bf", "poisgeo", "--data-file", str(f))
        assert out["n"] == 3
        assert out["total"] == 9

    def test_missing_data_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bf", "poisgeo")
        assert code == 2

    def test_quadrature_check_agrees(self, capsys):
        out = run_json(capsys, "bf", "poisgeo", "--data", "2,3", "--check-quadrature")
        assert out["log_bf12_quadrature"] == pytest.approx(out["log_bf12_shared"], abs=1e-6)
        assert out["quadrature_error_estimate"] < 1e-8

    def test_starved_quadrature_exit_4(self, capsys):
        code, _, err = run_cli(
            capsys, "bf", "poisgeo", "--data", "2,3", "--check-quadrature",
            "--quad-nodes", "2", "--quad-panels", "2",
        )
        assert code == 4
        assert "accuracy" in err.lower()

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bf", "normal", "--n", "1"])  # missing --xbar
        assert exc.value.code == 2

    def test_malformed_data_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "bf", "poisgeo", "--data", "two,three")
        assert code == 2


class TestLindleyCommand:
    def test_reference_value(self, capsys):
        out = run_json(capsys, "lindley", "--t", "1.96", "--n", "1e6")
        assert out["log_bf01"] == pytest.approx(4.9869577, abs=1e-6)
        assert out["n"] == 1_000_000


    def test_infinite_n_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lindley", "--t", "1", "--n", "inf"])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("bf", "normal", "--n", "5", "--xbar", "nan"), "xbar"),
        (("lindley", "--t", "nan", "--n", "10"), "t"),
        (("calibrate", "tails", "--family", "normal", "--n", "5", "--xbar", "nan",
          "--n-rep", "10", "--seed", "1"), "xbar"),
        (("experiment", "lindley", "--t", "nan", "--seed", "1"), "t"),
    ],
)
def test_non_finite_normal_input_exit_2(capsys, tmp_path, argv, name):
    if argv[0] == "experiment":
        argv += ("--out", str(tmp_path / "lin"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: {name} must" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("bf", "normal", "--n", "5", "--xbar", "1e300", "--sigma", "1e-10"),
        ("lindley", "--t", "1e200", "--n", "10"),
        ("calibrate", "tails", "--family", "normal", "--n", "5", "--xbar", "1e200",
         "--n-rep", "100", "--seed", "1"),
    ],
)
def test_overflowing_normal_statistic_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error: n t^2 overflows at t = " in err
    assert ", n = " in err


class TestMixtureCommand:
    def test_burn_in_zero_accepted(self, capsys, tmp_path):
        out = run_json(
            capsys, "mixture", "--data", "1,2,3", "--iters", "300", "--burn-in", "0", "--seed", "1"
        )
        assert out["burn_in"] == 0
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("burn_in = 0\n")
        run_json(
            capsys, "experiment", "fig2", "--seed", "1", "--config", str(cfgfile),
            "--replicas", "1", "--n-grid", "5", "--a0-list", "0.5", "--iters", "200",
            "--out", str(tmp_path / "fig2"),
        )
        manifest = json.loads((tmp_path / "fig2" / "run_manifest.json").read_text())
        assert manifest["config"]["burn_in"] == 0

    def test_deterministic_json(self, capsys):
        argv = (
            "mixture", "--data", "4,2,5,3,0,7,1,3", "--a0", "0.5",
            "--iters", "1500", "--burn-in", "300", "--seed", "7",
        )
        a = run_json(capsys, *argv)
        b = run_json(capsys, *argv)
        assert a == b
        assert 0.0 < a["alpha_mean"] < 1.0
        assert a["kernel"] == "gibbs"

    def test_mh_kernel(self, capsys):
        out = run_json(
            capsys, "mixture", "--data", "4,2,5,3", "--kernel", "mh",
            "--iters", "1200", "--burn-in", "200", "--seed", "3",
        )
        assert out["kernel"] == "marginal_mh"

    def test_grid_check_reports_the_grid_error(self, capsys):
        out = run_json(
            capsys, "mixture", "--data", "4,2,5,3", "--iters", "500",
            "--burn-in", "100", "--seed", "3", "--grid-check",
        )
        assert 0.0 < out["grid_alpha_mean"] < 1.0
        assert 0.0 <= out["grid_normalization_error"] <= 1e-8

    def test_degenerate_exit_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "mixture", "--data", "0,0,0", "--iters", "500",
            "--burn-in", "100", "--seed", "1",
        )
        assert code == 3

    def test_non_finite_a0_exit_2(self, capsys):
        for a0 in ("nan", "inf"):
            code, out, err = run_cli(
                capsys, "mixture", "--data", "4,2,5,3", "--a0", a0,
                "--iters", "500", "--burn-in", "100", "--seed", "1",
            )
            assert code == 2
            assert out == ""
            assert "a0" in err

    def test_unconverged_grid_check_exit_4(self, capsys, tmp_path):
        # 10^4 counts, half Poisson and half geometric at mean 4: the weight
        # posterior is too narrow for the grid oracle to converge
        gen = np.random.default_rng(0)
        values = np.concatenate([gen.poisson(4.0, 5000), gen.geometric(0.2, 5000) - 1])
        f = tmp_path / "counts.txt"
        f.write_text(",".join(map(str, values)))
        code, out, err = run_cli(
            capsys, "mixture", "--data-file", str(f), "--iters", "300",
            "--burn-in", "100", "--seed", "1", "--grid-check",
        )
        assert code == 4
        assert out == ""
        assert "accuracy" in err


class TestCalibrateCommand:
    def test_tails_normal(self, capsys):
        out = run_json(
            capsys, "calibrate", "tails", "--family", "normal", "--n", "25",
            "--xbar", "0.3", "--mode", "prior", "--n-rep", "1000", "--seed", "5",
        )
        assert 0.0 <= out["p0"] <= 1.0
        assert out["mc_se_p0"] == pytest.approx(
            math.sqrt(out["p0"] * (1 - out["p0"]) / 1000), abs=1e-9
        )

    def test_pvalue(self, capsys):
        out = run_json(
            capsys, "calibrate", "pvalue", "--data", "3,5,2,4,6,3,4",
            "--family", "poisson", "--stat", "mean", "--n-rep", "1000",
            "--posterior-draws", "200", "--seed", "11",
        )
        assert 0.0 <= out["p_value"] <= 1.0

    def test_pvalue_all_zero_exit_3(self, capsys):
        for family in ("poisson", "geometric"):
            code, _, err = run_cli(
                capsys, "calibrate", "pvalue", "--data", "0,0,0", "--family", family,
                "--n-rep", "100", "--posterior-draws", "10", "--seed", "11",
            )
            assert code == 3
            assert "all-zero" in err

    def test_cutoff(self, capsys):
        out = run_json(
            capsys, "calibrate", "cutoff", "--generator", "poisson",
            "--n-obs", "40", "--replicas", "20", "--iters", "400",
            "--burn-in", "100", "--q", "0.1", "--seed", "13",
        )
        assert 0.0 <= out["cutoff"] <= 1.0
        assert out["replicas"] == 20


class TestExperimentCommand:
    def test_lindley_experiment_writes_artifacts(self, capsys, tmp_path):
        out = run_json(
            capsys, "experiment", "lindley", "--seed", "1", "--out", str(tmp_path / "lin")
        )
        assert "lindley.csv" in out["artifacts"]
        assert (tmp_path / "lin" / "run_manifest.json").exists()

    def test_unread_setting_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "experiment", "lindley", "--seed", "1", "--replicas", "2",
            "--out", str(tmp_path / "lin"),
        )
        assert (code, out) == (2, "")
        assert "replicas" in err
        assert not (tmp_path / "lin").exists()
        cfgfile = tmp_path / "fig1.cfg"
        cfgfile.write_text("a0_list = 0.5\n")
        code, out, err = run_cli(
            capsys, "experiment", "fig1", "--seed", "1", "--config", str(cfgfile),
            "--out", str(tmp_path / "fig1"),
        )
        assert (code, out) == (2, "")
        assert "a0_list" in err

    def test_fig2_rerun_identical_checksums(self, capsys, tmp_path):
        argv = [
            "experiment", "fig2", "--seed", "9", "--replicas", "3",
            "--n-grid", "5,20", "--a0-list", "0.5", "--iters", "400",
            "--burn-in", "100",
        ]
        a = run_json(capsys, *argv, "--out", str(tmp_path / "a"))
        b = run_json(capsys, *argv, "--out", str(tmp_path / "b"))
        assert a["artifacts"] == b["artifacts"]

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# experiment settings\nreplicas = 3\nn_grid = 5,20\na0_list = 0.5\n"
            "iters = 400\nburn_in = 100\n"
        )
        base = run_json(
            capsys, "experiment", "fig2", "--seed", "9", "--config", str(cfgfile),
            "--out", str(tmp_path / "from_file"),
        )
        # flag overrides the file's replica count
        over = run_json(
            capsys, "experiment", "fig2", "--seed", "9", "--config", str(cfgfile),
            "--replicas", "2", "--out", str(tmp_path / "override"),
        )
        assert base["rows"] == 2 * 3
        assert over["rows"] == 2 * 2
        # an abbreviated flag is still a flag and beats the file's iters
        run_json(
            capsys, "experiment", "fig2", "--seed", "9", "--config", str(cfgfile),
            "--iter", "500", "--out", str(tmp_path / "abbrev"),
        )
        manifest = json.loads((tmp_path / "abbrev" / "run_manifest.json").read_text())
        assert manifest["config"]["iterations"] == 500
        assert manifest["config"]["burn_in"] == 100

    def test_manifest_contents(self, capsys, tmp_path):
        run_json(
            capsys, "experiment", "lindley", "--seed", "4", "--out", str(tmp_path)
        )
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["command"] == "experiment lindley"
        assert manifest["seed"] == 4
        assert "wall_time_s" in manifest
        assert set(manifest["artifacts"]) == {"lindley.csv", "lindley_t_1.96.svg"}
        assert manifest["config"] == {
            "experiment": "lindley", "n_grid": [10, 100, 1000, 10**4, 10**5, 10**6], "t": 1.96,
        }

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("bogus = 1\n")
        code, _, err = run_cli(
            capsys, "experiment", "lindley", "--seed", "1",
            "--config", str(cfgfile), "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "bogus" in err

    def test_partial_outputs_removed_on_failure(self, capsys, tmp_path, monkeypatch):
        import bayes_arbiter.cli as cli_mod

        out_dir = tmp_path / "part"

        def explode(config):
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "fig2.csv").write_text("partial\n")
            raise ValueError("synthetic mid-run failure")

        monkeypatch.setattr(cli_mod, "run_experiment", explode)
        code, _, err = run_cli(
            capsys, "experiment", "fig2", "--seed", "1", "--replicas", "2",
            "--n-grid", "5", "--out", str(out_dir),
        )
        assert code == 2
        assert not (out_dir / "fig2.csv").exists()
        assert not (out_dir / "run_manifest.json").exists()


_MCMC = ("--iters", "300", "--burn-in", "100")
_CUTOFF = ("calibrate", "cutoff", "--n-obs", "5", "--replicas", "20", "--seed", "1", *_MCMC)

# (argv, exit code, text stderr must hold); experiments also get --out
EXIT_CODE_TABLE = [
    # a total past int64 used to wrap to 0 and exit 3 as "all-zero"
    (("bf", "poisgeo", "--data", "4611686018427387904,4611686018427387904"), 2, "total of the values"),
    (("bf", "poisgeo", "--data", "9223372036854775808"), 2, "fit in int64"),
    (("bf", "poisgeo", "--data", "18446744073709551616"), 2, "fit in int64"),
    # a Bayes factor past the largest double printed null
    (("bf", "poisgeo", "--data", "100000000"), 0, ""),
    (("bf", "normal", "--n", "1000000", "--xbar", "10"), 0, ""),
    # a count of 10^8 used to grow a 1 GiB log-factorial table
    (("mixture", "--data", "100000000,3", "--seed", "1", *_MCMC), 0, ""),
    # sampler means whose draws would leave int64
    ((*_CUTOFF, "--lambda-true", "1e19"), 2, "Poisson mean"),
    ((*_CUTOFF, "--generator", "geometric", "--lambda-true", "1e16"), 2, "geometric mean"),
    # posterior draws past 2^53: a clamp at B = 1 - 1e-15 capped them and
    # printed p_value 0.0
    (("calibrate", "pvalue", "--family", "geometric", "--data", "5000000000000000", "--n-rep", "200",
      "--posterior-draws", "200", "--seed", "1"), 2, "below 2^53"),
    # every redraw all zero: these never ended
    ((*_CUTOFF, "--lambda-true", "1e-17"), 3, "all zero"),
    (("calibrate", "cutoff", "--n-obs", "1", "--replicas", "20", "--seed", "1", *_MCMC, "--lambda-true", "1e-6"),
     3, "all zero"),
    (("experiment", "fig2", "--seed", "1", "--lambda-true", "1e-17", "--n-grid", "1", "--replicas", "1",
      "--a0-list", "0.5", *_MCMC), 3, "all zero"),
    # every weight at the 1e-300 clip: SVG ticks over a range a few ulps wide
    (("experiment", "fig2", "--seed", "1", "--replicas", "1", "--n-grid", "2", "--a0-list", "1e-320", *_MCMC), 0, ""),
    # no finite Gauss-Jacobi rule: a NaN refinement passed, a NaN mean printed null
    (("mixture", "--data", "1,2,3", "--seed", "1", "--grid-check", "--a0", "1e4", *_MCMC), 4, "Gauss-Jacobi"),
    (("mixture", "--data", "1,2,3", "--seed", "1", "--grid-check", "--a0", "1e5", *_MCMC), 4, "Gauss-Jacobi"),
    # one case of each remaining failure class
    (("bf", "normal", "--n", "1"), 2, "--xbar"),
    (("bf", "poisgeo", "--data", "two"), 2, "expected integers"),
    (("bf", "poisgeo", "--data", "0,0"), 3, "all-zero"),
    (("bf", "poisgeo", "--data", "2,3", "--check-quadrature", "--quad-nodes", "2", "--quad-panels", "2"), 4, "accuracy"),
    # numpy's Gauss-Legendre rule overflowed with a traceback (exit 1)
    (("bf", "poisgeo", "--data", "2,3", "--check-quadrature", "--quad-nodes", "1e19"), 2, "at most 512"),
]


def test_exit_code_table(capsys, tmp_path):
    # each accepted input ends with an answer or a typed error: the exit
    # code, and never a traceback, a null or a RuntimeWarning
    for i, (argv, expected, message) in enumerate(EXIT_CODE_TABLE):
        if argv[0] == "experiment":
            argv += ("--out", str(tmp_path / str(i)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(list(argv))
            except SystemExit as e:  # argparse usage errors
                code = e.code
        out, err = capsys.readouterr()
        assert (code, message in err) == (expected, True), (argv, err)
        assert "null" not in out, argv
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv


# (subcommand path, flag destination, library callable, keyword the flag feeds)
LIBRARY_FED_FLAGS = [
    (("bf", "normal"), "theta0", NormalSummary, "theta0"),
    (("bf", "normal"), "sigma", NormalSummary, "sigma"),
    (("bf", "poisgeo"), "quad_nodes", QuadratureConfig, "nodes_per_panel"),
    (("bf", "poisgeo"), "quad_panels", QuadratureConfig, "max_panels"),
    (("mixture",), "a0", MixtureSpec, "a0"),
    (("mixture",), "iters", McmcConfig, "iterations"),
    (("mixture",), "burn_in", McmcConfig, "burn_in"),
    (("mixture",), "quantiles", posterior_summary, "quantiles"),
    (("calibrate", "cutoff"), "a0", MixtureSpec, "a0"),
    (("calibrate", "cutoff"), "iters", McmcConfig, "iterations"),
    (("calibrate", "cutoff"), "burn_in", McmcConfig, "burn_in"),
    (("calibrate", "cutoff"), "summary", bootstrap_alpha_cutoff, "summary"),
    (("calibrate", "cutoff"), "q", bootstrap_alpha_cutoff, "q"),
    (("experiment",), "replicas", ExperimentConfig, "replicas"),
    (("experiment",), "n_grid", ExperimentConfig, "n_grid"),
    (("experiment",), "a0_list", ExperimentConfig, "a0_list"),
    (("experiment",), "lambda_true", ExperimentConfig, "lambda_true"),
    (("experiment",), "t", ExperimentConfig, "t"),
    (("experiment",), "iters", ExperimentConfig, "mcmc"),
    (("experiment",), "burn_in", ExperimentConfig, "mcmc"),
]


def _subparser(path):
    parser = build_parser()
    for name in path:
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = sub.choices[name]
    return parser


@pytest.mark.parametrize(
    "path, dest, target, keyword", LIBRARY_FED_FLAGS,
    ids=["-".join((*path, dest)) for path, dest, *_ in LIBRARY_FED_FLAGS],
)
def test_library_defaults_written_once(path, dest, target, keyword):
    # a flag that feeds a library default defaults to None and is passed on
    # only when given, so the default is written once, in the library
    assert inspect.signature(target).parameters[keyword].default is not inspect.Parameter.empty
    assert _subparser(path).get_default(dest) is None
