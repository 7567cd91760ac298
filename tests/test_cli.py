import argparse
import contextlib
import inspect
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayes_arbiter import calibration, experiments
from bayes_arbiter.calibration import bootstrap_alpha_cutoff
from bayes_arbiter.cli import build_parser, main
from bayes_arbiter.evidence import NormalSummary
from bayes_arbiter.experiments import SETTINGS, ExperimentConfig
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


# Same-seed stdout across versions, recorded at stream layout 4 (`STREAM_LAYOUT`
# in rng.py).  Reruns within one version are checked elsewhere; these bytes
# change only with a declared change of the stream layout, which updates them.
# The posterior means of _NEAR_512 lie on both sides of 512, so the Poisson
# replicates take both the cdf table and PTRS.
_NEAR_512 = "500,520,530,515,490"
# 3000 MH iterations cross two of run_marginal_mh's blocks of iterations.
_MIXTURE_DATA = "3,5,2,4,6,1,4,0,7,2"
RECORDED_STDOUT = {
    "tails poisgeo": (
        ["calibrate", "tails", "--family", "poisgeo", "--mode", "posterior",
         "--data", "3,5,2,4,6,1,4,0", "--n-rep", "200", "--seed", "7"],
        """{
  "what": "tails",
  "family": "poisgeo",
  "mode": "posterior",
  "n_rep": 200,
  "p0": 0.88,
  "p1": 0.935,
  "mc_se_p0": 0.02297825059,
  "mc_se_p1": 0.01743201078,
  "n_degenerate_p0": 0,
  "n_degenerate_p1": 0,
  "statistic_method": "closed_form(improper prior)"
}
""",
    ),
    "pvalue poisson variance": (
        ["calibrate", "pvalue", "--family", "poisson", "--stat", "variance",
         "--data", _NEAR_512, "--n-rep", "300", "--seed", "7"],
        """{
  "what": "pvalue",
  "family": "poisson",
  "statistic": "variance",
  "n_rep": 300,
  "p_value": 0.7933333333,
  "mc_se": 0.02337773553
}
""",
    ),
    "pvalue geometric mean": (
        ["calibrate", "pvalue", "--family", "geometric", "--stat", "mean",
         "--data", _NEAR_512, "--n-rep", "300", "--seed", "7"],
        """{
  "what": "pvalue",
  "family": "geometric",
  "statistic": "mean",
  "n_rep": 300,
  "p_value": 0.49,
  "mc_se": 0.02886173938
}
""",
    ),
    "bf poisgeo": (
        ["bf", "poisgeo", "--data", "2,3,0,7,1", "--check-quadrature"],
        """{
  "family": "poisgeo",
  "n": 5,
  "total": 13,
  "log_marginal_poisson": -11.94554638,
  "log_marginal_geometric": -10.33980512,
  "log_bf12_shared": -1.605741253,
  "bf12_shared": 0.2007407002,
  "log_bf12_printed": 64.69339385,
  "bf12_printed": 1.247337455e+28,
  "post_prob_m1_shared": 0.1671807245,
  "post_prob_m1_printed": 1.0,
  "methods": [
    "closed_form",
    "printed_formula"
  ],
  "log_bf12_quadrature": -1.605741253,
  "quadrature_error_estimate": 0.0
}
""",
    ),
    "mixture mh": (
        ["mixture", "--kernel", "mh", "--data", _MIXTURE_DATA, "--iters", "3000", "--seed", "7"],
        """{
  "kernel": "marginal_mh",
  "a0": 0.5,
  "n": 10,
  "total": 34,
  "iterations": 3000,
  "burn_in": 2000,
  "alpha_mean": 0.6267772025,
  "alpha_median": 0.6972708875,
  "alpha_quantiles": {
    "0.1": 0.1325560006,
    "0.25": 0.3999415922,
    "0.5": 0.6972708875,
    "0.75": 0.8939578331,
    "0.9": 0.9843136106
  },
  "lambda_mean": 3.599217259,
  "lambda_median": 3.513809281,
  "mh_acceptance_rate": 0.305,
  "warnings": []
}
""",
    ),
    "mixture gibbs grid-check": (
        ["mixture", "--kernel", "gibbs", "--grid-check", "--data", _MIXTURE_DATA, "--iters", "3000",
         "--seed", "7"],
        """{
  "kernel": "gibbs",
  "a0": 0.5,
  "n": 10,
  "total": 34,
  "iterations": 3000,
  "burn_in": 2000,
  "alpha_mean": 0.6759588655,
  "alpha_median": 0.7212279459,
  "alpha_quantiles": {
    "0.1": 0.3185681283,
    "0.25": 0.4949850702,
    "0.5": 0.7212279459,
    "0.75": 0.9062832701,
    "0.9": 0.9805402054
  },
  "lambda_mean": 3.630735753,
  "lambda_median": 3.551861391,
  "mh_acceptance_rate": 1.0,
  "warnings": [],
  "grid_alpha_mean": 0.6155214179,
  "grid_alpha_median": 0.6745818254,
  "grid_normalization_error": 0.0
}
""",
    ),
    # every simulated dataset comes from nonzero_counts; at these small means
    # some are all zero and redrawn
    "cutoff poisson": (
        ["calibrate", "cutoff", "--generator", "poisson", "--lambda-true", "0.3", "--n-obs", "3",
         "--replicas", "20", "--iters", "400", "--burn-in", "100", "--seed", "7"],
        """{
  "what": "cutoff",
  "generator": "poisson",
  "summary": "median",
  "q": 0.1,
  "cutoff": 0.3638907343,
  "replicas": 20,
  "n_resimulated": 13
}
""",
    ),
    "cutoff geometric": (
        ["calibrate", "cutoff", "--generator", "geometric", "--lambda-true", "0.5", "--n-obs", "3",
         "--replicas", "20", "--iters", "400", "--burn-in", "100", "--seed", "7"],
        """{
  "what": "cutoff",
  "generator": "geometric",
  "summary": "median",
  "q": 0.1,
  "cutoff": 0.3975872357,
  "replicas": 20,
  "n_resimulated": 5
}
""",
    ),
    # the SHA-256 of the CSV and of each SVG; the test adds --out
    "experiment fig2": (
        ["experiment", "fig2", "--seed", "5", "--replicas", "3", "--n-grid", "1,5,20", "--a0-list", "0.5,1",
         "--lambda-true", "0.5", "--iters", "300", "--burn-in", "100"],
        """{
  "experiment": "fig2",
  "rows": 18,
  "n_resimulated": 7,
  "artifacts": {
    "fig2.csv": "2d2ff4b38af755c542ae9d0741d4c0083d47ffc62c8ca251457d3a8014ac77b2",
    "fig2_a0_0.5.svg": "a16da8c97563b09b6bdb95724b60f881962fc2929c85440ed70c7d5e4443da87",
    "fig2_a0_1.svg": "564edf15649754103265a483eb433c0bffa59e0bff76ef7faa2d176d2220697d"
  },
  "manifest": "run_manifest.json"
}
""",
    ),
}


@pytest.mark.parametrize("name", RECORDED_STDOUT)
def test_same_seed_stdout_is_the_recorded_bytes(capsys, tmp_path, name):
    argv, expected = RECORDED_STDOUT[name]
    if argv[0] == "experiment":
        argv = [*argv, "--out", str(tmp_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == expected


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
        assert manifest["stream_layout"] == 4
        assert manifest["n_resimulated"] == 0
        assert set(manifest["artifacts"]) == {"lindley.csv", "lindley_t_1.96.svg"}
        assert manifest["config"] == {
            "experiment": "lindley", "n_grid": [10, 100, 1000, 10**4, 10**5, 10**6], "t": 1.96,
        }
        # at lambda 0.2, 22 of the datasets drawn for n = 1 and 2 were all zero
        out = run_json(
            capsys, "experiment", "fig2", "--seed", "3", "--lambda-true", "0.2", "--n-grid", "1,2",
            "--replicas", "3", "--a0-list", "0.5", "--iters", "200", "--burn-in", "50",
            "--out", str(tmp_path / "fig2"),
        )
        manifest = json.loads((tmp_path / "fig2" / "run_manifest.json").read_text())
        assert manifest["n_resimulated"] == out["n_resimulated"] == 22
        # seconds per stage of the sweep; lindley has no stages
        stages = manifest["stage_seconds"]
        assert list(stages) == ["data", "chains", "emission"]
        assert all(0.0 <= seconds <= manifest["wall_time_s"] + 0.001 for seconds in stages.values())
        assert json.loads((tmp_path / "run_manifest.json").read_text())["stage_seconds"] == {}

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
    # a total near 2^63: Gibbs's m = s2 + n2 passes the int64 range
    (("mixture", "--data", "9223372036854775806,1", "--seed", "1", *_MCMC), 0, ""),
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
    # a0 above 1000 is refused.  Past about 1403 the grid check has no
    # finite Gauss-Jacobi rule (it exited 4; a NaN refinement once passed
    # and printed null), near 1e16 betaincinv's NaN weights printed null,
    # and at 1e308 MH warned in logaddexp
    (("mixture", "--data", "1,2,3", "--seed", "1", "--grid-check", "--a0", "1e4", *_MCMC), 2, "at most 1000"),
    (("mixture", "--data", "1,2,3", "--seed", "1", "--grid-check", "--a0", "1e5", *_MCMC), 2, "at most 1000"),
    (("mixture", "--data", "1,2,3", "--a0", "1e16", "--iters", "200", "--burn-in", "50", "--seed", "1"), 2, "at most 1000"),
    (("calibrate", "cutoff", "--a0", "1e16", "--lambda-true", "4", "--n-obs", "3", "--replicas", "20",
      "--iters", "30", "--burn-in", "10", "--seed", "1"), 2, "at most 1000"),
    (("mixture", "--data", "1,2,3", "--kernel", "mh", "--a0", "1e308", "--seed", "1", *_MCMC), 2, "at most 1000"),
    # an empty prior list: fig3 warned "Mean of empty slice" and exited 2 with
    # numpy's reduction error, and fig2 wrote a CSV of no rows and exited 0
    (("experiment", "fig3", "--seed", "1", "--replicas", "1", "--n-grid", "2", "--a0-list", "", *_MCMC),
     2, "a0_list must be non-empty"),
    (("experiment", "fig2", "--seed", "1", "--replicas", "1", "--n-grid", "2", "--a0-list", "", *_MCMC),
     2, "a0_list must be non-empty"),
    # 2 (1 + n) overflowed: log BF01 read 354.598 instead of 354.098
    (("lindley", "--t", "1", "--n", "1e308"), 2, "from 1 to 2^1022"),
    # one case of each remaining failure class
    (("bf", "normal", "--n", "1"), 2, "--xbar"),
    (("bf", "poisgeo", "--data", "two"), 2, "expected integers"),
    (("bf", "poisgeo", "--data", "0,0"), 3, "all-zero"),
    # a total of 10^15: the refined rule moves the log marginal by 0.25
    (("bf", "poisgeo", "--data", "1000000000000000,0,0,0,0", "--check-quadrature"), 4, "refinement moved by"),
    # the quadrature rule has no settings
    (("bf", "poisgeo", "--data", "2,3", "--check-quadrature", "--quad-nodes", "2"), 2, "unrecognized arguments"),
    # 10^12 posterior draws grew past 4 GB, and an array of them ended in a MemoryError traceback
    (("calibrate", "pvalue", "--data", "3,5,2", "--n-rep", "100", "--posterior-draws", "1e12", "--seed", "1"),
     2, "at most 10000000 posterior draws"),
    # 10^16 simulated counts filled memory block by block until it ran out
    (("experiment", "fig2", "--seed", "1", "--n-grid", "1e16", "--replicas", "1", "--a0-list", "0.5",
      "--iters", "60", "--burn-in", "20"), 2, "at most 10000000 counts"),
    (("experiment", "fig3", "--seed", "1", "--n-grid", "1e16", "--replicas", "1", "--a0-list", "0.5",
      "--iters", "60", "--burn-in", "20"), 2, "at most 10000000 counts"),
    (("calibrate", "cutoff", "--n-obs", "1e16", "--replicas", "20", "--iters", "60", "--burn-in", "20",
      "--seed", "1"), 2, "at most 10000000 counts"),
    # more than 10^8 values in one stored array ended in a bare MemoryError traceback (exit 1)
    (("mixture", "--data", "1,2,3", "--seed", "1", "--iters", "1e15", "--burn-in", "0"),
     2, "at most 100000000 stored values"),
    (("mixture", "--data", "1,2,3", "--seed", "1", "--kernel", "mh", "--iters", "1e15", "--burn-in", "0"),
     2, "at most 100000000 stored values"),
    (("experiment", "fig1", "--seed", "1", "--replicas", "1e15"), 2, "at most 100000000 stored values"),
    (("experiment", "fig2", "--seed", "1", "--replicas", "1e15"), 2, "at most 100000000 stored values"),
    (("experiment", "fig3", "--seed", "1", "--iters", "1e15"), 2, "at most 100000000 stored values"),
    ((*_CUTOFF, "--iters", "1e15", "--burn-in", "0"), 2, "at most 100000000 stored values"),
    # a0 - 1 rounds to -1: scipy refused the Gauss-Jacobi exponent (exit 2)
    (("mixture", "--data", "1,2,3", "--a0", "1e-300", "--iters", "60", "--burn-in", "20", "--seed", "1",
      "--grid-check"), 4, "a0 - 1 rounds to -1"),
    # the Gauss-Jacobi nodes divided by zero, with a RuntimeWarning, before exit 4
    (("mixture", "--data", "1,2,3", "--a0", "1e-13", "--iters", "60", "--burn-in", "20", "--seed", "1",
      "--grid-check"), 4, "no finite 96-node Gauss-Jacobi rule"),
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


@pytest.mark.parametrize(
    "argv",
    [
        (*_CUTOFF, "--iters", "1e15", "--burn-in", "0"),
        # without the bound this loops over 10^15 datasets before any allocation fails
        ("calibrate", "cutoff", "--n-obs", "5", "--replicas", "1e15", "--seed", "1"),
        ("experiment", "fig2", "--seed", "1", "--replicas", "1e15"),
        ("experiment", "fig3", "--seed", "1", "--iters", "1e15"),
    ],
)
def test_oversized_run_refused_before_any_dataset(capsys, tmp_path, monkeypatch, argv):
    def no_dataset(*args):
        raise AssertionError("a dataset was drawn")

    monkeypatch.setattr(calibration, "nonzero_counts", no_dataset)
    monkeypatch.setattr(experiments, "nonzero_counts", no_dataset)
    if argv[0] == "experiment":
        argv += ("--out", str(tmp_path / "out"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "at most 100000000 stored values" in err
    assert not (tmp_path / "out").exists()


# (subcommand path, flag destination, library callable, keyword the flag feeds)
LIBRARY_FED_FLAGS = [
    (("bf", "normal"), "theta0", NormalSummary, "theta0"),
    (("bf", "normal"), "sigma", NormalSummary, "sigma"),
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


# Edge values for the generated argv: numbers for the numeric flags
# (2^53 + 1, 2^63, a non-number and the empty string among them), counts for
# the data flags (all zero, an int64 total overflow from two counts of 2^62, a
# count of 2^46, a count of 10^8, a negative count, none), and small bounded
# sets for the flags that set how long a run is.
_EDGE_NUMBERS = ("0", "1", "-1", "5e-324", "1e-300", "1e16", "1e200", "1e300", "1e308", "inf", "-inf", "nan",
                 "9007199254740993", "9223372036854775808", "x", "")
_EDGE_COUNTS = ("0,0,0", "4611686018427387904,4611686018427387904", "70368744177664",
                "1,70368744177664", "100000000", "-1,2", "", "1", "0,1,0,2,0", "3,5,2,4,6,3,4")
_CONFIG_FILES = ("a0_list =\n", "n_grid = 1,2\nreplicas = 2\n", "bogus = 1\n", "lambda_true = nan\n")
_EDGE_VALUES = {
    "n_rep": ("0", "1", "200", "-1", "nan", "x", ""),  # at most 200, to keep examples fast
    "posterior_draws": ("0", "1", "1e12", "x"),
    "data": _EDGE_COUNTS,
    "data_file": tuple(f"counts_{i}.txt" for i in range(len(_EDGE_COUNTS))) + ("missing.txt",),
    # experiments and calibrate cutoff: at most n = 5, 20 replicas and 100
    # iterations, apart from sizes refused before any draw
    "n_grid": ("", "0", "-1", "1", "2,1", "1,1", "1,2,5", "1e16", "x"),
    "n_obs": ("0", "-1", "1", "5", "1e16", "nan", "x", ""),
    "replicas": ("0", "-1", "1", "3", "20", "nan", "x", ""),
    "iters": ("0", "1", "2", "100", "x", ""),
    "burn_in": ("0", "-1", "1", "99", "x", ""),
    "a0_list": ("", "0", "-1", "1e-320", "1000", "1001", "0.5,0.5", "0.001,1000", "nan", "inf", "x"),
    "quantiles": ("", "0", "1", "-0.1", "1.5", "0.5,0.5", "nan", "inf", "x"),
    "config": tuple(f"config_{i}.cfg" for i in range(len(_CONFIG_FILES))) + ("missing.cfg",),
    "out": ("out",),
}
# Each flag takes its typical value or an edge value, evenly, so that most
# examples put one or two edge values into an otherwise valid command.
_TYPICAL = {"n": "25", "xbar": "0.3", "theta0": "0", "sigma": "1", "t": "1.96", "lambda_true": "4",
            "data": "3,5,2,4,6,3,4", "data_file": f"counts_{len(_EDGE_COUNTS) - 1}.txt",
            "n_rep": "100", "posterior_draws": "200", "seed": "1", "n_grid": "1,5", "replicas": "2",
            "iters": "60", "burn_in": "20", "a0_list": "0.5", "config": "config_1.cfg", "out": "out",
            "a0": "0.5", "quantiles": "0.1,0.5,0.9", "n_obs": "5", "q": "0.1"}
# calibrate cutoff needs 20 replicas, where experiments keep 2
_TYPICAL_BY_PATH = {("calibrate", "cutoff"): {"replicas": "20"}}
# flags that set how long a run is: given whenever the command reads them
_RUN_LENGTH = ("n_rep", "n_grid", "replicas", "iters", "burn_in")
_ALL_SETTINGS = set().union(*SETTINGS.values())
_FILE_FLAGS = ("--data-file", "--config", "--out")
_CALIBRATE_PATHS = (("calibrate", "tails"), ("calibrate", "pvalue"))
_OTHER_PATHS = (("bf", "normal"), ("bf", "poisgeo"), ("lindley",), ("experiment",))
_MCMC_PATHS = (("mixture",), ("calibrate", "cutoff"))
_FLAGS = {
    path: [a for a in _subparser(path)._actions if not isinstance(a, argparse._HelpAction)]
    for path in _CALIBRATE_PATHS + _OTHER_PATHS + _MCMC_PATHS
}


def _typical(path, dest):
    return _TYPICAL_BY_PATH.get(path, {}).get(dest, _TYPICAL[dest])


def _unread(name, dest):
    """Whether experiment `name` refuses flag `dest`, a setting it does not read."""
    setting = {"iters": "mcmc", "burn_in": "mcmc"}.get(dest, dest)
    return name is not None and setting in _ALL_SETTINGS and setting not in SETTINGS[name]


@st.composite
def _generated_argv(draw, paths):
    path = draw(st.sampled_from(paths))
    argv = list(path)
    name = None  # the experiment drawn
    for action in _FLAGS[path]:
        if not action.option_strings:  # the experiment's name
            name = draw(st.sampled_from(tuple(action.choices)))
            argv.append(name)
            continue
        unread = _unread(name, action.dest)
        if action.required or (action.dest in _RUN_LENGTH and not unread):
            given = True
        elif unread:  # refused by name; 1 in 8
            given = draw(st.integers(0, 7)) == 0
        else:  # 3 in 4
            given = draw(st.integers(0, 3)) > 0
        if not given:
            continue
        argv.append(action.option_strings[-1])
        if action.nargs == 0:  # --check-quadrature
            continue
        if action.choices:
            values = st.sampled_from(action.choices)
        else:
            edges = _EDGE_VALUES.get(action.dest, _EDGE_NUMBERS)
            values = st.just(_typical(path, action.dest)) | st.sampled_from(edges)
        argv.append(draw(values))
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("argv")
    for i, text in enumerate(_EDGE_COUNTS):
        (directory / f"counts_{i}.txt").write_text(text + "\n", encoding="utf-8")
    for i, text in enumerate(_CONFIG_FILES):
        (directory / f"config_{i}.cfg").write_text(text, encoding="utf-8")
    return directory


def _check_generated(files, argv):
    # every argv built from the parser's own flags ends in an answer or a
    # typed error: exit 0, 2, 3 or 4, never a traceback, a null or a
    # RuntimeWarning
    argv = [str(files / a) if b in _FILE_FLAGS else a for b, a in zip([""] + argv, argv)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert "null" not in out.getvalue() and "NaN" not in out.getvalue(), argv
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=_generated_argv(_CALIBRATE_PATHS))
# replicate statistics whose n t^2 passes the largest double
@example(argv=["calibrate", "tails", "--n", "1e300", "--xbar", "0", "--mode", "prior", "--n-rep", "100", "--seed", "1"])
@example(argv=["calibrate", "tails", "--n", "1e300", "--xbar", "5e-324", "--n-rep", "100", "--seed", "1"])
def test_generated_calibrate_argv(argv_files, argv):
    _check_generated(argv_files, argv)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_generated_argv(_OTHER_PATHS))
def test_generated_bf_lindley_experiment_argv(argv_files, argv):
    _check_generated(argv_files, argv)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_generated_argv(_MCMC_PATHS))
def test_generated_mixture_cutoff_argv(argv_files, argv):
    _check_generated(argv_files, argv)


def _without(argv, flag):
    """argv less `flag` and its value."""
    if flag not in argv:
        return argv
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


def _single_edge_argvs(path):
    """A typical command of `path` with one flag set to one edge value, for
    every flag, every edge value and, for experiment, every name.  Random
    argv rarely puts one given edge value into an otherwise valid command."""
    (names,) = [tuple(a.choices) for a in _FLAGS[path] if not a.option_strings] or [(None,)]
    for name in names:
        typical = list(path) + ([name] if name else [])
        for action in _FLAGS[path]:
            # --data stands for --data-file, and the experiment defaults for --config
            if action.dest in _TYPICAL and action.dest not in ("data_file", "config") \
                    and not _unread(name, action.dest):
                typical += [action.option_strings[-1], _typical(path, action.dest)]
        for action in _FLAGS[path]:
            if not action.option_strings:
                continue
            flag = action.option_strings[-1]
            base = _without(_without(typical, flag), "--data" if flag == "--data-file" else flag)
            if action.nargs == 0:  # --check-quadrature
                yield base + [flag]
                continue
            for value in action.choices or _EDGE_VALUES.get(action.dest, _EDGE_NUMBERS):
                yield base + [flag, value]


@pytest.mark.parametrize("path", _CALIBRATE_PATHS + _OTHER_PATHS + _MCMC_PATHS, ids=" ".join)
def test_single_edge_argv(argv_files, path):
    for argv in _single_edge_argvs(path):
        _check_generated(argv_files, argv)
