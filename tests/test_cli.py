import json
import math

import numpy as np
import pytest

from bayes_arbiter.cli import main


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
