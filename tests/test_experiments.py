import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayes_arbiter.experiments import (
    CSV_HEADERS,
    RIBBON_QUANTILES,
    ExperimentConfig,
    run_experiment,
)
from bayes_arbiter.mixture import McmcConfig
from bayes_arbiter.rng import RngSeed
from bayes_arbiter.svg import Band, Line, ribbon_plot_svg

MEDIAN = RIBBON_QUANTILES.index(0.5)


def small_mix_config(experiment: str, seed=42, **overrides) -> ExperimentConfig:
    base = dict(
        n_grid=(5, 20),
        replicas=4,
        a0_list=(0.5,),
        mcmc=McmcConfig(iterations=800, burn_in=200),
    )
    base.update(overrides)
    return ExperimentConfig(experiment=experiment, seed=RngSeed(seed), **base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig("fig9", n_grid=(10,))
        with pytest.raises(ValueError):
            ExperimentConfig("fig1", n_grid=())
        with pytest.raises(ValueError):
            ExperimentConfig("fig1", n_grid=(100, 10))
        with pytest.raises(ValueError):
            ExperimentConfig("fig1", n_grid=(10,), replicas=0)
        with pytest.raises(ValueError):
            ExperimentConfig("fig2", n_grid=(10,), a0_list=(0.5, float("nan")))
        with pytest.raises(ValueError):
            ExperimentConfig("fig2", n_grid=(10,), lambda_true=float("inf"))
        with pytest.raises(ValueError, match="a0"):
            ExperimentConfig("fig2", n_grid=(10,), a0_list=(0.5, 0.5))
        with pytest.raises(ValueError, match="a0_list must be non-empty"):
            ExperimentConfig("fig3", n_grid=(10,), a0_list=())
        with pytest.raises(ValueError, match="t must"):
            ExperimentConfig("lindley", n_grid=(10,), t=float("nan"))
        # a setting the experiment does not read is refused by name
        with pytest.raises(ValueError, match="replicas"):
            ExperimentConfig("lindley", replicas=1)
        with pytest.raises(ValueError, match="mcmc"):
            ExperimentConfig("fig1", mcmc=McmcConfig())
        with pytest.raises(ValueError, match="t;"):
            ExperimentConfig("fig2", t=1.96)

    def test_desk_scale_defaults(self):
        cfg = ExperimentConfig("fig1", seed=RngSeed(1))
        assert cfg.n_grid == (10, 100, 1000)
        assert cfg.replicas == 250
        cfg = ExperimentConfig("fig2", seed=RngSeed(1))
        assert cfg.replicas == 20
        assert cfg.n_grid[0] == 1 and cfg.n_grid[-1] == 1000


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    cfg = ExperimentConfig(
        "fig1", n_grid=(10, 100, 1000), replicas=60, seed=RngSeed(314),
        output_dir=tmp_path_factory.mktemp("fig1"),
    )
    return run_experiment(cfg)


class TestFig1:
    def test_csv_schema(self, result):
        assert result.csv_header == ("experiment", "hypothesis", "n", "replica", "log_bf10")
        assert len(result.csv_rows) == 2 * 3 * 60
        assert {r[1] for r in result.csv_rows} == {"H0", "H1"}

    def test_h0_mostly_negative_at_large_n(self, result):
        rows = [r for r in result.csv_rows if r[1] == "H0" and r[2] == 1000]
        frac = sum(1 for r in rows if r[4] < 0.0) / len(rows)
        assert frac >= 0.9

    def test_median_trends(self, result):
        h0 = result.table["H0"]["log_bf10"][:, MEDIAN].tolist()
        h1 = result.table["H1"]["log_bf10"][:, MEDIAN].tolist()
        assert all(b < a for a, b in zip(h0, h0[1:]))
        assert all(b > a for a, b in zip(h1, h1[1:]))

    def test_ribbon_quantiles_monotone_within_groups(self, result):
        for cond in ("H0", "H1"):
            for n_idx in range(3):
                vals = result.table[cond]["log_bf10"][n_idx].tolist()
                assert vals == sorted(vals)

    def test_artifacts_written(self, result):
        names = sorted(p.name for p in result.artifacts)
        assert names == ["fig1.csv", "fig1_H0.svg", "fig1_H1.svg"]
        for p in result.artifacts:
            assert p.exists()


class TestFig2AndFig3:
    def test_fig2_schema_and_rows(self, tmp_path):
        res = run_experiment(small_mix_config("fig2", output_dir=tmp_path))
        assert res.csv_header == CSV_HEADERS["fig2"]
        assert len(res.csv_rows) == 2 * 4
        for row in res.csv_rows:
            assert 0.0 < row[3] < 1.0
            assert 0.0 < row[4] < 1.0
        assert (tmp_path / "fig2.csv").exists()
        assert (tmp_path / "fig2_a0_0.5.svg").exists()

    def test_fig2_rerun_identical_bytes(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_experiment(small_mix_config("fig2", output_dir=a_dir))
        run_experiment(small_mix_config("fig2", output_dir=b_dir))
        for name in ("fig2.csv", "fig2_a0_0.5.svg"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_fig3_schema_and_alpha_columns_match_fig2(self, tmp_path):
        res2 = run_experiment(small_mix_config("fig2"))
        res3 = run_experiment(small_mix_config("fig3", output_dir=tmp_path))
        assert res3.csv_header == CSV_HEADERS["fig3"]
        assert [r[:5] for r in res3.csv_rows] == [tuple(r) for r in res2.csv_rows]
        for row in res3.csv_rows:
            assert 0.0 <= row[5] <= 1.0
            assert 0.0 <= row[6] <= 1.0

    def test_fig3_logs_formula_gap(self, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="bayes_arbiter.experiments"):
            run_experiment(small_mix_config("fig3"))
        assert any("printed-formula" in m for m in caplog.messages)

    def test_n1_row_exists_with_wide_median_ribbon(self):
        # at one observation the posterior stays near the Beta(0.1, 0.1)
        # prior, whose bathtub shape makes the replica medians swing widely
        cfg = ExperimentConfig(
            "fig2", n_grid=(1, 2), replicas=20, a0_list=(0.1,),
            mcmc=McmcConfig(iterations=10_000, burn_in=2_000), seed=RngSeed(20260808),
        )
        res = run_experiment(cfg)
        assert any(r[1] == 1 for r in res.csv_rows)
        lo, *_, hi = res.table["a0_0.1"]["post_median_alpha"][0]  # n = 1
        assert hi - lo >= 0.2

    def test_tiny_n_resimulation_counted(self):
        # n=1, lambda small: all-zero datasets occur and are redrawn
        cfg = ExperimentConfig(
            "fig2", n_grid=(1,), replicas=40, a0_list=(0.5,), lambda_true=0.2,
            mcmc=McmcConfig(iterations=300, burn_in=50), seed=RngSeed(7),
        )
        res = run_experiment(cfg)
        assert res.n_resimulated > 0
        assert len(res.csv_rows) == 40


class TestLindley:
    def test_table_and_csv(self, tmp_path):
        res = run_experiment(
            ExperimentConfig(
                "lindley", n_grid=(100, 1000, 10**4, 10**5, 10**6), t=1.96, output_dir=tmp_path
            )
        )
        assert res.csv_header == ("t", "n", "log_bf01")
        vals = [row[2] for row in res.csv_rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(4.986957699779966, abs=1e-10)
        text = (tmp_path / "lindley.csv").read_text().splitlines()
        assert text[0] == "t,n,log_bf01"
        assert len(text) == 6

    def test_t_zero_exact(self):
        import math

        res = run_experiment(ExperimentConfig("lindley", n_grid=(3,), t=0.0))
        assert res.csv_rows[0][2] == pytest.approx(0.5 * math.log(4.0), abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig("lindley", n_grid=(10,), t=-1.0)
        with pytest.raises(ValueError):
            ExperimentConfig("lindley", n_grid=(), t=1.0)


class TestRunExperimentDispatch:
    def test_dispatch(self):
        res = run_experiment(small_mix_config("fig2"))
        assert res.experiment == "fig2"
        res = run_experiment(
            ExperimentConfig("lindley", n_grid=(10, 100), t=1.5)
        )
        assert res.experiment == "lindley"


class TestSvg:
    def test_deterministic_and_wellformed(self):
        svg = ribbon_plot_svg(
            [10, 100, 1000],
            bands=[Band("b", (0.1, 0.2, 0.3), (0.5, 0.6, 0.9))],
            lines=[Line("m", (0.3, 0.4, 0.6))],
            title="demo",
            y_label="value",
        )
        assert svg == ribbon_plot_svg(
            [10, 100, 1000],
            bands=[Band("b", (0.1, 0.2, 0.3), (0.5, 0.6, 0.9))],
            lines=[Line("m", (0.3, 0.4, 0.6))],
            title="demo",
            y_label="value",
        )
        assert svg.startswith("<?xml")
        assert svg.rstrip().endswith("</svg>")
        assert "<polygon" in svg and "<polyline" in svg
        import xml.etree.ElementTree as ET

        ET.fromstring(svg)  # parses cleanly

    def test_validation(self):
        with pytest.raises(ValueError):
            ribbon_plot_svg([0, 10], [], [Line("x", (1.0, 2.0))], "t")
        with pytest.raises(ValueError):
            ribbon_plot_svg([10, 100], [Band("b", (1.0,), (2.0,))], [], "t")
        with pytest.raises(ValueError):
            ribbon_plot_svg([10, 100], [], [], "t")

    @settings(max_examples=200, deadline=None)
    @given(
        center=st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300),
        ulps=st.integers(1, 16),
    )
    @example(center=0.5, ulps=1)
    def test_any_narrow_range_renders(self, center, ulps):
        # a y range a few ulps wide gives a tick step that no longer moves
        # the tick position; the ticks must still end
        top = center
        for _ in range(ulps):
            top = math.nextafter(top, math.inf)
        svg = ribbon_plot_svg([1, 10], [], [Line("m", (center, top))], "t")
        assert svg.count('text-anchor="end"') <= 12
