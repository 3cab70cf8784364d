import json
from pathlib import Path

import numpy as np
import pytest

import gvcplm as g
from gvcplm import StudyError, studies


class TestRunTableSmoke:
    """Small-replicate runs exercising each study end to end."""

    def test_table1_report(self, tmp_path):
        report = g.run_table("table1", reps=2, seed=1, family="poisson", n=200,
                             out_dir=tmp_path)
        s = report["summary"]
        assert "time_full" in s and "gmse_accelerated_x1e4" in s
        assert s["rase_ratio_accelerated_median"] > 0
        assert (tmp_path / "table1_replicates.csv").exists()
        assert (tmp_path / "table1_summary.json").exists()

    def test_table1_accuracy_matches_default_grid_fit(self):
        # table1 times profile maximization alone and evaluates the curve
        # afterwards; its accuracy columns must equal those of a plain fit()
        # on the default curve grid
        report = g.run_table("table1", reps=2, seed=1, family="poisson", n=200)
        sm = g.SmoothingParams(h=report["smoothing"]["h"],
                               delta=report["smoothing"]["delta"])
        design = g.make_design("poisson", 200)
        moment = g.design_moment(design)
        steps = {"backfitting": 3, "accelerated": 3, "full": 50}
        for row in report["replicates"]:
            data = g.generate(design, g.replicate_seed(1, row["rep"]))
            init = g.fit_dbe("poisson", data, sm.delta).beta0
            oracle = g.fit_curve("poisson", data, design.beta0, sm)
            rase_oracle = g.rase(oracle, design.alpha_funcs)
            for name, max_steps in steps.items():
                cfg = g.FitConfig(smoothing=sm, algorithm=name, max_steps=max_steps)
                res = g.fit("poisson", data, cfg, init=init)
                assert row[f"gmse_{name}"] == g.gmse(res.beta, design.beta0, moment)
                assert row[f"rase_ratio_{name}"] == (
                    rase_oracle / g.rase(res.curve, design.alpha_funcs))

    def test_table2_report(self):
        report = g.run_table("table2", reps=3, seed=2, family="poisson", n=200)
        s = report["summary"]
        assert 0 < s["ratio_af_dbe_pct"]["median"] < 100
        assert s["ratio_af_3s_pct"]["median"] > 0

    def test_table3_report(self):
        report = g.run_table("table3", reps=2, seed=3, family="poisson", n=200)
        s = report["summary"]
        for tag in ("0.66", "1", "1.5"):
            assert f"gmse_h{tag}" in s
            assert f"mse_beta5_h{tag}" in s

    def test_table4_report(self):
        report = g.run_table("table4", reps=3, seed=4, family="poisson", n=200)
        s = report["summary"]
        assert s["display_coordinates"] == [1, 3]
        assert s["beta_1"]["se_median"] > 0

    def test_fig1_null_report(self, tmp_path):
        report = g.run_table("fig1_null", reps=3, seed=5, family="poisson",
                             n=200, out_dir=tmp_path)
        assert report["summary"]["df"] == 4  # p_n = 10 at n = 200
        assert len(report["replicates"]) == 3
        curves = tmp_path / "fig1_null_curves.csv"
        assert curves.exists()
        header = curves.read_text().splitlines()[0].split(",")
        assert header == ["t_grid", "empirical_density", "chi2_density"]

    def test_fig1_power_report(self, tmp_path):
        report = g.run_table("fig1_power", reps=2, seed=6, family="poisson",
                             n=200, out_dir=tmp_path, gammas=(0.0, 0.2))
        assert report["summary"]["gammas"] == [0.0, 0.2]
        assert len(report["summary"]["power"]["0.05"]) == 2
        assert (tmp_path / "fig1_power_power_curves.csv").exists()

    def test_unknown_study(self):
        with pytest.raises(StudyError):
            g.run_table("table9", reps=1)

    def test_bad_reps(self):
        with pytest.raises(StudyError):
            g.run_table("table2", reps=0)


class TestDeterminism:
    def test_identical_seed_identical_bytes(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            g.run_table("table2", reps=3, seed=9, family="poisson", n=200,
                        out_dir=d)
        for name in ("table2_replicates.csv", "table2_summary.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_power_curves_bytes_reproducible(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            g.run_table("fig1_power", reps=2, seed=10, family="poisson", n=200,
                        out_dir=d, gammas=(0.0, 0.2))
        name = "fig1_power_power_curves.csv"
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_summary_json_is_valid(self, tmp_path):
        g.run_table("table2", reps=2, seed=12, family="poisson", n=200,
                    out_dir=tmp_path)
        payload = json.loads((tmp_path / "table2_summary.json").read_text())
        assert payload["study"] == "table2"
        assert payload["reps"] == 2
        assert payload["n_failures"] == 0


class TestBenchmarkBehavior:
    def test_gmse_insensitive_to_bandwidth_scaling(self):
        # one-step estimates at 1.5x the reference bandwidth should cost at
        # most a factor two in median GMSE on the n = 400 design
        report = g.run_table("table3", reps=50, seed=21, family="poisson", n=400)
        s = report["summary"]
        assert s["gmse_h1.5"]["median"] <= 2.0 * s["gmse_h1"]["median"]
        assert s["gmse_h0.66"]["median"] <= 2.0 * s["gmse_h1"]["median"]

    def test_oracle_rase_dominance(self):
        # curves at the estimated beta cannot beat curves at the true beta
        # by more than Monte Carlo slack: median oracle/fit ratio <= 1.05
        design = g.poisson_design(200)
        sm = g.SmoothingParams(h=0.1, delta=0.1)
        cfg = g.FitConfig(smoothing=sm, max_steps=3)
        ratios = []
        for rep in range(10):
            data = g.generate(design, seed=g.replicate_seed(23, rep))
            res = g.fit("poisson", data, cfg)
            oracle = g.fit_curve("poisson", data, design.beta0, sm)
            ratios.append(g.rase(oracle, design.alpha_funcs)
                          / g.rase(res.curve, design.alpha_funcs))
        assert np.median(ratios) <= 1.05


class TestFailureAccounting:
    def test_failures_logged_and_bounded(self, monkeypatch):
        # force every replicate to fail and confirm the study aborts
        import gvcplm.studies as studies

        def boom(*args, **kwargs):
            raise g.SingularityError("forced failure")

        monkeypatch.setattr(studies, "fit_dbe", boom)
        with pytest.raises(StudyError):
            g.run_table("table2", reps=3, seed=1, family="poisson", n=200)


class TestCrossValidatedSmoothing:
    """run_table(use_cv=True) cross-validates only the axes not given."""

    def test_given_delta_tunes_h_at_that_delta(self, monkeypatch):
        grids = []
        cross_validate = studies.cross_validate
        monkeypatch.setattr(studies, "cross_validate", lambda *a, grid, **kw:
                            grids.append(grid) or cross_validate(*a, grid=grid, **kw))
        report = g.run_table("table2", reps=1, seed=3, family="poisson", n=200,
                             use_cv=True, delta=0.1)
        data = g.generate(g.make_design("poisson", 200), g.replicate_seed(3, 0))
        grid = [(0.1, float(h)) for h in g.default_h_grid(data)]
        assert grids == [grid]
        best = g.cross_validate("poisson", data, grid=grid, seed=3).best
        assert report["smoothing"]["delta"] == 0.1
        assert report["smoothing"]["h"] == best.h

    def test_given_h_and_delta_run_no_cross_validation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("cross_validate called")

        monkeypatch.setattr(studies, "cross_validate", refuse)
        report = g.run_table("table2", reps=1, seed=3, family="poisson", n=200,
                             use_cv=True, h=0.12, delta=0.1)
        assert report["smoothing"]["h"] == 0.12
        assert report["smoothing"]["delta"] == 0.1


class TestChiSquareHelpers:
    @pytest.mark.parametrize("df", (1, 2, 4, 14))
    def test_match_scipy_stats(self, df):
        from scipy import stats

        x = np.linspace(0.0, 4.0 * df + 10.0, 301)
        np.testing.assert_allclose(studies._chi2_pdf(x, df), stats.chi2.pdf(x, df),
                                   rtol=1e-12, atol=0.0)
        for level in (0.9, 0.5, *studies.GLRT_LEVELS, 1e-4):
            assert studies._chi2_isf(level, df) == pytest.approx(
                stats.chi2.isf(level, df), rel=1e-12)
