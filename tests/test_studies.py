import csv
import json
import warnings
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
        # followed by fit_curve on the default grid
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
                curve = g.fit_curve("poisson", data, res.beta, sm)
                assert row[f"rase_ratio_{name}"] == (
                    rase_oracle / g.rase(curve, design.alpha_funcs))

    def test_table2_report(self):
        report = g.run_table("table2", reps=3, seed=2, family="poisson", n=200)
        s = report["summary"]
        assert 0 < s["ratio_af_dbe_pct"]["median"] < 100
        assert s["ratio_af_3s_pct"]["median"] > 0

    def test_table2_fits_share_one_smoother(self, fitter_sizes):
        # the 3-step and the fully iterated fit of a replicate reuse one
        # engine, and give what two separately built engines give
        report = g.run_table("table2", reps=1, seed=2, family="poisson", n=200)
        assert fitter_sizes == [200]
        sm = g.SmoothingParams(h=report["smoothing"]["h"],
                               delta=report["smoothing"]["delta"])
        design = g.make_design("poisson", 200)
        moment = g.design_moment(design)
        data = g.generate(design, g.replicate_seed(2, 0))
        init = g.fit_dbe("poisson", data, sm.delta).beta0
        row = report["replicates"][0]
        for key, max_steps in (("gmse_3s", 3), ("gmse_af", 50)):
            res = g.fit("poisson", data, g.FitConfig(smoothing=sm, max_steps=max_steps),
                        init=init)
            assert row[key] == g.gmse(res.beta, design.beta0, moment)

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

    @pytest.mark.parametrize("reps", [2.7, True])
    def test_reps_not_an_integer(self, reps):
        with pytest.raises(StudyError, match="reps must be an integer"):
            g.run_table("table2", reps=reps)

    @pytest.mark.parametrize("study", studies.STUDIES)
    def test_default_reps_reach_the_replicate_loop(self, monkeypatch, study):
        class Stop(Exception):
            pass

        seen = []

        def loop(arms, reps, seed, worker):
            seen.append(reps)
            raise Stop

        monkeypatch.setattr(studies, "_run_replicates", loop)
        with pytest.raises(Stop):
            g.run_table(study)
        # the table of studies is the record of each default
        assert seen == [studies._STUDIES[study][1]] == [50 if study == "table1" else 400]

    def test_argument_of_another_study_named(self):
        with pytest.raises(StudyError, match="'table4' takes no argument gammas"):
            g.run_table("table4", reps=1, gammas=(0.1,))

    @pytest.mark.parametrize("study, family, n", [
        ("table4", "gaussian", 200),   # no simulation design
        ("table4", "poisson", 0),
        ("table4", "poisson", -5),
        ("table2", "poisson", 200.0),
    ])
    def test_no_design_ends_in_parameter_error(self, study, family, n):
        with pytest.raises(g.ParameterError):
            g.run_table(study, reps=2, family=family, n=n)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_seed_not_a_count_ends_in_parameter_error(self, monkeypatch, seed):
        # the check comes before the first replicate, so a bad seed is not
        # logged as failed replicates
        import gvcplm.studies as studies

        def no_draws(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(studies, "generate", no_draws)
        with pytest.raises(g.ParameterError, match="seed must be an integer >= 0"):
            g.run_table("table4", reps=1, seed=seed)


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


def _strict_json(path):
    """The JSON in path; NaN or Infinity in it fails the test."""
    def reject(token):
        raise ValueError(f"{path.name}: {token} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


class TestOneReplicate:
    """With one replicate, a statistic that needs two is null, not NaN."""

    @pytest.mark.parametrize("study", studies.STUDIES)
    def test_summary_is_strict_json(self, tmp_path, study):
        kwargs = {"gammas": (0.0, 0.2)} if study == "fig1_power" else {}
        g.run_table(study, reps=1, seed=1, family="poisson", n=200, out_dir=tmp_path,
                    **kwargs)
        payload = _strict_json(tmp_path / f"{study}_summary.json")
        assert (payload["reps"], payload["n_failures"]) == (1, 0)

    def test_sds_and_density_are_empty(self, tmp_path):
        g.run_table("table4", reps=1, seed=1, family="poisson", n=200, out_dir=tmp_path)
        g.run_table("fig1_null", reps=1, seed=1, family="poisson", n=200, out_dir=tmp_path)
        table4 = _strict_json(tmp_path / "table4_summary.json")["summary"]
        assert {table4[f"beta_{j}"]["mc_sd"] for j in range(1, 11)} == {None}
        assert _strict_json(tmp_path / "fig1_null_summary.json")["summary"]["t_stat"]["sd"] is None
        with open(tmp_path / "fig1_null_curves.csv", newline="") as handle:
            cells = list(csv.DictReader(handle))
        assert len(cells) == 200
        assert {row["empirical_density"] for row in cells} == {""}
        assert all(float(row["chi2_density"]) >= 0.0 for row in cells)


class TestReplicateStreams:
    """Each row is the direct computation on its arm's replicate dataset."""

    @staticmethod
    def _setup(report):
        sm = g.SmoothingParams(h=report["smoothing"]["h"],
                               delta=report["smoothing"]["delta"])
        return sm, g.make_design("poisson", 200)

    def test_power_rows_are_direct_glrts(self):
        gammas = (0.0, 0.2)
        report = g.run_table("fig1_power", reps=2, seed=6, family="poisson", n=200,
                             gammas=gammas)
        sm, design = self._setup(report)
        constraint = g.make_constraint(np.eye(design.p_dim)[6:])
        cfg = g.FitConfig(smoothing=sm, max_steps=1)
        rows = report["replicates"]
        assert [(r["gamma"], r["rep"]) for r in rows] == [(0.0, 0), (0.0, 1), (0.2, 0), (0.2, 1)]
        for row in rows:
            gi = gammas.index(row["gamma"])
            arm = g.with_beta(design, b7=row["gamma"], b8=row["gamma"])
            data = g.generate(arm, g.replicate_seed(6 + 1000 * gi, row["rep"]))
            assert row["t_stat"] == g.glrt("poisson", data, constraint, cfg).statistic

    def test_null_rows_are_the_power_rows_at_gamma_zero(self):
        null = g.run_table("fig1_null", reps=3, seed=7, family="poisson", n=200)
        power = g.run_table("fig1_power", reps=3, seed=7, family="poisson", n=200,
                            gammas=(0.0,))
        assert len(null["replicates"]) == 3
        for a, b in zip(null["replicates"], power["replicates"], strict=True):
            assert (a["rep"], a["t_stat"]) == (b["rep"], b["t_stat"])
            assert b["reject_0.05"] == int(a["p_value"] < 0.05)

    def test_table3_rows_are_direct_fits(self):
        report = g.run_table("table3", reps=2, seed=3, family="poisson", n=200)
        sm, design = self._setup(report)
        moment = g.design_moment(design)
        for row in report["replicates"]:
            data = g.generate(design, g.replicate_seed(3, row["rep"]))
            init = g.fit_dbe("poisson", data, sm.delta).beta0
            for mult, tag in ((0.66, "0.66"), (1.0, "1"), (1.5, "1.5")):
                scaled = g.SmoothingParams(h=mult * sm.h, delta=sm.delta)
                beta = g.fit("poisson", data, g.FitConfig(smoothing=scaled, max_steps=1),
                             init=init).beta
                assert row[f"gmse_h{tag}"] == g.gmse(beta, design.beta0, moment)
                assert row[f"beta5_h{tag}"] == float(beta[4])

    def test_table4_rows_are_direct_fits(self):
        report = g.run_table("table4", reps=2, seed=4, family="poisson", n=200)
        sm, design = self._setup(report)
        for row in report["replicates"]:
            data = g.generate(design, g.replicate_seed(4, row["rep"]))
            res = g.fit("poisson", data, g.FitConfig(smoothing=sm, max_steps=1))
            se = g.sandwich_covariance(res).se
            coords = range(1, design.p_dim + 1)
            assert [row[f"beta_{j}"] for j in coords] == res.beta.tolist()
            assert [row[f"se_{j}"] for j in coords] == se.tolist()


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
        design = g.make_design("poisson", 200)
        sm = g.SmoothingParams(h=0.1, delta=0.1)
        cfg = g.FitConfig(smoothing=sm, max_steps=3)
        ratios = []
        for rep in range(10):
            data = g.generate(design, seed=g.replicate_seed(23, rep))
            res = g.fit("poisson", data, cfg)
            oracle = g.fit_curve("poisson", data, design.beta0, sm)
            curve = g.fit_curve("poisson", data, res.beta, sm)
            ratios.append(g.rase(oracle, design.alpha_funcs)
                          / g.rase(curve, design.alpha_funcs))
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

    @staticmethod
    def _fail_power_replicate(monkeypatch, seed, rep):
        """studies.glrt raises on replicate rep of fig1_power's gamma = 0.2 arm,
        the second arm, drawn at seed offset 1000."""
        arm = g.with_beta(g.make_design("poisson", 200), b7=0.2, b8=0.2)
        target = g.generate(arm, g.replicate_seed(seed + 1000, rep)).u
        glrt = studies.glrt

        def flaky(family, data, *args, **kwargs):
            if np.array_equal(data.u, target):
                raise g.SingularityError("forced failure")
            return glrt(family, data, *args, **kwargs)

        monkeypatch.setattr(studies, "glrt", flaky)

    def test_failures_bounded_per_arm(self, monkeypatch):
        # 1 of the arm's 5 replicates is 20%, over the limit, although 1 of
        # the study's 10 is not
        self._fail_power_replicate(monkeypatch, seed=8, rep=2)
        with pytest.raises(StudyError, match="1 of 5 replicates failed"):
            g.run_table("fig1_power", reps=5, seed=8, family="poisson", n=200,
                        gammas=(0.0, 0.2))

    def test_failure_logged_and_its_row_left_out(self, monkeypatch):
        self._fail_power_replicate(monkeypatch, seed=8, rep=3)
        report = g.run_table("fig1_power", reps=10, seed=8, family="poisson", n=200,
                             gammas=(0.0, 0.2))
        assert report["failures"] == [{"rep": 3, "error": "SingularityError: forced failure"}]
        assert report["n_failures"] == 1
        assert [(r["gamma"], r["rep"]) for r in report["replicates"]] == (
            [(0.0, k) for k in range(10)] + [(0.2, k) for k in range(10) if k != 3])


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
    @pytest.mark.parametrize("df", range(1, 61))
    def test_match_scipy_stats(self, df):
        from scipy import stats

        x = np.linspace(0.0, 4.0 * df + 10.0, 301)
        np.testing.assert_allclose(studies._chi2_pdf(x, df), stats.chi2.pdf(x, df),
                                   rtol=1e-12, atol=0.0)

    def test_density_at_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at_zero = [float(studies._chi2_pdf(np.zeros(1), df)[0]) for df in range(1, 61)]
        assert at_zero == [np.inf, 0.5] + [0.0] * 58
