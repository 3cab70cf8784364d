import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gvcplm as g
from gvcplm.cli import main, read_dataset_csv, write_dataset_csv
from gvcplm.smoothing import CurveFitter


def run_cli(*args):
    return main(list(args))


class TestDatasetCsv:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        data = g.generate(g.poisson_design(200), seed=g.replicate_seed(71, 0))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        back = read_dataset_csv(path, "u", "y",
                                [f"x{j+1}" for j in range(2)],
                                [f"z{j+1}" for j in range(10)])
        np.testing.assert_array_equal(back.u, data.u)
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.z, data.z)
        np.testing.assert_array_equal(back.y, data.y)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("u,x1,z1\n0.1,1.0,0.3\n")
        with pytest.raises(g.DataError, match="'y'"):
            read_dataset_csv(path, "u", "y", ["x1"], ["z1"])

    def test_missing_value_reports_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("u,x1,z1,y\n0.1,1.0,0.3,2\n0.2,1.0,,3\n")
        with pytest.raises(g.DataError, match="row 3"):
            read_dataset_csv(path, "u", "y", ["x1"], ["z1"])

    def test_intercept_prepended(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("u,x1,z1,y\n0.1,2.0,0.3,2\n0.2,3.0,0.4,3\n")
        data = read_dataset_csv(path, "u", "y", ["x1"], ["z1"], intercept=True)
        np.testing.assert_allclose(data.x[:, 0], 1.0)
        assert data.x_names[0] == "(intercept)"


class TestExitCodes:
    def test_malformed_csv_exits_3(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("u,x1,z1\n0.1,1.0,0.3\n")
        code = run_cli("fit", "--data", str(path), "--family", "gaussian",
                       "--u", "u", "--y", "y", "--x", "x1", "--z", "z1",
                       "--h", "0.3", "--out", str(tmp_path))
        assert code == 3
        assert "'y'" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = run_cli("fit", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_overlapping_roles_exit_2(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("u,x1,z1,y\n0.1,1.0,0.3,2\n")
        code = run_cli("fit", "--data", str(path), "--family", "gaussian",
                       "--u", "u", "--y", "y", "--x", "x1", "--z", "x1",
                       "--h", "0.3", "--out", str(tmp_path))
        assert code == 2

    def test_numerical_failure_exits_4(self, tmp_path, capsys):
        data = g.generate(g.poisson_design(200), seed=g.replicate_seed(73, 0))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        code = run_cli("fit", "--data", str(path), "--family", "poisson",
                       "--u", "u", "--y", "y",
                       "--x", "x1,x2", "--z", ",".join(f"z{j+1}" for j in range(10)),
                       "--h", "0.0005", "--delta", "0.1", "--out", str(tmp_path))
        assert code == 4
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "error" in payload

    @pytest.mark.parametrize("command, extra, message", [
        ("cv", ("--h-grid", "0.1,abc"), "--h-grid"),
        ("test", ("--test", "z7=abc"), "z7=abc"),
        ("fit", ("--config", "{config}"), "smoothing.h"),
        ("fit", ("--config", "{blocks}"), "'fit'"),
        ("test", ("--test", "z7=0,z7=0"), "linearly dependent"),
    ])
    def test_malformed_input_exits_2(self, tmp_path, capsys, command, extra, message):
        _, args = _write_design_csv(tmp_path, "poisson", 200, 127)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"smoothing": {"h": "abc", "delta": 0.1}}))
        blocks = tmp_path / "b.json"
        blocks.write_text(json.dumps({"fit": 5}))
        files = {"{config}": str(config), "{blocks}": str(blocks)}
        extra = [files.get(arg, arg) for arg in extra]
        code = run_cli(command, *args, "--delta", "0.1", *extra)
        assert code == 2
        assert message in capsys.readouterr().err

    def test_memory_error_exits_4(self, tmp_path, capsys, monkeypatch):
        data = g.generate(g.poisson_design(200), seed=g.replicate_seed(73, 0))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 9.0 GiB")

        monkeypatch.setattr("gvcplm.cli.profile_fit", out_of_memory)
        code = run_cli("fit", "--data", str(path), "--family", "poisson",
                       "--u", "u", "--y", "y",
                       "--x", "x1,x2", "--z", ",".join(f"z{j+1}" for j in range(10)),
                       "--h", "0.1", "--delta", "0.1", "--out", str(tmp_path))
        assert code == 4
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {"error": "MemoryError", "message": "Unable to allocate 9.0 GiB"}


def _write_design_csv(tmp_path, family, n, seed):
    design = g.make_design(family, n)
    data = g.generate(design, seed=g.replicate_seed(seed, 0))
    path = tmp_path / "d.csv"
    write_dataset_csv(path, data)
    args = ["--data", str(path), "--family", family, "--u", "u", "--y", "y",
            "--x", "x1,x2", "--z", ",".join(f"z{j+1}" for j in range(design.p_dim)),
            "--out", str(tmp_path)]
    return data, args


class TestCommandsReadFitState:
    # n differs from the 200-point display grid, so only the profile engine's
    # smoother has n points
    N = 240

    def _count_points(self, monkeypatch):
        sizes = []
        orig = CurveFitter.__init__

        def counting(fitter, *args, **kwargs):
            orig(fitter, *args, **kwargs)
            sizes.append(fitter.points.size)

        monkeypatch.setattr(CurveFitter, "__init__", counting)
        return sizes

    @pytest.mark.parametrize("command", (("fit",), ("test", "--test", "z7=0,z8=0")))
    def test_builds_one_n_point_smoother(self, tmp_path, monkeypatch, command):
        _, args = _write_design_csv(tmp_path, "poisson", self.N, 113)
        sizes = self._count_points(monkeypatch)
        code = run_cli(*command, *args, "--h", "0.1", "--delta", "0.1")
        assert code == 0
        assert sizes.count(self.N) == 1

    @pytest.mark.parametrize("family", ("poisson", "bernoulli"))
    def test_residuals_are_pearson_residuals(self, tmp_path, family):
        data, args = _write_design_csv(tmp_path, family, 200, 127)
        delta, h = g.preset_smoothing(family, 200)
        code = run_cli("fit", *args, "--h", repr(h), "--delta", repr(delta))
        assert code == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        beta = np.array([report["coefficients"][f"z{j+1}"]["estimate"]
                         for j in range(data.n_linear)])
        # the curve refitted at every observation from a cold start, then the
        # closed-form mean and variance of the family
        curve = g.fit_curve(family, data, beta, g.SmoothingParams(h=h, delta=delta),
                            grid=data.u)
        mhat = np.einsum("iq,iq->i", curve.values, data.x) + data.z @ beta
        if family == "poisson":
            mu = np.exp(mhat)
            var = mu
        else:
            mu = 1.0 / (1.0 + np.exp(-mhat))
            var = mu * (1.0 - mu)
        expected = (data.y - mu) / np.sqrt(var)
        error = np.abs(np.array(report["standardized_residuals"]) - expected)
        assert np.max(error) <= 1e-8 * np.max(np.abs(expected))


class TestFitCommand:
    def test_fit_on_generated_poisson_csv(self, tmp_path):
        design = g.poisson_design(400)
        data = g.generate(design, seed=g.replicate_seed(79, 2))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        znames = ",".join(f"z{j+1}" for j in range(design.p_dim))
        code = run_cli("fit", "--data", str(path), "--family", "poisson",
                       "--u", "u", "--y", "y", "--x", "x1,x2", "--z", znames,
                       "--h", "0.08", "--delta", "0.1", "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        # truth should sit inside the 95% interval for most coordinates
        hits = 0
        for j in range(design.p_dim):
            c = report["coefficients"][f"z{j+1}"]
            if abs(c["estimate"] - design.beta0[j]) < 1.96 * c["se"]:
                hits += 1
        assert hits >= 11
        assert len(report["standardized_residuals"]) == 400
        curve_lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve_lines[0] == "grid_u,alpha_x1_hat,alpha_x2_hat"
        assert len(curve_lines) == 201

    def test_roundtrip_matches_in_process_fit(self, tmp_path):
        design = g.poisson_design(200)
        data = g.generate(design, seed=g.replicate_seed(83, 0))
        out = tmp_path / "sim"
        code = run_cli("simulate", "--family", "poisson", "--n", "200",
                       "--seed", "83", "--reps", "1", "--emit-csv",
                       "--out", str(out))
        assert code == 0
        emitted = read_dataset_csv(out / "dataset_rep000.csv", "u", "y",
                                   ["x1", "x2"],
                                   [f"z{j+1}" for j in range(design.p_dim)])
        np.testing.assert_array_equal(emitted.y, data.y)
        sm = g.SmoothingParams(h=0.1, delta=0.1)
        cfg = g.FitConfig(smoothing=sm, max_steps=3)
        direct = g.fit("poisson", data, cfg, curve_grid=False)
        via_csv = g.fit("poisson", emitted, cfg, curve_grid=False)
        np.testing.assert_array_equal(direct.beta, via_csv.beta)


class TestTestCommand:
    def test_reports_glrt_payload(self, tmp_path):
        design = g.poisson_design(200)
        data = g.generate(design, seed=g.replicate_seed(89, 0))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        znames = ",".join(f"z{j+1}" for j in range(design.p_dim))
        code = run_cli("test", "--data", str(path), "--family", "poisson",
                       "--u", "u", "--y", "y", "--x", "x1,x2", "--z", znames,
                       "--h", "0.1", "--delta", "0.1",
                       "--test", "z7=0,z8=0", "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "test_report.json").read_text())
        assert report["df"] == 2
        assert 0.0 <= report["p_value"] <= 1.0
        assert report["statistic"] >= 0.0
        # the truly-zero coordinates should not be strongly rejected
        assert report["p_value"] > 0.001


class TestCvCommand:
    def test_writes_report_and_scores(self, tmp_path):
        data = g.generate(g.poisson_design(200), seed=g.replicate_seed(97, 0))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        znames = ",".join(f"z{j+1}" for j in range(10))
        code = run_cli("cv", "--data", str(path), "--family", "poisson",
                       "--u", "u", "--y", "y", "--x", "x1,x2", "--z", znames,
                       "--cv", "3", "--h-grid", "0.08,0.15",
                       "--delta-grid", "0.1", "--out", str(tmp_path),
                       "--seed", "5")
        assert code == 0
        report = json.loads((tmp_path / "cv_report.json").read_text())
        assert report["best"]["h"] in (0.08, 0.15)
        lines = (tmp_path / "cv_scores.csv").read_text().splitlines()
        assert lines[0] == "delta,h,score,failed"
        assert len(lines) == 3

    def test_single_delta_is_the_configured_delta(self, tmp_path):
        _, args = _write_design_csv(tmp_path, "poisson", 200, 97)
        code = run_cli("cv", *args, "--cv", "3", "--h-grid", "0.15",
                       "--delta", "0.05", "--seed", "5")
        assert code == 0
        lines = (tmp_path / "cv_scores.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0.05"]
        report = json.loads((tmp_path / "cv_report.json").read_text())
        assert report["best"]["delta"] == 0.05

    def test_report_names_failure_reason(self, tmp_path):
        data = g.generate(g.poisson_design(200), seed=g.replicate_seed(97, 0))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        znames = ",".join(f"z{j+1}" for j in range(10))
        code = run_cli("cv", "--data", str(path), "--family", "poisson",
                       "--u", "u", "--y", "y", "--x", "x1,x2", "--z", znames,
                       "--cv", "3", "--h-grid", "1e-05,0.15",
                       "--delta-grid", "0.1", "--out", str(tmp_path),
                       "--seed", "5")
        assert code == 0
        cells = json.loads((tmp_path / "cv_report.json").read_text())["cells"]
        assert cells[0]["failed"]
        assert cells[0]["reason"].startswith("EffectiveSampleError: ")
        assert not cells[1]["failed"] and cells[1]["reason"] is None
        lines = (tmp_path / "cv_scores.csv").read_text().splitlines()
        assert lines[0] == "delta,h,score,failed"


class TestSimulateCommand:
    def test_runs_study_and_writes_artifacts(self, tmp_path):
        code = run_cli("simulate", "--study", "table2", "--family", "poisson",
                       "--n", "200", "--reps", "2", "--seed", "3",
                       "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "table2_summary.json").read_text())
        assert payload["reps"] == 2
        assert (tmp_path / "table2_replicates.csv").exists()


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the child imports the package this test imported, also when pytest
        # put src/ on the path itself and nothing is installed
        package_root = str(Path(g.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gvcplm.cli", "simulate", "--family",
             "poisson", "--n", "200", "--seed", "1", "--reps", "1",
             "--emit-csv", "--out", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert (tmp_path / "dataset_rep000.csv").exists()
