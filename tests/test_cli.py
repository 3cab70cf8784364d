import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gvcplm as g
from gvcplm import cli, crossval
from gvcplm.cli import main, read_dataset_csv, write_dataset_csv


def run_cli(*args):
    return main(list(args))


def _numeric_table_of(path):
    """cli._numeric_table on the data rows of a CSV file."""
    with open(path, newline="", encoding="utf-8") as handle:
        header = next(csv.reader(handle))
        return cli._numeric_table(handle.read(), len(header))


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

    def test_column_read_twice_in_header_named(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("u,y,x1,z1,z1\n0.1,2,1.0,0.3,0.5\n")
        with pytest.raises(g.DataError, match="'z1' appears more than once"):
            read_dataset_csv(path, "u", "y", ["x1"], ["z1"])
        code = run_cli("fit", "--data", str(path), "--family", "gaussian",
                       "--u", "u", "--y", "y", "--x", "x1", "--z", "z1",
                       "--h", "0.3", "--out", str(tmp_path))
        assert code == 3
        assert "'z1'" in capsys.readouterr().err

    def test_duplicate_column_not_read_is_allowed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("u,y,x1,z1,note,note\n0.1,2,1.0,0.3,a,b\n")
        data = read_dataset_csv(path, "u", "y", ["x1"], ["z1"])
        np.testing.assert_array_equal(data.z, [[0.3]])

    def test_numeric_table_is_the_cell_reader_bit_for_bit(self, tmp_path, monkeypatch):
        # a plain table of numbers is parsed in one pass; the cell-by-cell
        # reader, forced by a table parser that never takes, is the reference
        data = g.generate(g.poisson_design(1500), seed=g.replicate_seed(73, 0))
        table = np.column_stack([data.u, data.x, data.z, data.y])
        header = ["u", "x1", "x2", *(f"z{j+1}" for j in range(data.n_linear)), "y"]
        path = tmp_path / "d.csv"
        path.write_text("\n".join([",".join(header)] + [
            ",".join(repr(float(v)) for v in row) for row in table]) + "\n")
        cols = ("u", "y", ["x1", "x2"], header[3:-1])
        assert _numeric_table_of(path) is not None
        fast = read_dataset_csv(path, *cols)
        monkeypatch.setattr(cli, "_numeric_table", lambda text, n_fields: None)
        cells = read_dataset_csv(path, *cols)
        for name in ("u", "x", "z", "y"):
            a, b = getattr(fast, name), getattr(cells, name)
            assert a.tobytes() == b.tobytes() and a.strides == b.strides, name
        np.testing.assert_array_equal(fast.z, data.z)

    @pytest.mark.parametrize("text, message", [
        ("0.1,2,1,0.3\n\n0.2,3,1,0.4\n", "row 3 has 0 fields, expected 4"),
        ("0.1,2,1,0.3\r\n\r\n", "row 3 has 0 fields, expected 4"),
        ("0.1,2,1\n", "row 2 has 3 fields, expected 4"),
        ("0.1,2,1,0.3,5\n", "row 2 has 5 fields, expected 4"),
        ("0.1,,1,0.3\n", "missing value in column 'y' at row 2"),
        ("0.1,abc,1,0.3\n", "non-numeric value 'abc' in column 'y' at row 2"),
    ], ids=["blank-line", "blank-crlf-line", "short-row", "long-row", "empty-cell",
            "non-numeric"])
    def test_rows_the_table_parser_skips_are_named(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text("u,y,x1,z1\n" + text, newline="")
        with pytest.raises(g.DataError) as info:
            read_dataset_csv(path, "u", "y", ["x1"], ["z1"])
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text, y", [
        ('u,y,x1,z1\n0.1,"2",1,0.3\n', [2.0]),           # a quoted number
        ("u,y,x1,z1,note\n0.1,2,1,0.3,text\n", [2.0]),    # an unused text column
        ("u,y,x1,z1\n", []),                              # a header only
        ("u,y,x1,z1\r0.1,2,1,0.3\r0.2,3,1,0.4\r", [2.0, 3.0]),   # CR line ends
    ], ids=["quoted", "unused-text-column", "header-only", "cr-line-ends"])
    def test_files_the_table_parser_does_not_take_are_read_by_cell(self, tmp_path, text, y):
        path = tmp_path / "d.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")   # loadtxt warns on a file without rows
            assert _numeric_table_of(path) is None
            data = read_dataset_csv(path, "u", "y", ["x1"], ["z1"])
        assert not caught
        np.testing.assert_array_equal(data.y, y)

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

    @pytest.mark.parametrize("command", (("fit",), ("test", "--test", "z7=0,z8=0")))
    def test_builds_one_n_point_smoother(self, tmp_path, fitter_sizes, command):
        _, args = _write_design_csv(tmp_path, "poisson", self.N, 113)
        code = run_cli(*command, *args, "--h", "0.1", "--delta", "0.1")
        assert code == 0
        assert fitter_sizes.count(self.N) == 1

    @pytest.mark.parametrize("command, sizes", (
        (("fit",), [N, 200]),
        (("test", "--test", "z7=0,z8=0"), [N]),
    ), ids=("fit", "test"))
    def test_only_fit_builds_the_display_grid_smoother(self, tmp_path, fitter_sizes,
                                                       command, sizes):
        # fit evaluates the curve on the 200-point display grid once the
        # estimate is in; test reports no curve
        _, args = _write_design_csv(tmp_path, "poisson", self.N, 113)
        code = run_cli(*command, *args, "--h", "0.1", "--delta", "0.1")
        assert code == 0
        assert fitter_sizes == sizes

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
        direct = g.fit("poisson", data, cfg)
        via_csv = g.fit("poisson", emitted, cfg)
        np.testing.assert_array_equal(direct.beta, via_csv.beta)

    def test_cv_without_h_keeps_degree_and_delta(self, tmp_path):
        _, args = _write_design_csv(tmp_path, "poisson", 200, 101)
        code = run_cli("fit", *args, "--degree", "2", "--delta", "0.05", "--cv", "2")
        assert code == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["smoothing"]["degree"] == 2
        assert report["smoothing"]["delta"] == 0.05

    @pytest.mark.parametrize("name, code", [("accelerated", 0), ("bogus", 2)])
    def test_algorithm_named_as_reports_write_it(self, tmp_path, capsys, name, code):
        _, args = _write_design_csv(tmp_path, "poisson", 200, 103)
        assert run_cli("fit", *args, "--h", "0.1", "--delta", "0.1",
                       "--algorithm", name) == code
        if code:
            assert "unknown algorithm" in capsys.readouterr().err


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

    def test_delta_grid_alone_crosses_the_default_h_axis(self, tmp_path):
        data, args = _write_design_csv(tmp_path, "poisson", 200, 97)
        code = run_cli("cv", *args, "--cv", "2", "--delta-grid", "0.05", "--seed", "5")
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "cv_scores.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0.05"] * 10
        assert [float(row[1]) for row in rows] == list(g.default_h_grid(data))

    def test_cells_fit_with_the_run_settings(self, tmp_path, monkeypatch):
        _, args = _write_design_csv(tmp_path, "poisson", 200, 97)
        configs = []
        fit = crossval.profile_fit

        def spy(family, data, config, *rest, **kwargs):
            configs.append(config)
            return fit(family, data, config, *rest, **kwargs)

        monkeypatch.setattr("gvcplm.crossval.profile_fit", spy)
        code = run_cli("cv", *args, "--cv", "2", "--h-grid", "0.15", "--delta-grid", "0.1",
                       "--degree", "0", "--algorithm", "backfit", "--max-steps", "1")
        assert code == 0
        assert len(configs) == 2
        assert {(c.algorithm, c.max_steps, c.smoothing.degree)
                for c in configs} == {("backfitting", 1, 0)}


class TestSimulateCommand:
    def test_runs_study_and_writes_artifacts(self, tmp_path):
        code = run_cli("simulate", "--study", "table2", "--family", "poisson",
                       "--n", "200", "--reps", "2", "--seed", "3",
                       "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "table2_summary.json").read_text())
        assert payload["reps"] == 2
        assert (tmp_path / "table2_replicates.csv").exists()

    @pytest.mark.parametrize("args", [("--family", "gaussian"), ("--n", "0"), ("--n", "-5")])
    def test_no_design_exits_2(self, tmp_path, capsys, args):
        code = run_cli("simulate", "--study", "table4", "--reps", "2", *args,
                       "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_zero_reps_exit_2_naming_the_key(self, tmp_path, capsys, given):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"simulate": {"reps": 0}}))
        args = ("--reps", "0") if given == "flag" else ("--config", str(config))
        code = run_cli("simulate", "--study", "table2", *args, "--out", str(tmp_path))
        assert code == 2
        assert "simulate.reps" in capsys.readouterr().err


# per flag: its command-line text and the JSON value a config file holds for it
FLAG_SAMPLES = {
    "--data": ("d.csv", "d.csv"),
    "--family": ("bernoulli", "bernoulli"),
    "--u": ("age", "age"),
    "--y": ("outcome", "outcome"),
    "--x": ("x1, x2", ["x1", "x2"]),
    "--z": ("z1,z2", ["z1", "z2"]),
    "--intercept": (None, True),
    "--h": ("0.25", 0.25),
    "--delta": ("0.05", 0.05),
    "--degree": ("2", 2),
    "--algorithm": ("full", "full"),
    "--max-steps": ("7", 7),
    "--tol": ("1e-08", 1e-08),
    "--test": ("z7=0", "z7=0"),
    "--cv": ("4", 4),
    "--h-grid": ("0.1,0.2", [0.1, 0.2]),
    "--delta-grid": ("0.05", [0.05]),
    "--out": ("results", "results"),
    "--seed": ("9", 9),
    "--study": ("table4", "table4"),
    "--reps": ("20", 20),
    "--n": ("400", 400),
    "--emit-csv": (None, True),
    "--use-cv": (None, True),
}


# per case: a command, a config key it reads and a value of another JSON type
# than the key takes, which str, int, float or bool would have coerced (5 to
# "5") or failed on past the config check
WRONG_JSON_TYPES = [
    ("fit", "smoothing.degree", 1.5),
    ("fit", "fit.max_steps", True),
    ("fit", "cv.k", "5"),
    ("fit", "smoothing.h", True),
    ("fit", "smoothing.delta", "0.1"),
    ("fit", "fit.tol", False),
    ("fit", "intercept", "false"),
    ("cv", "cv.h_grid", [0.1, True]),
    ("cv", "cv.delta_grid", "0.1"),
    ("simulate", "seed", 2.0),
    ("simulate", "simulate.reps", 1.5),
    ("simulate", "simulate.n", "200"),
    ("simulate", "simulate.emit_csv", 1),
    ("simulate", "simulate.use_cv", "no"),
    ("fit", "out", 5),
    ("simulate", "out", ["out"]),
    ("fit", "dataset", 1),
    ("cv", "family", 0),
    ("fit", "columns.u", 5),
    ("fit", "columns.y", True),
    ("fit", "columns.x", 5),
    ("cv", "columns.z", ["z1", 2]),
    ("test", "columns.z", {"z1": "z1"}),
    ("fit", "fit.algorithm", 1),
    ("test", "test", ["z7=0"]),
]


# per case: a (block, name) that no option names, block "" being the top level
UNKNOWN_KEYS = [
    ("smoothing", "bandwith"),
    ("fit", "max_step"),
    ("columns", "w"),
    ("", "fitt"),
    ("", "smoothing.h"),    # a dotted name is read from its block only
    ("", "config"),         # names the file, not a key in it
]


class TestOptionTable:
    @pytest.mark.parametrize("block, name", UNKNOWN_KEYS)
    def test_config_key_that_no_option_names_exits_2(self, tmp_path, capsys, block, name):
        # an emit_csv simulate run that exits 0 when the key is ignored
        cfg = {"out": str(tmp_path / "out"), "simulate": {"emit_csv": True, "reps": 1}}
        (cfg.setdefault(block, {}) if block else cfg)[name] = 0.1
        config = tmp_path / "c.json"
        config.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(config)) == 2
        key = f"{block}.{name}" if block else name
        assert f"config error: unknown config key {key!r}" in capsys.readouterr().err

    def test_config_keys_the_command_does_not_read_are_allowed(self, tmp_path):
        cfg = {"out": str(tmp_path / "out"), "simulate": {"emit_csv": True, "reps": 1},
               "test": "z7=0", "columns": {"u": "u"}, "fit": {"max_steps": 1},
               "cv": {"k": 3}}
        config = tmp_path / "c.json"
        config.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(config)) == 0

    @pytest.mark.parametrize("key", ("x", "z"))
    @pytest.mark.parametrize("source", ("flag", "flag --intercept", "config"))
    def test_empty_column_list_exits_2(self, tmp_path, capsys, key, source):
        _, args = _write_design_csv(tmp_path, "poisson", 200, 97)
        at = args.index(f"--{key}")
        if source == "config":
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"columns": {key: []}}))
            args[at:at + 2] = ["--config", str(config)]
        else:
            args[at + 1] = ""
            args += source.split()[1:]
        assert run_cli("fit", *args, "--h", "0.1", "--delta", "0.1") == 2
        assert f"config names no columns.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", WRONG_JSON_TYPES)
    def test_config_value_of_another_json_type_exits_2(self, tmp_path, capsys,
                                                       command, key, value):
        # emit_csv keeps a simulate run short wherever the key is not rejected
        cfg = {"out": str(tmp_path / "out"), "simulate": {"emit_csv": True, "reps": 1}}
        block, _, name = key.rpartition(".")
        (cfg.setdefault(block, {}) if block else cfg)[name] = value
        config = tmp_path / "c.json"
        config.write_text(json.dumps(cfg))
        assert run_cli(command, "--config", str(config)) == 2
        assert f"config error: {key}: expected" in capsys.readouterr().err

    def test_integer_config_value_of_a_number_key_is_read_as_float(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"smoothing": {"h": 1}, "cv": {"h_grid": [1, 0.5]}}))
        cfg = cli._merge_config(cli.build_parser().parse_args(["fit", "--config", str(config)]))
        assert cli._read(cfg, "smoothing.h") == 1.0
        assert cli._read(cfg, "cv.h_grid") == [1.0, 0.5]

    @pytest.mark.parametrize("flag", sorted(FLAG_SAMPLES))
    def test_flag_and_config_key_merge_alike(self, tmp_path, flag):
        assert {o.flag for o in cli._OPTIONS} == {"--config", *FLAG_SAMPLES}
        option = next(o for o in cli._OPTIONS if o.flag == flag)
        text, value = FLAG_SAMPLES[flag]
        block, _, name = option.key.rpartition(".")
        config = tmp_path / "c.json"
        config.write_text(json.dumps({block: {name: value}} if block else {name: value}))
        parser = cli.build_parser()
        for command in option.commands:
            from_flag = cli._merge_config(parser.parse_args(
                [command, flag, *([] if text is None else [text])]))
            from_file = cli._merge_config(parser.parse_args(
                [command, "--config", str(config)]))
            assert from_flag == from_file
            assert from_flag != cli._merge_config(parser.parse_args([command]))

    @pytest.mark.parametrize("command, flag", [("simulate", ("--degree", "2")),
                                               ("cv", ("--h", "0.1"))])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, command, flag):
        _, args = _write_design_csv(tmp_path, "poisson", 200, 97)
        runs = {"simulate": ("--emit-csv", "--reps", "1", "--out", str(tmp_path / "sim")),
                "cv": (*args, "--cv", "2", "--h-grid", "0.15", "--delta-grid", "0.1")}
        with pytest.raises(SystemExit) as exit_:
            run_cli(command, *runs[command], *flag)
        assert exit_.value.code == 2


def _run_python(args, **kwargs):
    """Run a fresh interpreter on the package this test imported, also when
    pytest put src/ on the path itself and nothing is installed."""
    package_root = str(Path(g.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = _run_python(["-m", "gvcplm.cli", "simulate", "--family",
                            "poisson", "--n", "200", "--seed", "1", "--reps", "1",
                            "--emit-csv", "--out", str(tmp_path)])
        assert proc.returncode == 0
        assert (tmp_path / "dataset_rep000.csv").exists()


_STARTUP_SCRIPT = """
import json, sys
if sys.argv[3] == "blocked":
    sys.modules["scipy"] = None  # every scipy import now raises ImportError
import gvcplm as g
from gvcplm import cli

def scipy_modules():
    return sorted(m for m, module in sys.modules.items()
                  if module is not None and (m == "scipy" or m.startswith("scipy.")))

csv, out = sys.argv[1], sys.argv[2]
cli.write_dataset_csv(csv, g.generate(g.make_design("poisson", 120), 1))
args = ["--data", csv, "--family", "poisson", "--u", "u", "--y", "y",
        "--x", "x1,x2", "--z", ",".join(f"z{j + 1}" for j in range(8)),
        "--delta", "0.1", "--out", out]
codes = [cli.main(["fit", *args, "--h", "0.15"]),
         cli.main(["test", *args, "--h", "0.15", "--test", "z7=0,z8=0"]),
         cli.main(["cv", *args, "--cv", "2", "--h-grid", "0.15"])]
g.generate(g.make_design("bernoulli", 60), 1)
# fig1_power sets b7 and b8, so it needs p >= 8, which n = 90 gives
failures = [g.run_table(study, reps=2, seed=1, family="bernoulli", n=n)["n_failures"]
            for study, n in (("table4", 60), ("fig1_null", 60), ("fig1_power", 90))]
codes.append(cli.main(["simulate", "--family", "bernoulli", "--n", "60", "--reps", "1",
                       "--seed", "1", "--emit-csv", "--out", out]))
print(json.dumps({"codes": codes, "failures": failures, "scipy": scipy_modules()}))
"""


def _run_startup_script(tmp_path, scipy_import):
    proc = _run_python(["-c", _STARTUP_SCRIPT, str(tmp_path / "d.csv"),
                        str(tmp_path / "out"), scipy_import])
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["codes"] == [0, 0, 0, 0]
    assert seen["failures"] == [0, 0, 0]
    assert (tmp_path / "out" / "cv_report.json").exists()
    assert (tmp_path / "out" / "dataset_rep000.csv").exists()
    return seen


class TestStartupImports:
    def test_estimation_commands_load_no_scipy(self, tmp_path):
        # fit, test and cv, and the simulation harness (bernoulli draws,
        # run_table, gvcplm simulate), need numpy and the standard library only
        seen = _run_startup_script(tmp_path, "allowed")
        assert seen["scipy"] == []

    def test_runs_with_scipy_imports_blocked(self, tmp_path):
        # stands in for an install without scipy
        _run_startup_script(tmp_path, "blocked")


class TestWaldPValues:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-37.0, max_value=37.0))
    def test_matches_twice_the_normal_tail(self, z):
        from scipy import special

        reference = 2.0 * special.ndtr(-abs(z))
        (p,) = cli._wald_p_values(np.array([z]))
        assert abs(p - reference) <= 1e-12 * reference

    def test_nan_z_gives_nan(self):
        assert np.isnan(cli._wald_p_values(np.array([np.nan, 1.0]))).tolist() == [True, False]
