import json
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from impactreg import cli, write_csv
from impactreg.cli import figure_coefficients, main
from impactreg.simulate import SimConfig, generate_dataset


def load_schema():
    with resources.files("impactreg").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


@pytest.fixture
def data_csv(tmp_path):
    data = generate_dataset(SimConfig(m=4, k=3, n=300, seed=1), 0)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    return path


def run(args):
    return main(args)


class TestAnalyze:
    def test_json_report_validates(self, data_csv, tmp_path):
        out = tmp_path / "r.json"
        code = run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "x1", "--adjust", "x2,x3",
                    "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, load_schema())
        kinds = [e["kind"] for e in report["estimates"]]
        assert kinds == ["linear_impact", "linear_slope", "mod_r2",
                         "partial_linear_impact", "partial_linear_slope"]
        partial = report["estimates"][3]
        assert partial["adjusted_for"] == ["x2", "x3"]
        assert 0.0 <= partial["test"]["p_value"] <= 1.0

    def test_hierarchy_report(self, data_csv, tmp_path):
        out = tmp_path / "h.json"
        code = run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "x1", "--hierarchy", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, load_schema())
        h = report["hierarchy"]
        assert sorted(h["ordering"]) == ["x2", "x3", "x4"]
        assert h["rejected_prefix"] == h["confounders_adjusted"]

    def test_prespecified_order(self, data_csv, tmp_path):
        out = tmp_path / "h.json"
        code = run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "x1", "--hierarchy",
                    "--prespecified-order", "x4,x3,x2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["hierarchy"]["ordering"] == ["x4", "x3", "x2"]

    def test_csv_output(self, data_csv, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "x1", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("kind,target,focus")
        assert len(lines) == 4  # header + three estimates

    def test_transforms_applied(self, data_csv, tmp_path):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps(
            [{"op": "standardize", "column": "x2"}]))
        out = tmp_path / "r.json"
        code = run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "x1", "--transforms", str(spec),
                    "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["transform_log"] == ["standardize(x2)"]

    @pytest.mark.parametrize("step", [
        {"op": "standardize"},
        {"op": "exclude_rows", "column": "x2", "comparator": ">"},
        {"op": "dichotomize", "column": "x2", "value": "high"},
        {"op": "augment_quadratic"},
    ])
    def test_incomplete_transform_step_exit_2(self, data_csv, tmp_path,
                                              capsys, step):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps([step]))
        code = run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "x1", "--transforms", str(spec)])
        assert code == 2
        assert "impactreg: error" in capsys.readouterr().err

    def test_non_object_transform_step_exit_2(self, data_csv, capsys):
        code = run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "x1", "--transforms", "[1]"])
        assert code == 2
        assert "step 1 must be an object" in capsys.readouterr().err

    def test_string_columns_entry_exit_2(self, data_csv, capsys):
        spec = json.dumps([{"op": "augment_quadratic", "columns": "x1"}])
        code = run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "x1", "--transforms", spec])
        assert code == 2
        err = capsys.readouterr().err
        assert "columns must be a list of strings" in err
        assert "unknown column" not in err

    def test_bad_spec_reported_before_the_data_is_read(self, tmp_path,
                                                       capsys):
        code = run(["analyze", "--data", str(tmp_path / "nope.csv"),
                    "--response", "y", "--focus", "x1",
                    "--transforms", '[{"op": "nope"}]'])
        assert code == 2
        assert "unknown transform op 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where", [
        ("y,x1\n1,2\n3," + "9" * 140_000 + "\n", "line 3, column 1"),
        ('y,"x1\n"\n1,2\n3,oops\n', "line 4, column 2"),
    ], ids=["cell over the csv field limit", "header cell over two lines"])
    def test_csv_error_names_its_physical_line(self, tmp_path, capsys, text,
                                               where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert run(["analyze", "--data", str(path), "--response", "y",
                    "--focus", "x1"]) == 2
        assert f"impactreg: error: {where}" in capsys.readouterr().err

    def test_non_utf8_csv_exit_2(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("y,x\xe9\n1,2\n3,4\n".encode("latin-1"))
        assert run(["analyze", "--data", str(path), "--response", "y",
                    "--focus", "x1"]) == 2

    @pytest.mark.parametrize("exc", [ValueError, KeyError])
    def test_internal_error_is_not_a_data_error(self, data_csv, monkeypatch,
                                                exc):
        # an internal bug must surface with its traceback, not as exit 2
        def broken(*args, **kwargs):
            raise exc("internal")
        monkeypatch.setattr(cli, "mod_r2", broken)
        with pytest.raises(exc):
            run(["analyze", "--data", str(data_csv), "--response", "y",
                 "--focus", "x1"])

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = run(["analyze", "--data", str(tmp_path / "nope.csv"),
                    "--response", "y", "--focus", "x1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_column_exit_2(self, data_csv, capsys):
        code = run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "zzz"])
        assert code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--hierarchy", "--adjust", "x2"],
         "--adjust cannot be combined with --hierarchy"),
        (["--prespecified-order", "x4,x3,x2"],
         "--prespecified-order requires --hierarchy"),
        (["--include-bivariate"], "--include-bivariate requires --hierarchy"),
        (["--adjust", "y"], "--adjust names 'y'"),
        (["--adjust", "x2,x1"], "--adjust names 'x1'"),
        (["--adjust", "x2,x2"], "--adjust names a column twice"),
    ], ids=["adjust-with-hierarchy", "order-without-hierarchy",
            "bivariate-without-hierarchy", "adjust-response", "adjust-focus",
            "adjust-twice"])
    def test_ignored_or_conflicting_flags_exit_2(self, data_csv, capsys,
                                                 flags, message):
        code = run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "x1", *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_flags_checked_before_the_data_is_read(self, tmp_path, capsys):
        code = run(["analyze", "--data", str(tmp_path / "missing.csv"),
                    "--response", "y", "--focus", "x1", "--include-bivariate"])
        assert code == 2
        assert "requires --hierarchy" in capsys.readouterr().err

    def test_collinear_adjustment_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        y = x + rng.standard_normal(50)
        from impactreg.dataset import Dataset
        data = Dataset(("y", "x1", "x2", "x3"),
                       np.column_stack([y, x, x, 2 * x]))
        path = tmp_path / "c.csv"
        write_csv(data, path)
        code = run(["analyze", "--data", str(path), "--response", "y",
                    "--focus", "x1", "--adjust", "x2,x3"])
        assert code == 3
        assert "numerical" in capsys.readouterr().err

    def test_hierarchy_error_names_a_csv_label(self, tmp_path, capsys):
        # c3 = 2 c1: the ordering collapses, and the first step that
        # adjusts for both fails on a rank-deficient design
        rng = np.random.default_rng(0)
        c1, c2, x, e = rng.standard_normal((4, 200))
        from impactreg.dataset import Dataset
        data = Dataset(("y", "x", "c1", "c2", "c3"), np.column_stack(
            [x + c1 + c2 + e, x + c1, c1, c2, 2 * c1]))
        path = tmp_path / "c.csv"
        write_csv(data, path)
        code = run(["analyze", "--data", str(path), "--response", "y",
                    "--focus", "x", "--hierarchy"])
        assert code == 3
        err = capsys.readouterr().err
        assert "rank deficient: column 'c1'" in err \
            or "rank deficient: column 'c3'" in err, err

    @pytest.mark.parametrize("n", [97, 1000])
    def test_constant_candidate_is_reported_as_constant(self, tmp_path,
                                                        capsys, n):
        # a column of 0.1 has a std of 1.4e-17 at these n, not 0
        rng = np.random.default_rng(0)
        x, c1 = rng.standard_normal((2, n))
        from impactreg.dataset import Dataset
        data = Dataset(("y", "x", "c1", "c2"),
                       np.column_stack([x + c1, x, c1, np.full(n, 0.1)]))
        path = tmp_path / "c.csv"
        write_csv(data, path)
        code = run(["analyze", "--data", str(path), "--response", "y",
                    "--focus", "x", "--hierarchy"])
        assert code == 3
        assert "a candidate covariate is constant" in capsys.readouterr().err


class TestSimulate:
    def test_json_report_validates(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(["simulate", "--m", "5", "--k", "4", "--n", "120",
                    "--reps", "20", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, load_schema())
        assert report["config"]["replications"] == 20
        assert "elapsed" not in report

    def test_preset_table1(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(["simulate", "--preset", "table1", "--m", "5",
                    "--n", "100", "--reps", "10", "--seed", "4",
                    "--out", str(out)])
        assert code == 0
        cfg = json.loads(out.read_text())["config"]
        assert cfg["m"] == 5 and cfg["k"] == 4
        assert cfg["beta"] == 1.0 and cfg["theta1"] == 0.0

    def test_preset_table2_overridable(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(["simulate", "--preset", "table2", "--m", "10",
                    "--theta1", "0.5", "--n", "100", "--reps", "10",
                    "--seed", "4", "--out", str(out)])
        assert code == 0
        cfg = json.loads(out.read_text())["config"]
        assert cfg["beta"] == 0.65 and cfg["theta1"] == 0.5

    def test_preset_requires_m(self, capsys):
        assert run(["simulate", "--preset", "table1"]) == 2

    def test_bad_config_exit_2(self, capsys):
        assert run(["simulate", "--m", "1", "--reps", "5"]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 64 + 5)])
    def test_seed_outside_64_bits_exit_2(self, seed, capsys):
        assert run(["simulate", "--m", "5", "--k", "4", "--n", "100",
                    "--reps", "2", "--seed", seed]) == 2
        assert "seed" in capsys.readouterr().err

    def test_non_integer_thread_env_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("IMPACTREG_THREADS", "two")
        assert run(["simulate", "--m", "5", "--k", "4", "--n", "100",
                    "--reps", "2"]) == 2
        assert "IMPACTREG_THREADS" in capsys.readouterr().err

    def test_thread_count_byte_identical(self, tmp_path):
        outs = []
        for threads, name in [(1, "a.json"), (2, "b.json")]:
            out = tmp_path / name
            code = run(["simulate", "--m", "5", "--k", "4", "--n", "120",
                        "--reps", "32", "--seed", "5",
                        "--threads", str(threads), "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag, env", [
        (["--threads", "0"], "1"), (["--threads", "-2"], "1"),
        ([], "0"), ([], "-2"),
    ])
    def test_thread_count_below_one_exit_2(self, flag, env, monkeypatch,
                                           capsys):
        monkeypatch.setenv("IMPACTREG_THREADS", env)
        code = run(["simulate", "--m", "5", "--k", "4", "--n", "100",
                    "--reps", "2", *flag])
        assert code == 2
        assert "threads" in capsys.readouterr().err

    def test_csv_output(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["simulate", "--m", "5", "--k", "4", "--n", "100",
                    "--reps", "5", "--seed", "6", "--format", "csv",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "reject_final_hier" in lines[0]


class TestFigure:
    def test_closed_form_coefficients(self):
        # standard normal, g(x) = x^2: best line is 1 (a constant)
        assert figure_coefficients({"EX": 0.0, "VarX": 1.0, "central3": 0.0},
                                   (0.0, 0.0, 1.0)) == pytest.approx((1.0, 0.0))
        # exp(rate 0.9), g(x) = x + x^2: slope 1 + 4/0.9
        rate = 0.9
        m = {"EX": 1 / rate, "VarX": 1 / rate ** 2,
             "central3": 2 / rate ** 3}
        theta0, theta1 = figure_coefficients(m, (0.0, 1.0, 1.0))
        assert theta1 == pytest.approx(1.0 + 4.0 / 0.9, rel=1e-12)

    def test_figure_csv(self, tmp_path):
        out = tmp_path / "f.csv"
        code = run(["figure", "--dist", "normal:0,1",
                    "--g", "quadratic:0,0,1", "--grid=-2:2:5",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,g,linear_approx,density"
        assert len(lines) == 6
        row = lines[1].split(",")
        assert float(row[0]) == -2.0
        assert float(row[1]) == pytest.approx(4.0)
        assert float(row[2]) == pytest.approx(1.0)  # E[X^2]

    def test_exp_dist_parses(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run(["figure", "--dist", "exp:0.9",
                    "--g", "quadratic:0,1,1", "--grid", "0:5:11",
                    "--out", str(out)]) == 0

    def test_bad_dist_exit_2(self, capsys):
        assert run(["figure", "--dist", "cauchy:1", "--g", "quadratic:0,1,1",
                    "--grid", "0:1:5"]) == 2
        assert run(["figure", "--dist", "normal:0,-1",
                    "--g", "quadratic:0,1,1", "--grid", "0:1:5"]) == 2
        assert run(["figure", "--dist", "normal:0,1", "--g", "cubic:1",
                    "--grid", "0:1:5"]) == 2
        assert run(["figure", "--dist", "normal:0,1",
                    "--g", "quadratic:0,1,1", "--grid", "1:0:5"]) == 2
        for dist, g, grid in [("normal:0,one", "quadratic:0,1,1", "0:1:5"),
                              ("normal:0,1", "quadratic:0,a,1", "0:1:5"),
                              ("normal:0,1", "quadratic:0,1,1", "0:1:2.5")]:
            capsys.readouterr()
            assert run(["figure", "--dist", dist, "--g", g,
                        "--grid", grid]) == 2
            assert "cannot parse" in capsys.readouterr().err


class TestOracleCheck:
    def test_report_validates(self, tmp_path):
        joint = {"support": [[1, -1], [0, 0], [1, 1]],
                 "probs": [1 / 3, 1 / 3, 1 / 3]}
        path = tmp_path / "j.json"
        path.write_text(json.dumps(joint))
        out = tmp_path / "o.json"
        code = run(["oracle-check", "--joint", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, load_schema())
        assert report["mean_impact"] == pytest.approx(np.sqrt(2 / 9))
        assert report["linear_impact"]["0"] == pytest.approx(0.0, abs=1e-12)
        assert report["constrained_sup"] <= report["mean_impact"] + 1e-12
        assert report["constrained_sup"] == pytest.approx(
            report["mean_impact"], abs=1e-3)

    def test_bad_joint_exit_2(self, tmp_path, capsys):
        path = tmp_path / "j.json"
        path.write_text('{"support": [[1, -1]], "probs": [0.5, 0.5]}')
        assert run(["oracle-check", "--joint", str(path)]) == 2
        for text in ['{"support": [[1, -1], [0, 0]]}',
                     '{"support": [[1, -1], [0, "a"]], "probs": [0.5, 0.5]}',
                     '[[1, -1], [0, 0]]']:
            path.write_text(text)
            capsys.readouterr()
            assert run(["oracle-check", "--joint", str(path)]) == 2
            assert "support" in capsys.readouterr().err

    def test_degenerate_joint_exit_3(self, tmp_path, capsys):
        joint = {"support": [[1, 0], [2, 0]], "probs": [0.5, 0.5]}
        path = tmp_path / "j.json"
        path.write_text(json.dumps(joint))
        assert run(["oracle-check", "--joint", str(path)]) == 3


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # scipy.stats, which imports scipy.optimize, costs about as much again
    # as the package import; only the figure subcommand imports it, late
    code = ("import sys, impactreg.cli; print(sorted("
            "{'scipy.stats', 'scipy.optimize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
