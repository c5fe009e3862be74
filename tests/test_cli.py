import csv
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from importlib import resources

import jsonschema
import numpy as np
import pytest

from impactreg import (DiscreteJoint, cli, coefficient_test, errors,
                       fit_ols, order_covariates, population_theta, simulate,
                       write_csv)
from impactreg.cli import figure_coefficients, main
from impactreg.regression import two_sided_pvalue
from impactreg.simulate import SimConfig, generate_arrays, generate_dataset

from conftest import shifted_support


def load_schema():
    with resources.files("impactreg").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


@pytest.fixture
def data_csv(tmp_path):
    data = generate_dataset(SimConfig(m=4, k=3, n=300, seed=1), 0)
    path = tmp_path / "data.csv"
    write_csv(data, path)
    return path


NAN, INF = float("nan"), float("inf")


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

    @pytest.mark.parametrize("bivariate", [[], ["--include-bivariate"]],
                             ids=["steps", "bivariate"])
    @pytest.mark.parametrize("alpha", ["0.05", "0.999", "1"])
    def test_csv_hierarchy_rows_are_the_json_steps(self, tmp_path, bivariate,
                                                   alpha):
        # one row per step, named by the covariate the step adds (none for
        # the bivariate step); at alpha 0.05 the steps stop after 'a'
        rng = np.random.default_rng(11)
        a, b, c, e1, e2 = rng.standard_normal((5, 300))
        from impactreg.dataset import Dataset
        path = tmp_path / "d.csv"
        write_csv(Dataset(("y", "x1", "a", "b", "c"),
                          np.column_stack([a + e2, a + 2 * b + e1, a, b, c])),
                  path)
        argv = ["analyze", "--data", str(path), "--response", "y",
                "--focus", "x1", "--hierarchy", "--alpha", alpha, *bivariate]
        assert run([*argv, "--out", str(tmp_path / "r.json")]) == 0
        assert run([*argv, "--format", "csv",
                    "--out", str(tmp_path / "r.csv")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        jsonschema.validate(report, load_schema())
        steps = report["hierarchy"]
        rows = [line.split(",") for line
                in (tmp_path / "r.csv").read_text().splitlines()
                if line.startswith("hierarchy_step")]
        assert [r[3] for r in rows] == \
            [""] * len(bivariate) + steps["ordering"]
        assert [r[6] for r in rows] == \
            ["" if p is None else format(p, ".17g")
             for p in steps["step_pvalues"]]
        assert (None in steps["step_pvalues"]) == (alpha == "0.05")

    def test_csv_quotes_labels(self, tmp_path):
        # a label with a comma used to split its row into one field more
        # than the header's
        rng = np.random.default_rng(12)
        a, b, e1, e2 = rng.standard_normal((4, 300))
        from impactreg.dataset import Dataset
        path = tmp_path / "d.csv"
        write_csv(Dataset(("y", "x1", "a,b", 'say "c"'),
                          np.column_stack([a + e2, a + 2 * b + e1, a, b])),
                  path)
        argv = ["analyze", "--data", str(path), "--response", "y",
                "--focus", "x1", "--hierarchy", "--alpha", "0.999"]
        assert run([*argv, "--out", str(tmp_path / "r.json")]) == 0
        assert run([*argv, "--format", "csv",
                    "--out", str(tmp_path / "r.csv")]) == 0
        steps = json.loads((tmp_path / "r.json").read_text())["hierarchy"]
        rows = list(csv.reader(io.StringIO((tmp_path / "r.csv").read_text())))
        assert {len(row) for row in rows} == {7}
        assert [r[3] for r in rows if r[0] == "hierarchy_step"] == \
            steps["ordering"]

    def test_report_to_stdout_by_default(self, data_csv, capsys):
        assert run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "x1"]) == 0
        jsonschema.validate(json.loads(capsys.readouterr().out),
                            load_schema())

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

    @pytest.mark.parametrize("spec", ['{"op": "log", "column": "x2"}',
                                      '{"setps": []}'])
    def test_spec_object_without_the_steps_key_exit_2(self, data_csv, capsys,
                                                      spec):
        # it used to run with no transforms and exit 0
        code = run(["analyze", "--data", str(data_csv), "--response", "y",
                    "--focus", "x1", "--transforms", spec])
        assert code == 2
        assert 'the one key "steps"' in capsys.readouterr().err

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

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0", "-1",
                                       "1.5"])
    @pytest.mark.parametrize("hierarchy", [[], ["--hierarchy"]],
                             ids=["estimates", "hierarchy"])
    def test_alpha_outside_the_unit_interval_exit_2(self, tmp_path, capsys,
                                                    alpha, hierarchy):
        # checked with the other flags, before the data file is read
        code = run(["analyze", "--data", str(tmp_path / "missing.csv"),
                    "--response", "y", "--focus", "x1", f"--alpha={alpha}",
                    *hierarchy])
        assert code == 2
        assert "--alpha must be in (0, 1]" in capsys.readouterr().err

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

    def test_working_set_of_a_hierarchy_with_transforms(self, tmp_path):
        # the request holds the table and one buffer at every stage: the
        # parsed rows and their column-major copy, the input and the
        # transforms' working copy, then the ordering's buffer and the
        # steps' design, which the kernel factors in place (2.2x measured)
        rows = 20_000
        rng = np.random.default_rng(17)
        c = rng.standard_normal((rows, 10))
        c[:, 8] = np.exp(0.5 * c[:, 8])
        x1 = rng.standard_normal(rows) + 0.5 * c[:, :3].sum(axis=1)
        y = x1 + c[:, :5].sum(axis=1) + rng.standard_normal(rows)
        values = np.column_stack([y, x1, c])
        path = tmp_path / "t.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(["y", "x1", *(f"c{j}" for j in range(1, 11))])
                     + "\n")
            np.savetxt(fh, values, fmt="%.17g", delimiter=",")
        spec = [{"op": "exclude_rows", "column": "c10", "comparator": ">",
                 "threshold": 2.5},
                {"op": "log", "column": "c9"},
                {"op": "standardize", "column": "x1"}]
        argv = ["analyze", "--data", str(path), "--response", "y",
                "--focus", "x1", "--hierarchy", "--transforms",
                json.dumps(spec), "--out", str(tmp_path / "r.json")]
        assert run(argv) == 0  # caches and lazy imports filled first
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= 2.5 * values.nbytes, peak / values.nbytes


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

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "nan"), ("--beta", "inf"), ("--gamma", "inf"),
        ("--gamma", "-inf"), ("--theta1", "nan"), ("--theta1", "-inf"),
        ("--beta", "1e308"), ("--beta", "1e200"), ("--gamma", "1e200"),
        ("--theta1", "-1e200"),
    ])
    def test_non_finite_coefficient_exit_2_before_any_replication(
            self, flag, value, monkeypatch, capsys):
        # without the check, each replication failed on NonFinite (after
        # an overflow, for the finite ones) and the study exited 2 only
        # at its end
        drawn = []

        def generate(config, replication_index):
            drawn.append(replication_index)
            return generate_arrays(config, replication_index)

        monkeypatch.setattr(simulate, "generate_arrays", generate)
        assert run(["simulate", "--m", "3", "--k", "2", "--n", "50",
                    "--reps", "3", f"{flag}={value}"]) == 2
        assert drawn == []
        assert flag[2:] in capsys.readouterr().err

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

    # sha256 of the reports, recorded when X was still a copy of the
    # draws and every kernel call went through the k-row loop; a change
    # that moves them changes the published tables
    @pytest.mark.parametrize("preset, m, flavor, digest", [
        ("table1", "5", "HC0", "af346c8c8b3172a7fc83a14751fea20a"
                               "9e851626a92192e8b7c49c413abc1a01"),
        ("table1", "5", "HC1", "b07605d7ab9e92266dfe023c06909eae"
                               "b2b2f35ec9cdff92de15957392538f72"),
        ("table2", "10", "HC0", "dc2a151f744d4c853622ca3ecb960e53"
                                "398ce9644613604f4abce5f5605df209"),
        ("table2", "10", "HC1", "397e121ded45cc658d04bcd8f1ba16ca"
                                "b2104d5e8f24fe3f388f584f792c3281"),
    ])
    def test_reports_keep_their_recorded_bytes(self, preset, m, flavor,
                                               digest, tmp_path):
        out = tmp_path / "s.json"
        code = run(["simulate", "--preset", preset, "--m", m, "--n", "500",
                    "--reps", "300", "--seed", "7", "--flavor", flavor,
                    "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("joint", [
        {"support": [[1, -1], [0, 0], [1, 1]], "probs": [NAN, 0.5, 0.5]},
        {"support": [[1, -1], [0, NAN], [1, 1]], "probs": [1 / 3] * 3},
        {"support": [[1, -1], [0, 0], [INF, 1]], "probs": [1 / 3] * 3},
    ], ids=["nan-prob", "nan-support", "inf-support"])
    def test_non_finite_joint_exit_2(self, tmp_path, capsys, joint):
        path = tmp_path / "j.json"
        path.write_text(json.dumps(joint))
        assert run(["oracle-check", "--joint", str(path)]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_shifted_joint(self, tmp_path):
        # x1 = 1e4 + N(0, 1): the normal equations found it singular (3)
        joint = {"support": shifted_support().tolist(), "probs": [1 / 8] * 8}
        path = tmp_path / "j.json"
        path.write_text(json.dumps(joint))
        out = tmp_path / "o.json"
        assert run(["oracle-check", "--joint", str(path), "--out",
                    str(out)]) == 0
        report = json.loads(out.read_text())
        jsonschema.validate(report, load_schema())
        # the slopes do not see the shift (x1 - 1e4 is exact)
        support = shifted_support()
        support[:, 1] -= 1e4
        want = population_theta(DiscreteJoint(support, np.full(8, 1 / 8)))
        assert report["theta"][1:] == pytest.approx(want[1:], rel=1e-9)

    def test_degenerate_joint_exit_3(self, tmp_path, capsys):
        joint = {"support": [[1, 0], [2, 0]], "probs": [0.5, 0.5]}
        path = tmp_path / "j.json"
        path.write_text(json.dumps(joint))
        assert run(["oracle-check", "--joint", str(path)]) == 3


def test_import_leaves_lazy_imports_unloaded():
    # scipy.stats, which imports scipy.optimize, costs about as much again
    # as the package import; only the figure subcommand imports it, late.
    # orjson is imported by the first CSV read
    code = ("import sys, impactreg.cli; print(sorted("
            "{'scipy.stats', 'scipy.optimize', 'orjson'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _transforms(*steps):
    return ["--transforms", json.dumps(list(steps))]


@pytest.mark.parametrize("argv, code, message", [
    (["simulate", "--preset", "table2", "--m", "7"], 2,
     "no preset beta for m=7"),
    (["figure", "--dist", "exp:1,2", "--g", "quadratic:0,1,1",
      "--grid", "0:1:5"], 2, "exponential distribution needs a positive rate"),
    (["figure", "--dist", "normal:0,1", "--g", "quadratic:0,1",
      "--grid", "0:1:5"], 2, "needs three coefficients"),
    (["figure", "--dist", "normal:0,1", "--g", "quadratic:0,1,1",
      "--grid", "0:1"], 2, "cannot parse grid '0:1'"),
    (_transforms({"op": "exclude_rows", "column": "x2", "comparator": "~",
                  "threshold": 0}), 2, "unknown comparator '~'"),
    (_transforms({"op": "exclude_rows", "column": "x2", "comparator": ">",
                  "threshold": "inf"}), 2, "threshold must be finite"),
    (_transforms({"op": "log", "column": "x2", "offset": -1}), 2,
     "log offset must be finite and >= 0"),
    (_transforms({"op": "dichotomize", "column": "x2", "rule": "by_median",
                  "value": 0}), 2, "unknown dichotomize rule 'by_median'"),
    (_transforms({"op": "augment_quadratic", "columns": ["x2", "zz"]}), 2,
     "unknown column 'zz'"),
    (_transforms({"op": "dichotomize", "column": "x1", "value": 1e9}), 3,
     "numerical error"),
], ids=["preset-without-beta", "exp-two-rates", "quadratic-two-coefs",
        "grid-without-steps", "unknown-comparator", "infinite-threshold",
        "negative-log-offset", "unknown-dichotomize-rule",
        "unknown-columns-entry", "constant-focus"])
def test_error_branch_exit_code(data_csv, capsys, argv, code, message):
    if argv[0] == "--transforms":
        argv = ["analyze", "--data", str(data_csv), "--response", "y",
                "--focus", "x1", *argv]
    assert run(argv) == code
    assert message in capsys.readouterr().err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


EXIT_CODES = {
    errors.ImpactregError: 2, errors.DimensionMismatch: 2,
    errors.UnknownColumn: 2, errors.OutOfRange: 2, errors.InvalidConfig: 2,
    errors.ParseError: 2, errors.MissingValue: 2, errors.SchemaMismatch: 2,
    errors.NonPositiveLogInput: 2, errors.EmptyAfterExclusion: 2,
    errors.NumericalError: 3, errors.NonFinite: 3, errors.RankDeficient: 3,
    errors.ZeroStdError: 3, errors.InvariantViolation: 3,
    errors.DegenerateCovariate: 3, errors.EmptySupport: 3,
    errors.SingularMoments: 3,
}


def test_every_error_class_has_an_exit_code():
    assert set(_subclasses(errors.ImpactregError)) \
        | {errors.ImpactregError} == set(EXIT_CODES)


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda c: c.__name__)
def test_error_class_exit_code(monkeypatch, capsys, cls):
    def fail(args):
        # built without __init__: the classes take different arguments
        raise cls.__new__(cls)
    monkeypatch.setattr(cli, "_cmd_figure", fail)
    assert run(["figure", "--dist", "-", "--g", "-", "--grid", "-"]) \
        == EXIT_CODES[cls]
    prefix = "numerical error" if EXIT_CODES[cls] == 3 else "error"
    assert capsys.readouterr().err.startswith(f"impactreg: {prefix}:")


def _design(n=20):
    rng = np.random.default_rng(2)
    return rng.standard_normal(n), np.column_stack(
        [np.ones(n), rng.standard_normal(n)])


@pytest.mark.parametrize("call, raised, code", [
    (lambda: fit_ols(*_design(), flavor="HC2"), errors.InvalidConfig, 2),
    (lambda: fit_ols(*_design(), column_names=("intercept",)),
     errors.DimensionMismatch, 2),
    (lambda: coefficient_test(fit_ols(*_design()), 2),
     errors.DimensionMismatch, 2),
    (lambda: coefficient_test(fit_ols(*_design()), -1),
     errors.DimensionMismatch, 2),
    (lambda: two_sided_pvalue(1.0, 10, reference="cauchy"),
     errors.InvalidConfig, 2),
    (lambda: order_covariates(
        "x1", [], generate_dataset(SimConfig(m=3, k=2, n=20), 0)),
     errors.InvalidConfig, 2),
    (lambda: fit_ols(_design()[0], np.zeros((20, 2))),
     errors.RankDeficient, 3),
], ids=["unknown-flavor", "wrong-length-names", "index-past-the-end",
        "negative-index", "unknown-reference", "no-candidates",
        "all-zero-design"])
def test_library_error_branch_exit_code(call, raised, code):
    # branches the command line cannot reach, and the exit code their
    # class gives
    with pytest.raises(raised) as info:
        call()
    assert EXIT_CODES[type(info.value)] == code
