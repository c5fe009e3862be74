import math

import numpy as np
import pytest

from impactreg import SimConfig, generate_dataset, run_study, \
    slope_identity_check
from impactreg import backend, simulate
from impactreg.errors import InvalidConfig
from impactreg.simulate import TABLE_BETA, generate_arrays


class TestConfigValidation:
    def test_defaults_valid(self):
        SimConfig()

    @pytest.mark.parametrize("kwargs", [
        {"m": 1}, {"k": 0}, {"k": 5, "m": 5}, {"n": 6, "m": 5},
        {"replications": 0}, {"alpha": 0.0}, {"alpha": 1.0},
        {"flavor": "HC9"}, {"reference": "cauchy"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            SimConfig(**kwargs)

    def test_large_replication_counts_accepted(self):
        SimConfig(replications=100_000)  # full-scale runs are configurable

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5, -2 ** 64,
                                      1.0, "5", True, None, np.int64(-1),
                                      np.float64(5.0), np.bool_(True)])
    def test_rejects_seeds_that_are_not_64_bit_ints(self, seed):
        # masked to 64 bits, -1 would run the study of 2**64 - 1 and
        # 2**64 + 5 that of 5, under a different recorded seed
        with pytest.raises(InvalidConfig, match="seed"):
            SimConfig(seed=seed)
        with pytest.raises(InvalidConfig, match="seed"):
            slope_identity_check("semi_linear", n=10, seed=seed)

    def test_accepts_the_whole_64_bit_range(self):
        for seed in (0, 2 ** 63, 2 ** 64 - 1):
            y, X = generate_arrays(SimConfig(n=20, seed=seed), 0)
            assert np.isfinite(y).all() and np.isfinite(X).all()
        # NumPy integers are the same seeds, recorded as ints
        want = generate_arrays(SimConfig(n=20, seed=7), 0)[0]
        for seed in (np.int64(7), np.uint64(7), np.int8(7)):
            config = SimConfig(n=20, seed=seed)
            assert type(config.seed) is int and config.seed == 7
            assert np.array_equal(generate_arrays(config, 0)[0], want)
            assert slope_identity_check("semi_linear", n=10, seed=seed) == \
                slope_identity_check("semi_linear", n=10, seed=7)
        assert SimConfig(seed=np.uint64(2 ** 64 - 1)).seed == 2 ** 64 - 1
        assert not np.array_equal(
            generate_arrays(SimConfig(n=20, seed=2 ** 64 - 1), 0)[0],
            generate_arrays(SimConfig(n=20, seed=0), 0)[0])


class TestGenerator:
    def test_shapes_and_names(self):
        cfg = SimConfig(m=5, k=4, n=100)
        data = generate_dataset(cfg, 0)
        assert data.column_names == ("y", "x1", "x2", "x3", "x4", "x5")
        assert data.values.shape == (100, 6)

    def test_focus_variance_without_confounding(self):
        # beta = 0: Var(X_1) = 1
        cfg = SimConfig(m=5, k=4, beta=0.0, n=100_000, seed=3)
        _, X = generate_arrays(cfg, 0)
        assert X[:, 0].var() == pytest.approx(1.0, abs=0.02)

    def test_focus_variance_and_r2_with_confounding(self):
        # m=5, k=4, beta=1: Var(X_1) = 1 + k beta^2 = 5, R^2_x = 0.8
        cfg = SimConfig(m=5, k=4, beta=1.0, n=100_000, seed=4)
        _, X = generate_arrays(cfg, 0)
        assert X[:, 0].var() == pytest.approx(5.0, rel=0.03)
        conf = X[:, 1:5]
        coef, *_ = np.linalg.lstsq(
            np.column_stack([np.ones(len(X)), conf]), X[:, 0], rcond=None)
        fitted = np.column_stack([np.ones(len(X)), conf]) @ coef
        r2 = fitted.var() / X[:, 0].var()
        assert r2 == pytest.approx(0.8, abs=0.01)

    def test_response_mean(self):
        # E(Y) = sum_j E(X_j^2) = m - 1 under theta1 = 0, gamma = 0
        cfg = SimConfig(m=5, k=4, n=100_000, seed=5)
        y, _ = generate_arrays(cfg, 0)
        assert y.mean() == pytest.approx(4.0, abs=0.05)

    def test_gamma_changes_response_only_with_two_confounders(self):
        base = SimConfig(m=5, k=4, gamma=0.0, n=50, seed=6)
        bumped = SimConfig(m=5, k=4, gamma=2.0, n=50, seed=6)
        y0, X0 = generate_arrays(base, 0)
        y1, X1 = generate_arrays(bumped, 0)
        np.testing.assert_array_equal(X0, X1)
        assert not np.allclose(y0, y1)

    def test_replications_are_distinct_deterministic_streams(self):
        cfg = SimConfig(n=50, seed=7)
        y0, _ = generate_arrays(cfg, 0)
        y1, _ = generate_arrays(cfg, 1)
        y0_again, _ = generate_arrays(cfg, 0)
        assert not np.allclose(y0, y1)
        np.testing.assert_array_equal(y0, y0_again)

    def test_seed_changes_streams(self):
        y_a, _ = generate_arrays(SimConfig(n=50, seed=1), 0)
        y_b, _ = generate_arrays(SimConfig(n=50, seed=2), 0)
        assert not np.allclose(y_a, y_b)


class TestRunStudy:
    def test_report_invariants(self):
        cfg = SimConfig(m=5, k=4, n=120, replications=200, seed=8)
        rep = run_study(cfg)
        assert rep.failed_replications == 0
        assert 0.0 <= rep.type1_hierarchical <= 1.0
        assert 0.0 <= rep.type1_full <= 1.0
        assert 0.0 <= rep.mean_confounders_hier <= cfg.m - 1
        assert rep.mean_confounders_full == pytest.approx(
            (cfg.m - 1) * rep.reject_final_full, rel=1e-12)
        n_ok = cfg.replications - rep.failed_replications
        p = rep.reject_final_hier
        assert rep.mc_stderr_reject_hier == pytest.approx(
            math.sqrt(p * (1 - p) / n_ok), rel=1e-12)
        assert rep.elapsed > 0.0

    def test_type1_none_under_alternative(self):
        cfg = SimConfig(m=5, k=4, theta1=0.4, n=120, replications=50, seed=9)
        rep = run_study(cfg)
        assert rep.type1_hierarchical is None
        assert rep.type1_full is None

    def test_thread_count_does_not_change_results(self):
        cfg = SimConfig(m=5, k=4, n=120, replications=64, seed=10)
        serial = run_study(cfg, threads=1)
        parallel = run_study(cfg, threads=4)
        assert serial.as_dict(include_elapsed=False) == \
            parallel.as_dict(include_elapsed=False)

    def test_rerun_is_bit_identical(self):
        cfg = SimConfig(m=5, k=4, n=120, replications=32, seed=11)
        a = run_study(cfg).as_dict(include_elapsed=False)
        b = run_study(cfg).as_dict(include_elapsed=False)
        assert a == b

    def test_elapsed_excluded_from_serialized_form(self):
        cfg = SimConfig(n=50, replications=4, seed=12)
        d = run_study(cfg).as_dict(include_elapsed=False)
        assert "elapsed" not in d
        assert "config" in d

    def test_strong_signal_always_detected(self):
        cfg = SimConfig(m=5, k=4, theta1=5.0, n=500, replications=40,
                        seed=13)
        rep = run_study(cfg)
        assert rep.reject_final_hier > 0.9
        assert rep.mean_confounders_hier > 3.5

    def test_serial_study_sets_the_blas_threads_once(self, monkeypatch):
        # stand-ins for two loaded OpenBLAS libraries at four threads
        calls = []

        def setter(name):
            count = [4]

            def set_threads(threads):
                calls.append((name, threads))
                previous, count[0] = count[0], threads
                return previous
            return set_threads

        setters = (setter("a"), setter("b"))
        monkeypatch.setattr(backend, "_openblas_setters", lambda: setters)
        run_study(SimConfig(m=5, k=4, n=120, replications=8, seed=16))
        # one save at the start of the study and one restore at its end,
        # not one pair per fit
        assert calls == [("a", 1), ("b", 1), ("a", 4), ("b", 4)]

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_thread_count_below_one(self, threads):
        with pytest.raises(InvalidConfig):
            run_study(SimConfig(n=50, replications=2, seed=14),
                      threads=threads)

    def test_unexpected_error_is_raised_not_counted(self, monkeypatch):
        def broken(config, replication_index):
            raise TypeError("bug in the generator")

        monkeypatch.setattr(simulate, "generate_arrays", broken)
        with pytest.raises(TypeError):
            run_study(SimConfig(n=50, replications=2, seed=15), threads=1)

    def test_table_beta_presets(self):
        assert TABLE_BETA == {5: 1.00, 8: 0.75, 10: 0.65, 20: 0.45, 50: 0.30}


class TestSlopeIdentity:
    def test_unknown_model(self):
        with pytest.raises(InvalidConfig):
            slope_identity_check("nope", {}, n=100, seed=0)

    def test_semi_linear_small(self):
        out = slope_identity_check("semi_linear", {"theta1": 2.0}, n=50_000,
                                   seed=1)
        assert out.target == 2.0
        assert abs(out.estimate - out.target) < 3 * out.std_error

    def test_interaction_target_formula(self):
        out = slope_identity_check("interaction",
                                   {"theta1": 1.0, "theta2": 0.5}, n=10_000,
                                   seed=2)
        assert out.target == pytest.approx(1.5)

    def test_semi_quadratic_target_uses_mean(self):
        out = slope_identity_check("semi_quadratic",
                                   {"theta1": 1.0, "theta2": 1.0, "b0": 0.5},
                                   n=10_000, seed=3)
        assert out.target == pytest.approx(2.0)  # theta1 + 2 theta2 E(X_1)
