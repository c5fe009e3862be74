import hashlib
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from impactreg import SimConfig, generate_dataset, run_study, \
    slope_identity_check
from impactreg import backend, simulate
from impactreg.errors import InvalidConfig, NonFinite
from impactreg.hierarchy import hierarchy_pvalues, order_indices
from impactreg.regression import _focus_test
from impactreg.simulate import TABLE_BETA, generate_arrays


class TestConfigValidation:
    def test_defaults_valid(self):
        SimConfig()

    @pytest.mark.parametrize("kwargs", [
        {"m": 1}, {"k": 0}, {"k": 5, "m": 5}, {"n": 6, "m": 5},
        {"replications": 0}, {"alpha": 0.0}, {"alpha": 1.5},
        {"alpha": "0.05"}, {"alpha": None}, {"alpha": True},
        {"flavor": "HC9"}, {"reference": "cauchy"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            SimConfig(**kwargs)

    def test_alpha_one_is_valid(self):
        # the hierarchy's rule, (0, 1]: alpha = 1 evaluates every step
        assert SimConfig(alpha=1.0).alpha == 1.0

    @pytest.mark.parametrize("name", ["m", "k", "n", "replications"])
    @pytest.mark.parametrize("value", [3.0, np.float64(3.0), "3", True,
                                       None])
    def test_rejects_counts_that_are_not_ints(self, name, value):
        # a float n used to pass the config and fail inside the first
        # replication with NumPy's TypeError
        settings = {"m": 3, "k": 2, "n": 50, "replications": 3}
        settings[name] = value
        with pytest.raises(InvalidConfig, match=f"{name} must be an int"):
            SimConfig(**settings)

    def test_numpy_integer_counts_are_stored_as_ints(self):
        config = SimConfig(m=np.int64(3), k=np.int32(2), n=np.int64(50),
                           replications=np.uint8(3), seed=np.int64(4))
        assert all(type(getattr(config, name)) is int
                   for name in ("m", "k", "n", "replications", "seed"))
        assert run_study(config) == run_study(
            SimConfig(m=3, k=2, n=50, replications=3, seed=4))

    @pytest.mark.parametrize("value", ["no", 0, 1, None, np.bool_(True)])
    def test_rejects_include_bivariate_that_is_not_a_bool(self, value):
        # "no" used to be kept, and the study ran the bivariate step
        with pytest.raises(InvalidConfig, match="include_bivariate"):
            SimConfig(include_bivariate=value)

    @pytest.mark.parametrize("threads", [2.0, "2", True, None])
    def test_rejects_thread_counts_that_are_not_ints(self, threads):
        with pytest.raises(InvalidConfig, match="threads must be an int"):
            run_study(SimConfig(m=3, k=2, n=50, replications=3),
                      threads=threads)

    @pytest.mark.parametrize("name", ["beta", "gamma", "theta1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1"])
    def test_rejects_coefficients_that_are_not_finite(self, name, value):
        # a non-finite coefficient fails every replication on NonFinite;
        # the config says so before the study starts
        with pytest.raises(InvalidConfig, match=name):
            SimConfig(m=3, k=2, n=50, **{name: value})

    @pytest.mark.parametrize("name", ["beta", "gamma", "theta1"])
    @pytest.mark.parametrize("value", [1e308, 1e200, -1e200])
    def test_rejects_coefficients_whose_data_could_overflow(self, name,
                                                            value):
        # the data overflowed, with a RuntimeWarning, and every
        # replication failed on NonFinite
        with pytest.raises(InvalidConfig, match=name):
            SimConfig(m=3, k=2, n=50, **{name: value})

    @pytest.mark.parametrize("n, m, k", [(50, 3, 2), (500, 10, 9)])
    def test_largest_accepted_coefficients_do_not_overflow(self, n, m, k):
        # the bounds of SimConfig's docstring, solved for each coefficient
        z = simulate._MAX_DRAW
        limit = math.sqrt(sys.float_info.max / n)
        y_room = limit - z * m - z * z * (m - 1)
        largest = {"beta": (limit / z - 1.0) / k, "theta1": y_room / z,
                   "gamma": y_room / (k * (k - 1) // 2 * z * z)}
        for name, value in largest.items():
            with pytest.raises(InvalidConfig, match=name):
                SimConfig(m=m, k=k, n=n, **{name: value * (1 + 1e-9)})
            config = SimConfig(m=m, k=k, n=n, **{name: value})
            # replications may fail, on rank or an exact fit, but no
            # computation overflows
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for i in range(4):
                    simulate._replicate(config, i)

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


def fresh_arrays(config, index):
    """``generate_arrays`` from a newly built generator, X a new array."""
    rng = np.random.Generator(np.random.Philox(
        key=config.seed << 64 | index))
    n, m, k = config.n, config.m, config.k
    z = rng.standard_normal((n, m + 1))
    xt1, xj, eps = z[:, 0], z[:, 1:m], z[:, m]
    x1 = xt1 + config.beta * xj[:, :k].sum(axis=1)
    y = config.theta1 * xt1 + xj.sum(axis=1) + (xj ** 2).sum(axis=1) + eps
    if config.gamma != 0.0 and k >= 2:
        inter = np.zeros(n)
        for a in range(k):
            for b in range(a + 1, k):
                inter += xj[:, a] * xj[:, b]
        y = y + config.gamma * inter
    return y, np.column_stack([x1, xj])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStreams:
    SEEDS = (0, 1, 2 ** 64 - 1)
    INDICES = (0, 1, 2 ** 63, 2 ** 64 - 1)

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1", None, -1,
                                       2 ** 64, np.int64(-1),
                                       np.float64(1.0), np.bool_(True)])
    def test_replay_index_is_a_64_bit_int(self, index):
        # 1.5 and True replayed replication 1, and -1 stream 2**64 - 1
        config = SimConfig(m=5, n=50, replications=3, seed=1)
        with pytest.raises(InvalidConfig, match="replication_index"):
            generate_arrays(config, index)
        want = generate_arrays(config, 1)
        for index in (np.int64(1), np.uint8(1)):
            got = generate_arrays(config, index)
            assert all(same_bits(g, w) for g, w in zip(got, want))

    @staticmethod
    def draws(rng):
        return (rng.standard_normal((7, 3)), rng.random(5),
                rng.integers(0, 2 ** 32, 3, dtype=np.uint32),
                rng.bit_generator.random_raw(9))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("index", INDICES)
    def test_rng_draws_the_stream_of_its_key(self, seed, index):
        want = self.draws(np.random.Generator(np.random.Philox(
            key=seed << 64 | index)))
        # leave the reused generator mid-buffer, with a spare 32-bit half
        simulate._rng(5, 9).integers(0, 2 ** 32, 3, dtype=np.uint32)
        for _ in range(2):
            got = self.draws(simulate._rng(seed, index))
            assert all(same_bits(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("config", [
        SimConfig(m=10, k=9, beta=0.65, theta1=0.4, n=50, seed=3),
        SimConfig(m=5, k=2, beta=1.0, gamma=0.7, theta1=0.2, n=40,
                  seed=2 ** 64 - 1),
        SimConfig(m=2, k=1, n=30, seed=0),
    ], ids=["table2", "gamma", "m2"])
    def test_arrays_keep_the_bits_of_a_fresh_generator(self, config):
        for index in (0, 1, 2 ** 63):
            y, X = generate_arrays(config, index)
            want_y, want_X = fresh_arrays(config, index)
            assert same_bits(y, want_y) and same_bits(X, want_X)
            # X is the draw buffer itself, not a copy of it
            assert not X.flags.owndata

    def test_threads_draw_the_serial_arrays(self):
        config = SimConfig(m=10, k=9, beta=0.65, n=200, seed=4)
        indices = list(range(300))
        want = {i: generate_arrays(config, i) for i in indices}
        orders = [indices, indices[::-1], indices[::2] + indices[1::2],
                  indices[1::2] + indices[::2]]
        start = threading.Barrier(len(orders), timeout=60)

        def draw(order):
            start.wait()
            return [(i, generate_arrays(config, i)) for i in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often, so draws interleave
        try:
            with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                runs = [f.result(timeout=60)
                        for f in [pool.submit(draw, o) for o in orders]]
        finally:
            sys.setswitchinterval(interval)
        for order, run in zip(orders, runs):
            assert [i for i, _ in run] == order
            for i, (y, X) in run:
                assert same_bits(y, want[i][0]) and same_bits(X, want[i][1])


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

    def test_type1_none_under_alternative(self):
        cfg = SimConfig(m=5, k=4, theta1=0.4, n=120, replications=50, seed=9)
        rep = run_study(cfg)
        assert rep.type1_hierarchical is None
        assert rep.type1_full is None

    def test_thread_count_does_not_change_results(self):
        cfg = SimConfig(m=5, k=4, n=120, replications=64, seed=10)
        serial = run_study(cfg, threads=1)
        parallel = run_study(cfg, threads=4)
        assert serial.as_dict() == parallel.as_dict()

    def test_rerun_is_bit_identical(self):
        cfg = SimConfig(m=5, k=4, n=120, replications=32, seed=11)
        a = run_study(cfg).as_dict()
        b = run_study(cfg).as_dict()
        assert a == b

    def test_elapsed_excluded_from_serialized_form(self):
        cfg = SimConfig(n=50, replications=4, seed=12)
        d = run_study(cfg).as_dict()
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

    def test_all_failed_replications_raise(self, monkeypatch):
        # a constant candidate fails every replication's ordering with a
        # counted DegenerateCovariate; a study with none left raises
        def constant_candidate(config, replication_index):
            y, X = generate_arrays(config, replication_index)
            X[:, 1] = 1.0
            return y, X

        monkeypatch.setattr(simulate, "generate_arrays", constant_candidate)
        with pytest.raises(InvalidConfig, match="all replications failed"):
            run_study(SimConfig(n=50, replications=3, seed=15), threads=1)

    @pytest.mark.parametrize("config, digest", [
        ({"flavor": "HC0"}, "147d02ba8594781f551fae9f3df3f140"
                            "1d9b567cb478658fbcaffde4ac3fb1b6"),
        ({"flavor": "HC1"}, "a34f044fd19f8584089cf5bbf9eed241"
                            "a5413c4814588fd512db1e7a56356283"),
        ({"include_bivariate": True}, "608ec132f5e9b3b612a2f2fd78684438"
                                      "0e102438b6341962c4da4b6e669fea47"),
        # Table 1 at m=5
        ({"m": 5, "k": 4, "beta": TABLE_BETA[5], "theta1": 0.0},
         "c0ec73d41364564da848260b1180cf0265836011072970b68d88555c81112d71"),
        # the longest loops: 48 ordering passes and steps up to p = 51
        ({"m": 50, "k": 49, "beta": TABLE_BETA[50], "replications": 5},
         "c68089110d26e3171509712fb259768719abb536a700bf455d482caf5aa0af2b"),
    ], ids=["HC0", "HC1", "bivariate", "table1-m5", "m50"])
    def test_replications_keep_their_recorded_bits(self, config, digest,
                                                   monkeypatch):
        # a report holds means of 0/1 outcomes, which a change of the data
        # that keeps each replication's decisions leaves alone; this
        # digest reads each replication's ordering, step p-values and
        # full-model p-value, bit for bit
        record = hashlib.sha256()

        def ordering(*args):
            perm = order_indices(*args)
            record.update(f"{perm};".encode())
            return perm

        def steps(*args, **kwargs):
            pvalues, rejected = hierarchy_pvalues(*args, **kwargs)
            text = " ".join("None" if p is None else p.hex()
                            for p in pvalues)
            record.update(f"{text};".encode())
            return pvalues, rejected

        def full_model(*args):
            test = _focus_test(*args)
            record.update(f"{test.p_value.hex()};".encode())
            return test

        monkeypatch.setattr(simulate, "order_indices", ordering)
        monkeypatch.setattr(simulate, "hierarchy_pvalues", steps)
        monkeypatch.setattr(simulate, "_focus_test", full_model)
        settings = {"m": 10, "k": 9, "beta": TABLE_BETA[10], "theta1": 0.4,
                    "n": 500, "replications": 100, "seed": 7}
        settings.update(config)
        run_study(SimConfig(**settings))
        assert record.hexdigest() == digest

    def test_table_beta_presets(self):
        assert TABLE_BETA == {5: 1.00, 8: 0.75, 10: 0.65, 20: 0.45, 50: 0.30}


class TestSlopeIdentity:
    def test_unknown_model(self):
        with pytest.raises(InvalidConfig):
            slope_identity_check("nope", {}, n=100, seed=0)

    @pytest.mark.parametrize("params", [{"theta1": math.nan},
                                        {"b0": math.inf}])
    def test_non_finite_parameter(self, params):
        with pytest.raises(NonFinite):
            slope_identity_check("semi_linear", params, n=100, seed=0)

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
