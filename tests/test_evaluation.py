import numpy as np
import pytest

from wavekernel import (
    ConfigError,
    InsufficientHistoryError,
    InvalidInputError,
    KernelSpec,
    gen_synthetic,
    naive_seasonal,
    rmae,
    rolling_eval,
)
from wavekernel.evaluation import split_segments, summarize, wk_method


class TestRmae:
    def test_identity(self):
        t = np.array([1.0, 2.0, 3.0])
        assert rmae(t, t) == 0.0

    def test_uniform_relative_error(self):
        t = np.array([1.0, 2.0, 4.0])
        assert rmae(1.1 * t, t) == pytest.approx(0.10)
        # blocks of one point score each point on its own
        np.testing.assert_allclose(rmae(1.1 * t[:, None], t[:, None]), 0.10)

    def test_rmae_is_mean_of_per_point(self):
        rng = np.random.default_rng(0)
        t = rng.uniform(1, 2, size=10)
        p = t + rng.normal(size=10) * 0.1
        per_point = rmae(p[:, None], t[:, None])
        assert per_point.shape == (10,)
        assert rmae(p, t) == pytest.approx(per_point.mean())

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(1, 2, size=10)
        p = t + 0.05
        for c in (-3.0, 0.5, 100.0):
            assert rmae(c * p, c * t) == pytest.approx(rmae(p, t))

    def test_zero_truth_names_index(self):
        with pytest.raises(InvalidInputError, match="index 1"):
            rmae([1.0, 1.0], [1.0, 0.0])

    def test_zero_floor_opt_in(self):
        assert np.isfinite(rmae([1.0, 1.0], [1.0, 0.0], zero_floor=0.5))

    # a floor of 0 or NaN divides by the zero truth value; inf scores 0
    @pytest.mark.parametrize("floor", [0.0, -1.0, float("nan"), float("inf")])
    def test_zero_floor_must_be_positive_and_finite(self, floor):
        with pytest.raises(ConfigError, match="zero_floor"):
            rmae([1.0, 1.0], [1.0, 0.0], zero_floor=floor)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            rmae([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("shape", [(), (0,), (3, 0)])
    def test_blocks_without_points_rejected(self, shape):
        with pytest.raises(ConfigError):
            rmae(np.ones(shape), np.ones(shape))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("P", [1, 7, 24, 96, 130, 300])
    def test_stack_equals_per_block_bit_for_bit(self, P, seed):
        rng = np.random.default_rng(seed)
        truth = rng.uniform(0.5, 2.0, size=(40, P)) * rng.choice([-1.0, 1.0], (40, P))
        pred = truth + rng.normal(size=(40, P))
        scores = rmae(pred, truth)
        assert scores.shape == (40,)
        assert scores.tolist() == [rmae(p, t) for p, t in zip(pred, truth)]
        # more leading axes keep one score per block
        stacked = rmae(pred.reshape(4, 10, P), truth.reshape(4, 10, P))
        assert stacked.tolist() == scores.reshape(4, 10).tolist()

    def test_zero_truth_in_stack_names_block_and_index(self):
        truth = np.ones((4, 6))
        truth[2, 5] = 0.0
        with pytest.raises(InvalidInputError, match="block 2, index 5"):
            rmae(np.ones((4, 6)), truth)
        with pytest.raises(InvalidInputError, match=r"block \(1, 0\), index 5"):
            rmae(np.ones((2, 2, 6)), truth.reshape(2, 2, 6))


class TestSplitSegments:
    def test_exact_multiple(self):
        segs = split_segments(np.arange(12.0), 4)
        assert segs.shape == (3, 4)

    def test_remainder_is_error_by_default(self):
        with pytest.raises(ConfigError, match="2 trailing"):
            split_segments(np.arange(14.0), 4)

    def test_remainder_dropped_on_request(self):
        segs = split_segments(np.arange(14.0), 4, drop_remainder=True)
        assert segs.shape == (3, 4)

    @pytest.mark.parametrize("P", [2.5, 4.0, "4", True, None, 1])
    def test_segment_length_must_be_int(self, P):
        with pytest.raises(ConfigError, match="segment length"):
            split_segments(np.arange(12.0), P)


class TestNaiveSeasonal:
    def test_single_segment(self):
        seg = np.arange(4.0)
        np.testing.assert_array_equal(naive_seasonal([seg]), seg)

    def test_returns_last(self):
        segs = [np.zeros(4), np.ones(4), np.full(4, 2.0)]
        np.testing.assert_array_equal(naive_seasonal(segs), segs[-1])

    def test_empty_history(self):
        with pytest.raises(InsufficientHistoryError):
            naive_seasonal([])


class TestRollingEval:
    def test_constant_series_zero_rmae(self):
        series = np.full(40, 3.0)
        scores = rolling_eval(series, 8, naive_seasonal)
        assert scores.shape == (3,)
        assert np.all(scores == 0.0)

    def test_periodic_series_wk_zero(self):
        seg = 5 + np.sin(np.linspace(0, 2 * np.pi, 8, endpoint=False))
        series = np.tile(seg, 6)
        method = wk_method(KernelSpec("gaussian", 1.0))
        scores = rolling_eval(series, 8, method)
        assert scores.shape == (4,)
        assert np.all(scores <= 1e-8)

    def test_periodic_series_naive_zero(self):
        seg = 5 + np.cos(np.linspace(0, 2 * np.pi, 8, endpoint=False))
        series = np.tile(seg, 5)
        scores = rolling_eval(series, 8, naive_seasonal)
        assert np.all(scores == 0.0)

    def test_no_future_leakage(self):
        series = gen_synthetic("seasonal_ar", 10, 8, 0.2, seed=2)
        segs = split_segments(series, 8)
        seen = []

        def probe(history):
            seen.append(len(history))
            # identify exactly which segments were exposed
            for idx, h in enumerate(history):
                np.testing.assert_array_equal(h, segs[idx])
            return naive_seasonal(history)

        scores = rolling_eval(series, 8, probe)
        # cut i sees exactly the first i segments and is scored on segment i+1
        assert seen == list(range(2, 10))
        assert scores.shape == (len(seen),)

    def test_summarize(self):
        series = np.full(32, 2.0)
        agg = summarize(rolling_eval(series, 8, naive_seasonal))
        assert agg == {"count": 2, "mean_rmae": 0.0, "median_rmae": 0.0}

    def test_insufficient_data(self):
        with pytest.raises(ConfigError):
            rolling_eval(np.arange(16.0), 8, naive_seasonal)

    def test_naive_reports_equal_list_based_loop(self):
        series = gen_synthetic("seasonal_ar", 40, 12, 0.3, seed=4)
        segs = split_segments(series, 12)
        # the per-origin loop before prefix views: a fresh list per origin
        want = [rmae(naive_seasonal([segs[m] for m in range(i)]), segs[i])
                for i in range(2, 40)]
        got = rolling_eval(series, 12, naive_seasonal)
        assert got.tolist() == want
        # the same scores from the segments themselves
        assert rolling_eval(segs, 12, naive_seasonal).tolist() == want

    @pytest.mark.parametrize("forecast", [np.ones(7), np.ones(9), 1.0, np.ones((1, 8))])
    def test_forecast_of_wrong_shape_rejected(self, forecast):
        series = np.arange(1.0, 33.0)
        with pytest.raises(ConfigError, match=r"segment 2 has shape"):
            rolling_eval(series, 8, lambda history: forecast)

    def test_batch_of_wrong_shape_rejected(self):
        def method(history):
            raise AssertionError("the batch is used")

        method.batch = lambda segments, start: segments[start:, :-1]
        with pytest.raises(ConfigError, match="shape mismatch"):
            rolling_eval(np.arange(1.0, 33.0), 8, method)

    def test_naive_empty_array_history(self):
        with pytest.raises(InsufficientHistoryError):
            naive_seasonal(np.empty((0, 4)))

    @pytest.mark.parametrize("min_history", [2.5, True, 0, -1, "2", None])
    def test_min_history_must_be_positive_int(self, min_history):
        def method(history):
            raise AssertionError("no forecast is made")

        method.batch = method
        with pytest.raises(ConfigError, match="min_history"):
            rolling_eval(np.arange(1.0, 41.0), 8, method, min_history=min_history)

    @pytest.mark.parametrize("n, P, min_history", [(3, 2, 2), (12, 5, 1), (40, 12, 2),
                                                   (40, 12, 7), (25, 24, 24)])
    def test_naive_batch_equals_list_based_loop(self, n, P, min_history):
        series = gen_synthetic("seasonal_ar", n, P, 0.3, seed=n + P)
        segs = split_segments(series, P)
        want = [rmae(naive_seasonal([segs[m] for m in range(i)]), segs[i])
                for i in range(min_history, n)]
        # a plain callable is called once per origin, naive_seasonal is not
        loop = rolling_eval(series, P, lambda history: naive_seasonal(list(history)),
                            min_history)
        got = rolling_eval(series, P, naive_seasonal, min_history)
        assert got.tolist() == loop.tolist() == want
        # origins min_history..n: its last row forecasts the block after segs
        np.testing.assert_array_equal(naive_seasonal.batch(segs, min_history),
                                      segs[min_history - 1:])


class TestGenSynthetic:
    def test_zero_noise_is_periodic(self):
        s = gen_synthetic("seasonal_ar", 6, 12, 0.0, seed=0)
        segs = s.reshape(6, 12)
        for i in range(1, 6):
            np.testing.assert_array_equal(segs[i], segs[0])

    def test_fixed_seed_reproducible(self):
        a = gen_synthetic("seasonal_ar", 5, 8, 0.4, seed=42)
        b = gen_synthetic("seasonal_ar", 5, 8, 0.4, seed=42)
        np.testing.assert_array_equal(a, b)
        c = gen_synthetic("markov_functional", 5, 8, 0.4, seed=42)
        d = gen_synthetic("markov_functional", 5, 8, 0.4, seed=42)
        np.testing.assert_array_equal(c, d)

    def test_markov_segment_mean_autocorrelation_decay(self):
        # segment means follow an AR(1) with the contraction coefficient
        n = 4000
        s = gen_synthetic("markov_functional", n, 8, 0.3, seed=7,
                          contraction=0.5)
        means = s.reshape(n, 8).mean(axis=1)
        dev = means - means.mean()
        denom = float(dev @ dev)
        for lag in (1, 2, 3, 4):
            rho = float(dev[:-lag] @ dev[lag:]) / denom
            assert abs(rho) <= 0.6**lag + 0.1

    def test_stationary_moments_across_cuts(self):
        n = 3000
        s = gen_synthetic("seasonal_ar", n, 8, 0.5, seed=9)
        segs = s.reshape(n, 8)
        first = segs[: n // 2]
        second = segs[n // 2:]
        np.testing.assert_allclose(first.mean(axis=0), second.mean(axis=0),
                                   atol=0.15)
        np.testing.assert_allclose(first.std(axis=0), second.std(axis=0),
                                   atol=0.15)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            gen_synthetic("brownian", 5, 8, 0.1, seed=0)

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            gen_synthetic("seasonal_ar", 0, 8, 0.1, seed=0)

    # each was an untyped error, a NaN series or a RuntimeWarning
    @pytest.mark.parametrize("kind", ["seasonal_ar", "markov_functional"])
    @pytest.mark.parametrize("bad", [
        {"n": 2.5}, {"n": True}, {"P": 4.5}, {"P": "8"}, {"seed": -1},
        {"seed": 1 << 128}, {"seed": 1.5}, {"noise": float("nan")},
        {"noise": float("inf")}, {"noise": -0.1},
    ])
    def test_bad_arguments_rejected_before_any_work(self, kind, bad):
        args = {"n": 5, "P": 8, "noise": 0.1, "seed": 0} | bad
        with pytest.raises(ConfigError):
            gen_synthetic(kind, **args)

    def test_numpy_int_arguments_accepted(self):
        s = gen_synthetic("seasonal_ar", np.int64(5), np.int32(8), 0.1,
                          seed=np.uint64((1 << 64) - 1))
        assert s.shape == (40,) and np.all(np.isfinite(s))

    # a unit or explosive coefficient has no stationary law: the AR(1)'s
    # initial variance noise**2 / (1 - ar_coef**2) is inf or negative, and
    # markov deviations grow without bound
    @pytest.mark.parametrize("kind", ["seasonal_ar", "markov_functional"])
    @pytest.mark.parametrize("coef", [1.0, -1.0, 1.5, -2.0, float("nan")])
    @pytest.mark.parametrize("name", ["ar_coef", "contraction"])
    def test_non_stationary_coefficients_rejected(self, kind, coef, name):
        with pytest.raises(ConfigError, match="stationary"):
            gen_synthetic(kind, 5, 8, 0.1, seed=0, **{name: coef})

    @pytest.mark.parametrize("coef", [-0.99, 0.0, 0.99])
    def test_stationary_coefficients_give_finite_series(self, coef):
        for kind in ("seasonal_ar", "markov_functional"):
            s = gen_synthetic(kind, 20, 8, 0.3, seed=1, ar_coef=coef,
                              contraction=coef)
            assert s.shape == (160,) and np.all(np.isfinite(s))
