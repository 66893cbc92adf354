import math

import numpy as np
import pytest

from wavekernel import (
    ConfigError,
    InsufficientHistoryError,
    KernelSpec,
    PipelineConfig,
    Segment,
    ShapeError,
    combined_distance,
    cv_bandwidth,
    default_bandwidth_grid,
    forward_dwt,
    kernel_eval,
    pad_to_pow2,
    predict_one_ahead,
)
from wavekernel.predictor import normalized_weights, scaling_coefficients


def brute_force_prediction(segments, h, family="gaussian",
                           filter_id="sym6-interp", j0=0):
    """Inline recomputation of the damped kernel average, no caching."""
    n = len(segments)
    padded = [pad_to_pow2(Segment(np.asarray(s, dtype=float))).values
              for s in segments]
    num = np.zeros_like(padded[0])
    den = 1.0 / n
    for m in range(n - 1):
        pq = forward_dwt(Segment(padded[-1]), j0=j0, filter_id=filter_id)
        pm = forward_dwt(Segment(padded[m]), j0=j0, filter_id=filter_id)
        d = combined_distance(pq, pm)
        if family == "gaussian":
            k = math.exp(-0.5 * (d / h) ** 2) / math.sqrt(2 * math.pi)
        else:
            k = 0.5 * math.exp(-d / h)
        num = num + k * padded[m + 1]
        den += k
    return num / den


class TestKernels:
    def test_gaussian_at_zero(self):
        spec = KernelSpec("gaussian", 1.0)
        assert kernel_eval(spec, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_laplace_at_zero(self):
        assert kernel_eval(KernelSpec("laplace", 1.0), 0.0) == pytest.approx(0.5)

    def test_gaussian_tail_decay(self):
        assert kernel_eval(KernelSpec("gaussian", 1.0), 40.0) == 0.0

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            KernelSpec("gaussian", 0.0)
        with pytest.raises(ConfigError):
            KernelSpec("gaussian", -1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            KernelSpec("epanechnikov", 1.0)

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_nonincreasing_in_distance(self, family):
        spec = KernelSpec(family, 1.0)
        u = np.linspace(0, 20, 200)
        vals = kernel_eval(spec, u)
        assert np.all(np.diff(vals) <= 0)


class TestPredictCoefficients:
    def test_n2_closed_form(self):
        rng = np.random.default_rng(0)
        x1, x2 = rng.normal(size=(2, 8))
        h = 0.7
        res = predict_one_ahead([x1, x2], KernelSpec("gaussian", h), weight_mode="raw")
        d = combined_distance(forward_dwt(Segment(x2)), forward_dwt(Segment(x1)))
        k = math.exp(-0.5 * (d / h) ** 2) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(res.xi_pred, k * x2 / (0.5 + k), atol=1e-13)

    @pytest.mark.parametrize("n", [3, 10, 100, 1000])
    def test_identical_segments_closed_form(self, n):
        xi = np.arange(8, dtype=float) + 1
        hist = np.tile(xi, (n, 1))
        res = predict_one_ahead(hist, KernelSpec("gaussian", 1.0), weight_mode="raw")
        k0 = 1 / math.sqrt(2 * math.pi)
        factor = (n - 1) * k0 / (1.0 / n + (n - 1) * k0)
        np.testing.assert_allclose(res.xi_pred, factor * xi, rtol=1e-12)

    def test_identical_segments_converge_to_common_value(self):
        xi = np.arange(8, dtype=float) + 1
        errs = [
            np.max(np.abs(
                predict_one_ahead(np.tile(xi, (n, 1)), KernelSpec("gaussian", 1.0),
                                  weight_mode="raw").xi_pred - xi
            ))
            for n in (10, 100, 1000)
        ]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("seed", range(10))
    def test_brute_force_oracle_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 20)
        p = int(rng.integers(2, 33))
        hist = rng.normal(size=(n, p)) * 3
        h = float(rng.uniform(0.2, 5.0))
        res = predict_one_ahead(hist, KernelSpec("gaussian", h),
                                weight_mode="raw")
        oracle = brute_force_prediction(list(hist), h)
        np.testing.assert_allclose(res.xi_pred, oracle, atol=1e-12)

    def test_underflow_regime_tends_to_zero(self):
        rng = np.random.default_rng(1)
        hist = rng.normal(size=(6, 8)) * 100
        res = predict_one_ahead(hist, KernelSpec("gaussian", 1e-12), weight_mode="raw")
        assert res.effective_sample == 0.0
        np.testing.assert_array_equal(res.xi_pred, np.zeros(8))

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            predict_one_ahead(np.ones((1, 8)), KernelSpec(), weight_mode="raw")

    def test_bad_weight_mode(self):
        with pytest.raises(ConfigError):
            predict_one_ahead(np.ones((3, 8)), KernelSpec(), weight_mode="softmax")


class TestNormalizedWeights:
    def test_monotone_locality(self):
        # pushing one candidate further away never raises its weight
        n = 8
        base = np.linspace(0.5, 2.0, n - 1)
        spec = KernelSpec("gaussian", 1.0)
        prev = None
        for extra in np.linspace(0.0, 10.0, 50):
            d = base.copy()
            d[3] += extra
            w = normalized_weights(kernel_eval(spec, d), n)
            if prev is not None:
                assert w[3] <= prev + 1e-15
            prev = w[3]

    def test_single_weight_is_exactly_one(self):
        # the damped formula reads 1 - ulp for a few percent of kernel values
        rng = np.random.default_rng(7)
        for k in np.concatenate([rng.uniform(0.0, 0.5, 100_000), [0.0, 0.5]]):
            assert normalized_weights([k], 2).tolist() == [1.0]
        with pytest.raises(ShapeError):
            normalized_weights([0.1, 0.2], 2)

    @pytest.mark.parametrize("n", [1, 0])
    def test_no_past_segment_is_insufficient_history(self, n):
        with pytest.raises(InsufficientHistoryError, match="at least 2"):
            normalized_weights(np.ones(0), n)

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_single_candidate_reproduced_bit_for_bit(self, family):
        rng = np.random.default_rng(11)
        for _ in range(200):
            hist = rng.normal(size=(2, 12)) * 10.0 ** rng.uniform(-3, 3) + 5.0
            h = 10.0 ** rng.uniform(-3, 3)
            res = predict_one_ahead(hist, KernelSpec(family, h))
            np.testing.assert_array_equal(res.xi_pred[:12], hist[1])

    @pytest.mark.parametrize("n", [3, 7, 40])
    def test_weights_sum_to_one_up_to_rounding(self, n):
        rng = np.random.default_rng(n)
        for _ in range(1000):
            w = normalized_weights(rng.uniform(0.0, 0.5, n - 1), n)
            assert np.all((w >= 0) & (w < 1))
            assert abs(w.sum() - 1.0) <= 2 * n * np.finfo(float).eps

    def test_convex_combination(self):
        rng = np.random.default_rng(2)
        hist = rng.normal(size=(12, 16))
        res = predict_one_ahead(hist, KernelSpec("gaussian", 0.5),
                                weight_mode="normalized")
        nxt = np.stack([pad_to_pow2(Segment(r)).values for r in hist[1:]])
        assert np.all(res.xi_pred >= nxt.min(axis=0) - 1e-12)
        assert np.all(res.xi_pred <= nxt.max(axis=0) + 1e-12)


class TestPredictOneAhead:
    def test_periodic_series_reproduced(self):
        seg = np.sin(np.linspace(0, 2 * np.pi, 12, endpoint=False)) + 5
        hist = np.tile(seg, (7, 1))
        for h in (1e-3, 0.5, 100.0):
            res = predict_one_ahead(hist, KernelSpec("gaussian", h))
            np.testing.assert_allclose(res.curve, seg, atol=1e-8)

    def test_n2_shrunk_copy(self):
        rng = np.random.default_rng(3)
        s1, s2 = rng.normal(size=(2, 16))
        h = 1.3
        res = predict_one_ahead([s1, s2], KernelSpec("gaussian", h),
                                weight_mode="raw")
        d = combined_distance(forward_dwt(Segment(s2)), forward_dwt(Segment(s1)))
        k = math.exp(-0.5 * (d / h) ** 2) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(res.curve, k / (0.5 + k) * s2, atol=1e-12)

    def test_shift_equivariance_normalized(self):
        rng = np.random.default_rng(4)
        hist = rng.normal(size=(9, 16))
        c = 17.25
        base = predict_one_ahead(hist, KernelSpec("gaussian", 0.8))
        shifted = predict_one_ahead(hist + c, KernelSpec("gaussian", 0.8))
        np.testing.assert_allclose(shifted.curve, base.curve + c, atol=1e-9)

    def test_curve_truncated_to_original_length(self):
        rng = np.random.default_rng(5)
        hist = rng.normal(size=(5, 12))
        res = predict_one_ahead(hist, KernelSpec("gaussian", 1.0))
        assert res.curve.size == 12
        assert res.xi_pred.size == 16

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            scaling_coefficients([np.ones(8), np.ones(9)])


class TestCvBandwidth:
    def test_singleton_grid(self):
        rng = np.random.default_rng(6)
        hist = rng.normal(size=(6, 8))
        h, cv = cv_bandwidth(hist, [0.37])
        assert h == 0.37
        assert cv.shape == (1,)

    def test_identical_segments_tie_breaks_to_smallest(self):
        hist = np.tile(np.arange(8.0) + 1, (6, 1))
        h, cv = cv_bandwidth(hist, [0.25, 1.0, 4.0])
        assert h == 0.25
        np.testing.assert_allclose(cv, 0.0, atol=1e-20)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            cv_bandwidth(np.ones((5, 8)), [])

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_nonpositive_or_nonfinite_grid_rejected(self, bad):
        with pytest.raises(ConfigError):
            cv_bandwidth(np.random.default_rng(0).normal(size=(5, 8)), [1.0, bad])

    @pytest.mark.parametrize("grid", [1.0, [[1.0, 2.0]], [[1.0], [2.0]]])
    def test_grid_not_1d_rejected(self, grid):
        with pytest.raises(ConfigError, match="1-d"):
            cv_bandwidth(np.random.default_rng(0).normal(size=(5, 8)), grid)

    def test_needs_three_segments(self):
        with pytest.raises(InsufficientHistoryError):
            cv_bandwidth(np.ones((2, 8)), [1.0])

    def test_selects_from_grid(self):
        rng = np.random.default_rng(7)
        from wavekernel import gen_synthetic
        series = gen_synthetic("seasonal_ar", 30, 8, 0.3, seed=123)
        hist = series.reshape(30, 8)
        grid = default_bandwidth_grid(hist)
        h, cv = cv_bandwidth(hist, grid)
        assert h in grid
        assert cv.shape == grid.shape
        assert np.all(np.isfinite(cv))


class TestDefaultGrid:
    def test_shape_and_positivity(self):
        rng = np.random.default_rng(8)
        hist = rng.normal(size=(15, 16))
        grid = default_bandwidth_grid(hist)
        assert grid.size == 32
        assert np.all(grid > 0)
        assert np.all(np.diff(grid) > 0)

    def test_degenerate_history_fallback(self):
        hist = np.tile(np.arange(8.0), (5, 1))
        grid = default_bandwidth_grid(hist)
        assert np.all(grid > 0)

    @pytest.mark.parametrize("count", [0, -1, 2.5, True])
    def test_bad_count_rejected(self, count):
        hist = np.random.default_rng(8).normal(size=(6, 8))
        with pytest.raises(ConfigError, match="count"):
            default_bandwidth_grid(hist, count=count)

    def test_single_segment_fallback(self):
        grid = default_bandwidth_grid(np.arange(8.0)[None])
        np.testing.assert_array_equal(grid, np.logspace(-3, 0, 32))
