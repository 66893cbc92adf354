"""Segments enter the pipeline once: padding, History views, extreme scales."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavekernel import (
    InsufficientHistoryError,
    InvalidInputError,
    KernelSpec,
    PipelineConfig,
    Segment,
    ShapeError,
    cv_bandwidth,
    default_bandwidth_grid,
    gen_synthetic,
    pad_to_pow2,
    predict_one_ahead,
)
from wavekernel.predictor import History, scaling_coefficients


class TestScalingCoefficients:
    @pytest.mark.parametrize("P", range(2, 41))
    def test_rows_equal_padded_segments(self, P):
        segments = np.random.default_rng(P).normal(size=(5, P))
        X, got_P = scaling_coefficients(segments)
        assert got_P == P
        want = np.stack([pad_to_pow2(Segment(row)).values for row in segments])
        np.testing.assert_array_equal(X, want)

    @pytest.mark.parametrize("segments, error", [
        ([np.array([1.0, np.nan, 2.0])], InvalidInputError),
        ([[1.0, 2.0], [np.inf, 0.0]], InvalidInputError),
        ([[1.0], [2.0]], InvalidInputError),          # P = 1
        (np.ones(5), InvalidInputError),              # one vector, not a stack
        ([np.ones(8), np.ones(9)], ShapeError),       # ragged
        ([], InsufficientHistoryError),
    ])
    def test_bad_input_error_classes(self, segments, error):
        with pytest.raises(error):
            scaling_coefficients(segments)


class TestHistoryInput:
    config = PipelineConfig(filter_id="dd6", j0=1)

    @pytest.mark.parametrize("weight_mode", ["raw", "normalized"])
    def test_predict_one_ahead_equals_array_input(self, weight_mode):
        segments = np.random.default_rng(0).normal(size=(30, 12))
        kernel = KernelSpec("laplace", 0.8)
        want = predict_one_ahead(segments, kernel, self.config, weight_mode)
        got = predict_one_ahead(History(segments, self.config), kernel,
                                self.config, weight_mode)
        for field in ("xi_pred", "curve", "weights"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert got.effective_sample == want.effective_sample

    def test_resample_weights_equals_array_input(self):
        segments = np.random.default_rng(1).normal(size=(30, 12))
        kernel = KernelSpec("gaussian", 1.3)
        history = History(segments, self.config)
        np.testing.assert_array_equal(
            predict_one_ahead(history, kernel, self.config).weights,
            predict_one_ahead(segments, kernel, self.config).weights)

    def test_coefficients_keep_padded_width(self):
        segments = np.random.default_rng(2).normal(size=(9, 12))
        history = History(segments, PipelineConfig())
        res = predict_one_ahead(history, KernelSpec("gaussian", 1.0), weight_mode="raw")
        assert res.xi_pred.size == 16
        # the padded columns repeat the forecast periodically
        np.testing.assert_array_equal(res.xi_pred[12:], res.xi_pred[:4])


def _fit(segments):
    grid = default_bandwidth_grid(segments)
    h, cv = cv_bandwidth(segments, grid)
    res = predict_one_ahead(segments, KernelSpec("gaussian", h))
    return grid, h, cv, res


series = st.builds(
    lambda kind, n, P, seed: gen_synthetic(kind, n, P, 0.25, seed=seed).reshape(n, P),
    st.sampled_from(["markov_functional", "seasonal_ar"]), st.integers(10, 40),
    st.integers(4, 16), st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("k", [500, -500])
@settings(max_examples=30, deadline=None)
@given(segments=series)
@example(segments=gen_synthetic("markov_functional", 40, 12, 0.25, seed=3).reshape(40, 12))
def test_power_of_two_scaling_is_equivariant(segments, k):
    grid, h, cv, res = _fit(segments)
    grid_k, h_k, cv_k, res_k = _fit(np.ldexp(segments, k))
    scale = math.ldexp(1.0, k)
    np.testing.assert_allclose(grid_k, grid * scale, rtol=1e-12)
    assert h_k == pytest.approx(h * scale, rel=1e-12)
    np.testing.assert_allclose(cv_k, cv * scale * scale, rtol=1e-9)
    np.testing.assert_allclose(res_k.curve, res.curve * scale, rtol=1e-12)
    np.testing.assert_allclose(res_k.weights, res.weights, rtol=1e-9)


@settings(max_examples=30, deadline=None)
@given(series, st.integers(0, 31))
@example(gen_synthetic("markov_functional", 40, 12, 0.25, seed=4).reshape(40, 12), 16)
def test_1e160_history_predicts_but_cv_scores_overflow(segments, g):
    big = segments * 1e160
    grid = default_bandwidth_grid(segments)
    grid_big = default_bandwidth_grid(big)
    np.testing.assert_allclose(grid_big, grid * 1e160, rtol=1e-12)
    res = predict_one_ahead(segments, KernelSpec("gaussian", grid[g]))
    res_big = predict_one_ahead(big, KernelSpec("gaussian", grid_big[g]))
    np.testing.assert_allclose(res_big.weights, res.weights, rtol=1e-9)
    np.testing.assert_allclose(res_big.curve, res.curve * 1e160, rtol=1e-12)
    # squared errors near 1e320 have no double: a typed error, not grid[0]
    with pytest.raises(InvalidInputError):
        cv_bandwidth(big, grid_big)


# every coefficient subnormal: the blocks are scaled up by more than 2**1023
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tiny", [1e-310, 4e-323])
def test_subnormal_history_forecasts_finitely(tiny):
    rows = np.array([[0, 1], [1, 0], [0, 2]]) * tiny
    res = predict_one_ahead(rows, KernelSpec("gaussian", 1.0))
    # each kernel value is 1: the forecast is the mean of the two next blocks
    np.testing.assert_array_equal(res.weights, [0.5, 0.5])
    np.testing.assert_allclose(res.curve, [0.5 * tiny, tiny], rtol=1e-12)
    assert np.all(default_bandwidth_grid(rows) > 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [
    [[1e308, -1e308], [-1e308, 1e308], [1e308, -1e308]],  # details overflow to inf
    [[0, 1e308], [1e308, 0], [0, 1.5e308]],  # scale 0 would weigh by 2**1024
])
def test_coefficients_past_the_largest_double_are_rejected(rows):
    with pytest.raises(InvalidInputError, match="too large"):
        predict_one_ahead(rows, KernelSpec("gaussian", 1.0))
