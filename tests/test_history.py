"""Segments enter the pipeline once: padding, History views, extreme scales,
and the one block rule a History subclass overrides."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavekernel import (
    FILTERS,
    InsufficientHistoryError,
    InvalidInputError,
    KernelSpec,
    PipelineConfig,
    ShapeError,
    cv_bandwidth,
    default_bandwidth_grid,
    gen_synthetic,
    predict_one_ahead,
    predictor,
)
from wavekernel.evaluation import wk_method
from wavekernel.predictor import History, scaling_coefficients

from oracle import Segment, euclidean_distances, pad_to_pow2


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

    # array input is prepared with the default config; a History carries its own
    @pytest.mark.parametrize("weight_mode", ["raw", "normalized"])
    def test_predict_one_ahead_equals_array_input(self, weight_mode):
        segments = np.random.default_rng(0).normal(size=(30, 12))
        kernel = KernelSpec("laplace", 0.8)
        want = predict_one_ahead(segments, kernel, weight_mode)
        got = predict_one_ahead(History(segments), kernel, weight_mode)
        for field in ("curve", "weights"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        assert got.effective_sample == want.effective_sample
        other = predict_one_ahead(History(segments, self.config), kernel, weight_mode)
        assert not np.array_equal(other.curve, want.curve)

    def test_resample_weights_equals_array_input(self):
        segments = np.random.default_rng(1).normal(size=(30, 12))
        kernel = KernelSpec("gaussian", 1.3)
        np.testing.assert_array_equal(
            predict_one_ahead(History(segments), kernel).weights,
            predict_one_ahead(segments, kernel).weights)

    def test_coefficients_keep_padded_width(self):
        segments = np.random.default_rng(2).normal(size=(9, 12))
        history = History(segments, PipelineConfig())
        # the rows keep P = 12 values, the detail blocks the padded width 16
        assert history.segments.shape == (9, 12)
        assert [b.shape for _, b in history.blocks] == [(1, 9), (2, 9), (4, 9), (8, 9)]
        res = predict_one_ahead(history, KernelSpec("gaussian", 1.0), weight_mode="raw")
        assert res.curve.size == 12


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
    # at the large end every positive distance is 2.83e307, and the grid's
    # decade above that would pass the largest double
    grid = default_bandwidth_grid(np.outer([1, -1, 1, -1, 1], [1, -1, 1, -1]) * 1e307)
    assert np.all(np.isfinite(grid) & (grid > 0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [
    [[1e308, -1e308], [-1e308, 1e308], [1e308, -1e308]],  # details overflow to inf
    [[0, 1e308], [1e308, 0], [0, 1.5e308]],  # scale 0 would weigh by 2**1024
])
def test_coefficients_past_the_largest_double_are_rejected(rows):
    with pytest.raises(InvalidInputError, match="too large"):
        predict_one_ahead(rows, KernelSpec("gaussian", 1.0))


# P = 4 padded to 4, two segments per lifting chunk at _SCRATCH = 16: the
# last of 7 segments, alone in its chunk, has a scale-1 detail of -2e308
# under dd2 (at scale 0 its detail is 0)
@pytest.mark.filterwarnings("error")
def test_overflow_in_the_last_chunk_is_rejected_only_in_range():
    rows = np.vstack([np.random.default_rng(7).normal(size=(6, 4)),
                      [1e308, -1e308, 1e308, -1e308]])
    with mock.patch.object(predictor, "_SCRATCH", 16):
        with pytest.raises(InvalidInputError, match="too large"):
            History(rows, PipelineConfig(filter_id="dd2"))


# blocks constant at +-1e308 have no wavelet detail, so History takes them,
# but the spread of their futures, and so each forecast, passes the largest
# double: an error, not a RuntimeWarning and a forecast of nan
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight_mode", ["normalized", "raw"])
def test_forecasts_past_the_largest_double_are_rejected(weight_mode):
    rows = np.repeat([-1e308, 1e308, -1e308, 1e308, 1e308, -1e308], 4).reshape(6, 4)
    history = History(rows)
    with pytest.raises(InvalidInputError, match="rescale the series"):
        predict_one_ahead(history, KernelSpec("gaussian", 1.0), weight_mode)
    with pytest.raises(InvalidInputError, match="rescale"):
        cv_bandwidth(history, [0.5, 1.0], weight_mode=weight_mode)
    if weight_mode == "normalized":  # the rolling method's one mode
        with pytest.raises(InvalidInputError, match="rescale the series"):
            wk_method(KernelSpec("gaussian", 1.0))(history, 2)


# the lifting runs in place on a padded copy, also where the rows are
# column-major, as scaling_coefficients makes them, and P is a power of two
@pytest.mark.parametrize("filter_id", sorted(FILTERS))
def test_history_leaves_its_input_unchanged(filter_id):
    rows = np.random.default_rng(6).normal(size=(5, 12))
    padded = scaling_coefficients(rows)[0]
    assert padded.T.flags.c_contiguous
    for x in (rows, np.asfortranarray(rows), np.ascontiguousarray(padded), padded):
        before = x.tobytes()
        hist = History(x, PipelineConfig(filter_id=filter_id))
        assert x.tobytes() == before
        assert not any(np.shares_memory(block, x) for _, block in hist.blocks)


class LevelHistory(History):
    """The wavelet blocks and the segment means, a (1, n) block at weight 0.5."""

    def _blocks(self):
        return super()._blocks() + [(0.5, self.segments.mean(axis=1)[None])]


class SampleHistory(History):
    """One (P, n) block of the samples at weight 1."""

    def _blocks(self):
        return [(1.0, self.segments.T.copy())]


def full_distances(history):
    """D[q, m] for every row q, from History.rows; +inf where m >= q."""
    n = len(history)
    D = np.full((n, n - 1), np.inf)
    for r0, r1, block, _ in history.rows(1, n):
        D[r0:r1, :r1 - 1] = block
    return D


# a level term is one more block that rows sums: no distance code of its own
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [0, 600, -600])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind, P", [("markov_functional", 24), ("seasonal_ar", 12)])
def test_level_block_adds_the_weighted_level_difference(kind, P, seed, k):
    segments = np.ldexp(gen_synthetic(kind, 30, P, 0.3, seed=seed).reshape(30, P), k)
    level = segments.mean(axis=1)
    for j0 in range((P - 1).bit_length()):
        config = PipelineConfig(j0=j0)
        want = (full_distances(History(segments, config))
                + 0.5 * np.abs(level[:, None] - level[None, :-1]))
        np.testing.assert_array_equal(full_distances(LevelHistory(segments, config)), want)


# the Euclidean distance is one block of the samples; the common 2**-e step
# keeps it exact from 2**-1000 to 2**1000, where its squares have no double
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [0, 600, -600, 1000, -1000])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind, P", [("markov_functional", 24), ("seasonal_ar", 12)])
def test_sample_block_gives_euclidean_distances(kind, P, seed, k):
    segments = gen_synthetic(kind, 30, P, 0.3, seed=seed).reshape(30, P)
    scaled = np.ldexp(segments, k)
    np.testing.assert_array_equal(np.ldexp(scaled, -k), segments)  # no bit lost
    got = full_distances(SampleHistory(scaled))
    for q, want in enumerate(euclidean_distances(segments)):
        if q:
            np.testing.assert_array_equal(got[q, :q], np.ldexp(want, k))
            np.testing.assert_allclose(np.ldexp(got[q, :q], -k),
                                       np.linalg.norm(segments[:q] - segments[q], axis=1),
                                       rtol=1e-15, atol=0)
        assert np.all(got[q, q:] == np.inf)


# the scale-0 weight 2**0 times 2**e passes the largest double; from j0 = 1
# the largest weight is 2**-1 times 2**1024
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("filter_id", ["dd2", "sym6-interp"])
def test_weight_past_the_largest_double_is_rejected_at_its_boundary(filter_id):
    rows = np.array([[0, 1.7e308, 0, 0], [0, 1, 0, 0], [0, 2, 1, 0]])
    with pytest.raises(InvalidInputError, match="too large"):
        History(rows, PipelineConfig(filter_id=filter_id, j0=0))
    history = History(rows, PipelineConfig(filter_id=filter_id, j0=1))
    assert [w for w, _ in history.blocks] == [2.0 ** 1023]
