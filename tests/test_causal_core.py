"""Differential tests pinning the row-blocked causal core to per-cut loops.

The oracles below are the straightforward loops the core replaces: one
kernel evaluation, weight vector and forecast per cut point, with the
distances ``predict`` uses (one query row at a time).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavekernel import (
    ConfigError,
    InsufficientHistoryError,
    KernelSpec,
    PipelineConfig,
    ScaleRange,
    Segment,
    combined_distance,
    cv_bandwidth,
    default_bandwidth_grid,
    forward_dwt,
    kernel_eval,
    pad_to_pow2,
    predictor,
    rolling_eval,
)
from wavekernel.evaluation import wk_method
from wavekernel.predictor import (
    History,
    normalized_weights,
    predict_one_ahead,
    scaling_coefficients,
)
from wavekernel.wavelet import FILTERS


def query_distances(X, config, q):
    """Distances from rows 0..q-1 to row q, as predict computes them."""
    return next(History(X[:q + 1], X.shape[1], config).rows(q, q + 1))[2][0]


def loop_forecast(X, q, h, family, config, weight_mode):
    """Forecast of row q+1 from rows 0..q with its kernel values."""
    with np.errstate(over="ignore"):  # d / h past the largest double: k = 0
        k = kernel_eval(KernelSpec(family, h), query_distances(X, config, q) / h)
    if weight_mode == "raw":
        return (k @ X[1:q + 1]) / (1.0 / (q + 1) + float(k.sum())), k
    return normalized_weights(k, q + 1) @ X[1:q + 1], k


def loop_cv(segments, grid, family, config, weight_mode):
    """Per-cut leave-one-out CV: cut q predicts row q+1 from rows 0..q."""
    X, P = scaling_coefficients(segments)
    n = X.shape[0]
    cv = np.empty(len(grid))
    for gi, h in enumerate(grid):
        errs = []
        for q in range(1, n - 1):
            xi, _ = loop_forecast(X, q, h, family, config, weight_mode)
            diff = xi[:P] - X[q + 1, :P]
            errs.append(float(np.mean(diff * diff)))
        cv[gi] = float(np.mean(errs))
    return cv


@st.composite
def cases(draw):
    n = draw(st.integers(3, 40))
    P = draw(st.integers(2, 20))
    J = (1 << (P - 1).bit_length()).bit_length() - 1  # levels after padding
    j0 = draw(st.integers(0, J - 1))
    scale_range = None
    if draw(st.booleans()):
        lo = draw(st.integers(j0, J - 1))
        scale_range = ScaleRange(lo, draw(st.integers(lo, J - 1)))
    config = PipelineConfig(filter_id=draw(st.sampled_from(sorted(FILTERS))),
                            j0=j0, scale_range=scale_range,
                            include_coarse=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    segments = rng.normal(size=(n, P)) * scale + draw(st.sampled_from([0.0, 5.0]))
    grid = [10.0 ** e for e in draw(st.lists(st.floats(-2.5, 2.5), min_size=1,
                                             max_size=6))]
    return segments, config, grid, {
        "family": draw(st.sampled_from(["gaussian", "laplace"])),
        "weight_mode": draw(st.sampled_from(["raw", "normalized"])),
        # rows per block: one row, a few rows, and the production size
        "scratch": draw(st.sampled_from([1, 200, predictor._SCRATCH])),
    }


@settings(max_examples=150, deadline=None)
@given(cases())
# one cut with a single candidate row, whose normalized weight is exactly 1:
# the forecast must be that row bit for bit, as the scored error (1e-3 on a
# level of 5) would magnify any rounding past rtol
@example((np.random.default_rng(0).normal(size=(3, 2)) * 10.0 ** -3 + 5.0,
          PipelineConfig(filter_id="dd2"), [1.0],
          {"family": "gaussian", "weight_mode": "normalized", "scratch": 1}))
def test_cv_matches_per_cut_loop(case):
    segments, config, grid, opts = case
    with mock.patch.object(predictor, "_SCRATCH", opts["scratch"]):
        h, cv = cv_bandwidth(segments, grid, kernel_family=opts["family"],
                             config=config, weight_mode=opts["weight_mode"])
    want = loop_cv(segments, grid, opts["family"], config, opts["weight_mode"])
    np.testing.assert_allclose(cv, want, rtol=1e-12, atol=0)
    assert h == grid[int(np.argmin(cv))]


@settings(max_examples=100, deadline=None)
@given(cases(), st.sampled_from([1, 7, predictor._PIECE]))
def test_predict_and_cv_share_one_forecast(case, piece):
    # with one bandwidth and one row per block, CV's forecast of cut q and
    # predict on rows 0..q make the same calls on the same values, for
    # centred futures in pieces of one row, a few rows, or all of them
    segments, config, grid, opts = case
    family, mode, h = opts["family"], opts["weight_mode"], grid[0]
    seen = {}
    forecasts = History.forecasts

    def spy(self, *args):
        for r0, r1, F, E in forecasts(self, *args):
            seen.update((r0 + i, F[0, i].copy()) for i in range(r1 - r0))
            yield r0, r1, F, E

    with mock.patch.object(predictor, "_PIECE", piece):
        with mock.patch.object(predictor, "_SCRATCH", 1):
            with mock.patch.object(History, "forecasts", spy):
                cv_bandwidth(segments, [h], kernel_family=family, config=config,
                             weight_mode=mode)
            assert sorted(seen) == list(range(1, len(segments) - 1))
            P = segments.shape[1]
            for q, want in seen.items():
                got = predict_one_ahead(segments[:q + 1], KernelSpec(family, h),
                                        config, mode)
                np.testing.assert_array_equal(got.xi_pred[:P], want)
        # the whole history against the per-cut loop; effective_sample stays
        # the raw kernel mass (subnormal kernel values carry no relative
        # precision)
        X, _ = scaling_coefficients(segments)
        n = X.shape[0]
        result = predict_one_ahead(segments, KernelSpec(family, h), config, mode)
        _, cv = cv_bandwidth(segments, grid, kernel_family=family, config=config,
                             weight_mode=mode)
    xi, k = loop_forecast(X, n - 1, h, family, config, mode)
    # centring the futures on the first rounds each to ulp(max |X|), so a
    # component that cancels to near 0 carries that absolute error
    atol = 1e-13 * np.max(np.abs(X))
    np.testing.assert_allclose(result.xi_pred, xi, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(result.effective_sample, k.sum(), rtol=1e-12, atol=1e-300)
    if mode == "normalized":
        np.testing.assert_allclose(result.xi_pred, result.weights @ X[1:],
                                   rtol=1e-12, atol=atol)
    np.testing.assert_allclose(cv, loop_cv(segments, grid, family, config, mode),
                               rtol=1e-12, atol=0)


# bandwidths at which every kernel value is 0, or 1, or the grid spans more
# decades than one shared exponent scale can hold
@pytest.mark.parametrize("grid", [[1e-200, 1e200], [1e-170, 1.0], [1e-300, 1e-10]])
@pytest.mark.parametrize("family", ["gaussian", "laplace"])
@pytest.mark.parametrize("weight_mode", ["raw", "normalized"])
def test_extreme_bandwidths_match_per_cut_loop(grid, family, weight_mode):
    segments = np.random.default_rng(8).normal(size=(12, 10)) + 3.0
    config = PipelineConfig()
    _, cv = cv_bandwidth(segments, grid, kernel_family=family, config=config,
                         weight_mode=weight_mode)
    want = loop_cv(segments, grid, family, config, weight_mode)
    assert np.all(np.isfinite(cv))
    np.testing.assert_allclose(cv, want, rtol=1e-12, atol=0)
    X, _ = scaling_coefficients(segments)
    for h in (1e-300, 1e300):
        result = predict_one_ahead(segments, KernelSpec(family, h), config,
                                   weight_mode)
        xi, k = loop_forecast(X, len(X) - 1, h, family, config, weight_mode)
        assert np.all(np.isfinite(result.xi_pred))
        np.testing.assert_allclose(result.xi_pred, xi, rtol=1e-12, atol=0)
        np.testing.assert_allclose(result.effective_sample, k.sum(), rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(cases())
def test_batched_rolling_matches_per_prefix_fits(case):
    segments, config, grid, opts = case
    method = wk_method(KernelSpec(opts["family"], grid[0]), config)
    with mock.patch.object(predictor, "_SCRATCH", opts["scratch"]):
        batched = method.batch(segments, 2)
    per_prefix = np.stack([method(list(segments[:i]))
                           for i in range(2, len(segments))])
    # the per-prefix curve passes the forward/inverse transform round trip
    atol = 1e-13 * np.max(np.abs(segments))
    np.testing.assert_allclose(batched, per_prefix, rtol=1e-12, atol=atol)


def test_rolling_eval_uses_batch_with_same_scores():
    segments = np.random.default_rng(3).normal(size=(25, 12)) + 10.0
    method = wk_method(KernelSpec("laplace", 0.7), PipelineConfig(filter_id="dd6"))

    def per_prefix(history):
        return method(history)

    fast = rolling_eval(segments.reshape(-1), 12, method)
    slow = rolling_eval(segments.reshape(-1), 12, per_prefix)
    assert fast.shape == slow.shape == (23,)  # origins 2..24
    np.testing.assert_allclose(fast, slow, rtol=1e-12)


def oracle_distances(segments, config):
    """D[q][m] = combined_distance of rows m < q, one pyramid per row."""
    pyramids = [forward_dwt(pad_to_pow2(Segment(row)), config.j0, config.filter_id)
                for row in segments]
    return [[combined_distance(pyramids[m], pyramids[q], config.scale_range,
                               config.include_coarse) for m in range(q)]
            for q in range(len(pyramids))]


@settings(max_examples=100, deadline=None)
@given(cases(), st.integers(-500, 500))
def test_distances_match_pyramid_oracle_at_any_magnitude(case, k):
    segments, config, _, opts = case
    scaled = np.ldexp(segments, k)
    want = oracle_distances(scaled, config)
    history = History(*scaling_coefficients(scaled), config)
    n = len(history)
    with mock.patch.object(predictor, "_SCRATCH", opts["scratch"]):
        direct = list(history.rows(1, n))
        default_bandwidth_grid(history, config)
        from_tri = list(history.rows(1, n))
    for blocks in (direct, from_tri):
        assert blocks[0][0] == 1 and blocks[-1][1] == n
        for r0, r1, D, causal in blocks:
            for q in range(r0, r1):
                assert np.all(D[q - r0, q:] == np.inf)
                np.testing.assert_allclose(D[q - r0, :q], want[q], rtol=1e-12, atol=0)


def test_row_one_alone_reads_as_in_any_block():
    # numpy sums the squares of a lone pair's block pairwise, not plane by
    # plane as in a larger block; the one-pair block must round the same
    rng = np.random.default_rng(5)
    for _ in range(100):
        X, P = scaling_coefficients(rng.normal(size=(3, 128)))
        alone = next(History(X[:2], P).rows(1, 2))[2]
        assert next(History(X, P).rows(1, 3))[2][0, 0] == alone[0, 0]


@settings(max_examples=100, deadline=None)
@given(cases(), st.integers(20, 280))
def test_raw_forecast_is_zero_when_every_kernel_value_underflows(case, decades):
    # raw mode's documented limit: sum_m k_m X[m+1] / (1/n + sum k) -> 0
    segments, config, _, opts = case
    X, _ = scaling_coefficients(segments)
    d = query_distances(X, config, len(X) - 1)
    h = max(float(d.min()) * 10.0 ** -decades, 1e-300)
    assert d.min() / h > 1e19  # every exponent is below -1e19: each k is 0
    result = predict_one_ahead(X, KernelSpec(opts["family"], h), config,
                               weight_mode="raw")
    n = len(X)
    assert result.effective_sample == 0.0
    np.testing.assert_array_equal(result.xi_pred, np.zeros(X.shape[1]))
    np.testing.assert_array_equal(result.curve, np.zeros(X.shape[1]))
    np.testing.assert_array_equal(result.weights, np.full(n - 1, 1.0 / (n - 1)))
    xi, k = loop_forecast(X, n - 1, h, opts["family"], config, "raw")
    assert not np.any(k)
    np.testing.assert_array_equal(result.xi_pred, xi)


def test_rolling_needs_two_segments_per_cut():
    method = wk_method(KernelSpec("gaussian", 1.0))
    with pytest.raises(InsufficientHistoryError):
        rolling_eval(np.arange(1.0, 41.0), 8, method, min_history=1)


@pytest.mark.parametrize("scratch", [1, 100, 1 << 17])
def test_offset_history_distances_bit_identical(scratch):
    # 1e-7 differences on a 1000 offset: the Gram-trick sq+sq-2ab form
    # loses most digits here; every path must read predict's distances
    rng = np.random.default_rng(0)
    segments = 1000.0 + 1e-7 * rng.normal(size=(60, 24))
    history = History(*scaling_coefficients(segments))
    n = len(history)
    with mock.patch.object(predictor, "_SCRATCH", scratch):
        blocks = list(history.rows(1, n, depth=4))
        default_bandwidth_grid(history)
    tri = history.tri
    offset = 0
    for r0, r1, D, _ in blocks:
        for q in range(r0, r1):
            want = query_distances(history.X, history.config, q)
            np.testing.assert_array_equal(D[q - r0, :q], want)
            np.testing.assert_array_equal(tri[offset:offset + q], want)
            offset += q
    assert offset == tri.size


def test_grid_and_cv_share_history_distances():
    segments = np.random.default_rng(1).normal(size=(30, 12))
    history = History(*scaling_coefficients(segments))
    grid = default_bandwidth_grid(history)
    np.testing.assert_array_equal(grid, default_bandwidth_grid(segments))
    h_shared, cv_shared = cv_bandwidth(history, grid)
    h_fresh, cv_fresh = cv_bandwidth(segments, grid)
    assert h_shared == h_fresh
    np.testing.assert_allclose(cv_shared, cv_fresh, rtol=1e-13)


def test_history_config_mismatch_rejected():
    history = History(*scaling_coefficients(np.ones((6, 8))))
    with pytest.raises(ConfigError):
        cv_bandwidth(history, [1.0], config=PipelineConfig(filter_id="dd2"))
    with pytest.raises(ConfigError):
        default_bandwidth_grid(history, config=PipelineConfig(j0=1))

