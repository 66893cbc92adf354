"""Differential tests pinning the row-blocked causal core to per-cut loops.

The oracles below are the straightforward loops the core replaces: one
kernel evaluation, weight vector and forecast per cut point, with the
distances ``predict`` uses (one query row at a time).
"""

import math
import tracemalloc
from contextlib import contextmanager
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
    gen_synthetic,
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
    return next(History(X[:q + 1], config).rows(q, q + 1))[2][0]


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


@contextmanager
def budgets(scratch, stack):
    """Row blocks sized by these distance-plane and kernel-stack budgets."""
    with mock.patch.object(predictor, "_SCRATCH", scratch), \
            mock.patch.object(predictor, "_STACK", stack):
        yield


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
                            j0=j0, scale_range=scale_range)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    segments = rng.normal(size=(n, P)) * scale + draw(st.sampled_from([0.0, 5.0]))
    grid = [10.0 ** e for e in draw(st.lists(st.floats(-2.5, 2.5), min_size=1,
                                             max_size=6))]
    return segments, config, grid, {
        "family": draw(st.sampled_from(["gaussian", "laplace"])),
        "weight_mode": draw(st.sampled_from(["raw", "normalized"])),
        # (distance planes, kernel stack) budgets, each giving one row,
        # a few rows, or the production size per block
        "scratch": (draw(st.sampled_from([1, 200, predictor._SCRATCH])),
                    draw(st.sampled_from([1, 200, predictor._STACK]))),
    }


@settings(max_examples=150, deadline=None)
@given(cases())
# one cut with a single candidate row, whose normalized weight is exactly 1:
# the forecast must be that row bit for bit, as the scored error (1e-3 on a
# level of 5) would magnify any rounding past rtol
@example((np.random.default_rng(0).normal(size=(3, 2)) * 10.0 ** -3 + 5.0,
          PipelineConfig(filter_id="dd2"), [1.0],
          {"family": "gaussian", "weight_mode": "normalized", "scratch": (1, 1)}))
def test_cv_matches_per_cut_loop(case):
    # on raw segments, and on a History whose triangle the grid built (the
    # CLI's path), where blocks are sized by the kernel stack alone
    segments, config, grid, opts = case
    want = loop_cv(segments, grid, opts["family"], config, opts["weight_mode"])
    history = History(segments, config)
    with budgets(*opts["scratch"]):
        default_bandwidth_grid(history, config)
        for source in (segments, history):
            h, cv = cv_bandwidth(source, grid, kernel_family=opts["family"],
                                 config=config, weight_mode=opts["weight_mode"])
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
        with budgets(1, 1):
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
    with budgets(*opts["scratch"]):
        batched = method.batch(segments, 2)
    # the last row forecasts the block after the final segment
    per_prefix = np.stack([method(list(segments[:i]))
                           for i in range(2, len(segments) + 1)])
    # a block of several rows takes its kernel-weighted sums in one GEMM,
    # which may round them unlike a one-row product
    atol = 1e-13 * np.max(np.abs(segments))
    np.testing.assert_allclose(batched, per_prefix, rtol=1e-12, atol=atol)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_predict_curve_is_the_causal_pass_forecast(case):
    # bit for bit the one-row pass's value, in both weight modes: no
    # transform round trip rounds it
    segments, config, grid, opts = case
    kernel, mode = KernelSpec(opts["family"], grid[0]), opts["weight_mode"]
    n = len(segments)
    curve = predict_one_ahead(segments, kernel, config, mode).curve
    history = History(segments, config)
    F = next(history.forecasts(np.array(grid[:1]), kernel.family, mode, n - 1, n))[2]
    assert curve.tobytes() == F[0, 0].tobytes()
    if mode == "normalized":
        assert curve.tobytes() == wk_method(kernel, config).batch(segments, n)[-1].tobytes()


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
    return [[combined_distance(pyramids[m], pyramids[q], config.scale_range)
             for m in range(q)]
            for q in range(len(pyramids))]


@settings(max_examples=100, deadline=None)
@given(cases(), st.integers(-500, 500))
def test_distances_match_pyramid_oracle_at_any_magnitude(case, k):
    segments, config, _, opts = case
    scaled = np.ldexp(segments, k)
    want = oracle_distances(scaled, config)
    history = History(scaled, config)
    n = len(history)
    with budgets(*opts["scratch"]):
        direct = list(history.rows(1, n))
        default_bandwidth_grid(history, config)
        from_tri = list(history.rows(1, n))
    for blocks in (direct, from_tri):
        assert blocks[0][0] == 1 and blocks[-1][1] == n
        for r0, r1, D, causal in blocks:
            for q in range(r0, r1):
                assert np.all(D[q - r0, q:] == np.inf)
                np.testing.assert_allclose(D[q - r0, :q], want[q], rtol=1e-12, atol=0)


def reduce_rows(history, r0, r1):
    """D[r0:r1, :r1-1] by a scale-major reduce: each scale's squared
    differences, a (width, rows, cols) array, summed over its leading axis."""
    cols = r1 - 1
    # at least two columns: numpy reduces a 1x1 plane in pairwise order
    total = np.zeros((r1 - r0, max(cols, 2)))
    for weight, block in history.blocks:
        diff = block[:, None, :total.shape[1]] - block[:, r0:r1, None]
        total += weight * np.sqrt(np.add.reduce(diff * diff, axis=0))
    D = np.ascontiguousarray(total[:, :cols])
    D[np.arange(cols) >= np.arange(r0, r1)[:, None]] = np.inf
    return D


@settings(max_examples=100, deadline=None)
@given(cases(), st.integers(-500, 500))
def test_distance_blocks_match_reduce_oracle_bit_for_bit(case, k):
    # coefficient-by-coefficient sums are the reduce's own plane-by-plane
    # order, in blocks of any size, and at any magnitude
    segments, config, grid, opts = case
    history = History(np.ldexp(segments, k), config)
    n = len(history)
    with budgets(*opts["scratch"]):
        blocks = list(history.rows(1, n, len(grid)))
    assert [b[0] for b in blocks] == [1] + [b[1] for b in blocks[:-1]]
    assert blocks[-1][1] == n
    for r0, r1, D, _ in blocks:
        want = reduce_rows(history, r0, r1)
        assert D.shape == want.shape
        np.testing.assert_array_equal(D.view(np.int64), want.view(np.int64))


def test_row_one_alone_reads_as_in_any_block():
    # numpy sums the squares of a lone pair's block pairwise, not plane by
    # plane as in a larger block; the one-pair block must round the same
    rng = np.random.default_rng(5)
    for _ in range(100):
        segments = rng.normal(size=(3, 128))
        alone = next(History(segments[:2]).rows(1, 2))[2]
        assert next(History(segments).rows(1, 3))[2][0, 0] == alone[0, 0]


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
    history = History(segments)
    n = len(history)
    # a stack budget 8x the buffer's: blocks read from the triangle, sized
    # by the stack alone, hold 1, 3 and all 59 rows
    with budgets(scratch, 8 * scratch):
        blocks = list(history.rows(1, n, depth=4))
        default_bandwidth_grid(history)
        from_tri = list(history.rows(1, n, depth=4))
    tri = history.tri
    offset = 0
    for r0, r1, D, _ in blocks:
        for q in range(r0, r1):
            want = query_distances(history.X, history.config, q)
            np.testing.assert_array_equal(D[q - r0, :q], want)
            np.testing.assert_array_equal(tri[offset:offset + q], want)
            offset += q
    assert offset == tri.size
    for r0, r1, D, _ in from_tri:
        for q in range(r0, r1):
            np.testing.assert_array_equal(D[q - r0, :q],
                                          tri[q * (q - 1) // 2:q * (q + 1) // 2])


def test_grid_and_cv_share_history_distances():
    segments = np.random.default_rng(1).normal(size=(30, 12))
    history = History(segments)
    grid = default_bandwidth_grid(history)
    np.testing.assert_array_equal(grid, default_bandwidth_grid(segments))
    h_shared, cv_shared = cv_bandwidth(history, grid)
    h_fresh, cv_fresh = cv_bandwidth(segments, grid)
    assert h_shared == h_fresh
    np.testing.assert_allclose(cv_shared, cv_fresh, rtol=1e-13)


def select_long_history():
    """The History of the select_long benchmark input: n = 1000, P = 24."""
    n, P = 1000, 24
    segments = gen_synthetic("markov_functional", n, P, 0.25, seed=1).reshape(n, P)
    return History(segments)


def test_grid_fills_the_triangle_in_place():
    # the triangle is n(n-1)/2 doubles; the peak reads about 1.2x that: the
    # row blocks' distance planes while it fills, and a gathered bracket of
    # the distances while the quantiles are selected.  A copy of the
    # positive entries to select from read 2.15x, and per-block pieces
    # joined by a concatenate 3.3x
    history = select_long_history()
    tracemalloc.start()
    try:
        default_bandwidth_grid(history)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert history.tri.size == 1000 * 999 // 2
    assert peak < 1.3 * history.tri.nbytes


def test_cv_holds_one_kernel_stack():
    # CV at G = 32 on the grid's History: the kernel stack, (G+1) x rows x
    # n doubles, is made once for all row blocks.  Beside the triangle the
    # peak reads about 1.3 stacks: the futures' pieces, numpy's ufunc
    # buffers and the small per-block arrays.  A stack per block read 2.3,
    # as a new one was made while the caller still held the last
    history = select_long_history()
    n = len(history)
    tracemalloc.start()
    try:
        grid = default_bandwidth_grid(history)
        tracemalloc.reset_peak()
        cv_bandwidth(history, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    G = grid.size
    stack = (G + 1) * (predictor._STACK // (n * G)) * n * 8
    assert G == 32
    assert peak < history.tri.nbytes + 1.5 * stack


def quantile_grid(tri, count=32):
    """The auto grid from numpy's quantiles of the positive distances."""
    vals = tri[tri > 0]
    if vals.size == 0:
        return np.logspace(-3, 0, count)
    q_lo, q_hi = np.quantile(vals, [0.01, 0.99])
    lo = max(float(q_lo), 1e-12 * float(q_hi))
    hi = max(float(q_hi), lo * 10)
    return np.logspace(math.log10(lo), math.log10(hi), count)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**32 - 1),
       st.sampled_from([-300, 0, 300]), st.sampled_from([None, 1, 2, 5, 50]))
def test_grid_quantiles_match_np_quantile(size, seed, decade, levels):
    # distances drawn continuously, or from a few levels (ties, and zeros
    # that the grid leaves out), at magnitudes 1e-300, 1 and 1e300
    rng = np.random.default_rng(seed)
    tri = (rng.lognormal(size=size) if levels is None
           else rng.integers(0, levels + 1, size=size).astype(float))
    tri *= 10.0 ** decade
    history = History(np.ones((3, 4)))
    history.tri = tri.copy()
    got = default_bandwidth_grid(history)
    np.testing.assert_array_equal(got.view(np.int64), quantile_grid(tri).view(np.int64))
    # the selection reads the distances in place and leaves them in order
    np.testing.assert_array_equal(history.tri, tri)
    # the selection at every percentile, zeros left in: the two ways of
    # mixing the order statistics disagree in the last bit in about 1% of
    # cases.  Again from a sample of 16 with no margin, whose brackets miss
    vals = tri[tri > 0]
    qs = [float(q) for q in np.linspace(0.0, 1.0, 101)]
    want = [np.quantile(vals, q) for q in qs] if vals.size else []
    assert predictor._quantiles(tri, qs) == want
    with mock.patch.object(predictor, "_SAMPLE", 16), mock.patch.object(predictor, "_MARGIN", 0):
        assert predictor._quantiles(tri, qs) == want


def test_grid_quantile_brackets_widen_until_they_hold_their_ranks():
    # every sampled entry (stride 10) is 0.5, the smallest positive value,
    # so the brackets of a sample without margin hold 0.5 alone: the median
    # and the 99% quantile lie above it, and their brackets widen
    tri = np.random.default_rng(5).lognormal(size=1000) + 1.0
    tri[::10], tri[1::10] = 0.5, 0.0
    qs = [0.01, 0.5, 0.99]
    passes = mock.Mock(wraps=np.concatenate)  # the sample, then one per pass
    with mock.patch.object(predictor, "_SAMPLE", 100), \
            mock.patch.object(predictor, "_MARGIN", 0), \
            mock.patch.object(predictor.np, "concatenate", passes):
        got = predictor._quantiles(tri, qs)
    assert got == [np.quantile(tri[tri > 0], q) for q in qs]
    assert passes.call_count > 1 + len(qs)


def test_history_config_mismatch_rejected():
    history = History(np.ones((6, 8)))
    with pytest.raises(ConfigError):
        cv_bandwidth(history, [1.0], config=PipelineConfig(filter_id="dd2"))
    with pytest.raises(ConfigError):
        default_bandwidth_grid(history, config=PipelineConfig(j0=1))

