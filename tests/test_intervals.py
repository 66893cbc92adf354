import dataclasses
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavekernel import (
    ConfigError,
    InsufficientHistoryError,
    KernelSpec,
    ResamplingPlan,
    ShapeError,
    prediction_interval,
    predict_one_ahead,
)
from wavekernel import gen_synthetic, intervals, predictor

from oracle import (argsort_weighted_quantile, draw_pseudo_blocks, fraction_quantile,
                    sorted_draws_quantile)


def make_plan(B=500, alpha=0.025, seed=0):
    return ResamplingPlan(B=B, alpha=alpha, seed=seed)


def band_of(futures, weights, alpha, method="exact", B=500):
    """The interval over the blocks ``futures``, weighted by ``weights``."""
    hist = np.vstack([np.zeros(np.shape(futures)[1]), futures])
    center = dataclasses.replace(predict_one_ahead(hist, KernelSpec()), weights=weights)
    return prediction_interval(hist, center, make_plan(B=B, alpha=alpha), method)


class TestResampleWeights:
    def test_n2_single_weight_is_one(self):
        rng = np.random.default_rng(0)
        w = predict_one_ahead(rng.normal(size=(2, 8)), KernelSpec("gaussian", 1.0)).weights
        assert w.shape == (1,)
        assert w[0] == pytest.approx(1.0, abs=1e-15)

    def test_equal_distances_uniform(self):
        # rotations of one segment at equal combined distance from the query
        base = np.array([0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0])
        hist = np.stack([base, -base, base, -base, np.zeros(8)])
        w = predict_one_ahead(hist, KernelSpec("gaussian", 1.0)).weights
        np.testing.assert_allclose(w, 0.25, atol=1e-12)

    def test_underflow_regime_uniform(self):
        rng = np.random.default_rng(1)
        hist = rng.normal(size=(9, 8)) * 50
        w = predict_one_ahead(hist, KernelSpec("gaussian", 1e-9)).weights
        np.testing.assert_allclose(w, 1.0 / 8, atol=1e-15)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_normalization_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        h = float(10.0 ** rng.uniform(-6, 2))
        hist = rng.normal(size=(n, 16)) * rng.uniform(0.1, 10)
        w = predict_one_ahead(hist, KernelSpec("gaussian", h)).weights
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0) and np.all(w <= 1)

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            predict_one_ahead(np.ones((1, 8)), KernelSpec())


class TestResamplingPlan:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            make_plan(alpha=0.5)
        with pytest.raises(ConfigError):
            make_plan(alpha=0.0)

    def test_rejects_bad_b(self):
        with pytest.raises(ConfigError):
            make_plan(B=0)

    @pytest.mark.parametrize("B", [-2, 2.5, 3.0, True, "5", None])
    def test_rejects_b_that_is_no_positive_int(self, B):
        with pytest.raises(ConfigError, match="B must"):
            make_plan(B=B)

    def test_accepts_numpy_int_b(self):
        plan = make_plan(B=np.int64(4), alpha=0.25)
        center = predict_one_ahead(np.eye(3), KernelSpec())
        band = prediction_interval(np.eye(3), dataclasses.replace(center, weights=[0.5, 0.5]),
                                   plan)
        assert band.lower.shape == band.upper.shape == (3,)

    def test_rejects_unnormalized_weights(self):
        center = predict_one_ahead(np.eye(3), KernelSpec())
        with pytest.raises(ConfigError):
            prediction_interval(np.eye(3), dataclasses.replace(center, weights=[0.6, 0.6]),
                                make_plan())

    @pytest.mark.parametrize("seed", [-3, 2**128, 1.5, True, "3", None])
    def test_rejects_seed_outside_philox_keys(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            make_plan(seed=seed)

    @pytest.mark.parametrize("seed", [2**128 - 1, np.uint64(5)])
    def test_accepts_any_philox_key(self, seed):
        plan = make_plan(B=3, alpha=0.4, seed=seed)
        center = predict_one_ahead(np.eye(3), KernelSpec())
        prediction_interval(np.eye(3), dataclasses.replace(center, weights=[0.5, 0.5]), plan)


class TestDrawPseudoBlocks:
    def test_point_mass(self):
        futures = np.arange(12.0).reshape(3, 4)
        blocks = draw_pseudo_blocks(make_plan(B=25), [1.0, 0.0, 0.0], futures)
        assert blocks.shape == (25, 4)
        assert np.all(blocks == futures[0])

    def test_multinomial_frequencies(self):
        n_cand = 5
        futures = np.arange(n_cand, dtype=float)[:, None] * np.ones((1, 2))
        plan = make_plan(B=40000, seed=77)
        blocks = draw_pseudo_blocks(plan, np.full(n_cand, 1.0 / n_cand), futures)
        freq = np.array([(blocks[:, 0] == m).mean() for m in range(n_cand)])
        se = np.sqrt((1 / n_cand) * (1 - 1 / n_cand) / 40000)
        assert np.all(np.abs(freq - 1 / n_cand) <= 3 * se)

    def test_fixed_seed_reproducible(self):
        futures = np.random.default_rng(2).normal(size=(6, 8))
        plan = make_plan(B=200, seed=123)
        b1 = draw_pseudo_blocks(plan, np.full(6, 1 / 6), futures)
        b2 = draw_pseudo_blocks(plan, np.full(6, 1 / 6), futures)
        np.testing.assert_array_equal(b1, b2)

    def test_weight_count_mismatch(self):
        with pytest.raises(ShapeError):
            draw_pseudo_blocks(make_plan(), [0.5, 0.5], np.ones((3, 4)))


class TestPredictionInterval:
    def _setup(self, seed=4, n=20, P=12, h=1.0):
        rng = np.random.default_rng(seed)
        hist = rng.normal(size=(n, P)) + 10
        kernel = KernelSpec("gaussian", h)
        center = predict_one_ahead(hist, kernel)
        return hist, center

    def test_degenerate_distribution(self):
        seg = np.linspace(1, 2, 8)
        hist = np.tile(seg, (6, 1))
        kernel = KernelSpec("gaussian", 1.0)
        center = predict_one_ahead(hist, kernel)
        plan = make_plan(B=300)
        band = prediction_interval(hist, center, plan)
        np.testing.assert_allclose(band.lower, seg, atol=1e-12)
        np.testing.assert_allclose(band.upper, seg, atol=1e-12)

    def test_ordering_and_atom_support(self):
        hist, center = self._setup()
        plan = make_plan(B=2000, seed=9)
        band = prediction_interval(hist, center, plan)
        assert np.all(band.lower <= band.upper)
        futures = hist[1:]
        for i in range(hist.shape[1]):
            assert band.lower[i] in futures[:, i]
            assert band.upper[i] in futures[:, i]

    def test_monte_carlo_matches_exact_oracle(self):
        hist, center = self._setup(seed=5)
        plan = make_plan(B=50000, seed=11)
        mc = prediction_interval(hist, center, plan)
        exact = prediction_interval(hist, center, plan, method="exact")
        futures = hist[1:]
        for i in range(hist.shape[1]):
            gap = np.max(futures[:, i]) - np.min(futures[:, i])
            assert abs(mc.lower[i] - exact.lower[i]) <= 0.005 * gap
            assert abs(mc.upper[i] - exact.upper[i]) <= 0.005 * gap

    def test_small_b_warns(self):
        hist, center = self._setup()
        plan = make_plan(B=10, alpha=0.025)
        with pytest.warns(UserWarning):
            prediction_interval(hist, center, plan)

    def test_small_b_does_not_warn_the_exact_method(self):
        # the exact method draws nothing, so B cannot resolve its tails poorly
        hist, center = self._setup()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prediction_interval(hist, center, ResamplingPlan(10, 0.025, 0), method="exact")

    def test_unknown_method(self):
        hist, center = self._setup()
        plan = make_plan()
        with pytest.raises(ConfigError):
            prediction_interval(hist, center, plan, method="jackknife")

    def test_unknown_method_checked_before_any_work(self):
        # a too-small B would warn, and bad segments would raise ShapeError;
        # the method is rejected first
        hist, center = self._setup()
        plan = make_plan(B=10, alpha=0.025)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for segments in (hist, [[1.0, 2.0], [3.0]]):
                with pytest.raises(ConfigError, match="jackknife"):
                    prediction_interval(segments, center, plan, method="jackknife")

    def test_determinism(self):
        hist, center = self._setup()
        plan = make_plan(B=777, seed=5)
        b1 = prediction_interval(hist, center, plan)
        b2 = prediction_interval(hist, center, plan)
        np.testing.assert_array_equal(b1.lower, b2.lower)
        np.testing.assert_array_equal(b1.upper, b2.upper)

    def test_fixed_seed_reproducible(self):
        # a plan made afresh with the same seed gives the same bounds
        hist = np.random.default_rng(2).normal(size=(7, 8))
        center = dataclasses.replace(predict_one_ahead(hist, KernelSpec()),
                                     weights=np.full(6, 1 / 6))
        b1, b2 = (prediction_interval(hist, center, make_plan(B=200, alpha=0.1, seed=123))
                  for _ in range(2))
        np.testing.assert_array_equal(b1.lower, b2.lower)
        np.testing.assert_array_equal(b1.upper, b2.upper)

    @pytest.mark.parametrize("method", ["monte-carlo", "exact"])
    def test_weight_count_mismatch(self, method):
        hist = np.ones((4, 4))
        with pytest.raises(ShapeError, match="2 weights for 3 candidates"):
            center = predict_one_ahead(hist, KernelSpec())
            prediction_interval(hist, dataclasses.replace(center, weights=[0.5, 0.5]),
                                make_plan(), method=method)

    @pytest.mark.parametrize("size", [2, 4])
    def test_rejects_weight_count_mismatch(self, size):
        with pytest.raises(ShapeError, match=f"{size} weights for 3 candidates"):
            band_of(np.arange(6.0).reshape(3, 2), np.full(size, 1 / size), 0.1)

    # at least one entry is negative, NaN, or the weights do not sum to 1
    @pytest.mark.parametrize("w", [[0.2, 0.2, 0.2], [0.5, 0.7, -0.2],
                                   [0.5, 0.5, float("nan")]])
    def test_rejects_weights_off_the_simplex(self, w):
        with pytest.raises(ConfigError, match="weights must lie in"):
            band_of(np.arange(6.0).reshape(3, 2), w, 0.1)

    def test_exact_matches_numpy_on_uniform_weights(self):
        futures = np.random.default_rng(3).normal(size=(7, 5))
        band = band_of(futures, np.full(7, 1 / 7), 0.025)
        for got, q in ((band.lower, 0.025), (band.upper, 0.975)):
            np.testing.assert_array_equal(
                got, np.quantile(futures, q, axis=0, method="inverted_cdf"))

    def test_exact_point_mass_weight(self):
        band = band_of([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]], [0.0, 1.0, 0.0], 0.025)
        assert band.lower.tolist() == band.upper.tolist() == [2.0, 2.0]

    def test_exact_upper_bound_carries_weight(self):
        # the weights sum to 1 - 9.9987e-13, inside the 1e-12 tolerance, so the
        # sorted cumulative sum ends short of 1 - alpha - 1e-12 at alpha = 5e-324;
        # a zero-weight block above the others carries no mass and is never the bound
        w = [0.307547174334848, 0.4400633375291528, 0.25238948813499923]
        futures = [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [3.0, -1.0]]
        assert band_of(futures[:3], w, 5e-324).upper.tolist() == [2.0, 2.0]
        assert band_of(futures, w + [0.0], 5e-324).upper.tolist() == [2.0, 2.0]

    # at alpha <= 1e-12 the lower threshold alpha - 1e-12 is <= 0; it reads as
    # the least positive double, so the bound is the smallest block that carries
    # weight, as Monte Carlo, which returns only blocks it drew, reads it
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("alpha", [5e-324, 1e-13, 1e-12, 2e-12])
    def test_exact_lower_bound_carries_weight(self, alpha):
        futures = [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [3.0, -1.0]]
        w = [0.3, 0.45, 0.25, 0.0]
        for method in ("exact", "monte-carlo"):
            band = band_of(futures, w, alpha, method, B=200_000)
            assert band.lower.tolist() == [0.0, 0.0], method

    # weights in 64ths against the exact-arithmetic oracle, with zero weights,
    # ties and both signs of zero in the columns.  No alpha lies within 1e-12
    # of a cumulative weight strictly between 0 and 1, so the library's
    # tolerance decides nothing; its clamps act at both ends
    @pytest.mark.parametrize("alpha", [5e-324, 1e-13, 1 / 128, 0.025, 0.3])
    def test_exact_bounds_equal_the_fraction_oracle(self, alpha):
        weights = [Fraction(k, 64) for k in (0, 9, 0, 17, 5, 0, 30, 3)]
        futures = np.random.default_rng(5).choice([-1.0, -0.0, 0.0, 2.0], size=(8, 24))
        band = band_of(futures, [float(w) for w in weights], alpha)
        for got, q in ((band.lower, Fraction(alpha)), (band.upper, 1 - Fraction(alpha))):
            expect = fraction_quantile(futures, weights, q)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in expect.tolist()]

    # segments and a center that do not fit each other
    @pytest.mark.parametrize("n, curve, error, match", [
        (1, np.ones(4), InsufficientHistoryError, "need at least 2 segments"),
        (4, np.ones(3), ShapeError, "center curve has 3 points, segments have 4"),
    ], ids=["one-segment", "short-curve"])
    def test_segments_and_center_mismatch(self, n, curve, error, match):
        center = predict_one_ahead(np.ones((4, 4)), KernelSpec())
        with pytest.raises(error, match=match):
            prediction_interval(np.ones((n, 4)), dataclasses.replace(center, curve=curve),
                                make_plan())


# B = 30, alpha = 0.1: 0.1 * 30 is exactly 3.0, rank 3.  B = 100, alpha = 0.07:
# 0.07 * 100 is 7.000000000000001, so the lower bound is rank 8, not 7.
# alpha = 5e-324: 1 / alpha overflows to inf.
@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 30), P=st.integers(2, 8), decimals=st.integers(0, 2),
       concentration=st.sampled_from([0.05, 0.2, 1.0, 10.0]),
       sharpen=st.sampled_from([1, 8]),
       B=st.integers(1, 3000),
       alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
@example(n=12, P=4, decimals=0, concentration=1.0, sharpen=1, B=30, alpha=0.1, seed=3)
@example(n=12, P=4, decimals=0, concentration=1.0, sharpen=1, B=100, alpha=0.07, seed=3)
@example(n=2, P=2, decimals=0, concentration=1.0, sharpen=1, B=1, alpha=5e-324, seed=0)
def test_bounds_match_sorted_draws(n, P, decimals, concentration, sharpen, B, alpha, seed):
    rng = np.random.default_rng(seed)
    hist = np.round(rng.normal(size=(n, P)) * 2, decimals)  # rounding makes ties
    # a power of a Dirichlet draw is close to a point mass
    weights = rng.dirichlet(np.full(n - 1, concentration)) ** sharpen
    weights = weights / weights.sum()
    plan = make_plan(B=B, alpha=alpha, seed=seed)
    center = dataclasses.replace(predict_one_ahead(hist, KernelSpec("gaussian", 1.0)),
                                 weights=weights)
    futures = hist[1:]
    mc = prediction_interval(hist, center, plan)
    # values only: neither this sort nor the one under test is stable, so
    # which of a tied 0.0 and -0.0 lands at rank k is each sort's choice
    np.testing.assert_array_equal(mc.lower,
                                  sorted_draws_quantile(plan, weights, futures, alpha))
    np.testing.assert_array_equal(mc.upper,
                                  sorted_draws_quantile(plan, weights, futures, 1 - alpha))
    exact = prediction_interval(hist, center, plan, method="exact")
    # both exact paths sort stably, so even the sign of a tied zero agrees
    for got, q in ((exact.lower, alpha), (exact.upper, 1 - alpha)):
        expect = argsort_weighted_quantile(futures, weights, q)
        np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expect))


def bound_bytes(band):
    return band.lower.tobytes() + band.upper.tobytes()


def bounds_by_budget(hist, center, plan, method, scratch):
    with mock.patch.object(intervals, "_SCRATCH", scratch):
        return bound_bytes(prediction_interval(hist, center, plan, method))


# columns in chunks of one, a few, or all of them, at B below and above the
# n - 1 candidates; ties, signed zeros included, keep their signs
@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 60), P=st.integers(2, 12), decimals=st.integers(0, 2),
       B=st.sampled_from([5, 40, 3000]), scratch=st.sampled_from([1, 30, 200]),
       seed=st.integers(0, 2**32 - 1))
def test_column_chunks_give_the_unchunked_bounds(n, P, decimals, B, scratch, seed):
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(n, P))  # signed zeros among the ties
    hist = np.round(rng.normal(size=(n, P)), decimals) * signs
    weights = rng.dirichlet(np.ones(n - 1))
    center = dataclasses.replace(predict_one_ahead(hist, KernelSpec("gaussian", 1.0)),
                                 weights=weights / weights.sum())
    plan = make_plan(B=B, seed=seed)
    for method in ("exact", "monte-carlo"):
        assert (bounds_by_budget(hist, center, plan, method, scratch)
                == bounds_by_budget(hist, center, plan, method, 1 << 40))


@pytest.fixture(scope="module")
def wide():
    """A markov input of n = 2000 blocks of P = 96, its forecast and weights."""
    hist = gen_synthetic("markov_functional", 2000, 96, 0.25, seed=1).reshape(2000, 96)
    return hist, predict_one_ahead(hist, KernelSpec("gaussian", 0.52))


@pytest.mark.parametrize("B", [500, 20000])
def test_wide_bounds_equal_one_chunk(wide, B):
    # B = 500 draws at most 500 rows, one chunk of all 96 columns; B = 20000
    # draws about 1900 of the 1999 rows, three chunks, as does the exact method
    hist, center = wide
    plan = make_plan(B=B, seed=7)
    for method in ("exact", "monte-carlo"):
        assert (bounds_by_budget(hist, center, plan, method, intervals._SCRATCH)
                == bounds_by_budget(hist, center, plan, method, 1 << 40))


@pytest.mark.parametrize("method", ["exact", "monte-carlo"])
def test_interval_holds_one_column_chunk(wide, method):
    # a chunk's atoms, argsort order and cumulative mass are _SCRATCH values
    # each; with the B = 20000 draws the peak stays within four chunks (1.64
    # and 1.10 MiB on numpy 2.4).  The drawn rows gathered whole, with their
    # full-size order and sums, read 3.47 MiB (monte-carlo) and 4.39 MiB
    # (exact)
    hist, center = wide
    plan = make_plan(B=20000, seed=7)
    tracemalloc.start()
    try:
        prediction_interval(hist, center, plan, method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * predictor._SCRATCH * 8
