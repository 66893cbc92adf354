import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavekernel import (
    ConfigError,
    InsufficientHistoryError,
    KernelSpec,
    PredictionInterval,
    ResamplingPlan,
    ShapeError,
    prediction_interval,
    predict_one_ahead,
    weighted_quantile,
)
from wavekernel.predictor import kernel_eval, normalized_weights

from oracle import draw_pseudo_blocks


def make_plan(weights, B=500, alpha=0.025, seed=0):
    return ResamplingPlan(B=B, alpha=alpha, seed=seed, weights=np.asarray(weights))


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
            make_plan([1.0], alpha=0.5)
        with pytest.raises(ConfigError):
            make_plan([1.0], alpha=0.0)

    def test_rejects_bad_b(self):
        with pytest.raises(ConfigError):
            make_plan([1.0], B=0)

    @pytest.mark.parametrize("B", [-2, 2.5, 3.0, True, "5", None])
    def test_rejects_b_that_is_no_positive_int(self, B):
        with pytest.raises(ConfigError, match="B must"):
            make_plan([1.0], B=B)

    def test_accepts_numpy_int_b(self):
        plan = make_plan([0.5, 0.5], B=np.int64(4), alpha=0.25)
        band = prediction_interval(np.eye(3), predict_one_ahead(np.eye(3), KernelSpec()),
                                   plan)
        assert band.lower.shape == band.upper.shape == (3,)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ConfigError):
            make_plan([0.6, 0.6])

    @pytest.mark.parametrize("seed", [-3, 2**128, 1.5, True, "3", None])
    def test_rejects_seed_outside_philox_keys(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            make_plan([1.0], seed=seed)

    @pytest.mark.parametrize("seed", [2**128 - 1, np.uint64(5)])
    def test_accepts_any_philox_key(self, seed):
        plan = make_plan([0.5, 0.5], B=3, alpha=0.4, seed=seed)
        prediction_interval(np.eye(3), predict_one_ahead(np.eye(3), KernelSpec()), plan)


class TestDrawPseudoBlocks:
    def test_point_mass(self):
        futures = np.arange(12.0).reshape(3, 4)
        plan = make_plan([1.0, 0.0, 0.0], B=25)
        blocks = draw_pseudo_blocks(plan, futures)
        assert blocks.shape == (25, 4)
        assert np.all(blocks == futures[0])

    def test_multinomial_frequencies(self):
        n_cand = 5
        futures = np.arange(n_cand, dtype=float)[:, None] * np.ones((1, 2))
        plan = make_plan(np.full(n_cand, 1.0 / n_cand), B=40000, seed=77)
        blocks = draw_pseudo_blocks(plan, futures)
        freq = np.array([(blocks[:, 0] == m).mean() for m in range(n_cand)])
        se = np.sqrt((1 / n_cand) * (1 - 1 / n_cand) / 40000)
        assert np.all(np.abs(freq - 1 / n_cand) <= 3 * se)

    def test_fixed_seed_reproducible(self):
        futures = np.random.default_rng(2).normal(size=(6, 8))
        plan = make_plan(np.full(6, 1 / 6), B=200, seed=123)
        b1 = draw_pseudo_blocks(plan, futures)
        b2 = draw_pseudo_blocks(plan, futures)
        np.testing.assert_array_equal(b1, b2)

    def test_weight_count_mismatch(self):
        with pytest.raises(ShapeError):
            draw_pseudo_blocks(make_plan([0.5, 0.5]), np.ones((3, 4)))


class TestWeightedQuantile:
    def test_matches_numpy_on_uniform_weights(self):
        rng = np.random.default_rng(3)
        atoms = rng.normal(size=(7, 5))
        w = np.full(7, 1 / 7)
        for q in (0.025, 0.5, 0.975):
            got = weighted_quantile(atoms, w, q)
            expect = np.quantile(atoms, q, axis=0, method="inverted_cdf")
            np.testing.assert_allclose(got, expect)

    def test_point_mass_weight(self):
        atoms = np.array([[1.0], [2.0], [3.0]])
        w = np.array([0.0, 1.0, 0.0])
        assert weighted_quantile(atoms, w, 0.025)[0] == 2.0
        assert weighted_quantile(atoms, w, 0.975)[0] == 2.0

    @pytest.mark.parametrize("q", [-0.1, 1.5, float("nan")])
    def test_rejects_q_outside_unit_interval(self, q):
        with pytest.raises(ConfigError):
            weighted_quantile(np.arange(6.0).reshape(3, 2), np.full(3, 1 / 3), q)

    # at least one entry is negative, NaN, or the weights do not sum to 1
    @pytest.mark.parametrize("w", [[0.2, 0.2, 0.2], [0.5, 0.7, -0.2],
                                   [0.5, 0.5, float("nan")]])
    def test_rejects_weights_off_the_simplex(self, w):
        with pytest.raises(ConfigError):
            weighted_quantile(np.arange(6.0).reshape(3, 2), np.array(w), 0.9)

    @pytest.mark.parametrize("size", [2, 4])
    def test_rejects_weight_count_mismatch(self, size):
        with pytest.raises(ShapeError):
            weighted_quantile(np.arange(6.0).reshape(3, 2), np.full(size, 1 / size), 0.5)


class TestPredictionInterval:
    def _setup(self, seed=4, n=20, P=12, h=1.0):
        rng = np.random.default_rng(seed)
        hist = rng.normal(size=(n, P)) + 10
        kernel = KernelSpec("gaussian", h)
        center = predict_one_ahead(hist, kernel)
        return hist, center, center.weights

    def test_degenerate_distribution(self):
        seg = np.linspace(1, 2, 8)
        hist = np.tile(seg, (6, 1))
        kernel = KernelSpec("gaussian", 1.0)
        center = predict_one_ahead(hist, kernel)
        plan = make_plan(center.weights, B=300)
        band = prediction_interval(hist, center, plan)
        np.testing.assert_allclose(band.lower, seg, atol=1e-12)
        np.testing.assert_allclose(band.upper, seg, atol=1e-12)

    def test_ordering_and_atom_support(self):
        hist, center, weights = self._setup()
        plan = make_plan(weights, B=2000, seed=9)
        band = prediction_interval(hist, center, plan)
        assert np.all(band.lower <= band.upper)
        futures = hist[1:]
        for i in range(hist.shape[1]):
            assert band.lower[i] in futures[:, i]
            assert band.upper[i] in futures[:, i]

    def test_monte_carlo_matches_exact_oracle(self):
        hist, center, weights = self._setup(seed=5)
        plan = make_plan(weights, B=50000, seed=11)
        mc = prediction_interval(hist, center, plan)
        exact = prediction_interval(hist, center, plan, method="exact")
        futures = hist[1:]
        for i in range(hist.shape[1]):
            gap = np.max(futures[:, i]) - np.min(futures[:, i])
            assert abs(mc.lower[i] - exact.lower[i]) <= 0.005 * gap
            assert abs(mc.upper[i] - exact.upper[i]) <= 0.005 * gap

    def test_small_b_warns(self):
        hist, center, weights = self._setup()
        plan = make_plan(weights, B=10, alpha=0.025)
        with pytest.warns(UserWarning):
            prediction_interval(hist, center, plan)

    def test_unknown_method(self):
        hist, center, weights = self._setup()
        plan = make_plan(weights)
        with pytest.raises(ConfigError):
            prediction_interval(hist, center, plan, method="jackknife")

    def test_unknown_method_checked_before_any_work(self):
        # a too-small B would warn, and bad segments would raise ShapeError;
        # the method is rejected first
        hist, center, weights = self._setup()
        plan = make_plan(weights, B=10, alpha=0.025)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for segments in (hist, [[1.0, 2.0], [3.0]]):
                with pytest.raises(ConfigError, match="jackknife"):
                    prediction_interval(segments, center, plan, method="jackknife")

    def test_determinism(self):
        hist, center, weights = self._setup()
        plan = make_plan(weights, B=777, seed=5)
        b1 = prediction_interval(hist, center, plan)
        b2 = prediction_interval(hist, center, plan)
        np.testing.assert_array_equal(b1.lower, b2.lower)
        np.testing.assert_array_equal(b1.upper, b2.upper)

    def test_fixed_seed_reproducible(self):
        # a plan made afresh with the same seed gives the same bounds
        hist = np.random.default_rng(2).normal(size=(7, 8))
        center = predict_one_ahead(hist, KernelSpec())
        b1, b2 = (prediction_interval(hist, center, make_plan(np.full(6, 1 / 6), B=200,
                                                              alpha=0.1, seed=123))
                  for _ in range(2))
        np.testing.assert_array_equal(b1.lower, b2.lower)
        np.testing.assert_array_equal(b1.upper, b2.upper)

    @pytest.mark.parametrize("method", ["monte-carlo", "exact"])
    def test_weight_count_mismatch(self, method):
        hist = np.ones((4, 4))
        with pytest.raises(ShapeError, match="2 weights for 3 candidates"):
            prediction_interval(hist, predict_one_ahead(hist, KernelSpec()),
                                make_plan([0.5, 0.5]), method=method)


def sorted_draws_quantile(plan, futures, q):
    """The k-th smallest of B drawn pseudo-blocks, by a full sort of the draws."""
    blocks = np.sort(draw_pseudo_blocks(plan, futures), axis=0)
    k = min(max(math.ceil(q * plan.B), 1), plan.B)
    return blocks[k - 1]


def argsort_weighted_quantile(atoms, weights, q):
    """One argsort per quantile: the smallest atom whose cumulative weight reaches q."""
    order = np.argsort(atoms, axis=0, kind="stable")
    cumw = np.cumsum(weights[order], axis=0)
    first = np.argmax(cumw >= q - 1e-12, axis=0)
    return np.take_along_axis(atoms, order, axis=0)[first, np.arange(atoms.shape[1])]


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
    plan = make_plan(weights / weights.sum(), B=B, alpha=alpha, seed=seed)
    center = predict_one_ahead(hist, KernelSpec("gaussian", 1.0))
    futures = hist[1:]
    mc = prediction_interval(hist, center, plan)
    # values only: neither this sort nor the one under test is stable, so
    # which of a tied 0.0 and -0.0 lands at rank k is each sort's choice
    np.testing.assert_array_equal(mc.lower,
                                  sorted_draws_quantile(plan, futures, alpha))
    np.testing.assert_array_equal(mc.upper,
                                  sorted_draws_quantile(plan, futures, 1 - alpha))
    exact = prediction_interval(hist, center, plan, method="exact")
    # both exact paths sort stably, so even the sign of a tied zero agrees
    for got, q in ((exact.lower, alpha), (exact.upper, 1 - alpha)):
        expect = argsort_weighted_quantile(futures, plan.weights, q)
        np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expect))
