"""Resampling-based pointwise prediction intervals for the next segment.

Pseudo-realizations of segment n+1 are drawn from the observed
next-segments Z_2..Z_n with probabilities given by the normalized
similarity weights.  Residuals of the pseudo-blocks around the point
predictor give per-time-point quantiles, which shifted back by the
predictor yield the interval bounds.  Since the same curve is
subtracted and added, the bounds equal quantiles of the pseudo-block
values directly; an exact weighted-quantile mode exploiting this is
available alongside the Monte Carlo default.

Quantiles use the inverse empirical CDF (type 1), so every bound is an
observed past-segment value and results are bit-reproducible for a
fixed seed.  The generator is Philox (counter-based) keyed by the seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientHistoryError, ShapeError
from .predictor import (
    History,
    KernelSpec,
    PipelineConfig,
    PredictionResult,
    kernel_eval,
    normalized_weights,
    scaling_coefficients,
)

__all__ = [
    "ResamplingPlan",
    "PredictionInterval",
    "resample_weights",
    "draw_pseudo_blocks",
    "prediction_interval",
    "weighted_quantile",
]


@dataclass(frozen=True)
class ResamplingPlan:
    """How to draw pseudo-blocks: count, tail mass, seed and weights."""

    B: int
    alpha: float
    seed: int
    weights: np.ndarray

    def __post_init__(self):
        if self.B < 1:
            raise ConfigError(f"B must be >= 1, got {self.B}")
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ShapeError("weights must be a nonempty vector")
        if np.any(w < 0) or np.any(w > 1) or abs(w.sum() - 1.0) > 1e-12:
            raise ConfigError("weights must lie in [0,1] and sum to 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class PredictionInterval:
    """Pointwise lower/upper bounds for the next segment."""

    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    B_used: int


def resample_weights(history, kernel: KernelSpec,
                     config: PipelineConfig = PipelineConfig()) -> np.ndarray:
    """Normalized similarity weights of the n-1 past segments.

    ``history`` holds the scaling-coefficient vectors (or raw segments)
    of segments 1..n; the weight of segment m reflects how close its
    pyramid is to the current segment's pyramid.
    """
    X, P = scaling_coefficients(history)
    n = X.shape[0]
    if n < 2:
        raise InsufficientHistoryError(f"need at least 2 segments, got {n}")
    dists = next(History(X, P, config).rows(n - 1, n))[2][0]
    k = kernel_eval(kernel, dists / kernel.bandwidth)
    return normalized_weights(k, n)


def draw_pseudo_blocks(plan: ResamplingPlan, future_segments) -> np.ndarray:
    """Draw B pseudo-blocks i.i.d. from Z_2..Z_n with the plan's weights."""
    futures = np.asarray(future_segments, dtype=float)
    if futures.ndim != 2 or futures.shape[0] != plan.weights.size:
        raise ShapeError(
            f"expected {plan.weights.size} future segments, got shape {futures.shape}"
        )
    rng = np.random.Generator(np.random.Philox(key=plan.seed))
    idx = rng.choice(futures.shape[0], size=plan.B, p=plan.weights)
    return futures[idx]


def _ecdf_quantile(sorted_cols: np.ndarray, q: float) -> np.ndarray:
    """Type-1 quantile per column of a row-sorted matrix."""
    b = sorted_cols.shape[0]
    k = max(int(math.ceil(q * b)), 1)
    k = min(k, b)
    return sorted_cols[k - 1]


def weighted_quantile(atoms: np.ndarray, weights: np.ndarray, q: float) -> np.ndarray:
    """Exact type-1 quantile of a discrete column-wise distribution.

    ``atoms`` has one row per support point (columns are time points);
    returns, per column, the smallest atom whose cumulative weight
    reaches q.
    """
    atoms = np.asarray(atoms, dtype=float)
    order = np.argsort(atoms, axis=0, kind="stable")
    sorted_atoms = np.take_along_axis(atoms, order, axis=0)
    w = np.asarray(weights, dtype=float)[order]
    cumw = np.cumsum(w, axis=0)
    mask = cumw >= q - 1e-12
    first = np.argmax(mask, axis=0)
    return sorted_atoms[first, np.arange(atoms.shape[1])]


def prediction_interval(segments, center: PredictionResult, plan: ResamplingPlan,
                        method: str = "monte-carlo") -> PredictionInterval:
    """Pointwise (1 - 2*alpha) interval around the kernel predictor.

    ``method`` is "monte-carlo" (B seeded draws, the default) or
    "exact" (weighted quantiles over the n-1 observed next-segments,
    equivalent to the B -> infinity limit).
    """
    X, P = scaling_coefficients(segments)
    if X.shape[0] < 2:
        raise InsufficientHistoryError("need at least 2 segments")
    futures = X[1:, :P]
    if futures.shape[0] != plan.weights.size:
        raise ShapeError(
            f"plan has {plan.weights.size} weights for {futures.shape[0]} candidates"
        )
    curve = np.asarray(center.curve, dtype=float)
    if curve.size != P:
        raise ShapeError(f"center curve has {curve.size} points, segments have {P}")
    if plan.B < math.ceil(1.0 / plan.alpha):
        warnings.warn(
            f"B={plan.B} draws resolve the {plan.alpha} tail poorly "
            f"(need at least {math.ceil(1.0 / plan.alpha)})",
            stacklevel=2,
        )
    if method == "exact":
        lower = weighted_quantile(futures, plan.weights, plan.alpha)
        upper = weighted_quantile(futures, plan.weights, 1.0 - plan.alpha)
    elif method == "monte-carlo":
        blocks = draw_pseudo_blocks(plan, futures)
        # residual quantiles shifted back by the center curve reduce to
        # quantiles of the pseudo-block values themselves; computing them
        # directly keeps every bound an observed past-segment value
        sorted_blocks = np.sort(blocks, axis=0)
        lower = _ecdf_quantile(sorted_blocks, plan.alpha)
        upper = _ecdf_quantile(sorted_blocks, 1.0 - plan.alpha)
    else:
        raise ConfigError(f"unknown interval method {method!r}")
    return PredictionInterval(lower=lower, upper=upper, alpha=plan.alpha,
                              B_used=plan.B if method == "monte-carlo" else 0)
