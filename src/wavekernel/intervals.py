"""Resampling-based pointwise prediction intervals for the next segment.

Pseudo-realizations of segment n+1 are drawn from the observed
next-segments Z_2..Z_n with probabilities given by the normalized
similarity weights.  Residuals of the pseudo-blocks around the point
predictor give per-time-point quantiles, which shifted back by the
predictor yield the interval bounds.  Since the same curve is
subtracted and added, the bounds equal quantiles of the pseudo-block
values directly.

Both methods take one type-1 quantile (inverse empirical CDF) of a
discrete distribution over the n-1 observed next-segments: the
"exact" method weighs each by its similarity weight, the Monte Carlo
default by how often B seeded draws picked it, over the drawn ones only.
The k-th smallest of the B drawn values is the first sorted one whose
cumulative draw count reaches k, so no pseudo-block matrix is built.
Every bound is an observed past-segment value, and results are
bit-reproducible for a fixed seed.  The generator is Philox
(counter-based) keyed by the seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientHistoryError, ShapeError
from .predictor import (
    KernelSpec,
    PipelineConfig,
    PredictionResult,
    _is_int,
    predict_one_ahead,
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


def _check_weights(w: np.ndarray) -> None:
    if np.any(w < 0) or np.any(w > 1) or not abs(w.sum() - 1.0) <= 1e-12:
        raise ConfigError("weights must lie in [0,1] and sum to 1")


@dataclass(frozen=True)
class ResamplingPlan:
    """How to draw pseudo-blocks: count, tail mass, seed and weights."""

    B: int
    alpha: float
    seed: int
    weights: np.ndarray

    def __post_init__(self):
        if not _is_int(self.B) or self.B < 1:  # rng.choice takes an int size
            raise ConfigError(f"B must be an int >= 1, got {self.B!r}")
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        # Philox's key range
        if not _is_int(self.seed) or not 0 <= int(self.seed) < 1 << 128:
            raise ConfigError(f"seed must be an int in [0, 2**128), got {self.seed!r}")
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ShapeError("weights must be a nonempty vector")
        _check_weights(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class PredictionInterval:
    """Pointwise lower/upper bounds for the next segment."""

    lower: np.ndarray
    upper: np.ndarray


def resample_weights(history, kernel: KernelSpec,
                     config: PipelineConfig = PipelineConfig()) -> np.ndarray:
    """Normalized similarity weights of the n-1 past segments.

    ``history`` holds segments 1..n (or a prepared ``History``); the weight
    of segment m reflects how close its pyramid is to the current
    segment's pyramid.  These are the weights of :func:`predict_one_ahead`.
    """
    return predict_one_ahead(history, kernel, config).weights


def _draw(plan: ResamplingPlan, m: int) -> np.ndarray:
    """Indices of B seeded i.i.d. draws from 0..m-1 with the plan's weights."""
    rng = np.random.Generator(np.random.Philox(key=plan.seed))
    return rng.choice(m, size=plan.B, p=plan.weights)


def draw_pseudo_blocks(plan: ResamplingPlan, future_segments) -> np.ndarray:
    """Draw B pseudo-blocks i.i.d. from Z_2..Z_n with the plan's weights."""
    futures = np.asarray(future_segments, dtype=float)
    if futures.ndim != 2 or futures.shape[0] != plan.weights.size:
        raise ShapeError(
            f"expected {plan.weights.size} future segments, got shape {futures.shape}"
        )
    return futures[_draw(plan, futures.shape[0])]


def _type1_quantiles(atoms, mass, thresholds, kind="stable") -> list:
    """Per column, the smallest atom whose cumulative mass reaches each threshold.

    ``atoms`` has one row per support point and ``mass`` one entry per row.
    Equal atoms differ only in the sign of a tied zero, which a stable
    ``kind`` of argsort takes from the first such row.
    """
    order = np.argsort(atoms, axis=0, kind=kind)
    cum = np.cumsum(mass[order], axis=0)
    cols = np.arange(atoms.shape[1])
    return [atoms[order[np.argmax(cum >= t, axis=0), cols], cols] for t in thresholds]


def weighted_quantile(atoms: np.ndarray, weights: np.ndarray, q: float) -> np.ndarray:
    """Exact type-1 quantile of a discrete column-wise distribution.

    ``atoms`` has one row per support point (columns are time points) and
    ``weights`` one entry per row, in [0, 1] and summing to 1; returns,
    per column, the smallest atom whose cumulative weight reaches q.
    """
    atoms = np.asarray(atoms, dtype=float)
    w = np.asarray(weights, dtype=float)
    if atoms.ndim != 2 or w.ndim != 1 or not 0 < w.size == atoms.shape[0]:
        raise ShapeError(
            f"need one weight per atom row, got weights {w.shape} for atoms {atoms.shape}"
        )
    _check_weights(w)
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"q must lie in [0, 1], got {q}")
    return _type1_quantiles(atoms, w, [q - 1e-12])[0]


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
    if plan.B < 1.0 / plan.alpha:  # inf for a subnormal alpha
        warnings.warn(
            f"B={plan.B} draws resolve the {plan.alpha} tail poorly (need B >= 1/alpha)",
            stacklevel=2,
        )
    qs = (plan.alpha, 1.0 - plan.alpha)
    if method == "exact":
        lower, upper = _type1_quantiles(futures, plan.weights, [q - 1e-12 for q in qs])
    elif method == "monte-carlo":
        # the k-th smallest of the B draws, off the counts of the drawn rows;
        # unstable like a sort of the draws, so a tied zero's sign is open
        counts = np.bincount(_draw(plan, futures.shape[0]))
        drawn = np.flatnonzero(counts)
        ranks = [min(max(math.ceil(q * plan.B), 1), plan.B) for q in qs]
        lower, upper = _type1_quantiles(futures[drawn], counts[drawn], ranks, kind=None)
    else:
        raise ConfigError(f"unknown interval method {method!r}")
    return PredictionInterval(lower=lower, upper=upper)
