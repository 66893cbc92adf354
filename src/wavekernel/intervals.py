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

from .errors import (_ALPHAS, _MIN_B, _SEEDS, ConfigError, InsufficientHistoryError,
                     ShapeError, _choice, _finite, _floats, _int, _real)
from .predictor import PredictionResult, _segment_rows

__all__ = [
    "ResamplingPlan",
    "PredictionInterval",
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
        _int(self.B, "B", _MIN_B)  # rng.choice takes an int size
        _real(self.alpha, "alpha", *_ALPHAS)
        _int(self.seed, "seed", *_SEEDS)
        w = _floats(self.weights, "weights").copy()
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


def _draw(plan: ResamplingPlan, m: int) -> np.ndarray:
    """Indices of B seeded i.i.d. draws from 0..m-1 with the plan's weights."""
    rng = np.random.Generator(np.random.Philox(key=plan.seed))
    return rng.choice(m, size=plan.B, p=plan.weights)


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
    atoms = _floats(atoms, "atoms")
    w = _floats(weights, "weights")
    if atoms.ndim != 2 or w.ndim != 1 or not 0 < w.size == atoms.shape[0]:
        raise ShapeError(
            f"need one weight per atom row, got weights {w.shape} for atoms {atoms.shape}"
        )
    _check_weights(w)
    _real(q, "q", 0, 1, closed=True)
    _finite("atoms", atoms)
    return _type1_quantiles(atoms, w, [q - 1e-12])[0]


def prediction_interval(segments, center: PredictionResult, plan: ResamplingPlan,
                        method: str = "monte-carlo") -> PredictionInterval:
    """Pointwise (1 - 2*alpha) interval around the kernel predictor.

    ``method`` is "monte-carlo" (B seeded draws, the default) or
    "exact" (weighted quantiles over the n-1 observed next-segments,
    equivalent to the B -> infinity limit).
    """
    _choice(method, "interval method", {"exact", "monte-carlo"})
    futures = _segment_rows(segments)[1:]
    m, P = futures.shape
    if m == 0:
        raise InsufficientHistoryError("need at least 2 segments")
    if m != plan.weights.size:
        raise ShapeError(f"plan has {plan.weights.size} weights for {m} candidates")
    if np.size(center.curve) != P:
        raise ShapeError(
            f"center curve has {np.size(center.curve)} points, segments have {P}")
    if plan.B < 1.0 / plan.alpha:  # inf for a subnormal alpha
        warnings.warn(
            f"B={plan.B} draws resolve the {plan.alpha} tail poorly (need B >= 1/alpha)",
            stacklevel=2,
        )
    qs = (plan.alpha, 1.0 - plan.alpha)
    if method == "exact":
        lower, upper = _type1_quantiles(futures, plan.weights, [q - 1e-12 for q in qs])
    else:
        # the k-th smallest of the B draws, off the counts of the drawn rows;
        # unstable like a sort of the draws, so a tied zero's sign is open
        counts = np.bincount(_draw(plan, m))
        drawn = np.flatnonzero(counts)
        ranks = [min(max(math.ceil(q * plan.B), 1), plan.B) for q in qs]
        lower, upper = _type1_quantiles(futures[drawn], counts[drawn], ranks, kind=None)
    return PredictionInterval(lower=lower, upper=upper)
