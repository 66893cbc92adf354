"""Resampling-based pointwise prediction intervals for the next segment.

Pseudo-realizations of segment n+1 are drawn from the observed
next-segments Z_2..Z_n with probabilities given by the forecast's
normalized similarity weights.  Residuals of the pseudo-blocks around
the point predictor give per-time-point quantiles, which shifted back
by the predictor yield the interval bounds.  Since the same curve is
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

from .errors import (_ALPHAS, _MAX_SIZE, _MIN_B, _SEEDS, ConfigError, ShapeError, _choice,
                     _floats, _int, _real)
from .predictor import _SCRATCH, PredictionResult, _segment_rows

__all__ = [
    "ResamplingPlan",
    "PredictionInterval",
    "prediction_interval",
]


@dataclass(frozen=True)
class ResamplingPlan:
    """How to draw pseudo-blocks: count, tail mass and seed."""

    B: int
    alpha: float
    seed: int

    def __post_init__(self):
        _int(self.B, "B", _MIN_B, _MAX_SIZE)  # rng.choice takes an int size
        _real(self.alpha, "alpha", *_ALPHAS)
        _int(self.seed, "seed", *_SEEDS)


@dataclass(frozen=True)
class PredictionInterval:
    """Pointwise lower/upper bounds for the next segment."""

    lower: np.ndarray
    upper: np.ndarray


def _type1_quantiles(atoms, mass, thresholds, kind="stable", rows=slice(None)) -> list:
    """Per column, the smallest atom whose cumulative mass reaches each threshold.

    A threshold past a column's total mass (weights may sum to 1 - 1e-12)
    reads as that total: the largest atom that carries mass.  One at or
    below zero reads as the least positive double: the smallest atom that
    carries mass, never one of weight zero.

    The support points are the rows ``atoms[rows]``, one ``mass`` entry
    each.  Equal atoms differ only in the sign of a tied zero, which a
    stable ``kind`` of argsort takes from the first such row.  Columns go
    in chunks of about _SCRATCH support values (one chunk when few rows
    are drawn), each read by index and sorted and summed on its own, so a
    column sees the same operations in any chunk.
    """
    step = max(1, _SCRATCH // mass.size)
    chunks = [_chunk_quantiles(atoms[rows, c:c + step], mass, thresholds, kind)
              for c in range(0, atoms.shape[1] or 1, step)]  # zero columns: one chunk
    return [np.concatenate(q) for q in zip(*chunks)]


def _chunk_quantiles(atoms, mass, thresholds, kind) -> list:
    """:func:`_type1_quantiles` of every row of ``atoms`` at once."""
    order = np.argsort(atoms, axis=0, kind=kind)
    cum = mass[order]
    np.cumsum(cum, axis=0, out=cum)
    cols = np.arange(atoms.shape[1])
    return [atoms[order[np.argmax(cum >= np.minimum(max(t, math.ulp(0.0)), cum[-1]),
                                  axis=0), cols], cols]
            for t in thresholds]


def prediction_interval(segments, center: PredictionResult, plan: ResamplingPlan,
                        method: str = "monte-carlo") -> PredictionInterval:
    """Pointwise (1 - 2*alpha) interval around the kernel predictor.

    ``method`` is "monte-carlo" (B seeded draws with ``center.weights``, the
    default) or "exact" (quantiles over the n-1 observed next-segments of n >= 2
    ``segments``, weighted by them, the B -> infinity limit).  Only Monte
    Carlo warns when B < 1/alpha; "exact" draws nothing.
    """
    _choice(method, "interval method", {"exact", "monte-carlo"})
    futures = _segment_rows(segments, 2)[1:]
    m, P = futures.shape
    w = _floats(center.weights, "center weights")
    if w.shape != (m,):
        raise ShapeError(f"center has {w.size} weights for {m} candidates")
    if np.any(w < 0) or np.any(w > 1) or not abs(w.sum() - 1.0) <= 1e-12:
        raise ConfigError("weights must lie in [0,1] and sum to 1")
    if np.size(center.curve) != P:
        raise ShapeError(
            f"center curve has {np.size(center.curve)} points, segments have {P}")
    qs = (plan.alpha, 1.0 - plan.alpha)
    if method == "exact":
        lower, upper = _type1_quantiles(futures, w, [q - 1e-12 for q in qs])
    else:
        if plan.B < 1.0 / plan.alpha:  # inf for a subnormal alpha
            warnings.warn(
                f"B={plan.B} draws resolve the {plan.alpha} tail poorly (need B >= 1/alpha)",
                stacklevel=2,
            )
        # the k-th smallest of the B draws, k = ceil(qB) in [1, B], off the drawn
        # rows' counts; unstable like a sort of the draws: a tied zero's sign is open
        rng = np.random.Generator(np.random.Philox(key=plan.seed))
        counts = np.bincount(rng.choice(m, size=plan.B, p=w))
        drawn = np.flatnonzero(counts)
        ranks = [math.ceil(q * plan.B) for q in qs]
        lower, upper = _type1_quantiles(futures, counts[drawn], ranks, kind=None,
                                        rows=drawn)
    return PredictionInterval(lower=lower, upper=upper)
