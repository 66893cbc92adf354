"""Scoring, rolling evaluation, baselines and synthetic test processes."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InsufficientHistoryError, InvalidInputError
from .predictor import KernelSpec, PipelineConfig, _history, predict_one_ahead

__all__ = [
    "rmae",
    "rolling_eval",
    "naive_seasonal",
    "wk_method",
    "gen_synthetic",
    "split_segments",
    "summarize",
]


def rmae(pred, truth, zero_floor: float | None = None):
    """Mean over the last axis of |pred - truth| / |truth|.

    ``pred`` and ``truth`` are one block of P points, giving a float, or
    a stack of blocks (..., P), giving one score per block.  Truth values
    of exactly zero make the ratio undefined; by default that is an error
    naming the offending block and index, or pass ``zero_floor`` to clamp
    |truth| from below.
    """
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise ConfigError(f"shape mismatch: pred {p.shape} vs truth {t.shape}")
    if t.ndim == 0 or t.shape[-1] == 0:
        raise ConfigError(f"need blocks of at least one point, got shape {t.shape}")
    denom = np.abs(t)
    if zero_floor is not None:
        denom = np.maximum(denom, zero_floor)
    elif np.any(denom == 0):
        *block, idx = np.argwhere(denom == 0)[0].tolist()
        at = f"index {idx}"
        if block:
            at = f"block {block[0] if len(block) == 1 else tuple(block)}, {at}"
        raise InvalidInputError(
            f"truth value is zero at {at}; relative error undefined "
            "(pass zero_floor to clamp)"
        )
    scores = (np.abs(p - t) / denom).mean(axis=-1)
    return float(scores) if scores.ndim == 0 else scores


def split_segments(series, P: int, drop_remainder: bool = False) -> np.ndarray:
    """Cut a series into consecutive length-P segments.

    A 2-d array is read as its values in order, so (n, P) segments come
    back as they are.
    """
    x = np.asarray(series, dtype=float).reshape(-1)
    if P < 2:
        raise ConfigError(f"segment length must be >= 2, got {P}")
    rem = x.size % P
    if rem:
        if not drop_remainder:
            raise ConfigError(
                f"series length {x.size} is not a multiple of P={P} "
                f"({rem} trailing values); pass drop_remainder to discard them"
            )
        x = x[: x.size - rem]
    if x.size == 0:
        raise ConfigError("series has no complete segments")
    return x.reshape(-1, P)


def naive_seasonal(segments) -> np.ndarray:
    """Forecast the next segment by repeating the last observed one.

    ``segments`` is a sequence of past segments (a list, or the rows of
    an array).
    """
    if len(segments) == 0:
        raise InsufficientHistoryError("empty history")
    return np.asarray(segments[-1], dtype=float)


def wk_method(kernel: KernelSpec, config: PipelineConfig = PipelineConfig()):
    """Wrap the wavelet-kernel predictor as a rolling-eval method.

    ``method.batch(segments, start)`` returns the forecasts of segments
    start..n-1, each from the segments before it, in one causal pass of
    the predictor instead of one fit per origin.
    """

    def method(history):
        return predict_one_ahead(history, kernel, config=config).curve

    def batch(segments, start):
        if start < 2:
            raise InsufficientHistoryError(f"need at least 2 segments, got {start}")
        history = _history(segments, config)
        n = len(history)
        out = np.empty((n - start, history.P))
        hs = np.array([kernel.bandwidth])
        for r0, r1, F, _ in history.forecasts(hs, kernel.family, "normalized",
                                              start - 1, n - 1):
            out[r0 + 1 - start:r1 + 1 - start] = F[0]
        return out

    method.batch = batch
    return method


def rolling_eval(series, P: int, method, min_history: int = 2) -> np.ndarray:
    """Rolling-origin evaluation: fit on each prefix, score the next segment.

    ``method`` is a callable mapping a sequence of past segments (the
    rows of an array view) to a length-P forecast; it only ever sees
    segments strictly before the one being scored.  A method with a
    ``batch(segments, start)`` attribute (see :func:`wk_method`) gives
    all forecasts in one call.  Returns the :func:`rmae` of every origin
    min_history..n-1, in order, from one call on the stacked forecasts.
    """
    segs = split_segments(series, P)
    n = segs.shape[0]
    if n < min_history + 1:
        raise ConfigError(
            f"need at least {min_history + 1} segments, got {n}"
        )
    if hasattr(method, "batch"):
        preds = method.batch(segs, min_history)
    else:
        preds = [np.asarray(method(segs[:i]), dtype=float) for i in range(min_history, n)]
        for i, pred in enumerate(preds, start=min_history):
            if pred.shape != (P,):  # else stacking fails untyped or misaligns
                raise ConfigError(f"forecast of segment {i} has shape {pred.shape}, "
                                  f"expected ({P},)")
    return rmae(preds, segs[min_history:])


def summarize(scores) -> dict:
    """Median/mean aggregate of rolling-eval scores."""
    vals = np.asarray(scores, dtype=float)
    return {
        "count": int(vals.size),
        "mean_rmae": float(vals.mean()),
        "median_rmae": float(np.median(vals)),
    }


def _seasonal_profile(P: int) -> np.ndarray:
    t = np.arange(P)
    return 10.0 + 2.0 * np.sin(2 * np.pi * t / P) + 0.7 * np.sin(4 * np.pi * t / P + 1.0)


def gen_synthetic(kind: str, n: int, P: int, noise: float, seed: int,
                  ar_coef: float = 0.6, contraction: float = 0.5) -> np.ndarray:
    """Generate a stationary segmented test series of n length-P blocks.

    ``seasonal_ar``: fixed seasonal profile plus AR(1) noise running
    across the whole series (stationary initial state).

    ``markov_functional``: blocks follow Z_{i+1} = base + g(Z_i - base)
    + noise, where g contracts deviations by ``contraction`` and
    smooths them with a mean-preserving circular average, so segment
    means follow an AR(1) with that coefficient.
    """
    if n < 1 or P < 2 or noise < 0:
        raise ConfigError("need n >= 1, P >= 2, noise >= 0")
    rng = np.random.Generator(np.random.Philox(key=seed))
    if kind == "seasonal_ar":
        profile = np.tile(_seasonal_profile(P), n)
        e = np.empty(n * P)
        if noise == 0:
            return profile
        e0 = rng.normal(0.0, noise / np.sqrt(1 - ar_coef**2))
        innov = rng.normal(0.0, noise, size=n * P)
        prev = e0
        for t in range(n * P):
            prev = ar_coef * prev + innov[t]
            e[t] = prev
        return profile + e
    if kind == "markov_functional":
        base = _seasonal_profile(P)
        t = np.arange(P)
        # innovations live in a low-dimensional smooth subspace so the
        # block-to-block dependence is actually learnable from finite n
        modes = np.stack([
            np.ones(P),
            np.sin(2 * np.pi * t / P),
            np.cos(2 * np.pi * t / P),
        ])
        smooth_kernel = np.array([0.25, 0.5, 0.25])

        def innovate():
            return rng.normal(0.0, noise, size=3) @ modes if noise > 0 else 0.0

        segs = np.empty((n, P))
        dev = np.zeros(P) + innovate()
        segs[0] = base + dev
        for i in range(1, n):
            smoothed = sum(
                w * np.roll(dev, s) for w, s in zip(smooth_kernel, (-1, 0, 1))
            )
            dev = contraction * smoothed + innovate()
            segs[i] = base + dev
        return segs.reshape(-1)
    raise ConfigError(f"unknown generator kind {kind!r}")
