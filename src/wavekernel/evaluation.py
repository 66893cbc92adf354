"""Scoring, rolling evaluation, baselines and synthetic test processes."""

from __future__ import annotations

import numpy as np

from .errors import (_MAX_SIZE, _MIN_P, _SEEDS, ConfigError, InsufficientHistoryError,
                     InvalidInputError, _choice, _finite, _floats, _int, _real)
from .predictor import KernelSpec, _finite_forecast, _history, _segment_rows

__all__ = [
    "rmae",
    "rolling_eval",
    "naive_seasonal",
    "wk_method",
    "gen_synthetic",
    "split_segments",
    "summarize",
]


def _mean(x: np.ndarray) -> np.ndarray:
    """The mean over the last axis, finite wherever a double holds it, even
    where the sum behind it is not."""
    with np.errstate(over="ignore"):  # an overflowing sum is taken again below
        mean = np.asarray(x.mean(axis=-1))
        over = ~np.isfinite(mean)
        if over.any():
            # a sum past the largest double: the mean of the values scaled by
            # 2**-e, e the exponent of the largest magnitude, times 2**e
            big = x[over]
            e = np.frexp(np.abs(big).max(axis=-1))[1]
            mean[over] = np.ldexp(np.ldexp(big, -e[:, None]).mean(axis=-1), e)
    return mean


def rmae(pred, truth):
    """Mean over the last axis of |pred - truth| / |truth|.

    ``pred`` and ``truth`` are one block of P points, giving a float, or
    a stack of blocks (..., P), giving one score per block.  Truth values
    of exactly zero make the ratio undefined: an error naming the
    offending block and index.  A score is returned whenever a double
    holds it, even if the sum behind it does not; a relative error or a
    score past the largest double is an error naming the first such
    block, without a RuntimeWarning, whose ``block`` attribute is that
    block's index.
    """
    p = _floats(pred, "pred")
    t = _floats(truth, "truth")
    if p.shape != t.shape:
        raise ConfigError(f"shape mismatch: pred {p.shape} vs truth {t.shape}")
    if t.ndim == 0 or t.shape[-1] == 0:
        raise ConfigError(f"need blocks of at least one point, got shape {t.shape}")
    _finite("pred and truth", p, t)
    denom = np.abs(t)
    if np.any(denom == 0):
        *block, idx = np.argwhere(denom == 0)[0].tolist()
        at = f"index {idx}"
        if block:
            at = f"block {block[0] if len(block) == 1 else tuple(block)}, {at}"
        raise InvalidInputError(f"truth value is zero at {at}; relative error undefined")
    with np.errstate(over="ignore"):  # checked below
        scores = _mean(np.abs(p - t) / denom)
    if not np.isfinite(scores).all():
        block = np.argwhere(~np.isfinite(scores))[0].tolist()
        at = f" of block {block[0] if len(block) == 1 else tuple(block)}" if block else ""
        err = InvalidInputError(f"relative error{at} overflows a double")
        err.block = tuple(block)  # so a caller can name the block its own way
        raise err
    return float(scores) if scores.ndim == 0 else scores


def split_segments(series, P: int, drop_remainder: bool = False) -> np.ndarray:
    """Cut a series into consecutive length-P segments.

    A 2-d array is read as its values in order, so (n, P) segments come
    back as they are.
    """
    _int(P, "segment length", _MIN_P)
    _choice(drop_remainder, "drop_remainder", {False, True})
    x = _floats(series, "series").reshape(-1)
    _finite("series", x)
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


def naive_seasonal(segments, start: int) -> np.ndarray:
    """Forecast each segment by repeating the one before it.

    Returns the forecasts at origins start..n, each of the block after
    the first ``origin`` segments: segments start-1..n-1, of n >= start
    rows checked as :class:`~wavekernel.predictor.History` checks them, count first.
    """
    _int(start, "start", 1, error=InsufficientHistoryError)
    return _segment_rows(segments, start)[start - 1:]


def wk_method(kernel: KernelSpec):
    """Wrap the wavelet-kernel predictor as a rolling-eval method.

    ``method(segments, start)`` returns the forecasts at origins
    start..n, each of the block after the first ``origin`` segments, in
    one causal pass of the predictor instead of one fit per origin.  Its
    last row forecasts the block after the final segment, and is
    ``predict_one_ahead(segments, kernel).curve`` bit for bit.
    ``segments`` is as in :func:`~wavekernel.predictor.predict_one_ahead`:
    a :class:`~wavekernel.predictor.History` sets the pipeline config.  A
    forecast past the largest double is an InvalidInputError, as there.
    """

    def method(segments, start):
        _int(start, "start", 2, error=InsufficientHistoryError)
        history = _history(segments, start)
        n = len(history)
        out = np.empty((n - start + 1, history.P))
        hs = np.array([kernel.bandwidth])
        for r0, r1, F, _ in history.forecasts(hs, kernel.family, "normalized",
                                              start - 1, n):
            out[r0 + 1 - start:r1 + 1 - start] = F[0]
        _finite_forecast(out)
        return out

    return method


def rolling_eval(segments, method, min_history: int = 2) -> np.ndarray:
    """Rolling-origin evaluation: score each segment's forecast from the ones before.

    ``segments`` are n >= min_history + 1 rows, checked as
    :class:`~wavekernel.predictor.History` checks them, count first.
    ``method(segments, start)`` returns the forecasts at origins start..n,
    one row each, and forecasts origin t from ``segments[:t]`` alone, as
    :func:`wk_method` and :func:`naive_seasonal` do.  It is called once,
    with start ``min_history``.  Returns the :func:`rmae` of every origin
    min_history..n-1, in order; the last row, the forecast of the block
    after the final segment, has no truth.
    """
    _int(min_history, "min_history", 1)
    segs = _segment_rows(segments, min_history + 1)
    return rmae(method(segs, min_history)[:-1], segs[min_history:])


def summarize(scores) -> dict:
    """Count, mean and median of a nonempty 1-d array of finite scores.

    The median is the middle score, or the mean of the two middle scores,
    taken as ``np.median`` takes it (a partition, then the mean of the
    middle slice) and equal to it bit for bit, without the NaN check that
    imports ``numpy.ma``.  A summary of finite scores is finite.
    """
    vals = _floats(scores, "scores")
    if vals.ndim != 1 or vals.size == 0:
        raise InvalidInputError(f"need a nonempty 1-d array of scores, got shape {vals.shape}")
    _finite("scores", vals)
    lo, hi = (vals.size - 1) // 2, vals.size // 2  # the one or two middle scores
    return {
        "count": int(vals.size),
        "mean_rmae": float(_mean(vals)),
        "median_rmae": float(_mean(np.partition(vals, [lo, hi])[lo:hi + 1])),
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

    ``ar_coef`` and ``contraction`` lie in (-1, 1), where the series is
    stationary, and the seed keys a Philox generator.  A noise level whose
    series overflows a double is a ConfigError, without a RuntimeWarning.
    At one seed, the series minus its ``noise=0`` profile scales with
    ``noise``, as do the block distances, the auto bandwidth grid and the h
    CV picks from it.  So a noise sweep at one seed only rescales every
    error and cannot change which candidate wins: vary the seed or the
    generator instead.
    """
    _choice(kind, "generator kind", {"seasonal_ar", "markov_functional"})
    _int(n, "n", 1)
    _int(P, "P", _MIN_P)
    _int(int(n) * int(P), "series length n * P", _MIN_P, _MAX_SIZE)
    _real(noise, "noise", 0, closed=True)
    _int(seed, "seed", *_SEEDS)
    _real(ar_coef, "ar_coef of a stationary series", -1, 1)
    _real(contraction, "contraction of a stationary series", -1, 1)
    rng = np.random.Generator(np.random.Philox(key=seed))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if kind == "seasonal_ar":
            series = np.tile(_seasonal_profile(P), n)
            if noise > 0:
                e = np.empty(n * P)
                e0 = rng.normal(0.0, noise / np.sqrt(1 - ar_coef**2))
                innov = rng.normal(0.0, noise, size=n * P)
                prev = e0
                for t in range(n * P):
                    prev = ar_coef * prev + innov[t]
                    e[t] = prev
                series = series + e
        else:
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
            series = segs.reshape(-1)
    if not np.isfinite(series).all():
        raise ConfigError(f"noise={noise!r} overflows the series; lower it")
    return series
