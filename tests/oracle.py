"""Reference code the tests compare the library against, and nothing else calls.

The object API of the paper's multiscale distance, one pyramid per
segment (``Segment``, ``WaveletPyramid``, ``pad_to_pow2``,
``forward_dwt``, ``scale_distance``, ``combined_distance``), is
re-exported here from ``wavekernel.wavelet`` and ``wavekernel.similarity``,
which ``wavekernel`` itself does not export; tests take it from this
module only.

The inverse lifting transform checks perfect reconstruction of the
forward one.  ``draw_pseudo_blocks`` builds the B x P pseudo-block matrix
that ``prediction_interval`` never forms; a full sort of it gives the
Monte Carlo bounds the library takes off draw counts.  It makes its own
seeded draw, so it does not share the library's sampling code.
``quantile_grid`` is the auto bandwidth grid read off ``np.quantile``.
``per_origin`` is the rolling forecast stack made one prefix at a time.
"""

import math

import numpy as np

from wavekernel import ShapeError
from wavekernel.errors import _floats
from wavekernel.similarity import combined_distance, scale_distance
from wavekernel.wavelet import (DEFAULT_FILTER, Segment, WaveletPyramid, _predict_odds,
                                forward_dwt, pad_to_pow2)

__all__ = ["Segment", "WaveletPyramid", "pad_to_pow2", "forward_dwt", "scale_distance",
           "combined_distance", "inverse_array", "inverse_dwt", "draw_pseudo_blocks",
           "quantile_grid", "per_origin"]


def inverse_array(coarse: np.ndarray, details: dict[int, np.ndarray],
                  filter_id: str = DEFAULT_FILTER) -> np.ndarray:
    """Inverse of :func:`wavekernel.wavelet.forward_array`."""
    s = np.asarray(coarse, dtype=float)
    for j in sorted(details):
        d = np.asarray(details[j], dtype=float)
        if d.shape[-1] != s.shape[-1]:
            raise ShapeError(
                f"detail scale {j} has {d.shape[-1]} entries, expected {s.shape[-1]}"
            )
        odd = d + _predict_odds(s.T, filter_id).T
        out = np.empty(s.shape[:-1] + (2 * s.shape[-1],), dtype=float)
        out[..., 0::2] = s
        out[..., 1::2] = odd
        s = out
    return s


def inverse_dwt(pyramid: WaveletPyramid) -> Segment:
    """Reconstruct the sample values encoded by a pyramid."""
    details = {pyramid.j0 + i: d for i, d in enumerate(pyramid.details)}
    values = inverse_array(pyramid.coarse, details, filter_id=pyramid.filter_id)
    return Segment(values)


def draw_pseudo_blocks(plan, weights, future_segments) -> np.ndarray:
    """Draw the plan's B pseudo-blocks i.i.d. from Z_2..Z_n with ``weights``."""
    futures = _floats(future_segments, "future_segments")
    w = _floats(weights, "weights")
    if futures.ndim != 2 or w.shape != futures.shape[:1]:
        raise ShapeError(f"expected {w.size} future segments, got shape {futures.shape}")
    rng = np.random.Generator(np.random.Philox(key=plan.seed))
    return futures[rng.choice(futures.shape[0], size=plan.B, p=w)]


def quantile_grid(tri, count=32):
    """The auto grid from numpy's quantiles of the positive distances."""
    vals = tri[tri > 0]
    if vals.size == 0:
        return np.logspace(-3, 0, count)
    q_lo, q_hi = np.quantile(vals, [0.01, 0.99])
    lo = max(float(q_lo), 1e-12 * float(q_hi))
    hi = max(float(q_hi), lo * 10)
    return np.logspace(math.log10(lo), math.log10(hi), count)


def per_origin(forecast, segments, start):
    """The stack of ``forecast(segments[:t])`` for t = start..n: what a rolling
    method's one call returns, from one call per origin on its prefix alone."""
    return np.stack([forecast(segments[:t]) for t in range(start, len(segments) + 1)])
