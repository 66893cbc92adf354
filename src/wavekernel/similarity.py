"""Multiscale discrepancy between wavelet pyramids, the oracle of ``History.rows``.

Per scale j the discrepancy is the Euclidean norm of the detail
coefficient differences; scales are combined with geometric weights
2**(-j).  Coarse scaling coefficients never enter, which makes the
combined distance insensitive to a common constant shift when the filter
reproduces constants.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, _finite, _floats
from .predictor import ScaleRange, _scale_range
from .wavelet import WaveletPyramid

__all__ = ["scale_distance", "combined_distance"]


def scale_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean norm of the coefficient differences at one scale.

    The differences are scaled by 2**-e, e the exponent of their largest
    magnitude, and the norm by 2**e: exact powers of two, so the result is
    bit-identical to the plain norm wherever that is finite and nonzero,
    and its sum of squares neither under- nor overflows.
    """
    a, b = _floats(a, "a"), _floats(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"detail vectors differ in shape: {a.shape} vs {b.shape}")
    _finite("detail vectors", a, b)
    d = a - b
    e = math.frexp(float(np.abs(d).max(initial=0.0)))[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(d, -e))), e)


def combined_distance(p1: WaveletPyramid, p2: WaveletPyramid,
                      scale_range: ScaleRange | None = None) -> float:
    """Weighted sum over scales of the per-scale discrepancies.

    ``scale_range`` defaults to all detail scales [j0, J-1].
    """
    if (p1.j0, p1.J) != (p2.j0, p2.J) or p1.filter_id != p2.filter_id:
        raise ShapeError(
            "pyramids are not comparable: "
            f"(j0={p1.j0}, J={p1.J}, {p1.filter_id}) vs "
            f"(j0={p2.j0}, J={p2.J}, {p2.filter_id})"
        )
    rng = _scale_range(p1.j0, scale_range, p1.J)
    total = 0.0
    for j in range(rng.j_lo, rng.j_hi + 1):
        total += math.ldexp(scale_distance(p1.detail(j), p2.detail(j)), -j)
    return total
