"""Multiscale discrepancy between wavelet pyramids.

Per scale j the discrepancy is the Euclidean norm of the detail
coefficient differences; scales are combined with geometric weights
2**(-j).  Coarse scaling coefficients are excluded by default, which
makes the combined distance insensitive to a common constant shift when
the filter reproduces constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LevelError, ShapeError
from .wavelet import WaveletPyramid

__all__ = ["ScaleRange", "scale_distance", "combined_distance"]


@dataclass(frozen=True)
class ScaleRange:
    """Inclusive bounds on the detail scales entering the combined distance."""

    j_lo: int
    j_hi: int

    def __post_init__(self):
        if self.j_lo > self.j_hi:
            raise LevelError(f"need j_lo <= j_hi, got [{self.j_lo}, {self.j_hi}]")


def scale_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean norm of the coefficient differences at one scale.

    The differences are scaled by 2**-e, e the exponent of their largest
    magnitude, and the norm by 2**e: exact powers of two, so the result is
    bit-identical to the plain norm wherever that is finite and nonzero,
    and its sum of squares neither under- nor overflows.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"detail vectors differ in shape: {a.shape} vs {b.shape}")
    d = a - b
    e = math.frexp(float(np.abs(d).max(initial=0.0)))[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(d, -e))), e)


def combined_distance(p1: WaveletPyramid, p2: WaveletPyramid,
                      scale_range: ScaleRange | None = None,
                      include_coarse: bool = False) -> float:
    """Weighted sum over scales of the per-scale discrepancies.

    ``scale_range`` defaults to all detail scales [j0, J-1].  With
    ``include_coarse`` the coarse scaling coefficients contribute an
    extra 2**(-j0)-weighted term (useful for mean-shifted data).
    """
    if (p1.j0, p1.J) != (p2.j0, p2.J) or p1.filter_id != p2.filter_id:
        raise ShapeError(
            "pyramids are not comparable: "
            f"(j0={p1.j0}, J={p1.J}, {p1.filter_id}) vs "
            f"(j0={p2.j0}, J={p2.J}, {p2.filter_id})"
        )
    if scale_range is None:
        scale_range = ScaleRange(p1.j0, p1.J - 1)
    if scale_range.j_lo < p1.j0 or scale_range.j_hi > p1.J - 1:
        raise LevelError(
            f"scale range [{scale_range.j_lo}, {scale_range.j_hi}] outside "
            f"pyramid scales [{p1.j0}, {p1.J - 1}]"
        )
    total = 0.0
    if include_coarse:
        total += math.ldexp(scale_distance(p1.coarse, p2.coarse), -p1.j0)
    for j in range(scale_range.j_lo, scale_range.j_hi + 1):
        total += math.ldexp(scale_distance(p1.detail(j), p2.detail(j)), -j)
    return total
