"""Interpolating discrete wavelet transform of sampled segments.

The transform is realized as a lifting scheme with a pluggable
interpolation (prediction) filter and periodic boundary handling.
Finest-level scaling coefficients are the sample values themselves
(interpolating-basis convention), so the forward pass is a recursive
split of the samples into even-indexed coarse values plus interpolation
residuals (detail coefficients) at each dyadic scale.  There is no
update step, which makes perfect reconstruction structural.

Available prediction filters:

``dd2``
    two-point linear interpolation (Deslauriers-Dubuc order 2),
``dd6``
    six-point interpolation (Deslauriers-Dubuc order 6),
``sym6-interp``
    interpolation weights obtained from the odd autocorrelation lags of
    the orthonormal Symmlet-6 low-pass filter (the autocorrelation
    scaling function is interpolating, so these lags are exactly its
    values at half-integers).

All filters reproduce constants, hence constant segments produce
all-zero detail coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, LevelError, ShapeError, _choice, _finite, _floats,
                     _int)

__all__ = [
    "Segment",
    "WaveletPyramid",
    "FILTERS",
    "DEFAULT_FILTER",
    "pad_to_pow2",
    "forward_dwt",
]


# Orthonormal Symmlet-6 low-pass filter (length 12, sums to sqrt(2)).
_SYM6_LOWPASS = np.array(
    [
        0.015404109327027373,
        0.0034907120842174702,
        -0.11799011114819057,
        -0.048311742585633,
        0.4910559419267466,
        0.787641141030194,
        0.3379294217276218,
        -0.07263752278646252,
        -0.021060292512300564,
        0.04472490177066578,
        0.0017677118642428036,
        -0.007800708325034148,
    ]
)


def _sym6_interp_weights() -> tuple[np.ndarray, np.ndarray]:
    """Prediction weights from the Symmlet-6 autocorrelation filter.

    For an orthonormal scaling filter h, the autocorrelation function
    Phi(t) = int phi(x) phi(x - t) dx is an interpolating scaling
    function whose two-scale mask is the autocorrelation sequence of h.
    Its values at half-integers, i.e. the odd autocorrelation lags, are
    the interpolation weights used in the lifting predict step.
    """
    h = _SYM6_LOWPASS
    acf = np.convolve(h, h[::-1])  # lags -(L-1) .. L-1
    center = len(h) - 1
    offsets = []
    weights = []
    # weight on coarse neighbour s[k + off] is acf at lag 1 - 2*off
    for off in range(-(len(h) // 2) + 1, len(h) // 2 + 1):
        lag = 1 - 2 * off
        offsets.append(off)
        weights.append(acf[center + lag])
    return np.array(offsets, dtype=int), np.array(weights)


def _as_filter(offsets, weights) -> tuple[np.ndarray, np.ndarray]:
    return np.array(offsets, dtype=int), np.array(weights, dtype=float)


FILTERS: dict[str, tuple[np.ndarray, np.ndarray]] = {
    "dd2": _as_filter([0, 1], [0.5, 0.5]),
    "dd6": _as_filter(
        [-2, -1, 0, 1, 2, 3],
        [3 / 256, -25 / 256, 150 / 256, 150 / 256, -25 / 256, 3 / 256],
    ),
    "sym6-interp": _sym6_interp_weights(),
}

DEFAULT_FILTER = "sym6-interp"


@dataclass(frozen=True)
class Segment:
    """One block of P equally spaced samples of the underlying process."""

    values: np.ndarray

    def __post_init__(self):
        v = _floats(self.values, "segment").copy()
        if v.ndim != 1 or v.size < 2 or not np.isfinite(v).all():
            raise InvalidInputError("segment must be a 1-d vector of at least 2 "
                                    f"finite samples, got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class WaveletPyramid:
    """Multiscale decomposition: coarse coefficients plus per-scale details.

    ``details[i]`` holds the detail coefficients at scale ``j0 + i``,
    with exactly ``2**(j0 + i)`` entries; ``coarse`` holds ``2**j0``
    scaling coefficients.  Total coefficient count is ``2**J``.
    """

    j0: int
    J: int
    coarse: np.ndarray
    details: tuple[np.ndarray, ...]
    filter_id: str = DEFAULT_FILTER

    def __post_init__(self):
        # 2**J coefficients, a count of doubles below 2**59
        _int(self.J, "J", 0, 59, error=LevelError)
        _int(self.j0, "j0", 0, self.J, error=LevelError)
        _choice(self.filter_id, "filter_id", FILTERS, error=ShapeError)
        coarse = _floats(self.coarse, "coarse")
        if coarse.shape != (2**self.j0,):
            raise ShapeError(
                f"coarse must have 2**j0 = {2 ** self.j0} entries, got {coarse.shape}"
            )
        try:
            details = tuple(_floats(d, "details") for d in self.details)
        except TypeError:  # not iterable
            raise ShapeError(f"details must be a sequence of arrays, got "
                             f"{type(self.details).__name__}") from None
        if len(details) != self.J - self.j0:
            raise ShapeError(
                f"expected {self.J - self.j0} detail scales, got {len(details)}"
            )
        for i, d in enumerate(details):
            if d.shape != (2 ** (self.j0 + i),):
                raise ShapeError(
                    f"detail scale {self.j0 + i} must have {2 ** (self.j0 + i)} "
                    f"entries, got {d.shape}"
                )
        _finite("pyramid coefficients", coarse, *details)
        object.__setattr__(self, "coarse", coarse)
        object.__setattr__(self, "details", details)

    def detail(self, j: int) -> np.ndarray:
        """Detail coefficients at scale j (j0 <= j <= J-1)."""
        _int(j, "scale", self.j0, self.J, error=LevelError)
        return self.details[j - self.j0]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _predict_odds(s: np.ndarray, filter_id: str) -> np.ndarray:
    """Interpolate the odd positions from coarse samples, periodically along axis 0.

    Tap ``off`` reads s[k + off mod m] at position k: s rotated by
    off mod m, two slices of one contiguous copy of s, whatever the
    filter's reach.  The taps are summed in filter order from zero, one
    product at a time.
    """
    offsets, weights = FILTERS[filter_id]
    s = np.ascontiguousarray(s)
    m = s.shape[0]
    out, tap = np.zeros(s.shape), np.empty(s.shape)
    for off, w in zip(offsets, weights):
        r = int(off) % m
        np.multiply(s[r:], w, out=tap[:m - r])
        np.multiply(s[:r], w, out=tap[m - r:])
        out += tap
    return out


def _lift_in_place(s: np.ndarray, j0: int, filter_id: str, cols: int):
    """Lift scale-major samples s, (2**J, vectors), in place, ``cols``
    vectors at a time; return ``(coarse, details)`` as row views of s.
    The package's one lifting routine: a History lifts its padded rows
    with it, in column chunks, and :func:`forward_dwt` a one-column copy.

    There is no update step, so level j (finest first) reads only the rows
    at stride 2**(J-j), which the finer levels left as samples, and
    overwrites only its odd rows, at stride 2**(J-j) from 2**(J-j-1),
    which no coarser level reads, with its details odd - prediction.
    The coarse values are the rows at stride 2**(J-j0) from 0.  The
    scratch is one chunk's finest-level even rows, copied contiguous, their
    prediction and its tap product: 1.5 x 2**J x cols doubles, whatever
    the filter.
    """
    J = s.shape[0].bit_length() - 1
    for c0 in range(0, s.shape[1], cols):
        chunk = s[:, c0:c0 + cols]
        for j in range(J - 1, j0 - 1, -1):
            step = 1 << (J - j)
            odd = chunk[step >> 1::step]
            np.subtract(odd, _predict_odds(chunk[::step], filter_id), out=odd)
    return s[::1 << (J - j0)], {j: s[1 << (J - j - 1)::1 << (J - j)]
                                for j in range(J - 1, j0 - 1, -1)}


def pad_to_pow2(segment: Segment) -> Segment:
    """Extend a segment periodically on the right to the next power of two."""
    v = segment.values
    n = v.size
    if _is_pow2(n):
        return segment
    target = 1 << n.bit_length()
    pad = target - n
    # pad < n always holds (target < 2n), so one copy of the head suffices
    out = np.concatenate([v, v[:pad]])
    return Segment(out)


def forward_dwt(segment: Segment, j0: int = 0,
                filter_id: str = DEFAULT_FILTER) -> WaveletPyramid:
    """Pyramid decomposition of a power-of-two-length segment, lifted as a
    (2**J, 1) copy by :func:`_lift_in_place`, as a History lifts its rows."""
    n = segment.values.size
    if not _is_pow2(n):
        raise ShapeError(f"need a power-of-two segment length, got {n}")
    _choice(filter_id, "filter_id", FILTERS, error=ShapeError)
    J = n.bit_length() - 1
    _int(j0, "j0", 0, J, error=LevelError)
    coarse, details = _lift_in_place(segment.values.reshape(n, 1).copy(), j0, filter_id, 1)
    return WaveletPyramid(j0=j0, J=J, coarse=coarse[:, 0],
                          details=tuple(details[j][:, 0] for j in range(j0, J)),
                          filter_id=filter_id)
