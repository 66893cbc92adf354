"""Reference code the tests compare the library against, and nothing else calls.

The inverse lifting transform checks perfect reconstruction of the
forward one.  ``draw_pseudo_blocks`` builds the B x P pseudo-block matrix
that ``prediction_interval`` never forms; a full sort of it gives the
Monte Carlo bounds the library takes off draw counts.  It makes its own
seeded draw, so it does not share the library's sampling code.
"""

import numpy as np

from wavekernel import Segment, ShapeError, WaveletPyramid
from wavekernel.errors import _floats
from wavekernel.wavelet import DEFAULT_FILTER, _predict_odds


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


def draw_pseudo_blocks(plan, future_segments) -> np.ndarray:
    """Draw B pseudo-blocks i.i.d. from Z_2..Z_n with the plan's weights."""
    futures = _floats(future_segments, "future_segments")
    if futures.ndim != 2 or futures.shape[0] != plan.weights.size:
        raise ShapeError(
            f"expected {plan.weights.size} future segments, got shape {futures.shape}"
        )
    rng = np.random.Generator(np.random.Philox(key=plan.seed))
    return futures[rng.choice(futures.shape[0], size=plan.B, p=plan.weights)]
