"""Every slow reference the tests compare the library against, and nothing else calls.

Each computation's reference is written here once; a new one goes here too.
By the library computation it pins:

- Multiscale distance: ``distances`` takes one pyramid per row through the
  object API (``Segment``, ``WaveletPyramid``, ``pad_to_pow2``,
  ``forward_dwt``, ``scale_distance``, ``combined_distance``), which is
  re-exported here from ``wavekernel.wavelet`` and ``wavekernel.similarity``
  and which ``wavekernel`` itself does not export.  ``reduce_rows`` is
  ``History.rows``'s row block by numpy's reduce of each scale's squared
  differences, ``ufunc_triangle`` the grid's triangle by plain ufuncs per
  row, and ``query_distances`` predict's distances of one row.
- Forecast: ``forecast`` is ``predict_one_ahead`` from those distances, with
  the kernel and both weightings written out.  ``loop_forecast`` and
  ``loop_cv`` are the causal pass of ``History.forecasts`` and
  ``cv_bandwidth``, one cut at a time; ``per_origin`` is the rolling
  forecast stack of ``wk_method``, one prefix at a time.
- Bandwidth grid: ``quantile_grid`` is ``default_bandwidth_grid`` read off
  ``np.quantile``.
- Lifting: ``naive_lifting_forward`` and ``roll_forward`` pin
  ``wavelet._lift_in_place``, through the History and ``forward_dwt``:
  the first as a scalar loop, the second with one ``np.roll`` copy per tap
  (``roll_predict_odds``).  ``inverse_array`` and ``inverse_dwt`` invert it
  on the same roll prediction, for perfect reconstruction.
- Interval: ``draw_pseudo_blocks`` builds the B x P pseudo-block matrix that
  ``prediction_interval`` never forms, from its own seeded draw;
  ``sorted_draws_quantile`` takes the Monte Carlo bounds off a full sort of
  it, and ``argsort_weighted_quantile`` the exact bounds off one argsort.
- Reader: ``reference_load_series`` is ``cli.load_series`` as the row-by-row
  reader it replaced, for values and errors.
"""

import csv
import math
from pathlib import Path

import numpy as np

from wavekernel import History, InvalidInputError, KernelSpec, PipelineConfig, ShapeError
from wavekernel.predictor import kernel_eval, normalized_weights, scaling_coefficients
from wavekernel.similarity import combined_distance, scale_distance
from wavekernel.wavelet import (DEFAULT_FILTER, FILTERS, Segment, WaveletPyramid,
                                forward_dwt, pad_to_pow2)

__all__ = ["Segment", "WaveletPyramid", "pad_to_pow2", "forward_dwt", "scale_distance",
           "combined_distance", "distances", "forecast", "reduce_rows", "ufunc_triangle",
           "query_distances", "loop_forecast", "loop_cv", "per_origin", "quantile_grid",
           "naive_lifting_forward", "roll_predict_odds", "roll_forward", "inverse_array",
           "inverse_dwt", "draw_pseudo_blocks", "sorted_draws_quantile",
           "argsort_weighted_quantile", "reference_load_series"]


def distances(segments, config=PipelineConfig(), rows=None):
    """D[q][m] = combined_distance of rows m < q, one pyramid per row, for
    every row q or for the rows given."""
    pyramids = [forward_dwt(pad_to_pow2(Segment(row)), config.j0, config.filter_id)
                for row in segments]
    return [[combined_distance(pyramids[m], pyramids[q], config.scale_range)
             for m in range(q)]
            for q in (range(len(pyramids)) if rows is None else rows)]


def forecast(segments, kernel, weight_mode="normalized", config=PipelineConfig()):
    """The next block after ``segments``: the kernel-weighted average of the
    observed next blocks, by the last row's distance to each earlier one."""
    n, h = len(segments), kernel.bandwidth
    k = []
    for d in distances(segments, config, rows=[n - 1])[0]:
        if kernel.family == "gaussian":
            k.append(math.exp(-0.5 * (d / h) ** 2) / math.sqrt(2 * math.pi))
        else:
            k.append(0.5 * math.exp(-d / h))
    den = sum(k, 1.0 / n)  # the 1/n damping, then each kernel value in turn
    if weight_mode == "raw":
        w = [km / den for km in k]
    else:
        # the 1/n damping mass shared equally among the n-1 blocks
        w = [km / den + 1.0 / n / den / (n - 1) for km in k]
    return sum(wm * row for wm, row in zip(w, np.asarray(segments, dtype=float)[1:]))


def reduce_rows(history, r0, r1):
    """D[r0:r1, :r1-1] by a scale-major reduce: each scale's squared
    differences, a (width, rows, cols) array, summed over its leading axis."""
    cols = r1 - 1
    # at least two columns: numpy reduces a 1x1 plane in pairwise order
    total = np.zeros((r1 - r0, max(cols, 2)))
    for weight, block in history.blocks:
        diff = block[:, None, :total.shape[1]] - block[:, r0:r1, None]
        total += weight * np.sqrt(np.add.reduce(diff * diff, axis=0))
    D = np.ascontiguousarray(total[:, :cols])
    D[np.arange(cols) >= np.arange(r0, r1)[:, None]] = np.inf
    return D


def ufunc_triangle(history):
    """The distances of every pair m < q, row q after row q-1, by plain ufuncs
    per row: a broadcast subtract, a square, a sum in coefficient order, then
    sqrt and weight."""
    want = []
    for q in range(1, len(history)):
        D = None
        for weight, block in history.blocks:
            diff = block[:, :q] - block[:, q, None]
            sq = diff * diff
            acc = sq[0]
            for k in range(1, len(sq)):
                acc = acc + sq[k]
            part = np.sqrt(acc) * weight
            D = part if D is None else D + part
        want.append(D)
    return np.concatenate(want)


def query_distances(X, config, q):
    """Distances from rows 0..q-1 to row q, as predict computes them."""
    return next(History(X[:q + 1], config).rows(q, q + 1))[2][0]


def loop_forecast(X, q, h, family, config, weight_mode, origin=0.0):
    """Forecast of row q+1 from rows 0..q, less ``origin``, with its kernel
    values.  Each row is less ``origin`` before it is weighted, so with the
    truth as origin the error is no difference of two values rounded at
    the series' level."""
    with np.errstate(over="ignore"):  # d / h past the largest double: k = 0
        k = kernel_eval(KernelSpec(family, h), query_distances(X, config, q) / h)
    rows = X[1:q + 1] - origin
    if weight_mode == "raw":
        # (k.X) / d - origin, with d = 1/(q+1) + sum(k)
        return (k @ rows - origin / (q + 1)) / (1.0 / (q + 1) + float(k.sum())), k
    return normalized_weights(k, q + 1) @ rows, k


def loop_cv(segments, grid, family, config, weight_mode):
    """Per-cut leave-one-out CV: cut q predicts row q+1 from rows 0..q."""
    X, P = scaling_coefficients(segments)
    n = X.shape[0]
    cv = np.empty(len(grid))
    for gi, h in enumerate(grid):
        errs = []
        for q in range(1, n - 1):
            diff = loop_forecast(X, q, h, family, config, weight_mode, X[q + 1])[0][:P]
            errs.append(float(np.mean(diff * diff)))
        cv[gi] = float(np.mean(errs))
    return cv


def per_origin(fit, segments, start):
    """The stack of ``fit(segments[:t])`` for t = start..n: what a rolling
    method's one call returns, from one call per origin on its prefix alone."""
    return np.stack([fit(segments[:t]) for t in range(start, len(segments) + 1)])


def quantile_grid(tri, count=32):
    """The auto grid from numpy's quantiles of the positive distances."""
    vals = tri[tri > 0]
    if vals.size == 0:
        return np.logspace(-3, 0, count)
    q_lo, q_hi = np.quantile(vals, [0.01, 0.99])
    lo = max(float(q_lo), 1e-12 * float(q_hi))
    hi = max(float(q_hi), lo * 10)
    return np.logspace(math.log10(lo), math.log10(hi), count)


def naive_lifting_forward(x, j0, offsets, weights):
    """Independent scalar-loop reference for the lifting decomposition."""
    s = list(map(float, x))
    details = {}
    J = len(s).bit_length() - 1
    for j in range(J - 1, j0 - 1, -1):
        even = s[0::2]
        odd = s[1::2]
        d = []
        for k in range(len(odd)):
            pred = sum(
                w * even[(k + int(off)) % len(even)]
                for off, w in zip(offsets, weights)
            )
            d.append(odd[k] - pred)
        details[j] = d
        s = even
    return s, details


def roll_predict_odds(s, filter_id):
    """The lifting prediction as first written: one np.roll copy per tap."""
    offsets, weights = FILTERS[filter_id]
    out = np.zeros_like(s)
    for off, w in zip(offsets, weights):
        out += w * np.roll(s, -int(off), axis=-1)
    return out


def roll_forward(x, j0, filter_id):
    s, details = x, {}
    for j in range(x.shape[-1].bit_length() - 2, j0 - 1, -1):
        even = s[..., 0::2]
        details[j] = s[..., 1::2] - roll_predict_odds(even, filter_id)
        s = even
    return s, details


def inverse_array(coarse, details, filter_id=DEFAULT_FILTER):
    """Inverse of the lifting transform of ``wavelet._lift_in_place``, on
    coarse values and a dict of details, each laid out along the last axis."""
    s = np.asarray(coarse, dtype=float)
    for j in sorted(details):
        out = np.empty(s.shape[:-1] + (2 * s.shape[-1],))
        out[..., 0::2] = s
        out[..., 1::2] = details[j] + roll_predict_odds(s, filter_id)
        s = out
    return s


def inverse_dwt(pyramid: WaveletPyramid) -> Segment:
    """Reconstruct the sample values encoded by a pyramid."""
    details = {pyramid.j0 + i: d for i, d in enumerate(pyramid.details)}
    values = inverse_array(pyramid.coarse, details, filter_id=pyramid.filter_id)
    return Segment(values)


def draw_pseudo_blocks(plan, weights, future_segments) -> np.ndarray:
    """Draw the plan's B pseudo-blocks i.i.d. from Z_2..Z_n with ``weights``."""
    futures = np.asarray(future_segments, dtype=float)
    w = np.asarray(weights, dtype=float)
    if futures.ndim != 2 or w.shape != futures.shape[:1]:
        raise ShapeError(f"expected {w.size} future segments, got shape {futures.shape}")
    rng = np.random.Generator(np.random.Philox(key=plan.seed))
    return futures[rng.choice(futures.shape[0], size=plan.B, p=w)]


def sorted_draws_quantile(plan, weights, futures, q):
    """The k-th smallest of B drawn pseudo-blocks, by a full sort of the draws."""
    blocks = np.sort(draw_pseudo_blocks(plan, weights, futures), axis=0)
    k = min(max(math.ceil(q * plan.B), 1), plan.B)
    return blocks[k - 1]


def argsort_weighted_quantile(atoms, weights, q):
    """One argsort per quantile: the smallest atom whose cumulative weight reaches q."""
    order = np.argsort(atoms, axis=0, kind="stable")
    cumw = np.cumsum(weights[order], axis=0)
    # a threshold past a column's total weight, which rounding can leave an
    # ulp short, reads as that total, as in the library
    first = np.argmax(cumw >= np.minimum(q - 1e-12, cumw[-1]), axis=0)
    return np.take_along_axis(atoms, order, axis=0)[first, np.arange(atoms.shape[1])]


def reference_load_series(path) -> np.ndarray:
    """The row-by-row reader, kept as the oracle for values and errors."""
    p = Path(path)
    if not p.exists():
        raise InvalidInputError(f"input file not found: {p}")
    values = []
    with p.open(newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or not row[0].strip():
                continue
            token = row[0].strip()
            try:
                v = float(token)
            except ValueError:
                if row_no == 1 and not values:
                    continue  # header row
                raise InvalidInputError(
                    f"{p}: cannot parse row {row_no}: {token!r}"
                ) from None
            if not np.isfinite(v):
                raise InvalidInputError(f"{p}: non-finite value at row {row_no}")
            values.append(v)
    if not values:
        raise InvalidInputError(f"{p}: no numeric data")
    return np.array(values)
