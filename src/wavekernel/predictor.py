"""Kernel-weighted one-step-ahead prediction of segment scaling coefficients.

The predicted coefficients for segment n+1 are a kernel-weighted
average of the observed next-segments: each past segment m < n is
compared to the current segment n through the multiscale distance
between their wavelet pyramids, and the kernel turns that distance into
a weight on segment m+1.  A 1/n term in the denominator keeps the
estimator well defined when every kernel value underflows (in that
regime the raw-form prediction tends to zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, InsufficientHistoryError, InvalidInputError, LevelError,
                     ShapeError, _choice, _finite, _floats, _int, _real)
from .similarity import ScaleRange, _scale_range
from .wavelet import DEFAULT_FILTER, FILTERS, forward_array

__all__ = [
    "KernelSpec",
    "PipelineConfig",
    "PredictionResult",
    "kernel_eval",
    "normalized_weights",
    "predict_one_ahead",
    "cv_bandwidth",
    "default_bandwidth_grid",
    "History",
    "scaling_coefficients",
]

_SCRATCH = 1 << 16  # doubles in a row block's distance planes, or a chunk of tri (512 KiB)
_STACK = 1 << 18  # doubles in a row block's kernel stack (2 MiB, one core's L2)
_PIECE = 1 << 14  # doubles per piece of the centred futures (128 KiB)
_SAMPLE = 1 << 13  # size of the sample that brackets a quantile
_MARGIN = 32  # sample positions a first bracket reaches out on each side

# kernel(u) = exp(-a |u|**p) / c per family, as (p, a, c): c = 1/kernel(0)
_KERNELS = {"gaussian": (2, 0.5, math.sqrt(2.0 * math.pi)),
            "laplace": (1, 1.0, 2.0)}
_WEIGHT_MODES = {"raw", "normalized"}
# bandwidths sharing one distance transform lie within 2**±400 of its scale
_GROUP_SPAN = 800


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and bandwidth for the similarity weighting."""

    family: str = "gaussian"
    bandwidth: float = 1.0

    def __post_init__(self):
        _choice(self.family, "kernel family", _KERNELS)
        _real(self.bandwidth, "bandwidth", 0)


def kernel_eval(spec: KernelSpec, u) -> np.ndarray:
    """Evaluate the kernel density at |u| (bandwidth is applied by callers)."""
    p, a, c = _KERNELS[spec.family]
    k = np.abs(np.atleast_1d(_floats(u, "u")))
    if np.isnan(k).any():
        raise InvalidInputError("kernel argument u contains NaN")
    if p == 2:
        with np.errstate(over="ignore"):  # u**2 past the largest double: k = 0
            k *= k
    k *= -a
    np.exp(k, out=k)
    k /= c
    return k if np.ndim(u) else k[0]


@dataclass(frozen=True)
class PipelineConfig:
    """Wavelet and similarity settings shared across the pipeline."""

    filter_id: str = DEFAULT_FILTER
    j0: int = 0
    scale_range: ScaleRange | None = None

    def __post_init__(self):
        _choice(self.filter_id, "filter_id", FILTERS, error=ShapeError)
        _int(self.j0, "j0", 0, error=LevelError)


@dataclass(frozen=True)
class PredictionResult:
    """Predicted scaling coefficients and the forecast curve they start with."""

    xi_pred: np.ndarray
    curve: np.ndarray
    weights: np.ndarray
    h_used: float
    effective_sample: float


def normalized_weights(kernel_values: np.ndarray, n: int) -> np.ndarray:
    """Resampling weights over the n-1 past segments.

    First term is each kernel value over the damped denominator of the
    prediction formula; the second term redistributes the 1/n damping
    mass equally, even when every kernel value underflows to zero (then
    all weights equal 1/(n-1)).  The weights sum to 1 up to rounding; a
    single weight is exactly 1.  A history of fewer than two segments has
    no past segment to weigh: InsufficientHistoryError.
    """
    if n < 2:
        raise InsufficientHistoryError(f"need at least 2 segments, got {n}")
    k = np.asarray(kernel_values, dtype=float)
    if k.size != n - 1:
        raise ShapeError(f"expected {n - 1} kernel values, got {k.size}")
    if n == 2:
        return np.ones(1)
    total = float(k.sum())
    return k / (1.0 / n + total) + 1.0 / ((n - 1) * (1.0 + n * total))


def _segment_rows(segments) -> np.ndarray:
    """``segments`` as a float (n, P) array: n >= 1 rows of P >= 2 finite values."""
    X = _floats(segments, "segments")
    if X.ndim > 0 and len(X) == 0:
        raise InsufficientHistoryError("no segments given")
    if X.ndim != 2 or X.shape[1] < 2:
        raise InvalidInputError(
            f"segments must be vectors of at least 2 samples, got shape {X.shape}")
    _finite("segments", X)
    return X


def scaling_coefficients(segments) -> tuple[np.ndarray, int]:
    """Stack equal-length segments into padded finest-level coefficients.

    Returns ``(X, P)`` with X of shape (n, 2**J): each row is its segment
    extended periodically on the right to the next power of two, which
    under the interpolating convention are its scaling coefficients.
    """
    X = _segment_rows(segments)
    P = X.shape[1]
    return X[:, np.arange(1 << (P - 1).bit_length()) % P], P


def _scale_blocks(X: np.ndarray, config: PipelineConfig):
    """Decompose rows of X and list the (weight, block) pairs entering D.

    Blocks are scaled by 2**-e, e the exponent of their largest magnitude,
    and each scale weight 2**-j takes 2**e back.  Both are exact powers of
    two, so distances are bit-identical to unscaled arithmetic wherever
    that is finite, and squares no longer overflow near 1e160.  Each block
    is stored scale-major, shape (width, n), made by one ``np.ldexp`` of the
    transpose, which also lifts all-subnormal blocks past 2**1023.  A
    coefficient that overflowed in the transform, or a weight past the
    largest double (a coefficient of 2**1023 or more at scale 0), raises
    InvalidInputError.
    """
    rng = _scale_range(config.j0, config.scale_range, X.shape[-1].bit_length() - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        coarse, details = forward_array(X, j0=config.j0, filter_id=config.filter_id)
    blocks = [(j, details[j]) for j in range(rng.j_lo, rng.j_hi + 1)]
    top = max(float(np.abs(b).max()) for _, b in blocks)
    e = math.frexp(top)[1]
    if not math.isfinite(top) or e - blocks[0][0] > 1023:
        raise InvalidInputError(
            f"wavelet coefficients of magnitude {top:.3g} are too large for doubles; "
            "rescale the series")
    return [(math.ldexp(1.0, e - j), np.ldexp(b.T, -e, out=np.empty(b.shape[::-1])))
            for j, b in blocks]


class History:
    """``segments`` prepared once with ``config``: the padded rows ``X`` of
    :func:`scaling_coefficients`, whose first ``P`` columns forecasts cover,
    and their wavelet detail blocks.  ``tri`` keeps the distances of all
    pairs m < q, row by row, once :func:`default_bandwidth_grid` built them."""

    def __init__(self, segments, config: PipelineConfig = PipelineConfig()):
        self.X, self.P = scaling_coefficients(segments)
        self.config = config
        self.blocks = _scale_blocks(self.X, config)
        self.tri = None

    def __len__(self) -> int:
        return self.X.shape[0]

    def _step(self, lo: int, hi: int, depth: int) -> int:
        """Rows per block of :meth:`rows`, from the budgets it describes."""
        n = len(self)
        planes = hi - lo if self.tri is not None else _SCRATCH // (3 * n)
        return max(1, min(hi - lo, _STACK // (n * depth), planes))

    def rows(self, lo: int, hi: int, depth: int = 1):
        """Yield (r0, r1, D[r0:r1, :r1-1], causal mask) for rows [lo, hi), lo >= 1.

        The one distance arithmetic (direct differences, or their copy in
        ``tri``), so a row reads bit-identically in any block.  Each scale
        block is scale-major, (width, n).  Per scale, the squared
        difference of each coefficient is added into one (rows, cols)
        plane, in coefficient order, and the plane's square root, times the
        scale weight, is added into D.  Every entry of D thus sees the same
        sequence of IEEE operations whatever rows share its block, a lone
        row included.  Entries m >= q read +inf, zero weight under every
        kernel.

        A block has as many rows as two budgets allow.  While ``tri`` is
        unset, the block computes its distances in three (rows x n)-double
        planes, the sum, one coefficient's squares and D, which together
        hold at most _SCRATCH.  The caller's stack of ``depth`` planes made
        from D (forecasts: one kernel plane per bandwidth), depth x rows x
        n doubles, holds at most _STACK.  The triangle ``tri`` of
        :func:`default_bandwidth_grid` holds n(n-1)/2 doubles.
        """
        n, step = len(self), self._step(lo, hi, depth)
        planes = np.empty((2, step * n)) if self.tri is None else None
        for r0 in range(lo, hi, step):
            r1 = min(r0 + step, hi)
            causal = np.arange(r1 - 1) < np.arange(r0, r1)[:, None]
            if self.tri is None:
                acc, tmp = planes[:, :causal.size].reshape((2,) + causal.shape)
                D = None
                for weight, block in self.blocks:
                    for k, row in enumerate(block):
                        # out[i, m] = row[m] - row[r0 + i], by a broadcast copy
                        # and an in-place subtract: one ufunc over two
                        # broadcast operands takes about twice as long
                        out = tmp if k else acc
                        np.copyto(out, row[:r1 - 1])
                        out -= row[r0:r1, None]
                        out *= out
                        if k:
                            acc += tmp
                    np.sqrt(acc, out=acc)
                    if D is None:
                        D = acc * weight
                    else:
                        acc *= weight
                        D += acc
                D[~causal] = np.inf
            else:
                D = np.full(causal.shape, np.inf)
                D[causal] = self.tri[r0 * (r0 - 1) // 2:r1 * (r1 - 1) // 2]
            yield r0, r1, D, causal

    def _centred_futures(self, m0: int, m1: int) -> np.ndarray:
        """Rows m0..m1-1 of X[1:, :P] - X[1, :P], with a ones column."""
        Z = np.empty((m1 - m0, self.P + 1))
        Z[:, self.P] = 1.0
        np.subtract(self.X[m0 + 1:m1 + 1, :self.P], self.X[1, :self.P],
                    out=Z[:, :self.P])
        return Z

    def forecasts(self, hs: np.ndarray, family: str, weight_mode: str,
                  lo: int, hi: int):
        """Yield (r0, r1, F, E): for each cut q = r0+i in [lo, hi), F[g, i]
        forecasts row q+1 from rows 0..q as predict_one_ahead does, with
        E[g, i] the kernel values at bandwidth hs[g] times c = 1/kernel(0).

        No weights are formed; each forecast is normalized after the
        product.  Per row block the distance transform (D**2 or |D|, scaled
        by a power of two) is made once for all h, and each h costs one
        multiply and one exp.  One GEMM takes E, and a row of ones over the
        q candidates, against the futures centred on the first,
        Z = X[1:, :P] - X[1, :P], with a ones column: it gives E.Z, the
        mass S = sum(E) and sum(Z[:q]).  Each mode is then an affine map
        per row, over d = c/(q+1) + S:

            raw:        (E.Z + S X[1, :P]) / d
            normalized: X[1, :P] + (E.Z + c/(q(q+1)) sum(Z[:q])) / d

        The normalized map is X[1, :P] + sum_m w_m Z_m with the weights of
        normalized_weights, as they sum to 1: a single candidate row (Z = 0) is
        reproduced bit for bit, and a forecast is the convex combination of its
        reported weights up to rounding.  Z is made in pieces of about _PIECE
        doubles, one product each (one in all for n - 1 <= _PIECE / (P + 1)),
        so a one-row call (predict) never holds a copy of the futures.  Each E
        views one stack, so it is valid only until the next iteration.
        """
        p, a, c = _KERNELS[family]
        G, P = hs.size, self.P
        groups = _rate_groups(hs, p, a)
        n, C = len(self), max(1, _PIECE // (P + 1))
        fut0 = self.X[1, :P]
        q = np.arange(lo, hi)[:, None]
        damp, share = c / (q + 1), c / (q * (q + 1))
        pieces = []  # Z in pieces of C rows, kept while a later block needs them
        stack = np.empty((G + 1) * self._step(lo, hi, G) * (hi - 1))  # the largest E
        for r0, r1, D, causal in self.rows(lo, hi, G):
            E = stack[:(G + 1) * D.size].reshape((G + 1,) + D.shape)
            # an exponent past the largest double is a kernel value of 0
            with np.errstate(over="ignore"):
                for run, scale, neg_rates in groups:  # T borrows E[G] before the ones
                    T = np.multiply(D, scale, out=E[G])  # D = inf off the causal set
                    if p == 2:
                        T *= T
                    np.multiply(T, neg_rates, out=E[run])
            np.exp(E[:G], out=E[:G])
            E[G] = causal
            E2 = E.reshape(-1, r1 - 1)
            for k, m0 in enumerate(range(0, r1 - 1, C)):  # all h in one GEMM per piece
                Z = (pieces[k] if k < len(pieces)
                     else self._centred_futures(m0, min(m0 + C, n - 1)))
                if k == len(pieces) and r1 < hi:
                    pieces.append(Z)
                part = E2[:, m0:m0 + C] @ Z[:r1 - 1 - m0]
                R = R + part if k else part
            R = R.reshape(E.shape[:2] + (P + 1,))
            S, i = R[:G, :, P:], slice(r0 - lo, r1 - lo)
            F = R[:G, :, :P] + (S * fut0 if weight_mode == "raw"
                                else R[G, :, :P] * share[i])
            F /= damp[i] + S
            if weight_mode == "normalized":
                F += fut0
            yield r0, r1, F, E[:G]


def _rate_groups(hs: np.ndarray, p: int, a: float):
    """Split the bandwidths into runs that share one distance transform.

    Returns [(run, 2**-e, -rates), ...], run a slice of hs and rates[g] =
    a * (2**e / hs[g])**p: the run's distances D scaled by 2**-e and raised
    to p, times each rate, give a * (D / h)**p.  Each h of a run lies
    within about 2**±400 of its 2**e, and |e| <= 1000 keeps 2**±e normal,
    so no rate overflows or vanishes, whatever the span of the grid.
    """
    exps = np.frexp(hs)[1]
    starts = [0]
    lo = hi = exps[0]
    for g, e in enumerate(exps):
        lo, hi = min(lo, e), max(hi, e)
        if hi - lo > _GROUP_SPAN:
            starts.append(g)
            lo = hi = e
    groups = []
    for g0, g1 in zip(starts, starts[1:] + [hs.size]):
        run = exps[g0:g1]
        e = min(max((int(run.min()) + int(run.max())) // 2, -1000), 1000)
        rates = a * (math.ldexp(1.0, e) / hs[g0:g1]) ** p
        groups.append((slice(g0, g1), math.ldexp(1.0, -e), -rates[:, None, None]))
    return groups


def _history(segments, config: PipelineConfig | None) -> History:
    """A History, which passes through, or segments prepared with ``config``.
    None is the History's own config, or the default for segments."""
    if not isinstance(segments, History):
        return History(segments, PipelineConfig() if config is None else config)
    if config is not None and config != segments.config:
        raise ConfigError("history was prepared with another pipeline config")
    return segments


def predict_one_ahead(segments, kernel: KernelSpec,
                      config: PipelineConfig | None = None,
                      weight_mode: str = "normalized") -> PredictionResult:
    """Forecast the segment after the last of ``segments``.

    ``segments`` is a matrix (or sequence) of n >= 2 equal-length
    vectors, row n being the current segment, or a :class:`History`.
    ``config`` None means the History's own, or the default for segments;
    a config other than the History's is a ConfigError.  ``curve`` is the
    forecast of the causal pass (:meth:`History.forecasts`), whose values
    under the interpolating convention are its scaling coefficients;
    ``xi_pred`` holds them padded.

    ``weight_mode`` selects the weighting of the observed next-segments:
    "normalized" (the default) uses the resampling weights of
    :func:`normalized_weights`, making the prediction a convex combination
    of the next-segments up to rounding (an exactly periodic history is
    reproduced exactly), while "raw" divides the kernel-weighted sum by the
    1/n-damped kernel total (when every kernel value underflows the
    prediction tends to zero, but the denominator never drops below 1/n).
    """
    _choice(weight_mode, "weight_mode", _WEIGHT_MODES)
    history = _history(segments, config)
    n = len(history)
    if n < 2:
        raise InsufficientHistoryError(f"need at least 2 segments, got {n}")
    _, _, F, E = next(history.forecasts(
        np.array([kernel.bandwidth]), kernel.family, weight_mode, n - 1, n))
    # periodic padding of the P forecast columns, as in scaling_coefficients
    xi = F[0, 0][np.arange(history.X.shape[1]) % history.P]
    k = E[0, 0] / _KERNELS[kernel.family][2]
    return PredictionResult(
        xi_pred=xi,
        curve=F[0, 0],
        weights=normalized_weights(k, n),
        h_used=kernel.bandwidth,
        effective_sample=float(k.sum()),
    )


def cv_bandwidth(segments, grid, kernel_family: str = "gaussian",
                 config: PipelineConfig | None = None,
                 weight_mode: str = "normalized") -> tuple[float, np.ndarray]:
    """Bandwidth selection by leave-one-out cross-validation for time series.

    For each candidate h, segment i+1 is predicted from the causal
    history (segments 1..i only); the pair (segment i -> segment i+1)
    never appears in that candidate set, which is the leave-one-out
    scheme appropriate for dependent data.  The score averages the
    discrete mean-square prediction error over all cut points with at
    least one candidate pair, and the smallest h attaining the minimum
    is returned.

    ``segments`` and ``config`` are as in :func:`predict_one_ahead`.
    All h share one pass over row blocks of the distance matrix.
    """
    grid = _floats(grid, "bandwidth grid", error=ConfigError)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError(f"bandwidth grid must be 1-d and nonempty, got {grid.shape}")
    if not np.all((grid > 0) & np.isfinite(grid)):
        raise ConfigError("bandwidth grid must be positive and finite")
    _choice(kernel_family, "kernel family", _KERNELS)
    _choice(weight_mode, "weight_mode", _WEIGHT_MODES)
    history = _history(segments, config)
    n = len(history)
    if n < 3:
        raise InsufficientHistoryError(f"cross-validation needs n >= 3, got {n}")
    sq_err = np.zeros(grid.size)
    for r0, r1, F, _ in history.forecasts(grid, kernel_family, weight_mode, 1, n - 1):
        F -= history.X[r0 + 1:r1 + 1, :history.P]
        with np.errstate(over="ignore"):  # checked below
            sq_err += np.mean(np.square(F, out=F), axis=-1).sum(axis=-1)
    cv_values = sq_err / (n - 2)
    if not np.all(np.isfinite(cv_values)):
        raise InvalidInputError(
            "cross-validation scores overflow: squared errors of this "
            "series are not representable; rescale it")
    best = int(np.argmin(cv_values))  # argmin takes the first, i.e. smallest h
    return float(grid[best]), cv_values


def _quantiles(tri: np.ndarray, qs) -> list[float]:
    """``np.quantile(tri[tri > 0], q)`` (linear method) for each q, bit for
    bit, with no copy of ``tri``; [] if none is positive.  Positive order
    statistic i is tri's zeros + i.  A sorted strided sample brackets the
    two around (N-1)q; a pass over chunks of tri counts the values below
    and gathers those inside, and a single-kth partition (several times
    faster than numpy's multi-kth one) selects them.  A bracket that misses
    widens, up to (-inf, inf).  They are mixed as numpy's ``_lerp`` does."""
    N, C, masks = tri.size, _SCRATCH, np.empty((2, _SCRATCH), dtype=bool)
    chunks = [(tri[c:c + C], masks[:, :min(C, N - c)]) for c in range(0, N, C)]
    pos = sum(np.count_nonzero(np.greater(x, 0, out=m[0])) for x, m in chunks)
    if not pos:
        return []
    sample = np.concatenate(([-np.inf], np.sort(tri[::max(1, N // _SAMPLE)]), [np.inf]))

    def select(q):
        v = (pos - 1) * q
        k = N - pos + math.floor(v)  # tri's ranks k and, below the top, k + 1
        j, m, want = 1 + k * (sample.size - 2) // N, _MARGIN, min(k + 2, N)
        while True:
            lo, hi = sample[max(j - m, 0)], sample[min(j + 1 + m, sample.size - 1)]
            below, parts = 0, []
            for x, (inside, le) in chunks:
                below += x.size - np.count_nonzero(np.greater_equal(x, lo, out=inside))
                inside &= np.less_equal(x, hi, out=le)
                parts.append(x[inside])
            vals = np.concatenate(parts)
            if below <= k and below + vals.size >= want:
                break
            m = 4 * m + 1
        vals.partition(k - below)
        a, t = float(vals[k - below]), v - math.floor(v)
        if want == k + 1:
            return a
        b = float(vals[k - below + 1:].min())
        return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)
    return [select(q) for q in qs]


def default_bandwidth_grid(segments, config: PipelineConfig | None = None,
                           count: int = 32) -> np.ndarray:
    """Log-spaced grid spanning the 1%..99% quantiles of pairwise distances.

    A :class:`History` passed as ``segments`` keeps them for CV;
    ``config`` is as in :func:`predict_one_ahead`.
    """
    _int(count, "grid count", 1)
    history = _history(segments, config)
    if history.tri is None:
        n = len(history)
        tri = np.empty(n * (n - 1) // 2)
        for r0, r1, D, causal in history.rows(1, n):
            tri[r0 * (r0 - 1) // 2:r1 * (r1 - 1) // 2] = D[causal]
        history.tri = tri
    quantiles = _quantiles(history.tri, (0.01, 0.99))
    if not quantiles:
        # degenerate history (all segments identical): any h works
        return np.logspace(-3, 0, count)
    q_lo, q_hi = quantiles
    lo = max(q_lo, 1e-12 * q_hi)
    hi = max(q_hi, lo * 10)
    return np.logspace(math.log10(lo), math.log10(hi), count)
