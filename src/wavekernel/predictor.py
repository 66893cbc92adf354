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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (_MAX_SIZE, ConfigError, InsufficientHistoryError, InvalidInputError,
                     LevelError, ShapeError, _choice, _finite, _floats, _int, _real)
from .wavelet import DEFAULT_FILTER, FILTERS, _lift_in_place

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
    """Wavelet and similarity settings of a :class:`History`, set nowhere else."""

    filter_id: str = DEFAULT_FILTER
    j0: int = 0

    def __post_init__(self):
        _choice(self.filter_id, "filter_id", FILTERS, error=ShapeError)
        _int(self.j0, "j0", 0, error=LevelError)


@dataclass(frozen=True)
class PredictionResult:
    """The forecast curve, its resampling weights over the n-1 observed
    next blocks, and the kernel mass; the bandwidth is the caller's."""

    curve: np.ndarray
    weights: np.ndarray
    effective_sample: float


def normalized_weights(kernel_values: np.ndarray, n: int) -> np.ndarray:
    """Resampling weights over the n-1 past segments.

    First term is each kernel value over the damped denominator of the
    prediction formula; the second term redistributes the 1/n damping
    mass equally, even when every kernel value underflows to zero (then
    all weights equal 1/(n-1)).  The weights sum to 1 up to rounding; a
    single weight is exactly 1.  A history of fewer than two segments has
    no past segment to weigh: InsufficientHistoryError.  The kernel values
    are n-1 finite, non-negative reals.  Values whose sum passes the
    largest double get the weights k / sum(k), computed on k / max(k):
    beside such a sum the damping terms are nil.
    """
    _int(n, "n", 0)
    if n < 2:
        raise InsufficientHistoryError(f"need at least 2 segments, got {n}")
    k = _floats(kernel_values, "kernel values")
    if k.shape != (n - 1,):
        raise ShapeError(f"expected {n - 1} kernel values, got shape {k.shape}")
    _finite("kernel values", k)
    if np.any(k < 0):
        raise InvalidInputError("kernel values must be non-negative")
    if n == 2:
        return np.ones(1)
    with np.errstate(over="ignore"):
        total = float(k.sum())
    if math.isinf(total):
        k = k / k.max()
        return k / k.sum()
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
    X is gathered column by column into column-major memory, so X.T is the
    C-ordered, scale-major (2**J, n) buffer a :class:`History` lifts in place.
    """
    X = _segment_rows(segments)
    P = X.shape[1]
    return X.T[np.arange(1 << (P - 1).bit_length()) % P].T, P


class History:
    """``segments`` prepared once with ``config``: the checked (n, P) rows
    ``segments`` (float input is kept, not copied, so it must not be written
    while the History is in use) and ``blocks``, which :meth:`rows` sums:
    the one rule :meth:`_blocks`, scaled by :func:`_scale_blocks`.  Another
    similarity overrides the rule in a subclass; nothing writes ``blocks``.
    ``tri`` keeps all pairs' distances once :func:`default_bandwidth_grid` ran.
    """

    def __init__(self, segments, config: PipelineConfig = PipelineConfig()):
        self.segments = _segment_rows(segments)
        self.P = self.segments.shape[1]
        self.config = config
        self.blocks = _scale_blocks(self._blocks())
        self.tri = None

    def _blocks(self) -> list[tuple[float, np.ndarray]]:
        """The similarity's [(weight, block), ...], each block a (width, n)
        float array the History owns.  The wavelet rule: one
        :func:`scaling_coefficients` call pads all rows into a scale-major
        (2**J, n) buffer, lifted in place in column chunks of _SCRATCH /
        2**(J+1) segments (scratch 0.75 _SCRATCH); each block, the details at
        one scale j in j0..J-1 at weight 2**-j, is a row view of the buffer."""
        J = (self.P - 1).bit_length()  # levels of the padded rows, 2**J wide
        _int(self.config.j0, "j0", 0, J, error=LevelError)
        with np.errstate(over="ignore", invalid="ignore"):  # checked by _scale_blocks
            details = _lift_in_place(scaling_coefficients(self.segments)[0].T, self.config.j0,
                                     self.config.filter_id, max(1, _SCRATCH // (2 << J)))[1]
        return [(math.ldexp(1.0, -j), details[j]) for j in range(self.config.j0, J)]

    def __len__(self) -> int:
        return self.segments.shape[0]

    def _step(self, lo: int, hi: int, depth: int) -> int:
        """Rows per block of :meth:`rows`, from the budgets it describes."""
        n = len(self)
        return max(1, min(hi - lo, _STACK // (n * depth), _SCRATCH // (3 * n)))

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

        A coefficient's differences x_m - x_q fill their plane as one
        rank-2 product, the (rows, 2) array [1, x_q] times the (2, cols)
        array [x_m; -1], both made once per pass.  Each entry is
        1 * x_m + x_q * -1: both products are exact, so the sum is rounded
        once, to the IEEE x_m - x_q, for any BLAS blocking, thread count or
        FMA use, and in numpy's own matmul loop.  Only the sign of an exact
        zero may differ, and the square erases it.  This needs finite
        values, which the blocks' 2**-e scaling guarantees (|x| < 1).

        A block has as many rows as two budgets allow, from n and ``depth``
        alone, whether it reads ``tri`` or not: the three (rows x n)-double
        planes that compute its distances, the sum, one coefficient's
        squares and D, hold at most _SCRATCH, and the caller's stack of
        ``depth`` planes made from D (forecasts: one kernel plane per
        bandwidth), depth x rows x n doubles, at most _STACK.
        """
        n, step = len(self), self._step(lo, hi, depth)
        if self.tri is None:
            planes = np.empty((2, step * n))
            # the rank-2 factors [1, x_q] and [x_m; -1], refilled per coefficient
            ones_x, x_neg = np.ones((step, 2)), np.full((2, n), -1.0)
        for r0 in range(lo, hi, step):
            r1 = min(r0 + step, hi)
            causal = np.arange(r1 - 1) < np.arange(r0, r1)[:, None]
            if self.tri is None:
                acc, tmp = planes[:, :causal.size].reshape((2,) + causal.shape)
                a, b = ones_x[:r1 - r0], x_neg[:, :r1 - 1]
                D = None
                for weight, block in self.blocks:
                    for k, row in enumerate(block):
                        # out[i, m] = 1 * row[m] + row[r0 + i] * -1: two exact
                        # products, so one rounding of row[m] - row[r0 + i]
                        out = tmp if k else acc
                        a[:, 1] = row[r0:r1]
                        b[0] = row[:r1 - 1]
                        np.matmul(a, b, out=out)
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
        """Rows m0..m1-1 of segments[1:] - segments[1], with a ones column."""
        Z = np.empty((m1 - m0, self.P + 1))
        Z[:, self.P] = 1.0
        np.subtract(self.segments[m0 + 1:m1 + 1], self.segments[1],
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
        Z = segments[1:] - segments[1], with a ones column: it gives E.Z, the
        mass S = sum(E) and sum(Z[:q]).  Each mode is then an affine map
        per row, over d = c/(q+1) + S:

            raw:        (E.Z + S segments[1]) / d
            normalized: segments[1] + (E.Z + c/(q(q+1)) sum(Z[:q])) / d

        The normalized map is segments[1] + sum_m w_m Z_m with the weights of
        normalized_weights, as they sum to 1: a single candidate row (Z = 0) is
        reproduced bit for bit, and a forecast is the convex combination of its
        reported weights up to rounding.  Z is made in pieces of about _PIECE
        doubles, one product each (one in all for n - 1 <= _PIECE / (P + 1)),
        so a one-row call (predict) never holds a copy of the futures.  Each E
        views one stack, so it is valid only until the next iteration.  A GEMM
        rounds by its row count, so the final cut hi-1, in a block of several
        rows, is formed again alone: bit for bit the one-row pass's forecast.
        """
        p, a, c = _KERNELS[family]
        G, P = hs.size, self.P
        groups = _rate_groups(hs, p, a)
        n, C = len(self), max(1, _PIECE // (P + 1))
        fut0 = self.segments[1]
        q = np.arange(lo, hi)[:, None]
        damp, share = c / (q + 1), c / (q * (q + 1))
        pieces = []  # Z in pieces of C rows, kept while a later block needs them
        stack = np.empty((G + 1) * self._step(lo, hi, G) * (hi - 1))  # the largest E
        for r0, r1, D, causal in self.rows(lo, hi, G):
            E = stack[:(G + 1) * D.size].reshape((G + 1,) + D.shape)
            # an exponent past the largest double is a kernel value of 0, and
            # futures whose spread passes it give a forecast of inf or nan,
            # which the callers reject; the state ends before the yield
            with np.errstate(over="ignore", invalid="ignore"):
                for run, scale, neg_rates in groups:  # T borrows E[G] before the ones
                    T = np.multiply(D, scale, out=E[G])  # D = inf off the causal set
                    if p == 2:
                        T *= T
                    np.multiply(T, neg_rates, out=E[run])
                np.exp(E[:G], out=E[:G])
                E[G] = causal
                E2 = E.reshape(-1, r1 - 1)
                last = E[:, -1] if r1 == hi > r0 + 1 else None  # the final cut, alone
                for k, m0 in enumerate(range(0, r1 - 1, C)):  # all h in one GEMM per piece
                    Z = (pieces[k] if k < len(pieces)
                         else self._centred_futures(m0, min(m0 + C, n - 1)))
                    if k == len(pieces) and r1 < hi:
                        pieces.append(Z)
                    part = E2[:, m0:m0 + C] @ Z[:r1 - 1 - m0]
                    R = R + part if k else part
                    if last is not None:
                        part = last[:, m0:m0 + C] @ Z[:r1 - 1 - m0]
                        R_last = R_last + part if k else part
                R = R.reshape(E.shape[:2] + (P + 1,))
                if last is not None:
                    R[:, -1] = R_last
                S, i = R[:G, :, P:], slice(r0 - lo, r1 - lo)
                F = R[:G, :, :P] + (S * fut0 if weight_mode == "raw"
                                    else R[G, :, :P] * share[i])
                F /= damp[i] + S
                if weight_mode == "normalized":
                    F += fut0
            yield r0, r1, F, E[:G]


def _scale_blocks(blocks: list) -> list[tuple[float, np.ndarray]]:
    """Scale each block in place by 2**-e, e the exponent of the largest
    magnitude over all blocks, and each weight by 2**e.  Both are exact, so
    distances are bit-identical to unscaled arithmetic wherever that is
    finite, squares no longer overflow near 1e160, and all-subnormal blocks
    rise past 2**1023.  A magnitude that is not finite, or a weight past the
    largest double once scaled, raises InvalidInputError."""
    top = float(np.max([(b.max(), -b.min()) for _, b in blocks]))
    e = math.frexp(top)[1]
    if not math.isfinite(top) or any(math.frexp(w)[1] + e > 1024 for w, _ in blocks):
        raise InvalidInputError(
            f"wavelet coefficients of magnitude {top:.3g} are too large for doubles; "
            "rescale the series")
    return [(math.ldexp(w, e), np.ldexp(b, -e, out=b)) for w, b in blocks]


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


def _history(segments) -> History:
    """A History, which passes through, or segments prepared with the default config."""
    return segments if isinstance(segments, History) else History(segments)


def _finite_forecast(F: np.ndarray) -> None:
    """Raise InvalidInputError if a forecast is not finite, as when the
    spread of the observed next blocks passes the largest double."""
    if not np.isfinite(F).all():
        raise InvalidInputError("forecast overflows a double; rescale the series")


def predict_one_ahead(segments, kernel: KernelSpec,
                      weight_mode: str = "normalized") -> PredictionResult:
    """Forecast the segment after the last of ``segments``.

    ``segments`` is a matrix (or sequence) of n >= 2 equal-length
    vectors, row n being the current segment, prepared with the default
    :class:`PipelineConfig`, or a :class:`History`, which carries its own.
    ``curve`` is the forecast of the causal pass (:meth:`History.forecasts`),
    whose values under the interpolating convention are its scaling
    coefficients; one past the largest double is an InvalidInputError.

    ``weight_mode`` selects the weighting of the observed next-segments:
    "normalized" (the default) uses the resampling weights of
    :func:`normalized_weights`, making the prediction a convex combination
    of the next-segments up to rounding (an exactly periodic history is
    reproduced exactly), while "raw" divides the kernel-weighted sum by the
    1/n-damped kernel total (when every kernel value underflows the
    prediction tends to zero, but the denominator never drops below 1/n).
    """
    _choice(weight_mode, "weight_mode", _WEIGHT_MODES)
    history = _history(segments)
    n = len(history)
    if n < 2:
        raise InsufficientHistoryError(f"need at least 2 segments, got {n}")
    _, _, F, E = next(history.forecasts(
        np.array([kernel.bandwidth]), kernel.family, weight_mode, n - 1, n))
    _finite_forecast(F)
    k = E[0, 0] / _KERNELS[kernel.family][2]
    return PredictionResult(
        curve=F[0, 0],
        weights=normalized_weights(k, n),
        effective_sample=float(k.sum()),
    )


def cv_bandwidth(segments, grid, kernel_family: str = "gaussian",
                 weight_mode: str = "normalized") -> tuple[float, np.ndarray]:
    """Bandwidth selection by leave-one-out cross-validation for time series.

    For each candidate h, segment i+1 is predicted from the causal
    history (segments 1..i only); the pair (segment i -> segment i+1)
    never appears in that candidate set, which is the leave-one-out
    scheme appropriate for dependent data.  The score averages the
    discrete mean-square prediction error over all cut points with at
    least one candidate pair, and the smallest h attaining the minimum
    is returned, whatever the order of ``grid``.

    ``segments`` is as in :func:`predict_one_ahead`.  All h share one pass
    over row blocks of the distance matrix.
    """
    grid = _floats(grid, "bandwidth grid", error=ConfigError)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError(f"bandwidth grid must be 1-d and nonempty, got {grid.shape}")
    if not np.all((grid > 0) & np.isfinite(grid)):
        raise ConfigError("bandwidth grid must be positive and finite")
    _choice(kernel_family, "kernel family", _KERNELS)
    _choice(weight_mode, "weight_mode", _WEIGHT_MODES)
    history = _history(segments)
    n = len(history)
    if n < 3:
        raise InsufficientHistoryError(f"cross-validation needs n >= 3, got {n}")
    sq_err = np.zeros(grid.size)
    for r0, r1, F, _ in history.forecasts(grid, kernel_family, weight_mode, 1, n - 1):
        F -= history.segments[r0 + 1:r1 + 1]
        with np.errstate(over="ignore"):  # checked below
            sq_err += np.mean(np.square(F, out=F), axis=-1).sum(axis=-1)
    cv_values = sq_err / (n - 2)
    if not np.all(np.isfinite(cv_values)):
        raise InvalidInputError(
            "cross-validation scores overflow: squared errors of this "
            "series are not representable; rescale it")
    return float(grid[_cv_choice(grid, cv_values)]), cv_values


def _cv_choice(grid: np.ndarray, cv_values: np.ndarray) -> int:
    """Index of the smallest h attaining the least CV score, in any grid
    order; the first such index where the grid repeats that h."""
    ties = np.flatnonzero(cv_values == cv_values.min())
    return int(ties[np.argmin(grid[ties])])


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


def default_bandwidth_grid(segments, count: int = 32) -> np.ndarray:
    """Log-spaced grid spanning the 1%..99% quantiles of pairwise distances,
    at least a decade, and ending at the largest double where that span
    would pass it.

    ``segments`` is as in :func:`predict_one_ahead`; a :class:`History`
    keeps the distances for CV.
    """
    _int(count, "grid count", 1, _MAX_SIZE)
    history = _history(segments)
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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        hi = max(q_hi, lo * 10)
        grid = np.logspace(math.log10(lo), math.log10(hi), count)
    if np.isfinite(grid).all():
        return grid
    # near the largest double, lo * 10 or 10**log10(hi) may pass it: the same
    # span as fractions of hi, which end at hi itself, at most the largest double
    hi = min(hi, sys.float_info.max)
    return hi * np.logspace(math.log10(lo / hi), 0, count)
