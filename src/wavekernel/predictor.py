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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InsufficientHistoryError,
    InvalidInputError,
    LevelError,
    ShapeError,
)
from .similarity import ScaleRange
from .wavelet import DEFAULT_FILTER, forward_array, inverse_array

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

_SCRATCH = 1 << 16  # doubles per row block of the causal pass (512 KiB)
_PIECE = 1 << 14  # doubles per piece of the centred futures (128 KiB)

# kernel(u) = exp(-a |u|**p) / c per family, as (p, a, c): c = 1/kernel(0)
_KERNELS = {"gaussian": (2, 0.5, math.sqrt(2.0 * math.pi)),
            "laplace": (1, 1.0, 2.0)}
# bandwidths sharing one distance transform lie within 2**±400 of its scale
_GROUP_SPAN = 800


def _is_int(x) -> bool:
    """A Python or numpy integer; a bool is no int."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and bandwidth for the similarity weighting."""

    family: str = "gaussian"
    bandwidth: float = 1.0

    def __post_init__(self):
        if self.family not in _KERNELS:
            raise ConfigError(
                f"unknown kernel family {self.family!r}; "
                f"choose from {sorted(_KERNELS)}"
            )
        if not (self.bandwidth > 0 and np.isfinite(self.bandwidth)):
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")


def kernel_eval(spec: KernelSpec, u) -> np.ndarray:
    """Evaluate the kernel density at |u| (bandwidth is applied by callers)."""
    p, a, c = _KERNELS[spec.family]
    k = np.abs(np.array(u, dtype=float, ndmin=1))
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
    include_coarse: bool = False


@dataclass(frozen=True)
class PredictionResult:
    """Predicted scaling coefficients plus the reconstructed curve."""

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
    single weight is exactly 1.
    """
    k = np.asarray(kernel_values, dtype=float)
    if k.size != n - 1:
        raise ShapeError(f"expected {n - 1} kernel values, got {k.size}")
    if n == 2:
        return np.ones(1)
    total = float(k.sum())
    return k / (1.0 / n + total) + 1.0 / ((n - 1) * (1.0 + n * total))


def scaling_coefficients(segments) -> tuple[np.ndarray, int]:
    """Stack equal-length segments into padded finest-level coefficients.

    Returns ``(X, P)`` with X of shape (n, 2**J): each row is its segment
    extended periodically on the right to the next power of two, which
    under the interpolating convention are its scaling coefficients.
    """
    try:
        X = np.array(segments, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"segments must be equal-length numeric vectors: {exc}") from None
    if X.ndim > 0 and len(X) == 0:
        raise InsufficientHistoryError("no segments given")
    if X.ndim != 2 or X.shape[1] < 2:
        raise InvalidInputError(
            f"segments must be vectors of at least 2 samples, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("segments contain non-finite values")
    P = X.shape[1]
    return X[:, np.arange(1 << (P - 1).bit_length()) % P], P


def _scale_range(config: PipelineConfig, J: int) -> ScaleRange:
    """The detail scales entering D for a pyramid of J levels: those of
    ``config.scale_range`` (by default all), each within [j0, J-1]."""
    if not 0 <= config.j0 < J:
        raise LevelError(f"need 0 <= j0 < J = {J}, got j0={config.j0}")
    rng = config.scale_range or ScaleRange(config.j0, J - 1)
    if rng.j_lo < config.j0 or rng.j_hi > J - 1:
        raise LevelError(
            f"scale range [{rng.j_lo}, {rng.j_hi}] outside pyramid "
            f"scales [{config.j0}, {J - 1}]"
        )
    return rng


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
    rng = _scale_range(config, X.shape[-1].bit_length() - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        coarse, details = forward_array(X, j0=config.j0, filter_id=config.filter_id)
    blocks = [(config.j0, coarse)] if config.include_coarse else []
    blocks += [(j, details[j]) for j in range(rng.j_lo, rng.j_hi + 1)]
    top = max(float(np.abs(b).max()) for _, b in blocks)
    e = math.frexp(top)[1]
    if not math.isfinite(top) or e - blocks[0][0] > 1023:
        raise InvalidInputError(
            f"wavelet coefficients of magnitude {top:.3g} are too large for doubles; "
            "rescale the series")
    return [(math.ldexp(1.0, e - j), np.ldexp(b.T, -e, out=np.empty(b.shape[::-1])))
            for j, b in blocks]


class History:
    """Rows ``X`` prepared once with ``config``; forecasts cover their first
    ``P`` columns.  ``tri`` keeps the distances of all pairs m < q, row by
    row, once :func:`default_bandwidth_grid` built them."""

    def __init__(self, X: np.ndarray, P: int,
                 config: PipelineConfig = PipelineConfig()):
        self.X, self.P, self.config = X, P, config
        self.blocks = _scale_blocks(X, config)
        self.tri = None

    def __len__(self) -> int:
        return self.X.shape[0]

    def rows(self, lo: int, hi: int, depth: int = 1):
        """Yield (r0, r1, D[r0:r1, :r1-1], causal mask) for rows [lo, hi), lo >= 1.

        The one distance arithmetic (direct differences, or their copy in
        ``tri``), so a row reads bit-identically in any block.  Each scale
        block is scale-major, (width, n): its differences fill a (width,
        rows, cols) view of one scratch buffer, are squared in place and
        summed over the leading axis, one whole (rows, cols) plane per
        coefficient, in coefficient order.  Entries m >= q read +inf, zero
        weight under every kernel.  The buffer holds about _SCRATCH doubles
        per value derived from a distance (``depth``).
        """
        n = len(self)
        width = max(depth, max(b.shape[0] for _, b in self.blocks))
        step = max(1, min(hi - lo, _SCRATCH // (n * width)))
        buf = np.empty(step * n * width)
        for r0 in range(lo, hi, step):
            r1 = min(r0 + step, hi)
            causal = np.tri(r1 - r0, r1 - 1, r0 - 1, dtype=bool)
            if self.tri is None:
                # at least two columns: numpy reduces a 1x1 plane in pairwise order
                total = np.zeros((r1 - r0, max(r1 - 1, 2)))
                for weight, block in self.blocks:
                    shape = block.shape[:1] + total.shape
                    diff = np.subtract(block[:, None, :shape[2]], block[:, r0:r1, None],
                                       out=buf[:math.prod(shape)].reshape(shape))
                    diff *= diff
                    total += weight * np.sqrt(np.add.reduce(diff, axis=0))
            D = np.full(causal.shape, np.inf)
            D[causal] = (total[:, :r1 - 1][causal] if self.tri is None
                         else self.tri[r0 * (r0 - 1) // 2:r1 * (r1 - 1) // 2])
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
        normalized_weights, as they sum to 1: a single candidate row
        (Z = 0) is reproduced bit for bit, and a forecast is the convex
        combination of its reported weights up to rounding.  Z is made in
        pieces of about _PIECE doubles, one product each (one in all for
        n - 1 <= _PIECE / (P + 1)), so a one-row call (predict) never holds
        a copy of the futures.
        """
        if weight_mode not in ("raw", "normalized"):
            raise ConfigError(f"unknown weight_mode {weight_mode!r}")
        p, a, c = _KERNELS[family]
        G, P = hs.size, self.P
        groups = _rate_groups(hs, p, a)
        n, C = len(self), max(1, _PIECE // (P + 1))
        fut0 = self.X[1, :P]
        q = np.arange(lo, hi)[:, None]
        damp, share = c / (q + 1), c / (q * (q + 1))
        pieces = []  # Z in pieces of C rows, kept while a later block needs them
        for r0, r1, D, causal in self.rows(lo, hi, G):
            E = np.empty((G + 1,) + D.shape)
            # an exponent past the largest double is a kernel value of 0
            with np.errstate(over="ignore"):
                for run, scale, neg_rates in groups:
                    T = np.multiply(D, scale)  # D = inf off the causal set
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


def _history(segments, config: PipelineConfig) -> History:
    """The one way segments become a History; a prepared one passes through."""
    if not isinstance(segments, History):
        return History(*scaling_coefficients(segments), config)
    if segments.config != config:
        raise ConfigError("history was prepared with another pipeline config")
    return segments


def predict_one_ahead(segments, kernel: KernelSpec,
                      config: PipelineConfig = PipelineConfig(),
                      weight_mode: str = "normalized") -> PredictionResult:
    """Forecast the segment after the last of ``segments``.

    ``segments`` is a matrix (or sequence) of n >= 2 equal-length
    vectors, row n being the current segment, or a :class:`History`
    prepared with ``config``.  ``xi_pred`` holds the forecast's padded
    scaling coefficients, ``curve`` its first P values.

    ``weight_mode`` selects the weighting of the observed next-segments:
    "normalized" (the default) uses the resampling weights of
    :func:`normalized_weights`, making the prediction a convex combination
    of the next-segments up to rounding (an exactly periodic history is
    reproduced exactly), while "raw" divides the kernel-weighted sum by the
    1/n-damped kernel total (when every kernel value underflows the
    prediction tends to zero, but the denominator never drops below 1/n).
    """
    history = _history(segments, config)
    n = len(history)
    if n < 2:
        raise InsufficientHistoryError(f"need at least 2 segments, got {n}")
    _, _, F, E = next(history.forecasts(
        np.array([kernel.bandwidth]), kernel.family, weight_mode, n - 1, n))
    # periodic padding of the P forecast columns, as in scaling_coefficients
    xi = F[0, 0][np.arange(history.X.shape[1]) % history.P]
    k = E[0, 0] / _KERNELS[kernel.family][2]
    # reconstruct through the transform round trip (an identity for the
    # interpolating convention, kept as a structural check)
    config = history.config
    coarse, details = forward_array(xi, j0=config.j0, filter_id=config.filter_id)
    curve = inverse_array(coarse, details, filter_id=config.filter_id)
    return PredictionResult(
        xi_pred=xi,
        curve=curve[:history.P],
        weights=normalized_weights(k, n),
        h_used=kernel.bandwidth,
        effective_sample=float(k.sum()),
    )


def cv_bandwidth(segments, grid, kernel_family: str = "gaussian",
                 config: PipelineConfig = PipelineConfig(),
                 weight_mode: str = "normalized") -> tuple[float, np.ndarray]:
    """Bandwidth selection by leave-one-out cross-validation for time series.

    For each candidate h, segment i+1 is predicted from the causal
    history (segments 1..i only); the pair (segment i -> segment i+1)
    never appears in that candidate set, which is the leave-one-out
    scheme appropriate for dependent data.  The score averages the
    discrete mean-square prediction error over all cut points with at
    least one candidate pair, and the smallest h attaining the minimum
    is returned.

    ``segments`` may be a :class:`History` prepared with ``config``.
    All h share one pass over row blocks of the distance matrix.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ConfigError(f"bandwidth grid must be 1-d, got shape {grid.shape}")
    if grid.size == 0:
        raise ConfigError("bandwidth grid is empty")
    if not np.all((grid > 0) & np.isfinite(grid)):
        raise ConfigError("bandwidth grid must be positive and finite")
    if kernel_family not in _KERNELS:
        raise ConfigError(f"unknown kernel family {kernel_family!r}")
    history = _history(segments, config)
    n = len(history)
    if n < 3:
        raise InsufficientHistoryError(f"cross-validation needs n >= 3, got {n}")
    sq_err = np.zeros(grid.size)
    for r0, r1, F, _ in history.forecasts(grid, kernel_family, weight_mode, 1, n - 1):
        diff = F - history.X[r0 + 1:r1 + 1, :history.P]
        with np.errstate(over="ignore"):  # checked below
            sq_err += np.mean(diff * diff, axis=-1).sum(axis=-1)
    cv_values = sq_err / (n - 2)
    if not np.all(np.isfinite(cv_values)):
        raise InvalidInputError(
            "cross-validation scores overflow: squared errors of this "
            "series are not representable; rescale it")
    best = int(np.argmin(cv_values))  # argmin takes the first, i.e. smallest h
    return float(grid[best]), cv_values


def default_bandwidth_grid(segments, config: PipelineConfig = PipelineConfig(),
                           count: int = 32) -> np.ndarray:
    """Log-spaced grid spanning the 1%..99% quantiles of pairwise distances.

    A :class:`History` passed as ``segments`` keeps them for CV.
    """
    if not _is_int(count) or count < 1:
        raise ConfigError(f"grid count must be an int >= 1, got {count!r}")
    history = _history(segments, config)
    if history.tri is None:
        n = len(history)
        rows = [D[causal] for _, _, D, causal in history.rows(1, n)]
        history.tri = np.concatenate([np.empty(0)] + rows)
    vals = history.tri[history.tri > 0]
    if vals.size == 0:
        # degenerate history (all segments identical): any h works
        return np.logspace(-3, 0, count)
    # the boolean index made vals a copy, so the quantile may reorder it
    q_lo, q_hi = np.quantile(vals, [0.01, 0.99], overwrite_input=True)
    lo = max(float(q_lo), 1e-12 * float(q_hi))
    hi = max(float(q_hi), lo * 10)
    return np.logspace(math.log10(lo), math.log10(hi), count)
