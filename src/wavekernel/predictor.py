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

from .errors import ConfigError, InsufficientHistoryError, LevelError, ShapeError
from .similarity import ScaleRange
from .wavelet import (
    DEFAULT_FILTER,
    Segment,
    forward_array,
    inverse_array,
    pad_to_pow2,
)

__all__ = [
    "KernelSpec",
    "PipelineConfig",
    "PredictionResult",
    "kernel_eval",
    "normalized_weights",
    "predict_coefficients",
    "predict_one_ahead",
    "cv_bandwidth",
    "default_bandwidth_grid",
    "History",
    "scaling_coefficients",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SCRATCH = 1 << 16  # doubles per row block of the causal pass (512 KiB)

_KERNELS = {
    "gaussian": lambda u: np.exp(-0.5 * u * u) / _SQRT_2PI,
    "laplace": lambda u: 0.5 * np.exp(-np.abs(u)),
}


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
    return _KERNELS[spec.family](np.asarray(u, dtype=float))


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
    """Resampling weights over the n-1 past segments; sums to 1 exactly.

    First term is each kernel value over the damped denominator of the
    prediction formula; the second term redistributes the 1/n damping
    mass equally so the total is exactly one, even when every kernel
    value underflows to zero (then all weights equal 1/(n-1)).
    """
    k = np.asarray(kernel_values, dtype=float)
    if k.size != n - 1:
        raise ShapeError(f"expected {n - 1} kernel values, got {k.size}")
    total = float(k.sum())
    w = k / (1.0 / n + total) + 1.0 / ((n - 1) * (1.0 + n * total))
    # rounding can land a hair outside [0, 1] (e.g. the single n=2 weight)
    return np.clip(w, 0.0, 1.0)


def scaling_coefficients(segments) -> tuple[np.ndarray, int]:
    """Stack segments into a matrix of padded finest-level coefficients.

    Accepts Segment objects or plain vectors, all of one length P.
    Returns ``(X, P)`` with X of shape (n, 2**J); under the
    interpolating convention the rows are the padded sample values.
    """
    rows = []
    orig_len = None
    for i, seg in enumerate(segments):
        if not isinstance(seg, Segment):
            seg = Segment(np.asarray(seg, dtype=float), segment_index=i + 1)
        if orig_len is None:
            orig_len = len(seg)
        elif len(seg) != orig_len:
            raise ShapeError(
                f"segment {i + 1} has length {len(seg)}, expected {orig_len}"
            )
        rows.append(pad_to_pow2(seg).values)
    if not rows:
        raise InsufficientHistoryError("no segments given")
    return np.stack(rows), orig_len


def _scale_blocks(X: np.ndarray, config: PipelineConfig):
    """Decompose rows of X and list (scale, block) pairs entering D."""
    coarse, details = forward_array(X, j0=config.j0, filter_id=config.filter_id)
    J = X.shape[-1].bit_length() - 1
    rng = config.scale_range or ScaleRange(config.j0, J - 1)
    if rng.j_lo < config.j0 or rng.j_hi > J - 1:
        raise LevelError(
            f"scale range [{rng.j_lo}, {rng.j_hi}] outside pyramid "
            f"scales [{config.j0}, {J - 1}]"
        )
    blocks = []
    if config.include_coarse:
        blocks.append((config.j0, coarse))
    for j in range(rng.j_lo, rng.j_hi + 1):
        blocks.append((j, details[j]))
    return blocks


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
        ``tri``), so a row reads bit-identically in any block.  Entries
        m >= q read +inf, zero weight under every kernel.  One scratch
        buffer holds about _SCRATCH doubles per value derived from a
        distance (``depth``).
        """
        n = len(self)
        width = max(depth, max(b.shape[-1] for _, b in self.blocks))
        step = max(1, min(hi - lo, _SCRATCH // (n * width)))
        buf = np.empty(step * n * width)
        for r0 in range(lo, hi, step):
            r1 = min(r0 + step, hi)
            causal = np.tri(r1 - r0, r1 - 1, r0 - 1, dtype=bool)
            if self.tri is None:
                total = np.zeros(causal.shape)
                for j, block in self.blocks:
                    shape = causal.shape + block.shape[-1:]
                    diff = np.subtract(block[None, :r1 - 1], block[r0:r1, None],
                                       out=buf[:math.prod(shape)].reshape(shape))
                    diff *= diff
                    total += math.ldexp(1.0, -j) * np.sqrt(diff.sum(axis=-1))
            D = np.full(causal.shape, np.inf)
            D[causal] = (total[causal] if self.tri is None
                         else self.tri[r0 * (r0 - 1) // 2:r1 * (r1 - 1) // 2])
            yield r0, r1, D, causal

    def forecasts(self, hs: np.ndarray, family: str, weight_mode: str,
                  lo: int, hi: int):
        """Yield (r0, r1, F, K): for each cut q = r0+i in [lo, hi), F[g, i]
        forecasts row q+1 from rows 0..q as predict_coefficients does, with
        kernel values K[g, i] at bandwidth hs[g].  Normalized mode spreads
        the damping mass of normalized_weights by running sums of rows."""
        if weight_mode not in ("raw", "normalized"):
            raise ConfigError(f"unknown weight_mode {weight_mode!r}")
        futures = self.X[1:, :self.P]
        before = futures[:lo - 1].sum(axis=0)  # sum of futures[:q-1] at q = lo
        for r0, r1, D, _ in self.rows(lo, hi, hs.size):
            q = np.arange(r0, r1)[:, None]
            K = _KERNELS[family](D / hs[:, None, None])
            S = K.sum(axis=-1)[..., None]
            KF = K.reshape(-1, r1 - 1) @ futures[:r1 - 1]  # one GEMM for all h
            F = KF.reshape(K.shape[:2] + (-1,)) / (1.0 / (q + 1) + S)
            if weight_mode == "normalized":
                prefix = before + np.cumsum(futures[r0 - 1:r1 - 1], axis=0)
                F += prefix / (q * (1.0 + (q + 1) * S))
                before = prefix[-1]
            yield r0, r1, F, K


def _history(segments, config: PipelineConfig) -> History:
    if not isinstance(segments, History):
        return History(*scaling_coefficients(segments), config)
    if segments.config != config:
        raise ConfigError("history was prepared with another pipeline config")
    return segments


def predict_coefficients(history, kernel: KernelSpec,
                         config: PipelineConfig = PipelineConfig(),
                         orig_len: int | None = None,
                         weight_mode: str = "raw") -> PredictionResult:
    """Predict the next scaling-coefficient vector from history rows 1..n.

    ``history`` is a sequence (or matrix) of n >= 2 equal-length
    power-of-two coefficient vectors; row n is the current segment.

    ``weight_mode`` selects the weighting of the observed next-segments:
    "raw" divides the kernel-weighted sum by the 1/n-damped kernel total
    (when every kernel value underflows the prediction tends to zero,
    but the denominator never drops below 1/n), while "normalized" uses
    the exactly-normalized resampling weights, making the prediction a
    convex combination of the next-segments.
    """
    X = np.asarray(history, dtype=float)
    if X.ndim != 2:
        X = np.stack([np.asarray(r, dtype=float) for r in history])
    n = X.shape[0]
    if n < 2:
        raise InsufficientHistoryError(f"need at least 2 segments, got {n}")
    _, _, F, K = next(History(X, X.shape[1], config).forecasts(
        np.array([kernel.bandwidth]), kernel.family, weight_mode, n - 1, n))
    xi, k = F[0, 0], K[0, 0]
    # reconstruct through the transform round trip (an identity for the
    # interpolating convention, kept as a structural check)
    coarse, details = forward_array(xi, j0=config.j0, filter_id=config.filter_id)
    curve = inverse_array(coarse, details, filter_id=config.filter_id)
    if orig_len is not None:
        curve = curve[:orig_len]
    return PredictionResult(
        xi_pred=xi,
        curve=curve,
        weights=normalized_weights(k, n),
        h_used=kernel.bandwidth,
        effective_sample=float(k.sum()),
    )


def predict_one_ahead(segments, kernel: KernelSpec,
                      config: PipelineConfig = PipelineConfig(),
                      weight_mode: str = "normalized") -> PredictionResult:
    """Full pipeline from raw equal-length segments to the predicted curve.

    Defaults to the normalized weighting so the forecast is a convex
    combination of observed next-segments (an exactly periodic history
    is reproduced exactly); pass ``weight_mode="raw"`` for the damped
    form.
    """
    X, P = scaling_coefficients(segments)
    return predict_coefficients(X, kernel, config=config, orig_len=P,
                                weight_mode=weight_mode)


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
        sq_err += np.mean(diff * diff, axis=-1).sum(axis=-1)
    cv_values = sq_err / (n - 2)
    best = int(np.argmin(cv_values))  # argmin takes the first, i.e. smallest h
    return float(grid[best]), cv_values


def default_bandwidth_grid(segments, config: PipelineConfig = PipelineConfig(),
                           count: int = 32) -> np.ndarray:
    """Log-spaced grid spanning the 1%..99% quantiles of pairwise distances.

    A :class:`History` passed as ``segments`` keeps them for CV.
    """
    history = _history(segments, config)
    if history.tri is None:
        n = len(history)
        rows = [D[causal] for _, _, D, causal in history.rows(1, n)]
        history.tri = np.concatenate([np.empty(0)] + rows)
    vals = history.tri[history.tri > 0]
    if vals.size == 0:
        # degenerate history (all segments identical): any h works
        return np.logspace(-3, 0, count)
    q_lo, q_hi = np.quantile(vals, [0.01, 0.99])
    lo = max(float(q_lo), 1e-12)
    hi = max(float(q_hi), lo * 10)
    return np.logspace(math.log10(lo), math.log10(hi), count)
