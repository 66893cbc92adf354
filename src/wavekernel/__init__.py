"""Functional wavelet-kernel one-step-ahead forecasting of segmented series."""

from .errors import (
    ConfigError,
    InsufficientHistoryError,
    InvalidInputError,
    LevelError,
    ShapeError,
    WavekernelError,
)
from .evaluation import gen_synthetic, naive_seasonal, rmae, rolling_eval
from .intervals import (
    PredictionInterval,
    ResamplingPlan,
    draw_pseudo_blocks,
    prediction_interval,
    resample_weights,
    weighted_quantile,
)
from .predictor import (
    KernelSpec,
    PipelineConfig,
    PredictionResult,
    cv_bandwidth,
    default_bandwidth_grid,
    kernel_eval,
    predict_one_ahead,
)
from .similarity import ScaleRange, combined_distance, scale_distance
from .wavelet import (
    DEFAULT_FILTER,
    FILTERS,
    Segment,
    WaveletPyramid,
    forward_dwt,
    inverse_dwt,
    pad_to_pow2,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "InsufficientHistoryError",
    "InvalidInputError",
    "LevelError",
    "ShapeError",
    "WavekernelError",
    "gen_synthetic",
    "naive_seasonal",
    "rmae",
    "rolling_eval",
    "PredictionInterval",
    "ResamplingPlan",
    "draw_pseudo_blocks",
    "prediction_interval",
    "resample_weights",
    "weighted_quantile",
    "KernelSpec",
    "PipelineConfig",
    "PredictionResult",
    "cv_bandwidth",
    "default_bandwidth_grid",
    "kernel_eval",
    "predict_one_ahead",
    "ScaleRange",
    "combined_distance",
    "scale_distance",
    "DEFAULT_FILTER",
    "FILTERS",
    "Segment",
    "WaveletPyramid",
    "forward_dwt",
    "inverse_dwt",
    "pad_to_pow2",
]
