"""Functional wavelet-kernel one-step-ahead forecasting of segmented series.

The per-pyramid object API is the tests' oracle, not exported here: it
stays in ``wavekernel.wavelet`` and ``wavekernel.similarity``.
"""

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
    prediction_interval,
    weighted_quantile,
)
from .predictor import (
    History,
    KernelSpec,
    PipelineConfig,
    PredictionResult,
    ScaleRange,
    cv_bandwidth,
    default_bandwidth_grid,
    kernel_eval,
    predict_one_ahead,
)
from .wavelet import DEFAULT_FILTER, FILTERS

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
    "prediction_interval",
    "weighted_quantile",
    "History",
    "KernelSpec",
    "PipelineConfig",
    "PredictionResult",
    "cv_bandwidth",
    "default_bandwidth_grid",
    "kernel_eval",
    "predict_one_ahead",
    "ScaleRange",
    "DEFAULT_FILTER",
    "FILTERS",
]
