"""Command-line interface: data loading, configuration and batch runs.

Subcommands
-----------
predict   one-step-ahead point forecast of the next segment
cv        bandwidth selection table by time-series cross-validation
interval  point forecast plus resampling prediction interval
eval      holdout / rolling scoring against the naive seasonal baseline

Each run writes a prediction CSV, a JSON summary echoing the full
configuration (sufficient to replay the run) and a plot-data CSV.
Numbers are written with 17 significant digits so files round-trip
doubles exactly; a fixed seed therefore yields byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import evaluation, intervals, predictor
from .errors import ConfigError, InvalidInputError, LevelError, WavekernelError
from .predictor import KernelSpec, PipelineConfig
from .similarity import ScaleRange
from .wavelet import FILTERS, DEFAULT_FILTER

__all__ = ["RunConfig", "load_series", "write_series", "main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to replay a run."""

    command: str
    input: str
    output_dir: str = "."
    p: int = 0
    filter_id: str = DEFAULT_FILTER
    j0: int = 0
    kernel: str = "gaussian"
    bandwidth: float | None = None
    cv_grid: str | None = None
    alpha: float = 0.025
    b: int = 500
    seed: int = 0
    scales: str | None = None
    drop_remainder: bool = False
    rolling: bool = False
    external_forecast: str | None = None

    def __post_init__(self):
        if self.p < 2:
            raise ConfigError(f"--p must be >= 2, got {self.p}")
        if self.filter_id not in FILTERS:
            raise ConfigError(f"unknown filter {self.filter_id!r}")
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"--alpha must lie in (0, 0.5), got {self.alpha}")
        if self.b < 1:
            raise ConfigError(f"--b must be >= 1, got {self.b}")
        if self.bandwidth is not None and self.cv_grid is not None:
            raise ConfigError("pass exactly one of --h and --cv-grid, not both")

    def pipeline(self) -> PipelineConfig:
        rng = None
        if self.scales:
            try:
                lo, hi = (int(s) for s in self.scales.split(":"))
            except ValueError as exc:
                raise ConfigError(f"--scales must be lo:hi, got {self.scales!r}") from exc
            rng = ScaleRange(lo, hi)
        return PipelineConfig(filter_id=self.filter_id, j0=self.j0, scale_range=rng)

    def grid(self, segments) -> np.ndarray:
        if self.cv_grid in (None, "auto"):
            return predictor.default_bandwidth_grid(segments, config=self.pipeline())
        try:
            lo_s, hi_s, count_s = self.cv_grid.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
        except ValueError as exc:
            raise ConfigError(
                f"--cv-grid must be lo:hi:count or 'auto', got {self.cv_grid!r}"
            ) from exc
        if not (0 < lo <= hi and count >= 1):
            raise ConfigError(f"invalid --cv-grid bounds {self.cv_grid!r}")
        return np.geomspace(lo, hi, count)


def load_series(path, fmt: str = "csv") -> np.ndarray:
    """Read the first field of each row as one value (format: README, CLI).

    Blank rows are skipped and a non-numeric row 1 is a header.  The rows
    after row 1 are parsed in one C pass.  An unparseable or non-finite
    value, or no value at all, sends the file to the row reader instead,
    which gives the same values and names the first bad row.
    """
    if fmt != "csv":
        raise ConfigError(f"unsupported input format {fmt!r}")
    p = Path(path)
    if not p.exists():
        raise InvalidInputError(f"input file not found: {p}")
    try:
        with p.open(newline="") as fh:
            try:
                values = _parse_whole(fh)
            except ValueError:
                values = None
            if values is None or values.size == 0 or not np.isfinite(values).all():
                fh.seek(0)
                values = _parse_rows(fh, p)
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{p}: not {exc.encoding} text: {exc.reason}") from None
    except csv.Error as exc:
        raise InvalidInputError(f"{p}: cannot parse: {exc}") from None
    except OSError as exc:
        raise InvalidInputError(f"cannot read input file {p}: {exc.strerror}") from None
    return values


def _parse_whole(fh) -> np.ndarray:
    """Row 1 as the row reader reads it, then every later row in one C parse."""
    row = next(csv.reader(fh), [])
    token = row[0].strip() if row else ""
    try:
        head = [float(token)] if token else []
    except ValueError:
        head = []  # header row
    # np.loadtxt warns on input without rows: start it at the first non-empty line
    for line in fh:
        if line.strip("\r\n"):
            body = np.loadtxt(itertools.chain([line], fh), delimiter=",", usecols=0,
                              comments=None, quotechar='"', ndmin=1)
            return np.concatenate([head, body]) if head else body
    return np.array(head)


def _parse_rows(fh, p: Path) -> np.ndarray:
    """The row-by-row reader: rejects the first bad value by its row number."""
    values = []
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


def write_series(path, values) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["value"])
        for v in np.asarray(values, dtype=float):
            writer.writerow([_fmt(v)])


def _write_columns(path, columns: dict) -> None:
    names = list(columns)
    length = len(next(iter(columns.values())))
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t_index"] + names)
        for i in range(length):
            writer.writerow([i] + [_fmt(columns[c][i]) for c in names])


def _write_summary(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _segments(cfg: RunConfig) -> np.ndarray:
    series = load_series(cfg.input)
    segments = evaluation.split_segments(series, cfg.p,
                                         drop_remainder=cfg.drop_remainder)
    if segments.size < series.size:
        print(f"dropping {series.size - segments.size} trailing values",
              file=sys.stderr)
    return segments


def _select_bandwidth(cfg: RunConfig, history: predictor.History):
    """Cross-validate h over the requested grid; return (h, CV table).

    Grid and CV share the prepared history, so the auto grid's pairwise
    distances are the ones CV reads.
    """
    grid = cfg.grid(history)
    h_star, cv_values = predictor.cv_bandwidth(
        history, grid, kernel_family=cfg.kernel, config=history.config
    )
    table = [
        {"h": float(h), "cv": float(v), "selected": bool(h == h_star)}
        for h, v in zip(grid, cv_values)
    ]
    return h_star, table


def _forecast(cfg: RunConfig, segments: np.ndarray):
    """Forecast the block after ``segments``; return (result, CV table or None).

    One history, prepared here, serves grid, CV and prediction, and is
    freed on return.
    """
    history = predictor._history(segments, cfg.pipeline())
    h, cv_table = cfg.bandwidth, None
    if h is None:
        h, cv_table = _select_bandwidth(cfg, history)
    result = predictor.predict_one_ahead(history, KernelSpec(cfg.kernel, h),
                                         config=history.config)
    return result, cv_table


def _run_predict(cfg: RunConfig) -> int:
    segments = _segments(cfg)
    result, cv_table = _forecast(cfg, segments)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("prediction.csv", "plotdata.csv"):
        _write_columns(out / name, {"predicted": result.curve})
    summary = {
        "command": "predict",
        "config": asdict(cfg),
        "h_used": result.h_used,
        "effective_sample": result.effective_sample,
        "n_segments": int(segments.shape[0]),
    }
    if cv_table is not None:
        summary["cv_table"] = cv_table
    _write_summary(out / "summary.json", summary)
    return 0


def _run_cv(cfg: RunConfig) -> int:
    segments = _segments(cfg)
    if cfg.bandwidth is not None:
        raise ConfigError("cv takes --cv-grid (or its auto default), not --h")
    h_star, cv_table = _select_bandwidth(
        cfg, predictor._history(segments, cfg.pipeline()))
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "cv.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["h", "cv", "selected"])
        for row in cv_table:
            writer.writerow([_fmt(row["h"]), _fmt(row["cv"]), int(row["selected"])])
    summary = {
        "command": "cv",
        "config": asdict(cfg),
        "h_selected": float(h_star),
        "cv_table": cv_table,
        "n_segments": int(segments.shape[0]),
    }
    _write_summary(out / "summary.json", summary)
    return 0


def _run_interval(cfg: RunConfig) -> int:
    segments = _segments(cfg)
    result, cv_table = _forecast(cfg, segments)
    plan = intervals.ResamplingPlan(B=cfg.b, alpha=cfg.alpha, seed=cfg.seed,
                                    weights=result.weights)
    band = intervals.prediction_interval(segments, result, plan)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = {"predicted": result.curve, "lower": band.lower, "upper": band.upper}
    for name in ("prediction.csv", "plotdata.csv"):
        _write_columns(out / name, columns)
    summary = {
        "command": "interval",
        "config": asdict(cfg),
        "h_used": result.h_used,
        "effective_sample": result.effective_sample,
        "alpha": cfg.alpha,
        "B": cfg.b,
        "seed": cfg.seed,
        "n_segments": int(segments.shape[0]),
    }
    if cv_table is not None:
        summary["cv_table"] = cv_table
    _write_summary(out / "summary.json", summary)
    return 0


def _run_eval(cfg: RunConfig) -> int:
    segments = _segments(cfg)
    # h is selected without the held-out block that is scored below
    result, cv_table = _forecast(cfg, segments[:-1])
    pred, truth = result.curve, segments[-1]
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary: dict = {"command": "eval", "config": asdict(cfg),
                     "h_used": result.h_used, "n_segments": int(segments.shape[0])}
    if cv_table is not None:
        summary["cv_table"] = cv_table
    if cfg.rolling:
        kernel = KernelSpec(cfg.kernel, result.h_used)
        wk_reports = evaluation.rolling_eval(
            segments.reshape(-1), cfg.p, evaluation.wk_method(kernel, cfg.pipeline())
        )
        naive_reports = evaluation.rolling_eval(
            segments.reshape(-1), cfg.p, evaluation.naive_seasonal,
            method_id="naive",
        )
        summary["rolling"] = {
            "wk": evaluation.summarize(wk_reports),
            "naive": evaluation.summarize(naive_reports),
        }
    else:
        naive = evaluation.naive_seasonal(segments[:-1])
        summary["holdout"] = {
            "segment_index": int(segments.shape[0]),
            "wk_rmae": evaluation.rmae(pred, truth, method_id="wk").rmae,
            "naive_rmae": evaluation.rmae(naive, truth, method_id="naive").rmae,
        }
        if cfg.external_forecast:
            ext = load_series(cfg.external_forecast)
            if ext.size != cfg.p:
                raise ConfigError(
                    f"external forecast has {ext.size} values, expected {cfg.p}"
                )
            summary["holdout"]["external_rmae"] = evaluation.rmae(
                ext, truth, method_id="external"
            ).rmae
    _write_columns(out / "prediction.csv", {"predicted": pred})
    _write_columns(out / "plotdata.csv", {"truth": truth, "predicted": pred})
    _write_summary(out / "summary.json", summary)
    return 0


_RUNNERS = {
    "predict": _run_predict,
    "cv": _run_cv,
    "interval": _run_interval,
    "eval": _run_eval,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavekernel",
        description="Wavelet-kernel one-step-ahead forecasting of segmented series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("predict", "point forecast of the next segment"),
        ("cv", "cross-validation bandwidth table"),
        ("interval", "forecast with resampling prediction interval"),
        ("eval", "holdout / rolling evaluation"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON file with defaults for any flag")
        sp.add_argument("--input", help="CSV series, one value per row")
        sp.add_argument("--output-dir", default=None)
        sp.add_argument("--p", type=int, help="segment length")
        sp.add_argument("--filter", dest="filter_id", choices=sorted(FILTERS),
                        default=None)
        sp.add_argument("--j0", type=int, default=None)
        sp.add_argument("--kernel", choices=["gaussian", "laplace"], default=None)
        sp.add_argument("--h", dest="bandwidth", type=float, default=None)
        sp.add_argument("--cv-grid", default=None, metavar="LO:HI:COUNT|auto")
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--b", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--scales", default=None, metavar="LO:HI")
        sp.add_argument("--drop-remainder", action="store_true", default=None)
        if name == "eval":
            sp.add_argument("--rolling", action="store_true", default=None)
            sp.add_argument("--external-forecast", default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    merged: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        unknown = set(loaded) - names
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    if not merged.get("input"):
        raise ConfigError("--input is required")
    if merged.get("p") is None:
        raise ConfigError("--p is required")
    if args.command == "cv":
        merged.setdefault("cv_grid", "auto")
    elif merged.get("bandwidth") is None and merged.get("cv_grid") is None:
        raise ConfigError("pass exactly one of --h and --cv-grid (or --cv-grid auto)")
    return RunConfig(**merged)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _RUNNERS[args.command](cfg)
    except (ConfigError, LevelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except WavekernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
