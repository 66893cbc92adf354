"""Command-line interface: data loading, configuration and batch runs.

Subcommands
-----------
predict   one-step-ahead point forecast of the next segment
cv        bandwidth selection table by time-series cross-validation
interval  point forecast plus resampling prediction interval
eval      holdout / rolling scoring against the naive seasonal baseline

``predict``, ``interval`` and ``eval`` write a prediction CSV, a plot-data
CSV and a JSON summary echoing the full configuration (sufficient to
replay the run); ``cv`` writes its CV table and the summary.
Numbers are written with 17 significant digits so files round-trip
doubles exactly; a fixed seed therefore yields byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
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


# the accepted types of each RunConfig annotation, exactly: a bool is no int
_TYPES = {"int": (int,), "float": (float, int), "str": (str,), "bool": (bool,)}


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
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if not (value is None and optional or type(value) in _TYPES[kind]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.p < 2:
            raise ConfigError(f"--p must be >= 2, got {self.p}")
        if self.filter_id not in FILTERS:
            raise ConfigError(f"unknown filter {self.filter_id!r}")
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"--alpha must lie in (0, 0.5), got {self.alpha}")
        if self.b < 1:
            raise ConfigError(f"--b must be >= 1, got {self.b}")
        if not 0 <= self.seed < 1 << 128:
            raise ConfigError(f"--seed must lie in [0, 2**128), got {self.seed}")
        if self.command == "cv" and self.bandwidth is not None:
            raise ConfigError("cv takes --cv-grid (or its auto default), not --h")
        if self.bandwidth is not None and self.cv_grid is not None:
            raise ConfigError("pass exactly one of --h and --cv-grid, not both")
        if self.rolling and self.external_forecast is not None:
            raise ConfigError("--external-forecast scores the holdout; "
                              "it cannot be combined with --rolling")
        # check --h, the levels of --j0 and --scales on the pyramid of --p,
        # and --cv-grid now, before any input is read
        if self.bandwidth is not None:
            KernelSpec(self.kernel, self.bandwidth)
        predictor._scale_range(self.pipeline(), (self.p - 1).bit_length())
        self._grid_bounds()

    def pipeline(self) -> PipelineConfig:
        rng = None
        if self.scales:
            try:
                lo, hi = (int(s) for s in self.scales.split(":"))
            except ValueError as exc:
                raise ConfigError(f"--scales must be lo:hi, got {self.scales!r}") from exc
            rng = ScaleRange(lo, hi)
        return PipelineConfig(filter_id=self.filter_id, j0=self.j0, scale_range=rng)

    def _grid_bounds(self) -> tuple[float, float, int] | None:
        """(lo, hi, count) of a lo:hi:count ``--cv-grid``; None for auto."""
        if self.cv_grid in (None, "auto"):
            return None
        try:
            lo_s, hi_s, count_s = self.cv_grid.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
        except ValueError as exc:
            raise ConfigError(
                f"--cv-grid must be lo:hi:count or 'auto', got {self.cv_grid!r}"
            ) from exc
        if not (0 < lo <= hi < np.inf and count >= 1):
            raise ConfigError(f"invalid --cv-grid bounds {self.cv_grid!r}")
        return lo, hi, count

    def grid(self, history: predictor.History) -> np.ndarray:
        bounds = self._grid_bounds()
        if bounds is None:
            return predictor.default_bandwidth_grid(history, config=history.config)
        return np.geomspace(*bounds)


# numpy's loadtxt opens a path with these suffixes through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def load_series(path) -> np.ndarray:
    """Read the first field of each row as one value (format: README, CLI).

    A leading byte-order mark is skipped, blank rows are skipped and a
    non-numeric row 1 is a header.  The rows after row 1 are parsed in one
    C pass that ``np.loadtxt`` reads from the path in chunks.  An
    unparseable or non-finite value, a quoted row 1 over several lines,
    or no value at all, sends the file to the row reader instead, which
    gives the same values and names the first bad row.  So does a name
    ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``, from which numpy
    would decompress: every file is read as plain text.
    """
    p = Path(path)
    if not p.exists():
        raise InvalidInputError(f"input file not found: {p}")
    try:
        with p.open(newline="") as fh:
            try:
                values = _parse_whole(_rewind(fh), p)
            except ValueError:
                values = None
            if values is None or values.size == 0 or not np.isfinite(values).all():
                values = _parse_rows(_rewind(fh), p)
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{p}: not {exc.encoding} text: {exc.reason}") from None
    except csv.Error as exc:
        raise InvalidInputError(f"{p}: cannot parse: {exc}") from None
    except OSError as exc:
        raise InvalidInputError(f"cannot read input file {p}: {exc.strerror}") from None
    return values


def _rewind(fh):
    """Seek ``fh`` to its first character after a leading byte-order mark."""
    fh.seek(0)
    if fh.read(1) != "\ufeff":
        fh.seek(0)
    return fh


def _parse_whole(fh, p: Path) -> np.ndarray | None:
    """Row 1 as the row reader reads it, then every later row in one C parse
    of the file at ``p``.  None for a compressed-looking name, and when
    row 1 spans lines, as ``skiprows`` counts lines, not rows."""
    if p.suffix in _COMPRESSED:
        return None
    reader = csv.reader(fh)
    row = next(reader, [])
    if reader.line_num > 1:
        return None
    token = row[0].strip() if row else ""
    try:
        head = [float(token)] if token else []
    except ValueError:
        head = []  # header row
    with warnings.catch_warnings():
        # a file without rows after row 1 reads as no values, not a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        body = np.loadtxt(os.fspath(p), skiprows=1, encoding=fh.encoding,
                          delimiter=",", usecols=0, comments=None, quotechar='"',
                          ndmin=1)
    return np.concatenate([head, body]) if head else body


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
    """Cross-validate h over the requested grid; return (h, summary fields):
    the CV table and whether its minimum sits on an edge of the grid, where
    the best h may lie beyond it (also warned on stderr).

    Grid and CV share the prepared history, so the auto grid's pairwise
    distances are the ones CV reads.
    """
    grid = cfg.grid(history)
    h_star, cv_values = predictor.cv_bandwidth(
        history, grid, kernel_family=cfg.kernel, config=history.config
    )
    best = int(np.argmin(cv_values))  # the index cv_bandwidth selects
    edge = grid.size > 1 and best in (0, grid.size - 1)
    if edge:
        print(f"warning: the CV minimum lies on the {'lower' if best == 0 else 'upper'} "
              f"edge of the bandwidth grid (h = {h_star:.6g})", file=sys.stderr)
    table = [
        {"h": float(h), "cv": float(v), "selected": i == best}
        for i, (h, v) in enumerate(zip(grid, cv_values))
    ]
    return h_star, {"cv_table": table, "cv_min_on_grid_edge": edge}


def _forecast(cfg: RunConfig, history: predictor.History):
    """Forecast the block after ``history`` with ``--h``, or h selected by
    CV on it; return (result, CV summary fields, empty with ``--h``)."""
    h, cv = cfg.bandwidth, {}
    if h is None:
        h, cv = _select_bandwidth(cfg, history)
    result = predictor.predict_one_ahead(history, KernelSpec(cfg.kernel, h),
                                         config=history.config)
    return result, cv


def _write_run(cfg: RunConfig, segments: np.ndarray, tables: dict, **run) -> Path:
    """Make ``--output-dir``, write each named table and ``summary.json``.

    The summary holds the command, the config, the segment count and
    every field of ``run`` that is not None.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, columns in tables.items():
        _write_columns(out / name, columns)
    summary = {"command": cfg.command, "config": asdict(cfg),
               "n_segments": int(segments.shape[0])}
    summary.update((k, v) for k, v in run.items() if v is not None)
    _write_summary(out / "summary.json", summary)
    return out


def _run_predict(cfg: RunConfig) -> None:
    segments = _segments(cfg)
    result, cv = _forecast(cfg, predictor._history(segments, cfg.pipeline()))
    columns = {"predicted": result.curve}
    _write_run(cfg, segments, {"prediction.csv": columns, "plotdata.csv": columns},
               h_used=result.h_used, effective_sample=result.effective_sample, **cv)


def _run_cv(cfg: RunConfig) -> None:
    segments = _segments(cfg)
    h_star, cv = _select_bandwidth(cfg, predictor._history(segments, cfg.pipeline()))
    out = _write_run(cfg, segments, {}, h_selected=float(h_star), **cv)
    with (out / "cv.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["h", "cv", "selected"])
        for row in cv["cv_table"]:
            writer.writerow([_fmt(row["h"]), _fmt(row["cv"]), int(row["selected"])])


def _run_interval(cfg: RunConfig) -> None:
    segments = _segments(cfg)
    # the history is freed on return, before the draw
    result, cv = _forecast(cfg, predictor._history(segments, cfg.pipeline()))
    plan = intervals.ResamplingPlan(B=cfg.b, alpha=cfg.alpha, seed=cfg.seed,
                                    weights=result.weights)
    band = intervals.prediction_interval(segments, result, plan)
    columns = {"predicted": result.curve, "lower": band.lower, "upper": band.upper}
    _write_run(cfg, segments, {"prediction.csv": columns, "plotdata.csv": columns},
               h_used=result.h_used, effective_sample=result.effective_sample,
               alpha=cfg.alpha, B=cfg.b, seed=cfg.seed, **cv)


def _run_eval(cfg: RunConfig) -> None:
    segments = _segments(cfg)
    # the held-out block stays out of the one history, so CV never selects
    # h on it; the rolling forecasts of the earlier blocks come from it too
    history = predictor._history(segments[:-1], cfg.pipeline())
    result, cv = _forecast(cfg, history)
    pred, truth = result.curve, segments[-1]
    holdout = rolling = None
    if cfg.rolling:
        wk = evaluation.wk_method(KernelSpec(cfg.kernel, result.h_used), history.config)
        preds = np.vstack((wk.batch(history, 2), pred))  # origins 2..n-1
        naive = evaluation.rolling_eval(segments, cfg.p, evaluation.naive_seasonal)
        # with --cv-grid, h was tuned on these same rolling forecasts
        rolling = {"wk": evaluation.summarize(evaluation.rmae(preds, segments[2:])),
                   "naive": evaluation.summarize(naive),
                   "h_in_sample": cfg.bandwidth is None}
    else:
        naive = evaluation.naive_seasonal(segments[:-1])
        holdout = {
            "segment_index": int(segments.shape[0]),
            "wk_rmae": evaluation.rmae(pred, truth),
            "naive_rmae": evaluation.rmae(naive, truth),
        }
        if cfg.external_forecast:
            ext = load_series(cfg.external_forecast)
            if ext.size != cfg.p:
                raise ConfigError(
                    f"external forecast has {ext.size} values, expected {cfg.p}"
                )
            holdout["external_rmae"] = evaluation.rmae(ext, truth)
    _write_run(cfg, segments, {"prediction.csv": {"predicted": pred},
                               "plotdata.csv": {"truth": truth, "predicted": pred}},
               h_used=result.h_used, holdout=holdout, rolling=rolling, **cv)


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
        _RUNNERS[args.command](_config_from_args(args))
        return 0
    except (ConfigError, LevelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except WavekernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
