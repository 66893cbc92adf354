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
from .errors import (_ALPHAS, _MIN_B, _MIN_P, _SEEDS, ConfigError, InvalidInputError,
                     LevelError, WavekernelError, _choice, _int, _real)
from .predictor import KernelSpec, PipelineConfig
from .similarity import ScaleRange, _scale_range
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
        _int(self.p, "--p", _MIN_P)
        _choice(self.filter_id, "--filter", FILTERS)
        _real(self.alpha, "--alpha", *_ALPHAS)
        _int(self.b, "--b", _MIN_B)
        _int(self.seed, "--seed", *_SEEDS)
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
        _scale_range(self.j0, self._scales(), (self.p - 1).bit_length())
        self._grid_bounds()

    def _scales(self) -> ScaleRange | None:
        """The scales of ``--scales lo:hi``; None for all of them."""
        if not self.scales:
            return None
        try:
            lo, hi = (int(s) for s in self.scales.split(":"))
        except ValueError as exc:
            raise ConfigError(f"--scales must be lo:hi, got {self.scales!r}") from exc
        return ScaleRange(lo, hi)

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(filter_id=self.filter_id, j0=self.j0,
                              scale_range=self._scales())

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
            return predictor.default_bandwidth_grid(history)
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


def _table(columns: dict) -> list[list]:
    """CSV rows of named columns, after a t_index column."""
    names = list(columns)
    length = len(next(iter(columns.values())))
    return [["t_index"] + names] + [[i] + [_fmt(columns[c][i]) for c in names]
                                    for i in range(length)]


def _segments(cfg: RunConfig) -> np.ndarray:
    series = load_series(cfg.input)
    segments = evaluation.split_segments(series, cfg.p,
                                         drop_remainder=cfg.drop_remainder)
    if segments.size < series.size:
        print(f"dropping {series.size - segments.size} trailing values",
              file=sys.stderr)
    return segments


def _bandwidth(cfg: RunConfig, history: predictor.History):
    """``--h``, or h cross-validated on ``history`` over the requested grid;
    return (h, summary fields).  With ``--h`` there are none; else they are
    the CV table and whether its minimum sits on an edge of the grid, where
    the best h may lie beyond it (also warned on stderr).

    Grid and CV share the prepared history, so the auto grid's pairwise
    distances are the ones CV reads.
    """
    if cfg.bandwidth is not None:
        return cfg.bandwidth, {}
    grid = cfg.grid(history)
    h_star, cv_values = predictor.cv_bandwidth(history, grid, kernel_family=cfg.kernel)
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
    """Forecast the block after ``history`` with the h of :func:`_bandwidth`;
    return (result, CV summary fields)."""
    h, cv = _bandwidth(cfg, history)
    return predictor.predict_one_ahead(history, KernelSpec(cfg.kernel, h)), cv


def _write_run(cfg: RunConfig, segments: np.ndarray, tables: dict, **run) -> None:
    """Make ``--output-dir``, write each named table of CSV rows and
    ``summary.json``.

    The summary holds the command, the config, the segment count and
    every field of ``run`` that is not None.  An OSError on the way (the
    directory names a file, say) is a WavekernelError naming the path.
    """
    out = Path(cfg.output_dir)
    summary = {"command": cfg.command, "config": asdict(cfg),
               "n_segments": int(segments.shape[0])}
    summary.update((k, v) for k, v in run.items() if v is not None)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, rows in tables.items():
            with (out / name).open("w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise WavekernelError(
            f"cannot write output to {exc.filename or out}: {exc.strerror}") from None


def _run_predict(cfg: RunConfig) -> None:
    segments = _segments(cfg)
    result, cv = _forecast(cfg, predictor.History(segments, cfg.pipeline()))
    table = _table({"predicted": result.curve})
    _write_run(cfg, segments, {"prediction.csv": table, "plotdata.csv": table},
               h_used=result.h_used, effective_sample=result.effective_sample, **cv)


def _run_cv(cfg: RunConfig) -> None:
    segments = _segments(cfg)
    h_star, cv = _bandwidth(cfg, predictor.History(segments, cfg.pipeline()))
    table = [["h", "cv", "selected"]] + [
        [_fmt(row["h"]), _fmt(row["cv"]), int(row["selected"])] for row in cv["cv_table"]]
    _write_run(cfg, segments, {"cv.csv": table}, h_selected=float(h_star), **cv)


def _run_interval(cfg: RunConfig) -> None:
    segments = _segments(cfg)
    # the history is freed on return, before the draw
    result, cv = _forecast(cfg, predictor.History(segments, cfg.pipeline()))
    plan = intervals.ResamplingPlan(B=cfg.b, alpha=cfg.alpha, seed=cfg.seed,
                                    weights=result.weights)
    # the library's warning (B < 1/alpha) becomes one line, as the CLI's own
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        band = intervals.prediction_interval(segments, result, plan)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    table = _table({"predicted": result.curve, "lower": band.lower, "upper": band.upper})
    _write_run(cfg, segments, {"prediction.csv": table, "plotdata.csv": table},
               h_used=result.h_used, effective_sample=result.effective_sample,
               alpha=cfg.alpha, B=cfg.b, seed=cfg.seed, **cv)


def _run_eval(cfg: RunConfig) -> None:
    segments = _segments(cfg)
    # the held-out block stays out of the one history, so CV never selects
    # h on it.  Both modes score one causal pass over that history, at
    # origins 2..n-1 with --rolling and the holdout origin alone without;
    # its last row is the holdout forecast
    history = predictor.History(segments[:-1], cfg.pipeline())
    h, cv = _bandwidth(cfg, history)
    start = 2 if cfg.rolling else max(len(history), 2)
    preds = evaluation.wk_method(KernelSpec(cfg.kernel, h)).batch(history, start)
    scores = evaluation.rmae(preds, segments[start:])
    naive = evaluation.rolling_eval(segments, cfg.p, evaluation.naive_seasonal, start)
    pred, truth = preds[-1], segments[-1]
    holdout = rolling = None
    if cfg.rolling:
        # with --cv-grid, h was tuned on these same rolling forecasts
        rolling = {"wk": evaluation.summarize(scores),
                   "naive": evaluation.summarize(naive),
                   "h_in_sample": cfg.bandwidth is None}
    else:
        holdout = {"segment_index": int(segments.shape[0]),
                   "wk_rmae": float(scores[0]), "naive_rmae": float(naive[0])}
        if cfg.external_forecast:
            ext = load_series(cfg.external_forecast)
            if ext.size != cfg.p:
                raise ConfigError(
                    f"external forecast has {ext.size} values, expected {cfg.p}"
                )
            holdout["external_rmae"] = evaluation.rmae(ext, truth)
    _write_run(cfg, segments, {"prediction.csv": _table({"predicted": pred}),
                               "plotdata.csv": _table({"truth": truth, "predicted": pred})},
               h_used=h, holdout=holdout, rolling=rolling, **cv)


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
    # the flags every subcommand takes, declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file with defaults for any flag")
    common.add_argument("--input", help="CSV series, one value per row")
    common.add_argument("--output-dir", default=None)
    common.add_argument("--p", type=int, help="segment length")
    common.add_argument("--filter", dest="filter_id", choices=sorted(FILTERS),
                        default=None)
    common.add_argument("--j0", type=int, default=None)
    common.add_argument("--kernel", choices=sorted(predictor._KERNELS), default=None)
    common.add_argument("--h", dest="bandwidth", type=float, default=None)
    common.add_argument("--cv-grid", default=None, metavar="LO:HI:COUNT|auto")
    common.add_argument("--alpha", type=float, default=None)
    common.add_argument("--b", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--scales", default=None, metavar="LO:HI")
    common.add_argument("--drop-remainder", action="store_true", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("predict", "point forecast of the next segment"),
        ("cv", "cross-validation bandwidth table"),
        ("interval", "forecast with resampling prediction interval"),
        ("eval", "holdout / rolling evaluation"),
    ]:
        sp = sub.add_parser(name, help=help_text, parents=[common])
        if name == "eval":
            sp.add_argument("--rolling", action="store_true", default=None)
            sp.add_argument("--external-forecast", default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    merged: dict = {}
    if args.config:
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # unreadable, not text, or not JSON
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
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
