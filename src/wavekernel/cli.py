"""Command-line interface: data loading, configuration and batch runs.

One parser reads the command (``wavekernel --help`` lists the four) and
every flag, each declared once; it only splits argv and converts types.
The flags given, over the values of a ``--config`` file, make one
:class:`RunConfig`, whose checks are the one rule set of every flag, run
before the input is read.

``predict``, ``interval`` and ``eval`` write a prediction CSV, a plot-data
CSV and a JSON summary echoing the full configuration, which ``--config``
replays; ``cv`` writes its CV table and the summary.  Numbers are written
with 17 significant digits so files round-trip doubles exactly; reruns
and replays with an identical configuration and seed are byte-identical
under the same numpy, BLAS library and BLAS thread count.  Under another
thread count the CV values may differ in the last place.
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
from .errors import (_ALPHAS, _MAX_SIZE, _MIN_B, _MIN_P, _SEEDS, ConfigError,
                     InsufficientHistoryError, InvalidInputError, LevelError, WavekernelError,
                     _choice, _finite, _floats, _int, _real)
from .predictor import KernelSpec, PipelineConfig
from .wavelet import FILTERS, DEFAULT_FILTER

__all__ = ["RunConfig", "load_series", "write_series", "main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# the accepted types of each RunConfig annotation, exactly: a bool is no int
_TYPES = {"int": (int,), "float": (float, int), "str": (str,), "bool": (bool,)}


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to replay a run.  Every value is checked here, from
    argv or ``--config`` alike, before any input is read."""

    command: str
    input: str | None = None
    output_dir: str = "."
    p: int | None = None
    filter_id: str = DEFAULT_FILTER
    j0: int = 0
    kernel: str = "gaussian"
    bandwidth: float | None = None
    cv_grid: str | None = None
    alpha: float = 0.025
    b: int = 500
    seed: int = 0
    drop_remainder: bool = False
    rolling: bool = False
    external_forecast: str | None = None

    def __post_init__(self):
        if not self.input:
            raise ConfigError("--input is required")
        if self.p is None:
            raise ConfigError("--p is required")
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if not (value is None and optional or type(value) in _TYPES[kind]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        _choice(self.command, "command", _RUNNERS)
        if self.command != "eval" and (self.rolling or self.external_forecast is not None):
            flag = "--rolling" if self.rolling else "--external-forecast"
            raise ConfigError(f"{flag} applies to eval only, not to {self.command}")
        _int(self.p, "--p", _MIN_P)
        _choice(self.filter_id, "--filter", FILTERS)
        _choice(self.kernel, "--kernel", predictor._KERNELS)
        _real(self.alpha, "--alpha", *_ALPHAS)
        _int(self.b, "--b", _MIN_B, _MAX_SIZE)
        _int(self.seed, "--seed", *_SEEDS)
        if self.command == "cv" and self.bandwidth is not None:
            raise ConfigError("cv takes --cv-grid (or its auto default), not --h")
        if self.bandwidth is not None and self.cv_grid is not None:
            raise ConfigError("pass exactly one of --h and --cv-grid, not both")
        if self.command != "cv" and self.bandwidth is None and self.cv_grid is None:
            raise ConfigError("pass exactly one of --h and --cv-grid (or --cv-grid auto)")
        if self.rolling and self.external_forecast is not None:
            raise ConfigError("--external-forecast scores the holdout; "
                              "it cannot be combined with --rolling")
        # --h, --j0 on the pyramid of --p and --cv-grid, before any input is read
        if self.bandwidth is not None:
            KernelSpec(self.kernel, self.bandwidth)
        _int(self.j0, "--j0", 0, (self.p - 1).bit_length(), error=LevelError)
        self._grid_bounds()

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(filter_id=self.filter_id, j0=self.j0)

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
        if not (0 < lo <= hi < np.inf and 1 <= count < _MAX_SIZE):
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

    One loop applies the row rule: a leading byte-order mark is skipped,
    blank rows are skipped, a non-numeric row 1 is a header, and every
    other value must parse and be finite, or the first bad row is named.
    When row 1 ends on line 1, the rows after it are parsed in one C pass
    that ``np.loadtxt`` reads from the path in chunks; if it parses and
    every value is finite, those are the values.  Otherwise the loop goes
    on from row 2; nothing is read again from row 1.  The loop alone reads
    a name ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``, from which
    numpy would decompress: every file is read as plain text.
    """
    p = Path(path)
    if not p.exists():
        raise InvalidInputError(f"input file not found: {p}")
    values = []
    try:
        with p.open(newline="") as fh:
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            reader = csv.reader(fh)
            for row_no, row in enumerate(reader, start=1):
                token = row[0].strip() if row else ""
                if token:
                    try:
                        v = float(token)
                    except ValueError:
                        if row_no > 1:  # else row 1 is a header
                            raise InvalidInputError(
                                f"{p}: cannot parse row {row_no}: {token!r}"
                            ) from None
                    else:
                        if not np.isfinite(v):
                            raise InvalidInputError(f"{p}: non-finite value at row {row_no}")
                        values.append(v)
                # skiprows counts lines, not rows, so row 1 must end on line 1
                if row_no == 1 and reader.line_num == 1 and p.suffix not in _COMPRESSED:
                    try:
                        with warnings.catch_warnings():
                            # no rows after row 1 read as no values, not a warning
                            warnings.filterwarnings(
                                "ignore", "loadtxt: input contained no data", UserWarning)
                            body = np.loadtxt(os.fspath(p), skiprows=1, encoding=fh.encoding,
                                              delimiter=",", usecols=0, comments=None,
                                              quotechar='"', ndmin=1)
                    except ValueError:
                        continue  # the loop names the first bad row
                    if (values or body.size) and np.isfinite(body).all():
                        return np.concatenate([values, body]) if values else body
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{p}: not {exc.encoding} text: {exc.reason}") from None
    except csv.Error as exc:
        raise InvalidInputError(f"{p}: cannot parse: {exc}") from None
    except OSError as exc:
        raise InvalidInputError(f"cannot read input file {p}: {exc.strerror}") from None
    if not values:
        raise InvalidInputError(f"{p}: no numeric data")
    return np.array(values)


def write_series(path, values) -> None:
    """Write ``values``, read in order as a series, one per row under a
    ``value`` header, in the format :func:`load_series` reads back.  An
    OSError (a missing directory, say) is a WavekernelError naming the path."""
    x = _floats(values, "series").reshape(-1)
    _finite("series", x)
    try:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["value"])
            for v in x:
                writer.writerow([_fmt(v)])
    except OSError as exc:
        raise WavekernelError(f"cannot write series to {path}: {exc.strerror}") from None


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
    the CV table and whether its minimum sits on an edge of a grid where
    another h scores more, so the best h may lie beyond (warned on stderr).

    Grid and CV share the prepared history, so the auto grid's pairwise
    distances are the ones CV reads.
    """
    if cfg.bandwidth is not None:
        return cfg.bandwidth, {}
    grid = cfg.grid(history)
    h_star, cv_values = predictor.cv_bandwidth(history, grid, kernel_family=cfg.kernel)
    best = predictor._cv_choice(grid, cv_values)
    edge = bool(best in (0, grid.size - 1) and cv_values.max() > cv_values[best])
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
    return (h, result, CV summary fields)."""
    h, cv = _bandwidth(cfg, history)
    return h, predictor.predict_one_ahead(history, KernelSpec(cfg.kernel, h)), cv


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
    h, result, cv = _forecast(cfg, predictor.History(segments, cfg.pipeline()))
    table = _table({"predicted": result.curve})
    _write_run(cfg, segments, {"prediction.csv": table, "plotdata.csv": table},
               h_used=h, effective_sample=result.effective_sample, **cv)


def _run_cv(cfg: RunConfig) -> None:
    segments = _segments(cfg)
    h_star, cv = _bandwidth(cfg, predictor.History(segments, cfg.pipeline()))
    table = [["h", "cv", "selected"]] + [
        [_fmt(row["h"]), _fmt(row["cv"]), int(row["selected"])] for row in cv["cv_table"]]
    _write_run(cfg, segments, {"cv.csv": table}, h_selected=float(h_star), **cv)


def _run_interval(cfg: RunConfig) -> None:
    segments = _segments(cfg)
    # the history is freed on return, before the draw
    h, result, cv = _forecast(cfg, predictor.History(segments, cfg.pipeline()))
    plan = intervals.ResamplingPlan(B=cfg.b, alpha=cfg.alpha, seed=cfg.seed)
    # the library's warning (B < 1/alpha) becomes one line, as the CLI's own
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        band = intervals.prediction_interval(segments, result, plan)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    table = _table({"predicted": result.curve, "lower": band.lower, "upper": band.upper})
    _write_run(cfg, segments, {"prediction.csv": table, "plotdata.csv": table},
               h_used=h, effective_sample=result.effective_sample,
               alpha=cfg.alpha, B=cfg.b, seed=cfg.seed, **cv)


def _run_eval(cfg: RunConfig) -> None:
    segments = _segments(cfg)
    n = segments.shape[0]
    need = 3 if cfg.bandwidth is not None else 4  # CV needs a history of 3
    if n < need:
        raise InsufficientHistoryError(
            f"eval needs at least {need} segments (the held-out block and a history "
            f"of {need - 1}{'' if need == 3 else ' for cross-validation'}), got {n}")
    forecasts = {}  # each method's forecasts of the scored blocks, by name
    if cfg.external_forecast:  # checked before any forecast work
        ext = load_series(cfg.external_forecast)
        if ext.size != cfg.p:
            raise ConfigError(
                f"external forecast has {ext.size} values, expected {cfg.p}"
            )
        forecasts["external"] = ext[None]  # the holdout's, as a one-row stack
    # the held-out block stays out of the one history, so CV never selects
    # h on it.  Every method forecasts the scored blocks from that history,
    # at origins 2..n-1 with --rolling and the holdout origin alone without,
    # and all are scored in one place; the last wk row is the holdout
    # forecast.  A zero in a scored block is caught before any forecast work
    start = 2 if cfg.rolling else n - 1
    scored = segments[start:]

    def segment(i):  # row i of scored, as the 1-based input segment
        return f"input segment {start + i + 1}"

    zeros = np.argwhere(scored == 0)
    if zeros.size:
        i, j = zeros[0]
        raise InvalidInputError(f"{segment(i)} has a zero at point {j + 1} of {cfg.p}; "
                                "its relative error is undefined")
    history = predictor.History(segments[:-1], cfg.pipeline())
    h, cv = _bandwidth(cfg, history)
    forecasts.update(wk=evaluation.wk_method(KernelSpec(cfg.kernel, h))(history, start),
                     naive=evaluation.naive_seasonal(history.segments, start))
    try:
        scores = {name: evaluation.rmae(f, scored) for name, f in forecasts.items()}
    except InvalidInputError as exc:
        (i,) = exc.block
        raise InvalidInputError(f"relative error of {segment(i)} overflows a double") from None
    pred, truth = forecasts["wk"][-1], segments[-1]
    holdout = rolling = None
    if cfg.rolling:
        # with --cv-grid, h was tuned on these same rolling forecasts
        rolling = {**{name: evaluation.summarize(s) for name, s in scores.items()},
                   "h_in_sample": cfg.bandwidth is None}
    else:
        holdout = {"segment_index": n,
                   **{f"{name}_rmae": float(s[0]) for name, s in scores.items()}}
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
    """One parser, which splits argv and converts types; a flag left out is absent."""
    parser = argparse.ArgumentParser(
        prog="wavekernel", argument_default=argparse.SUPPRESS,
        description="Wavelet-kernel one-step-ahead forecasting of segmented series. "
                    "Commands: predict, point forecast of the next segment; cv, "
                    "cross-validation bandwidth table; interval, forecast with "
                    "resampling prediction interval; eval, holdout / rolling evaluation.")

    def one_of(names):  # argparse's spelling of a choice list
        return "{" + ",".join(names) + "}"

    parser.add_argument("command", metavar=one_of(_RUNNERS))
    parser.add_argument("--config", help="JSON file with defaults for any flag")
    parser.add_argument("--input", help="CSV series, one value per row")
    parser.add_argument("--output-dir")
    parser.add_argument("--p", type=int, help="segment length")
    parser.add_argument("--filter", dest="filter_id", metavar=one_of(sorted(FILTERS)))
    parser.add_argument("--j0", type=int)
    parser.add_argument("--kernel", metavar=one_of(sorted(predictor._KERNELS)))
    parser.add_argument("--h", dest="bandwidth", type=float)
    parser.add_argument("--cv-grid", metavar="LO:HI:COUNT|auto")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--b", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--drop-remainder", action="store_true")
    parser.add_argument("--rolling", action="store_true", help="eval only")
    parser.add_argument("--external-forecast", help="eval only")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file's values, overridden by the flags given."""
    given = vars(args)
    config = given.pop("config", None)
    merged: dict = {}
    if config:
        path = Path(config)
        try:
            loaded = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # unreadable, not text, or not JSON
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        if "scales" in loaded and loaded["scales"] is None:
            del loaded["scales"]  # every summary of the retired --scales holds null
        unknown = set(loaded) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    merged.update(given)
    if merged["command"] == "cv":
        merged.setdefault("cv_grid", "auto")
    return RunConfig(**merged)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        cfg = _config_from_args(parser.parse_args(argv))
        _RUNNERS[cfg.command](cfg)
        return 0
    except SystemExit as exc:  # argparse printed its usage error (2) or the help (0)
        return exc.code
    except (ConfigError, LevelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (WavekernelError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
