import csv
import json

import numpy as np
import pytest

from wavekernel import (
    InvalidInputError,
    KernelSpec,
    cv_bandwidth,
    default_bandwidth_grid,
    gen_synthetic,
    predictor,
    rolling_eval,
)
from wavekernel import cli, evaluation
from wavekernel.cli import load_series, main, write_series
from wavekernel.evaluation import summarize, wk_method


@pytest.fixture
def series_file(tmp_path):
    series = gen_synthetic("seasonal_ar", 30, 12, 0.3, seed=5)
    path = tmp_path / "series.csv"
    write_series(path, series)
    return path


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


class TestLoadSeries:
    def test_round_trip_exact(self, tmp_path):
        values = np.random.default_rng(0).normal(size=100)
        path = tmp_path / "x.csv"
        write_series(path, values)
        np.testing.assert_array_equal(load_series(path), values)

    def test_header_auto_detected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("value\n1.5\n2.5\n")
        np.testing.assert_array_equal(load_series(path), [1.5, 2.5])

    def test_headerless(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.5\r\n2.5\r\n")
        np.testing.assert_array_equal(load_series(path), [1.5, 2.5])

    def test_monthly_series_segments(self, tmp_path):
        # 36 years of monthly values -> 36 segments of 12
        path = tmp_path / "x.csv"
        write_series(path, np.arange(432.0))
        assert load_series(path).size % 12 == 0

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(InvalidInputError):
            load_series(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            load_series(tmp_path / "nope.csv")

    def test_parse_error_reports_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\nbogus\n3.0\n")
        with pytest.raises(InvalidInputError, match="row 2"):
            load_series(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\nnan\n")
        with pytest.raises(InvalidInputError, match="row 2"):
            load_series(path)


class TestPredictCommand:
    def test_periodic_degeneracy_end_to_end(self, tmp_path):
        seg = 5 + np.sin(np.linspace(0, 2 * np.pi, 12, endpoint=False))
        path = tmp_path / "periodic.csv"
        write_series(path, np.tile(seg, 6))
        out = tmp_path / "out"
        rc = main(["predict", "--input", str(path), "--p", "12",
                   "--h", "0.5", "--output-dir", str(out)])
        assert rc == 0
        with (out / "prediction.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        pred = np.array([float(r["predicted"]) for r in rows])
        np.testing.assert_allclose(pred, seg, atol=1e-8)
        summary = read_summary(out)
        assert summary["h_used"] == 0.5
        assert summary["config"]["seed"] == 0

    def test_requires_bandwidth_or_grid(self, series_file, tmp_path):
        rc = main(["predict", "--input", str(series_file), "--p", "12",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_rejects_both_bandwidth_and_grid(self, series_file, tmp_path):
        rc = main(["predict", "--input", str(series_file), "--p", "12",
                   "--h", "1.0", "--cv-grid", "auto",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_remainder_requires_flag(self, tmp_path):
        path = tmp_path / "x.csv"
        write_series(path, np.arange(50.0) + 1)
        rc = main(["predict", "--input", str(path), "--p", "12", "--h", "1",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == 2
        rc = main(["predict", "--input", str(path), "--p", "12", "--h", "1",
                   "--drop-remainder", "--output-dir", str(tmp_path / "o")])
        assert rc == 0

    def test_overflowing_cv_scores_are_runtime_error(self, tmp_path):
        path = tmp_path / "big.csv"
        write_series(path, 1e160 * gen_synthetic("seasonal_ar", 20, 12, 0.3, seed=5))
        rc = main(["predict", "--input", str(path), "--p", "12",
                   "--cv-grid", "auto", "--output-dir", str(tmp_path / "o")])
        assert rc == 1

    # all-subnormal values forecast; coefficients past the largest double
    # are a typed error (exit 1), not a traceback
    @pytest.mark.parametrize("values, code", [
        ([0, 1e-310, 1e-310, 0, 0, 2e-310], 0),
        ([1e308, -1e308, -1e308, 1e308, 1e308, -1e308], 1),
        ([0, 1e308, 1e308, 0, 0, 1.5e308], 1),
    ])
    def test_extreme_magnitudes(self, tmp_path, capsys, values, code):
        path = tmp_path / "x.csv"
        write_series(path, values)
        rc = main(["predict", "--input", str(path), "--p", "2", "--h", "1",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == code
        if code:
            assert "too large for doubles" in capsys.readouterr().err
        else:
            with (tmp_path / "o" / "prediction.csv").open() as fh:
                predicted = [float(row["predicted"]) for row in csv.DictReader(fh)]
            assert np.all(np.isfinite(predicted)) and len(predicted) == 2

    def test_missing_input_is_runtime_error(self, tmp_path):
        rc = main(["predict", "--input", str(tmp_path / "nope.csv"),
                   "--p", "12", "--h", "1", "--output-dir", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("command", ["predict", "cv"])
    @pytest.mark.parametrize("below", [None, "sub"])
    def test_output_dir_that_cannot_be_made_is_runtime_error(self, series_file,
                                                             capsys, command, below):
        # --output-dir names the input file itself, or a directory under it
        out = series_file if below is None else series_file / below
        flags = ["--h", "1"] if command == "predict" else []
        rc = main([command, "--input", str(series_file), "--p", "12", *flags,
                   "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and str(out) in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestScaleFlags:
    @pytest.mark.parametrize("flags", [
        ["--j0", "5"],          # P=12 pads to 16: levels 0..3 only
        ["--scales", "0:9"],    # beyond the finest scale
        ["--scales", "3:1"],    # empty range
    ])
    def test_out_of_pyramid_is_config_error(self, series_file, tmp_path, flags):
        rc = main(["predict", "--input", str(series_file), "--p", "12",
                   "--h", "1.0", "--output-dir", str(tmp_path / "o")] + flags)
        assert rc == 2


class TestCvCommand:
    def test_emits_full_table_with_selection(self, series_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["cv", "--input", str(series_file), "--p", "12",
                   "--cv-grid", "0.1:10:8", "--output-dir", str(out)])
        assert rc == 0
        summary = read_summary(out)
        table = summary["cv_table"]
        assert len(table) == 8
        assert sum(row["selected"] for row in table) == 1
        selected = [row["h"] for row in table if row["selected"]][0]
        assert summary["h_selected"] == selected
        with (out / "cv.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8

    def test_duplicate_bandwidths_select_one_row(self, series_file, tmp_path):
        # the row at cv_bandwidth's index, not every row equal to its h
        out = tmp_path / "out"
        assert main(["cv", "--input", str(series_file), "--p", "12",
                     "--cv-grid", "1:1:3", "--output-dir", str(out)]) == 0
        summary = read_summary(out)
        assert [row["selected"] for row in summary["cv_table"]] == [True, False, False]
        with (out / "cv.csv").open() as fh:
            assert [row["selected"] for row in csv.DictReader(fh)] == ["1", "0", "0"]

    # on this series CV falls as h grows below about 0.14 and rises above it
    @pytest.mark.parametrize("grid, index, edge", [
        ("10:1000:5", 0, "lower"),
        ("0.1:0.14:3", 2, "upper"),
        ("0.1:10:8", 1, None),
        ("0.5:0.5:1", 0, None),  # one point is no edge
    ])
    def test_min_on_grid_edge_flagged_and_warned(self, series_file, tmp_path, capsys,
                                                 grid, index, edge):
        out = tmp_path / "out"
        args = ["cv", "--input", str(series_file), "--p", "12", "--cv-grid", grid,
                "--output-dir", str(out)]
        assert main(args) == 0
        first = (out / "summary.json").read_bytes()
        summary = read_summary(out)
        assert [row["selected"] for row in summary["cv_table"]].index(True) == index
        assert summary["cv_min_on_grid_edge"] is (edge is not None)
        err = capsys.readouterr().err
        if edge is None:
            assert "warning" not in err
        else:
            assert err.count("\n") == 1
            assert f"warning: the CV minimum lies on the {edge} edge" in err
        assert main(args) == 0
        assert (out / "summary.json").read_bytes() == first


class TestIntervalCommand:
    def test_byte_identical_reruns(self, series_file, tmp_path):
        out = tmp_path / "out"
        args = ["interval", "--input", str(series_file), "--p", "12",
                "--cv-grid", "auto", "--alpha", "0.025", "--b", "500",
                "--seed", "9", "--output-dir", str(out)]
        assert main(args) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(args) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second
        assert set(first) == {"prediction.csv", "summary.json", "plotdata.csv"}

    def test_interval_columns_ordered(self, series_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["interval", "--input", str(series_file), "--p", "12",
                   "--h", "1.0", "--output-dir", str(out)])
        assert rc == 0
        with (out / "prediction.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            assert float(r["lower"]) <= float(r["upper"])

    def test_small_b_warning_is_one_line(self, series_file, tmp_path, capsys):
        rc = main(["interval", "--input", str(series_file), "--p", "12", "--h", "1.0",
                   "--b", "1", "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: B=1 draws resolve the 0.025 tail poorly (need B >= 1/alpha)\n")


class TestEvalCommand:
    def test_holdout_scores(self, series_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["eval", "--input", str(series_file), "--p", "12",
                   "--cv-grid", "auto", "--output-dir", str(out)])
        assert rc == 0
        holdout = read_summary(out)["holdout"]
        assert 0 <= holdout["wk_rmae"] < 1
        assert 0 <= holdout["naive_rmae"] < 1

    def test_cv_selects_without_scored_block(self, series_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["eval", "--input", str(series_file), "--p", "12",
                   "--cv-grid", "auto", "--output-dir", str(out)])
        assert rc == 0
        history = load_series(series_file).reshape(-1, 12)[:-1]
        _, want = cv_bandwidth(history, default_bandwidth_grid(history))
        got = [row["cv"] for row in read_summary(out)["cv_table"]]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_external_forecast_scored(self, series_file, tmp_path):
        truth = load_series(series_file)[-12:]
        ext = tmp_path / "ext.csv"
        write_series(ext, truth)  # a perfect external comparator
        out = tmp_path / "out"
        rc = main(["eval", "--input", str(series_file), "--p", "12",
                   "--h", "1.0", "--external-forecast", str(ext),
                   "--output-dir", str(out)])
        assert rc == 0
        assert read_summary(out)["holdout"]["external_rmae"] == 0.0

    def test_external_forecast_of_wrong_length_is_config_error(self, series_file,
                                                               tmp_path, capsys):
        ext = tmp_path / "ext.csv"
        write_series(ext, load_series(series_file)[-11:])
        rc = main(["eval", "--input", str(series_file), "--p", "12", "--h", "1.0",
                   "--external-forecast", str(ext), "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "external forecast has 11 values, expected 12" in capsys.readouterr().err

    def test_rolling_summary(self, series_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["eval", "--input", str(series_file), "--p", "12",
                   "--h", "1.0", "--rolling", "--output-dir", str(out)])
        assert rc == 0
        rolling = read_summary(out)["rolling"]
        assert rolling["wk"]["count"] == rolling["naive"]["count"] == 28
        assert rolling["h_in_sample"] is False  # --h was not tuned on the blocks

    # two blocks leave a one-block history: no forecast, plain or rolling
    @pytest.mark.parametrize("flags", [[], ["--rolling"]])
    def test_two_blocks_are_insufficient_history(self, tmp_path, capsys, flags):
        path = tmp_path / "x.csv"
        write_series(path, [1.0, 2.0, 3.0, 4.0])
        rc = main(["eval", "--input", str(path), "--p", "2", "--h", "1.0",
                   "--output-dir", str(tmp_path / "o"), *flags])
        assert rc == 1
        assert capsys.readouterr().err == "error: need at least 2 segments, got 1\n"

    def test_rolling_summary_marks_cv_selected_h_in_sample(self, series_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["eval", "--input", str(series_file), "--p", "12",
                   "--cv-grid", "0.1:10:5", "--rolling", "--output-dir", str(out)])
        assert rc == 0
        rolling = read_summary(out)["rolling"]
        assert rolling["wk"]["count"] == 28
        assert rolling["h_in_sample"] is True


@pytest.fixture
def histories(monkeypatch):
    """The History objects prepared while the test runs."""
    built = []
    init = predictor.History.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(predictor.History, "__init__", counting_init)
    return built


BANDWIDTHS = {"h": ["--h", "1.0"], "grid": ["--cv-grid", "auto"]}
RUN_KEYS = {"command", "config", "n_segments"}


@pytest.mark.parametrize("bandwidth", sorted(BANDWIDTHS))
@pytest.mark.parametrize("command, flags, keys", [
    ("predict", [], {"h_used", "effective_sample"}),
    ("interval", ["--b", "50"], {"h_used", "effective_sample", "alpha", "B", "seed"}),
    ("eval", [], {"h_used", "holdout"}),
    ("eval", ["--rolling"], {"h_used", "rolling"}),
])
def test_one_history_and_summary_keys(series_file, tmp_path, histories,
                                      command, flags, keys, bandwidth):
    out = tmp_path / "out"
    assert main([command, "--input", str(series_file), "--p", "12",
                 "--output-dir", str(out), *BANDWIDTHS[bandwidth], *flags]) == 0
    assert len(histories) == 1
    if bandwidth == "grid":
        keys = keys | {"cv_table", "cv_min_on_grid_edge"}
    assert set(read_summary(out)) == RUN_KEYS | keys


def test_cv_one_history_and_summary_keys(series_file, tmp_path, histories):
    out = tmp_path / "out"
    assert main(["cv", "--input", str(series_file), "--p", "12",
                 "--output-dir", str(out)]) == 0
    assert len(histories) == 1
    assert set(read_summary(out)) == RUN_KEYS | {"h_selected", "cv_table",
                                                 "cv_min_on_grid_edge"}
    assert sorted(p.name for p in out.iterdir()) == ["cv.csv", "summary.json"]


@pytest.mark.parametrize("bandwidth", sorted(BANDWIDTHS))
def test_rolling_scores_match_rolling_eval(series_file, tmp_path, bandwidth):
    out = tmp_path / "out"
    assert main(["eval", "--input", str(series_file), "--p", "12", "--rolling",
                 "--output-dir", str(out), *BANDWIDTHS[bandwidth]]) == 0
    summary = read_summary(out)
    kernel = KernelSpec("gaussian", summary["h_used"])
    want = summarize(rolling_eval(load_series(series_file), 12, wk_method(kernel)))
    got = summary["rolling"]["wk"]
    assert got["count"] == want["count"] == 28
    np.testing.assert_allclose([got["mean_rmae"], got["median_rmae"]],
                               [want["mean_rmae"], want["median_rmae"]], rtol=1e-12)


@pytest.mark.parametrize("bandwidth", sorted(BANDWIDTHS))
def test_rolling_holdout_forecast_matches_plain_eval(series_file, tmp_path, bandwidth):
    # the batch's last row is the holdout forecast of plain eval, byte for byte
    tables = {}
    for flags in ([], ["--rolling"]):
        out = tmp_path / f"out{len(flags)}"
        assert main(["eval", "--input", str(series_file), "--p", "12",
                     "--output-dir", str(out), *BANDWIDTHS[bandwidth], *flags]) == 0
        tables[len(flags)] = (out / "prediction.csv").read_bytes()
    assert len(tables[0].splitlines()) == 13  # a header and P = 12 rows
    assert tables[1] == tables[0]


# the pass's (lo, hi) over the 29-block history: plain eval forecasts
# origin 29 alone, the holdout, and --rolling origins 2..29
@pytest.mark.parametrize("flags, origins", [([], (28, 29)), (["--rolling"], (1, 29))],
                         ids=["plain", "rolling"])
def test_eval_is_one_causal_pass(series_file, tmp_path, monkeypatch, flags, origins):
    passes = []
    forecasts = predictor.History.forecasts

    def counting_forecasts(self, *args, **kwargs):
        passes.append(args[-2:])  # (lo, hi)
        return forecasts(self, *args, **kwargs)

    def no_call(*args, **kwargs):
        raise AssertionError("predict_one_ahead is not called")

    monkeypatch.setattr(predictor.History, "forecasts", counting_forecasts)
    monkeypatch.setattr(predictor, "predict_one_ahead", no_call)
    monkeypatch.setattr(evaluation, "predict_one_ahead", no_call)
    assert main(["eval", "--input", str(series_file), "--p", "12", "--h", "1.0",
                 "--output-dir", str(tmp_path / "out"), *flags]) == 0
    assert passes == [origins]


@pytest.mark.parametrize("command, flags, header", [
    ("predict", [], "t_index,predicted"),
    ("interval", ["--b", "50"], "t_index,predicted,lower,upper"),
    ("eval", [], "t_index,predicted"),
])
def test_prediction_csv_header(series_file, tmp_path, command, flags, header):
    out = tmp_path / "out"
    assert main([command, "--input", str(series_file), "--p", "12", "--h", "1.0",
                 "--output-dir", str(out), *flags]) == 0
    assert (out / "prediction.csv").read_text().splitlines()[0] == header


class TestConfigFile:
    def test_config_echo_supports_replay(self, series_file, tmp_path):
        out1 = tmp_path / "o1"
        rc = main(["interval", "--input", str(series_file), "--p", "12",
                   "--h", "0.8", "--seed", "4", "--output-dir", str(out1)])
        assert rc == 0
        echoed = read_summary(out1)["config"]
        echoed.pop("command")
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(echoed))
        rc = main(["interval", "--config", str(cfg_path)])
        assert rc == 0
        out2 = tmp_path / "o2"
        # rerun into a second directory, contents must match
        rc = main(["interval", "--config", str(cfg_path),
                   "--output-dir", str(out2)])
        assert rc == 0
        assert (out1 / "prediction.csv").read_bytes() == \
            (out2 / "prediction.csv").read_bytes()

    def test_unknown_config_keys_rejected(self, series_file, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"input": str(series_file), "p": 12,
                                   "bandwith": 1.0}))
        rc = main(["predict", "--config", str(cfg), "--h", "1.0",
                   "--output-dir", str(tmp_path / "o")])
        assert rc == 2


# each setting is rejected as a config error (exit 2), naming what is wrong;
# --input names no file, so these are rejected before the input is read
@pytest.mark.parametrize("flags, message", [
    (["interval", "--h", "1", "--seed", "-3"], "--seed"),
    (["interval", "--h", "1", "--seed", str(2**128)], "--seed"),
    (["eval", "--h", "1", "--rolling", "--external-forecast", "nope.csv"],
     "--external-forecast"),
    (["cv", "--cv-grid", "bogus"], "--cv-grid"),
    (["cv", "--h", "1"], "not --h"),
    (["predict", "--cv-grid", "1:2"], "--cv-grid"),
    (["predict", "--cv-grid", "0:2:3"], "--cv-grid"),
    (["predict", "--cv-grid", "1:inf:3"], "--cv-grid"),
    (["predict", "--cv-grid", "1:2:0"], "--cv-grid"),
    (["predict", "--cv-grid", "1:2:3", "--scales", "x"], "--scales"),
    (["interval", "--h", "1", "--scales", "3:1"], "j_lo <= j_hi"),
    (["predict", "--h", "-1"], "bandwidth must be positive"),
    (["predict", "--h", "nan"], "bandwidth must be positive"),
    (["predict", "--h", "1", "--j0", "5"], "got j0=5"),  # P=12 pads to 16: J = 4
    (["predict", "--h", "1", "--j0", "-1"], "got j0=-1"),
    (["predict", "--h", "1", "--scales", "0:9"], "outside pyramid scales [0, 3]"),
])
def test_bad_flags_are_config_errors(tmp_path, capsys, flags, message):
    rc = main([*flags, "--input", str(tmp_path / "nope.csv"), "--p", "12",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["cv", "--cv-grid", "bogus"],
    ["predict", "--cv-grid", "1:2:3", "--scales", "x"],
    ["predict", "--h", "nan"],
    ["predict", "--h", "1", "--j0", "5"],
    ["predict", "--h", "1", "--scales", "0:9"],
])
def test_bad_flags_rejected_before_input_is_read(series_file, tmp_path, monkeypatch,
                                                 flags):
    def no_read(path):
        raise AssertionError(f"input {path} read before the flags were checked")

    monkeypatch.setattr(cli, "load_series", no_read)
    rc = main([*flags, "--input", str(series_file), "--p", "12",
               "--output-dir", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("key, value", [
    ("p", "12"), ("p", 12.0), ("b", 1.5), ("alpha", "0.1"), ("b", True),
])
def test_config_value_of_wrong_type_rejected(series_file, tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"input": str(series_file), "p": 12, "bandwidth": 1.0,
                               key: value}))
    rc = main(["interval", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert f"{key} must be" in capsys.readouterr().err



# each flag every subcommand takes: (argument, namespace field, parsed value)
SHARED_FLAGS = [
    ("--config", "c.json", "config", "c.json"),
    ("--input", "x.csv", "input", "x.csv"),
    ("--output-dir", "o", "output_dir", "o"),
    ("--p", "12", "p", 12),
    ("--filter", "dd2", "filter_id", "dd2"),
    ("--j0", "1", "j0", 1),
    ("--kernel", "laplace", "kernel", "laplace"),
    ("--h", "0.5", "bandwidth", 0.5),
    ("--cv-grid", "1:2:3", "cv_grid", "1:2:3"),
    ("--alpha", "0.1", "alpha", 0.1),
    ("--b", "7", "b", 7),
    ("--seed", "3", "seed", 3),
    ("--scales", "0:1", "scales", "0:1"),
    ("--drop-remainder", None, "drop_remainder", True),
]


@pytest.mark.parametrize("command", ["predict", "cv", "interval", "eval"])
def test_every_subcommand_takes_the_shared_flags(command):
    argv = [command]
    for flag, arg, _, _ in SHARED_FLAGS:
        argv += [flag] if arg is None else [flag, arg]
    args = vars(cli._build_parser().parse_args(argv))
    assert args == {"command": command,
                     **{dest: value for _, _, dest, value in SHARED_FLAGS},
                     **({"rolling": None, "external_forecast": None}
                        if command == "eval" else {})}


@pytest.mark.parametrize("command", ["predict", "cv", "interval"])
def test_only_eval_takes_rolling(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args([command, "--rolling"])
    assert exc.value.code == 2
    assert "--rolling" in capsys.readouterr().err
