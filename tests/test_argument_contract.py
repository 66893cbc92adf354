"""The argument contract: junk in one argument gives finite values or a typed error.

The library property starts from valid arguments of an entry point and
replaces one of them, a scalar setting or an array of data, by a value
from a fixed junk set.  Under warnings as errors the call must return
finite values or raise a WavekernelError subclass.  A scalar setting takes
only its own kind: an int is a Python or numpy integer and no bool, a real
is an int or float and no bool or str, and a name is one of a fixed set.
Junk of another kind there must raise, even where it would compute.  The
second property keeps every argument valid but sets one element of an
array argument to NaN, +inf or -inf, under the same rule.

Object-typed parameters are outside the contract and keep Python's own
TypeError or AttributeError: a ``KernelSpec``, a ``PipelineConfig``, a
``ScaleRange``, the ``center`` of an interval, a resampling ``plan``, a
rolling ``method`` and a pyramid.  They stay fixed here.

The CLI twin passes junk strings to the flags that take values, and
wrong-typed values through a ``--config`` file: each run exits 0, 1 or 2,
a failing one with exactly one ``error:`` line, and none raises.
"""

import dataclasses
import functools
import json
import numbers
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wavekernel as wk
from wavekernel import WavekernelError
from wavekernel.cli import main, write_series
from wavekernel.evaluation import split_segments, summarize, wk_method
from wavekernel.predictor import History
from wavekernel.wavelet import forward_array

JUNK = {
    "None": None, "'1'": "1", "'abc'": "abc", "True": True, "2.5": 2.5, "-1": -1,
    "0": 0, "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
    "1e308": 1e308, "[]": [], "2-D": np.arange(1.0, 13.0).reshape(3, 4),
    "object": object(),
}

SEGS = 10.0 + np.random.default_rng(0).normal(size=(5, 8))
W = np.full(4, 0.25)
KERNEL = wk.KernelSpec("gaussian", 1.0)
CENTER = wk.predict_one_ahead(SEGS, KERNEL)
PLAN = wk.ResamplingPlan(B=200, alpha=0.025, seed=0, weights=CENTER.weights)


def synthetic(kind):
    return (functools.partial(wk.gen_synthetic, kind),
            dict(n=5, P=8, noise=0.1, seed=0, ar_coef=0.6, contraction=0.5))


# entry point -> (call with its object-typed arguments bound, valid arguments)
ENTRIES = {
    "KernelSpec": (wk.KernelSpec, dict(family="gaussian", bandwidth=1.0)),
    "kernel_eval": (functools.partial(wk.kernel_eval, KERNEL), dict(u=[0.5, 2.0])),
    "cv_bandwidth": (wk.cv_bandwidth, dict(segments=SEGS, grid=[0.5, 1.0, 2.0],
                                           kernel_family="laplace",
                                           weight_mode="raw")),
    "default_bandwidth_grid": (wk.default_bandwidth_grid, dict(segments=SEGS, count=4)),
    "History": (History, dict(segments=SEGS)),
    "predict_one_ahead": (functools.partial(wk.predict_one_ahead, kernel=KERNEL),
                          dict(segments=SEGS, weight_mode="normalized")),
    "ResamplingPlan": (wk.ResamplingPlan, dict(B=10, alpha=0.1, seed=0, weights=W)),
    "weighted_quantile": (wk.weighted_quantile, dict(atoms=SEGS[1:], weights=W, q=0.5)),
    "prediction_interval": (functools.partial(wk.prediction_interval, center=CENTER,
                                              plan=PLAN),
                            dict(segments=SEGS, method="exact")),
    "rmae": (wk.rmae, dict(pred=SEGS[1], truth=SEGS[2], zero_floor=0.5)),
    "split_segments": (split_segments, dict(series=np.arange(1.0, 15.0), P=4,
                                            drop_remainder=True)),
    "rolling_eval naive": (functools.partial(wk.rolling_eval, method=wk.naive_seasonal),
                           dict(series=SEGS.reshape(-1), P=8, min_history=2)),
    "rolling_eval wk": (functools.partial(wk.rolling_eval, method=wk_method(KERNEL)),
                        dict(series=SEGS.reshape(-1), P=8, min_history=2)),
    "wk batch": (wk_method(KERNEL).batch, dict(segments=SEGS, start=2)),
    "naive batch": (wk.naive_seasonal.batch, dict(segments=SEGS, start=1)),
    "summarize": (summarize, dict(scores=[0.1, 0.2, 0.4])),
    "gen_synthetic seasonal_ar": synthetic("seasonal_ar"),
    "gen_synthetic markov_functional": synthetic("markov_functional"),
    "forward_array": (forward_array, dict(x=np.arange(8.0), j0=1, filter_id="dd6")),
    "scale_distance": (wk.scale_distance, dict(a=np.arange(4.0), b=np.ones(4))),
    "Segment": (wk.Segment, dict(values=[1.0, 2.0, 3.0])),
    "ScaleRange": (wk.ScaleRange, dict(j_lo=0, j_hi=3)),
    "PipelineConfig": (functools.partial(wk.PipelineConfig,
                                         scale_range=wk.ScaleRange(1, 2)),
                       dict(filter_id="dd6", j0=1)),
}

# the scalar settings by kind; every other parameter is array data or a flag
INTS = {"count", "B", "seed", "P", "min_history", "start", "n", "j0", "j_lo", "j_hi"}
REALS = {"bandwidth", "alpha", "q", "zero_floor", "noise", "ar_coef", "contraction"}
NAMES = {"family", "kernel_family", "weight_mode", "method", "filter_id"}

CASES = [(entry, param) for entry, (_, valid) in ENTRIES.items() for param in valid]


def is_finite(result) -> bool:
    if isinstance(result, History):
        return is_finite((result.X, result.blocks))
    if dataclasses.is_dataclass(result):
        return all(is_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, dict):
        return all(is_finite(v) for v in result.values())
    if isinstance(result, (tuple, list)):
        return all(is_finite(v) for v in result)
    return isinstance(result, str) or bool(np.all(np.isfinite(result)))


def of_its_kind(param, value) -> bool:
    """Whether ``value`` has the kind that scalar setting ``param`` takes."""
    if param == "zero_floor" and value is None:
        return True  # its default: no floor
    if param in INTS:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if param in REALS:
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    return param not in NAMES  # no junk value is a name


def check(entry, param, value):
    call, valid = ENTRIES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**{**valid, param: value})
        except WavekernelError:
            return
    assert of_its_kind(param, value), f"{entry}: {param}={value!r} accepted"
    assert is_finite(result), f"{entry}: {param}={value!r} gave {result!r}"


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(CASES), st.sampled_from(sorted(JUNK)))
@example(("KernelSpec", "bandwidth"), "'1'")
@example(("KernelSpec", "bandwidth"), "True")
@example(("gen_synthetic seasonal_ar", "noise"), "'1'")
@example(("gen_synthetic markov_functional", "ar_coef"), "'1'")
@example(("ResamplingPlan", "alpha"), "'1'")
@example(("weighted_quantile", "q"), "'1'")
@example(("rmae", "zero_floor"), "'1'")
@example(("cv_bandwidth", "grid"), "'abc'")
@example(("wk batch", "start"), "2.5")
@example(("naive batch", "start"), "2.5")
@example(("summarize", "scores"), "[]")
@example(("summarize", "scores"), "None")
@example(("gen_synthetic seasonal_ar", "noise"), "1e308")
@example(("gen_synthetic markov_functional", "noise"), "1e308")
@example(("ScaleRange", "j_lo"), "'abc'")
@example(("ScaleRange", "j_lo"), "2.5")
@example(("PipelineConfig", "j0"), "'abc'")
def test_junk_argument_gives_finite_values_or_typed_error(case, junk):
    check(*case, JUNK[junk])


ARRAY_CASES = [(entry, param) for entry, (_, valid) in ENTRIES.items()
               for param, value in valid.items() if isinstance(value, (list, np.ndarray))]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(ARRAY_CASES), st.sampled_from(["nan", "inf", "-inf"]),
       st.integers(0, 255))
@example(("weighted_quantile", "atoms"), "nan", 0)
@example(("rmae", "pred"), "inf", 0)
@example(("rmae", "truth"), "nan", 0)
@example(("split_segments", "series"), "nan", 0)
@example(("naive batch", "segments"), "-inf", 0)
@example(("scale_distance", "a"), "nan", 0)
@example(("forward_array", "x"), "inf", 0)
def test_non_finite_element_gives_finite_values_or_typed_error(case, bad, index):
    entry, param = case
    value = np.array(ENTRIES[entry][1][param], dtype=float)
    value.flat[index % value.size] = JUNK[bad]
    check(entry, param, value)


def test_prepared_history_config_is_the_default():
    # config left out means the History's own: the same grid, CV values and
    # forecasts as with it passed, and other than the default config's
    config = wk.PipelineConfig(filter_id="dd6")
    history = History(SEGS, config)
    grid = wk.default_bandwidth_grid(history)
    np.testing.assert_array_equal(grid, wk.default_bandwidth_grid(SEGS, config))
    assert not np.array_equal(grid, wk.default_bandwidth_grid(SEGS))
    np.testing.assert_array_equal(wk.cv_bandwidth(history, grid)[1],
                                  wk.cv_bandwidth(SEGS, grid, config=config)[1])
    np.testing.assert_array_equal(wk.predict_one_ahead(history, KERNEL).curve,
                                  wk.predict_one_ahead(SEGS, KERNEL, config).curve)
    np.testing.assert_array_equal(wk_method(KERNEL).batch(history, 2),
                                  wk_method(KERNEL, config).batch(SEGS, 2))


@pytest.fixture
def series_file(tmp_path):
    path = tmp_path / "series.csv"
    write_series(path, wk.gen_synthetic("seasonal_ar", 30, 12, 0.3, seed=5))
    return path


def run(argv, capsys):
    """Exit code and stderr of one in-process CLI run; argparse exits 2."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    return rc, capsys.readouterr().err


def assert_exit_contract(rc, err):
    assert rc in (0, 1, 2), rc
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == (rc != 0), err


CLI_JUNK = ["None", "1", "abc", "True", "2.5", "-1", "0", "nan", "inf", "-inf",
            "1e308", "[]", ""]


@pytest.mark.parametrize("flag", ["--p", "--h", "--alpha", "--b", "--seed", "--j0",
                                  "--cv-grid", "--scales"])
@pytest.mark.parametrize("junk", CLI_JUNK)
def test_junk_flag_value_exits_with_one_error_line(series_file, tmp_path, capsys,
                                                   flag, junk):
    flags = {"--p": "12", "--h": "1.0", flag: junk}
    if flag == "--cv-grid":
        del flags["--h"]  # exactly one of --h and --cv-grid
    argv = ["interval", "--input", str(series_file), "--output-dir", str(tmp_path / "o")]
    for name, value in flags.items():
        argv += [name, value]
    assert_exit_contract(*run(argv, capsys))


@pytest.mark.parametrize("content", [
    {"p": "12"}, {"p": 12.5}, {"p": None}, {"p": [12]}, {"alpha": "0.1"},
    {"alpha": True}, {"b": 1.5}, {"b": {}}, {"seed": "0"}, {"seed": 1e400},
    {"j0": 1.0}, {"bandwidth": "1"}, {"bandwidth": [1.0]}, {"scales": [0, 1]},
    {"kernel": 1}, {"filter_id": None}, {"filter_id": ["dd2"]},
    {"drop_remainder": "yes"}, {"input": 5}, {"output_dir": 1},
    [1], "abc", 5, None,
])
def test_config_of_wrong_type_exits_2_with_one_error_line(series_file, tmp_path,
                                                          capsys, content):
    base = {"input": str(series_file), "p": 12, "bandwidth": 1.0,
            "output_dir": str(tmp_path / "o")}
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**base, **content} if isinstance(content, dict)
                              else content))
    rc, err = run(["interval", "--config", str(cfg)], capsys)
    assert_exit_contract(rc, err)
    assert rc == 2


# None: the config path names a directory
@pytest.mark.parametrize("data", [b"{", b"\xff\xfe{}", b"", None])
def test_config_that_is_no_json_text_exits_2(tmp_path, capsys, data):
    cfg = tmp_path / "bad.json"
    if data is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(data)
    rc, err = run(["predict", "--config", str(cfg), "--input", "x.csv", "--p", "12",
                   "--h", "1"], capsys)
    assert_exit_contract(rc, err)
    assert rc == 2
