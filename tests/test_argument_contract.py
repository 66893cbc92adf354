"""The argument contract: junk in one argument gives finite values or a typed error.

Each public callable has an ``ENTRIES`` row, its call with the object-typed
arguments bound and valid values of the others, or an ``EXEMPT`` reason.
Every argument of every row in turn, a scalar setting or an array of data,
takes every value of a fixed junk set; under warnings as errors the call
must return finite values or raise a WavekernelError subclass.  A scalar
setting takes only its own kind: an int is a Python or numpy integer and no
bool, a real is an int or float and no bool or str, and a name is one of a
fixed set.  Junk of another kind there must raise, even where it would
compute.  Then each element of each array argument in turn is NaN, +inf
and -inf, under the same rule.  Nothing is sampled, and a failing test
names every failing case.

Object-typed parameters are outside the contract and keep Python's own
TypeError or AttributeError: a ``KernelSpec``, a ``PipelineConfig``, the
``center`` of an interval, a resampling ``plan``, a rolling ``method``, a
``Segment``, a pyramid and a path.  They stay fixed
here, but for the center's weights: the interval resamples with them, so
they are data, and take the junk through a copy of the center.

The CLI twin passes junk strings to the flags that take values, and
wrong-typed values through a ``--config`` file: each run exits 0, 1 or 2,
a failing one with exactly one ``error:`` line, and none raises.
"""

import dataclasses
import functools
import importlib
import itertools
import json
import math
import numbers
import pkgutil
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import wavekernel as wk
from wavekernel import ConfigError, WavekernelError
from wavekernel.cli import main, write_series
from wavekernel.evaluation import split_segments, summarize, wk_method
from wavekernel.predictor import (History, kernel_eval, normalized_weights,
                                  scaling_coefficients)

from oracle import Segment, WaveletPyramid, forward_dwt, scale_distance

JUNK = {
    "None": None, "'1'": "1", "'abc'": "abc", "True": True, "2.5": 2.5, "-1": -1,
    "0": 0, "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
    "1e308": 1e308, "[]": [], "2-D": np.arange(1.0, 13.0).reshape(3, 4),
    "object": object(), "10**20": 10**20,
}

SEGS = 10.0 + np.random.default_rng(0).normal(size=(5, 8))
KERNEL = wk.KernelSpec("gaussian", 1.0)
CENTER = wk.predict_one_ahead(SEGS, KERNEL)
PLAN = wk.ResamplingPlan(B=200, alpha=0.025, seed=0)


def interval_around(weights):
    """The exact interval of SEGS around CENTER with ``weights`` in its place."""
    return wk.prediction_interval(SEGS, dataclasses.replace(CENTER, weights=weights),
                                  PLAN, "exact")


def written(values):
    """The file ``write_series`` makes of ``values``, read as plain floats."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "series.csv")
        write_series(path, values)
        return [float(v) for v in path.read_text().split()[1:]]


def synthetic(kind):
    return (functools.partial(wk.gen_synthetic, kind),
            dict(n=5, P=8, noise=0.1, seed=0, ar_coef=0.6, contraction=0.5))


# entry point -> (call with its object-typed arguments bound, valid arguments)
ENTRIES = {
    "KernelSpec": (wk.KernelSpec, dict(family="gaussian", bandwidth=1.0)),
    "kernel_eval": (functools.partial(kernel_eval, KERNEL), dict(u=[0.5, 2.0])),
    "cv_bandwidth": (wk.cv_bandwidth, dict(segments=SEGS, grid=[0.5, 1.0, 2.0],
                                           kernel_family="laplace",
                                           weight_mode="raw")),
    "default_bandwidth_grid": (wk.default_bandwidth_grid, dict(segments=SEGS, count=4)),
    "History": (History, dict(segments=SEGS)),
    "predict_one_ahead": (functools.partial(wk.predict_one_ahead, kernel=KERNEL),
                          dict(segments=SEGS, weight_mode="normalized")),
    "normalized_weights": (normalized_weights, dict(kernel_values=[0.5, 1.0], n=3)),
    "ResamplingPlan": (wk.ResamplingPlan, dict(B=10, alpha=0.1, seed=0)),
    "prediction_interval": (functools.partial(wk.prediction_interval, center=CENTER,
                                              plan=PLAN),
                            dict(segments=SEGS, method="exact")),
    "prediction_interval center.weights": (interval_around, dict(weights=CENTER.weights)),
    "rmae": (wk.rmae, dict(pred=SEGS[1], truth=SEGS[2])),
    "split_segments": (split_segments, dict(series=np.arange(1.0, 15.0), P=4,
                                            drop_remainder=True)),
    "rolling_eval naive": (functools.partial(wk.rolling_eval, method=wk.naive_seasonal),
                           dict(segments=SEGS, min_history=2)),
    "rolling_eval wk": (functools.partial(wk.rolling_eval, method=wk_method(KERNEL)),
                        dict(segments=SEGS, min_history=2)),
    "wk_method": (wk_method(KERNEL), dict(segments=SEGS, start=2)),
    "naive_seasonal": (wk.naive_seasonal, dict(segments=SEGS, start=1)),
    "summarize": (summarize, dict(scores=[0.1, 0.2, 0.4])),
    "gen_synthetic seasonal_ar": synthetic("seasonal_ar"),
    "gen_synthetic markov_functional": synthetic("markov_functional"),
    "scaling_coefficients": (scaling_coefficients, dict(segments=SEGS)),
    "forward_dwt": (functools.partial(forward_dwt, Segment(np.arange(8.0))),
                    dict(j0=1, filter_id="dd6")),
    "scale_distance": (scale_distance, dict(a=np.arange(4.0), b=np.ones(4))),
    "Segment": (Segment, dict(values=[1.0, 2.0, 3.0])),
    "WaveletPyramid": (WaveletPyramid, dict(j0=1, J=2, coarse=[1.0, 2.0],
                                            details=[[0.5, -0.5]], filter_id="dd6")),
    "PipelineConfig": (wk.PipelineConfig, dict(filter_id="dd6", j0=1)),
    "write_series": (written, dict(values=[1.0, 2.0, 3.0])),
}

# the public callables with no row, and why
EXEMPT = {
    **dict.fromkeys(["WavekernelError", "ConfigError", "InvalidInputError", "LevelError",
                     "ShapeError", "InsufficientHistoryError"], "an exception class"),
    "pad_to_pow2": "takes only a Segment",
    "combined_distance": "takes only pyramids",
    **dict.fromkeys(["main", "RunConfig"], "the CLI tables below"),
    "load_series": "takes only a path; tests/test_load_series.py",
    **dict.fromkeys(["PredictionResult", "PredictionInterval"],
                    "a record the library builds"),
}

# the scalar settings by kind; every other parameter is array data or a flag
INTS = {"count", "B", "seed", "P", "min_history", "start", "n", "j0", "J"}
REALS = {"bandwidth", "alpha", "noise", "ar_coef", "contraction"}
NAMES = {"family", "kernel_family", "weight_mode", "method", "filter_id"}

CASES = [(entry, param) for entry, (_, valid) in ENTRIES.items() for param in valid]


def is_finite(result) -> bool:
    if isinstance(result, History):
        return is_finite((result.segments, result.blocks))
    if dataclasses.is_dataclass(result):
        return all(is_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, dict):
        return all(is_finite(v) for v in result.values())
    if isinstance(result, (tuple, list)):
        return all(is_finite(v) for v in result)
    # an int is finite, also one past numpy's int64, such as a seed of 10**20
    return isinstance(result, (str, numbers.Integral)) or bool(np.all(np.isfinite(result)))


def of_its_kind(param, value) -> bool:
    """Whether ``value`` has the kind that scalar setting ``param`` takes."""
    if param in INTS:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if param in REALS:
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    return param not in NAMES  # no junk value is a name


def fault(entry, param, value):
    """How ``entry`` broke the contract with ``param`` set to ``value``, or None."""
    call, valid = ENTRIES[entry]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = call(**{**valid, param: value})
    except WavekernelError:
        return None
    except Exception as exc:
        outcome = f"raised {exc!r}"
    else:
        if of_its_kind(param, value) and is_finite(result):
            return None
        outcome = "accepted" if is_finite(result) else f"gave {result!r}"
    return f"{entry}: {param}={value!r} {outcome}"


def assert_kept(cases):
    """Check every (entry, param, value) case and name all that fail."""
    faults = [f for f in itertools.starmap(fault, cases) if f]
    assert not faults, f"{len(faults)} of {len(cases)} cases:\n" + "\n".join(faults)


def test_junk_argument_gives_finite_values_or_typed_error():
    assert_kept([(*case, junk) for case in CASES for junk in JUNK.values()])


def with_element(array, index, bad):
    """A float copy of ``array`` with element ``index`` set to ``bad``."""
    value = np.array(array, dtype=float)
    value.flat[index] = bad
    return value


def test_non_finite_element_gives_finite_values_or_typed_error():
    assert_kept([(entry, param, with_element(array, index, bad))
                 for entry, (_, valid) in ENTRIES.items()
                 for param, array in valid.items() if isinstance(array, (list, np.ndarray))
                 for index in range(np.size(array))
                 for bad in (math.nan, math.inf, -math.inf)])


def test_every_public_callable_has_a_row_or_an_exemption():
    modules = [wk] + [importlib.import_module(f"wavekernel.{m.name}")
                      for m in pkgutil.iter_modules(wk.__path__)]
    public = {name for module in modules for name in getattr(module, "__all__", ())
              if callable(getattr(module, name))}
    rows = {entry.split()[0] for entry in ENTRIES}
    missing, stale = public - rows - EXEMPT.keys(), EXEMPT.keys() - (public - rows)
    assert not missing, f"public callables with no row or exemption: {sorted(missing)}"
    assert not stale, f"exempt, but not public or with a row: {sorted(stale)}"


def weighable(kernel_values, n) -> bool:
    """Whether ``normalized_weights`` can weigh these: n - 1 finite,
    non-negative values in a list, and n an int >= 2."""
    return (of_its_kind("n", n) and n >= 2 and isinstance(kernel_values, list)
            and len(kernel_values) == n - 1
            and all(math.isfinite(v) and v >= 0 for v in kernel_values))


def weighing_fault(kernel_values, n):
    """How ``normalized_weights`` broke its rule on these, or None.  An n of
    the wrong kind is a ConfigError naming n, not a kernel-value count of
    2.5; other input it cannot weigh is a typed error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = normalized_weights(kernel_values, n)
    except Exception as exc:
        if of_its_kind("n", n):
            kept = isinstance(exc, WavekernelError) and not weighable(kernel_values, n)
        else:
            kept = isinstance(exc, ConfigError) and "n must be an int" in str(exc)
        return None if kept else f"raised {exc!r}"
    kept = (weighable(kernel_values, n) and w.shape == (n - 1,)
            and np.all((w >= 0) & (w <= 1)) and abs(w.sum() - 1.0) <= 1e-12)
    return None if kept else f"gave {w!r}"


# lists of up to three kernel values, a negative one among them, and every junk
# value; n of each kind, around the n = 2 shortcut that once skipped every check
VALUES = [0.0, 0.5, 1.0, -5.0, math.nan, math.inf]
KERNEL_VALUES = [list(values) for size in range(4)
                 for values in itertools.product(VALUES, repeat=size)] + list(JUNK.values())
NS = [*range(-1, 5), 2.5, 3.5, True, None, "3"]


def test_normalized_weights_weighs_only_what_it_can():
    faults = [f"normalized_weights({values!r}, {n!r}) {f}"
              for values, n in itertools.product(KERNEL_VALUES, NS)
              if (f := weighing_fault(values, n))]
    assert not faults, "\n".join(faults)


def test_normalized_weights_of_an_overflowing_sum_are_its_shares():
    # beside a sum past the largest double, the 1/n damping is nil
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(normalized_weights([1e308, 1e308], 3), [0.5, 0.5])
        w = normalized_weights([1e308, 1e308, 5e307, 0.0], 5)
    np.testing.assert_allclose(w, [0.4, 0.4, 0.2, 0.0], rtol=1e-15)


def run(argv, capsys):
    """Exit code and stderr of one in-process CLI run."""
    return main(argv), capsys.readouterr().err


def assert_exit_contract(rc, err):
    assert rc in (0, 1, 2), rc
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == (rc != 0), err


# sizes that no memory holds: 7 PiB of doubles, a count past numpy's index
# range, and a --cv-grid of 7 PiB
CLI_JUNK = ["None", "1", "abc", "True", "2.5", "-1", "0", "nan", "inf", "-inf",
            "1e308", "[]", "", "1000000000000000", "100000000000000000000",
            "1:2:1000000000000000"]


# --scales is retired: argparse rejects it and its value, with one error line
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
    if isinstance(content, dict):  # the error line names the key
        line = next(line for line in err.splitlines() if "error:" in line)
        assert re.search(rf"\b{next(iter(content))}\b", line), line


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


# one rule and one message for j0 wherever it is checked: a pyramid of J
# levels has detail scales j0..J-1.  Rows of P = 12 pad to 16, so J = 4
@pytest.mark.parametrize("j0", [4, 5])
def test_one_j0_error_at_every_entry_point(tmp_path, capsys, j0):
    message = f"j0 must be an int in [0, 4), got {j0}"
    rows = np.arange(36.0).reshape(3, 12)
    calls = {
        "History": lambda: History(rows, wk.PipelineConfig(j0=j0)),
        "forward_dwt": lambda: forward_dwt(Segment(np.arange(16.0)), j0),
        "WaveletPyramid": lambda: WaveletPyramid(j0=j0, J=4, coarse=[0.0], details=()),
    }
    for entry, call in calls.items():
        with pytest.raises(wk.LevelError) as info:
            call()
        assert str(info.value) == message, entry
    rc, err = run(["predict", "--h", "1", "--p", "12", "--j0", str(j0),
                   "--input", str(tmp_path / "nope.csv")], capsys)
    assert_exit_contract(rc, err)
    assert rc == 2 and err.splitlines()[0] == f"error: --{message}"
