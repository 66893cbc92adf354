"""End-to-end checks of the CLI that no narrower test holds.

The files each command writes, the auto grid on tied distances, a wide
input that the History builds in chunks against the object API and
plain ufuncs, interval bounds, a BOM and CRLF file under a compressed
name, and the exit-code contract.
Each test runs ``cli.main`` in process, but for the exit codes, which
are about the process: its code, one ``error:`` line on stderr and no
traceback, from ``python -m wavekernel.cli``.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavekernel
from wavekernel import (
    History,
    KernelSpec,
    default_bandwidth_grid,
    gen_synthetic,
    kernel_eval,
)
from wavekernel.cli import load_series, main, write_series
from wavekernel.predictor import normalized_weights

from oracle import Segment, combined_distance, forward_dwt, pad_to_pow2, quantile_grid


def read_column(path, name):
    with path.open() as fh:
        return np.array([float(row[name]) for row in csv.DictReader(fh)])


@pytest.fixture(scope="module")
def wide_file(tmp_path_factory):
    """1100 markov blocks of P = 96, padded to 128: the History transforms
    them in three chunks of at most 512 blocks."""
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    write_series(path, gen_synthetic("markov_functional", 1100, 96, 0.25, seed=1))
    return path


@pytest.mark.parametrize("command, flags, names", [
    ("predict", ["--cv-grid", "auto"], ["prediction.csv", "plotdata.csv", "summary.json"]),
    ("cv", [], ["cv.csv", "summary.json"]),
    ("interval", ["--h", "1.0"], ["prediction.csv", "plotdata.csv", "summary.json"]),
])
def test_outputs_are_not_empty(smoke_file, tmp_path, command, flags, names):
    out = tmp_path / "out"
    assert main([command, "--input", str(smoke_file), "--p", "12", *flags,
                 "--output-dir", str(out)]) == 0
    assert all((out / name).stat().st_size > 0 for name in names)


def test_tie_heavy_auto_grid_is_np_quantile(tmp_path):
    # blocks drawn from four distinct ones: most distances are 0 or tied,
    # and the auto grid spans np.quantile of the positive ones
    rng = np.random.default_rng(3)
    path, out = tmp_path / "ties.csv", tmp_path / "out"
    write_series(path, rng.normal(size=(4, 12))[rng.integers(0, 4, 40)].ravel())
    assert main(["cv", "--input", str(path), "--p", "12", "--output-dir", str(out)]) == 0
    history = History(load_series(path).reshape(-1, 12))
    d = np.concatenate([D[c] for _, _, D, c in history.rows(1, len(history))])
    assert (d == 0).mean() > 0.2
    np.testing.assert_array_equal(read_column(out / "cv.csv", "h"), quantile_grid(d))


def test_wide_forecast_matches_the_object_api(wide_file, tmp_path):
    # the chunked History's forecast against one pyramid per block
    out = tmp_path / "out"
    assert main(["predict", "--input", str(wide_file), "--p", "96", "--h", "0.5",
                 "--output-dir", str(out)]) == 0
    x = load_series(wide_file).reshape(-1, 96)
    n = len(x)
    pyramids = [forward_dwt(pad_to_pow2(Segment(row))) for row in x]
    d = np.array([combined_distance(pyramids[m], pyramids[-1]) for m in range(n - 1)])
    want = normalized_weights(kernel_eval(KernelSpec("gaussian", 0.5), d / 0.5), n) @ x[1:]
    np.testing.assert_allclose(read_column(out / "prediction.csv", "predicted"), want,
                               rtol=1e-9)


# the wide interval's 20000 draws sort in column chunks, while the default
# B = 500 draws fewer rows than the 1099 candidates and sorts only those,
# in one chunk
@pytest.mark.parametrize("series, P, flags", [
    ("smoke_file", 12, ["--h", "1.0"]),
    ("wide_file", 96, ["--h", "0.5", "--b", "20000"]),
    ("wide_file", 96, ["--h", "0.5"]),
], ids=["smoke", "wide-b20000", "wide-b500"])
def test_interval_bounds_are_observed_values(request, tmp_path, series, P, flags):
    # each bound is an observed next-block value at its time point
    path, out = request.getfixturevalue(series), tmp_path / "out"
    assert main(["interval", "--input", str(path), "--p", str(P), *flags,
                 "--output-dir", str(out)]) == 0
    lower, upper = (read_column(out / "prediction.csv", k) for k in ("lower", "upper"))
    past = load_series(path).reshape(-1, P)[1:]
    assert lower.size == P and np.all(lower <= upper), (lower, upper)
    for bound in (lower, upper):
        assert (past == bound).any(axis=0).all()


def test_wide_grid_triangle_matches_plain_ufuncs(wide_file):
    # the grid's triangle, bit for bit against plain ufuncs per row: a
    # broadcast subtract, a square, a sum in coefficient order, then sqrt
    # and weight
    history = History(load_series(wide_file).reshape(-1, 96))
    default_bandwidth_grid(history)
    want = []
    for q in range(1, len(history)):
        D = None
        for weight, block in history.blocks:
            diff = block[:, :q] - block[:, q, None]
            sq = diff * diff
            acc = sq[0]
            for k in range(1, len(sq)):
                acc = acc + sq[k]
            part = np.sqrt(acc) * weight
            D = part if D is None else D + part
        want.append(D)
    want = np.concatenate(want)
    assert history.tri.shape == want.shape == (1100 * 1099 // 2,)
    np.testing.assert_array_equal(history.tri.view(np.int64), want.view(np.int64))


def test_gz_name_with_bom_and_crlf_reads_as_plain_text(smoke_file, tmp_path):
    # a plain-text CSV with a byte-order mark, CRLF line ends and a header,
    # under a name numpy's loadtxt would decompress
    named = tmp_path / "smoke.csv.gz"
    named.write_bytes(b"\xef\xbb\xbf" + smoke_file.read_bytes().replace(b"\n", b"\r\n"))
    tables = []
    for path in (smoke_file, named):
        out = tmp_path / path.name.replace(".", "-")
        assert main(["predict", "--input", str(path), "--p", "12", "--h", "1.0",
                     "--output-dir", str(out)]) == 0
        tables.append((out / "prediction.csv").read_bytes())
    assert tables[0] == tables[1]


# (exit code, arguments): 1 for a runtime error, 2 for a config error
EXITS = [
    (1, "predict --input no-such.csv --p 12 --h 1.0 --output-dir missing"),
    (2, "predict --input smoke.csv --p 1 --h 1.0 --output-dir p1"),
    (1, "predict --input smoke.csv --p 12 --h 1.0 --output-dir smoke.csv"),
    # the shared argument checks, under each flag's name
    (2, "interval --input smoke.csv --p 12 --h 1.0 --alpha 0.5 --output-dir alpha"),
    (2, "interval --input smoke.csv --p 12 --h 1.0 --b 0 --output-dir b0"),
    (2, "interval --input smoke.csv --p 12 --h 1.0 --seed -1 --output-dir seed"),
    # an external forecast of the wrong length, or a missing one, fails
    # before any forecast work
    (2, "eval --input smoke.csv --p 12 --cv-grid auto --external-forecast ext.csv "
        "--output-dir ext"),
    (1, "eval --input smoke.csv --p 12 --cv-grid auto --external-forecast no-such.csv "
        "--output-dir no-ext"),
    (2, "predict --config config.json --input smoke.csv --h 1.0 --output-dir config"),
    # the eval-only flags are config errors on any other command, from argv
    # or from --config
    (2, "predict --rolling --input smoke.csv --p 12 --h 1.0 --output-dir rolling"),
    (2, "interval --config ext-config.json --input smoke.csv --p 12 --h 1.0 "
        "--output-dir ext-interval"),
    # a finite truth value so small that its relative error overflows a double
    (1, "eval --input tiny.csv --p 4 --h 1.0 --output-dir tiny"),
    (1, "eval --rolling --input tiny.csv --p 4 --h 1.0 --output-dir tiny-rolling"),
    # an external forecast whose relative error overflows a double
    (1, "eval --input small.csv --p 4 --h 1.0 --external-forecast huge.csv "
        "--output-dir huge-ext"),
    # blocks constant at +-1e308: no wavelet detail, but their spread, and so
    # the forecast, passes the largest double
    (1, "predict --input spread.csv --p 4 --h 1.0 --output-dir spread-predict"),
    (1, "interval --input spread.csv --p 4 --h 1.0 --output-dir spread-interval"),
    (1, "eval --input spread.csv --p 4 --h 1.0 --output-dir spread-eval"),
    (1, "eval --rolling --input spread.csv --p 4 --h 1.0 --output-dir spread-rolling"),
]
# what the error line names, by output directory
NAMED = {"tiny": "input segment 20", "tiny-rolling": "input segment 20",
         "huge-ext": "relative error of input segment 20 overflows a double",
         **{f"spread-{name}": "forecast overflows a double; rescale the series"
            for name in ("predict", "interval", "eval", "rolling")}}


def src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(wavekernel.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("code, args", EXITS, ids=[a.split()[-1] for _, a in EXITS])
def test_exit_code_and_one_error_line(smoke_file, code, args):
    # no failing run writes its output directory
    cwd = smoke_file.parent
    write_series(cwd / "ext.csv", [1.0] * 11)
    (cwd / "config.json").write_text('{"p": "12"}')
    (cwd / "ext-config.json").write_text('{"external_forecast": "ext.csv"}')
    tiny = gen_synthetic("seasonal_ar", 20, 4, 0.3, seed=1)
    tiny[-1] = 5e-324
    write_series(cwd / "tiny.csv", tiny)
    tiny[-1] = 1e-10
    write_series(cwd / "small.csv", tiny)
    write_series(cwd / "huge.csv", [1e300] * 4)
    write_series(cwd / "spread.csv",
                 np.repeat([-1e308, 1e308, -1e308, 1e308, 1e308, -1e308], 4))
    proc = subprocess.run([sys.executable, "-m", "wavekernel.cli", *args.split()],
                          cwd=cwd, env=src_env(), capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr  # numpy's own, not one of ours
    assert sum(line.startswith("error:") for line in proc.stderr.splitlines()) == 1
    out = cwd / args.split()[-1]
    assert out == smoke_file or not out.exists()
    assert NAMED.get(out.name, "") in proc.stderr


def test_object_api_is_not_loaded_or_exported():
    """The per-pyramid object API is the tests' oracle: the package neither
    exports it nor loads its distance module, in a fresh interpreter."""
    code = ("import sys, wavekernel, wavekernel.cli; "
            "print('wavekernel.similarity' in sys.modules, "
            "sorted({'Segment', 'WaveletPyramid', 'pad_to_pow2', 'forward_dwt', "
            "'scale_distance', 'combined_distance'} & (set(wavekernel.__all__) "
            "| set(vars(wavekernel)))))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "[]"]
