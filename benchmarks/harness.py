"""Workload definitions and the per-workload measuring process.

Run by ``run.py`` as a fresh interpreter per workload::

    python3 benchmarks/harness.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR

The process generates the workload's input from the seed, calls
``wavekernel.cli.main(argv)`` in process (one warm-up call, then calls
back to back until ``--seconds`` have passed), checks every call's
outputs outside the timed region, and prints one JSON line of raw
measurements.  With ``--trace 1`` it alternates untraced and traced
calls, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wavekernel import cli  # noqa: E402
from wavekernel.evaluation import gen_synthetic  # noqa: E402
from wavekernel.predictor import KernelSpec, kernel_eval, normalized_weights  # noqa: E402
from wavekernel.similarity import combined_distance  # noqa: E402
from wavekernel.wavelet import Segment, forward_dwt, pad_to_pow2  # noqa: E402

import tracer  # noqa: E402

REL_TOL = 1e-9
MIN_TIMED_CALLS = 3
# calibrate() takes about this much CPU time on the 2-vCPU Xeon VM the
# baseline was recorded on; it turns "call CPU / calibration CPU" back
# into seconds.
CALIB_REF_S = 0.01
_CALIB_VEC = np.arange(64.0)


@dataclass(frozen=True)
class Workload:
    """One CLI call on data generated by ``gen_synthetic``."""

    name: str
    command: str
    kind: str
    n: int
    P: int
    noise: float
    h: float | None = None  # None selects the bandwidth by CV on the auto grid
    filter_id: str = "sym6-interp"
    kernel: str = "gaussian"
    B: int | None = None
    flags: tuple[str, ...] = ()

    @property
    def G(self) -> int | None:
        return AUTO_GRID_SIZE if self.h is None else None

    def argv(self, input_path: Path, out_dir: Path) -> list[str]:
        argv = [self.command, *self.flags, "--input", str(input_path),
                "--output-dir", str(out_dir), "--p", str(self.P),
                "--filter", self.filter_id, "--kernel", self.kernel]
        argv += ["--cv-grid", "auto"] if self.h is None else ["--h", str(self.h)]
        if self.B is not None:
            argv += ["--b", str(self.B)]
        return argv


AUTO_GRID_SIZE = 32  # points of the CLI's --cv-grid auto
# The frozen h values are the 16th point of each input's auto grid at seed 1.
WORKLOADS = {w.name: w for w in [
    Workload("select_long", "predict", "markov_functional", n=1000, P=24, noise=0.25),
    Workload("rolling_origin", "eval", "seasonal_ar", n=400, P=24, noise=0.5,
             h=2.77, filter_id="dd6", kernel="laplace", flags=("--rolling",)),
    Workload("interval_wide", "interval", "markov_functional", n=2000, P=96,
             noise=0.25, h=0.52, B=20000, flags=("--alpha", "0.025", "--seed", "7")),
]}


def make_inputs(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n input blocks plus one withheld block used as truth."""
    blocks = gen_synthetic(w.kind, w.n + 1, w.P, w.noise, seed).reshape(-1, w.P)
    return blocks[:-1], blocks[-1]


def write_input(path: Path, segments: np.ndarray) -> int:
    with path.open("w", newline="") as fh:
        fh.write("value\n")
        fh.writelines(f"{v:.17g}\n" for v in segments.reshape(-1))
    return path.stat().st_size


def read_prediction(path: Path) -> dict[str, np.ndarray]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]
            if k != "t_index"}


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _rmae(pred, truth) -> float:
    return float(np.mean(np.abs(pred - truth) / np.abs(truth)))


class Oracle:
    """Slow forecasts from the public object API, one pyramid per block."""

    def __init__(self, segments: np.ndarray, w: Workload):
        self.segments = segments
        self.w = w
        self.pyramids = [
            forward_dwt(pad_to_pow2(Segment(row)), filter_id=w.filter_id)
            for row in segments
        ]

    def forecast(self, n: int, h: float) -> np.ndarray:
        """Forecast of block n+1 from blocks 1..n."""
        d = np.array([combined_distance(self.pyramids[m], self.pyramids[n - 1])
                      for m in range(n - 1)])
        k = kernel_eval(KernelSpec(self.w.kernel, h), d / h)
        return normalized_weights(k, n) @ self.segments[1:n]


def check_outputs(w: Workload, out_dir: Path, segments: np.ndarray,
                  truth: np.ndarray) -> tuple[list[str], float, float]:
    """Validate one call's outputs; return (problems, h_used, forecast_rmae)."""
    problems = []
    summary = json.loads((out_dir / "summary.json").read_text())
    pred = read_prediction(out_dir / "prediction.csv")
    h = float(summary["h_used"])
    if summary["n_segments"] != w.n:
        problems.append(f"n_segments {summary['n_segments']} != {w.n}")
    oracle = Oracle(segments, w)
    if w.command == "eval":
        # prediction.csv holds the holdout forecast of the last input block
        n_hist = w.n - 1
        rmaes = [_rmae(oracle.forecast(i, h), segments[i]) for i in range(2, w.n)]
        got = summary["rolling"]["wk"]["mean_rmae"]
        if _rel_err(got, np.mean(rmaes)) > REL_TOL:
            problems.append(f"rolling mean_rmae {got} != oracle {np.mean(rmaes)}")
        forecast_rmae = float(got)
    else:
        n_hist = w.n
        forecast_rmae = _rmae(pred["predicted"], truth)
    err = _rel_err(pred["predicted"], oracle.forecast(n_hist, h))
    if err > REL_TOL:
        problems.append(f"forecast differs from oracle by relative {err:.3g}")
    if w.G is not None:
        table = summary["cv_table"]
        chosen = [row["h"] for row in table if row["selected"]]
        if len(table) != w.G or chosen != [h]:
            problems.append(f"cv_table has {len(table)} rows, selected {chosen}, h_used {h}")
    if w.B is not None:
        lower, upper = pred["lower"], pred["upper"]
        if np.any(lower > upper):
            problems.append("interval lower bound above upper bound")
        past = segments[1:]
        for name, bound in (("lower", lower), ("upper", upper)):
            if not np.all((past == bound).any(axis=0)):
                problems.append(f"{name} bound is not an observed past-block value")
    return problems, h, forecast_rmae


def calibrate() -> float:
    """CPU seconds of a fixed task that runs no wavekernel code.

    The task is cache-resident Python and small numpy calls, the same
    kind of work as most of a CLI call.  Run right before and after
    each timed call, it measures how fast the shared host runs this
    process at that moment; dividing by it removes the host's drift
    (up to 1.8x within minutes) from the call time.
    """
    c0 = time.process_time()
    acc = 0.0
    for _ in range(12):
        for i in range(3000):
            acc += i * i
        for _ in range(100):
            acc += float(np.sum(_CALIB_VEC * _CALIB_VEC))
    return time.process_time() - c0


def _call(argv: list[str]) -> tuple[float, float, bool]:
    """One in-process CLI call: (wall seconds, process CPU seconds, exit ok)."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        ok = cli.main(argv) == 0
    except (Exception, SystemExit):
        ok = False
    return time.perf_counter() - w0, time.process_time() - c0, ok


def _outputs(out_dir: Path) -> tuple[bytes, bytes] | None:
    try:
        return ((out_dir / "prediction.csv").read_bytes(),
                (out_dir / "summary.json").read_bytes())
    except OSError:
        return None


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    """Run the closed loop of CLI calls and return raw measurements."""
    segments, truth = make_inputs(w, seed)
    input_path = workdir / "input.csv"
    input_bytes = write_input(input_path, segments)
    out_dir = workdir / "out"
    argv = w.argv(input_path, out_dir)

    *_, warm_ok = _call(argv)
    reference = _outputs(out_dir)
    attempted, failed = 1, int(not warm_ok or reference is None)
    failures = [] if not failed else ["warm-up call failed"]

    tr = tracer.Tracer() if trace else None
    # plain: (wall, CPU, mean calibration CPU before and after); traced: (wall, CPU)
    plain, traced_calls, aggs, logs = [], [], [], []
    after = None  # calibration right after the previous untraced call
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or len(plain) < MIN_TIMED_CALLS
           or (trace and len(traced_calls) < MIN_TIMED_CALLS)):
        traced = trace and len(traced_calls) < len(plain)
        if traced:
            tr.install()
            try:
                wall, cpu, ok = _call(argv)
            finally:
                tr.restore()
            log = tr.take()
            after = None
            traced_calls.append((wall, cpu))
            aggs.append(tracer.aggregate(log))
            logs.append(log)
        else:
            before = after if after is not None else calibrate()
            wall, cpu, ok = _call(argv)
            after = calibrate()
            plain.append((wall, cpu, (before + after) / 2))
        attempted += 1
        if not ok or _outputs(out_dir) != reference:
            failed += 1
            failures.append(f"call {attempted} ({'traced' if traced else 'plain'}): "
                            + ("nonzero exit" if not ok else "outputs differ from first call"))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    try:
        problems, h_used, forecast_rmae = check_outputs(w, out_dir, segments, truth)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        problems, h_used, forecast_rmae = [f"unreadable outputs: {exc!r}"], None, None
    if problems:
        failed = attempted  # every call reproduced the same wrong output
        failures += problems
    if trace:
        tracer.write(workdir.parent / f"spans-{w.name}.jsonl", logs)
    return {
        "plain": plain,
        "traced": traced_calls,
        "aggs": aggs,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_kb": peak_rss_kb,
        "forecast_rmae": forecast_rmae,
        "h_used": h_used,
        "input_bytes": input_bytes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
