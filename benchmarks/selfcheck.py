"""Self-checks of the benchmark harness.  Run from the root of a checkout::

    python3 benchmarks/selfcheck.py

1. Installing the tracer rebinds every module reference to a public
   function (including ``from .x import f`` copies) and ``restore``
   puts back exactly the original objects, also after a failing call.
2. The exact per-layer counts repeat across two traced runs with one
   seed, and equal the baseline counts of the seed code.
3. Another seed gives other inputs but the same counts.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from harness import WORKLOADS, make_inputs  # noqa: E402

# Exact counts of the seed implementation (one CLI call per workload).
BASELINE_COUNTS = {
    "select_long": {"predictor.scaling_coefficients.rows_per_block": 3.0,
                    "wavelet.inverse_array.calls": 1,
                    "predictor.cv_bandwidth.fits": 32 * 998},
    "rolling_origin": {"predictor.scaling_coefficients.rows_per_block": 200.495,
                       "wavelet.inverse_array.calls": 399,
                       "predictor.predict_one_ahead.calls": 399},
    "interval_wide": {"predictor.scaling_coefficients.rows_per_block": 3.0,
                      "wavelet.inverse_array.calls": 1,
                      "intervals.draw_pseudo_blocks.draws": 20000},
}
COUNT_STATS = ("calls", "rows_per_block", "fits", "draws", "origins",
               "sorted_bytes", "errors")


def package_bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "wavekernel" or name.startswith("wavekernel.")
            for attr, value in vars(mod).items()}


def check_restore(problems: list[str]) -> None:
    import wavekernel.cli
    from wavekernel import evaluation, intervals, predictor

    before = package_bindings()
    t = tracer.Tracer()
    patched = t.install()
    wrapped = {
        "evaluation.predict_one_ahead": evaluation.predict_one_ahead,
        "intervals.scaling_coefficients": intervals.scaling_coefficients,
        "predictor.forward_array": predictor.forward_array,
        "predictor.inverse_array": predictor.inverse_array,
    }
    for name, fn in wrapped.items():
        mod, attr = name.split(".")
        if before[(f"wavekernel.{mod}", attr)] is fn:
            problems.append(f"{name} was not rebound")
    try:
        # a failing call (input file missing) must still leave spans and restore
        with contextlib.redirect_stderr(io.StringIO()):
            wavekernel.cli.main(["predict", "--input", str(ROOT / "no-such-file.csv"),
                                 "--p", "4", "--h", "1"])
    finally:
        t.restore()
    after = package_bindings()
    if after.keys() != before.keys() or any(after[k] is not v for k, v in before.items()):
        problems.append("restore did not put back every original binding")
    if patched <= len(t.public_functions()):
        problems.append(f"only {patched} bindings patched; re-exports were missed")
    log = t.take()
    if not any(n == "cli.load_series" and e for n, e in zip(log.name, log.error)):
        problems.append("the failing cli.load_series call was not recorded as an error")


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.rsplit(".", 1)[-1] in COUNT_STATS}


def check_counts(problems: list[str], seed: int = 1, other_seed: int = 2) -> None:
    for name, w in WORKLOADS.items():
        a, b = make_inputs(w, seed), make_inputs(w, other_seed)
        if np.array_equal(a[0], b[0]):
            problems.append(f"{name}: seeds {seed} and {other_seed} give equal inputs")
        first = traced_counts(name, seed)
        if traced_counts(name, seed) != first:
            problems.append(f"{name}: counts differ between two runs of seed {seed}")
        if traced_counts(name, other_seed) != first:
            problems.append(f"{name}: counts differ between seeds {seed} and {other_seed}")
        for metric, want in BASELINE_COUNTS[name].items():
            if abs(first[metric] - want) > 1e-12 * max(1.0, abs(want)):
                problems.append(f"{name}: {metric} = {first[metric]}, expected {want}")
        print(f"{name}: {json.dumps(first, sort_keys=True)}")


def main() -> int:
    problems: list[str] = []
    check_restore(problems)
    check_counts(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
