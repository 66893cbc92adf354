"""wavekernel benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload select_long --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``
(measured with tracing off); ``--trace 1`` prints every per-layer
metric from a separate traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give the same numbers for people, the numbers that are
reported but not gated (in parentheses), and the environment and
provenance of the run.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 15
CHILD_GRACE_S = 150

# One BLAS thread: results must not depend on how many cores are free.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def bench_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_probes(env: dict[str, str], calibrate) -> list[tuple[float, float, float]]:
    """Fresh interpreter start to ``wavekernel.cli`` imported, per probe.

    Returns (wall, CPU, mean calibration CPU before and after) seconds
    per probe.  The first probe is discarded: it compiles the bytecode
    cache, which a user pays once, not on every call.
    """
    probes = []
    after = calibrate()
    for _ in range(SETUP_PROBES + 1):
        before = after
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wavekernel.cli"],
                       env=env, cwd=ROOT, check=True, timeout=60)
        wall = time.perf_counter() - t0
        c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        after = calibrate()
        cpu = c1.ru_utime + c1.ru_stime - c0.ru_utime - c0.ru_stime
        probes.append((wall, cpu, (before + after) / 2))
    return probes[1:]


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of its own (or inside another repo)
    return lines[1]


def environment() -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": PINNED_ENV,
        "git_commit": git_commit(),
    }


def run_child(args, env, workdir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=args.seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def normalized(samples, ref_s: float) -> float:
    """Median over (wall, CPU, calibration CPU) samples of CPU / calibration,
    in seconds on a host where the calibration takes ``ref_s``."""
    return statistics.median(c / k for _, c, k in samples) * ref_s


def layer_value(name: str, aggs: list[dict], n_blocks: int) -> float:
    """Median over traced calls of one per-layer metric.

    Names are ``<layer>.<function>.<stat>`` or ``<layer>.errors``.  A
    stat is ``s`` (inclusive seconds), ``self_s``, ``calls``, a work
    count (``fits``, ``draws``, ``origins``, ``sorted_bytes``), or
    that count per input block (``rows_per_block``) or per inclusive
    second (``*_per_s``).
    """
    parts = name.split(".")
    values = []
    for agg in aggs:
        if len(parts) == 2 and parts[1] == "errors":
            values.append(sum(a["errors"] for fn, a in agg.items()
                              if fn.startswith(parts[0] + ".")))
            continue
        fn, stat = ".".join(parts[:2]), parts[2]
        a = agg.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        if stat in ("s", "self_s", "calls"):
            values.append(a[stat])
        elif stat.endswith("_per_block"):
            values.append(a["count"] / n_blocks)
        elif stat.endswith("_per_s"):
            values.append(a["count"] / a["s"] if a["s"] else 0.0)
        else:
            values.append(a["count"])
    return statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "wavekernel" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no wavekernel source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    from harness import CALIB_REF_S, WORKLOADS, calibrate
    w = WORKLOADS[args.workload]
    env = bench_env()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        setup = [] if args.trace else setup_probes(env, calibrate)
        raw = run_child(args, env, workdir)
    except (subprocess.SubprocessError, RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = raw["plain"]
    cpu_s = statistics.median(s[1] for s in plain)
    # reported for people and provenance, not gated: see benchmarks/README.md
    info = {
        "wall_s": (statistics.median(s[0] for s in plain), "s"),
        "cpu_s": (cpu_s, "s"),
        "calib_s": (statistics.median(s[2] for s in plain), "s"),
        "forecast_rmae": (raw["forecast_rmae"], "1"),
        "failed_frac": (raw["failed"] / raw["attempted"], "1"),
        "timed_calls": (len(plain), "count"),
    }
    if args.trace:
        wanted = spec["per_layer"]
        computed = {m["name"]: layer_value(m["name"], raw["aggs"], w.n)
                    for m in wanted if m["name"] != "trace.overhead_frac"}
        traced_cpu_s = statistics.median(c for _, c in raw["traced"])
        computed["trace.overhead_frac"] = traced_cpu_s / cpu_s - 1
        info["traced_calls"] = (len(raw["traced"]), "count")
    else:
        wanted = spec["end_to_end"]
        computed = {
            "call_norm_s": normalized(plain, CALIB_REF_S),
            "setup_s": normalized(setup, CALIB_REF_S),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        }
        info["setup_wall_s"] = (statistics.median(s[0] for s in setup), "s")
        info["setup_cpu_s"] = (statistics.median(s[1] for s in setup), "s")
        info["setup_probes"] = (len(setup), "count")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"n={w.n} P={w.P} G={w.G} B={w.B}  input_bytes={raw['input_bytes']}")
    for name, m in metrics.items():
        print(f"  {name:46s} {m['value']:<14.6g} {m['unit']}")
    for name, (value, unit) in info.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {'(' + name + ')':46s} {shown:<14s} {unit}")
    for problem in raw["failures"]:
        print(f"  FAILED: {problem}")
    provenance = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n": w.n, "P": w.P, "G": w.G, "B": w.B,
        "input_bytes": raw["input_bytes"], "h_used": raw["h_used"],
        **{name: value for name, (value, _) in info.items()},
        "env": environment(),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
