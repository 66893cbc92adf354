"""Acceptance gate: one test (and one printed pass/fail line) per criterion."""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.cli import main as cli_main, write_series
from wavekernel.evaluation import split_segments
from wavekernel.predictor import normalized_weights
from wavekernel.wavelet import forward_array

from oracle import inverse_array
from test_predictor import brute_force_prediction


def check(num, desc, ok):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_perfect_reconstruction():
    t0 = time.time()
    worst = 0.0
    for length in (8, 16, 64, 512):
        rng = np.random.default_rng(length)
        for filter_id in ("dd2", "dd6", "sym6-interp"):
            x = rng.normal(size=(1000, length)) * rng.uniform(0.1, 100)
            coarse, details = forward_array(x, filter_id=filter_id)
            back = inverse_array(coarse, details, filter_id=filter_id)
            rel = np.max(np.abs(back - x)) / (1 + np.max(np.abs(x)))
            worst = max(worst, rel)
    elapsed = time.time() - t0
    check(1, f"reconstruction rel err {worst:.2e} <= 1e-10, {elapsed:.1f}s < 5s",
          worst <= 1e-10 and elapsed < 5.0)


def test_criterion_2_pseudo_metric_suite():
    rng = np.random.default_rng(2)
    n, J = 10_000, 4

    def stack_distance(a, b):
        # vectorized combined distance over stacks of per-scale details
        total = np.zeros(n)
        for j in range(J):
            diff = a[j] - b[j]
            total += 2.0**-j * np.sqrt(np.sum(diff * diff, axis=-1))
        return total

    def random_stack():
        return [rng.normal(size=(n, 2**j)) * 3 for j in range(J)]

    x, y, z = random_stack(), random_stack(), random_stack()
    dxy, dyx = stack_distance(x, y), stack_distance(y, x)
    dyz, dxz = stack_distance(y, z), stack_distance(x, z)
    c = rng.uniform(-4, 4, size=(n, 1))
    dcxy = stack_distance([c * a for a in x], [c * a for a in y])
    ok = (
        np.all(dxy >= 0)
        and np.max(np.abs(dxy - dyx)) <= 1e-12
        and np.all(dxz <= dxy + dyz + 1e-9)
        and np.max(np.abs(dcxy - np.abs(c[:, 0]) * dxy)) <= 1e-9
        and np.all(stack_distance(x, x) == 0.0)
    )
    # spot-check the vectorized formula against the pyramid API
    p1 = wk.forward_dwt(wk.Segment(rng.normal(size=16)))
    p2 = wk.forward_dwt(wk.Segment(rng.normal(size=16)))
    api = wk.combined_distance(p1, p2)
    byhand = sum(
        2.0**-j * float(np.linalg.norm(p1.detail(j) - p2.detail(j)))
        for j in range(4)
    )
    ok = ok and abs(api - byhand) <= 1e-12
    check(2, "10,000 triples: nonneg, symmetric, triangle, homogeneous", ok)


def test_criterion_3_oracle_equivalence():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 31))
        p = int(rng.integers(2, 33))
        hist = rng.normal(size=(n, p)) * rng.uniform(0.5, 5)
        h = float(rng.uniform(0.1, 8.0))
        res = wk.predict_one_ahead(hist, wk.KernelSpec("gaussian", h),
                                   weight_mode="raw")
        oracle = brute_force_prediction(list(hist), h)
        worst = max(worst, float(np.max(np.abs(res.xi_pred - oracle))))
    check(3, f"100 histories: pipeline vs inline recomputation, max {worst:.2e}",
          worst <= 1e-12)


def test_criterion_4_weight_normalization():
    worst = 0.0
    rng = np.random.default_rng(4)
    for trial in range(10_000):
        n = int(rng.integers(2, 41))
        if trial % 3 == 0:
            k = np.zeros(n - 1)  # all-kernel-underflow regime
        else:
            k = 10.0 ** rng.uniform(-300, 0, size=n - 1)
        w = normalized_weights(k, n)
        worst = max(worst, abs(float(w.sum()) - 1.0))
        assert np.all(w >= 0) and np.all(w <= 1)
    # end-to-end through the pyramid pipeline as well
    for seed in range(200):
        g = np.random.default_rng(seed)
        n = int(g.integers(2, 16))
        hist = g.normal(size=(n, 8)) * g.uniform(0.1, 20)
        h = float(10.0 ** g.uniform(-8, 2))
        w = wk.predict_one_ahead(hist, wk.KernelSpec("gaussian", h)).weights
        worst = max(worst, abs(float(w.sum()) - 1.0))
    check(4, f"10,000 weight vectors sum to 1, max deviation {worst:.2e}",
          worst <= 1e-12)


def test_criterion_5_weighted_quantile_oracle():
    rng = np.random.default_rng(5)
    hist = rng.normal(size=(25, 12)) + 10
    kernel = wk.KernelSpec("gaussian", 1.0)
    center = wk.predict_one_ahead(hist, kernel)
    plan = wk.ResamplingPlan(B=50_000, alpha=0.025, seed=55, weights=center.weights)
    mc = wk.prediction_interval(hist, center, plan)
    exact = wk.prediction_interval(hist, center, plan, method="exact")
    futures = hist[1:]
    ok = True
    for i in range(hist.shape[1]):
        gap = float(np.max(futures[:, i]) - np.min(futures[:, i]))
        ok &= abs(mc.lower[i] - exact.lower[i]) <= 0.005 * gap
        ok &= abs(mc.upper[i] - exact.upper[i]) <= 0.005 * gap
    check(5, "B=50,000 Monte Carlo bounds within 0.5% of weighted-quantile oracle", ok)


def test_criterion_6_degeneracy_end_to_end():
    seg = 5 + np.sin(np.linspace(0, 2 * np.pi, 12, endpoint=False))
    for n in (3, 5, 20):
        hist = np.tile(seg, (n, 1))
        for h in (1e-3, 0.7, 50.0):
            res = wk.predict_one_ahead(hist, wk.KernelSpec("gaussian", h))
            assert np.max(np.abs(res.curve - seg)) <= 1e-8
            assert wk.rmae(res.curve, seg) <= 1e-8
    check(6, "periodic series reproduced to 1e-8, RMAE 0 to 1e-8", True)


def test_criterion_7_interval_coverage():
    t0 = time.time()
    P, n_hist, n_pred = 16, 100, 200
    series = wk.gen_synthetic("seasonal_ar", n_hist + n_pred + 1, P, 0.5,
                              seed=2024)
    segs = split_segments(series, P)
    grid = wk.default_bandwidth_grid(segs[:n_hist], count=16)
    h, _ = wk.cv_bandwidth(segs[:n_hist], grid)
    kernel = wk.KernelSpec("gaussian", h)
    covered = np.zeros(P)
    for t in range(n_hist, n_hist + n_pred):
        hist = segs[t - n_hist:t]
        center = wk.predict_one_ahead(hist, kernel)
        plan = wk.ResamplingPlan(B=500, alpha=0.025, seed=1000 + t,
                                 weights=center.weights)
        band = wk.prediction_interval(hist, center, plan)
        covered += (band.lower <= segs[t]) & (segs[t] <= band.upper)
    covered /= n_pred
    elapsed = time.time() - t0
    check(7, f"pointwise coverage min {covered.min():.3f} >= 0.88, "
             f"{elapsed:.1f}s < 60s",
          bool(np.all(covered >= 0.88)) and elapsed < 60.0)


def test_criterion_8_consistency_trend():
    t0 = time.time()
    P, reps, n_test = 16, 50, 10
    sizes = (25, 50, 100, 200)
    medians = []
    for n in sizes:
        errs = []
        for r in range(reps):
            series = wk.gen_synthetic("markov_functional", n + n_test, P, 0.1,
                                      seed=5000 + r, contraction=0.7)
            segs = series.reshape(n + n_test, P)
            grid = wk.default_bandwidth_grid(segs[:n], count=8)
            h, _ = wk.cv_bandwidth(segs[:n], grid)
            kernel = wk.KernelSpec("gaussian", h)
            e = []
            for t in range(n, n + n_test):
                res = wk.predict_one_ahead(segs[t - n:t], kernel)
                e.append(float(np.mean(np.abs(res.curve - segs[t]))))
            errs.append(float(np.mean(e)))
        medians.append(float(np.median(errs)))
    inversions = [
        (medians[i + 1] - medians[i]) / medians[i]
        for i in range(len(sizes) - 1)
        if medians[i + 1] > medians[i]
    ]
    elapsed = time.time() - t0
    trend = " -> ".join(f"{m:.4f}" for m in medians)
    ok = (len(inversions) == 0
          or (len(inversions) == 1 and inversions[0] <= 0.05))
    check(8, f"median abs error {trend} nonincreasing "
             f"(<=1 inversion within 5%), {elapsed:.1f}s < 120s",
          ok and elapsed < 120.0)


def test_criterion_9_paper_numbers_best_effort():
    """Informational, dataset-dependent; skipped unless the series is supplied.

    Provide monthly Nino-3 values for Jan 1950 - Dec 1986 (444 rows, CSV,
    one value per row) via the WAVEKERNEL_NINO3 environment variable or
    at data/nino3_monthly_1950_1986.csv.
    """
    path = os.environ.get(
        "WAVEKERNEL_NINO3",
        str(Path(__file__).resolve().parent.parent
            / "data" / "nino3_monthly_1950_1986.csv"),
    )
    if not Path(path).exists():
        pytest.skip("Nino-3 monthly series not available (informational criterion)")
    from wavekernel.cli import load_series

    series = load_series(path)
    assert series.size >= 444, "need Jan 1950 - Dec 1986 monthly values"
    segs = split_segments(series[:444], 12)
    train, truth = segs[:36], segs[36]
    grid = wk.default_bandwidth_grid(train)
    h, _ = wk.cv_bandwidth(train, grid)
    pred = wk.predict_one_ahead(train, wk.KernelSpec("gaussian", h)).curve
    score = wk.rmae(pred, truth)
    check(9, f"El Nino 1986: RMAE {score:.4f} in [0.004, 0.02], h {h:.3f} in [0.03, 0.4]",
          0.004 <= score <= 0.02 and 0.03 <= h <= 0.4)


def test_criterion_10_byte_identical_outputs(tmp_path):
    series = wk.gen_synthetic("seasonal_ar", 30, 12, 0.4, seed=10)
    data = tmp_path / "series.csv"
    write_series(data, series)
    out = tmp_path / "out"
    args = ["interval", "--input", str(data), "--p", "12", "--cv-grid", "auto",
            "--alpha", "0.025", "--b", "500", "--seed", "7",
            "--output-dir", str(out)]
    assert cli_main(args) == 0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert cli_main(args) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    check(10, "repeated run with identical config+seed is byte-identical",
          first == second)
