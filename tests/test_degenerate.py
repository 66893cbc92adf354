"""Degenerate histories: every entry point gives finite values or a typed error.

Constant and exactly periodic histories, the smallest n that predict
(2) and cross-validation (3) accept, P = 2, and non-power-of-two P with
j0 > 0.  Nothing may come back NaN or inf without an error.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavekernel import (
    KernelSpec,
    PipelineConfig,
    ResamplingPlan,
    WavekernelError,
    cv_bandwidth,
    default_bandwidth_grid,
    naive_seasonal,
    predict_one_ahead,
    prediction_interval,
    rolling_eval,
)
from wavekernel.evaluation import wk_method
from wavekernel.wavelet import FILTERS


def make_segments(kind, n, P, level, seed):
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return np.full((n, P), level)
    if kind == "periodic":
        return np.tile(level + rng.normal(size=P), (n, 1))
    return level + rng.normal(size=(n, P))


@st.composite
def cases(draw):
    P = draw(st.sampled_from([2, 3, 5, 6, 7, 12, 16]))
    J = (P - 1).bit_length()
    return dict(
        kind=draw(st.sampled_from(["constant", "periodic", "random"])),
        n=draw(st.integers(2, 6)),
        P=P,
        level=draw(st.sampled_from([0.0, 1.0, -3.5, 1e6])),
        seed=draw(st.integers(0, 2**16)),
        filter_id=draw(st.sampled_from(sorted(FILTERS))),
        j0=draw(st.integers(0, J)),  # j0 = J leaves no detail scale: a LevelError
        family=draw(st.sampled_from(["gaussian", "laplace"])),
    )


def finite_or_typed(call, *args, **kwargs):
    """The call's result, or None when it raised a WavekernelError subclass."""
    try:
        return call(*args, **kwargs)
    except WavekernelError:
        return None


def assert_finite(*arrays):
    for a in arrays:
        assert np.all(np.isfinite(a)), a


@settings(max_examples=300, deadline=None)
@given(cases())
@example(dict(kind="constant", n=5, P=12, level=1.0, seed=0,
              filter_id="sym6-interp", j0=0, family="gaussian"))
@example(dict(kind="constant", n=4, P=8, level=0.0, seed=0,
              filter_id="dd2", j0=1, family="laplace"))
@example(dict(kind="periodic", n=4, P=7, level=1.0, seed=1,
              filter_id="dd6", j0=1, family="gaussian"))
@example(dict(kind="random", n=2, P=4, level=1.0, seed=2,
              filter_id="dd2", j0=0, family="gaussian"))
@example(dict(kind="random", n=3, P=4, level=1.0, seed=3,
              filter_id="dd6", j0=0, family="laplace"))
@example(dict(kind="random", n=4, P=2, level=-3.5, seed=4,
              filter_id="sym6-interp", j0=0, family="gaussian"))
@example(dict(kind="random", n=5, P=12, level=1.0, seed=5,
              filter_id="sym6-interp", j0=2, family="laplace"))
@example(dict(kind="periodic", n=3, P=5, level=1e6, seed=6,
              filter_id="dd2", j0=1, family="gaussian"))
def test_entry_points_finite_or_typed_error(case):
    segments = make_segments(case["kind"], case["n"], case["P"], case["level"],
                             case["seed"])
    config = PipelineConfig(filter_id=case["filter_id"], j0=case["j0"])
    family = case["family"]

    grid = finite_or_typed(default_bandwidth_grid, segments, config=config)
    if grid is None:
        return  # no distances, so no other entry point can run
    assert_finite(grid)
    assert np.all(grid > 0)

    selected = finite_or_typed(cv_bandwidth, segments, grid, family, config)
    if selected is not None:
        h, scores = selected
        assert_finite(h, scores)

    for h in (grid[0], grid[-1]):
        kernel = KernelSpec(family, float(h))
        result = finite_or_typed(predict_one_ahead, segments, kernel, config)
        if result is None:
            continue
        assert_finite(result.xi_pred, result.curve, result.weights,
                      result.effective_sample)
        plan = ResamplingPlan(B=200, alpha=0.025, seed=case["seed"],
                              weights=result.weights)
        for method in ("monte-carlo", "exact"):
            band = finite_or_typed(prediction_interval, segments, result, plan, method)
            if band is not None:
                assert_finite(band.lower, band.upper)

        series = segments.reshape(-1)
        for method in (wk_method(kernel, config), naive_seasonal):
            scores = finite_or_typed(rolling_eval, series, case["P"], method)
            if scores is not None:
                assert_finite(scores)
