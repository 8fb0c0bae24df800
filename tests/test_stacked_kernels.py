"""Stacked geometry kernels against their per-point calls, bit for bit.

Every kernel that takes a stack of points (and velocities, frames or times)
must give, row by row, the bytes of its call on that row alone; a row that
raises makes the stacked call raise the same error. ``assert_stack_matches_points``
checks that for one kernel and one set of stacks.
"""
import warnings

import numpy as np
import pytest

from test_metric_jet import CATALOG_CASES, INLINE_METRICS, interior_points
from zollab.catalog import make_example
from zollab.engine import (
    first_return_map,
    geodesic_rhs,
    integrate_flow,
    sample_boundary,
    shoot,
)
from zollab.geometry import (
    DegenerateMetricError,
    MetricField,
    christoffel_raw,
    curvature_operator_raw,
    metric_inner,
    metric_norm,
)
from zollab.jacobi import curvature_frame_matrix, integrate_jacobi_frame
from zollab.manifest import expression_metric, load_manifold


def assert_stack_matches_points(kernel, *stacks):
    """``kernel(*stacks)`` holds, row by row, the bytes of ``kernel`` on each row
    of the stacks alone; where a row raises, the stacked call raises the same
    error, with the message of the first such row."""
    expected = []
    for row in zip(*stacks):
        try:
            expected.append(np.asarray(kernel(*row)))
        except Exception as exc:  # compared with the stacked call, not handled
            with pytest.raises(type(exc)) as info:
                kernel(*stacks)
            assert str(info.value) == str(exc)
            return
    got = kernel(*stacks)
    assert got.shape == (len(expected),) + expected[0].shape
    assert got.dtype == expected[0].dtype
    for row, want in zip(got, expected):
        assert np.asarray(row).tobytes() == want.tobytes()


def point_kernels(metric, rng, points):
    """(kernel, stacks) pairs for every point kernel of a metric at the points."""
    m, n = points.shape
    v = rng.normal(size=(m, n))
    E = rng.normal(size=(m, n, n))
    u = rng.normal(size=(m, n))
    g = metric.matrix(points)
    return [
        (metric.jet, (points,)),
        (metric.matrix, (points,)),
        (lambda x: christoffel_raw(metric, x), (points,)),
        (lambda x, w: curvature_operator_raw(metric, x, w), (points, v)),
        (lambda x, w, e: curvature_frame_matrix(metric, x, w, e), (points, v, E)),
        (metric_inner, (g, u, v)),
        (metric_norm, (g, u)),
    ]


@pytest.mark.parametrize("name,params", CATALOG_CASES,
                         ids=[f"{n}{p or ''}" for n, p in CATALOG_CASES])
def test_catalog_kernels_stack(name, params, rng):
    spec = make_example(name, **params)
    points = np.array(interior_points(spec, rng, count=24))
    for kernel, stacks in point_kernels(spec.metric, rng, points):
        assert_stack_matches_points(kernel, *stacks)


@pytest.mark.parametrize("key", sorted(INLINE_METRICS))
def test_inline_kernels_stack(key, rng):
    n, entries = INLINE_METRICS[key]
    metric = expression_metric(entries, n)
    for kernel, stacks in point_kernels(metric, rng, rng.uniform(-1.5, 1.5, size=(64, n))):
        assert_stack_matches_points(kernel, *stacks)


def test_from_matrix_kernels_stack(rng):
    metric = MetricField.from_matrix(
        2, lambda x: np.array([[1.0 + x[1] ** 2, x[0] / 5], [x[0] / 4, 2.0]]))
    for kernel, stacks in point_kernels(metric, rng, rng.uniform(0.2, 1.2, size=(16, 2))):
        assert_stack_matches_points(kernel, *stacks)


@pytest.mark.parametrize("entries,pole", [
    ([["1/x0", "0"], ["0", "1"]], [0.0, 0.5]),
    ([["1/x0**2", "0"], ["0", "1/x0"]], [0.0, 0.5]),
    ([["sqrt(x0)", "0"], ["0", "1"]], [-1.0, 0.5]),
], ids=["reciprocal", "reciprocal_powers", "sqrt_of_negative"])
def test_inline_pole_in_stack(entries, pole, rng):
    metric = expression_metric(entries, 2)
    points = rng.uniform(0.2, 1.2, size=(12, 2))
    points[7] = pole
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert_stack_matches_points(metric.jet, points)
        assert_stack_matches_points(lambda x: christoffel_raw(metric, x), points)


def test_singular_point_of_stack_is_named():
    metric = expression_metric([["1", "x0"], ["x0", "1"]], 2)
    points = np.array([[0.1, 0.2], [0.3, 0.4], [1.0, 0.25], [-1.0, 0.75]])
    with pytest.raises(DegenerateMetricError) as info:
        christoffel_raw(metric, points)
    assert str(info.value) == f"degenerate metric at {points[2]}"
    with pytest.raises(DegenerateMetricError, match=r"degenerate metric at \[1\.\s+0\.25\]"):
        curvature_operator_raw(metric, points, np.ones((4, 2)))


def reference_state_at(flow, t):
    """A flow's state as one scalar call of its segment's ``OdeSolution`` gives it:
    the first segment that reaches t, with t clipped to that segment."""
    t = float(t)
    for t_lo, t_hi, sol in flow.segments:
        if t <= t_hi or sol is flow.segments[-1][2]:
            return sol(np.clip(t, t_lo, t_hi))


def probe_times(flow, rng):
    """Step times (ties between steps), segment ends, times past both ends and
    random times."""
    R = flow.times[-1]
    ends = [t for t_lo, t_hi, _ in flow.segments for t in (t_lo, t_hi)]
    return np.concatenate([flow.times, ends, [-0.3 * R, 1.2 * R], rng.uniform(0.0, R, 200)])


@pytest.mark.parametrize("name,params,launch", [
    ("euclidean_ball", {"n": 3}, [0.6, 0.0, 0.8]),
    ("spherical_cap", {}, None),
    ("solid_torus", {"rotation": 2 * np.pi / 5}, [0.6, 0.8, 0.9]),
    ("flat_moebius", {}, [1.0, 2.7]),
])
def test_dense_output_stacks(name, params, launch, rng):
    spec = make_example(name, **params)
    p = spec.boundary_patches[0].points([[0.3] * spec.boundary_patches[0].param_dim])[0] \
        if launch is None else np.array(launch)
    path = shoot(spec, p)
    frame = integrate_jacobi_frame(spec, path)
    for flow in (path.flow, frame.flow):
        ts = probe_times(flow, rng)
        for t in ts:
            assert flow.state_at(t).tobytes() == reference_state_at(flow, t).tobytes()
        assert_stack_matches_points(flow.state_at, ts)
    ts = probe_times(frame.flow, rng)
    for block in range(5):
        assert_stack_matches_points(lambda t: frame.blocks_at(t)[block], ts)


def test_dense_output_stacks_across_deck_crossings(rng):
    spec = make_example("flat_band")
    y0 = np.array([1.0, 6.0, 0.05, 1.0])
    flow = integrate_flow(spec, geodesic_rhs(spec), y0, 20.0, vector_blocks=[(2, 2, 1)],
                          detect_boundary=False)
    assert len(flow.deck_crossings) >= 3
    ts = probe_times(flow, rng)
    for t in ts:
        assert flow.state_at(t).tobytes() == reference_state_at(flow, t).tobytes()
    assert_stack_matches_points(flow.state_at, ts)


def test_sweep_states_stack(rng):
    spec = make_example("solid_torus", rotation=2 * np.pi / 5)
    sweep = first_return_map(spec, sample_boundary(spec, 40))
    recs = sweep.ok_records
    times = rng.uniform(0.0, 2.0, len(recs))
    got = sweep.states_at(times)
    for r, t, row in zip(recs, times, got):
        assert row.tobytes() == r.path.flow.state_at(t).tobytes()
    mids = sweep.midpoints
    for r, row in zip(recs, mids):
        assert row.tobytes() == r.path.position_at(r.return_time / 2.0).tobytes()


def test_inline_cap_stacks_match_along_a_geodesic():
    rc = float(np.tan(0.26))
    spec = load_manifold({"inline": {
        "name": "inline-cap", "dimension": 2,
        "metric": {"kind": "expression",
                   "entries": [["4/(1 + x0**2 + x1**2)**2", "0"],
                               ["0", "4/(1 + x0**2 + x1**2)**2"]]},
        "boundary": {"expression": f"({rc!r}**2 - x0**2 - x1**2)/(2*{rc!r})"},
        "domain": {"lo": [-3 * rc, -3 * rc], "hi": [3 * rc, 3 * rc]},
        "scale_hint": 1.04}})
    path = shoot(spec, rc * np.array([np.cos(0.3), np.sin(0.3)]))
    x, v = path.state_at(np.linspace(0.0, path.return_time, 512))
    assert_stack_matches_points(lambda y: christoffel_raw(spec.metric, y), x)
    assert_stack_matches_points(lambda y, w: curvature_operator_raw(spec.metric, y, w), x, v)
