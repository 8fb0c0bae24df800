"""Stacked geometry kernels against their per-point calls, bit for bit.

Every kernel that takes a stack of points (and velocities, frames or times)
must give, row by row, the bytes of its call on that row alone; a row that
raises makes the stacked call raise the same error. ``assert_stack_matches_points``
checks that for one kernel and one set of stacks.
"""
import warnings

import numpy as np
import pytest

import zollab.engine
from test_metric_jet import CATALOG_CASES, INLINE_METRICS, interior_points
from zollab.catalog import make_example, stereographic_sphere_metric
from zollab.engine import (
    _event_functions,
    _event_values,
    _watched_events,
    first_return_map,
    geodesic_rhs,
    integrate_flow,
    project_to_boundary,
    sample_boundary,
    shoot,
)
from zollab.geometry import (
    DegenerateMetricError,
    ManifoldSpec,
    MetricField,
    boundary_tangent_basis,
    christoffel_raw,
    curvature_operator_raw,
    inward_unit_normal,
    metric_inner,
    metric_norm,
    row_dot,
    scalar_pow,
)
from zollab.jacobi import (
    _frame_start,
    curvature_frame_matrix,
    frame_vector_blocks,
    integrate_jacobi_frame,
    jacobi_rhs,
)
from zollab.manifest import expression_boundary, expression_metric, load_manifold


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


@pytest.mark.parametrize("exponent", [2, 3, -1, -2, 7, 0.5, -0.2, 1.5, 2.5])
def test_scalar_pow_is_the_numpy_scalar_power(exponent, rng):
    finite = np.concatenate([rng.uniform(-3.0, 3.0, 400), rng.lognormal(0.0, 30.0, 400),
                             [0.0, -0.0, 1e300, -1e300, 1e-300, 5e-324]])
    special = np.array([np.inf, -np.inf, np.nan, 2.0])
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for base in (finite, np.abs(finite), special):
            want = np.array([np.float64(a) ** exponent for a in base])
            assert scalar_pow(base, exponent).tobytes() == want.tobytes()
            for a, w in zip(base[::37], want[::37]):
                assert np.float64(scalar_pow(np.float64(a), exponent)).tobytes() == w.tobytes()


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


def boundary_kernels(spec, rng, points):
    """(kernel, stacks) pairs for the boundary value, its gradient, the gradient
    along vectors, the inward unit normal, the Newton projection onto b = 0 and
    the boundary test, and every deck face and deck map, at the points and at
    their projections. Along vectors, a point takes the 1-d ``@`` of the
    graze event and a stack the ``row_dot`` of lockstep shooting."""
    boundary = spec.boundary

    def along(x, v):
        grad = boundary.gradient(x)
        return grad @ v if x.ndim == 1 else row_dot(grad, v)

    # Newton steps put some of the points on the boundary
    near = points[:8]
    for _ in range(8):
        near = project_to_boundary(spec, near)
    points = np.concatenate([points, near])
    v = rng.normal(size=points.shape)
    return ([(boundary.value, (points,)), (boundary.gradient, (points,)), (along, (points, v)),
             (lambda x: inward_unit_normal(spec, x), (points,)),
             (lambda x: boundary_tangent_basis(spec, x), (points,)),
             (lambda x: project_to_boundary(spec, x), (points,)),
             (boundary.on_boundary, (points,))]
            + [(deck.face_value, (points,)) for deck in spec.deck_maps]
            + [(deck.apply_point, (points,)) for deck in spec.deck_maps])


# inline boundaries: the workload cap, a polynomial with a constant gradient
# entry (d/dx1 of x0*(2 - x0) is 0, broadcast over the stack), the concentric
# annulus and a transcendental one in three dimensions
INLINE_BOUNDARIES = {
    "cap": (2, f"({float(np.tan(0.26))!r}**2 - x0**2 - x1**2)/(2*{float(np.tan(0.26))!r})"),
    "constant_gradient_entry": (2, "x0*(2 - x0)"),
    "annulus": (2, "(9 - x0**2 - x1**2)*(x0**2 + x1**2 - 0.5**2)/18"),
    "trig_3d": (3, "1 - x0**2/4 - sin(x1)**2 - exp(x2/3)/(1 + x0**2)"),
}


@pytest.mark.parametrize("name,params", CATALOG_CASES,
                         ids=[f"{n}{p or ''}" for n, p in CATALOG_CASES])
def test_catalog_boundary_and_faces_stack(name, params, rng):
    spec = make_example(name, **params)
    points = rng.uniform(spec.domain[:, 0], spec.domain[:, 1], size=(24, spec.dimension))
    for kernel, stacks in boundary_kernels(spec, rng, points):
        assert_stack_matches_points(kernel, *stacks)


@pytest.mark.parametrize("key", sorted(INLINE_BOUNDARIES))
def test_inline_boundary_stacks(key, rng):
    n, expr = INLINE_BOUNDARIES[key]
    # the inward unit normal takes a metric, a positive definite one here
    spec = ManifoldSpec(key, stereographic_sphere_metric(n), expression_boundary(expr, n),
                        np.array([[-3.0, 3.0]] * n))
    for kernel, stacks in boundary_kernels(spec, rng, rng.uniform(-3, 3, size=(64, n))):
        assert_stack_matches_points(kernel, *stacks)


@pytest.mark.parametrize("name,params", CATALOG_CASES,
                         ids=[f"{n}{p or ''}" for n, p in CATALOG_CASES])
def test_event_values_are_the_event_functions(name, params, rng):
    # each row of the stacked event values holds the bytes of the event
    # functions solve_ivp and _event_root call at its state, and each row of
    # the watched flags those of its one-row call
    spec = make_example(name, **params)
    n = spec.dimension
    Y = np.concatenate([rng.uniform(spec.domain[:, 0], spec.domain[:, 1], size=(24, n)),
                        rng.normal(size=(24, n))], axis=1)
    riding = []
    for deck in spec.deck_maps:
        # states on the face: riding it (no velocity across it), leaving it,
        # and 1e-13 from it
        at = Y[:8].copy()
        axis = int(np.argmax([abs(deck.face_value(at[0, :n] + e) - deck.face_value(at[0, :n]))
                              for e in np.eye(n)]))
        slope = deck.face_value(at[0, :n] + np.eye(n)[axis]) - deck.face_value(at[0, :n])
        at[:, axis] -= deck.face_value(at[:, :n]) / slope
        at[:4, n + axis] = 0.0
        at[6:, axis] += 1e-13 / slope
        riding.append(at)
    Y = np.concatenate([Y] + riding)
    for detect_boundary in (True, False):
        events, tags = _event_functions(spec, detect_boundary)
        values = _event_values(events, Y)
        assert values.shape == (len(Y), len(events))
        for y, row in zip(Y, values):
            assert row.tobytes() == np.array([event(0.0, y) for event in events]).tobytes()
        watched = _watched_events(spec, Y, values, tags)
        assert watched.shape == values.shape
        for k in range(len(Y)):
            assert (watched[k].tobytes()
                    == _watched_events(spec, Y[k:k + 1], values[k:k + 1], tags)[0].tobytes())
        faces = [k for k, (kind, _) in enumerate(tags) if kind == "deck"]
        for d, k in enumerate(faces):
            # each face is unwatched exactly by the states that ride it
            rows = slice(24 + 8 * d, 32 + 8 * d)
            assert watched[rows, k].tolist() == [False] * 4 + [True] * 4


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


@pytest.fixture
def chunks_of(monkeypatch):
    """``integrate_flow`` that also gives (t_lo, t_hi, OdeSolution) of each of
    its ``solve_ivp`` calls."""
    chunks = []
    solve_ivp = zollab.engine.solve_ivp

    def recording_solve_ivp(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        chunks.append((sol.t[0], sol.t[-1], sol.sol))
        return sol

    monkeypatch.setattr(zollab.engine, "solve_ivp", recording_solve_ivp)

    def run(*args, **kwargs):
        chunks.clear()
        return integrate_flow(*args, **kwargs), list(chunks)

    return run


def reference_state_at(chunks, t):
    """A flow's state as one scalar call of its chunk's ``OdeSolution`` gives it:
    the first chunk that reaches t, with t clipped to that chunk."""
    t = float(t)
    for t_lo, t_hi, sol in chunks:
        if t <= t_hi or sol is chunks[-1][2]:
            return sol(np.clip(t, t_lo, t_hi))


def probe_times(flow, chunks, rng):
    """Step times (ties between steps), chunk ends, times past both ends and
    random times."""
    R = flow.times[-1]
    ends = [t for t_lo, t_hi, _ in chunks for t in (t_lo, t_hi)]
    return np.concatenate([flow.times, ends, [-0.3 * R, 1.2 * R], rng.uniform(0.0, R, 200)])


@pytest.mark.parametrize("name,params,launch", [
    ("euclidean_ball", {"n": 3}, [0.6, 0.0, 0.8]),
    ("spherical_cap", {}, None),
    ("solid_torus", {"rotation": 2 * np.pi / 5}, [0.6, 0.8, 0.9]),
    ("flat_moebius", {}, [1.0, 2.7]),
])
def test_dense_output_stacks(name, params, launch, rng, chunks_of):
    spec = make_example(name, **params)
    n = spec.dimension
    p = spec.boundary_patches[0].points([[0.3] * spec.boundary_patches[0].param_dim])[0] \
        if launch is None else np.array(launch)
    path = shoot(spec, p)
    frame = integrate_jacobi_frame(spec, path)
    # the chunks of the same flows integrated by integrate_flow, which the
    # lockstep flows equal bit for bit
    _, path_chunks = chunks_of(spec, geodesic_rhs(spec),
                               np.concatenate([path.launch_point, path.launch_velocity]),
                               50.0 * spec.scale_hint, vector_blocks=[(n, n, 1)])
    _, frame_chunks = chunks_of(spec, jacobi_rhs(spec), _frame_start(spec, path)[0],
                                path.return_time, vector_blocks=frame_vector_blocks(n),
                                detect_boundary=False)
    for flow, chunks in ((path.flow, path_chunks), (frame.flow, frame_chunks)):
        ts = probe_times(flow, chunks, rng)
        for t in ts:
            assert flow.state_at(t).tobytes() == reference_state_at(chunks, t).tobytes()
        assert_stack_matches_points(flow.state_at, ts)
    ts = probe_times(frame.flow, frame_chunks, rng)
    for block in range(5):
        assert_stack_matches_points(lambda t: frame.blocks_at(t)[block], ts)


def test_dense_output_stacks_across_deck_crossings(rng, chunks_of):
    spec = make_example("flat_band")
    y0 = np.array([1.0, 6.0, 0.05, 1.0])
    flow, chunks = chunks_of(spec, geodesic_rhs(spec), y0, 20.0, vector_blocks=[(2, 2, 1)],
                             detect_boundary=False)
    assert len(flow.deck_crossings) >= 3
    ts = probe_times(flow, chunks, rng)
    for t in ts:
        assert flow.state_at(t).tobytes() == reference_state_at(chunks, t).tobytes()
    assert_stack_matches_points(flow.state_at, ts)


def test_sweep_states_stack(rng):
    spec = make_example("solid_torus", rotation=2 * np.pi / 5)
    sweep = first_return_map(spec, sample_boundary(spec, 40))
    times = rng.uniform(0.0, 2.0, len(sweep.paths))
    got = sweep.states_at(times)
    for path, t, row in zip(sweep.paths, times, got):
        assert row.tobytes() == path.flow.state_at(t).tobytes()
    mids = sweep.midpoints
    for path, row in zip(sweep.paths, mids):
        assert row.tobytes() == path.position_at(path.return_time / 2.0).tobytes()
    # any geodesics, repeated, at times inside and outside their flows
    paths = rng.integers(len(sweep.paths), size=200)
    times = rng.uniform(-0.5, 3.0, 200)
    times[:20] = [sweep.paths[i].flow.steps[2][1] for i in paths[:20]]  # step starts
    for i, t, row in zip(paths, times, sweep.states_at(times, paths)):
        assert row.tobytes() == sweep.paths[i].flow.state_at(t).tobytes()


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
