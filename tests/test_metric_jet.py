"""Metric jets and the one-call Christoffel kernel against the two-call formula.

``reference_christoffel`` is the formula the kernel replaced: separate
``matrix`` and ``derivative`` calls and ``np.linalg.solve``. The kernel must
give the same bits, not merely close values, so every comparison here is
exact.
"""
import warnings

import numpy as np
import pytest

import zollab.engine as engine
from zollab.catalog import CATALOG, make_example
from zollab.engine import shoot
from zollab.geometry import DegenerateMetricError, MetricField, christoffel_raw
from zollab.manifest import expression_metric, load_manifold


def reference_christoffel(metric, x):
    g = metric.matrix(x)
    dg = metric.derivative(x)
    n = metric.dimension
    A = dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg
    try:
        gamma = 0.5 * np.linalg.solve(g, A.reshape(n, n * n)).reshape(n, n, n)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"degenerate metric at {np.asarray(x)}") from exc
    return gamma


def reference_rhs(spec):
    metric = spec.metric
    n = spec.dimension

    def rhs(t, y):
        x = y[:n]
        v = y[n:2 * n]
        gamma = reference_christoffel(metric, x)
        acc = -np.einsum("kij,i,j->k", gamma, v, v)
        return np.concatenate([v, acc])

    return rhs


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def interior_points(spec, rng, count=40):
    """Random chart points inside the manifold (b >= 0) and inside the chart box."""
    lo, hi = spec.domain[:, 0], spec.domain[:, 1]
    pts = []
    while len(pts) < count:
        x = rng.uniform(lo, hi)
        if spec.boundary.value(x) >= 0.0:
            pts.append(x)
    return pts


CATALOG_CASES = [(name, {}) for name in sorted(CATALOG)] + [
    ("euclidean_ball", {"n": 2}),
    ("euclidean_ball", {"n": 5}),
    ("spherical_cap", {"dim": 3, "radius": 1.2}),
    ("solid_torus", {"rotation": 2 * np.pi / 5}),
    ("index_ladder", {"n": 4, "k": 1, "rotation": 0.7}),
    ("index_ladder", {"n": 5, "k": 2}),
]

INLINE_METRICS = {
    "rational": (2, [["4/(1 + x0**2 + x1**2)**2", "0"], ["0", "4/(1 + x0**2 + x1**2)**2"]]),
    "trig": (2, [["1 + sin(x1)**2/3", "0"], ["0", "cos(x0)**2 + tan(x0/4)**2"]]),
    "sqrt_exp": (2, [["sqrt(1 + x0**2 + x1**4)", "exp(-x0**2)/5"],
                     ["exp(-x0**2)/5", "exp(x0*x1/3)"]]),
    "dense_3d": (3, [["2 + x1**2", "x0*x2/4", "sin(x1)/10"],
                     ["x0*x2/4", "3/(1 + x2**2)", "x0/7"],
                     ["sin(x1)/10", "x0/7", "1 + exp(x0)/4"]]),
    "unsymmetric_entries": (2, [["1 + x1**2", "x0/3"], ["0", "2 - x0*x1/5"]]),
}


@pytest.mark.parametrize("name,params", CATALOG_CASES,
                         ids=[f"{n}{p or ''}" for n, p in CATALOG_CASES])
def test_catalog_jet_and_christoffel_bit_equal(name, params, rng):
    spec = make_example(name, **params)
    metric = spec.metric
    for x in interior_points(spec, rng):
        jet = metric.jet(x)
        assert same_bits(jet, np.concatenate((metric.matrix(x)[None], metric.derivative(x))))
        assert same_bits(christoffel_raw(metric, x), reference_christoffel(metric, x))


@pytest.mark.parametrize("key", sorted(INLINE_METRICS))
def test_inline_jet_and_christoffel_bit_equal(key, rng):
    n, entries = INLINE_METRICS[key]
    metric = expression_metric(entries, n)
    for _ in range(200):
        x = rng.uniform(-1.5, 1.5, size=n)
        jet = metric.jet(x)
        assert same_bits(jet, np.concatenate((metric.matrix(x)[None], metric.derivative(x))))
        assert same_bits(christoffel_raw(metric, x), reference_christoffel(metric, x))


def test_metric_without_jet_stacks_matrix_and_derivative(rng):
    analytic = MetricField(2, lambda x: np.diag([1.0, np.sin(x[0]) ** 2]),
                           lambda x: np.array([[[0.0, 0.0], [0.0, np.sin(2.0 * x[0])]],
                                               [[0.0, 0.0], [0.0, 0.0]]]))
    fd = MetricField(2, lambda x: np.array([[1.0 + x[1] ** 2, x[0] / 5], [x[0] / 5, 2.0]]))
    for metric in (analytic, fd):
        for x in rng.uniform(0.2, 1.2, size=(20, 2)):
            assert same_bits(metric.jet(x),
                             np.concatenate((metric.matrix(x)[None], metric.derivative(x))))
            assert same_bits(christoffel_raw(metric, x), reference_christoffel(metric, x))


def test_euclidean_jet_is_constant_and_read_only():
    metric = make_example("euclidean_ball", n=3).metric
    a = metric.jet(np.zeros(3))
    assert a is metric.jet(np.ones(3))
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0, 0] = 2.0


def test_jet_accepts_plain_sequences():
    metric = expression_metric([["1/x0", "0"], ["0", "1"]], 2)
    with np.errstate(divide="ignore"):
        assert same_bits(metric.jet([0.0, 0.5]), metric.jet(np.array([0.0, 0.5])))


def _shoot_with(rhs_builder, spec, p, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(engine, "geodesic_rhs", rhs_builder)
        return shoot(spec, p)


@pytest.mark.parametrize("which", ["inline_cap", "solid_torus"])
def test_shoot_bit_identical_to_reference_rhs(which, monkeypatch):
    if which == "inline_cap":
        rc = float(np.tan(0.26))
        spec = load_manifold({"inline": {
            "name": "inline-cap", "dimension": 2,
            "metric": {"kind": "expression",
                       "entries": [["4/(1 + x0**2 + x1**2)**2", "0"],
                                   ["0", "4/(1 + x0**2 + x1**2)**2"]]},
            "boundary": {"expression": f"({rc!r}**2 - x0**2 - x1**2)/(2*{rc!r})"},
            "domain": {"lo": [-3 * rc, -3 * rc], "hi": [3 * rc, 3 * rc]},
            "scale_hint": 1.04}})
        launches = [rc * np.array([np.cos(a), np.sin(a)]) for a in (0.3, 2.0, 4.4)]
    else:
        spec = make_example("solid_torus", rotation=2 * np.pi / 5)
        launches = [np.array([np.cos(a), np.sin(a), t]) for a, t in ((0.3, 0.1), (2.5, 0.8))]
    for p in launches:
        ref = _shoot_with(reference_rhs, spec, p, monkeypatch)
        new = shoot(spec, p)
        assert new.return_time == ref.return_time
        assert same_bits(new.times, ref.times)
        assert same_bits(new.flow.states, ref.flow.states)
        assert same_bits(new.flow.event_state, ref.flow.event_state)


@pytest.mark.parametrize("metric,x", [
    (MetricField(2, lambda x: np.diag([1.0, 0.0])), [0.0, 0.0]),
    (expression_metric([["x0**2", "0"], ["0", "1"]], 2), [0.0, 0.5]),
    (expression_metric([["1", "x0"], ["x0", "1"]], 2), [1.0, 0.5]),
], ids=["constant", "inline_diagonal", "inline_offdiagonal"])
def test_singular_metric_raises_without_warning(metric, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMetricError, match="degenerate metric"):
            christoffel_raw(metric, np.array(x))


def _outcome(fn, metric, x):
    """Result (or exception type and message) and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(metric, x)
        except Exception as exc:  # compared, not handled
            out = (type(exc), str(exc))
    return out, sorted({(w.category.__name__, str(w.message)) for w in caught})


@pytest.mark.parametrize("entries,x", [
    ([["1/x0", "0"], ["0", "1"]], [0.0, 0.5]),
    ([["1/x0**2", "0"], ["0", "1/x0"]], [0.0, 0.5]),
    ([["1", "0"], ["0", "1/(x0 - x1)"]], [0.5, 0.5]),
    ([["log(x0)", "0"], ["0", "1"]], [0.0, 0.5]),
    ([["sqrt(x0)", "0"], ["0", "1"]], [-1.0, 0.5]),
])
def test_pole_of_inline_metric_behaves_as_reference(entries, x):
    metric = expression_metric(entries, 2)
    x = np.array(x)
    new, new_warnings = _outcome(christoffel_raw, metric, x)
    ref, ref_warnings = _outcome(reference_christoffel, metric, x)
    assert new_warnings == ref_warnings
    if isinstance(ref, tuple):
        assert new == ref
    else:
        assert same_bits(new, ref)
