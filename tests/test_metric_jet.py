"""Metric jets and the one-call Christoffel kernel against two-function formulas.

A metric is given by its jet ``[g, d_0 g, ...]`` alone. The formulas it
replaced (separate ``matrix`` and ``derivative`` functions per catalog metric,
the mapping-torus lift of both, and one lambdify per matrix for inline
metrics) are kept here as references, together with the Christoffel formula
that called them and ``np.linalg.solve``. The jets must give the same bits,
not merely close values, so every comparison here is exact.
"""
import ast
import inspect
import pathlib
import warnings

import numpy as np
import pytest
import sympy as sp

import zollab
import zollab.engine as engine
import zollab.manifest as manifest
from zollab.catalog import CATALOG, make_example
from zollab.engine import shoot
from zollab.geometry import (
    BoundaryChart,
    DegenerateMetricError,
    MetricField,
    christoffel_raw,
    curvature_operator_raw,
    scalar_pow,
)
from zollab.manifest import expression_metric, load_manifold


def fd_step(x):
    return np.maximum(1e-5, 1e-5 * np.abs(x))


def reference_fd_derivative(matrix, x):
    """Central differences of ``matrix``, by the loop ``MetricField.derivative`` had."""
    n = x.size
    dg = np.empty((n, n, n))
    h = fd_step(x)
    for l in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[l] += h[l]
        xm[l] -= h[l]
        dg[l] = (matrix(xp) - matrix(xm)) / (2.0 * h[l])
    return dg


def matrix_and_derivative(matrix, derivative=None):
    """``matrix`` and ``derivative`` as a metric given by those two functions
    returned them: symmetrized, the derivative by central differences of the
    symmetrized matrix when no ``derivative`` is given."""
    def sym_matrix(x):
        g = np.asarray(matrix(np.asarray(x, dtype=float)), dtype=float)
        return 0.5 * (g + g.T)

    def sym_derivative(x):
        x = np.asarray(x, dtype=float)
        if derivative is None:
            dg = reference_fd_derivative(sym_matrix, x)
        else:
            dg = np.asarray(derivative(x), dtype=float)
        return 0.5 * (dg + np.swapaxes(dg, 1, 2))

    return sym_matrix, sym_derivative


def euclidean_parts(n):
    eye = np.eye(n)
    zeros = np.zeros((n, n, n))
    return (lambda x: eye), (lambda x: zeros)


def stereographic_parts(n):
    eye = np.eye(n)

    def matrix(x):
        lam = 2.0 / (1.0 + float(x @ x))
        return lam * lam * eye

    def derivative(x):
        lam = 2.0 / (1.0 + float(x @ x))
        dg = np.zeros((n, n, n))
        for l in range(n):
            dg[l] = (-2.0 * lam ** 3 * x[l]) * eye
        return dg

    return matrix, derivative


def latitude_band_parts(n):
    def matrix(x):
        return np.diag([1.0, np.cos(x[0]) ** 2])

    def derivative(x):
        dg = np.zeros((2, 2, 2))
        dg[0, 1, 1] = -np.sin(2.0 * x[0])
        return dg

    return matrix, derivative


def lifted_parts(base_matrix, base_derivative, n):
    """Matrix and derivative of the mapping-torus metric g + dt^2 over an
    n-dimensional base, written out separately."""
    def matrix(x):
        g = np.eye(n + 1)
        g[:n, :n] = base_matrix(x[:n])
        return g

    def derivative(x):
        dg = np.zeros((n + 1, n + 1, n + 1))
        dg[:n, :n, :n] = base_derivative(x[:n])
        return dg

    return matrix, derivative


BASE_PARTS = {"euclidean": euclidean_parts, "stereographic-sphere": stereographic_parts,
              "latitude-band": latitude_band_parts}


def reference_parts(metric):
    """The separate (matrix, derivative) of a catalog metric, lifted as often as
    its name says ("euclidean+dt^2+dt^2" is the flat metric lifted twice)."""
    base, *lifts = metric.name.split("+dt^2")
    n = metric.dimension - len(lifts)
    parts = matrix_and_derivative(*BASE_PARTS[base](n))
    for k in range(len(lifts)):
        parts = matrix_and_derivative(*lifted_parts(*parts, n + k))
    return parts


def reference_expression_parts(entries, n):
    """An inline metric by separate functions: one lambdify for g, one per derivative."""
    xs = sp.symbols(f"x0:{n}", real=True)
    local = {str(s): s for s in xs}
    mat = sp.Matrix([[sp.sympify(entries[i][j], locals=local) for j in range(n)]
                     for i in range(n)])
    if not mat.is_symmetric():
        mat = (mat + mat.T) / 2
    g_fn = sp.lambdify(xs, mat, modules="numpy")
    d_fns = [sp.lambdify(xs, mat.diff(x), modules="numpy") for x in xs]
    return matrix_and_derivative(lambda x: np.asarray(g_fn(*x), dtype=float),
                       lambda x: np.stack([np.asarray(d(*x), dtype=float) for d in d_fns]))


def reference_jet(parts, x):
    matrix, derivative = parts
    return np.concatenate((matrix(x)[None], derivative(x)))


def reference_christoffel(parts, x):
    matrix, derivative = parts
    g = matrix(x)
    dg = derivative(x)
    n = g.shape[0]
    A = dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg
    try:
        gamma = 0.5 * np.linalg.solve(g, A.reshape(n, n * n)).reshape(n, n, n)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"degenerate metric at {np.asarray(x)}") from exc
    return gamma


def reference_rhs(parts):
    """A ``geodesic_rhs`` replacement that evaluates ``reference_christoffel``, one
    state at a time (a stack of states row by row)."""
    def build(spec):
        n = spec.dimension

        def rhs(t, y):
            if y.ndim == 2:
                return np.array([rhs(t, row) for row in y]).reshape(y.shape)
            x = y[:n]
            v = y[n:2 * n]
            gamma = reference_christoffel(parts, x)
            acc = -np.einsum("kij,i,j->k", gamma, v, v)
            return np.concatenate([v, acc])

        return rhs

    return build


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
    parts = reference_parts(metric)
    for x in interior_points(spec, rng):
        assert same_bits(metric.jet(x), reference_jet(parts, x))
        assert same_bits(christoffel_raw(metric, x), reference_christoffel(parts, x))


@pytest.mark.parametrize("key", sorted(INLINE_METRICS))
def test_inline_jet_and_christoffel_bit_equal(key, rng):
    n, entries = INLINE_METRICS[key]
    metric = expression_metric(entries, n)
    parts = reference_expression_parts(entries, n)
    for _ in range(200):
        x = rng.uniform(-1.5, 1.5, size=n)
        assert same_bits(metric.jet(x), reference_jet(parts, x))
        assert same_bits(christoffel_raw(metric, x), reference_christoffel(parts, x))


def distinct_powers(entries, n):
    """Number of distinct powers in the plain numpy printer's code for the jet
    entries of an inline metric: the ``**`` nodes of different text, which the
    scalar_pow printer writes as ``scalar_pow`` calls."""
    xs = sp.symbols(f"x0:{n}", real=True)
    local = {str(s): s for s in xs}
    mat = sp.Matrix([[sp.sympify(entries[i][j], locals=local) for j in range(n)]
                     for i in range(n)])
    if not mat.is_symmetric():
        mat = (mat + mat.T) / 2
    fn = sp.lambdify(xs, [e for m in [mat] + [mat.diff(x) for x in xs] for e in m],
                     modules="numpy")
    return len({ast.dump(node) for node in ast.walk(ast.parse(inspect.getsource(fn)))
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)})


@pytest.mark.parametrize("key", sorted(INLINE_METRICS))
def test_inline_jet_evaluates_each_distinct_power_once(key, rng, monkeypatch):
    n, entries = INLINE_METRICS[key]
    powers = []
    monkeypatch.setattr(manifest, "scalar_pow",
                        lambda a, b: powers.append(b) or scalar_pow(a, b))
    metric = expression_metric(entries, n)
    want = distinct_powers(entries, n)
    if key == "rational":
        # the cap: x0**2, x1**2 and (x0**2 + x1**2 + 1) squared and cubed
        assert want == 4
    for x in (rng.uniform(-1.5, 1.5, size=n), rng.uniform(-1.5, 1.5, size=(16, n))):
        powers.clear()
        metric.jet(x)
        assert len(powers) == want


def test_no_module_calls_lambdify():
    # inline metrics, boundaries and patches compile through one printer
    # (manifest._entries_function); lambdify's array powers round differently
    for path in pathlib.Path(zollab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                assert "lambdify" not in {alias.name for alias in node.names}, path.name
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                assert name != "lambdify", path.name


def test_metric_without_jet_stacks_matrix_and_derivative(rng):
    # a metric given by its matrix (and derivative) through MetricField.from_matrix
    def polar_matrix(x):
        return np.diag([1.0, np.sin(x[0]) ** 2])

    def polar_derivative(x):
        return np.array([[[0.0, 0.0], [0.0, np.sin(2.0 * x[0])]],
                         [[0.0, 0.0], [0.0, 0.0]]])

    def unsymmetric_matrix(x):
        return np.array([[1.0 + x[1] ** 2, x[0] / 5], [x[0] / 4, 2.0]])

    analytic = MetricField.from_matrix(2, polar_matrix, polar_derivative)
    analytic_parts = matrix_and_derivative(polar_matrix, polar_derivative)
    fd = MetricField.from_matrix(2, unsymmetric_matrix)
    fd_parts = matrix_and_derivative(unsymmetric_matrix)
    for metric, parts in ((analytic, analytic_parts), (fd, fd_parts)):
        for x in rng.uniform(0.2, 1.2, size=(20, 2)):
            assert same_bits(metric.jet(x), reference_jet(parts, x))
            assert same_bits(christoffel_raw(metric, x), reference_christoffel(parts, x))


def reference_curvature_operator(metric, x, v):
    """``curvature_operator_raw`` written with its own difference loop."""
    n = metric.dimension
    gamma = christoffel_raw(metric, x)
    dgamma = np.empty((n, n, n, n))
    h = fd_step(x)
    for l in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[l] += h[l]
        xm[l] -= h[l]
        dgamma[l] = (christoffel_raw(metric, xp) - christoffel_raw(metric, xm)) / (2.0 * h[l])
    termA = np.einsum("i,ikjl,l->kj", v, dgamma, v)
    termB = np.einsum("jkil,i,l->kj", dgamma, v, v)
    P = np.einsum("kim,i->km", gamma, v)
    Q = np.einsum("mjl,l->mj", gamma, v)
    r = np.einsum("mil,i,l->m", gamma, v, v)
    termD = np.einsum("kjm,m->kj", gamma, r)
    return termA - termB + P @ Q - termD


@pytest.mark.parametrize("name,params", [("spherical_cap", {}), ("spherical_band", {}),
                                         ("spherical_cap", {"dim": 3, "radius": 1.2})])
def test_difference_stencils_bit_equal_to_loops(name, params, rng):
    spec = make_example(name, **params)
    n = spec.dimension
    gradient = spec.boundary.gradient
    fd_boundary = BoundaryChart(spec.boundary.value, gradient)
    for x in interior_points(spec, rng, count=10):
        v = rng.normal(size=n)
        assert same_bits(curvature_operator_raw(spec.metric, x, v),
                         reference_curvature_operator(spec.metric, x, v))
        h = np.empty((n, n))
        step = fd_step(x)
        for l in range(n):
            xp, xm = x.copy(), x.copy()
            xp[l] += step[l]
            xm[l] -= step[l]
            h[l] = (gradient(xp) - gradient(xm)) / (2.0 * step[l])
        assert same_bits(fd_boundary.hessian(x), 0.5 * (h + h.T))


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
        entries = [["4/(1 + x0**2 + x1**2)**2", "0"], ["0", "4/(1 + x0**2 + x1**2)**2"]]
        spec = load_manifold({"inline": {
            "name": "inline-cap", "dimension": 2,
            "metric": {"kind": "expression", "entries": entries},
            "boundary": {"expression": f"({rc!r}**2 - x0**2 - x1**2)/(2*{rc!r})"},
            "domain": {"lo": [-3 * rc, -3 * rc], "hi": [3 * rc, 3 * rc]},
            "scale_hint": 1.04}})
        launches = [rc * np.array([np.cos(a), np.sin(a)]) for a in (0.3, 2.0, 4.4)]
        parts = reference_expression_parts(entries, 2)
    else:
        spec = make_example("solid_torus", rotation=2 * np.pi / 5)
        launches = [np.array([np.cos(a), np.sin(a), t]) for a, t in ((0.3, 0.1), (2.5, 0.8))]
        parts = reference_parts(spec.metric)
    for p in launches:
        ref = _shoot_with(reference_rhs(parts), spec, p, monkeypatch)
        new = shoot(spec, p)
        assert new.return_time == ref.return_time
        assert same_bits(new.times, ref.times)
        assert same_bits(new.flow.states, ref.flow.states)
        assert same_bits(new.flow.event_state, ref.flow.event_state)


@pytest.mark.parametrize("metric,x", [
    (MetricField.from_matrix(2, lambda x: np.diag([1.0, 0.0])), [0.0, 0.0]),
    (expression_metric([["x0**2", "0"], ["0", "1"]], 2), [0.0, 0.5]),
    (expression_metric([["1", "x0"], ["x0", "1"]], 2), [1.0, 0.5]),
], ids=["constant", "inline_diagonal", "inline_offdiagonal"])
def test_singular_metric_raises_without_warning(metric, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateMetricError, match="degenerate metric"):
            christoffel_raw(metric, np.array(x))


def _outcome(fn):
    """Result (or exception type and message) of ``fn()`` and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn()
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
    parts = reference_expression_parts(entries, 2)
    x = np.array(x)
    new, new_warnings = _outcome(lambda: christoffel_raw(metric, x))
    ref, ref_warnings = _outcome(lambda: reference_christoffel(parts, x))
    assert new_warnings == ref_warnings
    if isinstance(ref, tuple):
        assert new == ref
    else:
        assert same_bits(new, ref)
