"""The stacked scalar solvers against scipy's, row by row and bit for bit."""
import ast
import pathlib

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

import zollab
from zollab import scalar
from test_engine import concentric_annulus
from zollab.catalog import catalog_names, make_example
from zollab.manifest import load_manifold
from zollab.verifier import certify

SRC = pathlib.Path(zollab.__file__).parent


def stacked(g):
    """A stacked f from g(x, rows) with a scalar view of row i."""
    return g, (lambda i: (lambda x: float(g(np.array([x]), np.array([i]))[0])))


def scipy_root(f_row, a, b, **kwargs):
    """scipy's brentq on one row: (root, flag), the flag of the error it raises."""
    try:
        return scipy_brentq(f_row, a, b, **kwargs), scalar.CONVERGED
    except RuntimeError:
        return scipy_brentq(f_row, a, b, disp=False, **kwargs), scalar.CONVERR
    except ValueError as exc:
        return None, scalar.NANERR if "NaN" in str(exc) else scalar.SIGNERR


def assert_brentq_rows(f, a, b, **kwargs):
    g, row = stacked(f)
    roots, flags = scalar.brentq(g, a, b, **kwargs)
    for i in range(len(a)):
        want, flag = scipy_root(row(i), a[i], b[i], **kwargs)
        assert flags[i] == flag, i
        if want is not None:
            assert roots[i].tobytes() == np.float64(want).tobytes(), i
    return flags


def assert_bounded_rows(f, lo, hi, xatol, maxiter=500):
    g, row = stacked(f)
    x, fun = scalar.minimize_bounded(g, lo, hi, xatol, maxiter)
    xatol = np.broadcast_to(xatol, np.shape(lo))
    for i in range(len(lo)):
        res = minimize_scalar(row(i), bounds=(lo[i], hi[i]), method="bounded",
                              options={"xatol": xatol[i], "maxiter": maxiter})
        assert x[i].tobytes() == np.float64(res.x).tobytes(), i
        assert fun[i].tobytes() == np.float64(res.fun).tobytes(), i


def wiggles(rng, m):
    """Cubic-plus-bump functions, one per row (no transcendental functions,
    whose vectorized loops round differently from their scalar calls)."""
    c = rng.normal(size=(m, 5))

    def f(x, rows):
        k = c[rows]
        cubic = k[:, 0] + x * (k[:, 1] + x * (k[:, 2] + x * k[:, 3]))
        return cubic + 2 / (1 + (3 * x + k[:, 4]) ** 2)

    return f


def test_brentq_random_brackets(rng):
    m = 4000
    f = wiggles(rng, m)
    a = rng.uniform(-3, 0, m)
    b = a + rng.uniform(0.01, 4, m)
    flags = assert_brentq_rows(f, a, b)
    assert (flags == scalar.CONVERGED).sum() > 1000 and (flags == scalar.SIGNERR).any()
    assert_brentq_rows(f, a, b, xtol=4 * scalar.EPS, rtol=4 * scalar.EPS)
    assert_brentq_rows(f, b, a, xtol=1e-6)


def test_brentq_zero_at_an_end_nan_and_maxiter(rng):
    m = 200
    roots = rng.uniform(-1, 1, m)

    def f(x, rows):
        r = roots[rows]
        # exact zeros at r, a NaN where x > 5
        return np.where(x > 5, np.nan, (x - r) * (1 + (x - r) ** 2))

    a = np.where(np.arange(m) % 3 == 0, roots, roots - rng.uniform(0.1, 2, m))
    b = np.where(np.arange(m) % 3 == 1, roots, roots + rng.uniform(0.1, 2, m))
    b[-10:] = 6.0
    flags = assert_brentq_rows(f, a, b)
    assert (flags == scalar.NANERR).sum() == 10
    flags = assert_brentq_rows(f, a, b, maxiter=3)
    assert (flags == scalar.CONVERR).any() and (flags == scalar.CONVERGED).any()
    with pytest.raises(RuntimeError):
        scalar.require(*scalar.brentq(f, a[:-10], b[:-10], maxiter=3))
    with pytest.raises(ValueError):
        scalar.require(*scalar.brentq(f, np.array([2.0]), np.array([3.0])))


def test_minimize_bounded_random_intervals(rng):
    m = 3000
    f = wiggles(rng, m)
    lo = rng.uniform(-3, 0, m)
    hi = lo + rng.uniform(0.0, 4, m)
    hi[:5] = lo[:5]
    assert_bounded_rows(f, lo, hi, 1e-5)
    assert_bounded_rows(f, lo, hi, rng.uniform(1e-14, 1e-3, m))
    # rows that stop at maxiter, and flat and NaN functions
    assert_bounded_rows(f, lo, hi, 1e-12, maxiter=6)

    def flat(x, rows):
        return np.where(rows % 2 == 0, 1.0, np.where(x > 0.5, np.nan, x ** 2))

    assert_bounded_rows(flat, lo, hi, 1e-10)


def test_no_module_imports_the_scalar_scipy_solvers():
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                names = {alias.name for alias in node.names}
                assert not names & {"brentq", "minimize_scalar"}, path.name
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"brentq", "minimize_scalar"} or not (
                    isinstance(node.value, ast.Name) and node.value.id in {"optimize", "scipy"}
                ), path.name


def recording(monkeypatch, module, name, calls):
    solver = getattr(scalar, name)

    def record(f, *args, **kwargs):
        out = solver(f, *args, **kwargs)
        calls.append((f, args, kwargs))
        return out

    monkeypatch.setattr(module, name, record)


@pytest.mark.parametrize("name", catalog_names() + ["concentric_annulus_12"])
def test_catalog_brackets_match_scipy(name, monkeypatch):
    # every stacked solve of a catalog run, row by row against the scipy call
    # on that row alone; on the annulus at scale_hint 12, steps hide dips of b
    # and flows are cut at the exits
    roots, minima = [], []
    for module in (zollab.engine, zollab.jacobi, zollab.verifier):
        if hasattr(module, "brentq"):
            recording(monkeypatch, module, "brentq", roots)
        if hasattr(module, "minimize_bounded"):
            recording(monkeypatch, module, "minimize_bounded", minima)
    if name == "concentric_annulus_12":
        spec = load_manifold(concentric_annulus(0.5, 12.0))
    else:
        spec = make_example(name)
    certify(spec, 64 if spec.dimension < 3 else 36, analyses=("certify", "jacobi", "soul"))
    assert roots and (minima or name == "ellipse")  # the refuted ellipse has no soul
    for f, (a, b, *rest), kwargs in roots:
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        assert_brentq_rows(f, a.ravel(), b.ravel(), **kwargs)
    for f, (lo, hi, *rest), kwargs in minima:
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        assert_bounded_rows(f, lo.ravel(), hi.ravel(), *rest, **kwargs)
