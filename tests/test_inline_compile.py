"""The namespace inline expressions compile in, against lambdify's.

``manifest._compile_entries`` binds only the globals the printed code reads,
each looked up without lambdify's ``from numpy import *``. Every binding must
be the object lambdify's numpy namespace, extended by the printer's module
imports as the compiler once extended it, gives the same name; sympy's
private ``_get_namespace`` is called here only, as the reference.
"""
import builtins
import os
import sys

import pytest
import sympy as sp
from sympy.utilities.lambdify import _get_namespace

import zollab.manifest as manifest
from test_engine import concentric_annulus
from test_geometry import INLINE_FLIP_SLAB
from test_manifest_cli import INLINE_CYLINDER, INLINE_ELLIPSE, tilted_strip
from test_metric_jet import INLINE_METRICS
from zollab.manifest import expression_metric, load_manifold

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
from workloads import generate  # noqa: E402

X0, X1 = sp.symbols("x0:2", real=True)
EXPRESSIONS = [sp.sin(X0), sp.cos(X0), sp.exp(X0), sp.log(X0), sp.sqrt(X0), sp.Abs(X0),
               sp.atan2(X0, X1), sp.asin(X0), sp.cosh(X0), sp.Max(X0, X1), sp.Min(X0, X1, 1),
               sp.Piecewise((X0, X0 > 0), (X1, True)), sp.pi * X0, sp.E * X0]
MANIFESTS = {"bench_cap": generate("inline-cap-sweep", 1)[0]["manifold"],
             "ellipse": INLINE_ELLIPSE, "cylinder": INLINE_CYLINDER,
             "tilted_crossings": tilted_strip("crossings"), "tilted_flip": tilted_strip("flip"),
             "flip_slab": INLINE_FLIP_SLAB, "annulus": concentric_annulus(0.5, 2)}


def lambdify_binding(exprs, name):
    """What the compiler's former namespace bound ``name`` to: lambdify's numpy
    namespace with ``scalar_pow``, the printer's module imports of names it
    lacks, then builtins."""
    printer = manifest._scalar_pow_printer()
    for expr in exprs:
        printer.doprint(expr)
    namespace = dict(_get_namespace("numpy"), scalar_pow=manifest.scalar_pow)
    for module, names in printer.module_imports.items():
        for imported in names:
            if imported not in namespace:
                exec(f"from {module} import {imported}", {}, namespace)
    return namespace[name] if name in namespace else getattr(builtins, name)


@pytest.fixture
def compiled(monkeypatch):
    """The (expressions, function) pairs ``_compile_entries`` makes."""
    made = []
    compile_entries = manifest._compile_entries

    def record(xs, exprs, what):
        fn = compile_entries(xs, exprs, what)
        made.append((exprs, fn))
        return fn

    monkeypatch.setattr(manifest, "_compile_entries", record)
    return made


def assert_lambdify_bindings(compiled):
    names = set()
    for exprs, fn in compiled:
        for name in manifest._global_names(fn.__code__):
            assert fn.__globals__[name] is lambdify_binding(exprs, name), name
            names.add(name)
    return names


@pytest.mark.parametrize("key", sorted(MANIFESTS))
def test_manifest_names_are_lambdifys(key, compiled):
    load_manifold(MANIFESTS[key])
    names = assert_lambdify_bindings(compiled)
    if key == "bench_cap":
        assert "scalar_pow" in names


@pytest.mark.parametrize("key", sorted(INLINE_METRICS))
def test_metric_names_are_lambdifys(key, compiled):
    n, entries = INLINE_METRICS[key]
    expression_metric(entries, n)
    assert assert_lambdify_bindings(compiled)


@pytest.mark.parametrize("expr", EXPRESSIONS, ids=str)
def test_expression_names_are_lambdifys(expr, compiled):
    # the expression and its first derivatives, as a metric entry compiles them
    manifest._entries_function((X0, X1), [expr, expr.diff(X0), expr.diff(X1)], "test")
    names = assert_lambdify_bindings(compiled)
    if isinstance(expr, (sp.Max, sp.Min)):
        assert "reduce" in names       # functools', from the printer's imports
    if expr == sp.Abs(X0):
        assert "abs" in names          # numpy's, which shadows the builtin
