"""Tracing zollab from outside: spans at layer boundaries, counters inside.

Modules are the layers. ``install`` wraps the layer functions in place:
every module-level name bound to a wrapped function is rebound, because
``cli`` and ``verifier`` import ``certify``, ``first_return_map``,
``build_soul`` and the jacobi functions with ``from ... import`` and look
them up in their own namespace. Functions called thousands of times per run
(Christoffel symbols, metric matrices, deck images, single shots, the ODE
solver) are counters, not spans, so tracing them stays cheap; their time,
where it is kept, lands in the self time of the enclosing span.

Spans are kept in memory as (id, name, start, end, parent, rep) and written
out at the end; ``aggregate`` derives inclusive and self times from them.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer -> functions recorded as spans
SPAN_FUNCTIONS = {
    "cli": ("run",),
    "manifest": ("load_manifold",),
    "catalog": ("make_example",),
    "engine": ("sample_boundary", "first_return_map"),
    "verifier": ("certify", "boundary_components", "slice_distance_check",
                 "nearest_boundary_distance", "build_soul", "fiber_analysis",
                 "splitting_residual"),
    "jacobi": ("integrate_jacobi_frame", "focal_instants", "arrival_degeneracy_form",
               "assemble_index_form", "morse_index_quadratic", "index_form_spectrum"),
}

# names the CLI calls again after certify, only to write soul.csv and spectrum.csv
CLI_RECOMPUTE = ("build_soul", "integrate_jacobi_frame", "assemble_index_form",
                 "index_form_spectrum")


class Tracer:
    """Span stack plus named counters for one repetition."""

    def __init__(self, rep_id=0, clock=time.perf_counter):
        self.rep_id = rep_id
        self.clock = clock
        self.spans = []          # [id, name, start, end, parent, rep]
        self._stack = []
        self.counts = defaultdict(float)

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, self.clock(), None, parent, self.rep_id]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span):
        span[3] = self.clock()
        self._stack.pop()

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(s)
        return wrapper

    def counter(self, name, fn, timed=False, on_result=None):
        counts = self.counts
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if not timed:
                out = fn(*args, **kwargs)
            else:
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    counts[name + ".s"] += clock() - t0
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def records(self):
        return [list(s) for s in self.spans]


def aggregate(spans):
    """Per span name: inclusive seconds, self seconds and call count.

    Self time is a span's duration minus the part of its interval covered by
    its child spans. Inclusive time counts only the outermost span of a name,
    so a name nested inside itself is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for s in spans:
        _, name, start, end, parent, _ = s
        entry = out[name]
        entry["calls"] += 1
        covered = 0.0
        cursor = start
        for c in sorted(children[s[0]], key=lambda c: c[2]):
            lo, hi = max(c[2], cursor), min(c[3], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry["self_s"] += (end - start) - covered
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[1] != name:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            entry["s"] += end - start
    return dict(out)


def layer_seconds(spans, layer, within=None):
    """Inclusive seconds of the outermost spans of one layer (optionally below ``within``)."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[1].split(".")[0] != layer:
            continue
        ancestor, inside, nested = by_id.get(s[4]), within is None, False
        while ancestor is not None:
            nested = nested or ancestor[1].split(".")[0] == layer
            inside = inside or ancestor[1] == within
            ancestor = by_id.get(ancestor[4])
        if inside and not nested:
            total += s[3] - s[2]
    return total


def _zollab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "zollab" or name.startswith("zollab."))]


def _rebind(original, wrapper):
    """Replace every module-level binding of ``original`` across zollab."""
    for module in _zollab_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer):
    """Wrap zollab's layer functions; returns a function that undoes it."""
    import zollab.catalog
    import zollab.cli
    import zollab.engine as engine
    import zollab.geometry as geometry
    import zollab.jacobi
    import zollab.manifest
    import zollab.verifier

    saved = []
    for module in _zollab_modules():
        saved.append((module, dict(vars(module))))
    saved_attrs = [(geometry.MetricField, "matrix", geometry.MetricField.matrix),
                   (geometry.ManifoldSpec, "deck_images", geometry.ManifoldSpec.deck_images)]

    counts = tracer.counts

    def on_solve(sol):
        counts["engine.rhs_evals"] += sol.nfev
        counts["engine.ode_steps"] += len(sol.t) - 1

    def on_flow(flow):
        counts["engine.deck_crossings"] += len(flow.deck_crossings)

    def on_index_form(mat):
        counts["jacobi.index_dof"] = max(counts["jacobi.index_dof"], mat.stiffness.shape[0])

    shoot = engine.shoot

    @functools.wraps(shoot)
    def counted_shoot(*args, **kwargs):
        counts["engine.launches"] += 1
        t0 = tracer.clock()
        try:
            path = shoot(*args, **kwargs)
        finally:
            counts["engine.shoot.s"] += tracer.clock() - t0
        counts["engine.returned"] += 1
        return path

    # counters first, so the span wrappers below enclose them
    engine.solve_ivp = tracer.counter("engine.solve_ivp", engine.solve_ivp, on_result=on_solve)
    _rebind(engine.integrate_flow,
            tracer.counter("engine.integrate_flow", engine.integrate_flow, on_result=on_flow))
    _rebind(shoot, counted_shoot)
    for fname in ("christoffel_raw", "curvature_operator_raw"):
        original = getattr(geometry, fname)
        _rebind(original, tracer.counter(f"geometry.{fname}", original))
    assemble = zollab.jacobi.assemble_index_form
    _rebind(assemble, tracer.counter("jacobi.assembled", assemble, on_result=on_index_form))
    geometry.MetricField.matrix = tracer.counter(
        "geometry.metric_matrix", geometry.MetricField.matrix)
    geometry.ManifoldSpec.deck_images = tracer.counter(
        "geometry.deck_images", geometry.ManifoldSpec.deck_images, timed=True)

    for layer, names in SPAN_FUNCTIONS.items():
        home = sys.modules[f"zollab.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            _rebind(original, tracer.span(f"{layer}.{fname}", original))
    for fname in CLI_RECOMPUTE:
        setattr(zollab.cli, fname, tracer.span("cli.recompute", getattr(zollab.cli, fname)))

    def uninstall():
        for module, namespace in saved:
            for key, value in namespace.items():
                if vars(module).get(key) is not value:
                    setattr(module, key, value)
        for cls, attr, value in saved_attrs:
            setattr(cls, attr, value)
    return uninstall
