"""JSON manifests: manifold construction and run configuration.

A manifold manifest either names a catalog example with parameters or
describes an inline chart: metric entries and boundary function as symbolic
expressions in x0..x{n-1} (differentiated analytically), deck maps of
translation or flip-translation kind, and parametric boundary patches in
u0..u{d-1}.

Sympy is imported only where an inline chart is built, so runs of catalog
examples never load it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .catalog import (
    euclidean_metric,
    flip_translation_decks,
    latitude_band_metric,
    make_example,
    stereographic_sphere_metric,
    translation_decks,
)
from .geometry import (
    BoundaryChart,
    BoundaryPatch,
    ManifoldSpec,
    MetricField,
)
from .jacobi import MIN_MESH_SIZE

_ALLOWED_ANALYSES = {"certify", "jacobi", "soul", "fibers", "splitting", "slices", "all"}


class ManifestError(ValueError):
    pass


def _parse(text, symbols):
    """Sympy expression of manifest text in the given symbols (and pi)."""
    import sympy as sp
    local = {str(s): s for s in symbols}
    local["pi"] = sp.pi
    try:
        expr = sp.sympify(text, locals=local)
    except (sp.SympifyError, TypeError, AttributeError) as exc:
        # sympify evaluates the parsed text, so a call or attribute it cannot
        # resolve surfaces as TypeError or AttributeError
        raise ManifestError(f"cannot parse expression {text!r}") from exc
    if (not isinstance(expr, sp.Expr) or not expr.free_symbols <= set(symbols)
            or expr.atoms(sp.core.function.AppliedUndef)):
        raise ManifestError(f"{text!r} is not an expression in "
                            + ", ".join(map(str, symbols)))
    return expr


def expression_metric(entries, n):
    """MetricField from an n x n nested list of expressions in x0..x{n-1}."""
    import sympy as sp
    if not (isinstance(entries, list) and len(entries) == n
            and all(isinstance(row, list) and len(row) == n for row in entries)):
        raise ManifestError(f"metric entries must be a {n} x {n} nested list")
    xs = sp.symbols(f"x0:{n}", real=True)
    mat = sp.Matrix([[_parse(entries[i][j], xs) for j in range(n)] for i in range(n)])
    if not mat.is_symmetric():
        mat = (mat + mat.T) / 2
    dmats = [mat.diff(x) for x in xs]
    # every entry of g and of its n derivatives in one nested list; no cse,
    # which would regroup subexpressions and change the rounding
    entries = sp.lambdify(xs, [m.tolist() for m in [mat] + dmats], modules="numpy")

    def jet(x):
        J = np.array(entries(*x), dtype=float)
        return 0.5 * (J + J.transpose(0, 2, 1))

    return MetricField(n, jet, name="expression")


def expression_boundary(expr_str, n, eps=1e-12):
    """BoundaryChart from one expression in x0..x{n-1} (b > 0 inside)."""
    import sympy as sp
    xs = sp.symbols(f"x0:{n}", real=True)
    b = _parse(expr_str, xs)
    grad = [b.diff(x) for x in xs]
    hess = sp.Matrix([[b.diff(xi).diff(xj) for xj in xs] for xi in xs])
    b_fn = sp.lambdify(xs, b, modules="numpy")
    g_fn = sp.lambdify(xs, sp.Matrix(grad), modules="numpy")
    h_fn = sp.lambdify(xs, hess, modules="numpy")
    return BoundaryChart(
        lambda x: float(b_fn(*x)),
        lambda x: np.asarray(g_fn(*x), dtype=float).ravel(),
        lambda x: np.asarray(h_fn(*x), dtype=float),
        eps=eps,
    )


def expression_patch(point_exprs, dim, name="patch", periodic=None):
    """BoundaryPatch from chart-coordinate expressions in u0..u{dim-1}."""
    import sympy as sp
    us = sp.symbols(f"u0:{max(dim, 1)}", real=True)
    fns = [sp.lambdify(us, _parse(e, us), modules="numpy") for e in point_exprs]

    def sample(params):
        params = np.atleast_2d(np.asarray(params, dtype=float))
        cols = []
        for fn in fns:
            vals = fn(*[params[:, i] for i in range(max(dim, 1))])
            cols.append(np.broadcast_to(np.asarray(vals, dtype=float), (params.shape[0],)))
        return np.stack(cols, axis=1)

    patch = BoundaryPatch(name, dim, sample)
    patch.periodic = tuple(periodic) if periodic is not None else (True,) * dim
    return patch


def _build_deck_maps(docs, n):
    decks = []
    for doc in docs:
        kind = doc.get("kind")
        axis = int(doc["axis"])
        period = float(doc["period"])
        if kind == "translation":
            decks.extend(translation_decks(n, axis, period, doc.get("name", f"t{axis}")))
        elif kind == "flip_translation":
            decks.extend(flip_translation_decks(n, axis, period, int(doc["flip_axis"]),
                                                doc.get("name", f"ft{axis}")))
        else:
            raise ManifestError(f"unknown deck map kind {kind!r}")
    return decks


def load_manifold(doc) -> ManifoldSpec:
    """Build a ManifoldSpec from a manifest fragment (catalog or inline)."""
    if "catalog" in doc:
        return make_example(doc["catalog"], **doc.get("params", {}))
    if "inline" not in doc:
        raise ManifestError("manifold manifest needs a 'catalog' or 'inline' key")
    inline = doc["inline"]
    n = int(inline["dimension"])
    metric_doc = inline["metric"]
    kind = metric_doc.get("kind")
    if kind == "expression":
        metric = expression_metric(metric_doc["entries"], n)
    elif kind == "builtin":
        builders = {"euclidean": lambda: euclidean_metric(n),
                    "stereographic_sphere": lambda: stereographic_sphere_metric(n),
                    "latitude_band": latitude_band_metric}
        name = metric_doc.get("name")
        if name not in builders:
            raise ManifestError(f"unknown builtin metric {name!r}; "
                                f"known: {sorted(builders)}")
        metric = builders[name]()
        if metric.dimension != n:
            raise ManifestError(f"builtin metric {name!r} has dimension "
                                f"{metric.dimension}, manifest says {n}")
    else:
        raise ManifestError("inline metric kind must be 'expression' or 'builtin'")
    boundary = expression_boundary(inline["boundary"]["expression"], n)
    dom = inline["domain"]
    domain = np.stack([np.asarray(dom["lo"], dtype=float),
                       np.asarray(dom["hi"], dtype=float)], axis=1)
    decks = _build_deck_maps(inline.get("deck_maps", []), n)
    patches = []
    for i, pdoc in enumerate(inline.get("boundary_patches", [])):
        patches.append(expression_patch(
            pdoc["point"], int(pdoc.get("dim", 1)),
            name=pdoc.get("name", f"patch{i}"), periodic=pdoc.get("periodic")))
    return ManifoldSpec(
        name=inline.get("name", "inline"),
        metric=metric,
        boundary=boundary,
        domain=domain,
        deck_maps=decks,
        boundary_patches=patches,
        scale_hint=float(inline.get("scale_hint", 1.0)),
        annotations=inline.get("annotations", {}),
        chart_notes=inline.get("chart_notes", "inline manifest chart"),
    )


@dataclass
class RunManifest:
    """Configuration of one certification run."""

    manifold: dict
    launches: int = 64
    seed: int = 0
    strategy: str = "uniform"
    analyses: tuple = ("certify",)
    mesh_size: int = 256
    tolerances: dict = field(default_factory=dict)
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, doc):
        analyses = tuple(doc.get("analyses", ["certify"]))
        bad = set(analyses) - _ALLOWED_ANALYSES
        if bad:
            raise ManifestError(f"unknown analyses {sorted(bad)}")
        m = cls(
            manifold=doc["manifold"],
            launches=doc.get("launches", 64),
            seed=doc.get("seed", 0),
            strategy=doc.get("strategy", "uniform"),
            analyses=analyses,
            mesh_size=doc.get("mesh_size", 256),
            tolerances=dict(doc.get("tolerances", {})),
            out_dir=doc.get("out_dir", "out"),
        )
        for key in ("launches", "seed", "mesh_size"):
            val = getattr(m, key)
            if isinstance(val, bool) or not isinstance(val, int):
                raise ManifestError(f"{key} must be an integer, not {val!r}")
        if m.mesh_size < MIN_MESH_SIZE:
            raise ManifestError(f"mesh_size must be at least {MIN_MESH_SIZE}")
        for key, val in m.tolerances.items():
            if not (isinstance(val, (int, float)) and val > 0):
                raise ManifestError(f"tolerance {key!r} must be positive")
        if m.strategy not in ("uniform", "low-discrepancy"):
            raise ManifestError(f"unknown strategy {m.strategy!r}")
        return m

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def to_dict(self):
        return {
            "manifold": self.manifold,
            "launches": self.launches,
            "seed": self.seed,
            "strategy": self.strategy,
            "analyses": list(self.analyses),
            "mesh_size": self.mesh_size,
            "tolerances": self.tolerances,
            "out_dir": self.out_dir,
        }
