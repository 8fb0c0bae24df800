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

import builtins
import dis
import importlib
import json
import math
import types
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .catalog import (
    euclidean_metric,
    latitude_band_metric,
    make_example,
    stereographic_sphere_metric,
)
from .engine import SAMPLING_STRATEGIES
from .geometry import (
    BoundaryChart,
    BoundaryPatch,
    ManifoldSpec,
    MetricField,
    deck_pair,
    scalar_pow,
)
from .jacobi import MIN_MESH_SIZE
from .verifier import ALL_ANALYSES, Tolerances


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


def _scalar_pow_printer():
    """Numpy code printer that writes each power as ``scalar_pow(base, exp)``,
    each distinct one once.

    Code printed by it computes on arrays what the plain numpy printer's code
    computes on scalars: the same operations in the same order, with each
    ``**`` through ``scalar_pow``, since an array ``**`` rounds differently.
    A power is printed as the name ``_pow<k>`` of the k-th distinct text
    ``scalar_pow(base, exp)`` printed; ``powers`` maps each text to its name,
    in the order first printed, so a power comes after the powers in its base.
    """
    import sympy as sp
    from sympy.printing.numpy import NumPyPrinter

    class ScalarPowPrinter(NumPyPrinter):
        powers: dict

        def _hprint_Pow(self, expr, rational=False, sqrt="math.sqrt"):
            # the branches of the parent that print sqrt and reciprocals
            if not rational and (expr.exp == sp.S.Half or (expr.is_commutative and (
                    -expr.exp is sp.S.Half or expr.exp is sp.S.NegativeOne))):
                return super()._hprint_Pow(expr, rational=rational, sqrt=sqrt)
            text = f"scalar_pow({self._print(expr.base)}, {self._print(expr.exp)})"
            return self.powers.setdefault(text, f"_pow{len(self.powers)}")

    # the settings lambdify gives the printer it picks for modules="numpy"
    printer = ScalarPowPrinter({"fully_qualified_modules": False, "inline": True,
                                "allow_unknown_functions": True, "user_functions": {}})
    printer.powers = {}
    return printer


# sympy's translations for lambdify's numpy namespace (NUMPY_TRANSLATIONS)
_NUMPY_TRANSLATIONS = {"Heaviside": "heaviside"}
# modules whose names the printer imports that compute on arrays:
# functools.reduce folds numpy's ufuncs (Max, Min)
_ARRAY_MODULES = ("numpy", "functools")


def _global_names(code):
    """Global names ``code`` and the code nested in it read."""
    names = {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def _lookup(name, imports):
    """The object lambdify's numpy namespace binds the printed global ``name``
    to, given the printer's module ``imports``, found without its
    ``from numpy import *; from numpy.linalg import *``: ``scalar_pow``; a
    public name of numpy.linalg, or else of numpy (the second star import
    wins); sympy's translation of it; the printer's import of it; a builtin.
    None where none of them has it or only a module that takes no arrays does.
    """
    if name == "scalar_pow":
        return scalar_pow
    key = _NUMPY_TRANSLATIONS.get(name, name)
    for module in (np.linalg, np):
        if key in module.__all__:
            return getattr(module, key)
    for module, names in imports.items():
        if name in names:
            return (getattr(importlib.import_module(module), name)
                    if module.split(".")[0] in _ARRAY_MODULES else None)
    return getattr(builtins, name, None)


def _unusable(what, exprs, name, imports):
    """ManifestError naming the first of ``exprs``, entries of ``what``, whose
    code reads ``name``, a global that ``_lookup`` cannot bind."""
    where = next((module for module, names in imports.items() if name in names), None)
    why = (f"{where}.{name}, which takes no arrays" if where
           else f"{name!r}, which numpy does not define")
    for expr in exprs:
        printer = _scalar_pow_printer()
        text = "[" + ", ".join([printer.doprint(expr), *printer.powers]) + "]"
        if name in compile(text, "<zollab inline entry>", "eval").co_names:
            return ManifestError(f"{what} entry {expr} needs {why}")
    return ManifestError(f"{what} needs {why}")


def _compile_entries(xs, exprs, what):
    """Function of the coordinates xs (numpy scalars, or arrays of one shape)
    returning the list of the values of ``exprs``, entries of ``what``.

    The expressions are printed by ``_scalar_pow_printer`` into one function,
    which computes each distinct power once. It compiles in a namespace of the
    globals its code reads, each bound as lambdify's
    ``modules=[{"scalar_pow": ...}, "numpy"]`` binds it (``_lookup``). An
    expression the printer has no numpy code for, or whose code reads a name
    that is not bound or computes on scalars only, is a ManifestError here
    rather than an error at its first call. No cse or substitution of the
    powers: both regroup sums and products, so the rounding changes.
    """
    printer = _scalar_pow_printer()
    values = []
    for expr in exprs:
        try:
            values.append(printer.doprint(expr))
        except NotImplementedError as exc:      # sympy's PrintMethodNotImplementedError
            raise ManifestError(f"{what} entry {expr} has no numpy code") from exc
    args = ", ".join(map(str, xs))
    source = "\n".join([f"def entries({args}):"]
                       + [f"    {name} = {text}" for text, name in printer.powers.items()]
                       + [f"    return [{', '.join(values)}]"])
    code = compile(source, "<zollab inline entries>", "exec")
    namespace = {}
    for name in sorted(_global_names(code)):
        namespace[name] = _lookup(name, printer.module_imports)
        if namespace[name] is None:
            raise _unusable(what, exprs, name, printer.module_imports)
    exec(code, namespace)
    return namespace["entries"]


def _entries_function(xs, exprs, what):
    """Function of a point (n,) or a stack of points (m, n) in the coordinates
    xs giving the expressions ``exprs``, entries of ``what``, at it: an array
    (k,), or (m, k) whose rows are bit-equal to their points'
    (``_compile_entries``)."""
    fn = _compile_entries(xs, exprs, what)
    k = len(exprs)

    def entries(x):
        if x.ndim == 1:
            # numpy scalars in: each power is a numpy scalar ``**``
            return np.array(fn(*x), dtype=float)
        # coordinate columns in, the same operations on each; constant
        # entries broadcast
        out = np.empty((k, len(x)))
        for row, entry in zip(out, fn(*np.ascontiguousarray(x.T))):
            row[...] = entry
        return out.T

    return entries


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
    # every entry of g and of its n derivatives in one flat row-major list
    jet_entries = _entries_function(xs, [e for m in [mat] + dmats for e in m], "metric jet")
    shape = (n + 1, n, n)

    def jet(x):
        J = jet_entries(x).reshape(x.shape[:-1] + shape)
        return 0.5 * (J + J.swapaxes(-1, -2))

    return MetricField(n, jet, name="expression")


def expression_boundary(expr_str, n):
    """BoundaryChart from one expression in x0..x{n-1} (b > 0 inside); its
    value and gradient take a point or a stack of points."""
    import sympy as sp
    xs = sp.symbols(f"x0:{n}", real=True)
    b = _parse(expr_str, xs)
    value = _entries_function(xs, [b], "boundary")
    gradient = _entries_function(xs, [b.diff(x) for x in xs], "boundary gradient")
    hessian = _entries_function(xs, [b.diff(xi).diff(xj) for xi in xs for xj in xs],
                               "boundary Hessian")
    return BoundaryChart(lambda x: value(x)[..., 0], gradient,
                         lambda x: hessian(x).reshape(n, n))


def expression_patch(point_exprs, dim, name="patch", periodic=None):
    """BoundaryPatch from chart-coordinate expressions in u0..u{dim-1}."""
    import sympy as sp
    us = sp.symbols(f"u0:{dim}", real=True)
    point = _entries_function(us, [_parse(e, us) for e in point_exprs], f"patch {name!r} point")
    return BoundaryPatch(name, dim, point,
                         None if periodic is None else tuple(periodic))


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_object(key, value):
    """``value``, the entry ``key`` of a manifest, if it is a JSON object."""
    if not isinstance(value, dict):
        raise ManifestError(f"{key} must be a JSON object, not {value!r}")
    return value


def _list(doc, key, where):
    """``doc[key]`` of the manifest object ``where``, a JSON array; [] if absent."""
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ManifestError(f"{where} {key} must be a list, not {value!r}")
    return value


def _string(doc, key, default, where):
    """``doc[key]`` of the manifest object ``where``, a string; ``default`` if absent."""
    value = doc.get(key, default)
    if not isinstance(value, str):
        raise ManifestError(f"{where} {key} must be a string, not {value!r}")
    return value


def _known_keys(doc, keys, where):
    """``doc``, the manifest object ``where``, if it has no key outside ``keys``."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ManifestError(f"{where} has unknown keys {unknown}")
    return doc


def _entry(doc, key, where):
    """``doc[key]`` of the manifest object ``where``, which must have it."""
    if key not in doc:
        raise ManifestError(f"{where} needs a {key!r} entry")
    return doc[key]


def _chart_axis(doc, key, n):
    """The chart axis ``doc[key]``: an integer in 0..n-1."""
    axis = doc.get(key)
    if not (_is_integer(axis) and 0 <= axis < n):
        raise ManifestError(f"deck map {key} must be an integer in 0..{n - 1}, not {axis!r}")
    return axis


# the annotations the report is checked against, and the values each may take
_ANNOTATION_TYPES = {
    "zoll": ("a boolean", lambda v: isinstance(v, bool)),
    "half_length": ("a positive number",
                    lambda v: _is_number(v) and v > 0 and math.isfinite(v)),
    **{key: ("a non-negative integer", lambda v: _is_integer(v) and v >= 0)
       for key in ("index", "components", "soul_dim")},
}


def _annotations(doc):
    """An inline chart's annotations, if each one the report is checked
    against has a value of its type."""
    for key, value in _require_object("annotations", doc).items():
        if key in _ANNOTATION_TYPES and not _ANNOTATION_TYPES[key][1](value):
            raise ManifestError(f"annotation {key!r} must be {_ANNOTATION_TYPES[key][0]}, "
                                f"not {value!r}")
    return doc


_DECK_KEYS = ("kind", "axis", "period", "name")
_PATCH_KEYS = ("name", "dim", "point", "periodic")
_INLINE_KEYS = ("name", "dimension", "metric", "boundary", "domain", "deck_maps",
                "boundary_patches", "scale_hint", "annotations", "chart_notes")


def _build_deck_maps(docs, n):
    decks = []
    for doc in docs:
        kind = _require_object("deck map", doc).get("kind")
        _known_keys(doc, _DECK_KEYS + (("flip_axis",) if kind == "flip_translation" else ()),
                    "deck map")
        if kind not in ("translation", "flip_translation"):
            raise ManifestError(f"unknown deck map kind {kind!r}")
        axis = _chart_axis(doc, "axis", n)
        period = doc.get("period")
        if not (_is_number(period) and period > 0 and math.isfinite(period)):
            raise ManifestError(f"deck map period must be a positive number, not {period!r}")
        if kind == "translation":
            decks.extend(deck_pair(_string(doc, "name", f"t{axis}", "deck map"), axis, period))
            continue
        flip_axis = _chart_axis(doc, "flip_axis", n)
        if flip_axis == axis:
            raise ManifestError(f"deck map flip_axis must differ from its axis {axis}")
        # the identity on the leading coordinates, but x[flip_axis] negated
        flip = np.eye(flip_axis + 1)
        flip[flip_axis, flip_axis] = -1.0
        decks.extend(deck_pair(_string(doc, "name", f"ft{axis}", "deck map"), axis, period,
                               flip, flip))
    return decks


def load_manifold(doc) -> ManifoldSpec:
    """Build a ManifoldSpec from a manifest fragment (catalog or inline)."""
    _require_object("manifold", doc)
    if "catalog" in doc:
        _known_keys(doc, ("catalog", "params"), "catalog manifold")
        return make_example(doc["catalog"], **_require_object("params", doc.get("params", {})))
    if "inline" not in doc:
        raise ManifestError("manifold manifest needs a 'catalog' or 'inline' key, "
                            f"not {sorted(doc)}")
    _known_keys(doc, ("inline",), "inline manifold")
    inline = _known_keys(_require_object("inline", doc["inline"]), _INLINE_KEYS, "inline chart")
    n = inline.get("dimension")
    if not (_is_integer(n) and n >= 2):
        raise ManifestError(f"dimension must be an integer >= 2, not {n!r}")
    metric_doc = _require_object("metric", _entry(inline, "metric", "inline"))
    kind = metric_doc.get("kind")
    _known_keys(metric_doc, ("kind", "name" if kind == "builtin" else "entries"), "metric")
    if kind == "expression":
        metric = expression_metric(_entry(metric_doc, "entries", "metric"), n)
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
    boundary_doc = _known_keys(_require_object("boundary", _entry(inline, "boundary", "inline")),
                               ("expression",), "boundary")
    boundary = expression_boundary(_entry(boundary_doc, "expression", "boundary"), n)
    dom = _known_keys(_require_object("domain", _entry(inline, "domain", "inline")),
                      ("lo", "hi"), "domain")
    for key in ("lo", "hi"):
        if not (isinstance(_entry(dom, key, "domain"), list) and len(dom[key]) == n
                and all(map(_is_number, dom[key]))):
            raise ManifestError(f"domain {key} must be a list of {n} numbers")
    domain = np.stack([np.asarray(dom["lo"], dtype=float),
                       np.asarray(dom["hi"], dtype=float)], axis=1)
    decks = _build_deck_maps(_list(inline, "deck_maps", "inline chart"), n)
    patches = []
    for i, pdoc in enumerate(_list(inline, "boundary_patches", "inline chart")):
        _known_keys(_require_object("boundary patch", pdoc), _PATCH_KEYS, "boundary patch")
        dim = pdoc.get("dim", 1)
        if not (_is_integer(dim) and 1 <= dim < n):
            raise ManifestError(f"patch dim must be an integer in 1..{n - 1}, not {dim!r}")
        if not (isinstance(_entry(pdoc, "point", "boundary patch"), list)
                and len(pdoc["point"]) == n):
            raise ManifestError(f"patch point must be a list of {n} expressions")
        periodic = pdoc.get("periodic")
        if periodic is not None and not (isinstance(periodic, list) and len(periodic) == dim
                                         and all(isinstance(p, bool) for p in periodic)):
            raise ManifestError(f"patch periodic must be a list of {dim} booleans, "
                                f"not {periodic!r}")
        patches.append(expression_patch(
            pdoc["point"], dim, name=_string(pdoc, "name", f"patch{i}", "boundary patch"),
            periodic=periodic))
    scale_hint = inline.get("scale_hint", 1.0)
    if not (_is_number(scale_hint) and scale_hint > 0 and math.isfinite(scale_hint)):
        raise ManifestError(f"scale_hint must be a positive number, not {scale_hint!r}")
    return ManifoldSpec(
        name=_string(inline, "name", "inline", "inline chart"),
        metric=metric,
        boundary=boundary,
        domain=domain,
        deck_maps=decks,
        boundary_patches=patches,
        scale_hint=float(scale_hint),
        annotations=_annotations(inline.get("annotations", {})),
        chart_notes=_string(inline, "chart_notes", "inline manifest chart", "inline chart"),
        inline=True,
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

    def __post_init__(self):
        # every construction is checked, from_dict's and dataclasses.replace's
        _require_object("manifold", self.manifold)
        self.tolerances = dict(_require_object("tolerances", self.tolerances))
        if not (isinstance(self.analyses, (list, tuple))
                and all(isinstance(a, str) for a in self.analyses)):
            raise ManifestError(f"analyses must be a list of names, not {self.analyses!r}")
        self.analyses = tuple(self.analyses)
        if not isinstance(self.out_dir, str):
            raise ManifestError(f"out_dir must be a string, not {self.out_dir!r}")
        bad = set(self.analyses) - {*ALL_ANALYSES, "all"}
        if bad:
            raise ManifestError(f"unknown analyses {sorted(bad)}")
        for key in ("launches", "seed", "mesh_size"):
            val = getattr(self, key)
            if not _is_integer(val):
                raise ManifestError(f"{key} must be an integer, not {val!r}")
        if self.seed < 0:
            raise ManifestError(f"seed must be non-negative, not {self.seed}")
        if self.mesh_size < MIN_MESH_SIZE:
            raise ManifestError(f"mesh_size must be at least {MIN_MESH_SIZE}")
        known = {f.name for f in fields(Tolerances)}
        for key, val in self.tolerances.items():
            if key not in known:
                raise ManifestError(f"unknown tolerance {key!r}")
            if not (_is_number(val) and val > 0):
                raise ManifestError(f"tolerance {key!r} must be a positive number, not {val!r}")
            if not math.isfinite(val):
                raise ManifestError(f"tolerance {key!r} must be finite, not {val!r}")
        if self.strategy not in SAMPLING_STRATEGIES:
            raise ManifestError(f"unknown strategy {self.strategy!r}")

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ManifestError(f"run manifest must be a JSON object, not {type(doc).__name__}")
        if "manifold" not in doc:
            raise ManifestError("run manifest needs a 'manifold' object")
        # keys not given take the defaults of the fields
        return cls(**_known_keys(doc, [f.name for f in fields(cls)], "run manifest"))

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"run manifest is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self):
        return dict(asdict(self), analyses=list(self.analyses))
