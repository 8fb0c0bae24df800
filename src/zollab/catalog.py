"""Built-in manifold constructors with closed-form charts and ground truth.

Each example documents its chart and carries annotations (half-length,
index, boundary components, soul dimension) used by the verification
harness as ground truth.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .geometry import (
    BoundaryChart,
    BoundaryPatch,
    ManifoldSpec,
    MetricField,
    deck_pair,
    row_dot,
    scalar_pow,
)

DECK_ISO_TOL = 1e-10


class ExampleParameterError(ValueError):
    """Raised for parameters outside an example's validity range."""


# ---------------------------------------------------------------------------
# metric and boundary building blocks

def euclidean_metric(n):
    jet = np.zeros((n + 1, n, n))
    jet[0] = np.eye(n)
    jet.flags.writeable = False
    # read-only views: one array at a point, a broadcast of it over a stack
    return MetricField(n, lambda x: np.broadcast_to(jet, x.shape[:-1] + jet.shape)
                       if x.ndim > 1 else jet, name="euclidean")


def stereographic_sphere_metric(n):
    """Round unit sphere S^n in the stereographic chart: g = (2/(1+|u|^2))^2 I."""
    eye = np.eye(n)

    def jet(x):
        # |x|^2 as one dot per point, as a 1-d ``x @ x`` takes it
        lam = 2.0 / (1.0 + row_dot(x, x))
        out = np.empty(x.shape[:-1] + (n + 1, n, n))
        out[..., 0, :, :] = (lam * lam)[..., None, None] * eye
        np.multiply(((-2.0 * scalar_pow(lam, 3))[..., None] * x)[..., None, None], eye,
                    out=out[..., 1:, :, :])
        return out

    return MetricField(n, jet, name="stereographic-sphere")


def latitude_band_metric():
    """Unit S^2 in (latitude, longitude): g = d(lat)^2 + cos^2(lat) d(lon)^2."""

    def jet(x):
        out = np.zeros(x.shape[:-1] + (3, 2, 2))
        out[..., 0, 0, 0] = 1.0
        out[..., 0, 1, 1] = scalar_pow(np.cos(x[..., 0]), 2)
        out[..., 1, 1, 1] = -np.sin(2.0 * x[..., 0])
        return out

    return MetricField(2, jet, name="latitude-band")


def ball_boundary(n, radius):
    r = float(radius)
    return BoundaryChart(
        lambda x: (r * r - row_dot(x, x)) / (2.0 * r),
        lambda x: -x / r,
        lambda x: -np.eye(n) / r,
    )


def _axis_gradient(x, axis, value):
    """Gradient array shaped like the point or stack x, ``value`` on one axis."""
    g = np.zeros(x.shape)
    g[..., axis] = value
    return g


def slab_boundary(n, axis, length):
    """b = t (length - t) / length along one chart axis, zero at t in {0, length}."""
    L = float(length)

    def value(x):
        t = x[..., axis]
        return t * (L - t) / L

    def gradient(x):
        return _axis_gradient(x, axis, 1.0 - 2.0 * x[..., axis] / L)

    def hessian(x):
        h = np.zeros((n, n))
        h[axis, axis] = -2.0 / L
        return h

    return BoundaryChart(value, gradient, hessian)


def symmetric_slab_boundary(n, axis, half_width):
    """b = (w^2 - x^2) / (2w) along one axis, zero at x = +-w."""
    w = float(half_width)

    def value(x):
        return (w * w - scalar_pow(x[..., axis], 2)) / (2.0 * w)

    def gradient(x):
        return _axis_gradient(x, axis, -x[..., axis] / w)

    def hessian(x):
        h = np.zeros((n, n))
        h[axis, axis] = -1.0 / w
        return h

    return BoundaryChart(value, gradient, hessian)


def sphere_points(u, dim, radius):
    """Map parameters in [0,1)^(dim-1) to points of the (dim-1)-sphere.

    Hyperspherical angle parametrization (polar angles pi*u, azimuth 2*pi*u);
    parameter lines are great circles, which keeps finite differences across
    neighboring launches exactly orthogonal to radial directions.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    m = u.shape[0]
    # angles ordered azimuth-last so axis 0 is the periodic one in dim 3
    polar = np.pi * u[:, 1: dim - 1]
    phi = 2.0 * np.pi * u[:, 0]
    pts = np.empty((m, dim))
    sin_prod = np.ones(m)
    for i in range(dim - 2):
        pts[:, dim - 1 - i] = sin_prod * np.cos(polar[:, dim - 3 - i])
        sin_prod = sin_prod * np.sin(polar[:, dim - 3 - i])
    pts[:, 0] = sin_prod * np.cos(phi)
    pts[:, 1] = sin_prod * np.sin(phi)
    return radius * pts


def sphere_patch(name, n, radius):
    """The sphere |x| = radius of R^n as one boundary patch of dimension n - 1,
    its first parameter axis (the azimuth) periodic."""
    return BoundaryPatch(name, n - 1, lambda u: sphere_points(u, n, radius),
                         (True,) + (False,) * (n - 2))


# ---------------------------------------------------------------------------
# catalog constructors

CATALOG = {}        # name: (constructor, {parameter: default})


def _parameters(name, params):
    """The example's defaults updated with ``params``, each of the type of its
    default: an integer that is not a bool where the default is an integer,
    a finite real number where it is a float."""
    defaults = CATALOG[name][1]
    unknown = set(params) - set(defaults)
    if unknown:
        raise ExampleParameterError(
            f"unknown parameters {sorted(unknown)} for {name!r}; schema: {sorted(defaults)}")
    for key, value in params.items():
        if isinstance(defaults[key], int):
            kind, ok = "an integer", isinstance(value, Integral)
        else:
            kind, ok = "a finite number", isinstance(value, Real) and math.isfinite(value)
        if isinstance(value, bool) or not ok:
            raise ExampleParameterError(
                f"parameter {key!r} of {name!r} must be {kind}, not {value!r}")
    return dict(defaults, **params)


def _example(**defaults):
    """Register the constructor in ``CATALOG`` under its name, with its
    parameters' defaults in the order of its arguments. Every call, direct or
    through ``make_example``, takes the defaults and checks of ``_parameters``."""
    def register(build):
        name = build.__name__

        @functools.wraps(build)
        def example(*args, **params):
            given = dict(zip(defaults, args))
            if len(args) > len(defaults) or given.keys() & params.keys():
                raise TypeError(f"{name}() takes each of {list(defaults)} once")
            return build(**_parameters(name, dict(given, **params)))

        CATALOG[name] = (example, defaults)
        return example
    return register


def catalog_names():
    return sorted(CATALOG)


def make_example(name, **params):
    """Instantiate a catalog example by name with keyword parameters."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog example {name!r}; known: {', '.join(catalog_names())}")
    return CATALOG[name][0](**params)


def example_manifest(name, **params):
    """Manifest fragment reproducing a catalog example."""
    defaults = CATALOG[name][1]
    return {"catalog": name, "params": {k: float(v) if isinstance(defaults[k], float) else v
                                        for k, v in _parameters(name, params).items()}}


@_example(radius=1.0)
def flat_disk(radius):
    if radius <= 0:
        raise ExampleParameterError("parameter violates example validity: radius must be > 0")
    return replace(euclidean_ball(2, radius), name=f"flat_disk(L={radius:g})")


@_example(n=3, radius=1.0)
def euclidean_ball(n, radius):
    if n < 2 or radius <= 0:
        raise ExampleParameterError("parameter violates example validity: need n >= 2, radius > 0")
    r = float(radius)
    return ManifoldSpec(
        name=f"euclidean_ball(n={n},L={r:g})",
        metric=euclidean_metric(n),
        boundary=ball_boundary(n, r),
        domain=np.array([[-2.0 * r, 2.0 * r]] * n),
        deck_maps=[],
        boundary_patches=[sphere_patch("sphere", n, r)],
        scale_hint=2.0 * r,
        annotations={"zoll": True, "half_length": r, "index": n - 1,
                     "components": 1, "soul_dim": 0},
        chart_notes="Cartesian chart; b = (L^2 - |x|^2)/(2L).",
    )


@_example(half_length=1.0, circumference=2.0 * np.pi)
def flat_band(half_length, circumference):
    if half_length <= 0 or circumference <= 0:
        raise ExampleParameterError("parameter violates example validity: positive sizes required")
    L, C = float(half_length), float(circumference)
    patches = [
        BoundaryPatch("bottom", 1, lambda u, _c=C: np.stack(
            [np.zeros(len(np.atleast_2d(u))), _c * np.atleast_2d(u)[:, 0]], axis=1), (True,)),
        BoundaryPatch("top", 1, lambda u, _c=C, _l=L: np.stack(
            [np.full(len(np.atleast_2d(u)), 2.0 * _l), _c * np.atleast_2d(u)[:, 0]], axis=1), (True,)),
    ]
    return ManifoldSpec(
        name=f"flat_band(L={L:g},C={C:g})",
        metric=euclidean_metric(2),
        boundary=slab_boundary(2, 0, 2.0 * L),
        domain=np.array([[-L, 3.0 * L], [-0.3 * C, 1.3 * C]]),
        deck_maps=deck_pair("wrap", 1, C),
        boundary_patches=patches,
        scale_hint=2.0 * L,
        annotations={"zoll": True, "half_length": L, "index": 0,
                     "components": 2, "soul_dim": None},
        chart_notes="Flat chart (t, s), t across the band, s periodic with period C.",
    )


@_example(width=1.0, twist_length=3.0)
def flat_moebius(width, twist_length):
    if width <= 0 or twist_length <= 0:
        raise ExampleParameterError("parameter violates example validity: positive sizes required")
    w, c = float(width), float(twist_length)

    def rim(u, _w=w, _c=c):
        u = np.atleast_2d(u)[:, 0]
        ell = 2.0 * _c * u
        x = np.where(ell < _c, _w, -_w)
        t = np.where(ell < _c, ell, ell - _c)
        return np.stack([x, t], axis=1)

    return ManifoldSpec(
        name=f"flat_moebius(w={w:g},c={c:g})",
        metric=euclidean_metric(2),
        boundary=symmetric_slab_boundary(2, 0, w),
        domain=np.array([[-1.5 * w, 1.5 * w], [-0.3 * c, 1.3 * c]]),
        deck_maps=deck_pair("twist", 1, c, -np.eye(1), -np.eye(1)),
        boundary_patches=[BoundaryPatch("rim", 1, rim, (True,))],
        scale_hint=2.0 * w,
        annotations={"zoll": True, "half_length": w, "index": 0,
                     "components": 1, "soul_dim": 1},
        chart_notes="Flat chart (x, t), x in [-w, w], t glued with a flip after period c.",
    )


@_example(radius=np.pi / 6.0, dim=2)
def spherical_cap(radius, dim):
    L, n = float(radius), dim
    if not (0.0 < L < np.pi / 2.0):
        raise ExampleParameterError("parameter violates example validity: need 0 < L < pi/2")
    if n < 2:
        raise ExampleParameterError("parameter violates example validity: need dim >= 2")
    rc = np.tan(L / 2.0)
    return ManifoldSpec(
        name=f"spherical_cap(L={L:g},n={n})",
        metric=stereographic_sphere_metric(n),
        boundary=ball_boundary(n, rc),
        domain=np.array([[-3.0 * rc, 3.0 * rc]] * n),
        deck_maps=[],
        boundary_patches=[sphere_patch("rim", n, rc)],
        scale_hint=2.0 * L,
        annotations={"zoll": True, "half_length": L, "index": n - 1,
                     "components": 1, "soul_dim": 0},
        chart_notes="Stereographic chart of the unit sphere; cap of geodesic radius L "
                    "is the chart ball of radius tan(L/2).",
    )


@_example(max_latitude=np.pi / 6.0)
def spherical_band(max_latitude):
    th = float(max_latitude)
    if not (0.0 < th < np.pi / 2.0):
        raise ExampleParameterError("parameter violates example validity: need 0 < theta0 < pi/2")

    def circle(u, lat):
        u = np.atleast_2d(u)[:, 0]
        return np.stack([np.full(len(u), lat), 2.0 * np.pi * u], axis=1)

    lam_box = 0.5 * (th + np.pi / 2.0)
    return ManifoldSpec(
        name=f"spherical_band(theta0={th:g})",
        metric=latitude_band_metric(),
        boundary=symmetric_slab_boundary(2, 0, th),
        domain=np.array([[-lam_box, lam_box], [-2.0, 2.0 * np.pi + 2.0]]),
        deck_maps=deck_pair("lon", 1, 2.0 * np.pi),
        boundary_patches=[
            BoundaryPatch("south", 1, lambda u, _t=th: circle(u, -_t), (True,)),
            BoundaryPatch("north", 1, lambda u, _t=th: circle(u, _t), (True,)),
        ],
        scale_hint=2.0 * th,
        annotations={"zoll": True, "half_length": th, "index": 0,
                     "components": 2, "soul_dim": None},
        chart_notes="(latitude, longitude) chart of the unit sphere, longitude periodic.",
    )


@_example(a=2.0, b=1.0)
def ellipse(a, b):
    if a <= 0 or b <= 0 or abs(a - b) < 1e-12:
        raise ExampleParameterError(
            "parameter violates example validity: need a, b > 0 and a != b (non-Zoll control)")
    a, b = float(a), float(b)

    def value(x):
        return (1.0 - scalar_pow(x[..., 0] / a, 2) - scalar_pow(x[..., 1] / b, 2)) / 2.0

    def gradient(x):
        return np.stack([-x[..., 0] / a ** 2, -x[..., 1] / b ** 2], axis=-1)

    def hessian(x):
        return np.diag([-1.0 / a ** 2, -1.0 / b ** 2])

    def rim(u, _a=a, _b=b):
        th = 2.0 * np.pi * np.atleast_2d(u)[:, 0]
        return np.stack([_a * np.cos(th), _b * np.sin(th)], axis=1)

    return ManifoldSpec(
        name=f"ellipse(a={a:g},b={b:g})",
        metric=euclidean_metric(2),
        boundary=BoundaryChart(value, gradient, hessian),
        domain=np.array([[-2.0 * a, 2.0 * a], [-2.0 * b, 2.0 * b]]),
        deck_maps=[],
        boundary_patches=[BoundaryPatch("rim", 1, rim, (True,))],
        scale_hint=2.0 * min(a, b),
        annotations={"zoll": False},
        chart_notes="Cartesian chart; flat metric; non-Zoll refutation control.",
    )


# ---------------------------------------------------------------------------
# mapping torus

@dataclass
class Isometry:
    """Linear isometry x -> matrix @ x of a base chart, with its inverse matrix."""

    name: str
    matrix: np.ndarray
    inverse: np.ndarray


def identity_isometry(n):
    return Isometry("identity", np.eye(n), np.eye(n))


def rotation_isometry(alpha):
    """Rotation of a planar chart about the origin."""
    c, s = np.cos(alpha), np.sin(alpha)
    rot = np.array([[c, -s], [s, c]])
    return Isometry(f"rotation({alpha:g})", rot, rot.T)


def _weyl_points(count, dim):
    """The points k (sqrt 2, sqrt 3, sqrt 5, ...) mod 1, k = 1..count, with the
    square roots of the first ``dim`` primes: equidistributed in [0, 1)^dim,
    since those roots and 1 are linearly independent over the rationals."""
    primes = []
    k = 2
    while len(primes) < dim:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return np.outer(np.arange(1, count + 1), np.sqrt(primes)) % 1.0


def isometry_residual(base: ManifoldSpec, iso: Isometry):
    """Worst deviation, over about 40 boundary points x at parameters of a
    Weyl sequence, of A^T g(Ax) A from g(x), of the inverse applied to Ax from
    x, and of b(Ax) from b(x), for A = ``iso.matrix``."""
    per = max(40 // max(len(base.boundary_patches), 1), 4)
    x = np.concatenate([patch.points(_weyl_points(per, patch.param_dim))
                        for patch in base.boundary_patches])
    A = iso.matrix
    y = np.matmul(A, x[..., None])[..., 0]
    metric = np.linalg.norm(A.T @ base.metric.matrix(y) @ A - base.metric.matrix(x),
                            axis=(-2, -1))
    back = np.linalg.norm(np.matmul(iso.inverse, y[..., None])[..., 0] - x, axis=-1)
    boundary = np.abs(base.boundary.value(y) - base.boundary.value(x))
    return float(max(metric.max(), back.max(), boundary.max()))


def mapping_torus(base: ManifoldSpec, iso: Optional[Isometry] = None, name=None):
    """Quotient of base x R by (x, t) -> (phi(x), t + 1) for an isometry phi.

    The result has one extra periodic chart coordinate, metric g + dt^2, and
    inherits half-length, index and boundary component count from the base.
    """
    n = base.dimension
    if iso is None:
        iso = identity_isometry(n)
    res = isometry_residual(base, iso)
    if not res <= DECK_ISO_TOL:          # a NaN residual is no isometry either
        raise ValueError(
            f"mapping torus rejected: {iso.name} is not an isometry of {base.name!r} "
            f"(residual {res:.3e})")
    base_metric = base.metric

    def jet(x, _bm=base_metric, _n=n):
        out = np.zeros(x.shape[:-1] + (_n + 2, _n + 1, _n + 1))
        out[..., 0, _n, _n] = 1.0
        out[..., :_n + 1, :_n, :_n] = _bm.jet(x[..., :_n])
        return out

    metric = MetricField(n + 1, jet, name=f"{base.metric.name}+dt^2")

    base_boundary = base.boundary
    boundary = BoundaryChart(
        lambda x: base_boundary.value(x[..., :n]),
        lambda x: np.concatenate([base_boundary.gradient(x[..., :n]),
                                  np.zeros(x.shape[:-1] + (1,))], axis=-1),
        lambda x: _lift_hessian(base_boundary, x[:n], n),
    )

    # the base decks glue the same faces of the leading coordinates; the tau
    # seam applies the isometry's inverse going up and the isometry going down,
    # so the tau parameter axis is walkable as periodic only for the identity
    identity = iso.name == "identity"
    decks = list(base.deck_maps) + deck_pair(f"torus{n}", n, 1.0,
                                             None if identity else iso.inverse,
                                             None if identity else iso.matrix)
    patches = [
        BoundaryPatch(
            f"{p.name}*S1", p.param_dim + 1,
            lambda u, _p=p: np.column_stack([_p.points(np.atleast_2d(u)[:, :_p.param_dim]),
                                             np.atleast_2d(u)[:, _p.param_dim]]),
            p.axis_periodic() + (identity,))
        for p in base.boundary_patches
    ]

    domain = np.vstack([base.domain, [-0.3, 1.3]])
    ann = dict(base.annotations)
    if ann.get("soul_dim") is not None:
        ann["soul_dim"] = ann["soul_dim"] + 1
    torus_name = name or f"mapping_torus({base.name},{iso.name})"
    return ManifoldSpec(
        name=torus_name,
        metric=metric,
        boundary=boundary,
        domain=domain,
        deck_maps=decks,
        boundary_patches=patches,
        scale_hint=base.scale_hint,
        annotations=ann,
        chart_notes=base.chart_notes + " Extra periodic coordinate tau in [0,1), "
                    "glued through the isometry " + iso.name + ".",
    )


def _lift_hessian(base_boundary, x, n):
    h = np.zeros((n + 1, n + 1))
    h[:n, :n] = base_boundary.hessian(x)
    return h


@_example(radius=1.0, rotation=0.0)
def solid_torus(radius, rotation):
    """Mapping torus of a flat disk, optionally twisted by a rotation."""
    base = flat_disk(radius)
    iso = rotation_isometry(rotation) if rotation else identity_isometry(2)
    return mapping_torus(base, iso, name=f"solid_torus(L={radius:g},alpha={rotation:g})")


@_example(n=3, k=1, rotation=0.0)
def index_ladder(n, k, rotation):
    """An n-dimensional certified example of index k (2 <= n <= 5): the n-ball,
    the flat Moebius band, or iterated mapping tori of the (k + 1)-ball, or of
    the flat band [0, 2] x S^1 for k = 0. A ``rotation`` twists the first
    torus over the 2-ball, so it needs k = 1 and n >= 3."""
    if n > 5:
        raise ExampleParameterError("desk-scale cap: index_ladder supports n <= 5")
    if n < 2 or not (0 <= k <= n - 1):
        raise ExampleParameterError("parameter violates example validity: need 2 <= n, 0 <= k <= n-1")
    if rotation and not (k == 1 and n >= 3):
        raise ExampleParameterError("parameter violates example validity: "
                                    "a rotation needs k = 1 and n >= 3")
    if k == n - 1:
        return euclidean_ball(n, 1.0)
    if n == 2 and k == 0:
        return flat_moebius(1.0, 3.0)
    base = flat_band(1.0, 1.0) if k == 0 else euclidean_ball(k + 1, 1.0)
    for step in range(n - base.dimension):
        twist = rotation and step == 0      # k = 1: the first torus is over the 2-ball
        base = mapping_torus(base, rotation_isometry(rotation) if twist else None)
    alpha = f",alpha={rotation:g}" if rotation else ""
    return replace(base, name=f"index_ladder(n={n},k={k}{alpha})")
