"""Chart-based representation of compact Riemannian manifolds with boundary.

A manifold is described on a single chart box by a metric field, a boundary
defining function (positive inside, zero on the boundary), and an optional
set of deck identifications gluing faces of the fundamental domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.linalg import _umath_linalg

BOUNDARY_EPS = 1e-12


class DegenerateMetricError(ValueError):
    """Raised when the metric matrix is singular at a queried point."""


class NotBoundaryPointError(ValueError):
    """Raised when a boundary-only operation is queried off the boundary."""


def _fd_step(x):
    # central-difference step, goes with O(1)-curvature metrics
    return np.maximum(1e-5, 1e-5 * np.abs(x))


def _central_difference(f, x):
    """Central differences ``[d_0 f, ..., d_{n-1} f]`` of ``f`` at the chart point
    x (n,), or their (m, n, ...) stack at each point of x (m, n); ``f`` is called
    with arrays shaped like x, one coordinate step at a time."""
    h = _fd_step(x)
    diffs = []
    for l in range(x.shape[-1]):
        xp = x.copy()
        xm = x.copy()
        xp[..., l] += h[..., l]
        xm[..., l] -= h[..., l]
        d = f(xp) - f(xm)
        step = 2.0 * h[..., l]
        diffs.append(d / step.reshape(step.shape + (1,) * (d.ndim - step.ndim)))
    return np.stack(diffs, axis=x.ndim - 1)


# numpy scalar ``**`` calls C pow once per value; an array ``**`` takes other
# paths (squaring, SIMD pow) whose last bits differ. ``math.pow`` calls the same
# C pow on finite values, faster, but raises where pow overflows or has no
# real value, and handles non-finite values itself.
_SCALAR_POW = np.frompyfunc(lambda a, b: np.float64(a) ** b, 2, 1)
_LIBM_POW = np.frompyfunc(math.pow, 2, 1)


def scalar_pow(a, b):
    """``a ** b`` elementwise, bit for bit what a numpy scalar ``**`` gives per value."""
    if isinstance(a, float) and isinstance(b, (int, float)):
        return np.float64(a) ** b
    if np.isfinite(a).all() and np.isfinite(b).all():
        try:
            return np.asarray(_LIBM_POW(a, b), dtype=float)
        except (ValueError, OverflowError):
            pass
    return np.asarray(_SCALAR_POW(a, b), dtype=float)


class MetricField:
    """Field of symmetric positive-definite matrices over a chart, given by its jet.

    Parameters
    ----------
    dimension : int
        Chart dimension n >= 2 (1 allowed internally for interval factors).
    jet_fn : callable
        Maps a chart point (a float array (n,)) to the (n + 1, n, n) stack
        ``[g, d_0 g, ..., d_{n-1} g]``, d_l g[i, j] = d g_ij / d x^l, with every
        slice symmetric, and a stack of points (m, n) to the (m, n + 1, n, n)
        stack of their jets, each bit-equal to the jet of its point alone.
    """

    def __init__(self, dimension, jet_fn, name=""):
        self.dimension = int(dimension)
        self._jet_fn = jet_fn
        self.name = name

    @classmethod
    def from_point_jet(cls, dimension, point_jet, name=""):
        """Metric given by the jet of one point, ``point_jet`` (n,) -> (n + 1, n, n);
        a stack of points is evaluated row by row."""
        n = int(dimension)

        def jet(x):
            if x.ndim == 1:
                return point_jet(x)
            return np.array([point_jet(p) for p in x]).reshape(len(x), n + 1, n, n)

        return cls(dimension, jet, name)

    @classmethod
    def from_matrix(cls, dimension, matrix, derivative=None, name=""):
        """Metric given by its matrix function and, optionally, the function of
        its derivative array d[l, i, j] = d g_ij / d x^l; without one, the
        derivative is taken by central differences of the matrix.  Both are
        symmetrized."""
        def sym_matrix(x):
            g = np.asarray(matrix(x), dtype=float)
            return 0.5 * (g + g.T)

        def point_jet(x):
            if derivative is None:
                dg = _central_difference(sym_matrix, x)
            else:
                dg = np.asarray(derivative(x), dtype=float)
            return np.concatenate((sym_matrix(x)[None], 0.5 * (dg + np.swapaxes(dg, 1, 2))))

        return cls.from_point_jet(dimension, point_jet, name)

    def jet(self, x):
        """The (n + 1, n, n) stack ``[g, d_0 g, ..., d_{n-1} g]`` at a chart point
        (n,), or the (m, n + 1, n, n) stack of them at a stack of points (m, n)."""
        return self._jet_fn(np.asarray(x, dtype=float))

    def matrix(self, x):
        return self.jet(x)[..., 0, :, :]

    def derivative(self, x):
        return self.jet(x)[..., 1:, :, :]


class BoundaryChart:
    """Defining function of the boundary: b > 0 inside, b = 0 on the boundary.

    ``value_fn`` and ``gradient_fn`` map a chart point (n,) to b and its
    gradient (n,), and a stack of points (m, n) to the (m,) and (m, n) stacks
    of them, each row bit-equal to its point's; ``hessian_fn`` takes a point.
    """

    def __init__(self, value_fn, gradient_fn, hessian_fn=None, eps=BOUNDARY_EPS):
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self._hessian_fn = hessian_fn
        self.eps = float(eps)

    def value(self, x):
        """b at a chart point (a float), or the (m,) array of it at a stack of points."""
        x = np.asarray(x, dtype=float)
        b = self._value_fn(x)
        return float(b) if x.ndim == 1 else np.asarray(b, dtype=float)

    def gradient(self, x):
        """Gradient of b at a chart point (n,), or the (m, n) stack of them."""
        return np.asarray(self._gradient_fn(np.asarray(x, dtype=float)), dtype=float)

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        if self._hessian_fn is not None:
            h = np.asarray(self._hessian_fn(x), dtype=float)
        else:
            h = _central_difference(self.gradient, x)
        return 0.5 * (h + h.T)

    def on_boundary(self, x):
        return abs(self.value(x)) <= self.eps


@dataclass
class DeckMap:
    """Isometric face identification of the fundamental domain.

    ``face`` is a signed scalar: positive strictly inside the fundamental
    domain, zero on the face glued by this map; it takes a point (n,) or a
    stack of points (m, n), row by row bit-equal to its points.  ``apply``
    teleports a point that crossed the face back into the domain;
    ``differential`` transports tangent vectors.  Each map is registered
    together with its inverse.
    """

    name: str
    face: Callable[[np.ndarray], float]
    apply: Callable[[np.ndarray], np.ndarray]
    differential: Callable[[np.ndarray], np.ndarray]
    inverse: Optional["DeckMap"] = None

    def face_value(self, x):
        """Face value at a chart point (a float), or the (m,) array of them at a
        stack of points."""
        x = np.asarray(x, dtype=float)
        f = self.face(x)
        return float(f) if x.ndim == 1 else np.asarray(f, dtype=float)

    def apply_point(self, x):
        return np.asarray(self.apply(np.asarray(x, dtype=float)), dtype=float)


def link_inverses(a: DeckMap, b: DeckMap):
    a.inverse = b
    b.inverse = a
    return a, b


@dataclass
class BoundaryPatch:
    """Parametrized piece of the boundary: [0,1)^param_dim -> chart points.

    ``periodic`` flags, per parameter axis, whether u and u+1 map to the
    same boundary point (possibly through a deck identification); None means
    every axis wraps.
    """

    name: str
    param_dim: int
    sample: Callable[[np.ndarray], np.ndarray]  # (m, param_dim) -> (m, n)
    periodic: Optional[tuple] = None

    def points(self, params):
        params = np.atleast_2d(np.asarray(params, dtype=float))
        return np.asarray(self.sample(params), dtype=float)

    def axis_periodic(self):
        return self.periodic if self.periodic is not None else (True,) * self.param_dim


@dataclass
class ManifoldSpec:
    """Computational stand-in for a compact Riemannian manifold with boundary."""

    name: str
    metric: MetricField
    boundary: BoundaryChart
    domain: np.ndarray  # (n, 2) chart box
    deck_maps: list[DeckMap] = field(default_factory=list)
    boundary_patches: list[BoundaryPatch] = field(default_factory=list)
    scale_hint: float = 1.0
    annotations: dict = field(default_factory=dict)
    chart_notes: str = ""
    # built from an inline manifest: the chart carries no facts beyond the
    # manifest, e.g. which curves are minimizing geodesics
    inline: bool = False

    @property
    def dimension(self):
        return self.metric.dimension

    def deck_images(self, x):
        """Point together with its images under up to two deck applications."""
        x = np.asarray(x, dtype=float)
        images = [x]
        frontier = [x]
        for _ in range(2):
            new = []
            for y in frontier:
                for d in self.deck_maps:
                    z = d.apply_point(y)
                    if all(np.linalg.norm(z - w) > 1e-13 for w in images):
                        images.append(z)
                        new.append(z)
            frontier = new
            if not frontier:
                break
        return images


# numbers in one block of difference vectors taken by a QuotientCloud query
_BLOCK_NUMBERS = 1 << 16


def row_dot(a, b):
    """Dot products of the vectors on the last axes of a and b, each bit for bit
    the 1-d ``a @ b`` of its pair: one BLAS dot per vector, as a stacked
    ``matmul`` takes it, whose last bits differ from ``(a * b).sum(-1)``."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _norm(diff):
    """Norms of difference vectors on the last axis, bit for bit the value of a
    1-d ``np.linalg.norm`` call: both take one BLAS dot per vector, whose last
    bits differ from ``np.linalg.norm(diff, axis=-1)``."""
    return np.sqrt(row_dot(diff, diff))


def _axis_norm(diff):
    return np.linalg.norm(diff, axis=-1)


class QuotientCloud:
    """Point cloud in the chart with the deck images of every point, taken once.

    ``images[i, j]`` is the j-th entry of ``spec.deck_images(points[i])``, so
    ``images[i, 0]`` is the point itself; shorter image lists are padded with
    the point. The distance from cloud point i to a chart point y is the
    smallest chart distance from an image of i to y. Queries against q chart
    points are vectorized over blocks of cloud points, one image slot at a
    time, so they take O(m k n + m q) memory.

    ``pairwise`` and ``nearest`` reduce with ``np.linalg.norm(..., axis=-1)``,
    ``nearest_image`` and ``hausdorff`` with 1-d norms (see ``_norm``). The
    two differ in the last bits, and on uniform launch grids some pairs sit
    exactly at the linking radius, so each query keeps one fixed expression.
    """

    def __init__(self, spec: ManifoldSpec, points):
        pts = np.asarray(points, dtype=float)
        self.points = pts.reshape(1, -1) if pts.ndim == 1 else pts
        lists = [spec.deck_images(p) for p in self.points]
        k = max((len(imgs) for imgs in lists), default=1)
        self.images = np.repeat(self.points[:, None, :], k, axis=1)
        for i, imgs in enumerate(lists):
            self.images[i, :len(imgs)] = imgs

    def __len__(self):
        return len(self.points)

    def _distances(self, queries, norm):
        """(m, q) smallest distance from any image of each point to each query."""
        q = np.asarray(queries, dtype=float).reshape(-1, self.points.shape[1])
        D = np.full((len(self), len(q)), np.inf)
        rows = max(1, _BLOCK_NUMBERS // max(q.size, 1))
        for lo in range(0, len(self), rows):
            block = D[lo:lo + rows]
            for j in range(self.images.shape[1]):
                diff = self.images[lo:lo + rows, j, None, :] - q[None, :, :]
                np.minimum(block, norm(diff), out=block)
        return D

    def nearest_image(self, center, index=slice(None)):
        """Image of each selected point that lies nearest to ``center``.

        ``center`` is one chart point or one per selected point; a scalar
        ``index`` gives one image, otherwise an array of them.
        """
        imgs = self.images[index]
        d = _norm(imgs - np.expand_dims(np.asarray(center, dtype=float), -2))
        j = np.argmin(d, axis=-1)
        return np.take_along_axis(imgs, j[..., None, None], axis=-2)[..., 0, :]

    def pairwise(self):
        """Symmetric (m, m) matrix of quotient distances between cloud points."""
        D = self._distances(self.points, _axis_norm)
        return np.minimum(D, D.T)

    def nearest(self, queries):
        """Index of the cloud point nearest to each query point, and its distance."""
        D = self._distances(queries, _axis_norm)
        idx = np.argmin(D, axis=0)
        return idx, D[idx, np.arange(D.shape[1])]

    def hausdorff(self, other):
        """Hausdorff distance between this cloud and the chart points ``other``."""
        D = self._distances(other, _norm)
        return max(float(D.min(axis=1).max()), float(D.min(axis=0).max()))


# ---------------------------------------------------------------------------
# metric algebra helpers

def metric_inner(g_matrix, u, w):
    """g(u, w) at a point, or the (m,) array of them for stacks g (m, n, n) and
    u, w (m, n), each bit-equal to its point's (stacked ``matmul``, not ``einsum``)."""
    return (u[..., None, :] @ g_matrix @ w[..., :, None])[..., 0, 0]


def metric_norm(g_matrix, u):
    """g-norm of u at a point, or the (m,) array of them for stacks."""
    return np.sqrt(np.maximum(metric_inner(g_matrix, u, u), 0.0))


def gram_schmidt(g_matrix, vectors):
    """g-orthonormalize the rows of ``vectors`` (discarding dependent ones)."""
    out = []
    for v in np.atleast_2d(np.asarray(vectors, dtype=float)):
        w = v.copy()
        for e in out:
            w -= metric_inner(g_matrix, w, e) * e
        nw = metric_norm(g_matrix, w)
        if nw > 1e-12:
            out.append(w / nw)
    return np.array(out)


# ---------------------------------------------------------------------------
# core differential-geometry operations

def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _solve(a, b):
    """``np.linalg.solve(a, b)`` for float (n, n) and (n, k) arrays: the same
    LAPACK gufunc under the same floating-point error state, without the
    wrapper's type and shape checks.  A singular ``a`` raises ``LinAlgError``."""
    return _umath_linalg.solve(a, b, signature="dd->d")


# g and d g of a jet or a stack of jets; prebuilt, as the hot path pays for the index
_G, _DG = np.s_[..., 0, :, :], np.s_[..., 1:, :, :]


def christoffel_raw(metric: MetricField, x):
    """Christoffel symbols Gamma[k, i, j] at a chart point (n,), or their
    (m, n, n, n) stack at a stack of points (m, n), without domain validation.

    A singular metric raises ``DegenerateMetricError`` naming the point; in a
    stack, the first singular point.
    """
    jet = metric.jet(x)
    n = metric.dimension
    # g and dg[..., l, i, j] = d_l g_ij; B[..., l, i, j] = d_j g_il and its
    # (i, j) swap d_i g_jl are views
    g, dg = jet[_G], jet[_DG]
    B = dg.swapaxes(-1, -3)
    # A[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, symmetric in (i, j)
    A = B.swapaxes(-1, -2) + B - dg
    try:
        gamma = 0.5 * _solve(g, A.reshape(A.shape[:-3] + (n, n * n))).reshape(A.shape)
    except np.linalg.LinAlgError as exc:
        if jet.ndim == 4:
            for p in np.asarray(x, dtype=float):
                christoffel_raw(metric, p)  # raises for the first singular point
        raise DegenerateMetricError(f"degenerate metric at {np.asarray(x)}") from exc
    return gamma


def curvature_operator_raw(metric: MetricField, x, v, gamma=None):
    """Matrix of w -> R(v, w)v in chart coordinates, sign convention
    R(X, Y) = [nabla_X, nabla_Y] - nabla_[X, Y]; the (m, n, n) stack of them for
    stacks of points and vectors (m, n). ``gamma`` is ``christoffel_raw`` at x,
    where the caller has it already."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if gamma is None:
        gamma = christoffel_raw(metric, x)
    # dgamma[l] = d_l Gamma; christoffel_raw is looked up at each call, so a
    # rebound module global (a call counter) sees every evaluation
    dgamma = _central_difference(lambda y: christoffel_raw(metric, y), x)
    # R^k_{l i j} = d_i Gamma^k_{j l} - d_j Gamma^k_{i l}
    #              + Gamma^k_{i m} Gamma^m_{j l} - Gamma^k_{j m} Gamma^m_{i l}
    # operator entries M[k, j] = R^k_{l i j} v^i v^l; a stack adds its batch
    # axes to every operand (no einsum optimize, which reorders the sums)
    termA = np.einsum("...i,...ikjl,...l->...kj", v, dgamma, v)
    termB = np.einsum("...jkil,...i,...l->...kj", dgamma, v, v)
    P = np.einsum("...kim,...i->...km", gamma, v)
    Q = np.einsum("...mjl,...l->...mj", gamma, v)
    r = np.einsum("...mil,...i,...l->...m", gamma, v, v)
    termD = np.einsum("...kjm,...m->...kj", gamma, r)
    return termA - termB + P @ Q - termD


def gradient_vector(spec: ManifoldSpec, x):
    """Metric gradient of the boundary defining function."""
    g = spec.metric.matrix(x)
    db = spec.boundary.gradient(x)
    return np.linalg.solve(g, db)


def inward_unit_normal(spec: ManifoldSpec, p):
    """Unit inward-pointing normal at a boundary point."""
    p = np.asarray(p, dtype=float)
    g = spec.metric.matrix(p)
    grad = gradient_vector(spec, p)
    nrm = metric_norm(g, grad)
    if nrm <= 1e-12:
        raise ValueError(f"boundary gradient vanishes at {p} (not a regular value)")
    return grad / nrm


def second_fundamental_form(spec: ManifoldSpec, p):
    """Second fundamental form of the boundary w.r.t. the inward normal.

    Returns an (n, n) symmetric matrix S meant to be contracted with vectors
    tangent to the boundary: S(u, w) = u^T S w.  Sign convention: the boundary
    circle of a flat disk of radius L has S(u, u) = +1/L for unit tangent u.
    """
    p = np.asarray(p, dtype=float)
    if not spec.boundary.on_boundary(p):
        raise NotBoundaryPointError(f"not a boundary point: {p} (b={spec.boundary.value(p)})")
    g = spec.metric.matrix(p)
    db = spec.boundary.gradient(p)
    hess = spec.boundary.hessian(p)
    gamma = christoffel_raw(spec.metric, p)
    # covariant Hessian of b, then normalized by |grad b|_g
    cov_hess = hess - np.einsum("kij,k->ij", gamma, db)
    grad = np.linalg.solve(g, db)
    nrm = metric_norm(g, grad)
    return -cov_hess / nrm


def boundary_tangent_basis(spec: ManifoldSpec, p):
    """g-orthonormal basis of the boundary tangent space at p, rows (n-1, n)."""
    p = np.asarray(p, dtype=float)
    g = spec.metric.matrix(p)
    nu = inward_unit_normal(spec, p)
    n = spec.dimension
    candidates = np.eye(n)
    # drop the chart direction most aligned with the normal, project the rest
    scores = np.abs(g @ nu)
    order = np.argsort(scores)[::-1]
    kept = candidates[order[1:]]
    tang = kept - np.outer(kept @ g @ nu, nu)
    basis = gram_schmidt(g, tang)
    if basis.shape[0] != n - 1:
        raise ValueError(f"failed to build boundary tangent basis at {p}")
    return basis

