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


class ChartError(ValueError):
    """Raised where a chart fails at a point a run reaches: its metric is not
    positive definite, b = 0 is no regular level set, or a launch is off b = 0."""


class DegenerateMetricError(ChartError):
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
        Chart dimension n >= 2.
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

    eps = BOUNDARY_EPS       # |b| <= eps is on the boundary

    def __init__(self, value_fn, gradient_fn, hessian_fn=None):
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self._hessian_fn = hessian_fn

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
        """Whether |b| <= eps at a chart point, or the (m,) array of it at a stack."""
        return np.abs(self.value(x)) <= self.eps


@dataclass
class DeckMap:
    """Affine isometric identification of a face of the fundamental domain.

    The glued face is x[axis] = period (``upper``) or x[axis] = 0. The map
    applies the constant (k, k) block ``linear``, if any, to the leading k
    coordinates of a point, then shifts x[axis] by -period (``upper``) or
    +period, which takes a point that crossed the face back into the domain.
    Maps come in pairs (``deck_pair``), each undoing the other.
    """

    name: str
    axis: int
    period: float
    upper: bool
    linear: Optional[np.ndarray] = None

    def face_value(self, x):
        """Signed offset along ``axis`` from the glued face, positive strictly
        inside the domain: a float at a chart point, the (m,) array of them at
        a stack of points."""
        x = np.asarray(x, dtype=float)
        f = self.period - x[..., self.axis] if self.upper else x[..., self.axis]
        return float(f) if x.ndim == 1 else np.asarray(f, dtype=float)

    def apply_point(self, x):
        """Image of a chart point (n,), or of each row of a stack (m, n), bit
        for bit its point's: the linear block multiplies the leading
        coordinates as column vectors (``x @ linear.T`` is not bit-equal), and
        only x[axis] is shifted."""
        y = np.array(x, dtype=float)
        if self.linear is not None:
            k = len(self.linear)
            y[..., :k] = np.matmul(self.linear, y[..., :k, None])[..., 0]
        if self.upper:
            y[..., self.axis] -= self.period
        else:
            y[..., self.axis] += self.period
        return y

    def differential(self, x):
        """The (n, n) differential at a chart point (n,): the identity with
        ``linear`` as its leading block."""
        d = np.eye(np.shape(x)[-1])
        if self.linear is not None:
            k = len(self.linear)
            d[:k, :k] = self.linear
        return d


def deck_pair(name, axis, period, upper_linear=None, lower_linear=None):
    """The deck maps ``name+`` and ``name-`` gluing the face x[axis] = period to
    x[axis] = 0: a translation by the period along ``axis``, composed with
    ``upper_linear`` and ``lower_linear`` on the leading coordinates, two
    blocks inverse to each other, or none."""
    period = float(period)
    return [DeckMap(f"{name}+", axis, period, True, upper_linear),
            DeckMap(f"{name}-", axis, period, False, lower_linear)]


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
        """A chart point (n,) and its images under up to two deck applications,
        (k, n), in the order first reached and each more than 1e-13 from those
        before it; at a stack (m, n), every row's as an (m, k, n) array, k the
        most any row has and shorter rows padded with their point.  Slot s of
        ``images`` holds row i's image where ``found[s][i]``, else its point."""
        x = np.asarray(x, dtype=float)
        images, found = [x], [np.ones(x.shape[:-1], dtype=bool)]
        level = range(1)  # the slots found by the last application
        for _ in range(2):
            start = len(images)
            for s in level:
                for d in self.deck_maps:
                    z = d.apply_point(images[s])
                    far = _norm(z[..., None, :] - np.stack(images, axis=-2)) > 1e-13
                    fresh = found[s] & np.all(far, axis=-1)
                    if fresh.any():
                        images.append(np.where(fresh[..., None], z, x))
                        found.append(fresh)
            level = range(start, len(images))
        # each row's images to the front, in slot order
        found = np.stack(found, axis=-1)
        order = np.argsort(~found, axis=-1, kind="stable")[..., :found.sum(axis=-1).max(initial=1)]
        return np.take_along_axis(np.stack(images, axis=-2), order[..., None], axis=-2)


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


class QuotientCloud:
    """Point cloud in the chart with the deck images of every point, taken once.

    ``images`` is ``spec.deck_images(points)``, one call for the cloud, so
    ``images[i, 0]`` is point i itself. The distance from cloud point i to a
    chart point y is the smallest chart distance from an image of i to y.
    Queries against q chart points are vectorized over blocks of cloud points,
    one image slot at a time, so they take O(m k n + m q) memory.

    ``distances``, ``pairwise`` and ``nearest`` reduce with
    ``np.linalg.norm(..., axis=-1)``, ``nearest_image`` and ``hausdorff`` with
    1-d norms (see ``_norm``). The two differ in the last bits, and on uniform
    launch grids some pairs sit exactly at the linking radius, so each query
    keeps one fixed expression.
    """

    def __init__(self, spec: ManifoldSpec, points):
        pts = np.asarray(points, dtype=float)
        self.points = pts.reshape(1, -1) if pts.ndim == 1 else pts
        self.images = spec.deck_images(self.points)

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

    def distances(self, queries):
        """(m, q) quotient distance from each cloud point to each query point."""
        return self._distances(queries, lambda diff: np.linalg.norm(diff, axis=-1))

    def pairwise(self):
        """Symmetric (m, m) matrix of quotient distances between cloud points."""
        D = self.distances(self.points)
        return np.minimum(D, D.T)

    def nearest(self, queries):
        """Index of the cloud point nearest to each query point, and its distance."""
        D = self.distances(queries)
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
    """g-orthonormalize the rows of ``vectors`` (k, n) at a point, discarding
    dependent ones; or, for stacks g (m, n, n) and vectors (m, k, n), the rows
    of each set at once, each set's (k, n) rows bit-equal to its point's, with
    a dependent row left as zeros."""
    vectors = np.asarray(vectors, dtype=float)
    vectors = vectors.reshape((1,) * (3 - vectors.ndim) + vectors.shape)
    out = []
    for k in range(vectors.shape[-2]):
        w = vectors[..., k, :].copy()
        for e in out:
            w -= metric_inner(g_matrix, w, e)[..., None] * e
        nw = metric_norm(g_matrix, w)[..., None]
        kept = nw > 1e-12
        out.append(np.divide(w, nw, out=np.zeros_like(w), where=kept))
    basis = np.stack(out, axis=-2)
    if np.ndim(g_matrix) == 2:
        basis = basis[0]
        return basis[np.any(basis != 0, axis=-1)]
    return basis


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


def inward_unit_normal(spec: ManifoldSpec, p):
    """Unit inward-pointing normal at a boundary point (n,), or the (m, n)
    stack of them at a stack of points: the metric gradient of b over its
    g-norm, with one metric evaluation. Where g(grad, grad) < 0 (the metric is
    not positive definite) or the gradient vanishes, it raises ``ChartError``
    naming the point; in a stack, the first such point."""
    p = np.asarray(p, dtype=float)
    return _unit_normal(spec, p, spec.metric.matrix(p))


def _unit_normal(spec: ManifoldSpec, p, g):
    """``inward_unit_normal`` at p, where the metric is g."""
    points = p.reshape(-1, p.shape[-1])
    grad = np.linalg.solve(g, spec.boundary.gradient(p)[..., None])[..., 0]
    sq = metric_inner(g, grad, grad)
    if np.any(sq < 0):
        raise ChartError(f"metric of {spec.name!r} is not positive definite at "
                         f"{points[np.argmax(sq < 0)]}")
    nrm = np.sqrt(sq)
    check_regular_boundary(spec, p, nrm)
    return grad / nrm[..., None]


def check_regular_boundary(spec: ManifoldSpec, p, norms):
    """Raise ``ChartError`` naming the first point of p, (n,) or (m, n), where
    the norm of grad b, ``norms``, is at most 1e-12: b = 0 is not regular there."""
    vanishes = norms <= 1e-12
    if np.any(vanishes):
        raise ChartError(f"boundary gradient vanishes at "
                         f"{p.reshape(-1, p.shape[-1])[np.argmax(vanishes)]} "
                         f"(not a regular value of b on {spec.name!r})")


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
    """g-orthonormal basis of the boundary tangent space at p, rows (n-1, n);
    or the (m, n-1, n) stack of them at a stack of points (m, n), each bit-equal
    to its point's, with one metric evaluation."""
    p = np.asarray(p, dtype=float)
    g = spec.metric.matrix(p)
    nu = _unit_normal(spec, p, g)
    n = spec.dimension
    # drop the chart direction most aligned with the normal, project the rest
    scores = np.abs((g @ nu[..., None])[..., 0])
    kept = np.eye(n)[np.argsort(scores, axis=-1)[..., ::-1][..., 1:]]
    along = (kept @ g @ nu[..., None])[..., 0]
    basis = gram_schmidt(g, kept - along[..., :, None] * nu[..., None, :])
    dependent = ~np.all(np.any(basis != 0, axis=-1), axis=-1) | (basis.shape[-2] != n - 1)
    if np.any(dependent):
        raise ValueError(f"failed to build boundary tangent basis at "
                         f"{p.reshape(-1, n)[np.argmax(dependent)]}")
    return basis

