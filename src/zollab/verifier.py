"""Certification of the boundary-return property and its structure checks.

``certify`` makes one launch sweep and, in ordered stages over it, reads off a
verdict (certified, refuted or inconclusive) and, on request, the global
structure: boundary component count, index agreement between the two Morse
index computations, soul geometry, fiber structure of the midpoint projection,
metric splitting along the geodesic flow, and the symmetry of equidistant
slices.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .engine import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    GRAZING_TOL,
    LaunchSet,
    SweepResult,
    first_return_map,
    launch_count,
    launch_params,
    nearest_exact_launch_counts,
    sample_boundary,
)
from .geometry import (
    ManifoldSpec,
    QuotientCloud,
    _norm,
    boundary_tangent_basis,
    metric_inner,
    metric_norm,
)
from .jacobi import (
    NEG_EIG_TOL,
    IndexFormMatrix,
    arrival_degeneracy_form,
    assemble_index_form,
    focal_instants,
    integrate_jacobi_frames,
    morse_index_focal,
    morse_indices_quadratic,
)
from .scalar import minimize_bounded

ALL_ANALYSES = ("certify", "jacobi", "soul", "fibers", "splitting", "slices")
MIN_LAUNCHES = 32
SOUL_NEIGHBORS = 12          # neighbours of each soul point in its local PCA
SLICE_HAUSDORFF_REL = 1e-6   # slice checks, relative to the half-length L
SLICE_DISTANCE_REL = 1e-5
_BLOCK_SEGMENTS = 1 << 14    # chart segments per metric call in intercomponent_distance


class LaunchCountError(ValueError):
    """Raised for a launch count below the certification minimum or one the
    boundary sampling cannot give exactly."""


@dataclass
class Tolerances:
    """Numerical thresholds used by the certification pipeline."""

    length_rel: float = 1e-8          # relative spread of return times
    orthogonality: float = 1e-7       # max tangential arrival component
    rtol: float = DEFAULT_RTOL        # integrator relative tolerance
    atol: float = DEFAULT_ATOL
    refute_factor: float = 10.0       # failures beyond this multiple refute
    grazing: float = GRAZING_TOL
    neg_eig: float = NEG_EIG_TOL
    cluster_radius_rel: float = 1e-4  # midpoint clustering, relative to L
    pca_rel: float = 0.2
    pca_floor_rel: float = 1e-4       # absolute PCA floor, relative to L
    link_factor: float = 3.0          # boundary graph linking, x median NN
    partner_rel: float = 1e-5         # involution partner match, relative to L
    passage_rel: float = 1e-4         # geodesic-passes-through-point threshold

    def to_dict(self):
        return {k: float(v) for k, v in asdict(self).items()}


# ---------------------------------------------------------------------------
# point-cloud clustering modulo deck maps

def _median(values):
    """``np.median`` of a non-empty 1-d sequence, bit for bit, without the
    NaN check through ``numpy.ma`` that loads that module: the middle value
    of the sorted values, or the mean of the two middle ones; NaN if any is."""
    s = np.sort(np.asarray(values, dtype=float))
    mid = len(s) // 2
    if np.isnan(s[-1]):
        return float("nan")
    return float(s[mid]) if len(s) % 2 else float((s[mid - 1] + s[mid]) / 2)


def connected_components(adj):
    """The number of connected components of the undirected graph with the
    symmetric boolean adjacency matrix ``adj`` (m, m), and the component of
    each node, numbered in the order of their smallest nodes, as scipy's
    ``csgraph.connected_components`` numbers them.

    Hook and compress over the edges: each round points every root at the
    smallest root it shares an edge with, and pointer jumping then sends
    every node to its root, until no edge joins two roots. A root points
    only at smaller ones, so each component ends at its smallest node.
    """
    i, j = np.nonzero(np.triu(adj, 1))
    root = np.arange(len(adj))
    while True:
        ri, rj = root[i], root[j]
        joined = ri != rj
        if not joined.any():
            break
        np.minimum.at(root, np.maximum(ri, rj)[joined], np.minimum(ri, rj)[joined])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    # the roots renumbered 0, 1, ... in their order
    is_root = np.zeros(len(adj), dtype=bool)
    is_root[root] = True
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[root]


def _cluster_points(spec, pts, radius):
    """Connected components of a point cloud at the given linking radius."""
    return connected_components(QuotientCloud(spec, pts).pairwise() <= radius)[1]


def midpoint_clusters(spec: ManifoldSpec, sweep: SweepResult, tol: Tolerances):
    """Midpoints of the returned geodesics and their cluster labels, clustered
    modulo deck maps at ``cluster_radius_rel * L``; the soul and the fibers
    both read them."""
    mids = sweep.midpoints
    return mids, _cluster_points(spec, mids, tol.cluster_radius_rel * sweep.half_length)


# ---------------------------------------------------------------------------
# boundary components

@dataclass
class BoundaryComponents:
    labels: np.ndarray
    count: int
    sizes: list[int]
    pairing_ok: bool
    pairing: dict
    diagnostics: list[str] = field(default_factory=list)


def boundary_components(spec: ManifoldSpec, launch_set: LaunchSet,
                        arrivals=None, link_factor=Tolerances.link_factor):
    """Partition boundary samples into connected components, and pair each
    component with those that ``arrivals``, {launch index: arrival point} of
    the launches that returned, reach.

    Samples are linked when within chart distance h_link (a multiple of the
    median nearest-neighbor spacing); in addition, samples from the same
    boundary patch are linked a priori, since a patch is a connected
    parametrized piece by construction (point linking alone fragments
    anisotropic launch grids).

    A component of several patches that only h_link joins gets a diagnostic:
    one whose patches stay apart when linked only by pairs of samples within
    twice the largest nearest-neighbour spacing inside a patch.
    """
    cloud = QuotientCloud(spec, launch_set.points)
    D = cloud.pairwise()
    np.fill_diagonal(D, np.inf)  # a sample is no neighbour of itself
    h_link = link_factor * _median(D.min(axis=1))
    adj = (D <= h_link)
    same_patch = launch_set.patch_ids[:, None] == launch_set.patch_ids[None, :]
    count, labels = connected_components(adj | same_patch)
    sizes = [int(np.sum(labels == c)) for c in range(count)]

    diagnostics = []
    if count > 2:
        diagnostics.append("contradiction with the two-component bound "
                           f"({count} classes found)")
    for c in range(count):
        members = np.flatnonzero(labels == c)
        patches = np.flatnonzero(np.bincount(launch_set.patch_ids[members]))
        if len(patches) < 2:
            continue
        own, d = same_patch[np.ix_(members, members)], D[np.ix_(members, members)]
        spacing = float(np.where(own, d, np.inf).min(axis=1).max())
        parts, part = connected_components(own | (d <= 2 * spacing))
        if parts > 1:
            names = ", ".join(repr(spec.boundary_patches[p].name) for p in patches)
            gap = float(d[part[:, None] != part[None, :]].min())
            diagnostics.append(f"boundary component {c} joins patches {names} across a gap "
                               f"of {gap:.4g}, more than twice the {spacing:.4g} sample "
                               "spacing inside a patch")

    pairing = {}
    pairing_ok = True
    if arrivals is not None:
        # each arrival goes to the component of the launch sample nearest to it
        sources = labels[np.fromiter(arrivals, dtype=int, count=len(arrivals))]
        nearest, _ = cloud.nearest(np.array(list(arrivals.values())))
        targets = labels[nearest]
        for c in range(count):
            pairing[c] = np.flatnonzero(np.bincount(targets[sources == c])).tolist()
            pairing_ok = pairing_ok and len(pairing[c]) <= 1
    return BoundaryComponents(labels, int(count), sizes, pairing_ok,
                              pairing, diagnostics)


def intercomponent_distance(spec: ManifoldSpec, launch_set: LaunchSet, labels):
    """Shortest g-length of straight chart segments joining the two components.

    On the built-in two-component examples the minimizing free boundary
    geodesics are straight chart segments, so the minimum over sampled pairs
    measures the distance between the components independently of shooting.
    Each segment runs from a sample of component 0 to a deck image of one of
    component 1 and counts when its chart midpoint lies in the domain. Its
    32-node Gauss-Legendre length is summed node by node, each node one
    metric call over a block of segments.
    """
    pts = launch_set.points
    n = spec.dimension
    far = QuotientCloud(spec, pts[labels == 1]).images.reshape(-1, n)
    lo = spec.domain[:, 0] - 1e-9
    hi = spec.domain[:, 1] + 1e-9
    nodes, weights = np.polynomial.legendre.leggauss(32)
    best = np.inf
    near_side = pts[labels == 0]
    rows = max(1, _BLOCK_SEGMENTS // max(len(far), 1))
    for start in range(0, len(near_side), rows):
        near = near_side[start:start + rows]
        seg = far[None, :, :] - near[:, None, :]
        a = np.broadcast_to(near[:, None, :], seg.shape)
        mid = a + 0.5 * seg
        inside = np.all((mid >= lo) & (mid <= hi), axis=-1)
        a, seg = a[inside], seg[inside]
        if not len(seg):
            continue
        length = np.zeros(len(seg))
        for z, w in zip(nodes, weights):
            g = spec.metric.matrix(a + 0.5 * (z + 1.0) * seg)
            length += 0.5 * w * metric_norm(g, seg)
        best = min(best, float(length.min()))
    return float(best)


# ---------------------------------------------------------------------------
# soul reconstruction

@dataclass
class SoulCloud:
    points: np.ndarray            # cluster representatives
    midpoints: np.ndarray         # raw per-launch midpoints
    singular_values: list         # per-point local PCA spectra
    local_dims: list[int]
    dimension_estimate: int
    diameter: float
    distance_residual: float      # worst | dist-to-boundary - L | over spot checks


def _neighbourhoods(cloud, k):
    """Each point of a cloud with its k nearest others by quotient distance, as
    the (m, k + 1, n) images of them nearest to the point, and the pairwise
    distances (m, m)."""
    D = cloud.pairwise()
    m = len(cloud)
    own = np.arange(m)[:, None]
    order = np.argsort(D, axis=1)
    others = order[order != own].reshape(m, m - 1)[:, :k]
    return cloud.nearest_image(cloud.points[:, None], np.concatenate([own, others], axis=1)), D


def _local_pca(coords, rel, floor):
    """Singular values of each centred neighbourhood of a stack (m, k + 1, d),
    and its local dimension: the count of them above rel times the largest,
    0 where the largest is below floor."""
    s = np.linalg.svd(coords - coords.mean(axis=-2, keepdims=True), compute_uv=False)
    return np.where(s[:, 0] < floor, 0, np.sum(s > rel * s[:, :1], axis=1)), s


def build_soul(spec: ManifoldSpec, sweep: SweepResult, tol: Tolerances, n_distance_checks=8,
               clusters=None):
    """Midpoint cloud with a local-PCA dimension estimate; ``clusters`` defaults
    to ``midpoint_clusters`` of the sweep."""
    if not sweep.paths:
        raise ValueError("undersampled soul")
    L = sweep.half_length
    mids, labels = clusters or midpoint_clusters(spec, sweep, tol)
    reps = np.array([mids[labels == c].mean(axis=0) for c in range(labels.max() + 1)])

    if len(reps) == 1:
        local_dims, spectra = [0], []
        d_hat = 0
        diameter = float(np.max(_norm(mids - reps[0]))) if len(mids) else 0.0
    else:
        if len(reps) < SOUL_NEIGHBORS + 1:
            raise ValueError(f"undersampled soul: {len(reps)} distinct midpoints "
                             f"< k+1 = {SOUL_NEIGHBORS + 1}")
        images, D = _neighbourhoods(QuotientCloud(spec, reps), SOUL_NEIGHBORS)
        dims, s = _local_pca(images, tol.pca_rel, tol.pca_floor_rel * L)
        local_dims, spectra = dims.tolist(), list(s)
        d_hat = int(round(_median(local_dims)))
        diameter = float(D.max())

    m = len(sweep.paths)
    spot = np.linspace(0, m - 1, min(n_distance_checks, m)).astype(int)
    estimates = nearest_boundary_distance(spec, sweep, mids[spot], tol)
    residual = max([0.0] + [abs(d - L) for d in estimates if d is not None])
    return SoulCloud(reps, mids, spectra, local_dims, d_hat, diameter, residual)


def nearest_boundary_distance(spec: ManifoldSpec, sweep: SweepResult, points,
                              tol: Tolerances):
    """Distance to the boundary from each chart point of ``points`` (q, n),
    estimated along the swept geodesics: a list of q floats, None where no
    swept geodesic passes through the point.

    Every point of a certified manifold lies on boundary-orthogonal geodesics
    and the minimizers to the boundary are among them, so the estimate is the
    smallest arc-length parameter at which a swept geodesic passes through it.
    Each (query, path) pair whose nearest sample passes the coarse filter is
    refined by a bounded minimization of the chart distance from the path to
    the query image nearest that sample; all such pairs are minimized together.
    """
    paths = sweep.paths
    if not paths:
        return [None] * len(points)
    n = spec.dimension
    L = sweep.half_length
    pass_tol = tol.passage_rel * L
    cloud = QuotientCloud(spec, points)
    lengths = [len(path.times) for path in paths]
    starts = np.cumsum([0] + lengths[:-1])
    times = np.concatenate([path.times for path in paths])
    samples = np.concatenate([path.points for path in paths])
    dists = cloud.distances(samples)
    # each path's nearest sample to each query (the first, as np.argmin takes it)
    coarse = np.minimum.reduceat(dists, starts, axis=1)
    at_min = np.where(dists == np.repeat(coarse, lengths, axis=1), np.arange(len(times)),
                      len(times))
    nearest = np.minimum.reduceat(at_min, starts, axis=1)
    query, path = np.nonzero(~((coarse > 20.0 * pass_tol) & (coarse > 0.05 * L)))
    j = nearest[query, path]
    image = cloud.nearest_image(samples[j], query)
    # max(0, .) and min(return time, .) as Python's max and min take them
    return_time = sweep.return_times[path]
    lo, hi = times[j] - 0.1 * L, times[j] + 0.1 * L
    lo, hi = np.where(lo > 0.0, lo, 0.0), np.where(hi < return_time, hi, return_time)

    def distance(t, rows):
        return _norm(sweep.states_at(t, path[rows])[:, :n] - image[rows])

    t_star, d_star = minimize_bounded(distance, lo, hi, xatol=1e-12 * L)
    passes = d_star < pass_tol
    rest = return_time - t_star
    estimate = np.where(rest < t_star, rest, t_star)
    best = np.full(len(cloud), np.inf)
    np.minimum.at(best, query[passes], estimate[passes])
    return [float(b) if np.isfinite(b) else None for b in best]


def soul_dimension_check(cloud: SoulCloud, dimension, index):
    """Soul dimension must equal (manifold dimension - 1 - index)."""
    expected = dimension - 1 - index
    passed = cloud.dimension_estimate == expected
    return {
        "passed": bool(passed),
        "estimated": int(cloud.dimension_estimate),
        "expected": int(expected),
        "dimension": int(dimension),
        "index": int(index),
    }


# ---------------------------------------------------------------------------
# fiber structure of the midpoint projection

def fiber_analysis(spec: ManifoldSpec, sweep: SweepResult, index,
                   tol: Tolerances, components: Optional[BoundaryComponents] = None,
                   clusters=None):
    """Cluster the returned launches by midpoint and test the structure of the
    fibers; ``clusters`` defaults to ``midpoint_clusters`` of the sweep.
    Returns the report's ``fibers`` entry and the diagnostics."""
    paths = sweep.paths
    if not paths:
        raise ValueError("no fibers: no launch returned")
    L = sweep.half_length
    _, labels = clusters or midpoint_clusters(spec, sweep, tol)
    n_clusters = labels.max() + 1
    sizes = [int(np.sum(labels == c)) for c in range(n_clusters)]
    counts = {"cluster_count": int(n_clusters), "cluster_sizes_minmax": [min(sizes), max(sizes)]}
    diagnostics = []

    if index == 0:
        bad = [s for s in sizes if s != 2]
        if bad:
            diagnostics.append(f"cluster sizes {sorted(set(bad))} differ from 2 with index 0")
        # each member of a two-point cluster returns to the launch of the other
        pairs = [m for m in (np.flatnonzero(labels == c) for c in range(n_clusters))
                 if len(m) == 2]
        src = np.array([i for pair in pairs for i in pair], dtype=int)
        dst = np.array([j for pair in pairs for j in pair[::-1]], dtype=int)
        launches = np.array([p.launch_point for p in paths])[dst]
        images = QuotientCloud(spec, [p.arrival_point for p in paths]).nearest_image(launches, src)
        partner_residual = float(np.max(_norm(images - launches), initial=0.0))
        nontrivial, used_walk = _covering_nontrivial(sweep, labels, components)
        return {"kind": "two-fold-cover", **counts, "partner_residual": partner_residual,
                "nontrivial_cover": nontrivial, "loop_transport_used": used_walk,
                "fiber_dimension": None}, diagnostics

    # index > 0: per-cluster dimension from tangent-projected local PCA
    dims = []
    floor = tol.pca_floor_rel * L
    launches = np.array([path.launch_point for path in paths])
    # the boundary tangent coframe (basis times g) at every launch, in one call
    to_tangent = boundary_tangent_basis(spec, launches) @ spec.metric.matrix(launches)
    for c in range(n_clusters):
        members = np.flatnonzero(labels == c)
        if len(members) < index + 2:
            diagnostics.append(f"cluster {c} too small ({len(members)}) to estimate dimension")
            continue
        pts = launches[members]
        kf = min(max(index + 2, len(members) // 8), 12, len(members) - 1)
        images, _ = _neighbourhoods(QuotientCloud(spec, pts), kf)
        coords = np.matmul(to_tangent[members][:, None],
                           (images - pts[:, None])[..., None])[..., 0]
        dims.append(int(round(_median(_local_pca(coords, tol.pca_rel, floor)[0]))))
    fiber_dim = int(round(_median(dims))) if dims else None
    return {"kind": "sphere-bundle", **counts, "partner_residual": None,
            "nontrivial_cover": None, "loop_transport_used": False,
            "fiber_dimension": fiber_dim}, diagnostics


def _covering_nontrivial(sweep, labels, components):
    """Walk boundary loops and watch when the midpoint cluster first recurs.

    Revisiting the starting cluster strictly before the loop closes witnesses
    a sheet exchange (nontrivial two-fold cover); falls back to the component
    count criterion when the boundary is not one-parameter walkable.
    """
    index = [p.index for p in sweep.paths]
    patch_ids = sweep.launch_set.patch_ids[index]
    params = [sweep.launch_set.params[i] for i in index]
    if not all(len(p) == 1 for p in params):
        if components is None:
            return None, False
        return components.count == 1, False

    # the component of each returned launch; one component where none are given
    comp_labels = (components.labels[index] if components is not None
                   else np.zeros(len(index), dtype=int))
    for comp in sorted(set(comp_labels.tolist())):
        member_idx = [i for i, c in enumerate(comp_labels) if c == comp]
        if len(member_idx) < 3:
            continue
        member_idx.sort(key=lambda i: (patch_ids[i], float(params[i][0])))
        seq = [labels[i] for i in member_idx]
        if any(seq[step] == seq[0] for step in range(1, len(seq))):
            return True, True
    return False, True


# ---------------------------------------------------------------------------
# metric splitting along the geodesic flow

def _structured_sweep(spec: ManifoldSpec, pid, n_side, tol: Tolerances, check):
    """The sweep of a uniform grid of n_side ** d launches on boundary patch
    ``pid`` (of dimension d), its paths in the C order of the grid; the
    ``check`` that needs every launch back fails where one does not return."""
    patch = spec.boundary_patches[pid]
    params = launch_params(patch.param_dim, n_side ** patch.param_dim)
    pts = patch.points(params)
    ls = LaunchSet(pts, np.full(len(pts), pid), [u.copy() for u in params], "uniform")
    sweep = first_return_map(spec, ls, rtol=tol.rtol, atol=tol.atol, grazing_tol=tol.grazing)
    if len(sweep.paths) != len(pts):
        raise RuntimeError(f"{check} sweep failed on {spec.name!r}")
    return sweep


def splitting_residual(spec: ManifoldSpec, n_side=16, t_fracs=None,
                       tol: Optional[Tolerances] = None):
    """Orthogonality residuals of the geodesic foliation chart.

    Along each swept geodesic, the flow direction must stay g-unit and
    g-orthogonal to the finite-difference variation across neighboring
    launches; residuals are taken over a parameter grid bounded away from
    the midpoint by 5 percent of the half-length. Returns the report's
    ``splitting`` entry.
    """
    tol = tol or Tolerances()
    if t_fracs is None:
        t_fracs = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]
    n = spec.dimension
    unit_res = 0.0
    cross_res = 0.0
    n_launch = 0
    for pid, patch in enumerate(spec.boundary_patches):
        shape = (n_side,) * patch.param_dim
        sweep = _structured_sweep(spec, pid, n_side, tol, "splitting")
        n_launch += len(sweep.paths)
        L = sweep.half_length
        periodic = patch.axis_periodic()
        # paths come in the C order of the launch grid
        idx = np.indices(shape).reshape(len(shape), -1)
        for t_frac in t_fracs:
            t = t_frac * L
            states = sweep.states_at(t)
            slice_t = QuotientCloud(spec, states[:, :n])
            x = slice_t.points
            v = states[:, n:]
            g = spec.metric.matrix(x)
            unit_res = max(unit_res, float(np.max(np.abs(metric_inner(g, v, v) - 1.0))))
            for axis in range(len(shape)):
                ip = idx.copy()
                im = idx.copy()
                ip[axis] += 1
                im[axis] -= 1
                if periodic[axis]:
                    ip[axis] %= shape[axis]
                    im[axis] %= shape[axis]
                    has = np.ones(len(x), dtype=bool)
                else:
                    has = (ip[axis] < shape[axis]) & (im[axis] >= 0)
                yp = slice_t.nearest_image(x[has], np.ravel_multi_index(ip[:, has], shape))
                ym = slice_t.nearest_image(x[has], np.ravel_multi_index(im[:, has], shape))
                dvec = 0.5 * (yp - ym)
                norm = metric_norm(g[has], dvec)
                ok = norm >= 1e-14
                if ok.any():
                    cross = np.abs(metric_inner(g[has][ok], v[has][ok], dvec[ok])) / norm[ok]
                    cross_res = max(cross_res, float(cross.max()))
    return {"max_unit_residual": unit_res, "max_cross_residual": cross_res,
            "n_launches": n_launch}


# ---------------------------------------------------------------------------
# slice symmetry and distances

def slice_distance_check(spec: ManifoldSpec, sweep: SweepResult, t,
                         tol: Optional[Tolerances] = None):
    """Verify the forward and mirrored slices coincide and sit at distance t.
    Returns the report's ``slices`` entry for t without its ``t_over_L``."""
    tol = tol or Tolerances()
    L = sweep.half_length
    if not (0.0 < t <= L + 1e-12):
        raise ValueError("slice parameter must lie in (0, L]")
    n = spec.dimension
    A = sweep.states_at(t)[:, :n]
    B = sweep.states_at(sweep.return_times - t)[:, :n]
    hausdorff = QuotientCloud(spec, A).hausdorff(B)

    spot = np.linspace(0, len(A) - 1, min(6, len(A))).astype(int)
    estimates = nearest_boundary_distance(spec, sweep, A[spot], tol)
    worst = max([0.0] + [abs(d - t) for d in estimates if d is not None])
    passed = hausdorff <= SLICE_HAUSDORFF_REL * L and worst <= SLICE_DISTANCE_REL * L
    return {"hausdorff": float(hausdorff), "max_distance_residual": float(worst),
            "passed": bool(passed)}


# ---------------------------------------------------------------------------
# certification report

@dataclass
class ZollReport:
    """What one ``certify`` run found; ``to_dict`` gives ``report.json``. Each
    field after ``name`` defaults to what a stage that does not run leaves."""

    name: str
    verdict: str = ""
    reason: str = ""
    n_launches: int = 0
    seed: int = 0
    strategy: str = ""
    half_length: Optional[float] = None
    length_mean: Optional[float] = None
    length_spread_rel: Optional[float] = None
    orthogonality_max: Optional[float] = None
    grazing_count: int = 0
    component_count: Optional[int] = None
    component_sizes: Optional[list] = None
    component_pairing_ok: Optional[bool] = None
    intercomponent_distance: Optional[float] = None
    index_focal: Optional[int] = None
    index_quadratic: Optional[int] = None
    index_agreement: Optional[bool] = None
    nullity_estimate: Optional[int] = None
    endpoint_focal_warnings: int = 0
    arrival_form_norm: Optional[float] = None
    focal_midpoint_residual: Optional[float] = None
    focal_multiplicities: Optional[list] = None
    soul: Optional[dict] = None
    fibers: Optional[dict] = None
    splitting: Optional[dict] = None
    slices: Optional[list] = None
    ground_truth: Optional[dict] = None
    diagnostics: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    # intermediates kept for the artifacts, not part of report.json: the
    # index form of the first returned geodesic, whose spectrum solves on a
    # worker thread from its assembly on, the soul cloud and the launch sweep
    index_form: Optional[IndexFormMatrix] = field(default=None, repr=False, compare=False,
                                                  metadata={"artifact": True})
    soul_cloud: Optional[SoulCloud] = field(default=None, repr=False, compare=False,
                                            metadata={"artifact": True})
    sweep: Optional[SweepResult] = field(default=None, repr=False, compare=False,
                                         metadata={"artifact": True})

    def to_dict(self):
        """report.json content: every field in declaration order but the artifacts."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if not f.metadata.get("artifact")}


def certify(spec: ManifoldSpec, n_launches=64, tolerances: Optional[Tolerances] = None,
            seed=0, strategy="uniform", analyses=("certify",), mesh_size=256,
            n_index_spots=6) -> ZollReport:
    """Sweep the boundary-orthogonal geodesics once and read every check off it.

    Stages run in order, each filling its own fields of the report; the
    fibers, splitting and slices entries are what their functions return.
    ``n_launches`` must be at least ``MIN_LAUNCHES`` and a count that
    ``sample_boundary`` gives exactly with ``strategy``; otherwise
    ``LaunchCountError`` names the nearest counts it gives.
    """
    if n_launches < MIN_LAUNCHES:
        raise LaunchCountError(
            f"N below certification minimum (need at least {MIN_LAUNCHES} launches)")
    got = launch_count(spec, n_launches, strategy)
    if got != n_launches:
        near = [c for c in nearest_exact_launch_counts(spec, n_launches, strategy)
                if c is not None and c >= MIN_LAUNCHES]
        raise LaunchCountError(
            f"{strategy} sampling of {spec.name} gives {got} launches when asked for "
            f"{n_launches}; nearest counts it gives exactly: "
            + (", ".join(map(str, near)) or "none"))
    tol = tolerances or Tolerances()
    analyses = set(ALL_ANALYSES if "all" in analyses else analyses)

    launch_set = sample_boundary(spec, n_launches, strategy=strategy, seed=seed)
    sweep = first_return_map(spec, launch_set, rtol=tol.rtol, atol=tol.atol,
                             grazing_tol=tol.grazing)
    report = ZollReport(spec.name, n_launches=len(launch_set.points), seed=int(seed),
                        strategy=strategy, tolerances=tol.to_dict(), sweep=sweep)
    _verdict(report, tol)
    # without a returned launch the verdict is already refuted
    if sweep.paths:
        components = _components(report, spec, tol)
        if report.verdict != "refuted":
            if "jacobi" in analyses:
                _jacobi(report, tol, mesh_size, n_index_spots)
            fibers = "fibers" in analyses and report.index_focal is not None
            clusters = (midpoint_clusters(spec, sweep, tol)
                        if "soul" in analyses or fibers else None)
            if "soul" in analyses:
                _soul(report, spec, tol, clusters)
            if fibers:
                report.fibers, diagnostics = fiber_analysis(spec, sweep, report.index_focal,
                                                            tol, components, clusters)
                report.diagnostics.extend(diagnostics)
            if "splitting" in analyses:
                # metric splitting along the flow, on its own structured launch grids
                report.splitting = splitting_residual(
                    spec, n_side=16 if spec.dimension <= 2 else 8, tol=tol)
            if "slices" in analyses:
                # slices at t = L/4, L/2, 3L/4 against their mirrors at 2L - t, which
                # coincide as clouds because the launch set covers every component;
                # t_over_L is the fraction itself, which t / L need not round back to
                report.slices = [
                    {"t_over_L": frac,
                     **slice_distance_check(spec, sweep, frac * report.half_length, tol)}
                    for frac in (0.25, 0.5, 0.75)]
    _ground_truth(report, spec)
    return report


def _verdict(report: ZollReport, tol: Tolerances):
    """Refuted for lost launches or grazing; otherwise the return-time spread and
    the arrival angles, against their tolerances, decide."""
    sweep = report.sweep
    stats = sweep.summary()
    report.grazing_count = stats["grazing_count"]
    report.verdict = "certified"
    if sweep.errors:
        report.verdict = "refuted"
        report.reason = f"{len(sweep.errors)} launches without boundary return"
    if not sweep.paths:
        return
    report.length_mean = stats["return_time_mean"]
    report.length_spread_rel = stats["return_time_spread"] / report.length_mean
    report.orthogonality_max = stats["max_normal_deviation"]
    report.half_length = sweep.half_length
    if report.verdict == "refuted":
        return
    ratios = [report.length_spread_rel / tol.length_rel,
              report.orthogonality_max / tol.orthogonality]
    factor = max(1.0, tol.refute_factor)
    if report.grazing_count:
        report.verdict = "refuted"
        report.reason = "tangential approach to the boundary"
    elif max(ratios) > factor:
        report.verdict = "refuted"
        report.reason = ("length spread" if ratios[0] >= ratios[1]
                         else "non-orthogonal arrival") + f" beyond {factor:g}x tolerance"
    elif max(ratios) > 1.0:
        report.verdict = "inconclusive"
        report.reason = f"violations within {factor:g}x tolerance band"


def _components(report: ZollReport, spec: ManifoldSpec, tol: Tolerances):
    """Boundary components, arrival pairing and, for two components, their distance."""
    sweep = report.sweep
    comps = boundary_components(spec, sweep.launch_set,
                                {p.index: p.arrival_point for p in sweep.paths},
                                link_factor=tol.link_factor)
    report.component_count = comps.count
    report.component_sizes = comps.sizes
    report.component_pairing_ok = comps.pairing_ok
    report.diagnostics.extend(comps.diagnostics)
    if report.verdict == "certified" and comps.count > 2:
        report.diagnostics.append("certified verdict with more than two boundary components")
    if comps.count == 2:
        if spec.inline:
            report.diagnostics.append(
                "intercomponent distance not applicable: straight chart segments are "
                "minimizing only on the built-in charts, not on an inline chart")
        else:
            report.intercomponent_distance = intercomponent_distance(spec, sweep.launch_set,
                                                                     comps.labels)
    return comps


def _jacobi(report: ZollReport, tol: Tolerances, mesh_size, n_spots):
    """Morse index two ways: focal instants on up to ``n_spots`` evenly spaced
    returned geodesics, the index form on the first three of them."""
    paths = report.sweep.paths
    spots = np.linspace(0, len(paths) - 1, min(n_spots, len(paths))).astype(int)
    focal_indices = []
    focal_resid = 0.0
    focal_mults = []
    arrival_norm = 0.0
    frames = integrate_jacobi_frames([paths[int(i)] for i in spots],
                                     rtol=tol.rtol, atol=tol.atol)
    # the form the report keeps first: its spectrum solves on a worker thread
    # while the rest of this analysis, and the later ones, run
    mats = [assemble_index_form(frame, mesh_size) for frame in frames[:1]]
    for mat in mats:
        mat._start_spectrum()
    for frame in frames:
        record = focal_instants(frame)
        focal_indices.append(morse_index_focal(record))
        report.endpoint_focal_warnings += len(record.endpoint_instants)
        for inst in record.instants:
            focal_resid = max(focal_resid, abs(inst.time - frame.return_time / 2.0))
            focal_mults.append(inst.multiplicity)
        A = arrival_degeneracy_form(frame)
        arrival_norm = max(arrival_norm, float(np.linalg.norm(A)))
    if len(set(focal_indices)) > 1:
        report.diagnostics.append(
            f"focal index differs across launches: {sorted(set(focal_indices))}")
    report.index_focal = int(focal_indices[0]) if focal_indices else None
    report.focal_midpoint_residual = focal_resid
    report.focal_multiplicities = focal_mults
    report.arrival_form_norm = arrival_norm

    mats += [assemble_index_form(frame, mesh_size) for frame in frames[1:3]]
    counts = morse_indices_quadratic(mats, neg_tol=tol.neg_eig)
    quad_vals = [kq for kq, _ in counts]
    nullities = [nq for _, nq in counts]
    if mats:
        report.index_form = mats[0]
        report.index_quadratic = int(quad_vals[0])
        report.nullity_estimate = int(min(nullities))
        if len(set(quad_vals)) > 1:
            report.diagnostics.append(
                f"quadratic index differs across launches: {sorted(set(quad_vals))}")
    if report.index_focal is not None and report.index_quadratic is not None:
        report.index_agreement = report.index_focal == report.index_quadratic


def _soul(report: ZollReport, spec: ManifoldSpec, tol: Tolerances, clusters):
    """Soul cloud of the midpoints, checked against the focal index if known."""
    try:
        cloud = build_soul(spec, report.sweep, tol, clusters=clusters)
    except ValueError as exc:
        report.soul = {"error": str(exc)}
        report.diagnostics.append(str(exc))
        return
    report.soul_cloud = cloud
    report.soul = {
        "count": int(len(cloud.points)),
        "dimension": int(cloud.dimension_estimate),
        "diameter": float(cloud.diameter),
        "distance_residual": float(cloud.distance_residual),
    }
    if report.index_focal is not None:
        check = soul_dimension_check(cloud, spec.dimension, report.index_focal)
        report.soul["dimension_check"] = check
        if not check["passed"]:
            report.diagnostics.append("soul dimension mismatch: "
                                      f"estimated {check['estimated']}, "
                                      f"expected {check['expected']}")


def annotation_checks(report: ZollReport, annotations):
    """The report's half-length (within 1e-6 max(1, L)), component count and
    focal index against the annotated ones, each where both are known."""
    checks = {}
    L, ann_L = report.half_length, annotations.get("half_length")
    if L is not None and ann_L is not None:
        checks["half_length"] = bool(abs(L - ann_L) <= 1e-6 * max(1.0, ann_L))
    if report.index_focal is not None and annotations.get("index") is not None:
        checks["index"] = report.index_focal == annotations["index"]
    if report.component_count is not None and annotations.get("components") is not None:
        checks["components"] = report.component_count == annotations["components"]
    return checks


def _ground_truth(report: ZollReport, spec: ManifoldSpec):
    """Compare the report with the example's annotations, where it has any."""
    ann = spec.annotations
    if not ann:
        return
    zoll = bool(ann.get("zoll", True))
    checks = {}
    if report.verdict in ("certified", "refuted"):
        checks["verdict"] = (report.verdict == "certified") == zoll
    if zoll:
        checks.update(annotation_checks(report, ann))
        if report.soul and "dimension" in report.soul and ann.get("soul_dim") is not None:
            checks["soul_dim"] = report.soul["dimension"] == ann["soul_dim"]
    report.ground_truth = {"expected_zoll": zoll, "checks": checks,
                           "all_match": all(checks.values()) if checks else True}
