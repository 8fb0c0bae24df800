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
from scipy.optimize import minimize_scalar
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .engine import (
    LaunchSet,
    SweepResult,
    first_return_map,
    launch_count,
    nearest_exact_launch_counts,
    sample_boundary,
)
from .geometry import (
    ManifoldSpec,
    QuotientCloud,
    boundary_tangent_basis,
    metric_inner,
    metric_norm,
)
from .jacobi import (
    arrival_degeneracy_form,
    assemble_index_form,
    focal_instants,
    integrate_jacobi_frame,
    morse_index_focal,
    morse_index_quadratic,
)

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
    rtol: float = 1e-10               # integrator relative tolerance
    atol: float = 1e-12
    refute_factor: float = 10.0       # failures beyond this multiple refute
    grazing: float = 1e-6
    neg_eig: float = 1e-6
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

def _cluster_points(spec, pts, radius):
    """Union-find clustering of a point cloud at the given linking radius."""
    D = QuotientCloud(spec, pts).pairwise()
    _, labels = connected_components(csr_matrix(D <= radius), directed=False)
    return labels


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
    link_distance: float
    pairing_ok: bool
    pairing: dict
    diagnostics: list[str] = field(default_factory=list)


def boundary_components(spec: ManifoldSpec, launch_set: LaunchSet,
                        arrivals=None, link_factor=3.0):
    """Partition boundary samples into connected components.

    Samples are linked when within chart distance h_link (a multiple of the
    median nearest-neighbor spacing); in addition, samples from the same
    boundary patch are linked a priori, since a patch is a connected
    parametrized piece by construction (point linking alone fragments
    anisotropic launch grids).
    """
    cloud = QuotientCloud(spec, launch_set.points)
    D = cloud.pairwise()
    np.fill_diagonal(D, np.inf)  # a sample is no neighbour of itself
    h_link = link_factor * float(np.median(D.min(axis=1)))
    adj = (D <= h_link)
    same_patch = launch_set.patch_ids[:, None] == launch_set.patch_ids[None, :]
    adj = csr_matrix(adj | same_patch)
    count, labels = connected_components(adj, directed=False)
    sizes = [int(np.sum(labels == c)) for c in range(count)]

    diagnostics = []
    if count > 2:
        diagnostics.append("contradiction with the two-component bound "
                           f"({count} classes found)")

    pairing = {}
    pairing_ok = True
    if arrivals is not None:
        # each arrival goes to the component of the launch sample nearest to it;
        # launches without a return (arrival None) are skipped
        live = np.array([q is not None for q in arrivals], dtype=bool)
        targets = np.zeros(len(live), dtype=int)
        nearest, _ = cloud.nearest(np.array([q for q in arrivals if q is not None]))
        targets[live] = labels[nearest]
        for c in range(count):
            pairing[c] = np.unique(targets[live & (labels == c)]).tolist()
            pairing_ok = pairing_ok and len(pairing[c]) <= 1
    return BoundaryComponents(labels, int(count), sizes, h_link, pairing_ok,
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


def _local_pca(coords, rel, floor):
    centered = coords - coords.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if s.size == 0 or s[0] < floor:
        return 0, s
    return int(np.sum(s > rel * s[0])), s


def build_soul(spec: ManifoldSpec, sweep: SweepResult, tol: Tolerances, n_distance_checks=8,
               clusters=None):
    """Midpoint cloud with a local-PCA dimension estimate; ``clusters`` defaults
    to ``midpoint_clusters`` of the sweep."""
    recs = sweep.ok_records
    if not recs:
        raise ValueError("undersampled soul")
    L = sweep.half_length
    mids, labels = clusters or midpoint_clusters(spec, sweep, tol)
    reps = np.array([mids[labels == c].mean(axis=0) for c in range(labels.max() + 1)])

    spectra = []
    if len(reps) == 1:
        local_dims = [0]
        d_hat = 0
        diameter = float(np.max(np.linalg.norm(mids - reps[0], axis=1))) if len(mids) else 0.0
    else:
        if len(reps) < SOUL_NEIGHBORS + 1:
            raise ValueError(f"undersampled soul: {len(reps)} distinct midpoints "
                             f"< k+1 = {SOUL_NEIGHBORS + 1}")
        cloud = QuotientCloud(spec, reps)
        D = cloud.pairwise()
        floor = tol.pca_floor_rel * L
        local_dims = []
        for i, p in enumerate(reps):
            order = np.argsort(D[i])
            neigh = [i] + [int(j) for j in order if j != i][:SOUL_NEIGHBORS]
            coords = cloud.nearest_image(p, neigh)
            dim, s = _local_pca(coords, tol.pca_rel, floor)
            local_dims.append(dim)
            spectra.append(s)
        d_hat = int(round(float(np.median(local_dims))))
        diameter = float(D.max())

    residual = 0.0
    spot = np.linspace(0, len(recs) - 1, min(n_distance_checks, len(recs))).astype(int)
    for i in spot:
        d_est = nearest_boundary_distance(spec, sweep, mids[i], tol)
        if d_est is not None:
            residual = max(residual, abs(d_est - L))
    return SoulCloud(reps, mids, spectra, local_dims, d_hat, diameter, residual)


def nearest_boundary_distance(spec: ManifoldSpec, sweep: SweepResult, x,
                              tol: Tolerances):
    """Distance from x to the boundary, estimated along the swept geodesics.

    Every point of a certified manifold lies on boundary-orthogonal geodesics
    and the minimizers to the boundary are among them, so the estimate is the
    smallest arc-length parameter at which any swept geodesic passes through x.
    """
    recs = sweep.ok_records
    if not recs:
        return None
    L = sweep.half_length
    pass_tol = tol.passage_rel * L
    best = None
    cloud = QuotientCloud(spec, x)
    _, dist = cloud.nearest(np.concatenate([r.path.points for r in recs]))
    ends = np.cumsum([len(r.path.points) for r in recs])
    for r, d in zip(recs, np.split(dist, ends[:-1])):
        path = r.path
        j = int(np.argmin(d))
        coarse = d[j]
        if coarse > 20.0 * pass_tol and coarse > 0.05 * L:
            continue
        t_coarse = path.times[j]
        img_best = cloud.nearest_image(path.points[j], 0)
        lo = max(0.0, t_coarse - 0.1 * L)
        hi = min(r.return_time, t_coarse + 0.1 * L)
        res = minimize_scalar(
            lambda t: float(np.linalg.norm(path.position_at(t) - img_best)),
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-12 * L})
        if res.fun < pass_tol:
            t_star = float(res.x)
            cand = min(t_star, r.return_time - t_star)
            best = cand if best is None else min(best, cand)
    return best


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

@dataclass
class FiberSummary:
    kind: str                     # "two-fold-cover" or "sphere-bundle"
    cluster_sizes: list[int]
    partner_residual: Optional[float]
    nontrivial: Optional[bool]
    loop_transport_used: bool
    fiber_dimension: Optional[int]
    cluster_count: int
    diagnostics: list[str] = field(default_factory=list)


def fiber_analysis(spec: ManifoldSpec, sweep: SweepResult, index,
                   tol: Tolerances, components: Optional[BoundaryComponents] = None,
                   clusters=None):
    """Cluster launches by midpoint and test the structure of the fibers;
    ``clusters`` defaults to ``midpoint_clusters`` of the sweep."""
    recs = sweep.ok_records
    L = sweep.half_length
    _, labels = clusters or midpoint_clusters(spec, sweep, tol)
    n_clusters = labels.max() + 1
    sizes = [int(np.sum(labels == c)) for c in range(n_clusters)]
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
        launches = np.array([r.launch for r in recs])[dst]
        images = QuotientCloud(spec, [r.arrival for r in recs]).nearest_image(launches, src)
        partner_residual = max((float(np.linalg.norm(y - p)) for y, p in zip(images, launches)),
                               default=0.0)
        nontrivial, used_walk = _covering_nontrivial(spec, sweep, labels, components)
        return FiberSummary("two-fold-cover", sizes, partner_residual, nontrivial,
                            used_walk, None, int(n_clusters), diagnostics)

    # index > 0: per-cluster dimension from tangent-projected local PCA
    dims = []
    floor = tol.pca_floor_rel * L
    for c in range(n_clusters):
        members = np.flatnonzero(labels == c)
        if len(members) < index + 2:
            diagnostics.append(f"cluster {c} too small ({len(members)}) to estimate dimension")
            continue
        pts = np.array([recs[i].launch for i in members])
        kf = min(max(index + 2, len(members) // 8), 12, len(members) - 1)
        cloud = QuotientCloud(spec, pts)
        D = cloud.pairwise()
        cluster_dims = []
        for a, p in enumerate(pts):
            order = np.argsort(D[a])
            neigh = [a] + [int(b) for b in order if b != a][:kf]
            to_tangent = boundary_tangent_basis(spec, p) @ spec.metric.matrix(p)
            coords = np.array([to_tangent @ (y - p) for y in cloud.nearest_image(p, neigh)])
            cluster_dims.append(_local_pca(coords, tol.pca_rel, floor)[0])
        dims.append(int(round(float(np.median(cluster_dims)))))
    fiber_dim = int(round(float(np.median(dims)))) if dims else None
    return FiberSummary("sphere-bundle", sizes, None, None, False, fiber_dim,
                        int(n_clusters), diagnostics)


def _covering_nontrivial(spec, sweep, labels, components):
    """Walk boundary loops and watch when the midpoint cluster first recurs.

    Revisiting the starting cluster strictly before the loop closes witnesses
    a sheet exchange (nontrivial two-fold cover); falls back to the component
    count criterion when the boundary is not one-parameter walkable.
    """
    recs = sweep.ok_records
    patch_ids = np.array([sweep.launch_set.patch_ids[r.index] for r in recs])
    params = [sweep.launch_set.params[r.index] for r in recs]
    if not all(len(p) == 1 for p in params):
        if components is None:
            return None, False
        return components.count == 1, False

    comp_labels = (components.labels if components is not None
                   else np.zeros(len(recs), dtype=int))
    for comp in sorted(set(int(comp_labels[r.index]) for r in recs)):
        member_idx = [i for i, r in enumerate(recs) if comp_labels[r.index] == comp]
        if len(member_idx) < 3:
            continue
        member_idx.sort(key=lambda i: (patch_ids[i], float(params[i][0])))
        seq = [labels[i] for i in member_idx]
        if any(seq[step] == seq[0] for step in range(1, len(seq))):
            return True, True
    return False, True


# ---------------------------------------------------------------------------
# metric splitting along the geodesic flow

@dataclass
class SplittingResult:
    max_unit_residual: float
    max_cross_residual: float
    n_launches: int


def _structured_sweep(spec: ManifoldSpec, n_side, tol: Tolerances):
    """Launch grids with known neighbor structure, per boundary patch."""
    sweeps = []
    for pid, patch in enumerate(spec.boundary_patches):
        d = patch.param_dim
        if d == 0:
            continue
        shape = (n_side,) * d
        axes = [(np.arange(s) + 0.5) / s for s in shape]
        mesh = np.meshgrid(*axes, indexing="ij")
        params = np.stack([a.ravel() for a in mesh], axis=1)
        pts = patch.points(params)
        ls = LaunchSet(pts, np.full(len(pts), pid), [u.copy() for u in params],
                       "uniform", len(pts))
        sweep = first_return_map(spec, ls, rtol=tol.rtol, atol=tol.atol,
                                 grazing_tol=tol.grazing)
        sweeps.append((patch, shape, sweep))
    return sweeps


def splitting_residual(spec: ManifoldSpec, n_side=16, t_fracs=None,
                       tol: Optional[Tolerances] = None):
    """Orthogonality residuals of the geodesic foliation chart.

    Along each swept geodesic, the flow direction must stay g-unit and
    g-orthogonal to the finite-difference variation across neighboring
    launches; residuals are taken over a parameter grid bounded away from
    the midpoint by 5 percent of the half-length.
    """
    tol = tol or Tolerances()
    if t_fracs is None:
        t_fracs = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]
    sweeps = _structured_sweep(spec, n_side, tol)
    n = spec.dimension
    unit_res = 0.0
    cross_res = 0.0
    n_launch = 0
    for patch, shape, sweep in sweeps:
        recs = sweep.ok_records
        if len(recs) != int(np.prod(shape)):
            raise RuntimeError(f"splitting sweep failed on {spec.name!r}")
        n_launch += len(recs)
        L = sweep.half_length
        periodic = getattr(patch, "periodic", None) or (True,) * patch.param_dim
        # records come in the C order of the launch grid
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
    return SplittingResult(unit_res, cross_res, n_launch)


def slice_circumference(spec: ManifoldSpec, t, n_side=64, tol: Optional[Tolerances] = None):
    """Length of the image of the first boundary patch at flow parameter t."""
    tol = tol or Tolerances()
    patch = spec.boundary_patches[0]
    if patch.param_dim != 1:
        raise ValueError("slice circumference needs a one-parameter boundary patch")
    params = ((np.arange(n_side) + 0.5) / n_side).reshape(-1, 1)
    pts = patch.points(params)
    ls = LaunchSet(pts, np.zeros(len(pts), dtype=int), [u.copy() for u in params],
                   "uniform", len(pts))
    sweep = first_return_map(spec, ls, rtol=tol.rtol, atol=tol.atol, grazing_tol=tol.grazing)
    recs = sweep.ok_records
    du = 1.0 / n_side
    total = 0.0
    slice_t = QuotientCloud(spec, [r.path.position_at(t) for r in recs])
    for i, x in enumerate(slice_t.points):
        yp, ym = slice_t.nearest_image(x, [(i + 1) % n_side, (i - 1) % n_side])
        dvec = (yp - ym) / (2.0 * du)
        total += metric_norm(spec.metric.matrix(x), dvec) * du
    return float(total)


# ---------------------------------------------------------------------------
# slice symmetry and distances

@dataclass
class SliceCheck:
    t: float
    hausdorff: float
    max_distance_residual: float
    passed: bool


def slice_distance_check(spec: ManifoldSpec, sweep: SweepResult, t,
                         tol: Optional[Tolerances] = None):
    """Verify the forward and mirrored slices coincide and sit at distance t."""
    tol = tol or Tolerances()
    recs = sweep.ok_records
    L = sweep.half_length
    if not (0.0 < t <= L + 1e-12):
        raise ValueError("slice parameter must lie in (0, L]")
    n = spec.dimension
    A = sweep.states_at(t)[:, :n]
    B = sweep.states_at(sweep.return_times - t)[:, :n]
    hausdorff = QuotientCloud(spec, A).hausdorff(B)

    worst = 0.0
    for i in np.linspace(0, len(recs) - 1, min(6, len(recs))).astype(int):
        d_est = nearest_boundary_distance(spec, sweep, A[i], tol)
        if d_est is not None:
            worst = max(worst, abs(d_est - t))
    passed = hausdorff <= SLICE_HAUSDORFF_REL * L and worst <= SLICE_DISTANCE_REL * L
    return SliceCheck(float(t), float(hausdorff), float(worst), bool(passed))


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
    # intermediates kept for the artifacts, not part of report.json: the full
    # index-form spectrum of the first returned geodesic, the soul cloud and
    # the launch sweep
    index_spectrum: Optional[np.ndarray] = field(default=None, repr=False, compare=False,
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

    Stages run in order, each filling its own fields of the report. ``n_launches``
    must be at least ``MIN_LAUNCHES`` and a count that ``sample_boundary`` gives
    exactly with ``strategy``; otherwise ``LaunchCountError`` names the nearest
    counts it gives.
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
    report = ZollReport(spec.name, n_launches=len(sweep.records), seed=int(seed),
                        strategy=strategy, tolerances=tol.to_dict(), sweep=sweep)
    _verdict(report, tol)
    # the sweep has one record per launch, so without a returned launch the
    # verdict is already refuted
    if sweep.ok_records:
        components = _components(report, spec, tol)
        if report.verdict != "refuted":
            if "jacobi" in analyses:
                _jacobi(report, spec, tol, mesh_size, n_index_spots)
            fibers = "fibers" in analyses and report.index_focal is not None
            clusters = (midpoint_clusters(spec, sweep, tol)
                        if "soul" in analyses or fibers else None)
            if "soul" in analyses:
                _soul(report, spec, tol, clusters)
            if fibers:
                _fibers(report, spec, tol, components, clusters)
            if "splitting" in analyses:
                _splitting(report, spec, tol)
            if "slices" in analyses:
                _slices(report, spec, tol)
    _ground_truth(report, spec)
    return report


def _verdict(report: ZollReport, tol: Tolerances):
    """Refuted for lost launches or grazing; otherwise the return-time spread and
    the arrival angles, against their tolerances, decide."""
    sweep = report.sweep
    recs = sweep.ok_records
    report.grazing_count = int(sum(r.grazing for r in sweep.records))
    report.verdict = "certified"
    if sweep.errors:
        report.verdict = "refuted"
        report.reason = f"{len(sweep.errors)} launches without boundary return"
    if not recs:
        return
    rt = sweep.return_times
    report.length_mean = float(rt.mean())
    report.length_spread_rel = float((rt.max() - rt.min()) / report.length_mean)
    report.orthogonality_max = float(max(r.normal_deviation for r in recs))
    report.half_length = sweep.half_length
    if report.verdict == "refuted":
        return
    ratios = [report.length_spread_rel / tol.length_rel,
              report.orthogonality_max / tol.orthogonality]
    if report.grazing_count:
        report.verdict = "refuted"
        report.reason = "tangential approach to the boundary"
    elif max(ratios) > max(1.0, tol.refute_factor):
        report.verdict = "refuted"
        report.reason = ("length spread" if ratios[0] >= ratios[1]
                         else "non-orthogonal arrival") + " beyond 10x tolerance"
    elif max(ratios) > 1.0:
        report.verdict = "inconclusive"
        report.reason = "violations within 10x tolerance band"


def _components(report: ZollReport, spec: ManifoldSpec, tol: Tolerances):
    """Boundary components, arrival pairing and, for two components, their distance."""
    sweep = report.sweep
    comps = boundary_components(spec, sweep.launch_set, [r.arrival for r in sweep.records],
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


def _jacobi(report: ZollReport, spec: ManifoldSpec, tol: Tolerances, mesh_size, n_spots):
    """Morse index two ways: focal instants on up to ``n_spots`` evenly spaced
    returned geodesics, the index form on the first three of them."""
    recs = report.sweep.ok_records
    spots = np.linspace(0, len(recs) - 1, min(n_spots, len(recs))).astype(int)
    focal_indices = []
    focal_resid = 0.0
    focal_mults = []
    arrival_norm = 0.0
    frames = []
    for i in spots:
        r = recs[int(i)]
        frame = integrate_jacobi_frame(spec, r.path, rtol=tol.rtol, atol=tol.atol)
        frames.append(frame)
        record = focal_instants(frame)
        focal_indices.append(morse_index_focal(record))
        report.endpoint_focal_warnings += len(record.endpoint_instants)
        for inst in record.instants:
            focal_resid = max(focal_resid, abs(inst.time - r.return_time / 2.0))
            focal_mults.append(inst.multiplicity)
        A = arrival_degeneracy_form(spec, frame)
        arrival_norm = max(arrival_norm, float(np.linalg.norm(A)))
    if len(set(focal_indices)) > 1:
        report.diagnostics.append(
            f"focal index differs across launches: {sorted(set(focal_indices))}")
    report.index_focal = int(focal_indices[0]) if focal_indices else None
    report.focal_midpoint_residual = focal_resid
    report.focal_multiplicities = focal_mults
    report.arrival_form_norm = arrival_norm

    quad_vals = []
    nullities = []
    for i, frame in zip(spots[:3], frames):
        mat = assemble_index_form(spec, recs[int(i)].path, mesh_size, frame=frame)
        kq, nq = morse_index_quadratic(mat, neg_tol=tol.neg_eig)
        quad_vals.append(kq)
        nullities.append(nq)
        if report.index_spectrum is None:
            report.index_spectrum = mat.eigenvalues
    if quad_vals:
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


def _fibers(report: ZollReport, spec: ManifoldSpec, tol: Tolerances,
            components: BoundaryComponents, clusters):
    """Fiber structure of the midpoint projection at the focal index."""
    fib = fiber_analysis(spec, report.sweep, report.index_focal, tol, components, clusters)
    report.fibers = {
        "kind": fib.kind,
        "cluster_count": fib.cluster_count,
        "cluster_sizes_minmax": [int(min(fib.cluster_sizes)), int(max(fib.cluster_sizes))],
        "partner_residual": fib.partner_residual,
        "nontrivial_cover": fib.nontrivial,
        "loop_transport_used": fib.loop_transport_used,
        "fiber_dimension": fib.fiber_dimension,
    }
    report.diagnostics.extend(fib.diagnostics)


def _splitting(report: ZollReport, spec: ManifoldSpec, tol: Tolerances):
    """Metric splitting along the flow, on its own structured launch grids."""
    split = splitting_residual(spec, n_side=16 if spec.dimension <= 2 else 8, tol=tol)
    report.splitting = {
        "max_unit_residual": float(split.max_unit_residual),
        "max_cross_residual": float(split.max_cross_residual),
        "n_launches": int(split.n_launches),
    }


def _slices(report: ZollReport, spec: ManifoldSpec, tol: Tolerances):
    """Slices at t = L/4, L/2, 3L/4 against their mirrors at 2L - t, which coincide
    as clouds because the launch set covers every boundary component."""
    report.slices = []
    for frac in (0.25, 0.5, 0.75):
        check = slice_distance_check(spec, report.sweep, frac * report.half_length, tol)
        report.slices.append({
            "t_over_L": frac,
            "hausdorff": check.hausdorff,
            "max_distance_residual": check.max_distance_residual,
            "passed": check.passed,
        })


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
        L = report.half_length
        if L is not None and ann.get("half_length") is not None:
            checks["half_length"] = bool(abs(L - ann["half_length"])
                                         <= 1e-6 * max(1.0, ann["half_length"]))
        if report.index_focal is not None and ann.get("index") is not None:
            checks["index"] = report.index_focal == ann["index"]
        if report.component_count is not None and ann.get("components") is not None:
            checks["components"] = report.component_count == ann["components"]
        if report.soul and "dimension" in report.soul and ann.get("soul_dim") is not None:
            checks["soul_dim"] = report.soul["dimension"] == ann["soul_dim"]
    report.ground_truth = {"expected_zoll": zoll, "checks": checks,
                           "all_match": all(checks.values()) if checks else True}
