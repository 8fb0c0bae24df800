"""Free-boundary Jacobi fields, focal instants, and the Morse index.

The index of a free boundary geodesic is computed two independent ways:
counting focal instants with multiplicity along the geodesic, and counting
negative eigenvalues of a finite-element discretization of the second
variation of energy.  Everything is carried in a parallel-transported
orthonormal frame along the geodesic, where the Jacobi equation becomes a
linear second-order system with symmetric coefficient matrix.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg import cython_lapack
from scipy.optimize import brentq, minimize_scalar

from .engine import GeodesicPath, integrate_flow, project_to_boundary
from .geometry import (
    ManifoldSpec,
    boundary_tangent_basis,
    christoffel_raw,
    curvature_operator_raw,
    gram_schmidt,
    inward_unit_normal,
    metric_inner,
    second_fundamental_form,
)

RANK_DROP_TOL = 1e-7
FOCAL_SCAN = 512               # sample parameters of the focal scan
MIN_MESH_SIZE = 16
ISOLATION_WINDOW = 1e-4
ENDPOINT_WINDOW = 1e-6
NEG_EIG_TOL = 1e-6


class DegenerateFamilyError(RuntimeError):
    """Raised when the Jacobi frame loses rank over a whole interval."""


class MaximalDegeneracyError(RuntimeError):
    """Raised when the boundary-parallel Jacobi space is too small."""


def curvature_frame_matrix(metric, x, v, E):
    """Tidal operator in a g-orthonormal frame: K[a,b] = g(R(v,E_b)v, E_a); the
    (m, n, n) stack of them for stacks x, v (m, n) and frames E (m, n, n)."""
    g = metric.matrix(x)
    M = curvature_operator_raw(metric, x, v)
    K = E.swapaxes(-1, -2) @ g @ M @ E
    return 0.5 * (K + K.swapaxes(-1, -2))


@dataclass
class JacobiFrame:
    """Fundamental Jacobi solutions along a geodesic, in a parallel frame.

    Columns 0..n-2 start tangent to the boundary with the shape-operator
    initial slope; the last column is the solution t * gamma'(t).  The frame
    matrix E has the geodesic velocity as column 0.
    """

    path: GeodesicPath
    flow: object
    shape_launch: np.ndarray    # (n-1, n-1) in the launch tangent frame
    frame0: np.ndarray          # (n, n) initial frame, columns = vectors

    @property
    def spec(self):
        return self.path.spec

    @property
    def dimension(self):
        return self.path.spec.dimension

    @property
    def return_time(self):
        return self.path.return_time

    def blocks_at(self, t):
        """x, v, E, Y, Y' at time t, or stacked along the leading axis for an
        array of times."""
        n = self.dimension
        y = self.flow.state_at(t)
        lead = y.shape[:-1]
        x = y[..., :n]
        v = y[..., n:2 * n]
        E = y[..., 2 * n:2 * n + n * n].reshape(lead + (n, n))
        Y = y[..., 2 * n + n * n:2 * n + 2 * n * n].reshape(lead + (n, n))
        Yp = y[..., 2 * n + 2 * n * n:].reshape(lead + (n, n))
        return x, v, E, Y, Yp

    def jacobi_block(self, t):
        return self.blocks_at(t)[3]


def _padded_shape_matrix(shape_sub, n):
    S = np.zeros((n, n))
    S[1:, 1:] = shape_sub
    return S


def integrate_jacobi_frame(spec: ManifoldSpec, path: GeodesicPath,
                           rtol=None, atol=None) -> JacobiFrame:
    """Integrate the parallel frame and the fundamental Jacobi solutions."""
    if not path.returned:
        raise ValueError("Jacobi frame needs a returned geodesic")
    n = spec.dimension
    metric = spec.metric
    p = path.launch_point
    v0 = path.launch_velocity
    R = path.return_time
    rtol = 1e-10 if rtol is None else rtol
    atol = 1e-12 if atol is None else atol

    tangent = boundary_tangent_basis(spec, p)          # rows (n-1, n)
    E0 = np.column_stack([v0] + [tangent[i] for i in range(n - 1)])
    shape_sub = tangent @ second_fundamental_form(spec, p) @ tangent.T
    S0 = _padded_shape_matrix(shape_sub, n)

    Y0 = np.zeros((n, n))
    Yp0 = np.zeros((n, n))
    for a in range(n - 1):
        Y0[a + 1, a] = 1.0
        Yp0[:, a] = -S0[:, a + 1]
    Yp0[0, n - 1] = 1.0

    y0 = np.concatenate([p, v0, E0.ravel(), Y0.ravel(), Yp0.ravel()])

    def rhs(t, y):
        x = y[:n]
        v = y[n:2 * n]
        E = y[2 * n:2 * n + n * n].reshape(n, n)
        Y = y[2 * n + n * n:2 * n + 2 * n * n].reshape(n, n)
        Yp = y[2 * n + 2 * n * n:].reshape(n, n)
        gamma = christoffel_raw(metric, x)
        acc = -np.einsum("kij,i,j->k", gamma, v, v)
        dE = -np.einsum("kij,i,ja->ka", gamma, v, E)
        K = curvature_frame_matrix(metric, x, v, E)
        return np.concatenate([v, acc, dE.ravel(), Yp.ravel(), (K @ Y).ravel()])

    flow = integrate_flow(
        spec, rhs, y0, R,
        vector_blocks=[(n, n, 1), (2 * n, n, n)],
        detect_boundary=False, rtol=rtol, atol=atol)
    return JacobiFrame(path, flow, shape_sub, E0)


# ---------------------------------------------------------------------------
# focal instants

@dataclass
class FocalInstant:
    time: float
    multiplicity: int
    singular_values: np.ndarray


@dataclass
class FocalRecord:
    return_time: float
    instants: list[FocalInstant] = field(default_factory=list)
    endpoint_instants: list[FocalInstant] = field(default_factory=list)


def _scaled_block(frame: JacobiFrame, t):
    """J-block with the t*gamma' column rescaled by 1/t (rank unchanged), at a
    time or stacked for an array of times."""
    Y = frame.jacobi_block(t)
    Y = Y.copy()
    scale = np.maximum(np.abs(t), 1e-12 * frame.return_time)
    Y[..., :, -1] /= np.expand_dims(scale, -1)
    return Y


def focal_instants(frame: JacobiFrame) -> FocalRecord:
    """Locate parameters where the Jacobi evaluation map loses rank."""
    R = frame.return_time
    ts = np.linspace(1e-6 * R, R, FOCAL_SCAN)
    Y = _scaled_block(frame, ts)
    s = np.linalg.svd(Y, compute_uv=False)
    dets = np.linalg.det(Y)
    smin = s[:, -1]
    smax = s[:, 0]

    # sustained rank loss violates isolation of focal instants
    below = smin < RANK_DROP_TOL * np.maximum(smax, 1e-300)
    run = 0
    for flag in below:
        run = run + 1 if flag else 0
        if run * (ts[1] - ts[0]) > 1e-2 * R:
            raise DegenerateFamilyError("degenerate family (violates isolation)")

    candidates = []
    for i in range(FOCAL_SCAN - 1):
        if dets[i] == 0.0 or np.sign(dets[i]) != np.sign(dets[i + 1]):
            candidates.append((max(i - 1, 0), min(i + 1, FOCAL_SCAN - 1), "det"))
    gate = 0.05
    for i in range(1, FOCAL_SCAN - 1):
        if smin[i] <= smin[i - 1] and smin[i] <= smin[i + 1] and smin[i] < gate * smax[i]:
            candidates.append((i - 1, i + 1, "min"))

    refined = []
    for lo, hi, kind in candidates:
        a, b = ts[lo], ts[hi]
        t_star = None
        if kind == "det" and np.sign(dets[lo]) != np.sign(dets[hi]) and dets[lo] != 0.0:
            try:
                t_star = brentq(lambda t: np.linalg.det(_scaled_block(frame, t)), a, b,
                                xtol=1e-13 * R, maxiter=200)
            except (RuntimeError, ValueError):
                t_star = None  # flat high-multiplicity zero; fall through
        if t_star is None:
            res = minimize_scalar(
                lambda t: np.linalg.svd(_scaled_block(frame, t), compute_uv=False)[-1] ** 2,
                bounds=(a, b), method="bounded",
                options={"xatol": 1e-13 * R})
            t_star = float(res.x)
        s = np.linalg.svd(_scaled_block(frame, t_star), compute_uv=False)
        if s[-1] < RANK_DROP_TOL * s[0]:
            refined.append((t_star, s))

    refined.sort(key=lambda item: item[0])
    merged = []
    for t_star, s in refined:
        if merged and abs(t_star - merged[-1][0]) < ISOLATION_WINDOW * R:
            if s[-1] < merged[-1][1][-1]:
                merged[-1] = (t_star, s)
            continue
        merged.append((t_star, s))

    record = FocalRecord(return_time=R)
    for t_star, s in merged:
        mult = int(np.sum(s < RANK_DROP_TOL * s[0]))
        inst = FocalInstant(float(t_star), mult, s)
        if abs(t_star - R) <= ENDPOINT_WINDOW * R:
            record.endpoint_instants.append(inst)
        else:
            record.instants.append(inst)
    return record


def morse_index_focal(record: FocalRecord, return_time=None):
    """Morse index as the number of interior focal instants with multiplicity."""
    if return_time is not None and abs(return_time - record.return_time) > 1e-9 * record.return_time:
        raise ValueError("return_time disagrees with the focal record")
    return int(sum(f.multiplicity for f in record.instants))


# ---------------------------------------------------------------------------
# discretized index form

def _band_to_dense(band):
    """Symmetric dense matrix from LAPACK upper band storage."""
    kd, dof = band.shape[0] - 1, band.shape[1]
    dense = np.zeros((dof, dof))
    for d in range(kd + 1):
        diag = band[kd - d, d:]
        dense[np.arange(dof - d), np.arange(d, dof)] = diag
        dense[np.arange(d, dof), np.arange(dof - d)] = diag
    return dense


@dataclass
class IndexFormMatrix:
    """Discretized index form, stiffness and mass in LAPACK upper band storage.

    Entry (i, j) with ``j - kd <= i <= j`` sits at ``band[kd + i - j, j]``,
    where ``kd = band.shape[0] - 1`` is the half-bandwidth.  Assembly makes
    the bands read-only, because ``eigenvalues`` is solved once and kept.
    """

    stiffness_band: np.ndarray
    mass_band: np.ndarray
    mesh_size: int
    dimension: int
    return_time: float
    boundary_block_launch: np.ndarray
    boundary_block_arrival: np.ndarray

    @property
    def stiffness(self):
        """Dense copy of the stiffness matrix, for inspection and reference solves."""
        return _band_to_dense(self.stiffness_band)

    @property
    def mass(self):
        """Dense copy of the mass matrix, for inspection and reference solves."""
        return _band_to_dense(self.mass_band)

    @cached_property
    def eigenvalues(self):
        """Full ascending generalized spectrum (read-only), solved on first use."""
        eigs = index_form_eigenvalues(self)
        eigs.flags.writeable = False
        return eigs


def _element_band(local, n, N):
    """Scatter per-element (2n x 2n) matrices into the band of the reduced form.

    Element e couples nodes e and e + 1, i.e. full indices e*n .. e*n + 2n - 1.
    The two velocity-direction endpoint values (full indices 0 and n*N) are
    dropped, which keeps the ordering, so local p <= q maps to i <= j.  Each
    element contributes its symmetric part.
    """
    kd = 2 * n - 1
    full = n * np.arange(N)[:, None] + np.arange(2 * n)[None, :]
    kept = (full != 0) & (full != n * N)
    reduced = full - (full > 0) - (full > n * N)
    p, q = np.triu_indices(2 * n)
    used = kept[:, p] & kept[:, q]
    i, j = reduced[:, p][used], reduced[:, q][used]
    vals = (0.5 * (local + local.transpose(0, 2, 1)))[:, p, q][used]
    band = np.zeros((kd + 1, n * (N + 1) - 2))
    np.add.at(band, (kd + i - j, j), vals)
    band.flags.writeable = False
    return band


def assemble_index_form(spec: ManifoldSpec, path: GeodesicPath, mesh_size=256,
                        frame: Optional[JacobiFrame] = None) -> IndexFormMatrix:
    """Piecewise-linear discretization of the second variation of energy.

    The geodesic is parametrized on [0, 1]; basis fields live in the parallel
    frame with endpoint values constrained tangent to the boundary, and the
    shape-operator terms of both endpoints enter with the sign that makes a
    flat-disk diameter have exactly one negative direction.  The P1 basis
    makes both matrices block-tridiagonal with n x n blocks, so they are
    stored as bands of half-bandwidth 2n - 1.
    """
    if mesh_size < MIN_MESH_SIZE:
        raise ValueError(f"mesh_size must be at least {MIN_MESH_SIZE}")
    if frame is None:
        frame = integrate_jacobi_frame(spec, path)
    n = spec.dimension
    N = int(mesh_size)
    R = path.return_time
    h = 1.0 / N
    eye = np.eye(n)

    # gradient term int phi' phi' dt and consistent mass int phi phi dt
    stiffness = np.repeat(np.kron([[1.0, -1.0], [-1.0, 1.0]], eye / h)[None], N, axis=0)
    mass = np.repeat(np.kron([[h / 3.0, h / 6.0], [h / 6.0, h / 3.0]], eye)[None], N, axis=0)

    # curvature term int phi_A phi_B Khat dt, 2-point Gauss
    gauss_nodes = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    gauss_w = np.array([0.5, 0.5])
    x, v, E, _, _ = frame.blocks_at(((np.arange(N)[:, None] + gauss_nodes) * h * R).ravel())
    K = (curvature_frame_matrix(spec.metric, x, v, E) * (R * R)).reshape(N, 2, n, n)
    shapes = np.stack([1.0 - gauss_nodes, gauss_nodes])        # shapes[a, g]
    weights = np.einsum("g,ag,bg->gab", gauss_w * h, shapes, shapes)
    stiffness += np.einsum("gab,egij->eaibj", weights, K).reshape(N, 2 * n, 2 * n)

    # shape-operator boundary terms (launch and arrival both contribute -R*S)
    B0 = -R * _padded_shape_matrix(frame.shape_launch, n)
    q = project_to_boundary(spec, frame.blocks_at(R)[0])
    basis_q = _arrival_tangent_frame(spec, frame, q)
    shape_q = basis_q @ second_fundamental_form(spec, q) @ basis_q.T
    B1 = -R * _padded_shape_matrix(shape_q, n)
    stiffness[0, :n, :n] += B0
    stiffness[-1, n:, n:] += B1

    return IndexFormMatrix(_element_band(stiffness, n, N), _element_band(mass, n, N),
                           N, n, R, B0, B1)


def _arrival_tangent_frame(spec, frame, q):
    """Frame columns 1.. at arrival, projected tangent and re-orthonormalized."""
    n = spec.dimension
    _, _, E, _, _ = frame.blocks_at(frame.return_time)
    g = spec.metric.matrix(q)
    nu = inward_unit_normal(spec, q)
    rows = []
    for a in range(1, n):
        u = E[:, a] - metric_inner(g, E[:, a], nu) * nu
        rows.append(u)
    return gram_schmidt(g, np.array(rows))


def _bind_dsbgv():
    """LAPACK dsbgv from the function table scipy exports for Cython callers."""
    capsule = cython_lapack.__pyx_capi__["dsbgv"]
    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.argtypes = [ctypes.py_object]
    get_name.restype = ctypes.c_char_p
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    get_pointer.restype = ctypes.c_void_p
    address = get_pointer(capsule, get_name(capsule))
    int_p = ctypes.POINTER(ctypes.c_int)
    double_p = ctypes.POINTER(ctypes.c_double)
    # jobz, uplo, n, ka, kb, ab, ldab, bb, ldbb, w, z, ldz, work, info
    prototype = ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p, int_p, int_p, int_p,
                                 double_p, int_p, double_p, int_p, double_p, double_p,
                                 int_p, double_p, int_p)
    return prototype(address)


_DSBGV = _bind_dsbgv()


def index_form_eigenvalues(mat: IndexFormMatrix):
    """Full ascending spectrum of stiffness x = lambda mass x (LAPACK dsbgv)."""
    rows, dof = mat.stiffness_band.shape
    if mat.mass_band.shape != (rows, dof):
        raise ValueError(f"mass band shape {mat.mass_band.shape} does not match "
                         f"stiffness band shape {mat.stiffness_band.shape}")
    # dsbgv overwrites both bands; Fortran order makes column j the j-th column
    ab = np.array(mat.stiffness_band, dtype=np.float64, order="F")
    bb = np.array(mat.mass_band, dtype=np.float64, order="F")
    w = np.empty(dof)
    z = np.empty(1)                  # eigenvectors are not computed
    work = np.empty(3 * dof)
    size, kd, ld, ldz, info = (ctypes.c_int(v) for v in (dof, rows - 1, rows, 1, 0))

    def ptr(a):
        return a.ctypes.data_as(ctypes.POINTER(ctypes.c_double))

    _DSBGV(b"N", b"U", ctypes.byref(size), ctypes.byref(kd), ctypes.byref(kd),
           ptr(ab), ctypes.byref(ld), ptr(bb), ctypes.byref(ld), ptr(w), ptr(z),
           ctypes.byref(ldz), ptr(work), ctypes.byref(info))
    if info.value != 0:
        raise RuntimeError(f"indefinite assembly error (dsbgv info={info.value})")
    return w


def morse_index_quadratic(mat: IndexFormMatrix, neg_tol=NEG_EIG_TOL):
    """Index and nullity estimate of the discretized form (mass-normalized)."""
    eigs = mat.eigenvalues
    k = int(np.sum(eigs < -neg_tol))
    nullity = int(np.sum(np.abs(eigs) <= neg_tol))
    return k, nullity


def index_form_spectrum(mat: IndexFormMatrix, n_lowest=8):
    """The ``n_lowest`` smallest generalized eigenvalues, ascending."""
    return mat.eigenvalues[:n_lowest]


# ---------------------------------------------------------------------------
# degeneracy form at the arrival endpoint

def arrival_degeneracy_form(spec: ManifoldSpec, frame: JacobiFrame):
    """Bilinear form measuring failure of the arrival boundary condition.

    Restricted to Jacobi solutions whose value at the return time is tangent
    to the boundary; it vanishes identically when every such solution also
    satisfies the arrival slope condition (maximal degeneracy).
    """
    n = frame.dimension
    x, v, E, Y, Yp = frame.blocks_at(frame.return_time)
    q = project_to_boundary(spec, x)
    g = spec.metric.matrix(q)
    nu = inward_unit_normal(spec, q)
    S_full = second_fundamental_form(spec, q)

    # coefficient combinations alpha with g(J_alpha(R), nu) = 0
    c = np.array([metric_inner(g, E[:, a], nu) for a in range(n)])
    row = c @ Y
    norm_row = np.linalg.norm(row)
    if norm_row < 1e-8 * max(np.linalg.norm(Y), 1.0):
        raise MaximalDegeneracyError("contradiction with maximal degeneracy")
    _, _, vt = np.linalg.svd(row.reshape(1, -1))
    basis = vt[1:].T              # (n, n-1) null-space basis

    A = np.zeros((n - 1, n - 1))
    J = E @ (Y @ basis)           # chart values at R, columns
    Jp = E @ (Yp @ basis)
    for i in range(n - 1):
        Ji = J[:, i] - metric_inner(g, J[:, i], nu) * nu
        for j in range(n - 1):
            Jj = J[:, j] - metric_inner(g, J[:, j], nu) * nu
            # arrival velocity is the outward normal: S_{gamma'(R)} = -S_nu
            A[i, j] = -float(Ji @ S_full @ Jj) + metric_inner(g, Jp[:, i], J[:, j])
    return A
