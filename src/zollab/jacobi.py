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
import glob
import os
import threading
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    GeodesicPath,
    lockstep_flows,
    project_to_boundary,
)
from .geometry import (
    ManifoldSpec,
    _solve,
    boundary_tangent_basis,
    christoffel_raw,
    curvature_operator_raw,
    gram_schmidt,
    inward_unit_normal,
    metric_inner,
    row_dot,
    second_fundamental_form,
)
from .scalar import CONVERGED, brentq, minimize_bounded

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


def curvature_frame_matrix(metric, x, v, E, gamma=None):
    """Tidal operator in a g-orthonormal frame: K[a,b] = g(R(v,E_b)v, E_a); the
    (m, n, n) stack of them for stacks x, v (m, n) and frames E (m, n, n).
    ``gamma``, the Christoffel symbols at x, is passed on to
    ``curvature_operator_raw``."""
    g = metric.matrix(x)
    M = curvature_operator_raw(metric, x, v, gamma)
    K = E.swapaxes(-1, -2) @ g @ M @ E
    return 0.5 * (K + K.swapaxes(-1, -2))


# a frame at its return time R: E, Y and Y' there, the point q that
# project_to_boundary takes x(R) to, and the metric g, the inward unit normal
# nu and the second fundamental form S at q
FrameArrival = namedtuple("FrameArrival", "E Y Yp q g nu S")


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
    arrival: FrameArrival

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
        return _blocks(self.flow.state_at(t), self.dimension)

    def jacobi_block(self, t):
        return self.blocks_at(t)[3]


def _blocks(y, n):
    """x, v, E, Y, Y' of a frame state, or stacked for a stack of them."""
    lead = y.shape[:-1]
    x = y[..., :n]
    v = y[..., n:2 * n]
    E = y[..., 2 * n:2 * n + n * n].reshape(lead + (n, n))
    Y = y[..., 2 * n + n * n:2 * n + 2 * n * n].reshape(lead + (n, n))
    Yp = y[..., 2 * n + 2 * n * n:].reshape(lead + (n, n))
    return x, v, E, Y, Yp


def _padded_shape_matrix(shape_sub):
    """Shape operators (..., n-1, n-1) bordered by zeros for the velocity direction."""
    n = shape_sub.shape[-1] + 1
    S = np.zeros(shape_sub.shape[:-2] + (n, n))
    S[..., 1:, 1:] = shape_sub
    return S


def frame_vector_blocks(n):
    """The blocks of a Jacobi-frame state that deck differentials transport:
    the velocity and the frame E; Y and Y' are frame coordinates."""
    return [(n, n, 1), (2 * n, n, n)]


def jacobi_rhs(spec: ManifoldSpec):
    """Right-hand side of the geodesic, parallel-transport and Jacobi equations
    for a state (x, v, E, Y, Y') of length 2n + 3n^2, or a stack of them,
    each row bit-equal to its state alone."""
    metric = spec.metric
    n = spec.dimension

    def rhs(t, y):
        lead = y.shape[:-1]
        x, v, E, Y, _ = _blocks(y, n)
        gamma = christoffel_raw(metric, x)
        K = curvature_frame_matrix(metric, x, v, E, gamma)
        out = np.empty_like(y)
        out[..., :n] = v
        # a batch index on every operand, no einsum optimize
        np.negative(np.einsum("...kij,...i,...j->...k", gamma, v, v), out=out[..., n:2 * n])
        dE = np.einsum("...kij,...i,...ja->...ka", gamma, v, E)
        out[..., 2 * n:2 * n + n * n] = np.negative(dE).reshape(lead + (n * n,))
        out[..., 2 * n + n * n:2 * n + 2 * n * n] = y[..., 2 * n + 2 * n * n:]
        out[..., 2 * n + 2 * n * n:] = (K @ Y).reshape(lead + (n * n,))
        return out

    return rhs


def _frame_start(paths):
    """Initial states (m, 2n + 3n^2) of the frames along the paths of one spec
    and their launch shape operators (m, n-1, n-1) in the boundary tangent
    frames, from one stacked call of each boundary kernel."""
    spec = paths[0].spec
    n = spec.dimension
    p = np.array([path.launch_point for path in paths])
    v0 = np.array([path.launch_velocity for path in paths])

    tangent = boundary_tangent_basis(spec, p)          # rows (m, n-1, n)
    E0 = np.concatenate([v0[:, :, None], tangent.swapaxes(-1, -2)], axis=-1)
    shape_sub = tangent @ second_fundamental_form(spec, p) @ tangent.swapaxes(-1, -2)
    S0 = _padded_shape_matrix(shape_sub)

    Y0 = np.broadcast_to(np.eye(n, k=-1), S0.shape)
    Yp0 = np.zeros_like(S0)
    Yp0[..., :n - 1] = -S0[..., 1:]
    Yp0[:, 0, n - 1] = 1.0
    starts = [p, v0] + [block.reshape(len(paths), n * n) for block in (E0, Y0, Yp0)]
    return np.concatenate(starts, axis=1), shape_sub


def integrate_jacobi_frames(paths, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> list[JacobiFrame]:
    """The parallel frame and the fundamental Jacobi solutions along each path
    of one spec, stepped together up to their own return times, and their
    arrival records, one stacked call for each part."""
    if not paths:
        return []
    spec = paths[0].spec
    y0, shapes = _frame_start(paths)
    R = np.array([path.return_time for path in paths])
    flows = lockstep_flows(spec, jacobi_rhs(spec), y0, R,
                           vector_blocks=frame_vector_blocks(spec.dimension),
                           detect_boundary=False, rtol=rtol, atol=atol)
    x, _, E, Y, Yp = _blocks(flows[0].table.states(np.array([f.index for f in flows]), R),
                             spec.dimension)
    q = project_to_boundary(spec, x)
    ends = zip(E, Y, Yp, q, spec.metric.matrix(q), inward_unit_normal(spec, q),
               second_fundamental_form(spec, q))
    return [JacobiFrame(path, flow, shape_sub, FrameArrival(*end))
            for path, flow, shape_sub, end in zip(paths, flows, shapes, ends)]


def integrate_jacobi_frame(path: GeodesicPath, rtol=DEFAULT_RTOL,
                           atol=DEFAULT_ATOL) -> JacobiFrame:
    """Integrate the parallel frame and the fundamental Jacobi solutions."""
    frame, = integrate_jacobi_frames([path], rtol, atol)
    return frame


# ---------------------------------------------------------------------------
# focal instants

@dataclass
class FocalInstant:
    time: float
    multiplicity: int
    singular_values: np.ndarray


@dataclass
class FocalRecord:
    instants: list[FocalInstant] = field(default_factory=list)
    endpoint_instants: list[FocalInstant] = field(default_factory=list)


def _scaled_block(frame: JacobiFrame, t):
    """J-block with the t*gamma' column rescaled by 1/t (rank unchanged), at a
    time or stacked for an array of times."""
    Y = frame.jacobi_block(t).copy()
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

    # sustained rank loss violates isolation of focal instants: the run of
    # rank-deficient scan points ending at each point, 0 where it has full rank
    below = smin < RANK_DROP_TOL * np.maximum(smax, 1e-300)
    scan = np.arange(FOCAL_SCAN)
    run = scan - np.maximum.accumulate(np.where(below, -1, scan))
    if np.any(run * (ts[1] - ts[0]) > 1e-2 * R):
        raise DegenerateFamilyError("degenerate family (violates isolation)")

    # candidates: where det vanishes or changes sign to the next point, then
    # at the local minima of smin below the gate, each in scan order
    crossing = np.flatnonzero((dets[:-1] == 0.0) | (np.sign(dets[:-1]) != np.sign(dets[1:])))
    gate = 0.05
    inner = smin[1:-1]
    minimum = 1 + np.flatnonzero((inner <= smin[:-2]) & (inner <= smin[2:])
                                 & (inner < gate * smax[1:-1]))

    # each candidate refined in its bracket: by the root of det where det
    # changes sign across it, else (or where brentq fails on a flat
    # high-multiplicity zero) by the least singular value; all together
    if not (crossing.size or minimum.size):
        return FocalRecord()
    lo = np.concatenate([np.maximum(crossing - 1, 0), minimum - 1])
    hi = np.concatenate([crossing, minimum]) + 1
    a, b = ts[lo], ts[hi]
    t_star = np.full(len(a), np.nan)
    det = np.flatnonzero((np.arange(len(lo)) < crossing.size)
                         & (np.sign(dets[lo]) != np.sign(dets[hi])) & (dets[lo] != 0.0))
    roots, flag = brentq(lambda t, rows: np.linalg.det(_scaled_block(frame, t)),
                         a[det], b[det], xtol=1e-13 * R, maxiter=200)
    t_star[det] = np.where(flag == CONVERGED, roots, np.nan)
    rest = np.flatnonzero(np.isnan(t_star))
    t_star[rest] = minimize_bounded(
        lambda t, rows: np.linalg.svd(_scaled_block(frame, t), compute_uv=False)[:, -1] ** 2,
        a[rest], b[rest], xatol=1e-13 * R)[0]
    singular = np.linalg.svd(_scaled_block(frame, t_star), compute_uv=False)
    refined = sorted(((float(t), s) for t, s in zip(t_star, singular)
                      if s[-1] < RANK_DROP_TOL * s[0]), key=lambda item: item[0])
    merged = []
    for t_star, s in refined:
        if merged and abs(t_star - merged[-1][0]) < ISOLATION_WINDOW * R:
            if s[-1] < merged[-1][1][-1]:
                merged[-1] = (t_star, s)
            continue
        merged.append((t_star, s))

    record = FocalRecord()
    for t_star, s in merged:
        mult = int(np.sum(s < RANK_DROP_TOL * s[0]))
        inst = FocalInstant(float(t_star), mult, s)
        if abs(t_star - R) <= ENDPOINT_WINDOW * R:
            record.endpoint_instants.append(inst)
        else:
            record.instants.append(inst)
    return record


def morse_index_focal(record: FocalRecord):
    """Morse index as the number of interior focal instants with multiplicity."""
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


# makes the check and the start of a form's spectrum solve one step
_SPECTRUM_START = threading.Lock()


@dataclass
class IndexFormMatrix:
    """Discretized index form, stiffness and mass as node blocks.

    Each is a pair ``(diag, off)``: the (N + 1, n, n) diagonal blocks of the
    mesh nodes and the (N, n, n) blocks coupling node e to node e + 1.  The
    velocity-direction endpoint values (component 0 of the first and the last
    node) are constrained out, their rows and columns zero.  Assembly makes
    the blocks read-only, because ``eigenvalues`` is solved once and kept.
    """

    stiffness_blocks: tuple
    mass_blocks: tuple
    dimension: int
    boundary_block_launch: np.ndarray
    boundary_block_arrival: np.ndarray
    # the solve of ``eigenvalues`` once started: (worker thread, its error, read)
    _spectrum: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def stiffness(self):
        """Dense copy of the stiffness matrix, for inspection and reference solves."""
        return _band_to_dense(_band(self.stiffness_blocks))

    @property
    def mass(self):
        """Dense copy of the mass matrix, for inspection and reference solves."""
        return _band_to_dense(_band(self.mass_blocks))

    def _start_spectrum(self):
        """Start the ``dsbgv`` solve of the spectrum on a worker thread, once,
        whichever threads ask.

        The bands and LAPACK's output and work arrays are made here, on the
        calling thread, so the worker makes only the ``dsbgv`` call, which
        ctypes makes without the GIL.  Its error is kept for the reader.  The
        thread is not a daemon: interpreter exit waits for the one solve.
        """
        with _SPECTRUM_START:
            if self._spectrum is None:
                call, read = _dsbgv_solve(self)
                error = []

                def solve():
                    try:
                        call()
                    except Exception as exc:  # raised where the spectrum is read
                        error.append(exc)

                worker = threading.Thread(target=solve, name="index-form spectrum",
                                          daemon=False)
                worker.start()
                self._spectrum = worker, error, read
        return self._spectrum

    @property
    def eigenvalues(self):
        """Full ascending generalized spectrum (read-only).  Its solve runs on
        a worker thread from the first ``_start_spectrum``, which ``certify``
        makes for the form the report keeps as soon as it is assembled, or
        else this read; the read waits for it and raises its error."""
        worker, error, read = self._start_spectrum()
        worker.join()
        if error:
            raise error[0]
        eigs = read()
        eigs.flags.writeable = False
        return eigs


def _node_blocks(local, n):
    """Node blocks ``(diag, off)`` of the form assembled from the element
    matrices ``local`` (N, 2n, 2n), each taking its symmetric part; element e
    couples nodes e and e + 1.  The rows and columns of the two
    velocity-direction endpoint values are zero."""
    sym = 0.5 * (local + local.transpose(0, 2, 1))
    diag = np.zeros((len(local) + 1, n, n))
    off = np.zeros((len(local), n, n))
    # sums from 0.0, as a scatter into zeros; a node's two terms commute
    diag[:-1] += sym[:, :n, :n]
    diag[1:] += sym[:, n:, n:]
    off += sym[:, :n, n:]
    diag[[0, -1], 0, :] = diag[[0, -1], :, 0] = 0.0
    off[0, 0, :] = off[-1, :, 0] = 0.0
    diag.flags.writeable = off.flags.writeable = False
    return diag, off


def _band(blocks):
    """LAPACK upper band storage of the form with node blocks ``blocks``, its
    two constrained values dropped: entry (i, j), ``j - kd <= i <= j``, at
    ``band[kd + i - j, j]`` for the half-bandwidth ``kd = 2n - 1``.  A new
    Fortran-ordered array, which ``dsbgv`` may overwrite."""
    diag, off = blocks
    nodes, n = diag.shape[:2]
    full = np.arange(nodes * n).reshape(nodes, n)
    last = n * (nodes - 1)
    # the index of each node value in the reduced form, -1 where it is dropped
    reduced = np.where((full == 0) | (full == last), -1, full - (full > 0) - (full > last))
    band = np.zeros((2 * n, nodes * n - 2), order="F")
    for block, i, j in ((diag, reduced[:, :, None], reduced[:, None, :]),
                        (off, reduced[:-1, :, None], reduced[1:, None, :])):
        i, j = np.broadcast_arrays(i, j)
        upper = (i >= 0) & (i <= j)          # a dropped j = -1 fails i <= j
        band[2 * n - 1 + i[upper] - j[upper], j[upper]] = block[upper]
    return band


def assemble_index_form(frame: JacobiFrame, mesh_size) -> IndexFormMatrix:
    """Piecewise-linear discretization of the second variation of energy.

    The geodesic is parametrized on [0, 1]; basis fields live in the parallel
    frame with endpoint values constrained tangent to the boundary, and the
    shape-operator terms of both endpoints enter with the sign that makes a
    flat-disk diameter have exactly one negative direction.  The P1 basis
    makes both matrices block-tridiagonal with n x n blocks, so they are
    stored as their node blocks.
    """
    if mesh_size < MIN_MESH_SIZE:
        raise ValueError(f"mesh_size must be at least {MIN_MESH_SIZE}")
    n = frame.dimension
    N = int(mesh_size)
    R = frame.return_time
    h = 1.0 / N
    eye = np.eye(n)

    # gradient term int phi' phi' dt and consistent mass int phi phi dt
    stiffness = np.repeat(np.kron([[1.0, -1.0], [-1.0, 1.0]], eye / h)[None], N, axis=0)
    mass = np.repeat(np.kron([[h / 3.0, h / 6.0], [h / 6.0, h / 3.0]], eye)[None], N, axis=0)

    # curvature term int phi_A phi_B Khat dt, 2-point Gauss
    gauss_nodes = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    gauss_w = np.array([0.5, 0.5])
    x, v, E, _, _ = frame.blocks_at(((np.arange(N)[:, None] + gauss_nodes) * h * R).ravel())
    K = (curvature_frame_matrix(frame.spec.metric, x, v, E) * (R * R)).reshape(N, 2, n, n)
    shapes = np.stack([1.0 - gauss_nodes, gauss_nodes])        # shapes[a, g]
    weights = np.einsum("g,ag,bg->gab", gauss_w * h, shapes, shapes)
    stiffness += np.einsum("gab,egij->eaibj", weights, K).reshape(N, 2 * n, 2 * n)

    # shape-operator boundary terms (launch and arrival both contribute -R*S),
    # the arrival's in frame columns 1.. projected tangent and re-orthonormalized
    end = frame.arrival
    columns = end.E[:, 1:].T
    basis_q = gram_schmidt(end.g, columns - metric_inner(end.g, columns, end.nu)[:, None] * end.nu)
    B0 = -R * _padded_shape_matrix(frame.shape_launch)
    B1 = -R * _padded_shape_matrix(basis_q @ end.S @ basis_q.T)
    stiffness[0, :n, :n] += B0
    stiffness[-1, n:, n:] += B1

    return IndexFormMatrix(_node_blocks(stiffness, n), _node_blocks(mass, n), n, B0, B1)


def _numpy_openblas():
    """Address of ``dsbgv`` in the OpenBLAS bundled with numpy's wheel, which
    numpy has already loaded: ILP64, as ``scipy_dsbgv_64_``. None where it is
    not there (another wheel, a source build) or lacks the symbol."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            return ctypes.cast(ctypes.CDLL(path).scipy_dsbgv_64_, ctypes.c_void_p).value
        except (OSError, AttributeError):
            continue
    return None


def _scipy_cython_lapack():
    """Address of ``dsbgv`` in the function table scipy exports for Cython
    callers; scipy is imported only here."""
    from scipy.linalg import cython_lapack

    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.argtypes = [ctypes.py_object]
    get_name.restype = ctypes.c_char_p
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    get_pointer.restype = ctypes.c_void_p
    capsule = cython_lapack.__pyx_capi__["dsbgv"]
    return get_pointer(capsule, get_name(capsule))


def _bind_lapack():
    """``dsbgv`` from numpy's OpenBLAS where it has it, else from scipy: the
    function, its integer type and the arguments that follow ``info``.
    numpy's is the Fortran symbol, which takes 64-bit integers and, last, the
    lengths of its two character arguments; scipy's table takes C ints and
    no lengths."""
    address, integer, lengths = _numpy_openblas(), ctypes.c_int64, (1, 1)
    if address is None:
        address, integer, lengths = _scipy_cython_lapack(), ctypes.c_int, ()
    c, i = ctypes.c_char_p, ctypes.POINTER(integer)
    d = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
    # jobz, uplo, n, ka, kb, ab, ldab, bb, ldbb, w, z, ldz, work, info
    argtypes = [c, c, i, i, i, d, i, d, i, d, d, i, d, i] + [ctypes.c_size_t] * len(lengths)
    return ctypes.CFUNCTYPE(None, *argtypes)(address), integer, lengths


_LAPACK = _bind_lapack()


def _dsbgv_solve(mat: IndexFormMatrix):
    """The LAPACK ``dsbgv`` solve of the full ascending spectrum of
    stiffness x = lambda mass x, made ready: ``call()`` makes only the
    ``dsbgv`` call, on the new bands and arrays made here, and ``read()``
    then returns the eigenvalues or raises the assembly error of its info."""
    ab, bb = _band(mat.stiffness_blocks), _band(mat.mass_blocks)
    if ab.shape != bb.shape:
        raise ValueError(f"mass band shape {bb.shape} does not match "
                         f"stiffness band shape {ab.shape}")
    rows, dof = ab.shape
    w, z, work = np.empty(dof), np.empty(1), np.empty(3 * dof)   # z: no eigenvectors
    dsbgv, integer, lengths = _LAPACK
    info = integer(0)
    args = (b"N", b"U", integer(dof), integer(rows - 1), integer(rows - 1), ab, integer(rows),
            bb, integer(rows), w, z, integer(1), work, info, *lengths)

    def call():
        dsbgv(*args)

    def read():
        if info.value != 0:
            raise RuntimeError(f"indefinite assembly error (dsbgv info={info.value})")
        return w

    return call, read


def index_form_eigenvalues(mat: IndexFormMatrix):
    """Full ascending spectrum of stiffness x = lambda mass x (LAPACK dsbgv),
    solved on the calling thread."""
    call, read = _dsbgv_solve(mat)
    call()
    return read()


def _inertia_counts(mats, neg_tol):
    """``(k, nullity)`` of each form by Sylvester's law of inertia, M positive
    definite: k = #neg(S + tol M) and nullity = #nonpos(S - tol M) - k.

    Each inertia comes from an unpivoted block LDL^T of the block-tridiagonal
    form over its n x n node blocks, O(dof n^2), with the eigenvalues of the
    pivot blocks taken at the end; the forms, of one node-block shape, both
    shifts and M itself are factored together.  The two constrained values
    come back as decoupled unit rows, which add 1 to the count of positive
    eigenvalues and change no other count.  A pivot of M that is not positive
    definite raises the assembly error; a form gets None where one of its
    other pivots is singular to rounding or not finite, which leaves its
    count undecided.
    """
    diag, off = (np.stack([form for mat in mats
                           for s, m in [(mat.stiffness_blocks[k], mat.mass_blocks[k])]
                           for form in (s + neg_tol * m, s - neg_tol * m, m)])
                 for k in (0, 1))
    nodes, n = diag.shape[1:3]
    # each form's floor from its two shifted forms, before the unit rows go in
    scale = np.maximum(np.abs(diag).max(axis=(1, 2, 3)), np.abs(off).max(axis=(1, 2, 3)))
    floors = (n * nodes - 2) * np.finfo(float).eps * scale.reshape(-1, 3)[:, :2].max(axis=1)
    diag[:, [0, -1], 0, 0] = 1.0
    diag, off = diag.swapaxes(0, 1), off.swapaxes(0, 1)
    pivots = np.empty_like(diag)
    pivot = pivots[0] = diag[0]
    try:
        for e, (b, bt) in enumerate(zip(off, off.swapaxes(-1, -2))):
            pivot = pivots[e + 1] = diag[e + 1] - bt @ _solve(pivot, b)
    except np.linalg.LinAlgError:
        # a singular pivot block: count each form alone, so only its own falls back
        return [None] if len(mats) == 1 else [_inertia_counts([m], neg_tol)[0] for m in mats]
    counts = []
    for form, floor in zip(np.split(pivots, len(mats), axis=1), floors):
        if not (np.all(np.isfinite(form[:, 2])) and np.all(np.linalg.eigvalsh(form[:, 2]) > 0)):
            raise RuntimeError("indefinite assembly error (mass not positive definite)")
        form = form[:, :2]
        eigs = np.linalg.eigvalsh(form) if np.all(np.isfinite(form)) else None  # (nodes, 2, n)
        if eigs is None or np.any(np.abs(eigs) <= floor):
            counts.append(None)
        else:
            k = int(np.sum(eigs[:, 0] < 0))
            counts.append((k, int(np.sum(eigs[:, 1] < 0)) - k))
    return counts


def morse_indices_quadratic(mats, neg_tol=NEG_EIG_TOL):
    """Index and nullity estimate of each discretized form (mass-normalized):
    its generalized eigenvalues below -neg_tol and those within neg_tol of 0.

    The forms, and each form's stiffness and mass, must share one node-block
    shape.  They are counted together by inertia, without the spectrum;
    where the pivots leave a count undecided, the full spectrum of that form
    counts it.
    """
    if len({(diag.shape, off.shape) for mat in mats
            for diag, off in (mat.stiffness_blocks, mat.mass_blocks)}) > 1:
        raise ValueError("forms counted together, and each form's stiffness and mass, "
                         "must share one node-block shape")
    counts = _inertia_counts(mats, neg_tol) if mats else []
    for i, mat in enumerate(mats):
        if counts[i] is None:
            eigs = mat.eigenvalues
            counts[i] = int(np.sum(eigs < -neg_tol)), int(np.sum(np.abs(eigs) <= neg_tol))
    return counts


def morse_index_quadratic(mat: IndexFormMatrix, neg_tol=NEG_EIG_TOL):
    """Index and nullity estimate of one discretized form; see
    ``morse_indices_quadratic``."""
    return morse_indices_quadratic([mat], neg_tol)[0]


def index_form_spectrum(mat: IndexFormMatrix, n_lowest=8):
    """The ``n_lowest`` smallest generalized eigenvalues, ascending."""
    return mat.eigenvalues[:n_lowest]


# ---------------------------------------------------------------------------
# degeneracy form at the arrival endpoint

def arrival_degeneracy_form(frame: JacobiFrame):
    """Bilinear form measuring failure of the arrival boundary condition.

    Restricted to Jacobi solutions whose value at the return time is tangent
    to the boundary; it vanishes identically when every such solution also
    satisfies the arrival slope condition (maximal degeneracy).
    """
    end = frame.arrival
    g, nu, E, Y = end.g, end.nu, end.E, end.Y

    # coefficient combinations alpha with g(J_alpha(R), nu) = 0
    row = metric_inner(g, E.T, nu) @ Y
    if np.linalg.norm(row) < 1e-8 * max(np.linalg.norm(Y), 1.0):
        raise MaximalDegeneracyError("contradiction with maximal degeneracy")
    _, _, vt = np.linalg.svd(row.reshape(1, -1))
    basis = vt[1:].T              # (n, n-1) null-space basis

    # the solutions' chart values at R as rows, and their tangent parts
    J = (E @ (Y @ basis)).T
    Jp = (E @ (end.Yp @ basis)).T
    tangent = J - metric_inner(g, J, nu)[:, None] * nu
    # entry (i, j) as the 1-d products of its pair: (tangent_i @ S) @ tangent_j;
    # arrival velocity is the outward normal: S_{gamma'(R)} = -S_nu
    shaped = (tangent[:, None, :] @ end.S)[:, 0]
    curved = row_dot(shaped[:, None, :], tangent[None, :, :])
    return -curved + metric_inner(g, Jp[:, None, :], J[None, :, :])
