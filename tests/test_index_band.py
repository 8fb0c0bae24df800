"""Node-block storage, inertia counts and the LAPACK band solve of the
discretized index form.

The dense generalized ``scipy.linalg.eigh`` on the expanded matrices is the
reference; it lives here only.
"""
import ctypes
import dataclasses
import os
import sys
import threading

import numpy as np
import pytest
from scipy import linalg as sla

import zollab.jacobi as jacobi
import zollab.verifier as verifier
from zollab.cli import run
from zollab.jacobi import (
    NEG_EIG_TOL,
    IndexFormMatrix,
    _band,
    _band_to_dense,
    _inertia_counts,
    _node_blocks,
    assemble_index_form,
    index_form_eigenvalues,
    index_form_spectrum,
    integrate_jacobi_frame,
    morse_index_quadratic,
    morse_indices_quadratic,
)
from zollab.manifest import RunManifest, load_manifold

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
from workloads import generate  # noqa: E402

CERTIFIED_KEYS = ["flat_disk", "flat_band", "flat_moebius", "spherical_cap",
                  "spherical_band", "euclidean_ball3", "solid_torus"]


@pytest.fixture(scope="module")
def frames(specs, sweeps):
    return {key: integrate_jacobi_frame(specs[key], sweeps[key].paths[0])
            for key in CERTIFIED_KEYS}


def _assemble(key, mesh, specs, frames):
    return assemble_index_form(specs[key], frames[key], mesh)


def _dense_eigenvalues(mat):
    return sla.eigh(mat.stiffness, mat.mass, eigvals_only=True)


def _element_band(local, n, N):
    """The band of the reduced form scattered from the element matrices one
    entry at a time (``np.add.at``): the reference for ``_band`` of the node
    blocks. Element e couples full indices e*n .. e*n + 2n - 1; the full
    indices 0 and n*N are dropped, and each element enters with its
    symmetric part."""
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
    return band


@pytest.mark.parametrize("n,N", [(2, 16), (3, 5), (3, 64)])
def test_node_blocks_band_is_the_element_scatter(n, N, rng):
    # signed zeros included: each entry is summed from 0.0 as np.add.at sums it
    local = rng.standard_normal((N, 2 * n, 2 * n))
    local[rng.random(local.shape) < 0.2] = -0.0
    diag, off = _node_blocks(local, n)
    assert diag.shape == (N + 1, n, n) and off.shape == (N, n, n)
    assert not diag.flags.writeable and not off.flags.writeable
    assert not diag[[0, -1], 0].any() and not diag[[0, -1], :, 0].any()
    assert not off[0, 0].any() and not off[-1, :, 0].any()
    band = _band((diag, off))
    assert band.flags.f_contiguous and band.flags.writeable
    assert band.tobytes() == _element_band(local, n, N).tobytes()


def test_node_blocks_match_dense_scatter(rng):
    # reference: dense assembly of the element matrices, the two velocity
    # endpoint values dropped, then symmetrized
    n, N = 3, 5
    local = rng.standard_normal((N, 2 * n, 2 * n))
    dof = n * (N + 1)
    dense = np.zeros((dof, dof))
    for e in range(N):
        dense[e * n:e * n + 2 * n, e * n:e * n + 2 * n] += local[e]
    keep = np.ones(dof, dtype=bool)
    keep[0] = keep[n * N] = False
    dense = dense[np.ix_(keep, keep)]
    dense = 0.5 * (dense + dense.T)

    band = _band(_node_blocks(local, n))
    assert band.shape == (2 * n, dof - 2)
    i, j = np.nonzero(dense)
    assert np.max(j - i) == 2 * n - 1          # every block-tridiagonal entry is kept
    assert np.abs(_band_to_dense(band) - dense).max() <= 1e-15 * np.abs(dense).max()


@pytest.mark.parametrize("key", ["flat_disk", "spherical_cap", "euclidean_ball3"])
def test_band_spectrum_matches_dense(key, specs, frames):
    mat = _assemble(key, 128, specs, frames)
    band = index_form_eigenvalues(mat)
    dense = _dense_eigenvalues(mat)
    assert band.shape == dense.shape == (mat.stiffness.shape[0],)
    assert np.all(np.diff(band) >= 0.0)
    assert np.abs(band - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.array_equal(index_form_spectrum(mat, 8), band[:8])


@pytest.mark.parametrize("key", CERTIFIED_KEYS)
def test_index_counts_match_dense(key, specs, frames):
    mat = _assemble(key, 256, specs, frames)
    dense = _dense_eigenvalues(mat)
    expected = (int(np.sum(dense < -NEG_EIG_TOL)), int(np.sum(np.abs(dense) <= NEG_EIG_TOL)))
    assert morse_index_quadratic(mat) == expected


def _spectrum_counts(mat):
    eigs = index_form_eigenvalues(mat)
    return int(np.sum(eigs < -NEG_EIG_TOL)), int(np.sum(np.abs(eigs) <= NEG_EIG_TOL))


@pytest.mark.parametrize("mesh", [64, 256, 512])
def test_inertia_counts_match_dsbgv(mesh, catalog_sweeps):
    # the unpivoted block LDL^T counts, not their fallback, on the first
    # returned geodesic of every certified catalog example, one form at a
    # time and the forms of one band shape together
    groups = {}
    for name, (spec, sweep) in catalog_sweeps.items():
        if not spec.annotations.get("zoll"):
            continue
        mat = assemble_index_form(spec, integrate_jacobi_frame(spec, sweep.paths[0]),
                                  mesh)
        expected = _spectrum_counts(mat)
        assert _inertia_counts([mat], NEG_EIG_TOL) == [expected], name
        groups.setdefault(mat.stiffness_blocks[0].shape, []).append((mat, expected))
    assert len(groups) == 2                     # dimensions 2 and 3
    for group in groups.values():
        mats, expected = map(list, zip(*group))
        assert len(mats) > 1
        assert _inertia_counts(mats, NEG_EIG_TOL) == expected
        assert morse_indices_quadratic(mats) == expected
        assert [morse_index_quadratic(mat) for mat in mats] == expected
        assert all(mat._spectrum is None for mat in mats)  # no spectrum solve started


def test_singular_pivot_falls_back_to_the_spectrum(specs, frames):
    # S = -tol M makes S + tol M vanish: every pivot of that form is singular,
    # and only that form of a batch is counted from its spectrum
    mat = _assemble("flat_disk", 64, specs, frames)
    shifted = dataclasses.replace(mat, stiffness_blocks=tuple(
        -NEG_EIG_TOL * b for b in mat.mass_blocks))
    assert _inertia_counts([shifted], NEG_EIG_TOL) == [None]
    assert _inertia_counts([mat, shifted], NEG_EIG_TOL) == [_spectrum_counts(mat), None]
    assert morse_indices_quadratic([mat, shifted]) == [_spectrum_counts(mat),
                                                       _spectrum_counts(shifted)]
    assert shifted._spectrum is not None


def test_inertia_floor_leaves_the_mass_out():
    # one pivot of S + tol M is 1e-14: above dof eps times the shifted forms'
    # largest entry (3e-3), below dof eps times M's (1e3), so the count is
    # decided only while M stays out of the floor
    n, N = 2, 16
    diag = np.tile(2e-3 * np.eye(n), (N + 1, 1, 1))
    diag[5, 1, 1] = -1e-3 + 1e-14
    mass = np.tile(1e3 * np.eye(n), (N + 1, 1, 1))
    diag[[0, -1], 0, 0] = mass[[0, -1], 0, 0] = 0.0
    off = np.zeros((N, n, n))
    mat = IndexFormMatrix((diag, off), (mass, off), n, None, None)
    assert _inertia_counts([mat], NEG_EIG_TOL) == [_spectrum_counts(mat)] == [(0, 1)]


def test_inertia_floor_leaves_a_count_to_the_spectrum():
    # one pivot of S + tol M is 1e-18, within the floor of dof eps times the
    # shifted forms' largest entry (2e-17): the count is left undecided, and
    # the form is counted from its spectrum
    n, N = 2, 16
    diag = np.tile(2e-3 * np.eye(n), (N + 1, 1, 1))
    mass = np.tile(1e3 * np.eye(n), (N + 1, 1, 1))
    diag[5, 1, 1] = -NEG_EIG_TOL * mass[5, 1, 1] + 1e-18
    assert 0.0 < diag[5, 1, 1] + NEG_EIG_TOL * mass[5, 1, 1] < 2e-18
    diag[[0, -1], 0, 0] = mass[[0, -1], 0, 0] = 0.0
    off = np.zeros((N, n, n))
    mat = IndexFormMatrix((diag, off), (mass, off), n, None, None)
    assert _inertia_counts([mat], NEG_EIG_TOL) == [None]
    assert mat._spectrum is None
    assert morse_indices_quadratic([mat]) == [_spectrum_counts(mat)] == [(0, 1)]
    assert mat._spectrum is not None


def test_forms_counted_together_share_a_shape(specs, frames):
    small = _assemble("flat_disk", 64, specs, frames)
    large = _assemble("flat_disk", 128, specs, frames)
    with pytest.raises(ValueError, match="one node-block shape"):
        morse_indices_quadratic([small, large])


def test_spectrum_solved_once_and_read_only(specs, frames):
    mat = _assemble("flat_disk", 64, specs, frames)
    morse_index_quadratic(mat)
    assert mat.eigenvalues is mat.eigenvalues
    assert not mat.eigenvalues.flags.writeable
    assert not any(b.flags.writeable for b in mat.stiffness_blocks + mat.mass_blocks)


def _broken_masses(mat):
    """The form with its mass negated, zero, NaN, and with one indefinite node
    block, and the message each raises: M's own pivots decide, or, where one
    of them is exactly singular, dsbgv's factorization of M."""
    diag, off = mat.mass_blocks
    indefinite = diag.copy()
    indefinite[5] = np.diag(np.arange(mat.dimension) - 0.5)
    pivots = r"mass not positive definite"
    return [(tuple(-b for b in mat.mass_blocks), pivots),
            (tuple(np.zeros_like(b) for b in mat.mass_blocks), r"dsbgv info=\d+"),
            (tuple(np.full_like(b, np.nan) for b in mat.mass_blocks), pivots),
            ((indefinite, off), pivots)]


def _assert_broken_masses_raise(mat):
    for mass, message in _broken_masses(mat):
        broken = dataclasses.replace(mat, mass_blocks=mass)
        with pytest.raises(RuntimeError, match=rf"^indefinite assembly error \({message}\)$"):
            morse_index_quadratic(broken)
        with pytest.raises(RuntimeError, match=rf"^indefinite assembly error \({message}\)$"):
            morse_indices_quadratic([mat, broken])


def test_mass_not_positive_definite_raises(specs, frames):
    _assert_broken_masses_raise(_assemble("flat_disk", 64, specs, frames))


def test_mass_not_positive_definite_raises_with_the_fallback(specs, frames, monkeypatch):
    _scipy_fallback(monkeypatch)
    _assert_broken_masses_raise(_assemble("flat_disk", 64, specs, frames))


def _started_pair(mat, mass):
    """Two copies of ``mat`` with mass blocks ``mass``, each with its solve started."""
    pair = [dataclasses.replace(mat, mass_blocks=mass) for _ in range(2)]
    for form in pair:
        form._start_spectrum()
    return pair


def test_failing_solve_raises_where_it_is_read(specs, frames, monkeypatch):
    # a solve that fails on the worker thread raises, where and whenever the
    # spectrum is read, what the calling thread's solve raises; one never
    # read leaves no unhandled thread exception, and no thread, behind
    mat = _assemble("flat_disk", 64, specs, frames)
    threads = set(threading.enumerate())
    for mass, _ in _broken_masses(mat):
        with pytest.raises(RuntimeError) as main_thread:
            index_form_eigenvalues(dataclasses.replace(mat, mass_blocks=mass))
        assert str(main_thread.value).startswith("indefinite assembly error (dsbgv info=")
        read, unread = _started_pair(mat, mass)
        for _ in range(2):
            with pytest.raises(RuntimeError) as raised:
                read.eigenvalues
            assert str(raised.value) == str(main_thread.value)
        _join(unread)

    # a dsbgv call that raises instead: its exception, at the read
    def raising(*args):
        raise ctypes.ArgumentError("argument 6: wrong type")

    monkeypatch.setattr(jacobi, "_LAPACK", (raising, *jacobi._LAPACK[1:]))
    read, unread = _started_pair(mat, mat.mass_blocks)
    with pytest.raises(ctypes.ArgumentError, match="^argument 6: wrong type$"):
        read.eigenvalues
    _join(unread)
    assert set(threading.enumerate()) == threads


def _join(mat):
    worker = mat._spectrum[0]
    worker.join(timeout=60)
    assert not worker.is_alive()


def test_concurrent_first_reads_share_one_solve(specs, frames, monkeypatch):
    # readers racing to start the spectrum of one fresh form, with threads
    # switched as often as the interpreter allows: one dsbgv call, one array
    mat = _assemble("flat_disk", 64, specs, frames)
    dsbgv, integer, lengths = jacobi._LAPACK
    calls = []

    def counted(*args):
        calls.append(None)
        dsbgv(*args)

    monkeypatch.setattr(jacobi, "_LAPACK", (counted, integer, lengths))
    for _ in range(4):
        form, reads = dataclasses.replace(mat), []
        readers = [threading.Thread(target=lambda: reads.append(form.eigenvalues))
                   for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert len(reads) == 8 and all(eigs is reads[0] for eigs in reads)
    assert len(calls) == 4


def test_report_spectrum_is_the_spectrum(tmp_path, monkeypatch):
    # the ball3-index seed-1 run: certify starts the report form's solve on a
    # worker thread; it is the spectrum the calling thread solves, read once
    # and kept, from the run's one dsbgv call, and no thread outlives the run
    manifest, _ = generate("ball3-index", 1)
    dsbgv, integer, lengths = jacobi._LAPACK
    callers = []

    def counted(*args):
        callers.append(threading.get_ident())
        dsbgv(*args)

    monkeypatch.setattr(jacobi, "_LAPACK", (counted, integer, lengths))
    threads = set(threading.enumerate())
    code, report = run(RunManifest.from_dict(manifest), out_dir=str(tmp_path), quiet=True)
    assert code == 0
    assert set(threading.enumerate()) == threads
    eigs = report.index_form.eigenvalues
    assert report.index_form.eigenvalues is eigs and not eigs.flags.writeable
    assert len(callers) == 1 and callers[0] != threading.get_ident()
    monkeypatch.undo()
    assert eigs.tobytes() == index_form_eigenvalues(report.index_form).tobytes()
    rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 1], eigs)


def test_mismatched_band_shapes_rejected(specs, frames):
    # one form whose mass blocks are one node short of its stiffness blocks
    mat = _assemble("flat_disk", 64, specs, frames)
    short = dataclasses.replace(mat, mass_blocks=tuple(b[1:] for b in mat.mass_blocks))
    with pytest.raises(ValueError, match="band shape"):
        index_form_eigenvalues(short)
    with pytest.raises(ValueError, match="one node-block shape"):
        morse_index_quadratic(short)


def test_cap_mesh_convergence(specs, frames):
    # P1 elements: the low eigenvalues converge at O(h^2), and the cap's
    # kernel eigenvalue reaches the 1e-6 window only at mesh 512
    eigs = {mesh: np.array(index_form_spectrum(
                _assemble("spherical_cap", mesh, specs, frames), 8))
            for mesh in (128, 256, 512)}
    order = np.log2(np.abs(eigs[128] - eigs[256]) / np.abs(eigs[256] - eigs[512]))
    assert np.all((order >= 1.9) & (order <= 2.1)), order
    assert np.min(np.abs(eigs[256])) > NEG_EIG_TOL
    assert np.min(np.abs(eigs[512])) <= NEG_EIG_TOL


@pytest.fixture(scope="module")
def ball3_index_run():
    """The three index forms the ball3-index workload's seed-1 run assembles,
    and the element matrices and node blocks of each of their stiffness and
    mass assemblies."""
    manifest, _ = generate("ball3-index", 1)
    mats, blocks = [], []

    def kept(*args):
        mats.append(assemble_index_form(*args))
        return mats[-1]

    def recorded(local, n):
        blocks.append((local, n, _node_blocks(local, n)))
        return blocks[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "assemble_index_form", kept)
        mp.setattr(jacobi, "_node_blocks", recorded)
        verifier.certify(load_manifold(manifest["manifold"]), manifest["launches"],
                         analyses=("certify", "jacobi"), mesh_size=manifest["mesh_size"])
    assert len(mats) == 3 and len(blocks) == 6
    return mats, blocks


@pytest.fixture(scope="module")
def ball3_index_forms(ball3_index_run):
    return ball3_index_run[0]


def test_ball3_index_forms_band_is_the_element_scatter(ball3_index_run):
    mats, blocks = ball3_index_run
    assert [b for mat in mats for b in (mat.stiffness_blocks, mat.mass_blocks)] == \
        [b for _, _, b in blocks]
    for local, n, node_blocks in blocks:
        assert _band(node_blocks).tobytes() == _element_band(local, n, len(local)).tobytes()


def _lapack_outcomes(mats):
    """Each form's dsbgv spectrum, and dsbgv's info with its mass negated,
    with the LAPACK routines bound now."""
    out = []
    for mat in mats:
        broken = dataclasses.replace(mat, mass_blocks=tuple(-b for b in mat.mass_blocks))
        try:
            index_form_eigenvalues(broken)
        except RuntimeError as exc:
            info = str(exc)
        out.append((index_form_eigenvalues(mat).tobytes(), info))
    return out


def _scipy_fallback(monkeypatch):
    """Bind LAPACK as where numpy bundles no OpenBLAS: from scipy's table."""
    monkeypatch.setattr(jacobi, "_numpy_openblas", lambda: None)
    monkeypatch.setattr(jacobi, "_LAPACK", jacobi._bind_lapack())


def test_numpy_openblas_is_the_scipy_binding_bit_for_bit(ball3_index_forms, monkeypatch):
    if jacobi._numpy_openblas() is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    ours = _lapack_outcomes(ball3_index_forms)
    _scipy_fallback(monkeypatch)
    assert _lapack_outcomes(ball3_index_forms) == ours
    assert all(info.startswith("indefinite assembly error (dsbgv info=") for _, info in ours)


def test_forced_fallback_gives_the_same_spectrum(ball3_index_forms, monkeypatch):
    mat = ball3_index_forms[0]
    want = index_form_eigenvalues(mat), morse_index_quadratic(mat)
    _scipy_fallback(monkeypatch)
    assert jacobi._LAPACK[1] is ctypes.c_int           # scipy's table, LP64
    assert index_form_eigenvalues(mat).tobytes() == want[0].tobytes()
    assert morse_index_quadratic(mat) == want[1]
    broken = dataclasses.replace(mat, mass_blocks=tuple(-b for b in mat.mass_blocks))
    with pytest.raises(RuntimeError, match=r"^indefinite assembly error \(mass not positive "
                                           r"definite\)$"):
        morse_index_quadratic(broken)
