"""Band storage and the LAPACK band solve of the discretized index form.

The dense generalized ``scipy.linalg.eigh`` on the expanded matrices is the
reference; it lives here only.
"""
import ctypes
import dataclasses
import os
import sys

import numpy as np
import pytest
from scipy import linalg as sla

import zollab.jacobi as jacobi
import zollab.verifier as verifier
from zollab.jacobi import (
    NEG_EIG_TOL,
    _band_to_dense,
    _element_band,
    _inertia_counts,
    assemble_index_form,
    index_form_eigenvalues,
    index_form_spectrum,
    integrate_jacobi_frame,
    morse_index_quadratic,
    morse_indices_quadratic,
)
from zollab.manifest import load_manifold

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


def test_element_band_matches_dense_scatter(rng):
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

    band = _element_band(local, n, N)
    assert band.shape == (2 * n, dof - 2)
    assert not band.flags.writeable
    i, j = np.nonzero(dense)
    assert np.max(j - i) == 2 * n - 1          # every block-tridiagonal entry is kept
    assert np.abs(_band_to_dense(band) - dense).max() <= 1e-15 * np.abs(dense).max()


@pytest.mark.parametrize("key", ["flat_disk", "spherical_cap", "euclidean_ball3"])
def test_band_spectrum_matches_dense(key, specs, frames):
    mat = _assemble(key, 128, specs, frames)
    band = index_form_eigenvalues(mat)
    dense = _dense_eigenvalues(mat)
    assert band.shape == dense.shape == (mat.stiffness_band.shape[1],)
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
        groups.setdefault(mat.stiffness_band.shape, []).append((mat, expected))
    assert len(groups) == 2                     # dimensions 2 and 3
    for group in groups.values():
        mats, expected = map(list, zip(*group))
        assert len(mats) > 1
        assert _inertia_counts(mats, NEG_EIG_TOL) == expected
        assert morse_indices_quadratic(mats) == expected
        assert [morse_index_quadratic(mat) for mat in mats] == expected
        assert not any("eigenvalues" in vars(mat) for mat in mats)  # no spectrum solved


def test_singular_pivot_falls_back_to_the_spectrum(specs, frames):
    # S = -tol M makes S + tol M vanish: every pivot of that form is singular,
    # and only that form of a batch is counted from its spectrum
    mat = _assemble("flat_disk", 64, specs, frames)
    shifted = dataclasses.replace(mat, stiffness_band=-NEG_EIG_TOL * mat.mass_band)
    assert _inertia_counts([shifted], NEG_EIG_TOL) == [None]
    assert _inertia_counts([mat, shifted], NEG_EIG_TOL) == [_spectrum_counts(mat), None]
    assert morse_indices_quadratic([mat, shifted]) == [_spectrum_counts(mat),
                                                       _spectrum_counts(shifted)]
    assert "eigenvalues" in vars(shifted)


def test_forms_counted_together_share_a_shape(specs, frames):
    small = _assemble("flat_disk", 64, specs, frames)
    large = _assemble("flat_disk", 128, specs, frames)
    with pytest.raises(ValueError, match="one band shape"):
        morse_indices_quadratic([small, large])


def test_spectrum_solved_once_and_read_only(specs, frames):
    mat = _assemble("flat_disk", 64, specs, frames)
    morse_index_quadratic(mat)
    assert mat.eigenvalues is mat.eigenvalues
    assert not mat.eigenvalues.flags.writeable
    assert not mat.stiffness_band.flags.writeable


def test_mass_not_positive_definite_raises(specs, frames):
    mat = _assemble("flat_disk", 64, specs, frames)
    broken = dataclasses.replace(mat, mass_band=-mat.mass_band)
    with pytest.raises(RuntimeError, match=r"^indefinite assembly error \(dpbtrf info=1\)$"):
        morse_index_quadratic(broken)


def test_mismatched_band_shapes_rejected(specs, frames):
    mat = _assemble("flat_disk", 64, specs, frames)
    with pytest.raises(ValueError, match="band shape"):
        index_form_eigenvalues(dataclasses.replace(mat, mass_band=mat.mass_band[1:]))


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
def ball3_index_forms():
    """The three index forms the ball3-index workload's seed-1 run assembles."""
    manifest, _ = generate("ball3-index", 1)
    mats = []

    def kept(*args):
        mats.append(assemble_index_form(*args))
        return mats[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "assemble_index_form", kept)
        verifier.certify(load_manifold(manifest["manifold"]), manifest["launches"],
                         analyses=("certify", "jacobi"), mesh_size=manifest["mesh_size"])
    assert len(mats) == 3
    return mats


def _lapack_outcomes(mats):
    """Each form's dsbgv spectrum, and dpbtrf's info on its mass band and on
    the negated one, with the LAPACK routines bound now."""
    out = []
    for mat in mats:
        broken = dataclasses.replace(mat, mass_band=-mat.mass_band)
        rows, dof = mat.mass_band.shape
        infos = [jacobi._lapack("dpbtrf", b"U", dof, rows - 1, np.asfortranarray(m.mass_band),
                                rows) for m in (mat, broken)]
        out.append((index_form_eigenvalues(mat).tobytes(), infos))
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
    assert all(infos[0] == 0 and infos[1] > 0 for _, infos in ours)


def test_forced_fallback_gives_the_same_spectrum(ball3_index_forms, monkeypatch):
    mat = ball3_index_forms[0]
    want = index_form_eigenvalues(mat), morse_index_quadratic(mat)
    _scipy_fallback(monkeypatch)
    assert jacobi._LAPACK[1] is ctypes.c_int           # scipy's table, LP64
    assert index_form_eigenvalues(mat).tobytes() == want[0].tobytes()
    assert morse_index_quadratic(mat) == want[1]
    broken = dataclasses.replace(mat, mass_band=-mat.mass_band)
    with pytest.raises(RuntimeError, match=r"^indefinite assembly error \(dpbtrf info=1\)$"):
        morse_index_quadratic(broken)
