import os
import sys

import numpy as np
import pytest

import zollab.geometry
import zollab.jacobi
from test_engine import assert_steps_bit_equal
from zollab.catalog import catalog_names, make_example
from zollab.cli import run
from zollab.engine import integrate_flow, lockstep_flows, project_to_boundary, shoot
from zollab.geometry import (
    gram_schmidt,
    inward_unit_normal,
    metric_inner,
    second_fundamental_form,
)
from zollab.jacobi import (
    FOCAL_SCAN,
    MIN_MESH_SIZE,
    DegenerateFamilyError,
    IndexFormMatrix,
    MaximalDegeneracyError,
    _frame_start,
    arrival_degeneracy_form,
    assemble_index_form,
    focal_instants,
    frame_vector_blocks,
    index_form_spectrum,
    integrate_jacobi_frame,
    integrate_jacobi_frames,
    jacobi_rhs,
    morse_index_focal,
    morse_index_quadratic,
)
from zollab.manifest import RunManifest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
from workloads import generate  # noqa: E402


def wronskian_drift(frame, n_check=64):
    """Max drift of Y'^T Y - Y^T Y' over n_check times of one stacked
    ``blocks_at`` call (zero for exact Jacobi frames)."""
    _, _, _, Y, Yp = frame.blocks_at(np.linspace(0.0, frame.return_time, n_check))
    W = Yp.swapaxes(-1, -2) @ Y - Y.swapaxes(-1, -2) @ Yp
    return float(np.abs(W).max())


@pytest.fixture(scope="module")
def frames(sweeps):
    out = {}
    for key in ["flat_disk", "flat_band", "flat_moebius", "spherical_cap",
                "spherical_band", "euclidean_ball3", "solid_torus", "ellipse"]:
        out[key] = integrate_jacobi_frame(sweeps[key].paths[0])
    return out


def assert_flows_bit_equal(got, want):
    """Samples, step tables, crossings and counters of two flows."""
    assert got.status == want.status
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert_steps_bit_equal(got, want)
    assert (got.nfev, got.n_steps) == (want.nfev, want.n_steps)


@pytest.mark.parametrize("name", catalog_names())
def test_lockstep_frames_bit_equal_to_integrate_flow(name, catalog_sweeps):
    # the frames of a jacobi run, stepped together, against each one alone
    spec, sweep = catalog_sweeps[name]
    spots = np.linspace(0, len(sweep.paths) - 1, min(6, len(sweep.paths))).astype(int)
    paths = [sweep.paths[i] for i in spots]
    frames = integrate_jacobi_frames(paths)
    starts, shapes = _frame_start(paths)
    for path, frame, y0, shape_sub in zip(paths, frames, starts, shapes):
        want = integrate_flow(spec, jacobi_rhs(spec), y0, path.return_time,
                              vector_blocks=frame_vector_blocks(spec.dimension),
                              detect_boundary=False)
        assert frame.path is path
        assert frame.shape_launch.tobytes() == shape_sub.tobytes()
        assert_flows_bit_equal(frame.flow, want)
        assert_flows_bit_equal(integrate_jacobi_frame(path).flow, want)


def test_lockstep_frames_transported_across_the_flip():
    # frames along geodesics tilted off the normal cross the Moebius flip, each
    # up to its own end time, so the velocity and E blocks are transported
    spec = make_example("flat_moebius")
    n = spec.dimension
    p = spec.boundary_patches[0].points(np.linspace(0.05, 0.95, 6)[:, None])
    y0 = []
    starts, _ = _frame_start([shoot(spec, q) for q in p])
    for angle, y in zip(np.linspace(-1.4, 1.4, len(p)), starts):
        turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        y[n:2 * n] = turn @ y[n:2 * n]
        y[2 * n:2 * n + n * n] = (turn @ y[2 * n:2 * n + n * n].reshape(n, n)).ravel()
        y0.append(y)
    t_end = np.linspace(6.0, 9.0, len(y0))
    rhs = jacobi_rhs(spec)
    blocks = frame_vector_blocks(n)
    flows = lockstep_flows(spec, rhs, y0, t_end, vector_blocks=blocks, detect_boundary=False)
    for y, t, got in zip(y0, t_end, flows):
        assert got.times[-1] == t
        assert_flows_bit_equal(got, integrate_flow(spec, rhs, y, t, vector_blocks=blocks,
                                                   detect_boundary=False))
    assert sum(len(f.deck_crossings) for f in flows) >= len(flows)
    assert all(d.differential(p[0])[0, 0] == -1.0 for d in spec.deck_maps)


@pytest.mark.parametrize("name", ["spherical_cap", "euclidean_ball"])
def test_jacobi_rhs_evaluates_christoffel_once(name, monkeypatch):
    # one Christoffel evaluation for the geodesic and transport terms, which
    # the curvature operator reuses, and 2n for its central differences
    spec = make_example(name)
    n = spec.dimension
    y, _ = _frame_start([shoot(spec, q) for q in
                         spec.boundary_patches[0].points([[0.2] * (n - 1), [0.7] * (n - 1)])])
    calls = {"christoffel_raw": 0, "curvature_operator_raw": 0}

    def count(module, fname):
        original = getattr(module, fname)

        def counted(*args, **kwargs):
            calls[fname] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, fname, counted)

    for module in (zollab.geometry, zollab.jacobi):
        count(module, "christoffel_raw")
    count(zollab.jacobi, "curvature_operator_raw")
    jacobi_rhs(spec)(None, y)
    assert calls == {"christoffel_raw": 2 * n + 1, "curvature_operator_raw": 1}


class TestFrameClosedForms:
    def test_disk_linear_decay(self, frames):
        # flat disk, S = 1/L: tangential solution (1 - t/L), vanishing at L
        fr = frames["flat_disk"]
        for t in [0.0, 0.4, 1.0, 1.7, 2.0]:
            Y = fr.jacobi_block(t)
            assert Y[1, 0] == pytest.approx(1.0 - t, abs=1e-9)
            assert abs(Y[0, 0]) < 1e-9
            # last column is t * gamma'(t)
            assert Y[0, 1] == pytest.approx(t, abs=1e-9)

    def test_band_constant_solution(self, frames):
        # totally geodesic boundary: S = 0, flat: J identically constant
        fr = frames["flat_band"]
        for t in [0.0, 0.9, 2.0]:
            Y = fr.jacobi_block(t)
            assert Y[1, 0] == pytest.approx(1.0, abs=1e-10)

    def test_cap_sine_solution(self, frames):
        # round sphere cap radius L: J(t) = sin(L - t)/sin(L)
        L = np.pi / 6
        fr = frames["spherical_cap"]
        for t in np.linspace(0.0, 2 * L, 7):
            Y = fr.jacobi_block(t)
            assert Y[1, 0] == pytest.approx(np.sin(L - t) / np.sin(L), abs=1e-8)

    def test_spherical_band_cosine_solution(self, frames):
        # rotational solution cos(latitude(t)) scaled to 1 at launch
        th = np.pi / 6
        fr = frames["spherical_band"]
        for t in np.linspace(0.0, 2 * th, 7):
            Y = fr.jacobi_block(t)
            assert Y[1, 0] == pytest.approx(np.cos(-th + t) / np.cos(th), abs=1e-8)

    @pytest.mark.parametrize("key", ["flat_disk", "spherical_cap", "euclidean_ball3",
                                     "solid_torus", "ellipse"])
    def test_wronskian_symmetry(self, key, frames):
        assert wronskian_drift(frames[key]) < 1e-8

    def test_velocity_column_never_focal(self, frames):
        # the t*gamma'(t) solution keeps its singular direction bounded away
        # from zero for t > 0 (correct initialization)
        fr = frames["flat_band"]
        R = fr.return_time
        for t in np.linspace(1e-4 * R, R, 16):
            Y = fr.jacobi_block(t).copy()
            Y[:, -1] /= t
            s = np.linalg.svd(Y, compute_uv=False)
            assert s[-1] > 0.5


class TestFocalInstants:
    def test_band_empty(self, frames):
        rec = focal_instants(frames["flat_band"])
        assert rec.instants == [] and rec.endpoint_instants == []
        assert morse_index_focal(rec) == 0

    def test_disk_single_focal_at_midpoint(self, frames):
        rec = focal_instants(frames["flat_disk"])
        assert len(rec.instants) == 1
        inst = rec.instants[0]
        assert inst.time == pytest.approx(1.0, abs=1e-9)
        assert inst.multiplicity == 1
        assert morse_index_focal(rec) == 1

    def test_cap_focal_at_midpoint(self, frames):
        rec = focal_instants(frames["spherical_cap"])
        assert len(rec.instants) == 1
        assert rec.instants[0].time == pytest.approx(np.pi / 6, abs=1e-8)

    def test_ball_double_multiplicity(self, frames):
        rec = focal_instants(frames["euclidean_ball3"])
        assert len(rec.instants) == 1
        assert rec.instants[0].time == pytest.approx(1.0, abs=1e-9)
        assert rec.instants[0].multiplicity == 2
        assert morse_index_focal(rec) == 2

    def test_return_time_consistency_check(self, frames):
        rec = focal_instants(frames["flat_disk"])
        assert morse_index_focal(rec) == 1


class TestIndexForm:
    def test_symmetry_and_boundary_blocks(self, frames):
        mat = assemble_index_form(frames["flat_disk"], 64)
        assert np.abs(mat.stiffness - mat.stiffness.T).max() <= 1e-12
        assert np.abs(mat.mass - mat.mass.T).max() <= 1e-12
        # boundary blocks carry -R * shape operator; disk: S = 1/L = 1, R = 2
        assert mat.boundary_block_launch[1, 1] == pytest.approx(-2.0, abs=1e-9)
        assert mat.boundary_block_arrival[1, 1] == pytest.approx(-2.0, abs=1e-9)

    def test_mesh_minimum(self, frames):
        with pytest.raises(ValueError, match="mesh_size"):
            assemble_index_form(frames["flat_disk"], 8)

    def test_disk_exactly_one_negative_eigenvalue(self, frames):
        mat = assemble_index_form(frames["flat_disk"], 256)
        eigs = index_form_spectrum(mat, 4)
        assert int(np.sum(eigs < -1e-6)) == 1
        k, nullity = morse_index_quadratic(mat)
        assert k == 1 and nullity >= 1

    def test_band_positive_semidefinite_with_kernel(self, specs, frames):
        band = specs["flat_band"]
        for mesh in [64, 128]:
            mat = assemble_index_form(frames["flat_band"], mesh)
            k, nullity = morse_index_quadratic(mat)
            assert k == 0
            assert nullity >= band.dimension - 1

    def test_mesh_doubling_stabilizes_low_spectrum(self, frames):
        # the five smallest eigenvalues move by < 1e-3 relative when the mesh
        # doubles (scale set by the spectral range)
        m1 = assemble_index_form(frames["spherical_cap"], 128)
        m2 = assemble_index_form(frames["spherical_cap"], 256)
        e1 = index_form_spectrum(m1, 5)
        e2 = index_form_spectrum(m2, 5)
        scale = max(abs(e2[0]), abs(e2[-1]))
        assert np.max(np.abs(e1 - e2)) < 1e-3 * scale

    @pytest.mark.parametrize("key,expected", [("flat_band", 0), ("flat_moebius", 0),
                                              ("flat_disk", 1), ("spherical_cap", 1),
                                              ("euclidean_ball3", 2), ("solid_torus", 1)])
    def test_two_index_computations_agree(self, key, expected, frames):
        rec = focal_instants(frames[key])
        k_f = morse_index_focal(rec)
        mat = assemble_index_form(frames[key], 128)
        k_q, _ = morse_index_quadratic(mat)
        assert k_f == k_q == expected


class TestArrivalDegeneracyForm:
    def test_band_exact_zero(self, frames):
        A = arrival_degeneracy_form(frames["flat_band"])
        assert A.shape == (1, 1)
        assert np.abs(A).max() == 0.0

    def test_disk_vanishes(self, frames):
        A = arrival_degeneracy_form(frames["flat_disk"])
        assert np.linalg.norm(A) <= 1e-8

    def test_certified_examples_vanish(self, frames):
        for key in ["spherical_cap", "spherical_band", "euclidean_ball3", "solid_torus"]:
            A = arrival_degeneracy_form(frames[key])
            assert np.linalg.norm(A) <= 1e-6, key

    def test_ellipse_generic_chord_nonzero(self, sweeps):
        # generic non-axis chord: the form does not vanish
        frame = integrate_jacobi_frame(sweeps["ellipse"].paths[3])
        A = arrival_degeneracy_form(frame)
        assert np.linalg.norm(A) > 1e-4

    def test_symmetric(self, frames):
        A = arrival_degeneracy_form(frames["solid_torus"])
        assert np.abs(A - A.T).max() <= 1e-8


class TestIndexEqualityAcrossLaunches:
    @pytest.mark.parametrize("key,expected", [("flat_disk", 1), ("flat_moebius", 0),
                                              ("spherical_cap", 1)])
    def test_sweep_has_single_index(self, key, expected, sweeps):
        frames = integrate_jacobi_frames(sweeps[key].paths)
        indices = {morse_index_focal(focal_instants(frame)) for frame in frames}
        assert indices == {expected}

    def test_focal_set_in_soul(self, sweeps):
        # every focal instant of a one-boundary example sits at the midpoint
        for key in ["flat_disk", "spherical_cap"]:
            for path in sweeps[key].paths[::8]:
                frame = integrate_jacobi_frame(path)
                rec = focal_instants(frame)
                L = path.return_time / 2.0
                for inst in rec.instants:
                    assert abs(inst.time - L) <= 1e-6 * L


class TestDegenerateFamily:
    # scan points whose Jacobi block loses rank: the middle third, runs of 6
    # points (just over 1% of R) at the start, middle and end of the scan,
    # and a run of 5 (just under), which is no sustained rank loss
    @pytest.mark.parametrize("first,count,raises", [
        (170, 171, True), (0, 6, True), (250, 6, True), (FOCAL_SCAN - 6, 6, True),
        (250, 5, False)], ids=["middle-third", "start", "middle", "end", "under-1%"])
    def test_sustained_rank_loss_raises(self, first, count, raises):
        ts = np.linspace(1e-6, 1.0, FOCAL_SCAN)
        dt = ts[1] - ts[0]
        lo, hi = ts[first] - dt / 2, ts[first + count - 1] + dt / 2

        class StubFrame:
            return_time = 1.0
            dimension = 2

            def jacobi_block(self, t):
                # first column collapses over (lo, hi); a time array gives the
                # stack of blocks, as JacobiFrame does
                t = np.asarray(t, dtype=float)
                col0 = np.where((lo < t) & (t < hi), 0.0, 1.0)
                zero = np.zeros_like(t)
                return np.stack([np.stack([zero, t], -1), np.stack([col0, zero], -1)], -2)

        if raises:
            with pytest.raises(DegenerateFamilyError, match="violates isolation"):
                focal_instants(StubFrame())
        else:
            focal_instants(StubFrame())


def reference_arrival_degeneracy_form(frame):
    """The arrival form as a per-pair loop over the point calls at the
    frame's end, projected, normalised and curved anew."""
    spec = frame.spec
    n = frame.dimension
    x, v, E, Y, Yp = frame.blocks_at(frame.return_time)
    q = project_to_boundary(spec, x)
    g = spec.metric.matrix(q)
    nu = inward_unit_normal(spec, q)
    S_full = second_fundamental_form(spec, q)
    c = np.array([metric_inner(g, E[:, a], nu) for a in range(n)])
    row = c @ Y
    if np.linalg.norm(row) < 1e-8 * max(np.linalg.norm(Y), 1.0):
        raise MaximalDegeneracyError("contradiction with maximal degeneracy")
    _, _, vt = np.linalg.svd(row.reshape(1, -1))
    basis = vt[1:].T
    A = np.zeros((n - 1, n - 1))
    J = E @ (Y @ basis)
    Jp = E @ (Yp @ basis)
    for i in range(n - 1):
        Ji = J[:, i] - metric_inner(g, J[:, i], nu) * nu
        for j in range(n - 1):
            Jj = J[:, j] - metric_inner(g, J[:, j], nu) * nu
            A[i, j] = -float(Ji @ S_full @ Jj) + metric_inner(g, Jp[:, i], J[:, j])
    return A


def reference_arrival_block(frame):
    """-R S at arrival in the frame columns 1.. projected tangent at the
    projected end point and re-orthonormalized, from point calls."""
    spec = frame.spec
    n = frame.dimension
    R = frame.return_time
    q = project_to_boundary(spec, frame.blocks_at(R)[0])
    _, _, E, _, _ = frame.blocks_at(R)
    g = spec.metric.matrix(q)
    nu = inward_unit_normal(spec, q)
    rows = [E[:, a] - metric_inner(g, E[:, a], nu) * nu for a in range(1, n)]
    basis = gram_schmidt(g, np.array(rows))
    S = np.zeros((n, n))
    S[1:, 1:] = basis @ second_fundamental_form(spec, q) @ basis.T
    return -R * S


@pytest.mark.parametrize("name", catalog_names())
def test_arrival_record_matches_the_point_calls(name, catalog_sweeps):
    # the frames of a jacobi run: the arrival form and the index form's
    # arrival block, read off the stacked arrival record, hold the bytes of
    # the per-pair loop and the tangent frame over point calls
    spec, sweep = catalog_sweeps[name]
    spots = np.linspace(0, len(sweep.paths) - 1, min(6, len(sweep.paths))).astype(int)
    for frame in integrate_jacobi_frames([sweep.paths[i] for i in spots]):
        try:
            want = reference_arrival_degeneracy_form(frame)
        except MaximalDegeneracyError:
            with pytest.raises(MaximalDegeneracyError):
                arrival_degeneracy_form(frame)
        else:
            got = arrival_degeneracy_form(frame)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        block = assemble_index_form(frame, MIN_MESH_SIZE).boundary_block_arrival
        assert block.tobytes() == reference_arrival_block(frame).tobytes()


def test_a_jacobi_run_reads_each_frame_end_once(monkeypatch):
    # the ball3-index workload, seed 1, six frames: one stacked call of each
    # kernel for all frame starts, and one for all arrival records
    calls = {}

    def count(fname):
        original = getattr(zollab.jacobi, fname)

        def counted(*args, **kwargs):
            calls[fname] = calls.get(fname, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(zollab.jacobi, fname, counted)

    for fname in ("project_to_boundary", "inward_unit_normal", "boundary_tangent_basis",
                  "second_fundamental_form"):
        count(fname)
    manifest = RunManifest.from_dict(dict(generate("ball3-index", 1)[0], out_dir=""))
    code, report = run(manifest, quiet=True)
    assert code == 0 and report.index_focal == 2
    assert calls == {"project_to_boundary": 1, "inward_unit_normal": 1,
                     "boundary_tangent_basis": 1, "second_fundamental_form": 2}
