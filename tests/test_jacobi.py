import numpy as np
import pytest

import zollab.geometry
import zollab.jacobi
from test_engine import assert_steps_bit_equal
from zollab.catalog import catalog_names, make_example
from zollab.engine import integrate_flow, lockstep_flows, shoot
from zollab.jacobi import (
    IndexFormMatrix,
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


def wronskian_drift(frame, n_check=64):
    """Max drift of Y'^T Y - Y^T Y' over n_check times of one stacked
    ``blocks_at`` call (zero for exact Jacobi frames)."""
    _, _, _, Y, Yp = frame.blocks_at(np.linspace(0.0, frame.return_time, n_check))
    W = Yp.swapaxes(-1, -2) @ Y - Y.swapaxes(-1, -2) @ Yp
    return float(np.abs(W).max())


@pytest.fixture(scope="module")
def frames(specs, sweeps):
    out = {}
    for key in ["flat_disk", "flat_band", "flat_moebius", "spherical_cap",
                "spherical_band", "euclidean_ball3", "solid_torus", "ellipse"]:
        out[key] = integrate_jacobi_frame(specs[key], sweeps[key].paths[0])
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
    frames = integrate_jacobi_frames(spec, paths)
    for path, frame in zip(paths, frames):
        y0, shape_sub = _frame_start(spec, path)
        want = integrate_flow(spec, jacobi_rhs(spec), y0, path.return_time,
                              vector_blocks=frame_vector_blocks(spec.dimension),
                              detect_boundary=False)
        assert frame.path is path
        assert frame.shape_launch.tobytes() == shape_sub.tobytes()
        assert_flows_bit_equal(frame.flow, want)
        assert_flows_bit_equal(integrate_jacobi_frame(spec, path).flow, want)


def test_lockstep_frames_transported_across_the_flip():
    # frames along geodesics tilted off the normal cross the Moebius flip, each
    # up to its own end time, so the velocity and E blocks are transported
    spec = make_example("flat_moebius")
    n = spec.dimension
    p = spec.boundary_patches[0].points(np.linspace(0.05, 0.95, 6)[:, None])
    y0 = []
    for angle, q in zip(np.linspace(-1.4, 1.4, len(p)), p):
        path = shoot(spec, q)
        y, _ = _frame_start(spec, path)
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
    y = np.array([_frame_start(spec, shoot(spec, q))[0]
                  for q in spec.boundary_patches[0].points([[0.2] * (n - 1), [0.7] * (n - 1)])])
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
    def test_symmetry_and_boundary_blocks(self, specs, frames):
        mat = assemble_index_form(specs["flat_disk"], frames["flat_disk"], 64)
        assert np.abs(mat.stiffness - mat.stiffness.T).max() <= 1e-12
        assert np.abs(mat.mass - mat.mass.T).max() <= 1e-12
        # boundary blocks carry -R * shape operator; disk: S = 1/L = 1, R = 2
        assert mat.boundary_block_launch[1, 1] == pytest.approx(-2.0, abs=1e-9)
        assert mat.boundary_block_arrival[1, 1] == pytest.approx(-2.0, abs=1e-9)

    def test_mesh_minimum(self, specs, frames):
        with pytest.raises(ValueError, match="mesh_size"):
            assemble_index_form(specs["flat_disk"], frames["flat_disk"], 8)

    def test_disk_exactly_one_negative_eigenvalue(self, specs, frames):
        mat = assemble_index_form(specs["flat_disk"], frames["flat_disk"], 256)
        eigs = index_form_spectrum(mat, 4)
        assert int(np.sum(eigs < -1e-6)) == 1
        k, nullity = morse_index_quadratic(mat)
        assert k == 1 and nullity >= 1

    def test_band_positive_semidefinite_with_kernel(self, specs, frames):
        band = specs["flat_band"]
        for mesh in [64, 128]:
            mat = assemble_index_form(band, frames["flat_band"], mesh)
            k, nullity = morse_index_quadratic(mat)
            assert k == 0
            assert nullity >= band.dimension - 1

    def test_mesh_doubling_stabilizes_low_spectrum(self, specs, frames):
        # the five smallest eigenvalues move by < 1e-3 relative when the mesh
        # doubles (scale set by the spectral range)
        cap = specs["spherical_cap"]
        m1 = assemble_index_form(cap, frames["spherical_cap"], 128)
        m2 = assemble_index_form(cap, frames["spherical_cap"], 256)
        e1 = index_form_spectrum(m1, 5)
        e2 = index_form_spectrum(m2, 5)
        scale = max(abs(e2[0]), abs(e2[-1]))
        assert np.max(np.abs(e1 - e2)) < 1e-3 * scale

    @pytest.mark.parametrize("key,expected", [("flat_band", 0), ("flat_moebius", 0),
                                              ("flat_disk", 1), ("spherical_cap", 1),
                                              ("euclidean_ball3", 2), ("solid_torus", 1)])
    def test_two_index_computations_agree(self, key, expected, specs, frames):
        rec = focal_instants(frames[key])
        k_f = morse_index_focal(rec)
        mat = assemble_index_form(specs[key], frames[key], 128)
        k_q, _ = morse_index_quadratic(mat)
        assert k_f == k_q == expected


class TestArrivalDegeneracyForm:
    def test_band_exact_zero(self, specs, frames):
        A = arrival_degeneracy_form(specs["flat_band"], frames["flat_band"])
        assert A.shape == (1, 1)
        assert np.abs(A).max() == 0.0

    def test_disk_vanishes(self, specs, frames):
        A = arrival_degeneracy_form(specs["flat_disk"], frames["flat_disk"])
        assert np.linalg.norm(A) <= 1e-8

    def test_certified_examples_vanish(self, specs, frames):
        for key in ["spherical_cap", "spherical_band", "euclidean_ball3", "solid_torus"]:
            A = arrival_degeneracy_form(specs[key], frames[key])
            assert np.linalg.norm(A) <= 1e-6, key

    def test_ellipse_generic_chord_nonzero(self, specs, sweeps):
        # generic non-axis chord: the form does not vanish
        el = specs["ellipse"]
        frame = integrate_jacobi_frame(el, sweeps["ellipse"].paths[3])
        A = arrival_degeneracy_form(el, frame)
        assert np.linalg.norm(A) > 1e-4

    def test_symmetric(self, specs, frames):
        A = arrival_degeneracy_form(specs["solid_torus"], frames["solid_torus"])
        assert np.abs(A - A.T).max() <= 1e-8


class TestIndexEqualityAcrossLaunches:
    @pytest.mark.parametrize("key,expected", [("flat_disk", 1), ("flat_moebius", 0),
                                              ("spherical_cap", 1)])
    def test_sweep_has_single_index(self, key, expected, specs, sweeps):
        frames = integrate_jacobi_frames(specs[key], sweeps[key].paths)
        indices = {morse_index_focal(focal_instants(frame)) for frame in frames}
        assert indices == {expected}

    def test_focal_set_in_soul(self, specs, sweeps):
        # every focal instant of a one-boundary example sits at the midpoint
        for key in ["flat_disk", "spherical_cap"]:
            spec = specs[key]
            for path in sweeps[key].paths[::8]:
                frame = integrate_jacobi_frame(spec, path)
                rec = focal_instants(frame)
                L = path.return_time / 2.0
                for inst in rec.instants:
                    assert abs(inst.time - L) <= 1e-6 * L


class TestDegenerateFamily:
    def test_sustained_rank_loss_raises(self):
        # synthetic frame whose Jacobi block is singular on a whole interval
        from zollab.jacobi import DegenerateFamilyError

        class StubFrame:
            return_time = 1.0
            dimension = 2

            def jacobi_block(self, t):
                # first column collapses over the middle third of the interval;
                # a time array gives the stack of blocks, as JacobiFrame does
                t = np.asarray(t, dtype=float)
                col0 = np.where((0.3 < t) & (t < 0.7), 0.0, 1.0)
                zero = np.zeros_like(t)
                return np.stack([np.stack([zero, t], -1), np.stack([col0, zero], -1)], -2)

        with pytest.raises(DegenerateFamilyError, match="violates isolation"):
            focal_instants(StubFrame())
