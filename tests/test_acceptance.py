"""Acceptance criteria, one test per criterion, at the stated tolerances.

Certified examples: flat disk, flat band, flat Moebius band, spherical cap,
spherical band, 3-ball, solid torus (twisted); refutation control: ellipse.
"""
import json
import time

import numpy as np
import pytest

from test_verifier import slice_circumference
from zollab.catalog import make_example
from zollab.cli import run as cli_run
from zollab.engine import first_return_map, nearest_exact_launch_counts, sample_boundary
from zollab.jacobi import (
    arrival_degeneracy_form,
    assemble_index_form,
    focal_instants,
    integrate_jacobi_frame,
    morse_index_focal,
    morse_index_quadratic,
)
from zollab.manifest import RunManifest
from zollab.verifier import (
    MIN_LAUNCHES,
    Tolerances,
    boundary_components,
    build_soul,
    certify,
    fiber_analysis,
    intercomponent_distance,
    slice_distance_check,
    soul_dimension_check,
    splitting_residual,
)

CERTIFIED_KEYS = ["flat_disk", "flat_band", "flat_moebius", "spherical_cap",
                  "spherical_band", "euclidean_ball3", "solid_torus"]
EXPECTED_INDEX = {"flat_band": 0, "flat_moebius": 0, "flat_disk": 1,
                  "spherical_cap": 1, "euclidean_ball3": 2, "solid_torus": 1,
                  "spherical_band": 0}
ONE_BOUNDARY = ["flat_disk", "flat_moebius", "spherical_cap", "euclidean_ball3",
                "solid_torus"]
TWO_BOUNDARY = ["flat_band", "spherical_band"]

TOL = Tolerances()


def _announce(num, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {label}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def frames(sweeps):
    out = {}
    for key in CERTIFIED_KEYS:
        paths = sweeps[key].paths
        spots = np.linspace(0, len(paths) - 1, 3).astype(int)
        out[key] = [(paths[i], integrate_jacobi_frame(paths[i]))
                    for i in spots]
    return out


def test_c01_constant_length(specs):
    worst = {}
    for key in CERTIFIED_KEYS:
        spec = specs[key]
        t0 = time.perf_counter()
        launches = sample_boundary(spec, 64, seed=0)
        sweep = first_return_map(spec, launches)
        elapsed = time.perf_counter() - t0
        rt = sweep.return_times
        spread = rt.max() - rt.min()
        assert len(sweep.errors) == 0, key
        assert spread <= 1e-8 * rt.mean(), (key, spread)
        assert elapsed <= 10.0, (key, elapsed)
        worst[key] = spread / rt.mean()
    _announce(1, "constant length over 64 launches", True,
              f"worst relative spread {max(worst.values()):.2e}")


def test_c02_orthogonal_arrival(sweeps):
    for key in CERTIFIED_KEYS:
        dev = max(p.normal_deviation for p in sweeps[key].paths)
        assert dev <= 1e-7, (key, dev)
    ell = certify(make_example("ellipse"), 64, TOL)
    assert ell.verdict == "refuted"
    assert ell.orthogonality_max >= 1e-3
    _announce(2, "orthogonal arrival; ellipse control refuted", True,
              f"ellipse max deviation {ell.orthogonality_max:.2e}")


def test_c03_component_bound(specs, sweeps):
    expected = {"flat_disk": 1, "spherical_cap": 1, "flat_moebius": 1,
                "euclidean_ball3": 1, "solid_torus": 1,
                "flat_band": 2, "spherical_band": 2}
    for key, want in expected.items():
        sweep = sweeps[key]
        comp = boundary_components(specs[key], sweep.launch_set,
                                   {p.index: p.arrival_point for p in sweep.paths})
        assert comp.count == want, (key, comp.count)
        assert comp.pairing_ok, key
        if want == 2:
            assert EXPECTED_INDEX[key] == 0
            d = intercomponent_distance(specs[key], sweep.launch_set, comp.labels)
            two_L = float(np.mean(sweep.return_times))
            assert abs(d - two_L) <= 1e-6 * two_L, (key, d, two_L)
    _announce(3, "boundary component count and two-component distance", True)


def test_c04_morse_index_two_ways(sweeps):
    details = []
    for key in CERTIFIED_KEYS:
        t0 = time.perf_counter()
        frame = integrate_jacobi_frame(sweeps[key].paths[0])
        k_focal = morse_index_focal(focal_instants(frame))
        mat = assemble_index_form(frame, 256)
        k_quad, _ = morse_index_quadratic(mat, neg_tol=1e-6)
        elapsed = time.perf_counter() - t0
        assert k_focal == k_quad == EXPECTED_INDEX[key], (key, k_focal, k_quad)
        assert elapsed <= 30.0, (key, elapsed)
        details.append(f"{key}:{k_focal}")
    _announce(4, "Morse index agrees between focal count and quadratic form", True,
              " ".join(details))


def test_c05_midpoint_focal_law(frames):
    for key in ONE_BOUNDARY:
        k = EXPECTED_INDEX[key]
        for rec, frame in frames[key]:
            record = focal_instants(frame)
            L = rec.return_time / 2.0
            if k > 0:
                assert record.instants, (key, "expected a focal instant")
                for inst in record.instants:
                    assert abs(inst.time - L) <= 1e-6 * L, (key, inst.time, L)
                    assert inst.multiplicity == k, (key, inst.multiplicity)
            else:
                assert not record.instants, (key, record.instants)
    for key in TWO_BOUNDARY:
        spec_frames = frames[key]
        for rec, frame in spec_frames:
            assert not focal_instants(frame).instants, key
    _announce(5, "focal instants sit at the midpoint with multiplicity k", True)


def test_c06_maximal_degeneracy(specs, frames):
    worst_null = {}
    worst_a = 0.0
    for key in CERTIFIED_KEYS:
        spec = specs[key]
        n = spec.dimension
        for rec, frame in frames[key]:
            mat = assemble_index_form(frame, 512)
            _, nullity = morse_index_quadratic(mat, neg_tol=1e-6)
            assert nullity >= n - 1, (key, nullity, n - 1)
            worst_null[key] = nullity
            a_norm = float(np.linalg.norm(arrival_degeneracy_form(frame)))
            assert a_norm <= 1e-6, (key, a_norm)
            worst_a = max(worst_a, a_norm)
    _announce(6, "maximal degeneracy: nullity >= n-1 at mesh 512, arrival form ~ 0",
              True, f"max arrival-form norm {worst_a:.2e}")


def test_c07_soul_dimension(specs, sweeps):
    expected = {"flat_disk": 0, "flat_moebius": 1, "spherical_cap": 0,
                "euclidean_ball3": 0, "solid_torus": 1}
    for key, want in expected.items():
        cloud = build_soul(specs[key], sweeps[key], TOL)
        n = specs[key].dimension
        k = EXPECTED_INDEX[key]
        assert cloud.dimension_estimate == want == n - 1 - k, (key, cloud.dimension_estimate)
        assert soul_dimension_check(cloud, n, k)["passed"]
    _announce(7, "soul dimension equals n - 1 - k on one-boundary examples", True)


def test_c08_fiber_structure(specs, sweeps):
    # Moebius, N = 128: 64 partner pairs and a nontrivial two-fold cover
    mo = specs["flat_moebius"]
    mo_sweep = first_return_map(mo, sample_boundary(mo, 128, seed=0))
    fib, _ = fiber_analysis(mo, mo_sweep, 0, TOL)
    L = float(np.mean(mo_sweep.return_times) / 2.0)
    assert fib["cluster_count"] == 64
    assert fib["cluster_sizes_minmax"] == [2, 2]
    assert fib["partner_residual"] <= TOL.partner_rel * L
    assert fib["nontrivial_cover"] is True

    # disk, N = 128: one cluster, the whole boundary circle, PCA dimension 1
    disk = specs["flat_disk"]
    disk_sweep = first_return_map(disk, sample_boundary(disk, 128, seed=0))
    fib_d, _ = fiber_analysis(disk, disk_sweep, 1, TOL)
    assert fib_d["cluster_count"] == 1
    assert fib_d["cluster_sizes_minmax"] == [128, 128]
    assert fib_d["fiber_dimension"] == 1

    # solid torus: circle fibers over a one-dimensional soul
    st = specs["solid_torus"]
    fib_t, _ = fiber_analysis(st, sweeps["solid_torus"], 1, TOL)
    assert fib_t["fiber_dimension"] == 1
    cloud = build_soul(st, sweeps["solid_torus"], TOL)
    assert cloud.dimension_estimate == 1
    _announce(8, "fiber structure of the midpoint projection", True,
              f"moebius pairs={fib['cluster_count']}, "
              f"disk fiber dim={fib_d['fiber_dimension']}, "
              f"torus fiber dim={fib_t['fiber_dimension']}")


def test_c09_metric_splitting(specs):
    worst = 0.0
    for key in CERTIFIED_KEYS:
        spec = specs[key]
        n_side = 16 if spec.dimension <= 2 else 8
        res = splitting_residual(spec, n_side=n_side,
                                 t_fracs=[0.05, 0.25, 0.5, 0.75, 0.95])
        assert res["max_unit_residual"] <= 1e-6, (key, res["max_unit_residual"])
        assert res["max_cross_residual"] <= 1e-6, (key, res["max_cross_residual"])
        worst = max(worst, res["max_unit_residual"], res["max_cross_residual"])
    th = np.pi / 6
    for frac in (0.25, 0.5, 0.75):
        t = frac * th
        circ = slice_circumference(specs["spherical_band"], t, n_side=64)
        want = 2.0 * np.pi * np.cos(-th + t)
        assert abs(circ - want) <= 1e-5, (frac, circ, want)
    _announce(9, "metric splitting residuals and band slice circumference", True,
              f"worst residual {worst:.2e}")


def test_c10_slice_symmetry(specs, sweeps):
    worst = 0.0
    for key in ONE_BOUNDARY:
        sweep = sweeps[key]
        L = float(np.mean(sweep.return_times) / 2.0)
        for frac in (0.25, 0.5, 0.75):
            chk = slice_distance_check(specs[key], sweep, frac * L, TOL)
            assert chk["hausdorff"] <= 1e-6 * L, (key, frac, chk["hausdorff"])
            assert chk["passed"], (key, frac)
            worst = max(worst, chk["hausdorff"] / L)
    _announce(10, "slice symmetry Sigma_t = Sigma_{2L-t}", True,
              f"worst Hausdorff/L {worst:.2e}")


def test_c11_mapping_torus_and_index_ladder(specs):
    t0 = time.perf_counter()
    for alpha in (0.0, 2.0 * np.pi / 5.0):
        torus = make_example("solid_torus", rotation=alpha)
        rep = certify(torus, 64, TOL, analyses=("certify", "jacobi"), n_index_spots=3)
        assert rep.verdict == "certified", alpha
        assert abs(rep.half_length - 1.0) <= 1e-8, (alpha, rep.half_length)
        assert rep.index_focal == rep.index_quadratic == 1, alpha

    ladder_summary = []
    for n in range(2, 5):
        for k in range(n):
            spec = make_example("index_ladder", n=n, k=k)
            # smallest count >= 32 that the uniform grid gives exactly
            launches = nearest_exact_launch_counts(spec, MIN_LAUNCHES - 1)[1]
            rep = certify(spec, launches, TOL, analyses=("certify", "jacobi"),
                          n_index_spots=2)
            assert rep.verdict == "certified", (n, k)
            assert rep.index_focal == k, (n, k, rep.index_focal)
            assert abs(rep.half_length - 1.0) <= 1e-8, (n, k)
            ladder_summary.append(f"({n},{k})")
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0, elapsed
    _announce(11, "mapping torus preserves L and k; ladder covers all (n,k)", True,
              f"{' '.join(ladder_summary)} in {elapsed:.0f}s")


def test_c12_determinism(tmp_path):
    manifest = RunManifest(manifold={"catalog": "flat_moebius", "params": {}},
                           launches=64, seed=20240817, analyses=("all",))
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    code1, _ = cli_run(manifest, out_dir=str(d1), quiet=True)
    code2, _ = cli_run(manifest, out_dir=str(d2), quiet=True)
    assert code1 == code2 == 0
    b1 = (d1 / "report.json").read_bytes()
    b2 = (d2 / "report.json").read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["seed"] == 20240817
    _announce(12, "byte-identical report.json for identical manifests", True)
