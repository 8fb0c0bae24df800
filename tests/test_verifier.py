import dataclasses

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as csgraph_components

import zollab.rk45
import zollab.verifier as verifier
from test_engine import concentric_annulus
from zollab.catalog import make_example
from zollab.engine import first_return_map, sample_boundary
from zollab.geometry import QuotientCloud, metric_norm
from zollab.manifest import load_manifold
from zollab.verifier import (
    LaunchCountError,
    Tolerances,
    boundary_components,
    build_soul,
    certify,
    fiber_analysis,
    intercomponent_distance,
    nearest_boundary_distance,
    slice_distance_check,
    soul_dimension_check,
    splitting_residual,
)


class TestCertifyVerdicts:
    def test_disk_certified(self, specs):
        rep = certify(specs["flat_disk"], 64)
        assert rep.verdict == "certified"
        assert rep.half_length == pytest.approx(1.0, abs=1e-9)
        assert rep.component_count == 1
        assert rep.length_spread_rel <= rep.tolerances["length_rel"]
        assert rep.orthogonality_max <= rep.tolerances["orthogonality"]
        assert rep.grazing_count == 0

    def test_band_certified_two_components(self, specs):
        rep = certify(specs["flat_band"], 64)
        assert rep.verdict == "certified"
        assert rep.half_length == pytest.approx(1.0, abs=1e-9)
        assert rep.component_count == 2
        assert rep.component_pairing_ok
        assert rep.intercomponent_distance == pytest.approx(2.0, abs=1e-7)

    def test_ellipse_refuted(self, specs):
        rep = certify(specs["ellipse"], 64)
        assert rep.verdict == "refuted"
        assert rep.orthogonality_max > 1e-3
        assert rep.ground_truth["all_match"]

    def test_inconclusive_band_between_tolerances(self, specs):
        # loosen tolerances so the ellipse violations fall inside the 10x band
        tol = Tolerances(length_rel=0.2, orthogonality=0.2)
        rep = certify(specs["ellipse"], 64, tolerances=tol)
        assert rep.verdict == "inconclusive"

    def test_minimum_launch_count(self, specs):
        with pytest.raises(ValueError, match="certification minimum"):
            certify(specs["flat_disk"], 16)

    def test_inexact_launch_count_refused(self):
        # the 4-d index ladder of index 0 gives 18 launches when asked for 32
        ladder = make_example("index_ladder", n=4, k=0)
        with pytest.raises(LaunchCountError,
                           match="gives 18 launches when asked for 32; "
                                 "nearest counts it gives exactly: 36"):
            certify(ladder, 32)

    def test_deterministic_report(self, specs):
        rep1 = certify(specs["flat_moebius"], 32, seed=7, analyses=("certify",))
        rep2 = certify(specs["flat_moebius"], 32, seed=7, analyses=("certify",))
        assert rep1.to_dict() == rep2.to_dict()

    # the ellipse's longest chord is 4; t_max is 50 x scale_hint
    @pytest.mark.parametrize("scale_hint,lost", [(0.06, 8), (0.01, 64)])
    def test_launches_without_return_refute(self, scale_hint, lost):
        spec = dataclasses.replace(make_example("ellipse"), scale_hint=scale_hint)
        rep = certify(spec, 64, analyses=("all",))
        assert rep.verdict == "refuted"
        assert rep.reason == f"{lost} launches without boundary return"
        assert rep.n_launches == 64
        analysis_fields = ("index_focal", "index_quadratic", "index_agreement",
                           "nullity_estimate", "arrival_form_norm", "focal_midpoint_residual",
                           "focal_multiplicities", "soul", "fibers", "splitting", "slices",
                           "index_form", "soul_cloud")
        assert all(getattr(rep, name) is None for name in analysis_fields)
        assert rep.endpoint_focal_warnings == 0
        if lost < 64:
            assert rep.component_count == 1
            assert rep.half_length is not None
        else:
            assert rep.half_length is None and rep.component_count is None
            assert rep.length_mean is None and rep.orthogonality_max is None

    def test_orthogonality_alone_refutes(self, specs):
        rep = certify(specs["ellipse"], 64, Tolerances(length_rel=10.0, orthogonality=1e-3))
        assert rep.verdict == "refuted"
        assert rep.reason == "non-orthogonal arrival beyond 10x tolerance"

    # the detection floor: the ellipse a = 1 + eps, b = 1 has a length spread
    # of about eps and arrival angles of about 2 eps, so at the default
    # tolerances (1e-8, 1e-7) it is refuted from 3e-7 up and certified from 1e-8
    # down, and the verdict falls monotonically with eps
    @pytest.mark.parametrize("eps,verdict", [(1e-6, "refuted"), (3e-7, "refuted"),
                                             (1e-7, "inconclusive"), (3e-8, "inconclusive"),
                                             (1e-8, "certified"), (3e-9, "certified")])
    def test_ellipse_refutation_floor(self, eps, verdict):
        rep = certify(make_example("ellipse", a=1.0 + eps, b=1.0), 64)
        assert rep.verdict == verdict
        assert rep.length_spread_rel == pytest.approx(eps, rel=0.01)
        assert rep.orthogonality_max == pytest.approx(2 * eps, rel=0.01)


class TestBoundaryComponents:
    @pytest.mark.parametrize("key,expected", [("flat_disk", 1), ("flat_moebius", 1),
                                              ("flat_band", 2), ("spherical_band", 2),
                                              ("euclidean_ball3", 1), ("solid_torus", 1)])
    def test_component_counts(self, key, expected, specs, sweeps):
        sweep = sweeps[key]
        arrivals = {p.index: p.arrival_point for p in sweep.paths}
        comp = boundary_components(specs[key], sweep.launch_set, arrivals)
        assert comp.count == expected
        assert comp.pairing_ok

    def test_band_involution_swaps_classes(self, specs, sweeps):
        sweep = sweeps["flat_band"]
        arrivals = {p.index: p.arrival_point for p in sweep.paths}
        comp = boundary_components(specs["flat_band"], sweep.launch_set, arrivals)
        assert comp.pairing == {0: [1], 1: [0]}

    def test_arrival_in_its_own_component_breaks_pairing(self, specs, sweeps):
        sweep = sweeps["flat_band"]
        arrivals = {p.index: p.arrival_point for p in sweep.paths}
        own = boundary_components(specs["flat_band"], sweep.launch_set).labels
        i = 5
        same = int(np.flatnonzero((own == own[i]) & (np.arange(len(own)) != i))[0])
        arrivals[i] = sweep.launch_set.points[same].copy()
        comp = boundary_components(specs["flat_band"], sweep.launch_set, arrivals)
        assert comp.pairing_ok is False
        assert comp.pairing[int(own[i])] == [0, 1]
        assert comp.pairing[int(1 - own[i])] == [int(own[i])]

    def test_launches_without_arrival_are_skipped(self, specs, sweeps):
        sweep = sweeps["flat_band"]
        arrivals = {p.index: p.arrival_point for p in sweep.paths}
        labels = boundary_components(specs["flat_band"], sweep.launch_set).labels
        for i in np.flatnonzero(labels == 0)[::2]:
            del arrivals[i]
        comp = boundary_components(specs["flat_band"], sweep.launch_set, arrivals)
        assert comp.pairing_ok is True
        assert comp.pairing == {0: [1], 1: [0]}
        # a component none of whose launches returned pairs with nothing
        arrivals = {i: q for i, q in arrivals.items() if labels[i] != 1}
        comp = boundary_components(specs["flat_band"], sweep.launch_set, arrivals)
        assert comp.pairing_ok is True
        assert comp.pairing == {0: [1], 1: []}
        comp = boundary_components(specs["flat_band"], sweep.launch_set, {})
        assert comp.pairing_ok is True
        assert comp.pairing == {0: [], 1: []}

    def test_intercomponent_distance_spherical(self, specs, sweeps):
        sweep = sweeps["spherical_band"]
        comp = boundary_components(specs["spherical_band"], sweep.launch_set)
        d = intercomponent_distance(specs["spherical_band"], sweep.launch_set, comp.labels)
        assert d == pytest.approx(np.pi / 3, abs=1e-7)

    @pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 1.0])
    def test_intercomponent_distance_concentric_annulus(self, r):
        # components that are curved in the chart; certify leaves the distance
        # None on inline charts. The radial chords between the circles are
        # the shortest segments, of length 3 - r
        spec = load_manifold(concentric_annulus(r, 1))
        launches = sample_boundary(spec, 64)
        comp = boundary_components(spec, launches)
        assert comp.count == 2
        d = intercomponent_distance(spec, launches, comp.labels)
        assert d == pytest.approx(3 - r, abs=1e-12)


def _graphs():
    """Symmetric adjacency matrices: random at several densities, chains and
    a circle in scrambled node order, patches linked a priori as
    ``boundary_components`` links them, isolated nodes, and no nodes."""
    rng = np.random.default_rng(7)
    graphs = {"empty": np.zeros((0, 0), dtype=bool), "isolated": np.eye(64, dtype=bool)}
    for density in (0.002, 0.01, 0.03, 0.2):
        a = rng.random((200, 200)) < density
        graphs[f"random-{density}"] = a | a.T
    for m, closed in ((97, False), (512, True)):
        order = rng.permutation(m)
        a = np.eye(m, dtype=bool)
        ends = m if closed else m - 1
        a[order[:ends], order[np.arange(1, ends + 1) % m]] = True
        graphs[f"{'circle' if closed else 'chain'}-{m}"] = a | a.T
    patch = rng.integers(0, 6, 300)
    links = rng.random((300, 300)) < 0.001
    graphs["patches"] = (patch[:, None] == patch[None, :]) | links | links.T
    return graphs


GRAPHS = _graphs()


@pytest.mark.parametrize("name", list(GRAPHS))
def test_connected_components_are_csgraphs(name):
    adj = GRAPHS[name]
    count, labels = verifier.connected_components(adj)
    want_count, want_labels = csgraph_components(csr_matrix(adj), directed=False)
    assert count == want_count
    assert labels.tolist() == want_labels.tolist()


class TestSoul:
    def test_disk_point_soul(self, specs, sweeps):
        cloud = build_soul(specs["flat_disk"], sweeps["flat_disk"], Tolerances())
        assert len(cloud.points) == 1
        assert cloud.dimension_estimate == 0
        assert np.max(np.linalg.norm(cloud.midpoints, axis=1)) <= 1e-7
        assert cloud.distance_residual <= 2e-6
        assert soul_dimension_check(cloud, 2, 1)["passed"]

    def test_moebius_core_circle(self, specs, sweeps):
        cloud = build_soul(specs["flat_moebius"], sweeps["flat_moebius"], Tolerances())
        assert cloud.dimension_estimate == 1
        # midpoints on the core line x = 0
        assert np.max(np.abs(cloud.midpoints[:, 0])) <= 1e-9
        assert soul_dimension_check(cloud, 2, 0)["passed"]

    def test_solid_torus_circle_soul(self, specs, sweeps):
        cloud = build_soul(specs["solid_torus"], sweeps["solid_torus"], Tolerances())
        assert cloud.dimension_estimate == 1
        assert soul_dimension_check(cloud, 3, 1)["passed"]
        assert cloud.distance_residual <= 2e-6

    def test_undersampled_soul(self, specs):
        mo = specs["flat_moebius"]
        launches = sample_boundary(mo, 12)
        sweep = first_return_map(mo, launches)
        with pytest.raises(ValueError, match="undersampled soul"):
            build_soul(mo, sweep, Tolerances())

    def test_dimension_check_failure_shape(self, specs, sweeps):
        cloud = build_soul(specs["flat_disk"], sweeps["flat_disk"], Tolerances())
        res = soul_dimension_check(cloud, 2, 0)
        assert not res["passed"]
        assert res == {"passed": False, "estimated": 0, "expected": 1,
                       "dimension": 2, "index": 0}

    def test_nearest_boundary_distance_disk(self, specs, sweeps):
        disk = specs["flat_disk"]
        sweep = sweeps["flat_disk"]
        # the centre and a mid-radius point on a swept geodesic, in one call
        queries = np.array([[0.0, 0.0], sweep.paths[0].position_at(0.5)])
        estimates = nearest_boundary_distance(disk, sweep, queries, Tolerances())
        assert estimates[0] == pytest.approx(1.0, abs=1e-7)
        assert estimates[1] == pytest.approx(0.5, abs=1e-7)
        # each query of the stack gets what it gets alone
        for x, d in zip(queries, estimates):
            assert nearest_boundary_distance(disk, sweep, x[None], Tolerances()) == [d]

    def test_nearest_boundary_distance_reads_all_pairs_together(self, specs, sweeps,
                                                                monkeypatch):
        # every diameter of the 3-ball passes its centre, so each query within
        # the passage tolerance of it pairs with every swept geodesic; the
        # pairs are minimized together, so the step tables are read once per
        # solver iteration, not once per pair
        ball = specs["euclidean_ball3"]
        sweep = sweeps["euclidean_ball3"]
        queries = np.linspace(0.0, 2e-5, 8)[:, None] * np.ones(3)
        reads, evaluations, pairs = [], [], []
        dense_states = zollab.rk45.dense_states
        minimize_bounded = verifier.minimize_bounded

        def counted_reads(*args):
            reads.append(len(args[-1]))
            return dense_states(*args)

        def counted_minimize(f, lo, hi, **kwargs):
            pairs.append(len(lo))
            return minimize_bounded(lambda t, rows: evaluations.append(1) or f(t, rows),
                                    lo, hi, **kwargs)

        monkeypatch.setattr(zollab.rk45, "dense_states", counted_reads)
        monkeypatch.setattr(verifier, "minimize_bounded", counted_minimize)
        estimates = nearest_boundary_distance(ball, sweep, queries, Tolerances())
        assert pairs == [8 * len(sweep.paths)]
        assert len(reads) <= len(evaluations) + 2 < pairs[0] / 8
        assert estimates[0] == pytest.approx(1.0, abs=1e-7)
        assert estimates == pytest.approx([1.0] * 8, abs=1e-4)


class TestFibers:
    def test_lost_launches(self, specs):
        # 12 of the 64 ellipse chords are longer than 2.5; the fibers are those
        # of the 52 that return, whether or not the components are given
        el = specs["ellipse"]
        sweep = first_return_map(el, sample_boundary(el, 64), t_max=2.5)
        assert (len(sweep.paths), len(sweep.errors)) == (52, 12)
        comps = boundary_components(el, sweep.launch_set,
                                    {p.index: p.arrival_point for p in sweep.paths})
        assert comps.count == 1
        fibs = [fiber_analysis(el, sweep, 0, Tolerances(), components)
                for components in (None, comps)]
        assert fibs[0] == fibs[1]
        assert fibs[0].cluster_count == sum(fibs[0].cluster_sizes) == 52
        assert fibs[0].loop_transport_used and fibs[0].nontrivial is False
        lost = first_return_map(el, sample_boundary(el, 8), t_max=1.5)
        assert not lost.paths
        with pytest.raises(ValueError, match="no launch returned"):
            fiber_analysis(el, lost, 0, Tolerances())

    def test_moebius_pairs(self, specs, sweeps):
        fib = fiber_analysis(specs["flat_moebius"], sweeps["flat_moebius"], 0,
                             Tolerances())
        assert fib.kind == "two-fold-cover"
        assert fib.cluster_count == 32
        assert set(fib.cluster_sizes) == {2}
        assert fib.partner_residual <= 1e-7
        assert fib.nontrivial is True
        assert fib.loop_transport_used

    def test_band_pairs_trivial_cover(self, specs, sweeps):
        sweep = sweeps["flat_band"]
        comp = boundary_components(specs["flat_band"], sweep.launch_set,
                                   {p.index: p.arrival_point for p in sweep.paths})
        fib = fiber_analysis(specs["flat_band"], sweep, 0, Tolerances(), comp)
        assert set(fib.cluster_sizes) == {2}
        assert fib.nontrivial is False

    def test_disk_single_circle_fiber(self, specs, sweeps):
        fib = fiber_analysis(specs["flat_disk"], sweeps["flat_disk"], 1, Tolerances())
        assert fib.kind == "sphere-bundle"
        assert fib.cluster_count == 1
        assert fib.cluster_sizes == [64]
        assert fib.fiber_dimension == 1

    def test_solid_torus_circle_fibers(self, specs, sweeps):
        fib = fiber_analysis(specs["solid_torus"], sweeps["solid_torus"], 1,
                             Tolerances())
        assert fib.fiber_dimension == 1
        assert fib.cluster_count == 16
        assert set(fib.cluster_sizes) == {16}

    def test_ball_sphere_fiber(self, specs, sweeps):
        fib = fiber_analysis(specs["euclidean_ball3"], sweeps["euclidean_ball3"], 2,
                             Tolerances())
        assert fib.cluster_count == 1
        assert fib.fiber_dimension == 2


def slice_circumference(spec, t, n_side=64):
    """Length of the image of the first boundary patch at flow parameter t, from
    a grid of ``n_side`` launches that must all return."""
    if spec.boundary_patches[0].param_dim != 1:
        raise ValueError("slice circumference needs a one-parameter boundary patch")
    sweep = verifier._structured_sweep(spec, 0, n_side, Tolerances(), "slice circumference")
    du = 1.0 / n_side
    x = sweep.states_at(t)[:, :spec.dimension]
    slice_t = QuotientCloud(spec, x)
    i = np.arange(n_side)
    dvec = (slice_t.nearest_image(x, (i + 1) % n_side)
            - slice_t.nearest_image(x, (i - 1) % n_side)) / (2.0 * du)
    return float(sum(metric_norm(spec.metric.matrix(x), dvec) * du))


class TestSplitting:
    @pytest.mark.parametrize("key,limit", [("flat_band", 1e-8), ("flat_disk", 1e-7),
                                           ("flat_moebius", 1e-8),
                                           ("spherical_band", 1e-7),
                                           ("spherical_cap", 1e-7)])
    def test_residuals(self, key, limit, specs):
        res = splitting_residual(specs[key], n_side=16)
        assert res.max_unit_residual <= limit
        assert res.max_cross_residual <= limit

    def test_spherical_band_circumference(self, specs):
        th = np.pi / 6
        for t in [0.25 * th, 0.5 * th, 0.75 * th]:
            lat = -th + t
            circ = slice_circumference(specs["spherical_band"], t, n_side=64)
            assert abs(circ - 2.0 * np.pi * np.cos(lat)) <= 1e-5

    def test_circumference_needs_every_launch_back(self):
        # the ellipse's chords are 2 to 4 long, and scale_hint 0.05 ends the
        # sweep at t_max = 2.5, so the launches near the major axis are lost
        ellipse = dataclasses.replace(make_example("ellipse"), scale_hint=0.05)
        sweep = first_return_map(ellipse, sample_boundary(ellipse, 16))
        assert 0 < len(sweep.errors) < 16
        with pytest.raises(RuntimeError, match="slice circumference sweep failed"):
            slice_circumference(ellipse, 0.5, n_side=16)


class TestSlices:
    @pytest.mark.parametrize("key", ["flat_disk", "flat_moebius", "flat_band",
                                     "spherical_cap"])
    def test_slice_symmetry_and_distance(self, key, specs, sweeps):
        spec = specs[key]
        sweep = sweeps[key]
        L = float(np.mean(sweep.return_times) / 2.0)
        for frac in [0.25, 0.5, 0.75]:
            chk = slice_distance_check(spec, sweep, frac * L)
            assert chk.passed, (key, frac, chk)

    def test_slice_parameter_validation(self, specs, sweeps):
        with pytest.raises(ValueError, match="slice parameter"):
            slice_distance_check(specs["flat_disk"], sweeps["flat_disk"], 1.5)


class TestReportStructure:
    def test_full_report_fields(self, specs, monkeypatch):
        # the soul and the fibers share one clustering of the midpoints
        calls = []
        cluster = verifier._cluster_points
        monkeypatch.setattr(verifier, "_cluster_points",
                            lambda *args: calls.append(args) or cluster(*args))
        rep = certify(specs["flat_moebius"], 64, analyses=("all",))
        assert len(calls) == 1
        doc = rep.to_dict()
        assert doc["verdict"] == "certified"
        assert doc["index_focal"] == 0 and doc["index_agreement"]
        assert doc["soul"]["dimension"] == 1
        assert doc["fibers"]["nontrivial_cover"] is True
        assert doc["splitting"]["max_cross_residual"] <= 1e-6
        assert all(s["passed"] for s in doc["slices"])
        assert doc["ground_truth"]["all_match"]
        # stable field order for byte-identical serialization
        assert list(doc)[:4] == ["name", "verdict", "reason", "n_launches"]


def min_geodesic_separation(spec, sweep, stride=4):
    """Smallest quotient distance between dense samples of distinct geodesics.

    Strictly positive separation witnesses that the swept geodesics are
    pairwise disjoint (expected exactly when the index is zero).
    """
    clouds = [p.points[::stride] for p in sweep.paths]
    best = np.inf
    for j in range(1, len(clouds)):
        _, dist = QuotientCloud(spec, clouds[j]).nearest(np.concatenate(clouds[:j]))
        best = min(best, float(dist.min()))
    return best


class TestGeodesicDisjointness:
    def test_index_zero_examples_have_disjoint_geodesics(self, specs, sweeps):
        for key in ["flat_moebius", "flat_band", "spherical_band"]:
            sep = min_geodesic_separation(specs[key], sweeps[key])
            assert sep > 1e-3, (key, sep)

    def test_disk_geodesics_meet_at_the_center(self, specs, sweeps):
        sep = min_geodesic_separation(specs["flat_disk"], sweeps["flat_disk"], stride=1)
        assert sep < 1e-6


class TestSoulCloudSpectra:
    def test_per_point_singular_values_recorded(self, specs, sweeps):
        cloud = build_soul(specs["flat_moebius"], sweeps["flat_moebius"], Tolerances())
        assert len(cloud.singular_values) == len(cloud.points)
        for s in cloud.singular_values:
            assert s[0] > 0.0

    def test_all_midpoints_at_distance_L(self, specs, sweeps):
        # distance-to-boundary estimate L within 2e-6 L at every midpoint
        cloud = build_soul(specs["flat_moebius"], sweeps["flat_moebius"], Tolerances(),
                           n_distance_checks=64)
        assert cloud.distance_residual <= 2e-6
