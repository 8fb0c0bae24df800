import io
import json

import numpy as np
import pytest

from zollab.catalog import make_example
from zollab.engine import (
    NoReturnError,
    arrival_orthogonality,
    boundary_involution,
    first_return_map,
    launch_count,
    nearest_exact_launch_counts,
    path_to_csv,
    path_to_polyline,
    project_to_boundary,
    sample_boundary,
    shoot,
    sweep_to_csv,
    sweep_to_json,
)
from zollab.geometry import (
    BoundaryChart,
    BoundaryPatch,
    ManifoldSpec,
    MetricField,
    metric_inner,
    metric_norm,
)
from zollab.verifier import Tolerances, certify


def unit_speed_drift(path):
    """Largest |g(v, v) - 1| over the integration steps of a path."""
    g = path.spec.metric.matrix(path.points)
    return float(np.max(np.abs(metric_inner(g, path.velocities, path.velocities) - 1.0)))


def arc_length(path, n_gauss=4):
    """Gauss-Legendre arc length of the dense output up to the return time, all
    nodes of all steps in one stacked ``state_at`` and metric call."""
    nodes, weights = np.polynomial.legendre.leggauss(n_gauss)
    t_cap = path.return_time if path.returned else path.times[-1]
    a, b = path.times[:-1], np.minimum(path.times[1:], t_cap)
    a, b = a[b > a], b[b > a]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x, v = path.state_at((mid[:, None] + half[:, None] * nodes).ravel())
    speed = metric_norm(path.spec.metric.matrix(x), v).reshape(len(a), n_gauss)
    return float(np.sum(weights * half[:, None] * speed))


def flat_metric(n):
    eye = np.eye(n)
    zeros = np.zeros((n, n, n))
    return MetricField.from_matrix(n, lambda x: eye, lambda x: zeros)


class TestShootClosedForms:
    def test_disk_diameter(self):
        disk = make_example("flat_disk")
        path = shoot(disk, np.array([1.0, 0.0]))
        assert path.return_time == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(path.arrival_point, [-1.0, 0.0], atol=1e-9)
        assert path.normal_deviation < 1e-9
        assert not path.grazing

    def test_cap_meridian_through_pole(self):
        # geodesic radius pi/3 on the unit sphere: R = 2 pi/3, pole at t = pi/3
        cap = make_example("spherical_cap", radius=np.pi / 3)
        rc = np.tan(np.pi / 6)
        path = shoot(cap, np.array([rc, 0.0]))
        assert path.return_time == pytest.approx(2.0 * np.pi / 3.0, abs=1e-8)
        assert np.linalg.norm(path.position_at(np.pi / 3.0)) < 1e-8
        assert np.allclose(path.arrival_point, [-rc, 0.0], atol=1e-8)
        assert path.normal_deviation < 1e-9

    def test_ellipse_major_axis_is_orthogonal_chord(self):
        el = make_example("ellipse", a=2.0, b=1.0)
        path = shoot(el, np.array([2.0, 0.0]))
        assert path.return_time == pytest.approx(4.0, abs=1e-9)
        assert path.normal_deviation < 1e-9

    def test_ellipse_generic_chord_against_line_oracle(self):
        # independent oracle: straight chord from the Euclidean normal,
        # intersected with the ellipse by the quadratic formula
        a, b = 2.0, 1.0
        el = make_example("ellipse", a=a, b=b)
        tau = 0.9
        p = np.array([a * np.cos(tau), b * np.sin(tau)])
        d = np.array([-np.cos(tau) / a, -np.sin(tau) / b])
        d /= np.linalg.norm(d)
        # solve (p + s d) on the ellipse: A s^2 + B s = 0
        A = (d[0] / a) ** 2 + (d[1] / b) ** 2
        B = 2.0 * (p[0] * d[0] / a ** 2 + p[1] * d[1] / b ** 2)
        s_exit = -B / A
        q = p + s_exit * d
        nu_q = -np.array([q[0] / a ** 2, q[1] / b ** 2])
        nu_q /= np.linalg.norm(nu_q)
        dperp_expected = np.linalg.norm(d - (d @ nu_q) * nu_q)

        path = shoot(el, p)
        assert path.return_time == pytest.approx(s_exit, abs=1e-8)
        assert np.allclose(path.arrival_point, q, atol=1e-8)
        assert path.normal_deviation == pytest.approx(dperp_expected, abs=1e-8)
        assert path.normal_deviation > 1e-3

    def test_moebius_chord(self):
        mo = make_example("flat_moebius", width=1.0, twist_length=3.0)
        path = shoot(mo, np.array([1.0, 0.7]))
        assert path.return_time == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(path.arrival_point, [-1.0, 0.7], atol=1e-9)

    def test_spherical_band_meridian(self):
        th = np.pi / 6
        band = make_example("spherical_band", max_latitude=th)
        path = shoot(band, np.array([-th, 2.0]))
        assert path.return_time == pytest.approx(2.0 * th, abs=1e-9)
        assert np.allclose(path.arrival_point, [th, 2.0], atol=1e-9)


class TestPathInvariants:
    @pytest.mark.parametrize("key", ["flat_disk", "flat_moebius", "spherical_cap",
                                     "spherical_band", "solid_torus"])
    def test_unit_speed_and_arc_length(self, key, sweeps):
        sweep = sweeps[key]
        for r in sweep.ok_records[:8]:
            assert unit_speed_drift(r.path) <= 1e-8
            assert abs(arc_length(r.path) - r.return_time) <= 1e-8

    @pytest.mark.parametrize("key", ["flat_disk", "flat_moebius", "spherical_cap"])
    def test_time_reversal(self, key, specs, sweeps):
        # re-shooting from the arrival retraces the launch point
        spec = specs[key]
        for r in sweeps[key].ok_records[::16]:
            back = shoot(spec, r.arrival)
            assert spec.chart_distance(back.arrival_point, r.launch) <= 1e-7

    @pytest.mark.parametrize("key,expected", [("flat_disk", 2.0),
                                              ("spherical_cap", np.pi / 3),
                                              ("flat_moebius", 2.0)])
    def test_tolerance_halving_convergence(self, key, specs, expected):
        spec = specs[key]
        p = spec.boundary_patches[0].points(np.array([[0.3]]))[0]
        r1 = shoot(spec, p, rtol=1e-10, atol=1e-12).return_time
        r2 = shoot(spec, p, rtol=5e-11, atol=5e-13).return_time
        assert abs(r1 - r2) < 1e-8


class TestFirstReturnMap:
    def test_disk_constant_length(self, sweeps):
        s = sweeps["flat_disk"].summary()
        assert s["n_errors"] == 0
        assert s["return_time_spread"] <= 1e-9
        assert s["max_normal_deviation"] <= 1e-9

    def test_spherical_band_meridians(self, sweeps, specs):
        sweep = sweeps["spherical_band"]
        th = np.pi / 6
        rt = sweep.return_times
        assert np.all(np.abs(rt - 2.0 * th) <= 1e-9)
        for r in sweep.ok_records:
            # arrival on the opposite latitude circle
            assert abs(abs(r.arrival[0]) - th) <= 1e-9
            assert np.sign(r.arrival[0]) == -np.sign(r.launch[0])

    def test_ellipse_spread_refutation_evidence(self, sweeps):
        s = sweeps["ellipse"].summary()
        assert s["return_time_spread"] > 1e-2
        assert s["max_normal_deviation"] > 1e-3

    def test_errors_recorded_not_raised(self):
        el = make_example("ellipse")
        launches = sample_boundary(el, 8)
        sweep = first_return_map(el, launches, t_max=1.5)  # chords up to 4 long
        assert len(sweep.errors) > 0
        assert all("no return" in msg for _, msg in sweep.errors)
        assert len(sweep.records) == 8


class TestInvolution:
    def test_disk_antipodal(self):
        disk = make_example("flat_disk")
        p = np.array([np.cos(0.4), np.sin(0.4)])
        q = boundary_involution(disk, p)
        assert np.allclose(q, -p, atol=1e-9)
        assert np.allclose(boundary_involution(disk, q), p, atol=1e-9)

    def test_moebius_involution_squares_to_identity(self, specs):
        mo = specs["flat_moebius"]
        p = np.array([1.0, 1.3])
        q = boundary_involution(mo, p)
        assert np.allclose(q, [-1.0, 1.3], atol=1e-9)
        back = boundary_involution(mo, q)
        assert mo.chart_distance(back, p) <= 1e-7

    def test_band_involution_swaps_components(self, specs):
        band = specs["flat_band"]
        q = boundary_involution(band, np.array([0.0, 2.5]))
        assert q[0] == pytest.approx(2.0, abs=1e-9)
        assert q[1] == pytest.approx(2.5, abs=1e-9)


class TestDeckCrossing:
    def _wavy_cylinder(self):
        # flat cylinder bounded by a wavy curve and a straight edge at x0 = 2;
        # orthogonal launches off the wavy side have a nonzero periodic
        # component, so geodesics cross the deck seam before returning
        from zollab.catalog import translation_decks

        def wave(s):
            return 0.3 * np.sin(2.0 * np.pi * s)

        def b_value(x):
            return (x[0] - wave(x[1])) * (2.0 - x[0]) / 2.0

        def b_grad(x):
            dwave = 0.6 * np.pi * np.cos(2.0 * np.pi * x[1])
            return np.array([
                ((2.0 - x[0]) - (x[0] - wave(x[1]))) / 2.0,
                -dwave * (2.0 - x[0]) / 2.0,
            ])

        def rim(u):
            u = np.atleast_2d(u)[:, 0]
            return np.stack([wave(u), u], axis=1)

        return ManifoldSpec(
            name="wavy-cylinder",
            metric=flat_metric(2),
            boundary=BoundaryChart(b_value, b_grad),
            domain=np.array([[-1.0, 3.0], [-0.5, 1.5]]),
            deck_maps=translation_decks(2, 1, 1.0, "wrap"),
            boundary_patches=[BoundaryPatch("rim", 1, rim, (True,))],
            scale_hint=2.0,
        )

    def test_straight_line_continues_through_seam(self):
        from zollab.engine import geodesic_rhs, integrate_flow

        spec = self._wavy_cylinder()
        p = np.array([0.3 * np.sin(2.0 * np.pi * 0.8), 0.8])
        path = shoot(spec, p, t_max=30.0)
        assert len(path.flow.deck_crossings) >= 1
        assert unit_speed_drift(path) <= 1e-8
        v0 = path.launch_velocity
        _, v_mid = path.state_at(0.5 * path.return_time)
        assert np.allclose(v_mid, v0, atol=1e-9)  # velocity constant in flat chart
        # retrace through the seam with the exact reversed arrival velocity
        y0 = np.concatenate([path.arrival_point, -path.arrival_velocity])
        back = integrate_flow(spec, geodesic_rhs(spec), y0, 30.0,
                              vector_blocks=[(2, 2, 1)])
        assert back.status == "boundary"
        assert back.event_time == pytest.approx(path.return_time, abs=1e-8)
        assert spec.chart_distance(back.event_state[:2], p) <= 1e-7


def eccentric_annulus():
    # region between circle radius 3 at the origin and radius 0.3 at (0.5, 0);
    # the radial chord launched where sin(theta) = 0.6 is exactly tangent to
    # the inner circle
    c = np.array([0.5, 0.0])
    r_in = 0.3

    def b_value(x):
        return (9.0 - x @ x) * ((x - c) @ (x - c) - r_in ** 2) / 18.0

    def b_grad(x):
        inner = (x - c) @ (x - c) - r_in ** 2
        outer = 9.0 - x @ x
        return (-2.0 * x * inner + outer * 2.0 * (x - c)) / 18.0

    def rim(u):
        th = 2.0 * np.pi * np.atleast_2d(u)[:, 0]
        return 3.0 * np.stack([np.cos(th), np.sin(th)], axis=1)

    return ManifoldSpec(
        name="eccentric-annulus",
        metric=flat_metric(2),
        boundary=BoundaryChart(b_value, b_grad),
        domain=np.array([[-4.0, 4.0], [-4.0, 4.0]]),
        boundary_patches=[BoundaryPatch("outer", 1, rim, (True,))],
        scale_hint=6.0,
    )


class TestGrazing:
    def test_tangent_chord_flagged(self):
        spec = eccentric_annulus()
        theta_star = np.arcsin(0.6)
        path = shoot(spec, 3.0 * np.array([np.cos(theta_star), np.sin(theta_star)]),
                     t_max=30.0)
        assert path.grazing
        # a chord well clear of the inner circle is not flagged
        path2 = shoot(spec, 3.0 * np.array([np.cos(2.5), np.sin(2.5)]), t_max=30.0)
        assert not path2.grazing

    def test_grazing_tolerance_reaches_the_flow(self):
        # the chords of a 32-launch sweep that miss the inner circle pass it
        # where b is above 5e-3: grazing at a threshold of 0.1, not at 1e-6
        spec = eccentric_annulus()
        default = certify(spec, 32)
        assert default.grazing_count == 0
        assert default.reason == "length spread beyond 10x tolerance"
        loose = certify(spec, 32, Tolerances(grazing=0.1))
        assert loose.grazing_count > 0
        assert loose.reason == "tangential approach to the boundary"


class TestLaunchSets:
    def test_projection_and_counts(self, specs):
        for key in ["flat_disk", "flat_band", "solid_torus"]:
            spec = specs[key]
            ls = sample_boundary(spec, 64, seed=1)
            assert ls.count == len(ls.points) == 64
            for p in ls.points:
                assert abs(spec.boundary.value(p)) <= spec.boundary.eps

    def test_low_discrepancy_deterministic(self, specs):
        spec = specs["flat_disk"]
        a = sample_boundary(spec, 33, strategy="low-discrepancy", seed=5)
        b = sample_boundary(spec, 33, strategy="low-discrepancy", seed=5)
        assert np.array_equal(a.points, b.points)
        c = sample_boundary(spec, 33, strategy="low-discrepancy", seed=6)
        assert not np.array_equal(a.points, c.points)

    def test_unknown_strategy(self, specs):
        with pytest.raises(ValueError, match="strategy"):
            sample_boundary(specs["flat_disk"], 32, strategy="bogus")

    def test_launch_count_is_what_sample_boundary_gives(self, specs):
        ball1 = make_example("euclidean_ball", n=1)
        for spec in (specs["euclidean_ball3"], specs["solid_torus"], specs["flat_band"],
                     make_example("index_ladder", n=4, k=1), ball1):
            for count in range(1, 140, 3):
                for strategy in ("uniform", "low-discrepancy"):
                    got = sample_boundary(spec, count, strategy=strategy).count
                    assert launch_count(spec, count, strategy) == got

    def test_uniform_grid_shrinks_on_two_parameter_patches(self, specs):
        ball = specs["euclidean_ball3"]
        for asked, got, near in ((32, 30, (30, 36)), (48, 42, (42, 49)),
                                 (130, 121, (121, 132))):
            assert launch_count(ball, asked) == got
            assert nearest_exact_launch_counts(ball, asked) == near
            assert launch_count(ball, asked, "low-discrepancy") == asked
        # a pair of point patches gives two launches whatever is asked
        assert nearest_exact_launch_counts(make_example("euclidean_ball", n=1), 40) == (2, None)

    def test_newton_projection(self, specs):
        disk = specs["flat_disk"]
        p = project_to_boundary(disk, np.array([1.0 + 3e-9, 1e-9]))
        assert abs(disk.boundary.value(p)) <= 1e-12


class TestExports:
    def test_csv_and_polyline(self, sweeps):
        path = sweeps["flat_disk"].ok_records[0].path
        buf = io.StringIO()
        path_to_csv(path, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,x1,x2,v1,v2"
        assert len(lines) == len(path.times) + 1
        poly = path_to_polyline(path)
        assert poly["return_time"] == pytest.approx(2.0, abs=1e-9)
        assert len(poly["points"]) == len(path.times)

    def test_sweep_csv_header_and_rows(self, sweeps):
        sweep = sweeps["euclidean_ball3"]
        buf = io.StringIO()
        sweep_to_csv(sweep, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "launch,t,x1,x2,x3,v1,v2,v3"
        assert lines[-1] == ""
        rows = lines[1:-1]
        assert len(rows) == sum(len(r.path.times) for r in sweep.ok_records)
        first = sweep.ok_records[0]
        assert rows[0].split(",")[0] == str(first.index)
        assert float(rows[0].split(",")[1]) == first.path.times[0]

    def test_sweep_json_roundtrip(self, sweeps):
        doc = sweep_to_json(sweeps["flat_band"])
        text = json.dumps(doc)
        parsed = json.loads(text)
        assert parsed["summary"]["n_returned"] == 64
        assert len(parsed["launches"]) == 64


def test_no_return_raises():
    el = make_example("ellipse")
    with pytest.raises(NoReturnError, match="no return"):
        shoot(el, np.array([2.0, 0.0]), t_max=1.0)


def test_bad_launch_point_rejected():
    disk = make_example("flat_disk")
    with pytest.raises(ValueError, match="not on the boundary"):
        shoot(disk, np.array([0.2, 0.0]))


class TestTrajectoryStaysInside:
    @pytest.mark.parametrize("key", ["flat_disk", "spherical_cap", "flat_moebius"])
    def test_boundary_function_nonnegative_along_path(self, key, specs, sweeps):
        spec = specs[key]
        for r in sweeps[key].ok_records[::16]:
            for x in r.path.points:
                assert spec.boundary.value(x) >= -spec.boundary.eps
            assert abs(spec.boundary.value(r.arrival)) <= spec.boundary.eps

    @pytest.mark.parametrize("key", ["spherical_band", "euclidean_ball3", "solid_torus"])
    def test_tolerance_halving_more_examples(self, key, specs):
        spec = specs[key]
        p = spec.boundary_patches[0].points(
            np.full((1, spec.boundary_patches[0].param_dim), 0.37))[0]
        r1 = shoot(spec, p, rtol=1e-10, atol=1e-12).return_time
        r2 = shoot(spec, p, rtol=5e-11, atol=5e-13).return_time
        assert abs(r1 - r2) < 1e-8
