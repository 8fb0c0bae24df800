import io
import json
import math
import os
import sys
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate._ivp.common import norm as ivp_norm, select_initial_step
from scipy.integrate._ivp.ivp import find_active_events, handle_events, prepare_events
from scipy.integrate._ivp.rk import RkDenseOutput
from scipy.optimize import brentq

import zollab.engine
from test_manifest_cli import INLINE_CYLINDER, tilted_strip
from zollab import cli
from zollab.catalog import catalog_names, make_example
from zollab.engine import (
    GRAZING_TOL,
    IntegrationError,
    LaunchSet,
    NoReturnError,
    _active_events,
    _event_functions,
    _event_roots,
    _first_terminal,
    _step_state,
    arrival_orthogonality,
    first_return_map,
    geodesic_rhs,
    integrate_flow,
    launch_count,
    launch_params,
    lockstep_flows,
    nearest_exact_launch_counts,
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
    QuotientCloud,
    inward_unit_normal,
    metric_inner,
    metric_norm,
    row_dot,
)
from zollab.jacobi import _frame_start, frame_vector_blocks, jacobi_rhs
from zollab.manifest import RunManifest, load_manifold
from zollab.rk45 import initial_steps
from zollab.verifier import Tolerances, certify

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
from workloads import _inline_cap, generate  # noqa: E402

def unit_speed_drift(path):
    """Largest |g(v, v) - 1| over the integration steps of a path."""
    g = path.spec.metric.matrix(path.points)
    return float(np.max(np.abs(metric_inner(g, path.velocities, path.velocities) - 1.0)))


def arc_length(path, n_gauss=4):
    """Gauss-Legendre arc length of the dense output up to the return time, all
    nodes of all steps in one stacked ``state_at`` and metric call."""
    nodes, weights = np.polynomial.legendre.leggauss(n_gauss)
    a, b = path.times[:-1], path.times[1:]
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

        # the arrival check on the stack of a sweep's arrivals and this one
        # gives each path its own normal deviation, and each arrival alone too
        paths = first_return_map(el, sample_boundary(el, 16)).paths + [path]
        arrivals = np.array([p.flow.event_state for p in paths])
        stacked = arrival_orthogonality(el, arrivals[:, :2], arrivals[:, 2:])
        for p, dev, y in zip(paths, stacked, arrivals):
            assert dev.tobytes() == np.float64(p.normal_deviation).tobytes()
            assert np.float64(arrival_orthogonality(el, y[:2], y[2:])).tobytes() == dev.tobytes()

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
        for path in sweep.paths[:8]:
            assert unit_speed_drift(path) <= 1e-8
            assert abs(arc_length(path) - path.return_time) <= 1e-8

    @pytest.mark.parametrize("key", ["flat_disk", "flat_moebius", "spherical_cap"])
    def test_time_reversal(self, key, specs, sweeps):
        # re-shooting from the arrival retraces the launch point
        spec = specs[key]
        for path in sweeps[key].paths[::16]:
            back = shoot(spec, path.arrival_point)
            assert QuotientCloud(spec, back.arrival_point).nearest(path.launch_point)[1][0] <= 1e-7

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
        for path in sweep.paths:
            # arrival on the opposite latitude circle
            assert abs(abs(path.arrival_point[0]) - th) <= 1e-9
            assert np.sign(path.arrival_point[0]) == -np.sign(path.launch_point[0])

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
        assert len(sweep.paths) + len(sweep.errors) == 8


def involution(spec, p):
    """Far endpoint of the orthogonal geodesic from p, as the deck image of its
    arrival point nearest to p."""
    return QuotientCloud(spec, shoot(spec, p).arrival_point).nearest_image(p, 0)


class TestInvolution:
    def test_disk_antipodal(self):
        disk = make_example("flat_disk")
        p = np.array([np.cos(0.4), np.sin(0.4)])
        q = involution(disk, p)
        assert np.allclose(q, -p, atol=1e-9)
        assert np.allclose(involution(disk, q), p, atol=1e-9)

    def test_moebius_involution_squares_to_identity(self, specs):
        mo = specs["flat_moebius"]
        p = np.array([1.0, 1.3])
        q = involution(mo, p)
        assert np.allclose(q, [-1.0, 1.3], atol=1e-9)
        back = involution(mo, q)
        assert QuotientCloud(mo, back).nearest(p)[1][0] <= 1e-7

    def test_band_involution_swaps_components(self, specs):
        band = specs["flat_band"]
        q = involution(band, np.array([0.0, 2.5]))
        assert q[0] == pytest.approx(2.0, abs=1e-9)
        assert q[1] == pytest.approx(2.5, abs=1e-9)


class TestDeckCrossing:
    def _wavy_cylinder(self):
        # flat cylinder bounded by a wavy curve and a straight edge at x0 = 2;
        # orthogonal launches off the wavy side have a nonzero periodic
        # component, so geodesics cross the deck seam before returning
        from zollab.geometry import deck_pair

        def wave(s):
            return 0.3 * np.sin(2.0 * np.pi * s)

        def b_value(x):
            return (x[..., 0] - wave(x[..., 1])) * (2.0 - x[..., 0]) / 2.0

        def b_grad(x):
            dwave = 0.6 * np.pi * np.cos(2.0 * np.pi * x[..., 1])
            return np.stack([
                ((2.0 - x[..., 0]) - (x[..., 0] - wave(x[..., 1]))) / 2.0,
                -dwave * (2.0 - x[..., 0]) / 2.0,
            ], axis=-1)

        def rim(u):
            u = np.atleast_2d(u)[:, 0]
            return np.stack([wave(u), u], axis=1)

        return ManifoldSpec(
            name="wavy-cylinder",
            metric=flat_metric(2),
            boundary=BoundaryChart(b_value, b_grad),
            domain=np.array([[-1.0, 3.0], [-0.5, 1.5]]),
            deck_maps=deck_pair("wrap", 1, 1.0),
            boundary_patches=[BoundaryPatch("rim", 1, rim, (True,))],
            scale_hint=2.0,
        )

    def test_straight_line_continues_through_seam(self):
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
        assert QuotientCloud(spec, back.event_state[:2]).nearest(p)[1][0] <= 1e-7


def eccentric_annulus():
    # region between circle radius 3 at the origin and radius 0.3 at (0.5, 0);
    # the radial chord launched where sin(theta) = 0.6 is exactly tangent to
    # the inner circle
    c = np.array([0.5, 0.0])
    r_in = 0.3

    def b_value(x):
        return (9.0 - row_dot(x, x)) * (row_dot(x - c, x - c) - r_in ** 2) / 18.0

    def b_grad(x):
        inner = (row_dot(x - c, x - c) - r_in ** 2)[..., None]
        outer = (9.0 - row_dot(x, x))[..., None]
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


def concentric_annulus(r, scale_hint):
    """Inline flat annulus between the circles of radius 3 and r about the
    origin. Every orthogonal geodesic is radial, of length 3 - r."""
    ring = ["cos(2*pi*u0)", "sin(2*pi*u0)"]
    return {"inline": {
        "name": f"concentric-annulus(r={r!r})",
        "dimension": 2,
        "metric": {"kind": "expression", "entries": [["1", "0"], ["0", "1"]]},
        "boundary": {"expression": f"(9 - x0**2 - x1**2)*(x0**2 + x1**2 - {r!r}**2)/18"},
        "domain": {"lo": [-4.0, -4.0], "hi": [4.0, 4.0]},
        "boundary_patches": [
            {"name": "outer", "dim": 1, "point": [f"3*{c}" for c in ring], "periodic": [True]},
            {"name": "inner", "dim": 1, "point": [f"{r!r}*{c}" for c in ring],
             "periodic": [True]},
        ],
        "scale_hint": scale_hint,
        "annotations": {"zoll": True, "half_length": (3 - r) / 2, "index": 0, "components": 2},
    }}


@pytest.mark.parametrize("scale_hint", [1, 2, 4, 6, 12])
@pytest.mark.parametrize("r", [0.1, 0.3, 0.5, 1.0])
def test_concentric_annulus_certifies(r, scale_hint):
    # steps that jump the hole used to carry the outer launches on to the far
    # side of the outer circle, which refuted this Zoll annulus with L near 2.2.
    # At scale_hint 12 the RK45 steps reach 3: the step from about 0.59 to 3.59
    # spans the crest of b at t = 0.86 as well as the hole's centre at t = 3,
    # so db/dt has one sign at both its ends and only the hidden-dip check of
    # the step finds the crossing
    # the focal index of the radial chords too, at one scale
    analyses = ("certify", "jacobi") if scale_hint == 6 else ("certify",)
    rep = certify(load_manifold(concentric_annulus(r, scale_hint)), 64, analyses=analyses)
    assert rep.verdict == "certified"
    assert rep.ground_truth["all_match"]
    assert set(rep.ground_truth["checks"]) == {"verdict", "half_length", "components"} | (
        {"index"} if scale_hint == 6 else set())


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("strategy", ["uniform", "low-discrepancy"])
@pytest.mark.parametrize("seed", range(4))
def test_inline_cap_verdict_invariant(seed, strategy, scale):
    # neither the seed, the sampling strategy nor the step scale changes what
    # the sweep of the workload cap finds: its geodesics are the great-circle
    # arcs of length 2L
    L = 0.52
    manifold = _inline_cap(L)
    manifold["inline"]["scale_hint"] *= scale
    rep = certify(load_manifold(manifold), 128, seed=seed, strategy=strategy)
    assert rep.verdict == "certified"
    assert rep.component_count == 1
    assert abs(rep.half_length - L) <= 1e-9 * L


def test_hole_crossings_return_as_arrivals():
    # the radial chord from 3 (cos, sin)(theta) meets the inner circle, of
    # radius 0.3 about c, at the smaller root s of |p - s p / 3 - c| = 0.3
    # where there is one, and the outer circle at s = 6 where there is not
    spec = eccentric_annulus()
    sweep = first_return_map(spec, sample_boundary(spec, 64))
    c = np.array([0.5, 0.0])
    inner = 0
    for path in sweep.paths:
        p = path.launch_point
        u = -p / 3.0
        half_b, cc = u @ (p - c), (p - c) @ (p - c) - 0.09
        disc = half_b ** 2 - cc
        expected = -half_b - np.sqrt(disc) if disc > 0 else 6.0
        inner += disc > 0
        assert path.return_time == pytest.approx(expected, abs=1e-9)
        assert abs(spec.boundary.value(path.arrival_point)) <= 1e-12
    assert inner == 28  # 18 of them step across the hole
    assert len(sweep.paths) == 64


def reference_grazing_and_exit(spec, chunks, grazing_tol):
    """Grazing times and exit time of a flow from its ``solve_ivp`` chunks.
    Each tangency candidate is checked through a scalar call of the
    ``OdeSolution`` of the chunk that found it, in time order up to the first
    where b < 0; the exit is the root of b on that step's interpolant,
    between its start and the candidate."""
    n = spec.dimension
    grazing = []
    for sol, candidates in chunks:
        for tg in candidates:
            b = spec.boundary.value(sol(tg)[:n])
            if abs(b) < grazing_tol:
                grazing.append(tg)
            if b < 0:
                step = next(p for p in sol.interpolants if p.t_old < tg <= p.t)
                eps = np.finfo(float).eps
                return grazing, brentq(lambda t: spec.boundary.value(step(t)[:n]), step.t_old,
                                       tg, xtol=4 * eps, rtol=4 * eps)
    return grazing, None


# |b| at the eccentric annulus's 54 tangencies runs from 6e-4 to 0.08: 0.03
# keeps 18 of them; 18 are exits, where b < 0
@pytest.mark.parametrize("grazing_tol", [1e-6, 0.03, 0.1])
@pytest.mark.parametrize("name", catalog_names() + ["eccentric_annulus", "concentric_annulus"])
def test_grazing_times_match_the_segment_reference(name, grazing_tol, monkeypatch):
    # the sweep's grazing times and exits against its geodesics integrated
    # one at a time by integrate_flow, each tangency confirmed on the
    # solve_ivp chunk that found it
    if name == "eccentric_annulus":
        spec = eccentric_annulus()
    elif name == "concentric_annulus":
        spec = load_manifold(concentric_annulus(0.5, 6.0))
    else:
        spec = make_example(name)
    chunks = []  # (OdeSolution, tangency event times) of each solve_ivp call
    solve_ivp = zollab.engine.solve_ivp

    def recording_solve_ivp(fun, t_span, y0, events=(), **kwargs):
        sol = solve_ivp(fun, t_span, y0, events=events, **kwargs)
        chunks.append((sol.sol, [float(t) for ev, times in zip(events, sol.t_events)
                                 if ev.__name__ == "graze" for t in times]))
        return sol

    monkeypatch.setattr(zollab.engine, "solve_ivp", recording_solve_ivp)
    sweep = first_return_map(spec, sample_boundary(spec, 64), grazing_tol=grazing_tol)
    assert not chunks  # the sweep does not go through solve_ivp
    n = spec.dimension
    flows = [path.flow for path in sweep.paths]
    assert flows
    exits = 0
    for path in sweep.paths:
        y0 = np.concatenate([path.launch_point, path.launch_velocity])
        chunks.clear()
        integrate_flow(spec, geodesic_rhs(spec), y0, 50.0 * spec.scale_hint,
                       vector_blocks=[(n, n, 1)], grazing_tol=grazing_tol)
        grazing, t_exit = reference_grazing_and_exit(spec, chunks, grazing_tol)
        assert path.flow.grazing_times == grazing
        assert path.grazing == bool(grazing)
        if t_exit is not None:
            exits += 1
            assert path.return_time == t_exit
    if name == "eccentric_annulus" and grazing_tol > 1e-6:
        assert any(flow.grazing for flow in flows)
    assert exits == {"concentric_annulus": 32, "eccentric_annulus": 18}.get(name, 0)


def assert_steps_bit_equal(got, want):
    """Step tables, and deck crossings (which start the chunks), of two flows."""
    for got_piece, want_piece in zip(got.steps, want.steps):
        assert got_piece.tobytes() == want_piece.tobytes()
    assert np.array([t for t, _ in got.deck_crossings]).tobytes() == \
        np.array([t for t, _ in want.deck_crossings]).tobytes()
    assert got.deck_crossings == want.deck_crossings


def lockstep_case(name):
    """(spec, launch states (m, 2n), t_end, grazing_tol) of one lockstep case."""
    grazing_tol, t_end = GRAZING_TOL, None
    if name == "inline_cap":
        spec = load_manifold(generate("inline-cap-sweep", 1)[0]["manifold"])
    elif name == "inline_cylinder":
        spec = load_manifold(INLINE_CYLINDER)
    elif name == "eccentric_annulus":
        spec, grazing_tol = eccentric_annulus(), 0.03
    elif name == "concentric_annulus":
        spec = load_manifold(concentric_annulus(0.5, 6.0))
    elif name == "concentric_annulus_12":
        # its outer launches cross the hole inside a step (hidden dips)
        spec = load_manifold(concentric_annulus(0.5, 12.0))
    elif name == "ellipse_short":
        spec, t_end = make_example("ellipse"), 3.0  # chords from 2 to 4 long
    elif name == "solid_torus_tilted":
        spec = make_example("solid_torus", rotation=2 * np.pi / 5)
    else:
        spec = make_example(name.removesuffix("_tilted"))
    n = spec.dimension
    y0 = np.array([np.concatenate([p, inward_unit_normal(spec, p)])
                   for p in map(partial(project_to_boundary, spec),
                                sample_boundary(spec, 64).points)])
    if name.endswith("_tilted"):
        # flat chart: turn each normal by its own angle, across the deck faces
        angle = np.linspace(-1.4, 1.4, len(y0))
        c, s = np.cos(angle), np.sin(angle)
        if name == "solid_torus_tilted":
            # towards the tau axis, along which the normals have no component
            y0[:, n:2 * n - 1] *= c[:, None]
            y0[:, 2 * n - 1] = s
        else:
            vx, vy = y0[:, n].copy(), y0[:, n + 1].copy()
            y0[:, n], y0[:, n + 1] = c * vx - s * vy, s * vx + c * vy
    return spec, y0, 50.0 * spec.scale_hint if t_end is None else t_end, grazing_tol


LOCKSTEP_CASES = catalog_names() + ["flat_band_tilted", "solid_torus_tilted", "inline_cap",
                                    "inline_cylinder", "eccentric_annulus", "concentric_annulus",
                                    "concentric_annulus_12", "ellipse_short"]


@pytest.mark.parametrize("name", LOCKSTEP_CASES)
def test_lockstep_flows_bit_equal_to_integrate_flow(name):
    spec, y0, t_end, grazing_tol = lockstep_case(name)
    n = spec.dimension
    flows = lockstep_flows(spec, geodesic_rhs(spec), y0, t_end, vector_blocks=[(n, n, 1)],
                           grazing_tol=grazing_tol)
    assert len(flows) == len(y0)
    rejected = 0
    for y, got in zip(y0, flows):
        want = integrate_flow(spec, geodesic_rhs(spec), y, t_end, vector_blocks=[(n, n, 1)],
                              grazing_tol=grazing_tol)
        assert got.status == want.status
        for field in ("times", "states", "event_time", "event_state"):
            assert np.asarray(getattr(got, field)).tobytes() == \
                np.asarray(getattr(want, field)).tobytes(), field
        assert_steps_bit_equal(got, want)
        assert np.array(got.grazing_times).tobytes() == np.array(want.grazing_times).tobytes()
        assert (got.nfev, got.n_steps) == (want.nfev, want.n_steps)
        # per chunk (a deck crossing starts one): one evaluation for f, one for
        # the initial step, six per try
        rejected += (got.nfev - 2 * (len(got.deck_crossings) + 1)) // 6 - got.n_steps
    if name in ("spherical_cap", "inline_cap"):
        assert rejected > 0
    if name.endswith("_tilted"):
        assert sum(len(f.deck_crossings) for f in flows) > 0
    if name == "ellipse_short":
        assert {f.status for f in flows} == {"boundary", "t_end"}
    if name.startswith("concentric_annulus"):
        # flows cut at a hole crossing were integrated past it
        assert sum(f.n_steps > len(f.steps[0]) for f in flows) == 32


@pytest.mark.parametrize("case", ["crossings", "flip"])
def test_lockstep_flows_raise_what_integrate_flow_raises(case, monkeypatch):
    # the launches of the tilted strips that exit RUN_FAILED: lockstep_flows
    # raises the error of the first flow that fails, which integrate_flow
    # raises on that flow's launch alone
    if case == "crossings":
        monkeypatch.setattr(zollab.engine, "MAX_CHUNKS", 10)
    spec = load_manifold(tilted_strip(case))
    n = spec.dimension
    points = project_to_boundary(spec, sample_boundary(spec, 32).points)
    y0 = np.concatenate([points, inward_unit_normal(spec, points)], axis=1)
    t_end = 50.0 * spec.scale_hint
    rhs = geodesic_rhs(spec)
    for y in y0:
        try:
            integrate_flow(spec, rhs, y, t_end, vector_blocks=[(n, n, 1)])
        except IntegrationError as exc:
            want = str(exc)
            break
    else:
        pytest.fail("no launch fails")
    with pytest.raises(IntegrationError) as got:
        lockstep_flows(spec, rhs, y0, t_end, vector_blocks=[(n, n, 1)])
    assert str(got.value) == want


def test_active_events_are_find_active_events(rng):
    # value pairs with exact zeros of both signs, and NaN, in every direction
    values = np.array([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0, np.nan])
    g, g_new = rng.choice(values, size=(2, 500, 6))
    direction = np.array([-1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    active = _active_events(g, g_new, direction)
    assert active.shape == g.shape
    for row, a, b in zip(active, g, g_new):
        assert np.flatnonzero(row).tobytes() == find_active_events(a, b, direction).tobytes()


def coupled_rhs(t, y):
    """A right-hand side of elementwise products, so that each row of a stack
    gets what its state alone gets: 0 at y = 1, 1 at y = 0."""
    return (y - 1.0) * (y[..., ::-1] - 1.0)


@pytest.mark.parametrize("N", [4, 6, 33])
def test_initial_steps_are_select_initial_step(N, rng):
    # each row's step, and whether it calls the right-hand side, are those of
    # scipy's select_initial_step on that row alone; the rows take every
    # branch of the rule
    rtol, atol = 1e-10, 1e-12
    y0 = np.vstack([rng.normal(scale=3.0, size=(40, N)),
                    np.zeros((2, N)),                                  # d0 < 1e-5
                    1.0 + rng.choice([1e-8, -1e-8], size=(4, N)),      # d1 < 1e-5
                    np.ones((2, N))])                                  # d1 = d2 = 0
    f0 = coupled_rhs(None, y0)
    t0 = rng.uniform(0.0, 3.0, len(y0))
    t_bound = t0 + rng.uniform(0.5, 50.0, len(y0))
    t_bound[:6] = t0[:6] + [1e-9, 1e-12, 0.0, 3e-7, 1e-9, 0.0]  # cap h0, or empty
    t_bound[-3] = t0[-3] + 1e-9
    taken = set()
    for max_step in (0.5, 1e-7):
        calls = []

        def rhs(t, y):
            calls.append(len(y))
            return coupled_rhs(t, y)

        h, probed = initial_steps(rhs, y0, f0, np.abs(t_bound - t0), max_step, rtol, atol)
        assert calls == [int(probed.sum())]
        for i in range(len(y0)):
            f1 = []

            def fun(t, y):
                f1.append(coupled_rhs(t, y))
                return f1[-1]

            direction = np.sign(t_bound[i] - t0[i]) if t_bound[i] != t0[i] else 1
            want = select_initial_step(fun, t0[i], y0[i], t_bound[i], max_step, f0[i],
                                       direction, 4, rtol, atol)
            assert h[i].tobytes() == np.float64(want).tobytes()
            assert len(f1) == probed[i]
            if not f1:
                taken.add("empty interval")
                continue
            scale = atol + np.abs(y0[i]) * rtol
            d0, d1 = ivp_norm(y0[i] / scale), ivp_norm(f0[i] / scale)
            h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
            taken.add("d0 < 1e-5" if d0 < 1e-5 else "d1 < 1e-5" if d1 < 1e-5 else "d0/d1")
            interval = abs(t_bound[i] - t0[i])
            if interval < h0:
                taken.add("h0 = interval")
                h0 = interval
            d2 = ivp_norm((f1[0] - f0[i]) / scale) / h0
            taken.add("d1, d2 <= 1e-15" if d1 <= 1e-15 and d2 <= 1e-15 else "h1 from d1, d2")
            if want == max_step:
                taken.add("max_step")
    assert taken == {"empty interval", "d0 < 1e-5", "d1 < 1e-5", "d0/d1", "h0 = interval",
                     "d1, d2 <= 1e-15", "h1 from d1, d2", "max_step"}


def _kept_events(events, terminal, active, state, t_old, t):
    """The events ``active`` that fire in a step from t_old to t with
    polynomial ``state``, and their roots, as the lockstep stepper keeps them
    for one step: ``_event_roots`` on the step, then ``_first_terminal``."""
    roots = _event_roots(events, active, state, t_old, t)
    kept = _first_terminal(terminal, active, roots)
    return active[kept], roots[kept]


def test_kept_events_are_handle_events(rng):
    # random step polynomials near the corner of flat_band where the bottom
    # boundary (hit, graze) meets the face wrap-: on every step with two or
    # more active events, the kept events, their roots and the stop state are
    # those of handle_events on the step's RkDenseOutput
    spec = make_example("flat_band")
    events, tags = _event_functions(spec, True)
    direction = np.array([event.direction for event in events], dtype=float)
    terminal = np.array([event.terminal for event in events], dtype=bool)
    _, max_events, _ = prepare_events(events)
    seen = set()
    for _ in range(600):
        y_old = np.concatenate([rng.uniform(0.0, 0.2, 2), rng.normal(size=2)])
        Q = rng.normal(scale=0.5, size=(4, 4))
        t_old = rng.uniform(0.0, 5.0)
        t = t_old + rng.uniform(0.05, 0.5)
        sol = RkDenseOutput(t_old, t, y_old, Q)
        g = np.array([event(t_old, y_old) for event in events])
        g_new = np.array([event(t, sol(t)) for event in events])
        want = find_active_events(g, g_new, direction)
        if want.size < 2:
            continue
        # a chunk's terminal events have not fired before: each counts once
        count = np.zeros(len(events))
        count[want] += 1
        want_kept, want_roots, terminate = handle_events(
            sol, events, want, count, max_events, t_old, t)
        state = _step_state((Q, y_old, t_old, t - t_old))
        kept, roots = _kept_events(events, terminal, np.flatnonzero(
            _active_events(g, g_new, direction)), state, t_old, t)
        assert kept.tobytes() == want_kept.tobytes()
        assert roots.tobytes() == np.asarray(want_roots).tobytes()
        assert terminal[kept[-1]] == terminate
        if terminate:
            assert state(roots[-1]).tobytes() == sol(want_roots[-1]).tobytes()
        seen.add(tuple(tags[e][0] for e in want))
    # terminal plus graze, two terminal, and all three
    assert {("boundary", "graze"), ("boundary", "deck"), ("graze", "deck"),
            ("boundary", "graze", "deck")} <= seen


@pytest.mark.parametrize("name", ["euclidean_ball", "flat_moebius"])
def test_no_run_calls_solve_ivp(name, monkeypatch, tmp_path):
    # sweeps and Jacobi frames go through lockstep_flows; on the Moebius band
    # the frames' blocks are transported across the flip
    def refuse(*args, **kwargs):
        raise AssertionError("solve_ivp called")

    monkeypatch.setattr(zollab.engine, "solve_ivp", refuse)
    code, report = cli.run(RunManifest(manifold={"catalog": name, "params": {}}),
                           analyses=("all",), out_dir=str(tmp_path), quiet=True)
    assert code == 0
    assert report.index_quadratic is not None and report.index_focal is not None


@pytest.mark.parametrize("case", ["inline_cap", "flat_band_tilted", "euclidean_ball_frames"])
def test_lockstep_evaluates_the_metric_on_stacks_only(case, catalog_sweeps, monkeypatch):
    # steps, events and initial steps are stacked, and so are a sweep's launch
    # normals and arrival checks: a sweep, flows across deck faces and the
    # Jacobi frames of a sweep evaluate the metric at no single point
    one_point = []
    jet = MetricField.jet

    def counted_jet(self, x):
        one_point.append(np.ndim(x) == 1)
        return jet(self, x)

    if case == "inline_cap":
        spec = load_manifold(generate("inline-cap-sweep", 1)[0]["manifold"])
        launches = sample_boundary(spec, 512)
        monkeypatch.setattr(MetricField, "jet", counted_jet)
        assert len(first_return_map(spec, launches).paths) == 512
    elif case == "flat_band_tilted":
        spec, y0, t_end, _ = lockstep_case(case)
        n = spec.dimension
        monkeypatch.setattr(MetricField, "jet", counted_jet)
        flows = lockstep_flows(spec, geodesic_rhs(spec), y0, t_end, vector_blocks=[(n, n, 1)])
        assert sum(len(flow.deck_crossings) for flow in flows) > 0
    else:
        spec, sweep = catalog_sweeps["euclidean_ball"]
        # each frame's start is taken at its launch point alone
        y0 = [_frame_start(spec, path)[0] for path in sweep.paths]
        monkeypatch.setattr(MetricField, "jet", counted_jet)
        lockstep_flows(spec, jacobi_rhs(spec), y0, sweep.return_times,
                       vector_blocks=frame_vector_blocks(spec.dimension), detect_boundary=False)
    assert one_point and not any(one_point)


def test_no_return_recorded_with_its_launch_point():
    el = make_example("ellipse")
    launches = sample_boundary(el, 8)
    sweep = first_return_map(el, launches, t_max=1.5)
    assert sweep.errors
    for i, msg in sweep.errors:
        p = project_to_boundary(el, launches.points[i])
        assert msg == f"no return (not Zoll or t_max too small): {el.name!r} from {p}"
    with pytest.raises(NoReturnError) as info:
        shoot(el, launches.points[sweep.errors[0][0]], t_max=1.5)
    assert str(info.value) == sweep.errors[0][1]


def reference_uniform_grid(m, d):
    """The uniform launch grid on d >= 1 axes, written apart from engine: the
    cell centres of one axis, or of a meshgrid with sides near m ** (1/d)."""
    if d == 1:
        return ((np.arange(m) + 0.5) / m).reshape(-1, 1)
    sides = [max(1, int(round(m ** (1.0 / d))))] * d
    prod = int(np.prod(sides[:-1]))
    sides[-1] = max(1, m // prod)
    axes = [(np.arange(s) + 0.5) / s for s in sides]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in mesh], axis=1)


def reference_patch_points(point_exprs, params):
    """Points of an inline patch in u0 as one lambdify per chart coordinate
    gives them, each called on the parameter column."""
    import sympy as sp
    u0 = sp.Symbol("u0", real=True)
    fns = [sp.lambdify([u0], sp.sympify(e, locals={"u0": u0, "pi": sp.pi}), modules="numpy")
           for e in point_exprs]
    return np.stack([np.broadcast_to(np.asarray(fn(params[:, 0]), dtype=float), (len(params),))
                     for fn in fns], axis=1)


class TestLaunchSets:
    def test_projection_and_counts(self, specs):
        for key in ["flat_disk", "flat_band", "solid_torus"]:
            spec = specs[key]
            ls = sample_boundary(spec, 64, seed=1)
            assert len(ls.points) == len(ls.patch_ids) == len(ls.params) == 64
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
        for spec in (specs["euclidean_ball3"], specs["solid_torus"], specs["flat_band"],
                     make_example("index_ladder", n=4, k=1)):
            for count in range(1, 140, 3):
                for strategy in ("uniform", "low-discrepancy"):
                    got = len(sample_boundary(spec, count, strategy=strategy).points)
                    assert launch_count(spec, count, strategy) == got

    def test_uniform_grid_shrinks_on_two_parameter_patches(self, specs):
        ball = specs["euclidean_ball3"]
        for asked, got, near in ((32, 30, (30, 36)), (48, 42, (42, 49)),
                                 (130, 121, (121, 132))):
            assert launch_count(ball, asked) == got
            assert nearest_exact_launch_counts(ball, asked) == near
            assert launch_count(ball, asked, "low-discrepancy") == asked

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_uniform_launch_params_are_the_grid_reference(self, d):
        # the grids of sample_boundary and of the structured sweeps (n_side ** d)
        for m in range(1, 601):
            got, want = launch_params(d, m), reference_uniform_grid(m, d)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), m

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_inline_cap_rim_is_the_lambdify_reference(self, seed):
        # the rim points of the inline-cap-sweep workload, compiled with the
        # metric's printer, against one lambdify per coordinate
        manifold = generate("inline-cap-sweep", seed)[0]["manifold"]
        patch = load_manifold(manifold).boundary_patches[0]
        for u in (launch_params(1, 512), launch_params(1, 64, "low-discrepancy", seed)):
            want = reference_patch_points(manifold["inline"]["boundary_patches"][0]["point"], u)
            assert patch.points(u).tobytes() == want.tobytes()

    def test_inline_patch_powers_are_scalar(self, rng):
        # each row of a stack is the point taken alone, and each power is libm's
        patch = load_manifold({"inline": dict(
            INLINE_CYLINDER["inline"],
            boundary_patches=[{"name": "curve", "dim": 1, "point": ["u0**2", "2*u0**3 - u0"]}],
        )}).boundary_patches[0]
        u = rng.random((257, 1))
        stack = patch.points(u)
        for row, (x,) in zip(stack, u):
            assert row.tobytes() == patch.points([[x]])[0].tobytes()
            assert row.tolist() == [math.pow(x, 2), 2 * math.pow(x, 3) - x]

    def test_newton_projection(self, specs):
        disk = specs["flat_disk"]
        p = project_to_boundary(disk, np.array([1.0 + 3e-9, 1e-9]))
        assert abs(disk.boundary.value(p)) <= 1e-12


class TestExports:
    def test_sweep_csv_header_and_rows(self, sweeps):
        sweep = sweeps["euclidean_ball3"]
        buf = io.StringIO()
        sweep_to_csv(sweep, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "launch,t,x1,x2,x3,v1,v2,v3"
        assert lines[-1] == ""
        rows = lines[1:-1]
        assert len(rows) == sum(len(path.times) for path in sweep.paths)
        first = sweep.paths[0]
        assert rows[0].split(",")[0] == str(first.index)
        assert float(rows[0].split(",")[1]) == first.times[0]

    def test_sweep_csv_special_values(self):
        # each row through one %-format keeps what one f-string per value wrote
        values = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, 0.1, 1 / 3, 1e22,
                           -123456789.123456789, 2.0 ** 60, 0.0])
        times, points, velocities = values[:4], values[4:12].reshape(4, 2), \
            values[::-1][:8].reshape(4, 2)
        path = SimpleNamespace(index=7, times=times, points=points, velocities=velocities)
        sweep = SimpleNamespace(spec=SimpleNamespace(dimension=2), paths=[path])
        buf = io.StringIO()
        sweep_to_csv(sweep, buf)
        want = "launch,t,x1,x2,v1,v2\n" + "".join(
            "7," + ",".join(f"{c:.17g}" for c in [t, *x, *v]) + "\n"
            for t, x, v in zip(times, points, velocities))
        assert buf.getvalue() == want
        assert want.split("\n")[1] == "7,-0,4.9406564584124654e-324,1e-300,0,1.152921504606847e+18"
        assert {"nan", "inf", "-inf", "-0"} <= set(want.replace("\n", ",").split(","))

    def test_sweep_json_roundtrip(self, sweeps):
        doc = sweep_to_json(sweeps["flat_band"])
        text = json.dumps(doc)
        parsed = json.loads(text)
        assert parsed["summary"]["n_returned"] == 64
        assert len(parsed["launches"]) == 64

    @pytest.mark.parametrize("count,t_max,returned", [(8, 1.5, 0), (64, 2.5, 52)])
    def test_sweep_json_lost_launches(self, count, t_max, returned):
        # chords of the ellipse run from 2 to 4: a lost launch keeps its raw
        # launch-set point, its patch and the message of its NoReturnError
        el = make_example("ellipse")
        launches = sample_boundary(el, count)
        doc = json.loads(json.dumps(sweep_to_json(first_return_map(el, launches, t_max=t_max))))
        assert doc["summary"]["n_launches"] == count
        assert doc["summary"]["n_returned"] == returned
        assert doc["summary"]["n_errors"] == count - returned
        assert doc["summary"]["grazing_count"] == 0
        assert ("return_time_mean" in doc["summary"]) == (returned > 0)
        assert [e["index"] for e in doc["launches"]] == list(range(count))
        lost = [e for e in doc["launches"] if e["error"] is not None]
        assert len(lost) == count - returned
        for e in lost:
            i = e["index"]
            p = project_to_boundary(el, launches.points[i])
            assert e == {"index": i, "patch": int(launches.patch_ids[i]),
                         "launch": [float(c) for c in launches.points[i]],
                         "return_time": None, "arrival": None, "normal_deviation": None,
                         "grazing": False,
                         "error": f"no return (not Zoll or t_max too small): {el.name!r} from {p}"}
        for e in doc["launches"]:
            if e["error"] is None:
                assert e["return_time"] <= t_max and len(e["arrival"]) == 2


def test_no_return_raises():
    el = make_example("ellipse")
    with pytest.raises(NoReturnError, match="no return"):
        shoot(el, np.array([2.0, 0.0]), t_max=1.0)


@pytest.mark.parametrize("t_max", [0.0, -1.0, float("nan")])
def test_nonpositive_t_max_rejected(t_max):
    disk = make_example("flat_disk")
    with pytest.raises(ValueError, match="t_end must be positive"):
        shoot(disk, np.array([1.0, 0.0]), t_max=t_max)


def test_bad_launch_point_rejected():
    disk = make_example("flat_disk")
    with pytest.raises(ValueError, match="not on the boundary"):
        shoot(disk, np.array([0.2, 0.0]))
    # a sweep names its first launch off the boundary, as projected
    points = np.array([[1.0, 0.0], [0.2, 0.0], [0.0, 0.3]])
    with pytest.raises(ValueError) as info:
        first_return_map(disk, LaunchSet(points, np.zeros(3, dtype=int), [], "uniform"))
    assert str(info.value) == (f"launch point {project_to_boundary(disk, points[1])} "
                               f"not on the boundary of {disk.name!r}")


class TestTrajectoryStaysInside:
    @pytest.mark.parametrize("key", ["flat_disk", "spherical_cap", "flat_moebius"])
    def test_boundary_function_nonnegative_along_path(self, key, specs, sweeps):
        spec = specs[key]
        for path in sweeps[key].paths[::16]:
            for x in path.points:
                assert spec.boundary.value(x) >= -spec.boundary.eps
            assert abs(spec.boundary.value(path.arrival_point)) <= spec.boundary.eps

    @pytest.mark.parametrize("key", ["spherical_band", "euclidean_ball3", "solid_torus"])
    def test_tolerance_halving_more_examples(self, key, specs):
        spec = specs[key]
        p = spec.boundary_patches[0].points(
            np.full((1, spec.boundary_patches[0].param_dim), 0.37))[0]
        r1 = shoot(spec, p, rtol=1e-10, atol=1e-12).return_time
        r2 = shoot(spec, p, rtol=5e-11, atol=5e-13).return_time
        assert abs(r1 - r2) < 1e-8
