import numpy as np
import pytest

from test_manifest_cli import INLINE_CYLINDER
from test_metric_jet import CATALOG_CASES
from zollab.catalog import make_example, rotation_isometry, sphere_points
from zollab.geometry import (
    BoundaryChart,
    DegenerateMetricError,
    ManifoldSpec,
    MetricField,
    NotBoundaryPointError,
    boundary_tangent_basis,
    christoffel_raw,
    curvature_operator_raw,
    inward_unit_normal,
    second_fundamental_form,
)
from zollab.manifest import expression_boundary, load_manifold
from zollab.verifier import certify


def deck_isometry_residual(spec, deck, x):
    """|| dpsi^T g(psi(x)) dpsi - g(x) || at each point of the stack x (m, n),
    the metric taken as one stacked call on each side."""
    d = np.array([deck.differential(p) for p in x], dtype=float)
    images = np.array([deck.apply_point(p) for p in x])
    g_here = spec.metric.matrix(x)
    g_there = spec.metric.matrix(images)
    return np.linalg.norm(d.swapaxes(-1, -2) @ g_there @ d - g_here, axis=(-2, -1))


def sphere_polar_metric():
    # round unit sphere, polar chart g = dr^2 + sin^2(r) dtheta^2
    return MetricField.from_matrix(
        2,
        lambda x: np.diag([1.0, np.sin(x[0]) ** 2]),
        lambda x: np.array([[[0.0, 0.0], [0.0, np.sin(2.0 * x[0])]],
                            [[0.0, 0.0], [0.0, 0.0]]]),
    )


class TestChristoffel:
    def test_flat_metric_vanishes(self):
        disk = make_example("flat_disk")
        for x in [np.array([0.1, 0.2]), np.array([-0.5, 0.3])]:
            assert np.allclose(christoffel_raw(disk.metric, x), 0.0)

    def test_sphere_polar_closed_form(self):
        # Gamma^r_tt = -sin r cos r, Gamma^t_rt = cot r, all others zero
        metric = sphere_polar_metric()
        r = 0.8
        gam = christoffel_raw(metric, np.array([r, 1.1]))
        assert gam[0, 1, 1] == pytest.approx(-np.sin(r) * np.cos(r), abs=1e-12)
        assert gam[1, 0, 1] == pytest.approx(1.0 / np.tan(r), abs=1e-12)
        assert gam[1, 1, 0] == pytest.approx(1.0 / np.tan(r), abs=1e-12)
        assert gam[0, 0, 0] == 0.0 and gam[1, 1, 1] == 0.0

    def test_product_metric_time_row(self):
        # g = dt^2 + (1 + t^2) dx^2: Gamma^0_11 = -t vanishes at t = 0
        met = MetricField.from_matrix(2, lambda x: np.diag([1.0, 1.0 + x[0] ** 2]))
        gam = christoffel_raw(met, np.array([0.0, 0.7]))
        assert abs(gam[0, 1, 1]) < 1e-11

    def test_symmetry_exact_and_fd_agreement(self, rng):
        cap = make_example("spherical_cap", radius=np.pi / 3)
        fd_metric = MetricField.from_matrix(2, cap.metric.matrix)  # finite-difference derivatives
        for _ in range(100):
            x = rng.uniform(-0.3, 0.3, size=2)
            gam = christoffel_raw(cap.metric, x)
            assert np.array_equal(gam, gam.transpose(0, 2, 1))
            gam_fd = christoffel_raw(fd_metric, x)
            assert np.allclose(gam_fd, gam, atol=1e-6 * max(1.0, np.abs(gam).max()))

    def test_degenerate_metric_raises(self):
        met = MetricField.from_matrix(2, lambda x: np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateMetricError, match="degenerate metric"):
            christoffel_raw(met, np.array([0.0, 0.0]))


class TestCurvature:
    def test_flat_zero(self):
        disk = make_example("flat_disk")
        M = curvature_operator_raw(disk.metric, np.array([0.3, -0.2]), np.array([1.0, 0.0]))
        assert np.abs(M).max() < 1e-10

    def test_unit_sphere_tidal_operator(self, rng):
        # Jacobi equation J'' = R_v J on the unit sphere has J = sin(t) E(t),
        # so the operator acts as -1 on unit vectors orthogonal to v
        cap = make_example("spherical_cap", radius=np.pi / 3)
        for _ in range(5):
            x = rng.uniform(-0.3, 0.3, size=2)
            g = cap.metric.matrix(x)
            v = rng.normal(size=2)
            v = v / np.sqrt(v @ g @ v)
            w = rng.normal(size=2)
            w = w - (w @ g @ v) * v
            w = w / np.sqrt(w @ g @ w)
            M = curvature_operator_raw(cap.metric, x, v)
            assert np.linalg.norm(M @ w + w) < 1e-8
            assert np.linalg.norm(M @ v) < 1e-10

    def test_scaling_by_radius(self):
        # metric scaled by c^2 scales the operator (at unit-speed data) by 1/c^2
        cap = make_example("spherical_cap", radius=np.pi / 3)
        met2 = MetricField.from_matrix(2, lambda x: 4.0 * cap.metric.matrix(x),
                                       lambda x: 4.0 * cap.metric.derivative(x))
        x = np.array([0.15, 0.1])
        g1 = cap.metric.matrix(x)
        v = np.array([1.0, 0.4])
        v1 = v / np.sqrt(v @ g1 @ v)
        M1 = curvature_operator_raw(cap.metric, x, v1)
        M2 = curvature_operator_raw(met2, x, v1 / 2.0)
        w = np.array([0.2, 1.0])
        assert np.allclose(M2 @ w, 0.25 * (M1 @ w), atol=1e-9)

    def test_skew_symmetry_two_evaluations(self, rng):
        # g(R(v,w)v, w) via the operator matrix vs. direct contraction of the
        # lowered tensor assembled the same way with v and w interchanged roles
        cap = make_example("spherical_cap", radius=np.pi / 3)
        for _ in range(20):
            x = rng.uniform(-0.25, 0.25, size=2)
            g = cap.metric.matrix(x)
            v = rng.normal(size=2)
            v /= np.sqrt(v @ g @ v)
            w = rng.normal(size=2)
            M_v = curvature_operator_raw(cap.metric, x, v)
            direct = w @ g @ (M_v @ w)
            # pair symmetry of the curvature tensor: g(R(v,w)v, w) = g(R(w,v)w, v)
            M_w = curvature_operator_raw(cap.metric, x, w)
            swapped = v @ g @ (M_w @ v)
            assert direct == pytest.approx(swapped, abs=1e-8 * max(1.0, abs(direct)))


class TestSecondFundamentalForm:
    def test_flat_half_plane_vanishes(self):
        # straight boundary x0 = 0 of the upper half plane
        spec = ManifoldSpec(
            name="half-plane",
            metric=MetricField.from_matrix(2, lambda x: np.eye(2),
                                           lambda x: np.zeros((2, 2, 2))),
            boundary=BoundaryChart(lambda x: x[..., 0],
                                   lambda x: np.broadcast_to([1.0, 0.0], x.shape),
                                   lambda x: np.zeros((2, 2))),
            domain=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        )
        S = second_fundamental_form(spec, np.array([0.0, 0.3]))
        assert np.abs(S).max() < 1e-12

    def test_flat_disk_rim_curvature(self):
        # circle of radius L with the inward normal: S(u, u) = +1/L
        for L in [1.0, 2.5]:
            disk = make_example("flat_disk", radius=L)
            p = np.array([L, 0.0])
            S = second_fundamental_form(disk, p)
            u = np.array([0.0, 1.0])
            assert u @ S @ u == pytest.approx(1.0 / L, abs=1e-9)

    def test_geodesic_sphere_in_round_three_sphere(self):
        # boundary of a ball of radius r in the round 3-sphere: S(u,u) = cot(r)
        r = 0.7
        cap = make_example("spherical_cap", radius=r, dim=3)
        p = np.array([np.tan(r / 2.0), 0.0, 0.0])
        S = second_fundamental_form(cap, p)
        basis = boundary_tangent_basis(cap, p)
        for u in basis:
            assert u @ S @ u == pytest.approx(1.0 / np.tan(r), abs=1e-7)

    def test_off_boundary_raises(self):
        disk = make_example("flat_disk")
        with pytest.raises(NotBoundaryPointError, match="not a boundary point"):
            second_fundamental_form(disk, np.array([0.5, 0.0]))


# a flip whose block spans the translated axis: x0 shifts, x2 flips
INLINE_FLIP_SLAB = {"inline": {
    "name": "inline-flip-slab", "dimension": 3,
    "metric": {"kind": "expression",
               "entries": [["1", "0", "0"], ["0", "2 + cos(x1)", "0"], ["0", "0", "1"]]},
    "boundary": {"expression": "(1 - x2**2)/2"},
    "domain": {"lo": [-0.5, -1.0, -1.5], "hi": [2.5, 1.0, 1.5]},
    "deck_maps": [{"kind": "flip_translation", "axis": 0, "period": 2.0, "flip_axis": 2}]}}

# the catalog cases with deck maps, and an inline chart of each deck kind
DECK_CASES = {**{f"{n}{p or ''}": (n, p) for n, p in CATALOG_CASES
                 if make_example(n, **p).deck_maps},
              "inline_translation": INLINE_CYLINDER, "inline_flip_translation": INLINE_FLIP_SLAB}


def deck_case(key):
    case = DECK_CASES[key]
    return load_manifold(case) if isinstance(case, dict) else make_example(case[0], **case[1])


def test_deck_maps_are_the_closure_arithmetic(rng):
    # the expressions the decks were once written as closures in, bit for bit:
    # a translation x -/+ e, the flip's negation of a coordinate, the rotation
    # matmul(rot, x[..., None]) of the tau seam and its shift by -/+1
    alpha = 2 * np.pi / 5
    rot = rotation_isometry(alpha).matrix

    def flip(x, axis):
        y = x.copy()
        y[..., axis] = -y[..., axis]
        return y

    def tau(x, linear, step):
        y = x.copy()
        y[..., :2] = np.matmul(linear, y[..., :2][..., None])[..., 0]
        y[..., 2] += step
        return y

    band, moebius = make_example("flat_band"), make_example("flat_moebius")
    torus, slab = make_example("solid_torus", rotation=alpha), load_manifold(INLINE_FLIP_SLAB)
    e_band, e_moebius, e_slab = np.array([0.0, 2 * np.pi]), np.array([0.0, 3.0]), 2 * np.eye(3)[0]
    d_moebius, d_slab = np.diag([-1.0, 1.0]), np.diag([1.0, 1.0, -1.0])
    d_up, d_down = np.eye(3), np.eye(3)
    d_up[:2, :2], d_down[:2, :2] = rot.T, rot
    # (spec, deck, face, image, differential)
    cases = [
        (band, "wrap+", lambda x: 2.0 * np.pi - x[..., 1], lambda x: x - e_band, np.eye(2)),
        (band, "wrap-", lambda x: x[..., 1], lambda x: x + e_band, np.eye(2)),
        (moebius, "twist+", lambda x: 3.0 - x[..., 1], lambda x: flip(x, 0) - e_moebius,
         d_moebius),
        (moebius, "twist-", lambda x: x[..., 1], lambda x: flip(x, 0) + e_moebius, d_moebius),
        (torus, "torus+", lambda x: 1.0 - x[..., 2], lambda x: tau(x, rot.T, -1.0), d_up),
        (torus, "torus-", lambda x: x[..., 2], lambda x: tau(x, rot, 1.0), d_down),
        (slab, "ft0+", lambda x: 2.0 - x[..., 0], lambda x: flip(x, 2) - e_slab, d_slab),
        (slab, "ft0-", lambda x: x[..., 0], lambda x: flip(x, 2) + e_slab, d_slab),
    ]
    for spec, name, face, image, differential in cases:
        deck = deck_named(spec, name)
        xs = rng.uniform(-4.0, 4.0, size=(64, spec.dimension))
        assert deck.face_value(xs).tobytes() == face(xs).tobytes(), name
        assert deck.apply_point(xs).tobytes() == image(xs).tobytes(), name
        for x in xs[:8]:
            assert deck.face_value(x) == face(x) and isinstance(deck.face_value(x), float)
            assert deck.apply_point(x).tobytes() == image(x).tobytes(), name
            assert deck.differential(x).tobytes() == differential.tobytes(), name


class TestNormalsAndDecks:
    @pytest.mark.parametrize("key", ["flat_disk", "flat_band", "flat_moebius",
                                     "spherical_cap", "spherical_band",
                                     "euclidean_ball3", "solid_torus"])
    def test_inward_unit_normal(self, key, specs, rng):
        spec = specs[key]
        for patch in spec.boundary_patches:
            u = rng.random((100 // max(len(spec.boundary_patches), 1), patch.param_dim))
            for p in patch.points(u):
                nu = inward_unit_normal(spec, p)
                g = spec.metric.matrix(p)
                assert abs(nu @ g @ nu - 1.0) < 1e-12
                assert spec.boundary.gradient(p) @ nu > 0.0

    def test_indefinite_metric_is_named(self):
        # a disk of radius 2 whose metric g11 = 1 - x0**2/2 is indefinite on
        # part of the rim: the sweep stops at the first launch point there,
        # blaming the metric, not the boundary
        spec = load_manifold({"inline": {
            "name": "indefinite-rim", "dimension": 2,
            "metric": {"kind": "expression", "entries": [["1 - x0**2/2", "0"], ["0", "1"]]},
            "boundary": {"expression": "(4 - x0**2 - x1**2)/4"},
            "domain": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0]},
            "boundary_patches": [{"name": "rim", "dim": 1, "periodic": [True],
                                  "point": ["2*cos(2*pi*u0)", "2*sin(2*pi*u0)"]}],
            "scale_hint": 2.0}})
        with pytest.raises(ValueError, match=r"^metric of 'indefinite-rim' is not positive "
                                             r"definite at \[1\.99759091 0\.09813535\]$"):
            certify(spec, 64)

    def test_vanishing_gradient_is_named(self):
        spec = ManifoldSpec("cone", MetricField.from_matrix(2, lambda x: np.eye(2)),
                            expression_boundary("1 - x0**2 - x1**2", 2),
                            np.array([[-2.0, 2.0]] * 2))
        points = np.array([[0.6, 0.8], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"^boundary gradient vanishes at \[0\. 0\.\] "):
            inward_unit_normal(spec, points)

    @pytest.mark.parametrize("key", sorted(DECK_CASES))
    def test_deck_isometry_and_inverse(self, key, rng):
        # every deck is an isometry, keeps b (identifications never cross the
        # boundary) and is undone by its partner, the other map of its pair (a
        # tower of mapping tori has a torus pair per level)
        spec = deck_case(key)
        lo, hi = spec.domain[:, 0], spec.domain[:, 1]
        xs = lo + rng.random((100, spec.dimension)) * (hi - lo)
        assert spec.deck_maps
        for i, deck in enumerate(spec.deck_maps):
            assert np.all(deck_isometry_residual(spec, deck, xs) <= 1e-10)
            ys = deck.apply_point(xs)
            assert np.all(np.abs(spec.boundary.value(ys) - spec.boundary.value(xs)) <= 1e-10)
            partner = spec.deck_maps[i ^ 1]
            assert partner.name == deck.name[:-1] + "+-"[deck.name.endswith("+")]
            assert np.all(np.linalg.norm(partner.apply_point(ys) - xs, axis=-1) <= 1e-12)


def deck_named(spec, name):
    return next(d for d in spec.deck_maps if d.name == name)


class TestNormalizeIntoDomain:
    # a point beyond a face is brought back by that face's deck map, and a
    # tangent vector by its differential, as the engine does at a crossing

    def test_moebius_flip_shift(self):
        mo = make_example("flat_moebius", width=1.0, twist_length=3.0)
        c = 3.0
        x = np.array([0.1, c + 0.2])
        deck = deck_named(mo, "twist+")
        assert deck.face_value(x) < 0
        y = deck.apply_point(x)
        assert np.allclose(y, [-0.1, 0.2])
        assert np.allclose(deck.differential(x) @ np.array([0.3, 1.0]), [-0.3, 1.0])
        assert all(d.face_value(y) >= 0 for d in mo.deck_maps)

    def test_interior_point_unchanged(self):
        mo = make_example("flat_moebius")
        assert all(d.face_value(np.array([0.2, 1.0])) >= 0 for d in mo.deck_maps)

    def test_cylinder_translation(self):
        band = make_example("flat_band", half_length=1.0, circumference=1.0)
        x = np.array([0.5, 1.75])
        deck = deck_named(band, "wrap+")
        assert deck.face_value(x) < 0
        y = deck.apply_point(x)
        assert np.allclose(y, [0.5, 0.75])
        assert np.allclose(deck.differential(x) @ np.array([0.2, 0.9]), [0.2, 0.9])
        assert all(d.face_value(y) >= 0 for d in band.deck_maps)

    def test_norm_preserved(self, rng):
        mo = make_example("flat_moebius")
        deck = deck_named(mo, "twist+")
        for _ in range(20):
            x = np.array([rng.uniform(-0.9, 0.9), rng.uniform(3.0, 5.9)])
            v = rng.normal(size=2)
            g0 = mo.metric.matrix(x)
            n0 = np.sqrt(v @ g0 @ v)
            y, w = deck.apply_point(x), deck.differential(x) @ v
            assert all(d.face_value(y) >= 0 for d in mo.deck_maps)
            g1 = mo.metric.matrix(y)
            assert np.sqrt(w @ g1 @ w) == pytest.approx(n0, abs=1e-10)


def test_sphere_points_unit_norm(rng):
    for dim in [2, 3, 4]:
        u = rng.random((40, dim - 1))
        pts = sphere_points(u, dim, 1.0)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


class TestMetricFieldInvariants:
    @pytest.mark.parametrize("key", ["flat_disk", "flat_band", "flat_moebius",
                                     "spherical_cap", "spherical_band",
                                     "euclidean_ball3", "solid_torus", "ellipse"])
    def test_symmetric_positive_definite(self, key, specs, rng):
        spec = specs[key]
        lo, hi = spec.domain[:, 0], spec.domain[:, 1]
        for _ in range(50):
            x = lo + rng.random(spec.dimension) * (hi - lo)
            g = spec.metric.matrix(x)
            assert np.abs(g - g.T).max() <= 1e-14 * max(1.0, np.abs(g).max())
            assert np.linalg.eigvalsh(g)[0] > 0.0

    @pytest.mark.parametrize("key", ["spherical_cap", "spherical_band", "solid_torus"])
    def test_fd_and_analytic_christoffel_agree(self, key, specs, rng):
        spec = specs[key]
        fd_metric = MetricField.from_matrix(spec.dimension, spec.metric.matrix)
        interior = []
        lo, hi = spec.domain[:, 0], spec.domain[:, 1]
        while len(interior) < 100:
            x = lo + rng.random(spec.dimension) * (hi - lo)
            if spec.boundary.value(x) > 0:
                interior.append(x)
        for x in interior:
            gam = christoffel_raw(spec.metric, x)
            gam_fd = christoffel_raw(fd_metric, x)
            scale = max(1.0, np.abs(gam).max())
            assert np.abs(gam_fd - gam).max() <= 1e-6 * scale

    def test_curvature_two_evaluation_routes(self, specs, rng):
        # g(R(v,w)v, w) from the operator matrix vs. a direct index
        # contraction of the curvature tensor assembled from the formula
        spec = specs["spherical_cap"]
        metric = spec.metric
        from zollab.geometry import _fd_step

        def lowered_contraction(x, v, w):
            n = metric.dimension
            gam = christoffel_raw(metric, x)
            dgam = np.empty((n, n, n, n))
            h = _fd_step(x)
            for l in range(n):
                xp, xm = x.copy(), x.copy()
                xp[l] += h[l]
                xm[l] -= h[l]
                dgam[l] = (christoffel_raw(metric, xp) - christoffel_raw(metric, xm)) / (2 * h[l])
            # R^k_{lij} = d_i G^k_{jl} - d_j G^k_{il} + G^k_{im} G^m_{jl} - G^k_{jm} G^m_{il}
            R = (np.einsum("ikjl->klij", dgam) - np.einsum("jkil->klij", dgam)
                 + np.einsum("kim,mjl->klij", gam, gam)
                 - np.einsum("kjm,mil->klij", gam, gam))
            g = metric.matrix(x)
            R_low = np.einsum("km,mlij->klij", g, R)
            return float(np.einsum("klij,i,j,l,k->", R_low, v, w, v, w))

        for _ in range(10):
            x = rng.uniform(-0.2, 0.2, size=2)
            g = spec.metric.matrix(x)
            v = rng.normal(size=2)
            v /= np.sqrt(v @ g @ v)
            w = rng.normal(size=2)
            via_operator = w @ g @ (curvature_operator_raw(metric, x, v) @ w)
            direct = lowered_contraction(x, v, w)
            assert via_operator == pytest.approx(direct, abs=1e-8 * max(1.0, abs(direct)))
