import numpy as np
import pytest

from zollab.catalog import (
    CATALOG,
    ExampleParameterError,
    Isometry,
    catalog_names,
    euclidean_ball,
    example_manifest,
    flat_disk,
    identity_isometry,
    index_ladder,
    isometry_residual,
    make_example,
    mapping_torus,
    rotation_isometry,
)
from zollab.engine import nearest_exact_launch_counts
from zollab.manifest import load_manifold
from zollab.verifier import MIN_LAUNCHES


class TestParameterValidation:
    def test_cap_radius_range(self):
        with pytest.raises(ExampleParameterError, match="parameter violates"):
            make_example("spherical_cap", radius=np.pi / 2)
        with pytest.raises(ExampleParameterError, match="parameter violates"):
            make_example("spherical_cap", radius=-0.1)

    def test_band_positive_sizes(self):
        with pytest.raises(ExampleParameterError):
            make_example("flat_band", half_length=-1.0)

    @pytest.mark.parametrize("build,args", [(euclidean_ball, (2.5,)),
                                            (index_ladder, (4.7, 1.2)),
                                            (flat_disk, (float("nan"),))])
    def test_direct_calls_check_as_make_example(self, build, args):
        # these built a 2-ball, a 4-dimensional index-1 ladder and flat_disk(L=nan)
        with pytest.raises(ExampleParameterError):
            build(*args)

    def test_direct_calls_bind_each_parameter_once(self):
        assert flat_disk().name == "flat_disk(L=1)"
        assert index_ladder(4, 1).name == "index_ladder(n=4,k=1)"
        assert euclidean_ball(3, radius=2.0).name == "euclidean_ball(n=3,L=2)"
        for args, kwargs in (((1.0, 2.0), {}), ((1.0,), {"radius": 2.0})):
            with pytest.raises(TypeError):
                flat_disk(*args, **kwargs)

    def test_ellipse_needs_distinct_axes(self):
        with pytest.raises(ExampleParameterError):
            make_example("ellipse", a=1.0, b=1.0)

    def test_ladder_desk_scale_cap(self):
        with pytest.raises(ExampleParameterError, match="desk-scale cap"):
            index_ladder(6, 1)
        with pytest.raises(ExampleParameterError):
            index_ladder(3, 3)

    def test_unknown_example_and_params(self):
        with pytest.raises(KeyError, match="unknown catalog example"):
            make_example("klein_bottle")
        with pytest.raises(ExampleParameterError, match="unknown parameters"):
            make_example("flat_disk", diameter=2.0)


class TestAnnotations:
    @pytest.mark.parametrize("name,params,expected", [
        ("flat_disk", {"radius": 1.0},
         {"half_length": 1.0, "index": 1, "components": 1, "soul_dim": 0}),
        ("flat_moebius", {"width": 1.0, "twist_length": 3.0},
         {"half_length": 1.0, "index": 0, "components": 1, "soul_dim": 1}),
        ("spherical_band", {"max_latitude": np.pi / 6},
         {"half_length": np.pi / 6, "index": 0, "components": 2}),
        ("euclidean_ball", {"n": 3},
         {"half_length": 1.0, "index": 2, "components": 1, "soul_dim": 0}),
    ])
    def test_ground_truth_annotations(self, name, params, expected):
        spec = make_example(name, **params)
        for key, val in expected.items():
            assert spec.annotations[key] == pytest.approx(val)
        assert spec.annotations["zoll"]

    def test_ellipse_not_zoll(self):
        assert make_example("ellipse").annotations["zoll"] is False

    def test_every_example_documents_its_chart(self):
        for name in catalog_names():
            spec = make_example(name)
            assert spec.chart_notes


class TestMappingTorus:
    def test_rotation_is_isometry_of_disk(self):
        disk = make_example("flat_disk")
        assert isometry_residual(disk, rotation_isometry(0.7)) <= 1e-10

    def test_non_isometry_rejected(self):
        disk = make_example("flat_disk")
        stretch = Isometry("stretch", 2.0 * np.eye(2), 0.5 * np.eye(2))
        with pytest.raises(ValueError, match="not an isometry"):
            mapping_torus(disk, stretch)

    def test_isometry_must_keep_the_boundary(self):
        # a rotation keeps the ellipse's flat metric but not its boundary: the
        # torus+ deck would send the rim point (2, 0, 1) to where b = -0.62
        with pytest.raises(ValueError, match="not an isometry of 'ellipse"):
            mapping_torus(make_example("ellipse"), rotation_isometry(0.7))
        assert make_example("solid_torus", rotation=0.7).dimension == 3
        assert isometry_residual(make_example("spherical_cap"), identity_isometry(2)) == 0.0

    def test_nan_residual_is_no_isometry(self):
        # NaN > tol is False: a NaN rotation must not pass for an isometry
        with pytest.raises(ValueError, match=r"not an isometry .*\(residual nan\)"):
            mapping_torus(make_example("flat_disk"), rotation_isometry(float("nan")))

    def test_annotation_lift(self):
        disk = make_example("flat_disk")
        torus = mapping_torus(disk, rotation_isometry(2 * np.pi / 5))
        ann = torus.annotations
        assert torus.dimension == 3
        assert ann["half_length"] == 1.0
        assert ann["index"] == 1
        assert ann["components"] == 1
        assert ann["soul_dim"] == 1

    def test_metric_is_base_plus_flat_direction(self):
        cap = make_example("spherical_cap")
        torus = mapping_torus(cap, identity_isometry(2))
        x = np.array([0.05, 0.02, 0.3])
        g = torus.metric.matrix(x)
        assert np.allclose(g[:2, :2], cap.metric.matrix(x[:2]))
        assert g[2, 2] == 1.0 and abs(g[0, 2]) == 0.0

    def test_twisted_deck_rotates(self):
        alpha = 2 * np.pi / 5
        torus = make_example("solid_torus", rotation=alpha)
        hi = next(d for d in torus.deck_maps if d.name == "torus2+")
        x = np.array([0.5, 0.0, 1.0])
        y = hi.apply_point(x)
        assert y[2] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(y[:2], [0.5 * np.cos(alpha), -0.5 * np.sin(alpha)])

    def test_iterated_torus_dimension(self):
        tower = mapping_torus(mapping_torus(make_example("flat_disk")))
        assert tower.dimension == 4
        assert tower.annotations["index"] == 1
        assert tower.annotations["soul_dim"] == 2


class TestIndexLadder:
    def test_dispatch_small_cases(self):
        assert index_ladder(2, 0).name.startswith("flat_moebius")
        assert index_ladder(2, 1).name.startswith("euclidean_ball(n=2")
        assert index_ladder(3, 2).name.startswith("euclidean_ball(n=3")
        assert index_ladder(3, 1).dimension == 3

    @pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 2), (4, 0)])
    def test_rotation_needs_a_torus_over_the_disk(self, n, k):
        # these built the untwisted ladder, the rotation dropped
        with pytest.raises(ExampleParameterError, match="a rotation needs k = 1 and n >= 3"):
            index_ladder(n, k, rotation=0.7)

    def test_twisted_ladder_is_named(self):
        twisted = index_ladder(3, 1, rotation=0.7)
        assert twisted.name == "index_ladder(n=3,k=1,alpha=0.7)"
        assert index_ladder(3, 1).name == "index_ladder(n=3,k=1)"
        # its torus deck rotates the disk
        hi = next(d for d in twisted.deck_maps if d.name == "torus2+")
        y = hi.apply_point(np.array([0.5, 0.0, 1.0]))
        assert np.allclose(y[:2], [0.5 * np.cos(0.7), -0.5 * np.sin(0.7)])

    @pytest.mark.parametrize("n,k", [(n, k) for n in (2, 3, 4) for k in range(n)])
    def test_annotations_consistent(self, n, k):
        spec = index_ladder(n, k)
        assert spec.dimension == n
        assert spec.annotations["index"] == k
        assert spec.annotations["half_length"] == 1.0


@pytest.mark.parametrize("name,params", [(name, {}) for name in sorted(CATALOG)]
                         + [("index_ladder", {"n": n, "k": k})
                            for n in range(2, 6) for k in range(n)])
def test_every_catalog_chart_can_be_certified(name, params):
    # a point patch launches once whatever share it is asked for, so no
    # count of at least MIN_LAUNCHES would be exact
    spec = make_example(name, **params)
    assert spec.dimension >= 2
    assert all(patch.param_dim >= 1 for patch in spec.boundary_patches)
    assert nearest_exact_launch_counts(spec, MIN_LAUNCHES - 1)[1] is not None


class TestManifestFragments:
    def test_example_manifest_roundtrip(self):
        for name in catalog_names():
            doc = example_manifest(name)
            spec = load_manifold(doc)
            assert spec.dimension >= 2

    def test_registry_defaults_complete(self):
        for name, (fn, defaults) in CATALOG.items():
            spec = fn(**defaults)
            assert spec.boundary_patches, name
