"""``spec.deck_images`` and QuotientCloud queries against brute-force loops
over the deck maps, one point and one pair at a time."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zollab.catalog import make_example
from zollab import geometry
from zollab.geometry import DeckMap, ManifoldSpec, QuotientCloud
from zollab.verifier import certify

EXAMPLES = {
    "flat_disk": ("flat_disk", {}),
    "flat_band": ("flat_band", {}),
    "flat_moebius": ("flat_moebius", {}),
    "solid_torus": ("solid_torus", {"rotation": 2 * np.pi / 5}),
    "index_ladder": ("index_ladder", {"n": 3, "k": 1, "rotation": 0.7}),
}

# different floating-point expressions of the same distance agree to a few ulps
CLOSE = {"rtol": 1e-13, "atol": 1e-15}


@pytest.fixture(scope="module")
def examples():
    return {key: make_example(name, **params) for key, (name, params) in EXAMPLES.items()}


def _in_domain(spec, unit):
    """Map points of [0, 1]^n into the chart box of the spec."""
    lo, hi = spec.domain[:, 0], spec.domain[:, 1]
    return lo + (hi - lo) * unit


def _cloud(spec, m, seed):
    return _in_domain(spec, np.random.default_rng(seed).random((m, spec.dimension)))


# brute force: one point and one pair at a time

def brute_images(spec, x):
    """x and its images under up to two deck applications, in the order first
    reached, each one more than 1e-13 away from those before it."""
    images = [x]
    frontier = [x]
    for _ in range(2):
        new = []
        for y in frontier:
            for d in spec.deck_maps:
                z = d.apply_point(y)
                if all(np.linalg.norm(z - w) > 1e-13 for w in images):
                    images.append(z)
                    new.append(z)
        frontier = new
    return np.array(images)


def brute_distance(spec, x, y):
    return min(float(np.linalg.norm(img - y)) for img in brute_images(spec, x))


def brute_nearest_image(spec, x, center):
    imgs = brute_images(spec, x)
    return imgs[int(np.argmin([np.linalg.norm(img - center) for img in imgs]))]


def brute_matrix(spec, pts, queries):
    return np.array([[brute_distance(spec, p, q) for q in queries] for p in pts])


def check_all_queries(spec, pts, queries):
    cloud = QuotientCloud(spec, pts)
    assert len(cloud) == len(pts)

    for i, p in enumerate(pts):
        imgs = brute_images(spec, p)
        assert spec.deck_images(p).tobytes() == imgs.tobytes()
        assert cloud.images[i, :len(imgs)].tobytes() == imgs.tobytes()
        assert np.array_equal(cloud.images[i, len(imgs):],
                              np.broadcast_to(p, cloud.images[i, len(imgs):].shape))

    center = queries[0]
    for i, p in enumerate(pts):
        assert np.array_equal(cloud.nearest_image(center, i),
                              brute_nearest_image(spec, p, center))
    # one centre per selected point
    sel = np.arange(len(pts))[::-1]
    per_point = cloud.nearest_image(queries[sel % len(queries)], sel)
    for row, i in zip(per_point, sel):
        assert np.array_equal(row, brute_nearest_image(spec, pts[i], queries[i % len(queries)]))

    D = brute_matrix(spec, pts, pts)
    pairwise = cloud.pairwise()
    np.testing.assert_allclose(pairwise, np.minimum(D, D.T), **CLOSE)
    assert np.array_equal(pairwise, pairwise.T)

    Q = brute_matrix(spec, pts, queries)
    idx, dist = cloud.nearest(queries)
    np.testing.assert_allclose(dist, Q.min(axis=0), **CLOSE)
    np.testing.assert_allclose(dist, Q[idx, np.arange(len(queries))], **CLOSE)

    expected = max(Q.min(axis=1).max(), Q.min(axis=0).max())
    assert cloud.hausdorff(queries) == pytest.approx(expected, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("key", sorted(EXAMPLES))
def test_queries_match_brute_force(key, examples):
    spec = examples[key]
    check_all_queries(spec, _cloud(spec, 14, seed=1), _cloud(spec, 9, seed=2))


@pytest.mark.parametrize("key", sorted(EXAMPLES))
def test_images_of_a_cloud_seen_through_the_seam(key, examples):
    # points just inside opposite deck faces are close only through an image
    spec = examples[key]
    unit = np.random.default_rng(3).random((10, spec.dimension))
    unit[:5, -1] = 0.2 + 1e-3 * unit[:5, -1]
    unit[5:, -1] = 0.8 - 1e-3 * unit[5:, -1]
    pts = _in_domain(spec, unit)
    check_all_queries(spec, pts, pts[::-1] + 1e-4)


@pytest.mark.parametrize("block", [1, 7, 40])
def test_queries_split_into_blocks_of_cloud_points(block, examples, monkeypatch):
    monkeypatch.setattr(geometry, "_BLOCK_NUMBERS", block)
    spec = examples["solid_torus"]
    check_all_queries(spec, _cloud(spec, 11, seed=4), _cloud(spec, 3, seed=5))


def test_short_image_lists_are_padded_with_the_point(examples):
    # a reflection through the origin (a deck of period 0) is its own
    # inverse, and the origin is its own image
    flip = DeckMap("flip", 0, 0.0, True, -np.eye(2))
    spec = replace(examples["flat_disk"], deck_maps=[flip])
    pts = np.array([[0.0, 0.0], [0.5, 0.25], [-0.1, 0.7]])
    cloud = QuotientCloud(spec, pts)
    assert cloud.images.shape == (3, 2, 2)
    assert np.array_equal(cloud.images[0], np.zeros((2, 2)))
    check_all_queries(spec, pts, np.array([[0.4, 0.2], [0.0, -0.6]]))


def test_single_point_and_one_query(examples):
    spec = examples["flat_band"]
    x = np.array([0.5, 0.1])
    cloud = QuotientCloud(spec, x)
    assert cloud.points.shape == (1, 2)
    idx, dist = cloud.nearest(x + np.array([0.0, 2.0 * np.pi]))
    assert idx.tolist() == [0] and dist[0] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(key=st.sampled_from(["flat_band", "flat_moebius", "solid_torus"]),
       data=st.data())
def test_random_clouds_match_brute_force(key, data):
    name, params = EXAMPLES[key]
    spec = make_example(name, **params)
    n = spec.dimension
    unit = st.floats(0.0, 1.0, allow_nan=False)
    pts = data.draw(arrays(float, (data.draw(st.integers(1, 8)), n), elements=unit))
    queries = data.draw(arrays(float, (data.draw(st.integers(1, 6)), n), elements=unit))
    check_all_queries(spec, _in_domain(spec, pts), _in_domain(spec, queries))


def test_a_cloud_takes_its_deck_images_in_one_call(monkeypatch):
    # a twisted solid torus with soul and slices builds its clouds (arrival
    # pairing, midpoint clusters, soul, distances to the boundary, slices)
    # with one deck_images call each
    calls = {"clouds": 0, "deck_images": 0}
    init, deck_images = QuotientCloud.__init__, ManifoldSpec.deck_images

    def counted_init(self, *args):
        calls["clouds"] += 1
        init(self, *args)

    def counted_deck_images(self, x):
        calls["deck_images"] += 1
        return deck_images(self, x)

    monkeypatch.setattr(QuotientCloud, "__init__", counted_init)
    monkeypatch.setattr(ManifoldSpec, "deck_images", counted_deck_images)
    report = certify(make_example("solid_torus", rotation=2 * np.pi / 5), 156,
                     analyses=("certify", "soul", "slices"))
    assert report.verdict == "certified" and "error" not in report.soul
    assert all(check["passed"] for check in report.slices)
    assert calls["deck_images"] == calls["clouds"] >= 6
