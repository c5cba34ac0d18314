import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from clusterseg.errors import ClusterSegError, PlacementError
from clusterseg.geometry import CameraIntrinsics, feature_distance
from clusterseg.scenegen import (BACKDROP_RGB, RAY_MIN_T, GeneratorConfig, Primitive, Scene,
                                 backdrop, occlusion_scores, render, sample_scene,
                                 scene_from_json, scene_to_json, surface_points)

from conftest import small_config
from reference_scenegen import reference_occlusion_score

IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)


def _sphere(center, radius, albedo=(0.8, 0.2, 0.2)):
    return Primitive(kind="sphere", quaternion=IDENTITY_Q, translation=center,
                     half_extents=(radius, radius, radius), albedo=albedo)


def _box(center, he, q=IDENTITY_Q, albedo=(0.2, 0.8, 0.2)):
    return Primitive(kind="box", quaternion=q, translation=center,
                     half_extents=he, albedo=albedo)


# --- independent scalar ray caster used as the oracle ----------------------

def _oracle_ray_sphere(d, center, r):
    dd = sum(c * c for c in d)
    dc = sum(a * b for a, b in zip(d, center))
    disc = dc * dc - dd * (sum(c * c for c in center) - r * r)
    if disc < 0:
        return None
    near = (dc - math.sqrt(disc)) / dd
    far = (dc + math.sqrt(disc)) / dd
    for t in (near, far):
        if t > 1e-9:
            return t
    return None


def _oracle_ray_box(d, prim):
    R = prim.rotation
    trans = prim.translation
    # camera origin and ray direction in the box frame: R^T (x - trans)
    o = [-sum(R[a][i] * trans[a] for a in range(3)) for i in range(3)]
    dl = [sum(R[a][i] * d[a] for a in range(3)) for i in range(3)]
    he = prim.half_extents
    t_near, t_far = -math.inf, math.inf
    for a in range(3):
        if dl[a] == 0.0:
            if abs(o[a]) > he[a]:
                return None
            continue
        lo = (-he[a] - o[a]) / dl[a]
        hi = (he[a] - o[a]) / dl[a]
        lo, hi = min(lo, hi), max(lo, hi)
        t_near = max(t_near, lo)
        t_far = min(t_far, hi)
    if t_far < t_near or t_far <= 1e-9:
        return None
    return t_near if t_near > 1e-9 else t_far


def _oracle_hit(prim, d):
    if prim.kind == "sphere":
        return _oracle_ray_sphere(d, prim.translation, prim.half_extents[0])
    return _oracle_ray_box(d, prim)


def test_sample_scene_deterministic():
    cfg = small_config()
    a = sample_scene(7, cfg)
    b = sample_scene(7, cfg)
    assert a == b
    fa = render(a)
    fb = render(b)
    for name in ("rgb", "depth", "xyz", "instance_map", "amodal_masks"):
        assert np.array_equal(getattr(fa, name), getattr(fb, name))
    assert np.array_equal(fa.occlusion_scores, fb.occlusion_scores)


def test_sample_scene_count_range():
    scene = sample_scene(3, small_config(count_range=(1, 1)))
    assert len(scene.objects) == 1
    for seed in range(5):
        scene = sample_scene(seed, small_config(count_range=(3, 3)))
        assert len(scene.objects) == 3


def test_sample_scene_feature_separation():
    cfg = small_config(count_range=(4, 6), min_feature_separation=0.1)
    for seed in range(5):
        scene = sample_scene(seed, cfg)
        features = [p.feature for p in scene.objects]
        for i in range(len(features)):
            for j in range(i + 1, len(features)):
                assert feature_distance(features[i], features[j]) >= 0.1


def test_sample_scene_placement_error():
    cfg = small_config(count_range=(3, 3), min_feature_separation=1e6, max_attempts=20)
    with pytest.raises(PlacementError):
        sample_scene(0, cfg)


def test_sample_scene_objects_in_front():
    for seed in range(5):
        scene = sample_scene(seed, small_config())
        for prim in scene.objects:
            he = np.asarray(prim.half_extents)
            assert prim.translation[2] - np.linalg.norm(he) > 0.05


def test_centered_sphere_render():
    intr = CameraIntrinsics(200.0, 200.0, 64.0, 64.0, 128, 128)
    scene = Scene(objects=(_sphere((0.0, 0.0, 1.0), 0.2),), camera=intr,
                  background_depth=None)
    frame = render(scene)
    mask = frame.instance_map == 1
    assert mask.any()
    # The central ray hits the sphere head-on at depth z - r.
    assert abs(frame.depth[64, 64] - 0.8) < 1e-6
    assert abs(frame.depth[mask].min() - 0.8) < 1e-6
    # Central symmetry about the principal point.
    rows, cols = np.nonzero(mask)
    for r, c in zip(rows, cols):
        rr, cc = 128 - r, 128 - c
        if 0 <= rr < 128 and 0 <= cc < 128:
            assert mask[rr, cc]
    # Background stays empty without a backdrop.
    assert np.all(frame.depth[~mask] == 0.0)
    assert np.array_equal(frame.xyz[..., 2], frame.depth)


def test_coaxial_spheres_occlusion():
    intr = CameraIntrinsics(100.0, 100.0, 32.0, 32.0, 64, 64)
    near = _sphere((0.0, 0.0, 1.0), 0.1)
    far = _sphere((0.0, 0.0, 1.6), 0.25, albedo=(0.1, 0.1, 0.9))
    scene = Scene(objects=(near, far), camera=intr, background_depth=None)
    frame = render(scene)
    assert frame.occlusion_scores[0] == 1.0
    assert frame.occlusion_scores[1] < 1.0
    assert frame.occlusion_scores[1] > 0.0


def test_empty_scene():
    intr = CameraIntrinsics(32.0, 32.0, 8.0, 8.0, 16, 16)
    frame = render(Scene(objects=(), camera=intr, background_depth=None))
    assert np.all(frame.instance_map == 0)
    assert np.all(frame.depth == 0.0)
    assert frame.amodal_masks.shape == (0, 16, 16)


def test_background_depth_fills_misses():
    intr = CameraIntrinsics(32.0, 32.0, 8.0, 8.0, 16, 16)
    frame = render(Scene(objects=(), camera=intr, background_depth=2.5))
    assert np.all(frame.depth == 2.5)


def test_backdrop_gives_what_a_pixel_no_object_covers():
    assert backdrop(None) == (0.0, 0.0)
    assert backdrop(2.5) == (BACKDROP_RGB, 2.5)


@pytest.mark.parametrize("depth", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
def test_a_backdrop_depth_that_is_not_finite_and_positive_is_rejected(depth):
    message = re.escape(f"background_depth must be finite and positive, or None, got {depth}")
    intr = CameraIntrinsics(32.0, 32.0, 8.0, 8.0, 16, 16)
    for make in (backdrop, lambda d: Scene(objects=(), camera=intr, background_depth=d),
                 lambda d: GeneratorConfig(background_depth=d)):
        with pytest.raises(ClusterSegError, match=message):
            make(depth)


def test_render_against_scalar_oracle():
    # Brute-force re-raycast of full 32x32 frames, scalar math per pixel.
    for seed in (0, 1, 2):
        scene = sample_scene(seed, small_config(count_range=(2, 4)))
        frame = render(scene)
        intr = scene.camera
        for v in range(intr.height):
            for u in range(intr.width):
                d = ((u - intr.ppx) / intr.fx, (v - intr.ppy) / intr.fy, 1.0)
                hits = [(_oracle_hit(p, d), k + 1) for k, p in enumerate(scene.objects)]
                hits = [(t, k) for t, k in hits if t is not None]
                # amodal masks record any hit per object
                for t, k in hits:
                    assert frame.amodal_masks[k - 1][v, u]
                if not hits:
                    assert frame.instance_map[v, u] == 0
                    continue
                best_t, best_k = min(hits)
                assert frame.instance_map[v, u] == best_k
                assert frame.depth[v, u] == pytest.approx(best_t, abs=1e-9)
                # depth equals the minimum over per-object amodal depths
                assert frame.depth[v, u] == pytest.approx(min(t for t, _ in hits), abs=1e-9)


def test_modal_equals_amodal_minus_closer_objects():
    scene = sample_scene(5, small_config(count_range=(3, 4)))
    frame = render(scene)
    for k in range(len(scene.objects)):
        modal = frame.instance_map == k + 1
        assert not np.any(modal & ~frame.amodal_masks[k])
        expected = reference_occlusion_score(modal, frame.amodal_masks[k])
        assert frame.occlusion_scores[k] == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@seed(0)
@given(data=st.data())
def test_render_ids_exactly_the_union_of_the_amodal_masks_beyond_ray_min_t(data):
    # A frame bundle stores no foreground: the loader takes the masks' union,
    # and refuses a foreground depth at or below RAY_MIN_T. Wide placement
    # puts objects partly or wholly off-frame; the sides are odd.
    H, W = (2 * data.draw(st.integers(0, 20)) + 1 for _ in range(2))
    cfg = GeneratorConfig(count_range=(28, 30), size_range=(0.03, 0.12),
                          x_range=(-1.2, 1.2), y_range=(-1.2, 1.2), background_depth=None,
                          camera=CameraIntrinsics(float(W), float(H), W / 2.0, H / 2.0, W, H))
    try:
        scene = sample_scene(data.draw(st.integers(0, 2 ** 32 - 1)), cfg)
    except PlacementError:
        assume(False)
    frame = render(scene)
    foreground = frame.instance_map > 0
    assert np.array_equal(foreground, frame.amodal_masks.any(axis=0))
    assert (frame.depth[foreground] > RAY_MIN_T).all()
    assert not frame.depth[~foreground].any()


def test_occlusion_score_cases():
    # all visible, a quarter visible, an empty amodal mask
    scores = occlusion_scores(np.array([100, 25, 0]), np.array([100, 100, 0]))
    assert scores.dtype == np.float64 and scores.tolist() == [1.0, 0.25, 0.0]
    # every count below 2^53 gives the correctly rounded quotient of Python's int division
    rng = np.random.default_rng(0)
    amodal = rng.integers(1, 2**53, size=1000)
    visible = rng.integers(0, amodal + 1)
    assert occlusion_scores(visible, amodal).tolist() == [
        v / a for v, a in zip(visible.tolist(), amodal.tolist())]


def test_scene_json_round_trip():
    scene = sample_scene(9, small_config())
    assert scene_from_json(scene_to_json(scene)) == scene
    with pytest.raises(ClusterSegError):
        scene_from_json("{not json")
    with pytest.raises(ClusterSegError):
        scene_from_json("{}")


def test_primitive_validation():
    with pytest.raises(ClusterSegError):
        Primitive(kind="cone", quaternion=IDENTITY_Q, translation=(0, 0, 1),
                  half_extents=(0.1, 0.1, 0.1), albedo=(1, 1, 1))
    with pytest.raises(ClusterSegError):
        Primitive(kind="box", quaternion=(1.0, 0.5, 0.0, 0.0), translation=(0, 0, 1),
                  half_extents=(0.1, 0.1, 0.1), albedo=(1, 1, 1))
    with pytest.raises(ClusterSegError):
        Primitive(kind="box", quaternion=IDENTITY_Q, translation=(0, 0, 1),
                  half_extents=(0.1, -0.1, 0.1), albedo=(1, 1, 1))
    with pytest.raises(ClusterSegError):
        Primitive(kind="sphere", quaternion=IDENTITY_Q, translation=(0, 0, 1),
                  half_extents=(0.1, 0.2, 0.1), albedo=(1, 1, 1))


PRIMITIVE_MESSAGES = {"quaternion": "quaternion must be a unit 4-vector",
                      "half_extents": "half_extents must be three positive values",
                      "translation": "translation must be three finite values",
                      "albedo": "albedo must be three finite values"}


@pytest.mark.parametrize("field, value", [
    *((field, math.nan) for field in PRIMITIVE_MESSAGES),
    ("quaternion", math.inf), ("half_extents", math.inf), ("half_extents", -math.inf),
    ("translation", math.inf), ("translation", -math.inf), ("albedo", math.inf),
])
def test_primitive_rejects_a_nan_or_an_infinite_value(field, value):
    message = PRIMITIVE_MESSAGES[field]
    valid = dict(kind="box", quaternion=IDENTITY_Q, translation=(0.0, 0.0, 1.0),
                 half_extents=(0.1, 0.1, 0.1), albedo=(0.5, 0.5, 0.5))
    for index in range(len(valid[field])):
        damaged = list(valid[field])
        damaged[index] = value
        with pytest.raises(ClusterSegError, match=message):
            Primitive(**{**valid, field: tuple(damaged)})


def test_surface_points_cover_box_bounds():
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        he = rng.uniform(0.05, 0.3, size=3)
        prim = _box((0.1, -0.2, 1.4), tuple(he), q=tuple(q))
        pts = surface_points(prim)
        corners = np.array([[sx * he[0], sy * he[1], sz * he[2]]
                            for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
        corners = corners @ prim.rotation.T + np.array(prim.translation)
        expected_center = 0.5 * (corners.min(axis=0) + corners.max(axis=0))
        got_center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        assert np.allclose(got_center, expected_center, atol=1e-12)


def test_surface_points_sphere_extremes():
    prim = _sphere((0.2, 0.1, 1.5), 0.3)
    pts = surface_points(prim)
    assert pts.shape == (4096, 3)
    center = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    assert np.allclose(center, prim.translation, atol=1e-12)
    radii = np.linalg.norm(pts - np.asarray(prim.translation), axis=1)
    assert np.allclose(radii, 0.3, atol=1e-12)
