"""The windowed renderer and the annotation maps against their references.

Every comparison is bit for bit: the dtype, shape and bytes of each
FrameBundle field and of each annotation map. The adversarial scenes put
primitives where the screen window is hardest to bound: around or behind
the camera, off screen, tangent to a pixel's ray, a million metres away,
and axis aligned so that rays run exactly parallel to a box face.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from clusterseg import scenegen
from clusterseg.annotation import annotate, make_bgt_map, make_centroid_candidates, make_xi_map
from clusterseg.geometry import CameraIntrinsics, compute_object_feature
from clusterseg.scenegen import (SURFACE_SAMPLE_COUNT, FrameBundle, GeneratorConfig, Primitive,
                                 Scene, _ray_directions, render, sample_scene, surface_points)

from reference_scenegen import (reference_box_points, reference_intersect_box,
                                reference_make_bgt_map, reference_make_centroid_candidates,
                                reference_make_xi_map, reference_object_feature,
                                reference_render, reference_sphere_points)

FIELDS = ("rgb", "depth", "xyz", "instance_map", "amodal_masks", "occlusion_scores")
IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)
BACKGROUNDS = (None, 2.5)


def _camera(width, height=None):
    height = width if height is None else height
    return CameraIntrinsics(float(width), float(width), width / 2.0, height / 2.0,
                            width, height)


def _prim(kind, translation, half, quaternion=IDENTITY_Q, albedo=(0.6, 0.5, 0.4)):
    he = (float(half),) * 3 if np.isscalar(half) else tuple(float(h) for h in half)
    return Primitive(kind=kind, quaternion=tuple(float(q) for q in quaternion),
                     translation=tuple(float(c) for c in translation), half_extents=he,
                     albedo=albedo)


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _random_q(rng):
    return tuple(_unit(rng.normal(size=4)))


def _same(got, want, name):
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def _assert_exact_frame(scene):
    fast, ref = render(scene), reference_render(scene)
    for name in FIELDS:
        _same(getattr(fast, name), getattr(ref, name), name)
    return fast


def _assert_exact_annotation(scene, frame):
    ann = annotate(scene, frame)
    xi_map, per_object = reference_make_xi_map(scene, frame)
    want = {"xi_map": xi_map, "per_object_xi": per_object,
            "eta_gt": reference_make_centroid_candidates(frame.instance_map, 0.2),
            "b_map": reference_make_bgt_map(per_object, frame.instance_map),
            "fg_mask": frame.instance_map > 0, "instance_map": frame.instance_map}
    for name, value in want.items():
        _same(getattr(ann, name), value, name)


def _assert_exact(objects, resolutions=(16, 33, 64)):
    for res in resolutions:
        for background in BACKGROUNDS:
            scene = Scene(objects=tuple(objects), camera=_camera(res),
                          background_depth=background)
            _assert_exact_annotation(scene, _assert_exact_frame(scene))


# ---------------------------------------------------------------------------
# sampled scenes

WIDE = dict(x_range=(-1.2, 1.2), y_range=(-1.2, 1.2), z_range=(0.3, 3.0),
            size_range=(0.03, 0.5))


@pytest.mark.parametrize("res, count", [(32, 30), (48, 30), (64, 30), (128, 20), (256, 10)])
def test_exact_on_sampled_scenes(res, count):
    """Default and wide placement, 1 to 8 objects, both backgrounds: 240 scenes."""
    for background in BACKGROUNDS:
        for seed in range(count):
            placement = WIDE if seed % 2 else {}
            cfg = GeneratorConfig(count_range=(1, 8), camera=_camera(res),
                                  background_depth=background, **placement)
            scene = sample_scene(seed * 7919 + res, cfg)
            _assert_exact_annotation(scene, _assert_exact_frame(scene))


# ---------------------------------------------------------------------------
# adversarial scenes

def test_exact_with_the_camera_inside_a_primitive():
    q = _random_q(np.random.default_rng(1))
    _assert_exact([_prim("sphere", (0.05, -0.02, 0.1), 0.5),
                   _prim("box", (0.1, 0.0, 1.0), 0.1, q)])
    _assert_exact([_prim("box", (0.02, 0.03, 0.05), (0.4, 0.3, 0.5), q),
                   _prim("sphere", (-0.1, 0.1, 1.2), 0.2)])


def test_exact_straddling_and_behind_the_camera():
    rng = np.random.default_rng(2)
    _assert_exact([_prim("sphere", (0.3, 0.1, 0.0), 0.4),
                   _prim("box", (-0.3, 0.2, 0.05), (0.2, 0.3, 0.3), _random_q(rng)),
                   _prim("sphere", (0.0, 0.0, -2.0), 0.5),
                   _prim("box", (0.1, 0.1, -1.0), 0.3, _random_q(rng)),
                   _prim("sphere", (0.0, -0.1, 1.5), 0.1)])


def test_exact_off_screen():
    rng = np.random.default_rng(3)
    _assert_exact([_prim("sphere", (5.0, 0.0, 1.0), 0.2),
                   _prim("box", (0.0, -4.0, 1.0), 0.2, _random_q(rng)),
                   _prim("sphere", (-0.8, 0.0, 1.0), 0.4),
                   _prim("sphere", (0.0, 0.0, 1.0), 0.1)])


def test_exact_axis_aligned_boxes():
    # Identity rotation: column and row ppx/ppy run parallel to box faces.
    _assert_exact([_prim("box", (0.3, 0.0, 1.0), 0.1),
                   _prim("box", (0.0, 0.0, 1.5), (0.2, 0.1, 0.1)),
                   _prim("box", (-0.2, 0.25, 1.2), 0.1),
                   _prim("box", (0.0, -0.3, 0.8), (0.05, 0.05, 0.2))])


def test_ray_parallel_to_a_slab_outside_it_misses():
    cam = CameraIntrinsics(16.0, 16.0, 8.0, 8.0, 16, 16)
    for translation, axis in (((0.3, 0.0, 1.0), 1), ((0.0, 0.3, 1.0), 0)):
        frame = render(Scene((_prim("box", translation, 0.1),), cam, None))
        hits = frame.amodal_masks[0]
        assert hits.any()
        # Column (or row) 8 looks along x = 0 (y = 0), a plane the box never meets.
        assert not hits.take(8, axis=axis).any()
        assert not (frame.instance_map.take(8, axis=axis)).any()


def test_exact_on_depth_ties():
    q = _random_q(np.random.default_rng(4))
    _assert_exact([_prim("sphere", (0.1, 0.0, 1.2), 0.2),
                   _prim("sphere", (0.1, 0.0, 1.2), 0.2, albedo=(0.9, 0.1, 0.1)),
                   _prim("box", (-0.2, 0.1, 1.0), 0.15, q),
                   _prim("box", (-0.2, 0.1, 1.0), 0.15, q, albedo=(0.1, 0.9, 0.1)),
                   _prim("sphere", (0.1, 0.0, 1.2 + 5e-10), 0.2, albedo=(0.1, 0.1, 0.9))])


def test_box_normals_match_the_reference_on_slab_ties():
    # _normals picks the bounding slab's axis with elementwise comparisons;
    # the reference's argmax and argmin pick the lowest axis of a tie. Rays
    # aimed at a box's corners and edge midpoints tie two or three slabs
    # exactly, rays in a face's plane run parallel to its slab, and the
    # camera inside a box makes every ray take its exit face.
    rng = np.random.default_rng(23)
    boxes = [_prim("box", (0.0, 0.0, 4.0), 1.0), _prim("box", (0.0, 0.0, 0.0), 1.0),
             _prim("box", (0.5, -0.25, 3.0), (0.5, 0.25, 1.0)),
             _prim("box", (0.0, 0.0, 2.0), 0.5, _random_q(rng))]
    steps = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    ties = 0
    for prim in boxes:
        he, c = np.asarray(prim.half_extents), np.asarray(prim.translation)
        points = c + np.stack(np.meshgrid(steps, steps, steps), -1).reshape(-1, 3) * he
        points = points[points[:, 2] > 0.0]
        dirs = np.concatenate([points / points[:, 2:], rng.uniform(-1.0, 1.0, size=(200, 3))])
        dirs[:, 2] = 1.0
        _, t1, t2, _, _ = scenegen._box_slabs(prim, dirs)
        ties += int(np.count_nonzero((t1 == t1.max(axis=1, keepdims=True)).sum(axis=1) > 1))
        ties += int(np.count_nonzero((t2 == t2.min(axis=1, keepdims=True)).sum(axis=1) > 1))
        _, want = reference_intersect_box(prim, dirs[None])
        _same(scenegen._normals(prim, dirs, np.ones(len(dirs))), want[0], "normals")
    assert ties > 50


def _tangent_spheres(rng, cam, count, scale):
    """Spheres tangent to one pixel's ray and to that pixel's row or column plane."""
    dirs = _ray_directions(cam)
    prims = []
    for _ in range(count):
        d = dirs[rng.integers(cam.height), rng.integers(cam.width)]
        normal = [1.0, 0.0, -d[0]] if rng.random() < 0.5 else [0.0, 1.0, -d[1]]
        r = rng.uniform(0.02, 0.3)
        c = scale * rng.uniform(1.0, 10.0) * d + rng.choice([-1.0, 1.0]) * r * _unit(normal)
        prims.append(_prim("sphere", c, r))
    return prims


def _corner_boxes(rng, cam, count, scale):
    """Boxes whose corner grazes a pixel's ray and the pixel's row or column plane.

    Two thirds of the quaternions are off unit length by 0.9e-9, within the
    Primitive tolerance, which can stretch the box by a few parts in 1e9;
    the ray then passes inside the stretched corner, beyond the radius.
    """
    dirs = _ray_directions(cam)
    prims = []
    for _ in range(count):
        d = dirs[rng.integers(cam.height), rng.integers(cam.width)]
        he = rng.uniform(0.03, 0.2, size=3)
        corner = rng.choice([-1.0, 1.0], size=3) * he
        # Rotate the corner direction onto v2, the normal of the pixel's row
        # or column plane, then spin about v2.
        v1 = corner / np.linalg.norm(he)
        normal = [1.0, 0.0, -d[0]] if rng.random() < 0.5 else [0.0, 1.0, -d[1]]
        v2 = rng.choice([-1.0, 1.0]) * _unit(normal)
        between = _unit(np.concatenate([[1.0 + v1 @ v2], np.cross(v1, v2)]))
        half = rng.uniform(0.0, np.pi)
        spin = np.concatenate([[np.cos(half)], np.sin(half) * v2])
        q = np.concatenate([[spin[0] * between[0] - spin[1:] @ between[1:]],
                            spin[0] * between[1:] + between[0] * spin[1:]
                            + np.cross(spin[1:], between[1:])])
        q = _unit(q) * (1.0 + rng.choice([-0.9e-9, 0.0, 0.9e-9]))
        # Center-to-corner offset of the box the slab test sees.
        offset = np.linalg.solve(_prim("box", (0, 0, 0), he, q).rotation.T, corner)
        grow = max(np.linalg.norm(offset) / np.linalg.norm(he) - 1.0, 0.0)
        c = scale * rng.uniform(1.0, 10.0) * d - (1.0 - grow / 2) * offset
        prims.append(_prim("box", c, he, q))
    return prims


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_exact_on_tangent_rays(scale):
    """Rays tangent to spheres and grazing box corners: the window's rounding margin."""
    rng = np.random.default_rng(int(scale))
    for res in (16, 33, 64):
        cam = _camera(res)
        for _ in range(12):
            objects = _tangent_spheres(rng, cam, 6, scale) + _corner_boxes(rng, cam, 6, scale)
            _assert_exact_frame(Scene(tuple(objects), cam, 2.5))


def _beside_a_ray(rng, cam, count, scale, kind):
    """Primitives of radius near 0.06 m whose center sits beside a pixel's ray."""
    dirs = _ray_directions(cam)
    prims = []
    for _ in range(count):
        d = dirs[rng.integers(cam.height), rng.integers(cam.width)]
        if kind == "box":
            he = rng.uniform(0.05, 0.07, size=3)
            radius = np.linalg.norm(he)
        else:
            he = np.full(3, rng.uniform(0.05, 0.07))
            radius = he[0]
        offset = rng.uniform(0.0, 3.0) * radius
        c = scale * rng.uniform(1.0, 10.0) * d + offset * _unit(np.cross(d, rng.normal(size=3)))
        prims.append(_prim(kind, c, he, _random_q(rng) if kind == "box" else IDENTITY_Q))
    return prims


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e5, 1e6])
def test_exact_far_from_the_camera(scale):
    rng = np.random.default_rng(int(np.log10(scale)))
    for res in (16, 33, 64):
        cam = _camera(res)
        for _ in range(12):
            objects = (_beside_a_ray(rng, cam, 6, scale, "sphere")
                       + _beside_a_ray(rng, cam, 6, scale, "box"))
            _assert_exact_frame(Scene(tuple(objects), cam, None))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@seed(0)
@given(data=st.data())
def test_exact_on_random_primitives(data):
    width = data.draw(st.integers(1, 40))
    height = data.draw(st.integers(1, 40))
    fx = data.draw(st.floats(0.5, 200.0))
    fy = data.draw(st.floats(0.5, 200.0))
    ppx = data.draw(st.floats(-10.0, width + 10.0))
    ppy = data.draw(st.sampled_from([height / 2.0, 0.0, float(height)]))
    cam = CameraIntrinsics(fx, fy, ppx, ppy, width, height)
    objects = []
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["sphere", "box"]))
        q = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
        aligned = data.draw(st.booleans()) or np.linalg.norm(q) < 1e-3
        scale = 10.0 ** data.draw(st.integers(-2, 6))
        translation = [scale * data.draw(st.floats(-1.0, 1.0)) for _ in range(3)]
        if kind == "sphere":
            half = 10.0 ** data.draw(st.floats(-2.0, 1.0))
        else:
            half = [10.0 ** data.draw(st.floats(-2.0, 1.0)) for _ in range(3)]
        objects.append(_prim(kind, translation, half, IDENTITY_Q if aligned else _unit(q)))
    background = data.draw(st.sampled_from(BACKGROUNDS))
    _assert_exact_frame(Scene(tuple(objects), cam, background))


# ---------------------------------------------------------------------------
# annotation: feature cache and table gathers

def test_feature_is_cached_on_the_primitive_and_read_only():
    fields = dict(kind="box", quaternion=_random_q(np.random.default_rng(5)),
                  translation=(0.1, 0.2, 1.0), half_extents=(0.1, 0.2, 0.3),
                  albedo=(0.5, 0.5, 0.5))
    prim = Primitive(**fields)
    xi = prim.feature
    assert prim.feature is xi
    assert not xi.flags.writeable
    with pytest.raises(ValueError):
        xi[0] = 1.0
    _same(xi, compute_object_feature(surface_points(prim)), "feature")
    # An equal primitive computes its own: the cache is per instance.
    twin = Primitive(**fields)
    assert "feature" not in vars(twin)
    _same(twin.feature, xi, "feature")


def test_annotate_reuses_the_features_sample_scene_computed(monkeypatch):
    scene = sample_scene(3, GeneratorConfig(camera=_camera(32)))
    frame = render(scene)

    def recomputed(*args, **kwargs):
        raise AssertionError("annotate recomputed an object feature")

    monkeypatch.setattr(scenegen, "surface_points", recomputed)
    ann = annotate(scene, frame)
    for k, prim in enumerate(scene.objects):
        _same(ann.per_object_xi[k], prim.feature, "per_object_xi")


def _random_cloud(rng):
    """An (N, 3) cloud of 1 to 9,000 points at a scale of 1e-3 to 1e3, maybe degenerate."""
    n = int(rng.integers(1, 9001)) if rng.random() < 0.5 else int(rng.integers(1, 40))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    points = (rng.normal(size=(n, 3)) + rng.normal(size=3) * rng.integers(0, 3)) * scale
    if rng.random() < 0.3:  # duplicate points
        points = points[rng.integers(0, max(1, n // 5), size=n)]
    if rng.random() < 0.4:  # signed zeros among other values
        points[rng.random((n, 3)) < 0.3] = 0.0
        points[rng.random((n, 3)) < 0.3] = -0.0
    if rng.random() < 0.3:  # an axis of signed zeros only
        points[:, rng.integers(0, 3)] = rng.choice([0.0, -0.0], size=n)
    if rng.random() < 0.2:  # one repeated point
        points[:] = points[0]
    return points


def test_feature_equals_the_point_order_reference_on_random_clouds():
    rng = np.random.default_rng(16)
    for _ in range(400):
        points = _random_cloud(rng)
        _same(compute_object_feature(points), reference_object_feature(points), "feature")


def test_feature_equals_the_reference_on_every_sampled_primitive():
    """Every primitive of 300 sampled scenes, default and wide placement."""
    for seed in range(300):
        cfg = GeneratorConfig(count_range=(1, 8), **(WIDE if seed % 2 else {}))
        for prim in sample_scene(seed, cfg).objects:
            points = surface_points(prim)
            want = reference_object_feature(points)
            _same(compute_object_feature(points), want, "feature")
            _same(prim.feature, want, "cached feature")


def test_sphere_sample_equals_the_reference_and_shares_a_read_only_unit_sphere():
    rng = np.random.default_rng(17)
    for n in (7, 64, 1000, SURFACE_SAMPLE_COUNT):
        for _ in range(5):
            prim = _prim("sphere", rng.normal(size=3) * 10.0 ** rng.uniform(-2, 3),
                         10.0 ** rng.uniform(-3, 2))
            _same(surface_points(prim, n), reference_sphere_points(prim, n), "sphere sample")
    unit = scenegen._unit_sphere(SURFACE_SAMPLE_COUNT)
    assert unit is scenegen._unit_sphere(SURFACE_SAMPLE_COUNT)
    assert not unit.flags.writeable



def test_box_sample_equals_the_face_by_face_reference():
    """Every box of 200 sampled scenes, and random boxes from cubes to slabs.

    A slab's thin faces, and every face at the small sample counts, take
    the grid's minimum of two points a side; half extents of 5e-324 give
    grid steps that underflow to zero.
    """
    boxes = [prim for seed in range(200)
             for prim in sample_scene(seed, GeneratorConfig(count_range=(1, 8),
                                                            **(WIDE if seed % 2 else {}))).objects
             if prim.kind == "box"]
    rng = np.random.default_rng(18)
    for _ in range(200):
        half = 10.0 ** rng.uniform(-4, 2, size=3)
        if rng.random() < 0.5:  # a slab: one axis 1e-3 to 1e-6 of the others
            half[rng.integers(3)] *= 10.0 ** rng.uniform(-6, -3)
        boxes.append(_prim("box", rng.normal(size=3), half, _random_q(rng)))
    # Unrotated at the origin, so that no larger term absorbs a subnormal.
    boxes += [_prim("box", (0.0, 0.0, 0.0), half)
              for half in [(5e-324, 5e-324, 1.0), (1e-310, 1e-310, 2.0), (0.3, 0.3, 0.3)]]
    sizes = set()
    for prim in boxes:
        for n in (5, 24, 100, SURFACE_SAMPLE_COUNT):
            want = reference_box_points(prim, n)
            _same(surface_points(prim, n), want, "box sample")
            sizes.add(len(want))
    assert min(sizes) == 24  # six faces of 2 x 2
    assert len(boxes) > 400

@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
def test_maps_zero_ids_outside_one_to_k(dtype):
    rng = np.random.default_rng(6)
    ids = [0, 1, 2, 3, 4, 9, 255, 65535] + ([-1, -7] if np.dtype(dtype).kind == "i" else [])
    instance_map = rng.choice(ids, size=(12, 10)).astype(dtype)
    for k in (0, 1, 3):
        per_object = rng.normal(size=(k, 9))
        for radius in (1.0, 2.5):
            _same(make_bgt_map(per_object, instance_map, radius),
                  reference_make_bgt_map(per_object, instance_map, radius), "b_map")
        objects = tuple(_prim("sphere", (0.1 * i, 0.0, 1.0), 0.05) for i in range(k))
        scene = Scene(objects, _camera(10, 12), None)
        frame = FrameBundle(depth=None, scene=scene, instance_map=instance_map,
                            amodal_masks=None, occlusion_scores=None)
        want_xi_map, per_object = reference_make_xi_map(scene, frame)
        _same(make_xi_map(per_object, instance_map), want_xi_map, "xi_map")


def _sized_objects(rng, sizes, shape, dtype):
    """A map whose objects have exactly the given pixel counts, as runs or scattered."""
    instance_map = np.zeros(shape, dtype=dtype)
    flat = instance_map.reshape(-1)
    start = 0
    for k, n in enumerate(sizes, start=1):
        if rng.random() < 0.5:
            flat[start:start + n] = k  # a run: mirror-image distances tie
            start += n
    free = np.flatnonzero(flat == 0)
    rng.shuffle(free)
    for k, n in enumerate(sizes, start=1):
        if not np.any(flat == k):
            flat[free[:n]] = k
            free = free[n:]
    return instance_map


def test_centroid_candidates_match_the_reference():
    rng = np.random.default_rng(12)
    maps = []
    for seed in range(24):
        res = (32, 64, 128)[seed % 3]
        cfg = GeneratorConfig(count_range=(1, 8), camera=_camera(res),
                              background_depth=BACKGROUNDS[seed % 2])
        maps.append(render(sample_scene(seed, cfg)).instance_map)
    for dtype in (np.int16, np.int32, np.int64, np.uint16):
        for _ in range(10):
            low = -4 if np.dtype(dtype).kind == "i" else 0
            shape = tuple(rng.integers(1, 30, size=2))
            instance_map = rng.integers(low, 12, size=shape).astype(dtype)
            instance_map[rng.random(shape) < rng.random()] = 0
            maps.append(instance_map)
    maps += [np.zeros((5, 7), dtype=np.int32), np.full((3, 4), 65535, dtype=np.uint16)]
    for instance_map in maps:
        for fraction in (0.10, 0.2, 0.25, 0.30):
            _same(make_centroid_candidates(instance_map, fraction),
                  reference_make_centroid_candidates(instance_map, fraction), "eta_gt")


@pytest.mark.parametrize("fraction, sizes", [
    (0.25, (2, 6, 10, 14, 2)), (0.10, (5, 15, 25, 5)), (0.30, (5, 15, 5)),
])
def test_centroid_candidates_round_exact_halves_as_the_reference(fraction, sizes):
    # fraction * n + 0.5 is exactly an integer for every object here
    assert all(float(fraction * n + 0.5).is_integer() for n in sizes)
    rng = np.random.default_rng(13)
    for trial in range(20):
        dtype = (np.int32, np.uint16)[trial % 2]
        instance_map = _sized_objects(rng, sizes, (9, 11), dtype)
        _same(make_centroid_candidates(instance_map, fraction),
              reference_make_centroid_candidates(instance_map, fraction), "eta_gt")
