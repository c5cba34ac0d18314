import numpy as np
import pytest

from clusterseg.annotation import (annotate, make_bgt_map, make_centroid_candidates,
                                   make_xi_map)
from clusterseg.errors import ClusterSegError
from clusterseg.geometry import CameraIntrinsics, feature_distance
from clusterseg.scenegen import Primitive, Scene, render

from conftest import make_example

IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)


def test_xi_map_constant_per_object():
    scene, frame, ann = make_example(seed=2)
    for k in range(len(scene.objects)):
        sel = frame.instance_map == k + 1
        if not sel.any():
            continue
        values = ann.xi_map[sel]
        assert np.array_equal(values, np.broadcast_to(values[0], values.shape))
        assert np.array_equal(values[0], ann.per_object_xi[k])
    assert np.array_equal(ann.xi_map[frame.instance_map == 0],
                          np.zeros((int((frame.instance_map == 0).sum()), 9)))


def test_xi_map_differs_between_depths():
    intr = CameraIntrinsics(64.0, 64.0, 16.0, 16.0, 32, 32)
    near = Primitive(kind="sphere", quaternion=IDENTITY_Q, translation=(-0.2, 0.0, 0.8),
                     half_extents=(0.1, 0.1, 0.1), albedo=(1, 0, 0))
    far = Primitive(kind="sphere", quaternion=IDENTITY_Q, translation=(0.2, 0.0, 1.5),
                    half_extents=(0.1, 0.1, 0.1), albedo=(0, 1, 0))
    scene = Scene(objects=(near, far), camera=intr, background_depth=None)
    frame = render(scene)
    per_object = np.array([near.feature, far.feature])
    xi_map = make_xi_map(per_object, frame.instance_map)
    assert per_object[0][2] != per_object[1][2]
    a = xi_map[frame.instance_map == 1]
    b = xi_map[frame.instance_map == 2]
    assert a[0][2] != b[0][2]


def test_box_feature_bounds():
    prim = Primitive(kind="box", quaternion=IDENTITY_Q, translation=(0.0, 0.0, 1.0),
                     half_extents=(0.5, 0.5, 0.5), albedo=(1, 1, 1))
    xi = prim.feature
    assert np.allclose(xi[0:3], [0.0, 0.0, 1.0], atol=1e-6)
    moments = xi[3:6] - xi[0:3]
    # surface moments of a cube sit between the volume (1/12) and corner (1/4)
    # moments for unit edge length
    assert np.all(moments >= 1 / 12)
    assert np.all(moments <= 1 / 4)


def test_centroid_candidates_single_pixel_object():
    im = np.zeros((4, 4), dtype=np.int32)
    im[2, 3] = 1
    eta = make_centroid_candidates(im, 0.2)
    assert eta[2, 3]
    assert eta.sum() == 1


def test_centroid_candidates_block():
    im = np.zeros((5, 5), dtype=np.int32)
    im[1:4, 1:4] = 1
    eta = make_centroid_candidates(im, 0.2)
    # round(0.2 * 9) = 2 pixels: the center, then the (row, col)-smallest of
    # the four distance-1 neighbors.
    assert eta.sum() == 2
    assert eta[2, 2]
    assert eta[1, 2]


def test_centroid_candidates_fraction_arithmetic():
    im = np.zeros((10, 10), dtype=np.int32)
    im[0:10, 0:10] = 1  # one object of 100 pixels
    eta = make_centroid_candidates(im, 0.30)
    assert eta.sum() == 30


def test_centroid_candidates_fraction_range():
    with pytest.raises(ClusterSegError):
        make_centroid_candidates(np.ones((2, 2), dtype=np.int32), 0.05)
    with pytest.raises(ClusterSegError):
        make_centroid_candidates(np.ones((2, 2), dtype=np.int32), 0.35)


def test_bgt_two_objects():
    im = np.zeros((4, 4), dtype=np.int32)
    im[0, 0] = 1
    im[3, 3] = 2
    xi = np.zeros((2, 9))
    xi[1, 0] = 2.0  # feature distance 2
    b = make_bgt_map(xi, im)
    assert b[0, 0] == 1.0
    assert b[3, 3] == 1.0
    assert b[1, 1] == 0.0


def test_bgt_three_objects():
    im = np.zeros((3, 3), dtype=np.int32)
    im[0, 0], im[1, 1], im[2, 2] = 1, 2, 3
    xi = np.zeros((3, 9))
    xi[1, 0] = 2.0
    xi[2, 0] = 6.0  # pairwise distances {2, 4, 6}
    b = make_bgt_map(xi, im)
    assert b[0, 0] == 1.0  # min(2, 6) / 2
    assert b[1, 1] == 1.0  # min(2, 4) / 2
    assert b[2, 2] == 2.0  # min(4, 6) / 2


def test_bgt_single_object_convention():
    im = np.zeros((3, 3), dtype=np.int32)
    im[1, :] = 1
    b = make_bgt_map(np.zeros((1, 9)), im)
    assert np.all(b[1, :] == 1.0)
    b = make_bgt_map(np.zeros((1, 9)), im, single_object_radius=2.5)
    assert np.all(b[1, :] == 2.5)


def test_annotation_invariants():
    for seed in range(6):
        scene, frame, ann = make_example(seed=seed)
        # candidates never leave the foreground
        assert not np.any(ann.eta_gt & ~ann.fg_mask)
        assert np.array_equal(ann.fg_mask, frame.instance_map > 0)
        # background carries zeros everywhere
        bg = ~ann.fg_mask
        assert np.all(ann.b_map[bg] == 0.0)
        assert np.all(ann.xi_map[bg] == 0.0)
        # per-object candidate budget
        expected = 0
        for k in np.unique(frame.instance_map):
            if k == 0:
                continue
            n = int((frame.instance_map == k).sum())
            expected += max(1, int(np.floor(0.2 * n + 0.5)))
        assert int(ann.eta_gt.sum()) == expected
        # separation invariant: distinct features at least 2B apart
        K = ann.per_object_xi.shape[0]
        if K >= 2:
            assert np.all(ann.b_map[ann.fg_mask] > 0.0)
            for k in range(K):
                pixels = frame.instance_map == k + 1
                if not pixels.any():
                    continue
                b_k = ann.b_map[pixels][0]
                for l in range(K):
                    if l != k:
                        d = feature_distance(ann.per_object_xi[k], ann.per_object_xi[l])
                        assert d >= 2.0 * b_k - 1e-12


def test_annotate_empty_scene():
    intr = CameraIntrinsics(32.0, 32.0, 8.0, 8.0, 16, 16)
    scene = Scene(objects=(), camera=intr, background_depth=None)
    frame = render(scene)
    ann = annotate(scene, frame)
    assert not ann.fg_mask.any()
    assert not ann.eta_gt.any()
    assert np.all(ann.xi_map == 0.0)
    assert np.all(ann.b_map == 0.0)


def test_annotate_deterministic():
    _, _, a = make_example(seed=4)
    _, _, b = make_example(seed=4)
    for name in ("xi_map", "eta_gt", "b_map", "fg_mask", "per_object_xi", "instance_map"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
