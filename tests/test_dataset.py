"""Dataset directories: what a frame bundle stores, and what loading rebuilds.

A frame bundle stores the frame size, each amodal mask as its window
(bounding box and contents), the instance ids, rgb and depth at the
foreground pixels (the union of the amodal masks) and the per-object
features. Loading rebuilds the amodal masks from their windows, scatters
the ids into the instance map, fills the backdrop pixels of rgb and depth,
derives the occlusion scores
from the pixel counts and rebuilds the annotation maps from the features,
the instance map and the manifest's fraction and single-object radius, and
a loaded frame derives xyz from the depth and the camera on first read;
every rebuilt field must equal what gen computed, bit for bit and dtype
included.
"""

import json
import math
import re
import shutil
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from clusterseg import scenegen
from clusterseg.annotation import annotate, object_features
from clusterseg.cli import main
from clusterseg.dataio import read_bundle, write_bundle
from clusterseg.clustering import Segmentation
from clusterseg.dataset import (decode_amodal, encode_amodal, load_dataset, load_frame,
                                load_segmentations, read_dataset_manifest, write_dataset,
                                write_segmentations)
from clusterseg.errors import (BundleDtypeError, BundleManifestError, ClusterSegError,
                               NonFiniteError, PlacementError, ShapeMismatchError,
                               ValueRangeError)
from clusterseg.geometry import CameraIntrinsics, depth_to_xyz
from clusterseg.scenegen import Primitive, Scene, render

FRAME_FIELDS = ("rgb", "depth", "xyz", "instance_map", "amodal_masks", "occlusion_scores")
ANNOTATION_FIELDS = ("xi_map", "eta_gt", "b_map", "fg_mask", "per_object_xi", "instance_map")
STORED = ["amodal_pixels", "amodal_windows", "depth", "frame_size", "instance_ids",
          "per_object_xi", "rgb"]


def run_cli(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)


def _load_frames(path):
    """(scene, frame, per_object_xi) of every frame of the dataset at path."""
    return [load_frame(*entry) for entry in read_dataset_manifest(path)[1]]


def _same(got, want, name):
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("res, objects, extra", [
    (24, "1..1", ("--single-object-radius", "2.5", "--fraction", "0.1")),
    (40, "2..8", ("--background-depth", "none", "--fraction", "0.3")),
    (48, "3..6", ("--fraction", "0.25", "--sizes", "0.1..0.3")),
    (64, "4..8", ()),
])
def test_loaded_records_equal_what_gen_computed(tmp_path, monkeypatch, res, objects, extra):
    ds = tmp_path / "ds"
    assert run_cli("gen", "--count", 3, "--res", f"{res}x{res}", "--objects", objects,
                   "--seed", res, "--out", ds, *extra) == 0
    manifest = json.loads((ds / "dataset.json").read_text())
    for entry in manifest["frames"]:
        assert sorted(read_bundle(ds / entry["bundle"])) == STORED

    def recomputed(*args, **kwargs):
        raise AssertionError("loading recomputed an object feature")

    with monkeypatch.context() as patch:
        patch.setattr(scenegen, "surface_points", recomputed)
        records = load_dataset(str(ds))
    assert len(records) == 3
    for scene, frame, ann in records:
        # a scene parsed from JSON renders and annotates as the sampled one did
        want_frame = render(scene)
        want_ann = annotate(scene, want_frame, manifest["fraction"],
                            manifest["single_object_radius"])
        for name in FRAME_FIELDS:
            _same(getattr(frame, name), getattr(want_frame, name), name)
        for name in ANNOTATION_FIELDS:
            _same(getattr(ann, name), getattr(want_ann, name), name)


def _out_of_view_scenes(camera):
    """A scene with no objects and one whose second object lies behind the camera."""
    ball = Primitive(kind="sphere", quaternion=(1.0, 0.0, 0.0, 0.0), translation=(0.0, 0.0, 1.2),
                     half_extents=(0.2, 0.2, 0.2), albedo=(0.8, 0.2, 0.2))
    behind = Primitive(kind="box", quaternion=(1.0, 0.0, 0.0, 0.0),
                       translation=(0.0, 0.0, -2.0), half_extents=(0.1, 0.1, 0.1),
                       albedo=(0.2, 0.8, 0.2))
    return [Scene(objects=(), camera=camera), Scene(objects=(ball, behind), camera=camera)]


@pytest.mark.parametrize("res, count_range", [(16, (1, 2)), (32, (2, 8)), (48, (6, 12))])
def test_rendered_occlusion_scores_are_what_loading_derives(tmp_path, res, count_range):
    # render computes each score within the object's render window; loading
    # derives it from the instance map and the stored mask windows. Every
    # other field of a loaded frame equals the rendered one as well.
    camera = CameraIntrinsics(float(res), float(res), res / 2.0, res / 2.0, res, res)
    cfg = scenegen.GeneratorConfig(count_range=count_range, size_range=(0.06, 0.3), camera=camera)
    scenes = _out_of_view_scenes(camera)
    for seed_ in range(40):
        try:
            scenes.append(scenegen.sample_scene(seed_, cfg))
        except PlacementError:
            continue
    assert len(scenes) >= 32
    records = [(scene, render(scene), object_features(scene)) for scene in scenes]
    assert records[1][1].amodal_masks[1].sum() == 0
    write_dataset(tmp_path, records, fraction=0.2, single_object_radius=1.0)
    loaded = _load_frames(tmp_path)
    for (_, want, want_xi), (_, frame, xi) in zip(records, loaded, strict=True):
        for name in FRAME_FIELDS:
            _same(getattr(frame, name), getattr(want, name), name)
        assert frame.camera == want.camera
        _same(xi, want_xi, "per_object_xi")


def _masks(draw, K, H, W):
    """K random H x W masks: each empty, one pixel, the full frame or random bits in a box.

    An "edge" box reaches the last row and column.
    """
    masks = np.zeros((K, H, W), dtype=bool)
    for mask in masks:
        kind = draw(st.sampled_from(["empty", "pixel", "full", "box", "edge"]))
        if kind == "pixel":
            mask[draw(st.integers(0, H - 1)), draw(st.integers(0, W - 1))] = True
        elif kind == "full":
            mask[:] = True
        elif kind != "empty":
            top, left = draw(st.integers(0, H - 1)), draw(st.integers(0, W - 1))
            bottom = H if kind == "edge" else draw(st.integers(top + 1, H))
            right = W if kind == "edge" else draw(st.integers(left + 1, W))
            shape = (bottom - top, right - left)
            bits = draw(st.lists(st.booleans(), min_size=1, max_size=shape[0] * shape[1]))
            mask[top:bottom, left:right] = np.resize(np.array(bits), shape)
    return masks


@settings(max_examples=200, deadline=None, derandomize=True)
@seed(0)
@given(data=st.data())
def test_amodal_windows_round_trip_bit_for_bit(data):
    K, H, W = (data.draw(st.integers(lo, hi)) for lo, hi in [(0, 5), (1, 9), (1, 9)])
    masks = _masks(data.draw, K, H, W)
    windows, pixels = encode_amodal(masks)
    assert windows.shape == (K, 4) and pixels.dtype == np.uint8
    top, left, h, w = windows.T
    assert pixels.size == (h * w).sum()
    for k, mask in enumerate(masks):
        if not mask.any():
            assert windows[k].tolist() == [0, 0, 0, 0]
            continue
        # each window is the tight bounding box: its edge rows and columns hold a pixel
        box = mask[top[k]:top[k] + h[k], left[k]:left[k] + w[k]]
        assert box.sum() == mask.sum()
        assert box[0].any() and box[-1].any() and box[:, 0].any() and box[:, -1].any()
    decoded = decode_amodal(windows.astype(np.uint16), pixels.view(bool), H, W)
    _same(decoded, masks, "amodal_masks")


def _assert_frame_round_trips(ids, K, background_depth, rng):
    """write_dataset then load_frame of a frame with instance map `ids` gives it back bit for bit.

    rgb and depth are random at the foreground and the backdrop's elsewhere;
    each amodal mask holds its object's visible pixels and random other
    foreground pixels, so that their union is the foreground, as render
    gives it, and a mask may cover another object's visible pixel. The
    occlusion scores are what render derives from the masks.
    """
    H, W = ids.shape
    fg = ids > 0
    backdrop = background_depth is not None
    rgb = np.full((H, W, 3), scenegen.BACKDROP_RGB if backdrop else 0.0, dtype=np.float32)
    rgb[fg] = rng.random((int(fg.sum()), 3), dtype=np.float32)
    depth = np.where(fg, rng.uniform(0.1, 10.0, size=(H, W)),
                     background_depth if backdrop else 0.0)
    ball = Primitive(kind="sphere", quaternion=(1.0, 0.0, 0.0, 0.0),
                     translation=(0.0, 0.0, 1.0), half_extents=(0.1, 0.1, 0.1),
                     albedo=(0.5, 0.5, 0.5))
    camera = CameraIntrinsics(10.0, 10.0, W / 2.0, H / 2.0, W, H)
    scene = Scene(objects=(ball,) * K, camera=camera, background_depth=background_depth)
    visible = ids == np.arange(1, K + 1)[:, None, None]
    masks = visible | ((rng.random((K, H, W)) < rng.random()) & fg)
    occlusion = scenegen.occlusion_scores(visible.sum(axis=(1, 2)), masks.sum(axis=(1, 2)))
    frame = scenegen.FrameBundle(rgb=rgb, depth=depth, camera=camera, instance_map=ids,
                                 amodal_masks=masks, occlusion_scores=occlusion)
    with tempfile.TemporaryDirectory() as ds:
        write_dataset(ds, [(scene, frame, np.zeros((K, 9)))], fraction=0.2,
                      single_object_radius=1.0)
        stored = read_bundle(f"{ds}/frame_00000.tsb")
        F = int(fg.sum())
        assert stored["rgb"].shape == (F, 3) and stored["depth"].shape == (F,)
        assert stored["instance_ids"].shape == (F,) and stored["frame_size"].tolist() == [H, W]
        [(_, loaded, _)] = _load_frames(ds)
    _same(loaded.rgb, rgb, "rgb")
    _same(loaded.depth, depth, "depth")
    _same(loaded.instance_map, ids, "instance_map")
    _same(loaded.amodal_masks, masks, "amodal_masks")
    _same(loaded.occlusion_scores, occlusion, "occlusion_scores")


def _instance_map(kind, H, W, K, rng):
    """An H x W int32 map of ids 0..K: all 0, all above 0, or random."""
    if kind == "empty":
        return np.zeros((H, W), dtype=np.int32)
    return rng.integers(1 if kind == "full" else 0, K + 1, size=(H, W), dtype=np.int32)


@pytest.mark.parametrize("background_depth", [None, 2.5, 97.25])
@pytest.mark.parametrize("kind", ["empty", "full", "random"])
@settings(max_examples=25, deadline=None, derandomize=True)
@seed(0)
@given(data=st.data())
def test_foreground_rgb_and_depth_round_trip_bit_for_bit(kind, background_depth, data):
    # write_dataset gathers rgb, depth and the ids at the nonzero ids;
    # load_frame scatters them back and fills the backdrop as render does.
    H, W = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    K = data.draw(st.integers(0 if kind == "empty" else 1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    _assert_frame_round_trips(_instance_map(kind, H, W, K, rng), K, background_depth, rng)


@pytest.mark.parametrize("H, W", [(1, 1), (7, 5), (37, 23), (8, 8)])
@pytest.mark.parametrize("kind", ["empty", "full", "random"])
@settings(max_examples=8, deadline=None, derandomize=True)
@seed(0)
@given(data=st.data())
def test_instance_maps_round_trip_at_odd_and_even_frame_sizes(kind, H, W, data):
    # 37 x 23 and 7 x 5 have unequal odd sides, so a swapped frame size or
    # row-major order fails; F = 0 and F = H * W are the empty and full maps.
    K = data.draw(st.integers(0 if kind == "empty" else 1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    background_depth = data.draw(st.sampled_from([None, 3.5]))
    _assert_frame_round_trips(_instance_map(kind, H, W, K, rng), K, background_depth, rng)


def test_no_masks_store_no_windows_and_no_pixels():
    windows, pixels = encode_amodal(np.zeros((0, 3, 4), dtype=bool))
    assert windows.shape == (0, 4) and pixels.shape == (0,)
    _same(decode_amodal(windows.astype(np.uint16), pixels.view(bool), 3, 4),
          np.zeros((0, 3, 4), dtype=bool), "amodal_masks")


@pytest.fixture
def dataset(tmp_path):
    ds, segs = tmp_path / "ds", tmp_path / "segs"
    assert run_cli("gen", "--count", 2, "--res", "24x24", "--objects", "3..3",
                   "--seed", 1, "--out", ds) == 0
    assert run_cli("infer", "--dataset", ds, "--out", segs) == 0
    return ds, segs


def _exits_2(ds, segs, tmp_path, capsys):
    assert run_cli("eval", "--dataset", ds, "--segs", segs) == 2
    assert run_cli("infer", "--dataset", ds, "--out", tmp_path / "out",
                   "--predictor", "oracle") == 2
    err = capsys.readouterr().err
    assert err.count("clusterseg: error:") == 2
    return err


def _raise_id_above_k(t):
    ids = t["instance_ids"].copy()
    ids[ids == 1] = len(t["amodal_windows"]) + 1
    return {**t, "instance_ids": ids}


@pytest.mark.parametrize("mutate, error", [
    (lambda t: {**t, "instance_ids": np.full(t["instance_ids"].shape, np.nan)},
     BundleDtypeError),
    (lambda t: {**t, "instance_ids": t["instance_ids"].astype(np.float32) + 0.5},
     BundleDtypeError),
    (lambda t: {**t, "amodal_windows": t["amodal_windows"][:, :3]}, ShapeMismatchError),
    (lambda t: {**t, "depth": t["depth"][:5]}, ShapeMismatchError),
    (lambda t: {**t, "rgb": t["rgb"].astype(np.float64)}, BundleDtypeError),
    (lambda t: {**t, "depth": t["depth"].astype(np.float32)}, BundleDtypeError),
    (lambda t: {**t, "amodal_pixels": t["amodal_pixels"].astype(np.uint16)}, BundleDtypeError),
    (lambda t: {**t, "amodal_windows": t["amodal_windows"].astype(np.uint8)}, BundleDtypeError),
    (lambda t: {**t, "per_object_xi": t["per_object_xi"].astype(np.float32)},
     BundleDtypeError),
    (lambda t: {**t, "rgb": t["rgb"][..., :2]}, ShapeMismatchError),
    (lambda t: {**t, "frame_size": t["frame_size"][:-1]}, ShapeMismatchError),
    (lambda t: {**t, "frame_size": np.append(t["frame_size"], np.uint16(1))}, ShapeMismatchError),
    (lambda t: {**t, "amodal_windows": t["amodal_windows"][:-1]}, ShapeMismatchError),
    (lambda t: {**t, "amodal_pixels": t["amodal_pixels"][:, None]}, ShapeMismatchError),
    (lambda t: {**t, "per_object_xi": t["per_object_xi"][:-1]}, ShapeMismatchError),
    (lambda t: {**t, "per_object_xi": t["per_object_xi"][:, :8]}, ShapeMismatchError),
    (_raise_id_above_k, ShapeMismatchError),
    (lambda t: {k: v for k, v in t.items() if k != "per_object_xi"}, BundleManifestError),
    (lambda t: {**t, "xi_map": np.zeros((24, 24, 9))}, BundleManifestError),
    # format 2 stored the masks whole and the occlusion scores
    (lambda t: {**t, "amodal_masks": np.zeros((3, 24, 24), dtype=np.uint8)}, BundleManifestError),
    (lambda t: {**t, "occlusion_scores": np.ones(3)}, BundleManifestError),
    (lambda t: {**t, "rgb": t["rgb"][:-1]}, ShapeMismatchError),
    (lambda t: {**t, "rgb": np.concatenate([t["rgb"], t["rgb"][:1]])}, ShapeMismatchError),
    (lambda t: {**t, "depth": t["depth"][:-1]}, ShapeMismatchError),
    (lambda t: {**t, "depth": np.concatenate([t["depth"], t["depth"][:1]])}, ShapeMismatchError),
    # format 3 stored rgb and depth for every pixel
    (lambda t: {**t, "rgb": np.zeros((24, 24, 3), dtype=np.float32),
                "depth": np.zeros((24, 24))}, ShapeMismatchError),
    (lambda t: {**t, "rgb": np.zeros((24 * 24, 3), dtype=np.float32),
                "depth": np.zeros(24 * 24)}, ShapeMismatchError),
    # format 4 stored the instance map whole
    (lambda t: {**t, "instance_map": np.zeros((24, 24), dtype=np.uint16)}, BundleManifestError),
    # format 5 stored the foreground as a bitmask, and no frame size
    (lambda t: {**{k: v for k, v in t.items() if k != "frame_size"},
                "foreground": np.zeros(24 * 24 // 8, dtype=np.uint8)}, BundleManifestError),
    (lambda t: {**t, "frame_size": t["frame_size"].astype(np.uint8)}, BundleDtypeError),
], ids=["nan-f64-ids", "f32-ids", "window-width", "depth-rows", "f64-rgb", "f32-depth",
        "u16-amodal", "u8-windows", "f32-features", "rgb-channels", "frame-size-short",
        "frame-size-long", "amodal-count", "pixel-rows", "feature-rows", "feature-width",
        "id-above-k", "missing-tensor", "extra-tensor", "stored-amodal-masks", "stored-occlusion",
        "rgb-row-short", "rgb-row-long", "depth-row-short", "depth-row-long", "full-frame-maps",
        "every-pixel-rows", "stored-instance-map", "format-5-foreground", "u8-frame-size"])
def test_malformed_frame_bundle_is_a_typed_error(dataset, tmp_path, capsys, mutate, error):
    ds, segs = dataset
    path = ds / "frame_00001.tsb"
    write_bundle(path, mutate(read_bundle(path)))
    with pytest.raises(error, match="frame_00001.tsb"):
        load_dataset(str(ds))
    _exits_2(ds, segs, tmp_path, capsys)


@pytest.mark.parametrize("extra", [-1, 1])
def test_stored_rows_must_be_one_per_foreground_pixel(dataset, tmp_path, capsys, extra):
    ds, segs = dataset
    path = ds / "frame_00001.tsb"
    t = read_bundle(path)
    F = len(t["instance_ids"])
    rows = np.resize(np.arange(F), F + extra)
    write_bundle(path, {**t, "rgb": t["rgb"][rows], "depth": t["depth"][rows],
                        "instance_ids": t["instance_ids"][rows]})
    with pytest.raises(ShapeMismatchError, match=f"frame_00001.tsb: rgb, depth and instance_ids "
                                                 f"hold {F + extra} pixels, but the amodal masks "
                                                 f"cover {F}$"):
        _load_frames(str(ds))
    _exits_2(ds, segs, tmp_path, capsys)


@pytest.fixture(scope="module")
def odd_dataset(tmp_path_factory):
    """A dataset of 23 x 37 frames: unequal sides, so a swapped frame size shows."""
    root = tmp_path_factory.mktemp("odd")
    assert run_cli("gen", "--count", 2, "--res", "37x23", "--objects", "3..5",
                   "--sizes", "0.15..0.3", "--seed", 15, "--out", root / "ds") == 0
    assert run_cli("infer", "--dataset", root / "ds", "--out", root / "segs") == 0
    return root


def _frame_size(H, W):
    """A damage that stores H x W as the frame size."""
    return lambda t: {**t, "frame_size": np.array([H, W], dtype=np.uint16)}


def _amodal_pixel_flipped(covered):
    """A damage that flips the first pixel of a window whose own mask and the union agree.

    With covered 0 it switches on a background pixel inside a window; with
    covered 1 it clears a pixel only that window's mask covers.
    """
    def damage(t):
        windows, pixels = t["amodal_windows"].astype(np.int64), t["amodal_pixels"].copy()
        union = decode_amodal(windows, pixels.view(bool), 23, 37).sum(axis=0)
        start = 0
        for top, left, h, w in windows.tolist():
            own = pixels[start:start + h * w]
            hits = np.flatnonzero((union[top:top + h, left:left + w].ravel() == covered)
                                  & (own == covered))
            if hits.size:
                pixels[start + hits[0]] ^= 1
                return {**t, "amodal_pixels": pixels}
            start += h * w
        raise AssertionError(f"no window pixel covered {covered} times by its own mask")
    return damage


def _id_set(index, value):
    """A damage that sets instance_ids[index] to value(K)."""
    def damage(t):
        ids = t["instance_ids"].copy()
        ids[index] = value(len(t["amodal_windows"]))
        return {**t, "instance_ids": ids}
    return damage


def _first_depth(value):
    """A damage that sets the first foreground depth to value."""
    def damage(t):
        depth = t["depth"].copy()
        depth[0] = value
        return {**t, "depth": depth}
    return damage


NEAR = "foreground depth {} is not beyond RAY_MIN_T = 1e-09, as every ray hit is"


@pytest.mark.parametrize("damage, error, message", [
    (_frame_size(22, 37), ShapeMismatchError,
     "frame_size is 22 x 37, but the scene's camera is 23 x 37"),
    (_frame_size(23, 36), ShapeMismatchError,
     "frame_size is 23 x 36, but the scene's camera is 23 x 37"),
    (_frame_size(37, 23), ShapeMismatchError,
     "frame_size is 37 x 23, but the scene's camera is 23 x 37"),
    (_amodal_pixel_flipped(0), ShapeMismatchError,
     "rgb, depth and instance_ids hold {F} pixels, but the amodal masks cover {F1}"),
    (_amodal_pixel_flipped(1), ShapeMismatchError,
     "rgb, depth and instance_ids hold {F} pixels, but the amodal masks cover {F_1}"),
    (_id_set(0, lambda K: 0), ValueRangeError, "instance id 0 at a foreground pixel"),
    (_id_set(-1, lambda K: 0), ValueRangeError, "instance id 0 at a foreground pixel"),
    (_id_set(-1, lambda K: K + 1), ShapeMismatchError, "instance ids exceed the object count {K}"),
    (_first_depth(0.0), ValueRangeError, NEAR.format(0.0)),
    (_first_depth(-1.5), ValueRangeError, NEAR.format(-1.5)),
    (_first_depth(scenegen.RAY_MIN_T), ValueRangeError, NEAR.format(1e-09)),
    (_first_depth(math.nan), NonFiniteError, "depth map back-projects to non-finite points"),
    (_first_depth(math.inf), NonFiniteError, "depth map back-projects to non-finite points"),
    (_first_depth(-math.inf), NonFiniteError, "depth map back-projects to non-finite points"),
], ids=["frame-size-height", "frame-size-width", "frame-size-swapped", "background-pixel-in-mask",
        "pixel-in-no-mask", "first-id-0", "last-id-0", "id-k-plus-1", "depth-0", "depth-negative",
        "depth-ray-min-t", "depth-nan", "depth-inf", "depth-minus-inf"])
def test_a_damaged_foreground_or_id_exits_2_naming_the_bundle(odd_dataset, tmp_path, capsys,
                                                              damage, error, message):
    ds = tmp_path / "ds"
    shutil.copytree(odd_dataset / "ds", ds)
    path = ds / "frame_00001.tsb"
    tensors = read_bundle(path)
    F, K = len(tensors["instance_ids"]), len(tensors["amodal_windows"])
    write_bundle(path, damage(tensors))
    want = f"{path}: " + message.format(F=F, F1=F + 1, F_1=F - 1, K=K)
    with pytest.raises(error) as raised:
        _load_frames(ds)
    assert str(raised.value) == want
    for argv in (("eval", "--segs", odd_dataset / "segs"), ("infer", "--out", tmp_path / "segs"),
                 ("train", "--out", tmp_path / "model.ckpt", "--epochs", 1)):
        assert run_cli(argv[0], "--dataset", ds, *argv[1:]) == 2
        assert capsys.readouterr().err == f"clusterseg: error: {want}\n"


def test_a_depth_just_beyond_ray_min_t_loads(odd_dataset, tmp_path):
    ds = tmp_path / "ds"
    shutil.copytree(odd_dataset / "ds", ds)
    path = ds / "frame_00001.tsb"
    depth = np.nextafter(scenegen.RAY_MIN_T, 1.0)
    write_bundle(path, _first_depth(depth)(read_bundle(path)))
    [_, (_, frame, _)] = _load_frames(ds)
    assert frame.depth.min() == depth


_MISSING = object()


def _edit_manifest(ds, key, value):
    manifest = json.loads((ds / "dataset.json").read_text())
    if value is _MISSING:
        del manifest[key]
    else:
        manifest[key] = value
    (ds / "dataset.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("key, value", [
    ("fraction", float("nan")), ("fraction", float("inf")), ("fraction", True),
    ("fraction", "0.2"), ("fraction", 0.05), ("fraction", 0.35), ("fraction", _MISSING),
    ("single_object_radius", float("nan")), ("single_object_radius", float("inf")),
    ("single_object_radius", 0), ("single_object_radius", -1.0),
    ("single_object_radius", False), ("single_object_radius", 10 ** 400),
    ("single_object_radius", None),
])
def test_derivation_values_are_validated(dataset, tmp_path, capsys, key, value):
    ds, segs = dataset
    _edit_manifest(ds, key, value)
    with pytest.raises(ClusterSegError, match=key):
        load_dataset(str(ds))
    _exits_2(ds, segs, tmp_path, capsys)


@pytest.mark.parametrize("value", [_MISSING, 1, 2, 2.0, 3.0, "3", True, None,
                                   pytest.param(3, id="int-3"), 4.0, "4",
                                   pytest.param(4, id="int-4"), 5.0, "5",
                                   pytest.param(5, id="int-5"), 6.0, "6"])
def test_other_formats_must_be_regenerated(dataset, tmp_path, capsys, value):
    ds, segs = dataset
    _edit_manifest(ds, "format", value)
    with pytest.raises(ClusterSegError, match="regenerate"):
        load_dataset(str(ds))
    assert "regenerate" in _exits_2(ds, segs, tmp_path, capsys)


def test_manifest_records_the_format(dataset):
    ds, _ = dataset
    assert json.loads((ds / "dataset.json").read_text())["format"] == 6


@pytest.mark.parametrize("flag, value", [
    ("--single-object-radius", "nan"), ("--single-object-radius", "0"),
    ("--single-object-radius", "-2"), ("--single-object-radius", "inf"),
    ("--fraction", "nan"), ("--fraction", "0.5"),
    ("--sizes", "0.2..0.1"), ("--z-range", "nan..1"), ("--min-sep", "nan"),
    ("--background-depth", "nan"), ("--background-depth", "-3"), ("--background-depth", "0"),
])
def test_gen_refuses_values_its_loader_would_reject(tmp_path, capsys, flag, value):
    out = tmp_path / "ds"
    assert run_cli("gen", "--count", 1, "--res", "16x16", "--out", out, flag, value) == 2
    assert "error" in capsys.readouterr().err
    assert not (out / "dataset.json").exists()


BALL = Primitive(kind="sphere", quaternion=(1.0, 0.0, 0.0, 0.0), translation=(0.0, 0.0, 2.0),
                 half_extents=(0.5, 0.5, 0.5), albedo=(0.5, 0.5, 0.5))


def _column_record(height):
    """A rendered frame 1 pixel wide and `height` rows tall whose one sphere covers every pixel."""
    scene = Scene(objects=(BALL,), camera=CameraIntrinsics(100.0, 100.0 * height, 0.5,
                                                            height / 2.0, 1, height))
    return scene, render(scene), object_features(scene)


def _one_pixel_record(K):
    """A 1 x 1 frame of K copies of one sphere whose pixel shows object K."""
    camera = CameraIntrinsics(1.0, 1.0, 0.5, 0.5, 1, 1)
    frame = scenegen.FrameBundle(rgb=np.full((1, 1, 3), 0.5, dtype=np.float32),
                                 depth=np.ones((1, 1)), camera=camera,
                                 instance_map=np.full((1, 1), K, dtype=np.int32),
                                 amodal_masks=np.ones((K, 1, 1), dtype=bool),
                                 occlusion_scores=np.zeros(K))
    return Scene(objects=(BALL,) * K, camera=camera), frame, np.zeros((K, 9))


def _files(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


def test_write_dataset_refuses_a_side_past_the_u16_limit(tmp_path):
    # A 65535-row amodal window still fits its u16 height; 65536 would wrap to 0.
    ds, edge = tmp_path / "ds", _column_record(65535)
    write_dataset(ds, [edge], fraction=0.2, single_object_radius=1.0)
    [(_, loaded, _)] = _load_frames(ds)
    _same(loaded.amodal_masks, edge[1].amodal_masks, "amodal_masks")
    before = _files(ds)
    with pytest.raises(ClusterSegError, match="frame 1 is 65536 x 1 with 1 objects, .* 65535"):
        write_dataset(ds, [edge, _column_record(65536)], fraction=0.2, single_object_radius=1.0)
    assert _files(ds) == before


def test_write_dataset_refuses_more_objects_than_u16_ids(tmp_path):
    # Instance id 65536 would wrap to 0, the background.
    ds = tmp_path / "ds"
    with pytest.raises(ClusterSegError, match="frame 1 is 1 x 1 with 65536 objects, .* 65535"):
        write_dataset(ds, [_one_pixel_record(1), _one_pixel_record(65536)], fraction=0.2,
                      single_object_radius=1.0)
    assert not ds.exists()


def _ball_record():
    """A rendered 16 x 16 frame of BALL: a disc of visible pixels, background at the corners."""
    scene = Scene(objects=(BALL,), camera=CameraIntrinsics(16.0, 16.0, 8.0, 8.0, 16, 16))
    return scene, render(scene), object_features(scene)


@pytest.mark.parametrize("pixel, value", [((0, 0), True), ((8, 8), False)],
                         ids=["background-in-mask", "visible-in-no-mask"])
def test_write_dataset_refuses_ids_that_are_not_the_union_of_the_amodal_masks(tmp_path, pixel,
                                                                             value):
    # render gives an id to exactly the pixels some amodal mask covers, and
    # the loader takes the masks' union as the foreground.
    ds, (scene, frame, xi) = tmp_path / "ds", _ball_record()
    assert frame.instance_map[pixel] == (not value)
    masks = frame.amodal_masks.copy()
    masks[(0, *pixel)] = value
    write_dataset(ds, [(scene, frame, xi)], fraction=0.2, single_object_radius=1.0)
    before = _files(ds)
    with pytest.raises(ClusterSegError, match="^frame 1: the pixels of nonzero instance id are not "
                                              "the union of the amodal masks$"):
        write_dataset(ds, [(scene, frame, xi), (scene, replace(frame, amodal_masks=masks), xi)],
                      fraction=0.2, single_object_radius=1.0)
    assert _files(ds) == before


@pytest.fixture(scope="module")
def camera_datasets(tmp_path_factory):
    """Two datasets of six 32 x 32 frames, one without a backdrop, and their segmentations."""
    root = tmp_path_factory.mktemp("camera")
    for name, flags in [("a", ("--objects", "2..5")), ("b", ("--background-depth", "none"))]:
        assert run_cli("gen", "--count", 6, "--res", "32x32", *flags, "--seed", 21,
                       "--out", root / name / "ds") == 0
        assert run_cli("infer", "--dataset", root / name / "ds", "--out", root / name / "segs") == 0
    return root


# (width, height) in place of the scene camera's 32 x 32
CAMERA_SIZES = [(31, 32), (33, 32), (32, 31), (32, 33), (16, 64), (64, 16), (1, 1024), (1024, 1),
                (1, 1), (65536, 32), (32, 1e300)]


@pytest.mark.parametrize("name", ["a", "b"])
def test_a_scene_camera_of_another_size_exits_2_naming_the_bundle(camera_datasets, tmp_path,
                                                                  capsys, name):
    # frame_size is checked before anything is decoded, so no camera size,
    # not even one of the same pixel count, reaches the mask decode.
    ds, segs = tmp_path / "ds", camera_datasets / name / "segs"
    shutil.copytree(camera_datasets / name / "ds", ds)
    for i in range(6):
        scene_path, bundle_path = ds / f"scene_{i:05d}.json", ds / f"frame_{i:05d}.tsb"
        text = scene_path.read_text()
        for width, height in CAMERA_SIZES:
            doc = json.loads(text)
            doc["camera"].update(width=width, height=height)
            scene_path.write_text(json.dumps(doc))
            want = (f"{bundle_path}: frame_size is 32 x 32, but the scene's camera is "
                    f"{int(height)} x {width}")
            with pytest.raises(ShapeMismatchError) as raised:
                load_frame(str(scene_path), str(bundle_path))
            assert str(raised.value) == want
            assert run_cli("eval", "--dataset", ds, "--segs", segs) == 2
            assert capsys.readouterr().err == f"clusterseg: error: {want}\n"
        scene_path.write_text(text)
    assert run_cli("eval", "--dataset", ds, "--segs", segs) == 0


@pytest.mark.parametrize("name", ["dataset.json", "scene_00001.json", "frame_00001.tsb"])
def test_missing_or_undecodable_files_are_typed_errors(dataset, tmp_path, capsys, name):
    ds, segs = dataset
    (ds / name).unlink()
    with pytest.raises(ClusterSegError):
        load_dataset(str(ds))
    (ds / name).write_bytes(b"\xff\xfe not utf-8 \xc3\x28")
    with pytest.raises(ClusterSegError):
        load_dataset(str(ds))
    _exits_2(ds, segs, tmp_path, capsys)


@pytest.mark.parametrize("section, key, value", [
    ("camera", "width", float("inf")), ("camera", "height", 1e300),
    (None, "background_depth", "x"), (None, "background_depth", []),
    ("camera", "ppx", float("inf")), ("camera", "fy", float("nan")),
])
def test_malformed_scene_json_is_a_typed_error(dataset, tmp_path, capsys, section, key, value):
    ds, segs = dataset
    path = ds / "scene_00001.json"
    doc = json.loads(path.read_text())
    (doc[section] if section else doc)[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ClusterSegError):
        load_dataset(str(ds))
    _exits_2(ds, segs, tmp_path, capsys)


@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf, -math.inf])
def test_a_backdrop_depth_that_is_not_finite_and_positive_exits_2_naming_the_scene(
        dataset, tmp_path, capsys, value):
    # Depth 0 is the no-measurement depth, so it cannot be a backdrop's.
    ds, segs = dataset
    path = ds / "scene_00000.json"
    doc = json.loads(path.read_text())
    doc["background_depth"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ClusterSegError, match="background_depth must be finite and positive"):
        load_dataset(str(ds))
    err = _exits_2(ds, segs, tmp_path, capsys)
    assert run_cli("train", "--dataset", ds, "--out", tmp_path / "model.ckpt",
                   "--epochs", 1) == 2
    lines = (err + capsys.readouterr().err).splitlines()
    assert len(lines) == 3
    assert all(line == f"clusterseg: error: {path}: background_depth must be finite and "
                       f"positive, or None, got {value}" for line in lines)


def test_a_loaded_scene_keeps_the_error_type_of_its_parse(dataset):
    ds, _ = dataset
    path = ds / "scene_00000.json"
    doc = json.loads(path.read_text())
    doc["camera"]["fx"] = math.nan
    path.write_text(json.dumps(doc))
    with pytest.raises(NonFiniteError) as caught:
        load_frame(str(path), str(ds / "frame_00000.tsb"))
    assert str(caught.value).startswith(f"{path}: camera intrinsics must be finite")


def test_an_unreadable_scene_is_named_once(dataset):
    ds, _ = dataset
    path = ds / "scene_00001.json"
    path.unlink()
    with pytest.raises(ClusterSegError) as caught:
        load_dataset(str(ds))
    assert str(caught.value).startswith(f"cannot read scene {path}: ")


@pytest.mark.parametrize("name, what", [("config.json", "config"),
                                        ("ds/dataset.json", "dataset manifest"),
                                        ("segs/segs.json", "segmentation manifest")])
def test_a_json_file_that_is_not_json_exits_2_naming_it(dataset, tmp_path, capsys, name, what):
    ds, segs = dataset
    config = tmp_path / "config.json"
    config.write_text("{}")
    path = tmp_path / name
    path.write_text('{"frames": [')
    assert run_cli("eval", "--config", config, "--dataset", ds, "--segs", segs) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"clusterseg: error: cannot read {what} {path}: Expecting value")


@pytest.mark.parametrize("name, error", [
    ("config.json", "cannot read config {path}: maximum recursion depth exceeded"),
    ("ds/dataset.json", "cannot read dataset manifest {path}: maximum recursion depth exceeded"),
    ("segs/segs.json",
     "cannot read segmentation manifest {path}: maximum recursion depth exceeded"),
    ("ds/scene_00001.json", "{path}: malformed scene JSON: maximum recursion depth exceeded"),
], ids=["config", "dataset-manifest", "segmentation-manifest", "scene"])
def test_json_nested_past_the_recursion_limit_exits_2_naming_the_file(dataset, tmp_path, capsys,
                                                                       name, error):
    ds, segs = dataset
    config = tmp_path / "config.json"
    config.write_text("{}")
    path = tmp_path / name
    path.write_text('{"camera": ' + "[" * 100_000)
    assert run_cli("eval", "--config", config, "--dataset", ds, "--segs", segs) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("clusterseg: error: " + error.format(path=path))


@pytest.mark.parametrize("manifest", [{}, {"segmentations": None}, {"segmentations": 5},
                                      {"segmentations": [5]}, {"segmentations": [["a"]]}])
def test_a_malformed_segmentation_manifest_exits_2(dataset, capsys, manifest):
    ds, segs = dataset
    (segs / "segs.json").write_text(json.dumps({"format": 2, **manifest}))
    assert run_cli("eval", "--dataset", ds, "--segs", segs) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"clusterseg: error: malformed segmentation manifest "
                          f"{segs / 'segs.json'}: ")


def test_train_on_a_manifest_that_lists_no_frames_exits_2(dataset, tmp_path, capsys):
    ds, _ = dataset
    manifest = json.loads((ds / "dataset.json").read_text())
    manifest["frames"] = []
    (ds / "dataset.json").write_text(json.dumps(manifest))
    out = tmp_path / "model.ckpt"
    assert run_cli("train", "--dataset", ds, "--out", out, "--epochs", 1) == 2
    assert capsys.readouterr().err == "clusterseg: error: training dataset is empty\n"
    assert not out.exists()


@pytest.mark.parametrize("field, index, value", [
    ("quaternion", 0, math.nan), ("half_extents", 1, math.nan), ("half_extents", None, math.inf),
    ("translation", 2, math.nan), ("translation", 0, math.inf), ("albedo", 0, math.nan),
    ("albedo", 2, -math.inf),
])
def test_a_non_finite_object_value_exits_2_naming_the_scene(dataset, tmp_path, capsys,
                                                            field, index, value):
    # json.loads reads NaN and Infinity; no object check may let them through.
    # An index of None puts the value in every entry, as a sphere's radius.
    ds, segs = dataset
    path = ds / "scene_00001.json"
    doc = json.loads(path.read_text())
    entries = doc["objects"][1][field]
    for i in range(len(entries)) if index is None else [index]:
        entries[i] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ClusterSegError, match=field):
        load_dataset(str(ds))
    err = _exits_2(ds, segs, tmp_path, capsys)
    assert err.count(f"{path}: ") == 2 and err.count(field) == 2


def test_eval_and_oracle_infer_read_frames_without_deriving_xyz(dataset, tmp_path, monkeypatch,
                                                                capsys):
    ds, segs = dataset

    def derived(*args, **kwargs):
        raise AssertionError("xyz was derived")

    monkeypatch.setattr("clusterseg.scenegen.depth_to_xyz", derived)
    assert run_cli("eval", "--dataset", ds, "--segs", segs) == 0
    assert "100.0" in capsys.readouterr().out
    assert run_cli("infer", "--dataset", ds, "--out", tmp_path / "out") == 0


def test_a_frame_derives_xyz_once_read_only_and_train_once_per_frame(dataset, tmp_path,
                                                                      monkeypatch):
    ds, _ = dataset
    calls = []

    def counted(depth, camera):
        calls.append(depth)
        return depth_to_xyz(depth, camera)

    monkeypatch.setattr("clusterseg.scenegen.depth_to_xyz", counted)
    (_, frame, _), _ = load_dataset(str(ds))
    assert calls == []
    xyz = frame.xyz
    assert frame.xyz is xyz and len(calls) == 1
    assert not xyz.flags.writeable
    calls.clear()
    assert run_cli("train", "--dataset", ds, "--out", tmp_path / "model", "--epochs", 3,
                   "--batch", 1) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("depth", [1e308, np.nan])
def test_non_finite_derived_xyz_is_a_typed_error(dataset, tmp_path, capsys, depth):
    ds, segs = dataset
    path = ds / "frame_00001.tsb"
    tensors = read_bundle(path)
    write_bundle(path, {**tensors, "depth": np.full_like(tensors["depth"], depth)})
    with pytest.raises(NonFiniteError, match="frame_00001.tsb: .*non-finite"):
        load_dataset(str(ds))
    assert run_cli("train", "--dataset", ds, "--out", tmp_path / "model", "--epochs", 1) == 2
    err = capsys.readouterr().err
    assert err.startswith("clusterseg: error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "model").exists()


def test_eval_reads_frames_without_building_annotations(dataset, monkeypatch, capsys):
    ds, segs = dataset

    def built(*args, **kwargs):
        raise AssertionError("eval built an annotation")

    monkeypatch.setattr("clusterseg.dataset.build_annotation", built)
    assert run_cli("eval", "--dataset", ds, "--segs", segs) == 0
    assert "100.0" in capsys.readouterr().out


def _far_principal_point(ds):
    path = ds / "scene_00000.json"
    doc = json.loads(path.read_text())
    doc["camera"]["ppx"] = 1e308
    path.write_text(json.dumps(doc))


def _nan_depth(ds):
    path = ds / "frame_00000.tsb"
    tensors = read_bundle(path)
    depth = tensors["depth"].copy()
    depth[3] = np.nan
    write_bundle(path, {**tensors, "depth": depth})


@pytest.mark.parametrize("damage", [_far_principal_point, _nan_depth],
                         ids=["ppx-1e308", "nan-depth"])
@pytest.mark.parametrize("command", [
    ("eval", "--segs", "{segs}"),
    ("infer", "--out", "{tmp}/out", "--predictor", "oracle"),
    ("infer", "--out", "{tmp}/out", "--predictor", "noisy"),
    ("infer", "--out", "{tmp}/out", "--predictor", "mlp", "--model", "{model}"),
    ("train", "--out", "{tmp}/retrained", "--epochs", "1"),
], ids=["eval", "infer-oracle", "infer-noisy", "infer-mlp", "train"])
def test_every_command_rejects_a_non_finite_back_projection(tmp_path, capsys, damage, command):
    # Commands that never build xyz check the back-projection all the same.
    ds, segs, model = tmp_path / "ds", tmp_path / "segs", tmp_path / "model"
    assert run_cli("gen", "--count", 2, "--res", "16x16", "--objects", "2..2", "--seed", 4,
                   "--out", ds) == 0
    assert run_cli("infer", "--dataset", ds, "--out", segs) == 0
    assert run_cli("train", "--dataset", ds, "--out", model, "--epochs", 1) == 0
    damage(ds)
    with pytest.raises(NonFiniteError, match="frame_00000.tsb: .*non-finite"):
        load_dataset(str(ds))
    capsys.readouterr()
    argv = [a.format(segs=segs, tmp=tmp_path, model=model) for a in command]
    assert run_cli(argv[0], "--dataset", ds, *argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("clusterseg: error: ") and "non-finite" in err


@pytest.mark.parametrize("seeds", [[], [(3, 0)], [(0, 5), (7, 2), (7, 7)]],
                         ids=["none", "one", "three"])
def test_segmentation_seeds_round_trip_as_int_tuples(tmp_path, seeds):
    M = len(seeds)
    labels = np.zeros((8, 8), dtype=np.int32)
    labels[0, :M] = np.arange(1, M + 1)
    write_segmentations(tmp_path / "segs", [Segmentation(labels, np.linspace(0, 1, M), seeds)])
    stored = read_bundle(tmp_path / "segs" / "seg_00000.tsb")["seeds"]
    assert stored.dtype == np.uint8 and stored.shape == (M, 2)
    assert stored.tolist() == [list(s) for s in seeds]
    (seg,) = load_segmentations(tmp_path / "segs")
    assert seg.seeds == seeds
    assert all(type(v) is int for s in seg.seeds for v in s)


@pytest.mark.parametrize("M", [255, 256])
@pytest.mark.parametrize("H, W", [(256, 13), (9, 256), (257, 3), (5, 257)])
@pytest.mark.parametrize("fill", ["empty", "random", "full"])
def test_segmentation_round_trips_at_the_dtype_boundaries(tmp_path, M, H, W, fill):
    # u8 label ids hold M <= 255 and u8 seeds sides up to 256; one more
    # takes u16. No W here is a multiple of 8.
    rng = np.random.default_rng([M, H, W, len(fill)])
    fg = {"empty": np.zeros((H, W), bool), "full": np.ones((H, W), bool),
          "random": rng.random((H, W)) < 0.5}[fill]
    labels = np.where(fg, rng.integers(1, M + 1, size=(H, W)), 0).astype(np.int32)
    labels.ravel()[np.flatnonzero(fg)[:1]] = M
    scores = rng.standard_normal(M)
    scores[:3] = -0.0, 5e-324, -1.7e308
    seeds = [(H - 1, W - 1), *map(tuple, rng.integers(0, (H, W), size=(M - 1, 2)).tolist())]
    write_segmentations(tmp_path / "segs", [Segmentation(labels, scores, seeds)])
    stored = read_bundle(tmp_path / "segs" / "seg_00000.tsb")
    assert stored["label_ids"].dtype == (np.uint8 if M <= 255 else np.uint16)
    assert stored["seeds"].dtype == (np.uint8 if max(H, W) <= 256 else np.uint16)
    assert stored["foreground"].size == -(-H * W // 8)
    (seg,) = load_segmentations(tmp_path / "segs")
    assert seg.labels.dtype == np.int32 and np.array_equal(seg.labels, labels)
    assert seg.scores.dtype == np.float64 and seg.scores.tobytes() == scores.tobytes()
    assert seg.seeds == seeds


def _refused(tmp_path, seg, error, message):
    """Writing a valid segmentation, then `seg`, raises `error` naming seg's bundle.

    Every segmentation is checked first, so no file is written.
    """
    labels = np.zeros((4, 6), dtype=np.int32)
    labels[1, 2:4] = 1
    valid = Segmentation(labels, np.array([0.5]), [(1, 2)])
    bundle = tmp_path / "segs" / "seg_00001.tsb"
    with pytest.raises(error, match=re.escape(f"{bundle}: {message}")):
        write_segmentations(tmp_path / "segs", [valid, seg])
    assert not (tmp_path / "segs").exists()


@pytest.mark.parametrize("label", [-1, 3], ids=["negative", "above-m"])
def test_write_segmentations_refuses_a_label_outside_0_to_m(tmp_path, label):
    # -1 would wrap to 65535 in a u16 map, and in a bitmask become background.
    labels = np.zeros((4, 6), dtype=np.int32)
    labels[0, :3] = 1, 2, label
    _refused(tmp_path, Segmentation(labels, np.array([0.5, 0.7]), [(0, 0), (0, 1)]),
             ValueRangeError, f"label {label} lies outside 0..2")


@pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
def test_write_segmentations_refuses_a_non_finite_score(tmp_path, score):
    labels = np.zeros((4, 6), dtype=np.int32)
    labels[2, 2] = 1
    _refused(tmp_path, Segmentation(labels, np.array([score]), [(2, 2)]), NonFiniteError,
             "segmentation scores must be finite")


@pytest.mark.parametrize("seed", [(4, 0), (0, 6), (9, 9), (-1, 0)])
def test_write_segmentations_refuses_a_seed_outside_the_frame(tmp_path, seed):
    labels = np.zeros((4, 6), dtype=np.int32)
    labels[3, 5] = 1
    _refused(tmp_path, Segmentation(labels, np.array([0.5]), [seed]), ValueRangeError,
             f"seed {seed} lies outside the 4 x 6 frame")


def test_write_segmentations_refuses_a_seed_count_other_than_m(tmp_path):
    labels = np.zeros((4, 6), dtype=np.int32)
    labels[0, 0] = 1
    _refused(tmp_path, Segmentation(labels, np.array([0.5]), [(0, 0), (1, 1)]),
             ShapeMismatchError, "2 seeds for 1 instances")
