"""Dataset directories: what a frame bundle stores, and what loading rebuilds.

A frame bundle stores rgb and depth at the foreground pixels, the instance
map, each amodal mask as its window (bounding box and contents) and the
per-object features. Loading fills the backdrop pixels of rgb and depth,
rebuilds the amodal masks from their windows, derives the occlusion scores
from the pixel counts and rebuilds the annotation maps from the features,
the instance map and the manifest's fraction and single-object radius, and
a loaded frame derives xyz from the depth and the camera on first read;
every rebuilt field must equal what gen computed, bit for bit and dtype
included.
"""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from clusterseg import scenegen
from clusterseg.annotation import annotate, object_features
from clusterseg.cli import main
from clusterseg.dataio import read_bundle, write_bundle
from clusterseg.clustering import Segmentation
from clusterseg.dataset import (decode_amodal, encode_amodal, load_dataset, load_frames,
                                load_segmentations, write_dataset, write_segmentations)
from clusterseg.errors import (BundleDtypeError, BundleManifestError, ClusterSegError,
                               NonFiniteError, PlacementError, ShapeMismatchError)
from clusterseg.geometry import CameraIntrinsics, depth_to_xyz
from clusterseg.scenegen import Primitive, Scene, render

FRAME_FIELDS = ("rgb", "depth", "xyz", "instance_map", "amodal_masks", "occlusion_scores")
ANNOTATION_FIELDS = ("xi_map", "eta_gt", "b_map", "fg_mask", "per_object_xi", "instance_map")
STORED = ["amodal_pixels", "amodal_windows", "depth", "instance_map", "per_object_xi", "rgb"]


def run_cli(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)


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
    _, loaded = load_frames(tmp_path)
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


@pytest.mark.parametrize("background_depth", [None, 2.5, 97.25])
@pytest.mark.parametrize("kind", ["empty", "full", "random"])
@settings(max_examples=25, deadline=None, derandomize=True)
@seed(0)
@given(data=st.data())
def test_foreground_rgb_and_depth_round_trip_bit_for_bit(kind, background_depth, data):
    # write_dataset gathers rgb and depth at the nonzero ids; load_frame
    # scatters them back and fills the backdrop as render does.
    H, W = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    K = data.draw(st.integers(0 if kind == "empty" else 1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "empty":
        ids = np.zeros((H, W), dtype=np.int32)
    else:
        ids = rng.integers(1 if kind == "full" else 0, K + 1, size=(H, W), dtype=np.int32)
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
    masks = ids == np.arange(1, K + 1)[:, None, None]
    frame = scenegen.FrameBundle(rgb=rgb, depth=depth, camera=camera, instance_map=ids,
                                 amodal_masks=masks, occlusion_scores=np.ones(K))
    with tempfile.TemporaryDirectory() as ds:
        write_dataset(ds, [(scene, frame, np.zeros((K, 9)))], fraction=0.2,
                      single_object_radius=1.0)
        stored = read_bundle(f"{ds}/frame_00000.tsb")
        assert stored["rgb"].shape == (fg.sum(), 3) and stored["depth"].shape == (fg.sum(),)
        _, [(_, loaded, _)] = load_frames(ds)
    _same(loaded.rgb, rgb, "rgb")
    _same(loaded.depth, depth, "depth")
    _same(loaded.instance_map, ids, "instance_map")


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
    im = t["instance_map"].copy()
    im[im == 1] = len(t["amodal_windows"]) + 1
    return {**t, "instance_map": im}


@pytest.mark.parametrize("mutate, error", [
    (lambda t: {**t, "instance_map": np.full(t["instance_map"].shape, np.nan)},
     BundleDtypeError),
    (lambda t: {**t, "instance_map": t["instance_map"].astype(np.float32) + 0.5},
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
    (lambda t: {**t, "instance_map": t["instance_map"][:, :-1]}, ShapeMismatchError),
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
], ids=["nan-f64-ids", "f32-ids", "window-width", "depth-rows", "f64-rgb", "f32-depth",
        "u16-amodal", "u8-windows", "f32-features", "rgb-channels", "map-columns",
        "amodal-count", "pixel-rows", "feature-rows", "feature-width", "id-above-k",
        "missing-tensor", "extra-tensor", "stored-amodal-masks", "stored-occlusion",
        "rgb-row-short", "rgb-row-long", "depth-row-short", "depth-row-long", "full-frame-maps",
        "every-pixel-rows"])
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
    F = np.count_nonzero(t["instance_map"])
    rows = np.resize(np.arange(F), F + extra)
    write_bundle(path, {**t, "rgb": t["rgb"][rows], "depth": t["depth"][rows]})
    with pytest.raises(ShapeMismatchError, match=f"frame_00001.tsb: rgb and depth hold {F + extra} "
                                                 f"pixels, but the instance map has {F} "):
        load_frames(str(ds))
    _exits_2(ds, segs, tmp_path, capsys)


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
                                   pytest.param(3, id="int-3"), 4.0, "4"])
def test_other_formats_must_be_regenerated(dataset, tmp_path, capsys, value):
    ds, segs = dataset
    _edit_manifest(ds, "format", value)
    with pytest.raises(ClusterSegError, match="regenerate"):
        load_dataset(str(ds))
    assert "regenerate" in _exits_2(ds, segs, tmp_path, capsys)


def test_manifest_records_the_format(dataset):
    ds, _ = dataset
    assert json.loads((ds / "dataset.json").read_text())["format"] == 4


@pytest.mark.parametrize("flag, value", [
    ("--single-object-radius", "nan"), ("--single-object-radius", "0"),
    ("--single-object-radius", "-2"), ("--single-object-radius", "inf"),
    ("--fraction", "nan"), ("--fraction", "0.5"),
    ("--sizes", "0.2..0.1"), ("--z-range", "nan..1"), ("--min-sep", "nan"),
    ("--background-depth", "nan"), ("--background-depth", "-3"),
])
def test_gen_refuses_values_its_loader_would_reject(tmp_path, capsys, flag, value):
    out = tmp_path / "ds"
    assert run_cli("gen", "--count", 1, "--res", "16x16", "--out", out, flag, value) == 2
    assert "error" in capsys.readouterr().err
    assert not (out / "dataset.json").exists()


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
    assert stored.dtype == np.uint16 and stored.shape == (M, 2)
    assert stored.tolist() == [list(s) for s in seeds]
    (seg,) = load_segmentations(tmp_path / "segs")
    assert seg.seeds == seeds
    assert all(type(v) is int for s in seg.seeds for v in s)
