"""Dataset directories: what a frame bundle stores, and what loading rebuilds.

A frame bundle stores rgb, depth, the instance map, the amodal masks, the
occlusion scores and the per-object features. Loading rebuilds the
annotation maps from the features, the instance map and the manifest's
fraction and single-object radius, and a loaded frame derives xyz from the
depth and the camera on first read; every rebuilt field must equal what gen
computed, bit for bit and dtype included.
"""

import json

import numpy as np
import pytest

from clusterseg import scenegen
from clusterseg.annotation import annotate
from clusterseg.cli import main
from clusterseg.dataio import read_bundle, write_bundle
from clusterseg.dataset import load_dataset
from clusterseg.errors import (BundleDtypeError, BundleManifestError, ClusterSegError,
                               NonFiniteError, ShapeMismatchError)
from clusterseg.geometry import depth_to_xyz
from clusterseg.scenegen import render

FRAME_FIELDS = ("rgb", "depth", "xyz", "instance_map", "amodal_masks", "occlusion_scores")
ANNOTATION_FIELDS = ("xi_map", "eta_gt", "b_map", "fg_mask", "per_object_xi", "instance_map")
STORED = ["amodal_masks", "depth", "instance_map", "occlusion_scores", "per_object_xi", "rgb"]


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
    im[im == 1] = t["occlusion_scores"].size + 1
    return {**t, "instance_map": im}


@pytest.mark.parametrize("mutate, error", [
    (lambda t: {**t, "instance_map": np.full(t["instance_map"].shape, np.nan)},
     BundleDtypeError),
    (lambda t: {**t, "instance_map": t["instance_map"].astype(np.float32) + 0.5},
     BundleDtypeError),
    (lambda t: {**t, "occlusion_scores": t["occlusion_scores"][:1]}, ShapeMismatchError),
    (lambda t: {**t, "depth": t["depth"][:5]}, ShapeMismatchError),
    (lambda t: {**t, "rgb": t["rgb"].astype(np.float64)}, BundleDtypeError),
    (lambda t: {**t, "depth": t["depth"].astype(np.float32)}, BundleDtypeError),
    (lambda t: {**t, "amodal_masks": t["amodal_masks"].astype(np.uint16)}, BundleDtypeError),
    (lambda t: {**t, "per_object_xi": t["per_object_xi"].astype(np.float32)},
     BundleDtypeError),
    (lambda t: {**t, "rgb": t["rgb"][..., :2]}, ShapeMismatchError),
    (lambda t: {**t, "instance_map": t["instance_map"][:, :-1]}, ShapeMismatchError),
    (lambda t: {**t, "amodal_masks": t["amodal_masks"][:-1]}, ShapeMismatchError),
    (lambda t: {**t, "per_object_xi": t["per_object_xi"][:-1]}, ShapeMismatchError),
    (lambda t: {**t, "per_object_xi": t["per_object_xi"][:, :8]}, ShapeMismatchError),
    (_raise_id_above_k, ShapeMismatchError),
    (lambda t: {k: v for k, v in t.items() if k != "per_object_xi"}, BundleManifestError),
    (lambda t: {**t, "xi_map": np.zeros((24, 24, 9))}, BundleManifestError),
], ids=["nan-f64-ids", "f32-ids", "occlusion-count", "depth-rows", "f64-rgb", "f32-depth",
        "u16-amodal", "f32-features", "rgb-channels", "map-columns", "amodal-count",
        "feature-rows", "feature-width", "id-above-k", "missing-tensor", "extra-tensor"])
def test_malformed_frame_bundle_is_a_typed_error(dataset, tmp_path, capsys, mutate, error):
    ds, segs = dataset
    path = ds / "frame_00001.tsb"
    write_bundle(path, mutate(read_bundle(path)))
    with pytest.raises(error, match="frame_00001.tsb"):
        load_dataset(str(ds))
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


@pytest.mark.parametrize("value", [_MISSING, 1, 3, 2.0, "2", True, None])
def test_other_formats_must_be_regenerated(dataset, tmp_path, capsys, value):
    ds, segs = dataset
    _edit_manifest(ds, "format", value)
    with pytest.raises(ClusterSegError, match="regenerate"):
        load_dataset(str(ds))
    assert "regenerate" in _exits_2(ds, segs, tmp_path, capsys)


def test_manifest_records_the_format(dataset):
    ds, _ = dataset
    assert json.loads((ds / "dataset.json").read_text())["format"] == 2


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
    depth[3, 3] = np.nan
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
