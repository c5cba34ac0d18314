"""Dataset and segmentation directories: the one module that knows their formats.

A dataset directory (written by gen, read by infer, eval and train) holds
dataset.json, the manifest (format, frame file names and the generation
parameters), and per frame a scene_NNNNN.json (the scenegen JSON schema) and
a frame_NNNNN.tsb bundle (frame_layout). Loading rebuilds the annotation maps
from the per-object features, the instance map and the manifest's fraction
and single_object_radius, with the same function gen uses. A loaded frame
carries the scene's camera, so it derives xyz from its depth on first read,
as a rendered one does; loading only checks that the depth back-projects to
finite points.

A segmentation directory (written by infer, read by eval) holds segs.json,
the manifest (segmentation file names, predictor and fg_threshold), and per
frame a seg_NNNNN.tsb bundle (SEGMENTATION_LAYOUT).

Bundles go through `dataio.read_bundle` and `dataio.write_bundle`, looked up
at call time, and a loaded frame keeps the depth array read, uncopied: the
benchmark's tracer replaces those two functions and tells frames apart by
their depth arrays.
"""

import json
import math
import os
import sys

import numpy as np

from . import dataio
from .annotation import build_annotation
from .clustering import Segmentation
from .errors import ClusterSegError, ShapeMismatchError
from .geometry import FEATURE_DIM, check_back_projection
from .scenegen import FrameBundle, scene_from_json, scene_to_json

# The dataset layout gen writes; a dataset with any other "format" must be
# regenerated.
DATASET_FORMAT = 2
# A segmentation bundle: M instances over an H x W image.
SEGMENTATION_LAYOUT = {"labels": (np.uint16, ("H", "W")), "scores": (np.float64, ("M",)),
                       "seeds": (np.uint16, ("M", 2))}


def frame_layout(H, W, K):
    """Every tensor an H x W frame of K objects stores, in written order: name -> (dtype, shape)."""
    return {"rgb": (np.float32, (H, W, 3)), "depth": (np.float64, (H, W)),
            "instance_map": (np.uint16, (H, W)), "amodal_masks": (np.uint8, (K, H, W)),
            "occlusion_scores": (np.float64, (K,)),
            "per_object_xi": (np.float64, (K, FEATURE_DIM))}


def is_number(value):
    """An int or float that converts to a float; JSON true and false parse as bool, an int."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def is_finite(value):
    return is_number(value) and math.isfinite(value)


def _read_text(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ClusterSegError(f"cannot read {what} {path}: {exc}") from exc


def _read_bundle(path, what):
    try:
        return dataio.read_bundle(path)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ClusterSegError(f"cannot read {what} {path}: {exc}") from exc


def read_json_object(path, what):
    """The JSON object in the file at `path`; `what` names the file in errors."""
    try:
        doc = json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ClusterSegError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ClusterSegError(f"malformed {what} {path}: not a JSON object")
    return doc


def write_json(path, doc):
    """Write `doc` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def derivation_values(fraction, single_object_radius):
    """The two values the annotation maps are derived from, checked, as floats."""
    if not (is_finite(fraction) and 0.10 <= fraction <= 0.30):
        raise ClusterSegError(f"fraction must be a finite number in [0.10, 0.30], "
                              f"got {fraction!r}")
    if not (is_finite(single_object_radius) and single_object_radius > 0):
        raise ClusterSegError(f"single_object_radius must be a finite number above 0, "
                              f"got {single_object_radius!r}")
    return float(fraction), float(single_object_radius)


def write_dataset(path, records, **params):
    """Write (scene, frame, annotation) records and a manifest of the generation `params`.

    Loading derives the annotation maps from the params' fraction and single_object_radius.
    """
    os.makedirs(path, exist_ok=True)
    frames = []
    for i, (scene, frame, ann) in enumerate(records):
        scene_name = f"scene_{i:05d}.json"
        bundle_name = f"frame_{i:05d}.tsb"
        with open(os.path.join(path, scene_name), "w", encoding="utf-8") as fh:
            fh.write(scene_to_json(scene))
        arrays = {**vars(frame), "per_object_xi": ann.per_object_xi}
        layout = frame_layout(*frame.depth.shape, len(scene.objects))
        dataio.write_bundle(os.path.join(path, bundle_name),
                            {name: arrays[name].astype(dtype)
                             for name, (dtype, _) in layout.items()})
        frames.append({"scene": scene_name, "bundle": bundle_name,
                       "objects": len(scene.objects)})
    write_json(os.path.join(path, "dataset.json"),
               {**params, "format": DATASET_FORMAT, "frames": frames})


def load_frames(path):
    """The dataset's (fraction, single_object_radius) and (scene, frame, per_object_xi) per frame.

    A depth map that back-projects to non-finite points is a NonFiniteError.
    """
    manifest_path = os.path.join(path, "dataset.json")
    manifest = read_json_object(manifest_path, "dataset manifest")
    fmt = manifest.get("format")
    if type(fmt) is not int or fmt != DATASET_FORMAT:
        raise ClusterSegError(f"{manifest_path}: dataset format {fmt!r} is not the current "
                              f"format {DATASET_FORMAT}; regenerate the dataset with gen")
    try:
        values = derivation_values(manifest.get("fraction"),
                                   manifest.get("single_object_radius"))
    except ClusterSegError as exc:
        raise ClusterSegError(f"malformed dataset manifest {manifest_path}: {exc}") from exc
    frames = []
    try:
        for entry in manifest["frames"]:
            scene_path = os.path.join(path, entry["scene"])
            try:
                scene = scene_from_json(_read_text(scene_path, "scene"))
            except ClusterSegError as exc:
                raise ClusterSegError(f"{scene_path}: {exc}") from exc
            bundle_path = os.path.join(path, entry["bundle"])
            t = _read_bundle(bundle_path, "frame bundle")
            K = len(scene.objects)
            dataio.check_layout(bundle_path, t,
                                frame_layout(scene.camera.height, scene.camera.width, K))
            if t["instance_map"].max(initial=0) > K:
                raise ShapeMismatchError(f"{bundle_path}: instance ids exceed the object count {K}")
            try:
                check_back_projection(t["depth"], scene.camera)
            except ClusterSegError as exc:
                raise type(exc)(f"{bundle_path}: {exc}") from exc
            frame = FrameBundle(rgb=t["rgb"], depth=t["depth"], camera=scene.camera,
                                instance_map=t["instance_map"].astype(np.int32),
                                amodal_masks=t["amodal_masks"].astype(bool),
                                occlusion_scores=t["occlusion_scores"])
            frames.append((scene, frame, t["per_object_xi"]))
    except (KeyError, TypeError) as exc:
        raise ClusterSegError(f"malformed dataset manifest {manifest_path}: {exc}") from exc
    return values, frames


def load_dataset(path):
    """(scene, frame, annotation) per frame, the annotation rebuilt."""
    (fraction, single_object_radius), frames = load_frames(path)
    return [(scene, frame,
             build_annotation(per_object_xi, frame.instance_map, fraction, single_object_radius))
            for scene, frame, per_object_xi in frames]


def write_segmentations(path, segs, **meta):
    """Write one bundle per segmentation and a segs.json listing them with `meta`.

    Every segmentation is checked against the u16 limits before the first file
    is written, so one that would wrap leaves the directory as it was.
    """
    u16_max = np.iinfo(np.uint16).max
    bundles = {}
    for i, seg in enumerate(segs):
        name = f"seg_{i:05d}.tsb"
        bundle_path = os.path.join(path, name)
        seeds = np.asarray(seg.seeds, dtype=np.int64).reshape(len(seg.seeds), 2)
        if len(seg.scores) > u16_max:
            raise ClusterSegError(f"{bundle_path}: {len(seg.scores)} instances exceed the u16 "
                                  f"label limit of {u16_max}")
        if seeds.size and seeds.max() > u16_max:
            raise ClusterSegError(f"{bundle_path}: a seed coordinate exceeds the u16 limit of "
                                  f"{u16_max}")
        bundles[name] = {"labels": seg.labels.astype(np.uint16),
                         "scores": np.asarray(seg.scores, dtype=np.float64),
                         "seeds": seeds.astype(np.uint16)}
    os.makedirs(path, exist_ok=True)
    for name, tensors in bundles.items():
        dataio.write_bundle(os.path.join(path, name), tensors)
    write_json(os.path.join(path, "segs.json"), {**meta, "segmentations": list(bundles)})


def load_segmentations(path):
    """The segmentations segs.json lists, each bundle exactly in SEGMENTATION_LAYOUT."""
    manifest_path = os.path.join(path, "segs.json")
    manifest = read_json_object(manifest_path, "segmentation manifest")
    segs = []
    try:
        for name in manifest["segmentations"]:
            bundle_path = os.path.join(path, name)
            t = _read_bundle(bundle_path, "segmentation bundle")
            dataio.check_layout(bundle_path, t, SEGMENTATION_LAYOUT)
            segs.append(Segmentation(labels=t["labels"].astype(np.int32),
                                     scores=t["scores"],
                                     seeds=[tuple(s) for s in t["seeds"].tolist()]))
    except (KeyError, TypeError) as exc:
        raise ClusterSegError(
            f"malformed segmentation manifest {manifest_path}: {exc}") from exc
    return segs
