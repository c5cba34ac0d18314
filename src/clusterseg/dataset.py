"""Dataset and segmentation directories: the one module that knows their formats.

A dataset directory (written by gen, read by infer, eval and train) holds
dataset.json, the manifest (format, frame file names and the generation
parameters), and per frame a scene_NNNNN.json (the scenegen JSON schema) and
a frame_NNNNN.tsb bundle (frame_layout). gen writes the per-object features
and builds no annotation maps; it stores rgb and depth at the foreground
pixels only (instance id above 0, in row-major order), each amodal mask as
its window, the tight bounding box of its pixels and the box's contents
(encode_amodal), and no occlusion scores. Loading is two steps:
read_dataset_manifest checks the manifest, every frame's entry included,
and load_frame loads and checks one frame, so a command can hold one frame
at a time.
A frame's maps are `annotation.build_annotation` of its features, its
instance map and the manifest's fraction and single_object_radius.
load_dataset loads every frame with its maps, and
load_frames, for commands that read only the frames, builds none. A loaded
frame carries the scene's camera, so it derives xyz from its depth on first
read, as a rendered one does; loading only checks that the depth
back-projects to finite points. It fills the backdrop pixels of rgb and
depth with the values render gives them, rebuilds the amodal masks from
their windows, derives each occlusion score from the pixel counts, and
rejects rgb outside [0, 1], features that are not finite, windows outside
the frame or that disagree with the stored pixel count, mask values other
than 0 and 1 and visible pixels outside their object's amodal mask.

A segmentation directory (written by infer, read by eval) holds segs.json,
the manifest (segmentation file names, predictor and fg_threshold), and per
frame a seg_NNNNN.tsb bundle (SEGMENTATION_LAYOUT); loading rejects
scores that are not finite, labels above the instance count and seeds
outside the image.

Bundles go through `dataio.read_bundle` and `dataio.write_bundle`, looked up
at call time, so the benchmark's tracer can replace those two functions.
"""

import itertools
import json
import math
import os
import sys

import numpy as np

from . import dataio
from .annotation import build_annotation
from .clustering import Segmentation
from .errors import (ClusterSegError, MaskContainmentError, NonFiniteError, ShapeMismatchError,
                     ValueRangeError)
from .geometry import FEATURE_DIM, check_back_projection
from .scenegen import BACKDROP_RGB, FrameBundle, scene_from_json, scene_to_json

# The dataset layout gen writes; a dataset with any other "format" must be
# regenerated.
DATASET_FORMAT = 4
# A segmentation bundle: M instances over an H x W image.
SEGMENTATION_LAYOUT = {"labels": (np.uint16, ("H", "W")), "scores": (np.float64, ("M",)),
                       "seeds": (np.uint16, ("M", 2))}


def frame_layout(H, W, K):
    """Every tensor an H x W frame of K objects stores, in written order: name -> (dtype, shape).

    rgb and depth hold the values at the F foreground pixels, the nonzero
    pixels of instance_map in row-major order; amodal_windows and
    amodal_pixels store the amodal masks (encode_amodal).
    """
    return {"rgb": (np.float32, ("F", 3)), "depth": (np.float64, ("F",)),
            "instance_map": (np.uint16, (H, W)), "amodal_windows": (np.uint16, (K, 4)),
            "amodal_pixels": (np.uint8, ("P",)),
            "per_object_xi": (np.float64, (K, FEATURE_DIM))}


def encode_amodal(masks):
    """The (windows, pixels) that store K x H x W bool masks.

    Row k of the K x 4 windows is (top, left, height, width), the tight
    bounding box of mask k's pixels, or zeros for an empty mask; pixels holds
    every window's contents, row-major, in object order, as u8.
    """
    rows, cols = masks.any(axis=2), masks.any(axis=1)
    windows = np.zeros((len(masks), 4), dtype=np.int64)
    parts = [np.empty(0, dtype=bool)]
    for k in np.flatnonzero(rows.any(axis=1)).tolist():
        r, c = np.flatnonzero(rows[k]), np.flatnonzero(cols[k])
        windows[k] = r[0], c[0], r[-1] + 1 - r[0], c[-1] + 1 - c[0]
        parts.append(masks[k, r[0]:r[-1] + 1, c[0]:c[-1] + 1].ravel())
    return windows, np.concatenate(parts).view(np.uint8)


def decode_amodal(windows, pixels, H, W):
    """The K x H x W bool masks that `windows` and their 0/1 `pixels` store."""
    masks = np.zeros((len(windows), H, W), dtype=bool)
    start = 0
    for k, (top, left, h, w) in enumerate(windows.tolist()):
        masks[k, top:top + h, left:left + w] = pixels[start:start + h * w].reshape(h, w)
        start += h * w
    return masks


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
    """Write (scene, frame, per_object_xi) records and a manifest of the generation `params`.

    The records have the shape load_frames returns. Loading derives the
    annotation maps from the features and the params' fraction and
    single_object_radius.
    """
    os.makedirs(path, exist_ok=True)
    frames = []
    for i, (scene, frame, per_object_xi) in enumerate(records):
        scene_name = f"scene_{i:05d}.json"
        bundle_name = f"frame_{i:05d}.tsb"
        with open(os.path.join(path, scene_name), "w", encoding="utf-8") as fh:
            fh.write(scene_to_json(scene))
        windows, pixels = encode_amodal(frame.amodal_masks)
        fg = np.flatnonzero(frame.instance_map)
        arrays = {**vars(frame), "rgb": frame.rgb.reshape(-1, 3)[fg],
                  "depth": frame.depth.ravel()[fg], "amodal_windows": windows,
                  "amodal_pixels": pixels, "per_object_xi": per_object_xi}
        layout = frame_layout(*frame.depth.shape, len(scene.objects))
        dataio.write_bundle(os.path.join(path, bundle_name),
                            {name: arrays[name].astype(dtype)
                             for name, (dtype, _) in layout.items()})
        frames.append({"scene": scene_name, "bundle": bundle_name,
                       "objects": len(scene.objects)})
    write_json(os.path.join(path, "dataset.json"),
               {**params, "format": DATASET_FORMAT, "frames": frames})


def _check_frame_values(bundle_path, t):
    """The frame's foreground pixels, amodal masks and occlusion scores, every stored value checked.

    Raises a typed error naming the bundle for a value no rendered frame
    holds: rgb must be finite and in [0, 1], rgb and depth must hold one row
    per foreground pixel, every window must lie inside the frame,
    amodal_pixels must hold exactly the windows' pixels, each 0 or 1, and
    object k's visible pixels (id k + 1) must lie in its amodal mask; of
    several such objects the lowest k is named. The foreground pixels are
    the flat indices of the nonzero ids, ascending. Object k's occlusion
    score is its visible pixel count over its amodal pixel count, 0 for an
    empty mask, the bits scenegen.occlusion_score gives.
    """
    if not np.isfinite(t["per_object_xi"]).all():
        raise NonFiniteError(f"{bundle_path}: per_object_xi contains NaN or infinity")
    rgb = t["rgb"]
    # min and max are NaN if any value is NaN, so only valid rgb passes
    if not (rgb.min(initial=0) >= 0 and rgb.max(initial=0) <= 1):
        if not np.isfinite(rgb).all():
            raise NonFiniteError(f"{bundle_path}: rgb contains NaN or infinity")
        raise ValueRangeError(f"{bundle_path}: rgb values must lie in [0, 1], got "
                              f"{rgb.min() if rgb.min() < 0 else rgb.max()}")
    ids, windows, pixels = t["instance_map"], t["amodal_windows"], t["amodal_pixels"]
    (H, W), K = ids.shape, len(windows)
    fg = np.flatnonzero(ids.ravel() != 0)  # faster on bool than on u16
    if fg.size != len(rgb):
        raise ShapeMismatchError(f"{bundle_path}: rgb and depth hold {len(rgb)} pixels, but "
                                 f"the instance map has {fg.size} foreground pixels")
    top, left, h, w = windows.astype(np.int64).T
    outside = (top + h > H) | (left + w > W)
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueRangeError(f"{bundle_path}: amodal window {k} {tuple(windows[k].tolist())} "
                              f"(top, left, height, width) extends past the {H} x {W} frame")
    area = h * w
    if pixels.size != area.sum():
        raise ShapeMismatchError(f"{bundle_path}: amodal_pixels holds {pixels.size} values, but "
                                 f"the amodal windows cover {int(area.sum())}")
    if pixels.max(initial=0) > 1:
        raise ValueRangeError(f"{bundle_path}: amodal_pixels must hold only 0 and 1, "
                              f"got {int(pixels.max())}")
    masks = decode_amodal(windows, pixels.view(np.bool_), H, W)
    owner = ids.ravel()[fg].astype(np.intp) - 1
    outside = ~masks.ravel()[owner * (H * W) + fg]
    if outside.any():
        raise MaskContainmentError(f"{bundle_path}: a visible pixel of object "
                                   f"{int(owner[outside].min())} lies outside its amodal mask")
    visible = np.bincount(owner, minlength=K)
    # reduceat sums each start's pixels up to the next start, so it gets the
    # non-empty windows only.
    amodal, full = np.zeros(K, dtype=np.int64), area > 0
    amodal[full] = np.add.reduceat(pixels, (np.cumsum(area) - area)[full], dtype=np.int64)
    return fg, masks, np.divide(visible, amodal, out=np.zeros(K), where=amodal > 0)


def read_dataset_manifest(path):
    """The dataset's (fraction, single_object_radius) and each frame's (scene path, bundle path).

    The manifest is checked whole, every frame's entry included, before
    any frame is read.
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
    try:
        entries = [(os.path.join(path, entry["scene"]), os.path.join(path, entry["bundle"]))
                   for entry in manifest["frames"]]
    except (KeyError, TypeError) as exc:
        raise ClusterSegError(f"malformed dataset manifest {manifest_path}: {exc}") from exc
    return values, entries


def load_frame(scene_path, bundle_path):
    """One frame's (scene, frame, per_object_xi), every value checked.

    The backdrop pixels get the values render gives them: depth
    background_depth, or 0 with no backdrop, and rgb BACKDROP_RGB, or 0.
    A depth map that back-projects to non-finite points is a NonFiniteError.
    """
    try:
        scene = scene_from_json(_read_text(scene_path, "scene"))
    except ClusterSegError as exc:
        raise ClusterSegError(f"{scene_path}: {exc}") from exc
    t = _read_bundle(bundle_path, "frame bundle")
    (H, W), K = (scene.camera.height, scene.camera.width), len(scene.objects)
    dataio.check_layout(bundle_path, t, frame_layout(H, W, K))
    if t["instance_map"].max(initial=0) > K:
        raise ShapeMismatchError(f"{bundle_path}: instance ids exceed the object count {K}")
    fg, amodal, occlusion = _check_frame_values(bundle_path, t)
    backdrop = scene.background_depth is not None
    depth = np.full(H * W, scene.background_depth if backdrop else 0.0)
    depth[fg] = t["depth"]
    depth = depth.reshape(H, W)
    try:
        check_back_projection(depth, scene.camera)
    except ClusterSegError as exc:
        raise type(exc)(f"{bundle_path}: {exc}") from exc
    rgb = np.full((H * W, 3), BACKDROP_RGB if backdrop else 0.0, dtype=np.float32)
    # Each pixel's three channels put as one 12-byte value: twice as fast as
    # assigning f32 rows by index.
    np.put(rgb.view("V12"), fg, t["rgb"].view("V12"))
    frame = FrameBundle(rgb=rgb.reshape(H, W, 3), depth=depth, camera=scene.camera,
                        instance_map=t["instance_map"].astype(np.int32),
                        amodal_masks=amodal, occlusion_scores=occlusion)
    return scene, frame, t["per_object_xi"]


def load_frames(path):
    """The dataset's (fraction, single_object_radius) and (scene, frame, per_object_xi) per frame."""
    values, entries = read_dataset_manifest(path)
    return values, [load_frame(*entry) for entry in entries]


def load_dataset(path):
    """(scene, frame, annotation) per frame, the annotation rebuilt."""
    values, frames = load_frames(path)
    return [(scene, frame, build_annotation(per_object_xi, frame.instance_map, *values))
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
        seeds = np.fromiter(itertools.chain.from_iterable(seg.seeds), np.int64,
                            2 * len(seg.seeds)).reshape(len(seg.seeds), 2)
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


def _check_segmentation_values(bundle_path, t):
    """Raise a typed error naming the bundle for a value no segmentation holds.

    Scores must be finite, labels at most the instance count M and seeds
    (row, col) inside the labels' H x W.
    """
    scores, seeds = t["scores"], t["seeds"]
    if not np.isfinite(scores).all():
        raise NonFiniteError(f"{bundle_path}: segmentation scores must be finite")
    if t["labels"].max(initial=0) > scores.size:
        raise ValueRangeError(f"{bundle_path}: label {int(t['labels'].max())} exceeds the "
                              f"instance count {scores.size}")
    outside = (seeds >= t["labels"].shape).any(axis=1)
    if outside.any():
        row, col = seeds[outside][0].tolist()
        raise ValueRangeError(f"{bundle_path}: seed ({row}, {col}) lies outside the "
                              f"{t['labels'].shape[0]} x {t['labels'].shape[1]} labels")


def load_segmentations(path):
    """The segmentations segs.json lists, each bundle in SEGMENTATION_LAYOUT with valid values."""
    manifest_path = os.path.join(path, "segs.json")
    manifest = read_json_object(manifest_path, "segmentation manifest")
    segs = []
    try:
        for name in manifest["segmentations"]:
            bundle_path = os.path.join(path, name)
            t = _read_bundle(bundle_path, "segmentation bundle")
            dataio.check_layout(bundle_path, t, SEGMENTATION_LAYOUT)
            _check_segmentation_values(bundle_path, t)
            segs.append(Segmentation(labels=t["labels"].astype(np.int32),
                                     scores=t["scores"],
                                     seeds=list(zip(*t["seeds"].T.tolist()))))
    except (KeyError, TypeError) as exc:
        raise ClusterSegError(
            f"malformed segmentation manifest {manifest_path}: {exc}") from exc
    return segs
