"""Dataset and segmentation directories: the one module that knows their formats.

A dataset directory (written by gen, read by infer, eval and train) holds
dataset.json, the manifest (format, frame file names and the generation
parameters), and per frame a scene_NNNNN.json (the scenegen JSON schema) and
a frame_NNNNN.tsb bundle (frame_layout). gen writes the per-object features
and builds no annotation maps; it stores the frame size, each amodal mask as
its window, the tight bounding box of its pixels and the box's contents
(encode_amodal), and the instance ids, rgb and depth at the foreground (the
union of the amodal masks) only, in row-major order; and no occlusion
scores. Loading is two steps:
read_dataset_manifest checks the manifest, every frame's entry included,
and load_frame loads and checks one frame, so a command can hold one frame
at a time.
A frame's maps are `annotation.build_annotation` of its features, its
instance map and the manifest's fraction and single_object_radius.
load_dataset loads every frame with its maps; load_frame builds none. A loaded
frame carries the scene's camera, so it derives xyz from its depth on first
read, as a rendered one does; loading only checks that the depth
back-projects to finite points. It fills the backdrop pixels of rgb and
depth with scenegen.backdrop's values, as render does, rebuilds the amodal
masks from their windows, derives the occlusion scores from the pixel counts
(scenegen.occlusion_scores, as render does), and rejects a frame size other
than the camera's, rgb outside [0, 1], features that are not finite, windows
outside the frame or that disagree with the stored pixel count, mask values
other than 0 and 1, another number of stored pixels than the masks cover,
ids outside 1..K, visible pixels outside their object's amodal mask, and
foreground depths at or below scenegen.RAY_MIN_T, nearer than any ray hit.

A segmentation directory (written by infer, read by eval) holds segs.json,
the manifest (segmentation file names, predictor and fg_threshold), and per
frame a seg_NNNNN.tsb bundle (SEGMENTATION_LAYOUT); loading rejects
scores that are not finite, labels above the instance count and seeds
outside the image.

A file that cannot be read, as UTF-8 or JSON where it is text, is a
ClusterSegError("cannot read WHAT PATH: ..."). Bundles go through
`dataio.read_bundle` and `dataio.write_bundle`, looked up at call time, so
the benchmark's tracer can replace those two functions.
"""

import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .annotation import build_annotation
from .clustering import Segmentation
from .errors import (ClusterSegError, MaskContainmentError, NonFiniteError, ShapeMismatchError,
                     ValueRangeError)
from .geometry import FEATURE_DIM, check_back_projection
from .scenegen import (RAY_MIN_T, FrameBundle, backdrop, occlusion_scores, scene_from_json,
                       scene_to_json)

# The dataset layout gen writes; a dataset with any other "format" must be
# regenerated.
DATASET_FORMAT = 6
# The largest stored u16: frame sides, object counts (ids 1..K, 0 is the
# background), amodal windows, segmentation labels and seed coordinates.
U16_MAX = 65535
# A segmentation bundle: M instances over an H x W image.
SEGMENTATION_LAYOUT = {"labels": (np.uint16, ("H", "W")), "scores": (np.float64, ("M",)),
                       "seeds": (np.uint16, ("M", 2))}


def frame_layout(K):
    """Every tensor a frame of K objects stores, in written order: name -> (dtype, shape).

    frame_size is (H, W). amodal_windows and amodal_pixels store the amodal
    masks (encode_amodal). rgb, depth and instance_ids hold the values at
    the F pixels of the masks' union, in row-major order.
    """
    return {"rgb": (np.float32, ("F", 3)), "depth": (np.float64, ("F",)),
            "instance_ids": (np.uint16, ("F",)), "frame_size": (np.uint16, (2,)),
            "amodal_windows": (np.uint16, (K, 4)), "amodal_pixels": (np.uint8, ("P",)),
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


def _read(path, what, reader):
    """reader(path); an OSError, ValueError or RecursionError from it is a ClusterSegError.

    The error names the file.
    """
    try:
        return reader(path)
    # ValueError: not UTF-8, not JSON, or a NUL in the path; RecursionError:
    # JSON nested deeper than the parser's recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ClusterSegError(f"cannot read {what} {path}: {exc}") from exc


def read_json_object(path, what):
    """The JSON object in the file at `path`; `what` names the file in errors."""
    doc = _read(path, what, lambda p: json.loads(Path(p).read_text(encoding="utf-8")))
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

    The records have the shape load_frame returns. Loading derives the
    annotation maps from the features and the params' fraction and
    single_object_radius. Every record is checked before the first file is
    written, against the u16 limits and for nonzero ids on exactly the
    amodal masks' union, so one that fails leaves the directory as it was.
    """
    for i, (scene, frame, _) in enumerate(records):
        (H, W), K = frame.depth.shape, len(scene.objects)
        if max(H, W, K) > U16_MAX:
            raise ClusterSegError(f"frame {i} is {H} x {W} with {K} objects, but the sides and "
                                  f"the object count must be at most the u16 limit {U16_MAX}")
        if not np.array_equal(frame.instance_map != 0, frame.amodal_masks.any(axis=0)):
            raise ClusterSegError(f"frame {i}: the pixels of nonzero instance id are not the "
                                  f"union of the amodal masks")
    os.makedirs(path, exist_ok=True)
    frames = []
    for i, (scene, frame, per_object_xi) in enumerate(records):
        scene_name = f"scene_{i:05d}.json"
        bundle_name = f"frame_{i:05d}.tsb"
        with open(os.path.join(path, scene_name), "w", encoding="utf-8") as fh:
            fh.write(scene_to_json(scene))
        windows, pixels = encode_amodal(frame.amodal_masks)
        ids = frame.instance_map.ravel()
        fg = np.flatnonzero(ids)
        arrays = {"rgb": frame.rgb.reshape(-1, 3)[fg], "depth": frame.depth.ravel()[fg],
                  "instance_ids": ids[fg], "frame_size": np.array(frame.depth.shape),
                  "amodal_windows": windows, "amodal_pixels": pixels,
                  "per_object_xi": per_object_xi}
        layout = frame_layout(len(scene.objects))
        dataio.write_bundle(os.path.join(path, bundle_name),
                            {name: arrays[name].astype(dtype)
                             for name, (dtype, _) in layout.items()})
        frames.append({"scene": scene_name, "bundle": bundle_name,
                       "objects": len(scene.objects)})
    write_json(os.path.join(path, "dataset.json"),
               {**params, "format": DATASET_FORMAT, "frames": frames})


def _check_frame_values(bundle_path, t, H, W):
    """The frame's foreground pixels, amodal masks and occlusion scores, every stored value checked.

    Raises a typed error naming the bundle for a value no rendered frame
    holds: frame_size must be the scene camera's (H, W), checked first;
    every id must lie in 1..K, rgb must be finite and in [0, 1], every
    window must lie inside the frame, amodal_pixels must hold exactly the
    windows' pixels, each 0 or 1, the stored rows must be one per pixel of
    the masks' union, the foreground pixels (flat indices, ascending), and
    object k's visible pixels (id k + 1) must lie in its amodal mask; of
    several such objects the lowest k is named. The occlusion scores are
    scenegen.occlusion_scores of the visible and amodal pixel counts.
    """
    ids, windows, pixels = t["instance_ids"], t["amodal_windows"], t["amodal_pixels"]
    K = len(windows)
    size = t["frame_size"].tolist()
    if size != [H, W]:
        raise ShapeMismatchError(f"{bundle_path}: frame_size is {size[0]} x {size[1]}, but the "
                                 f"scene's camera is {H} x {W}")
    if ids.max(initial=0) > K:
        raise ShapeMismatchError(f"{bundle_path}: instance ids exceed the object count {K}")
    if ids.min(initial=1) == 0:
        raise ValueRangeError(f"{bundle_path}: instance id 0 at a foreground pixel")
    if not np.isfinite(t["per_object_xi"]).all():
        raise NonFiniteError(f"{bundle_path}: per_object_xi contains NaN or infinity")
    rgb = t["rgb"]
    # min and max are NaN if any value is NaN, so only valid rgb passes
    if not (rgb.min(initial=0) >= 0 and rgb.max(initial=0) <= 1):
        if not np.isfinite(rgb).all():
            raise NonFiniteError(f"{bundle_path}: rgb contains NaN or infinity")
        raise ValueRangeError(f"{bundle_path}: rgb values must lie in [0, 1], got "
                              f"{rgb.min() if rgb.min() < 0 else rgb.max()}")
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
    fg = np.flatnonzero(masks.any(axis=0))
    if fg.size != ids.size:
        raise ShapeMismatchError(f"{bundle_path}: rgb, depth and instance_ids hold {ids.size} "
                                 f"pixels, but the amodal masks cover {fg.size}")
    owner = ids.astype(np.intp) - 1
    outside = ~masks.ravel()[owner * (H * W) + fg]
    if outside.any():
        raise MaskContainmentError(f"{bundle_path}: a visible pixel of object "
                                   f"{int(owner[outside].min())} lies outside its amodal mask")
    visible = np.bincount(owner, minlength=K)
    # reduceat sums each start's pixels up to the next start, so it gets the
    # non-empty windows only.
    amodal, full = np.zeros(K, dtype=np.int64), area > 0
    amodal[full] = np.add.reduceat(pixels, (np.cumsum(area) - area)[full], dtype=np.int64)
    return fg, masks, occlusion_scores(visible, amodal)


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

    A scene's parse error keeps its type and gains the scene path. The
    backdrop pixels get scenegen.backdrop's values, as render gives them. A
    depth map that back-projects to non-finite points is a NonFiniteError,
    and a finite foreground depth at or below RAY_MIN_T a ValueRangeError.
    """
    text = _read(scene_path, "scene", lambda p: Path(p).read_text(encoding="utf-8"))
    try:
        scene = scene_from_json(text)
    except ClusterSegError as exc:
        raise type(exc)(f"{scene_path}: {exc}") from exc
    t = _read(bundle_path, "frame bundle", dataio.read_bundle)
    (H, W), K = (scene.camera.height, scene.camera.width), len(scene.objects)
    dataio.check_layout(bundle_path, t, frame_layout(K))
    fg, amodal, occlusion = _check_frame_values(bundle_path, t, H, W)
    backdrop_rgb, backdrop_depth = backdrop(scene.background_depth)
    depth = np.full(H * W, backdrop_depth)
    depth[fg] = t["depth"]
    depth = depth.reshape(H, W)
    try:
        check_back_projection(depth, scene.camera)
    except ClusterSegError as exc:
        raise type(exc)(f"{bundle_path}: {exc}") from exc
    if t["depth"].min(initial=np.inf) <= RAY_MIN_T:
        raise ValueRangeError(f"{bundle_path}: foreground depth {float(t['depth'].min())!r} is "
                              f"not beyond RAY_MIN_T = {RAY_MIN_T}, as every ray hit is")
    rgb = np.full((H * W, 3), backdrop_rgb, dtype=np.float32)
    # Each pixel's three channels put as one 12-byte value: twice as fast as
    # assigning f32 rows by index.
    np.put(rgb.view("V12"), fg, t["rgb"].view("V12"))
    instance_map = np.zeros(H * W, dtype=np.int32)
    instance_map[fg] = t["instance_ids"]
    frame = FrameBundle(rgb=rgb.reshape(H, W, 3), depth=depth, camera=scene.camera,
                        instance_map=instance_map.reshape(H, W),
                        amodal_masks=amodal, occlusion_scores=occlusion)
    return scene, frame, t["per_object_xi"]


def load_dataset(path):
    """(scene, frame, annotation) per frame, the annotation rebuilt."""
    values, entries = read_dataset_manifest(path)
    return [(scene, frame, build_annotation(per_object_xi, frame.instance_map, *values))
            for scene, frame, per_object_xi in (load_frame(*entry) for entry in entries)]


def write_segmentations(path, segs, **meta):
    """Write one bundle per segmentation and a segs.json listing them with `meta`.

    Every segmentation is checked against the u16 limits before the first file
    is written, so one that would wrap leaves the directory as it was.
    """
    bundles = {}
    for i, seg in enumerate(segs):
        name = f"seg_{i:05d}.tsb"
        bundle_path = os.path.join(path, name)
        seeds = np.fromiter(itertools.chain.from_iterable(seg.seeds), np.int64,
                            2 * len(seg.seeds)).reshape(len(seg.seeds), 2)
        if len(seg.scores) > U16_MAX:
            raise ClusterSegError(f"{bundle_path}: {len(seg.scores)} instances exceed the u16 "
                                  f"label limit of {U16_MAX}")
        if seeds.size and seeds.max() > U16_MAX:
            raise ClusterSegError(f"{bundle_path}: a seed coordinate exceeds the u16 limit of "
                                  f"{U16_MAX}")
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
            t = _read(bundle_path, "segmentation bundle", dataio.read_bundle)
            dataio.check_layout(bundle_path, t, SEGMENTATION_LAYOUT)
            _check_segmentation_values(bundle_path, t)
            segs.append(Segmentation(labels=t["labels"].astype(np.int32),
                                     scores=t["scores"],
                                     seeds=list(zip(*t["seeds"].T.tolist()))))
    except (KeyError, TypeError) as exc:
        raise ClusterSegError(
            f"malformed segmentation manifest {manifest_path}: {exc}") from exc
    return segs
