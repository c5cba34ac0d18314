"""Command-line entry points.

Subcommands:

  gen        sample scenes, render them, and write a dataset directory
  infer      run a predictor + clustering over a dataset, write segmentations
  eval       score segmentations against a dataset, write a JSON report
  gradcheck  verify analytic loss gradients against central differences
  train      fit the per-pixel MLP with Adam and log per-epoch losses and AP

Every command takes --config FILE (a JSON object of flag defaults; explicit
flags win) and --dump-config (print the effective configuration as strict
JSON and exit; a NaN or infinite value exits 1), and is deterministic given
its configuration and seed. Exit codes: 0 ok, 1 usage error (including a
value the flag table below rejects, from the command line or the config
file), 2 data error (including a value a library type rejects), 3 check
failure.

Dataset directory layout (written by gen, read by infer/eval/train):

  dataset.json     manifest: format, frame file names + generation parameters
  scene_00000.json scene geometry (see scenegen JSON schema)
  frame_00000.tsb  rgb, depth, instance map, amodal masks, occlusion scores
                   and per-object features (FRAME_TENSORS)

Loading rebuilds the annotation maps from the per-object features, the
instance map and the manifest's fraction and single_object_radius, and, for
the commands that run the MLP, xyz from depth and the scene's camera, with
the same functions gen uses.
"""

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import dataio, losses
from .annotation import Annotation, annotate, build_annotation
from .clustering import Segmentation, segment
from .errors import BundleDtypeError, ClusterSegError, ShapeMismatchError
from .evaluation import (EvalConfig, compute_metrics, format_table, result_to_dict)
from .geometry import FEATURE_DIM, CameraIntrinsics, depth_to_xyz
from .losses import LossWeights, finite_diff_check, total_loss
from .predictor import (AdamState, NoiseSpec, adam_step, init_model, load_checkpoint,
                        mlp_backward, mlp_forward, noisy_predict, oracle_predict,
                        save_checkpoint)
from .scenegen import (FrameBundle, GeneratorConfig, render, sample_scene,
                       scene_from_json, scene_to_json)
from .seeding import STREAM_EPOCH, stream_rng

GRADCHECK_TOLERANCE = 1e-4
# Spreads per-frame seeds apart so adjacent base seeds cannot collide.
SEED_STRIDE = 1_000_003
# The dataset layout gen writes; a dataset with any other "format" must be
# regenerated.
DATASET_FORMAT = 2
# Every tensor a frame bundle stores, with the dtype it is written in.
FRAME_TENSORS = {"rgb": np.float32, "depth": np.float64, "instance_map": np.uint16,
                 "amodal_masks": np.uint8, "occlusion_scores": np.float64,
                 "per_object_xi": np.float64}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the documented contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    return repr(float(value))


def _jobs_default():
    env = os.environ.get("CLUSTERSEG_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _map_frames(fn, count, jobs):
    # Results come back in frame order no matter how workers finish.
    if jobs <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, range(count)))


# ---------------------------------------------------------------------------
# dataset persistence

def _frame_tensors(frame: FrameBundle, ann: Annotation) -> dict:
    arrays = {"rgb": frame.rgb, "depth": frame.depth, "instance_map": frame.instance_map,
              "amodal_masks": frame.amodal_masks, "occlusion_scores": frame.occlusion_scores,
              "per_object_xi": ann.per_object_xi}
    return {name: arrays[name].astype(dtype) for name, dtype in FRAME_TENSORS.items()}


def _check_frame_tensors(name, t, scene):
    """Require what _frame_tensors writes, shaped by the scene's camera and objects."""
    H, W, K = scene.camera.height, scene.camera.width, len(scene.objects)
    shapes = {"rgb": (H, W, 3), "depth": (H, W), "instance_map": (H, W),
              "amodal_masks": (K, H, W), "occlusion_scores": (K,),
              "per_object_xi": (K, FEATURE_DIM)}
    dataio.check_layout(name, t, {key: (dtype, shapes[key])
                                  for key, dtype in FRAME_TENSORS.items()})
    if t["instance_map"].max(initial=0) > K:
        raise ShapeMismatchError(f"{name}: instance ids exceed the object count {K}")


def _frame_from_tensors(t: dict, scene, xyz):
    frame = FrameBundle(
        rgb=t["rgb"], depth=t["depth"],
        xyz=depth_to_xyz(t["depth"], scene.camera) if xyz else None,
        instance_map=t["instance_map"].astype(np.int32),
        amodal_masks=t["amodal_masks"].astype(bool),
        occlusion_scores=t["occlusion_scores"],
    )
    return frame, t["per_object_xi"]


def _number(value):
    """An int or float that converts to a float; JSON true and false parse as bool, an int."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


def _finite(value):
    return _number(value) and math.isfinite(value)


def _derivation_values(fraction, single_object_radius):
    """The two values the annotation maps are derived from, checked, as floats."""
    if not (_finite(fraction) and 0.10 <= fraction <= 0.30):
        raise ClusterSegError(f"fraction must be a finite number in [0.10, 0.30], "
                              f"got {fraction!r}")
    if not (_finite(single_object_radius) and single_object_radius > 0):
        raise ClusterSegError(f"single_object_radius must be a finite number above 0, "
                              f"got {single_object_radius!r}")
    return float(fraction), float(single_object_radius)


def _read_text(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ClusterSegError(f"cannot read {what} {path}: {exc}") from exc


def _read_json_object(path, what):
    try:
        doc = json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ClusterSegError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ClusterSegError(f"malformed {what} {path}: not a JSON object")
    return doc


def _read_dataset(path, xyz):
    """The dataset's (fraction, single_object_radius) and (scene, frame, per_object_xi) per frame.

    Each frame's xyz map is derived only when `xyz` is true, else it is None.
    """
    manifest_path = os.path.join(path, "dataset.json")
    manifest = _read_json_object(manifest_path, "dataset manifest")
    fmt = manifest.get("format")
    if type(fmt) is not int or fmt != DATASET_FORMAT:
        raise ClusterSegError(f"{manifest_path}: dataset format {fmt!r} is not the current "
                              f"format {DATASET_FORMAT}; regenerate the dataset with gen")
    try:
        values = _derivation_values(manifest.get("fraction"),
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
            try:
                tensors = dataio.read_bundle(bundle_path)
            except (OSError, ValueError) as exc:
                raise ClusterSegError(f"cannot read frame bundle {bundle_path}: {exc}") from exc
            _check_frame_tensors(bundle_path, tensors, scene)
            try:
                frames.append((scene, *_frame_from_tensors(tensors, scene, xyz)))
            except ClusterSegError as exc:
                raise type(exc)(f"{bundle_path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ClusterSegError(f"malformed dataset manifest {manifest_path}: {exc}") from exc
    return values, frames


def _load_dataset(path, xyz=True):
    """(scene, frame, annotation) per frame, the annotation rebuilt from the bundle.

    Only the MLP reads a frame's xyz map; without `xyz` it is not derived.
    """
    (fraction, single_object_radius), frames = _read_dataset(path, xyz)
    return [(scene, frame,
             build_annotation(per_object_xi, frame.instance_map, fraction, single_object_radius))
            for scene, frame, per_object_xi in frames]


def _check_segmentation_tensors(name, t):
    """Require what _write_segmentation writes: u16 labels and seeds, f64 scores."""
    for key, dtype in (("labels", np.uint16), ("scores", np.float64), ("seeds", np.uint16)):
        if t[key].dtype != dtype:
            raise BundleDtypeError(f"{name}: {key} must be {np.dtype(dtype)}, got {t[key].dtype}")
    labels, scores, seeds = t["labels"], t["scores"], t["seeds"]
    if labels.ndim != 2 or scores.ndim != 1 or seeds.shape != (scores.size, 2):
        raise ShapeMismatchError(
            f"{name}: expected 2-D labels, 1-D scores and one (row, col) seed per score, "
            f"got labels {labels.shape}, scores {scores.shape}, seeds {seeds.shape}")


def _load_segmentations(path):
    manifest_path = os.path.join(path, "segs.json")
    manifest = _read_json_object(manifest_path, "segmentation manifest")
    segs = []
    try:
        for name in manifest["segmentations"]:
            t = dataio.read_bundle(os.path.join(path, name))
            _check_segmentation_tensors(name, t)
            segs.append(Segmentation(labels=t["labels"].astype(np.int32),
                                     scores=t["scores"],
                                     seeds=[tuple(s) for s in t["seeds"].tolist()]))
    except (KeyError, TypeError) as exc:
        raise ClusterSegError(
            f"malformed segmentation manifest {manifest_path}: {exc}") from exc
    return segs


def _write_segmentation(path, seg: Segmentation):
    """Write labels and seeds as u16; refuse values that would wrap."""
    u16_max = np.iinfo(np.uint16).max
    seeds = np.asarray(seg.seeds, dtype=np.int64).reshape(len(seg.seeds), 2)
    if len(seg.scores) > u16_max:
        raise ClusterSegError(f"{path}: {len(seg.scores)} instances exceed the u16 label "
                              f"limit of {u16_max}")
    if seeds.size and seeds.max() > u16_max:
        raise ClusterSegError(f"{path}: a seed coordinate exceeds the u16 limit of {u16_max}")
    dataio.write_bundle(path, {
        "labels": seg.labels.astype(np.uint16),
        "scores": np.asarray(seg.scores, dtype=np.float64),
        "seeds": seeds.astype(np.uint16),
    })


# ---------------------------------------------------------------------------
# gen

def _cmd_gen(args) -> int:
    w, h = args.res
    _derivation_values(args.fraction, args.single_object_radius)
    cfg = GeneratorConfig(
        count_range=args.objects,
        size_range=args.sizes,
        z_range=args.z_range,
        min_feature_separation=args.min_sep,
        background_depth=args.background_depth,
        camera=CameraIntrinsics(fx=float(w), fy=float(h), ppx=w / 2.0, ppy=h / 2.0,
                                width=w, height=h),
    )

    def build(i):
        scene = sample_scene(args.seed * SEED_STRIDE + i, cfg)
        frame = render(scene)
        ann = annotate(scene, frame, args.fraction, args.single_object_radius)
        return scene, frame, ann

    # Every frame is built before anything is written, so a frame that
    # fails leaves no partial dataset.
    results = _map_frames(build, args.count, args.jobs)
    os.makedirs(args.out, exist_ok=True)
    frames = []
    for i, (scene, frame, ann) in enumerate(results):
        scene_name = f"scene_{i:05d}.json"
        bundle_name = f"frame_{i:05d}.tsb"
        with open(os.path.join(args.out, scene_name), "w", encoding="utf-8") as fh:
            fh.write(scene_to_json(scene))
        dataio.write_bundle(os.path.join(args.out, bundle_name),
                            _frame_tensors(frame, ann))
        frames.append({"scene": scene_name, "bundle": bundle_name,
                       "objects": len(scene.objects)})
    manifest = {
        "format": DATASET_FORMAT,
        "frames": frames,
        "seed": args.seed,
        "resolution": [w, h],
        "objects": list(args.objects),
        "fraction": args.fraction,
        "min_feature_separation": args.min_sep,
        "single_object_radius": args.single_object_radius,
        "background_depth": args.background_depth,
        "sizes": list(args.sizes),
    }
    with open(os.path.join(args.out, "dataset.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(frames)} frames to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# infer

def _predict_for_frame(args, model, noise, frame, ann, index):
    if args.predictor == "oracle":
        return oracle_predict(ann)
    if args.predictor == "noisy":
        if args.ball_minb_frac is not None:
            fg_b = ann.b_map[ann.fg_mask]
            radius = args.ball_minb_frac * float(fg_b.min()) if fg_b.size else 0.0
            noise = replace(noise, ball_radius=radius)
        return noisy_predict(ann, noise, args.seed * SEED_STRIDE + index)
    logits, _ = mlp_forward(model, frame)
    return logits.to_prediction()


def _cmd_infer(args) -> int:
    noise = NoiseSpec(sigma_xi=args.sigma_xi, sigma_b=args.sigma_b, sigma_eta=args.sigma_eta,
                      flip_rate=args.flip_rate, bound_mode=args.noise_mode,
                      ball_radius=args.ball_radius)
    sweep = [NoiseSpec(sigma_xi=s) for s in _sweep_sigmas(args.sweep)] if args.sweep else None
    records = _load_dataset(args.dataset, xyz=args.predictor == "mlp")
    model = None
    if args.predictor == "mlp":
        if not args.model:
            raise ClusterSegError("--model is required with --predictor mlp")
        model, _, _ = load_checkpoint(args.model)
    os.makedirs(args.out, exist_ok=True)

    def run(i):
        scene, frame, ann = records[i]
        pred = _predict_for_frame(args, model, noise, frame, ann, i)
        return segment(pred, args.fg_threshold)

    segs = _map_frames(run, len(records), args.jobs)
    names = []
    for i, seg in enumerate(segs):
        name = f"seg_{i:05d}.tsb"
        _write_segmentation(os.path.join(args.out, name), seg)
        names.append(name)
    with open(os.path.join(args.out, "segs.json"), "w", encoding="utf-8") as fh:
        json.dump({"segmentations": names, "predictor": args.predictor,
                   "fg_threshold": args.fg_threshold}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if sweep is not None:
        lines = ["sigma,ap"]
        for spec in sweep:
            pairs = []
            for i, (scene, frame, ann) in enumerate(records):
                pred = noisy_predict(ann, spec, args.seed * SEED_STRIDE + i)
                pairs.append((segment(pred, args.fg_threshold), frame))
            result = compute_metrics(pairs)
            lines.append(f"{_fmt(spec.sigma_xi)},{_fmt(result.ap)}")
        sweep_path = args.sweep_out or os.path.join(args.out, "sweep.csv")
        with open(sweep_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote noise sweep to {sweep_path}")

    print(f"wrote {len(names)} segmentations to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _cmd_eval(args) -> int:
    _, frames = _read_dataset(args.dataset, xyz=False)
    segs = _load_segmentations(args.segs)
    if len(frames) != len(segs):
        raise ClusterSegError(
            f"dataset has {len(frames)} frames but {len(segs)} segmentations were given")
    pairs = [(seg, frame) for seg, (_, frame, _) in zip(segs, frames)]
    result = compute_metrics(pairs, EvalConfig())
    report = {"metrics": result_to_dict(result), "num_images": len(pairs)}
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(format_table(result))
    return 0


# ---------------------------------------------------------------------------
# gradcheck

def _conditioned_offsets(rng, shape, floor=0.05, sigma=0.5):
    # Keep every coordinate's gradient bounded away from zero so the
    # relative-error denominator never sits in the rounding noise.
    return np.sign(rng.normal(size=shape)) * (floor + np.abs(rng.normal(0.0, sigma, size=shape)))


def _conditioned_logits(rng, shape2d):
    base = rng.normal(0.0, 1.0, size=shape2d)
    delta = np.sign(rng.normal(size=shape2d)) * rng.uniform(0.2, 2.0, size=shape2d)
    return np.stack([base, base + delta], axis=-1)


def gradcheck_inputs(seed: int):
    """Random frame + well-conditioned random prediction for gradient checks."""
    cfg = GeneratorConfig(
        count_range=(2, 3), size_range=(0.08, 0.2),
        camera=CameraIntrinsics(8.0, 8.0, 4.0, 4.0, 8, 8))
    scene = sample_scene(seed, cfg)
    frame = render(scene)
    ann = annotate(scene, frame)
    rng = stream_rng(seed, 0xD1FF)
    H, W = frame.depth.shape
    pred = losses.LogitPrediction(
        xi_hat=ann.xi_map + _conditioned_offsets(rng, ann.xi_map.shape),
        b_hat=ann.b_map + _conditioned_offsets(rng, (H, W)),
        eta_logits=_conditioned_logits(rng, (H, W)),
        mask_logits=_conditioned_logits(rng, (H, W)),
    )
    return pred, ann


def _cmd_gradcheck(args) -> int:
    pred, ann = gradcheck_inputs(args.seed)
    weights = LossWeights(lambda_vio=args.lambda_vio)
    epsilon = args.epsilon
    if epsilon is None:
        # Without the violation term the loss is quadratic-dominated, so a
        # larger step loses no truncation accuracy and gains precision.
        epsilon = 1e-3 if args.lambda_vio == 0 else 1e-4

    # Negative control: --corrupt-gradient breaks the analytic feature gradient.
    offset = 0.25 if args.corrupt_gradient else 0.0
    error = finite_diff_check(pred, ann, weights, epsilon=epsilon, samples=args.samples,
                              seed=args.seed, xi_grad_offset=offset)
    ok = error < GRADCHECK_TOLERANCE
    print(f"max relative gradient error: {error:.3e} "
          f"({'PASS' if ok else 'FAIL'}, tolerance {GRADCHECK_TOLERANCE:.0e})")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# train

def _dataset_ap(model, records, fg_threshold):
    pairs = []
    for scene, frame, ann in records:
        logits, _ = mlp_forward(model, frame)
        pairs.append((segment(logits.to_prediction(), fg_threshold), frame))
    return compute_metrics(pairs).ap


LOSS_TERMS = ("l_s", "l_cen", "l_p", "l_var", "l_vio", "total")


def _loss_terms(breakdown):
    """The six loss values of a breakdown, without its gradient maps."""
    return {k: getattr(breakdown, k) for k in LOSS_TERMS}


def _frame_step(model, frame, ann, weights):
    """One frame's loss terms and parameter gradients.

    The forward cache and the loss gradients die here, so a step's
    activations are freed before the next frame's are built.
    """
    logits, cache = mlp_forward(model, frame)
    breakdown = total_loss(logits, ann, weights)
    return _loss_terms(breakdown), mlp_backward(model, cache, breakdown)


def _cmd_train(args) -> int:
    base = LossWeights()
    bumped = replace(base, lambda_var=args.bump_value, lambda_vio=args.bump_value)
    records = _load_dataset(args.dataset)
    if not records:
        raise ClusterSegError("training dataset is empty")
    if args.resume:
        model, state, start_epoch = load_checkpoint(args.resume)
        if start_epoch > args.epochs:
            raise ClusterSegError(
                f"checkpoint {args.resume} has next_epoch {start_epoch}, past --epochs "
                f"{args.epochs}: nothing left to train")
        if state is None:
            state = AdamState(lr=args.lr)
    else:
        model = init_model(args.seed)
        state = AdamState(lr=args.lr)
        start_epoch = 1
    # One run, one thread: every forward and backward reuses one set of
    # hidden-layer buffers.
    model.scratch = {}

    rows = []

    def log_epoch(epoch, weights, terms):
        means = {k: float(np.mean([t[k] for t in terms])) for k in LOSS_TERMS}
        ap = _dataset_ap(model, records, args.fg_threshold)
        rows.append({"epoch": epoch, **means,
                     "lambda_var": weights.lambda_var,
                     "lambda_vio": weights.lambda_vio,
                     "ap": 0.0 if np.isnan(ap) else ap})

    if start_epoch == 1:
        # Baseline row: untrained model, no updates.
        terms = []
        for scene, frame, ann in records:
            logits, _ = mlp_forward(model, frame)
            terms.append(_loss_terms(total_loss(logits, ann, base)))
        log_epoch(0, base, terms)

    for epoch in range(start_epoch, args.epochs + 1):
        weights = bumped if epoch > args.bump_epoch else base
        order = stream_rng(args.seed, STREAM_EPOCH + epoch).permutation(len(records))
        terms = []
        for chunk_start in range(0, len(order), args.batch):
            batch = order[chunk_start:chunk_start + args.batch]
            grads_sum = None
            for idx in batch:
                scene, frame, ann = records[int(idx)]
                frame_terms, grads = _frame_step(model, frame, ann, weights)
                terms.append(frame_terms)
                if grads_sum is None:
                    grads_sum = grads
                else:
                    # A sum that overflows is left for adam_step to reject.
                    with np.errstate(over="ignore"):
                        for k in grads_sum:
                            grads_sum[k] += grads[k]
            for k in grads_sum:
                grads_sum[k] /= len(batch)
            adam_step(model, grads_sum, state)
        log_epoch(epoch, weights, terms)

    save_checkpoint(args.out, model, state, next_epoch=args.epochs + 1)
    log_path = args.log or args.out + ".csv"
    fieldnames = ["epoch", *LOSS_TERMS, "lambda_var", "lambda_vio", "ap"]
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (row[k] if k == "epoch" else _fmt(row[k]))
                             for k in fieldnames})
    final = rows[-1]
    print(f"epoch {final['epoch']}: total={final['total']:.4f} ap={final['ap']:.4f}; "
          f"checkpoint -> {args.out}, log -> {log_path}")
    return 0


# ---------------------------------------------------------------------------
# flags
#
# One row per flag. A value comes from the command line, else --config, else
# the row's default; its kind parses text and checks every value alike (exit
# 1). Where a library type or check validates the range (exit 2), the kind
# checks only the type.

class _Kind(NamedTuple):
    parse: Callable   # command-line text -> value; raises ValueError on bad text
    accepts: Callable  # value -> whether the command may run with it
    what: str         # the values it accepts, for "--flag must be <what>, got <value>"


def _pair(kind, sep, what, accepts=lambda lo, hi: True):
    def parse(text):
        parts = text.split(sep)
        if len(parts) != 2:
            raise ValueError(text)
        return kind.parse(parts[0]), kind.parse(parts[1])
    return _Kind(parse, lambda v: (type(v) in (list, tuple) and len(v) == 2
                                   and all(map(kind.accepts, v)) and accepts(*v)), what)


def _choice(*options):
    return _Kind(str, lambda v: v in options, "one of " + ", ".join(options))


def _optional_float(text):
    return None if text.lower() in ("none", "empty") else float(text)


def _sweep_sigmas(text):
    """The Gaussian feature sigmas a --sweep value lists, or None if it is not numbers."""
    try:
        return [float(s) for s in text.split(",") if s]
    except ValueError:
        return None


INTEGER = _Kind(int, lambda v: type(v) is int, "an integer")
COUNT = _Kind(int, lambda v: type(v) is int and v >= 1, "an integer of at least 1")
NUMBER = _Kind(float, _number, "a number")
OPTIONAL_NUMBER = _Kind(_optional_float, lambda v: v is None or _number(v), "a number or none")
RANGE = _pair(NUMBER, "..", "two numbers A..B")
PATH = _Kind(str, lambda v: v is None or type(v) is str, "a path")
SWITCH = _Kind(str, lambda v: type(v) is bool, "a boolean")
# Instance ids are stored as u16, and 0 is the background.
MAX_OBJECTS = 65534


class _Flag(NamedTuple):
    name: str
    commands: str     # the commands that take it, space-separated
    default: object   # command-line text, a value, or a function giving one
    kind: _Kind
    help: str
    required: bool = False

    @property
    def dest(self):
        return self.name.replace("-", "_")


_ALL = "gen infer eval gradcheck train"
_FLAGS = (
    _Flag("seed", _ALL, "0", INTEGER, "master random seed"),
    _Flag("jobs", _ALL, _jobs_default, COUNT, "worker threads for frame-level parallelism "
          "(default: CLUSTERSEG_JOBS or 1)"),
    _Flag("dataset", "infer eval train", None, PATH, "dataset directory", required=True),
    _Flag("out", "gen infer train", None, PATH, "output dataset directory (gen), segmentation "
          "directory (infer) or checkpoint path (train)", required=True),
    _Flag("count", "gen", "8", COUNT, "number of frames"),
    _Flag("res", "gen", "64x64", _pair(INTEGER, "x", "two integers WxH"), "image resolution"),
    _Flag("objects", "gen", "2..8",
          _pair(INTEGER, "..", f"two integers A..B with 1 <= A <= B <= {MAX_OBJECTS}",
                lambda lo, hi: 1 <= lo <= hi <= MAX_OBJECTS), "object count range per scene"),
    _Flag("sizes", "gen", "0.06..0.18", RANGE, "half-extent range in meters"),
    _Flag("z-range", "gen", "0.9..1.8", RANGE, "object center depth range in meters"),
    _Flag("fraction", "gen", "0.2", NUMBER, "centroid-candidate fraction in [0.10, 0.30]"),
    _Flag("min-sep", "gen", "0.1", NUMBER, "minimum pairwise feature separation"),
    _Flag("single-object-radius", "gen", "1.0", NUMBER,
          "enclosing radius for single-object scenes"),
    _Flag("background-depth", "gen", "2.5", OPTIONAL_NUMBER, "backdrop depth in meters, or none"),
    _Flag("predictor", "infer", "oracle", _choice("oracle", "noisy", "mlp"), "predictor"),
    _Flag("model", "infer", None, PATH, "checkpoint path for --predictor mlp"),
    _Flag("fg-threshold", "infer train", "0.5",
          _Kind(float, lambda v: _number(v) and 0 <= v <= 1, "a number in [0, 1]"),
          "foreground probability above which a pixel is clustered"),
    _Flag("noise-mode", "infer", "gaussian", _choice("gaussian", "uniform-ball"),
          "feature noise of --predictor noisy"),
    _Flag("sigma-xi", "infer", "0.0", NUMBER, "Gaussian feature noise"),
    _Flag("sigma-b", "infer", "0.0", NUMBER, "Gaussian enclosing-radius noise"),
    _Flag("sigma-eta", "infer", "0.0", NUMBER, "Gaussian centroid-score noise"),
    _Flag("flip-rate", "infer", "0.0", NUMBER, "foreground flip probability"),
    _Flag("ball-radius", "infer", "0.0", NUMBER, "uniform-ball feature noise radius (absolute)"),
    _Flag("ball-minb-frac", "infer", None,
          _Kind(float, lambda v: v is None or (_finite(v) and v >= 0),
                "a finite number of at least 0"),
          "uniform-ball radius as a fraction of each frame's minimum ground-truth radius"),
    _Flag("sweep", "infer", None,
          _Kind(str, lambda v: v is None or type(v) is str and _sweep_sigmas(v) is not None,
                "comma-separated numbers"),
          "comma-separated Gaussian feature sigmas; writes a (sigma, AP) CSV"),
    _Flag("sweep-out", "infer", None, PATH, "sweep CSV path (default: sweep.csv in --out)"),
    _Flag("segs", "eval", None, PATH, "segmentation directory", required=True),
    _Flag("report", "eval", None, PATH, "JSON report path"),
    _Flag("samples", "gradcheck", "500", INTEGER, "gradient coordinates to check"),
    _Flag("epsilon", "gradcheck", None, OPTIONAL_NUMBER,
          "central-difference step (default: 1e-4, or 1e-3 when --lambda-vio is 0)"),
    _Flag("lambda-vio", "gradcheck", "1.0", NUMBER, "violation-loss weight"),
    _Flag("corrupt-gradient", "gradcheck", False, SWITCH,
          "negative control: corrupt one analytic gradient and expect failure"),
    _Flag("epochs", "train", "30", COUNT, "training epochs"),
    _Flag("batch", "train", "4", COUNT, "frames per Adam step"),
    _Flag("lr", "train", "1e-4", _Kind(float, lambda v: _finite(v) and v > 0,
                                       "a finite number above 0"), "Adam learning rate"),
    _Flag("bump-epoch", "train", "5", INTEGER,
          "after this epoch the variance/violation weights rise to --bump-value"),
    _Flag("bump-value", "train", "100.0", NUMBER, "variance/violation weight after --bump-epoch"),
    _Flag("log", "train", None, PATH, "per-epoch CSV path (default: checkpoint path + .csv)"),
    _Flag("resume", "train", None, PATH, "checkpoint to continue from"),
)

_COMMANDS = {
    "gen": (_cmd_gen, "generate a rendered + annotated dataset"),
    "infer": (_cmd_infer, "segment a dataset with a predictor"),
    "eval": (_cmd_eval, "score segmentations against ground truth"),
    "gradcheck": (_cmd_gradcheck, "finite-difference check of loss gradients"),
    "train": (_cmd_train, "train the per-pixel MLP"),
}


def _rows(command):
    return [row for row in _FLAGS if command in row.commands.split()]


class _BadValue(Exception):
    """A flag value the CLI rejects; exit code 1."""


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clusterseg",
                     description="Synthetic RGB-D instance segmentation pipeline.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (_, about) in _COMMANDS.items():
        sub = subs.add_parser(command, help=about)
        sub.add_argument("--config", help="JSON object of flag values; explicit flags win")
        sub.add_argument("--dump-config", action="store_true",
                         help="print the effective configuration as JSON and exit")
        for row in _rows(command):
            shown = (" (required)" if row.required else
                     f" (default {row.default})" if type(row.default) is str else "")
            # Values stay text here: _settings parses and checks every source alike.
            sub.add_argument(f"--{row.name}", default=argparse.SUPPRESS, help=row.help + shown,
                             **({"action": "store_true"} if row.kind is SWITCH else {}))
    return parser


def _settings(command, given, dump):
    """The command's flag values: explicit flags, else --config, else defaults; all checked.

    Required flags may stay unset for a dump.
    """
    rows = _rows(command)
    config_path = given.pop("config")
    config = _read_json_object(config_path, "config") if config_path else {}
    unknown = set(config) - {row.dest for row in rows}
    if unknown:
        raise ClusterSegError(f"config {config_path} has unknown keys: {sorted(unknown)}")
    values = {}
    for row in rows:
        value = given.get(row.dest, config.get(row.dest, row.default))
        value = value() if callable(value) else value
        if value is None and row.required and not dump:
            raise _BadValue(f"--{row.name} is required")
        try:
            parsed = row.kind.parse(value) if type(value) is str else value
            ok = row.kind.accepts(parsed)
        except ValueError:
            ok = False
        if not ok:
            raise _BadValue(f"--{row.name} must be {row.kind.what}, got {value!r}")
        values[row.dest] = parsed
    return argparse.Namespace(**values)


def _join_dash_values(argv):
    """argv with each value flag joined to a following token that starts with one "-".

    argparse reads a token such as "-1..1" or "-inf" as an unknown option, so
    "--z-range -1..1" becomes "--z-range=-1..1" and reaches the flag table as
    that spelling does. "-h" stays an option.
    """
    takes_value = {"--config"} | {f"--{row.name}" for row in _FLAGS if row.kind is not SWITCH}
    joined = []
    for token in argv:
        if (joined and joined[-1] in takes_value and token.startswith("-")
                and not token.startswith("--") and token != "-h"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _dump(args) -> str:
    """The configuration as strict JSON; a NaN or an infinity in it is a _BadValue."""
    values = vars(args)
    for dest, value in values.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise _BadValue(f"--{dest.replace('_', '-')} must be finite to be dumped as JSON, "
                            f"got {value!r}") from None
    return json.dumps(values, indent=2, sort_keys=True)


def main(argv=None) -> int:
    try:
        argv = _join_dash_values(sys.argv[1:] if argv is None else argv)
        given = vars(build_parser().parse_args(argv))
        command, dump = given.pop("command"), given.pop("dump_config")
        args = _settings(command, given, dump)
        if dump:
            print(_dump(args))
            return 0
        return _COMMANDS[command][0](args)
    except _BadValue as exc:
        print(f"clusterseg: error: {exc}", file=sys.stderr)
        return 1
    except (ClusterSegError, OSError) as exc:
        print(f"clusterseg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
