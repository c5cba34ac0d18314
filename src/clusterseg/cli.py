"""Command-line entry points.

Subcommands:

  gen        sample scenes, render them, and write a dataset directory
  infer      run a predictor + clustering over a dataset, write segmentations
  eval       score segmentations against a dataset, write a JSON report
  gradcheck  verify analytic loss gradients against central differences
  train      fit the per-pixel MLP with Adam and log per-epoch losses and AP

Every command takes --config FILE (a JSON object of flag defaults; explicit
flags win) and --dump-config (print the effective configuration as JSON and
exit), and is deterministic given its configuration and seed. Exit codes:
0 ok, 1 usage error, 2 data error, 3 check failure.

Dataset directory layout (written by gen, read by infer/eval/train):

  dataset.json     manifest: format, frame file names + generation parameters
  scene_00000.json scene geometry (see scenegen JSON schema)
  frame_00000.tsb  rgb, depth, instance map, amodal masks, occlusion scores
                   and per-object features (FRAME_TENSORS)

Loading rebuilds xyz from depth and the scene's camera, and the annotation
maps from the per-object features, the instance map and the manifest's
fraction and single_object_radius, with the same functions gen uses.
"""

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import dataio, losses
from .annotation import Annotation, annotate, build_annotation
from .clustering import Segmentation, segment
from .errors import BundleDtypeError, BundleManifestError, ClusterSegError, ShapeMismatchError
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


def _parse_pair(text, caster, sep):
    parts = text.split(sep)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two values separated by {sep!r}: {text!r}")
    try:
        return caster(parts[0]), caster(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _resolution(text):
    return _parse_pair(text, int, "x")


def _int_range(text):
    return _parse_pair(text, int, "..")


def _float_range(text):
    return _parse_pair(text, float, "..")


def _optional_float(text):
    if text.lower() in ("none", "empty"):
        return None
    return float(text)


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
    if t.keys() != FRAME_TENSORS.keys():
        raise BundleManifestError(f"{name}: a frame bundle holds {sorted(FRAME_TENSORS)}, "
                                  f"got {sorted(t)}")
    for key, dtype in FRAME_TENSORS.items():
        if t[key].dtype != dtype:
            raise BundleDtypeError(f"{name}: {key} must be {np.dtype(dtype)}, got {t[key].dtype}")
    H, W, K = scene.camera.height, scene.camera.width, len(scene.objects)
    shapes = {"rgb": (H, W, 3), "depth": (H, W), "instance_map": (H, W),
              "amodal_masks": (K, H, W), "occlusion_scores": (K,),
              "per_object_xi": (K, FEATURE_DIM)}
    for key, shape in shapes.items():
        if t[key].shape != shape:
            raise ShapeMismatchError(f"{name}: {key} has shape {t[key].shape}, expected {shape} "
                                     f"for a {W}x{H} camera and {K} objects")
    if t["instance_map"].max(initial=0) > K:
        raise ShapeMismatchError(f"{name}: instance ids exceed the object count {K}")


def _frame_from_tensors(t: dict, scene):
    frame = FrameBundle(
        rgb=t["rgb"], depth=t["depth"], xyz=depth_to_xyz(t["depth"], scene.camera),
        instance_map=t["instance_map"].astype(np.int32),
        amodal_masks=t["amodal_masks"].astype(bool),
        occlusion_scores=t["occlusion_scores"],
    )
    return frame, t["per_object_xi"]


def _finite(value):
    # type() rather than isinstance(): JSON true and false parse as bool, an int
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


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


def _read_dataset(path):
    """The dataset's (fraction, single_object_radius) and (scene, frame, per_object_xi) per frame."""
    manifest_path = os.path.join(path, "dataset.json")
    try:
        manifest = json.loads(_read_text(manifest_path, "dataset manifest"))
    except json.JSONDecodeError as exc:
        raise ClusterSegError(f"cannot read dataset manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ClusterSegError(f"malformed dataset manifest {manifest_path}: not a JSON object")
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
            frames.append((scene, *_frame_from_tensors(tensors, scene)))
    except (KeyError, TypeError) as exc:
        raise ClusterSegError(f"malformed dataset manifest {manifest_path}: {exc}") from exc
    return values, frames


def _load_dataset(path):
    """(scene, frame, annotation) per frame, the annotation rebuilt from the bundle."""
    (fraction, single_object_radius), frames = _read_dataset(path)
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
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ClusterSegError(f"cannot read segmentation manifest {manifest_path}: {exc}") from exc
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
    lo, hi = args.objects
    if not 1 <= lo <= hi <= 65534:
        raise ClusterSegError(f"object count range {lo}..{hi} must lie within 1..65534")
    _derivation_values(args.fraction, args.single_object_radius)
    cfg = GeneratorConfig(
        count_range=(lo, hi),
        size_range=args.sizes,
        z_range=args.z_range,
        min_feature_separation=args.min_sep,
        background_depth=args.background_depth,
        camera=CameraIntrinsics(fx=float(w), fy=float(h), ppx=w / 2.0, ppy=h / 2.0,
                                width=w, height=h),
    )
    os.makedirs(args.out, exist_ok=True)

    def build(i):
        scene = sample_scene(args.seed * SEED_STRIDE + i, cfg)
        frame = render(scene)
        ann = annotate(scene, frame, args.fraction, args.single_object_radius)
        return scene, frame, ann

    results = _map_frames(build, args.count, args.jobs)
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
        "objects": [lo, hi],
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

def _predict_for_frame(args, model, frame, ann, index):
    if args.predictor == "oracle":
        return oracle_predict(ann)
    if args.predictor == "noisy":
        radius = args.ball_radius
        if args.ball_minb_frac is not None:
            fg_b = ann.b_map[ann.fg_mask]
            radius = args.ball_minb_frac * float(fg_b.min()) if fg_b.size else 0.0
        spec = NoiseSpec(sigma_xi=args.sigma_xi, sigma_b=args.sigma_b,
                         sigma_eta=args.sigma_eta, flip_rate=args.flip_rate,
                         bound_mode=args.noise_mode, ball_radius=radius)
        return noisy_predict(ann, spec, args.seed * SEED_STRIDE + index)
    logits, _ = mlp_forward(model, frame)
    return logits.to_prediction()


def _cmd_infer(args) -> int:
    records = _load_dataset(args.dataset)
    model = None
    if args.predictor == "mlp":
        if not args.model:
            raise ClusterSegError("--model is required with --predictor mlp")
        model, _, _ = load_checkpoint(args.model)
    os.makedirs(args.out, exist_ok=True)

    def run(i):
        scene, frame, ann = records[i]
        pred = _predict_for_frame(args, model, frame, ann, i)
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

    if args.sweep:
        sigmas = [float(s) for s in args.sweep.split(",") if s]
        lines = ["sigma,ap"]
        for sigma in sigmas:
            spec = NoiseSpec(sigma_xi=sigma)
            pairs = []
            for i, (scene, frame, ann) in enumerate(records):
                pred = noisy_predict(ann, spec, args.seed * SEED_STRIDE + i)
                pairs.append((segment(pred, args.fg_threshold), frame))
            result = compute_metrics(pairs)
            lines.append(f"{_fmt(sigma)},{_fmt(result.ap)}")
        sweep_path = args.sweep_out or os.path.join(args.out, "sweep.csv")
        with open(sweep_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote noise sweep to {sweep_path}")

    print(f"wrote {len(names)} segmentations to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _cmd_eval(args) -> int:
    _, frames = _read_dataset(args.dataset)
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

def _epoch_weights(base: LossWeights, epoch: int, bump_epoch: int,
                   bump_value: float) -> LossWeights:
    if epoch > bump_epoch:
        return replace(base, lambda_var=bump_value, lambda_vio=bump_value)
    return base


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
    records = _load_dataset(args.dataset)
    if not records:
        raise ClusterSegError("training dataset is empty")
    base = LossWeights()
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
        weights = _epoch_weights(base, epoch, args.bump_epoch, args.bump_value)
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
# parser plumbing

def _add_common(sub):
    sub.add_argument("--config", default=None,
                     help="JSON file of flag defaults; explicit flags override")
    sub.add_argument("--dump-config", action="store_true",
                     help="print the effective configuration as JSON and exit")
    sub.add_argument("--seed", type=int, default=0, help="master random seed")
    sub.add_argument("--jobs", type=int, default=_jobs_default(),
                     help="worker threads for frame-level parallelism "
                          "(default: CLUSTERSEG_JOBS or 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clusterseg",
                     description="Synthetic RGB-D instance segmentation pipeline.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # Subparsers parse into a fresh namespace, so --config defaults must be
    # installed on the chosen subparser; keep them reachable by name.
    parser.subparsers = {}

    gen = subs.add_parser("gen", help="generate a rendered + annotated dataset")
    _add_common(gen)
    gen.add_argument("--out", help="output dataset directory (required)")
    gen.add_argument("--count", type=int, default=8, help="number of frames")
    gen.add_argument("--res", type=_resolution, default=(64, 64), metavar="WxH",
                     help="image resolution (default 64x64)")
    gen.add_argument("--objects", type=_int_range, default=(2, 8), metavar="A..B",
                     help="object count range per scene (default 2..8)")
    gen.add_argument("--sizes", type=_float_range, default=(0.06, 0.18), metavar="A..B",
                     help="half-extent range in meters (default 0.06..0.18)")
    gen.add_argument("--z-range", type=_float_range, default=(0.9, 1.8), metavar="A..B",
                     help="object center depth range in meters (default 0.9..1.8)")
    gen.add_argument("--fraction", type=float, default=0.2,
                     help="centroid-candidate fraction in [0.10, 0.30] (default 0.2)")
    gen.add_argument("--min-sep", type=float, default=0.1,
                     help="minimum pairwise feature separation (default 0.1)")
    gen.add_argument("--single-object-radius", type=float, default=1.0,
                     help="enclosing radius for single-object scenes (default 1.0)")
    gen.add_argument("--background-depth", type=_optional_float, default=2.5,
                     help="backdrop depth in meters, or 'none' (default 2.5)")

    infer = subs.add_parser("infer", help="segment a dataset with a predictor")
    _add_common(infer)
    infer.add_argument("--dataset", help="dataset directory (required)")
    infer.add_argument("--out", help="output segmentation directory (required)")
    infer.add_argument("--predictor", choices=("oracle", "noisy", "mlp"),
                       default="oracle")
    infer.add_argument("--model", default=None, help="checkpoint path for --predictor mlp")
    infer.add_argument("--fg-threshold", type=float, default=0.5)
    infer.add_argument("--noise-mode", choices=("gaussian", "uniform-ball"),
                       default="gaussian")
    infer.add_argument("--sigma-xi", type=float, default=0.0)
    infer.add_argument("--sigma-b", type=float, default=0.0)
    infer.add_argument("--sigma-eta", type=float, default=0.0)
    infer.add_argument("--flip-rate", type=float, default=0.0)
    infer.add_argument("--ball-radius", type=float, default=0.0,
                       help="uniform-ball feature noise radius (absolute)")
    infer.add_argument("--ball-minb-frac", type=float, default=None,
                       help="uniform-ball radius as a fraction of each frame's "
                            "minimum ground-truth radius")
    infer.add_argument("--sweep", default=None, metavar="S1,S2,...",
                       help="comma-separated Gaussian feature sigmas; writes a "
                            "(sigma, AP) CSV")
    infer.add_argument("--sweep-out", default=None, help="sweep CSV path")

    ev = subs.add_parser("eval", help="score segmentations against ground truth")
    _add_common(ev)
    ev.add_argument("--dataset", help="dataset directory (required)")
    ev.add_argument("--segs", help="segmentation directory (required)")
    ev.add_argument("--report", default=None, help="JSON report path")

    gc = subs.add_parser("gradcheck", help="finite-difference check of loss gradients")
    _add_common(gc)
    gc.add_argument("--samples", type=int, default=500)
    gc.add_argument("--epsilon", type=float, default=None,
                    help="central-difference step (default: 1e-4, or 1e-3 "
                         "when --lambda-vio is 0)")
    gc.add_argument("--lambda-vio", type=float, default=1.0)
    gc.add_argument("--corrupt-gradient", action="store_true",
                    help="negative control: corrupt one analytic gradient "
                         "and expect failure")

    train = subs.add_parser("train", help="train the per-pixel MLP")
    _add_common(train)
    train.add_argument("--dataset", help="dataset directory (required)")
    train.add_argument("--out", help="checkpoint output path (required)")
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--batch", type=int, default=4)
    train.add_argument("--lr", type=float, default=1e-4)
    train.add_argument("--bump-epoch", type=int, default=5,
                       help="after this epoch the variance/violation weights "
                            "rise to --bump-value (default 5)")
    train.add_argument("--bump-value", type=float, default=100.0)
    train.add_argument("--fg-threshold", type=float, default=0.5)
    train.add_argument("--log", default=None, help="per-epoch CSV path "
                                                   "(default: checkpoint path + .csv)")
    train.add_argument("--resume", default=None, help="checkpoint to continue from")

    parser.subparsers = {"gen": gen, "infer": infer, "eval": ev,
                         "gradcheck": gc, "train": train}
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "train": _cmd_train,
}

# Required per command, but checked after --config merging so a config file
# can supply them too.
_REQUIRED = {
    "gen": ("out",),
    "infer": ("dataset", "out"),
    "eval": ("dataset", "segs"),
    "gradcheck": (),
    "train": ("dataset", "out"),
}


def _bad_value(args):
    """Describe the first numeric value the command cannot run with, or None.

    Checked after --config merging, so a config file is held to the same
    rules as the flags.
    """
    if args.command == "train":
        for name in ("epochs", "batch"):
            value = getattr(args, name)
            if type(value) is not int or value < 1:
                return f"--{name} must be an integer of at least 1, got {value!r}"
        if not (_finite(args.lr) and args.lr > 0):
            return f"--lr must be a finite number above 0, got {args.lr!r}"
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    overrides = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ClusterSegError(f"cannot read config {args.config}: {exc}") from exc
            unknown = set(overrides) - set(vars(args))
            if unknown:
                raise ClusterSegError(
                    f"config {args.config} has unknown keys: {sorted(unknown)}")
            parser = build_parser()
            parser.subparsers[args.command].set_defaults(**overrides)
            args = parser.parse_args(argv)
        if args.dump_config:
            dump = {k: v for k, v in sorted(vars(args).items())
                    if k not in ("config", "dump_config", "command")}
            print(json.dumps(dump, indent=2, sort_keys=True, default=list))
            return 0
        missing = [name for name in _REQUIRED[args.command]
                   if getattr(args, name) is None]
        if missing:
            parser.error("missing required arguments: "
                         + ", ".join(f"--{m}" for m in missing))
        problem = _bad_value(args)
        if problem:
            print(f"clusterseg: error: {problem}", file=sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except ClusterSegError as exc:
        print(f"clusterseg: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"clusterseg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
