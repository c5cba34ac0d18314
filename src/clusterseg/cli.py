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

The dataset and segmentation directories these commands write and read are
laid out, written and loaded by the dataset module.
"""

import argparse
import csv
import functools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import losses
from .annotation import annotate, build_annotation, object_features
from .clustering import segment
from .dataset import (U16_MAX, derivation_values, is_finite, is_number, load_dataset,
                      load_frame, load_segmentations, read_dataset_manifest, read_json_object,
                      write_dataset, write_json, write_segmentations)
from .errors import ClusterSegError
from .evaluation import (EvalConfig, compute_metrics, format_table, result_to_dict)
from .geometry import CameraIntrinsics
from .losses import LossWeights, finite_diff_check, total_loss
from .predictor import (AdamState, NoiseSpec, adam_step, init_model, load_checkpoint,
                        mlp_backward, mlp_forward, noisy_predict, oracle_predict,
                        save_checkpoint)
from .scenegen import GeneratorConfig, render, sample_scene
from .seeding import STREAM_EPOCH, stream_rng

GRADCHECK_TOLERANCE = 1e-4
# Spreads per-frame seeds apart so adjacent base seeds cannot collide.
SEED_STRIDE = 1_000_003
# perfbench/plan.py loads datasets and segmentations through these names.
_load_dataset, _load_segmentations = load_dataset, load_segmentations


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
# gen

def _cmd_gen(args) -> int:
    w, h = args.res
    derivation_values(args.fraction, args.single_object_radius)
    cfg = GeneratorConfig(
        count_range=args.objects,
        size_range=args.sizes,
        z_range=args.z_range,
        min_feature_separation=args.min_sep,
        background_depth=args.background_depth,
        camera=CameraIntrinsics(fx=float(w), fy=float(h), ppx=w / 2.0, ppy=h / 2.0,
                                width=w, height=h),
    )

    # A dataset stores the features, not the maps derived from them on load.
    def build(i):
        scene = sample_scene(args.seed * SEED_STRIDE + i, cfg)
        return scene, render(scene), object_features(scene)

    # Every frame is built before anything is written, so a frame that
    # fails leaves no partial dataset.
    results = _map_frames(build, args.count, args.jobs)
    write_dataset(args.out, results, seed=args.seed, resolution=[w, h],
                  objects=list(args.objects), fraction=args.fraction,
                  min_feature_separation=args.min_sep,
                  single_object_radius=args.single_object_radius,
                  background_depth=args.background_depth, sizes=list(args.sizes))
    print(f"wrote {len(results)} frames to {args.out}")
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
    # The forward cache dies before the prediction is built.
    return mlp_forward(model, frame)[0].to_prediction()


def _dataset_ap(records, fg_threshold, predict):
    """AP of segmenting predict(index, frame, annotation) for every record."""
    return compute_metrics([(segment(predict(i, frame, ann), fg_threshold), frame)
                            for i, (_, frame, ann) in enumerate(records)]).ap


def _cmd_infer(args) -> int:
    noise = NoiseSpec(sigma_xi=args.sigma_xi, sigma_b=args.sigma_b, sigma_eta=args.sigma_eta,
                      flip_rate=args.flip_rate, bound_mode=args.noise_mode,
                      ball_radius=args.ball_radius)
    sweep = [NoiseSpec(sigma_xi=s) for s in _sweep_sigmas(args.sweep)] if args.sweep else None
    values, entries = read_dataset_manifest(args.dataset)
    model = None
    if args.predictor == "mlp":
        if not args.model:
            raise ClusterSegError("--model is required with --predictor mlp")
        model, _, _ = load_checkpoint(args.model)

    # Each frame is loaded, predicted and segmented in one call, so at most
    # --jobs frames are in memory. The MLP reads only the frame, so it gets
    # no annotation maps.
    def run(i):
        _, frame, per_object_xi = load_frame(*entries[i])
        ann = (None if args.predictor == "mlp"
               else build_annotation(per_object_xi, frame.instance_map, *values))
        pred = _predict_for_frame(args, model, noise, frame, ann, i)
        return segment(pred, args.fg_threshold)

    # Every frame is segmented before anything is written, so a frame that
    # fails leaves the output directory as it was.
    segs = _map_frames(run, len(entries), args.jobs)
    write_segmentations(args.out, segs, predictor=args.predictor,
                        fg_threshold=args.fg_threshold)

    if sweep is not None:
        records = load_dataset(args.dataset)
        lines = ["sigma,ap"]
        for spec in sweep:
            ap = _dataset_ap(records, args.fg_threshold, lambda i, frame, ann: noisy_predict(
                ann, spec, args.seed * SEED_STRIDE + i))
            lines.append(f"{_fmt(spec.sigma_xi)},{_fmt(ap)}")
        sweep_path = args.sweep_out or os.path.join(args.out, "sweep.csv")
        with open(sweep_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote noise sweep to {sweep_path}")

    print(f"wrote {len(segs)} segmentations to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _cmd_eval(args) -> int:
    frames = [load_frame(*entry)[1] for entry in read_dataset_manifest(args.dataset)[1]]
    segs = load_segmentations(args.segs)
    if len(frames) != len(segs):
        raise ClusterSegError(
            f"dataset has {len(frames)} frames but {len(segs)} segmentations were given")
    pairs = list(zip(segs, frames))
    result = compute_metrics(pairs, EvalConfig())
    report = {"metrics": result_to_dict(result), "num_images": len(pairs)}
    if args.report:
        write_json(args.report, report)
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
    # As in infer: the manifest, then the checkpoint, then the frames, so
    # neither bad file costs a frame read.
    if not read_dataset_manifest(args.dataset)[1]:
        raise ClusterSegError("training dataset is empty")
    if args.resume:
        model, state, start_epoch = load_checkpoint(args.resume)
        if start_epoch > args.epochs:
            raise ClusterSegError(
                f"checkpoint {args.resume} has next_epoch {start_epoch}, past --epochs "
                f"{args.epochs}: nothing left to train")
        if state is None:
            state = AdamState(lr=args.lr)
        elif state.lr != args.lr:
            raise ClusterSegError(
                f"checkpoint {args.resume} holds Adam state at lr {state.lr!r}, but --lr is "
                f"{args.lr!r}: resume with the checkpoint's rate")
    else:
        model = init_model(args.seed)
        state = AdamState(lr=args.lr)
        start_epoch = 1
    records = load_dataset(args.dataset)
    # One run, one thread: every forward and backward reuses one set of
    # hidden-layer buffers.
    model.scratch = {}

    rows = []

    def log_epoch(epoch, weights, terms):
        means = {k: float(np.mean([t[k] for t in terms])) for k in LOSS_TERMS}
        ap = _dataset_ap(records, args.fg_threshold,
                         lambda i, frame, ann: mlp_forward(model, frame)[0].to_prediction())
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
            grads = []
            for idx in batch:
                scene, frame, ann = records[int(idx)]
                frame_terms, grad = _frame_step(model, frame, ann, weights)
                terms.append(frame_terms)
                grads.append(grad)
            # A sum that overflows is left for adam_step to reject.
            with np.errstate(over="ignore"):
                grad_sum = functools.reduce(np.add, grads)
            adam_step(model, grad_sum / len(batch), state)
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
NUMBER = _Kind(float, is_number, "a number")
OPTIONAL_NUMBER = _Kind(_optional_float, lambda v: v is None or is_number(v), "a number or none")
RANGE = _pair(NUMBER, "..", "two numbers A..B")
PATH = _Kind(str, lambda v: v is None or type(v) is str and "\0" not in v, "a path")
SWITCH = _Kind(str, lambda v: type(v) is bool, "a boolean")


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
    _Flag("res", "gen", "64x64",
          _pair(INTEGER, "x", f"two integers WxH, each at most {U16_MAX}",
                lambda w, h: w <= U16_MAX and h <= U16_MAX), "image resolution"),
    _Flag("objects", "gen", "2..8",
          _pair(INTEGER, "..", f"two integers A..B with 1 <= A <= B <= {U16_MAX}",
                lambda lo, hi: 1 <= lo <= hi <= U16_MAX), "object count range per scene"),
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
          _Kind(float, lambda v: is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
          "foreground probability above which a pixel is clustered"),
    _Flag("noise-mode", "infer", "gaussian", _choice("gaussian", "uniform-ball"),
          "feature noise of --predictor noisy"),
    _Flag("sigma-xi", "infer", "0.0", NUMBER, "Gaussian feature noise"),
    _Flag("sigma-b", "infer", "0.0", NUMBER, "Gaussian enclosing-radius noise"),
    _Flag("sigma-eta", "infer", "0.0", NUMBER, "Gaussian centroid-score noise"),
    _Flag("flip-rate", "infer", "0.0", NUMBER, "foreground flip probability"),
    _Flag("ball-radius", "infer", "0.0", NUMBER, "uniform-ball feature noise radius (absolute)"),
    _Flag("ball-minb-frac", "infer", None,
          _Kind(float, lambda v: v is None or (is_finite(v) and v >= 0),
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
    _Flag("lr", "train", "1e-4", _Kind(float, lambda v: is_finite(v) and v > 0,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, one sub-parser per command with that command's flags.

    One parser is built per process and shared by every caller, so no caller
    may change it.
    """
    parser = _Parser(prog="clusterseg",
                     description="Synthetic RGB-D instance segmentation pipeline.")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, about) in _COMMANDS.items():
        sub = subs.add_parser(name, help=about)
        sub.add_argument("--config", help="JSON object of flag values; explicit flags win")
        sub.add_argument("--dump-config", action="store_true",
                         help="print the effective configuration as JSON and exit")
        for row in _rows(name):
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
    config = read_json_object(config_path, "config") if config_path else {}
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
