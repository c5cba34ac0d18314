"""Span tracer for traced runs of the clusterseg CLI.

`traced(tracer)` replaces, for the duration of a `with` block, each layer
function the CLI looks up at call time with a wrapper that records one span
per call (name, start, end, parent span, frame index) and the layer's work
counters. The caller then runs `clusterseg.cli.main` unchanged, so the
spans describe the program's own call sequence. Spans and counters stay in
memory; the caller summarises them or writes them out when the run ends.

Frame indices come from the call sequence: `sample_scene` and
`noisy_predict` from their per-frame seed, bundle reads and writes from
their order within a directory, `mlp_forward` and `total_loss` from the
bundle their frame was read from, and every other per-frame call from the
call before it.
"""

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from clusterseg import cli, clustering, dataio

LAYERS = ("scenegen", "annotation", "dataio", "predictor", "losses",
          "clustering", "evaluation")


class Tracer:
    """In-memory span and counter recorder.

    A span name is "<layer>.<function>"; command spans use the layer "cli"
    and pass spans the layer "pass".
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self.frame = None
        # Per command: bundles seen per directory, and the frame each
        # read depth / xi map belongs to.
        self.bundles = defaultdict(int)
        self.read_frames = {}

    @contextmanager
    def span(self, name, frame=None):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "frame": frame, "start": time.perf_counter(), "end": None,
               "error": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def command(self, name):
        self.frame = None
        self.bundles.clear()
        self.read_frames.clear()
        with self.span(f"cli.{name}"):
            yield

    def count(self, key, amount):
        self.counters[key] += amount

    def bundle_frame(self, path):
        directory = os.path.dirname(os.path.abspath(path))
        self.bundles[directory] += 1
        return self.bundles[directory] - 1


def _mlp_macs(model, pixels, backward=False):
    # Forward: one multiply-add per weight per pixel. Backward: the weight
    # gradients again, plus the input gradients of every layer but the first.
    weights = [p for name, p in model.params.items() if name.startswith("w")]
    macs = sum(w.size for w in weights)
    if backward:
        macs += sum(w.size for w in weights) - model.params["w1"].size
    return pixels * macs


def _count_segmentation(tr, seeded, seg, stats):
    H, W = seeded.labels.shape
    n_seeds = len(seeded.scores)
    n_fg = int(np.count_nonzero(seeded.labels))
    tr.count("clustering.fg_pixels", n_fg)
    tr.count("clustering.seeds", n_seeds)
    tr.count("clustering.kept", len(seg.scores))
    tr.count("clustering.fallbacks", stats.get("spherical_fallbacks", 0))
    tr.count("clustering.seed_distance_evals", n_seeds * H * W)
    tr.count("clustering.gmm_density_evals", n_seeds * n_fg)
    if n_seeds:
        # Each refined instance keeps the seed of the component it came from.
        component = {seed: m + 1 for m, seed in enumerate(seeded.seeds)}
        lut = np.zeros(len(seg.seeds) + 1, dtype=np.int64)
        lut[1:] = [component[s] for s in seg.seeds]
        tr.count("clustering.reassigned",
                 int(np.count_nonzero(lut[seg.labels] != seeded.labels)))
        # Seed k scans all H*W pixels; the useful ones are the foreground
        # pixels still unassigned when it starts.
        sizes = np.bincount(seeded.labels.ravel(), minlength=n_seeds + 1)[1:]
        unassigned = n_fg - np.concatenate([[0], np.cumsum(sizes)[:-1]])
        tr.count("clustering.seed_scan_useful_px", int(unassigned.sum()))
        tr.count("clustering.seed_scan_px", n_seeds * H * W)


def _count_eval(tr, pairs):
    """Instances, IoU pairs and true positives at IoU > 0.5 per image.

    Predictions and visible ground truth are both partitions of the image,
    so one label-pair histogram gives every intersection.
    """
    for seg, frame in pairs:
        n_pred = len(seg.scores)
        n_obj = frame.amodal_masks.shape[0]
        gt = frame.instance_map.astype(np.int64)
        hist = np.bincount((seg.labels.astype(np.int64) * (n_obj + 1) + gt).ravel(),
                           minlength=(n_pred + 1) * (n_obj + 1)).reshape(n_pred + 1, n_obj + 1)
        inter = hist[1:, 1:]
        pred_area = hist[1:, :].sum(axis=1)
        gt_area = hist[:, 1:].sum(axis=0)
        visible = gt_area > 0
        union = pred_area[:, None] + gt_area[None, :] - inter
        iou = np.divide(inter, union, out=np.zeros(inter.shape), where=union > 0)[:, visible]
        n_gt = int(visible.sum())
        tr.count("evaluation.pred_instances", n_pred)
        tr.count("evaluation.gt_instances", n_gt)
        tr.count("evaluation.iou_pairs", n_pred * n_gt)
        tr.count("evaluation.tp", int(np.count_nonzero((iou > 0.5).any(axis=1))))


# ---------------------------------------------------------------------------
# wrappers: each takes the tracer and the original function

def _simple(name, frame_of=None):
    def wrap(tr, fn):
        def wrapper(*args, **kwargs):
            if frame_of is not None:
                tr.frame = frame_of(tr, *args)
            with tr.span(name, tr.frame):
                return fn(*args, **kwargs)
        return wrapper
    return wrap


def _seeded_frame(tr, *args):
    # sample_scene(seed, cfg) and noisy_predict(ann, spec, seed) get the
    # command seed * SEED_STRIDE + frame.
    seed = args[0] if isinstance(args[0], int) else args[2]
    return seed % cli.SEED_STRIDE


def _render(tr, fn):
    def wrapper(scene):
        with tr.span("scenegen.render", tr.frame):
            frame = fn(scene)
        H, W = frame.depth.shape
        tr.count("scenegen.ray_tests", H * W * len(scene.objects))
        return frame
    return wrapper


def _read_bundle(tr, fn):
    def wrapper(path):
        tr.frame = tr.bundle_frame(path)
        tr.count("dataio.bytes_read", os.path.getsize(path))
        with tr.span("dataio.read_bundle", tr.frame):
            tensors = fn(path)
        for key in ("depth", "xi_map"):
            if key in tensors:
                tr.read_frames[id(tensors[key])] = tr.frame
        return tensors
    return wrapper


def _write_bundle(tr, fn):
    def wrapper(path, tensors):
        tr.frame = tr.bundle_frame(path)
        with tr.span("dataio.write_bundle", tr.frame):
            fn(path, tensors)
        tr.count("dataio.bytes_written", os.path.getsize(path))
    return wrapper


def _mlp_forward(tr, fn):
    def wrapper(model, frame):
        tr.frame = tr.read_frames.get(id(frame.depth))
        with tr.span("predictor.mlp_forward", tr.frame):
            out = fn(model, frame)
        tr.count("predictor.macs", _mlp_macs(model, frame.depth.size))
        return out
    return wrapper


def _mlp_backward(tr, fn):
    def wrapper(model, cache, breakdown):
        with tr.span("predictor.mlp_backward", tr.frame):
            grads = fn(model, cache, breakdown)
        tr.count("predictor.macs", _mlp_macs(model, cache["x"].shape[0], backward=True))
        return grads
    return wrapper


def _total_loss(tr, fn):
    def wrapper(pred, ann, *args, **kwargs):
        tr.frame = tr.read_frames.get(id(ann.xi_map))
        tr.count("losses.pixels", ann.fg_mask.size)
        with tr.span("losses.total_loss", tr.frame):
            return fn(pred, ann, *args, **kwargs)
    return wrapper


def _gmm_refine(tr, fn):
    def wrapper(seeded, pred, stats=None):
        own = {}
        with tr.span("clustering.gmm_refine", tr.frame):
            seg = fn(seeded, pred, own)
        _count_segmentation(tr, seeded, seg, own)
        if stats is not None:
            for key, value in own.items():
                stats[key] = stats.get(key, 0) + value
        return seg
    return wrapper


def _compute_metrics(tr, fn):
    def wrapper(pairs, *args, **kwargs):
        with tr.span("evaluation.compute_metrics"):
            result = fn(pairs, *args, **kwargs)
        _count_eval(tr, pairs)
        return result
    return wrapper


# (module, attribute, wrapper factory) for every layer function the CLI
# looks up at call time. `clustering.segment` looks up its two stages in
# its own module, so those are replaced there.
WRAPPED = (
    (cli, "sample_scene", _simple("scenegen.sample_scene", _seeded_frame)),
    (cli, "render", _render),
    (cli, "annotate", _simple("annotation.annotate")),
    (dataio, "read_bundle", _read_bundle),
    (dataio, "write_bundle", _write_bundle),
    (cli, "noisy_predict", _simple("predictor.noisy_predict", _seeded_frame)),
    (cli, "mlp_forward", _mlp_forward),
    (cli, "mlp_backward", _mlp_backward),
    (cli, "adam_step", _simple("predictor.adam_step", lambda tr, *args: None)),
    (cli, "total_loss", _total_loss),
    (clustering, "seed_segmentation", _simple("clustering.seed_segmentation")),
    (clustering, "gmm_refine", _gmm_refine),
    (cli, "compute_metrics", _compute_metrics),
)


@contextmanager
def traced(tracer):
    """Record spans from every wrapped layer function until the block ends."""
    originals = [(module, name, getattr(module, name)) for module, name, _ in WRAPPED]
    try:
        for (module, name, wrap), (_, _, fn) in zip(WRAPPED, originals):
            setattr(module, name, wrap(tracer, fn))
        yield tracer
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
