"""COCO-style evaluation of predicted segmentations.

AP is 101-point interpolated precision averaged over IoU thresholds
0.50:0.05:0.95; AR is recall averaged over the same thresholds at a
maximum number of detections per image (1, 10, 100). Size bins use the
ground-truth modal bounding-box pixel area; occlusion bins use the stored
per-object occlusion scores. Size and occlusion bins are half-open on the
right except the last occlusion bin, which includes 1.0.

Matching is greedy per image: predictions in descending score order (ties
by first mask pixel) each take the unmatched ground-truth object with the
highest IoU at or above the threshold, ties by object index.

Binned evaluation follows ignore semantics computed from ground truth
only: a bin restricts the ground-truth objects; predictions matched to an
out-of-bin object are ignored, and unmatched predictions are penalized as
false positives only in the unrestricted (all-sizes) metric, since an
unmatched prediction has no ground-truth bin to belong to. Objects with no
visible pixels are not evaluable and are excluded from the ground truth.
Bins containing no ground-truth objects yield NaN.

Predicted labels and the ground-truth instance map are both partitions of
the image, so one histogram of label pairs, ``bincount(pred * (K + 1) +
gt)``, holds every intersection and its marginals hold the areas: each
image's IoU matrix costs O(H*W), as in the panoptic-quality evaluation
(Kirillov et al., arXiv 1801.00868). Each IoU is the same correctly rounded
int/int division as the full-mask `mask_iou` in tests/reference_evaluation.py.
A prediction with no IoU at or above a threshold never matches there, so
matching visits only the candidate pairs; for disjoint masks and a
threshold of at least 0.5 an object has at most two. One matching per image
and threshold serves AP, AR and, through its prefixes, AR1 and AR10; each
bin's AP and AR share one binned matching. The loop definitions this reproduces exactly, and the
brute-force AP oracle, live in tests/reference_evaluation.py.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ClusterSegError, NonFiniteError, ShapeMismatchError

RECALL_GRID = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
    size_bins: tuple = ((0, 32 ** 2), (32 ** 2, 96 ** 2), (96 ** 2, 100000 ** 2))
    occlusion_bins: tuple = ((0.0, 0.3), (0.3, 0.75), (0.75, 1.0))
    max_dets: tuple = (1, 10, 100)


@dataclass
class EvalResult:
    """All metrics as fractions in [0, 1]; NaN marks an empty bin."""

    ap: float = math.nan
    ap50: float = math.nan
    ap75: float = math.nan
    ap_s: float = math.nan
    ap_m: float = math.nan
    ap_l: float = math.nan
    ar: float = math.nan
    ar1: float = math.nan
    ar10: float = math.nan
    ar_s: float = math.nan
    ar_m: float = math.nan
    ar_l: float = math.nan
    ar_ho: float = math.nan
    ar_mo: float = math.nan
    ar_lo: float = math.nan


def _prepare_image(seg, frame):
    """Score-ordered IoU matrix and scores, plus visible objects' bbox areas and occlusion.

    Prediction m is the pixels labelled m + 1 for m < len(scores); object k
    is the pixels of id k + 1 in the instance map for k < len(occlusion
    scores). Other labels and ids are ignored.
    """
    labels = np.asarray(seg.labels)
    if labels.shape != frame.instance_map.shape or labels.ndim != 2:
        raise ShapeMismatchError(
            f"segmentation {labels.shape} does not match frame {frame.instance_map.shape}")
    scores = np.asarray(seg.scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ShapeMismatchError(f"scores must be one-dimensional, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise NonFiniteError("segmentation scores must be finite")
    occlusion = np.asarray(frame.occlusion_scores, dtype=np.float64).ravel()
    M, K = scores.size, occlusion.size
    pred = labels.astype(np.int64).ravel()
    pred[(pred < 1) | (pred > M)] = 0
    gt = np.asarray(frame.instance_map).astype(np.int64)
    gt[(gt < 1) | (gt > K)] = 0

    hist = np.bincount(pred * (K + 1) + gt.ravel(),
                       minlength=(M + 1) * (K + 1)).reshape(M + 1, K + 1)
    gt_area = hist[:, 1:].sum(axis=0)
    visible = np.flatnonzero(gt_area)
    inter = hist[1:, 1 + visible]
    union = hist[1:].sum(axis=1)[:, None] + gt_area[visible] - inter

    values, first = np.unique(pred, return_index=True)
    first_pixel = np.full(M + 1, pred.size)
    first_pixel[values] = first
    order = np.lexsort((first_pixel[1:], -scores))

    H, W = gt.shape
    in_row = np.zeros((K + 1, H), dtype=bool)
    in_row[gt, np.arange(H)[:, None]] = True
    in_col = np.zeros((K + 1, W), dtype=bool)
    in_col[gt, np.arange(W)] = True

    def extent(present):
        present = present[1 + visible]
        return present.shape[1] - present.argmax(axis=1) - present[:, ::-1].argmax(axis=1)

    areas = (extent(in_row) * extent(in_col)).astype(np.int64)
    return (inter / union)[order], scores[order], areas, occlusion[visible]


def _candidates(ious, threshold):
    """(row, [(iou, object), ...] best first) for each row with some IoU >= threshold."""
    rows, cols = np.nonzero(ious >= threshold)
    vals = ious[rows, cols]
    order = np.lexsort((cols, -vals, rows))
    out = []
    for row, iou, col in zip(rows[order].tolist(), vals[order].tolist(), cols[order].tolist()):
        if not out or out[-1][0] != row:
            out.append((row, []))
        out[-1][1].append((iou, col))
    return out


def _greedy(candidates, threshold, keep):
    """Rows matched to an in-bin object by the greedy rule, in score order.

    Each prediction takes its best unmatched in-bin object at or above the
    threshold; failing that its best out-of-bin one, which ignores it.
    """
    taken = set()
    matched = []
    for row, options in candidates:
        eligible = [j for iou, j in options if iou >= threshold and j not in taken]
        if eligible:
            j = next((j for j in eligible if keep[j]), eligible[0])
            taken.add(j)
            if keep[j]:
                matched.append(row)
    return matched


def _interpolated_ap(tp_flags: np.ndarray, n_gt: int) -> float:
    if n_gt == 0:
        return math.nan
    if tp_flags.size == 0:
        return 0.0
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(~tp_flags)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    best_right = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, RECALL_GRID, side="left")
    interp = np.where(idx < recall.size, best_right[np.minimum(idx, recall.size - 1)], 0.0)
    return float(interp.mean())


def _ratio(matched: int, total: int) -> float:
    return math.nan if total == 0 else matched / total


def compute_metrics(pairs, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Evaluate (Segmentation, FrameBundle) pairs into an EvalResult."""
    pairs = list(pairs)
    if not pairs:
        raise ClusterSegError("cannot evaluate an empty dataset")
    images = [_prepare_image(seg, frame) for seg, frame in pairs]
    max_det = max(cfg.max_dets)
    thresholds = sorted({float(t) for t in (*cfg.iou_thresholds, 0.50, 0.75)})
    candidates = [_candidates(ious[:max_det], thresholds[0]) for ious, _, _, _ in images]

    # Each image's first max_det predictions, pooled in global score order.
    scores = [s[:max_det] for _, s, _, _ in images]
    offsets = np.cumsum([0] + [s.size for s in scores])
    pooled = np.argsort(-np.concatenate(scores), kind="stable")

    everything = [[True] * areas.size for _, _, areas, _ in images]
    n_gt = sum(map(len, everything))
    last = len(cfg.occlusion_bins) - 1
    size_names = ("s", "m", "l")[:len(cfg.size_bins)]
    bins = {}
    for name, (lo, hi) in zip(size_names, cfg.size_bins):
        bins[name] = [((a >= lo) & (a < hi)).tolist() for _, _, a, _ in images]
    for i, (name, (lo, hi)) in enumerate(zip(("ho", "mo", "lo"), cfg.occlusion_bins)):
        bins[name] = [((o >= lo) & ((o <= hi) if i == last else (o < hi))).tolist()
                      for _, _, _, o in images]
    totals = {name: sum(map(sum, keeps)) for name, keeps in bins.items()}

    per_threshold = {}
    for t in thresholds:
        # Greedy matching is online, so the first d predictions match as
        # they do in the max_det pass: AR1 and AR10 count its prefixes.
        rows = [_greedy(c, t, keep) for c, keep in zip(candidates, everything)]
        tp = np.zeros(offsets[-1], dtype=bool)
        for offset, matched in zip(offsets, rows):
            tp[offset + np.array(matched, dtype=np.int64)] = True
        out = {"ap": _interpolated_ap(tp[pooled], n_gt),
               "ar": _ratio(sum(map(len, rows)), n_gt),
               "ar1": _ratio(sum(sum(r < cfg.max_dets[0] for r in m) for m in rows), n_gt),
               "ar10": _ratio(sum(sum(r < cfg.max_dets[1] for r in m) for m in rows), n_gt)}
        for name, keeps in bins.items():
            matched = sum(len(_greedy(c, t, keep)) for c, keep in zip(candidates, keeps))
            out[f"ar_{name}"] = _ratio(matched, totals[name])
            if name in size_names:
                # Binned AP pools only matched detections, since an unmatched
                # one belongs to no bin: it depends on the match count alone.
                out[f"ap_{name}"] = _interpolated_ap(np.ones(matched, dtype=bool),
                                                     totals[name])
        per_threshold[t] = out

    res = EvalResult()
    for name in per_threshold[thresholds[0]]:
        vals = [per_threshold[float(t)][name] for t in cfg.iou_thresholds]
        setattr(res, name,
                math.nan if any(math.isnan(v) for v in vals) else float(np.mean(vals)))
    res.ap50 = per_threshold[0.50]["ap"]
    res.ap75 = per_threshold[0.75]["ap"]
    return res


def result_to_dict(res: EvalResult) -> dict:
    """JSON-friendly dict; NaN becomes None."""
    out = {}
    for f in fields(res):
        value = getattr(res, f.name)
        out[f.name] = None if math.isnan(value) else value
    return out


_TABLE_COLUMNS = [
    ("AP", "ap"), ("AP50", "ap50"), ("AP75", "ap75"),
    ("APS", "ap_s"), ("APM", "ap_m"), ("APL", "ap_l"),
    ("AR", "ar"), ("AR1", "ar1"), ("AR10", "ar10"),
    ("ARS", "ar_s"), ("ARM", "ar_m"), ("ARL", "ar_l"),
]
_OCC_COLUMNS = [("ARHO", "ar_ho"), ("ARMO", "ar_mo"), ("ARLO", "ar_lo")]


def format_table(res: EvalResult) -> str:
    """Aligned percent table in the standard column order."""
    def fmt(value):
        return "-" if math.isnan(value) else f"{100.0 * value:.1f}"
    lines = []
    for columns in (_TABLE_COLUMNS, _OCC_COLUMNS):
        header = " ".join(f"{name:>6}" for name, _ in columns)
        row = " ".join(f"{fmt(getattr(res, attr)):>6}" for _, attr in columns)
        lines.extend([header, row])
    return "\n".join(lines)
