"""Loop reference implementations of the evaluation.

These are the original definitions: every IoU is a full-image `mask_iou`
call, and every metric family runs its own greedy matching per image and
threshold. The library's histogram evaluation must reproduce
`reference_compute_metrics` exactly; `brute_force_ap` and
`match_detections` are the independent oracles the tests use directly.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from clusterseg.clustering import Segmentation
from clusterseg.errors import ClusterSegError, ShapeMismatchError
from clusterseg.evaluation import RECALL_GRID, EvalConfig, EvalResult, _interpolated_ap
from clusterseg.scenegen import FrameBundle


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two binary masks; 0 when the union is empty."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mask shapes differ: {a.shape} vs {b.shape}")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 0.0
    return np.count_nonzero(a & b) / union


def match_detections(pred_masks, gt_masks, iou_threshold: float, max_det: int):
    """Greedy matching of score-sorted predictions against ground truth.

    Returns (tp_flags, gt_matched): one bool per considered prediction and
    one per ground-truth mask.
    """
    n_pred = min(len(pred_masks), max_det)
    ious = np.array([[mask_iou(p, g) for g in gt_masks] for p in pred_masks[:n_pred]])
    tp = np.zeros(n_pred, dtype=bool)
    gt_matched = np.zeros(len(gt_masks), dtype=bool)
    for i in range(n_pred):
        j = _best_gt(ious[i], gt_matched, iou_threshold)
        if j >= 0:
            tp[i] = True
            gt_matched[j] = True
    return tp, gt_matched


def _best_gt(iou_row, taken, threshold):
    best, best_iou = -1, threshold
    for j in range(iou_row.shape[0]):
        if not taken[j] and iou_row[j] >= best_iou and (best < 0 or iou_row[j] > best_iou):
            best, best_iou = j, iou_row[j]
    return best


@dataclass
class _ImageRecord:
    ious: np.ndarray        # n_pred x n_gt, preds pre-sorted by score
    pred_scores: np.ndarray
    gt_areas: np.ndarray
    gt_occlusion: np.ndarray
    n_pred: int = field(init=False)
    n_gt: int = field(init=False)

    def __post_init__(self):
        self.n_pred, self.n_gt = self.ious.shape


def _pred_sort_keys(masks, scores):
    # Deterministic and invariant to instance relabeling: ties in score are
    # broken by the first set pixel of the mask.
    first = [int(np.flatnonzero(m.ravel())[0]) if m.any() else m.size for m in masks]
    return sorted(range(len(masks)), key=lambda i: (-scores[i], first[i]))


def _prepare_image(seg: Segmentation, frame: FrameBundle) -> _ImageRecord:
    if seg.labels.shape != frame.instance_map.shape:
        raise ShapeMismatchError(
            f"segmentation {seg.labels.shape} does not match frame {frame.instance_map.shape}")
    gt_masks, areas, occl = [], [], []
    for k in range(frame.amodal_masks.shape[0]):
        modal = frame.instance_map == k + 1
        if not modal.any():
            continue
        rows, cols = np.nonzero(modal)
        areas.append((rows.max() - rows.min() + 1) * (cols.max() - cols.min() + 1))
        occl.append(frame.occlusion_scores[k])
        gt_masks.append(modal)
    pred_masks = [seg.labels == m + 1 for m in range(len(seg.scores))]
    order = _pred_sort_keys(pred_masks, list(seg.scores))
    pred_masks = [pred_masks[i] for i in order]
    ious = np.array([[mask_iou(p, g) for g in gt_masks] for p in pred_masks],
                    dtype=np.float64).reshape(len(pred_masks), len(gt_masks))
    return _ImageRecord(ious=ious,
                        pred_scores=np.array([seg.scores[i] for i in order],
                                             dtype=np.float64),
                        gt_areas=np.array(areas, dtype=np.int64),
                        gt_occlusion=np.array(occl, dtype=np.float64))


def _match_with_ignore(rec: _ImageRecord, threshold: float, gt_keep: np.ndarray,
                       max_det: int):
    """Greedy matching where out-of-bin ground truth absorbs predictions.

    Returns (tp, ignored) per considered prediction plus the number of
    matched in-bin objects.
    """
    n_pred = min(rec.n_pred, max_det)
    taken = np.zeros(rec.n_gt, dtype=bool)
    tp = np.zeros(n_pred, dtype=bool)
    ignored = np.zeros(n_pred, dtype=bool)
    matched_keep = 0
    for i in range(n_pred):
        row = rec.ious[i]
        j = _best_gt(np.where(gt_keep, row, -1.0), taken, threshold)
        if j >= 0:
            taken[j] = True
            tp[i] = True
            matched_keep += 1
            continue
        j = _best_gt(np.where(gt_keep, -1.0, row), taken, threshold)
        if j >= 0:
            taken[j] = True
            ignored[i] = True
    return tp, ignored, matched_keep


def _ap_over_images(records, threshold, keep_masks, max_det, penalize_unmatched):
    pooled = []
    n_gt = 0
    for rec, keep in zip(records, keep_masks):
        n_gt += int(keep.sum())
        tp, ignored, _ = _match_with_ignore(rec, threshold, keep, max_det)
        for i in range(tp.size):
            if tp[i]:
                pooled.append((i, True, rec))
            elif not ignored[i] and penalize_unmatched:
                pooled.append((i, False, rec))
    if n_gt == 0:
        return math.nan
    # Pool detections across images in global score order. Scores were
    # consumed by the per-image sort; reconstruct the global order from the
    # stored per-image rank and stable image order.
    flags = np.array([flag for _, flag, _ in _global_order(pooled, records)], dtype=bool)
    return _interpolated_ap(flags, n_gt)


def _global_order(pooled, records):
    img_index = {id(rec): i for i, rec in enumerate(records)}
    return sorted(pooled, key=lambda item: (-item[2].pred_scores[item[0]],
                                            img_index[id(item[2])], item[0]))


def _recall_over_images(records, threshold, keep_masks, max_det) -> float:
    matched = 0
    total = 0
    for rec, keep in zip(records, keep_masks):
        total += int(keep.sum())
        _, _, m = _match_with_ignore(rec, threshold, keep, max_det)
        matched += m
    if total == 0:
        return math.nan
    return matched / total


def reference_compute_metrics(pairs, cfg: EvalConfig = EvalConfig()) -> EvalResult:
    """Evaluate (Segmentation, FrameBundle) pairs into an EvalResult."""
    pairs = list(pairs)
    if not pairs:
        raise ClusterSegError("cannot evaluate an empty dataset")
    records = [_prepare_image(seg, frame) for seg, frame in pairs]

    thresholds = cfg.iou_thresholds
    max_det = max(cfg.max_dets)
    keep_all = [np.ones(rec.n_gt, dtype=bool) for rec in records]

    def mean_over_thresholds(fn):
        vals = [fn(t) for t in thresholds]
        return math.nan if any(math.isnan(v) for v in vals) else float(np.mean(vals))

    res = EvalResult()
    res.ap = mean_over_thresholds(
        lambda t: _ap_over_images(records, t, keep_all, max_det, True))
    res.ap50 = _ap_over_images(records, 0.50, keep_all, max_det, True)
    res.ap75 = _ap_over_images(records, 0.75, keep_all, max_det, True)

    for attr, (lo, hi) in zip(("ap_s", "ap_m", "ap_l"), cfg.size_bins):
        keep = [(rec.gt_areas >= lo) & (rec.gt_areas < hi) for rec in records]
        setattr(res, attr, mean_over_thresholds(
            lambda t, keep=keep: _ap_over_images(records, t, keep, max_det, False)))

    res.ar = mean_over_thresholds(
        lambda t: _recall_over_images(records, t, keep_all, max_det))
    res.ar1 = mean_over_thresholds(
        lambda t: _recall_over_images(records, t, keep_all, cfg.max_dets[0]))
    res.ar10 = mean_over_thresholds(
        lambda t: _recall_over_images(records, t, keep_all, cfg.max_dets[1]))

    for attr, (lo, hi) in zip(("ar_s", "ar_m", "ar_l"), cfg.size_bins):
        keep = [(rec.gt_areas >= lo) & (rec.gt_areas < hi) for rec in records]
        setattr(res, attr, mean_over_thresholds(
            lambda t, keep=keep: _recall_over_images(records, t, keep, max_det)))

    last = len(cfg.occlusion_bins) - 1
    for i, (attr, (lo, hi)) in enumerate(
            zip(("ar_ho", "ar_mo", "ar_lo"), cfg.occlusion_bins)):
        if i == last:
            keep = [(rec.gt_occlusion >= lo) & (rec.gt_occlusion <= hi) for rec in records]
        else:
            keep = [(rec.gt_occlusion >= lo) & (rec.gt_occlusion < hi) for rec in records]
        setattr(res, attr, mean_over_thresholds(
            lambda t, keep=keep: _recall_over_images(records, t, keep, max_det)))
    return res


def brute_force_ap(pred_masks, scores, gt_masks,
                   iou_thresholds=EvalConfig().iou_thresholds,
                   max_det: int = 100) -> float:
    """Independent slow-path AP for tiny single-image cases (test oracle).

    Walks every prefix of the score-ordered predictions with plain loops,
    building the precision-recall curve point by point.
    """
    if not gt_masks:
        return math.nan
    order = _pred_sort_keys(list(pred_masks), list(scores))
    masks = [pred_masks[i] for i in order][:max_det]
    per_threshold = []
    for threshold in iou_thresholds:
        matched = [False] * len(gt_masks)
        flags = []
        for mask in masks:
            best, best_iou = -1, threshold
            for j, gt in enumerate(gt_masks):
                if matched[j]:
                    continue
                iou = mask_iou(mask, gt)
                if iou >= best_iou and (best < 0 or iou > best_iou):
                    best, best_iou = j, iou
            if best >= 0:
                matched[best] = True
                flags.append(True)
            else:
                flags.append(False)
        points = []
        tp = fp = 0
        for flag in flags:
            if flag:
                tp += 1
            else:
                fp += 1
            points.append((tp / len(gt_masks), tp / (tp + fp)))
        total = 0.0
        for r in RECALL_GRID:
            candidates = [p for rec, p in points if rec >= r]
            total += max(candidates) if candidates else 0.0
        per_threshold.append(total / RECALL_GRID.size)
    return float(np.mean(per_threshold))
