import math

import numpy as np
import pytest

from clusterseg.clustering import Segmentation
from clusterseg.errors import ClusterSegError, ShapeMismatchError
from clusterseg.evaluation import EvalConfig, compute_metrics, format_table, result_to_dict
from clusterseg.scenegen import FrameBundle

from reference_evaluation import brute_force_ap, mask_iou, match_detections

H = W = 16


def _mask(*rects):
    m = np.zeros((H, W), dtype=bool)
    for r0, r1, c0, c1 in rects:
        m[r0:r1, c0:c1] = True
    return m


def _frame_from_gt(gt_masks, occlusion=None):
    """FrameBundle with the given disjoint modal masks as ground truth."""
    instance = np.zeros((H, W), dtype=np.int32)
    for k, m in enumerate(gt_masks):
        assert not (instance[m] != 0).any(), "gt masks must be disjoint"
        instance[m] = k + 1
    amodal = np.array(gt_masks) if gt_masks else np.zeros((0, H, W), dtype=bool)
    occ = np.ones(len(gt_masks)) if occlusion is None else np.asarray(occlusion, float)
    return FrameBundle(rgb=np.zeros((H, W, 3), dtype=np.float32),
                       depth=np.zeros((H, W)), xyz=np.zeros((H, W, 3)),
                       instance_map=instance, amodal_masks=amodal,
                       occlusion_scores=occ)


def _seg_from_masks(pred_masks, scores):
    labels = np.zeros((H, W), dtype=np.int32)
    for m, mask in enumerate(pred_masks):
        assert not (labels[mask] != 0).any(), "pred masks must be disjoint"
        labels[mask] = m + 1
    return Segmentation(labels=labels, scores=np.asarray(scores, float),
                        seeds=[(0, 0)] * len(pred_masks))


def test_mask_iou_cases():
    a = _mask((0, 4, 0, 4))
    assert mask_iou(a, a) == 1.0
    assert mask_iou(a, _mask((8, 12, 8, 12))) == 0.0
    # |a| = |b| = 100 with overlap 50 -> 50 / 150
    a = _mask((0, 10, 0, 10))
    b = _mask((0, 10, 5, 15))
    assert mask_iou(a, b) == pytest.approx(1.0 / 3.0)
    assert mask_iou(np.zeros((H, W), bool), np.zeros((H, W), bool)) == 0.0
    with pytest.raises(ShapeMismatchError):
        mask_iou(np.zeros((2, 2), bool), np.zeros((3, 3), bool))


def test_match_detections_basic():
    gt = [_mask((0, 10, 0, 8))]
    pred = [_mask((0, 10, 2, 10))]  # IoU 6/10
    tp, matched = match_detections(pred, gt, 0.5, 100)
    assert tp.tolist() == [True]
    assert matched.tolist() == [True]

    two_preds = [gt[0], gt[0].copy()]
    tp, matched = match_detections(two_preds, gt, 0.5, 100)
    assert tp.tolist() == [True, False]
    assert matched.tolist() == [True]


def test_match_detections_threshold_sweep():
    gt = [_mask((0, 10, 0, 8))]    # 80 px
    pred = [_mask((0, 10, 2, 10))]  # 80 px, intersection 60, union 100
    assert mask_iou(pred[0], gt[0]) == 0.6
    matched_at = [t for t in EvalConfig().iou_thresholds
                  if match_detections(pred, gt, t, 100)[0][0]]
    assert matched_at == [0.50, 0.55, 0.60]


def test_hand_case_ap_point_three():
    gt = [_mask((0, 10, 0, 8))]
    pred = [_mask((0, 10, 2, 10))]  # IoU 0.6 exactly
    res = compute_metrics([(_seg_from_masks(pred, [0.9]), _frame_from_gt(gt))])
    assert res.ap == 0.3
    assert res.ar == 0.3
    assert res.ap50 == 1.0
    assert res.ap75 == 0.0
    assert brute_force_ap(pred, [0.9], gt) == 0.3


def test_perfect_segmentation_is_all_ones():
    # one object per image so the max_det=1 recall can also reach 1.0
    pairs = []
    for rect in ((0, 6, 0, 6), (8, 14, 8, 14)):
        gt = [_mask(rect)]
        pairs.append((_seg_from_masks(gt, [0.9]), _frame_from_gt(gt)))
    res = compute_metrics(pairs)
    for name, value in result_to_dict(res).items():
        if value is not None:
            assert value == 1.0, name


def test_ar1_with_two_objects():
    gt = [_mask((0, 6, 0, 6)), _mask((8, 14, 8, 14))]
    seg = _seg_from_masks([gt[0]], [0.9])
    res = compute_metrics([(seg, _frame_from_gt(gt))])
    assert res.ar1 == 0.5
    assert res.ar == 0.5


def test_empty_predictions():
    gt = [_mask((0, 6, 0, 6))]
    seg = _seg_from_masks([], [])
    res = compute_metrics([(seg, _frame_from_gt(gt))])
    assert res.ap == 0.0
    assert res.ar == 0.0
    assert brute_force_ap([], [], gt) == 0.0


def test_brute_force_all_tp():
    gt = [_mask((0, 6, 0, 6)), _mask((8, 14, 8, 14))]
    assert brute_force_ap(gt, [0.5, 0.4], gt) == 1.0


def _random_case(rng):
    """Random tiny single-image case with disjoint masks on a grid."""
    cells = [(r, c) for r in range(4) for c in range(4)]
    rng.shuffle(cells)
    def cell_mask(cell, h, w):
        r, c = cell
        m = np.zeros((H, W), dtype=bool)
        m[4 * r:4 * r + h, 4 * c:4 * c + w] = True
        return m
    n_gt = int(rng.integers(1, 4))
    n_pred = int(rng.integers(0, 6))
    gt = [cell_mask(cells[i], int(rng.integers(2, 5)), int(rng.integers(2, 5)))
          for i in range(n_gt)]
    preds = []
    for i in range(n_pred):
        if i < n_gt and rng.random() < 0.6:
            # overlap a ground-truth cell to get interesting IoU values
            r, c = cells[i]
            m = np.zeros((H, W), dtype=bool)
            m[4 * r + int(rng.integers(0, 2)):4 * r + int(rng.integers(2, 5)),
              4 * c:4 * c + int(rng.integers(2, 5))] = True
        else:
            m = cell_mask(cells[n_gt + i], int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        preds.append(m)
    # carve overlaps so predictions stay disjoint (Segmentation is a partition)
    taken = np.zeros((H, W), dtype=bool)
    cleaned = []
    for m in preds:
        m = m & ~taken
        taken |= m
        if m.any():
            cleaned.append(m)
    scores = rng.random(len(cleaned))
    return cleaned, list(scores), gt


def test_compute_metrics_matches_brute_force():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(60):
        preds, scores, gt = _random_case(rng)
        res = compute_metrics([(_seg_from_masks(preds, scores), _frame_from_gt(gt))])
        expected = brute_force_ap(preds, scores, gt)
        assert res.ap == pytest.approx(expected, abs=1e-12)
        checked += 1
    assert checked == 60


def test_label_permutation_invariance():
    rng = np.random.default_rng(3)
    preds, scores, gt = _random_case(rng)
    while len(preds) < 2:
        preds, scores, gt = _random_case(rng)
    seg = _seg_from_masks(preds, scores)
    perm = rng.permutation(len(preds))
    seg_permuted = _seg_from_masks([preds[i] for i in perm], [scores[i] for i in perm])
    a = compute_metrics([(seg, _frame_from_gt(gt))])
    b = compute_metrics([(seg_permuted, _frame_from_gt(gt))])
    assert result_to_dict(a) == result_to_dict(b)


def test_added_detection_never_decreases_recall():
    gt = [_mask((0, 6, 0, 6)), _mask((8, 14, 8, 14))]
    partial = _seg_from_masks([gt[0]], [0.9])
    complete = _seg_from_masks(gt, [0.9, 0.2])
    frame = _frame_from_gt(gt)
    before = compute_metrics([(partial, frame)])
    after = compute_metrics([(complete, frame)])
    for field in ("ar", "ar1", "ar10"):
        assert getattr(after, field) >= getattr(before, field)


def test_duplicate_detection_never_increases_ap():
    gt = [_mask((0, 6, 0, 6))]
    frame = _frame_from_gt(gt)
    single = _seg_from_masks([gt[0]], [0.9])
    # a second, lower-scored detection of the same object becomes an FP
    dup = _seg_from_masks([_mask((0, 6, 0, 3)), _mask((0, 6, 3, 6))], [0.9, 0.8])
    assert compute_metrics([(dup, frame)]).ap <= compute_metrics([(single, frame)]).ap


def test_ar_ordering_on_random_cases():
    rng = np.random.default_rng(10)
    for _ in range(20):
        preds, scores, gt = _random_case(rng)
        res = compute_metrics([(_seg_from_masks(preds, scores), _frame_from_gt(gt))])
        assert res.ar1 <= res.ar10 + 1e-12
        assert res.ar10 <= res.ar + 1e-12
        if not math.isnan(res.ap):
            assert res.ap50 >= res.ap - 1e-12


def test_size_bins_from_gt_bbox_area():
    small = _mask((0, 2, 0, 2))        # bbox area 4 < 32^2
    frame = _frame_from_gt([small])
    res = compute_metrics([(_seg_from_masks([small], [0.9]), frame)])
    assert res.ap_s == 1.0
    assert math.isnan(res.ap_m)
    assert math.isnan(res.ap_l)
    assert res.ar_s == 1.0
    assert math.isnan(res.ar_m)


def test_occlusion_bin_boundaries():
    gt = [_mask((0, 6, 0, 6)), _mask((8, 14, 8, 14))]
    # boundary scores: 0.3 belongs to the medium bin, 0.75 to the little bin
    frame = _frame_from_gt(gt, occlusion=[0.3, 0.75])
    seg = _seg_from_masks(gt, [0.9, 0.8])
    res = compute_metrics([(seg, frame)])
    assert math.isnan(res.ar_ho)
    assert res.ar_mo == 1.0
    assert res.ar_lo == 1.0
    # detection status drives the binned recall
    missing_first = _seg_from_masks([gt[1]], [0.8])
    res = compute_metrics([(missing_first, frame)])
    assert res.ar_mo == 0.0
    assert res.ar_lo == 1.0


def test_fully_occluded_objects_are_excluded():
    visible = _mask((0, 6, 0, 6))
    instance = np.zeros((H, W), dtype=np.int32)
    instance[visible] = 1
    amodal = np.stack([visible, _mask((8, 14, 8, 14))])
    frame = FrameBundle(rgb=np.zeros((H, W, 3), dtype=np.float32),
                        depth=np.zeros((H, W)), xyz=np.zeros((H, W, 3)),
                        instance_map=instance, amodal_masks=amodal,
                        occlusion_scores=np.array([1.0, 0.0]))
    res = compute_metrics([(_seg_from_masks([visible], [0.9]), frame)])
    assert res.ap == 1.0
    assert res.ar == 1.0


def test_empty_dataset_rejected():
    with pytest.raises(ClusterSegError):
        compute_metrics([])


def test_format_table_shape():
    gt = [_mask((0, 6, 0, 6))]
    res = compute_metrics([(_seg_from_masks(gt, [0.9]), _frame_from_gt(gt))])
    table = format_table(res)
    lines = table.splitlines()
    assert len(lines) == 4
    assert "AP50" in lines[0]
    assert "ARHO" in lines[2]
    assert "100.0" in lines[1]
    assert "-" in lines[3] or "100.0" in lines[3]
