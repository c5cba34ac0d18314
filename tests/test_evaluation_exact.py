"""The histogram evaluation against its loop reference definition.

Every comparison is of `result_to_dict`, so every metric must be equal to
the last bit and NaN must sit in the same places.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clusterseg.annotation import annotate
from clusterseg.cli import main
from clusterseg.clustering import Segmentation, segment
from clusterseg.dataio import read_bundle, write_bundle
from clusterseg.errors import NonFiniteError, ShapeMismatchError
from clusterseg.evaluation import EvalConfig, compute_metrics, result_to_dict
from clusterseg.geometry import CameraIntrinsics
from clusterseg.predictor import NoiseSpec, init_model, mlp_forward, noisy_predict, oracle_predict
from clusterseg.scenegen import FrameBundle, GeneratorConfig, render, sample_scene

from reference_evaluation import reference_compute_metrics
from test_evaluation import H, W, _frame_from_gt, _mask, _seg_from_masks

# Thresholds below 0.5, few detections, and size bins that small objects straddle.
LOW_THRESHOLDS = EvalConfig(iou_thresholds=(0.0, 0.1, 0.25, 1 / 3, 0.45, 0.5, 0.75),
                            size_bins=((0, 6), (6, 20), (20, 10 ** 6)), max_dets=(2, 5, 20))


def _assert_exact(pairs, cfg=EvalConfig()):
    expected = result_to_dict(reference_compute_metrics(pairs, cfg))
    assert result_to_dict(compute_metrics(pairs, cfg)) == expected
    return expected


def _camera(res):
    return CameraIntrinsics(float(res), float(res), res / 2.0, res / 2.0, res, res)


def _frame(seed, res):
    cfg = GeneratorConfig(count_range=(2, 8), size_range=(0.06, 0.18), camera=_camera(res))
    scene = sample_scene(seed, cfg)
    frame = render(scene)
    return frame, annotate(scene, frame)


def _frame_of(instance, occlusion):
    """FrameBundle with the given instance map and one amodal mask per occlusion score."""
    instance = np.asarray(instance, dtype=np.int32)
    h, w = instance.shape
    amodal = np.array([instance == k + 1 for k in range(len(occlusion))],
                      dtype=bool).reshape(len(occlusion), h, w)
    return FrameBundle(depth=np.zeros((h, w)), scene=None, instance_map=instance,
                       amodal_masks=amodal,
                       occlusion_scores=np.asarray(occlusion, dtype=np.float64))


def _merged(seg, a, b):
    """Instance b + 1 folded into a + 1; later labels move down by one."""
    labels = seg.labels.copy()
    labels[labels == b + 1] = a + 1
    labels[labels > b + 1] -= 1
    return Segmentation(labels=labels, scores=np.delete(seg.scores, b),
                        seeds=seg.seeds[:b] + seg.seeds[b + 1:])


def _split(seg, a, score):
    """Odd columns of instance a + 1 become a new last instance with the given score."""
    labels = seg.labels.copy()
    cols = np.arange(labels.shape[1])[None, :]
    labels[(labels == a + 1) & (cols % 2 == 1)] = len(seg.scores) + 1
    return Segmentation(labels=labels, scores=np.append(seg.scores, score),
                        seeds=seg.seeds + [(0, 0)])


def test_exact_on_corpus_with_noise_merges_and_splits():
    pooled = []
    for seed in range(100):
        frame, ann = _frame(seed, 64)
        radius = float(ann.b_map[ann.fg_mask].min())
        segs = [segment(oracle_predict(ann))]
        for scale in (0.49, 2.0):
            spec = NoiseSpec(bound_mode="uniform-ball", ball_radius=scale * radius)
            segs.append(segment(noisy_predict(ann, spec, seed)))
        oracle = segs[0]
        n = len(oracle.scores)
        if n >= 2:
            segs.append(_merged(oracle, seed % n, (seed + 1) % n))
        segs.append(_split(oracle, seed % n, float(oracle.scores[seed % n])))
        for seg in segs:
            _assert_exact([(seg, frame)])
        pooled.append((segs[-1], frame))
    _assert_exact(pooled)
    _assert_exact(pooled[:10], LOW_THRESHOLDS)


@pytest.mark.parametrize("res", [32, 48])
def test_exact_on_untrained_mlp_output(res):
    model = init_model(0)
    pairs = []
    for seed in range(2):
        frame, _ = _frame(seed, res)
        logits, _ = mlp_forward(model, frame)
        seg = segment(logits.to_prediction())
        assert len(seg.scores) > 100
        pairs.append((seg, frame))
        _assert_exact([(seg, frame)])
    _assert_exact(pairs)
    _assert_exact(pairs, LOW_THRESHOLDS)


def test_exact_with_scores_tied_across_images():
    rng = np.random.default_rng(5)
    pairs = []
    for seed in range(6):
        frame, ann = _frame(seed, 32)
        spec = NoiseSpec(bound_mode="uniform-ball",
                         ball_radius=1.5 * float(ann.b_map[ann.fg_mask].min()))
        seg = segment(noisy_predict(ann, spec, seed))
        # two score levels, with signed zeros, so ties span every image
        scores = rng.choice([0.0, -0.0, 0.5], size=len(seg.scores))
        pairs.append((Segmentation(seg.labels, scores, seg.seeds), frame))
    assert sum(len(seg.scores) for seg, _ in pairs) > 20
    _assert_exact(pairs)
    _assert_exact(pairs, LOW_THRESHOLDS)


def test_exact_at_iou_one_half_ties():
    left, right = _mask((0, 8, 0, 4)), _mask((0, 8, 4, 8))
    both = left | right
    # a prediction that is the union of two equal-size objects: IoU 0.5 with each
    res = _assert_exact([(_seg_from_masks([both], [0.9]), _frame_from_gt([left, right]))])
    assert res["ar"] == 0.05
    # an object that is the union of two equal predictions of equal score
    pairs = [(_seg_from_masks([right, left], [0.7, 0.7]), _frame_from_gt([both]))]
    res = _assert_exact(pairs)
    assert res["ar"] == 0.1
    _assert_exact(pairs + [(_seg_from_masks([left], [0.7]), _frame_from_gt([both]))])
    _assert_exact(pairs, LOW_THRESHOLDS)
    # A prediction tied at IoU 1/3 between two objects takes the lower index,
    # which leaves the later prediction (IoU 0.5 with that object) unmatched.
    top, bottom = _mask((0, 4, 0, 8)), _mask((4, 8, 0, 4))
    res = _assert_exact([(_seg_from_masks([top, bottom], [0.9, 0.5]),
                          _frame_from_gt([left, right]))], LOW_THRESHOLDS)
    assert res["ar"] == 0.5        # 5/7 if the tie went to the higher index


def test_exact_with_out_of_range_labels_empty_and_occluded():
    gt = [_mask((0, 6, 0, 6)), _mask((8, 14, 8, 14)), _mask((0, 4, 10, 16))]
    frame = _frame_from_gt(gt, occlusion=[0.3, 0.75, 0.0])
    seg = _seg_from_masks(gt[:2], [0.9, 0.4])
    labels = seg.labels.copy()
    labels[0, 10:16] = 7            # beyond the score count
    labels[1, 10:16] = -3           # negative
    labels[15, 0] = 1               # stray pixel of a real instance
    cases = [
        Segmentation(labels, seg.scores, seg.seeds),
        # scores for instances that have no pixels
        Segmentation(seg.labels, np.array([0.9, 0.4, 0.95, 0.1]), seg.seeds + [(0, 0)] * 2),
        Segmentation(np.zeros((H, W), dtype=np.int32), np.zeros(0), []),
        Segmentation(np.full((H, W), 5, dtype=np.int32), np.zeros(0), []),
    ]
    instance = frame.instance_map.copy()
    instance[15, 15] = 9             # an id beyond the object count
    occluded = _frame_of(np.where(instance == 3, 0, instance), [0.3, 0.75, 0.0])
    for case in cases:
        for f in (frame, occluded, _frame_of(instance, [0.3, 0.75, 0.0])):
            _assert_exact([(case, f)])
        _assert_exact([(case, frame), (case, occluded)], LOW_THRESHOLDS)
    # no visible objects at all: every metric is NaN in both
    empty = _frame_of(np.zeros((H, W)), [0.5, 0.5])
    assert set(_assert_exact([(cases[0], empty)]).values()) == {None}


def _partition(draw, shape, top):
    return np.array(draw(st.lists(st.integers(-1, top), min_size=shape[0] * shape[1],
                                  max_size=shape[0] * shape[1]))).reshape(shape)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), images=st.integers(1, 3), low=st.booleans())
def test_exact_on_random_partitions(data, images, low):
    pairs = []
    for _ in range(images):
        shape = (data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7)))
        m = data.draw(st.integers(0, 6))
        k = data.draw(st.integers(0, 5))
        labels = _partition(data.draw, shape, m + 1)
        instance = _partition(data.draw, shape, k + 1).clip(0)
        scores = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                    min_size=m, max_size=m))
        occlusion = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 0.75, 1.0]),
                                       min_size=k, max_size=k))
        pairs.append((Segmentation(labels.astype(np.int32), np.array(scores), [(0, 0)] * m),
                      _frame_of(instance, occlusion)))
    _assert_exact(pairs, LOW_THRESHOLDS if low else EvalConfig())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_raise(bad):
    gt = [_mask((0, 6, 0, 6)), _mask((8, 14, 8, 14))]
    seg = _seg_from_masks(gt, [0.9, bad])
    with pytest.raises(NonFiniteError):
        compute_metrics([(seg, _frame_from_gt(gt))])


def test_scores_must_be_one_dimensional():
    gt = [_mask((0, 6, 0, 6))]
    seg = _seg_from_masks(gt, [0.9])
    with pytest.raises(ShapeMismatchError):
        compute_metrics([(Segmentation(seg.labels, np.array(0.9), seg.seeds),
                          _frame_from_gt(gt))])


def test_eval_exits_2_on_non_finite_score(tmp_path, capsys):
    ds, segs = tmp_path / "ds", tmp_path / "segs"
    assert main(["gen", "--count", "2", "--res", "24x24", "--objects", "2..3",
                 "--seed", "4", "--out", str(ds)]) == 0
    assert main(["infer", "--dataset", str(ds), "--out", str(segs),
                 "--predictor", "oracle"]) == 0
    name = "seg_00001.tsb"
    tensors = read_bundle(segs / name)
    tensors["scores"][0] = np.nan
    write_bundle(segs / name, tensors)
    assert main(["eval", "--dataset", str(ds), "--segs", str(segs)]) == 2
    assert "finite" in capsys.readouterr().err
