import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterseg.annotation import annotate
from clusterseg.clustering import (Prediction, Segmentation, gmm_refine,
                                   seed_segmentation, segment)
from clusterseg.errors import PlacementError
from clusterseg.geometry import FEATURE_DIM, CameraIntrinsics
from clusterseg.predictor import NoiseSpec, noisy_predict, oracle_predict
from clusterseg.scenegen import GeneratorConfig, render, sample_scene

from conftest import make_example, same_partition


def _pred_from_rows(xi_rows, eta_row, b=1.0, mask=1.0):
    n = len(xi_rows)
    xi = np.zeros((1, n, 9))
    for i, row in enumerate(xi_rows):
        xi[0, i, :len(row)] = row
    return Prediction(
        xi_hat=xi,
        eta_hat=np.array([eta_row]),
        b_hat=np.full((1, n), b, dtype=np.float64),
        mask_prob=np.full((1, n), mask, dtype=np.float64),
    )


def test_seed_segmentation_hand_case():
    pred = _pred_from_rows([[0.0], [0.0], [2.0], [2.0]], [0.9, 0.1, 0.8, 0.2], b=1.0)
    seg = seed_segmentation(pred)
    assert np.array_equal(seg.labels, [[1, 1, 2, 2]])
    assert seg.seeds == [(0, 0), (0, 2)]
    assert np.allclose(seg.scores, [0.5, 0.5])


def test_seed_segmentation_big_radius_merges_all():
    pred = _pred_from_rows([[0.0], [0.0], [2.0], [2.0]], [0.9, 0.1, 0.8, 0.2], b=3.0)
    seg = seed_segmentation(pred)
    assert np.array_equal(seg.labels, [[1, 1, 1, 1]])
    assert len(seg.scores) == 1


def test_seed_segmentation_empty_foreground():
    pred = _pred_from_rows([[0.0], [1.0]], [0.9, 0.8], mask=0.0)
    seg = seed_segmentation(pred)
    assert not seg.labels.any()
    assert len(seg.scores) == 0
    assert segment(pred).labels.sum() == 0


def test_seed_segmentation_partition_property():
    rng = np.random.default_rng(5)
    for _ in range(10):
        H = W = 12
        pred = Prediction(
            xi_hat=rng.normal(size=(H, W, 9)),
            eta_hat=rng.random((H, W)),
            b_hat=rng.uniform(0.0, 2.0, size=(H, W)),
            mask_prob=rng.random((H, W)),
        )
        seg = seed_segmentation(pred, fg_threshold=0.5)
        fg = pred.mask_prob >= 0.5
        assert np.array_equal(seg.labels > 0, fg)
        labels = np.unique(seg.labels)
        labels = labels[labels > 0]
        assert np.array_equal(labels, np.arange(1, len(seg.scores) + 1))


def test_segment_deterministic():
    _, _, ann = make_example(seed=1)
    pred = oracle_predict(ann)
    a = segment(pred)
    b = segment(oracle_predict(ann))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.scores, b.scores)
    assert a.seeds == b.seeds


def test_oracle_recovers_ground_truth():
    for seed in range(8):
        _, frame, ann = make_example(seed=seed)
        seg = segment(oracle_predict(ann))
        assert same_partition(seg.labels, frame.instance_map)


def test_noise_exactness_bound():
    for seed in range(20):
        _, frame, ann = make_example(seed=seed)
        fg_b = ann.b_map[ann.fg_mask]
        radius = 0.49 * float(fg_b.min())
        spec = NoiseSpec(bound_mode="uniform-ball", ball_radius=radius)
        pred = noisy_predict(ann, spec, seed)
        seeded = seed_segmentation(pred)
        assert same_partition(seeded.labels, frame.instance_map)
        refined = segment(pred)
        assert same_partition(refined.labels, frame.instance_map)


def test_gmm_refine_is_fixed_point_for_separated_clusters():
    pred = _pred_from_rows([[0.0], [0.0], [2.0], [2.0]], [0.9, 0.1, 0.8, 0.2], b=1.0)
    seeded = seed_segmentation(pred)
    refined = gmm_refine(seeded, pred)
    assert np.array_equal(refined.labels, seeded.labels)


def test_gmm_refine_single_instance_unchanged():
    pred = _pred_from_rows([[0.0], [0.1], [0.2]], [0.5, 0.5, 0.5], b=5.0)
    seeded = seed_segmentation(pred)
    assert len(seeded.scores) == 1
    refined = gmm_refine(seeded, pred)
    assert np.array_equal(refined.labels, seeded.labels)


def test_gmm_refine_keeps_foreground_set():
    rng = np.random.default_rng(9)
    for _ in range(5):
        pred = Prediction(
            xi_hat=rng.normal(size=(10, 10, 9)),
            eta_hat=rng.random((10, 10)),
            b_hat=rng.uniform(0.0, 1.5, size=(10, 10)),
            mask_prob=rng.random((10, 10)),
        )
        seeded = seed_segmentation(pred)
        refined = gmm_refine(seeded, pred)
        assert np.array_equal(refined.labels > 0, seeded.labels > 0)


def _log_density_oracle(x, members, weight):
    # plain-loop weighted Gaussian log-density used to cross-check refinement
    mu = members.mean(axis=0)
    d = members - mu
    cov = (d.T @ d) / members.shape[0] + 1e-6 * np.eye(9)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = float((x - mu) @ np.linalg.solve(cov, x - mu))
    return math.log(weight) - 0.5 * (9 * math.log(2 * math.pi) + logdet + quad)


def test_gmm_refine_corrects_misseeded_pixel():
    # Clusters need more members than feature dimensions so the empirical
    # covariance has full rank.
    rng = np.random.default_rng(0)
    n_a = n_b = 48
    a = rng.normal(0.0, 0.3, size=(n_a, 9))
    b = rng.normal(0.0, 0.05, size=(n_b, 9))
    b[:, 0] += 2.0
    stray = np.zeros(9)
    stray[0] = 2.0
    xi = np.concatenate([a, [stray], b])  # stray pixel sits at index n_a
    n = xi.shape[0]
    pred = Prediction(
        xi_hat=xi.reshape(1, n, 9),
        eta_hat=np.full((1, n), 0.5),
        b_hat=np.ones((1, n)),
        mask_prob=np.ones((1, n)),
    )
    labels = np.zeros((1, n), dtype=np.int32)
    labels[0, :n_a + 1] = 1  # stray mis-assigned to cluster A
    labels[0, n_a + 1:] = 2
    seg = Segmentation(labels=labels, scores=np.array([0.5, 0.5]),
                       seeds=[(0, 0), (0, n_a + 1)])

    # independent oracle: the stray pixel is several times closer to B in
    # Mahalanobis distance and B's weighted log-density dominates
    members_a = xi[:n_a + 1]
    members_b = xi[n_a + 1:]
    log_a = _log_density_oracle(stray, members_a, (n_a + 1) / n)
    log_b = _log_density_oracle(stray, members_b, n_b / n)
    assert log_b > log_a

    refined = gmm_refine(seg, pred)
    assert refined.labels[0, n_a] == refined.labels[0, n_a + 1]
    assert refined.labels[0, 0] != refined.labels[0, n_a]
    # cluster members themselves stay put
    assert np.all(refined.labels[0, :n_a] == refined.labels[0, 0])
    assert np.all(refined.labels[0, n_a + 1:] == refined.labels[0, n_a + 1])


def test_gmm_refine_spherical_fallback_counter():
    # Constant features per cluster exercise the rank-deficient path; with
    # regularization the covariance stays finite so no fallback is expected.
    pred = _pred_from_rows([[0.0], [0.0], [2.0], [2.0]], [0.9, 0.1, 0.8, 0.2], b=1.0)
    stats = {}
    gmm_refine(seed_segmentation(pred), pred, stats=stats)
    assert stats.get("spherical_fallbacks", 0) == 0


# ---------------------------------------------------------------------------
# The exactness guarantee under structured error fields
#
# If every pixel's feature error is below half the minimum enclosing radius
# minB, two pixels of object k lie less than minB <= b_k apart, and pixels of
# two objects more than 2 b_k - minB >= b_k apart, so greedy seeding recovers
# the partition whatever the errors' structure. The hard E-step after it
# keeps no such guarantee.

def _unit(v):
    return v / np.linalg.norm(v)


def _ball(rng, n, radius):
    """n errors drawn uniformly from the 9-D ball of `radius`."""
    d = rng.normal(size=(n, FEATURE_DIM))
    return d / np.linalg.norm(d, axis=1, keepdims=True) * (
        radius * rng.random((n, 1)) ** (1.0 / FEATURE_DIM))


def _pushed_pixel(ann, k, radius, rng=None):
    """(flat index, error) of a pixel of object k pushed `radius` toward its nearest visible object.

    The pixel is object k's first in row-major order, or a random one of them given rng.
    """
    ids = ann.instance_map.ravel()
    xi = ann.per_object_xi
    others = [j for j in np.unique(ids).tolist() if j not in (0, k)]
    near = min(others, key=lambda j: np.linalg.norm(xi[j - 1] - xi[k - 1]))
    pixels = np.flatnonzero(ids == k)
    p = pixels[0] if rng is None else rng.choice(pixels)
    return p, near, radius * _unit(xi[near - 1] - xi[k - 1])


STRUCTURED_PATTERNS = ("push", "split", "shift", "ball")


def _structured_errors(ann, radius, rng, pattern=None):
    """A feature error field, each pixel's norm at most `radius`, one pattern per visible object.

    An object gets one pixel pushed toward its nearest other visible
    object, its pixels split into two random halves with antipodal errors,
    one error shared by all its pixels, uniform-ball errors, or none; each
    object draws its own, unless `pattern` names one for all of them.
    """
    ids = ann.instance_map.ravel()
    errors = np.zeros((ids.size, FEATURE_DIM))
    visible = [k for k in np.unique(ids).tolist() if k]
    draw = pattern is None
    for k in visible:
        pixels = np.flatnonzero(ids == k)
        if draw:
            pattern = rng.choice([*STRUCTURED_PATTERNS, "none"] if len(visible) > 1
                                 else ["split", "shift", "ball", "none"])
        if pattern == "push":
            p, _, e = _pushed_pixel(ann, k, radius, rng)
            errors[p] = e
        elif pattern == "split":
            e = radius * _unit(rng.normal(size=FEATURE_DIM))
            half = rng.permutation(pixels)[:pixels.size // 2]
            errors[pixels] = e
            errors[half] = -e
        elif pattern == "shift":
            errors[pixels] = radius * _unit(rng.normal(size=FEATURE_DIM))
        elif pattern == "ball":
            errors[pixels] = _ball(rng, pixels.size, radius)
    return errors


def _with_errors(ann, errors):
    pred = oracle_predict(ann)
    pred.xi_hat = ann.xi_map.astype(np.float64) + errors.reshape(ann.xi_map.shape)
    return pred


def _camera(res):
    return CameraIntrinsics(float(res), float(res), res / 2.0, res / 2.0, res, res)


@settings(max_examples=150, deadline=None)
@given(scene_seed=st.integers(0, 2**31 - 1), field_seed=st.integers(0, 2**32 - 1),
       res=st.integers(24, 64), count_range=st.sampled_from([(1, 3), (2, 5), (4, 8)]),
       frac=st.floats(0.0, 0.499))
def test_seeding_recovers_the_partition_under_structured_errors_below_half_min_radius(
        scene_seed, field_seed, res, count_range, frac):
    try:
        scene = sample_scene(scene_seed, GeneratorConfig(count_range=count_range,
                                                         camera=_camera(res)))
    except PlacementError:
        assume(False)
    frame = render(scene)
    ann = annotate(scene, frame)
    assume(ann.fg_mask.any())
    min_b = float(ann.b_map[ann.fg_mask].min())
    pred = _with_errors(ann, _structured_errors(ann, frac * min_b,
                                                np.random.default_rng(field_seed)))
    assert np.linalg.norm(pred.xi_hat - ann.xi_map, axis=-1).max() < 0.5 * min_b
    assert same_partition(seed_segmentation(pred).labels, frame.instance_map)
    # The E-step may move pixels between instances, never in or out of the foreground.
    assert np.array_equal(segment(pred).labels > 0, ann.fg_mask)


def pushed_pixel_scene():
    """(prediction, annotation, pushed pixel, the neighbour's pixels) of scene 0 at 64x64.

    One pixel of the largest visible object is pushed 0.49 minB toward its
    nearest visible object, whose pixels get uniform-ball errors of that
    radius.
    """
    scene = sample_scene(0, GeneratorConfig(count_range=(2, 5), camera=_camera(64)))
    ann = annotate(scene, render(scene))
    ids = ann.instance_map.ravel()
    min_b = float(ann.b_map[ann.fg_mask].min())
    largest = int(np.argmax(np.bincount(ids)[1:])) + 1
    p, near, e = _pushed_pixel(ann, largest, 0.49 * min_b)
    errors = np.zeros((ids.size, FEATURE_DIM))
    errors[p] = e
    neighbour = np.flatnonzero(ids == near)
    errors[neighbour] = _ball(np.random.default_rng(0), neighbour.size, 0.49 * min_b)
    return _with_errors(ann, errors), ann, p, neighbour


def test_the_e_step_moves_a_pushed_pixel_that_seeding_keeps():
    # Seeding keeps the partition; the E-step scores the pushed pixel under
    # the largest object's tight component and the neighbour's broad one, and
    # moves it to the neighbour.
    pred, ann, p, neighbour = pushed_pixel_scene()
    seeded = seed_segmentation(pred)
    assert same_partition(seeded.labels, ann.instance_map)
    refined = segment(pred)
    assert np.flatnonzero(refined.labels != seeded.labels).tolist() == [p]
    assert refined.labels.flat[p] == seeded.labels.flat[neighbour[0]]
