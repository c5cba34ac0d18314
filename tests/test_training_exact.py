"""The in-place training path against the out-of-place reference definitions.

The library builds the MLP's input rows, forward and backward passes and
the five loss terms in place; tests/reference_predictor.py and
tests/reference_losses.py hold the original definitions. Every logit,
cache array, loss value and gradient must agree bit for bit, and so must
the files `train` and `infer --predictor mlp` write.
"""

import os

import numpy as np
import pytest

from clusterseg import cli
from clusterseg.annotation import Annotation
from clusterseg.geometry import CameraIntrinsics
from clusterseg.losses import (LogitPrediction, LossBreakdown, LossWeights, center_loss,
                               pixel_loss, semantic_mask_loss, total_loss, variance_loss,
                               violation_loss)
from clusterseg.predictor import (MlpModel, frame_features, init_model, mlp_backward,
                                  mlp_forward, parameter_views, save_checkpoint)

from conftest import make_example
from reference_losses import (reference_center_loss, reference_pixel_loss,
                              reference_semantic_mask_loss, reference_to_prediction,
                              reference_total_loss, reference_variance_loss,
                              reference_violation_loss)
from reference_predictor import (reference_frame_features, reference_mlp_backward,
                                 reference_mlp_forward, reference_vector)

BUMPED = LossWeights(lambda_var=100.0, lambda_vio=100.0)
BREAKDOWN_FIELDS = ("l_s", "l_cen", "l_p", "l_var", "l_vio", "total",
                    "grad_xi", "grad_b", "grad_eta_logits", "grad_mask_logits")


def _assert_same(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), what
    assert got.tobytes() == want.tobytes(), what


def _assert_same_breakdown(got, want):
    for name in BREAKDOWN_FIELDS:
        _assert_same(getattr(got, name), getattr(want, name), name)


def _assert_same_step(model, frame, ann, weights):
    """Forward, loss, probabilities and backward equal the reference's."""
    _assert_same(frame_features(frame), reference_frame_features(frame), "x")
    pred, cache = mlp_forward(model, frame)
    ref_pred, ref_cache = reference_mlp_forward(model, frame)
    for name in ("xi_hat", "b_hat", "eta_logits", "mask_logits"):
        _assert_same(getattr(pred, name), getattr(ref_pred, name), name)
    assert cache.keys() == ref_cache.keys()
    for key in cache:
        _assert_same(cache[key], ref_cache[key], key)
    probs, ref_probs = pred.to_prediction(), reference_to_prediction(ref_pred)
    for name in ("xi_hat", "eta_hat", "b_hat", "mask_prob"):
        _assert_same(getattr(probs, name), getattr(ref_probs, name), name)
    breakdown = total_loss(pred, ann, weights)
    _assert_same_breakdown(breakdown, reference_total_loss(ref_pred, ann, weights))
    ref_grads = reference_mlp_backward(model, ref_cache, breakdown)
    grad = mlp_backward(model, cache, breakdown)
    _assert_same(grad, reference_vector(ref_grads), "gradient vector")
    grads = parameter_views(grad)
    assert grads.keys() == ref_grads.keys()
    for key in grads:
        _assert_same(grads[key], ref_grads[key], key)


def _empty_annotation(H, W):
    return Annotation(xi_map=np.zeros((H, W, 9)), eta_gt=np.zeros((H, W), dtype=bool),
                      b_map=np.zeros((H, W)), fg_mask=np.zeros((H, W), dtype=bool),
                      per_object_xi=np.zeros((0, 9)),
                      instance_map=np.zeros((H, W), dtype=np.int32))


@pytest.mark.parametrize("size", [16, 24, 32, 48, 64])
def test_training_step_equals_reference(size):
    camera = CameraIntrinsics(float(size), float(size), size / 2.0, size / 2.0, size, size)
    for seed in range(3):
        _, frame, ann = make_example(seed=seed + size, camera=camera)
        assert ann.fg_mask.any()
        for weights in (LossWeights(), BUMPED):
            _assert_same_step(init_model(seed), frame, ann, weights)


def test_scratch_buffers_are_reused_and_change_no_bit():
    # 16x16, 24x24, then two more 16x16 frames: the buffers are reallocated
    # at each change of size and reused while it holds.
    steps = []
    for seed, size in ((1, 16), (2, 24), (3, 16), (4, 16)):
        camera = CameraIntrinsics(float(size), float(size), size / 2.0, size / 2.0, size, size)
        _, frame, ann = make_example(seed=seed, camera=camera)
        steps.append((frame, ann))
    plain = init_model(5)
    model = MlpModel(plain.vector, scratch={})
    caches, buffers = [], []
    for frame, ann in steps:
        pred, cache = mlp_forward(model, frame)
        plain_pred, plain_cache = mlp_forward(plain, frame)
        ref_pred, ref_cache = reference_mlp_forward(plain, frame)
        for name in ("xi_hat", "b_hat", "eta_logits", "mask_logits"):
            _assert_same(getattr(pred, name), getattr(plain_pred, name), name)
            _assert_same(getattr(pred, name), getattr(ref_pred, name), name)
        breakdown = total_loss(pred, ann, BUMPED)
        _assert_same_breakdown(breakdown, total_loss(plain_pred, ann, BUMPED))
        ref_grads = reference_mlp_backward(plain, ref_cache, breakdown)
        plain_grad = mlp_backward(plain, plain_cache, breakdown)
        grad = mlp_backward(model, cache, breakdown)
        _assert_same(grad, plain_grad, "gradient vector")
        _assert_same(grad, reference_vector(ref_grads), "gradient vector")
        grads, plain_grads = parameter_views(grad), parameter_views(plain_grad)
        assert grads.keys() == plain_grads.keys() == ref_grads.keys()
        for key in grads:
            _assert_same(grads[key], plain_grads[key], key)
            _assert_same(grads[key], ref_grads[key], key)
        caches.append(cache)
        assert model.scratch.keys() == {"h1", "h2"}
        buffers.append(dict(model.scratch))
    for key in ("h1", "h2"):
        assert not np.shares_memory(caches[0][key], caches[1][key]), key
        assert np.shares_memory(caches[2][key], caches[3][key]), key
        assert buffers[3][key] is buffers[2][key] is not buffers[1][key], key
    assert plain.scratch is None


def test_training_step_on_an_empty_foreground_equals_reference():
    _, frame, _ = make_example(seed=1)
    H, W = frame.depth.shape
    for weights in (LossWeights(), BUMPED):
        _assert_same_step(init_model(2), frame, _empty_annotation(H, W), weights)


def test_negative_zeros_equal_reference():
    _, frame, ann = make_example(seed=5)
    frame.rgb = np.where(frame.rgb == 0, np.float32(-0.0), frame.rgb)
    frame.rgb[::3, ::2] = -0.0
    frame.xyz = frame.xyz.copy()
    frame.xyz[1::2] = -0.0
    frame.depth = frame.depth.copy()
    frame.depth[::4] = -0.0
    model = init_model(4)
    for name, value in model.params.items():
        value[np.abs(value) < 0.3] = -0.0
        if name.startswith("b"):
            value[:] = -0.0
    _assert_same_step(model, frame, ann, LossWeights())

    # Negative-zero head gradients: every layer gradient is a sum of -0.0
    # products, whose sign the accumulation must keep as the reference does.
    H, W = frame.depth.shape
    upstream = LossBreakdown(l_s=0.0, l_cen=0.0, l_p=0.0, l_var=0.0, l_vio=0.0, total=0.0,
                             grad_xi=np.full((H, W, 9), -0.0), grad_b=np.full((H, W), -0.0),
                             grad_eta_logits=np.full((H, W, 2), -0.0),
                             grad_mask_logits=np.full((H, W, 2), -0.0))
    _, cache = mlp_forward(model, frame)
    _, ref_cache = reference_mlp_forward(model, frame)
    ref_grads = reference_mlp_backward(model, ref_cache, upstream)
    grads = parameter_views(mlp_backward(model, cache, upstream))
    for key in grads:
        _assert_same(grads[key], ref_grads[key], key)

    pred = LogitPrediction(xi_hat=np.where(ann.fg_mask[..., None], ann.xi_map, -0.0),
                           b_hat=np.full(ann.b_map.shape, -0.0),
                           eta_logits=np.full((H, W, 2), -0.0),
                           mask_logits=np.full((H, W, 2), -0.0))
    _assert_same_breakdown(total_loss(pred, ann), reference_total_loss(pred, ann))


def _extreme_logits(rng, shape):
    values = np.array([1e300, -1e300, np.inf, -np.inf, 0.0, -0.0, 5.0, -5.0, 1e-300,
                       709.0, -745.0])
    logits = rng.choice(values, size=(*shape, 2))
    tied = rng.random(shape) < 0.3
    logits[tied, 1] = logits[tied, 0]
    return logits


def test_saturated_and_tied_logits_equal_reference():
    rng = np.random.default_rng(7)
    _, _, ann = make_example(seed=2)
    H, W = ann.fg_mask.shape
    for trial in range(4):
        pred = LogitPrediction(xi_hat=ann.xi_map + rng.normal(0.0, 0.3, size=(H, W, 9)),
                               b_hat=ann.b_map + rng.normal(0.0, 0.3, size=(H, W)),
                               eta_logits=_extreme_logits(rng, (H, W)),
                               mask_logits=_extreme_logits(rng, (H, W)))
        with np.errstate(invalid="ignore"):  # inf - inf where both channels are infinite
            for weights in (LossWeights(), BUMPED):
                _assert_same_breakdown(total_loss(pred, ann, weights),
                                       reference_total_loss(pred, ann, weights))
            probs, ref_probs = pred.to_prediction(), reference_to_prediction(pred)
        _assert_same(probs.eta_hat, ref_probs.eta_hat, "eta_hat")
        _assert_same(probs.mask_prob, ref_probs.mask_prob, "mask_prob")


def test_nan_logits_give_nan_where_the_reference_does():
    # Only a NaN's sign bit may differ from the reference: which NaN operand
    # a channel maximum propagates is not fixed.
    rng = np.random.default_rng(11)
    _, _, ann = make_example(seed=2)
    H, W = ann.fg_mask.shape
    logits = rng.choice(np.array([np.nan, -np.nan, np.inf, 1.0, -0.0]), size=(H, W, 2))
    pred = LogitPrediction(xi_hat=ann.xi_map.copy(), b_hat=ann.b_map.copy(),
                           eta_logits=logits, mask_logits=logits[:, ::-1].copy())
    with np.errstate(invalid="ignore"):
        got, want = total_loss(pred, ann), reference_total_loss(pred, ann)
        probs, ref_probs = pred.to_prediction(), reference_to_prediction(pred)
    for name in ("grad_eta_logits", "grad_mask_logits"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    for name in ("eta_hat", "mask_prob"):
        assert np.array_equal(getattr(probs, name), getattr(ref_probs, name), equal_nan=True)


def test_each_loss_term_equals_reference():
    rng = np.random.default_rng(3)
    _, _, ann = make_example(seed=4)
    H, W = ann.fg_mask.shape
    xi_hat = ann.xi_map + rng.normal(0.0, 0.2, size=(H, W, 9))
    b_hat = ann.b_map + rng.normal(0.0, 0.2, size=(H, W))
    logits = rng.normal(0.0, 3.0, size=(H, W, 2))
    pairs = [
        (semantic_mask_loss(logits, ann.fg_mask),
         reference_semantic_mask_loss(logits, ann.fg_mask)),
        (semantic_mask_loss(logits, ann.fg_mask.astype(np.int64)),
         reference_semantic_mask_loss(logits, ann.fg_mask)),
        (center_loss(logits, ann.eta_gt, ann.fg_mask),
         reference_center_loss(logits, ann.eta_gt, ann.fg_mask)),
        (pixel_loss(xi_hat, b_hat, ann, 1.0, 10.0),
         reference_pixel_loss(xi_hat, b_hat, ann, 1.0, 10.0)),
        (variance_loss(xi_hat, ann.instance_map),
         reference_variance_loss(xi_hat, ann.instance_map)),
        (violation_loss(xi_hat, ann, 0.2), reference_violation_loss(xi_hat, ann, 0.2)),
    ]
    for got, want in pairs:
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same(a, b, "term")


# --------------------------------------------------------------------------
# CLI outputs

def _run(*argv):
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)


def _use_reference_definitions(monkeypatch):
    monkeypatch.setattr(cli, "mlp_forward", reference_mlp_forward)
    monkeypatch.setattr(cli, "mlp_backward",
                        lambda *args: reference_vector(reference_mlp_backward(*args)))
    monkeypatch.setattr(cli, "total_loss", reference_total_loss)
    monkeypatch.setattr(LogitPrediction, "to_prediction", reference_to_prediction)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    ds = tmp_path_factory.mktemp("train16") / "ds"
    assert _run("gen", "--count", "2", "--res", "16x16", "--objects", "1..1",
                "--sizes", "0.15..0.25", "--seed", "3", "--out", ds) == 0
    return ds


def _train_outputs(ds, out):
    """Checkpoints and logs of a 3-epoch run, a 2-epoch run and its resumption to 3."""
    def train(epochs, name, *extra):
        assert _run("train", "--dataset", ds, "--out", out / name, "--epochs", epochs,
                    "--batch", "2", "--lr", "3e-3", "--bump-epoch", "1", "--seed", "4",
                    *extra) == 0
    train(3, "full.ckpt")
    train(2, "part.ckpt")
    train(3, "resumed.ckpt", "--resume", out / "part.ckpt")
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def test_train_writes_the_reference_loops_bytes(tiny_dataset, tmp_path, monkeypatch):
    (tmp_path / "lib").mkdir()
    (tmp_path / "ref").mkdir()
    got = _train_outputs(tiny_dataset, tmp_path / "lib")
    _use_reference_definitions(monkeypatch)
    want = _train_outputs(tiny_dataset, tmp_path / "ref")
    assert got.keys() == want.keys()
    for name in got:
        assert got[name] == want[name], name


def _segmentation_bytes(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_infer_mlp_bytes_equal_reference_at_any_jobs(tiny_dataset, tmp_path, monkeypatch):
    model = tmp_path / "model.ckpt"
    save_checkpoint(model, init_model(0))
    outputs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert _run("infer", "--dataset", tiny_dataset, "--out", out, "--predictor", "mlp",
                    "--model", model, "--jobs", jobs) == 0
        outputs[jobs] = _segmentation_bytes(out)
    _use_reference_definitions(monkeypatch)
    assert _run("infer", "--dataset", tiny_dataset, "--out", tmp_path / "ref",
                "--predictor", "mlp", "--model", model, "--jobs", "1") == 0
    assert outputs[1] == outputs[2] == _segmentation_bytes(tmp_path / "ref")
