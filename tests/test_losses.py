import math
import re

import numpy as np
import pytest

from clusterseg.annotation import Annotation
from clusterseg.cli import gradcheck_inputs
from clusterseg import losses
from clusterseg.errors import ClusterSegError, ShapeMismatchError, TargetError
from clusterseg.losses import (LogitPrediction, LossWeights, center_loss,
                               finite_diff_check, pixel_loss, semantic_mask_loss,
                               total_loss, variance_loss, violation_loss)

from conftest import make_example, oracle_logits

LN2 = math.log(2.0)


def _blank_annotation(H, W, K=0):
    return Annotation(
        xi_map=np.zeros((H, W, 9)),
        eta_gt=np.zeros((H, W), dtype=bool),
        b_map=np.zeros((H, W)),
        fg_mask=np.zeros((H, W), dtype=bool),
        per_object_xi=np.zeros((K, 9)),
        instance_map=np.zeros((H, W), dtype=np.int32),
    )


def test_semantic_mask_loss_uniform_logits():
    fg = np.zeros((4, 4), dtype=bool)
    fg[1, 1] = True
    loss, grad = semantic_mask_loss(np.zeros((4, 4, 2)), fg)
    assert loss == pytest.approx(LN2, abs=1e-12)
    assert grad.shape == (4, 4, 2)
    # softmax-minus-onehot gradients sum to zero across channels
    assert np.allclose(grad.sum(axis=-1), 0.0, atol=1e-15)


def test_semantic_mask_loss_saturated():
    fg = np.ones((2, 2), dtype=bool)
    logits = np.zeros((2, 2, 2))
    logits[..., 0] = -50.0
    logits[..., 1] = 50.0
    loss, _ = semantic_mask_loss(logits, fg)
    assert loss < 1e-6


def test_semantic_mask_loss_two_pixel_hand_case():
    # logits (1,0) with gt=bg and (0,1) with gt=fg give identical CE values
    logits = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    fg = np.array([[False, True]])
    loss, _ = semantic_mask_loss(logits, fg)
    assert loss == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)


def test_center_loss_uniform_and_empty():
    fg = np.ones((3, 3), dtype=bool)
    eta = np.zeros((3, 3), dtype=bool)
    loss, _ = center_loss(np.zeros((3, 3, 2)), eta, fg)
    assert loss == pytest.approx(LN2, abs=1e-12)
    loss, grad = center_loss(np.zeros((3, 3, 2)), eta, np.zeros((3, 3), dtype=bool))
    assert loss == 0.0
    assert not grad.any()


def test_center_loss_hand_case():
    fg = np.array([[True]])
    eta = np.array([[True]])
    logits = np.array([[[0.0, math.log(3.0)]]])  # softmax = (1/4, 3/4)
    loss, _ = center_loss(logits, eta, fg)
    assert loss == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)


def test_center_loss_ignores_background():
    fg = np.zeros((2, 2), dtype=bool)
    fg[0, 0] = True
    eta = np.zeros((2, 2), dtype=bool)
    logits = np.zeros((2, 2, 2))
    logits[1, 1] = [5.0, -7.0]  # background pixel must not contribute
    loss, grad = center_loss(logits, eta, fg)
    assert loss == pytest.approx(LN2, abs=1e-12)
    assert not grad[1, 1].any()


def test_pixel_loss_cases():
    ann = _blank_annotation(1, 1)
    ann.fg_mask[0, 0] = True
    ann.b_map[0, 0] = 1.0
    xi_hat = ann.xi_map.copy()
    b_hat = ann.b_map.copy()
    loss, gxi, gb = pixel_loss(xi_hat, b_hat, ann, 1.0, 10.0)
    assert loss == 0.0

    xi_hat = ann.xi_map.copy()
    xi_hat[0, 0, 0] = 1.0  # unit-vector feature error
    loss, gxi, _ = pixel_loss(xi_hat, ann.b_map, ann, 1.0, 0.0)
    assert loss == pytest.approx(1.0, abs=1e-12)
    assert gxi[0, 0, 0] == pytest.approx(2.0, abs=1e-12)

    b_hat = ann.b_map + 0.5
    loss, _, gb = pixel_loss(ann.xi_map, b_hat, ann, 0.0, 10.0)
    assert loss == pytest.approx(2.5, abs=1e-12)  # 10 * 0.25
    assert gb[0, 0] == pytest.approx(10.0, abs=1e-12)


def test_variance_loss_cases():
    im = np.zeros((1, 4), dtype=np.int32)
    xi = np.zeros((1, 4, 9))
    loss, grad = variance_loss(xi, im)
    assert loss == 0.0

    im[0, :2] = 1
    xi[0, 1, 0] = 1.0  # two pixels at 0 and e1: mean 0.5, deviations 0.25 each
    loss, grad = variance_loss(xi, im)
    assert loss == pytest.approx(0.25, abs=1e-12)
    # gradient sums to zero within the object
    assert np.allclose(grad[0, :2].sum(axis=0), 0.0, atol=1e-15)

    im[0, 2:] = 2
    xi[0, 3, 1] = 1.0
    loss, _ = variance_loss(xi, im)
    assert loss == pytest.approx(0.5, abs=1e-12)


def test_violation_loss_cases():
    ann = _blank_annotation(1, 3)
    ann.fg_mask[:] = True
    ann.b_map[:] = 1.0
    xi_hat = np.zeros((1, 3, 9))
    xi_hat[0, 0, 0] = 0.1   # below threshold 0.2
    loss, grad = violation_loss(xi_hat, ann, 0.2)
    assert loss == 0.0
    assert not grad[0, 0].any()

    xi_hat[0, 1, 0] = 0.5
    xi_hat[0, 2, 0] = 2.0
    loss, grad = violation_loss(xi_hat, ann, 0.2)
    assert loss == pytest.approx(2.5, abs=1e-12)  # 0.5 + 2.0, the 0.1 stays silent
    # gradient on a firing pixel is the unit error vector
    assert grad[0, 1, 0] == pytest.approx(1.0, abs=1e-12)
    assert grad[0, 2, 0] == pytest.approx(1.0, abs=1e-12)


def test_total_loss_oracle_is_classification_only():
    _, _, ann = make_example(seed=0)
    pred = oracle_logits(ann, magnitude=50.0)
    bd = total_loss(pred, ann)
    assert bd.l_p == 0.0
    assert bd.l_var == 0.0
    assert bd.l_vio == 0.0
    assert bd.total < 1e-6
    assert not bd.grad_xi.any()
    assert not bd.grad_b.any()


def test_total_loss_weight_scaling():
    _, _, ann = make_example(seed=1)
    rng = np.random.default_rng(3)
    pred = LogitPrediction(
        xi_hat=ann.xi_map + rng.normal(0, 0.3, size=ann.xi_map.shape),
        b_hat=ann.b_map + rng.normal(0, 0.3, size=ann.b_map.shape),
        eta_logits=rng.normal(size=(*ann.b_map.shape, 2)),
        mask_logits=rng.normal(size=(*ann.b_map.shape, 2)),
    )
    only_s = total_loss(pred, ann, LossWeights(lambda_cen=0, lambda_var=0,
                                               lambda_vio=0.0, lambda_p=0))
    assert only_s.total == pytest.approx(only_s.l_s, abs=1e-12)

    base = total_loss(pred, ann, LossWeights())
    bumped = total_loss(pred, ann, LossWeights(lambda_var=100.0))
    assert bumped.l_var == base.l_var
    assert bumped.total - base.total == pytest.approx(99.0 * base.l_var, rel=1e-12)


def test_total_loss_terms_nonnegative_and_monotone():
    _, _, ann = make_example(seed=2)
    rng = np.random.default_rng(4)
    pred = LogitPrediction(
        xi_hat=ann.xi_map + rng.normal(0, 0.5, size=ann.xi_map.shape),
        b_hat=rng.normal(0, 1, size=ann.b_map.shape),
        eta_logits=rng.normal(size=(*ann.b_map.shape, 2)),
        mask_logits=rng.normal(size=(*ann.b_map.shape, 2)),
    )
    bd = total_loss(pred, ann)
    for term in (bd.l_s, bd.l_cen, bd.l_p, bd.l_var, bd.l_vio):
        assert term >= 0.0
    breakdown_total = (1.0 * bd.l_s + 1.0 * bd.l_cen + bd.l_p
                       + 1.0 * bd.l_var + 1.0 * bd.l_vio)
    assert bd.total == pytest.approx(breakdown_total, rel=1e-12)
    for kwargs in ({"lambda_s": 2.0}, {"lambda_cen": 2.0}, {"lambda_var": 3.0},
                   {"lambda_vio": 3.0}, {"lambda_p": 200.0}):
        assert total_loss(pred, ann, LossWeights(**kwargs)).total >= bd.total - 1e-12


def test_loss_weights_validation():
    with pytest.raises(ClusterSegError):
        LossWeights(lambda_s=-1.0)
    with pytest.raises(ClusterSegError):
        LossWeights(lambda_v=0.0)
    with pytest.raises(ClusterSegError):
        LossWeights(lambda_v=1.5)


def test_finite_diff_quadratic_only():
    pred, ann = gradcheck_inputs(seed=0)
    weights = LossWeights(lambda_s=0.0, lambda_cen=0.0, lambda_vio=0.0)
    err = finite_diff_check(pred, ann, weights, epsilon=1e-3, samples=400, seed=1)
    assert err < 1e-6


def test_finite_diff_full_loss():
    pred, ann = gradcheck_inputs(seed=0)
    err = finite_diff_check(pred, ann, LossWeights(), epsilon=1e-4,
                            samples=400, seed=2)
    assert err < 1e-4


def test_finite_diff_detects_feature_gradient_offset():
    pred, ann = gradcheck_inputs(seed=0)
    assert finite_diff_check(pred, ann, LossWeights(), epsilon=1e-4, samples=300,
                             seed=0, xi_grad_offset=0.25) > 1e-4
    assert finite_diff_check(pred, ann, LossWeights(), epsilon=1e-4, samples=300,
                             seed=0, xi_grad_offset=0.0) < 1e-4


def test_finite_diff_epsilon_validation():
    pred, ann = gradcheck_inputs(seed=0)
    with pytest.raises(ClusterSegError):
        finite_diff_check(pred, ann, epsilon=1e-2)


@pytest.mark.parametrize("samples", [0, -5])
def test_finite_diff_with_no_samples_raises(samples):
    pred, ann = gradcheck_inputs(seed=0)
    with pytest.raises(ClusterSegError, match="samples"):
        finite_diff_check(pred, ann, samples=samples)


class _DrawsFeatureCoordinateZero:
    def integers(self, low, high):
        return 0


def test_finite_diff_with_every_draw_skipped_raises(monkeypatch):
    # Pixel (0, 0) sits exactly on the violation threshold, and every draw
    # lands on its first feature coordinate, which the check must skip.
    _, _, ann = make_example(seed=0)
    ann.fg_mask[0, 0] = True
    ann.b_map[0, 0] = 1.0
    pred = oracle_logits(ann)
    pred.xi_hat[0, 0] = ann.xi_map[0, 0]
    pred.xi_hat[0, 0, 0] += 0.2
    monkeypatch.setattr(losses, "stream_rng", lambda seed, stream: _DrawsFeatureCoordinateZero())
    with pytest.raises(ClusterSegError, match="no gradient coordinate"):
        finite_diff_check(pred, ann, LossWeights(lambda_v=0.2), samples=3)


@pytest.mark.parametrize("bad", [-1, 2])
def test_losses_reject_a_target_outside_zero_and_one(bad):
    logits = np.zeros((3, 4, 2))
    target = np.zeros((3, 4), dtype=np.int64)
    fg = np.ones((3, 4), dtype=bool)
    target[1, 2] = bad
    with pytest.raises(TargetError, match=str(bad)):
        semantic_mask_loss(logits, target)
    with pytest.raises(TargetError, match=str(bad)):
        center_loss(logits, target, fg)
    # an empty foreground does not excuse a bad target
    with pytest.raises(TargetError):
        center_loss(logits, target, ~fg)


@pytest.mark.parametrize("shape", [(4, 3), (1, 4), (3, 4, 1)])
def test_losses_reject_a_target_of_another_shape(shape):
    # (1, 4) would broadcast against the (3, 4) logits without the check.
    logits = np.zeros((3, 4, 2))
    target = np.zeros(shape, dtype=bool)
    fg = np.ones((3, 4), dtype=bool)
    with pytest.raises(ShapeMismatchError, match=re.escape(f"target has shape {shape}")):
        semantic_mask_loss(logits, target)
    with pytest.raises(ShapeMismatchError):
        center_loss(logits, target, fg)


def test_background_feature_gradient_is_zero():
    _, _, ann = make_example(seed=0)
    pred = oracle_logits(ann)
    bd = total_loss(pred, ann)
    bg = np.argwhere(~ann.fg_mask)[0]
    assert not bd.grad_xi[bg[0], bg[1]].any()
    # perturbing a background feature leaves the loss untouched
    pred.xi_hat[bg[0], bg[1], 0] += 0.37
    assert total_loss(pred, ann).total == bd.total
