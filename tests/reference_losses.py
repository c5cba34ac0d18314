"""Out-of-place reference definitions of the training losses.

These are the original definitions: every intermediate is a fresh array,
the cross-entropy takes two exponentials (one for the log-sum-exp, one
for the softmax) and selects the target channel with
take_along_axis/put_along_axis, and the pixel and violation terms each
form their own foreground difference. The library's in-place losses must
reproduce them bit for bit; the tests compare the two.
"""

import numpy as np

from clusterseg.annotation import Annotation
from clusterseg.clustering import Prediction
from clusterseg.losses import LogitPrediction, LossBreakdown, LossWeights


def reference_to_prediction(pred: LogitPrediction) -> Prediction:
    """LogitPrediction.to_prediction: the probability-space view."""
    return Prediction(
        xi_hat=pred.xi_hat,
        eta_hat=_softmax(pred.eta_logits)[..., 1],
        b_hat=np.maximum(pred.b_hat, 0.0),
        mask_prob=_softmax(pred.mask_logits)[..., 1],
    )


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _cross_entropy(logits: np.ndarray, target: np.ndarray):
    # Per-pixel CE of 2-channel logits against a {0,1} target, plus the
    # gradient before any averaging: softmax - onehot.
    z = logits.astype(np.float64)
    m = z.max(axis=-1)
    lse = m + np.log(np.exp(z - m[..., None]).sum(axis=-1))
    channel = target[..., None].astype(np.int64)
    picked = np.take_along_axis(z, channel, axis=-1)[..., 0]
    ce = lse - picked
    grad = _softmax(z)
    np.put_along_axis(grad, channel,
                      np.take_along_axis(grad, channel, axis=-1) - 1.0, axis=-1)
    return ce, grad


def reference_semantic_mask_loss(mask_logits: np.ndarray, fg_gt: np.ndarray):
    """Foreground/background CE averaged over every pixel."""
    target = np.asarray(fg_gt).astype(np.int64)
    ce, grad = _cross_entropy(mask_logits, target)
    n = ce.size
    return float(ce.mean()), grad / n


def reference_center_loss(eta_logits: np.ndarray, eta_gt: np.ndarray, fg_gt: np.ndarray):
    """Centroid-candidate CE averaged over ground-truth foreground pixels only."""
    fg = np.asarray(fg_gt, dtype=bool)
    n_fg = int(fg.sum())
    grad = np.zeros_like(eta_logits, dtype=np.float64)
    if n_fg == 0:
        return 0.0, grad
    target = np.asarray(eta_gt).astype(np.int64)
    ce, g = _cross_entropy(eta_logits, target)
    grad[fg] = g[fg] / n_fg
    return float(ce[fg].mean()), grad


def reference_pixel_loss(xi_hat: np.ndarray, b_hat: np.ndarray, ann: Annotation,
                         lambda_xi: float, lambda_b: float):
    """Squared-error regression on features and radii over foreground pixels."""
    fg = ann.fg_mask
    n_fg = int(fg.sum())
    grad_xi = np.zeros_like(xi_hat, dtype=np.float64)
    grad_b = np.zeros_like(b_hat, dtype=np.float64)
    if n_fg == 0:
        return 0.0, grad_xi, grad_b
    dxi = xi_hat[fg] - ann.xi_map[fg]
    db = b_hat[fg] - ann.b_map[fg]
    loss = lambda_xi * float(np.sum(dxi * dxi)) / n_fg + lambda_b * float(np.sum(db * db)) / n_fg
    grad_xi[fg] = lambda_xi * 2.0 * dxi / n_fg
    grad_b[fg] = lambda_b * 2.0 * db / n_fg
    return loss, grad_xi, grad_b


def reference_variance_loss(xi_hat: np.ndarray, instance_map: np.ndarray):
    """Sum over objects of the mean squared deviation from the object mean.

    The gradient through the mean cancels exactly, leaving
    2 (xi - mean) / N_k per member pixel; it therefore sums to zero within
    each object.
    """
    loss = 0.0
    grad = np.zeros_like(xi_hat, dtype=np.float64)
    for k in np.unique(instance_map):
        if k == 0:
            continue
        sel = instance_map == k
        members = xi_hat[sel]
        # mean computed about the first member: exact for constant clusters
        mu = members[0] + (members - members[0]).mean(axis=0)
        d = members - mu
        loss += float(np.sum(d * d)) / members.shape[0]
        grad[sel] = 2.0 * d / members.shape[0]
    return loss, grad


def reference_violation_loss(xi_hat: np.ndarray, ann: Annotation, lambda_v: float):
    """Unsquared error-norm penalty on pixels straying past lambda_v * B.

    The indicator is treated as locally constant, so the gradient on a
    violating pixel is the unit vector toward the prediction.
    """
    fg = ann.fg_mask
    grad = np.zeros_like(xi_hat, dtype=np.float64)
    d = xi_hat[fg] - ann.xi_map[fg]
    norms = np.linalg.norm(d, axis=-1)
    firing = norms > lambda_v * ann.b_map[fg]
    loss = float(norms[firing].sum())
    g = np.zeros_like(d)
    g[firing] = d[firing] / norms[firing, None]
    grad[fg] = g
    return loss, grad


def reference_total_loss(pred: LogitPrediction, ann: Annotation,
                         weights: LossWeights = LossWeights()) -> LossBreakdown:
    """Weighted sum of all five terms with accumulated gradients."""
    l_s, g_mask = reference_semantic_mask_loss(pred.mask_logits, ann.fg_mask)
    l_cen, g_eta = reference_center_loss(pred.eta_logits, ann.eta_gt, ann.fg_mask)
    l_p_raw, g_xi_p, g_b = reference_pixel_loss(pred.xi_hat, pred.b_hat, ann,
                                                weights.lambda_xi, weights.lambda_b)
    l_var, g_xi_var = reference_variance_loss(pred.xi_hat, ann.instance_map)
    l_vio, g_xi_vio = reference_violation_loss(pred.xi_hat, ann, weights.lambda_v)

    l_p = weights.lambda_p * l_p_raw
    total = (weights.lambda_s * l_s + weights.lambda_cen * l_cen + l_p
             + weights.lambda_var * l_var + weights.lambda_vio * l_vio)
    return LossBreakdown(
        l_s=l_s, l_cen=l_cen, l_p=l_p, l_var=l_var, l_vio=l_vio, total=total,
        grad_xi=(weights.lambda_p * g_xi_p
                 + weights.lambda_var * g_xi_var
                 + weights.lambda_vio * g_xi_vio),
        grad_b=weights.lambda_p * g_b,
        grad_eta_logits=weights.lambda_cen * g_eta,
        grad_mask_logits=weights.lambda_s * g_mask,
    )
