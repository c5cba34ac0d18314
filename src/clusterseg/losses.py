"""Training losses with hand-derived gradients.

Five terms make up the objective:

  l_s    softmax cross-entropy of the foreground mask, mean over all pixels
  l_cen  softmax cross-entropy of the centroid-candidate head, mean over
         ground-truth foreground pixels
  l_p    squared-error regression of the object feature and the enclosing
         radius, means over foreground, weighted per attribute and scaled
         by an overall pixel-loss multiplier
  l_var  per-object feature variance (sum over objects of the mean squared
         deviation from the object's mean prediction)
  l_vio  sum of unsquared feature-error norms over pixels whose error
         exceeds violation_fraction times the pixel's ground-truth radius

total = lambda_s * l_s + lambda_cen * l_cen + l_p
        + lambda_var * l_var + lambda_vio * l_vio

The two classification heads take 2-channel logits (background, foreground)
and are evaluated with a log-sum-exp so saturated logits stay finite.
Gradients are returned for every head output; finite_diff_check verifies
them against central differences.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .annotation import Annotation
from .clustering import Prediction
from .errors import ClusterSegError, ShapeMismatchError, TargetError
from .seeding import STREAM_CHECK, stream_rng


@dataclass
class LossWeights:
    """Loss-term weights. Defaults follow the training recipe in README."""

    lambda_s: float = 1.0
    lambda_cen: float = 1.0
    lambda_var: float = 1.0
    lambda_vio: float = 1.0
    lambda_p: float = 100.0
    lambda_xi: float = 1.0
    lambda_b: float = 10.0
    lambda_v: float = 0.2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "lambda_v" and not 0.0 < value <= 1.0:
                raise ClusterSegError(f"lambda_v must lie in (0, 1], got {value}")
            if not 0.0 <= value < math.inf:
                raise ClusterSegError(f"{f.name} must be finite and non-negative, got {value}")


@dataclass
class LogitPrediction:
    """Model outputs with the classification heads still in logit space."""

    xi_hat: np.ndarray       # H x W x 9
    b_hat: np.ndarray        # H x W (unclamped)
    eta_logits: np.ndarray   # H x W x 2 (background, foreground channel)
    mask_logits: np.ndarray  # H x W x 2

    def to_prediction(self) -> Prediction:
        """Probability-space view for the clustering stage.

        xi_hat is copied when it is not contiguous, as the MLP's column block
        of its (N, 14) head output is, so the prediction keeps no other head
        alive.
        """
        return Prediction(
            xi_hat=np.ascontiguousarray(self.xi_hat),
            eta_hat=_softmax(self.eta_logits)[..., 1],
            b_hat=np.maximum(self.b_hat, 0.0),
            mask_prob=_softmax(self.mask_logits)[..., 1],
        )


@dataclass
class LossBreakdown:
    """All loss terms plus gradients w.r.t. every head output."""

    l_s: float
    l_cen: float
    l_p: float
    l_var: float
    l_vio: float
    total: float
    grad_xi: np.ndarray = field(repr=False, default=None)
    grad_b: np.ndarray = field(repr=False, default=None)
    grad_eta_logits: np.ndarray = field(repr=False, default=None)
    grad_mask_logits: np.ndarray = field(repr=False, default=None)


def _shifted_exp(logits: np.ndarray):
    """exp(z - max) of 2-channel logits, with the channel max and the sum of the two."""
    # Channel by channel, the max and the sum equal the last-axis reductions
    # for every non-NaN input, at a fraction of their cost on a 2-long axis.
    z0, z1 = logits[..., 0], logits[..., 1]
    m = np.maximum(z0, z1)
    e = np.empty(logits.shape, dtype=m.dtype)
    np.subtract(z0, m, out=e[..., 0])
    np.subtract(z1, m, out=e[..., 1])
    np.exp(e, out=e)
    return e, m, e[..., 0] + e[..., 1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    e, _, total = _shifted_exp(logits)
    e /= total[..., None]
    return e


def _binary_target(target, logits: np.ndarray) -> np.ndarray:
    """A {0,1} target map as bool, checked against the logits it labels."""
    t = np.asarray(target)
    if t.shape != logits.shape[:-1]:
        raise ShapeMismatchError(f"target has shape {t.shape}, expected {logits.shape[:-1]}")
    if t.dtype == bool:
        return t
    one = t == 1
    valid = one | (t == 0)
    if not valid.all():
        raise TargetError(f"classification targets must be 0 or 1, got "
                          f"{np.unique(t[~valid]).tolist()}")
    return one


def _cross_entropy(logits: np.ndarray, target: np.ndarray):
    # Per-pixel CE of 2-channel logits against a bool target, plus the
    # gradient before any averaging: softmax - onehot. One exp(z - max)
    # serves both the log-sum-exp and the softmax.
    z = np.asarray(logits, dtype=np.float64)
    grad, m, total = _shifted_exp(z)
    ce = m + np.log(total)
    ce -= np.where(target, z[..., 1], z[..., 0])
    grad /= total[..., None]
    np.subtract(grad[..., 1], 1.0, out=grad[..., 1], where=target)
    np.subtract(grad[..., 0], 1.0, out=grad[..., 0], where=~target)
    return ce, grad


def semantic_mask_loss(mask_logits: np.ndarray, fg_gt: np.ndarray):
    """Foreground/background CE averaged over every pixel."""
    ce, grad = _cross_entropy(mask_logits, _binary_target(fg_gt, mask_logits))
    grad /= ce.size
    return float(ce.mean()), grad


def center_loss(eta_logits: np.ndarray, eta_gt: np.ndarray, fg_gt: np.ndarray):
    """Centroid-candidate CE averaged over ground-truth foreground pixels only."""
    target = _binary_target(eta_gt, eta_logits)
    fg = np.asarray(fg_gt, dtype=bool)
    n_fg = int(fg.sum())
    if n_fg == 0:
        return 0.0, np.zeros_like(eta_logits, dtype=np.float64)
    ce, grad = _cross_entropy(eta_logits, target)
    grad /= n_fg
    grad[~fg] = 0.0
    return float(ce[fg].mean()), grad


def _foreground_error(xi_hat: np.ndarray, ann: Annotation) -> np.ndarray:
    fg = ann.fg_mask
    return xi_hat[fg] - ann.xi_map[fg]


def pixel_loss(xi_hat: np.ndarray, b_hat: np.ndarray, ann: Annotation,
               lambda_xi: float, lambda_b: float, *, dxi: np.ndarray | None = None):
    """Squared-error regression on features and radii over foreground pixels.

    dxi, if given, is the foreground feature error xi_hat[fg] - xi_map[fg];
    it is only read.
    """
    fg = ann.fg_mask
    n_fg = int(fg.sum())
    grad_xi = np.zeros_like(xi_hat, dtype=np.float64)
    grad_b = np.zeros_like(b_hat, dtype=np.float64)
    if n_fg == 0:
        return 0.0, grad_xi, grad_b
    if dxi is None:
        dxi = _foreground_error(xi_hat, ann)
    db = b_hat[fg] - ann.b_map[fg]
    loss = lambda_xi * float(np.sum(dxi * dxi)) / n_fg + lambda_b * float(np.sum(db * db)) / n_fg
    g = lambda_xi * 2.0 * dxi
    g /= n_fg
    grad_xi[fg] = g
    db *= lambda_b * 2.0
    db /= n_fg
    grad_b[fg] = db
    return loss, grad_xi, grad_b


def variance_loss(xi_hat: np.ndarray, instance_map: np.ndarray):
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
        d *= 2.0
        d /= members.shape[0]
        grad[sel] = d
    return loss, grad


def violation_loss(xi_hat: np.ndarray, ann: Annotation, lambda_v: float, *,
                   dxi: np.ndarray | None = None):
    """Unsquared error-norm penalty on pixels straying past lambda_v * B.

    The indicator is treated as locally constant, so the gradient on a
    violating pixel is the unit vector toward the prediction. dxi is as in
    pixel_loss.
    """
    fg = ann.fg_mask
    grad = np.zeros_like(xi_hat, dtype=np.float64)
    d = _foreground_error(xi_hat, ann) if dxi is None else dxi
    norms = np.linalg.norm(d, axis=-1)
    firing = norms > lambda_v * ann.b_map[fg]
    loss = float(norms[firing].sum())
    g = np.zeros_like(d)
    np.divide(d, norms[:, None], out=g, where=firing[:, None])
    grad[fg] = g
    return loss, grad


@np.errstate(over="ignore", invalid="ignore")
def total_loss(pred: LogitPrediction, ann: Annotation,
               weights: LossWeights = LossWeights()) -> LossBreakdown:
    """Weighted sum of all five terms with accumulated gradients.

    Heads large enough to overflow give infinite or NaN terms without
    warnings; training rejects the resulting gradients (NonFiniteError).
    """
    l_s, g_mask = semantic_mask_loss(pred.mask_logits, ann.fg_mask)
    l_cen, g_eta = center_loss(pred.eta_logits, ann.eta_gt, ann.fg_mask)
    dxi = _foreground_error(pred.xi_hat, ann)
    l_p_raw, g_xi, g_b = pixel_loss(pred.xi_hat, pred.b_hat, ann,
                                    weights.lambda_xi, weights.lambda_b, dxi=dxi)
    l_var, g_xi_var = variance_loss(pred.xi_hat, ann.instance_map)
    l_vio, g_xi_vio = violation_loss(pred.xi_hat, ann, weights.lambda_v, dxi=dxi)

    l_p = weights.lambda_p * l_p_raw
    total = (weights.lambda_s * l_s + weights.lambda_cen * l_cen + l_p
             + weights.lambda_var * l_var + weights.lambda_vio * l_vio)
    # Every term's gradient is a fresh array of its own, so the weighted
    # sums are formed in place, in the order lambda_p + lambda_var + lambda_vio.
    g_xi *= weights.lambda_p
    g_xi_var *= weights.lambda_var
    g_xi += g_xi_var
    g_xi_vio *= weights.lambda_vio
    g_xi += g_xi_vio
    g_b *= weights.lambda_p
    g_eta *= weights.lambda_cen
    g_mask *= weights.lambda_s
    return LossBreakdown(
        l_s=l_s, l_cen=l_cen, l_p=l_p, l_var=l_var, l_vio=l_vio, total=total,
        grad_xi=g_xi, grad_b=g_b, grad_eta_logits=g_eta, grad_mask_logits=g_mask,
    )


def finite_diff_check(pred: LogitPrediction, ann: Annotation,
                      weights: LossWeights = LossWeights(),
                      epsilon: float = 1e-4, samples: int = 500,
                      seed: int = 0, xi_grad_offset: float = 0.0) -> float:
    """Max relative error between analytic gradients and central differences.

    Coordinates are drawn uniformly over all four head outputs. Feature
    coordinates whose pixel sits within 10 * epsilon of the violation-loss
    threshold are skipped: the loss is non-differentiable there.
    xi_grad_offset is added to every analytic feature gradient; a non-zero
    value is a negative control the check must fail. A check that draws no
    coordinate at all raises ClusterSegError rather than pass, and one whose
    loss overflows returns NaN, which no tolerance accepts.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ClusterSegError(f"epsilon must lie in [1e-7, 1e-3], got {epsilon}")
    if samples < 1:
        raise ClusterSegError(f"samples must be at least 1, got {samples}")
    rng = stream_rng(seed, STREAM_CHECK)
    base = total_loss(pred, ann, weights)
    fields = [("xi_hat", base.grad_xi + xi_grad_offset), ("b_hat", base.grad_b),
              ("eta_logits", base.grad_eta_logits), ("mask_logits", base.grad_mask_logits)]
    sizes = np.array([arr.size for _, arr in fields])
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    err_norms = np.linalg.norm(pred.xi_hat - ann.xi_map, axis=-1)
    threshold_gap = np.abs(err_norms - weights.lambda_v * ann.b_map)

    worst = 0.0
    drawn = 0
    attempts = 0
    while drawn < samples and attempts < 50 * samples and offsets[-1] > 0:
        attempts += 1
        flat = int(rng.integers(0, offsets[-1]))
        fi = int(np.searchsorted(offsets, flat, side="right")) - 1
        name, grad = fields[fi]
        idx = np.unravel_index(flat - offsets[fi], grad.shape)
        if name == "xi_hat" and weights.lambda_vio > 0:
            pix = idx[:2]
            if ann.fg_mask[pix] and threshold_gap[pix] <= 10.0 * epsilon:
                continue
        drawn += 1

        arr = getattr(pred, name)
        original = arr[idx]
        arr[idx] = original + epsilon
        hi = total_loss(pred, ann, weights).total
        arr[idx] = original - epsilon
        lo = total_loss(pred, ann, weights).total
        arr[idx] = original

        numeric = (hi - lo) / (2.0 * epsilon)
        analytic = grad[idx]
        rel = abs(analytic - numeric) / max(1e-8, abs(numeric))
        worst = np.maximum(worst, rel)  # NaN propagates: an overflowed loss fails
    if drawn == 0:
        raise ClusterSegError(f"no gradient coordinate could be checked in {attempts} draws")
    return worst
