"""Out-of-place reference definition of the noisy oracle.

`reference_noisy_predict` builds every noise term in fresh arrays; the
library adds the feature noise in place on the oracle's copy, and the
tests require the two to agree bit for bit.
"""

import numpy as np

from clusterseg.annotation import Annotation
from clusterseg.clustering import Prediction
from clusterseg.predictor import NoiseSpec, oracle_predict
from clusterseg.seeding import STREAM_NOISE, stream_rng


def _uniform_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    direction = rng.normal(size=(n, dim))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    # U^(1/dim) scaling gives a uniform ball; nextafter keeps it strictly open.
    scale = radius * rng.random(size=(n, 1)) ** (1.0 / dim)
    scale = np.minimum(scale, np.nextafter(radius, 0.0))
    return direction / norms * scale


def reference_noisy_predict(ann: Annotation, spec: NoiseSpec, seed: int) -> Prediction:
    """Oracle plus seeded per-pixel noise as described by the NoiseSpec."""
    rng = stream_rng(seed, STREAM_NOISE)
    H, W = ann.fg_mask.shape
    pred = oracle_predict(ann)
    if spec.bound_mode == "uniform-ball":
        if spec.ball_radius > 0:
            eps = _uniform_ball(rng, H * W, pred.xi_hat.shape[-1], spec.ball_radius)
            pred.xi_hat = pred.xi_hat + eps.reshape(pred.xi_hat.shape)
    elif spec.sigma_xi > 0:
        pred.xi_hat = pred.xi_hat + rng.normal(0.0, spec.sigma_xi, size=pred.xi_hat.shape)
    if spec.sigma_b > 0:
        pred.b_hat = np.maximum(pred.b_hat + rng.normal(0.0, spec.sigma_b, size=(H, W)), 0.0)
    if spec.sigma_eta > 0:
        pred.eta_hat = np.clip(pred.eta_hat + rng.normal(0.0, spec.sigma_eta, size=(H, W)),
                               0.0, 1.0)
    if spec.flip_rate > 0:
        flips = rng.random(size=(H, W)) < spec.flip_rate
        pred.mask_prob = np.where(flips, 1.0 - pred.mask_prob, pred.mask_prob)
    return pred
