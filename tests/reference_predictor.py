"""Out-of-place reference definitions of the noisy oracle and the MLP.

`reference_noisy_predict` scatters each foreground noise draw into a fresh
frame-sized array and selects the noisy value at the foreground pixels with
np.where; the library gathers and writes only the foreground rows, in
place. The MLP's reference input rows, forward and backward passes build
every intermediate in a fresh array, the (64, 14) head matrix included,
and leave the forward cache intact; the library computes them in place.
The reference initialization and Adam step keep parameters, gradients and
moments as dicts of named arrays and update them one name at a time; the
library keeps one flat vector of each. The tests require each pair to
agree bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np

from clusterseg.annotation import Annotation
from clusterseg.clustering import Prediction
from clusterseg.errors import NonFiniteError, ShapeMismatchError
from clusterseg.losses import LogitPrediction
from clusterseg.predictor import HEAD_DIMS, MlpModel, NoiseSpec, oracle_predict
from clusterseg.scenegen import FrameBundle
from clusterseg.seeding import STREAM_MODEL, STREAM_NOISE, stream_rng


def _uniform_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    direction = rng.normal(size=(n, dim))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    # U^(1/dim) scaling gives a uniform ball; nextafter keeps it strictly open.
    scale = radius * rng.random(size=(n, 1)) ** (1.0 / dim)
    scale = np.minimum(scale, np.nextafter(radius, 0.0))
    return direction / norms * scale


def reference_noisy_predict(ann: Annotation, spec: NoiseSpec, seed: int) -> Prediction:
    """Oracle plus seeded noise at the foreground pixels, flips at every pixel.

    The noise draws go, in order, to the feature (uniform ball, else
    Gaussian sigma_xi), the radius and the centroid score, one row per
    ground-truth foreground pixel in row-major order; the flips follow, one
    per pixel. Background pixels keep the oracle's values.
    """
    rng = stream_rng(seed, STREAM_NOISE)
    H, W = ann.fg_mask.shape
    fg = ann.fg_mask.astype(bool)
    n = int(fg.sum())
    pred = oracle_predict(ann)

    def at_foreground(noise):
        full = np.zeros((H, W) + noise.shape[1:])
        full[fg] = noise
        return full

    dim = pred.xi_hat.shape[-1]
    eps = None
    if spec.bound_mode == "uniform-ball":
        if spec.ball_radius > 0:
            eps = _uniform_ball(rng, n, dim, spec.ball_radius)
    elif spec.sigma_xi > 0:
        eps = rng.normal(0.0, spec.sigma_xi, size=(n, dim))
    if eps is not None:
        pred.xi_hat = np.where(fg[..., None], pred.xi_hat + at_foreground(eps), pred.xi_hat)
    if spec.sigma_b > 0:
        noise = at_foreground(rng.normal(0.0, spec.sigma_b, size=n))
        pred.b_hat = np.where(fg, np.maximum(pred.b_hat + noise, 0.0), pred.b_hat)
    if spec.sigma_eta > 0:
        noise = at_foreground(rng.normal(0.0, spec.sigma_eta, size=n))
        pred.eta_hat = np.where(fg, np.clip(pred.eta_hat + noise, 0.0, 1.0), pred.eta_hat)
    if spec.flip_rate > 0:
        flips = rng.random(size=(H, W)) < spec.flip_rate
        pred.mask_prob = np.where(flips, 1.0 - pred.mask_prob, pred.mask_prob)
    return pred


def reference_frame_features(frame: FrameBundle) -> np.ndarray:
    """Per-pixel input rows (N, 10) in row-major pixel order."""
    H, W = frame.depth.shape
    u = np.tile(np.arange(W, dtype=np.float64) / W, H)
    v = np.repeat(np.arange(H, dtype=np.float64) / H, W)
    return np.column_stack([
        frame.rgb.reshape(-1, 3).astype(np.float64),
        frame.xyz.reshape(-1, 3).astype(np.float64),
        frame.depth.reshape(-1).astype(np.float64),
        u, v, np.ones(H * W),
    ])


def _head_matrix(p: dict):
    """The four heads' weights side by side (64, 14), and their biases side by side (14,)."""
    return (np.concatenate([p[f"w_{name}"] for name in HEAD_DIMS], axis=1),
            np.concatenate([p[f"b_{name}"] for name in HEAD_DIMS]))


def _head_columns():
    """Each head's name and its columns of the one (N, 14) head output, in HEAD_DIMS order."""
    start = 0
    for name, dim in HEAD_DIMS.items():
        yield name, slice(start, start + dim)
        start += dim


def reference_mlp_forward(model: MlpModel, frame: FrameBundle):
    """Run the network over one frame; the four heads are one product with the head matrix.

    Returns (LogitPrediction, cache); the cache feeds reference_mlp_backward.
    """
    H, W = frame.depth.shape
    p = model.params
    x = reference_frame_features(frame)
    w_heads, b_heads = _head_matrix(p)
    with np.errstate(invalid="ignore", over="ignore"):
        a1 = x @ p["w1"] + p["b1"]
        h1 = np.maximum(a1, 0.0)
        a2 = h1 @ p["w2"] + p["b2"]
        h2 = np.maximum(a2, 0.0)
        out = h2 @ w_heads + b_heads
    heads = {name: out[:, cols] for name, cols in _head_columns()}
    for name, head in heads.items():
        if not np.all(np.isfinite(head)):
            raise NonFiniteError(f"non-finite activations in head {name!r}")
    pred = LogitPrediction(
        xi_hat=heads["xi"].reshape(H, W, 9),
        b_hat=heads["b"].reshape(H, W),
        eta_logits=heads["eta"].reshape(H, W, 2),
        mask_logits=heads["mask"].reshape(H, W, 2),
    )
    cache = {"x": x, "h1": h1, "h2": h2}
    return pred, cache


def reference_mlp_backward(model: MlpModel, cache: dict, breakdown) -> dict:
    """Parameter gradients from head-output gradients via the chain rule.

    The four head gradients, side by side, meet the head matrix in one
    product each way.
    """
    p = model.params
    x, h1, h2 = cache["x"], cache["h1"], cache["h2"]
    n = x.shape[0]
    head_grads = {
        "xi": breakdown.grad_xi.reshape(n, 9),
        "b": breakdown.grad_b.reshape(n, 1),
        "eta": breakdown.grad_eta_logits.reshape(n, 2),
        "mask": breakdown.grad_mask_logits.reshape(n, 2),
    }
    for name, dy in head_grads.items():
        if dy.shape[1] != HEAD_DIMS[name]:
            raise ShapeMismatchError(
                f"gradient for head {name!r} has width {dy.shape[1]}, expected {HEAD_DIMS[name]}")
    dy = np.concatenate(list(head_grads.values()), axis=1)
    w_heads, _ = _head_matrix(p)
    dw_heads = h2.T @ dy
    db_heads = dy.sum(axis=0)
    grads = {}
    for name, cols in _head_columns():
        grads[f"w_{name}"] = dw_heads[:, cols]
        grads[f"b_{name}"] = db_heads[cols]
    dh2 = dy @ w_heads.T
    da2 = dh2 * (h2 > 0)
    grads["w2"] = h1.T @ da2
    grads["b2"] = da2.sum(axis=0)
    dh1 = da2 @ p["w2"].T
    da1 = dh1 * (h1 > 0)
    grads["w1"] = x.T @ da1
    grads["b1"] = da1.sum(axis=0)
    return grads


def reference_init_model(seed: int) -> dict:
    """He-initialized weights, zero biases, as a dict of named arrays."""
    rng = stream_rng(seed, STREAM_MODEL)
    params = {}
    for name, shape in MlpModel.parameter_layout():
        if name.startswith("b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)
    return params


@dataclass
class ReferenceAdamState:
    """Moment accumulators (dicts of named arrays) and hyperparameters for Adam."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def reference_adam_step(params: dict, grads: dict, state: ReferenceAdamState):
    """One bias-corrected Adam update, in place, one name at a time, in the order of `grads`.

    A non-finite gradient, or an update that leaves a parameter or its
    second moment non-finite, raises NonFiniteError naming the parameter.
    """
    if not state.m:
        state.m = {k: np.zeros_like(v) for k, v in params.items()}
        state.v = {k: np.zeros_like(v) for k, v in params.items()}
    state.step += 1
    t = state.step
    with np.errstate(invalid="ignore", over="ignore"):
        for name, g in grads.items():
            state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
            state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
            # A NaN or infinite gradient makes the second moment non-finite too.
            if not np.isfinite(state.v[name]).all():
                what = "second moment of" if np.isfinite(g).all() else "gradient for"
                raise NonFiniteError(f"Adam step {t}: non-finite {what} parameter {name!r}")
            m_hat = state.m[name] / (1 - state.beta1 ** t)
            v_hat = state.v[name] / (1 - state.beta2 ** t)
            params[name] -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
            if not np.isfinite(params[name]).all():
                raise NonFiniteError(f"Adam step {t}: non-finite parameter {name!r}")
    return params, state


def reference_gradient_check(grads: dict):
    """Raise NonFiniteError naming the first parameter, in the order of `grads`, that is not finite."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")


def reference_vector(named: dict) -> np.ndarray:
    """The arrays of `named` raveled into one vector, in parameter_layout() order."""
    return np.concatenate([named[name].ravel() for name, _ in MlpModel.parameter_layout()])
