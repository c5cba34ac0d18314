"""Prediction producers: exact oracle, noisy oracle, and a per-pixel MLP.

The oracle copies ground truth into a Prediction; the noisy oracle adds
seeded per-pixel noise (Gaussian per field, or feature noise drawn from a
uniform ball of fixed radius, which is what the clustering exactness bound
is stated in terms of). The MLP is a small double-precision network applied
independently at every pixel:

    input (10) -> ReLU(64) -> ReLU(64) -> {xi: 9, b: 1, eta: 2, mask: 2}

with input (r, g, b, x, y, z, depth, u/W, v/H, 1). It exists to exercise
the loss gradients and the training loop end to end; with no spatial
context it is not expected to reach the accuracy of a full image model.

Checkpoints are tensor bundles (see dataio): every parameter raveled into
one f64 vector in parameter_layout() order, the next epoch, and, when saved
with Adam state, the two moments in the same layout and the step and
hyperparameters.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import dataio
from .annotation import Annotation
from .clustering import Prediction
from .errors import ClusterSegError, NonFiniteError, ShapeMismatchError
from .losses import LogitPrediction
from .scenegen import FrameBundle
from .seeding import STREAM_MODEL, STREAM_NOISE, stream_rng

INPUT_DIM = 10
HIDDEN_DIM = 64
HEAD_DIMS = {"xi": 9, "b": 1, "eta": 2, "mask": 2}


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model for noisy_predict.

    bound_mode "gaussian" perturbs features with sigma_xi per component;
    "uniform-ball" draws the 9-D feature error uniformly from a ball of
    radius ball_radius (strictly inside), ignoring sigma_xi.
    """

    sigma_xi: float = 0.0
    sigma_b: float = 0.0
    sigma_eta: float = 0.0
    flip_rate: float = 0.0
    bound_mode: str = "gaussian"
    ball_radius: float = 0.0

    def __post_init__(self):
        if self.bound_mode not in ("gaussian", "uniform-ball"):
            raise ClusterSegError(f"unknown bound_mode {self.bound_mode!r}")
        for name in ("sigma_xi", "sigma_b", "sigma_eta", "ball_radius"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ClusterSegError(f"{name} must be finite and non-negative, got {value}")
        if not 0 <= self.flip_rate <= 1:
            raise ClusterSegError(f"flip_rate must lie in [0, 1], got {self.flip_rate}")


def oracle_predict(ann: Annotation) -> Prediction:
    """Ground truth copied into prediction space."""
    return _annotation_prediction(ann, ann.xi_map.copy())


def _annotation_prediction(ann: Annotation, xi_hat: np.ndarray) -> Prediction:
    """`xi_hat` with the annotation's other maps copied into prediction space."""
    return Prediction(
        xi_hat=xi_hat,
        eta_hat=ann.eta_gt.astype(np.float64),
        b_hat=ann.b_map.copy(),
        mask_prob=ann.fg_mask.astype(np.float64),
    )


def _uniform_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    # `direction` is the only frame-sized array made here: the scaling runs
    # in place and the norms (each row's own sum) 4,096 rows at a time. With
    # more frame-sized temporaries freed per call, the allocator hands the
    # heap back to the system every call and page-faults it in again on the
    # next, which costs more than the arithmetic.
    direction = rng.normal(size=(n, dim))
    norms = np.empty((n, 1))
    for start in range(0, n, 4096):
        rows = slice(start, start + 4096)
        norms[rows] = np.linalg.norm(direction[rows], axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    # U^(1/dim) scaling gives a uniform ball; nextafter keeps it strictly open.
    scale = rng.random(size=(n, 1))
    scale **= 1.0 / dim
    scale *= radius
    np.minimum(scale, np.nextafter(radius, 0.0), out=scale)
    direction /= norms
    direction *= scale
    return direction


def noisy_predict(ann: Annotation, spec: NoiseSpec, seed: int) -> Prediction:
    """Oracle plus seeded per-pixel noise as described by the NoiseSpec."""
    rng = stream_rng(seed, STREAM_NOISE)
    H, W = ann.fg_mask.shape
    shape = ann.xi_map.shape
    eps = None
    if spec.bound_mode == "uniform-ball":
        if spec.ball_radius > 0:
            eps = _uniform_ball(rng, H * W, shape[-1], spec.ball_radius).reshape(shape)
    elif spec.sigma_xi > 0:
        eps = rng.normal(0.0, spec.sigma_xi, size=shape)
    if eps is None:
        pred = oracle_predict(ann)
    else:
        # The noise array becomes xi_hat, so xi_map is not copied first;
        # addition commutes bit for bit.
        eps += ann.xi_map
        pred = _annotation_prediction(ann, eps)
    if spec.sigma_b > 0:
        pred.b_hat = np.maximum(pred.b_hat + rng.normal(0.0, spec.sigma_b, size=(H, W)), 0.0)
    if spec.sigma_eta > 0:
        pred.eta_hat = np.clip(pred.eta_hat + rng.normal(0.0, spec.sigma_eta, size=(H, W)),
                               0.0, 1.0)
    if spec.flip_rate > 0:
        flips = rng.random(size=(H, W)) < spec.flip_rate
        pred.mask_prob = np.where(flips, 1.0 - pred.mask_prob, pred.mask_prob)
    return pred


@dataclass
class MlpModel:
    """Parameters of the per-pixel network, all float64.

    `scratch` is None, or a dict in which mlp_forward and mlp_backward keep
    the frame-sized hidden-layer buffers of the last frame size they saw and
    reuse them for every frame of that size. Each forward pass then
    overwrites the cache the previous one returned, so a model with scratch
    must not be shared across threads.
    """

    params: dict
    scratch: dict | None = None

    @staticmethod
    def parameter_layout():
        layout = [("w1", (INPUT_DIM, HIDDEN_DIM)), ("b1", (HIDDEN_DIM,)),
                  ("w2", (HIDDEN_DIM, HIDDEN_DIM)), ("b2", (HIDDEN_DIM,))]
        for head, dim in HEAD_DIMS.items():
            layout.append((f"w_{head}", (HIDDEN_DIM, dim)))
            layout.append((f"b_{head}", (dim,)))
        return layout


def init_model(seed: int) -> MlpModel:
    """He-initialized weights, zero biases."""
    rng = stream_rng(seed, STREAM_MODEL)
    params = {}
    for name, shape in MlpModel.parameter_layout():
        if name.startswith("b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)
    return MlpModel(params=params)


def frame_features(frame: FrameBundle) -> np.ndarray:
    """Per-pixel input rows (N, 10) in row-major pixel order."""
    H, W = frame.depth.shape
    x = np.empty((H, W, INPUT_DIM))
    x[..., 0:3] = frame.rgb
    x[..., 3:6] = frame.xyz
    x[..., 6] = frame.depth
    x[..., 7] = np.arange(W, dtype=np.float64) / W
    x[..., 8] = (np.arange(H, dtype=np.float64) / H)[:, None]
    x[..., 9] = 1.0
    return x.reshape(H * W, INPUT_DIM)


def _dense(inputs: np.ndarray, weight: np.ndarray, bias: np.ndarray, out=None) -> np.ndarray:
    out = np.matmul(inputs, weight, out=out)
    out += bias
    return out


def _hidden_buffer(model: MlpModel, name: str, rows: int) -> np.ndarray:
    """A (rows, HIDDEN_DIM) array to overwrite: the model's scratch `name`, else a fresh one.

    A fresh frame-sized buffer costs more than its arithmetic: it is handed
    back to the system when freed and page-faulted in again on the next call.
    """
    if model.scratch is None:
        return np.empty((rows, HIDDEN_DIM))
    buf = model.scratch.get(name)
    if buf is None or buf.shape[0] != rows:
        buf = model.scratch[name] = np.empty((rows, HIDDEN_DIM))
    return buf


def mlp_forward(model: MlpModel, frame: FrameBundle):
    """Run the network over one frame.

    Returns (LogitPrediction, cache). The cache feeds one mlp_backward call,
    which consumes it: that call overwrites its hidden activations. With
    model.scratch set, the next mlp_forward call overwrites them as well.
    """
    H, W = frame.depth.shape
    p = model.params
    x = frame_features(frame)
    n = x.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        h1 = _dense(x, p["w1"], p["b1"], out=_hidden_buffer(model, "h1", n))
        np.maximum(h1, 0.0, out=h1)
        h2 = _dense(h1, p["w2"], p["b2"], out=_hidden_buffer(model, "h2", n))
        np.maximum(h2, 0.0, out=h2)
        heads = {name: _dense(h2, p[f"w_{name}"], p[f"b_{name}"]) for name in HEAD_DIMS}
    for name, out in heads.items():
        if not np.all(np.isfinite(out)):
            raise NonFiniteError(f"non-finite activations in head {name!r}")
    pred = LogitPrediction(
        xi_hat=heads["xi"].reshape(H, W, 9),
        b_hat=heads["b"].reshape(H, W),
        eta_logits=heads["eta"].reshape(H, W, 2),
        mask_logits=heads["mask"].reshape(H, W, 2),
    )
    cache = {"x": x, "h1": h1, "h2": h2}
    return pred, cache


def mlp_backward(model: MlpModel, cache: dict, breakdown) -> dict:
    """Parameter gradients from head-output gradients via the chain rule.

    Consumes the cache: h2 is overwritten with the gradient at the second
    hidden layer and h1 with the one at the first, so the only frame-sized
    float array this call needs is one product buffer, the model's scratch
    one when it has scratch. A gradient that is not finite raises
    NonFiniteError naming its parameter.
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
    grads = {}
    with np.errstate(invalid="ignore", over="ignore"):
        for name, dy in head_grads.items():
            w = p[f"w_{name}"]
            if dy.shape[1] != w.shape[1]:
                raise ShapeMismatchError(
                    f"gradient for head {name!r} has width {dy.shape[1]}, expected {w.shape[1]}")
            grads[f"w_{name}"] = h2.T @ dy
            grads[f"b_{name}"] = dy.sum(axis=0)
        # h2 is only needed as its mask from here on, so it becomes the
        # accumulator dh2; starting from zeros keeps the sign of every zero sum.
        live2 = h2 > 0
        dh2 = h2
        dh2.fill(0.0)
        product = _hidden_buffer(model, "product", n)
        for name, dy in head_grads.items():
            np.matmul(dy, p[f"w_{name}"].T, out=product)
            dh2 += product
        da2 = dh2
        da2 *= live2
        grads["w2"] = h1.T @ da2
        grads["b2"] = da2.sum(axis=0)
        live1 = h1 > 0
        da1 = np.matmul(da2, p["w2"].T, out=h1)
        da1 *= live1
        grads["w1"] = x.T @ da1
        grads["b1"] = da1.sum(axis=0)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
    return grads


@dataclass
class AdamState:
    """Moment accumulators and hyperparameters for Adam."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_step(model: MlpModel, grads: dict, state: AdamState):
    """One bias-corrected Adam update, in place. Returns (model, state).

    A non-finite gradient, or an update that leaves a parameter or its
    second moment non-finite, raises NonFiniteError naming the parameter.
    """
    if not state.m:
        state.m = {k: np.zeros_like(v) for k, v in model.params.items()}
        state.v = {k: np.zeros_like(v) for k, v in model.params.items()}
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
            model.params[name] -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
            if not np.isfinite(model.params[name]).all():
                raise NonFiniteError(f"Adam step {t}: non-finite parameter {name!r}")
    return model, state


def _flatten(params: dict) -> np.ndarray:
    return np.concatenate([params[name].ravel() for name, _ in MlpModel.parameter_layout()])


def _unflatten(flat: np.ndarray) -> dict:
    out, start = {}, 0
    for name, shape in MlpModel.parameter_layout():
        size = math.prod(shape)
        out[name] = flat[start:start + size].reshape(shape).copy()
        start += size
    return out


def _checkpoint_layout(adam: bool) -> dict:
    size = sum(math.prod(shape) for _, shape in MlpModel.parameter_layout())
    layout = {"params": (np.float64, (size,)), "next_epoch": (np.float64, ())}
    if adam:
        layout.update(adam=(np.float64, (5,)), adam_m=(np.float64, (size,)),
                      adam_v=(np.float64, (size,)))
    return layout


def save_checkpoint(path, model: MlpModel, state: AdamState | None = None,
                    next_epoch: int = 1):
    """Write the model (optionally with Adam state) as a tensor bundle."""
    tensors = {"params": _flatten(model.params), "next_epoch": np.float64(next_epoch)}
    if state is not None:
        tensors.update(adam=np.array([state.step, state.lr, state.beta1, state.beta2, state.eps],
                                     dtype=np.float64),
                       adam_m=_flatten(state.m), adam_v=_flatten(state.v))
    dataio.write_bundle(path, tensors)


def load_checkpoint(path):
    """Read a checkpoint. Returns (model, adam_state_or_None, next_epoch).

    A file that is not a well-formed checkpoint of this model raises
    ClusterSegError naming the path.
    """
    t = dataio.read_bundle(path)
    adam = "adam" in t
    dataio.check_layout(path, t, _checkpoint_layout(adam))
    counts = {"next_epoch": float(t["next_epoch"])}
    if adam:
        counts["step"] = float(t["adam"][0])
    for name, value in counts.items():
        if not value.is_integer():
            raise ClusterSegError(f"{path}: {name} must be an integer, got {value!r}")
    model = MlpModel(params=_unflatten(t["params"]))
    state = None
    if adam:
        _, lr, beta1, beta2, eps = t["adam"].tolist()
        state = AdamState(m=_unflatten(t["adam_m"]), v=_unflatten(t["adam_v"]),
                          step=int(counts["step"]), lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    return model, state, int(counts["next_epoch"])
