"""Prediction producers: exact oracle, noisy oracle, and a per-pixel MLP.

The oracle copies ground truth into a Prediction; the noisy oracle adds
seeded noise (Gaussian per field, or feature noise drawn from a uniform ball
of fixed radius, which is what the clustering exactness bound is stated in
terms of). Feature, radius and centroid-score noise are drawn only for the
ground-truth foreground pixels, and background pixels keep the oracle's
values; mask flips are drawn for every pixel, so a background pixel flipped
into the mask carries the zero background feature. The MLP is a small
double-precision network applied independently at every pixel:

    input (10) -> ReLU(64) -> ReLU(64) -> {xi: 9, b: 1, eta: 2, mask: 2}

with input (r, g, b, x, y, z, depth, u/W, v/H, 1). It exists to exercise
the loss gradients and the training loop end to end; with no spatial
context it is not expected to reach the accuracy of a full image model.

Parameters, gradients and Adam moments are each one f64 vector in
parameter_layout() order, whose parts parameter_views names. Checkpoints are
tensor bundles (see dataio) that store these vectors as they are.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from . import dataio
from .annotation import Annotation
from .clustering import Prediction
from .errors import ClusterSegError, NonFiniteError, ValueRangeError
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
        eta_hat=ann.eta_gt.astype(np.float64, order="C"),
        b_hat=ann.b_map.copy(),
        mask_prob=ann.fg_mask.astype(np.float64),
    )


def _uniform_ball(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n rows drawn uniformly from the open dim-ball of the radius."""
    # `direction` is the only (n, dim) array made here: the scaling runs in
    # place and the norms (each row's own sum) 4,096 rows at a time. With
    # more such temporaries freed per call, the allocator hands the heap back
    # to the system every call and page-faults it in again on the next,
    # which costs more than the arithmetic.
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
    """Oracle plus seeded noise as described by the NoiseSpec.

    Feature, radius and centroid-score noise are drawn only for the
    ground-truth foreground pixels (`ann.fg_mask`, one row each in
    row-major order), in that order: feature noise (uniform ball, else
    Gaussian sigma_xi), then sigma_b, then sigma_eta. Background pixels keep
    the oracle's values. Flips are drawn last, for every pixel, as they
    decide the predicted mask; a background pixel flipped into the mask
    carries the oracle's zero feature. With feature noise, xi_hat is float64
    whatever the annotation's dtype.
    """
    rng = stream_rng(seed, STREAM_NOISE)
    fg = np.flatnonzero(ann.fg_mask)
    dim = ann.xi_map.shape[-1]
    eps = None
    if spec.bound_mode == "uniform-ball":
        if spec.ball_radius > 0:
            eps = _uniform_ball(rng, fg.size, dim, spec.ball_radius)
    elif spec.sigma_xi > 0:
        eps = rng.normal(0.0, spec.sigma_xi, size=(fg.size, dim))
    if eps is None:
        pred = oracle_predict(ann)
    else:
        xi_hat = ann.xi_map.astype(np.float64, order="C")
        rows = xi_hat.reshape(-1, dim)
        # addition commutes bit for bit
        eps += rows[fg]
        rows[fg] = eps
        pred = _annotation_prediction(ann, xi_hat)
    if spec.sigma_b > 0:
        pred.b_hat = pred.b_hat.astype(np.float64, order="C", copy=False)
        b = pred.b_hat.reshape(-1)
        b[fg] = np.maximum(b[fg] + rng.normal(0.0, spec.sigma_b, size=fg.size), 0.0)
    if spec.sigma_eta > 0:
        eta = pred.eta_hat.reshape(-1)
        eta[fg] = np.clip(eta[fg] + rng.normal(0.0, spec.sigma_eta, size=fg.size), 0.0, 1.0)
    if spec.flip_rate > 0:
        H, W = ann.fg_mask.shape
        flips = rng.random(size=(H, W)) < spec.flip_rate
        pred.mask_prob = np.where(flips, 1.0 - pred.mask_prob, pred.mask_prob)
    return pred


@dataclass
class MlpModel:
    """Parameters of the per-pixel network: one f64 vector in parameter_layout() order.

    `params` names writable views of `vector`, built on first read and again
    only after `vector` is rebound to another array. `scratch` is None, or a
    dict in which mlp_forward and mlp_backward keep the frame-sized
    hidden-layer buffers of the last frame size they saw and reuse them for
    every frame of that size. Each forward pass then overwrites the cache the
    previous one returned, so a model with scratch must not be shared across
    threads.
    """

    vector: np.ndarray
    scratch: dict | None = None

    def __setattr__(self, name, value):
        # An in-place update (model.vector -= ...) rebinds the same array.
        if name == "vector" and value is not self.__dict__.get("vector"):
            self.__dict__.pop("params", None)
        object.__setattr__(self, name, value)

    @cached_property
    def params(self):
        return MappingProxyType(parameter_views(self.vector))

    @staticmethod
    def parameter_layout():
        layout = [("w1", (INPUT_DIM, HIDDEN_DIM)), ("b1", (HIDDEN_DIM,)),
                  ("w2", (HIDDEN_DIM, HIDDEN_DIM)), ("b2", (HIDDEN_DIM,))]
        for head, dim in HEAD_DIMS.items():
            layout.append((f"w_{head}", (HIDDEN_DIM, dim)))
            layout.append((f"b_{head}", (dim,)))
        return layout


PARAMETER_COUNT = sum(math.prod(shape) for _, shape in MlpModel.parameter_layout())
# mlp_backward's order: a failure names the first non-finite parameter in it.
_BACKWARD_ORDER = ([f"{kind}_{head}" for head in HEAD_DIMS for kind in "wb"]
                   + ["w2", "b2", "w1", "b1"])


def parameter_views(vector: np.ndarray) -> dict:
    """One writable view of `vector` per parameter, by name, in parameter_layout() order."""
    views, start = {}, 0
    for name, shape in MlpModel.parameter_layout():
        size = math.prod(shape)
        views[name] = vector[start:start + size].reshape(shape)
        start += size
    return views


def init_model(seed: int) -> MlpModel:
    """He-initialized weights, zero biases."""
    rng = stream_rng(seed, STREAM_MODEL)
    model = MlpModel(np.zeros(PARAMETER_COUNT))
    for name, view in model.params.items():
        if name.startswith("w"):
            view[...] = rng.normal(0.0, np.sqrt(2.0 / view.shape[0]), size=view.shape)
    return model


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


def mlp_backward(model: MlpModel, cache: dict, breakdown) -> np.ndarray:
    """Parameter gradients from head-output gradients via the chain rule.

    Returns a vector laid out as `model.vector`. Consumes the cache: h2 is
    overwritten with the gradient at the second hidden layer and h1 with the
    one at the first, so the only frame-sized float array this call needs is
    one product buffer, the model's scratch one when it has scratch. A
    gradient that is not finite raises NonFiniteError naming its parameter.
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
    grad = np.empty(PARAMETER_COUNT)
    g = parameter_views(grad)
    with np.errstate(invalid="ignore", over="ignore"):
        for name, dy in head_grads.items():
            np.matmul(h2.T, dy, out=g[f"w_{name}"])
            dy.sum(axis=0, out=g[f"b_{name}"])
        # h2 is only needed as its mask from here on, so it becomes the
        # accumulator dh2; starting from zeros keeps the sign of every zero sum.
        live2 = h2 > 0
        dh2 = h2
        dh2.fill(0.0)
        product = _hidden_buffer(model, "product", n)
        for name, dy in head_grads.items():
            # k = 1 for a one-column head, where a broadcast multiply is far
            # faster than the gemm. It can differ from the gemm only in the
            # sign of a zero, which dh2 += product erases: dh2 starts at +0.0
            # and so never holds -0.0.
            if dy.shape[1] == 1:
                np.multiply(dy, p[f"w_{name}"].T, out=product)
            else:
                np.matmul(dy, p[f"w_{name}"].T, out=product)
            dh2 += product
        da2 = dh2
        da2 *= live2
        np.matmul(h1.T, da2, out=g["w2"])
        da2.sum(axis=0, out=g["b2"])
        live1 = h1 > 0
        da1 = np.matmul(da2, p["w2"].T, out=h1)
        da1 *= live1
        np.matmul(x.T, da1, out=g["w1"])
        da1.sum(axis=0, out=g["b1"])
    if not np.isfinite(grad).all():
        name = next(name for name in _BACKWARD_ORDER if not np.isfinite(g[name]).all())
        raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
    return grad


@dataclass
class AdamState:
    """Moment accumulators, laid out as `MlpModel.vector`, and hyperparameters for Adam."""

    m: np.ndarray = field(default_factory=lambda: np.zeros(PARAMETER_COUNT))
    v: np.ndarray = field(default_factory=lambda: np.zeros(PARAMETER_COUNT))
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_step(model: MlpModel, grad: np.ndarray, state: AdamState):
    """One bias-corrected Adam update of the whole vector, in place. Returns (model, state).

    A non-finite gradient, or an update that leaves a parameter or its
    second moment non-finite, raises NonFiniteError naming the parameter.
    """
    state.step += 1
    t = state.step
    with np.errstate(invalid="ignore", over="ignore"):
        state.m = state.beta1 * state.m + (1 - state.beta1) * grad
        state.v = state.beta2 * state.v + (1 - state.beta2) * grad * grad
        m_hat = state.m / (1 - state.beta1 ** t)
        v_hat = state.v / (1 - state.beta2 ** t)
        model.vector -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    if not (np.isfinite(state.v).all() and np.isfinite(model.vector).all()):
        v, g, p = (parameter_views(a) for a in (state.v, grad, model.vector))
        for name in _BACKWARD_ORDER:
            # A NaN or infinite gradient makes the second moment non-finite too.
            if not np.isfinite(v[name]).all():
                what = "second moment of" if np.isfinite(g[name]).all() else "gradient for"
                raise NonFiniteError(f"Adam step {t}: non-finite {what} parameter {name!r}")
            if not np.isfinite(p[name]).all():
                raise NonFiniteError(f"Adam step {t}: non-finite parameter {name!r}")
    return model, state


def save_checkpoint(path, model: MlpModel, state: AdamState | None = None,
                    next_epoch: int = 1):
    """Write the model (optionally with Adam state) as a tensor bundle."""
    tensors = {"params": model.vector, "next_epoch": np.float64(next_epoch)}
    if state is not None:
        tensors.update(adam=np.array([state.step, state.lr, state.beta1, state.beta2, state.eps],
                                     dtype=np.float64),
                       adam_m=state.m, adam_v=state.v)
    dataio.write_bundle(path, tensors)


def load_checkpoint(path):
    """Read a checkpoint. Returns (model, adam_state_or_None, next_epoch).

    A file that is not a well-formed checkpoint of this model raises
    ClusterSegError naming the path (ValueRangeError for a value out of range).
    """
    t = dataio.read_bundle(path)
    adam = "adam" in t
    vector = (np.float64, (PARAMETER_COUNT,))
    layout = {"params": vector, "next_epoch": (np.float64, ())}
    if adam:
        layout.update(adam=(np.float64, (5,)), adam_m=vector, adam_v=vector)
    dataio.check_layout(path, t, layout)
    next_epoch = float(t["next_epoch"])
    checks = [("next_epoch", next_epoch, next_epoch.is_integer() and next_epoch >= 1,
               "an integer of at least 1")]
    if adam:
        step, lr, beta1, beta2, eps = t["adam"].tolist()
        checks += [("step", step, step.is_integer() and step >= 0, "an integer of at least 0"),
                   ("lr", lr, 0 < lr < math.inf, "finite and above 0"),
                   ("beta1", beta1, 0 <= beta1 < 1, "in [0, 1)"),
                   ("beta2", beta2, 0 <= beta2 < 1, "in [0, 1)"),
                   ("eps", eps, 0 < eps < math.inf, "finite and above 0")]
    for name, value, ok, what in checks:
        if not ok:
            raise ValueRangeError(f"{path}: {name} must be {what}, got {value!r}")
    state = None
    if adam:
        state = AdamState(t["adam_m"], t["adam_v"], int(step), lr, beta1, beta2, eps)
    return MlpModel(t["params"]), state, int(next_epoch)
