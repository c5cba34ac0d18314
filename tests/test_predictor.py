import itertools
import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest

from clusterseg.clustering import segment
from clusterseg.errors import (BundleManifestError, BundleTruncatedError, ClusterSegError,
                               NonFiniteError)
from clusterseg.geometry import CameraIntrinsics
from clusterseg.losses import LossBreakdown, LossWeights, total_loss
from clusterseg.dataio import MAGIC
from clusterseg.predictor import (HEAD_DIMS, PARAMETER_COUNT, AdamState, MlpModel, NoiseSpec,
                                  adam_step,
                                  frame_features, init_model, load_checkpoint,
                                  mlp_backward, mlp_forward, noisy_predict,
                                  oracle_predict, parameter_views, save_checkpoint)

from conftest import make_example, oracle_logits, same_partition
from reference_predictor import (ReferenceAdamState, reference_adam_step,
                                 reference_gradient_check, reference_init_model,
                                 reference_mlp_backward, reference_mlp_forward,
                                 reference_noisy_predict, reference_vector)


def test_oracle_predict_round_trips_ground_truth():
    _, frame, ann = make_example(seed=0)
    pred = oracle_predict(ann)
    assert np.array_equal(pred.xi_hat, ann.xi_map)
    assert np.array_equal(pred.b_hat, ann.b_map)
    assert np.array_equal(pred.mask_prob > 0.5, ann.fg_mask)
    seg = segment(pred)
    assert same_partition(seg.labels, frame.instance_map)


def test_oracle_logits_to_prediction():
    _, _, ann = make_example(seed=0)
    pred = oracle_logits(ann).to_prediction()
    assert np.array_equal(pred.mask_prob > 0.5, ann.fg_mask)
    assert np.array_equal(pred.eta_hat > 0.5, ann.eta_gt)
    assert np.array_equal(pred.xi_hat, ann.xi_map)


def test_noisy_predict_zero_spec_is_oracle():
    _, _, ann = make_example(seed=1)
    a = oracle_predict(ann)
    b = noisy_predict(ann, NoiseSpec(), seed=99)
    for name in ("xi_hat", "eta_hat", "b_hat", "mask_prob"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_noisy_predict_uniform_ball_bound():
    _, _, ann = make_example(seed=2)
    spec = NoiseSpec(bound_mode="uniform-ball", ball_radius=0.07)
    pred = noisy_predict(ann, spec, seed=5)
    norms = np.linalg.norm(pred.xi_hat - ann.xi_map, axis=-1)
    assert np.all(norms < 0.07)
    assert norms.max() > 0.0


def test_noisy_predict_deterministic_and_clamped():
    _, _, ann = make_example(seed=3)
    spec = NoiseSpec(sigma_xi=0.2, sigma_b=0.5, sigma_eta=0.5, flip_rate=0.3)
    a = noisy_predict(ann, spec, seed=7)
    b = noisy_predict(ann, spec, seed=7)
    for name in ("xi_hat", "eta_hat", "b_hat", "mask_prob"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.all(a.b_hat >= 0.0)
    assert np.all((a.eta_hat >= 0.0) & (a.eta_hat <= 1.0))
    c = noisy_predict(ann, spec, seed=8)
    assert not np.array_equal(a.xi_hat, c.xi_hat)


@pytest.mark.parametrize("spec", [
    NoiseSpec(bound_mode="uniform-ball", ball_radius=0.07),
    NoiseSpec(bound_mode="uniform-ball", ball_radius=1e-300),
    NoiseSpec(bound_mode="uniform-ball", ball_radius=3.0, sigma_b=0.2, flip_rate=0.1),
    NoiseSpec(sigma_xi=0.05),
    NoiseSpec(sigma_xi=2.0, sigma_b=0.5, sigma_eta=0.5, flip_rate=0.3),
    NoiseSpec(sigma_b=0.5),
])
def test_noisy_predict_equals_the_out_of_place_reference(spec):
    for seed in range(6):
        # 96 x 88 pixels: the library takes the norms in three blocks of rows
        _, _, ann = make_example(seed=seed, camera=CameraIntrinsics(96.0, 96.0, 48.0, 44.0,
                                                                     96, 88))
        _assert_noisy_predict_equals_the_reference(ann, spec, seed + 11)


@pytest.mark.parametrize("spec", [NoiseSpec(bound_mode="uniform-ball", ball_radius=0.07),
                                  NoiseSpec(sigma_xi=0.05), NoiseSpec(sigma_b=0.5)])
def test_noisy_predict_of_a_float32_annotation_equals_the_reference(spec):
    _, _, ann = make_example(seed=2)
    ann32 = replace(ann, xi_map=ann.xi_map.astype(np.float32),
                    b_map=ann.b_map.astype(np.float32))
    _assert_noisy_predict_equals_the_reference(ann32, spec, 13)
    # Noise is added in float64, as to a float64 annotation.
    got = noisy_predict(ann32, spec, 13)
    noisy_xi = spec.ball_radius > 0 or spec.sigma_xi > 0
    assert got.xi_hat.dtype == (np.float64 if noisy_xi else np.float32)
    assert got.b_hat.dtype == (np.float64 if spec.sigma_b > 0 else np.float32)


def _assert_noisy_predict_equals_the_reference(ann, spec, seed):
    got = noisy_predict(ann, spec, seed=seed)
    want = reference_noisy_predict(ann, spec, seed=seed)
    assert got.xi_hat is not ann.xi_map
    for name in ("xi_hat", "eta_hat", "b_hat", "mask_prob"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("spec", [
    NoiseSpec(bound_mode="uniform-ball", ball_radius=0.07, sigma_b=0.5, sigma_eta=0.5,
              flip_rate=0.3),
    NoiseSpec(sigma_xi=0.2, sigma_b=0.5, sigma_eta=0.5, flip_rate=0.3),
], ids=["uniform-ball", "gaussian"])
def test_noisy_predict_draws_noise_only_at_the_foreground(spec):
    for seed in range(4):
        _, _, ann = make_example(seed=seed)
        got = noisy_predict(ann, spec, seed)
        want = reference_noisy_predict(ann, spec, seed)
        oracle = oracle_predict(ann)
        fg, bg = ann.fg_mask, ~ann.fg_mask
        for name in ("xi_hat", "b_hat", "eta_hat"):
            assert getattr(got, name)[fg].tobytes() == getattr(want, name)[fg].tobytes(), name
            assert getattr(got, name)[bg].tobytes() == getattr(oracle, name)[bg].tobytes(), name
        assert not np.array_equal(got.xi_hat[fg], oracle.xi_hat[fg])
        # Pixels flipped into the mask carry the zero background feature.
        flipped_in = bg & (got.mask_prob > 0.5)
        assert flipped_in.any()
        assert not got.xi_hat[flipped_in].any()
        if spec.bound_mode == "uniform-ball":
            errors = np.linalg.norm(got.xi_hat[fg] - ann.xi_map[fg], axis=-1)
            assert np.all(errors < spec.ball_radius)
            assert errors.min() > 0.0


def test_noisy_predict_of_a_frame_without_foreground_is_the_oracle():
    _, _, ann = make_example(seed=1)
    empty = replace(ann, fg_mask=np.zeros_like(ann.fg_mask))
    spec = NoiseSpec(bound_mode="uniform-ball", ball_radius=0.07, sigma_b=0.5, sigma_eta=0.5)
    got, oracle = noisy_predict(empty, spec, 3), oracle_predict(empty)
    for name in ("xi_hat", "eta_hat", "b_hat", "mask_prob"):
        assert getattr(got, name).tobytes() == getattr(oracle, name).tobytes(), name
    _assert_noisy_predict_equals_the_reference(empty, spec, 3)


def test_noisy_predict_flip_rate_one_inverts_mask():
    _, _, ann = make_example(seed=1)
    pred = noisy_predict(ann, NoiseSpec(flip_rate=1.0), seed=0)
    assert np.array_equal(pred.mask_prob > 0.5, ~ann.fg_mask)


def test_noise_spec_validation():
    with pytest.raises(ClusterSegError):
        NoiseSpec(bound_mode="cauchy")
    with pytest.raises(ClusterSegError):
        NoiseSpec(sigma_xi=-1.0)


def test_mlp_zero_weights_output_biases():
    _, frame, _ = make_example(seed=0)
    model = init_model(0)
    for view in model.params.values():
        view[...] = 0.0
    model.params["b_xi"][:] = np.arange(9) * 0.1
    model.params["b_b"][:] = 0.7
    pred, _ = mlp_forward(model, frame)
    assert np.allclose(pred.xi_hat, np.arange(9) * 0.1)
    assert np.allclose(pred.b_hat, 0.7)
    assert np.allclose(pred.eta_logits, 0.0)


def test_mlp_hand_computed_single_pixel():
    # One hot path through the trunk: z input -> h1[0] -> h2[0] -> xi[0].
    from clusterseg.scenegen import FrameBundle
    frame = FrameBundle(
        rgb=np.zeros((1, 1, 3), dtype=np.float32),
        depth=np.array([[1.5]]),
        camera=CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 1, 1),  # xyz (0, 0, 1.5)
        instance_map=np.ones((1, 1), dtype=np.int32),
        amodal_masks=np.ones((1, 1, 1), dtype=bool),
        occlusion_scores=np.ones(1),
    )
    model = init_model(0)
    for view in model.params.values():
        view[...] = 0.0
    model.params["w1"][5, 0] = 1.0   # z coordinate feeds unit 0
    model.params["w1"][5, 1] = 0.5   # dead branch: relu(-1 + 0.75) = 0
    model.params["b1"][1] = -1.0
    model.params["w2"][0, 0] = 2.0
    model.params["w2"][1, 0] = 10.0  # multiplies the dead unit, stays silent
    model.params["w_xi"][0, 0] = 3.0
    pred, cache = mlp_forward(model, frame)
    assert pred.xi_hat[0, 0, 0] == pytest.approx(3.0 * 2.0 * 1.5, abs=1e-15)
    assert pred.xi_hat[0, 0, 1] == 0.0
    # dead ReLU: gradient through the silent branch is exactly zero
    upstream = LossBreakdown(l_s=0, l_cen=0, l_p=0, l_var=0, l_vio=0, total=0,
                             grad_xi=np.ones((1, 1, 9)),
                             grad_b=np.zeros((1, 1)),
                             grad_eta_logits=np.zeros((1, 1, 2)),
                             grad_mask_logits=np.zeros((1, 1, 2)))
    grads = parameter_views(mlp_backward(model, cache, upstream))
    assert grads["w1"][5, 1] == 0.0
    assert grads["b1"][1] == 0.0
    assert grads["w1"][5, 0] != 0.0


def test_mlp_per_pixel_independence():
    _, frame, _ = make_example(seed=4)
    model = init_model(1)
    base, _ = mlp_forward(model, frame)
    frame.rgb = frame.rgb.copy()
    frame.rgb[3, 5] = [0.9, 0.1, 0.4]
    changed, _ = mlp_forward(model, frame)
    delta = np.abs(changed.xi_hat - base.xi_hat).sum(axis=-1)
    assert delta[3, 5] > 0
    delta[3, 5] = 0.0
    assert not delta.any()


def test_mlp_zero_upstream_gives_zero_grads():
    _, frame, _ = make_example(seed=0)
    model = init_model(0)
    pred, cache = mlp_forward(model, frame)
    H, W = frame.depth.shape
    upstream = LossBreakdown(l_s=0, l_cen=0, l_p=0, l_var=0, l_vio=0, total=0,
                             grad_xi=np.zeros((H, W, 9)), grad_b=np.zeros((H, W)),
                             grad_eta_logits=np.zeros((H, W, 2)),
                             grad_mask_logits=np.zeros((H, W, 2)))
    grad = mlp_backward(model, cache, upstream)
    assert grad.shape == (PARAMETER_COUNT,)
    assert not grad.any()


def test_mlp_backward_matches_finite_differences():
    # Central differences through total_loss(mlp_forward(.)) w.r.t. parameters.
    scene, frame, ann = make_example(
        seed=6, camera=__import__("clusterseg").CameraIntrinsics(8.0, 8.0, 4.0, 4.0, 8, 8))
    model = init_model(3)
    weights = LossWeights()
    pred, cache = mlp_forward(model, frame)
    grads = parameter_views(mlp_backward(model, cache, total_loss(pred, ann, weights)))

    def loss_value():
        out, _ = mlp_forward(model, frame)
        return total_loss(out, ann, weights).total

    rng = np.random.default_rng(0)
    eps = 1e-5
    worst = 0.0
    for _ in range(40):
        name = list(model.params)[int(rng.integers(len(model.params)))]
        arr = model.params[name]
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        keep = arr[idx]
        arr[idx] = keep + eps
        hi = loss_value()
        arr[idx] = keep - eps
        lo = loss_value()
        arr[idx] = keep
        numeric = (hi - lo) / (2 * eps)
        worst = max(worst, abs(grads[name][idx] - numeric) / max(1e-8, abs(numeric)))
    assert worst < 1e-4


def test_mlp_non_finite_raises():
    _, frame, _ = make_example(seed=0)
    model = init_model(0)
    model.params["w_xi"][0, 0] = np.inf
    with pytest.raises(NonFiniteError):
        mlp_forward(model, frame)


@pytest.mark.parametrize("bad", [(head,) for head in HEAD_DIMS]
                         + list(itertools.combinations(HEAD_DIMS, 2)),
                         ids=lambda bad: "+".join(bad))
def test_mlp_forward_names_the_first_non_finite_head_as_the_reference_does(bad):
    # The heads are one product; a failure names the first bad head in
    # xi, b, eta, mask order.
    _, frame, _ = make_example(seed=0)
    model = init_model(0)
    for head in bad:
        model.params[f"w_{head}"][0, -1] = np.inf
    got = _failure(lambda: mlp_forward(model, frame))
    want = _failure(lambda: reference_mlp_forward(model, frame))
    assert got == want == (NonFiniteError, f"non-finite activations in head {bad[0]!r}")


def test_an_mlp_prediction_keeps_no_other_head_alive():
    # xi_hat is copied out of the (N, 14) head output, so the prediction that
    # is segmented does not hold the other heads' columns.
    _, frame, _ = make_example(seed=0)
    logits, _ = mlp_forward(init_model(0), frame)
    pred = logits.to_prediction()
    assert pred.xi_hat.tobytes() == logits.xi_hat.tobytes()
    for other in (logits.b_hat, logits.eta_logits, logits.mask_logits):
        assert not np.may_share_memory(pred.xi_hat, other)


def test_mlp_backward_rejects_a_gradient_that_overflows():
    _, frame, _ = make_example(seed=0)
    model = init_model(0)
    _, cache = mlp_forward(model, frame)
    H, W = frame.depth.shape
    upstream = LossBreakdown(l_s=0.0, l_cen=0.0, l_p=0.0, l_var=0.0, l_vio=0.0, total=0.0,
                             grad_xi=np.full((H, W, 9), 1e308), grad_b=np.zeros((H, W)),
                             grad_eta_logits=np.zeros((H, W, 2)),
                             grad_mask_logits=np.zeros((H, W, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="gradient for parameter 'w_xi'"):
            mlp_backward(model, cache, upstream)


@pytest.mark.parametrize("grad, lr, message", [
    (np.inf, 1e-3, "Adam step 1: non-finite gradient for parameter 'w1'"),
    (np.nan, 1e-3, "Adam step 1: non-finite gradient for parameter 'w1'"),
    (1e200, 1e-3, "Adam step 1: non-finite second moment of parameter 'w1'"),
    (2.0, 1e308, "Adam step 1: non-finite parameter 'w1'"),
], ids=["infinite-gradient", "nan-gradient", "second-moment", "parameter"])
def test_adam_rejects_a_non_finite_update(grad, lr, message):
    model = init_model(0)
    grads = np.zeros(PARAMETER_COUNT)
    parameter_views(grads)["w1"][0, 0] = grad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=message):
            adam_step(model, grads, AdamState(lr=lr))


def test_adam_zero_gradient_is_identity():
    model = init_model(0)
    before = {k: v.copy() for k, v in model.params.items()}
    adam_step(model, np.zeros(PARAMETER_COUNT), AdamState())
    for k in before:
        assert np.array_equal(model.params[k], before[k])


def test_adam_first_step_is_signed_lr():
    model = init_model(0)
    before = {k: v.copy() for k, v in model.params.items()}
    rng = np.random.default_rng(1)
    grads = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
    state = AdamState(lr=1e-4)
    adam_step(model, reference_vector(grads), state)
    for k, g in grads.items():
        delta = model.params[k] - before[k]
        # bias-corrected first step: -lr * g / (|g| + eps)
        expected = -1e-4 * g / (np.abs(g) + state.eps)
        assert np.allclose(delta, expected, atol=1e-18)
        assert np.allclose(delta, -1e-4 * np.sign(g), rtol=1e-3)


def test_adam_sequence_reproducible():
    def run():
        model = init_model(2)
        state = AdamState(lr=1e-3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            adam_step(model, rng.normal(size=PARAMETER_COUNT), state)
        return model
    a = run()
    b = run()
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_params_are_views_of_the_vector_that_cannot_be_rebound():
    model = init_model(3)
    assert model.vector.shape == (PARAMETER_COUNT,)
    assert [(name, view.shape) for name, view in model.params.items()] == \
        MlpModel.parameter_layout()
    for name, view in model.params.items():
        assert np.shares_memory(view, model.vector), name
        view.flat[-1] = 7.5
        assert model.params[name].flat[-1] == 7.5, name
    assert np.count_nonzero(model.vector == 7.5) == len(model.params)
    with pytest.raises(TypeError):
        model.params["w1"] = np.zeros((10, 64))
    with pytest.raises(TypeError):
        del model.params["b1"]
    assert np.shares_memory(model.params["w1"], model.vector)


def test_params_are_built_once_until_the_vector_is_rebound():
    model = init_model(3)
    params = model.params
    assert model.params is params
    adam_step(model, np.ones(PARAMETER_COUNT), AdamState())
    assert model.params is params
    model.vector = model.vector.copy()
    assert model.params is not params
    for name, view in model.params.items():
        assert np.shares_memory(view, model.vector), name
        assert not np.shares_memory(view, params[name]), name


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
def test_init_model_equals_the_reference(seed):
    model, want = init_model(seed), reference_init_model(seed)
    assert model.vector.tobytes() == reference_vector(want).tobytes()
    for name, view in model.params.items():
        assert view.tobytes() == want[name].tobytes(), name


def _backward_order():
    """The parameter names in the order reference_mlp_backward forms their gradients."""
    model = init_model(0)
    cache = {"x": np.zeros((1, 10)), "h1": np.zeros((1, 64)), "h2": np.zeros((1, 64))}
    zeros = LossBreakdown(l_s=0.0, l_cen=0.0, l_p=0.0, l_var=0.0, l_vio=0.0, total=0.0,
                          grad_xi=np.zeros((1, 1, 9)), grad_b=np.zeros((1, 1)),
                          grad_eta_logits=np.zeros((1, 1, 2)),
                          grad_mask_logits=np.zeros((1, 1, 2)))
    return list(reference_mlp_backward(model, cache, zeros))


def _random_gradient(rng):
    """Gradients from 1e-12 to 1e2 in magnitude, with zeros of both signs, subnormal and huge ones."""
    grad = rng.normal(size=PARAMETER_COUNT) * 10.0 ** rng.uniform(-12, 2, size=PARAMETER_COUNT)
    special = rng.random(PARAMETER_COUNT) < 0.2
    grad[special] = rng.choice(np.array([-0.0, 0.0, 5e-324, -1e-300, 1e150, -1e150]),
                               size=int(special.sum()))
    return grad


def test_adam_sequences_equal_the_reference():
    order = _backward_order()
    for trial in range(50):
        rng = np.random.default_rng(trial)
        hyper = dict(lr=10.0 ** rng.uniform(-5, -1),
                     beta1=float(rng.choice([0.0, 0.9, rng.random()])),
                     beta2=float(rng.choice([0.0, 0.999, rng.random()])),
                     eps=float(rng.choice([1e-8, 10.0 ** rng.uniform(-12, -4)])))
        model, state = init_model(trial % 4), AdamState(**hyper)
        params, ref_state = reference_init_model(trial % 4), ReferenceAdamState(**hyper)
        for _ in range(5):
            grad = _random_gradient(rng)
            views = parameter_views(grad)
            adam_step(model, grad, state)
            reference_adam_step(params, {name: views[name].copy() for name in order}, ref_state)
            assert state.step == ref_state.step
            for got, want in ((model.vector, params), (state.m, ref_state.m),
                              (state.v, ref_state.v)):
                assert got.tobytes() == reference_vector(want).tobytes(), trial


def _failure(call):
    """The type and text of the ClusterSegError `call()` raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ClusterSegError) as caught:
            call()
    return caught.type, str(caught.value)


def _ends():
    """(name, flat index) for the first and the last element of every parameter."""
    return [(name, index) for name, shape in MlpModel.parameter_layout()
            for index in sorted({0, math.prod(shape) - 1})]


@pytest.mark.parametrize("kind", ["infinite-gradient", "nan-gradient", "second-moment",
                                  "parameter"])
def test_adam_names_a_failing_element_as_the_reference_does(kind):
    order = _backward_order()
    for name, index in _ends():
        model, params = init_model(1), reference_init_model(1)
        grad = np.zeros(PARAMETER_COUNT)
        views = parameter_views(grad)
        views[name].flat[index] = {"infinite-gradient": np.inf, "nan-gradient": np.nan,
                                   "second-moment": 1e200, "parameter": 1.0}[kind]
        lr = 1e-3
        if kind == "parameter":
            # A step of about -1e300 from the most negative finite value overflows.
            lr = 1e300
            model.params[name].flat[index] = params[name].flat[index] = -np.finfo(float).max
        got = _failure(lambda: adam_step(model, grad, AdamState(lr=lr)))
        want = _failure(lambda: reference_adam_step(
            params, {n: views[n].copy() for n in order}, ReferenceAdamState(lr=lr)))
        assert got == want
        assert got[0] is NonFiniteError and f"parameter {name!r}" in got[1], (name, index)


def test_adam_names_the_first_failure_in_backward_order_as_the_reference_does():
    # One parameter overflows and another gets an infinite gradient; the
    # error names whichever comes first in backward order.
    order = _backward_order()
    for overflowing in order:
        for infinite in order:
            model, params = init_model(1), reference_init_model(1)
            grad = np.zeros(PARAMETER_COUNT)
            views = parameter_views(grad)
            views[overflowing].flat[0] = 1.0
            model.params[overflowing].flat[0] = -np.finfo(float).max
            params[overflowing].flat[0] = -np.finfo(float).max
            views[infinite].flat[-1] = np.inf
            got = _failure(lambda: adam_step(model, grad, AdamState(lr=1e300)))
            want = _failure(lambda: reference_adam_step(
                params, {n: views[n].copy() for n in order}, ReferenceAdamState(lr=1e300)))
            assert got == want, (overflowing, infinite)


def _backward_overflowing_at(name, index):
    """(model, cache, breakdown) whose gradient overflows at one element of one parameter.

    Every value is finite. With zero weights no gradient reaches a layer
    below the heads unless one weight is set to carry it: a weight element
    overflows as the product of one huge input and one huge gradient, and a
    bias element as the sum of two gradients near the largest finite value.
    """
    model = MlpModel(np.zeros(PARAMETER_COUNT))
    p = model.params
    n = 1 if name.startswith("w") else 2
    x, h1, h2 = np.zeros((n, 10)), np.zeros((n, 64)), np.zeros((n, 64))
    dy = {head: np.zeros((n, dim)) for head, dim in HEAD_DIMS.items()}
    where = np.unravel_index(index, p[name].shape)
    if name.startswith("w_"):
        (i, j), head = where, name[2:]
        h2[0, i], dy[head][0, j] = 1e300, 1e300
    elif name.startswith("b_"):
        dy[name[2:]][:, where[0]] = 1e308
    elif name.endswith("2"):
        # d(loss)/d(a2[:, i]) = dy_xi[:, 0] * w_xi[i, 0]: 1e300 for w2, 1e308 for b2
        i = where[-1]
        p["w_xi"][i, 0] = 1.0 if name == "w2" else 1e8
        h2[:, i], dy["xi"][:, 0] = 1e-300, 1e300
        if name == "w2":
            h1[0, where[0]] = 1e300
    else:
        # d(loss)/d(a1[:, m]) = dy_xi[:, 0] * w_xi[0, 0] * w2[m, 0]: 1e300 for w1, 1e308 for b1
        m = where[-1]
        p["w_xi"][0, 0] = p["w2"][m, 0] = 1.0 if name == "w1" else 1e4
        h2[:, 0], h1[:, m], dy["xi"][:, 0] = 1e-300, 1e-300, 1e300
        if name == "w1":
            x[0, where[0]] = 1e300
    breakdown = LossBreakdown(l_s=0.0, l_cen=0.0, l_p=0.0, l_var=0.0, l_vio=0.0, total=0.0,
                              grad_xi=dy["xi"].reshape(1, n, 9),
                              grad_b=dy["b"].reshape(1, n),
                              grad_eta_logits=dy["eta"].reshape(1, n, 2),
                              grad_mask_logits=dy["mask"].reshape(1, n, 2))
    return model, {"x": x, "h1": h1, "h2": h2}, breakdown


def test_mlp_backward_names_a_failing_element_as_the_reference_does():
    positions = parameter_views(np.arange(PARAMETER_COUNT))
    for name, index in _ends():
        model, cache, breakdown = _backward_overflowing_at(name, index)
        with np.errstate(over="ignore", invalid="ignore"):
            ref_grads = reference_mlp_backward(model, dict(cache), breakdown)
        # the one non-finite element is the injected one
        bad = np.flatnonzero(~np.isfinite(reference_vector(ref_grads)))
        assert bad.tolist() == [positions[name].flat[index]], (name, index)
        want = _failure(lambda: reference_gradient_check(ref_grads))
        got = _failure(lambda: mlp_backward(model, cache, breakdown))
        assert got == want == (NonFiniteError, f"non-finite gradient for parameter {name!r}")


def test_checkpoint_round_trip(tmp_path):
    model = init_model(4)
    state = AdamState(lr=3e-3)
    adam_step(model, np.full(PARAMETER_COUNT, 0.5), state)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, state, next_epoch=7)
    loaded, loaded_state, next_epoch = load_checkpoint(path)
    assert next_epoch == 7
    assert loaded_state.step == 1
    assert loaded_state.lr == 3e-3
    for k in model.params:
        assert np.array_equal(loaded.params[k], model.params[k])
    for name in ("m", "v"):
        got, want = getattr(loaded_state, name), getattr(state, name)
        assert got.tobytes() == want.tobytes(), name


def test_checkpoint_of_an_adam_state_that_has_not_stepped_round_trips(tmp_path):
    model, path = init_model(2), tmp_path / "model.ckpt"
    save_checkpoint(path, model, AdamState(lr=3e-3))
    loaded, state, next_epoch = load_checkpoint(path)
    assert loaded.vector.tobytes() == model.vector.tobytes()
    assert (next_epoch, state.step, state.lr) == (1, 0, 3e-3)
    for moment in (state.m, state.v):
        assert moment.shape == (PARAMETER_COUNT,)
        assert moment.tobytes() == np.zeros(PARAMETER_COUNT).tobytes()


def test_checkpoint_corruption_errors(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_model(0))
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad.ckpt"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ClusterSegError):
        load_checkpoint(bad_magic)
    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(ClusterSegError):
        load_checkpoint(truncated)



def _checkpoint_with_header(tmp_path, blob, length=None):
    """A .tsb file whose manifest is `blob`, its length field `length` if given."""
    path = tmp_path / "crafted.ckpt"
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob) if length is None else length)
                     + blob)
    return path


def test_checkpoint_magic_only_is_a_clusterseg_error(tmp_path):
    path = tmp_path / "magic.ckpt"
    path.write_bytes(MAGIC)
    with pytest.raises(BundleTruncatedError, match="magic.ckpt"):
        load_checkpoint(path)


def test_checkpoint_malformed_header_json_is_a_clusterseg_error(tmp_path):
    with pytest.raises(BundleManifestError, match="crafted.ckpt"):
        load_checkpoint(_checkpoint_with_header(tmp_path, b'{"params": {"dtype": "f64",'))


def test_checkpoint_huge_header_length_is_a_clusterseg_error(tmp_path):
    with pytest.raises(BundleTruncatedError, match="crafted.ckpt"):
        load_checkpoint(_checkpoint_with_header(tmp_path, b"{}", length=2 ** 40))


@pytest.mark.parametrize("blob", [b"[1, 2]", b'"header"', b"7"])
def test_checkpoint_non_object_header_is_a_clusterseg_error(tmp_path, blob):
    with pytest.raises(BundleManifestError, match="crafted.ckpt"):
        load_checkpoint(_checkpoint_with_header(tmp_path, blob))


def test_frame_features_layout():
    _, frame, _ = make_example(seed=0)
    x = frame_features(frame)
    H, W = frame.depth.shape
    assert x.shape == (H * W, 10)
    assert np.array_equal(x[:, 9], np.ones(H * W))
    pixel = 5 * W + 7
    assert np.array_equal(x[pixel, 0:3], frame.rgb[5, 7].astype(np.float64))
    assert np.array_equal(x[pixel, 3:6], frame.xyz[5, 7])
    assert x[pixel, 6] == frame.depth[5, 7]
    assert x[pixel, 7] == 7 / W
    assert x[pixel, 8] == 5 / H
