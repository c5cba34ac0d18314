"""The pruned clustering stages against their loop reference definitions.

Every comparison is bit for bit: labels, the bytes of the score array, the
seed list and the spherical-fallback counter. The fast paths inside the
stages (one-member statistics, the E-step filter's window over plain
components) are also checked against the per-group and dense computations
they replace, and both stages against the former library stages (a loop
iteration per pixel; a covariance matrix per component), which are fast
enough for large degenerate frames.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, seed, settings
from hypothesis import strategies as st

from clusterseg import clustering
from clusterseg.annotation import annotate
from clusterseg.clustering import (COVARIANCE_REGULARIZATION, Prediction, Segmentation,
                                   _components, _instance_scores, _quad_forms, _rivals, _weights,
                                   _window, gmm_refine, seed_segmentation, segment)
from clusterseg.errors import NonFiniteError, PlacementError, ShapeMismatchError
from clusterseg.geometry import FEATURE_DIM, CameraIntrinsics
from clusterseg.predictor import NoiseSpec, init_model, mlp_forward, noisy_predict, oracle_predict
from clusterseg.scenegen import GeneratorConfig, render, sample_scene

from conftest import same_partition
from test_clustering import (STRUCTURED_PATTERNS, _structured_errors, _with_errors,
                             pushed_pixel_scene)
from reference_clustering import (dense_gmm_refine, loop_seed_segmentation,
                                  reference_candidates, reference_gmm_refine,
                                  reference_seed_segmentation, reference_segment)


def _camera(res):
    return CameraIntrinsics(float(res), float(res), res / 2.0, res / 2.0, res, res)


def _frame(seed, res, count_range=(2, 8)):
    cfg = GeneratorConfig(count_range=count_range, size_range=(0.06, 0.18), camera=_camera(res))
    scene = sample_scene(seed, cfg)
    frame = render(scene)
    return frame, annotate(scene, frame)


def _assert_same(fast, ref):
    assert np.array_equal(fast.labels, ref.labels)
    assert fast.labels.dtype == ref.labels.dtype
    assert fast.scores.tobytes() == ref.scores.tobytes()
    assert fast.seeds == ref.seeds


def _assert_stages_exact(pred):
    """Both stages and their composition equal the references; returns the fallback count."""
    seeded = reference_seed_segmentation(pred)
    _assert_same(seed_segmentation(pred), seeded)
    fast_stats, ref_stats = {}, {}
    _assert_same(gmm_refine(seeded, pred, fast_stats),
                 reference_gmm_refine(seeded, pred, ref_stats))
    assert fast_stats == ref_stats
    return seeded, ref_stats.get("spherical_fallbacks", 0)


def _assert_both_oracles(pred):
    """Both stages equal the brute-force definitions and the former library stages."""
    seeded, fallbacks = _assert_stages_exact(pred)
    _assert_same(loop_seed_segmentation(pred), seeded)
    fast_stats, former_stats = {}, {}
    _assert_same(gmm_refine(seeded, pred, fast_stats), dense_gmm_refine(seeded, pred, former_stats))
    assert fast_stats == former_stats
    return seeded, fallbacks


def test_exact_on_oracle_and_noisy_corpus():
    for seed in range(100):
        _, ann = _frame(seed, 64)
        _assert_stages_exact(oracle_predict(ann))
        radius = 0.49 * float(ann.b_map[ann.fg_mask].min())
        _assert_stages_exact(noisy_predict(ann, NoiseSpec(bound_mode="uniform-ball",
                                                          ball_radius=radius), seed))


def test_settled_components_solve_no_own_pixel(monkeypatch):
    # On oracle frames every component settles before any pixel is scored,
    # so the E-step solves nothing. Under 0.49 minB ball noise, small
    # components of nearly singular covariance keep some frames from
    # settling (22 of these 100); most frames still solve nothing, and
    # every frame equals both oracles.
    columns = []
    real = clustering._quad_forms

    def quad_forms(diff, *args):
        columns.append(len(diff))
        return real(diff, *args)

    solved = {"oracle": [], "ball": []}
    for seed in range(100):
        _, ann = _frame(seed, 64)
        radius = 0.49 * float(ann.b_map[ann.fg_mask].min())
        ball = noisy_predict(ann, NoiseSpec(bound_mode="uniform-ball", ball_radius=radius), seed)
        for name, pred in (("oracle", oracle_predict(ann)), ("ball", ball)):
            seeded, _ = _assert_both_oracles(pred)
            monkeypatch.setattr(clustering, "_quad_forms", quad_forms)
            gmm_refine(seeded, pred)
            monkeypatch.undo()
            solved[name].append(sum(columns))
            columns.clear()
    assert solved["oracle"] == [0] * 100
    assert sum(n == 0 for n in solved["ball"]) >= 75


@pytest.mark.parametrize("pattern", STRUCTURED_PATTERNS)
def test_exact_under_structured_errors_below_half_min_radius(pattern):
    # Each visible object gets the same error pattern of norm 0.49 minB: a
    # pushed pixel, antipodal halves, a shared shift or uniform-ball
    # errors. A single lopsided member can decide a component's ball.
    for seed in range(12):
        cfg = GeneratorConfig(count_range=(2, 5), camera=_camera(64))
        scene = sample_scene(seed, cfg)
        ann = annotate(scene, render(scene))
        radius = 0.49 * float(ann.b_map[ann.fg_mask].min())
        rng = np.random.default_rng(seed)
        _assert_both_oracles(_with_errors(ann, _structured_errors(ann, radius, rng, pattern)))


def test_exact_on_the_pushed_pixel_scene():
    pred, _, p, _ = pushed_pixel_scene()
    seeded, _ = _assert_both_oracles(pred)
    assert gmm_refine(seeded, pred).labels.flat[p] != seeded.labels.flat[p]


def test_an_ill_conditioned_component_never_settles():
    # A zero-radius pixel seeds a plain component beside the end of a line
    # of five pixels 100 apart, which the next seed takes. Their covariance
    # has condition number 2e10, beyond what the bound trusts, so the line
    # cannot settle, and the E-step moves its end pixel to the plain one.
    xi = np.zeros((6, FEATURE_DIM))
    xi[0, :2] = 200.0, 1e-3
    xi[1:, 0] = [-200.0, -100.0, 0.0, 100.0, 200.0]
    pred = Prediction(xi_hat=xi.reshape(1, 6, FEATURE_DIM),
                      eta_hat=np.array([[0.99, 0.5, 0.5, 0.9, 0.5, 0.5]]),
                      b_hat=np.array([[0.0, 0.0, 0.0, 500.0, 0.0, 0.0]]), mask_prob=np.ones((1, 6)))
    seeded, _ = _assert_both_oracles(pred)
    assert seeded.labels.tolist() == [[1, 2, 2, 2, 2, 2]]
    assert gmm_refine(seeded, pred).labels.tolist() == [[1, 2, 2, 2, 2, 1]]


def test_quad_forms_match_one_solve_per_component():
    # Mahalanobis terms of scattered (pixel, component) pairs, including
    # spherical fallbacks and components with one pair, equal what one
    # solve (or division) over all pixels per component gives.
    rng = np.random.default_rng(4)
    for n_fg in (2, 3, 40, 700):
        M = 12
        X = rng.normal(size=(n_fg, 9)) * rng.uniform(0.01, 100.0)
        mus = rng.normal(size=(M, 9))
        shapes = rng.normal(size=(M, 9, 9)) * rng.uniform(0.01, 3.0, size=(M, 1, 1))
        covs = shapes @ shapes.transpose(0, 2, 1) + 1e-6 * np.eye(9)
        fallback = rng.random(M) < 0.3
        variance = np.where(fallback, rng.uniform(0.1, 5.0, M), 0.0)
        expected = np.empty((M, n_fg))
        for m in range(M):
            d = X - mus[m]
            solved = d.T / variance[m] if fallback[m] else np.linalg.solve(covs[m], d.T)
            expected[m] = np.einsum("nd,dn->n", d, solved)
        pairs = np.unique(rng.integers(0, M * n_fg, size=3 * n_fg + 5))
        comp, pix = np.divmod(pairs, n_fg)
        counts = np.bincount(comp, minlength=M)
        quad = _quad_forms(X[pix] - mus[comp], counts, covs, variance, fallback, min(n_fg, 2))
        assert quad.tobytes() == expected[comp, pix].tobytes()


def test_gmm_refine_exact_with_empty_components():
    # Components without members score NaN in the definition, and the
    # first NaN wins every pixel's argmax.
    rng = np.random.default_rng(8)
    for n_fg, labels in [(1, [3]), (6, [1, 1, 3, 3, 3, 1]), (12, [4] * 6 + [2] * 6)]:
        pred = Prediction(xi_hat=rng.normal(size=(1, n_fg, 9)), eta_hat=rng.random((1, n_fg)),
                          b_hat=np.ones((1, n_fg)), mask_prob=np.ones((1, n_fg)))
        M = max(labels)
        seg = Segmentation(labels=np.array([labels], dtype=np.int32), scores=np.zeros(M),
                           seeds=[(0, m) for m in range(M)])
        fast_stats, ref_stats = {}, {}
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _assert_same(gmm_refine(seg, pred, fast_stats),
                         reference_gmm_refine(seg, pred, ref_stats))
        assert fast_stats == ref_stats


@pytest.mark.parametrize("res", [32, 48, 64])
def test_exact_on_untrained_mlp(res):
    frame, _ = _frame(1, res, count_range=(2, 6))
    logits, _ = mlp_forward(init_model(0), frame)
    seeded, _ = _assert_stages_exact(logits.to_prediction())
    # The degenerate regime: nearly every foreground pixel seeds.
    assert len(seeded.scores) > 0.8 * np.count_nonzero(seeded.labels)


@pytest.mark.parametrize("res", [96, 128])
def test_former_stages_agree_on_large_untrained_mlp(res):
    # The brute-force definitions are too slow here; the former stages are
    # second oracles.
    frame, _ = _frame(1, res, count_range=(2, 6))
    pred = mlp_forward(init_model(0), frame)[0].to_prediction()
    seeded = seed_segmentation(pred)
    _assert_same(seeded, loop_seed_segmentation(pred))
    fast_stats, former_stats = {}, {}
    _assert_same(gmm_refine(seeded, pred, fast_stats), dense_gmm_refine(seeded, pred, former_stats))
    assert fast_stats == former_stats
    assert len(seeded.scores) > 0.8 * np.count_nonzero(seeded.labels)


def test_exact_with_open_pixels_beside_a_slab_indexed_group():
    # A NaN pixel scores NaN under every component, so the definition moves
    # it to component 0, a one-member component of the indexed group; a
    # pixel of huge magnitude is never pruned either.
    frame, _ = _frame(1, 48, count_range=(2, 6))
    pred = mlp_forward(init_model(0), frame)[0].to_prediction()
    rows, cols = np.nonzero(pred.mask_prob >= 0.5)
    pred.xi_hat[rows[-1], cols[-1]] = np.nan
    pred.xi_hat[rows[-2], cols[-2]] = 1e60
    with np.errstate(all="ignore"):
        seeded, _ = _assert_stages_exact(pred)
        refined = gmm_refine(seeded, pred)
    assert np.count_nonzero(seeded.labels == 1) == 1
    assert refined.labels[rows[-1], cols[-1]] == 1


@pytest.mark.parametrize("size", [2, 3])
def test_exact_on_clusters_without_plain_components(size):
    # Clusters of `size` rows 1e-3 apart, well inside each other's 0.05
    # radius, seed components of `size` members (and one of the last row
    # left over when 256 rows do not divide). Those are not plain, so they
    # meet the bound in dense blocks, not in the plain components' window.
    rng = np.random.default_rng(0)
    n = 16 * 16
    centres = rng.uniform(0.0, 1.0, (-(-n // size), FEATURE_DIM))
    xi = np.repeat(centres, size, axis=0)[:n] + 1e-3 * rng.normal(size=(n, FEATURE_DIM))
    pred = Prediction(xi_hat=xi.reshape(16, 16, FEATURE_DIM), eta_hat=rng.random((16, 16)),
                      b_hat=np.full((16, 16), 0.05), mask_prob=np.ones((16, 16)))
    seeded, _ = _assert_both_oracles(pred)
    assert len(seeded.scores) == len(centres)


@pytest.mark.parametrize("frac", [0.49, 2.0])
def test_exact_under_ball_noise_at_128(frac):
    _, ann = _frame(7, 128, count_range=(4, 8))
    radius = frac * float(ann.b_map[ann.fg_mask].min())
    pred = noisy_predict(ann, NoiseSpec(bound_mode="uniform-ball", ball_radius=radius), 7)
    _assert_stages_exact(pred)


def _overflow_case(magnitude):
    """A 1 x 48 row whose features and radii scale with `magnitude`.

    Seeds, in order: pixels 0-3 share one feature, with a radius whose
    square stays finite at every magnitude. Pixels 4-15 and 16-27 form two
    clusters with spread 1e-160 and strongly correlated first two
    components, centred at 0 and at (1, 0.5, 0, ...). From 1e160 up the
    second centre's squared norm overflows, and the Mahalanobis term of a
    pixel of either cluster under the other sums overflowing products of
    both signs, so the definition scores it NaN, which wins the argmax.
    Pixels 28-30 lie on the diagonal 1e6 apart: their seed's radius covers
    them, and their covariance is exactly rank one with entries that
    swallow the 1e-6 regularization, so it falls back to spherical even at
    magnitude 1; from 1e150 up the seed's squared radius is infinite and
    takes every pixel left. The rest scatter around a point 1e9 away.
    """
    rng = np.random.default_rng(11)
    n = 48
    xi = np.zeros((n, 9))
    xi[:4, 0] = -1e9
    spread = rng.normal(size=(24, 9))
    spread[:, 1] = 0.95 * spread[:, 0] + 0.3 * spread[:, 1]
    xi[4:28] = 1e-160 * spread
    xi[16:28, :2] += (1.0, 0.5)
    xi[28:31] = np.array([1e6, 2e6, 3e6])[:, None]
    xi[31:] = rng.normal(scale=10.0, size=(n - 31, 9))
    xi[31:, 0] += 1e9
    eta = np.concatenate([[0.99, 0.5, 0.5, 0.5], [0.98] + [0.5] * 11, [0.97] + [0.5] * 11,
                          [0.6, 0.9, 0.6], rng.uniform(0.1, 0.8, n - 31)])
    b = np.concatenate([[1e-46, 1.0, 1.0, 1.0], [1e-158] + [1.0] * 11, [1e-158] + [1.0] * 11,
                        [1.0, 7e6, 1.0], rng.uniform(0.0, 30.0, n - 31)])
    return Prediction(xi_hat=(xi * magnitude).reshape(1, n, 9), eta_hat=eta.reshape(1, n),
                      b_hat=(b * magnitude).reshape(1, n), mask_prob=np.ones((1, n)))


@pytest.mark.parametrize("magnitude", [1.0, 1e150, 1e160, 1e200])
def test_exact_near_overflow(magnitude):
    pred = _overflow_case(magnitude)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        seeded, fallbacks = _assert_both_oracles(pred)
        _assert_same(segment(pred), reference_segment(pred))
    assert len(seeded.scores) >= 2
    assert fallbacks > 0


def test_exact_with_one_member_components_whose_differences_overflow():
    # Rows +-1e308 apart overflow x - mu, so the definition scores them
    # under each other's one-member components as NaN, and the first NaN
    # takes a pixel: the plain components' window must leave rows of huge norm
    # to the exact scores, although their first components nearly agree.
    xi = np.zeros((4, FEATURE_DIM))
    xi[0, 1], xi[1, 1], xi[1, 0] = 1e308, -1e308, 1e-300
    xi[2], xi[3] = 5.0, -5.0
    pred = Prediction(xi_hat=xi.reshape(1, 4, FEATURE_DIM),
                      eta_hat=np.array([[0.9, 0.8, 0.7, 0.6]]), b_hat=np.zeros((1, 4)),
                      mask_prob=np.ones((1, 4)))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        seeded, _ = _assert_both_oracles(pred)
        refined = gmm_refine(seeded, pred)
    assert len(seeded.scores) == 4
    assert refined.labels.tolist() != seeded.labels.tolist()


@pytest.mark.parametrize("radius", [1.0, 1e300])
@pytest.mark.parametrize("signs", [[[1] * 9, [-1] * 9, [1] * 9, [-1] * 9],
                                   [[1, -1] + [0] * 7, [1, 1] + [0] * 7,
                                    [-1, 1] + [0] * 7, [-1, -1] + [0] * 7]])
def test_huge_finite_features_cluster_as_the_definition_without_warnings(signs, radius):
    # Rows of +-1e308 overflow the definition's seed distances, component
    # sums and differences. The stages run under the suite's
    # error::RuntimeWarning filter; only the oracles, which warn, run
    # with warnings off.
    pred = Prediction(xi_hat=1e308 * np.array(signs, dtype=np.float64).reshape(2, 2, FEATURE_DIM),
                      eta_hat=np.array([[0.9, 0.8], [0.7, 0.6]]), b_hat=np.full((2, 2), radius),
                      mask_prob=np.ones((2, 2)))
    seeded = seed_segmentation(pred)
    stats = {}
    refined = gmm_refine(seeded, pred, stats)
    _assert_same(segment(pred), refined)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for oracle in (reference_seed_segmentation, loop_seed_segmentation):
            _assert_same(seeded, oracle(pred))
        for oracle in (reference_gmm_refine, dense_gmm_refine):
            oracle_stats = {}
            _assert_same(refined, oracle(seeded, pred, oracle_stats))
            assert stats == oracle_stats


def test_segment_rejects_non_finite_predictions():
    _, ann = _frame(3, 32)
    for name in ("xi_hat", "eta_hat", "b_hat", "mask_prob"):
        for bad in (np.nan, np.inf, -np.inf):
            pred = oracle_predict(ann)
            values = getattr(pred, name).astype(np.float64).copy()
            values.reshape(-1)[values.size // 2] = bad
            setattr(pred, name, values)
            with pytest.raises(NonFiniteError):
                segment(pred)


def test_segment_rejects_mismatched_shapes():
    _, ann = _frame(3, 32)
    shapes = {"xi_hat": (32, 31, 9), "eta_hat": (31, 32), "b_hat": (32, 32, 1),
              "mask_prob": (16, 64)}
    for name, shape in shapes.items():
        pred = oracle_predict(ann)
        setattr(pred, name, np.zeros(shape))
        with pytest.raises(ShapeMismatchError):
            segment(pred)
    pred = oracle_predict(ann)
    pred.xi_hat = pred.xi_hat[..., :8]
    with pytest.raises(ShapeMismatchError):
        segment(pred)
    # Maps that agree with each other, but are not H x W.
    pred = oracle_predict(ann)
    for name in ("xi_hat", "eta_hat", "b_hat", "mask_prob"):
        value = getattr(pred, name)
        setattr(pred, name, value.reshape(1, *value.shape))
    with pytest.raises(ShapeMismatchError, match="eta_hat must be H x W"):
        segment(pred)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**31 - 1), res=st.integers(24, 48),
       count_range=st.tuples(st.integers(1, 4), st.integers(0, 4)).map(
           lambda t: (t[0], t[0] + t[1])),
       size_lo=st.floats(0.05, 0.12), size_span=st.floats(0.0, 0.08),
       frac=st.floats(0.0, 0.499))
def test_ball_noise_below_half_min_radius_recovers_partition(seed, res, count_range,
                                                             size_lo, size_span, frac):
    cfg = GeneratorConfig(count_range=count_range, size_range=(size_lo, size_lo + size_span),
                          camera=_camera(res))
    try:
        scene = sample_scene(seed, cfg)
    except PlacementError:
        assume(False)
    frame = render(scene)
    ann = annotate(scene, frame)
    assume(ann.fg_mask.any())
    radius = frac * float(ann.b_map[ann.fg_mask].min())
    pred = noisy_predict(ann, NoiseSpec(bound_mode="uniform-ball", ball_radius=radius), seed)
    assert same_partition(seed_segmentation(pred).labels, frame.instance_map)
    assert same_partition(segment(pred).labels, frame.instance_map)


# Plain and awkward float64 values: signed zeros, subnormals, NaN, infinities,
# huge magnitudes.
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, np.nan,
                    np.inf, -np.inf, 1.0, -2.5, 0.1, 3e38, 1e300, -1e300])


def _values(data, shape, scale=1e3):
    """Floats of `shape`, each from SPECIAL or uniform in [-scale, scale]."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pick = rng.random(shape) < data.draw(st.sampled_from([0.1, 0.5, 0.9]))
    return np.where(pick, rng.choice(SPECIAL, size=shape), rng.uniform(-scale, scale, shape))


def _groups(data, max_size=12):
    """Labels 1..count in shuffled row order, group sizes 1..max_size."""
    sizes = data.draw(st.lists(st.integers(1, max_size), min_size=1, max_size=8))
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return labels[np.array(data.draw(st.permutations(range(labels.size))), dtype=np.intp)]


@settings(max_examples=150, deadline=None, derandomize=True)
@seed(0)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]))
def test_instance_scores_equal_a_mean_per_instance(data, dtype):
    labels = _groups(data)
    # Unlabelled pixels (label 0) take no part, as seeding leaves -inf pixels.
    labels = np.concatenate((labels, np.zeros(data.draw(st.integers(0, 3)), dtype=labels.dtype)))
    count = int(labels.max())
    with np.errstate(all="ignore"):
        eta = _values(data, labels.size).astype(dtype)
        expected = np.array([float(eta[labels == m].mean()) for m in range(1, count + 1)])
        got = _instance_scores(labels.astype(np.int32), eta, count)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@seed(0)
@given(data=st.data())
def test_component_statistics_equal_a_mean_and_matmul_per_component(data):
    labels = _groups(data)
    X = _values(data, (labels.size, FEATURE_DIM))
    sizes = np.bincount(labels - 1)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mus, matrices, slot, plain, centered = _components(X[np.argsort(labels, kind="stable")],
                                                           sizes)
        for m in range(sizes.size):
            members = X[labels == m + 1]
            mu = members.mean(axis=0)
            centered_members = members - mu
            cov = centered_members.T @ centered_members / members.shape[0]
            cov[np.diag_indices_from(cov)] += COVARIANCE_REGULARIZATION
            assert mus[m].tobytes() == mu.tobytes()
            assert matrices[slot[m]].tobytes() == cov.tobytes()
            if plain[m]:
                assert sizes[m] == 1 and np.array_equal(cov, COVARIANCE_REGULARIZATION * np.eye(9))
            else:
                assert centered[slot[m]].tobytes() == centered_members.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@seed(0)
@given(data=st.data())
def test_stages_exact_with_non_finite_features_and_radii(data):
    # Direct calls may pass what segment() rejects; both stages must still
    # follow their definitions.
    n = data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    odd = rng.choice([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 1e200], size=n)
    radii = np.where(rng.random(n) < 0.3, odd, rng.uniform(0.0, 5.0, n))
    # Few distinct centroid probabilities, so ties in the visit order occur.
    pred = Prediction(xi_hat=_values(data, (1, n, FEATURE_DIM), scale=3.0),
                      eta_hat=rng.integers(0, 5, size=(1, n)) / 4.0,
                      b_hat=radii.reshape(1, n), mask_prob=np.ones((1, n)))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_both_oracles(pred)


def test_seeding_visits_nan_centroid_probabilities_first_as_the_definition():
    # The definition's argmax returns the first NaN, so NaN pixels seed first.
    rng = np.random.default_rng(29)
    for _ in range(200):
        eta = rng.integers(0, 5, size=(6, 7)) / 4.0
        eta.reshape(-1)[rng.choice(eta.size, size=rng.integers(1, 4), replace=False)] = np.nan
        pred = Prediction(xi_hat=rng.normal(size=(6, 7, FEATURE_DIM)), eta_hat=eta,
                          b_hat=rng.uniform(0.0, 5.0, (6, 7)), mask_prob=rng.random((6, 7)))
        seeded = seed_segmentation(pred)
        _assert_same(seeded, reference_seed_segmentation(pred))
        _assert_same(seeded, loop_seed_segmentation(pred))


@settings(max_examples=60, deadline=None, derandomize=True)
@seed(0)
@given(data=st.data())
def test_stages_exact_with_duplicate_and_near_duplicate_rows(data):
    # A row that repeats an earlier one up to 0, 1e-12 or 1e-160 seeds its
    # own one-member component under a zero or tiny radius; in the E-step
    # the two components then score both pixels equally, and the lower
    # index takes them. Rows holding -0.0 are never plain.
    n = data.draw(st.integers(2, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    xi = rng.uniform(-3.0, 3.0, (n, FEATURE_DIM))
    xi[rng.random(n) < 0.15, rng.integers(0, FEATURE_DIM)] = -0.0
    for i in np.flatnonzero(rng.random(n) < 0.6)[1:].tolist():
        xi[i] = xi[rng.integers(0, i)]
        gap = rng.choice([0.0, 1e-12, 1e-160])
        xi[i, rng.integers(0, FEATURE_DIM)] += gap * rng.choice([-1.0, 1.0])
    radii = rng.choice([0.0, 0.0, 5e-324, 1e-300, 1e-170, 0.5], size=n)
    pred = Prediction(xi_hat=xi.reshape(1, n, FEATURE_DIM),
                      eta_hat=rng.integers(0, 5, size=(1, n)) / 4.0,
                      b_hat=radii.reshape(1, n), mask_prob=np.ones((1, n)))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_both_oracles(pred)


def test_exact_ties_between_plain_components_one_ulp_apart():
    # Zero radii seed one component per row. Rows one ulp apart in
    # component 0 that agree elsewhere score each other's pixels exactly as
    # their own, so the lower index takes both: three triples of plain
    # rows, and a plain row beside one holding -0.0, which is no plain
    # component but scores as one. Centroid probabilities tie, so the visit
    # order mostly falls to the flat index. Two-member clusters meet the
    # plain components in dense blocks, and the last pair straddles the
    # pruning's magnitude limit: one squared norm lies just under 1e100,
    # the other at it.
    base = np.linspace(-1.0, 1.0, FEATURE_DIM)

    def row(x0):
        out = base.copy()
        out[0] = x0
        return out

    rows = [row(np.nextafter(x0, to)) for x0 in (0.3, -2.0, 7.5) for to in (np.inf, x0, -np.inf)]
    rows += [row(3.0), row(np.nextafter(3.0, np.inf))]
    rows[-1][FEATURE_DIM // 2] = -0.0
    rows += [base + 0.5, base + 0.5 + 1e-3, base - 4.0, base - 4.0 - 1e-3]
    rows += [np.eye(FEATURE_DIM)[0] * np.nextafter(1e50, 0.0), np.eye(FEATURE_DIM)[0] * 1e50]
    assert rows[-2] @ rows[-2] < clustering._MAGNITUDE <= rows[-1] @ rows[-1]
    # With the last pair, the component under the limit meets the pixels
    # through the window, the one at it meets every pixel.
    for n in (len(rows) - 2, len(rows)):
        eta = np.where(np.arange(n) % 4 == 1, 0.9, 0.5)
        radii = np.where((np.arange(n) >= 11) & (np.arange(n) < 15), 0.01, 0.0)
        pred = Prediction(xi_hat=np.array(rows[:n]).reshape(1, n, FEATURE_DIM),
                          eta_hat=eta.reshape(1, n), b_hat=radii.reshape(1, n),
                          mask_prob=np.ones((1, n)))
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            seeded, _ = _assert_both_oracles(pred)
            labels = gmm_refine(seeded, pred).labels[0]
        assert len(seeded.scores) == n - 2
        assert [len(set(labels[i:i + 3].tolist())) for i in (0, 3, 6, 9)] == [1, 1, 1, 2]
        assert labels[10] == labels[9]


@settings(max_examples=40, deadline=None, derandomize=True)
@seed(0)
@given(data=st.data())
def test_seeding_equals_both_oracles_at_every_claim_density(data):
    # From pixels that claim no other to pixels that all claim many, with
    # NaN, infinite and overflowing radii, seeding equals both oracles.
    n = data.draw(st.integers(1, 300))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    claimers = rng.random(n) < data.draw(st.sampled_from([0.0, 0.02, 0.2, 0.6, 1.0]))
    radii = np.where(claimers, rng.uniform(0.0, data.draw(st.sampled_from([0.05, 0.4, 2.0])), n),
                     0.0)
    radii[rng.random(n) < 0.02] = rng.choice([np.nan, np.inf, 1e200])
    xi = rng.uniform(0.0, 1.0, (n, FEATURE_DIM))
    xi[:, 1:] *= data.draw(st.sampled_from([0.0, 0.1, 1.0]))
    xi = xi.astype(data.draw(st.sampled_from([np.float64, np.float32])))
    pred = Prediction(xi_hat=xi.reshape(1, n, FEATURE_DIM), eta_hat=rng.random((1, n)),
                      b_hat=radii.reshape(1, n), mask_prob=rng.random((1, n)) * 1.2)
    with np.errstate(all="ignore"):
        want = reference_seed_segmentation(pred)
        _assert_same(loop_seed_segmentation(pred), want)
        _assert_same(seed_segmentation(pred), want)


def test_seeding_window_floor_follows_the_feature_dtype():
    # Rows 1e-23 apart in float32 have a squared distance that underflows
    # to 0, within a zero radius, so the definition puts both in one
    # instance; a float64 floor would leave the second out of the first's
    # window.
    xi = np.zeros((1, 2, FEATURE_DIM), dtype=np.float32)
    xi[0, 1, 0] = 1e-23
    pred = Prediction(xi_hat=xi, eta_hat=np.array([[0.9, 0.8]]), b_hat=np.zeros((1, 2)),
                      mask_prob=np.ones((1, 2)))
    want = reference_seed_segmentation(pred)
    assert want.labels.tolist() == [[1, 1]]
    _assert_same(loop_seed_segmentation(pred), want)
    _assert_same(seed_segmentation(pred), want)


def _assert_index_keeps_every_dense_pair(call, monkeypatch):
    """The plain components' window ends where the dense bound rejects.

    For each pixel with a finite threshold, the nearest plain component on
    each side of its window (before a window holding only the pixel's own
    component is skipped) is one the dense bound rejects, and so does its
    first-component term, so every plain component the bound keeps lies
    inside. `_candidates` itself returns every kept pair whose bound is
    clear of its threshold by more than rounding. `call` holds the
    arguments of a `_rivals` call and of the `_candidates` call that
    follows it. Returns the number of window ends checked.
    """
    (_, matrices, slot, variance, fallback, log_w, const, plain), args = call
    X, own, own_score, mus, _ = args
    seen = {}

    def shared_pairs(*shared_args):
        seen["tight"] = shared_args[6]
        return real_shared(*shared_args)

    def window(*window_args):
        lo, count = real_window(*window_args)
        seen["window"] = lo.copy(), count.copy()
        return lo, count

    real_shared, real_window = clustering._shared_pairs, clustering._window
    monkeypatch.setattr(clustering, "_shared_pairs", shared_pairs)
    monkeypatch.setattr(clustering, "_window", window)
    with np.errstate(all="ignore"):
        pix, comp = reference_candidates(X, own, own_score, mus, matrices[slot], variance[slot],
                                         fallback[slot], log_w, const)
        # The bound terms of every component on its own, as if none were plain.
        _, _, _, slope, offset, _, _, prunable = _rivals(mus, matrices, slot, variance, fallback,
                                                      log_w, const, np.zeros_like(plain))
        weights = _weights(mus, np.einsum("md,md->m", mus, mus), slope, offset)
        weights[~prunable] = np.nan
        xx = np.einsum("nd,nd->n", X, X)
        rows = np.concatenate((X, xx[:, None], np.ones((len(X), 1))), axis=1)
        threshold = np.where((xx < clustering._MAGNITUDE) & np.isfinite(own_score),
                             -2.0 * own_score, np.inf)
        bound = np.einsum("nk,nk->n", rows[pix], weights[comp])
        clear = ~(bound >= threshold[pix] - 1e-9 * (1.0 + np.abs(threshold[pix])))
        got_pix, got_comp = clustering._candidates(*args)
        assert np.isin(comp[clear] * len(X) + pix[clear], got_comp * len(X) + got_pix).all()
        monkeypatch.undo()
        if "window" not in seen:
            return 0
        tight, (lo, count) = seen["tight"], seen["window"]
        # The pixels with finite thresholds, in the order _shared_pairs queries them.
        closed = np.flatnonzero(threshold != np.inf)
        closed = closed[np.argsort(X[closed, 0])]
        checked = 0
        for at, inside in ((lo - 1, lo > 0), (lo + count, lo + count < tight.size)):
            p, c = closed[inside], tight[at[inside]]
            assert (np.einsum("nk,nk->n", rows[p], weights[c]) > threshold[p]).all()
            # So does the first-component term alone, which the window reads.
            assert (slope[c] * (X[p, 0] - mus[c, 0]) ** 2 - offset[c] > threshold[p]).all()
            checked += p.size
    return checked


def _recorded_candidate_calls(monkeypatch, preds):
    """(`_rivals` arguments, `_candidates` arguments) of each `_candidates` call of segment()."""
    calls, latest = [], {}
    real_rivals, real_candidates = clustering._rivals, clustering._candidates

    def rivals(*args):
        latest["rivals"] = args
        return real_rivals(*args)

    def candidates(*args):
        calls.append((latest["rivals"], args))
        return real_candidates(*args)

    monkeypatch.setattr(clustering, "_rivals", rivals)
    monkeypatch.setattr(clustering, "_candidates", candidates)
    for pred in preds:
        segment(pred)
    monkeypatch.undo()
    return calls


def test_slab_index_keeps_every_pair_the_dense_bound_keeps(monkeypatch):
    # Frames whose components all settle never call _candidates, so
    # Gaussian feature noise and untrained models supply contested pixels.
    preds = []
    for seed in range(100):
        _, ann = _frame(seed, 64)
        radius = 0.49 * float(ann.b_map[ann.fg_mask].min())
        ball = NoiseSpec(bound_mode="uniform-ball", ball_radius=radius)
        preds += [oracle_predict(ann), noisy_predict(ann, ball, seed)]
        preds += [noisy_predict(ann, NoiseSpec(sigma_xi=sigma), seed)
                  for sigma in (0.02, 0.05, 0.1)]
    for res in (32, 48, 64, 96):
        frame, _ = _frame(1, res, count_range=(2, 6))
        preds += [mlp_forward(init_model(model), frame)[0].to_prediction() for model in range(12)]
    calls = _recorded_candidate_calls(monkeypatch, preds)
    assert len(calls) > 250
    assert sum(_assert_index_keeps_every_dense_pair(call, monkeypatch) for call in calls) > 10_000


def test_plain_window_stays_narrow_beside_a_component_of_huge_norm(monkeypatch):
    # A foreground row of norm 1e40 seeds a plain component whose squared
    # norm is still below the pruning's limit. The window's reach is
    # bounded per pixel, not by the largest component norm, so the E-step's
    # windows hold about as many pairs as on the clean frame.
    frame, _ = _frame(1, 48, count_range=(2, 6))
    real_window = clustering._window
    totals = []
    for outlier in (False, True):
        pred = mlp_forward(init_model(0), frame)[0].to_prediction()
        if outlier:
            rows, cols = np.nonzero(pred.mask_prob >= 0.5)
            pred.xi_hat[rows[0], cols[0]] = 1e40 * np.eye(FEATURE_DIM)[0]
        seeded, _ = _assert_both_oracles(pred)
        counts = []

        def window(*args):
            lo, count = real_window(*args)
            counts.append(int(count.sum()))
            return lo, count

        monkeypatch.setattr(clustering, "_window", window)
        gmm_refine(seeded, pred)
        monkeypatch.undo()
        totals.append(sum(counts))
    assert 0 < totals[1] <= 2 * totals[0]


def test_window_holds_every_component_within_reach_despite_rounding():
    # reach is the least float at or above the exact (x0 - mu0)^2. Where
    # |mu0| is far below |x0 - mu0|, the square root rounds down past the
    # exact distance, and x0 - sqrt(reach) lands beyond mu0 for about a
    # third of these pairs; the window's widening must keep every one.
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(400) * 10.0 ** rng.integers(-5, 5, 400)
    mu0 = rng.standard_normal(400) * 10.0 ** rng.integers(-25, 5, 400)
    reach = []
    for x, mu in zip(x0.tolist(), mu0.tolist()):
        exact = (Fraction(x) - Fraction(mu)) ** 2
        near = float(exact)
        reach.append(near if Fraction(near) >= exact else math.nextafter(near, math.inf))
    order = np.argsort(mu0)
    lo, count = _window(mu0[order], x0, np.array(reach))
    rank = np.argsort(order)
    assert ((lo <= rank) & (rank < lo + count)).all()
