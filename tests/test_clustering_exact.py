"""The pruned clustering stages against their loop reference definitions.

Every comparison is bit for bit: labels, the bytes of the score array, the
seed list and the spherical-fallback counter. The fast paths inside the
stages (one-member statistics, the slab index of the E-step filter) are
also checked against the per-group and dense computations they replace.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from clusterseg import clustering
from clusterseg.annotation import annotate
from clusterseg.clustering import (COVARIANCE_REGULARIZATION, Prediction, Segmentation,
                                   _bound_terms, _components, _instance_scores, _quad_forms,
                                   _slab_window, gmm_refine, seed_segmentation, segment)
from clusterseg.errors import NonFiniteError, PlacementError, ShapeMismatchError
from clusterseg.geometry import FEATURE_DIM, CameraIntrinsics
from clusterseg.predictor import NoiseSpec, init_model, mlp_forward, noisy_predict, oracle_predict
from clusterseg.scenegen import GeneratorConfig, render, sample_scene

from conftest import same_partition
from reference_clustering import (reference_candidates, reference_gmm_refine,
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


def test_exact_on_oracle_and_noisy_corpus():
    for seed in range(100):
        _, ann = _frame(seed, 64)
        _assert_stages_exact(oracle_predict(ann))
        radius = 0.49 * float(ann.b_map[ann.fg_mask].min())
        _assert_stages_exact(noisy_predict(ann, NoiseSpec(bound_mode="uniform-ball",
                                                          ball_radius=radius), seed))


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
    with np.errstate(all="ignore"):
        seeded, fallbacks = _assert_stages_exact(pred)
        _assert_same(segment(pred), reference_segment(pred))
    assert len(seeded.scores) >= 2
    assert fallbacks > 0


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
@given(data=st.data())
def test_component_statistics_equal_a_mean_and_matmul_per_component(data):
    labels = _groups(data)
    X = _values(data, (labels.size, FEATURE_DIM))
    sizes = np.bincount(labels - 1)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mus, covs, plain = _components(X[np.argsort(labels, kind="stable")], sizes)
        for m in range(sizes.size):
            members = X[labels == m + 1]
            mu = members.mean(axis=0)
            centered = members - mu
            cov = centered.T @ centered / members.shape[0]
            cov[np.diag_indices_from(cov)] += COVARIANCE_REGULARIZATION
            assert mus[m].tobytes() == mu.tobytes()
            assert covs[m].tobytes() == cov.tobytes()
            if plain[m]:
                assert sizes[m] == 1 and np.array_equal(cov, COVARIANCE_REGULARIZATION * np.eye(9))


@settings(max_examples=60, deadline=None, derandomize=True)
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
        _assert_stages_exact(pred)


def _assert_index_keeps_every_dense_pair(args):
    """Every pair the dense bound keeps lies in the slab index.

    A kept pair has an open pixel (infinite threshold), a component that is
    not prunable, or lies inside the pixel's window over the component's
    slope group; the windows are checked for every group, and for all
    prunable components as one group. `_candidates` itself returns every
    kept pair whose bound is clear of its threshold by more than rounding.
    Returns the number of pairs checked against a window.
    """
    X, own, own_score, mus, covs, variance, fallback, log_w, const, plain = args
    with np.errstate(all="ignore"):
        pix, comp = reference_candidates(*args[:-1])
        rows, weights, threshold, slope, offset, prunable = _bound_terms(
            X, own_score, mus, covs, variance, fallback, log_w, const, plain)
        bound = np.einsum("nk,nk->n", rows[pix], weights[comp])
        clear = ~(bound >= threshold[pix] - 1e-9 * (1.0 + np.abs(threshold[pix])))
        got_pix, got_comp = clustering._candidates(*args)
        assert np.isin(comp[clear] * len(X) + pix[clear], got_comp * len(X) + got_pix).all()
        closed = np.flatnonzero(threshold != np.inf)
        row_of = np.full(len(X), -1)
        row_of[closed] = np.arange(closed.size)
        tight = np.flatnonzero(prunable)
        exponent = np.frexp(slope[tight])[1]
        checked = 0
        for group in [tight[exponent == k] for k in np.unique(exponent)] + [tight]:
            order, lo, count = _slab_window(X[closed, 0], rows[closed, FEATURE_DIM],
                                            threshold[closed], mus[group], slope[group],
                                            offset[group])
            rank = np.full(len(mus), -1)
            rank[group[order]] = np.arange(group.size)
            mine = (rank[comp] >= 0) & (row_of[pix] >= 0)
            r, at = row_of[pix[mine]], rank[comp[mine]]
            assert np.all((lo[r] <= at) & (at < lo[r] + count[r]))
            checked += int(mine.sum())
    return checked


def _recorded_candidate_calls(monkeypatch, preds):
    calls = []
    real = clustering._candidates

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(clustering, "_candidates", record)
    for pred in preds:
        segment(pred)
    monkeypatch.undo()
    return calls


def test_slab_index_keeps_every_pair_the_dense_bound_keeps(monkeypatch):
    preds = []
    for seed in range(100):
        _, ann = _frame(seed, 64)
        radius = 0.49 * float(ann.b_map[ann.fg_mask].min())
        ball = NoiseSpec(bound_mode="uniform-ball", ball_radius=radius)
        preds += [oracle_predict(ann), noisy_predict(ann, ball, seed),
                  noisy_predict(ann, NoiseSpec(sigma_xi=0.05), seed)]
    for res in (32, 48, 64, 96):
        frame, _ = _frame(1, res, count_range=(2, 6))
        preds += [mlp_forward(init_model(model), frame)[0].to_prediction() for model in range(4)]
    calls = _recorded_candidate_calls(monkeypatch, preds)
    assert len(calls) > 250
    assert sum(_assert_index_keeps_every_dense_pair(args) for args in calls) > 10_000
