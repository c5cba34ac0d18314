"""Two-stage instance segmentation in object-feature space.

Stage one seeds greedily: the unassigned foreground pixel with the highest
centroid probability becomes a seed, and every unassigned foreground pixel
whose predicted feature lies within the seed's predicted radius (closed
ball) joins that instance. Stage two refines the result with one hard
Gaussian-mixture E-step: component means/covariances come from the seeded
clusters, mixture weights from cluster sizes, and each foreground pixel is
reassigned to the component with the highest weighted log-density.

The refinement never changes which pixels are foreground, only their
instance labels. Instance confidence is the mean centroid probability over
member pixels.

Both stages return exactly what the brute-force definitions above return
(labels, score bits and seeds), but skip work that provably cannot change
the result, so their cost grows close to linearly with foreground pixels:

* Seeding visits foreground pixels once, by descending centroid probability
  then flat index. A pixel can lie in a seed's ball only if its first
  feature component lies within the seed's radius of the seed's, so a
  binary search over the pixels sorted by that component gives a candidate
  slab, widened for rounding, and only its live pixels get the 9-D distance
  test. A radius whose square is not finite in the feature dtype tests
  every live pixel, as the definition then does.
* The E-step scores each pixel under its own seeded component exactly.
  Since the Mahalanobis term is at least |x - mu_m|^2 / lambda_max(S_m),
  component m scores at most
  log w_m - 1/2 (9 log 2 pi + log|S_m| + |x - mu_m|^2 / lambda_max(S_m)).
  Squared distances for all pairs come from one blocked gemm; where the
  bound, widened for rounding and for the conditioning of S_m, falls below
  the own score, m cannot win and is skipped (Elkan, "Using the Triangle
  Inequality to Accelerate k-Means", ICML 2003, adapted to log-densities).
  Pixels or components whose magnitudes could overflow are never pruned.
  The surviving pairs go through the same solve and dot product as the
  definition; ties go to the lowest component index.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError
from .geometry import FEATURE_DIM

DEFAULT_FG_THRESHOLD = 0.5
COVARIANCE_REGULARIZATION = 1e-6
# Element budget of every dense pixel x component block in gmm_refine.
_BLOCK_ELEMENTS = 1 << 16

_EPS = float(np.finfo(np.float64).eps)
# Pruning needs |x|^2 and |mu|^2 below this, and 1 / lambda_min(S) and the
# bound's slope below _CAP, so nothing the definition computes can overflow.
_MAGNITUDE = 1e100
_CAP = 1e100


@dataclass
class Prediction:
    """Per-pixel model outputs in probability space."""

    xi_hat: np.ndarray     # H x W x 9
    eta_hat: np.ndarray    # H x W in [0, 1]
    b_hat: np.ndarray      # H x W >= 0
    mask_prob: np.ndarray  # H x W in [0, 1]


@dataclass
class Segmentation:
    """Predicted instance labels (0 = background) with per-instance data."""

    labels: np.ndarray           # H x W int
    scores: np.ndarray           # (M,) mean eta over members
    seeds: list = field(default_factory=list)  # (row, col) per instance


def _instance_scores(labels_fg, eta_fg, count):
    """Score of each instance 1..count: np.mean of eta over its members in row-major order."""
    order = np.argsort(labels_fg, kind="stable")
    ends = np.cumsum(np.bincount(labels_fg, minlength=count + 1)).tolist()
    eta_fg = eta_fg[order]
    return np.array([float(eta_fg[a:b].mean()) for a, b in zip(ends[:-1], ends[1:])])


def seed_segmentation(pred: Prediction,
                      fg_threshold: float = DEFAULT_FG_THRESHOLD) -> Segmentation:
    """Greedy sphere seeding over predicted-foreground pixels.

    Ties in the centroid probability resolve to the smallest (row, col).
    Every seed assigns at least itself, so the loop terminates.
    """
    H, W = pred.eta_hat.shape
    fg = pred.mask_prob >= fg_threshold
    labels = np.zeros((H, W), dtype=np.int32)
    flat = np.flatnonzero(fg)
    n = flat.size
    if not n:
        return Segmentation(labels=labels, scores=np.array([]), seeds=[])
    eta = pred.eta_hat[fg]
    X = pred.xi_hat[fg]
    # Visit order of the definition's argmax: NaN first, then descending
    # centroid probability, then flat index. A pixel at -inf never seeds or
    # joins an instance.
    eta64 = eta.astype(np.float64)
    order = np.argsort(-eta64, kind="stable")
    n_nan = int(np.count_nonzero(eta64 != eta64))
    if n_nan:
        order = np.concatenate((order[n - n_nan:], order[:n - n_nan]))
    # One buffer, two views: bytes for fast reads in the loop, an array for
    # vector writes.
    alive_bytes = bytearray((eta64 != -np.inf).tobytes())
    alive = np.frombuffer(alive_bytes, dtype=np.bool_)

    # A member's first-component gap is at most its distance, up to the
    # rounding of the squares and their sum, which `rel` and `floor` absorb.
    # A squared radius that may compare as infinite in the feature dtype
    # takes every live pixel in the definition, so such a seed scans them all.
    x0 = X[:, 0].astype(np.float64)
    by_x0 = np.argsort(x0, kind="stable")
    x0_sorted = x0[by_x0].tolist()
    x0 = x0.tolist()
    radii = pred.b_hat[fg].astype(np.float64).tolist()
    info = np.finfo(X.dtype if X.dtype.kind == "f" else np.float64)
    rel = 16.0 * float(info.eps)
    floor = 8.0 * math.sqrt(float(info.tiny))
    r2_limit = float(info.max)

    labels_fg = np.zeros(n, dtype=np.int32)
    seed_index = []
    for i in order.tolist():
        if not alive_bytes[i]:
            continue
        radius = max(radii[i], 0.0)
        r2 = radius * radius
        seed_index.append(i)
        labels_fg[i] = len(seed_index)
        alive_bytes[i] = 0
        if r2 < r2_limit:
            s0 = x0[i]
            half = radius * (1.0 + rel) + rel * abs(s0) + floor
            lo = bisect_left(x0_sorted, s0 - half)
            hi = bisect_left(x0_sorted, s0 + half)
            if hi - lo == 1:
                continue  # the slab holds only the seed itself
            cand = by_x0[lo:hi]
            cand = cand[alive[cand]]
        else:
            cand = np.flatnonzero(alive)
        d2 = np.sum((X[cand] - X[i]) ** 2, axis=-1)
        members = cand[d2 <= r2]
        labels_fg[members] = len(seed_index)
        alive[members] = False

    labels[fg] = labels_fg
    scores = _instance_scores(labels_fg, eta, len(seed_index))
    seeds = [divmod(int(flat[i]), W) for i in seed_index]
    return Segmentation(labels=labels, scores=scores, seeds=seeds)


def _quad_forms(diff, counts, covs, variance, fallback, min_cols):
    """Mahalanobis terms of (pixel, component) pairs sorted by component.

    `diff` holds x - mu per pair and `counts[m]` pairs belong to component
    m. Each value equals, bit for bit, the one the definition gets from a
    single solve over all foreground pixels: a LAPACK solve's columns do not
    depend on each other once there are at least two, and each dot product
    reads its operands in the definition's memory layout. `min_cols` is 2,
    or 1 when the definition solves for a single pixel.
    """
    quad = np.empty(diff.shape[0])
    spherical = np.repeat(fallback, counts)
    if spherical.any():
        # The definition divides the transposed differences, so its second
        # operand is column-major.
        sph = diff[spherical]
        scaled = sph / np.repeat(variance, counts)[spherical, None]
        quad[spherical] = np.einsum("nd,dn->n", sph, scaled.T)
    counts = np.where(fallback, 0, counts)
    diff = diff[~spherical]
    n_pairs = diff.shape[0]
    if not n_pairs:
        return quad
    # One batched solve per width, widths rounded up to a quarter octave; a
    # component with fewer pairs repeats its last column, which only
    # rewrites the same values.
    solved = np.empty((FEATURE_DIM, max(n_pairs, min_cols)))
    first = np.cumsum(counts) - counts
    full = counts > 0
    need = np.maximum(counts[full], min_cols)
    step = 2 ** np.maximum(np.floor(np.log2(need)) - 2, 0)
    width = np.zeros_like(counts)
    width[full] = np.ceil(need / step) * step
    for k in np.unique(width[full]).tolist():
        pick = width == k
        cols = first[pick][:, None] + np.minimum(np.arange(k), counts[pick][:, None] - 1)
        solved[:, cols] = np.linalg.solve(covs[pick], diff[cols].transpose(0, 2, 1)).transpose(1, 0, 2)
    if n_pairs < min_cols:
        diff = np.concatenate((diff, diff))
        solved[:, n_pairs:] = solved[:, :n_pairs]
    quad[~spherical] = np.einsum("nd,dn->n", diff, solved)[:n_pairs]
    return quad


def gmm_refine(seg: Segmentation, pred: Prediction,
               stats: dict | None = None) -> Segmentation:
    """One hard E-step over the seeded clusters.

    Covariances are regularized with 1e-6 * I; a component whose regularized
    covariance still has a non-finite log-determinant falls back to a
    spherical covariance of equal trace (counted in stats under
    "spherical_fallbacks" when a dict is passed).
    """
    M = len(seg.scores)
    if M == 0:
        return seg
    fg = seg.labels > 0
    X = pred.xi_hat[fg].astype(np.float64)
    own = seg.labels[fg].astype(np.intp) - 1
    n_fg = X.shape[0]

    # Component parameters. A stable sort by label lists each component's
    # members in row-major order, as the definition's boolean mask does.
    by_label = np.argsort(own, kind="stable")
    sizes = np.bincount(own, minlength=M)
    Xs = X[by_label]
    mus = np.empty((M, FEATURE_DIM))
    covs = np.empty((M, FEATURE_DIM, FEATURE_DIM))
    start = 0
    for m, end in enumerate(np.cumsum(sizes).tolist()):
        members = Xs[start:end]
        mus[m] = members.mean(axis=0)
        centered = members - mus[m]
        np.matmul(centered.T, centered, out=covs[m])
        start = end
    covs /= sizes[:, None, None]
    diag = np.arange(FEATURE_DIM)
    covs[:, diag, diag] += COVARIANCE_REGULARIZATION

    sign, logdet = np.linalg.slogdet(covs)
    # slogdet and solve factor the same matrix, so solve fails exactly when
    # the sign is zero.
    fallback = ~((sign > 0) & np.isfinite(logdet))
    variance = np.zeros(M)
    for m in np.flatnonzero(fallback).tolist():
        variance[m] = float(np.trace(covs[m])) / FEATURE_DIM
        logdet[m] = FEATURE_DIM * np.log(variance[m])
    if stats is not None and fallback.any():
        stats["spherical_fallbacks"] = (stats.get("spherical_fallbacks", 0)
                                        + int(np.count_nonzero(fallback)))

    # With one component every pixel keeps it.
    new_own = own
    if M > 1:
        log_w = np.log(sizes / n_fg)
        const = FEATURE_DIM * np.log(2.0 * np.pi) + logdet
        min_cols = min(n_fg, 2)
        own_score = np.empty(n_fg)
        own_score[by_label] = (log_w[own[by_label]] - 0.5 * (
            const[own[by_label]]
            + _quad_forms(Xs - mus[own[by_label]], sizes, covs, variance, fallback, min_cols)))
        pix, comp = _candidates(X, own, own_score, mus, covs, variance, fallback,
                                log_w, const)
        if pix.size:
            counts = np.bincount(comp, minlength=M)
            score = log_w[comp] - 0.5 * (
                const[comp]
                + _quad_forms(X[pix] - mus[comp], counts, covs, variance, fallback, min_cols))
            # Each contested pixel takes what np.argmax over its row would:
            # the first NaN, else the first maximum.
            contested = np.unique(pix)
            pix = np.concatenate((pix, contested))
            comp = np.concatenate((comp, own[contested]))
            score = np.concatenate((score, own_score[contested]))
            order = np.lexsort((comp, -score, ~np.isnan(score), pix))
            pix, comp = pix[order], comp[order]
            first = np.r_[True, pix[1:] != pix[:-1]]
            new_own = own.copy()
            new_own[pix[first]] = comp[first]

    # Relabel the components that kept pixels, in order.
    kept = np.flatnonzero(np.bincount(new_own, minlength=M))
    remap = np.zeros(M, dtype=np.intp)
    remap[kept] = np.arange(1, kept.size + 1)
    new_labels = remap[new_own]
    labels = np.zeros_like(seg.labels)
    labels[fg] = new_labels
    scores = _instance_scores(new_labels, pred.eta_hat[fg], kept.size)
    seeds = [seg.seeds[m] for m in kept.tolist()]
    return Segmentation(labels=labels, scores=scores, seeds=seeds)


def _candidates(X, own, own_score, mus, covs, variance, fallback, log_w, const):
    """(pixel, component) pairs the pruning bound cannot rule out, own excluded.

    Pairs come sorted by component, then pixel.
    """
    M = len(mus)
    with np.errstate(all="ignore"):
        # Bounds on the spectrum of each covariance, widened for eigvalsh
        # error; a spherical fallback's spectrum is its variance.
        lam_hi = variance.copy()
        lam_lo = variance.copy()
        if not fallback.all():
            eig = np.linalg.eigvalsh(covs[~fallback])
            lam_hi[~fallback] = eig[:, -1] * (1.0 + 1e-12)
            lam_lo[~fallback] = eig[:, 0] - 1e-12 * eig[:, -1]
        # The definition's Mahalanobis term is at least slope * |x - mu|^2:
        # LU backward error can shrink it by the cond term, the dot
        # product's rounding by the sqrt(cond) term.
        cond = lam_hi / lam_lo
        slope = (1.0 - 2e-10 * cond - 1e-12 * np.sqrt(cond) - 1e-12) / lam_hi
        mm = np.einsum("md,md->m", mus, mus)
        bar = 2.0 * log_w - const
        prunable = (lam_lo > 1.0 / _CAP) & (slope > 0) & (mm < _MAGNITUDE) & np.isfinite(bar)
        # Component m loses to the own one when
        #   slope * d2 - (2 log w_m - const_m) > -2 * own score,
        # with slack for rounding in the definition's log-posterior, which
        # (as |log w_m| >= 1 / n) also dwarfs any underflow in its
        # Mahalanobis term. One gemm of [x, |x|^2, 1] against these weights
        # gives a lower bound of the left side; `shrink` covers the gemm's
        # and the norms' rounding.
        shrink = 1.0 - 256.0 * _EPS
        weights = np.empty((FEATURE_DIM + 2, M))
        weights[:FEATURE_DIM] = -2.0 * slope * mus.T
        weights[FEATURE_DIM] = slope * shrink
        weights[FEATURE_DIM + 1] = (slope * mm * shrink - bar
                                    - 64.0 * _EPS * (np.abs(2.0 * log_w) + np.abs(const)))
        weights[:, ~prunable] = np.nan
        xx = np.einsum("nd,nd->n", X, X)
        rows_aug = np.concatenate((X, xx[:, None], np.ones((len(X), 1))), axis=1)
        # NaN and infinite own scores, and huge pixels, never prune.
        threshold = np.where((xx < _MAGNITUDE) & np.isfinite(own_score), -2.0 * own_score, np.inf)
        step = max(1, _BLOCK_ELEMENTS // M)
        pix_parts, comp_parts = [], []
        for lo in range(0, len(X), step):
            block = rows_aug[lo:lo + step] @ weights
            block = block > threshold[lo:lo + step, None]
            block[np.arange(len(block)), own[lo:lo + step]] = True
            pix, comp = np.divmod(np.flatnonzero(~block), M)
            pix_parts.append(pix + lo)
            comp_parts.append(comp)
    pix = np.concatenate(pix_parts)
    comp = np.concatenate(comp_parts)
    by_comp = np.argsort(comp, kind="stable")
    return pix[by_comp], comp[by_comp]


def _check_prediction(pred: Prediction):
    """Reject predictions whose shapes disagree or whose values are not finite."""
    shape = np.shape(pred.eta_hat)
    expected = {"xi_hat": shape + (FEATURE_DIM,), "b_hat": shape, "mask_prob": shape}
    if len(shape) != 2:
        raise ShapeMismatchError(f"eta_hat must be H x W, got shape {shape}")
    for name, want in expected.items():
        got = np.shape(getattr(pred, name))
        if got != want:
            raise ShapeMismatchError(f"{name} has shape {got}, expected {want}")
    for name in ("xi_hat", "eta_hat", "b_hat", "mask_prob"):
        if not np.isfinite(getattr(pred, name)).all():
            raise NonFiniteError(f"prediction {name} contains NaN or infinity")


def segment(pred: Prediction,
            fg_threshold: float = DEFAULT_FG_THRESHOLD,
            stats: dict | None = None) -> Segmentation:
    """Full inference: greedy seeding followed by one GMM refinement step.

    Raises ShapeMismatchError when the prediction's arrays disagree in shape
    and NonFiniteError when any of them holds NaN or infinity.
    """
    _check_prediction(pred)
    return gmm_refine(seed_segmentation(pred, fg_threshold), pred, stats)
