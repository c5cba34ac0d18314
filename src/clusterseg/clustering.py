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
  feature component lies within the seed's radius of the seed's, so the
  pixels sorted by that component give each pixel a candidate slab, widened
  for rounding; one binary search before the loop finds every slab, and
  only a seed's live slab pixels get the 9-D distance test. A radius whose
  square is not finite in the feature dtype tests every live pixel, as the
  definition then does.
* The E-step scores each pixel under its own seeded component exactly.
  Since the Mahalanobis term is at least |x - mu_m|^2 / lambda_max(S_m),
  component m scores at most
  log w_m - 1/2 (9 log 2 pi + log|S_m| + |x - mu_m|^2 / lambda_max(S_m)).
  Where that bound, widened for rounding and for the conditioning of S_m,
  falls below the own score, m cannot win and is skipped (Elkan, "Using the
  Triangle Inequality to Accelerate k-Means", ICML 2003, adapted to
  log-densities). Pixels or components whose magnitudes could overflow are
  never pruned. The surviving pairs go through the same solve and dot
  product as the definition; ties go to the lowest component index.
* A slab index keeps most pairs from meeting the bound at all, in the
  spirit of the spatial indexes in front of EM of Moore ("Very fast
  EM-based mixture model clustering using multiresolution kd-trees", NIPS
  1998): as |x - mu|^2 >= (x0 - mu0)^2, a pixel meets a group of components
  of similar slope only within a window of their first mean component,
  widened for rounding. Pixels sorted by window start meet the bound in
  gemm blocks, each spanning its pixels' windows. Groups of fewer than 32
  components meet every pixel in dense blocks instead.
* Most components of a degenerate prediction have one member. Such a
  component with a finite row holding no -0.0 has that row as its np.mean
  and exactly 1e-6 * I as its covariance, its own pixel's Mahalanobis term
  is zero, and one factorization gives the log-determinant and spectrum of
  all of them; a one-member instance's score is its member's value. These
  are filled in vectorized; everything else keeps the definition's calls.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError
from .geometry import FEATURE_DIM

DEFAULT_FG_THRESHOLD = 0.5
COVARIANCE_REGULARIZATION = 1e-6
# Element budget of every dense pixel x component block in gmm_refine.
_BLOCK_ELEMENTS = 1 << 16
# Slab windows serve groups of at least _WINDOWED_GROUP components, whose
# pixels meet them in runs of _SLAB_PIXELS.
_WINDOWED_GROUP = 32
_SLAB_PIXELS = 128

_EPS = float(np.finfo(np.float64).eps)
# Pruning needs |x|^2 and |mu|^2 below this, and 1 / lambda_min(S) and the
# bound's slope below _CAP, so nothing the definition computes can overflow.
_MAGNITUDE = 1e100
_CAP = 1e100
# Absorbs underflow in squared feature differences.
_FLOOR = 8.0 * math.sqrt(float(np.finfo(np.float64).tiny))


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


def _plain(values):
    """Which values are finite and not -0.0: np.mean over one of them alone returns it."""
    return np.isfinite(values) & ~(np.signbit(values) & (values == 0))


def _instance_scores(labels_fg, eta_fg, count):
    """Score of each instance 1..count: np.mean of eta over its members in row-major order."""
    order = np.argsort(labels_fg, kind="stable")
    sizes = np.bincount(labels_fg, minlength=count + 1)
    first = (np.cumsum(sizes) - sizes)[1:]
    sizes = sizes[1:]
    eta_fg = eta_fg[order]
    scores = np.empty(count)
    # A one-member instance with a plain value scores that value; the rest keep np.mean.
    fast = (sizes == 1) & (eta_fg.dtype.kind == "f")
    fast[fast] = _plain(eta_fg[first[fast]])
    scores[fast] = eta_fg[first[fast]]
    rest = np.flatnonzero(~fast)
    for m, lo, hi in zip(rest.tolist(), first[rest].tolist(), (first + sizes)[rest].tolist()):
        scores[m] = eta_fg[lo:hi].mean()
    return scores


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
    # All slab bounds come from one binary search before the loop. A seed
    # that uses its slab has a finite radius, so a NaN bound means a NaN or
    # infinite first component, whose distance to every pixel is NaN or
    # infinite: that slab's contents never matter. A squared
    # radius that may compare as infinite in the feature dtype takes every
    # live pixel in the definition, so such a seed scans them all.
    x0 = X[:, 0].astype(np.float64)
    by_x0 = np.argsort(x0, kind="stable")
    radii = np.maximum(pred.b_hat[fg].astype(np.float64), 0.0)
    info = np.finfo(X.dtype if X.dtype.kind == "f" else np.float64)
    rel = 16.0 * float(info.eps)
    floor = 8.0 * math.sqrt(float(info.tiny))
    r2_limit = float(info.max)
    # The search runs in slab order, where the bounds nearly ascend.
    x0_sorted = x0[by_x0]
    with np.errstate(all="ignore"):
        half = radii[by_x0] * (1.0 + rel) + rel * np.abs(x0_sorted) + floor
        edges = np.concatenate((x0_sorted - half, x0_sorted + half))
    slab = np.empty(2 * n, dtype=np.intp)
    slab[np.concatenate((by_x0, by_x0 + n))] = np.searchsorted(x0_sorted, edges)
    # Memoryviews read single entries as Python numbers, about as fast as
    # lists, without converting the entries no seed reads.
    slab = memoryview(slab)
    radii = memoryview(radii)

    labels_fg = np.zeros(n, dtype=np.int32)
    seed_index = []
    for i in order.tolist():
        if not alive_bytes[i]:
            continue
        radius = radii[i]
        r2 = radius * radius
        seed_index.append(i)
        labels_fg[i] = len(seed_index)
        alive_bytes[i] = 0
        if r2 < r2_limit:
            lo, hi = slab[i], slab[n + i]
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
    rows, cols = np.divmod(flat[seed_index], W)
    seeds = list(zip(rows.tolist(), cols.tolist()))
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


def _components(Xs, sizes):
    """Mean and regularized covariance of each component, and which are plain.

    `Xs` lists the members of component 0, then 1, ..., `sizes[m]` rows
    each. A plain component has one member whose row is plain: its mean is
    that row and its scatter matrix all +0.0, so its covariance is exactly
    1e-6 * I. The others take np.mean and a matmul of the centered members,
    as the definition does.
    """
    M = len(sizes)
    first = np.cumsum(sizes) - sizes
    plain = sizes == 1
    plain[plain] = _plain(Xs[first[plain]]).all(axis=1)
    mus = np.empty((M, FEATURE_DIM))
    covs = np.zeros((M, FEATURE_DIM, FEATURE_DIM))
    mus[plain] = Xs[first[plain]]
    rest = np.flatnonzero(~plain)
    for m, lo, hi in zip(rest.tolist(), first[rest].tolist(), (first + sizes)[rest].tolist()):
        members = Xs[lo:hi]
        mus[m] = members.mean(axis=0)
        centered = members - mus[m]
        np.matmul(centered.T, centered, out=covs[m])
    covs /= sizes[:, None, None]
    diag = np.arange(FEATURE_DIM)
    covs[:, diag, diag] += COVARIANCE_REGULARIZATION
    return mus, covs, plain


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

    # A stable sort by label lists each component's members in row-major
    # order, as the definition's boolean mask does.
    by_label = np.argsort(own, kind="stable")
    sizes = np.bincount(own, minlength=M)
    Xs = X[by_label]
    mus, covs, plain = _components(Xs, sizes)

    pick, slot = _distinct(np.ones(M, dtype=bool), plain)
    sign, logdet = np.linalg.slogdet(covs[pick])
    sign, logdet = sign[slot], logdet[slot]
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
        own_sorted = own[by_label]
        # A plain component's own pixel is its mean, so the solve sees a zero
        # right-hand side and its Mahalanobis term is +-0.0, which adds to
        # const exactly as +0.0 does.
        live = ~plain[own_sorted]
        quad = np.zeros(n_fg)
        quad[live] = _quad_forms(Xs[live] - mus[own_sorted[live]], np.where(plain, 0, sizes),
                                 covs, variance, fallback, min_cols)
        own_score[by_label] = log_w[own_sorted] - 0.5 * (const[own_sorted] + quad)
        pix, comp = _candidates(X, own, own_score, mus, covs, variance, fallback,
                                log_w, const, plain)
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


def _distinct(among, plain):
    """Covariances to factor for the components in `among`, and where each finds its result.

    Plain components share one covariance, so the first of them stands for
    all: a decomposition of equal matrices gives equal bits. Returns the
    indices to pass and, per component in `among`, its row of the result.
    """
    shared = among & plain
    if not shared.any():
        return np.flatnonzero(among), slice(None)
    pick = among & ~plain
    pick[np.argmax(shared)] = True
    slot = np.cumsum(pick) - 1
    slot[shared] = slot[np.argmax(shared)]
    return np.flatnonzero(pick), slot[among]


def _bound_terms(X, own_score, mus, covs, variance, fallback, log_w, const, plain):
    """The pruning bound of component m at pixel n: m cannot win once

        weights[m] . [x_n, |x_n|^2, 1] > threshold[n].

    Returns (rows, weights, threshold, slope, offset, prunable), rows being
    [x, |x|^2, 1] per pixel: the dot product is a lower bound of
    slope_m |x_n - mu_m|^2 - offset_m, and a component that is not prunable
    has NaN weights, so it never loses by the bound.
    """
    with np.errstate(all="ignore"):
        # Bounds on the spectrum of each covariance, widened for eigvalsh
        # error; a spherical fallback's spectrum is its variance.
        lam_hi = variance.copy()
        lam_lo = variance.copy()
        if not fallback.all():
            pick, slot = _distinct(~fallback, plain)
            eig = np.linalg.eigvalsh(covs[pick])[slot]
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
        #   slope * d2 - offset > -2 * own score,  offset = 2 log w_m - const_m + slack,
        # the slack covering rounding in the definition's log-posterior,
        # which (as |log w_m| >= 1 / n) also dwarfs any underflow in its
        # Mahalanobis term; `shrink` covers the rounding of the dot product
        # and of the norms.
        shrink = 1.0 - 256.0 * _EPS
        offset = bar + 64.0 * _EPS * (np.abs(2.0 * log_w) + np.abs(const))
        weights = np.empty((len(mus), FEATURE_DIM + 2))
        weights[:, :FEATURE_DIM] = -2.0 * slope[:, None] * mus
        weights[:, FEATURE_DIM] = slope * shrink
        weights[:, FEATURE_DIM + 1] = slope * mm * shrink - offset
        weights[~prunable] = np.nan
        # NaN and infinite own scores, and huge pixels, never prune.
        xx = np.einsum("nd,nd->n", X, X)
        threshold = np.where((xx < _MAGNITUDE) & np.isfinite(own_score), -2.0 * own_score, np.inf)
    rows = np.concatenate((X, xx[:, None], np.ones((len(X), 1))), axis=1)
    return rows, weights, threshold, slope, offset, prunable


def _candidates(X, own, own_score, mus, covs, variance, fallback, log_w, const, plain):
    """(pixel, component) pairs the pruning bound cannot rule out, own excluded.

    Prunable components are grouped by the binary exponent of their slope.
    A group of at least _WINDOWED_GROUP components is sorted by mu0 and the
    pixels by where their slab windows start; each run of _SLAB_PIXELS such
    pixels meets, in one gemm, the group's components from its first
    window's start to its furthest window's end. The other components meet
    every pixel in dense blocks. Pairs come sorted by component, then pixel.
    """
    n = len(X)
    rows, weights, threshold, slope, offset, prunable = _bound_terms(
        X, own_score, mus, covs, variance, fallback, log_w, const, plain)
    # A pixel with an infinite threshold keeps every component; so does a
    # component that is not prunable, whose NaN weights never exceed one.
    tight = np.flatnonzero(prunable)
    groups = []
    if tight.size >= _WINDOWED_GROUP:
        exponent = np.frexp(slope[tight])[1]
        values, sizes = np.unique(exponent, return_counts=True)
        indexed = values[sizes >= _WINDOWED_GROUP]
        groups = [tight[exponent == k] for k in indexed.tolist()]
        tight = tight[~np.isin(exponent, indexed)]
    dense = np.concatenate((np.flatnonzero(~prunable), tight))
    if groups:
        open_pix = np.flatnonzero(threshold == np.inf)
        closed = np.flatnonzero(threshold != np.inf)
    pix_parts, comp_parts = [], []
    with np.errstate(all="ignore"):
        for group in groups:
            order, lo, count = _slab_window(X[closed, 0], rows[closed, FEATURE_DIM],
                                            threshold[closed], mus[group], slope[group],
                                            offset[group])
            group = group[order]
            # A C-ordered operand takes a faster gemm kernel.
            group_weights = np.ascontiguousarray(weights[group].T)
            by_start = np.argsort(lo, kind="stable")
            pixels = closed[by_start]
            runs = np.arange(0, pixels.size, _SLAB_PIXELS)
            ends = np.maximum.reduceat((lo + count)[by_start], runs)
            pixel_rows, pixel_threshold = rows[pixels], threshold[pixels, None]
            for r, a, b in zip(runs.tolist(), lo[by_start][runs].tolist(), ends.tolist()):
                block = (pixel_rows[r:r + _SLAB_PIXELS] @ group_weights[:, a:b]
                         > pixel_threshold[r:r + _SLAB_PIXELS])
                p, c = np.divmod(np.flatnonzero(~block), b - a)
                pix_parts.append(pixels[r + p])
                comp_parts.append(group[a + c])
            pix_parts.append(np.repeat(open_pix, group.size))
            comp_parts.append(np.tile(group, open_pix.size))
        if dense.size:
            dense_weights = np.ascontiguousarray(weights[dense].T)
            step = max(1, _BLOCK_ELEMENTS // dense.size)
            for lo in range(0, n, step):
                block = rows[lo:lo + step] @ dense_weights > threshold[lo:lo + step, None]
                p, c = np.divmod(np.flatnonzero(~block), dense.size)
                pix_parts.append(p + lo)
                comp_parts.append(dense[c])
    pix = np.concatenate(pix_parts)
    comp = np.concatenate(comp_parts)
    # A pixel's own component always meets the bound; it is no candidate.
    other = comp != own[pix]
    comp, pix = np.divmod(np.sort(comp[other] * n + pix[other]), n)
    return pix, comp


def _slab_window(x0, xx, threshold, mus, slope, offset):
    """The slab index over one group of prunable components.

    Takes the pixels' first feature components, squared norms and finite
    thresholds t, and the group's components. As |x - mu|^2 >= (x0 - mu0)^2,
    component m loses at a pixel once slope_m (x0 - mu0)^2 - offset_m
    exceeds t by more than the rounding of the bound's evaluation. The
    group's smallest slope and largest offset turn that into one window of
    mu0 values per pixel, widened for rounding. Returns (order, lo, count):
    the group's components by ascending mu0, and per pixel its window
    order[lo:lo + count].
    """
    order = np.argsort(mus[:, 0], kind="stable")
    mu0 = mus[order, 0]
    # The bound's terms are at most slope (|x| + |mu|)^2 and |offset| in
    # size, so `err` covers its rounding. A NaN from t = -inf leaves only
    # the widening of `half`.
    err = 1024.0 * _EPS * (np.abs(threshold) + np.abs(offset).max()
                           + slope.max() * (np.sqrt(xx) + np.sqrt(
                               np.einsum("md,md->m", mus, mus).max())) ** 2)
    reach = np.fmax(threshold + err + offset.max(), 0.0) / slope.min()
    rel = 16.0 * _EPS
    half = np.sqrt(reach) * (1.0 + rel) + rel * np.abs(x0) + _FLOOR
    lo = np.searchsorted(mu0, x0 - half, "left")
    return order, lo, np.searchsorted(mu0, x0 + half, "right") - lo


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
