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

* Both stages meet rows through one window rule (_window): as
  |x - y| >= |x0 - y0|, only rows whose first feature component lies within
  sqrt(reach) of a pixel's, widened for rounding in the feature dtype, can
  lie within reach of it; a binary search over the sorted components finds them.
* Seeding visits foreground pixels by descending centroid probability, then
  flat index; only a seed's live window pixels, at the reach of its squared
  radius, get the 9-D distance test. A radius whose square is not finite in
  the feature dtype tests every live pixel, as the definition then does.
* The E-step first settles whole components, as Elkan's inter-centre bounds
  skip whole pairs: component o's members lie within R_o of mu_o (their
  largest distance, rounded up), so on them o scores at least
  log w_o - 1/2 (9 log 2 pi + log|S_o| + R_o^2 / lambda_min(S_o)) and a rival
  m at most the bound below with |mu_o - mu_m| - R_o for |x - mu_m|. Both are
  widened as that bound is, for LU error by cond(S) and for the rounding of
  the sums; where every rival's bound lies below o's, o's members keep it
  unsolved. Plain rivals meet o only in the window at that bound's reach.
  A first pass reads no member, with trace(S_o) - 9e-6 <= R_o^2 for R_o^2:
  what it drops fails at R_o too, up to rounding, which only costs time.
* The E-step scores every other pixel under its own component exactly.
  Since the Mahalanobis term is at least |x - mu_m|^2 / lambda_max(S_m),
  component m scores at most
  log w_m - 1/2 (9 log 2 pi + log|S_m| + |x - mu_m|^2 / lambda_max(S_m)).
  Where that bound, widened for rounding and for the conditioning of S_m,
  falls below the own score, m cannot win and is skipped (Elkan, "Using the
  Triangle Inequality to Accelerate k-Means", ICML 2003, adapted to
  log-densities). Pixels or components whose magnitudes could overflow are
  never pruned. The surviving pairs go through the same solve and dot
  product as the definition; ties go to the lowest component index.
* The window keeps most pairs of a pixel and a plain component (below)
  from meeting the bound at all, in the spirit of the spatial indexes in
  front of EM of Moore ("Very fast EM-based mixture model clustering using
  multiresolution kd-trees", NIPS 1998): a pixel meets the plain components
  only within the window of their first mean components that the bound's
  reach gives. The others meet every pixel in dense gemm blocks.
* Most components of a degenerate prediction are plain: one member, whose
  finite row holds no -0.0. Such a component has that row as its np.mean
  and exactly 1e-6 * I as its covariance, stored and factored once for all
  of them, and its own pixel's Mahalanobis term is zero; a one-member
  instance's score is its member's value. Plain components share every
  bound term but their mean, so they get no per-component matrices or bound
  weights, and every pixel meets them through the one window. A plain
  component's own pixel has -2 times its exact own score as threshold, so
  the window and the bound keep every component that could tie with it;
  the lower index wins the tie.
* Five more paths stay for their measured cost, given as segment() time
  without them over time with them (the median of per-round ratios over 31
  interleaved rounds) on untrained-MLP frames of the sizes named or, in order,
  at 48x48, at 32x32 with one object, and on 128x128 ball-noise frames (0.49 minB):
  - width merging in _quad_forms (_SOLVE_COLUMNS): x1.04 at 48x48, x1.05 at 32x32;
  - 16-bit radix keys in _stable_order: a further x1.05-1.07 at 48x48 and 128x128;
  - the Elkan bound (every non-plain pair solved instead): x6.2-6.7, x3.1-3.2, x3.8-3.9;
  - one shared plain covariance (a matrix per component instead): x1.32-1.36, x1.10, x1.00;
  - the component test: x1.61-1.63 with ball noise, x0.96-0.98 at 48x48, x0.96-1.00 on train-32.
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
# A batched solve call costs about as much as solving this many more columns.
_SOLVE_COLUMNS = 128

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
# Pruning needs |x|^2 and |mu|^2 below this, and 1 / lambda_min(S) and the
# bound's slope below _CAP, so nothing the definition computes can overflow.
_MAGNITUDE = 1e100
_CAP = 1e100
# Shrinks the bound's positive terms to cover the rounding of its dot
# product and of the norms.
_SHRINK = 1.0 - 256.0 * _EPS


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


def _stable_order(labels, count):
    """np.argsort(labels, kind="stable") for labels in [0, count]; 16-bit keys take a radix sort."""
    return np.argsort(labels.astype(np.uint16) if count < 1 << 16 else labels, kind="stable")


def _instance_scores(labels_fg, eta_fg, count):
    """Score of each instance 1..count: np.mean of eta over its members in row-major order."""
    order = _stable_order(labels_fg, count)
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


def _ranges(starts, stops):
    """Concatenation of arange(starts[k], stops[k]) over k."""
    counts = stops - starts
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - counts - starts, counts)


def seed_segmentation(pred: Prediction,
                      fg_threshold: float = DEFAULT_FG_THRESHOLD) -> Segmentation:
    """Greedy sphere seeding over predicted-foreground pixels.

    Ties in the centroid probability resolve to the smallest (row, col).
    Every seed assigns at least itself, so seeding terminates.
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
    eta64 = eta.astype(np.float64, copy=False)
    order = np.argsort(-eta64, kind="stable")
    n_nan = int(np.count_nonzero(eta64 != eta64))
    if n_nan:
        order = np.concatenate((order[n - n_nan:], order[:n - n_nan]))

    # A seed's members lie in its window by_x0[start[i]:stop[i]] of
    # pixels by first component, at the reach of its squared radius. A NaN
    # or infinite first component is NaN or infinitely far from every pixel,
    # so no pixel of its window joins it. A squared radius that may compare
    # as infinite in the feature dtype takes every live pixel in the
    # definition, so such a seed scans them all.
    x0 = X[:, 0].astype(np.float64)
    # Windows are sets: the order of equal first components does not matter.
    by_x0 = np.argsort(x0)
    x0 = x0[by_x0]
    radii = np.maximum(pred.b_hat[fg].astype(np.float64, copy=False), 0.0)
    dtype = X.dtype if X.dtype.kind == "f" else np.float64
    r2_limit = float(np.finfo(dtype).max)
    with np.errstate(all="ignore"):
        r2 = radii * radii
        # searchsorted runs fastest on ascending keys.
        lo, count = _window(x0, x0, r2[by_x0], dtype)
    start, stop = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    start[by_x0], stop[by_x0] = lo, lo + count
    # A seed whose window holds no other pixel scans nothing.
    claims = (stop - start > 1) | ~(r2 < r2_limit)

    # One buffer, two views: bytes for fast reads in the loop, an array for
    # vector writes.
    alive_bytes = bytearray((eta64 != -np.inf).tobytes())
    alive = np.frombuffer(alive_bytes, dtype=np.bool_)
    labels_fg = np.zeros(n, dtype=np.int32)
    seed_index = []
    # Memoryviews read single entries as Python numbers, about as fast as
    # lists, without converting the entries no seed reads.
    start, stop, r2, claims = (memoryview(v) for v in (start, stop, r2, claims))
    # Rows of huge finite features can lie so far apart that their squared
    # distance overflows to inf, as in the definition.
    with np.errstate(over="ignore"):
        for i in order.tolist():
            if not alive_bytes[i]:
                continue
            seed_index.append(i)
            alive_bytes[i] = 0
            if not claims[i]:
                continue
            if r2[i] < r2_limit:
                cand = by_x0[start[i]:stop[i]]
                cand = cand[alive[cand]]
            else:
                cand = np.flatnonzero(alive)
            d2 = np.add.reduce((X[cand] - X[i]) ** 2, axis=-1)
            members = cand[d2 <= r2[i]]
            labels_fg[members] = len(seed_index)
            alive[members] = False
    count = len(seed_index)
    labels_fg[seed_index] = np.arange(1, count + 1)

    labels[fg] = labels_fg
    scores = _instance_scores(labels_fg, eta, count)
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
    solving = slice(None)
    if fallback.any():
        spherical = np.repeat(fallback, counts)
        # The definition divides the transposed differences, so its second
        # operand is column-major.
        sph = diff[spherical]
        scaled = sph / np.repeat(variance, counts)[spherical, None]
        quad[spherical] = np.einsum("nd,dn->n", sph, scaled.T)
        counts = np.where(fallback, 0, counts)
        solving = ~spherical
        diff = diff[solving]
    n_pairs = diff.shape[0]
    if not n_pairs:
        return quad
    # One batched solve per width, widths rounded up to a quarter octave; a
    # component with fewer pairs repeats its last column, which only
    # rewrites the same values. A width whose components would add fewer
    # than _SOLVE_COLUMNS columns at the next width joins it, as a solve
    # call costs about as much as that many columns.
    solved = np.empty((FEATURE_DIM, max(n_pairs, min_cols)))
    first = np.cumsum(counts) - counts
    full = counts > 0
    need = np.maximum(counts[full], min_cols)
    step = 2 ** np.maximum(np.floor(np.log2(need)) - 2, 0)
    width = np.zeros_like(counts)
    width[full] = np.ceil(need / step) * step
    widths, members = (v.tolist() for v in np.unique(width[full], return_counts=True))
    for i in range(len(widths) - 1):
        if (widths[i + 1] - widths[i]) * members[i] < _SOLVE_COLUMNS:
            width[width == widths[i]] = widths[i + 1]
            members[i + 1] += members[i]
            members[i] = 0
    for k in (k for k, count in zip(widths, members) if count):
        pick = width == k
        cols = first[pick][:, None] + np.minimum(np.arange(k), counts[pick][:, None] - 1)
        solved[:, cols] = np.linalg.solve(covs[pick], diff[cols].transpose(0, 2, 1)).transpose(1, 0, 2)
    if n_pairs < min_cols:
        diff = np.concatenate((diff, diff))
        solved[:, n_pairs:] = solved[:, :n_pairs]
    quad[solving] = np.einsum("nd,dn->n", diff, solved)[:n_pairs]
    return quad


def _components(Xs, sizes):
    """Means, regularized covariances and their slots, which components are plain, x - mu.

    Component m's covariance is `matrices[slot[m]]`. `Xs` lists the members
    of component 0, then 1, ..., `sizes[m]` rows each. A plain component
    has one member whose row is plain: its mean is that row and its scatter
    matrix all +0.0, so its covariance is exactly 1e-6 * I, stored once as
    the last matrix for all of them. The others take np.mean and a matmul
    of the centered members, as the definition does, in slots 0, 1, ... in
    component order; `centered` holds their members minus their means, by slot.
    """
    M = len(sizes)
    first = np.cumsum(sizes) - sizes
    plain = sizes == 1
    plain[plain] = _plain(Xs[first[plain]]).all(axis=1)
    mus = np.empty((M, FEATURE_DIM))
    mus[plain] = Xs[first[plain]]
    rest = np.flatnonzero(~plain)
    matrices = np.zeros((rest.size + plain.any(), FEATURE_DIM, FEATURE_DIM))
    centered = []
    for k, (m, lo, hi) in enumerate(zip(rest.tolist(), first[rest].tolist(),
                                        (first + sizes)[rest].tolist())):
        members = Xs[lo:hi]
        # np.mean over rows: their sum divided by their count.
        mus[m] = np.add.reduce(members, axis=0) / members.shape[0]
        centered.append(members - mus[m])
        np.matmul(centered[k].T, centered[k], out=matrices[k])
    matrices[:rest.size] /= sizes[rest, None, None]
    diag = np.arange(FEATURE_DIM)
    matrices[:, diag, diag] += COVARIANCE_REGULARIZATION
    slot = np.full(M, rest.size)
    slot[rest] = np.arange(rest.size)
    return mus, matrices, slot, plain, centered


@np.errstate(all="ignore")
def gmm_refine(seg: Segmentation, pred: Prediction,
               stats: dict | None = None) -> Segmentation:
    """One hard E-step over the seeded clusters.

    Covariances are regularized with 1e-6 * I; a component whose regularized
    covariance still has a non-finite log-determinant falls back to a
    spherical covariance of equal trace (counted in stats under
    "spherical_fallbacks" when a dict is passed). Finite features large
    enough to overflow the step's sums and differences are scored as those
    overflowed values are, NaN included, without floating-point warnings.
    """
    M = len(seg.scores)
    if M == 0:
        return seg
    fg = seg.labels > 0
    X = pred.xi_hat[fg].astype(np.float64, copy=False)
    own = seg.labels[fg].astype(np.intp) - 1
    n_fg = X.shape[0]

    # A stable sort by label lists each component's members in row-major
    # order, as the definition's boolean mask does.
    by_label = _stable_order(own, M)
    sizes = np.bincount(own, minlength=M)
    mus, matrices, slot, plain, centered = _components(X[by_label], sizes)

    # Each distinct matrix is factored once: a decomposition of equal
    # matrices gives equal bits. slogdet and solve factor the same matrix,
    # so solve fails exactly when the sign is zero.
    sign, logdet = np.linalg.slogdet(matrices)
    fallback = ~((sign > 0) & np.isfinite(logdet))
    variance = np.zeros(len(matrices))
    for k in np.flatnonzero(fallback).tolist():
        variance[k] = float(np.trace(matrices[k])) / FEATURE_DIM
        logdet[k] = FEATURE_DIM * np.log(variance[k])
    if stats is not None and fallback.any():
        stats["spherical_fallbacks"] = (stats.get("spherical_fallbacks", 0)
                                        + int(np.count_nonzero(fallback[slot])))

    def quad_forms(diff, comp):
        # _quad_forms solves per matrix, so pairs go in slot order.
        at = slot[comp]
        by_slot = np.argsort(at, kind="stable")
        quad = np.empty(len(comp))
        quad[by_slot] = _quad_forms(diff[by_slot], np.bincount(at, minlength=len(variance)),
                                    matrices, variance, fallback, min(n_fg, 2))
        return quad

    # With one component every pixel keeps it.
    new_own = own
    if M > 1:
        log_w = np.log(sizes / n_fg)
        const = FEATURE_DIM * np.log(2.0 * np.pi) + logdet[slot]
        rivals = _rivals(mus, matrices, slot, variance, fallback, log_w, const, plain)
        # Settled components keep their members unsolved; the rest meet the bound.
        settled = rivals[0][_settled(mus, rivals, matrices, centered, sizes[rivals[0]])]
        at = np.flatnonzero(~np.isin(own, settled)) if settled.size else slice(None)
        X, own_at = X[at], own[at]
        # A plain component's own pixel is its mean, so the solve sees a zero
        # right-hand side and its Mahalanobis term is +-0.0, which adds to
        # const exactly as +0.0 does.
        live = np.flatnonzero(~plain[own_at])
        quad = np.zeros(len(X))
        quad[live] = quad_forms(X[live] - mus[own_at[live]], own_at[live])
        own_score = log_w[own_at] - 0.5 * (const[own_at] + quad)
        pix, comp = _candidates(X, own_at, own_score, mus, rivals) if len(X) else (live, live)
        if pix.size:
            score = log_w[comp] - 0.5 * (const[comp] + quad_forms(X[pix] - mus[comp], comp))
            # Each contested pixel takes what np.argmax over its row would:
            # the first NaN, else the first maximum.
            contested = np.unique(pix)
            pix = np.concatenate((pix, contested))
            comp = np.concatenate((comp, own_at[contested]))
            score = np.concatenate((score, own_score[contested]))
            order = np.lexsort((comp, -score, ~np.isnan(score), pix))
            pix, comp = pix[order], comp[order]
            first = np.r_[True, pix[1:] != pix[:-1]]
            new_own = own.copy()
            new_own[np.arange(n_fg)[at][pix[first]]] = comp[first]

    # Relabel the components that kept pixels, in order.
    kept = np.flatnonzero(np.bincount(new_own, minlength=M))
    remap = np.zeros(M, dtype=np.intp)
    remap[kept] = np.arange(1, kept.size + 1)
    new_labels = remap[new_own]
    labels = np.zeros_like(seg.labels)
    labels[fg] = new_labels
    scores = _instance_scores(new_labels, pred.eta_hat[fg], kept.size)
    seeds = list(seg.seeds) if kept.size == M else [seg.seeds[m] for m in kept.tolist()]
    return Segmentation(labels=labels, scores=scores, seeds=seeds)


def _rivals(mus, matrices, slot, variance, fallback, log_w, const, plain):
    """Bound terms (rest, by_mu0, mm, slope, offset, lead, ceiling, prunable).

    A prunable component's score in the definition at x lies between
    -(lead + ceiling d2) / 2 and -(slope d2 - offset) / 2, d2 = |x - mu|^2.
    The last five hold an entry per component of `rest` (not plain), then
    one shared by the plain ones, listed in `by_mu0` by ascending mu0 with
    squared norms `mm`: that of the least norm, prunable unless none is.
    """
    rest, shared = np.flatnonzero(~plain), np.flatnonzero(plain)
    by_mu0 = shared[np.argsort(mus[shared, 0])]
    mm = np.einsum("md,md->m", mus[by_mu0], mus[by_mu0])
    terms = np.append(rest, by_mu0[np.argmin(mm)]) if shared.size else rest
    at = slot[terms]
    mus, fallback, log_w, const = mus[terms], fallback[at], log_w[terms], const[terms]
    # Bounds on the spectrum of each covariance, widened for eigvalsh
    # error; a spherical fallback's spectrum is its variance.
    lam_hi, lam_lo = variance[at], variance[at]
    eig = np.linalg.eigvalsh(matrices[at[~fallback]])
    lam_hi[~fallback] = eig[:, -1] * (1.0 + 1e-12)
    lam_lo[~fallback] = eig[:, 0] - 1e-12 * eig[:, -1]
    # LU backward error can move the definition's Mahalanobis term by the
    # cond term, the dot product's rounding by the sqrt(cond) term.
    cond = lam_hi / lam_lo
    shrink = 1.0 - 2e-10 * cond - 1e-12 * np.sqrt(cond) - 1e-12
    slope = shrink / lam_hi
    bar = 2.0 * log_w - const
    prunable = ((lam_lo > 1.0 / _CAP) & (slope > 0) & np.isfinite(bar)
                & (np.einsum("md,md->m", mus, mus) < _MAGNITUDE))
    # The slack covers rounding in the definition's log-posterior, which
    # (as |log w_m| >= 1 / n) also dwarfs any underflow in its Mahalanobis
    # term.
    slack = 64.0 * _EPS * (np.abs(2.0 * log_w) + np.abs(const))
    ceiling = 1.0 / (shrink * lam_lo)
    return rest, by_mu0, mm, slope, bar + slack, 2.0 * slack - bar, ceiling, prunable


def _weights(mus, mm, slope, offset):
    """Bound weights [-2 slope mu, slope, slope |mu|^2 - offset] per row, the positive terms shrunk.

    `slope` and `offset` are per row or shared by all rows; the weights' dot
    product with [x, |x|^2, 1] is at most slope |x - mu|^2 - offset.
    """
    slope = np.asarray(slope)
    weights = np.empty((len(mus), FEATURE_DIM + 2))
    weights[:, :FEATURE_DIM] = -2.0 * slope[..., None] * mus
    weights[:, FEATURE_DIM] = slope * _SHRINK
    weights[:, FEATURE_DIM + 1] = slope * mm * _SHRINK - offset
    return weights


def _settled(mus, rivals, matrices, centered, sizes):
    """Positions in `rest` (_rivals) of the components that keep every member (module docstring).

    On o's ball, o scores at least -(lead_o + ceiling_o R_o^2) / 2 and a rival m at
    mean distance D at most -(slope_m max(0, D - R_o)^2 - offset_m) / 2.
    """
    rest, by_mu0, mm, slope, offset, lead, ceiling, prunable = rivals
    k = rest.size
    # Rivals that cannot prune, and plain ones of huge norm, settle nothing.
    if not (k and prunable.all() and (mm < _MAGNITUDE).all()):
        return rest[:0]

    def beaten(o, d2, m):
        gap = np.maximum(np.sqrt(d2 - _TINY) * (1.0 - 64.0 * _EPS) - radius[o], 0.0)
        return gap * gap * slope[m] > t[o] + offset[m]

    def against_rest(o):
        step, keep = _BLOCK_ELEMENTS // (FEATURE_DIM * k) + 1, np.ones(o.size, dtype=bool)
        for lo in range(0, o.size, step):
            diff = mus[rest[o[lo:lo + step]], None] - mus[rest]
            d2 = np.einsum("omd,omd->om", diff, diff)
            d2[np.arange(len(d2)), o[lo:lo + step]] = np.inf
            keep[lo:lo + step] = beaten(o[lo:lo + step, None], d2, slice(k)).all(axis=1)
        return o[keep]

    spread = np.einsum("kii->k", matrices[:k]) - FEATURE_DIM * COVARIANCE_REGULARIZATION
    radius, t = np.sqrt(np.maximum(spread, 0.0)), lead[:k] + ceiling[:k] * spread
    o = against_rest(np.arange(k))
    if not o.size:
        return o
    # R_o, rounded up past rounding and underflow (a prunable component has
    # members), and -2 times o's bound; huge balls settle nothing.
    r2 = np.concatenate([centered[i] for i in o.tolist()])
    r2 = np.maximum.reduceat(np.einsum("nd,nd->n", r2, r2), np.cumsum(sizes[o]) - sizes[o])
    radius[o] = np.sqrt(r2 + _TINY) * (1.0 + 64.0 * _EPS)
    t[o] = lead[o] + ceiling[o] * radius[o] * radius[o] * (1.0 + 1024.0 * _EPS)
    # m loses once slope_m (D - R_o)^2 > t_o + offset_m, D bounded below past
    # the rounding of d2 = D^2 (NaN where it underflows); the rest widened.
    t, offset = (v + 1024.0 * _EPS * np.abs(v) for v in (t, offset))
    slope = slope * (1.0 - 4096.0 * _EPS)
    o = against_rest(o[radius[o] * radius[o] < _MAGNITUDE])
    if by_mu0.size and o.size:
        need = np.maximum((t[o] + offset[k]) / slope[k], 0.0)
        reach = ((radius[o] + np.sqrt(need)) * (1.0 + 64.0 * _EPS)) ** 2
        lo, count = _window(mus[by_mu0, 0], mus[rest[o], 0], reach)
        for p, at in _window_pairs(o, lo, count, _BLOCK_ELEMENTS // FEATURE_DIM):
            diff = mus[rest[p]] - mus[by_mu0[at]]
            o = np.setdiff1d(o, p[~beaten(p, np.einsum("nd,nd->n", diff, diff), k)])
    return o


def _candidates(X, own, own_score, mus, rivals):
    """(pixel, component) pairs the pruning bound cannot rule out, own excluded.

    Pairs come sorted by component, then pixel.
    """
    n = len(X)
    rest, by_mu0, mm, slope, offset, _, _, prunable = rivals
    k = rest.size
    # Rows [x, |x|^2, 1] meet _weights. NaN and infinite own scores, and
    # huge pixels, never prune.
    xx = np.einsum("nd,nd->n", X, X)
    threshold = np.where((xx < _MAGNITUDE) & np.isfinite(own_score), -2.0 * own_score, np.inf)
    rows = np.concatenate((X, xx[:, None], np.ones((n, 1))), axis=1)
    weights = _weights(mus[rest], np.einsum("md,md->m", mus[rest], mus[rest]), slope[:k], offset[:k])
    weights[~prunable[:k]] = np.nan
    pix, comp = _bounded_pairs(rows, threshold, weights)
    comp = rest[comp]
    if by_mu0.size:
        # Plain components of huge norm, or that cannot prune, meet every pixel.
        tight = (mm < _MAGNITUDE) & prunable[k]
        more = _shared_pairs(X, rows, threshold, own, mus, mm[tight], by_mu0[tight],
                             by_mu0[~tight], slope[k], offset[k])
        pix, comp = np.concatenate((pix, more[0])), np.concatenate((comp, more[1]))
    # A pixel's own component always meets the bound; it is no candidate.
    other = comp != own[pix]
    comp, pix = np.divmod(np.sort(comp[other] * n + pix[other]), n)
    return pix, comp


def _bounded_pairs(rows, threshold, weights):
    """(pixel, component) pairs the evaluated bound keeps, in dense gemm blocks.

    A pixel with an infinite threshold keeps every component; so does a
    component that is not prunable, whose NaN weights never exceed one.
    """
    m = len(weights)
    pix_parts, comp_parts = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    if m:
        # A C-ordered operand takes a faster gemm kernel.
        weights = np.ascontiguousarray(weights.T)
        step = max(1, _BLOCK_ELEMENTS // m)
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step] @ weights > threshold[lo:lo + step, None]
            p, c = np.divmod(np.flatnonzero(~block), m)
            pix_parts.append(p + lo)
            comp_parts.append(c)
    return np.concatenate(pix_parts), np.concatenate(comp_parts)


def _shared_pairs(X, rows, threshold, own, mus, mm, tight, loose, slope, offset):
    """Pairs of plain components and pixels that the bound keeps.

    Plain components share their slope and offset, so one window (_window)
    over the plain components of moderate norm, `tight` by ascending mu0
    with squared norms `mm`, holds every pair the bound could keep for a
    pixel with a finite threshold; the bound is evaluated per window pair,
    in chunks of _BLOCK_ELEMENTS weights. A plain component's own pixel is
    no exception: its threshold is -2 times its exact own score, so the
    window and the bound keep every component that could tie with its own,
    and the lower index wins the tie. Pixels with infinite thresholds meet
    every component of `tight`, and the `loose` components, which the bound
    never prunes, meet every pixel.
    """
    closed = np.flatnonzero(threshold != np.inf)
    # searchsorted runs fastest on ascending keys.
    closed = closed[np.argsort(X[closed, 0])]
    open_pix = np.flatnonzero(threshold == np.inf)
    every = np.arange(len(X))
    pix_parts = [np.repeat(open_pix, tight.size), np.repeat(every, loose.size)]
    comp_parts = [np.tile(tight, open_pix.size), np.tile(loose, every.size)]
    if tight.size and closed.size:
        # The bound falls short of slope d^2 - offset, d = |x - mu|, by at
        # most about 300 eps (slope (|x| + |mu|)^2 + |offset|), _SHRINK's
        # share included, so it keeps a pair only within that of t. As
        # |mu| <= |x| + d, (|x| + |mu|)^2 <= 8 |x|^2 + 2 d^2: `err` covers
        # the |x| and offset terms per pixel, whatever the components'
        # norms, and the divisor the d^2 term. As d >= |x0 - mu0|, the
        # window at that reach holds every kept pair. A NaN from t = -inf
        # leaves only the window's widening.
        t = threshold[closed]
        err = 1024.0 * _EPS * (np.abs(t) + abs(offset) + 8.0 * slope * rows[closed, FEATURE_DIM])
        reach = np.fmax(t + err + offset, 0.0) / (slope * (1.0 - 4096.0 * _EPS))
        lo, count = _window(mus[tight, 0], X[closed, 0], reach)
        # Most plain pixels' windows hold only their own component.
        count[(count == 1) & (tight[np.minimum(lo, tight.size - 1)] == own[closed])] = 0
        for pix, at in _window_pairs(closed, lo, count, _BLOCK_ELEMENTS // (FEATURE_DIM + 2)):
            weights = _weights(mus[tight[at]], mm[at], slope, offset)
            keep = ~(np.einsum("nk,nk->n", rows[pix], weights) > threshold[pix])
            pix_parts.append(pix[keep])
            comp_parts.append(tight[at[keep]])
    return np.concatenate(pix_parts), np.concatenate(comp_parts)


def _window_pairs(queries, lo, count, step):
    """(query, position) pairs of the windows [lo, lo + count), in chunks of about `step`."""
    ends = np.cumsum(count)
    cuts = np.unique(np.searchsorted(ends, np.arange(0, ends[-1], step), "right"))
    for a, b in zip(cuts.tolist(), np.append(cuts[1:], queries.size).tolist()):
        yield np.repeat(queries[a:b], count[a:b]), _ranges(lo[a:b], lo[a:b] + count[a:b])


def _window(mu0, x0, reach, dtype=np.float64):
    """Per pixel, the range [lo, lo + count) of sorted `mu0` within sqrt(reach) of x0.

    The half-width is widened for the rounding of the square root, of the
    difference and of x0 -+ half, and for underflow in squares of `dtype`.
    """
    info = np.finfo(dtype)
    rel = 16.0 * float(info.eps)
    half = np.sqrt(reach) * (1.0 + rel) + rel * np.abs(x0) + 8.0 * math.sqrt(float(info.tiny))
    lo = np.searchsorted(mu0, x0 - half, "left")
    return lo, np.searchsorted(mu0, x0 + half, "right") - lo


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


def segment(pred: Prediction, fg_threshold: float = DEFAULT_FG_THRESHOLD) -> Segmentation:
    """Full inference: greedy seeding followed by one GMM refinement step.

    Raises ShapeMismatchError when the prediction's arrays disagree in shape
    and NonFiniteError when any of them holds NaN or infinity.
    """
    _check_prediction(pred)
    return gmm_refine(seed_segmentation(pred, fg_threshold), pred)
