"""Loop reference implementations of the two clustering stages.

These are the original brute-force definitions: seeding scans every pixel
once per seed and the GMM E-step evaluates every foreground pixel under
every component. The library's pruned stages must reproduce them bit for
bit (labels, score bytes and seeds); the tests compare the two.

`reference_candidates` is the E-step filter's former dense form, which
evaluates the pruning bound on every (pixel, component) pair with one
blocked gemm; the library's slab index must keep every pair it keeps.
"""

import numpy as np

from clusterseg.clustering import (_BLOCK_ELEMENTS, _CAP, _EPS, _MAGNITUDE,
                                   COVARIANCE_REGULARIZATION, DEFAULT_FG_THRESHOLD,
                                   Prediction, Segmentation)
from clusterseg.geometry import FEATURE_DIM


def reference_seed_segmentation(pred: Prediction,
                                fg_threshold: float = DEFAULT_FG_THRESHOLD) -> Segmentation:
    """Greedy sphere seeding over predicted-foreground pixels.

    Ties in the centroid probability resolve to the smallest (row, col).
    Every seed assigns at least itself, so the loop terminates.
    """
    H, W = pred.eta_hat.shape
    fg = pred.mask_prob >= fg_threshold
    labels = np.zeros((H, W), dtype=np.int32)
    eta_work = np.where(fg, pred.eta_hat.astype(np.float64), -np.inf)
    xi = pred.xi_hat
    scores = []
    seeds = []
    while True:
        flat = int(np.argmax(eta_work))
        r, c = divmod(flat, W)
        if eta_work[r, c] == -np.inf:
            break
        radius = max(float(pred.b_hat[r, c]), 0.0)
        d2 = np.sum((xi - xi[r, c]) ** 2, axis=-1)
        members = (eta_work != -np.inf) & (d2 <= radius * radius)
        members[r, c] = True
        labels[members] = len(scores) + 1
        scores.append(float(pred.eta_hat[members].mean()))
        seeds.append((r, c))
        eta_work[members] = -np.inf
    return Segmentation(labels=labels, scores=np.array(scores), seeds=seeds)


def reference_gmm_refine(seg: Segmentation, pred: Prediction,
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
    lab = seg.labels[fg]
    n_fg = X.shape[0]
    log_post = np.full((n_fg, M), -np.inf)
    for m in range(1, M + 1):
        members = X[lab == m]
        n_m = members.shape[0]
        mu = members.mean(axis=0)
        centered = members - mu
        cov = centered.T @ centered / n_m
        cov[np.diag_indices_from(cov)] += COVARIANCE_REGULARIZATION
        sign, logdet = np.linalg.slogdet(cov)
        solved = None
        if sign > 0 and np.isfinite(logdet):
            try:
                solved = np.linalg.solve(cov, (X - mu).T)
            except np.linalg.LinAlgError:
                solved = None
        if solved is None:
            variance = float(np.trace(cov)) / FEATURE_DIM
            logdet = FEATURE_DIM * np.log(variance)
            solved = (X - mu).T / variance
            if stats is not None:
                stats["spherical_fallbacks"] = stats.get("spherical_fallbacks", 0) + 1
        quad = np.einsum("nd,dn->n", X - mu, solved)
        log_post[:, m - 1] = (np.log(n_m / n_fg)
                              - 0.5 * (FEATURE_DIM * np.log(2.0 * np.pi) + logdet + quad))
    new_lab = np.argmax(log_post, axis=1) + 1

    labels = np.zeros_like(seg.labels)
    scores = []
    seeds = []
    next_id = 0
    for m in range(1, M + 1):
        members = new_lab == m
        if not np.any(members):
            continue
        next_id += 1
        sel = np.zeros_like(fg)
        sel[fg] = members
        labels[sel] = next_id
        scores.append(float(pred.eta_hat[sel].mean()))
        seeds.append(seg.seeds[m - 1])
    return Segmentation(labels=labels, scores=np.array(scores), seeds=seeds)


def reference_segment(pred: Prediction,
                      fg_threshold: float = DEFAULT_FG_THRESHOLD) -> Segmentation:
    """Loop seeding followed by the loop GMM refinement step."""
    return reference_gmm_refine(reference_seed_segmentation(pred, fg_threshold), pred)


def reference_candidates(X, own, own_score, mus, covs, variance, fallback, log_w, const):
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
