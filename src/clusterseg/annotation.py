"""Per-pixel ground truth for a rendered scene.

Four maps are produced from a Scene + FrameBundle:

  xi_map   HxWx9  every pixel of object k carries k's object feature
  eta_gt   HxW    1 on the fraction of each object's pixels nearest its
                  2D mass center (the seeding candidates), else 0
  b_map    HxW    half the minimum feature distance from the pixel's
                  object to any other object (the enclosing radius)
  fg_mask  HxW    1 where any object is visible

Background pixels are zero in every map, as is any pixel whose id lies
outside 1..K.

An object's feature is a property of its primitive alone, so it is
computed once per Primitive instance (`Primitive.feature`, a read-only
array cached on the instance): sample_scene computes it to check feature
separation and annotate reads the same array. The cache lives and dies
with the scene; nothing is shared between scenes or passes. The feature
and radius maps are each one gather from a table indexed by instance id.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ClusterSegError
from .geometry import FEATURE_DIM
from .scenegen import FrameBundle, Scene

DEFAULT_CANDIDATE_FRACTION = 0.20
DEFAULT_SINGLE_OBJECT_RADIUS = 1.0


@dataclass
class Annotation:
    """Ground-truth maps plus the per-object features they were built from."""

    xi_map: np.ndarray         # H x W x 9
    eta_gt: np.ndarray         # H x W bool
    b_map: np.ndarray          # H x W >= 0
    fg_mask: np.ndarray        # H x W bool
    per_object_xi: np.ndarray  # K x 9
    instance_map: np.ndarray   # H x W int, copied from the frame


def _per_pixel(values: np.ndarray, instance_map: np.ndarray) -> np.ndarray:
    """values[k - 1] at every pixel with id k in 1..K, zero at every other pixel."""
    K = values.shape[0]
    table = np.zeros((K + 2,) + values.shape[1:])
    table[1:K + 1] = values
    return table[np.clip(instance_map.astype(np.intp, copy=False), 0, K + 1)]


def make_xi_map(scene: Scene, frame: FrameBundle):
    """Spread per-object features over the instance map.

    Returns (xi_map, per_object_xi). Features come from each primitive's
    fixed deterministic surface sample so occlusion cannot change them and
    all pixels of one object share one exact value.
    """
    per_object = np.zeros((len(scene.objects), FEATURE_DIM))
    for k, prim in enumerate(scene.objects):
        per_object[k] = prim.feature
    return _per_pixel(per_object, frame.instance_map), per_object


def make_centroid_candidates(instance_map: np.ndarray, fraction: float) -> np.ndarray:
    """Mark, per object, the pixels nearest its 2D mass center.

    For each object the max(1, round(fraction * N)) modal pixels closest to
    the mean pixel coordinate are marked, ties broken by (row, col).
    Rounding is half-away-from-zero.
    """
    if not 0.10 <= fraction <= 0.30:
        raise ClusterSegError(f"fraction must lie in [0.10, 0.30], got {fraction}")
    out = np.zeros(instance_map.shape, dtype=bool)
    for k in np.unique(instance_map):
        if k == 0:
            continue
        rows, cols = np.nonzero(instance_map == k)
        n = rows.size
        take = max(1, int(np.floor(fraction * n + 0.5)))
        c_row = rows.mean()
        c_col = cols.mean()
        dist = np.hypot(rows - c_row, cols - c_col)
        order = np.lexsort((cols, rows, dist))
        keep = order[:take]
        out[rows[keep], cols[keep]] = True
    return out


def make_bgt_map(per_object_xi: np.ndarray, instance_map: np.ndarray,
                 single_object_radius: float = DEFAULT_SINGLE_OBJECT_RADIUS) -> np.ndarray:
    """Enclosing-radius map: half the minimum feature distance to any other object.

    With a single object the minimum is empty, so a fixed positive radius is
    used instead.
    """
    K = per_object_xi.shape[0]
    if K == 0:
        return np.zeros(instance_map.shape)
    if K == 1:
        radii = np.array([single_object_radius])
    else:
        diff = per_object_xi[:, None, :] - per_object_xi[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, np.inf)
        radii = 0.5 * dist.min(axis=1)
    return _per_pixel(radii, instance_map)


def annotate(scene: Scene, frame: FrameBundle,
             fraction: float = DEFAULT_CANDIDATE_FRACTION,
             single_object_radius: float = DEFAULT_SINGLE_OBJECT_RADIUS) -> Annotation:
    """Build the full Annotation for one frame."""
    xi_map, per_object = make_xi_map(scene, frame)
    return Annotation(
        xi_map=xi_map,
        eta_gt=make_centroid_candidates(frame.instance_map, fraction),
        b_map=make_bgt_map(per_object, frame.instance_map, single_object_radius),
        fg_mask=frame.instance_map > 0,
        per_object_xi=per_object,
        instance_map=frame.instance_map.copy(),
    )
