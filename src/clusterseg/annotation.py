"""Per-pixel ground truth for a rendered scene.

Four maps are produced from the instance map and the per-object features:

  xi_map   HxWx9  every pixel of object k carries k's object feature
  eta_gt   HxW    1 on the fraction of each object's pixels nearest its
                  2D mass center (the seeding candidates), else 0
  b_map    HxW    half the minimum feature distance from the pixel's
                  object to any other object (the enclosing radius)
  fg_mask  HxW    1 where any object is visible

Background pixels are zero in every map, as is any pixel whose id lies
outside 1..K.

`build_annotation(per_object_xi, instance_map, fraction,
single_object_radius)` is the one function that makes the maps.
`annotate(scene, frame, ...)` is a thin wrapper that reads the features off
the scene's primitives (`object_features`); gen writes those features and
the instance map and builds no map, and the dataset loader builds the maps
with `build_annotation` without touching the primitives.

An object's feature is a property of its primitive alone, so it is
computed once per Primitive instance (`Primitive.feature`, a read-only
array cached on the instance): sample_scene computes it to check feature
separation, and gen and annotate read the same array. The cache lives and dies
with the scene; nothing is shared between scenes or passes. The feature
and radius maps are each one gather from a table indexed by instance id;
the centroid candidates come from one sort of the foreground pixels.
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
    # np.take copies whole rows, about twice as fast as fancy indexing here
    return np.take(table, np.clip(instance_map.astype(np.intp, copy=False), 0, K + 1), axis=0)


def make_xi_map(per_object_xi: np.ndarray, instance_map: np.ndarray) -> np.ndarray:
    """Spread per-object features (K x 9) over the instance map.

    The features come from each primitive's fixed deterministic surface
    sample, so occlusion cannot change them and all pixels of one object
    share one exact value.
    """
    return _per_pixel(per_object_xi, instance_map)


def make_centroid_candidates(instance_map: np.ndarray, fraction: float) -> np.ndarray:
    """Mark, per object, the pixels nearest its 2D mass center.

    For each object the max(1, round(fraction * N)) modal pixels closest to
    the mean pixel coordinate are marked, ties broken by (row, col).
    Rounding is half-away-from-zero. Every non-zero id is an object.

    One stable sort groups the foreground pixels by id, keeping each
    object's pixels in (row, col) order; the coordinate sums are integers,
    so the means equal the per-object `mean()` bit for bit. One lexsort by
    (id, distance), which is stable, then ranks each object's pixels by
    (distance, row, col).
    """
    if not 0.10 <= fraction <= 0.30:
        raise ClusterSegError(f"fraction must lie in [0.10, 0.30], got {fraction}")
    out = np.zeros(instance_map.shape, dtype=bool)
    flat = out.reshape(-1)
    ids = instance_map.reshape(-1)
    pixels = np.flatnonzero(ids)
    if pixels.size == 0:
        return out
    pixels = pixels[np.argsort(ids[pixels], kind="stable")]
    ids = ids[pixels]
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    counts = np.diff(np.append(starts, pixels.size))
    group = np.repeat(np.arange(starts.size), counts)
    rows, cols = np.divmod(pixels, instance_map.shape[1])
    c_row = np.add.reduceat(rows, starts) / counts
    c_col = np.add.reduceat(cols, starts) / counts
    dist = np.hypot(rows - c_row[group], cols - c_col[group])
    take = np.maximum(1, np.floor(fraction * counts + 0.5).astype(np.intp))
    order = np.lexsort((dist, group))
    rank = np.arange(pixels.size) - starts[group]
    flat[pixels[order[rank < take[group]]]] = True
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


def build_annotation(per_object_xi: np.ndarray, instance_map: np.ndarray,
                     fraction: float = DEFAULT_CANDIDATE_FRACTION,
                     single_object_radius: float = DEFAULT_SINGLE_OBJECT_RADIUS
                     ) -> Annotation:
    """Build the full Annotation from the per-object features and the instance map."""
    return Annotation(
        xi_map=make_xi_map(per_object_xi, instance_map),
        eta_gt=make_centroid_candidates(instance_map, fraction),
        b_map=make_bgt_map(per_object_xi, instance_map, single_object_radius),
        fg_mask=instance_map > 0,
        per_object_xi=per_object_xi,
        instance_map=instance_map.copy(),
    )


def object_features(scene: Scene) -> np.ndarray:
    """The K x 9 features of the scene's objects, row k - 1 for instance id k."""
    per_object = np.zeros((len(scene.objects), FEATURE_DIM))
    for k, prim in enumerate(scene.objects):
        per_object[k] = prim.feature
    return per_object


def annotate(scene: Scene, frame: FrameBundle,
             fraction: float = DEFAULT_CANDIDATE_FRACTION,
             single_object_radius: float = DEFAULT_SINGLE_OBJECT_RADIUS) -> Annotation:
    """Build the full Annotation for one rendered frame of the scene."""
    return build_annotation(object_features(scene), frame.instance_map, fraction,
                            single_object_radius)
