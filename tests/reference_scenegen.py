"""Full-frame reference definitions of rendering and the annotation maps.

`reference_render` ray-casts every pixel through every primitive and keeps
a K x H x W x 3 normals buffer; `reference_make_xi_map` recomputes each
primitive's feature from its surface sample and scatters it with one
boolean mask per object, as does `reference_make_bgt_map` with the radii;
`reference_make_centroid_candidates` scans the instance map once per
object. The library's windowed renderer, per-primitive feature cache,
table gathers and one-sort candidate ranking must reproduce them bit for
bit; the tests compare the two.
"""

import numpy as np

from clusterseg.annotation import DEFAULT_SINGLE_OBJECT_RADIUS
from clusterseg.errors import ClusterSegError
from clusterseg.geometry import FEATURE_DIM, compute_object_feature, depth_to_xyz
from clusterseg.scenegen import (DEPTH_TIE_EPS, SURFACE_SAMPLE_COUNT, FrameBundle, Scene,
                                 _intersect_box, _intersect_sphere, _ray_directions,
                                 occlusion_score, surface_points)


def reference_render(scene: Scene) -> FrameBundle:
    """Ray-cast the scene into a FrameBundle. Deterministic and bit-exact."""
    intr = scene.camera
    H, W = intr.height, intr.width
    dirs = _ray_directions(intr)
    K = len(scene.objects)
    t_maps = np.full((K, H, W), np.inf)
    normals = np.zeros((K, H, W, 3))
    for k, prim in enumerate(scene.objects):
        if prim.kind == "sphere":
            t_maps[k], normals[k] = _intersect_sphere(prim, dirs)
        else:
            t_maps[k], normals[k] = _intersect_box(prim, dirs)

    best_t = np.full((H, W), np.inf)
    winner = np.zeros((H, W), dtype=np.int32)
    for k in range(K):
        closer = t_maps[k] < best_t - DEPTH_TIE_EPS
        best_t = np.where(closer, t_maps[k], best_t)
        winner = np.where(closer, k + 1, winner)

    fg = winner > 0
    depth = np.where(fg, best_t, 0.0)
    if scene.background_depth is not None:
        depth = np.where(fg, depth, scene.background_depth)

    rgb = np.zeros((H, W, 3))
    if scene.background_depth is not None:
        rgb[:] = 0.15
    inv_len = 1.0 / np.linalg.norm(dirs, axis=-1)
    for k, prim in enumerate(scene.objects):
        sel = winner == k + 1
        if not np.any(sel):
            continue
        lambert = -np.einsum("hwc,hwc->hw", normals[k], dirs) * inv_len
        shade = 0.2 + 0.8 * np.clip(lambert, 0.0, 1.0)
        rgb[sel] = np.asarray(prim.albedo) * shade[sel, None]
    rgb = np.clip(rgb, 0.0, 1.0)

    amodal = np.isfinite(t_maps)
    occ = np.zeros(K)
    for k in range(K):
        occ[k] = occlusion_score(winner == k + 1, amodal[k])

    return FrameBundle(rgb=rgb.astype(np.float32), depth=depth,
                       xyz=depth_to_xyz(depth, intr), instance_map=winner,
                       amodal_masks=amodal, occlusion_scores=occ)


def reference_make_xi_map(scene: Scene, frame: FrameBundle,
                          sample_count: int = SURFACE_SAMPLE_COUNT):
    """Scatter per-object features over the instance map.

    Returns (xi_map, per_object_xi). Features come from each primitive's
    fixed deterministic surface sample so occlusion cannot change them and
    all pixels of one object share one exact value.
    """
    H, W = frame.instance_map.shape
    K = len(scene.objects)
    per_object = np.zeros((K, FEATURE_DIM))
    for k, prim in enumerate(scene.objects):
        per_object[k] = compute_object_feature(surface_points(prim, sample_count))
    xi_map = np.zeros((H, W, FEATURE_DIM))
    for k in range(K):
        xi_map[frame.instance_map == k + 1] = per_object[k]
    return xi_map, per_object


def reference_make_bgt_map(per_object_xi: np.ndarray, instance_map: np.ndarray,
                           single_object_radius: float = DEFAULT_SINGLE_OBJECT_RADIUS
                           ) -> np.ndarray:
    """Enclosing-radius map: half the minimum feature distance to any other object.

    With a single object the minimum is empty, so a fixed positive radius is
    used instead.
    """
    K = per_object_xi.shape[0]
    b_map = np.zeros(instance_map.shape)
    if K == 0:
        return b_map
    if K == 1:
        radii = np.array([single_object_radius])
    else:
        diff = per_object_xi[:, None, :] - per_object_xi[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, np.inf)
        radii = 0.5 * dist.min(axis=1)
    for k in range(K):
        b_map[instance_map == k + 1] = radii[k]
    return b_map


def reference_make_centroid_candidates(instance_map: np.ndarray, fraction: float) -> np.ndarray:
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
