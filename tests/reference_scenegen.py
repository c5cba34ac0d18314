"""Full-frame reference definitions of rendering, the object feature and the annotation maps.

`reference_render` ray-casts every pixel through every primitive with its
own intersection code, which computes a normal at every pixel, and keeps
a K x H x W x 3 normals buffer; `reference_object_feature` reduces the
(N, 3) point array along its first axis; `reference_make_xi_map`
recomputes each primitive's feature from its surface sample with it and
scatters it with one boolean mask per object, as does
`reference_make_bgt_map` with the radii;
`reference_make_centroid_candidates` scans the instance map once per
object; `reference_box_points` builds a box's surface sample face by face
from np.linspace grids; `reference_occlusion_score` counts one object's
modal and amodal masks, where render and the loader each divide two count
arrays with scenegen.occlusion_scores. The library's windowed renderer
with normals only at shaded pixels, its feature over coordinate rows,
per-primitive feature cache, table gathers, one-sort candidate ranking
and box sample filled two faces at a time from one coordinate table must
reproduce them bit for bit; the tests compare the two.
"""

import numpy as np

from clusterseg.annotation import DEFAULT_SINGLE_OBJECT_RADIUS
from clusterseg.errors import ClusterSegError
from clusterseg.geometry import FEATURE_DIM
from clusterseg.scenegen import (DEPTH_TIE_EPS, RAY_MIN_T, SURFACE_SAMPLE_COUNT, FrameBundle,
                                 Scene, _ray_directions, surface_points)


def reference_occlusion_score(modal: np.ndarray, amodal: np.ndarray) -> float:
    """Visible-pixel count over amodal-pixel count of one object; 0 for an empty amodal mask."""
    total = int(np.count_nonzero(amodal))
    return int(np.count_nonzero(modal)) / total if total else 0.0


def reference_object_feature(points: np.ndarray) -> np.ndarray:
    """9-vector feature of an (N, 3) point cloud: AABB center + second moments."""
    points = np.asarray(points, dtype=np.float64)
    center = 0.5 * (points.min(axis=0) + points.max(axis=0))
    d = points - center
    mxx, myy, mzz = np.mean(d * d, axis=0)
    mxy = np.mean(d[:, 0] * d[:, 1])
    myz = np.mean(d[:, 1] * d[:, 2])
    mzx = np.mean(d[:, 2] * d[:, 0])
    cx, cy, cz = center
    return np.array([cx, cy, cz,
                     cx + mxx, cy + myy, cz + mzz,
                     cx + mxy, cy + myz, cz + mzx])


def reference_sphere_points(prim, n: int = SURFACE_SAMPLE_COUNT) -> np.ndarray:
    """A sphere's n-point surface sample: six axis extremes, then a Fibonacci spiral."""
    r = np.asarray(prim.half_extents, dtype=np.float64)[0]
    m = n - 6
    i = np.arange(m, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / m
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    extremes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                         [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.float64)
    return np.vstack([extremes, pts]) * r + np.asarray(prim.translation, dtype=np.float64)


def reference_box_points(prim, n: int = SURFACE_SAMPLE_COUNT) -> np.ndarray:
    """A box's surface sample: one endpoint-inclusive grid per face, built face by face."""
    t = np.asarray(prim.translation, dtype=np.float64)
    he = np.asarray(prim.half_extents, dtype=np.float64)
    areas = np.array([he[1] * he[2], he[2] * he[0], he[0] * he[1]])  # faces normal to x, y, z
    weights = np.repeat(areas, 2)
    weights = weights / weights.sum()
    faces = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            share = weights[2 * axis + (0 if sign > 0 else 1)]
            m = max(4, int(round(n * share)))
            g = max(2, int(round(np.sqrt(m))))
            a_axis, b_axis = [i for i in range(3) if i != axis]
            a = np.linspace(-he[a_axis], he[a_axis], g)
            b = np.linspace(-he[b_axis], he[b_axis], g)
            face = np.zeros((g * g, 3))
            face[:, axis] = sign * he[axis]
            face[:, a_axis] = np.tile(a, g)  # the raveled meshgrid(a, b)
            face[:, b_axis] = np.repeat(b, g)
            faces.append(face)
    local = np.vstack(faces)
    return local @ prim.rotation.T + t


def reference_intersect_sphere(prim, dirs):
    """(t, normals) of every ray of dirs (H, W, 3); t is inf where the ray misses."""
    c = np.asarray(prim.translation, dtype=np.float64)
    r = prim.half_extents[0]
    dd = np.einsum("hwc,hwc->hw", dirs, dirs)
    dc = np.einsum("hwc,c->hw", dirs, c)
    disc = dc * dc - dd * (c @ c - r * r)
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_near = (dc - sq) / dd
    t_far = (dc + sq) / dd
    t = np.where(t_near > RAY_MIN_T, t_near, t_far)
    t = np.where(hit & (t > RAY_MIN_T), t, np.inf)
    t_safe = np.where(np.isfinite(t), t, 1.0)
    n = (dirs * t_safe[..., None] - c) / r
    return t, n


def reference_intersect_box(prim, dirs):
    """(t, normals) of every ray of dirs (H, W, 3); t is inf where the ray misses."""
    R = prim.rotation
    he = np.asarray(prim.half_extents, dtype=np.float64)
    o_local = -(R.T @ np.asarray(prim.translation, dtype=np.float64))
    d_local = np.einsum("ij,hwj->hwi", R.T, dirs)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = (-he - o_local) / d_local
        hi = (he - o_local) / d_local
    parallel = d_local == 0.0
    inside = np.abs(o_local) <= he
    lo = np.where(parallel, np.where(inside, -np.inf, np.inf), lo)
    hi = np.where(parallel, np.inf, hi)
    t1 = np.minimum(lo, hi)
    t2 = np.maximum(lo, hi)
    t_near = t1.max(axis=-1)
    t_far = t2.min(axis=-1)
    hit = (t_far >= t_near) & (t_far > RAY_MIN_T)
    t = np.where(t_near > RAY_MIN_T, t_near, t_far)
    t = np.where(hit, t, np.inf)
    # Normal of the face whose slab bounds the entry (or exit, if inside).
    face_axis = np.argmax(np.where(np.isfinite(t1), t1, -np.inf), axis=-1)
    entry = t_near > RAY_MIN_T
    axis_onehot = np.eye(3)[face_axis]
    d_axis = np.take_along_axis(d_local, face_axis[..., None], axis=-1)[..., 0]
    exit_axis = np.argmin(np.where(np.isfinite(t2), t2, np.inf), axis=-1)
    exit_onehot = np.eye(3)[exit_axis]
    d_exit = np.take_along_axis(d_local, exit_axis[..., None], axis=-1)[..., 0]
    n_local = np.where(entry[..., None],
                       -np.sign(d_axis)[..., None] * axis_onehot,
                       np.sign(d_exit)[..., None] * exit_onehot)
    n = np.einsum("ij,hwj->hwi", R, n_local)
    return t, n


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
            t_maps[k], normals[k] = reference_intersect_sphere(prim, dirs)
        else:
            t_maps[k], normals[k] = reference_intersect_box(prim, dirs)

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
        occ[k] = reference_occlusion_score(winner == k + 1, amodal[k])

    frame = FrameBundle(depth=depth, scene=scene, instance_map=winner,
                        amodal_masks=amodal, occlusion_scores=occ)
    # The oracle's own shading, set before a read could derive it.
    frame.rgb = rgb.astype(np.float32)
    return frame


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
        per_object[k] = reference_object_feature(surface_points(prim, sample_count))
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
