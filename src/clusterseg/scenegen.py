"""Synthetic RGB-D scene generation.

Scenes are lists of analytic primitives (spheres and oriented boxes)
authored directly in the camera frame. Rendering is exact per-pixel ray
casting with a z-buffer: the nearest positive hit wins, ties closer than
1e-9 m resolve to the lower instance ID. Each frame carries RGB, depth,
XYZ, the modal instance-ID map, per-object amodal masks, and per-object
occlusion scores (visible pixels / amodal pixels).

Each primitive is ray-cast only inside its screen window: the rows and
columns whose ray lines can meet its bounding sphere (center c = the
translation, radius R = r for a sphere and ||half_extents|| for a box).
Every ray of column u lies in the plane x = a_u z, so the column can hold
a hit only if that plane meets the sphere, (c_x - a_u c_z)^2 <= R^2 (1 +
a_u^2); rows use b_v and c_y alike. The window is the smallest block of
rows and columns holding every row and column that passes. It is exact
for the rendered values, not only for the true geometry:

  - Sphere: for the pixel's direction d the computed discriminant
    (d.c)^2 - |d|^2 (|c|^2 - r^2) is off by at most about 20 ulp of
    |d|^2 (|c|^2 + r^2), and the exact one equals |d|^2 (r^2 - rho^2),
    rho being the distance from c to the ray line. So a computed hit has
    rho^2 <= r^2 + 2.3e-15 (|c|^2 + r^2), whatever the magnitudes.
  - Box: a computed slab hit has a point of the ray that lies outside
    the box by at most a few ulp of |c| + R, and a rotation built from a
    quaternion that is unit only within 1e-9 enlarges the box by at most
    5e-9. So rho <= R (1 + 5e-9) + 1e-14 (|c| + R).

The window inflates R^2 to R^2 (1 + WINDOW_REL) + WINDOW_ABS (|c|^2 + R^2),
over 30 times what either bound needs; the row and column tests
themselves round by less than 2e-15 (1 + s^2)(|c|^2 + R^2), which the
same margin absorbs. NaN or overflow keeps a row or column, so a
primitive whose bound cannot be evaluated is cast over the full frame.
Inside the window the intersection code runs unchanged on a contiguous
copy of the window's directions, and every pixel outside it misses, so
the frame is bit-identical to casting every pixel.

Intersection returns only the hit distance. Normals are computed after
the z-buffer is settled, and only at the pixels each primitive wins, the
only ones shaded. Every step of a normal is per ray, so a subset of rays
gets the bits the whole window would: a sphere's normal is elementwise,
and a box's is its rotation times a signed one-hot, one exact product
plus signed zeros whose sum does not depend on order.

Every sphere's surface sample scales and shifts one read-only unit sample,
built once per point count. A box's sample fills both faces normal to each
axis at once from one table of the faces' np.linspace grid coordinates.

Scene JSON schema (see scene_to_json / scene_from_json):

    {
      "camera": {"fx", "fy", "ppx", "ppy", "width", "height"},
      "background_depth": <meters> | null,
      "objects": [
        {"kind": "sphere" | "box",
         "quaternion": [w, x, y, z],
         "translation": [x, y, z],
         "half_extents": [hx, hy, hz],
         "albedo": [r, g, b]},
        ...
      ]
    }
"""

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ClusterSegError, MaskContainmentError, PlacementError, ShapeMismatchError
from .geometry import (CameraIntrinsics, check_back_projection, compute_object_feature,
                       depth_to_xyz, feature_distance)
from .seeding import STREAM_SCENE, stream_rng

# Two hits closer than this along one ray count as a tie; lower ID wins.
DEPTH_TIE_EPS = 1e-9
# Hits closer than this to the camera are discarded as self-intersections.
RAY_MIN_T = 1e-9

SURFACE_SAMPLE_COUNT = 4096

# The grey of every rgb channel where a ray hits the backdrop; with no
# backdrop, missed rays are black.
BACKDROP_RGB = 0.15

# Inflation of a primitive's squared bounding radius R^2 for its screen
# window: R^2 (1 + WINDOW_REL) + WINDOW_ABS (|c|^2 + R^2); the module
# docstring gives the rounding bounds these cover.
WINDOW_REL = 1e-6
WINDOW_ABS = 1e-12


@dataclass(frozen=True)
class Primitive:
    """One analytic object: a sphere or an oriented box.

    quaternion is (w, x, y, z), unit within 1e-9; translation is the object
    center in the camera frame (meters). For spheres all three half extents
    must equal the radius.
    """

    kind: str
    quaternion: tuple
    translation: tuple
    half_extents: tuple
    albedo: tuple

    def __post_init__(self):
        if self.kind not in ("sphere", "box"):
            raise ClusterSegError(f"unknown primitive kind {self.kind!r}")
        q = np.asarray(self.quaternion, dtype=np.float64)
        if q.shape != (4,) or abs(np.linalg.norm(q) - 1.0) > 1e-9:
            raise ClusterSegError("quaternion must be a unit 4-vector (w, x, y, z)")
        he = np.asarray(self.half_extents, dtype=np.float64)
        if he.shape != (3,) or np.any(he <= 0):
            raise ClusterSegError("half_extents must be three positive values")
        if self.kind == "sphere" and (he[0] != he[1] or he[1] != he[2]):
            raise ClusterSegError("sphere half_extents must replicate the radius")

    @property
    def rotation(self) -> np.ndarray:
        """3x3 rotation matrix of the unit quaternion."""
        w, x, y, z = self.quaternion
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])

    @cached_property
    def feature(self) -> np.ndarray:
        """Read-only object feature of the fixed surface sample, computed once."""
        xi = compute_object_feature(surface_points(self))
        xi.flags.writeable = False
        return xi


@dataclass(frozen=True)
class Scene:
    """Objects (instance IDs 1..K in list order) plus the camera.

    background_depth is the depth of a flat backdrop perpendicular to the
    optical axis, or None for an empty background (depth 0 = no hit).
    """

    objects: tuple
    camera: CameraIntrinsics
    background_depth: float | None = None


@dataclass
class FrameBundle:
    """One rendered frame with modal and amodal ground truth."""

    rgb: np.ndarray            # H x W x 3 in [0, 1]
    depth: np.ndarray          # H x W meters, 0 = no hit
    camera: CameraIntrinsics   # the intrinsics the depth was rendered with
    instance_map: np.ndarray   # H x W int, 0 = background
    amodal_masks: np.ndarray   # K x H x W bool
    occlusion_scores: np.ndarray  # K floats in [0, 1]

    @cached_property
    def xyz(self) -> np.ndarray:
        """Read-only H x W x 3 camera-frame points of the depth, derived once."""
        xyz = depth_to_xyz(self.depth, self.camera)
        xyz.flags.writeable = False
        return xyz


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for sample_scene."""

    count_range: tuple = (2, 8)
    size_range: tuple = (0.06, 0.18)
    x_range: tuple = (-0.35, 0.35)
    y_range: tuple = (-0.35, 0.35)
    z_range: tuple = (0.9, 1.8)
    min_feature_separation: float = 0.1
    max_attempts: int = 200
    sphere_prob: float = 0.5
    background_depth: float | None = 2.5
    camera: CameraIntrinsics = field(
        default_factory=lambda: CameraIntrinsics(64.0, 64.0, 32.0, 32.0, 64, 64))

    def __post_init__(self):
        for name in ("size_range", "x_range", "y_range", "z_range"):
            lo, hi = getattr(self, name)
            floor = 0.0 if name == "size_range" else -math.inf
            if not floor < lo <= hi < math.inf:
                raise ClusterSegError(f"{name} must satisfy {floor} < low <= high < inf, "
                                      f"got {lo}..{hi}")
        if not 0.0 <= self.min_feature_separation < math.inf:
            raise ClusterSegError(f"min_feature_separation must be finite and non-negative, "
                                  f"got {self.min_feature_separation}")
        if self.background_depth is not None and not 0.0 < self.background_depth < math.inf:
            raise ClusterSegError(f"background_depth must be finite and positive, or None, "
                                  f"got {self.background_depth}")


@lru_cache(maxsize=4)
def _unit_sphere(n: int) -> np.ndarray:
    """Read-only (n, 3) sample of the unit sphere: six axis extremes, then a Fibonacci spiral."""
    m = n - 6
    i = np.arange(m, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / m
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    extremes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                         [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.float64)
    unit = np.vstack([extremes, pts])
    unit.flags.writeable = False
    return unit


def surface_points(prim: Primitive, n: int = SURFACE_SAMPLE_COUNT) -> np.ndarray:
    """Deterministic ~n-point sample of the primitive's surface, camera frame.

    Spheres scale and shift the unit sample for n, a Fibonacci spiral plus
    the six axis extremes (exactly n points); rotation is skipped since it
    cannot change a sphere. Boxes get an endpoint-inclusive grid on each
    face sized by face area, so the rotated corners, and therefore the
    camera-frame bounds, are sampled exactly; the count is then
    approximately n.
    """
    t = np.asarray(prim.translation, dtype=np.float64)
    he = np.asarray(prim.half_extents, dtype=np.float64)
    if prim.kind == "sphere":
        return _unit_sphere(n) * he[0] + t

    # Faces +x, -x, +y, -y, +z, -z. Both faces normal to an axis are a g x g
    # grid over the other two axes, the first of them varying fastest, with
    # g set by the faces' share of the surface area.
    areas = np.array([he[1] * he[2], he[2] * he[0], he[0] * he[1]])  # faces normal to x, y, z
    weights = np.repeat(areas, 2)
    weights = weights / weights.sum()
    sizes = [max(2, int(round(np.sqrt(max(4, int(round(n * share)))))))
             for share in weights[::2].tolist()]
    # lin[axis, k, j] is np.linspace(-he[j], he[j], sizes[axis])[k], padded
    # to the largest size: k scaled steps, or k scaled fractions of the
    # width where the step underflows to zero, then the exact endpoint.
    g = np.array(sizes)
    k = np.arange(g.max(), dtype=np.float64)[:, None]
    div = (g - 1).astype(np.float64)[:, None, None]
    delta = he - -he
    step = delta / div
    lin = np.where(step == 0, k / div * delta, k * step) - he
    lin[np.arange(3), g - 1] = he
    local = np.empty((2 * int(g @ g), 3))
    lo = 0
    for axis, size in enumerate(sizes):
        a, b = [i for i in range(3) if i != axis]
        faces = local[lo:lo + 2 * size * size].reshape(2, size, size, 3)
        faces[0, ..., axis] = he[axis]
        faces[1, ..., axis] = -he[axis]
        faces[..., a] = lin[axis, :size, a]
        faces[..., b] = lin[axis, :size, b, None]
        lo += 2 * size * size
    return local @ prim.rotation.T + t


def _min_z_bound(prim: Primitive) -> float:
    # Conservative under any rotation: center z minus the bounding radius.
    he = np.asarray(prim.half_extents, dtype=np.float64)
    radius = he[0] if prim.kind == "sphere" else float(np.linalg.norm(he))
    return float(prim.translation[2]) - radius


def sample_scene(seed: int, cfg: GeneratorConfig = GeneratorConfig()) -> Scene:
    """Randomly populate a Scene; deterministic for a fixed seed.

    Objects whose feature lands within cfg.min_feature_separation of an
    already placed object's feature are rejection-resampled so no two
    instances are indistinguishable in feature space.
    """
    rng = stream_rng(seed, STREAM_SCENE)
    count = int(rng.integers(cfg.count_range[0], cfg.count_range[1] + 1))
    objects = []
    features = []
    for _ in range(count):
        for attempt in range(cfg.max_attempts):
            kind = "sphere" if rng.random() < cfg.sphere_prob else "box"
            if kind == "sphere":
                r = rng.uniform(*cfg.size_range)
                he = (r, r, r)
            else:
                he = tuple(rng.uniform(*cfg.size_range) for _ in range(3))
            q = rng.normal(size=4)
            norm = np.linalg.norm(q)
            if norm < 1e-12:
                continue
            q = q / norm
            trans = (rng.uniform(*cfg.x_range), rng.uniform(*cfg.y_range),
                     rng.uniform(*cfg.z_range))
            albedo = tuple(rng.uniform(0.25, 0.95, size=3))
            prim = Primitive(kind=kind, quaternion=tuple(q), translation=trans,
                             half_extents=he, albedo=albedo)
            if _min_z_bound(prim) <= 0.05:
                continue
            xi = prim.feature
            if any(feature_distance(xi, other) < cfg.min_feature_separation
                   for other in features):
                continue
            objects.append(prim)
            features.append(xi)
            break
        else:
            raise PlacementError(
                f"could not place object {len(objects) + 1} within {cfg.max_attempts} attempts")
    return Scene(objects=tuple(objects), camera=cfg.camera,
                 background_depth=cfg.background_depth)


def _ray_directions(intr: CameraIntrinsics) -> np.ndarray:
    # dz is fixed at 1 so the ray parameter t equals z-depth directly.
    u = np.arange(intr.width, dtype=np.float64)
    v = np.arange(intr.height, dtype=np.float64)
    dx = (u[None, :] - intr.ppx) / intr.fx
    dy = (v[:, None] - intr.ppy) / intr.fy
    dx, dy = np.broadcast_arrays(dx, dy)
    return np.stack([dx, dy, np.ones_like(dx)], axis=-1)


def _intersect_sphere(prim: Primitive, dirs: np.ndarray) -> np.ndarray:
    """Hit distance t of each ray of dirs (H, W, 3); inf where it misses."""
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
    return np.where(hit & (t > RAY_MIN_T), t, np.inf)


def _box_slabs(prim: Primitive, dirs: np.ndarray):
    """Slab test of the rays dirs (..., 3) against a box, in the box frame.

    Returns the local directions d_local, the per-axis slab entry and exit
    t1 and t2, and the ray's entry t_near and exit t_far. A ray parallel
    to a slab is inside it for every t or for none; the empty slab is
    (inf, inf) so the min/max over axes cannot widen it.
    """
    R = prim.rotation
    he = np.asarray(prim.half_extents, dtype=np.float64)
    o_local = -(R.T @ np.asarray(prim.translation, dtype=np.float64))
    d_local = np.einsum("ij,...j->...i", R.T, dirs)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo = (-he - o_local) / d_local
        hi = (he - o_local) / d_local
    parallel = d_local == 0.0
    inside = np.abs(o_local) <= he
    lo = np.where(parallel, np.where(inside, -np.inf, np.inf), lo)
    hi = np.where(parallel, np.inf, hi)
    t1 = np.minimum(lo, hi)
    t2 = np.maximum(lo, hi)
    # Elementwise over the three slabs, far faster than a reduction along
    # a 3-wide axis. Both propagate NaN and differ at most in the sign of a
    # zero, which only meets comparisons with RAY_MIN_T.
    t_near = np.maximum(np.maximum(t1[..., 0], t1[..., 1]), t1[..., 2])
    t_far = np.minimum(np.minimum(t2[..., 0], t2[..., 1]), t2[..., 2])
    return d_local, t1, t2, t_near, t_far


def _intersect_box(prim: Primitive, dirs: np.ndarray) -> np.ndarray:
    """Hit distance t of each ray of dirs (..., 3); inf where it misses."""
    _, _, _, t_near, t_far = _box_slabs(prim, dirs)
    hit = (t_far >= t_near) & (t_far > RAY_MIN_T)
    t = np.where(t_near > RAY_MIN_T, t_near, t_far)
    return np.where(hit, t, np.inf)


def _normals(prim: Primitive, dirs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Outward unit normals where the rays dirs (N, 3) hit prim at the finite t (N,).

    Every step is per ray, so a subset of a window's rays gets the normals
    the whole window would. For a box it is the normal of the face whose
    slab bounds the entry (or the exit, for a ray starting inside).
    """
    if prim.kind == "sphere":
        c = np.asarray(prim.translation, dtype=np.float64)
        return (dirs * t[:, None] - c) / prim.half_extents[0]
    d_local, t1, t2, t_near, _ = _box_slabs(prim, dirs)
    face_axis = np.argmax(np.where(np.isfinite(t1), t1, -np.inf), axis=-1)
    exit_axis = np.argmin(np.where(np.isfinite(t2), t2, np.inf), axis=-1)
    rows, axes = np.arange(len(dirs)), np.arange(3)
    # The bool one-hots multiply as the rows of np.eye(3) would.
    n_local = np.where((t_near > RAY_MIN_T)[:, None],
                       -np.sign(d_local[rows, face_axis])[:, None] * (face_axis[:, None] == axes),
                       np.sign(d_local[rows, exit_axis])[:, None] * (exit_axis[:, None] == axes))
    return np.einsum("ij,...j->...i", prim.rotation, n_local)


def _slopes_meeting(offset, depth, rr, slopes):
    """Slice of the slopes s whose plane {lateral = s z} can meet a sphere.

    offset and depth are the sphere center's lateral and z coordinates and
    rr its inflated squared radius; the plane meets the sphere iff
    (offset - s depth)^2 <= rr (1 + s^2). NaN or overflow keeps a slope.
    None if no slope passes.
    """
    keep = np.flatnonzero(~((offset - slopes * depth) ** 2 > rr * (1.0 + slopes * slopes)))
    if keep.size == 0:
        return None
    return slice(int(keep[0]), int(keep[-1]) + 1)


def _window(prim: Primitive, dirs: np.ndarray):
    """(rows, cols) slices holding every pixel whose ray can hit prim, or None."""
    c = np.asarray(prim.translation, dtype=np.float64)
    he = np.asarray(prim.half_extents, dtype=np.float64)
    radius = he[0] if prim.kind == "sphere" else np.linalg.norm(he)
    with np.errstate(over="ignore", invalid="ignore"):
        rr = radius * radius * (1.0 + WINDOW_REL) + WINDOW_ABS * (c @ c + radius * radius)
        rows = _slopes_meeting(c[1], c[2], rr, dirs[:, 0, 1])
        cols = _slopes_meeting(c[0], c[2], rr, dirs[0, :, 0])
    if rows is None or cols is None:
        return None
    return rows, cols


def render(scene: Scene) -> FrameBundle:
    """Ray-cast the scene into a FrameBundle. Deterministic and bit-exact."""
    intr = scene.camera
    H, W = intr.height, intr.width
    dirs = _ray_directions(intr)
    K = len(scene.objects)
    amodal = np.zeros((K, H, W), dtype=bool)
    best_t = np.full((H, W), np.inf)
    winner = np.zeros((H, W), dtype=np.int32)
    # Per object: its window and the window's directions, or None.
    casts = []
    for k, prim in enumerate(scene.objects):
        window = _window(prim, dirs)
        if window is None:
            casts.append(None)
            continue
        sub = np.ascontiguousarray(dirs[window])
        intersect = _intersect_sphere if prim.kind == "sphere" else _intersect_box
        t = intersect(prim, sub)
        amodal[k][window] = np.isfinite(t)
        closer = t < best_t[window] - DEPTH_TIE_EPS
        np.copyto(best_t[window], t, where=closer)
        winner[window][closer] = k + 1
        casts.append((window, sub))

    fg = winner > 0
    depth = np.where(fg, best_t, 0.0)
    if scene.background_depth is not None:
        depth = np.where(fg, depth, scene.background_depth)

    rgb = np.zeros((H, W, 3))
    if scene.background_depth is not None:
        rgb[:] = BACKDROP_RGB
    occ = np.zeros(K)
    for k, (prim, cast) in enumerate(zip(scene.objects, casts)):
        if cast is None:
            continue
        window, sub = cast
        sel = winner[window] == k + 1
        occ[k] = occlusion_score(sel, amodal[k][window])
        if not np.any(sel):
            continue
        # Only the pixels prim wins are shaded, so only they get normals;
        # there best_t is prim's own t.
        d = sub[sel]
        n = _normals(prim, d, best_t[window][sel])
        lambert = -np.einsum("nc,nc->n", n, d) * (1.0 / np.linalg.norm(d, axis=-1))
        shade = 0.2 + 0.8 * np.clip(lambert, 0.0, 1.0)
        rgb[window][sel] = np.asarray(prim.albedo) * shade[:, None]
    rgb = np.clip(rgb, 0.0, 1.0)

    check_back_projection(depth, intr)
    return FrameBundle(rgb=rgb.astype(np.float32), depth=depth, camera=intr,
                       instance_map=winner,
                       amodal_masks=amodal, occlusion_scores=occ)


def occlusion_score(modal: np.ndarray, amodal: np.ndarray) -> float:
    """Visible-pixel count over amodal-pixel count; 0 for an empty amodal mask."""
    modal = np.asarray(modal, dtype=bool)
    amodal = np.asarray(amodal, dtype=bool)
    if modal.shape != amodal.shape:
        raise ShapeMismatchError(f"mask shapes differ: {modal.shape} vs {amodal.shape}")
    if np.any(modal & ~amodal):
        raise MaskContainmentError("modal mask is not a subset of the amodal mask")
    total = int(amodal.sum())
    if total == 0:
        return 0.0
    return float(int(modal.sum()) / total)


def scene_to_json(scene: Scene) -> str:
    """Serialize a Scene to its documented JSON form."""
    doc = {
        "camera": {"fx": scene.camera.fx, "fy": scene.camera.fy,
                   "ppx": scene.camera.ppx, "ppy": scene.camera.ppy,
                   "width": scene.camera.width, "height": scene.camera.height},
        "background_depth": scene.background_depth,
        "objects": [
            {"kind": p.kind,
             "quaternion": list(p.quaternion),
             "translation": list(p.translation),
             "half_extents": list(p.half_extents),
             "albedo": list(p.albedo)}
            for p in scene.objects
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def scene_from_json(text: str) -> Scene:
    """Parse the documented JSON form back into a Scene."""
    try:
        doc = json.loads(text)
        cam = doc["camera"]
        intr = CameraIntrinsics(fx=float(cam["fx"]), fy=float(cam["fy"]),
                                ppx=float(cam["ppx"]), ppy=float(cam["ppy"]),
                                width=int(cam["width"]), height=int(cam["height"]))
        bg = doc["background_depth"]
        bg = None if bg is None else float(bg)
        objects = tuple(
            Primitive(kind=o["kind"],
                      quaternion=tuple(float(x) for x in o["quaternion"]),
                      translation=tuple(float(x) for x in o["translation"]),
                      half_extents=tuple(float(x) for x in o["half_extents"]),
                      albedo=tuple(float(x) for x in o["albedo"]))
            for o in doc["objects"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ClusterSegError(f"malformed scene JSON: {exc}") from exc
    return Scene(objects=objects, camera=intr, background_depth=bg)
