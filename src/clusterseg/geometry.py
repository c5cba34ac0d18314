"""Pinhole camera model, depth back-projection, and geometric object features.

The per-object feature is a 9-vector built from the axis-aligned bounding
box center of the object's points in the camera frame plus second-order
moments of the points about that center:

    (cx, cy, cz,
     cx + mxx, cy + myy, cz + mzz,
     cx + mxy, cy + myz, cz + mzx)

Pixels showing the same object share one feature value; distance between
features is what the clustering stage and the radius ground truth operate on.
Reductions along a 3-wide axis are slow in numpy, so the feature works on
the cloud's contiguous coordinate rows, (3, N); it gives the bits of the
(N, 3) point-order definition kept in tests/reference_scenegen.py.
All functions here are pure and safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPointCloudError, NonFiniteError, ShapeMismatchError

FEATURE_DIM = 9


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics. ppx/ppy are the principal point in pixels."""

    fx: float
    fy: float
    ppx: float
    ppy: float
    width: int
    height: int

    def __post_init__(self):
        if not np.isfinite([self.fx, self.fy, self.ppx, self.ppy]).all():
            raise NonFiniteError(f"camera intrinsics must be finite, got fx={self.fx}, "
                                 f"fy={self.fy}, ppx={self.ppx}, ppy={self.ppy}")
        if self.fx <= 0 or self.fy <= 0:
            raise ShapeMismatchError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width <= 0 or self.height <= 0:
            raise ShapeMismatchError(f"image size must be positive, got {self.width}x{self.height}")


def depth_to_xyz(depth: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Back-project a depth map to an HxWx3 camera-frame XYZ map.

    Depth value 0 marks an invalid pixel and maps to (0, 0, 0). For valid
    pixels the z channel reproduces the depth map exactly. Raises
    NonFiniteError when a point is not finite, as for a NaN depth or one so
    large that its x or y overflows.
    """
    check_back_projection(depth, intr)
    depth = np.asarray(depth, dtype=np.float64)
    u = np.arange(intr.width, dtype=np.float64)
    v = np.arange(intr.height, dtype=np.float64)
    x = (u[None, :] - intr.ppx) * depth / intr.fx
    y = (v[:, None] - intr.ppy) * depth / intr.fy
    xyz = np.stack([x, y, depth], axis=-1)
    xyz[depth == 0.0] = 0.0
    return xyz


def check_back_projection(depth: np.ndarray, intr: CameraIntrinsics) -> None:
    """Raise NonFiniteError exactly when a back-projected point would not be finite, building none.

    The depth must be finite. For a fixed column, |x| = |(u - ppx) * d / fx|
    rounds monotonically in |d|, so x is finite in the whole column when it
    is at the column's largest |d|; rows and y likewise.
    """
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2 or depth.shape != (intr.height, intr.width):
        raise ShapeMismatchError(
            f"depth map shape {depth.shape} does not match intrinsics {intr.height}x{intr.width}")
    if not np.isfinite(depth).all():
        raise NonFiniteError("depth map back-projects to non-finite points")
    far = np.abs(depth)
    with np.errstate(over="ignore"):
        x = (np.arange(intr.width, dtype=np.float64) - intr.ppx) * far.max(axis=0) / intr.fx
        y = (np.arange(intr.height, dtype=np.float64) - intr.ppy) * far.max(axis=1) / intr.fy
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteError("depth map back-projects to non-finite points")


def compute_object_feature(points: np.ndarray) -> np.ndarray:
    """9-vector feature of a point cloud: AABB center + second moments.

    The center is the midpoint of the axis-aligned bounds; moments are
    population means of centered coordinate products and are folded onto
    the center components as described in the module docstring.

    The work runs on the contiguous coordinate rows of the cloud, which is
    bit for bit the (N, 3) form: min and max do not depend on order, the
    squared moments are sums in point order, as an axis-0 mean of (N, 3)
    is, and each cross moment is the mean of one fresh product array. Only
    an axis holding nothing but zeros takes its bounds from (N, 3), since
    which signed zero a reduction keeps depends on its order.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ShapeMismatchError(f"expected an (N, 3) point array, got shape {points.shape}")
    n = points.shape[0]
    if n == 0:
        raise EmptyPointCloudError("cannot compute an object feature from an empty cloud")
    cols = np.ascontiguousarray(points.T)
    if not np.isfinite(cols).all():
        raise EmptyPointCloudError("point cloud contains non-finite coordinates")
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    if np.any((lo == 0.0) & (hi == 0.0)):
        lo, hi = points.min(axis=0), points.max(axis=0)
    center = 0.5 * (lo + hi)
    d = cols - center[:, None]
    mxx, myy, mzz = np.cumsum(d * d, axis=1)[:, -1] / n
    mxy = np.mean(d[0] * d[1])
    myz = np.mean(d[1] * d[2])
    mzx = np.mean(d[2] * d[0])
    cx, cy, cz = center
    return np.array([cx, cy, cz,
                     cx + mxx, cy + myy, cz + mzz,
                     cx + mxy, cy + myz, cz + mzx])


def feature_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two 9-D object features."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b))
