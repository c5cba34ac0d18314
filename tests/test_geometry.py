import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterseg.errors import EmptyPointCloudError, NonFiniteError, ShapeMismatchError
from clusterseg.geometry import (CameraIntrinsics, check_back_projection, compute_object_feature,
                                 depth_to_xyz, feature_distance)


def reference_depth_to_xyz(depth, intr):
    """The back-projection built in full, non-finite points kept: the definition the check decides."""
    u = np.arange(intr.width, dtype=np.float64)
    v = np.arange(intr.height, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        x = (u[None, :] - intr.ppx) * depth / intr.fx
        y = (v[:, None] - intr.ppy) * depth / intr.fy
    xyz = np.stack([x, y, depth], axis=-1)
    xyz[depth == 0.0] = 0.0
    return xyz


def test_principal_point_projects_onto_optical_axis():
    intr = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)
    depth = np.zeros((100, 100))
    depth[50, 50] = 2.0
    xyz = depth_to_xyz(depth, intr)
    assert np.array_equal(xyz[50, 50], [0.0, 0.0, 2.0])


def test_pinhole_formula():
    intr = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 200, 100)
    depth = np.zeros((100, 200))
    depth[50, 150] = 1.0
    xyz = depth_to_xyz(depth, intr)
    # x = (u - ppx) * d / fx = (150 - 50) / 100 = 1
    assert np.allclose(xyz[50, 150], [1.0, 0.0, 1.0])


def test_invalid_depth_maps_to_origin():
    intr = CameraIntrinsics(100.0, 100.0, 2.0, 2.0, 4, 4)
    xyz = depth_to_xyz(np.zeros((4, 4)), intr)
    assert np.array_equal(xyz, np.zeros((4, 4, 3)))


def test_depth_round_trip():
    intr = CameraIntrinsics(80.0, 90.0, 31.5, 15.0, 64, 32)
    rng = np.random.default_rng(0)
    depth = rng.uniform(0.5, 3.0, size=(32, 64))
    depth[rng.random((32, 64)) < 0.3] = 0.0
    xyz = depth_to_xyz(depth, intr)
    assert np.array_equal(xyz[..., 2], depth)


def test_depth_shape_mismatch():
    intr = CameraIntrinsics(100.0, 100.0, 8.0, 8.0, 16, 16)
    for check in (depth_to_xyz, check_back_projection):
        with pytest.raises(ShapeMismatchError, match=r"\(16, 17\) does not match intrinsics 16x16"):
            check(np.zeros((16, 17)), intr)


# Depths that are zero, signed zero, not finite, at the edge of overflow, or plain.
DEPTHS = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 1.7976931348623157e308, 5e307,
          1e300, 5e-324, 1.0, 2.5]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), height=st.integers(1, 5), width=st.integers(1, 5),
       fx=st.sampled_from([1e-300, 5e-324, 1e-3, 0.5]) | st.floats(1e-6, 1e4),
       fy=st.sampled_from([1e-300, 5e-324, 1e-3, 0.5]) | st.floats(1e-6, 1e4),
       ppx=st.sampled_from([-1e308, 1e308, -1e30, 1e6]) | st.floats(-10.0, 10.0),
       ppy=st.sampled_from([-1e308, 1e308, -1e30, 1e6]) | st.floats(-10.0, 10.0))
def test_check_back_projection_raises_exactly_when_a_point_is_not_finite(
        data, height, width, fx, fy, ppx, ppy):
    intr = CameraIntrinsics(fx, fy, ppx, ppy, width, height)
    depth = np.array(data.draw(st.lists(st.sampled_from(DEPTHS) | st.floats(-1e3, 1e3),
                                        min_size=height * width, max_size=height * width)),
                     dtype=np.float64).reshape(height, width)
    want = reference_depth_to_xyz(depth, intr)
    if np.isfinite(want).all():
        check_back_projection(depth, intr)
        got = depth_to_xyz(depth, intr)
        assert got.tobytes() == want.tobytes()
    else:
        for check in (check_back_projection, depth_to_xyz):
            with pytest.raises(NonFiniteError, match="back-projects to non-finite points"):
                check(depth, intr)


def test_single_point_feature():
    xi = compute_object_feature(np.array([[1.0, 2.0, 3.0]]))
    assert np.array_equal(xi, [1, 2, 3, 1, 2, 3, 1, 2, 3])


def test_unit_cube_corners():
    corners = np.array([[x, y, z + 1.0] for x in (-0.5, 0.5)
                        for y in (-0.5, 0.5) for z in (-0.5, 0.5)])
    xi = compute_object_feature(corners)
    # center (0, 0, 1); each centered coordinate is +-0.5 so the diagonal
    # moments are 0.25 and the cross moments vanish.
    assert np.allclose(xi, [0, 0, 1, 0.25, 0.25, 1.25, 0, 0, 1], atol=1e-15)


def test_two_point_feature():
    xi = compute_object_feature(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    assert np.allclose(xi, [1, 0, 0, 2, 0, 0, 1, 0, 0], atol=1e-15)


def test_translation_covariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        points = rng.normal(size=(rng.integers(2, 40), 3))
        t = rng.normal(size=3)
        a = compute_object_feature(points)
        b = compute_object_feature(points + t)
        shift = np.concatenate([t, t, t])
        assert np.allclose(b, a + shift, atol=1e-12)
        moments_a = a[3:9] - a[[0, 1, 2, 0, 1, 2]]
        moments_b = b[3:9] - b[[0, 1, 2, 0, 1, 2]]
        assert np.allclose(moments_a, moments_b, atol=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(25, 3))
    a = compute_object_feature(points)
    b = compute_object_feature(points[rng.permutation(25)])
    assert np.allclose(a, b, atol=1e-12)


def test_diagonal_moments_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(50):
        points = rng.normal(scale=rng.uniform(0.01, 10), size=(rng.integers(1, 60), 3))
        xi = compute_object_feature(points)
        assert np.all(xi[3:6] - xi[0:3] >= 0)
        assert np.all(np.isfinite(xi))


def test_feature_distance_cases():
    zero = np.zeros(9)
    assert feature_distance(zero, zero) == 0.0
    b = zero.copy()
    b[0] = 2.0
    assert feature_distance(zero, b) == 2.0
    assert feature_distance(np.ones(9), zero) == 3.0  # sqrt(9)


def test_empty_cloud_rejected():
    with pytest.raises(EmptyPointCloudError):
        compute_object_feature(np.zeros((0, 3)))
    with pytest.raises(EmptyPointCloudError):
        compute_object_feature(np.array([[np.nan, 0.0, 1.0]]))
    with pytest.raises(ShapeMismatchError):
        compute_object_feature(np.zeros((3, 2)))


def test_bad_intrinsics_rejected():
    with pytest.raises(ShapeMismatchError):
        CameraIntrinsics(0.0, 1.0, 0.0, 0.0, 4, 4)
    with pytest.raises(ShapeMismatchError):
        CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 0, 4)
