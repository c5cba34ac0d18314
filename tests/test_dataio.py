import json
import struct

import numpy as np
import pytest

from clusterseg.dataio import MAGIC, read_bundle, write_bundle
from clusterseg.errors import (BundleDtypeError, BundleError, BundleManifestError,
                               BundleTruncatedError)


def _round_trip(tmp_path, tensors):
    path = tmp_path / "t.tsb"
    write_bundle(path, tensors)
    return read_bundle(path)


def test_round_trip_every_dtype(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "f32": rng.normal(size=(3, 4)).astype(np.float32),
        "f64": rng.normal(size=(2, 2, 9)),
        "u8": rng.integers(0, 255, size=(5, 5), dtype=np.uint8),
        "u16": np.array([[0, 1], [65534, 65535]], dtype=np.uint16),
        "scalarish": np.array([1.5]),
        "empty": np.zeros((0, 4, 4), dtype=np.uint8),
    }
    out = _round_trip(tmp_path, tensors)
    assert set(out) == set(tensors)
    for name, arr in tensors.items():
        assert out[name].dtype == arr.dtype.newbyteorder("=") or out[name].dtype == arr.dtype
        assert out[name].shape == arr.shape
        assert out[name].tobytes() == arr.tobytes()


def test_round_trip_preserves_nan_bits(tmp_path):
    weird = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300])
    out = _round_trip(tmp_path, {"weird": weird})
    assert out["weird"].tobytes() == weird.tobytes()


def test_read_arrays_are_writable_and_own_their_memory(tmp_path):
    out = _round_trip(tmp_path, {"f64": np.arange(6.0).reshape(2, 3),
                                 "u16": np.arange(5, dtype=np.uint16),
                                 "empty": np.zeros((0, 3), dtype=np.uint8),
                                 "f32": np.ones((2, 2), dtype=np.float32)})
    arrays = list(out.values())
    for name, arr in out.items():
        assert arr.flags.writeable and arr.base is None, name
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_empty_bundle(tmp_path):
    path = tmp_path / "empty.tsb"
    write_bundle(path, {})
    assert read_bundle(path) == {}
    raw = path.read_bytes()
    assert raw[:4] == MAGIC


def test_rejects_bad_names_and_dtypes(tmp_path):
    path = tmp_path / "t.tsb"
    with pytest.raises(BundleManifestError):
        write_bundle(path, {"snowman ☃": np.zeros(1, dtype=np.uint8)})
    with pytest.raises(BundleDtypeError):
        write_bundle(path, {"ints": np.zeros(3, dtype=np.int64)})


def test_bad_magic(tmp_path):
    path = tmp_path / "t.tsb"
    write_bundle(path, {"a": np.zeros(2, dtype=np.uint8)})
    raw = path.read_bytes()
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(BundleManifestError):
        read_bundle(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.tsb"
    write_bundle(path, {"a": np.arange(100, dtype=np.uint16)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(BundleTruncatedError):
        read_bundle(path)


def test_truncated_manifest(tmp_path):
    path = tmp_path / "t.tsb"
    write_bundle(path, {"a": np.arange(4, dtype=np.uint8)})
    raw = path.read_bytes()
    path.write_bytes(raw[:8])
    with pytest.raises(BundleTruncatedError):
        read_bundle(path)


def test_unknown_dtype_tag(tmp_path):
    manifest = json.dumps({"a": {"dtype": "c128", "shape": [1], "offset": 0,
                                 "length": 16}}).encode()
    path = tmp_path / "t.tsb"
    path.write_bytes(MAGIC + struct.pack("<Q", len(manifest)) + manifest + b"\0" * 16)
    with pytest.raises(BundleDtypeError):
        read_bundle(path)


def test_overlapping_offsets_rejected(tmp_path):
    manifest = json.dumps({
        "a": {"dtype": "u8", "shape": [4], "offset": 0, "length": 4},
        "b": {"dtype": "u8", "shape": [4], "offset": 2, "length": 4},
    }).encode()
    path = tmp_path / "t.tsb"
    path.write_bytes(MAGIC + struct.pack("<Q", len(manifest)) + manifest + b"\0" * 8)
    with pytest.raises(BundleManifestError):
        read_bundle(path)


def test_length_shape_mismatch_rejected(tmp_path):
    manifest = json.dumps({"a": {"dtype": "u8", "shape": [4], "offset": 0,
                                 "length": 5}}).encode()
    path = tmp_path / "t.tsb"
    path.write_bytes(MAGIC + struct.pack("<Q", len(manifest)) + manifest + b"\0" * 5)
    with pytest.raises(BundleManifestError):
        read_bundle(path)


def test_fuzzed_files_raise_structured_errors(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "t.tsb"
    write_bundle(path, {"a": np.arange(64, dtype=np.uint16),
                        "b": rng.normal(size=(4, 4)).astype(np.float32)})
    pristine = bytearray(path.read_bytes())
    mutated = tmp_path / "m.tsb"
    for _ in range(300):
        raw = bytearray(pristine)
        for _ in range(int(rng.integers(1, 8))):
            pos = int(rng.integers(0, len(raw)))
            raw[pos] = int(rng.integers(0, 256))
        if rng.random() < 0.3:
            raw = raw[:int(rng.integers(0, len(raw)))]
        mutated.write_bytes(bytes(raw))
        try:
            read_bundle(mutated)
        except BundleError:
            pass  # structured failure is the contract


def _bundle_with_entry(tmp_path, entry, payload=b""):
    manifest = json.dumps({"a": {"dtype": "u8", **entry}}).encode()
    path = tmp_path / "t.tsb"
    path.write_bytes(MAGIC + struct.pack("<Q", len(manifest)) + manifest + payload)
    return path


def test_shape_overflowing_int64_is_a_manifest_error(tmp_path):
    path = _bundle_with_entry(tmp_path, {"shape": [2 ** 40, 2 ** 40], "offset": 0,
                                         "length": 0})
    with pytest.raises(BundleManifestError):
        read_bundle(path)


@pytest.mark.parametrize("shape", [[0] * 65, [0, 2 ** 62, 2 ** 62]])
def test_an_empty_tensor_numpy_cannot_shape_is_a_manifest_error(tmp_path, shape):
    # 65 dimensions, or a zero size whose byte size overflows, with a length of 0.
    path = _bundle_with_entry(tmp_path, {"shape": shape, "offset": 0, "length": 0})
    with pytest.raises(BundleManifestError, match="tensor 'a' has an unsupported shape"):
        read_bundle(path)


def test_boolean_in_shape_is_a_manifest_error(tmp_path):
    path = _bundle_with_entry(tmp_path, {"shape": [True, 4], "offset": 0, "length": 4},
                              b"\0" * 4)
    with pytest.raises(BundleManifestError):
        read_bundle(path)


@pytest.mark.parametrize("key", ["offset", "length"])
def test_boolean_offset_or_length_is_a_manifest_error(tmp_path, key):
    entry = {"shape": [1], "offset": 0, "length": 1}
    entry[key] = True
    path = _bundle_with_entry(tmp_path, entry, b"\0" * 2)
    with pytest.raises(BundleManifestError):
        read_bundle(path)
