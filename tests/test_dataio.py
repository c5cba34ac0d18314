import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clusterseg.dataio import MAGIC, read_bundle, write_bundle
from clusterseg.errors import (BundleDtypeError, BundleError, BundleManifestError,
                               BundleTruncatedError)


def _round_trip(tmp_path, tensors):
    path = tmp_path / "t.tsb"
    write_bundle(path, tensors)
    return read_bundle(path)


def _manifest(raw):
    """The manifest of the bundle bytes `raw`, parsed, and the payload after it."""
    (mlen,) = struct.unpack("<Q", raw[4:12])
    return json.loads(raw[12:12 + mlen]), raw[12 + mlen:]


def _bundle(tmp_path, manifest, payload=b""):
    """A .tsb file of the manifest text (or object) `manifest` and the bytes `payload`."""
    blob = (manifest if isinstance(manifest, str) else json.dumps(manifest)).encode()
    path = tmp_path / "t.tsb"
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)
    return path


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


# Names in any order (not sorted, not ASCII-ordered), tensors of every stored
# dtype and of any shape, 0-d and empty ones included.
TENSORS = st.dictionaries(
    st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=8),
    st.sampled_from(["<f4", "<f8", "u1", "<u2"]).flatmap(lambda dtype: hnp.arrays(
        dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))),
    max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tensors=TENSORS)
def test_a_bundle_round_trips_in_written_order_and_one_byte_more_or_less_is_an_error(
        tmp_path_factory, tensors):
    path = tmp_path_factory.mktemp("bundle") / "t.tsb"
    write_bundle(path, tensors)
    out = read_bundle(path)
    assert list(out) == list(tensors)
    for name, arr in tensors.items():
        assert out[name].dtype == arr.dtype and out[name].shape == arr.shape
        assert out[name].tobytes() == arr.tobytes()
    raw = path.read_bytes()
    manifest, payload = _manifest(raw)
    # Each entry holds dtype and shape only; the tensors follow one another.
    assert list(manifest) == list(tensors)
    assert all(list(entry) == ["dtype", "shape"] for entry in manifest.values())
    assert payload == b"".join(arr.tobytes() for arr in tensors.values())
    for damaged, error in ((raw[:-1], BundleTruncatedError), (raw + b"\0", BundleManifestError)):
        path.write_bytes(damaged)
        with pytest.raises(error, match="t.tsb"):
            read_bundle(path)


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
    assert raw == MAGIC + struct.pack("<Q", 2) + b"{}"


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
    path = _bundle(tmp_path, {"a": {"dtype": "c128", "shape": [1]}}, b"\0" * 16)
    with pytest.raises(BundleDtypeError):
        read_bundle(path)


def test_overlapping_offsets_rejected(tmp_path):
    # A manifest cannot place tensors: one that gives offsets is rejected,
    # and without them the two tensors lie one after the other.
    path = _bundle(tmp_path, {"a": {"dtype": "u8", "shape": [4], "offset": 0},
                              "b": {"dtype": "u8", "shape": [4], "offset": 2}}, bytes(range(8)))
    with pytest.raises(BundleManifestError, match="entry for 'a'"):
        read_bundle(path)
    path = _bundle(tmp_path, {"a": {"dtype": "u8", "shape": [4]},
                              "b": {"dtype": "u8", "shape": [4]}}, bytes(range(8)))
    out = read_bundle(path)
    assert out["a"].tolist() == [0, 1, 2, 3] and out["b"].tolist() == [4, 5, 6, 7]


def test_length_shape_mismatch_rejected(tmp_path):
    # The payload must be exactly as long as the shapes say: 4 bytes here.
    with pytest.raises(BundleManifestError,
                       match="t.tsb: the payload is 5 bytes, but its tensors take 4"):
        read_bundle(_bundle(tmp_path, {"a": {"dtype": "u8", "shape": [4]}}, b"\0" * 5))
    with pytest.raises(BundleTruncatedError, match="t.tsb: tensor 'a' extends past the end"):
        read_bundle(_bundle(tmp_path, {"a": {"dtype": "u8", "shape": [4]}}, b"\0" * 3))


@pytest.mark.parametrize("text", [
    '{"a": {"dtype": "u8", "shape": [1]}, "a": {"dtype": "u8", "shape": [1]}}',
    '{"a": {"dtype": "u8", "shape": [1], "shape": [1]}}',
], ids=["tensor", "entry-key"])
def test_a_name_given_twice_is_a_manifest_error(tmp_path, text):
    with pytest.raises(BundleManifestError, match="t.tsb: manifest names '(a|shape)' twice"):
        read_bundle(_bundle(tmp_path, text, b"\0\0"))


@pytest.mark.parametrize("entry", [
    {"dtype": "u8", "shape": [1], "layout": "row-major"},
    {"dtype": "u8", "shape": [1], "endianness": "little"},
    {"dtype": "u8", "shape": [1], "note": None},
    {"dtype": "u8"},
    {"shape": [1]},
    [1],
], ids=["layout", "endianness", "other-key", "no-shape", "no-dtype", "not-an-object"])
def test_an_entry_of_other_keys_than_dtype_and_shape_is_a_manifest_error(tmp_path, entry):
    with pytest.raises(BundleManifestError, match="t.tsb: entry for 'a' must be an object"):
        read_bundle(_bundle(tmp_path, {"a": entry}, b"\0"))


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
    return _bundle(tmp_path, {"a": {"dtype": "u8", **entry}}, payload)


def test_shape_overflowing_int64_is_a_manifest_error(tmp_path):
    path = _bundle_with_entry(tmp_path, {"shape": [2 ** 40, 2 ** 40]})
    with pytest.raises(BundleManifestError):
        read_bundle(path)


@pytest.mark.parametrize("shape", [[0] * 65, [0, 2 ** 62, 2 ** 62]])
def test_an_empty_tensor_numpy_cannot_shape_is_a_manifest_error(tmp_path, shape):
    # 65 dimensions, or a zero size whose byte size overflows.
    path = _bundle_with_entry(tmp_path, {"shape": shape})
    with pytest.raises(BundleManifestError, match="tensor 'a' has an unsupported shape"):
        read_bundle(path)


def test_boolean_in_shape_is_a_manifest_error(tmp_path):
    path = _bundle_with_entry(tmp_path, {"shape": [True, 4]}, b"\0" * 4)
    with pytest.raises(BundleManifestError):
        read_bundle(path)


@pytest.mark.parametrize("key", ["offset", "length"])
def test_boolean_offset_or_length_is_a_manifest_error(tmp_path, key):
    # Format 2 derives offsets and lengths, so an entry may not state one,
    # whatever its value.
    for value in (True, 0, 1):
        path = _bundle_with_entry(tmp_path, {"shape": [1], key: value}, b"\0")
        with pytest.raises(BundleManifestError, match="entry for 'a' must be an object"):
            read_bundle(path)
