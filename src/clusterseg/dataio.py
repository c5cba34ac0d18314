"""Bit-exact tensor bundles (.tsb).

File layout:

    bytes 0..3    magic "TSB1"
    bytes 4..11   u64 little-endian manifest length
    manifest      UTF-8 JSON: name -> {dtype, shape, offset, length,
                  layout: "row-major", endianness: "little"}
    payload       raw little-endian array bytes, row-major

Offsets are relative to the payload start and must not overlap. Supported
dtypes: f32, f64, u8, u16. Round trips are bit-exact for every dtype,
including NaN payloads.
"""

import json
import math
import struct

import numpy as np

from .errors import (BundleDtypeError, BundleManifestError, BundleTruncatedError,
                     ShapeMismatchError)

MAGIC = b"TSB1"

_TAG_TO_DTYPE = {"f32": "<f4", "f64": "<f8", "u8": "|u1", "u16": "<u2"}
_KIND_TO_TAG = {("f", 4): "f32", ("f", 8): "f64", ("u", 1): "u8", ("u", 2): "u16"}


def write_bundle(path, tensors) -> None:
    """Write a mapping of names (non-empty ASCII strings) to arrays to a .tsb file."""
    manifest = {}
    chunks = []
    offset = 0
    for name, array in tensors.items():
        if not isinstance(name, str) or not name.isascii() or not name:
            raise BundleManifestError(f"tensor names must be non-empty ASCII, got {name!r}")
        array = np.asarray(array)
        tag = _KIND_TO_TAG.get((array.dtype.kind, array.dtype.itemsize))
        if tag is None:
            raise BundleDtypeError(f"unsupported dtype {array.dtype} for tensor {name!r}")
        raw = np.ascontiguousarray(array).astype(_TAG_TO_DTYPE[tag], copy=False).tobytes()
        manifest[name] = {"dtype": tag, "shape": list(array.shape),
                          "offset": offset, "length": len(raw),
                          "layout": "row-major", "endianness": "little"}
        chunks.append(raw)
        offset += len(raw)
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for chunk in chunks:
            fh.write(chunk)


def read_bundle(path) -> dict:
    """Read a .tsb file back into {name: array}, bit-exactly."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != MAGIC:
        raise BundleManifestError(f"{path}: missing TSB1 magic")
    if len(data) < 12:
        raise BundleTruncatedError(f"{path}: manifest length field is truncated")
    (mlen,) = struct.unpack("<Q", data[4:12])
    if len(data) < 12 + mlen:
        raise BundleTruncatedError(f"{path}: manifest is truncated")
    try:
        manifest = json.loads(data[12:12 + mlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, JSONDecodeError
        raise BundleManifestError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise BundleManifestError(f"{path}: manifest must be a JSON object")
    payload = memoryview(data)[12 + mlen:]

    spans = []
    out = {}
    for name, entry in manifest.items():
        entry = _validated_entry(path, name, entry)
        dtype = np.dtype(_TAG_TO_DTYPE[entry["dtype"]])
        expected = math.prod(entry["shape"]) * dtype.itemsize
        if expected != entry["length"]:
            raise BundleManifestError(
                f"{path}: tensor {name!r} length {entry['length']} does not match "
                f"shape {entry['shape']} ({expected} bytes)")
        start, stop = entry["offset"], entry["offset"] + entry["length"]
        if stop > len(payload):
            raise BundleTruncatedError(
                f"{path}: tensor {name!r} extends past the end of the payload")
        spans.append((start, stop, name))
        array = np.frombuffer(payload[start:stop], dtype=dtype)
        try:
            # an empty tensor can still name more dimensions, or larger
            # ones, than numpy supports
            array = array.reshape(entry["shape"])
        except ValueError as exc:
            raise BundleManifestError(
                f"{path}: tensor {name!r} has an unsupported shape: {exc}") from exc
        out[name] = array.copy()
    spans.sort()
    for (_, stop_a, name_a), (start_b, _, name_b) in zip(spans, spans[1:]):
        if start_b < stop_a:
            raise BundleManifestError(
                f"{path}: tensors {name_a!r} and {name_b!r} overlap in the payload")
    return out


def check_layout(path, tensors, layout) -> None:
    """Require exactly the tensors `layout` names, each in its (dtype, shape).

    A size given as a name (a string) is free, but the same wherever it appears.
    """
    if tensors.keys() != layout.keys():
        raise BundleManifestError(f"{path}: expected tensors {sorted(layout)}, "
                                  f"got {sorted(tensors)}")
    sizes = {}
    for name, (dtype, shape) in layout.items():
        if tensors[name].dtype != dtype:
            raise BundleDtypeError(f"{path}: {name} must be {np.dtype(dtype)}, "
                                   f"got {tensors[name].dtype}")
        got = tensors[name].shape
        if len(got) == len(shape):
            shape = tuple(sizes.setdefault(size, n) if isinstance(size, str) else size
                          for size, n in zip(shape, got))
        if got != shape:
            raise ShapeMismatchError(f"{path}: {name} has shape {got}, expected {shape}")


def _validated_entry(path, name, entry):
    if not isinstance(entry, dict):
        raise BundleManifestError(f"{path}: entry for {name!r} must be an object")
    for key in ("dtype", "shape", "offset", "length"):
        if key not in entry:
            raise BundleManifestError(f"{path}: entry for {name!r} is missing {key!r}")
    if not isinstance(entry["dtype"], str) or entry["dtype"] not in _TAG_TO_DTYPE:
        raise BundleDtypeError(f"{path}: tensor {name!r} has unsupported dtype "
                               f"{entry['dtype']!r}")
    # type() rather than isinstance(): JSON true and false parse as bool, an int
    shape = entry["shape"]
    if (not isinstance(shape, list)
            or any(type(s) is not int or s < 0 for s in shape)):
        raise BundleManifestError(f"{path}: tensor {name!r} has a malformed shape")
    for key in ("offset", "length"):
        if type(entry[key]) is not int or entry[key] < 0:
            raise BundleManifestError(f"{path}: tensor {name!r} has a malformed {key}")
    if entry.get("layout", "row-major") != "row-major":
        raise BundleManifestError(f"{path}: tensor {name!r} has unsupported layout "
                                  f"{entry['layout']!r}")
    if entry.get("endianness", "little") != "little":
        raise BundleManifestError(f"{path}: tensor {name!r} has unsupported endianness "
                                  f"{entry['endianness']!r}")
    return entry
