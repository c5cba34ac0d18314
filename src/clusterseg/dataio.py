"""Bit-exact tensor bundles (.tsb), format 2.

File layout:

    bytes 0..3    magic "TSB2"
    bytes 4..11   u64 little-endian manifest length
    manifest      UTF-8 JSON object: name -> {"dtype", "shape"}
    payload       each tensor's little-endian, row-major bytes, in the
                  manifest's order, back to back

A tensor starts where the one before it ends: its offset in the payload is
the running sum of prod(shape) * itemsize over the entries before it, and
the payload ends with the last tensor. So a bundle has one valid layout,
and a manifest entry with any other key, a name given twice, a payload
that ends early and a byte after the last tensor are each an error naming
the file. Supported dtypes: f32, f64, u8, u16. Round trips are bit-exact
for every dtype, including NaN payloads.
"""

import json
import math
import struct
import sys

import numpy as np

from .errors import (BundleDtypeError, BundleManifestError, BundleTruncatedError,
                     ShapeMismatchError)

MAGIC = b"TSB2"

_TAG_TO_DTYPE = {"f32": "<f4", "f64": "<f8", "u8": "|u1", "u16": "<u2"}
_KIND_TO_TAG = {("f", 4): "f32", ("f", 8): "f64", ("u", 1): "u8", ("u", 2): "u16"}


def write_bundle(path, tensors) -> None:
    """Write a mapping of names (non-empty ASCII strings) to arrays to a .tsb, in its order."""
    manifest = {}
    chunks = []
    for name, array in tensors.items():
        if not isinstance(name, str) or not name.isascii() or not name:
            raise BundleManifestError(f"tensor names must be non-empty ASCII, got {name!r}")
        array = np.asarray(array)
        tag = _KIND_TO_TAG.get((array.dtype.kind, array.dtype.itemsize))
        if tag is None:
            raise BundleDtypeError(f"unsupported dtype {array.dtype} for tensor {name!r}")
        manifest[name] = {"dtype": tag, "shape": list(array.shape)}
        chunks.append(array.astype(_TAG_TO_DTYPE[tag], copy=False).tobytes())
    blob = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.writelines(chunks)


def read_bundle(path) -> dict:
    """Read a .tsb file back into {name: array}, bit-exactly, in the manifest's order."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise BundleManifestError(f"{path}: missing TSB2 magic")
    if len(data) < 12:
        raise BundleTruncatedError(f"{path}: manifest length field is truncated")
    (mlen,) = struct.unpack("<Q", data[4:12])
    if len(data) < 12 + mlen:
        raise BundleTruncatedError(f"{path}: manifest is truncated")

    def unique(pairs):
        entries = {}
        for name, value in pairs:
            if name in entries:
                raise BundleManifestError(f"{path}: manifest names {name!r} twice")
            entries[name] = value
        return entries

    try:
        manifest = json.loads(data[12:12 + mlen].decode("utf-8"), object_pairs_hook=unique)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, JSONDecodeError
        raise BundleManifestError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise BundleManifestError(f"{path}: manifest must be a JSON object")
    payload = memoryview(data)[12 + mlen:]
    out, start = {}, 0
    for name, entry in manifest.items():
        shape, dtype = _validated_entry(path, name, entry)
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > sys.maxsize:
            raise BundleManifestError(f"{path}: tensor {name!r} has a shape of more bytes "
                                      f"than numpy can address")
        if start + nbytes > len(payload):
            raise BundleTruncatedError(
                f"{path}: tensor {name!r} extends past the end of the payload")
        try:
            # an empty tensor can still name more dimensions, or larger
            # ones, than numpy supports
            array = np.frombuffer(payload[start:start + nbytes], dtype=dtype).reshape(shape)
        except ValueError as exc:
            raise BundleManifestError(
                f"{path}: tensor {name!r} has an unsupported shape: {exc}") from exc
        out[name] = array.copy()
        start += nbytes
    if start != len(payload):
        raise BundleManifestError(f"{path}: the payload is {len(payload)} bytes, but its tensors "
                                  f"take {start}")
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
    """The (shape, dtype) an entry of exactly the keys dtype and shape gives."""
    if not isinstance(entry, dict) or entry.keys() != {"dtype", "shape"}:
        raise BundleManifestError(f"{path}: entry for {name!r} must be an object of exactly "
                                  f"the keys 'dtype' and 'shape'")
    tag, shape = entry["dtype"], entry["shape"]
    if not isinstance(tag, str) or tag not in _TAG_TO_DTYPE:
        raise BundleDtypeError(f"{path}: tensor {name!r} has unsupported dtype {tag!r}")
    # type() rather than isinstance(): JSON true and false parse as bool, an int
    if not isinstance(shape, list) or any(type(s) is not int or s < 0 for s in shape):
        raise BundleManifestError(f"{path}: tensor {name!r} has a malformed shape")
    return shape, np.dtype(_TAG_TO_DTYPE[tag])
