"""Mutated and truncated data files raise only ClusterSegError, and the CLI exits 2.

Each example damages a valid file. A binary file (a frame or segmentation
bundle, a checkpoint) is truncated, has bytes overwritten (half of them in
the JSON header) or, in half of the examples, has one value of its JSON
header replaced by another JSON value, with the header length fixed up so
the header still parses. A JSON file (dataset.json, a scene) has one value
replaced. Loading must either succeed or raise a ClusterSegError subclass;
the CLI commands that read the file must exit 0 or 2, and 2 whenever
loading raised.
"""

import json
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from clusterseg import dataio
from clusterseg.cli import main
from clusterseg.dataio import read_bundle
from clusterseg.dataset import decode_amodal, load_dataset
from clusterseg.errors import ClusterSegError
from clusterseg.predictor import init_model, load_checkpoint, save_checkpoint

VALUES = [True, False, None, -1, 0, 1.5, float("inf"), [], {}, "x", [2, True],
          2 ** 63 - 1, 2 ** 64, [2 ** 32] * 3]
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    ds, segs, model = root / "ds", root / "segs", root / "model.ckpt"
    assert main(["gen", "--count", "1", "--res", "20x20", "--objects", "2..3",
                 "--seed", "2", "--out", str(ds)]) == 0
    assert main(["infer", "--dataset", str(ds), "--out", str(segs),
                 "--predictor", "noisy", "--sigma-xi", "0.05"]) == 0
    save_checkpoint(model, init_model(0))
    # the frame-bundle property damages a bundle in the current dataset format
    bundle = read_bundle(ds / "frame_00000.tsb")
    assert "amodal_windows" in bundle
    masks = decode_amodal(bundle["amodal_windows"], bundle["amodal_pixels"].view(bool), 20, 20)
    assert len(bundle["depth"]) == len(bundle["instance_ids"]) == masks.any(axis=0).sum()
    return {"ds": ds, "segs": segs, "seg_name": "seg_00000.tsb", "model": model}


@st.composite
def damaged(draw, raw: bytes, magic_len: int):
    """raw truncated, byte-overwritten, or with one header JSON value replaced."""
    header_start = magic_len + 8
    (hlen,) = struct.unpack("<Q", raw[magic_len:header_start])
    header_end = header_start + hlen
    kind = draw(st.sampled_from(["value", "truncate", "bytes", "value"]))
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "bytes":
        out = bytearray(raw)
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                pos = draw(st.integers(0, header_end - 1))
            else:
                pos = draw(st.integers(0, len(raw) - 1))
            out[pos] = draw(st.integers(0, 255))
        return bytes(out)
    blob = draw(value_swapped(raw[header_start:header_end])).encode()
    return raw[:magic_len] + struct.pack("<Q", len(blob)) + blob + raw[header_end:]


@st.composite
def value_swapped(draw, text):
    """The JSON document text with one value inside it replaced by a VALUES entry."""
    doc = json.loads(text)
    parent, key = draw(st.sampled_from(list(_slots(doc))))
    parent[key] = draw(st.sampled_from(VALUES))
    return json.dumps(doc)


def _slots(node):
    """(container, key) for every value inside a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _loads_or_raises(loader, path):
    """True if loading succeeded; a ClusterSegError means False, anything else fails."""
    try:
        loader(path)
    except ClusterSegError:
        return False
    return True


@FUZZ
@seed(0)
@given(data=st.data())
def test_damaged_segmentation_bundle(files, data):
    pristine = (files["segs"] / files["seg_name"]).read_bytes()
    raw = data.draw(damaged(pristine, 4))
    with tempfile.TemporaryDirectory() as tmp:
        segs = Path(tmp) / "segs"
        shutil.copytree(files["segs"], segs)
        (segs / files["seg_name"]).write_bytes(raw)
        loaded = _loads_or_raises(read_bundle, segs / files["seg_name"])
        rc = main(["eval", "--dataset", str(files["ds"]), "--segs", str(segs)])
    assert rc in (0, 2)
    assert loaded or rc == 2


@FUZZ
@seed(0)
@given(data=st.data())
def test_damaged_checkpoint(files, data):
    raw = data.draw(damaged(files["model"].read_bytes(), len(dataio.MAGIC)))
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.ckpt"
        model.write_bytes(raw)
        loaded = _loads_or_raises(load_checkpoint, model)
        rc = main(["infer", "--dataset", str(files["ds"]), "--out", str(Path(tmp) / "out"),
                   "--predictor", "mlp", "--model", str(model)])
    assert rc in (0, 2)
    assert loaded or rc == 2


@pytest.mark.parametrize("name", ["frame_00000.tsb", "dataset.json", "scene_00000.json"])
@FUZZ
@seed(0)
@given(data=st.data())
def test_damaged_dataset_file(files, name, data):
    pristine = (files["ds"] / name).read_bytes()
    if name.endswith(".tsb"):
        raw = data.draw(damaged(pristine, 4))
    else:
        raw = data.draw(value_swapped(pristine)).encode()
    with tempfile.TemporaryDirectory() as tmp:
        ds = Path(tmp) / "ds"
        shutil.copytree(files["ds"], ds)
        (ds / name).write_bytes(raw)
        loaded = _loads_or_raises(load_dataset, str(ds))
        codes = [main(["infer", "--dataset", str(ds), "--out", str(Path(tmp) / "out")]),
                 main(["eval", "--dataset", str(ds), "--segs", str(files["segs"])])]
    assert all(rc in (0, 2) for rc in codes)
    assert loaded or codes == [2, 2]
