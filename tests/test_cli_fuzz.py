"""Flag values drawn from the whole argument surface never crash the CLI.

Each example runs one command on a 16x16 one-frame dataset with the flag
under test, and up to two more of the command's numeric flags, set to a
valid value, 0, a negative, NaN, an infinity, a huge number or text that is
not a number. The command must exit
0, 1 or 2 (gradcheck may also exit 3, a failed check), no exception may
escape `main`, and a run that exits 0 must write only finite numbers.
"""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from clusterseg.cli import main
from clusterseg.dataio import read_bundle
from clusterseg.predictor import load_checkpoint

HUGE_INT = str(2 ** 63)
EDGE = ["0", "-1", "-0.5", "2.5", "nan", "inf", "-inf", "1e308", HUGE_INT, "abc", ""]
# A huge number of frames, pixels, epochs or gradient samples is a valid
# request for a huge run, so these flags draw no huge integer.
WORK = {"--count", "--res", "--epochs", "--samples"}
# The valid values each command's numeric flags draw besides EDGE.
FLAGS = {
    "gen": {"--count": ["1", "2"], "--res": ["16x16", "12x20"], "--objects": ["1..2", "2..2"],
            "--sizes": ["0.1..0.2"], "--z-range": ["1.0..1.5"], "--fraction": ["0.1", "0.3"],
            "--min-sep": ["0.05"], "--single-object-radius": ["2"],
            "--background-depth": ["3", "none"], "--seed": ["3"], "--jobs": ["2"]},
    "infer": {"--fg-threshold": ["0.3"], "--sigma-xi": ["0.01"], "--sigma-b": ["0.05"],
              "--sigma-eta": ["0.1"], "--flip-rate": ["0.1"], "--ball-radius": ["0.01"],
              "--ball-minb-frac": ["0.3"], "--sweep": ["0.0,0.05"], "--seed": ["3"],
              "--jobs": ["2"]},
    "eval": {"--seed": ["3"], "--jobs": ["2"]},
    "gradcheck": {"--samples": ["5"], "--epsilon": ["1e-4", "none"], "--lambda-vio": ["0", "2"],
                  "--seed": ["3"]},
    "train": {"--epochs": ["1", "2"], "--batch": ["1", "2"], "--lr": ["1e-3"],
              "--bump-epoch": ["0", "1"], "--bump-value": ["10"], "--fg-threshold": ["0.5"],
              "--seed": ["3"], "--jobs": ["2"]},
}
SEPARATORS = {"--res": "x", "--objects": "..", "--sizes": "..", "--z-range": ".."}
FUZZ = settings(max_examples=10, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("flags")
    ds, segs = root / "ds", root / "segs"
    assert main(["gen", "--count", "1", "--res", "16x16", "--objects", "1..2", "--seed", "1",
                 "--out", str(ds)]) == 0
    assert main(["infer", "--dataset", str(ds), "--out", str(segs)]) == 0
    return str(ds), str(segs), str(root)


def values(command, flag):
    """Text for flag: a whole value, or for a pair flag also two drawn halves."""
    valid = FLAGS[command][flag]
    edge = [v for v in EDGE if not (flag in WORK and v == HUGE_INT)]
    whole = st.sampled_from(valid + edge)
    sep = SEPARATORS.get(flag)
    if sep is None:
        return whole
    side = st.sampled_from(sorted({s for v in valid for s in v.split(sep)}) + edge)
    return st.one_of(whole, st.builds(lambda a, b: a + sep + b, side, side))


def base_argv(command, ds, segs, out, mode):
    return {
        "gen": ["gen", "--out", out, "--count=1", "--res=16x16", "--objects=1..2"],
        "infer": ["infer", "--dataset", ds, "--out", out, "--predictor=noisy",
                  f"--noise-mode={mode}"],
        "eval": ["eval", "--dataset", ds, "--segs", segs, "--report", os.path.join(out, "r.json")],
        "gradcheck": ["gradcheck", "--samples=5"],
        "train": ["train", "--dataset", ds, "--out", os.path.join(out, "model.ckpt"),
                  "--epochs=1", "--batch=1"],
    }[command]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def non_finite_outputs(out):
    """Names of files under out that hold a NaN or an infinity."""
    bad = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            if name.endswith(".json"):
                try:
                    json.loads(open(path, encoding="utf-8").read(), parse_constant=_reject_constant)
                except ValueError:
                    bad.append(name)
            elif name.endswith(".csv"):
                rows = open(path, encoding="utf-8").read().split()[1:]
                if not all(math.isfinite(float(x)) for row in rows for x in row.split(",")):
                    bad.append(name)
            elif name.endswith(".tsb"):
                if not all(np.isfinite(a).all() for a in read_bundle(path).values()
                           if a.dtype.kind == "f"):
                    bad.append(name)
            else:
                model, state, _ = load_checkpoint(path)
                arrays = [model.vector, state.m, state.v]
                if not all(np.isfinite(a).all() for a in arrays):
                    bad.append(name)
    return bad


@pytest.mark.parametrize("command, flag", [(c, f) for c in FLAGS for f in FLAGS[c]],
                         ids=[f"{c} {f}" for c in FLAGS for f in FLAGS[c]])
@FUZZ
@seed(0)
@given(data=st.data())
def test_any_flag_value_exits_cleanly(inputs, command, flag, data):
    others = data.draw(st.lists(st.sampled_from(sorted(set(FLAGS[command]) - {flag})),
                                max_size=2, unique=True))
    drawn = [f"{f}={data.draw(values(command, f), label=f)}" for f in [flag, *others]]
    mode = data.draw(st.sampled_from(["gaussian", "uniform-ball"]))
    ds, segs, root = inputs
    out = tempfile.mkdtemp(dir=root)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(base_argv(command, ds, segs, out, mode) + drawn)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in ({0, 1, 2, 3} if command == "gradcheck" else {0, 1, 2}), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert non_finite_outputs(out) == []
    finally:
        shutil.rmtree(out)
