"""Every CLI output of a fixed battery of runs matches committed SHA-256 digests.

The battery runs in-process into a temporary directory: gen at 32², 48² and
128², with and without a backdrop, at 128² with 28 to 30 objects, and at
37x23, whose unequal odd sides show a swapped height and width; infer
with the oracle, with uniform-ball feature noise at 0.49 and 2 times each
frame's minimum ground-truth radius, with Gaussian noise plus --sweep and
--flip-rate, and with an untrained MLP, each at --jobs 1 and 2; eval of
every segmentation; a 2-epoch train, a --resume to 3 epochs and MLP infer
from that checkpoint; gradcheck; every command's --dump-config; and the
help and usage errors of PARSER_ARGV at three terminal widths. Every
written file and every command's stdout, with the output root replaced by
"<root>", is one digest. The steps that run the MLP run once more with
OpenBLAS set to one thread, to the same digests.

The digests in output_digests.json pin the bytes a change must keep. They
were made by the code before the change the file's "made_by" names, so a
refactor that claims byte-identical output is checked against the code it
replaced. gemm, solve, eigvalsh and numpy's SIMD loops may round
differently on another numpy or BLAS build, or under another CPU's
dispatch, and argparse formats help differently across Python versions; on
any other environment than the one recorded the test skips and says which
part differs.

Rewrite the file only for a change that means to change output bytes, and
name the changed files in CHANGES.md:

    PYTHONPATH=src python tests/test_output_digests.py --write COMMIT

where COMMIT names the commit whose code is on PYTHONPATH.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import pathlib
import platform
import sys
from unittest import mock

import numpy as np
import pytest

from clusterseg.cli import main
from clusterseg.predictor import init_model, save_checkpoint

from test_cli import PARSER_ARGV

DIGESTS = pathlib.Path(__file__).resolve().parent / "output_digests.json"

# name -> gen flags; each dataset is written at --jobs 2 as well, to the same bytes.
DATASETS = {
    "gen32": ["--res", "32x32", "--count", "8", "--objects", "1..1", "--seed", "5"],
    "gen32-empty": ["--res", "32x32", "--count", "3", "--background-depth", "none",
                    "--seed", "6"],
    "gen48": ["--res", "48x48", "--count", "2", "--objects", "2..5", "--seed", "7"],
    "gen48-empty": ["--res", "48x48", "--count", "2", "--objects", "3..6",
                    "--background-depth", "none", "--seed", "8"],
    "gen128": ["--res", "128x128", "--count", "2", "--objects", "4..8", "--seed", "9"],
    "gen128-empty": ["--res", "128x128", "--count", "1", "--objects", "4..8",
                     "--background-depth", "none", "--seed", "10"],
    "gen128-crowded": ["--res", "128x128", "--count", "2", "--objects", "28..30",
                       "--sizes", "0.03..0.08", "--seed", "14"],
    "gen37x23": ["--res", "37x23", "--count", "2", "--objects", "3..5", "--seed", "15"],
}
BALL = ["--predictor", "noisy", "--noise-mode", "uniform-ball", "--ball-minb-frac"]
# name -> (infer flags, the datasets it runs on)
PREDICTORS = {
    "oracle": ([], list(DATASETS)),
    "ball049": ([*BALL, "0.49", "--seed", "11"], ["gen48", "gen48-empty", "gen128",
                                                  "gen128-empty", "gen128-crowded"]),
    "ball2": ([*BALL, "2", "--seed", "12"], ["gen48", "gen128"]),
    "gauss": (["--predictor", "noisy", "--sigma-xi", "0.05", "--sigma-b", "0.02",
               "--sigma-eta", "0.1", "--flip-rate", "0.02", "--sweep", "0,0.05,0.2",
               "--seed", "13"], ["gen48", "gen32-empty"]),
    "untrained": (["--predictor", "mlp", "--model", "{root}/untrained.ckpt"],
                  ["gen48", "gen32-empty"]),
    "trained": (["--predictor", "mlp", "--model", "{root}/model3.ckpt"], ["gen32"]),
}
COLUMNS = ("40", "80", "200")


def mlp_steps():
    """Names of the battery steps that run the MLP, and of the gen steps whose data they read."""
    names = {"gen32-j1", "train2", "train3"}
    for predictor in ("untrained", "trained"):
        for data in PREDICTORS[predictor][1]:
            names |= {f"{data}-j1", f"{predictor}-{data}-j1", f"{predictor}-{data}-j2"}
    return names


def battery_steps():
    """(step name, argv) of every command the battery runs, in order; {root} is the output root."""
    steps = []
    for name, flags in DATASETS.items():
        for jobs in ("1", "2"):
            steps.append((f"{name}-j{jobs}", ["gen", *flags, "--jobs", jobs,
                                              "--out", f"{{root}}/{name}-j{jobs}"]))
    steps += [
        ("train2", ["train", "--dataset", "{root}/gen32-j1", "--out", "{root}/model2.ckpt",
                    "--epochs", "2", "--batch", "3", "--seed", "3"]),
        ("train3", ["train", "--dataset", "{root}/gen32-j1", "--out", "{root}/model3.ckpt",
                    "--resume", "{root}/model2.ckpt", "--epochs", "3", "--batch", "3",
                    "--seed", "3"]),
        ("gradcheck", ["gradcheck", "--samples", "40", "--seed", "2"]),
    ]
    for predictor, (flags, datasets) in PREDICTORS.items():
        for data in datasets:
            for jobs in ("1", "2"):
                out = f"{{root}}/{predictor}-{data}-j{jobs}"
                steps.append((f"{predictor}-{data}-j{jobs}",
                              ["infer", "--dataset", f"{{root}}/{data}-j1", "--out", out,
                               *flags, "--jobs", jobs]))
                steps.append((f"eval-{predictor}-{data}-j{jobs}",
                              ["eval", "--dataset", f"{{root}}/{data}-j1", "--segs", out,
                               "--report", f"{out}/report.json"]))
    for command in ("gen", "infer", "eval", "gradcheck", "train"):
        steps.append((f"dump-{command}", [command, "--dump-config", "--jobs", "1"]))
    return steps


def _run(argv):
    """main(argv)'s exit code, stdout and stderr, argparse's SystemExit folded in."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_battery(root, only=None):
    """{output name: sha256} of every file the battery writes under root and of each stdout.

    Given a set of step names, `only` those steps run, and no parser text.
    """
    root = str(root)
    save_checkpoint(os.path.join(root, "untrained.ckpt"), init_model(0))
    digests = {}
    for name, argv in battery_steps():
        if only is not None and name not in only:
            continue
        code, out, err = _run([arg.replace("{root}", root) for arg in argv])
        assert code == 0, f"{name} exited {code}: {err}"
        digests[f"stdout/{name}"] = _sha(out.replace(root, "<root>").encode())
    for columns in COLUMNS if only is None else ():
        with mock.patch.dict(os.environ, {"COLUMNS": columns}):
            for argv in PARSER_ARGV:
                code, out, err = _run(list(argv))
                key = f"parser/{columns}/{' '.join(argv) or 'no-arguments'}"
                digests[key] = _sha(f"{code}\n{out}\0{err}".encode())
    for directory, _, files in os.walk(root):
        for file in files:
            path = os.path.join(directory, file)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, root)] = _sha(fh.read())
    return dict(sorted(digests.items()))


def environment():
    """What the recorded bits depend on besides the code.

    That is numpy, BLAS, LAPACK, the OpenBLAS core that DYNAMIC_ARCH picked
    for this CPU, SIMD and Python.
    """
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its build
        config = {}
    deps = config.get("Build Dependencies", {})
    return {"numpy": np.__version__,
            **{lib: " ".join(str(deps.get(lib, {}).get(key)) for key in
                             ("name", "version", "openblas configuration"))
               for lib in ("blas", "lapack")},
            "openblas_core": _openblas_core(),
            "simd": sorted(config.get("SIMD Extensions", {}).get("found", [])),
            "machine": platform.machine(),
            "python": ".".join(platform.python_version_tuple()[:2])}


def _recorded_digests():
    """The recorded digests; skips when they were recorded in another environment."""
    recorded, here = json.loads(DIGESTS.read_text(encoding="utf-8")), environment()
    differs = [f"{key}: recorded {value!r}, here {here[key]!r}"
               for key, value in recorded["environment"].items() if here[key] != value]
    if differs:
        pytest.skip("the digests were recorded on another build, where rounding may differ: "
                    + "; ".join(differs))
    return recorded["digests"]


def _openblas_libs():
    """numpy's bundled OpenBLAS libraries, found as perfbench/measure.py finds its getter."""
    return [ctypes.CDLL(path) for path in glob.glob(
        os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))]


def _openblas_threads():
    """(getter, setter) of numpy's OpenBLAS thread count, or None where none is found."""
    for lib in _openblas_libs():
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            if hasattr(lib, name.format("get")) and hasattr(lib, name.format("set")):
                getter, setter = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                getter.restype, getter.argtypes = ctypes.c_int, []
                setter.restype, setter.argtypes = None, [ctypes.c_int]
                return getter, setter
    return None


def _openblas_core():
    """The name of the core numpy's OpenBLAS runs on, or None where no getter is found."""
    for lib in _openblas_libs():
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype, getter.argtypes = ctypes.c_char_p, []
                return getter().decode()
    return None


def test_every_output_byte_matches_the_recorded_digests(tmp_path):
    want = _recorded_digests()
    got = run_battery(tmp_path)
    changed = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (changed or missing or extra), (
        f"changed: {changed}; not written: {missing}; not recorded: {extra}")


def test_mlp_outputs_match_the_digests_with_one_blas_thread(tmp_path):
    # gemm may split its work by thread count; the MLP's forward and
    # backward passes must not depend on it.
    want = _recorded_digests()
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS thread-count setter found next to numpy, so the count "
                    "cannot be set")
    getter, setter = threads
    before = getter()
    setter(1)
    try:
        got = run_battery(tmp_path, mlp_steps())
    finally:
        setter(before)
    missed = sorted(name for name in mlp_steps() if f"stdout/{name}" not in got)
    assert not missed, f"steps named by mlp_steps() that the battery does not run: {missed}"
    changed = sorted(name for name in got if want.get(name) != got[name])
    assert not changed, f"changed under one OpenBLAS thread (default {before}): {changed}"


if __name__ == "__main__":
    import tempfile

    if len(sys.argv) != 3 or sys.argv[1] != "--write":
        sys.exit(f"usage: {sys.argv[0]} --write COMMIT")
    with tempfile.TemporaryDirectory() as scratch:
        digests = run_battery(scratch)
    DIGESTS.write_text(json.dumps({"made_by": sys.argv[2],
                                   "environment": environment(), "digests": digests},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
