import csv
import json
import math
import os
import re
import shutil
import threading
import warnings
import weakref

import numpy as np
import pytest

from clusterseg import annotation, cli, dataio, dataset
from clusterseg.cli import main
from clusterseg.clustering import Segmentation
from clusterseg.dataset import (decode_amodal, load_frame, load_segmentations,
                                read_dataset_manifest, write_segmentations)
from clusterseg.dataio import read_bundle, write_bundle
from clusterseg.errors import (BundleDtypeError, BundleManifestError, ClusterSegError,
                               MaskContainmentError, NonFiniteError, ShapeMismatchError,
                               ValueRangeError)
from clusterseg.predictor import (PARAMETER_COUNT, AdamState, MlpModel, adam_step, init_model,
                                  load_checkpoint, save_checkpoint)


def run_cli(*argv):
    """main() with argparse SystemExit folded into the return code."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code)


def _dir_bytes(path):
    out = {}
    for root, _, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            out[os.path.relpath(full, path)] = open(full, "rb").read()
    return out


def _foreground(tensors, side):
    """The flat indices of a side x side bundle's foreground, the union of its amodal masks."""
    masks = decode_amodal(tensors["amodal_windows"], tensors["amodal_pixels"].view(bool), side,
                          side)
    return np.flatnonzero(masks.any(axis=0))


GEN_ARGS = ("gen", "--count", "4", "--res", "32x32", "--objects", "2..4",
            "--seed", "5")


def test_gen_writes_dataset(tmp_path):
    out = tmp_path / "ds"
    assert run_cli(*GEN_ARGS, "--out", str(out)) == 0
    manifest = json.load(open(out / "dataset.json"))
    assert len(manifest["frames"]) == 4
    for entry in manifest["frames"]:
        assert (out / entry["scene"]).exists()
        tensors = read_bundle(out / entry["bundle"])
        assert tensors["frame_size"].dtype == np.uint16
        assert tensors["frame_size"].tolist() == [32, 32]
        foreground = _foreground(tensors, 32).size
        assert tensors["rgb"].shape == (foreground, 3)
        assert tensors["depth"].shape == (foreground,)
        assert tensors["instance_ids"].shape == (foreground,)
        assert tensors["instance_ids"].dtype == np.uint16
        assert 2 <= entry["objects"] <= 4


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(*GEN_ARGS, "--out", str(a)) == 0
    assert run_cli(*GEN_ARGS, "--out", str(b)) == 0
    bytes_a = _dir_bytes(a)
    bytes_b = _dir_bytes(b)
    assert bytes_a.keys() == bytes_b.keys()
    for name in bytes_a:
        assert bytes_a[name] == bytes_b[name], name


def test_gen_fixed_object_count(tmp_path):
    out = tmp_path / "ds"
    assert run_cli("gen", "--count", "3", "--res", "24x24", "--objects", "3..3",
                   "--seed", "1", "--out", str(out)) == 0
    manifest = json.load(open(out / "dataset.json"))
    assert [e["objects"] for e in manifest["frames"]] == [3, 3, 3]


def test_infer_oracle_then_eval_is_perfect(tmp_path, capsys):
    ds = tmp_path / "ds"
    segs = tmp_path / "segs"
    report = tmp_path / "report.json"
    assert run_cli(*GEN_ARGS, "--out", str(ds)) == 0
    assert run_cli("infer", "--dataset", str(ds), "--out", str(segs),
                   "--predictor", "oracle") == 0
    assert run_cli("eval", "--dataset", str(ds), "--segs", str(segs),
                   "--report", str(report)) == 0
    metrics = json.load(open(report))["metrics"]
    assert metrics["ap"] == 1.0
    assert metrics["ap50"] == 1.0
    assert metrics["ar"] == 1.0
    table = capsys.readouterr().out
    assert "100.0" in table


def test_eval_report_rerun_is_bit_identical(tmp_path):
    ds = tmp_path / "ds"
    segs = tmp_path / "segs"
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run_cli(*GEN_ARGS, "--out", str(ds)) == 0
    assert run_cli("infer", "--dataset", str(ds), "--out", str(segs)) == 0
    assert run_cli("eval", "--dataset", str(ds), "--segs", str(segs),
                   "--report", str(r1)) == 0
    assert run_cli("eval", "--dataset", str(ds), "--segs", str(segs),
                   "--report", str(r2)) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_infer_noisy_ball_keeps_ap_perfect(tmp_path):
    ds = tmp_path / "ds"
    segs = tmp_path / "segs"
    report = tmp_path / "r.json"
    assert run_cli(*GEN_ARGS, "--out", str(ds)) == 0
    assert run_cli("infer", "--dataset", str(ds), "--out", str(segs),
                   "--predictor", "noisy", "--noise-mode", "uniform-ball",
                   "--ball-minb-frac", "0.49", "--seed", "3") == 0
    assert run_cli("eval", "--dataset", str(ds), "--segs", str(segs),
                   "--report", str(report)) == 0
    assert json.load(open(report))["metrics"]["ap"] == 1.0


def test_infer_sweep_csv(tmp_path):
    ds = tmp_path / "ds"
    segs = tmp_path / "segs"
    sweep = tmp_path / "sweep.csv"
    assert run_cli(*GEN_ARGS, "--out", str(ds)) == 0
    assert run_cli("infer", "--dataset", str(ds), "--out", str(segs),
                   "--predictor", "noisy", "--sweep", "0.0,0.05",
                   "--sweep-out", str(sweep)) == 0
    rows = list(csv.DictReader(open(sweep)))
    assert [r["sigma"] for r in rows] == ["0.0", "0.05"]
    assert float(rows[0]["ap"]) == 1.0  # zero noise stays exact
    for row in rows:
        assert 0.0 <= float(row["ap"]) <= 1.0


def test_infer_mlp_requires_model(tmp_path):
    ds = tmp_path / "ds"
    assert run_cli(*GEN_ARGS, "--out", str(ds)) == 0
    assert run_cli("infer", "--dataset", str(ds), "--out", str(tmp_path / "s"),
                   "--predictor", "mlp") == 2


def test_eval_count_mismatch(tmp_path):
    ds = tmp_path / "ds"
    other = tmp_path / "other"
    segs = tmp_path / "segs"
    assert run_cli(*GEN_ARGS, "--out", str(ds)) == 0
    assert run_cli("gen", "--count", "2", "--res", "32x32", "--seed", "5",
                   "--out", str(other)) == 0
    assert run_cli("infer", "--dataset", str(other), "--out", str(segs)) == 0
    assert run_cli("eval", "--dataset", str(ds), "--segs", str(segs)) == 2


def test_gradcheck_exit_codes(tmp_path, capsys):
    assert run_cli("gradcheck", "--samples", "300", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    assert run_cli("gradcheck", "--samples", "300", "--seed", "0",
                   "--lambda-vio", "0") == 0
    error = float(capsys.readouterr().out.split("error:")[1].split()[0])
    assert error < 1e-6

    assert run_cli("gradcheck", "--samples", "300", "--seed", "0",
                   "--corrupt-gradient") == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_gradcheck_with_nothing_to_check_fails(samples, capsys):
    assert run_cli("gradcheck", "--samples", samples, "--seed", "0") == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.splitlines() == [f"clusterseg: error: samples must be at least 1, got {samples}"]


def test_usage_and_data_error_exit_codes(tmp_path, capsys):
    assert run_cli("gen") == 1                      # missing --out
    assert run_cli("definitely-not-a-command") == 1
    assert run_cli("eval", "--dataset", str(tmp_path / "nope"),
                   "--segs", str(tmp_path / "nope")) == 2
    capsys.readouterr()


def test_dump_config_round_trip(tmp_path, capsys):
    out = tmp_path / "ds"
    args = ("gen", "--count", "2", "--res", "24x24", "--seed", "9",
            "--out", str(out))
    assert run_cli(*args, "--dump-config") == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["count"] == 2
    assert dumped["res"] == [24, 24]

    config = tmp_path / "config.json"
    config.write_text(json.dumps(dumped))
    # config alone supplies everything, including --out
    assert run_cli("gen", "--config", str(config), "--dump-config") == 0
    assert json.loads(capsys.readouterr().out) == dumped

    # explicit flags override the file
    assert run_cli("gen", "--config", str(config), "--count", "3",
                   "--dump-config") == 0
    assert json.loads(capsys.readouterr().out)["count"] == 3

    assert run_cli("gen", "--config", str(config)) == 0
    assert json.load(open(out / "dataset.json"))["seed"] == 9


def test_config_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"not_a_flag": 1}))
    assert run_cli("gen", "--config", str(config), "--out", "x") == 2
    capsys.readouterr()


TRAIN_DS = ("gen", "--count", "4", "--res", "16x16", "--objects", "1..1",
            "--sizes", "0.12..0.2", "--seed", "2")


def test_train_writes_checkpoint_and_log(tmp_path):
    ds = tmp_path / "ds"
    ckpt = tmp_path / "model.ckpt"
    assert run_cli(*TRAIN_DS, "--out", str(ds)) == 0
    assert run_cli("train", "--dataset", str(ds), "--out", str(ckpt),
                   "--epochs", "2", "--batch", "2", "--lr", "1e-3",
                   "--seed", "4") == 0
    rows = list(csv.DictReader(open(str(ckpt) + ".csv")))
    assert [r["epoch"] for r in rows] == ["0", "1", "2"]
    assert float(rows[0]["lambda_var"]) == 1.0
    for row in rows:
        assert float(row["total"]) >= 0.0
    assert ckpt.exists()


def test_train_bump_epoch_logged(tmp_path):
    ds = tmp_path / "ds"
    ckpt = tmp_path / "model.ckpt"
    assert run_cli(*TRAIN_DS, "--out", str(ds)) == 0
    assert run_cli("train", "--dataset", str(ds), "--out", str(ckpt),
                   "--epochs", "7", "--batch", "2", "--lr", "1e-3",
                   "--seed", "4") == 0
    rows = {r["epoch"]: r for r in csv.DictReader(open(str(ckpt) + ".csv"))}
    assert float(rows["5"]["lambda_var"]) == 1.0
    assert float(rows["5"]["lambda_vio"]) == 1.0
    assert float(rows["6"]["lambda_var"]) == 100.0
    assert float(rows["6"]["lambda_vio"]) == 100.0


def test_train_resume_reproduces_run(tmp_path):
    ds = tmp_path / "ds"
    assert run_cli(*TRAIN_DS, "--out", str(ds)) == 0
    full = tmp_path / "full.ckpt"
    assert run_cli("train", "--dataset", str(ds), "--out", str(full),
                   "--epochs", "2", "--batch", "2", "--lr", "1e-3",
                   "--seed", "4") == 0
    part = tmp_path / "part.ckpt"
    assert run_cli("train", "--dataset", str(ds), "--out", str(part),
                   "--epochs", "1", "--batch", "2", "--lr", "1e-3",
                   "--seed", "4") == 0
    resumed = tmp_path / "resumed.ckpt"
    assert run_cli("train", "--dataset", str(ds), "--out", str(resumed),
                   "--epochs", "2", "--batch", "2", "--lr", "1e-3",
                   "--seed", "4", "--resume", str(part)) == 0
    # the resumed run reproduces the full run's epoch-2 row and checkpoint
    full_rows = {r["epoch"]: r for r in csv.DictReader(open(str(full) + ".csv"))}
    res_rows = {r["epoch"]: r for r in csv.DictReader(open(str(resumed) + ".csv"))}
    assert res_rows["2"] == full_rows["2"]
    assert resumed.read_bytes() == full.read_bytes()


def test_train_resume_past_epochs_exits_2(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert run_cli("gen", "--count", "2", "--res", "24x24", "--seed", "1",
                   "--out", str(ds)) == 0
    ckpt = tmp_path / "three.ckpt"
    assert run_cli("train", "--dataset", str(ds), "--out", str(ckpt),
                   "--epochs", "3", "--batch", "2", "--seed", "4") == 0
    capsys.readouterr()
    assert run_cli("train", "--dataset", str(ds), "--out", str(tmp_path / "r.ckpt"),
                   "--epochs", "2", "--batch", "2", "--seed", "4",
                   "--resume", str(ckpt)) == 2
    err = capsys.readouterr().err
    assert "next_epoch" in err and "--epochs" in err
    assert not (tmp_path / "r.ckpt").exists()


def test_train_resume_at_another_lr_exits_2(two_frame_dataset, tmp_path, capsys):
    # Adam state carries its rate, so a different --lr would be ignored.
    ckpt, out = tmp_path / "one.ckpt", tmp_path / "r.ckpt"
    train = ("train", "--dataset", str(two_frame_dataset), "--batch", "2", "--seed", "4")
    assert run_cli(*train, "--out", str(ckpt), "--epochs", "1", "--lr", "1e-3") == 0
    capsys.readouterr()
    assert run_cli(*train, "--out", str(out), "--epochs", "3", "--lr", "0.5",
                   "--resume", str(ckpt)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "0.001" in err and "0.5" in err
    assert not out.exists() and not (tmp_path / "r.ckpt.csv").exists()


def test_train_resumed_from_an_untrained_checkpoint_matches_a_fresh_run(tmp_path):
    ds = tmp_path / "ds"
    assert run_cli("gen", "--count", "3", "--res", "16x16", "--objects", "1..1",
                   "--sizes", "0.12..0.2", "--seed", "2", "--out", str(ds)) == 0
    untrained = tmp_path / "untrained.ckpt"
    save_checkpoint(untrained, init_model(3))
    train = ("train", "--dataset", str(ds), "--epochs", "2", "--batch", "2", "--seed", "3")
    fresh, resumed = tmp_path / "fresh.ckpt", tmp_path / "resumed.ckpt"
    assert run_cli(*train, "--out", str(fresh)) == 0
    assert run_cli(*train, "--out", str(resumed), "--resume", str(untrained)) == 0
    assert resumed.read_bytes() == fresh.read_bytes()
    assert (open(str(resumed) + ".csv", "rb").read()
            == open(str(fresh) + ".csv", "rb").read())


def _without(name):
    return lambda t: {k: v for k, v in t.items() if k != name}


def _with_adam(index, value):
    """Set one of the stored Adam values (step, lr, beta1, beta2, eps)."""
    return lambda t: {**t, "adam": np.where(np.arange(5) == index, value, t["adam"])}


def _with_entry(name, value):
    """Set entry 7 of the stored vector `name` (params, adam_m or adam_v)."""
    return lambda t: {**t, name: np.where(np.arange(PARAMETER_COUNT) == 7, value, t[name])}


@pytest.mark.parametrize("mutate, error", [
    (_without("next_epoch"), BundleManifestError),
    (lambda t: {**t, "w1": np.zeros((10, 64))}, BundleManifestError),
    (lambda t: {**t, "params": t["params"].astype(np.float32)}, BundleDtypeError),
    (lambda t: {**t, "params": t["params"][:-1]}, ShapeMismatchError),
    (lambda t: {**t, "next_epoch": t["next_epoch"].reshape(1)}, ShapeMismatchError),
    (_without("adam_v"), BundleManifestError),
    (_without("adam"), BundleManifestError),
    (lambda t: {**t, "next_epoch": np.array(1.5)}, ValueRangeError),
    (lambda t: {**t, "next_epoch": np.array(np.nan)}, ValueRangeError),
    (lambda t: {**t, "adam": np.concatenate([[2.5], t["adam"][1:]])}, ValueRangeError),
    (lambda t: {**t, "next_epoch": np.array(-2.0)}, ValueRangeError),
    (lambda t: {**t, "next_epoch": np.array(0.0)}, ValueRangeError),
    (_with_adam(0, -7.0), ValueRangeError),
    (_with_adam(1, -1e-3), ValueRangeError),
    (_with_adam(1, 0.0), ValueRangeError),
    (_with_adam(1, np.inf), ValueRangeError),
    (_with_adam(1, np.nan), ValueRangeError),
    (_with_adam(2, 1.5), ValueRangeError),
    (_with_adam(2, -0.1), ValueRangeError),
    (_with_adam(3, 1.0), ValueRangeError),
    (_with_adam(4, 0.0), ValueRangeError),
    (_with_adam(4, np.inf), ValueRangeError),
    (_with_entry("params", np.nan), NonFiniteError),
    (_with_entry("params", -np.inf), NonFiniteError),
    (_with_entry("adam_m", np.inf), NonFiniteError),
    (_with_entry("adam_v", np.nan), NonFiniteError),
    (_with_entry("adam_v", np.inf), NonFiniteError),
    (_with_entry("adam_v", -1e-300), ValueRangeError),
], ids=["missing-tensor", "extra-tensor", "f32-params", "params-length", "1d-next-epoch",
        "no-adam-v", "no-adam", "fractional-next-epoch", "nan-next-epoch",
        "fractional-step", "next-epoch-minus-2", "next-epoch-0", "step-minus-7",
        "negative-lr", "zero-lr", "infinite-lr", "nan-lr", "beta1-1.5", "negative-beta1",
        "beta2-1", "zero-eps", "infinite-eps", "nan-params", "infinite-params",
        "infinite-adam-m", "nan-adam-v", "infinite-adam-v", "negative-adam-v"])
def test_malformed_checkpoint_is_a_typed_error(two_frame_dataset, tmp_path, capsys,
                                               monkeypatch, mutate, error):
    path = tmp_path / "model.ckpt"
    model, state = init_model(0), AdamState()
    adam_step(model, np.ones(PARAMETER_COUNT), state)
    save_checkpoint(path, model, state, next_epoch=2)
    write_bundle(path, mutate(read_bundle(path)))
    with pytest.raises(error, match="model.ckpt") as caught:
        load_checkpoint(path)
    assert caught.type is error
    # Both commands that read a checkpoint fail on it before any frame is read.
    bundles_read = []
    read = dataio.read_bundle

    def recorded(name):
        bundles_read.append(str(name))
        return read(name)

    monkeypatch.setattr(dataio, "read_bundle", recorded)
    assert run_cli("infer", "--dataset", str(two_frame_dataset), "--out",
                   str(tmp_path / "segs"), "--predictor", "mlp", "--model", str(path)) == 2
    assert run_cli("train", "--dataset", str(two_frame_dataset), "--out",
                   str(tmp_path / "resumed.ckpt"), "--epochs", "2", "--resume", str(path)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(str(path) in line for line in lines)
    assert bundles_read == [str(path)] * 2


def test_a_checkpoint_in_the_old_format_exits_2(two_frame_dataset, tmp_path, capsys):
    path = tmp_path / "old.ckpt"
    path.write_bytes(b"CSEGMLP\x01" + (2).to_bytes(8, "little") + b"{}")
    assert run_cli("infer", "--dataset", str(two_frame_dataset), "--out",
                   str(tmp_path / "segs"), "--predictor", "mlp", "--model", str(path)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "missing TSB1 magic" in err


@pytest.fixture(scope="module")
def two_frame_dataset(tmp_path_factory):
    ds = tmp_path_factory.mktemp("flags") / "ds"
    assert run_cli("gen", "--count", "2", "--res", "16x16", "--objects", "1..1",
                   "--sizes", "0.12..0.2", "--seed", "2", "--out", str(ds)) == 0
    return ds


@pytest.mark.parametrize("flag, value", [
    ("--epochs", "0"), ("--epochs", "-3"), ("--batch", "0"), ("--batch", "-2"),
    ("--lr", "-1"), ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"),
])
def test_train_rejects_a_bad_number_before_any_work(two_frame_dataset, tmp_path, capsys,
                                                     flag, value):
    ckpt = tmp_path / "model.ckpt"
    for dataset in (two_frame_dataset, tmp_path / "missing"):
        assert run_cli("train", "--dataset", str(dataset), "--out", str(ckpt),
                       "--epochs", "1", "--batch", "2", flag, value) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"clusterseg: error: {flag} must be")
    assert not ckpt.exists()


@pytest.mark.parametrize("overrides", [{"epochs": 0}, {"batch": 2.5}, {"lr": -0.5}])
def test_train_rejects_a_bad_number_from_a_config_file(two_frame_dataset, tmp_path, capsys,
                                                       overrides):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": str(two_frame_dataset),
                                  "out": str(tmp_path / "model.ckpt"), **overrides}))
    assert run_cli("train", "--config", str(config)) == 1
    (key,) = overrides
    assert capsys.readouterr().err.startswith(f"clusterseg: error: --{key} must be")
    assert not (tmp_path / "model.ckpt").exists()


BAD_VALUES = [
    ("infer", ["--fg-threshold", "nan"], 1),
    ("infer", ["--predictor", "noisy", "--noise-mode", "uniform-ball",
               "--ball-minb-frac", "nan"], 1),
    ("infer", ["--jobs", "0"], 1),
    ("gen", ["--count", "0"], 1),
    ("gen", ["--count", "-3"], 1),
    ("gen", ["--objects", "0..2"], 1),
    ("gen", ["--res", "65536x1"], 1),
    ("gen", ["--res", "1x65536"], 1),
    ("infer", ["--predictor", "noisy", "--sweep", "0.0,nan"], 2),
    ("infer", ["--predictor", "noisy", "--sigma-xi", "nan"], 2),
    ("infer", ["--predictor", "noisy", "--flip-rate", "2"], 2),
    ("train", ["--epochs", "1", "--bump-value", "nan"], 2),
    ("gradcheck", ["--samples", "20", "--lambda-vio", "nan"], 2),
    ("gen", ["--count", "1", "--res", "16x16", "--background-depth", "1e308"], 2),
]


@pytest.mark.parametrize("command, flags, code", BAD_VALUES,
                         ids=[f"{c} {f[-2]} {f[-1]}" for c, f, _ in BAD_VALUES])
def test_a_bad_value_exits_with_one_line_and_writes_nothing(two_frame_dataset, tmp_path, capsys,
                                                            command, flags, code):
    out = tmp_path / "out"
    inputs = {"gen": [], "infer": ["--dataset", str(two_frame_dataset)],
              "train": ["--dataset", str(two_frame_dataset)], "gradcheck": []}[command]
    outputs = [] if command == "gradcheck" else ["--out", str(out)]
    assert run_cli(command, *inputs, *outputs, *flags) == code
    out_text, err = capsys.readouterr()
    assert len(err.splitlines()) == 1
    # exit 1: the flag table rejected the value; exit 2: the library type it feeds
    assert err.startswith(f"clusterseg: error: {flags[-2]} must be" if code == 1
                          else "clusterseg: error: ")
    assert "PASS" not in out_text
    assert not out.exists()


def test_the_object_count_limit_is_the_largest_u16_id(capsys):
    # Instance ids 1..65535 fit u16, whose 0 is the background.
    assert run_cli("gen", "--objects", "65535..65535", "--dump-config") == 0
    assert json.loads(capsys.readouterr().out)["objects"] == [65535, 65535]
    assert run_cli("gen", "--objects", "65536..65536", "--dump-config") == 1
    assert capsys.readouterr().err == ("clusterseg: error: --objects must be two integers A..B "
                                       "with 1 <= A <= B <= 65535, got '65536..65536'\n")


@pytest.mark.parametrize("command, flag, value, parsed", [
    ("gen", "--z-range", "-1..1", [-1.0, 1.0]),
    ("gen", "--z-range", "-0.5..1", [-0.5, 1.0]),
    ("infer", "--sigma-xi", "-inf", -math.inf),
])
def test_a_value_starting_with_a_dash_parses_as_its_joined_spelling(capsys, command, flag, value,
                                                                    parsed):
    dumps = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        code = run_cli(command, *spelling, "--dump-config")
        dumps.append((code, *capsys.readouterr()))
    assert dumps[0] == dumps[1]
    code, out, err = dumps[0]
    if np.isfinite(parsed).all():
        assert code == 0
        assert json.loads(out)[flag[2:].replace("-", "_")] == parsed
    else:  # the dump refuses a value strict JSON cannot hold, and quotes it
        assert (code, out) == (1, "")
        assert err.endswith(f", got {parsed!r}\n")


def test_a_dash_value_reaches_the_library_check(two_frame_dataset, tmp_path, capsys):
    args = ["infer", "--dataset", str(two_frame_dataset), "--out", str(tmp_path / "out"),
            "--predictor", "noisy"]
    assert run_cli(*args, "--sigma-xi", "-inf") == 2
    assert capsys.readouterr().err == ("clusterseg: error: sigma_xi must be finite and "
                                       "non-negative, got -inf\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_dump_config_refuses_a_non_finite_value(capsys, value):
    for command, flag, text in (("infer", "--sigma-xi", value),
                                ("gen", "--background-depth", value),
                                ("gen", "--z-range", f"1..{value}")):
        assert run_cli(command, flag, text, "--dump-config") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"clusterseg: error: {flag} must be finite")


@pytest.fixture(scope="module")
def one_frame_dataset(tmp_path_factory):
    ds = tmp_path_factory.mktemp("overflow") / "ds"
    assert run_cli("gen", "--count", "1", "--res", "16x16", "--objects", "1..1", "--seed", "1",
                   "--out", str(ds)) == 0
    return ds


@pytest.mark.parametrize("flags", [["--lr", "1e308"], ["--lr", "1e100"],
                                   ["--bump-value", "1e308", "--bump-epoch", "0"]],
                         ids=["lr", "lr-1e100", "bump-value"])
def test_training_that_overflows_fails_with_one_line(one_frame_dataset, tmp_path, capsys, flags):
    ckpt = tmp_path / "model.ckpt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("train", "--dataset", str(one_frame_dataset), "--out", str(ckpt),
                       "--epochs", "2", "--batch", "1", *flags) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("clusterseg: error: ") and "non-finite" in err
    # the message names the parameter whose gradient or update overflowed
    names = re.findall(r"'(\w+)'", err)
    assert names and names[0] in dict(MlpModel.parameter_layout())
    assert not ckpt.exists()


def test_gradcheck_fails_when_the_loss_overflows(capsys):
    assert run_cli("gradcheck", "--samples", "20", "--lambda-vio", "1e308") == 3
    assert "error: nan (FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("document, code, message", [
    ({"count": 2.5}, 1, "--count must be an integer of at least 1, got 2.5"),
    ([1, 2], 2, "not a JSON object"),
], ids=["float-count", "list"])
def test_a_bad_config_file_exits_with_one_line(tmp_path, capsys, document, code, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    assert run_cli("gen", "--config", str(config), "--out", str(tmp_path / "ds")) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err
    assert not (tmp_path / "ds").exists()


# Every (command, path flag) pair. Only a config file can give a value with a NUL.
PATH_FLAGS = [(command, row.dest) for row in cli._FLAGS if row.kind is cli.PATH
              for command in row.commands.split()]


@pytest.mark.parametrize("command, dest", PATH_FLAGS, ids=[f"{c}-{d}" for c, d in PATH_FLAGS])
def test_a_path_with_a_nul_exits_with_one_line(two_frame_dataset, tmp_path, capsys,
                                               command, dest):
    value = str(tmp_path / "p\u0000ath")
    valid = {"dataset": str(two_frame_dataset), "out": str(tmp_path / "out"),
             "segs": str(tmp_path / "segs"), "predictor": "mlp",
             "model": str(tmp_path / "model.ckpt"), "count": 1, "res": "16x16"}
    taken = {row.dest for row in _flag_rows(command)}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**{k: v for k, v in valid.items() if k in taken}, dest: value}))
    assert run_cli(command, "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert err == f"clusterseg: error: --{dest.replace('_', '-')} must be a path, got {value!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


COMMANDS = ["gen", "infer", "eval", "gradcheck", "train"]


def _flag_rows(command):
    return [row for row in cli._FLAGS if command in row.commands.split()]


@pytest.mark.parametrize("command", COMMANDS)
def test_dump_config_round_trips_and_help_lists_every_flag(tmp_path, capsys, command):
    assert run_cli(command, "--dump-config") == 0
    dumped = capsys.readouterr().out
    assert set(json.loads(dumped)) == {row.dest for row in _flag_rows(command)}
    config = tmp_path / "config.json"
    config.write_text(dumped)
    assert run_cli(command, "--config", str(config), "--dump-config") == 0
    assert capsys.readouterr().out == dumped

    assert run_cli(command, "--help") == 0
    help_text = capsys.readouterr().out
    for row in _flag_rows(command):
        assert f"--{row.name}" in help_text


@pytest.fixture
def oracle_segs(tmp_path):
    # 25 x 23 = 575 pixels, so the foreground bitmask's last byte has one
    # padding bit.
    ds = tmp_path / "ds"
    segs = tmp_path / "segs"
    assert run_cli("gen", "--count", "2", "--res", "25x23", "--seed", "1",
                   "--out", str(ds)) == 0
    assert run_cli("infer", "--dataset", str(ds), "--out", str(segs)) == 0
    return ds, segs


BUNDLE = "seg_00000.tsb"


def _seed_outside(axis):
    """A mutation moving the first seed just past the frame along `axis`."""
    def mutate(t):
        seeds = t["seeds"].copy()
        seeds[0, axis] = t["frame_size"][axis]
        return {**t, "seeds": seeds}
    return mutate


def _first_label(value):
    """A mutation setting the label of the first foreground pixel to `value`."""
    def mutate(t):
        ids = t["label_ids"].copy()
        ids[0] = value(t["scores"].size)
        return {**t, "label_ids": ids}
    return mutate


def _instances(count):
    """A mutation giving the bundle `count` instances, each added one scored 0.5 at seed (0, 0)."""
    def mutate(t):
        extra = count - t["scores"].size
        return {**t, "scores": np.r_[t["scores"], np.full(extra, 0.5)],
                "seeds": np.r_[t["seeds"], np.zeros((extra, 2), t["seeds"].dtype)]}
    return mutate


def _set_foreground_bit(last):
    """A mutation setting the bitmask's last bit (a padding bit), or else its first clear bit."""
    def mutate(t):
        bits = np.unpackbits(t["foreground"])
        bits[-1 if last else np.flatnonzero(bits == 0)[0]] = 1
        return {**t, "foreground": np.packbits(bits)}
    return mutate


def _frame_size_plus(rows, cols):
    """A mutation adding `rows` and `cols` to the stored frame size."""
    def mutate(t):
        return {**t, "frame_size": (t["frame_size"] + (rows, cols)).astype(np.uint16)}
    return mutate


@pytest.mark.parametrize("name, mutate, error", [
    (BUNDLE, lambda t: {**t, "label_ids": np.full(t["label_ids"].shape, np.nan)},
     BundleDtypeError),
    (BUNDLE, _instances(256), BundleDtypeError),
    (BUNDLE, lambda t: {**t, "label_ids": t["label_ids"].astype(np.uint16)}, BundleDtypeError),
    (BUNDLE, lambda t: {**t, "seeds": t["seeds"].astype(np.uint16)}, BundleDtypeError),
    (BUNDLE, lambda t: {**t, "seeds": t["seeds"].astype(np.float64)}, BundleDtypeError),
    (BUNDLE, lambda t: {**t, "scores": t["scores"].astype(np.float32)}, BundleDtypeError),
    (BUNDLE, lambda t: {**t, "frame_size": t["frame_size"].astype(np.uint8)}, BundleDtypeError),
    (BUNDLE, lambda t: {**t, "scores": t["scores"][None, :]}, ShapeMismatchError),
    (BUNDLE, lambda t: {**t, "label_ids": t["label_ids"][None, None]}, ShapeMismatchError),
    (BUNDLE, lambda t: {**t, "seeds": t["seeds"].ravel()}, ShapeMismatchError),
    (BUNDLE, lambda t: {**t, "seeds": t["seeds"][:-1]}, ShapeMismatchError),
    (BUNDLE, _frame_size_plus(1, 0), ShapeMismatchError),
    (BUNDLE, _frame_size_plus(0, -1), ShapeMismatchError),
    (BUNDLE, _set_foreground_bit(last=False), ShapeMismatchError),
    (BUNDLE, lambda t: {k: v for k, v in t.items() if k != "seeds"}, BundleManifestError),
    (BUNDLE, lambda t: {**t, "extra": np.zeros(2)}, BundleManifestError),
    (BUNDLE, lambda t: {**t, "scores": np.r_[np.nan, t["scores"][1:]]}, NonFiniteError),
    (BUNDLE, lambda t: {**t, "scores": np.r_[t["scores"][:-1], -np.inf]}, NonFiniteError),
    (BUNDLE, _set_foreground_bit(last=True), ValueRangeError),
    (BUNDLE, _first_label(lambda M: 0), ValueRangeError),
    (BUNDLE, _first_label(lambda M: M + 1), ValueRangeError),
    (BUNDLE, _seed_outside(0), ValueRangeError),
    (BUNDLE, _seed_outside(1), ValueRangeError),
    ("segs.json", lambda doc: {k: v for k, v in doc.items() if k != "format"}, ClusterSegError),
    ("segs.json", lambda doc: {**doc, "format": 1}, ClusterSegError),
], ids=["nan-f64-labels", "u8-labels", "u16-ids", "u16-seeds", "f64-seeds", "f32-scores",
        "u8-frame-size", "2d-scores", "3d-labels", "1d-seeds", "seed-count", "frame-size-rows",
        "frame-size-cols", "popcount", "missing-seeds", "extra-tensor", "nan-score",
        "inf-score", "padding-bit", "label-zero", "label-above-m", "seed-row-outside",
        "seed-col-outside", "format-missing", "format-1"])
def test_malformed_segmentation_bundle_is_a_typed_error(oracle_segs, name, mutate, error,
                                                        capsys):
    # The rows damage the first bundle, or segs.json; "u8-labels" keeps u8
    # ids for 256 instances, where the writer stores u16.
    ds, segs = oracle_segs
    path = segs / name
    if name == "segs.json":
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    else:
        write_bundle(path, mutate(read_bundle(path)))
    with pytest.raises(error, match=re.escape(str(path))):
        load_segmentations(str(segs))
    assert run_cli("eval", "--dataset", str(ds), "--segs", str(segs)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "error" in err and str(path) in err
    assert ("re-run infer" in err) == (name == "segs.json")


@pytest.mark.parametrize("name", ["seg\u0000.tsb", "seg_99999.tsb"], ids=["nul-name", "missing"])
def test_an_unreadable_segmentation_bundle_is_a_typed_error(oracle_segs, capsys, name):
    ds, segs = oracle_segs
    manifest = json.loads((segs / "segs.json").read_text())
    manifest["segmentations"][1] = name
    (segs / "segs.json").write_text(json.dumps(manifest))
    message = f"cannot read segmentation bundle {os.path.join(str(segs), name)}: "
    with pytest.raises(ClusterSegError, match=re.escape(message)):
        load_segmentations(str(segs))
    assert run_cli("eval", "--dataset", str(ds), "--segs", str(segs)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"clusterseg: error: {message}")


def test_segmentation_shape_must_match_frame(oracle_segs, capsys):
    # A valid segmentation one column narrower than its frame.
    ds, segs = oracle_segs
    first, *rest = load_segmentations(str(segs))
    W = first.labels.shape[1] - 1
    narrow = Segmentation(np.ascontiguousarray(first.labels[:, :W]), first.scores,
                          [(row, min(col, W - 1)) for row, col in first.seeds])
    write_segmentations(segs, [narrow, *rest], predictor="oracle", fg_threshold=0.5)
    assert run_cli("eval", "--dataset", str(ds), "--segs", str(segs)) == 2
    assert "does not match frame" in capsys.readouterr().err


def test_jobs_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CLUSTERSEG_JOBS", "3")
    assert run_cli("gen", "--out", str(tmp_path / "ds"), "--count", "1",
                   "--res", "16x16", "--seed", "0", "--dump-config") == 0
    assert json.loads(capsys.readouterr().out)["jobs"] == 3
    monkeypatch.setenv("CLUSTERSEG_JOBS", "junk")
    assert run_cli("gen", "--out", str(tmp_path / "ds"), "--count", "1",
                   "--res", "16x16", "--seed", "0", "--dump-config") == 0
    assert json.loads(capsys.readouterr().out)["jobs"] == 1


def test_jobs_flag_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli(*GEN_ARGS, "--out", str(a), "--jobs", "1") == 0
    assert run_cli(*GEN_ARGS, "--out", str(b), "--jobs", "4") == 0
    bytes_a = _dir_bytes(a)
    bytes_b = _dir_bytes(b)
    assert bytes_a.keys() == bytes_b.keys()
    for name in bytes_a:
        assert bytes_a[name] == bytes_b[name], name


@pytest.mark.parametrize("noise", [
    ("--noise-mode", "uniform-ball", "--ball-minb-frac", "0.49"),
    ("--sigma-xi", "0.05", "--sigma-b", "0.2", "--sigma-eta", "0.3", "--flip-rate", "0.05"),
], ids=["uniform-ball", "gaussian"])
def test_noisy_infer_does_not_depend_on_jobs(tmp_path, noise):
    ds = tmp_path / "ds"
    assert run_cli(*GEN_ARGS, "--out", str(ds)) == 0
    argv = ("infer", "--dataset", str(ds), "--predictor", "noisy", *noise, "--seed", "3")
    assert run_cli(*argv, "--out", str(tmp_path / "jobs1"), "--jobs", "1") == 0
    assert run_cli(*argv, "--out", str(tmp_path / "jobs2"), "--jobs", "2") == 0
    want = _dir_bytes(tmp_path / "jobs1")
    assert len(want) == 5  # four segmentation bundles and segs.json
    assert _dir_bytes(tmp_path / "jobs2") == want


def _segmentation(count, seeds):
    labels = np.arange(1, count + 1, dtype=np.int32).reshape(1, count)
    return Segmentation(labels=labels, scores=np.zeros(count), seeds=seeds)


def test_write_segmentation_refuses_u16_overflow(tmp_path):
    # The largest instance count and side, with a seed in the last column;
    # one more instance, or one more column, is refused before any file is
    # written.
    edge = _segmentation(65535, [(0, 65534)] * 65535)
    write_segmentations(tmp_path / "edge", [edge])
    (loaded,) = load_segmentations(tmp_path / "edge")
    assert np.array_equal(loaded.labels, edge.labels) and loaded.seeds == edge.seeds
    many = Segmentation(labels=np.arange(1, 65537, dtype=np.int32).reshape(256, 256),
                        scores=np.zeros(65536), seeds=[(0, 0)] * 65536)
    wide = Segmentation(labels=np.zeros((1, 65536), dtype=np.int32), scores=np.zeros(0),
                        seeds=[])
    for name, seg in [("many", many), ("wide", wide)]:
        with pytest.raises(ClusterSegError, match=f"{name}/seg_00001.tsb: .*65535"):
            write_segmentations(tmp_path / name, [_segmentation(1, [(0, 0)]), seg])
    assert sorted(os.listdir(tmp_path)) == ["edge"]
    assert sorted(os.listdir(tmp_path / "edge")) == ["seg_00000.tsb", "segs.json"]


def test_infer_exits_2_on_too_many_instances(tmp_path, monkeypatch, capsys):
    # A rerun over a previous run's output, where only the second of four
    # frames overflows, must leave every file of the previous run unchanged.
    ds, segs = tmp_path / "ds", tmp_path / "segs"
    assert run_cli(*GEN_ARGS, "--out", str(ds)) == 0
    assert run_cli("infer", "--dataset", str(ds), "--out", str(segs)) == 0
    before = _dir_bytes(segs)
    calls = []

    def second_frame_overflows(pred, threshold):
        calls.append(pred)
        count = 65536 if len(calls) == 2 else 1
        return _segmentation(count, [(0, 0)] * count)

    monkeypatch.setattr(cli, "segment", second_frame_overflows)
    assert run_cli("infer", "--dataset", str(ds), "--out", str(segs),
                   "--predictor", "oracle", "--jobs", "1") == 2
    assert "seg_00001.tsb" in capsys.readouterr().err and len(calls) == 4
    assert _dir_bytes(segs) == before


@pytest.mark.parametrize("labels, scores, seeds", [
    ([[1, -1]], [0.5], [(0, 0)]),
    ([[1, 2]], [0.5], [(0, 0)]),
    ([[1, 0]], [np.nan], [(0, 0)]),
    ([[1, 0]], [0.5], [(1, 0)]),
    ([[1, 0]], [0.5], [(0, 0), (0, 1)]),
], ids=["label-negative", "label-above-m", "nan-score", "seed-outside", "seed-count"])
def test_infer_exits_2_on_a_segmentation_the_loader_would_reject(tmp_path, monkeypatch, capsys,
                                                                  labels, scores, seeds):
    # Only the second of four frames is bad; nothing is written.
    ds, segs = tmp_path / "ds", tmp_path / "segs"
    assert run_cli(*GEN_ARGS, "--out", str(ds)) == 0
    calls = []

    def second_frame_is_bad(pred, threshold):
        calls.append(pred)
        if len(calls) == 2:
            return Segmentation(np.array(labels, dtype=np.int32), np.array(scores), seeds)
        return _segmentation(1, [(0, 0)])

    monkeypatch.setattr(cli, "segment", second_frame_is_bad)
    assert run_cli("infer", "--dataset", str(ds), "--out", str(segs), "--jobs", "1") == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(segs / "seg_00001.tsb") in err
    assert not segs.exists()


PARSER_ARGV = [["-h"], ["--help"], [], *([command, "-h"] for command in COMMANDS),
               ["gen", "--bogus", "1"], ["infer", "--dataset"], ["frobnicate"],
               ["--seed", "3", "gen"], ["--seed=3", "gen"], ["gen", "extra"]]


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage_errors_equal_the_parser_with_every_flag(argv, capsys):
    # main() adds nothing to and drops nothing from what the parser, which
    # holds every command's flags, prints and exits with.
    code = run_cli(*argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exited:
        cli.build_parser().parse_args(argv)
    assert exited.value.code == code
    want = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)
    assert got.out or got.err


# ---------------------------------------------------------------------------
# what gen and infer build, and frame bundles that load only if undamaged

def _no_annotation_maps(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("build_annotation was called")

    monkeypatch.setattr(annotation, "build_annotation", refused)
    monkeypatch.setattr(dataset, "build_annotation", refused)


def test_gen_builds_no_annotation_maps(tmp_path, monkeypatch):
    assert run_cli(*GEN_ARGS, "--out", str(tmp_path / "want")) == 0
    _no_annotation_maps(monkeypatch)
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert run_cli(*GEN_ARGS, "--out", str(out), "--jobs", jobs) == 0
        assert _dir_bytes(out) == _dir_bytes(tmp_path / "want")


def test_infer_mlp_without_a_sweep_builds_no_annotation_maps(two_frame_dataset, tmp_path,
                                                             monkeypatch):
    model = tmp_path / "model.ckpt"
    save_checkpoint(model, init_model(0))
    argv = ("infer", "--dataset", str(two_frame_dataset), "--predictor", "mlp",
            "--model", str(model))
    assert run_cli(*argv, "--out", str(tmp_path / "want")) == 0
    _no_annotation_maps(monkeypatch)
    assert run_cli(*argv, "--out", str(tmp_path / "got")) == 0
    assert _dir_bytes(tmp_path / "got") == _dir_bytes(tmp_path / "want")


# oracle_run's frames are SIDE x SIDE
SIDE = 16


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("damaged")
    assert run_cli("gen", "--count", "2", "--res", f"{SIDE}x{SIDE}", "--objects", "2..2",
                   "--sizes", "0.12..0.2", "--seed", "5", "--out", str(root / "ds")) == 0
    assert run_cli("infer", "--dataset", str(root / "ds"), "--out", str(root / "segs")) == 0
    return root


def _first(name, value):
    """A damage that sets the first entry of tensor `name` to `value`."""
    def damage(tensors):
        damaged = tensors[name].copy()
        damaged.flat[0] = value
        return {**tensors, name: damaged}
    return damage


def _payload_index(tensors, k, pixel):
    """The amodal_pixels index of flat frame `pixel` in object k's window."""
    windows = tensors["amodal_windows"].astype(np.int64)
    top, left, _, width = windows[k]
    row, col = divmod(int(pixel), SIDE)
    return (windows[:k, 2] * windows[:k, 3]).sum() + (row - top) * width + (col - left)


def _visible_pixel_cleared(tensors, k=0):
    """Object k's first visible pixel cleared in its window."""
    pixels = tensors["amodal_pixels"].copy()
    pixel = _foreground(tensors, SIDE)[tensors["instance_ids"] == k + 1][0]
    pixels[_payload_index(tensors, k, pixel)] = 0
    return {**tensors, "amodal_pixels": pixels}


def _visible_pixel_moved(tensors, k, j):
    """Object k's first visible pixel inside object j's window moved from mask k to mask j.

    The pixel stays in the masks' union, so the stored rows still match it.
    """
    pixels = tensors["amodal_pixels"].copy()
    top, left, height, width = tensors["amodal_windows"][j].astype(np.int64)
    rows, cols = np.divmod(_foreground(tensors, SIDE)[tensors["instance_ids"] == k + 1], SIDE)
    inside = (rows >= top) & (rows < top + height) & (cols >= left) & (cols < left + width)
    pixel = rows[inside][0] * SIDE + cols[inside][0]
    pixels[_payload_index(tensors, k, pixel)] = 0
    pixels[_payload_index(tensors, j, pixel)] = 1
    return {**tensors, "amodal_pixels": pixels}


def _window_past_edge(tensors):
    """Object 0's window moved down until its last row lies one past the frame's."""
    windows = tensors["amodal_windows"].copy()
    windows[0, 0] = SIDE - windows[0, 2] + 1
    return {**tensors, "amodal_windows": windows}


def _window_emptied(tensors):
    """Object 0 stored as an empty mask, so none of its visible pixels lies in its window."""
    windows = tensors["amodal_windows"].copy()
    size = int(windows[0, 2]) * int(windows[0, 3])
    windows[0] = 0
    return {**tensors, "amodal_windows": windows,
            "amodal_pixels": tensors["amodal_pixels"][size:]}


def _two_objects_damaged(tensors):
    """Object 1's visible pixel moved into object 0's mask.

    Only object 1 is not contained; object 0's occlusion score is derived
    from its masks, so the pixel it gains is no error.
    """
    return _visible_pixel_moved(tensors, 1, 0)


def _rgb_nan_and_7(tensors):
    """One NaN and one 7.0 in rgb: the NaN is named."""
    rgb = tensors["rgb"].copy()
    rgb.flat[0], rgb.flat[-1] = np.nan, 7.0
    return {**tensors, "rgb": rgb}


@pytest.mark.parametrize("damage, error, named", [
    (_first("per_object_xi", np.nan), NonFiniteError, "per_object_xi"),
    (_first("per_object_xi", -np.inf), NonFiniteError, "per_object_xi"),
    (_first("amodal_pixels", 7), ValueRangeError, "got 7"),
    (_first("amodal_pixels", 2), ValueRangeError, "got 2"),
    (_window_past_edge, ValueRangeError, "amodal window 0 "),
    (lambda t: {**t, "amodal_pixels": t["amodal_pixels"][:-1]}, ShapeMismatchError,
     "amodal_pixels holds"),
    (lambda t: {**t, "amodal_pixels": np.zeros_like(t["amodal_pixels"])}, ShapeMismatchError,
     "the amodal masks cover 0"),
    (_visible_pixel_cleared, ShapeMismatchError, "the amodal masks cover"),
    (_window_emptied, ShapeMismatchError, "the amodal masks cover"),
    (lambda t: _visible_pixel_moved(t, 0, 1), MaskContainmentError, "object 0 "),
    (_two_objects_damaged, MaskContainmentError, "object 1 "),
    (lambda t: {**t, "amodal_masks": np.ones((2, 16, 16), dtype=np.uint8)}, BundleManifestError,
     "amodal_masks"),
    (lambda t: {**t, "occlusion_scores": np.ones(2)}, BundleManifestError, "occlusion_scores"),
    (_first("rgb", np.nan), NonFiniteError, "rgb contains NaN"),
    (_first("rgb", np.inf), NonFiniteError, "rgb contains NaN"),
    (_first("rgb", 7.0), ValueRangeError, "got 7.0"),
    (_first("rgb", -0.5), ValueRangeError, "got -0.5"),
    (_rgb_nan_and_7, NonFiniteError, "rgb contains NaN"),
], ids=["nan-feature", "inf-feature", "amodal-7", "amodal-2", "window-past-edge", "pixel-count",
        "cleared-amodal", "visible-outside-amodal", "visible-outside-window",
        "visible-in-another-mask", "two-objects",
        "stored-amodal-masks", "stored-occlusion", "nan-rgb", "inf-rgb", "rgb-7", "rgb-negative",
        "nan-and-7-rgb"])
def test_a_damaged_frame_bundle_exits_2_naming_it(oracle_run, tmp_path, capsys, damage, error,
                                                  named):
    ds = tmp_path / "ds"
    shutil.copytree(oracle_run / "ds", ds)
    path = ds / "frame_00001.tsb"
    write_bundle(path, damage(read_bundle(path)))
    with pytest.raises(error, match=re.escape(str(path))) as raised:
        [load_frame(*entry) for entry in read_dataset_manifest(str(ds))[1]]
    assert named in str(raised.value)
    for argv in (("eval", "--segs", str(oracle_run / "segs")),
                 ("infer", "--out", str(tmp_path / "segs")),
                 ("train", "--out", str(tmp_path / "model.ckpt"), "--epochs", "1")):
        assert run_cli(*argv, "--dataset", str(ds)) == 2, argv[0]
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(path) in err, argv[0]


# ---------------------------------------------------------------------------
# infer streams its dataset: one frame per worker in memory, nothing written
# unless every frame succeeds

@pytest.fixture(scope="module")
def eight_frames(tmp_path_factory):
    root = tmp_path_factory.mktemp("eight")
    assert run_cli("gen", "--count", "8", "--res", "24x24", "--objects", "2..4",
                   "--seed", "7", "--out", str(root / "ds")) == 0
    save_checkpoint(root / "model.ckpt", init_model(0))
    return root


def _infer_argv(root, predictor):
    if predictor == "mlp":
        return ("--predictor", "mlp", "--model", str(root / "model.ckpt"))
    return ("--predictor", "noisy", "--sigma-xi", "0.05", "--flip-rate", "0.05")


def _count_live_frames(monkeypatch, keep=None):
    """Count the frames infer's loader returns and how many are live at once.

    A frame is live until the FrameBundle load_frame returned is freed. A
    `keep` list holds on to every frame, as a loader that leaks them would.
    """
    lock = threading.Lock()
    counts = {"live": 0, "peak": 0, "loads": 0}
    load = cli.load_frame

    def freed():
        with lock:
            counts["live"] -= 1

    def counted(*args):
        loaded = load(*args)
        with lock:
            counts["live"] += 1
            counts["loads"] += 1
            counts["peak"] = max(counts["peak"], counts["live"])
        weakref.finalize(loaded[1], freed)
        if keep is not None:
            keep.append(loaded)
        return loaded

    monkeypatch.setattr(cli, "load_frame", counted)
    return counts


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("predictor", ["noisy", "mlp"])
def test_infer_holds_at_most_jobs_frames(eight_frames, tmp_path, monkeypatch, predictor, jobs):
    counts = _count_live_frames(monkeypatch)
    assert run_cli("infer", "--dataset", str(eight_frames / "ds"), "--out", str(tmp_path / "segs"),
                   *_infer_argv(eight_frames, predictor), "--jobs", str(jobs)) == 0
    assert counts["loads"] == 8
    assert 1 <= counts["peak"] <= jobs


def test_the_live_frame_count_sees_a_loader_that_keeps_every_frame(eight_frames, tmp_path,
                                                                    monkeypatch):
    kept = []
    counts = _count_live_frames(monkeypatch, keep=kept)
    assert run_cli("infer", "--dataset", str(eight_frames / "ds"), "--out", str(tmp_path / "segs"),
                   *_infer_argv(eight_frames, "noisy"), "--jobs", "1") == 0
    assert counts["loads"] == 8 and counts["peak"] == 8
    kept.clear()
    assert counts["live"] == 0


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("predictor", ["noisy", "mlp"])
def test_a_damaged_last_frame_leaves_a_previous_run_unchanged(eight_frames, tmp_path, capsys,
                                                              predictor, jobs):
    ds, segs = tmp_path / "ds", tmp_path / "segs"
    shutil.copytree(eight_frames / "ds", ds)
    argv = ("infer", "--dataset", str(ds), "--out", str(segs),
            *_infer_argv(eight_frames, predictor), "--jobs", str(jobs))
    assert run_cli(*argv) == 0
    before = _dir_bytes(segs)
    path = ds / "frame_00007.tsb"
    tensors = read_bundle(path)
    write_bundle(path, {**tensors, "per_object_xi": np.full_like(tensors["per_object_xi"],
                                                                 np.nan)})
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(path) in err
    assert _dir_bytes(segs) == before


@pytest.mark.parametrize("command", [
    ("infer", "--out", "{tmp}/segs"),
    ("infer", "--out", "{tmp}/segs", "--predictor", "mlp", "--model", "{root}/model.ckpt"),
    ("eval", "--segs", "{tmp}/segs"),
    ("train", "--out", "{tmp}/model.ckpt", "--epochs", "1"),
], ids=["infer-oracle", "infer-mlp", "eval", "train"])
def test_a_malformed_last_manifest_entry_exits_2_before_any_frame_is_read(
        eight_frames, tmp_path, monkeypatch, capsys, command):
    ds = tmp_path / "ds"
    shutil.copytree(eight_frames / "ds", ds)
    manifest = json.loads((ds / "dataset.json").read_text())
    del manifest["frames"][-1]["bundle"]
    (ds / "dataset.json").write_text(json.dumps(manifest))
    bundles_read = []
    read = dataio.read_bundle

    def recorded(path):
        bundles_read.append(path)
        return read(path)

    monkeypatch.setattr(dataio, "read_bundle", recorded)
    argv = [a.format(tmp=tmp_path, root=eight_frames) for a in command]
    assert run_cli(argv[0], "--dataset", str(ds), *argv[1:]) == 2
    err = capsys.readouterr().err
    assert "malformed dataset manifest" in err and len(err.splitlines()) == 1
    assert bundles_read == []
