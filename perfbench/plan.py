"""The benchmark's workloads: what each sets up, what it times, what it checks.

A workload is a list of set-up steps, run before timing, and a list of
timed steps that make one pass. A step is the argv of one `clusterseg`
command, always with `--jobs 1`, or ("checkpoint", path), which writes the
untrained model the degenerate regime needs. Every workload is closed
loop: one client in one process, each command starting when the previous
one ends.

Set-up is repeated to time it. Repeat 0 makes the passes' inputs from the
workload seed; each later repeat makes inputs of the same kind from a seed
of its own (setup_seed), so the median set-up time does not hang on the
scenes of one seed.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from clusterseg import cli
from clusterseg.predictor import NoiseSpec, init_model, mlp_forward, noisy_predict, save_checkpoint

# init_model(0) is a degenerate network: its mask head marks about 97% of
# every 48x48 frame as foreground and almost every such pixel seeds its own
# instance. Other init seeds give anything from no foreground to five
# instances per frame, so the model seed is fixed and the workload seed
# varies the scenes.
DEGENERATE_MODEL_SEED = 0
# The training acceptance run's model seed; the workload seed varies its data.
TRAIN_MODEL_SEED = 3
# A frame whose exactness certificate is below this is provably segmented exactly.
CERTIFICATE_LIMIT = 1.0


def setup_seed(seed, repeat):
    """The workload seed for repeat 0; a seed of the repeat's own after that."""
    return seed if repeat == 0 else seed * 1000 + 999 - repeat


def _gen(out, count, res, objects, seed, *extra):
    return ["gen", "--out", out, "--count", str(count), "--res", f"{res}x{res}",
            "--objects", objects, "--seed", str(seed), "--jobs", "1", *extra]


def _eval(data, segs, report):
    return ["eval", "--dataset", data, "--segs", segs, "--report", report, "--jobs", "1"]


def _read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["metrics"]


def tree_digest(paths):
    """SHA-256 over the relative names and bytes of every file under paths."""
    h = hashlib.sha256()
    for root in paths:
        files = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for path in files:
            h.update(os.path.relpath(path, os.path.dirname(root)).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def disk_bytes(root):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(root) for f in fs)


def output_digests(paths):
    """Digest of each output path, and of all of them together."""
    digests = {os.path.basename(p): tree_digest([p]) for p in paths}
    digests["all"] = tree_digest(paths)
    return digests


@dataclass(frozen=True)
class WellPosed:
    """Generate, noisy-infer and evaluate fresh scenes every pass.

    The feature noise is a uniform ball of 0.49 x the frame's minimum
    enclosing radius, so clustering must recover every instance exactly.
    """

    name: str = "wellposed-128"
    res: int = 128
    frames: int = 8
    objects: str = "4..8"
    minb_frac: float = 0.49

    def rates(self):
        """Work per pass of each timed command, and its unit."""
        return {c: (self.frames, "frame/s") for c in ("gen", "infer", "eval")}

    def ap(self, sdir, pdir):
        return _read_report(os.path.join(pdir, "report.json"))["ap"]

    def setup_steps(self, sdir, seed, repeat):
        # Nothing is an input here but the seed; set-up is a one-frame
        # warm-up pass, so lazy initialisation is not timed. It never draws
        # a timed pass's scene, hence repeat + 1.
        return self.pass_steps(sdir, sdir, setup_seed(seed, repeat + 1), 0, count=1)

    def pass_steps(self, sdir, pdir, seed, index, count=None):
        pass_seed = seed * 1000 + index
        data = os.path.join(pdir, "data")
        segs = os.path.join(pdir, "segs")
        return [
            _gen(data, count or self.frames, self.res, self.objects, pass_seed),
            ["infer", "--dataset", data, "--out", segs, "--predictor", "noisy",
             "--noise-mode", "uniform-ball", "--ball-minb-frac", str(self.minb_frac),
             "--seed", str(pass_seed), "--jobs", "1"],
            _eval(data, segs, os.path.join(pdir, "report.json")),
        ]

    def outputs(self, sdir, pdir):
        return [os.path.join(pdir, n) for n in ("data", "segs", "report.json")]

    def check(self, sdir, pdir, seed, index):
        """Failed checks as {command: [problem, ...]}."""
        problems = {}
        metrics = _read_report(os.path.join(pdir, "report.json"))
        if metrics["ap"] != 1.0 or metrics["ar"] != 1.0:
            problems["eval"] = [f"AP {metrics['ap']} / AR {metrics['ar']} is not exactly 1.0"]
        worst = max(self.certificates(pdir, seed * 1000 + index))
        if not worst < CERTIFICATE_LIMIT:
            problems["infer"] = [f"exactness certificate {worst!r} >= {CERTIFICATE_LIMIT}"]
        return problems

    def certificates(self, pdir, pass_seed):
        """max |xi_hat - xi_gt| / (0.5 min B) over each frame's foreground.

        The predictions are rebuilt exactly as `infer` made them: the same
        noise spec and the same per-frame seed.
        """
        out = []
        records = cli._load_dataset(os.path.join(pdir, "data"))
        for i, (_, _, ann) in enumerate(records):
            min_b = float(ann.b_map[ann.fg_mask].min())
            spec = NoiseSpec(bound_mode="uniform-ball", ball_radius=self.minb_frac * min_b)
            pred = noisy_predict(ann, spec, pass_seed * cli.SEED_STRIDE + i)
            err = np.linalg.norm(pred.xi_hat - ann.xi_map, axis=-1)[ann.fg_mask]
            out.append(float(err.max()) / (0.5 * min_b))
        return out


@dataclass(frozen=True)
class Degenerate:
    """Untrained-MLP inference and evaluation on a fixed 48x48 dataset."""

    name: str = "degenerate-48"
    res: int = 48
    frames: int = 2
    objects: str = "2..6"

    def rates(self):
        return {c: (self.frames, "frame/s") for c in ("infer", "eval")}

    def ap(self, sdir, pdir):
        return _read_report(os.path.join(pdir, "report.json"))["ap"]

    def setup_steps(self, sdir, seed, repeat):
        return [_gen(os.path.join(sdir, "data"), self.frames, self.res, self.objects,
                     setup_seed(seed, repeat)),
                ("checkpoint", os.path.join(sdir, "model.ckpt"))]

    def pass_steps(self, sdir, pdir, seed, index):
        data = os.path.join(sdir, "data")
        segs = os.path.join(pdir, "segs")
        return [
            ["infer", "--dataset", data, "--out", segs, "--predictor", "mlp",
             "--model", os.path.join(sdir, "model.ckpt"), "--jobs", "1"],
            _eval(data, segs, os.path.join(pdir, "report.json")),
        ]

    def outputs(self, sdir, pdir):
        return [os.path.join(sdir, "data"), os.path.join(sdir, "model.ckpt"),
                os.path.join(pdir, "segs"), os.path.join(pdir, "report.json")]

    def check(self, sdir, pdir, seed, index):
        """Labels partition exactly the predicted foreground, one score per instance."""
        problems = []
        model = init_model(DEGENERATE_MODEL_SEED)
        records = cli._load_dataset(os.path.join(sdir, "data"))
        segs = cli._load_segmentations(os.path.join(pdir, "segs"))
        for i, ((_, frame, _), seg) in enumerate(zip(records, segs)):
            pred = mlp_forward(model, frame)[0].to_prediction()
            if not np.array_equal(seg.labels > 0, pred.mask_prob >= 0.5):
                problems.append(f"frame {i}: labelled pixels differ from the predicted foreground")
            present = np.unique(seg.labels[seg.labels > 0])
            n = len(seg.scores)
            if n != len(seg.seeds) or not np.array_equal(present, np.arange(1, n + 1)):
                problems.append(f"frame {i}: {present.size} instances, {n} scores, "
                                f"{len(seg.seeds)} seeds")
        return {"infer": problems} if problems else {}


@dataclass(frozen=True)
class Train:
    """Train the per-pixel MLP on a fixed single-object 32x32 dataset."""

    name: str = "train-32"
    res: int = 32
    frames: int = 32
    epochs: int = 30

    def rates(self):
        return {"train": (self.frames * self.epochs, "frame-epoch/s")}

    def ap(self, sdir, pdir):
        """AP of the last epoch's row in the training log."""
        return float(read_csv(os.path.join(pdir, "model.ckpt.csv"))[-1]["ap"])

    def setup_steps(self, sdir, seed, repeat):
        return [_gen(os.path.join(sdir, "data"), self.frames, self.res, "1..1",
                     setup_seed(seed, repeat),
                     "--sizes", "0.12..0.25", "--z-range", "0.8..2.2",
                     "--single-object-radius", "2.5", "--background-depth", "3.0")]

    def pass_steps(self, sdir, pdir, seed, index):
        return [["train", "--dataset", os.path.join(sdir, "data"),
                 "--out", os.path.join(pdir, "model.ckpt"), "--epochs", str(self.epochs),
                 "--batch", "4", "--lr", "3e-3", "--seed", str(TRAIN_MODEL_SEED),
                 "--jobs", "1"]]

    def outputs(self, sdir, pdir):
        return [os.path.join(sdir, "data"), os.path.join(pdir, "model.ckpt"),
                os.path.join(pdir, "model.ckpt.csv")]

    def check(self, sdir, pdir, seed, index):
        """One CSV row per epoch plus the untrained baseline, all losses finite."""
        rows = read_csv(os.path.join(pdir, "model.ckpt.csv"))
        problems = []
        if [r["epoch"] for r in rows] != [str(i) for i in range(self.epochs + 1)]:
            problems.append(f"{len(rows)} CSV rows, expected {self.epochs + 1}")
        bad = [r["epoch"] for r in rows
               if not all(math.isfinite(float(r[k])) for k in ("l_s", "l_cen", "l_p",
                                                              "l_var", "l_vio", "total"))]
        if bad:
            problems.append(f"non-finite losses in epochs {bad}")
        return {"train": problems} if problems else {}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {w.name: w for w in (WellPosed(), Degenerate(), Train())}


def run_step(step, runner):
    """Run one step; runner(argv) executes a CLI command and returns its exit code."""
    if step[0] == "checkpoint":
        save_checkpoint(step[1], init_model(DEGENERATE_MODEL_SEED))
        return 0
    return runner(step)
