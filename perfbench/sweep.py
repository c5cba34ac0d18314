"""Diagnostic sweep: per-layer time against image size, in both regimes.

    python3 perfbench/sweep.py [--seed N]

Runs traced passes of the well-posed workload at 32^2..128^2 and of
the degenerate workload at 32^2..64^2, then prints each layer's busy time
per frame against pixels and the exponent of a least-squares power-law fit
(time ~ pixels^k). It is not one of the benchmark's workloads and reports
no pass/fail; the table also goes to .perfbench/sweep.json.
"""

import argparse
import dataclasses
import json
import os
import shutil
import sys

import numpy as np

import run

run.import_program()
import measure  # noqa: E402 - needs the program on sys.path
from plan import WORKLOADS  # noqa: E402
from traced import LAYERS, Tracer, traced  # noqa: E402

SIZES = {"wellposed-128": (32, 64, 96, 128), "degenerate-48": (32, 40, 48, 56, 64)}
# Frames per size; a degenerate frame at 64x64 takes seconds.
FRAMES = {"wellposed-128": 2, "degenerate-48": 1}


def fitted_exponent(pixels, seconds):
    points = [(p, s) for p, s in zip(pixels, seconds) if s > 0]
    if len(points) < 2:
        return None
    x, y = np.log([p for p, _ in points]), np.log([s for _, s in points])
    return float(np.polyfit(x, y, 1)[0])


def sweep_one(workload, res, frames, seed, work):
    """Busy seconds per frame of every layer for one image size."""
    wl = dataclasses.replace(workload, res=res, frames=frames)
    runner = measure.Runner(wl, seed, work)
    sdir, _ = runner.setup()
    pdir = runner.fresh("traced-pass")
    tracer = Tracer()
    with traced(tracer), tracer.span("pass"):
        for step in wl.pass_steps(sdir, pdir, seed, 0):
            measure.traced_step(runner, tracer, step)
    summary, _ = measure.summarize_pass(tracer)
    row = {layer: summary[f"{layer}.busy_s"] / frames for layer in LAYERS}
    row["cli"] = summary["cli.self_s"] / frames
    row["seeds_per_frame"] = summary["clustering.seeds"] / frames
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    opts = parser.parse_args(argv)
    work = os.path.join(measure.STATE, "work", "sweep")
    report = {"machine": measure.machine_record(), "regimes": {}}
    try:
        for name, sizes in SIZES.items():
            frames = FRAMES[name]
            rows = {res: sweep_one(WORKLOADS[name], res, frames, opts.seed, work)
                    for res in sizes}
            pixels = [res * res for res in sizes]
            layers = [layer for layer in LAYERS + ("cli",)
                      if any(rows[res][layer] for res in sizes)]
            print(f"\n{name} regime: busy seconds per frame ({frames} frame(s) per size)")
            print(f"{'layer':12s}" + "".join(f"{f'{r}^2':>11s}" for r in sizes) + "   exponent")
            fits = {}
            for layer in layers:
                values = [rows[res][layer] for res in sizes]
                fits[layer] = fitted_exponent(pixels, values)
                fit = "-" if fits[layer] is None else f"{fits[layer]:.2f}"
                print(f"{layer:12s}" + "".join(f"{v:11.5f}" for v in values) + f"   {fit:>8s}")
            print(f"{'seeds/frame':12s}" + "".join(f"{rows[r]['seeds_per_frame']:11.0f}"
                                                   for r in sizes))
            report["regimes"][name] = {"pixels": pixels, "rows": [rows[r] for r in sizes],
                                       "exponents": fits}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["machine"]["loadavg_end"] = list(os.getloadavg())
    os.makedirs(measure.STATE, exist_ok=True)
    with open(os.path.join(measure.STATE, "sweep.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
