"""Measurement: set-up, timed passes, traced passes, checks and metrics.

Import this module only after run.import_program() has put the checkout's
src/ on sys.path.
"""

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from calibrate import HostSpeed
from clusterseg import cli
from plan import disk_bytes, output_digests, run_step, tree_digest
from traced import LAYERS, Tracer, traced

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Work directories, traces and the sweep report; nothing here is kept in git.
STATE = os.path.join(ROOT, ".perfbench")
# Before every timed pass, set-up is repeated until all set-ups so far have
# taken this share of the timed passes' time. setup_s is their median, so
# set-ups sample the host's speed across the whole run, as the passes do.
SETUP_SHARE = 0.1
# After every pass, the host-speed kernels run until they have taken this
# share of the time of all passes and set-ups so far.
HOST_SPEED_SHARE = 0.15
# Runs one CLI command in a fresh process and writes the process's peak
# resident memory in kB (Linux VmHWM) to a file: argv is [src dir, file,
# command args...]. getrusage is no use here: a child started from this
# process inherits this process's high-water mark when it execs.
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from clusterseg.cli import main; rc = main(sys.argv[3:]); "
         "hwm = [l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')]; "
         "open(sys.argv[2], 'w').write(hwm[0]); sys.exit(rc)")


def _metric_units(key):
    """{name: unit} of one metric list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


END_TO_END = _metric_units("end_to_end")
# Per-call timings of functions that some workload never calls, and the
# loss layer's time, are printed but kept out of BENCHMARK.json: they would
# read exactly 0 on every run of those workloads.
PER_LAYER = _metric_units("per_layer")

# Per-call timing metric -> traced span name.
CALL_MS = {
    "scenegen.render_ms": "scenegen.render",
    "scenegen.sample_scene_ms": "scenegen.sample_scene",
    "annotation.annotate_ms": "annotation.annotate",
    "dataio.write_ms": "dataio.write_bundle",
    "dataio.read_ms": "dataio.read_bundle",
    "predictor.noisy_ms": "predictor.noisy_predict",
    "predictor.mlp_forward_ms": "predictor.mlp_forward",
    "predictor.mlp_backward_ms": "predictor.mlp_backward",
    "predictor.adam_ms": "predictor.adam_step",
    "losses.total_loss_ms": "losses.total_loss",
    "clustering.seed_ms": "clustering.seed_segmentation",
    "clustering.gmm_ms": "clustering.gmm_refine",
    "evaluation.compute_metrics_ms": "evaluation.compute_metrics",
}


# ---------------------------------------------------------------------------
# machine record

def _blas():
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                return info
    info["threads"] = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get(
        "OMP_NUM_THREADS") or "library default"
    return info


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record():
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas(),
            "loadavg_start": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# statistics

def percentile_summary(samples):
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"p50={statistics.median(samples):.4g}"
    supported = [q for q in (50, 75, 90, 95, 99) if n * (100 - q) / 100 >= 10]
    if supported and supported[-1] > 50:
        q = supported[-1]
        text += f" p{q}={statistics.quantiles(samples, n=100)[q - 1]:.4g}"
    elif n > 1:
        text += f" max={max(samples):.4g}"
    return text + f" (n={n})"


def _median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# passes

class Runner:
    """Runs steps through the in-process CLI and counts operations."""

    def __init__(self, workload, seed, work):
        self.wl, self.seed, self.work = workload, seed, work
        # The passes' inputs: the directory of the first set-up.
        self.inputs = os.path.join(work, "setup")
        self.attempted = 0
        self.failed = 0
        self.setups = 0
        self.problems = []
        self.first_digest = {}

    def cli_main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:
            rc = -1
            err.write(traceback.format_exc())
        if rc != 0:
            self.problems.append(f"{argv[0]} exited {rc}: {err.getvalue().strip()[-800:]}")
        return rc

    def fresh(self, name):
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def setup(self):
        """One set-up; returns (directory, seconds).

        The first writes the passes' inputs; later ones are timed only.
        """
        sdir = self.fresh("setup" if not self.setups else "setup-repeat")
        start = time.perf_counter()
        for step in self.wl.setup_steps(sdir, self.seed, self.setups):
            self.attempted += 1
            if run_step(step, self.cli_main) != 0:
                self.failed += 1
                raise SystemExit(f"perfbench: set-up failed: {self.problems[-1]}")
        self.setups += 1
        return sdir, time.perf_counter() - start

    def cli_pass(self, sdir, index):
        """One timed pass plus its checks; returns (pass dir, {command: seconds})."""
        pdir = self.fresh("pass")
        steps = self.wl.pass_steps(sdir, pdir, self.seed, index)
        times, bad = {}, set()
        for argv in steps:
            start = time.perf_counter()
            rc = self.cli_main(argv)
            times[argv[0]] = time.perf_counter() - start
            if rc != 0:
                bad.add(argv[0])
        self.attempted += len(steps)
        if not bad:
            for command, problems in self.wl.check(sdir, pdir, self.seed, index).items():
                bad.add(command)
                self.problems.extend(f"pass {index} {command}: {p}" for p in problems)
            # Identical commands must write identical bytes. Well-posed
            # passes each draw new scenes; peak_rss_mb re-runs its pass 0.
            key = json.dumps(steps)
            digest = tree_digest(self.wl.outputs(sdir, pdir))
            if self.first_digest.setdefault(key, digest) != digest:
                bad.add(steps[-1][0])
                self.problems.append(f"pass {index}: outputs differ from an identical earlier pass")
        self.failed += len(bad)
        return pdir, times


# ---------------------------------------------------------------------------
# --trace 0

def peak_rss_mb(runner, sdir, digest):
    """Peak resident memory of pass 0, each command in its own process.

    That is how a user runs the CLI; in the benchmark's own long-lived
    process the high-water mark grows with the number of passes. The
    commands must also write the bytes pass 0 wrote in-process.
    """
    mdir = runner.fresh("memory")
    hwm = os.path.join(runner.work, "memory.kb")
    steps = runner.wl.pass_steps(sdir, mdir, runner.seed, 0)
    peak = 0.0
    for argv in steps:
        proc = subprocess.run([sys.executable, "-c", CHILD, SRC, hwm, *argv], timeout=170,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            runner.failed += 1
            runner.problems.append(f"{argv[0]} in its own process exited "
                                   f"{proc.returncode}: {proc.stderr.strip()[-800:]}")
            continue
        with open(hwm, encoding="utf-8") as fh:
            peak = max(peak, int(fh.read()) / 1024.0)
    runner.attempted += len(steps)
    if tree_digest(runner.wl.outputs(sdir, mdir)) != digest:
        runner.failed += 1
        runner.problems.append("pass 0 run again, one process per command, wrote other bytes")
    return peak


def run_untraced(runner, seconds):
    """Closed-loop passes with tracing off, each after a round of set-ups.

    setup_s is the median set-up and pipeline_fps the workload's frames
    over the mean pass, both scaled to a nominal-speed host by the
    host-speed kernels timed between the passes (see calibrate.py). The raw
    figures are printed too.
    """
    wl = runner.wl
    host = HostSpeed()
    setups, passes, disk = [], [], []
    timed = 0.0
    while not passes or timed < seconds:
        while not setups or sum(setups) < SETUP_SHARE * timed:
            setups.append(runner.setup()[1])
        sdir = runner.inputs
        pdir, times = runner.cli_pass(sdir, len(passes))
        passes.append(times)
        timed += sum(times.values())
        disk.append(disk_bytes(pdir))
        if len(passes) == 1:
            digests = output_digests(wl.outputs(sdir, pdir))
            ap = wl.ap(sdir, pdir) if not runner.failed else None
        while host.seconds < HOST_SPEED_SHARE * (timed + sum(setups)):
            host.run()

    totals = [sum(p.values()) for p in passes]
    factor = host.factor()
    metrics = {
        "setup_s": statistics.median(setups) * factor,
        "pipeline_fps": wl.frames * len(passes) / (timed * factor),
        "peak_rss_mb": peak_rss_mb(runner, sdir, digests["all"]),
        "disk_mb": statistics.median(disk) / 1e6,
    }
    lines = [f"host speed   {factor:.4g} x nominal ({host.runs} kernel runs, "
             f"{host.seconds:.3g} s)",
             f"raw setup_s  {percentile_summary(setups)} s",
             f"raw pass_s   {percentile_summary(totals)} s",
             f"raw pipeline_fps {wl.frames * len(passes) / timed:.6g} frame/s"]
    rates = wl.rates()
    for command in ("gen", "infer", "eval", "train"):
        name = f"{command}_fps".ljust(13)
        if command not in rates:
            lines.append(name + "n/a (not timed by this workload)")
            continue
        amount, unit = rates[command]
        samples = [p[command] for p in passes]
        lines.append(f"{name}{amount * len(samples) / sum(samples):.6g} {unit} raw"
                     f"  [{command}_s {percentile_summary(samples)}]")
    lines.append(f"ap           {ap!r} (first pass; exact for a fixed seed)")
    lines.append(f"failed_frac  {runner.failed / runner.attempted:.6g} "
                 f"({runner.failed}/{runner.attempted} operations)")
    lines.append("digest " + json.dumps(digests, sort_keys=True))
    return metrics, lines


# ---------------------------------------------------------------------------
# --trace 1

def summarize_pass(tracer):
    """Per-layer metrics of one traced pass, plus per-call self times."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = {f"{layer}.{k}": 0 for layer in LAYERS + ("cli",) for k in ("calls", "busy_s")}
    calls = {}
    covered = 0.0
    for s in spans[1:]:
        duration = s["end"] - s["start"]
        layer = s["name"].split(".", 1)[0]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.busy_s"] += duration - child[s["id"]]
        if layer != "cli":
            covered += duration
            calls.setdefault(s["name"], []).append(duration - child[s["id"]])
    c = tracer.counters
    out.update({k: v for k, v in c.items() if k in PER_LAYER})
    out["cli.self_s"] = out.pop("cli.busy_s")
    out["cli.coverage"] = covered / (spans[0]["end"] - spans[0]["start"])
    out["clustering.seed_scan_useful"] = (c["clustering.seed_scan_useful_px"]
                                          / c["clustering.seed_scan_px"]
                                          if c["clustering.seed_scan_px"] else 0.0)
    out["evaluation.tp_share"] = (c["evaluation.tp"] / c["evaluation.pred_instances"]
                                  if c["evaluation.pred_instances"] else 0.0)
    for key in PER_LAYER:
        out.setdefault(key, 0)
    return out, calls


def traced_step(runner, tracer, step):
    """Run one step of a workload with the tracer's wrappers installed."""
    with tracer.command(step[0]):
        return run_step(step, runner.cli_main)


def run_traced(runner, seconds):
    wl = runner.wl
    sdir, _ = runner.setup()
    untraced, traced_walls, per_pass, calls, spans = [], [], [], {}, []
    index = 0
    while not untraced or sum(untraced) + sum(traced_walls) < seconds:
        pdir, times = runner.cli_pass(sdir, index)
        untraced.append(sum(times.values()))
        if index == 0:
            digests = output_digests(wl.outputs(sdir, pdir))

        tracer = Tracer()
        tsdir, tpdir = runner.fresh("traced-setup"), runner.fresh("traced-pass")
        runner.attempted += 1
        with traced(tracer), tracer.span("pass"):
            codes = [traced_step(runner, tracer, step)
                     for step in wl.setup_steps(tsdir, runner.seed, 0)]
            start = time.perf_counter()
            codes += [traced_step(runner, tracer, step)
                      for step in wl.pass_steps(tsdir, tpdir, runner.seed, index)]
            traced_walls.append(time.perf_counter() - start)
        # The traced commands must write the untraced pass's bytes.
        if any(codes) or (tree_digest(wl.outputs(tsdir, tpdir))
                          != tree_digest(wl.outputs(sdir, pdir))):
            runner.failed += 1
            runner.problems.append(f"traced pass {index}: a command failed or its "
                                   "outputs differ from the untraced pass's")
        else:
            summary, pass_calls = summarize_pass(tracer)
            per_pass.append(summary)
            for name, samples in pass_calls.items():
                calls.setdefault(name, []).extend(samples)
        spans.append({"pass": index, "spans": tracer.spans, "counters": dict(tracer.counters)})
        index += 1

    os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
    trace_path = os.path.join(STATE, "traces", f"{wl.name}-seed{runner.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)

    metrics = {k: _median([p[k] for p in per_pass]) for k in PER_LAYER}
    # A layer that raises fails its pass, so count errors over every pass.
    for layer in LAYERS + ("cli",):
        metrics[f"{layer}.errors"] = sum(
            s["error"] is not None and s["name"].startswith(layer + ".")
            for p in spans for s in p["spans"])
    for key, name in CALL_MS.items():
        if key in PER_LAYER:
            metrics[key] = 1e3 * statistics.median(calls[name]) if name in calls else 0.0
    if traced_walls and untraced:
        metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(untraced) - 1.0)
    lines = [f"traced passes {len(per_pass)}, spans written to {os.path.relpath(trace_path, ROOT)}",
             f"untraced pass_s {percentile_summary(untraced)} s; "
             f"traced pass_s {percentile_summary(traced_walls)} s",
             "digest " + json.dumps(digests, sort_keys=True)]
    if per_pass:
        extra = {k: (1e3 * statistics.median(calls[n]) if n in calls else None)
                 for k, n in CALL_MS.items() if k not in PER_LAYER}
        extra["losses.busy_s"] = _median([p["losses.busy_s"] for p in per_pass])
        busiest = max(LAYERS, key=lambda layer: _median([p[f"{layer}.busy_s"] for p in per_pass]))
        lines.append(f"largest layer by busy_s: {busiest}")
        lines.extend(f"{k:34s} {v if v is not None else '-'}" for k, v in sorted(extra.items()))
    if per_pass and None not in metrics.values():
        return metrics, lines
    return None, lines


def run(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, report lines)."""
    runner = Runner(workload, seed, os.path.join(STATE, "work", workload.name))
    try:
        if trace:
            metrics, lines = run_traced(runner, seconds)
            units = PER_LAYER
        else:
            metrics, lines = run_untraced(runner, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    result = {"correct": runner.failed == 0 and metrics is not None,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": metrics[k] if metrics else 0, "unit": u}
                          for k, u in units.items()}}
    return result, lines + [f"problem: {p}" for p in runner.problems]


