"""clusterseg benchmark: end-to-end throughput and per-layer traced timings.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wellposed-128 --seed 1 --seconds 20 --trace 0

The workloads are defined in perfbench/plan.py and listed, with their
metrics, in BENCHMARK.json. Every command runs in this process through
`clusterseg.cli.main` with `--jobs 1`.

--trace 0 times closed-loop passes of the workload's CLI commands with
tracing off, each pass after a round of set-ups, and reports the
end-to-end metrics, with setup_s and pipeline_fps scaled to a
nominal-speed host by the host-speed kernels of perfbench/calibrate.py
(the raw figures are printed too). --trace 1 alternates
an untraced pass with a traced pass of the same commands: it runs
`clusterseg.cli.main` with the layer functions wrapped by span recorders
(perfbench/traced.py) and reports per-layer metrics from those spans; the
spans are also written to .perfbench/traces/. Both modes check every
pass's outputs, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it record the machine, every metric of the
benchmark's design (including those not in BENCHMARK.json because they do
not apply to every workload) and the SHA-256 digest of each workload's output files.
"""

import argparse
import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_program():
    """Put the checkout's src/ first on sys.path; fail without a result if absent."""
    if not os.path.isfile(os.path.join(SRC, "clusterseg", "__init__.py")):
        sys.exit(f"perfbench: no clusterseg sources under {SRC}")
    sys.path.insert(0, SRC)
    import clusterseg
    if os.path.dirname(os.path.dirname(os.path.abspath(clusterseg.__file__))) != SRC:
        sys.exit(f"perfbench: clusterseg was imported from {clusterseg.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    opts = parse_args(argv)
    import_program()
    from measure import machine_record, run
    from plan import WORKLOADS
    if opts.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {opts.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    machine = machine_record()
    result, lines = run(WORKLOADS[opts.workload], opts.seed, opts.seconds, opts.trace)
    machine["loadavg_end"] = list(os.getloadavg())
    print(f"workload {opts.workload} seed {opts.seed} trace {opts.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']!r} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
