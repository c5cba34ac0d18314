"""clusterseg depends on numpy and the standard library alone."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prints the top-level names of the modules that importing clusterseg and
# running it on a tiny frame loads; the interpreter's own startup modules
# (site hooks) are not counted.
SCRIPT = """
import sys
before = set(sys.modules)
from clusterseg import (CameraIntrinsics, GeneratorConfig, annotate, compute_metrics,
                        oracle_predict, render, sample_scene, segment)
camera = CameraIntrinsics(16.0, 16.0, 8.0, 8.0, 16, 16)
scene = sample_scene(0, GeneratorConfig(count_range=(1, 2), size_range=(0.1, 0.2), camera=camera))
frame = render(scene)
compute_metrics([(segment(oracle_predict(annotate(scene, frame))), frame)])
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_clusterseg_loads_only_numpy_and_the_standard_library():
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert {"clusterseg", "numpy"} <= set(loaded)
    # numpy's compiled extensions register Cython's runtime modules.
    foreign = [name for name in loaded
               if name not in ("clusterseg", "numpy", "cython_runtime")
               and not name.startswith("_cython_") and name not in sys.stdlib_module_names]
    assert foreign == []
