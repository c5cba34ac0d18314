"""The benchmark's smoke self-test passes against this checkout.

perfbench/traced.py wraps layer functions the CLI calls with wrappers of
fixed signatures, so a change to such a signature breaks traced runs; this
runs perfbench/selftest.py (both trace modes at tiny sizes) to catch that.
"""

import os
import subprocess
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "selftest.py"], cwd=PERFBENCH, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
