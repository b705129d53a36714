"""The benchmark's own checks pass on what the engine produces.

`perfbench/selftest.py` runs each correctness check of the benchmark at a
tiny size, on the real program's output and on a corrupted copy of it, and
runs a traced operation through the span recorder, which reads the cost
volume's `costs` and `valid_views`.  An engine change that breaks a
benchmark check fails here, in the test suite, before a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
