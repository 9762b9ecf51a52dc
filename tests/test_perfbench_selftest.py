"""The benchmark's self-test pins hand counts and tracer behaviour; it must pass.

It checks the per-check simulation and noise-key counts of both shipped
configs, the desk estimate's call counts, the tracer's argument binding and
that every wrapper is restored, also after an exception.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
