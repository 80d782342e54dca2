"""The benchmark's own tests, so the harness cannot rot.

    python3 -m pytest bench/test_bench.py
"""

import subprocess
import sys
from pathlib import Path

import run

RUN = Path(__file__).resolve().parent / "run.py"


def test_tail_percentile_leaves_ten_ops_above():
    for count in (11, 33, 66, 113, 300):
        latencies = [float(i) for i in range(count)]
        value = run.tail_latency(latencies)
        assert sum(1 for x in latencies if x > value) >= 10
        assert sum(1 for x in latencies if x > value) < 10 + count / 100 + 1
    assert run.tail_percentile(300) == 96


def test_self_check_passes():
    proc = subprocess.run([sys.executable, str(RUN), "--self-check"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 4, proc.stdout
