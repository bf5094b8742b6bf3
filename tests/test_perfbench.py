"""Smoke test of the benchmark: one untimed ``desk-sparse`` round.

``perfbench/run.py`` exits 1 when one of its output checks fails, and also
when an interface of the program it calls breaks: the stage functions it
looks up in ``centbench.harness`` by name, ``KpathConfig.resolve``,
``ExperimentRecord``'s positional fields and ``run_experiment``'s return
value. Its checks recompute quantities with scipy.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_desk_sparse_round_passes_its_checks():
    pytest.importorskip("scipy")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-sparse",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
