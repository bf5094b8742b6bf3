"""Smoke test of the benchmark: one untimed round of two workloads.

``perfbench/run.py`` exits 1 when one of its output checks fails, and also
when an interface of the program it calls breaks: the stage functions it
looks up in ``centbench.harness`` by name, which ``cell_scores`` (the stage
seam ``run_cell`` runs each cell through) must call as module globals, once
per cell and in stage order; ``run_cell`` itself, which ``run_experiment``
must look up by name and call once per cell with the cell key (family, n,
param, seed) as its first four positional arguments;
``KpathConfig.resolve``, ``ExperimentRecord``'s positional fields and
``run_experiment``'s return value. ``desk-sparse`` builds its configs as
``ExperimentConfig`` and ``replace(cfg.got, seed=...)``; ``thieves-scarce``
builds ``GotConfig(vdiamonds_per_node=1, seed=...)`` itself and runs
``run_got`` on a Holme-Kim graph at n = 10^4 with one vdiamond per node.
The checks recompute quantities with scipy.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["desk-sparse", "thieves-scarce"])
def test_round_passes_its_checks(workload):
    pytest.importorskip("scipy")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
