"""The benchmark's worker runs every workload cleanly.

Each workload runs once through ``perfbench/worker.py`` as the benchmark
harness starts it: a fresh process from the repository root with ``src`` on
``PYTHONPATH``.  Its outputs then go through ``perfbench/checks.py``.  An
import error in ``turanpin.cli``'s import chain, a crashed or non-zero
command, or an output the checks reject fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SEED = 3


@pytest.mark.parametrize("workload", ["sweep", "sample", "worst_case", "construct"])
def test_worker_round_passes_checks(workload, tmp_path, monkeypatch):
    argv = [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", str(SEED), "--dir", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["warmup_failures"] == []

    monkeypatch.chdir(ROOT)  # checks reads the schemas from src/turanpin/schemas
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    facts = json.loads((PERFBENCH / "facts.json").read_text())
    tally = checks.CHECKS[workload](tmp_path, SEED, [c["rc"] for c in report["commands"]], facts)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.problems[:5]
