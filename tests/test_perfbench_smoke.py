"""The benchmark's workloads still drive the package's public API.

One traced repetition of each workload, run as the bench runs it: a fresh
interpreter on perfbench/workloads.py with src/ on PYTHONPATH.  A renamed
function or attribute, a changed return shape or a dropped constructor
argument shows up as a failed check or a missing traced call in the
repetition's `errors`.
"""

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# laser_scan and thermal_gates go through cli.main, run_scenario and
# simulate_events, one per source kind: thermal_gates also checks the
# 200 ns washout and its 40 generation and 120 estimator calls
@pytest.mark.parametrize("workload", ["exact_oracle", "timetag_g2", "laser_scan",
                                      "thermal_gates"])
def test_workload_repetition_has_no_errors(tmp_path, workload):
    cmd = [sys.executable, str(ROOT / "perfbench" / "workloads.py"),
           "--workload", workload, "--seed", "1", "--trace", "1",
           "--dir", str(tmp_path / "run"), "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["errors"] == []


def test_every_traced_target_resolves(monkeypatch):
    # the tracer skips an attribute that its module lacks, and no call count
    # guards the fits, so a renamed fit would read 0 s as stochastic.fit with
    # no error; scenarios is the one module that never imports fit_fringe
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    workloads = importlib.import_module("workloads")
    missing = [(module.__name__, attr) for module, attr, *_ in workloads.layer_targets()
               if not hasattr(module, attr)]
    assert missing == [("chromint.scenarios", "fit_fringe")]
