"""The benchmark's traced run exercises every counter its workloads require.

``perfbench/run.py --trace 1`` reads ``correct: false`` when a counter in
``tracer.EXERCISED`` is zero, so a change that stops calling a traced
layer fails the benchmark.  This test catches that here: in a fresh
interpreter it installs perfbench's own tracer and runs the first seed-1
round of a workload through the worker's op runner, which empties the
package caches before each op.  Nothing under ``perfbench/`` is changed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer, worker, workloads

name = sys.argv[2]
op, render, _ = workloads.OPS[name]
first_round = workloads.decode_inputs(name, workloads.make_inputs(name, 1))[0]
t = tracer.Tracer()
t.install(extra_namespaces=[workloads])
statuses = [worker._run_op(op, render, None, inp, t)[1] for inp in first_round]
counts = t.counts()
print(json.dumps({"statuses": statuses,
                  "exercised": {c: counts[c] for c in tracer.EXERCISED[name]}}))
"""


@pytest.mark.parametrize("workload", ["growth_zigzag", "enumerate_poset"])
def test_traced_round_exercises_every_required_counter(workload):
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(PERFBENCH), workload],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["statuses"] and set(result["statuses"]) == {"ok"}
    zero = [name for name, n in result["exercised"].items() if n == 0]
    assert not zero, f"counters that read zero: {zero}"
