"""The traced benchmark's counter contract, checked in the test suite.

`perfbench/run.py --trace 1` fails its self-test when a counter that
`run.NONZERO` expects on a workload reads zero, or one that `run.ZERO`
expects to be zero does not.  A change that stops a workload from reaching
a layer (a kernel, a readout, the power-circuit builder) would otherwise
show only in the benchmark.  This runs one traced pass over the first half
of each workload's ops, as the self-test does, and applies the same check.
run, tracer and workloads are imported read-only from the perfbench
directory.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["grover", "shots", "wide"])
def test_traced_pass_meets_counter_contract(workload):
    ops, _warm = workloads.build(workload, 101, 2)
    tr = tracer.Tracer()
    tr.install()
    try:
        for op in ops[:len(ops) // 2]:
            op.call()
    finally:
        tr.uninstall()
    values = tr.layer_metrics(1)
    assert [name for name in run.NONZERO[workload] if not values[name]] == []
    assert [name for name in run.ZERO[workload] if values[name]] == []
