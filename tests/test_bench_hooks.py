"""The benchmark's hooks into qsim still resolve.

perfbench/tracer.py wraps qsim functions by name and perfbench/workloads.py
builds its ops from qsim's public entry points.  Neither runs in the test
suite otherwise, so renaming or deleting a name they use (for example
`sim.postselect`, which no qsim code calls) would break only the benchmark.
Both modules are imported read-only from the perfbench directory.
"""

import inspect
import sys
from pathlib import Path

import pytest

from qsim import kernels

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("target", tracer.targets(),
                         ids=lambda t: f"{t[0]}:{t[2]}")
def test_tracer_target_resolves(target):
    _layer, owner, attribute, _observe = target
    assert callable(getattr(owner, attribute, None))


@pytest.mark.parametrize("workload", ["grover", "shots", "wide"])
def test_workload_builds(workload):
    ops, warm = workloads.build(workload, 0, 2)
    assert ops and warm is not None


@pytest.mark.parametrize("kernel", ["apply_ctrl_1q", "apply_cswap_pair"])
def test_kernel_arguments_the_tracer_reads(kernel):
    # the tracer's kernel observers read args[1] as the state width and
    # args[2] as the control mask; a reordered signature would silently
    # corrupt kernels.amps and sim.peak_qubits
    params = list(inspect.signature(getattr(kernels, kernel)).parameters)
    assert params[1:3] == ["n_qubits", "ctrl_mask"]
