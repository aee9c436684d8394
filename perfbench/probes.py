"""Raw kernel probes for the traced run: one gate kernel per case on random
states of 12, 17 and 20 qubits, timed call by call.

These take the cases of benchmarks/kernel_bench.py (uncontrolled gate, gate
with 2 controls, controlled swap) and report nanoseconds per amplitude
touched, the median over calls.  At 20 qubits the state is 16 MiB, beyond
the 2 MiB per-core L2 but inside the 300 MiB L3 of the machine the
benchmark was sized on.
"""

from statistics import median
from time import perf_counter

import numpy as np

from qsim import kernels

SIZES = (12, 17, 20)
SWEEPS = {12: 20, 17: 3, 20: 1}
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def _calls(case, n):
    """(kernel, args, amplitudes touched) for one sweep of a case."""
    top2 = (1 << (n - 1)) | (1 << (n - 2))
    h = (INV_SQRT2, INV_SQRT2, INV_SQRT2, -INV_SQRT2)
    if case == "ctrl_1q":
        return [(kernels.apply_ctrl_1q, (n, 0, 0, t, *h), 1 << n) for t in range(n)]
    if case == "ctrl_1q_2c":
        return [(kernels.apply_ctrl_1q, (n, top2, top2, t, *h), 1 << (n - 2))
                for t in range(n - 2)]
    ctrl = 1 << (n - 1)
    return [(kernels.apply_cswap_pair, (n, ctrl, ctrl, a, a + 1), 1 << (n - 2))
            for a in range(n - 2)]


CASES = ("ctrl_1q", "ctrl_1q_2c", "cswap")


def metric_names():
    return [f"kernels.probe.{case}.q{n}.ns_per_amp" for case in CASES for n in SIZES]


def run(seed):
    rng = np.random.default_rng(seed)
    out = {}
    for n in SIZES:
        amps = _state(n, rng)
        for case in CASES:
            per_amp = []
            for _ in range(SWEEPS[n]):
                for fn, args, touched in _calls(case, n):
                    t = perf_counter()
                    fn(amps, *args)
                    per_amp.append((perf_counter() - t) / touched * 1e9)
            out[f"kernels.probe.{case}.q{n}.ns_per_amp"] = median(per_amp)
    return out
