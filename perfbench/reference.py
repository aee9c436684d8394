"""A fixed reference load that measures how fast this machine runs right now.

The VM the benchmark was sized on (2 vCPUs) changes speed by up to 1.6x for
tens of seconds at a time as other tenants load its host; the same op, on
the same inputs, took 0.35 s in one minute and 0.6 s in the next.  Raw wall
times of whole 30 s runs varied by a quarter from run to run, with no
change to the work.  So the benchmark times this reference load between
ops, and reports times scaled to the speed at which the reference load
takes REF_S.

The load is the benchmark's own code, not qsim's, so no change to qsim can
move it.  It resembles qsim's own work, one-qubit gates applied by fancy
indexing, in one of two profiles (see Reference) matched to a workload's
state sizes: per-call overhead on small states, or array passes on states
beyond L2.  A sample is the geometric mean of its two parts, each the best
of two tries, and takes about 6 ms.
"""

import math
from statistics import median
from time import perf_counter

import numpy as np

# Time of one sample of each profile in the VM's fast state (host idle), on
# the VM the benchmark was sized on; in its slow state a "small" sample
# takes about 1.1 ms.
REF_S = {"small": 7.0e-4, "large": 1.0e-3}
SMOOTH = 2


def _pair_indices(n, target):
    """Indices with the target bit 0, and their partners with it 1."""
    idx = np.zeros(1, dtype=np.int64)
    for b in range(n):
        if b != target:
            idx = np.concatenate([idx, idx | (1 << b)])
    return idx, idx | (1 << target)


def _sweep(amps, n, gates):
    c, s = 0.6, 0.8
    for g in range(gates):
        i0, i1 = _pair_indices(n, g % n)
        a0, a1 = amps[i0], amps[i1]
        amps[i0] = c * a0 - s * a1
        amps[i1] = s * a0 + c * a1


class Reference:
    """profile "small": 30 gates on a 10-qubit state and one on a 16-qubit
    state; profile "large": one gate on a 16-qubit state and one scaling
    pass over a 21-qubit (32 MiB) state, for workloads whose states
    outgrow L2."""

    def __init__(self, profile):
        self.profile = profile
        self.ref_s = REF_S[profile]
        self._s10 = np.full(1 << 10, 2.0**-5, dtype=np.complex128)
        self._s16 = np.full(1 << 16, 2.0**-8, dtype=np.complex128)
        self._s21 = np.full(1 << 21, 2.0**-10.5, dtype=np.complex128) \
            if profile == "large" else None

    @staticmethod
    def _best_of_two(work):
        best = math.inf
        for _ in range(2):
            t = perf_counter()
            work()
            best = min(best, perf_counter() - t)
        return best

    def sample(self):
        """Seconds for one reference sample."""
        mid = self._best_of_two(lambda: _sweep(self._s16, 16, 1))
        if self.profile == "small":
            other = self._best_of_two(lambda: _sweep(self._s10, 10, 30))
        else:
            other = self._best_of_two(lambda: np.multiply(self._s21, 1.0, out=self._s21))
        return math.sqrt(mid * other)


def speed_factors(ref_s, samples, n_ops):
    """Scale factor of each op, from the samples taken before each op and
    after the last: ref_s over the median of the SMOOTH samples on either
    side of the op."""
    return [ref_s / median(samples[max(0, i - SMOOTH + 1):i + SMOOTH + 1])
            for i in range(n_ops)]
