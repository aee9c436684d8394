"""Quantum Hadamard Product circuits for k-th powers.

Two execution styles:

* no_mid_reset: k loaded registers combined by a balanced (left-heavy)
  pairing tree, ceil(lg k) CNOT rounds, all measurements deferred;
* mid_reset: a sequential chain of k-1 rounds.  Executed with real
  mid-circuit measurements (and dynamic stopping) the hardware picture
  needs only 2 registers for amplitude encoding; the deferred-measurement
  circuit built here keeps one register per load, which is unitarily
  equivalent because consumed registers are post-selected to |0>.

Conditional on every tagged register measuring 0, the surviving primary
register holds the normalized power state a_k * T_j^k, reached with
probability S_k = a_k^-2 = sum_j T_j^{2k}.  Both styles keep block 0 as the
survivor, so that branch is also the end of a chain of rounds: load the
next copy, CNOT the survivor's primary into the copy's primary, keep the
branch where the copy reads 0.  A shot that has survived t - 1 rounds
survives round t with probability S_{t+1} / S_t, which the loaded values
fix, so run_with_dynamic_stopping draws its shots from that chain and
simulates nothing.  The inner-product readouts (qsim.inner) use that
branch's closed form; only the k = 1 swap tests and canonical QAE's oracles
build a power circuit.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import build_tree, load_amplitude, load_boe
from .sim import Circuit


STYLES = ("mid_reset", "no_mid_reset")


@dataclass(frozen=True)
class PowerPlan:
    k: int
    style: str = "no_mid_reset"     # or "mid_reset"
    encoding: str = "amplitude"     # or "boe"
    s: int = 1                      # BOE split level

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1 (k=0 is the classical constant term)")
        if self.style not in STYLES:
            raise ValueError(f"unknown style {self.style!r}")
        if self.encoding not in ("amplitude", "boe"):
            raise ValueError(f"unknown encoding {self.encoding!r}")


@dataclass(frozen=True)
class QhpOutcome:
    success: bool
    rounds_executed: int   # QHP measurements actually performed
    loads: int             # serial loads m: t at the first failed round, k on success


@dataclass
class PowerCircuit:
    width: int
    circuit: Circuit
    primary: tuple              # survivor's primary, global qubits, LSB first
    measured: list              # global primary tuple of each consumed block


def _block_primary(loader, b):
    return tuple(b * loader.width + q for q in loader.primary)


def norm_constant_ak(series, k):
    """a_k = S_k^{-1/2}; a_1 = 1 for normalized input."""
    return success_probability(series, k) ** -0.5


def success_probability(series, k):
    """Joint probability that every QHP measurement reads 0:
    S_k = sum_j values_j^{2k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return float((series.values ** (2 * k)).sum())


def expected_loads(series, k):
    """Expected serial loads m(k) under dynamic stopping.

    Exact chain expectation: a shot failing at round t counts t loads and
    full success counts k, so m(k) sums P(m >= t) = P(the first t - 1
    rounds succeed) = S_t over t = 1 .. k, where S_1 = 1.
    """
    return 1.0 + sum(success_probability(series, t) for t in range(2, k + 1))


def make_loader(series, encoding="amplitude", s=1):
    """The loader of `series` for `encoding` (BOE at split level s).  It is
    built on first use and kept in series.loaders, so every power circuit
    and readout on one series shares one loader.  Loaders and their
    circuits are never mutated."""
    key = ("amplitude", None) if encoding == "amplitude" else ("boe", s)
    if key not in series.loaders:
        tree = build_tree(series)
        series.loaders[key] = (load_amplitude(tree) if key[0] == "amplitude"
                               else load_boe(tree, s))
    return series.loaders[key]


def power_circuit(series, k, encoding="amplitude", s=1):
    """Load `series` and build the no_mid_reset circuit for its k-th power."""
    loader = make_loader(series, encoding, s)
    return build_power_circuit(PowerPlan(k=k, encoding=encoding, s=s), loader)


def build_power_circuit(plan, loader):
    """Assemble the deferred-measurement power circuit: k copies of
    `loader`, block b on qubits b w .. (b + 1) w - 1, then one CNOT layer
    per round, from the control block's primary to the target block's.

    The circuit is unitary; consumed primaries are listed in `measured`
    and are post-selected (or measured) by the caller.  Both styles keep
    block 0 as the survivor.
    """
    k, bw = plan.k, loader.width
    if plan.style == "mid_reset":
        rounds = [(0, t) for t in range(1, k)]
    else:
        rounds, active = [], list(range(k))
        while len(active) > 1:
            # pair neighbours; each pair's control and an odd block out go on
            rounds += [(active[i], active[i + 1]) for i in range(0, len(active) - 1, 2)]
            active = active[::2]
    width = k * bw
    circ = Circuit(width)
    for b in range(k):
        circ.extend(loader.circuit.remapped(range(b * bw, (b + 1) * bw), width))
    for c, t in rounds:
        circ.cnot_layer(_block_primary(loader, c), _block_primary(loader, t))
    return PowerCircuit(width=width, circuit=circ, primary=_block_primary(loader, 0),
                        measured=[_block_primary(loader, t) for _c, t in rounds])


def run_with_dynamic_stopping(plan, loader, shots, rng):
    """Execute mid-reset QHP shots with per-shot abort on failure.

    One loaded block's primary reads j with probability p_j = leaves_j^2,
    for amplitude encoding and for BOE, whose side states are orthonormal.
    So a shot that has read 0 in rounds 1 .. t - 1 reads 0 in round t with
    probability q_t = sum_j p_j^{t+1} / sum_j p_j^t = S_{t+1} / S_t, and no
    state is simulated: shot i ends at the first round t whose uniform
    u[i, t - 1] >= q_t, or at k.  Shot i reads row i of one (shots, k - 1)
    draw of uniforms, so a run's first m shots do not depend on how many
    follow.  Shots that end alike share one QhpOutcome.
    """
    if plan.style != "mid_reset":
        raise ValueError("dynamic stopping requires the mid_reset style")
    k = plan.k
    p = loader.leaves ** 2
    q = [float(np.dot(p ** t, p) / np.sum(p ** t)) for t in range(1, k)]
    # shot i fails round t + 1 where u[i, t] >= q_t; `lost` counts its rounds
    # from the first failure on, so a shot that has lost f ends at round k - f
    lost, dead = np.zeros(shots, np.intp), np.zeros(shots, bool)
    for u, q_t in zip(rng.generator.random((shots, k - 1)).T, q):
        dead |= u >= q_t
        lost += dead
    ends = np.array([QhpOutcome(True, k - 1, k)]
                    + [QhpOutcome(False, t, t) for t in range(k - 1, 0, -1)], object)
    return ends[lost].tolist()

