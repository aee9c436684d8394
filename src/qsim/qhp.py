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
probability a_k^-2 = sum_j T_j^{2k}.  Both styles keep block 0 as the
survivor, so that branch is also the end of a chain of rounds
(chain_round): load the next copy above the survivor, CNOT the survivor's
primary into the copy's primary, keep the branch where the copy reads 0.
run_with_dynamic_stopping runs amplitude encoding that way, on two
registers.  The inner-product readouts of a consumed branch (k >= 2) use
its closed form and build no power circuit; qsim.inner gives them.
"""

from dataclasses import dataclass

import numpy as np

from . import sim
from .encoding import build_tree, load_amplitude, load_boe
from .errors import ZeroBranchError
from .sim import Circuit, Statevector


@dataclass(frozen=True)
class PowerPlan:
    k: int
    style: str = "no_mid_reset"     # or "mid_reset"
    encoding: str = "amplitude"     # or "boe"
    s: int = 1                      # BOE split level

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1 (k=0 is the classical constant term)")
        if self.style not in ("mid_reset", "no_mid_reset"):
            raise ValueError(f"unknown style {self.style!r}")
        if self.encoding not in ("amplitude", "boe"):
            raise ValueError(f"unknown encoding {self.encoding!r}")


@dataclass(frozen=True)
class QhpOutcome:
    success: bool
    rounds_executed: int   # QHP measurements actually performed
    loads: int             # serial loads m: t at the first failed round, k on success
    state: object = None   # surviving conditional state when requested


@dataclass
class PowerCircuit:
    width: int
    circuit: Circuit
    primary: tuple              # survivor's primary, global qubits, LSB first
    measured: list              # global primary tuple of each consumed block


def _block_primary(loader, b):
    return tuple(b * loader.width + q for q in loader.primary)


def norm_constant_ak(series, k):
    """a_k = (sum_j values_j^{2k})^{-1/2}; a_1 = 1 for normalized input."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(np.sum(series.values ** (2 * k)) ** -0.5)


def success_probability(series, k):
    """Joint probability that every QHP measurement reads 0."""
    return norm_constant_ak(series, k) ** -2


def expected_loads(series, k):
    """Expected serial loads m(k) under dynamic stopping.

    Exact chain expectation: the first t rounds all succeed with
    probability a_{t+1}^{-2}, a shot failing at round t counts t loads,
    full success counts k.
    """
    if k == 1:
        return 1.0
    succ = [norm_constant_ak(series, t) ** -2 for t in range(1, k + 1)]
    # succ[t] = P(first t rounds succeed) = a_{t+1}^{-2}
    total = k * succ[k - 1]
    for t in range(1, k):
        total += t * (succ[t - 1] - succ[t])
    return total


def make_loader(series, encoding="amplitude", s=1):
    """The loader of `series` for `encoding` (BOE at split level s).  It is
    built on first use and kept in series.loaders, so every power circuit
    and readout on one series shares one loader, and with it the loader's
    adjoint.  Loaders and their circuits are never mutated."""
    key = ("amplitude", None) if encoding == "amplitude" else ("boe", s)
    if key not in series.loaders:
        tree = build_tree(series)
        series.loaders[key] = (load_amplitude(tree) if key[0] == "amplitude"
                               else load_boe(tree, s))
    return series.loaders[key]


def power_circuit(series, k, style="no_mid_reset", encoding="amplitude", s=1):
    """Load `series` and build the circuit for its k-th power."""
    loader = make_loader(series, encoding, s)
    return build_power_circuit(PowerPlan(k=k, style=style, encoding=encoding, s=s),
                               loader)


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


def chain_round(loader, base, width):
    """(circuit, register) of one QHP round on `width` qubits: load a copy of
    `loader` onto qubits base .. base + width(loader) - 1, then CNOT the
    survivor's primary, block 0's, into the copy's primary, the register
    the round measures.  Block 0 must lie below `base`."""
    reg = tuple(base + q for q in loader.primary)
    circ = loader.circuit.remapped(range(base, base + loader.width), width)
    return circ.cnot_layer(loader.primary, reg), reg


def run_with_dynamic_stopping(plan, loader, shots, rng, keep_states=False):
    """Execute mid-reset QHP shots with per-shot abort on failure.

    Amplitude encoding runs on 2 registers, reloading the consumed one after
    each successful round; BOE loads all k blocks up front and measures only
    the primaries.  Every shot that reaches round t sees the same state, so
    each round is simulated once and the outcomes of all shots still running
    are drawn together; a non-zero outcome only needs sim.checked_branch on
    its view, not a projected copy.  Shot i reads row i of one (shots, k - 1)
    draw of uniforms, so a run's first m shots do not depend on how many
    follow.  Shots that end alike share one QhpOutcome unless it keeps a state.
    """
    if plan.style != "mid_reset":
        raise ValueError("dynamic stopping requires the mid_reset style")
    k = plan.k
    bw = loader.width

    # steps[t - 1]: (circuit of round t, register it measures)
    if plan.encoding == "amplitude":
        width, preloaded = 2 * bw, 1
        steps = [chain_round(loader, bw, width)] * (k - 1)
    else:
        width, preloaded = k * bw, k
        prim = [_block_primary(loader, b) for b in range(k)]
        steps = [(Circuit(width).cnot_layer(prim[0], prim[t]), prim[t])
                 for t in range(1, k)]

    st = Statevector.zero(width)
    for b in range(preloaded):
        loader.circuit.remapped(range(b * bw, (b + 1) * bw), width).apply_unitary(st)

    u = rng.generator.random((shots, k - 1))
    end = np.full(shots, k)         # the round a shot fails at, k on success
    alive = np.arange(shots)        # shots that have read 0 in every round
    errors = {}                     # first shot to draw a vanishing branch -> error
    for t, (step, reg) in enumerate(steps, start=1):
        if alive.size == 0:
            break
        step.apply_unitary(st)
        cum = np.cumsum(sim.marginal_probabilities(st, reg))
        drawn = np.minimum(np.searchsorted(cum, u[alive, t - 1] * cum[-1], side="right"),
                           len(cum) - 1)
        # outcome 0 comes last, so it collapses st in place for the next round
        for outcome in np.unique(drawn)[::-1].tolist():
            try:
                (sim.checked_branch if outcome else sim.project_bits)(st, reg, outcome)
            except ZeroBranchError as exc:
                errors[int(alive[drawn == outcome][0])] = exc
                drawn[drawn == outcome] = -1
        end[alive[drawn > 0]] = t
        alive = alive[drawn == 0]
    if errors:  # as in a per-shot loop, the lowest such shot raises
        raise errors[min(errors)]

    ends = [QhpOutcome(False, t, t) for t in range(k)] + [QhpOutcome(True, k - 1, k)]
    return [QhpOutcome(True, k - 1, k, st.copy()) if keep_states and e == k else ends[e]
            for e in end.tolist()]


def width_formula(k, style, swap, n):
    """Register count r(k) lg N plus the swap ancilla when present."""
    delta = 1 if swap else 0
    r = 2 if style == "mid_reset" else k + delta
    return r * n + delta


def depth_bound(k, style, swap, n, c_load):
    """Upper bound m(k) C_load + k + (3 lg N + 1) delta."""
    delta = 1 if swap else 0
    m = (k + (1 - delta)) if style == "mid_reset" else (1 + (1 - delta))
    return m * c_load + k + (3 * n + 1) * delta
