"""Dense statevector simulator.

Qubit 0 is the least-significant bit of the basis index, everywhere.
A register described by a qubit sequence (q_0, q_1, ...) stores its value
with q_0 as the least-significant bit.

Gates, of the three kinds Circuit lists, reach the kernels only through
Circuit.apply_unitary, which mutates the amplitude array in place and
returns the same Statevector object; callers that need the original state
must copy() first.

A Statevector records `live`, the number of low qubits outside which every
amplitude is zero: amplitude i is zero whenever i >= 2**live.  zero() starts
at live = 0; a state built from amplitudes starts at n_qubits; copy() keeps
it.  While live < n_qubits, apply_unitary raises live to each gate's
highest qubit + 1 and applies the gate to the contiguous prefix
amplitudes[:2**live] as a live-qubit state, so loading one register
after another does not sweep the still-empty upper blocks.  This is exact: every skipped amplitude is zero and the gate maps
zeros to zeros, and every other amplitude sees the same complex128
operations in the same order as on the full array (a zero may keep +0.0
where the full pass would write -0.0).  In-place updates outside
apply_unitary (project_bits, the QAE reflections) only scale amplitudes or
set them to zero, so live stays valid.  Once live == n_qubits the gates run
on the whole array.  Register readouts read and write register_view, a
strided view of the amplitudes that hold one register value, so they build
no 2^n index or mask array.
"""

import os
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import ZeroBranchError

NORM_TOL = 1e-10
UNITARY_TOL = 1e-8
ZERO_BRANCH_CUTOFF = 1e-14
# Widest state a Statevector may allocate: half of physical memory.
MAX_STATE_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2

SQRT1_2 = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]], dtype=complex)
_HADAMARD_PAYLOAD = tuple(HADAMARD.ravel().tolist())


class RngStream:
    """Seeded counter-based random stream (Philox) with explicit splitting.

    Identical seeds give bit-identical sample sequences.  split() derives
    independent child streams deterministically, so independent parts of a
    run, such as the power indices, can each own a stream without
    coordination.  A stream builds its generator on first use, so streams
    that are split off but never drawn from cost no Philox state.
    """

    def __init__(self, seed=None, _seq=None):
        self._seq = _seq if _seq is not None else np.random.SeedSequence(seed)

    @cached_property
    def generator(self):
        return np.random.Generator(np.random.Philox(self._seq))

    def split(self, n):
        return [RngStream(_seq=s) for s in self._seq.spawn(n)]

    def child(self):
        return self.split(1)[0]

    # convenience passthroughs
    def binomial(self, n, p):
        return self.generator.binomial(n, p)

    def multinomial(self, n, pvals):
        return self.generator.multinomial(n, pvals)


class Statevector:
    """Dense complex amplitude vector over n_qubits."""

    def __init__(self, n_qubits, amplitudes=None):
        self.n_qubits = int(n_qubits)
        dim = 1 << self.n_qubits
        if 16 * dim > MAX_STATE_BYTES:
            raise ValueError(f"a {self.n_qubits}-qubit statevector needs {16 * dim} "
                             f"bytes, over half of physical memory ({MAX_STATE_BYTES})")
        if amplitudes is None:
            amps = np.zeros(dim, dtype=np.complex128)
            amps[0] = 1.0
        else:
            amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
            if amps.size != dim:
                raise ValueError(f"expected {dim} amplitudes, got {amps.size}")
            norm = np.sum(np.abs(amps) ** 2)
            if abs(norm - 1.0) > NORM_TOL:
                raise ValueError(f"state not normalized: |amps|^2 = {norm}")
        self.amplitudes = amps
        self.live = 0 if amplitudes is None else self.n_qubits

    @classmethod
    def zero(cls, n_qubits):
        return cls(n_qubits)

    def copy(self):
        out = Statevector.__new__(Statevector)
        out.n_qubits = self.n_qubits
        out.amplitudes = self.amplitudes.copy()
        out.live = self.live
        return out


def _as_qubits(reg):
    return tuple(int(q) for q in reg)


def _check_qubits(space, qubits):
    """Raise unless every qubit indexes `space` (a Statevector or Circuit)."""
    for q in qubits:
        if not 0 <= q < space.n_qubits:
            raise ValueError(f"qubit {q} out of range for {space.n_qubits} qubits")


def register_qubits(space, qubits):
    """The qubit tuple of a register on `space`; raise unless each qubit
    indexes `space` and appears once."""
    qubits = _as_qubits(qubits)
    _check_qubits(space, qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"register {qubits} names a qubit more than once")
    return qubits


def marginal_probabilities(state, qubits):
    """Born probabilities of the register's 2^len outcomes.

    The probabilities are laid out as (other qubits, register qubits), each
    axis most-significant qubit first, and summed down the rows in basis
    index order; cumsum keeps that order, where sum would pair the terms.
    """
    qubits = register_qubits(state, qubits)
    n = state.n_qubits
    others = [q for q in range(n) if q not in qubits]
    axes = [n - 1 - q for q in others[::-1] + list(qubits[::-1])]
    table = (np.abs(state.amplitudes) ** 2).reshape((2,) * n).transpose(axes)
    return np.cumsum(table.reshape(1 << len(others), 1 << len(qubits)), axis=0)[-1]


def register_view(state, qubits, value):
    """The amplitudes whose register holds `value` (empty when out of range)
    as a strided view into state.amplitudes, in basis-index order; 0-d when
    the register holds every qubit."""
    qubits = register_qubits(state, qubits)
    if not 0 <= value < 1 << len(qubits):
        return state.amplitudes[:0]
    mask = sum(1 << q for q in qubits)
    bits = sum(((value >> pos) & 1) << q for pos, q in enumerate(qubits))
    shape, idx, _, _ = kernels._view_plan(state.n_qubits, mask, bits, bits)
    return state.amplitudes.reshape(shape)[idx]


def _probability(view):
    # flattened first: squaring a 0-d view would take scalar pow's rounding;
    # squared in place, so one float temporary of the view's size is live
    probs = np.abs(view.reshape(-1))
    np.square(probs, out=probs)
    return float(np.sum(probs))


def probability_of_bits(state, qubits, value):
    return _probability(register_view(state, qubits, value))


def checked_branch(state, qubits, value):
    """(probability, register_view) of register == value, or ZeroBranchError."""
    view = register_view(state, qubits, value)
    prob = _probability(view)
    if prob < ZERO_BRANCH_CUTOFF:
        raise ZeroBranchError(f"branch value={value} has probability {prob:.3e}")
    return prob, view


def project_bits(state, qubits, value):
    """Keep-width projection onto register == value, renormalized.

    Returns (probability, state); the input state is mutated.
    """
    prob, view = checked_branch(state, qubits, value)
    kept = view / np.sqrt(prob)
    state.amplitudes[:] = 0.0
    view[...] = kept
    return prob, state


def measure(state, reg, rng):
    """Mid-circuit measurement of a register.

    Returns (outcome, collapsed, probability); the collapsed state keeps its
    full width, with the measured register left in the outcome basis state.
    """
    probs = marginal_probabilities(state, reg)
    cum = np.cumsum(probs)
    u = rng.generator.random() * cum[-1]
    outcome = min(int(np.searchsorted(cum, u, side="right")), len(probs) - 1)
    prob, state = project_bits(state, reg, outcome)
    return outcome, state, prob


def postselect(state, reg, value):
    """Condition on a contiguous register reading `value` and drop it.

    Returns (probability, renormalized) where the renormalized state spans
    the remaining qubits.
    """
    qubits = _as_qubits(reg)
    start, width = qubits[0], len(qubits)
    if qubits != tuple(range(start, start + width)):
        raise ValueError("postselect requires a contiguous register")
    prob, view = checked_branch(state, qubits, value)
    reduced = Statevector.zero(state.n_qubits - width)
    reduced.amplitudes[:] = (view / np.sqrt(prob)).reshape(-1)
    reduced.live = reduced.n_qubits
    return prob, reduced


# ---------------------------------------------------------------------------
# Circuit representation
# ---------------------------------------------------------------------------

def _frozen(*entries):
    """The payload entries, each array among them made read-only."""
    for u in entries:
        if isinstance(u, np.ndarray):
            u.setflags(write=False)
    return entries


@lru_cache(maxsize=4096)
def _pattern_axes(controls):
    """(mask, axes) for a u gate's controls.  A payload entry with one axis
    per control, controls[0] first, transposed by axes has the highest
    control qubit first, the kernel's pattern order; axes is None when the
    controls already descend."""
    axes = tuple(sorted(range(len(controls)), key=lambda k: -controls[k]))
    return (sum(1 << q for q in controls),
            None if axes == tuple(range(len(controls))) else axes)


class Circuit:
    """A flat gate list over n_qubits.

    Every gate is one (kind, qubits, payload) tuple:
      ("u", controls + (target,), (u00, u01, u10, u11))  -- uniformly
          controlled 2x2; with c controls each entry is a read-only array
          of 2^c coefficients, one per control pattern, controls[0] the
          pattern's most-significant bit; with none, a Python number
      ("layer", controls + targets, None)    -- CNOTs control_i -> target_i
      ("cswap", (control,) + a + b, None)    -- swap a and b where control=1

    u, ry and ucry all build "u" gates; an Ry's (c, -s, s, c) is computed
    as the gate is built, by one cos and one sin over all of its angles.
    Entries are immutable (numbers, read-only arrays) because remapped()
    and extend() share them between circuits; inverse() conjugates them,
    and a real entry's conjugate is the entry itself.  A gate reaches the
    kernel in one call, whatever its number of control patterns.  The
    builder methods check their qubits against n_qubits, refuse a qubit
    named twice in one gate and give ucry one angle per control pattern, so
    a bad gate fails where it is added rather than where it is applied.
    Reflections about a register value, such as a QAE oracle's good
    subspace, are applied in place by qae.GroverOracle, not as gates.
    """

    def __init__(self, n_qubits, gates=None):
        self.n_qubits = n_qubits
        self.gates = list(gates) if gates else []

    def u(self, qubit, mat):
        _check_qubits(self, (qubit,))
        m = np.asarray(mat, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("u must be 2x2")
        dev = np.linalg.norm(m.conj().T @ m - np.eye(2))
        if dev > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (Frobenius deviation {dev:.2e})")
        self.gates.append(("u", (qubit,), tuple(m.ravel().tolist())))
        return self

    def ry(self, qubit, angle):
        return self.ucry((), qubit, (angle,))

    def h(self, qubit):
        _check_qubits(self, (qubit,))
        self.gates.append(("u", (qubit,), _HADAMARD_PAYLOAD))
        return self

    def ucry(self, controls, target, angles):
        qubits = tuple(controls) + (target,)
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit indices in uniformly controlled Ry")
        if len(angles) != 1 << len(controls):
            raise ValueError(f"{len(controls)} controls need {1 << len(controls)} "
                             f"angles, got {len(angles)}")
        _check_qubits(self, qubits)
        if controls:
            half = np.multiply(angles, 0.5)  # a * 0.5 rounds as a / 2 does
            c, s = np.cos(half), np.sin(half)
            payload = _frozen(c, -s, s, c)
        else:
            half = float(angles[0]) / 2.0
            c, s = float(np.cos(half)), float(np.sin(half))
            payload = (c, -s, s, c)
        self.gates.append(("u", qubits, payload))
        return self

    def cnot_layer(self, controls, targets):
        """Pairwise CNOTs control_i -> target_i; one depth layer."""
        controls = _as_qubits(controls)
        targets = _as_qubits(targets)
        if len(controls) != len(targets):
            raise ValueError("controls and targets must have equal length")
        if len(set(controls + targets)) != 2 * len(controls):
            raise ValueError("controls and targets overlap or repeat a qubit")
        _check_qubits(self, controls + targets)
        self.gates.append(("layer", controls + targets, None))
        return self

    def cswap(self, control, a, b):
        """Exchange registers a and b on the control=1 branch."""
        control = int(control)
        a = _as_qubits(a)
        b = _as_qubits(b)
        if len(a) != len(b):
            raise ValueError("register sizes differ")
        touched = set(a) | set(b)
        if len(a) + len(b) != len(touched) or control in touched:
            raise ValueError("overlapping registers in controlled swap")
        _check_qubits(self, a + b + (control,))
        self.gates.append(("cswap", (control,) + a + b, None))
        return self

    def extend(self, other):
        if other.n_qubits > self.n_qubits:
            raise ValueError("sub-circuit wider than target")
        self.gates.extend(other.gates)
        return self

    def inverse(self):
        """Gates in reverse order, each u matrix conjugate-transposed; a CNOT
        layer and a controlled swap are their own inverses."""
        inv = Circuit(self.n_qubits)
        for kind, qubits, payload in reversed(self.gates):
            if kind == "u":
                u00, u01, u10, u11 = payload
                payload = _frozen(u00.conjugate(), u10.conjugate(), u01.conjugate(),
                                  u11.conjugate())
            inv.gates.append((kind, qubits, payload))
        return inv

    def remapped(self, qubit_map, n_qubits):
        """Copy with local qubit i renamed to qubit_map[i] (a sequence)."""
        return Circuit(n_qubits, [(kind, tuple(qubit_map[q] for q in qubits), payload)
                                  for kind, qubits, payload in self.gates])

    @staticmethod
    def _apply_gate(amps, n, gate):
        kind, qubits, payload = gate
        if kind == "u":
            mask, axes = _pattern_axes(qubits[:-1])
            if axes is not None:
                payload = [u.reshape((2,) * len(axes)).transpose(axes).ravel()
                           for u in payload]
            kernels.apply_ctrl_1q(amps, n, mask, None, qubits[-1], *payload)
        elif kind == "layer":
            half = len(qubits) // 2
            for c, t in zip(qubits[:half], qubits[half:]):
                kernels.apply_cnot(amps, n, c, t)
        elif kind == "cswap":
            control = 1 << qubits[0]
            half = (len(qubits) + 1) // 2
            for qa, qb in zip(qubits[1:half], qubits[half:]):
                kernels.apply_cswap_pair(amps, n, control, control, qa, qb)
        else:
            raise ValueError(f"unexpected gate in unitary application: {kind}")

    def apply_unitary(self, state):
        gates = iter(self.gates)
        # live prefix (module docstring): until the state is live on every
        # qubit, run each gate on the amplitudes its qubits can reach
        while state.live < state.n_qubits:
            gate = next(gates, None)
            if gate is None:
                return state
            state.live = max(state.live, max(gate[1], default=-1) + 1)
            self._apply_gate(state.amplitudes[:1 << state.live], state.live, gate)
        for g in gates:
            self._apply_gate(state.amplitudes, state.n_qubits, g)
        return state
