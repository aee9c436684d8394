"""Dense statevector simulator.

Qubit 0 is the least-significant bit of the basis index, everywhere.
A register described by a qubit sequence (q_0, q_1, ...) stores its value
with q_0 as the least-significant bit.

Gates, of the three kinds Circuit lists, reach the kernels only through
Circuit.apply_unitary, which mutates the amplitude array in place and
returns the same Statevector object; callers that need the original state
must copy() first.

Each apply_unitary call finds its own live prefix: `live` low qubits
outside which every amplitude is zero.  live starts at 0 when no amplitude
past index 0 is nonzero (as from zero()) and at n_qubits otherwise; each
gate raises it to the gate's highest qubit + 1 and runs on the contiguous
prefix amplitudes[:2**live] as a live-qubit state, so loading one register
after another does not sweep the still-empty upper blocks.  This is exact:
every skipped amplitude is zero and the gate maps zeros to zeros, and every
other amplitude sees the same float64 operations in the same order as on
the full array (a zero may keep +0.0 where the full pass would write -0.0).
Register readouts read and write register_view, a strided view of the
amplitudes that hold one register value, so they build no 2^n index or
mask array.

Amplitudes are float64: every gate is a real matrix and every in-place
update (a sign flip, the reflection about a real chi, a projection) keeps a
real state real, so complex amplitudes would carry zero imaginary parts at
twice the bytes.  Float64 arithmetic gives complex128's real-part bits,
except in division: NumPy divides a complex a by a real p as a * (1 / p),
so project_bits and postselect scale by 1.0 / sqrt(prob).
"""

import numbers
import os
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import kernels

NORM_TOL = 1e-10
ZERO_BRANCH_CUTOFF = 1e-14
# Widest state a Statevector may allocate: half of physical memory.
MAX_STATE_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2

SQRT1_2 = 1.0 / np.sqrt(2.0)
HADAMARD = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]])
_HADAMARD_PAYLOAD = tuple(HADAMARD.ravel().tolist())


MAX_PATH = 3  # split depth: Philox counter words 1..3 hold a stream's path


class _PhiloxKey(ISeedSequence):
    """A fixed Philox key as a seed: Philox asks it for generate_state(2,
    uint64), so Philox(_PhiloxKey(key), counter=c) is Philox(key=key,
    counter=c) without the OS entropy key= reads for a SeedSequence it drops."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


class _FirstDraw:
    """RngStream.generator: a stream's first draw builds its Generator and
    sets it as the plain instance attribute, which shadows this non-data
    descriptor on every later draw."""

    def __get__(self, stream, owner=None):
        if stream is None:
            return self
        path = stream.path
        counter = (0, *path, *(0,) * (MAX_PATH - len(path)))
        stream.generator = gen = np.random.Generator(
            np.random.Philox(stream.key, counter=counter))
        return gen


class RngStream:
    """Seeded counter-based random stream (Philox) with explicit splitting.

    A seed fixes one Philox key, SeedSequence(seed).generate_state(2,
    uint64), kept as uint64 words (a Python-int key loses bits above 2^53).
    A stream draws what Generator(Philox(key=key, counter=[0, *path, 0...]))
    draws, where path holds i + 1 for its child index i at each depth.  Word
    0 is the block counter, so streams on different paths cannot overlap
    below 2^64 blocks each, and the root, on counter zero, draws what
    Philox(SeedSequence(seed)) draws.  child() makes the next child; split(n)
    makes n of them, so numbering continues across both, at most MAX_PATH
    levels deep.  A child costs one Philox, built on its first draw and then
    kept as the plain attribute `generator`, so a stream never drawn from
    costs no Philox state.  The seed is a non-negative integer (ValueError
    otherwise); None takes fresh OS entropy, as SeedSequence() does.
    """

    def __init__(self, seed=None):
        if seed is not None and (not isinstance(seed, numbers.Integral) or seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        seq = np.random.SeedSequence(None if seed is None else int(seed))
        self.key = _PhiloxKey(seq.generate_state(2, np.uint64))
        self.path, self.n_children = (), 0

    generator = _FirstDraw()

    def split(self, n):
        return [self.child() for _ in range(n)]

    def child(self):
        if len(self.path) == MAX_PATH:
            raise ValueError(f"streams split at most {MAX_PATH} levels deep")
        self.n_children += 1
        out = RngStream.__new__(RngStream)
        out.key, out.path, out.n_children = self.key, (*self.path, self.n_children), 0
        return out

    # convenience passthroughs
    def binomial(self, n, p):
        return self.generator.binomial(n, p)

    def multinomial(self, n, pvals):
        return self.generator.multinomial(n, pvals)


class Statevector:
    """Dense real (float64) amplitude vector over n_qubits.

    Amplitudes given as a complex array must have zero imaginary parts.
    """

    def __init__(self, n_qubits, amplitudes=None):
        self.n_qubits = int(n_qubits)
        if self.n_qubits >= (MAX_STATE_BYTES >> 3).bit_length():
            raise ValueError(f"a {self.n_qubits}-qubit statevector needs 2^{self.n_qubits + 3} "
                             f"bytes, over half of physical memory ({MAX_STATE_BYTES} bytes)")
        dim = 1 << self.n_qubits
        if amplitudes is None:
            amps = np.zeros(dim)
            amps[0] = 1.0
        else:
            amps = np.asarray(amplitudes)
            if np.iscomplexobj(amps) and amps.imag.any():
                raise ValueError("amplitudes must be real")
            amps = amps.real.astype(np.float64).reshape(-1)
            if amps.size != dim:
                raise ValueError(f"expected {dim} amplitudes, got {amps.size}")
            norm = np.sum(np.abs(amps) ** 2)
            if abs(norm - 1.0) > NORM_TOL:
                raise ValueError(f"state not normalized: |amps|^2 = {norm}")
        self.amplitudes = amps

    @classmethod
    def zero(cls, n_qubits):
        return cls(n_qubits)

    def copy(self):
        out = Statevector.__new__(Statevector)
        out.n_qubits = self.n_qubits
        out.amplitudes = self.amplitudes.copy()
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
    table = np.square(state.amplitudes).reshape((2,) * n).transpose(axes)
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
    # flattened first, so that a 0-d view squares as an array does
    return float(np.square(view.reshape(-1)).sum())


def probability_of_bits(state, qubits, value):
    return _probability(register_view(state, qubits, value))


class ZeroBranchError(Exception):
    """Post-selection on a branch whose probability is numerically zero."""


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
    kept = view * (1.0 / np.sqrt(prob))  # the reciprocal: module docstring
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
    reduced.amplitudes[:] = (view * (1.0 / np.sqrt(prob))).reshape(-1)
    return prob, reduced


# ---------------------------------------------------------------------------
# Circuit representation
# ---------------------------------------------------------------------------

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

    h, ry and ucry build the "u" gates, all real; an Ry's (c, -s, s, c) is
    computed as the gate is built, by one cos and one sin over all of its
    angles.  Entries are immutable (Python floats, read-only float64
    arrays) because remapped(), extend() and inverse() share them between
    circuits.  A gate reaches the kernel in one call, whatever its number
    of control patterns.  The builder methods check their qubits against
    n_qubits, refuse a qubit named twice in one gate and give ucry one
    angle per control pattern, so a bad gate fails where it is added rather
    than where it is applied.
    Reflections about a register value, such as a QAE oracle's good
    subspace, are applied in place by qae.GroverOracle, not as gates.
    """

    def __init__(self, n_qubits, gates=None):
        self.n_qubits = n_qubits
        self.gates = list(gates) if gates else []

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
            payload = (c, -s, s, c)
            for u in payload:
                u.setflags(write=False)
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
        """Gates in reverse order, each (real) u matrix transposed; a CNOT
        layer and a controlled swap are their own inverses."""
        inv = Circuit(self.n_qubits)
        for kind, qubits, payload in reversed(self.gates):
            if kind == "u":
                u00, u01, u10, u11 = payload
                payload = (u00, u10, u01, u11)
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
            kernels.apply_cswap_pair(amps, n, control, control, qubits[1:half],
                                     qubits[half:])
        else:
            raise ValueError(f"unexpected gate in unitary application: {kind}")

    def apply_unitary(self, state):
        # live prefix (module docstring): from |0...0>, run each gate on the
        # amplitudes its qubits and the earlier gates' can reach
        live = state.n_qubits if state.amplitudes[1:].any() else 0
        for gate in self.gates:
            live = max(live, max(gate[1], default=-1) + 1)
            self._apply_gate(state.amplitudes[:1 << live], live, gate)
        return state
