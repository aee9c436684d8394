"""Statevector references the tests compare qsim against.

They read a fully simulated state through per-index register values and
np.add.at, the direct readout that qsim's strided readouts must match.
"""

import numpy as np

from qsim import inner, kernels, sim
from qsim.assembly import _pair_with_overlap
from qsim.encoding import normalize_affine
from qsim.qhp import QhpOutcome
from qsim.sim import Circuit, Statevector

# Pauli X, for u_gate: qsim has no X gate of its own.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def u_gate(circ, qubit, mat):
    """Append the uncontrolled u gate of the real 2x2 matrix `mat` on
    `qubit`, its entries as Python floats, and return circ: qsim's builders
    make Ry and H only."""
    circ.gates.append(("u", (qubit,), tuple(np.asarray(mat, dtype=float).ravel().tolist())))
    return circ


def pair_with_overlap(p):
    """Two normalized positive series on 2 points with inner product p."""
    return tuple(normalize_affine(v, 0.0) for v in _pair_with_overlap(p))


def recorded_calls(monkeypatch, owner, name):
    """The positional arguments of every call of owner.name from here on."""
    calls = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def register_values(n_qubits, qubits):
    """For every basis index, the value held by the given register."""
    idx = np.arange(1 << n_qubits, dtype=np.int64)
    val = np.zeros_like(idx)
    for pos, q in enumerate(qubits):
        val |= ((idx >> q) & 1) << pos
    return val


def apply_u_per_pattern(amps, n_qubits, gate, kernel=kernels.apply_ctrl_1q):
    """Apply a ("u", controls + (target,), payload) gate to amps in place by
    one controlled-gate kernel call per control pattern, each with that
    pattern's coefficients as Python numbers: the reference whose bits the
    single uniformly controlled call must keep."""
    _kind, qubits, payload = gate
    target = qubits[-1]
    controls = qubits[-2::-1]  # least-significant pattern bit first
    mask = sum(1 << q for q in controls)
    for pattern, coeffs in enumerate(zip(*(np.ravel(u).tolist() for u in payload))):
        val = 0
        for j, q in enumerate(controls):
            if (pattern >> j) & 1:
                val |= 1 << q
        kernel(amps, n_qubits, mask, val, target, *coeffs)


def cswap_per_pair(amps, n_qubits, ctrl_mask, ctrl_val, qa, qb):
    """Swap registers qa and qb in place where the control bits equal
    ctrl_val, one qubit pair at a time, each by exchanging the halves of the
    subspace that hold (1, 0) and (0, 1) on the pair: the reference whose
    bits kernels.apply_cswap_pair's single permutation must keep."""
    for a, b in zip(qa, qb):
        abit, bbit = 1 << a, 1 << b
        shape, idx0, idx1, _ = kernels._view_plan(n_qubits, ctrl_mask | abit | bbit,
                                                  ctrl_val | abit, ctrl_val | bbit)
        view = amps.reshape(shape)
        a0, a1 = view[idx0], view[idx1]
        tmp = a0.copy()
        a0[...] = a1
        a1[...] = tmp


def marginal_probabilities(state, qubits):
    """Born probabilities of the register's outcomes, added up in basis
    index order."""
    probs = np.zeros(1 << len(qubits))
    np.add.at(probs, register_values(state.n_qubits, qubits),
              np.abs(state.amplitudes) ** 2)
    return probs


def postselected_power_state(pc):
    """(joint probability that every consumed register reads 0, the
    conditional state at full width) for a power circuit."""
    st = pc.circuit.apply_unitary(Statevector.zero(pc.width))
    prob = 1.0
    for reg in pc.measured:
        p, st = sim.project_bits(st, reg, 0)
        prob *= p
    return prob, st


def survivor_amplitudes(pc, state):
    """Amplitudes of the surviving primary register of a post-selected,
    amplitude-encoded power state (every other qubit is then |0>)."""
    out = np.zeros(1 << len(pc.primary))
    np.add.at(out, register_values(state.n_qubits, pc.primary), state.amplitudes)
    return out


def chain_round(loader, base, width):
    """(circuit, register) of one QHP round on `width` qubits: load a copy of
    `loader` onto qubits base .. base + width(loader) - 1, then CNOT the
    survivor's primary, block 0's, into the copy's primary, the register
    the round measures.  Block 0 must lie below `base`."""
    reg = tuple(base + q for q in loader.primary)
    circ = loader.circuit.remapped(range(base, base + loader.width), width)
    return circ.cnot_layer(loader.primary, reg), reg


def ref_dynamic_stopping(plan, loader, shots, rng):
    """The statevector chain that qhp.run_with_dynamic_stopping draws in
    closed form: one (QhpOutcome, state) per shot, where state is the
    surviving conditional state of a successful shot and None otherwise.

    Shot i simulates its rounds on its own copy of the state and measures
    each round's register on row i of one (shots, k - 1) draw of uniforms.
    Amplitude encoding runs on 2 registers, reloading the consumed one each
    round; BOE loads all k blocks up front and measures only the primaries.
    A drawn outcome of vanishing probability raises ZeroBranchError."""
    k, bw = plan.k, loader.width
    if plan.encoding == "amplitude":
        width, preloaded = 2 * bw, 1
        steps = [chain_round(loader, bw, width)] * (k - 1)
    else:
        width, preloaded = k * bw, k
        prim = [tuple(b * bw + q for q in loader.primary) for b in range(k)]
        steps = [(Circuit(width).cnot_layer(prim[0], prim[t]), prim[t])
                 for t in range(1, k)]
    base = Statevector.zero(width)
    for b in range(preloaded):
        loader.circuit.remapped(range(b * bw, (b + 1) * bw), width).apply_unitary(base)
    out = []
    for row in rng.generator.random((shots, k - 1)):
        st = base.copy()
        for t, (step, reg) in enumerate(steps, start=1):
            step.apply_unitary(st)
            cum = np.cumsum(sim.marginal_probabilities(st, reg))
            outcome = min(int(np.searchsorted(cum, row[t - 1] * cum[-1], side="right")),
                          len(cum) - 1)
            sim.project_bits(st, reg, outcome)
            if outcome:
                out.append((QhpOutcome(False, t, t), None))
                break
        else:
            out.append((QhpOutcome(True, k - 1, k), st))
    return out


def side_state_matrix(state, loader):
    """V[side, j] = amplitude of |j>_primary |side> for a BOE loader, whose
    side register is every qubit outside the primary.  Normalized, the
    columns are the side states, orthonormal for a proper BOE."""
    side = tuple(q for q in range(loader.width) if q not in loader.primary)
    out = np.zeros((1 << len(side), 1 << len(loader.primary)))
    np.add.at(out, (register_values(state.n_qubits, side),
                    register_values(state.n_qubits, loader.primary)),
              state.amplitudes)
    return out


def swap_probabilities(pc, e_loader):
    """(P(Z=0), P(Z=0 and ancilla=0)) for a power circuit followed by a swap
    test against `e_loader`, where Z is every consumed register."""
    test = inner.build_swap_test(pc, e_loader)
    st = test.circuit.apply_unitary(Statevector.zero(test.width))
    z_qubits = tuple(q for reg in pc.measured for q in reg)
    p_z0 = sim.probability_of_bits(st, z_qubits, 0) if z_qubits else 1.0
    return p_z0, sim.probability_of_bits(st, z_qubits + (test.ancilla,), 0)


def z_exact(oracle):
    """P(good) in the oracle's simulated chi = F|0>: the statevector
    reference for the readout laws that IQAE reads z from."""
    return sim.probability_of_bits(oracle._chi(), oracle.good, 0)


def grover_circuit_iterate(oracle, state):
    """Apply Q = -F Z F^dag S_good to state in place, F^dag and F simulated
    gate by gate: the circuit form that GroverOracle.grover's rank-1
    reflection about chi must match.  S_good flips the sign of every
    amplitude whose good register reads 0, and Z that of amplitude 0."""
    good = register_values(state.n_qubits, oracle.good) == 0
    state.amplitudes[good] *= -1.0
    oracle.prepare.inverse().apply_unitary(state)
    state.amplitudes[0] *= -1.0
    oracle.prepare.apply_unitary(state)
    state.amplitudes *= -1.0
    return state


def grover_probability_after(oracle, j):
    """P(good) after j Grover iterates, each simulated in circuit form:
    the reference for qae.grover_probability."""
    st = oracle.chi()
    for _ in range(j):
        grover_circuit_iterate(oracle, st)
    return sim.probability_of_bits(st, oracle.good, 0)


def qpe_distribution_reference(oracle, m):
    """Outcome distribution of an m-qubit phase estimation on Q from all
    2^m - 1 Grover iterates, each simulated in circuit form, and an FFT
    over the stack of states: the reference for qae._qpe_distribution."""
    dim = 1 << m
    states = np.empty((dim, 1 << oracle.n_qubits))
    st = oracle.chi()
    states[0] = st.amplitudes
    for y in range(1, dim):
        grover_circuit_iterate(oracle, st)
        states[y] = st.amplitudes
    # amplitude(x, .) = 2^-m sum_y exp(-2 pi i x y / 2^m) Q^y |chi>
    amps = np.fft.fft(states, axis=0) / dim
    return np.sum(np.abs(amps) ** 2, axis=1)
