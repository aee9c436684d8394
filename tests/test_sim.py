import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from qsim import kernels, sim
from qsim.errors import ZeroBranchError
from qsim.kernels import apply_cswap_pair, apply_ctrl_1q, backend
from qsim.sim import Circuit, RngStream, Statevector


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return Statevector(n, amps)


def random_unitary(seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    return q


def _ref_indices(n_qubits, fixed_mask, fixed_val):
    """Indices i in [0, 2^n) with i & fixed_mask == fixed_val, increasing."""
    idx = np.arange(1 << n_qubits, dtype=np.int64)
    return idx[(idx & fixed_mask) == fixed_val]


def ref_ctrl_1q(amps, n_qubits, ctrl_mask, ctrl_val, target, u00, u01, u10, u11):
    """Gather/scatter kernel whose output bits the strided kernel must keep."""
    tbit = 1 << target
    i0 = _ref_indices(n_qubits, ctrl_mask | tbit, ctrl_val)
    i1 = i0 | tbit
    a0 = amps[i0]
    a1 = amps[i1]
    amps[i0] = u00 * a0 + u01 * a1
    amps[i1] = u10 * a0 + u11 * a1


def ref_cswap_pair(amps, n_qubits, ctrl_mask, ctrl_val, qa, qb):
    abit = 1 << qa
    bbit = 1 << qb
    i0 = _ref_indices(n_qubits, ctrl_mask | abit | bbit, ctrl_val | abit)
    i1 = (i0 ^ abit) | bbit
    tmp = amps[i0].copy()
    amps[i0] = amps[i1]
    amps[i1] = tmp


def dense_ctrl_1q(n_qubits, ctrl_mask, ctrl_val, target, u):
    """The full 2^n x 2^n matrix of a controlled single-qubit gate."""
    dim = 1 << n_qubits
    tbit = 1 << target
    mat = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        if i & ctrl_mask != ctrl_val:
            mat[i, i] = 1.0
            continue
        b = (i >> target) & 1
        for out_b in (0, 1):
            mat[(i & ~tbit) | (out_b * tbit), i] = u[out_b, b]
    return mat


def dense_cswap_pair(n_qubits, ctrl_mask, ctrl_val, qa, qb):
    dim = 1 << n_qubits
    mat = np.zeros((dim, dim))
    for i in range(dim):
        j = i
        if i & ctrl_mask == ctrl_val and ((i >> qa) & 1) != ((i >> qb) & 1):
            j = i ^ (1 << qa) ^ (1 << qb)
        mat[j, i] = 1.0
    return mat


def bits(amps):
    return amps.view(np.uint64)


@st.composite
def controlled_gates(draw, n_fixed):
    """(n, control mask, control value, fixed qubits) with n in 1..6 and
    n_fixed distinct non-control qubits, in either order; the first is 0 or
    n-1 in two draws of three."""
    n = draw(st.integers(max(1, n_fixed), 6))
    qubits = draw(st.permutations(range(n)))
    edge = draw(st.sampled_from([None, 0, n - 1]))
    if edge is not None:
        qubits = [edge] + [q for q in qubits if q != edge]
    fixed = list(qubits[:n_fixed])
    mask = val = 0
    for q in qubits[n_fixed:]:
        if draw(st.booleans()):
            mask |= 1 << q
            if draw(st.booleans()):
                val |= 1 << q
    return n, mask, val, fixed


@st.composite
def register_cases(draw):
    """(n, register, value): n in 1..7, a register of 0..n distinct qubits in
    any order, and a value that may lie outside the register's range."""
    n = draw(st.integers(1, 7))
    qubits = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    value = draw(st.integers(-1, (1 << len(qubits)) + 1))
    return n, tuple(qubits), value


@st.composite
def marginal_cases(draw):
    """(state, register): n in 1..12, a register of 0..n distinct qubits in
    any order (one qubit in at least half the draws), and a state with a
    drawn share of its amplitudes set to zero."""
    n = draw(st.integers(1, 12))
    size = draw(st.one_of(st.just(1), st.integers(0, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    state = random_state(n, seed)
    zero = np.random.default_rng(seed).random(1 << n) < draw(st.sampled_from([0.0, 0.5, 0.9]))
    state.amplitudes[zero] = 0.0
    return state, tuple(draw(st.permutations(range(n)))[:size])


@st.composite
def live_circuits(draw):
    """(circuit, touched): a circuit of 0 to 3n gates on n in 1..8 qubits,
    drawn from u, ry, ucry, CNOT layers and controlled swaps, and the set of
    qubits its gates name.  Each gate draws its qubits from a low block of
    random size, so circuits that leave the top qubits alone are common."""
    n = draw(st.integers(1, 8))
    angle = st.floats(-np.pi, np.pi)
    kinds = ["u", "ry", "ucry"] + ["layer"] * (n >= 2) + ["cswap"] * (n >= 3)
    circ = Circuit(n)
    touched = set()
    for _ in range(draw(st.integers(0, 3 * n))):
        kind = draw(st.sampled_from(kinds))
        need = {"layer": 2, "cswap": 3}.get(kind, 1)
        qubits = draw(st.permutations(range(draw(st.integers(need, n)))))
        if kind == "u":
            qubits = qubits[:1]
            circ.u(qubits[0], random_unitary(draw(st.integers(0, 2**32 - 1))))
        elif kind == "ry":
            qubits = qubits[:1]
            circ.ry(qubits[0], draw(angle))
        elif kind == "ucry":
            nc = draw(st.integers(0, min(len(qubits) - 1, 3)))
            qubits = qubits[:nc + 1]
            circ.ucry(qubits[:nc], qubits[nc],
                      draw(st.lists(angle, min_size=1 << nc, max_size=1 << nc)))
        elif kind == "layer":
            m = draw(st.integers(1, len(qubits) // 2))
            qubits = qubits[:2 * m]
            circ.cnot_layer(qubits[:m], qubits[m:])
        else:
            m = draw(st.integers(1, (len(qubits) - 1) // 2))
            qubits = qubits[:2 * m + 1]
            circ.cswap(qubits[0], qubits[1:m + 1], qubits[m + 1:])
        touched.update(qubits)
    return circ, touched


@st.composite
def u_gate_cases(draw):
    """(state, gate): a u gate with 0 to 5 controls in any order and its
    target below, between or above them, on n <= 12 qubits.  The payload is
    a real Ry (angles include 0 and +-pi, so coefficients include signed
    zeros) or complex (H or a random unitary per pattern).  The state is
    full-width with a drawn share of zero amplitudes, each part +0.0 or
    -0.0, or a live-prefix state from Statevector.zero with Ry on its lowest
    0 to n qubits."""
    n = draw(st.integers(1, 12))
    c = draw(st.integers(0, min(5, n - 1)))
    chosen = draw(st.permutations(range(n)))[:c + 1]
    target = sorted(chosen)[draw(st.integers(0, c))]
    controls = tuple(q for q in chosen if q != target)
    angle = st.one_of(st.floats(-2 * np.pi, 2 * np.pi),
                      st.sampled_from([0.0, -0.0, np.pi, -np.pi]))
    if draw(st.booleans()):
        angles = draw(st.lists(angle, min_size=1 << c, max_size=1 << c))
        gate = Circuit(n).ucry(controls, target, angles).gates[0]
    else:
        mats = [sim.HADAMARD if draw(st.booleans())
                else random_unitary(draw(st.integers(0, 2**32 - 1)))
                for _ in range(1 << c)]
        if c == 0:
            gate = Circuit(n).u(target, mats[0]).gates[0]
        else:
            gate = ("u", controls + (target,),
                    tuple(np.array([m[i, j] for m in mats]) for i in (0, 1) for j in (0, 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        state = random_state(n, seed)
        rng = np.random.default_rng(seed)
        zero = rng.random(1 << n) < draw(st.sampled_from([0.0, 0.5]))
        signed = np.copysign(0.0, rng.normal(size=(int(zero.sum()), 2)))
        state.amplitudes[zero] = signed.view(complex)[:, 0]
    else:
        prep = Circuit(n)
        for q in range(draw(st.integers(0, n))):
            prep.ry(q, draw(angle))
        state = prep.apply_unitary(Statevector.zero(n))
    return state, gate


def full_width_zero(n):
    """|0...0> built from amplitudes, so it starts live on every qubit."""
    e0 = np.zeros(1 << n, dtype=complex)
    e0[0] = 1.0
    return Statevector(n, e0)


def random_gate_case(rng):
    """A random controlled gate on a random state of 1 to 6 qubits."""
    n = int(rng.integers(1, 7))
    target = int(rng.choice([0, n - 1, rng.integers(n)]))
    mask = val = 0
    for q in range(n):
        if q != target and rng.random() < 0.5:
            mask |= 1 << q
            if rng.random() < 0.5:
                val |= 1 << q
    return n, mask, val, target


class TestKernels:
    def test_backend_selected(self):
        assert backend == "numpy"

    @given(controlled_gates(1), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_ctrl_1q_matches_dense(self, case, seed):
        n, mask, val, (target,) = case
        amps = random_state(n, seed).amplitudes
        u = random_unitary(seed)
        expected = dense_ctrl_1q(n, mask, val, target, u) @ amps
        apply_ctrl_1q(amps, n, mask, val, target, u[0, 0], u[0, 1], u[1, 0], u[1, 1])
        np.testing.assert_allclose(amps, expected, atol=1e-12)

    @given(u_gate_cases())
    @settings(max_examples=300, deadline=None)
    def test_u_gate_matches_per_pattern_reference(self, case):
        # one uniformly controlled kernel call against one call per control
        # pattern, bit for bit (signed zeros included)
        state, gate = case
        n = state.n_qubits
        expected = state.copy()
        live = max(expected.live, max(gate[1]) + 1)  # as apply_unitary runs it
        helpers.apply_u_per_pattern(expected.amplitudes[:1 << live], live, gate)
        Circuit(n, [gate]).apply_unitary(state)
        assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()

    @pytest.mark.parametrize("target,controls", [
        (0, ()), (15, ()), (0, (15,)), (7, (15, 14)), (3, (0, 1, 2)),
        (0, tuple(range(9, 0, -1))), (15, (0, 1)), (8, (2, 12, 5))])
    def test_blocked_states_match_python(self, target, controls):
        # at 16 qubits both kernel forms update the state block by block;
        # bit for bit against the gather/scatter formula, pattern by pattern
        n = 16
        assert 1 << (n - 1) > kernels.BLOCK
        rng = np.random.default_rng(target + 16 * len(controls))
        angles = rng.uniform(-np.pi, np.pi, 1 << len(controls))
        gate = Circuit(n).ucry(controls, target, angles).gates[0]
        state = random_state(n, len(controls))
        expected = state.amplitudes.copy()
        helpers.apply_u_per_pattern(expected, n, gate, kernel=ref_ctrl_1q)
        Circuit(n, [gate]).apply_unitary(state)
        assert state.amplitudes.tobytes() == expected.tobytes()
        u = random_unitary(target)
        mask = sum(1 << q for q in controls)
        coeffs = (u[0, 0], u[0, 1], u[1, 0], u[1, 1])
        apply_ctrl_1q(state.amplitudes, n, mask, mask, target, *coeffs)
        ref_ctrl_1q(expected, n, mask, mask, target, *coeffs)
        assert state.amplitudes.tobytes() == expected.tobytes()

    @given(controlled_gates(2), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_cswap_matches_dense(self, case, seed):
        n, mask, val, (qa, qb) = case
        amps = random_state(n, seed).amplitudes
        expected = dense_cswap_pair(n, mask, val, qa, qb) @ amps
        apply_cswap_pair(amps, n, mask, val, qa, qb)
        np.testing.assert_array_equal(amps, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_ctrl_1q_matches_python(self, seed):
        # bit for bit against the gather/scatter formula, for a random
        # unitary, a real rotation (Python floats) and X
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n, mask, val, target = random_gate_case(rng)
            u = random_unitary(int(rng.integers(2**32)))
            c, s = np.cos(0.37), np.sin(0.37)
            for coeffs in ((u[0, 0], u[0, 1], u[1, 0], u[1, 1]),
                           (c, -s, s, c), (0.0, 1.0, 1.0, 0.0)):
                st_a = random_state(n, int(rng.integers(2**32))).amplitudes
                st_b = st_a.copy()
                apply_ctrl_1q(st_a, n, mask, val, target, *coeffs)
                ref_ctrl_1q(st_b, n, mask, val, target, *coeffs)
                np.testing.assert_array_equal(bits(st_a), bits(st_b))

    @pytest.mark.parametrize("seed", range(5))
    def test_cswap_matches_python(self, seed):
        rng = np.random.default_rng(seed + 10)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            qa, qb, *rest = (int(q) for q in rng.permutation(n))
            mask = val = 0
            if rest:
                mask = val = 1 << rest[0]
            st_a = random_state(n, int(rng.integers(2**32))).amplitudes
            st_b = st_a.copy()
            apply_cswap_pair(st_a, n, mask, val, qa, qb)
            ref_cswap_pair(st_b, n, mask, val, qa, qb)
            np.testing.assert_array_equal(bits(st_a), bits(st_b))

    @pytest.mark.parametrize("seed", range(5))
    def test_cnot_swap_matches_x_matrix(self, seed):
        # a CNOT layer, run as swaps, against the same CNOTs run as the X
        # matrix through apply_ctrl_1q: equal amplitudes, and equal bits
        # wherever the amplitude is not zero (only a zero's sign may differ)
        rng = np.random.default_rng(seed + 20)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            perm = [int(q) for q in rng.permutation(n)]
            m = int(rng.integers(1, n // 2 + 1))
            controls, targets = perm[:m], perm[m:2 * m]
            state = random_state(n, int(rng.integers(2**32)))
            state.amplitudes[rng.random(1 << n) < 0.3] = 0.0
            expected = state.amplitudes.copy()
            for c, t in zip(controls, targets):
                apply_ctrl_1q(expected, n, 1 << c, 1 << c, t, 0.0, 1.0, 1.0, 0.0)
            Circuit(n).cnot_layer(controls, targets).apply_unitary(state)
            np.testing.assert_array_equal(state.amplitudes, expected)
            nonzero = expected != 0
            np.testing.assert_array_equal(bits(state.amplitudes[nonzero]),
                                          bits(expected[nonzero]))


# (builder call, error message) for each gate a Circuit(3) must refuse as it
# is built; a non-unitary matrix is test_non_unitary_rejected.
BAD_GATES = {
    "u-not-2x2": (lambda c: c.u(0, np.eye(3)), "2x2"),
    "u-out-of-range": (lambda c: c.u(3, sim.HADAMARD), "out of range"),
    "h-out-of-range": (lambda c: c.h(3), "out of range"),
    "ry-out-of-range": (lambda c: c.ry(-1, 0.3), "out of range"),
    "ucry-out-of-range": (lambda c: c.ucry([3], 0, [0.1, 0.2]), "out of range"),
    "ucry-repeated-control": (lambda c: c.ucry([1, 1], 0, [0.1, 0.2, 0.3, 0.4]),
                              "duplicate"),
    "ucry-target-is-control": (lambda c: c.ucry([0], 0, [0.1, 0.2]), "duplicate"),
    "ucry-too-few-angles": (lambda c: c.ucry([1], 0, [0.1]), "angles"),
    "ucry-too-few-angles-2c": (lambda c: c.ucry([1, 2], 0, [0.1, 0.2]), "angles"),
    "layer-unequal-lengths": (lambda c: c.cnot_layer((0, 1), (2,)), "equal length"),
    "layer-overlap": (lambda c: c.cnot_layer((0, 1), (1, 2)), "overlap"),
    "layer-repeated-control": (lambda c: c.cnot_layer((0, 0), (1, 2)), "repeat"),
    "layer-repeated-target": (lambda c: c.cnot_layer((0, 1), (2, 2)), "repeat"),
    "layer-out-of-range": (lambda c: c.cnot_layer((0,), (3,)), "out of range"),
    "cswap-unequal-sizes": (lambda c: c.cswap(2, (0,), ()), "sizes differ"),
    "cswap-overlap": (lambda c: c.cswap(2, (0,), (0,)), "overlapping"),
    "cswap-control-in-register": (lambda c: c.cswap(1, (0,), (1,)), "overlapping"),
    "cswap-out-of-range": (lambda c: c.cswap(2, (0,), (3,)), "out of range"),
}


class TestGates:
    @pytest.mark.parametrize("name", sorted(BAD_GATES))
    def test_builder_rejects_bad_gate(self, name):
        build, message = BAD_GATES[name]
        circ = Circuit(3)
        with pytest.raises(ValueError, match=message):
            build(circ)
        assert circ.gates == []

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            Circuit(1).u(0, np.array([[1.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("qubit", [0, 2])
    def test_h_appends_the_u_payload_of_hadamard(self, qubit):
        # h skips u's unitarity check but must append the same gate bits
        (kind, qubits, payload), = Circuit(3).h(qubit).gates
        (kind_u, qubits_u, payload_u), = Circuit(3).u(qubit, sim.HADAMARD).gates
        assert (kind, qubits) == (kind_u, qubits_u) == ("u", (qubit,))
        assert [type(x) for x in payload] == [type(x) for x in payload_u]
        np.testing.assert_array_equal(np.array(payload).view(np.uint64),
                                      np.array(payload_u).view(np.uint64))

    def test_bad_norm_rejected(self):
        with pytest.raises(ValueError):
            Statevector(1, np.array([1.0, 1.0], dtype=complex))

    def test_hadamard(self):
        state = Circuit(1).h(0).apply_unitary(Statevector.zero(1))
        np.testing.assert_allclose(state.amplitudes,
                                   [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)

    def test_qubit0_is_lsb(self):
        state = Circuit(2).u(0, helpers.PAULI_X).apply_unitary(Statevector.zero(2))
        assert abs(state.amplitudes[0b01]) == pytest.approx(1.0)

    def test_cnot_layer_entangles(self):
        circ = Circuit(2).h(0).cnot_layer((0,), (1,))
        probs = np.abs(circ.apply_unitary(Statevector.zero(2)).amplitudes) ** 2
        np.testing.assert_allclose(probs[[0b00, 0b11]], [0.5, 0.5], atol=1e-14)

    def test_width_guard_refuses_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="physical memory"):
                Statevector(48)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_controlled_swap(self):
        circ = Circuit(3).u(0, helpers.PAULI_X).u(2, helpers.PAULI_X).cswap(2, (0,), (1,))
        state = circ.apply_unitary(Statevector.zero(3))
        assert abs(state.amplitudes[0b110]) == pytest.approx(1.0)


class TestMeasurement:
    def test_marginal_probabilities_sum(self):
        state = random_state(4, 3)
        probs = sim.marginal_probabilities(state, [1, 3])
        assert probs.sum() == pytest.approx(1.0)

    def test_project_bits_zero_branch(self):
        state = Circuit(2).u(0, helpers.PAULI_X).apply_unitary(Statevector.zero(2))
        with pytest.raises(ZeroBranchError):
            sim.project_bits(state, (0,), 0)

    @given(register_cases(), st.integers(0, 2**32 - 1))
    # every qubit: the view is one amplitude, which this seed squares to a
    # different bit pattern unless it is flattened first; no qubit: the
    # view is the whole state
    @example(case=(5, (3, 0, 4, 1, 2), 19), seed=964)
    @example(case=(4, (), 0), seed=6)
    @settings(max_examples=150, deadline=None)
    def test_readout_matches_register_values(self, case, seed):
        # bit for bit against selecting by the per-index register values
        n, qubits, value = case
        state = random_state(n, seed)
        sel = helpers.register_values(n, qubits) == value
        p_ref = float(np.sum(np.abs(state.amplitudes[sel]) ** 2))
        assert sim.probability_of_bits(state, qubits, value) == p_ref
        if p_ref < sim.ZERO_BRANCH_CUTOFF:
            with pytest.raises(ZeroBranchError):
                sim.project_bits(state.copy(), qubits, value)
            return
        expected = state.amplitudes.copy()
        expected[~sel] = 0.0
        expected /= np.sqrt(p_ref)
        p, out = sim.project_bits(state.copy(), qubits, value)
        assert p == p_ref
        np.testing.assert_array_equal(bits(out.amplitudes), bits(expected))

    @given(marginal_cases())
    @settings(max_examples=200, deadline=None)
    def test_marginal_matches_register_values(self, case):
        # bit for bit against accumulating with np.add.at in index order
        state, qubits = case
        np.testing.assert_array_equal(
            bits(sim.marginal_probabilities(state, qubits)),
            bits(helpers.marginal_probabilities(state, qubits)))

    def test_probability_squares_in_place_with_old_bits(self):
        # np.square in place must give the bits of the np.abs(v) ** 2 it
        # replaced on every length, around np.sum's pairwise blocks too
        rng = np.random.default_rng(5)
        sizes = list(range(1, 300)) + [(1 << e) + d for e in range(9, 21)
                                       for d in (-1, 0, 3)]
        for size in sizes:
            v = rng.normal(size=size) + 1j * rng.normal(size=size)
            assert sim._probability(v) == float(np.sum(np.abs(v) ** 2)), size
        state = random_state(10, 4)
        view = sim.register_view(state, (0, 7, 3), 5)
        assert sim._probability(view) == float(np.sum(np.abs(view.reshape(-1)) ** 2))

    def test_probability_keeps_one_float_temporary(self):
        v = random_state(18, 6).amplitudes
        tracemalloc.start()
        try:
            sim._probability(v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * v.size

    @pytest.mark.parametrize("readout", ["probability_of_bits", "project_bits",
                                         "marginal_probabilities"])
    def test_repeated_qubit_rejected(self, readout):
        # (0, 0) once built the mask 0b10 and read qubit 1: P(q0 = 0) came
        # out 0.2919 where it is 1, and the marginal failed inside NumPy
        state = Circuit(2).ry(1, 2.0).apply_unitary(Statevector.zero(2))
        args = ((0, 0),) if readout == "marginal_probabilities" else ((0, 0), 0)
        with pytest.raises(ValueError, match="more than once"):
            getattr(sim, readout)(state, *args)

    def test_project_bits_renormalizes(self):
        state = random_state(3, 7)
        p, cond = sim.project_bits(state, (1,), 0)
        assert 0 < p < 1
        assert np.linalg.norm(cond.amplitudes) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_postselect_reduces_width(self):
        state = random_state(3, 8)
        p, reduced = sim.postselect(state, (1, 2), 0)
        assert reduced.n_qubits == 1
        assert p == pytest.approx(
            sim.probability_of_bits(state, (1, 2), 0), abs=1e-12)

    def test_postselect_rejects_non_contiguous_register(self):
        # qubits 0 and 2 of |010> read 0 with probability 1, but a
        # non-contiguous register is refused rather than read as (0, 1)
        state = Circuit(3).u(1, helpers.PAULI_X).apply_unitary(Statevector.zero(3))
        with pytest.raises(ValueError, match="contiguous"):
            sim.postselect(state, (0, 2), 0)

    def test_measure_statistics(self):
        state = Circuit(1).h(0).apply_unitary(Statevector.zero(1))
        rng = RngStream(11)
        outcomes = [sim.measure(state.copy(), (0,), rng)[0] for _ in range(400)]
        assert 0.4 < np.mean(outcomes) < 0.6


class TestLivePrefix:
    """Statevector.zero starts live on no qubit and each gate widens the
    live prefix; the bits must match a state that is live everywhere."""

    def test_starting_width(self):
        assert Statevector.zero(3).live == 0
        assert full_width_zero(3).live == 3
        assert random_state(3).live == 3

    @given(live_circuits())
    @settings(max_examples=200, deadline=None)
    def test_prefix_matches_full_width(self, case):
        circ, touched = case
        n = circ.n_qubits
        prefix = circ.apply_unitary(Statevector.zero(n))
        full = circ.apply_unitary(full_width_zero(n))
        # equal as numbers: a zero may differ in sign only
        np.testing.assert_array_equal(prefix.amplitudes, full.amplitudes)
        assert prefix.live == max(touched, default=-1) + 1
        assert full.live == n
        assert not prefix.amplitudes[1 << prefix.live:].any()

    @given(live_circuits(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_copy_and_postselect_propagate(self, case, seed):
        circ, _touched = case
        n = circ.n_qubits
        state = circ.apply_unitary(Statevector.zero(n))
        twin = state.copy()
        assert twin.live == state.live
        # the copy goes on from its prefix as a full-width state would
        more = Circuit(n).u(n - 1, random_unitary(seed))
        reference = more.apply_unitary(circ.apply_unitary(full_width_zero(n)))
        np.testing.assert_array_equal(more.apply_unitary(twin).amplitudes,
                                      reference.amplitudes)
        assert twin.live == n
        rng = np.random.default_rng(seed)
        start = int(rng.integers(n))
        reg = tuple(range(start, int(rng.integers(start, n)) + 1))
        value = int(np.argmax(sim.marginal_probabilities(state, reg)))
        _p, reduced = sim.postselect(state, reg, value)
        assert reduced.live == reduced.n_qubits == n - len(reg)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(5).generator.uniform(size=4)
        b = RngStream(5).generator.uniform(size=4)
        np.testing.assert_array_equal(a, b)

    def test_split_streams_differ(self):
        s1, s2 = RngStream(5).split(2)
        assert not np.array_equal(s1.generator.uniform(size=4),
                                  s2.generator.uniform(size=4))

    def test_split_independent_of_consumption(self):
        r1 = RngStream(5)
        r1.generator.uniform(size=10)
        # split identity depends only on the seed path, not on draws
        a = RngStream(5).split(3)[2].generator.uniform(size=4)
        b = r1.split(3)[2].generator.uniform(size=4)
        np.testing.assert_array_equal(a, b)

    def test_generator_built_on_first_draw(self, monkeypatch):
        built = helpers.recorded_calls(monkeypatch, np.random, "Philox")
        streams = RngStream(5).split(4)
        assert built == []
        drawn = streams[1:3]
        draws = [s.generator.uniform(size=4) for s in drawn]
        assert len(built) == 2 and all(s.generator is s.generator for s in drawn)
        # the bits of a generator built with its stream
        for seq, got in zip(np.random.SeedSequence(5).spawn(4)[1:3], draws):
            np.testing.assert_array_equal(
                got, np.random.Generator(np.random.Philox(seq)).uniform(size=4))


class TestCircuit:
    def test_inverse_is_identity(self):
        circ = Circuit(3)
        circ.h(0)
        circ.ry(1, 0.7)
        circ.ucry([2], 1, [0.3, 1.1])
        circ.cswap(2, (0,), (1,))
        circ.extend(circ.inverse())
        state = random_state(3, 1)
        ref = state.amplitudes.copy()
        circ.apply_unitary(state)
        np.testing.assert_allclose(state.amplitudes, ref, atol=1e-12)

    def test_payloads_are_immutable(self):
        # controlled gates hold read-only arrays and uncontrolled ones Python
        # numbers, in a circuit and in its inverse; the complex controlled
        # gate's conjugates are new arrays
        circ = Circuit(3).h(0).ry(1, 0.7).ucry([2, 0], 1, [0.1, 0.2, 0.3, 0.4])
        entries = tuple(np.full(2, x) for x in sim.HADAMARD.ravel())
        for entry in entries:
            entry.setflags(write=False)
        circ.gates.append(("u", (2, 0), entries))
        for _kind, qubits, payload in circ.gates + circ.inverse().gates:
            for entry in payload:
                if len(qubits) == 1:
                    assert type(entry) in (float, complex)
                    continue
                with pytest.raises(ValueError, match="read-only"):
                    entry[0] = 1.0

    @given(live_circuits())
    @settings(max_examples=100, deadline=None)
    def test_double_inverse_reproduces_payloads(self, case):
        circ, _touched = case
        again = circ.inverse().inverse()
        assert len(again.gates) == len(circ.gates)
        for (kind, qubits, payload), (kind2, qubits2, payload2) in zip(circ.gates,
                                                                       again.gates):
            assert (kind2, qubits2) == (kind, qubits)
            if kind == "u":
                assert ([np.asarray(u).tobytes() for u in payload2]
                        == [np.asarray(u).tobytes() for u in payload])
            else:
                assert payload2 is payload

    def test_remapped(self):
        circ = Circuit(1)
        circ.u(0, helpers.PAULI_X)
        wide = circ.remapped([2], 3)
        state = Statevector.zero(3)
        wide.apply_unitary(state)
        assert abs(state.amplitudes[0b100]) == pytest.approx(1.0)

    @given(live_circuits(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_inverse_and_remapped(self, case, seed):
        circ, _touched = case
        n = circ.n_qubits
        state = random_state(n, seed)
        start = state.amplitudes.copy()
        circ.inverse().apply_unitary(circ.apply_unitary(state))
        np.testing.assert_allclose(state.amplitudes, start, rtol=0, atol=1e-12)
        # local qubit i becomes perm[i]: in the (2,)*n view, where qubit q
        # is axis n-1-q, the output's axis n-1-perm[i] is the original's n-1-i
        perm = [int(q) for q in np.random.default_rng(seed).permutation(n)]
        axes = [0] * n
        for i, q in enumerate(perm):
            axes[n - 1 - q] = n - 1 - i
        out = circ.apply_unitary(full_width_zero(n)).amplitudes
        expected = out.reshape((2,) * n).transpose(axes).reshape(-1)
        moved = circ.remapped(perm, n).apply_unitary(full_width_zero(n))
        np.testing.assert_array_equal(bits(moved.amplitudes), bits(expected))

    @given(st.integers(0, 2), st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_ry_preserves_norm(self, qubit, angle):
        state = random_state(3, 42)
        Circuit(3).ry(qubit, angle).apply_unitary(state)
        assert np.linalg.norm(state.amplitudes) ** 2 == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_ucry_pattern_indexing(self, seed):
        # controls select the angle by their MSB-first bit pattern
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0, np.pi, size=4)
        circ = Circuit(3)
        circ.ucry([2, 1], 0, angles)
        for pattern in range(4):
            prep = Circuit(3)
            if pattern & 0b10:
                prep.u(2, helpers.PAULI_X)
            if pattern & 0b01:
                prep.u(1, helpers.PAULI_X)
            state = circ.apply_unitary(prep.apply_unitary(Statevector.zero(3)))
            p1 = sim.marginal_probabilities(state, [0])[1]
            assert p1 == pytest.approx(np.sin(angles[pattern] / 2.0) ** 2,
                                       abs=1e-12)
