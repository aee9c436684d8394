import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from qsim import inner, kernels, qae, qhp, sim
from qsim.encoding import normalize_affine, normalize_sqrt
from qsim.kernels import apply_cswap_pair, apply_ctrl_1q, backend
from qsim.sim import Circuit, RngStream, Statevector, ZeroBranchError


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return Statevector(n, amps)


def random_orthogonal(seed=0):
    """A random real orthogonal 2x2 matrix, a rotation or a reflection."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(2, 2)))
    return q


def bits(amps):
    return amps.view(np.uint64)


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
def live_circuits(draw, n=None):
    """(circuit, touched): a circuit of 0 to 3n gates on n qubits (drawn
    from 1..8 unless given), drawn from u, ry, ucry, CNOT layers and
    controlled swaps, and the set of qubits its gates name.  Each gate draws
    its qubits from a low block of random size, so circuits that leave the
    top qubits alone are common."""
    n = draw(st.integers(1, 8)) if n is None else n
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
            helpers.u_gate(circ, qubits[0], random_orthogonal(draw(st.integers(0, 2**32 - 1))))
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
    an Ry (angles include 0 and +-pi, so coefficients include signed zeros)
    or H, X or a random orthogonal matrix per pattern.  The state is full-width
    with a drawn share of zero amplitudes, each +0.0 or -0.0, or a state
    from Statevector.zero with Ry on its lowest 0 to n qubits, zero above
    them."""
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
        matrix = (st.sampled_from([sim.HADAMARD, helpers.PAULI_X])
                  | st.integers(0, 2**32 - 1).map(random_orthogonal))
        mats = [draw(matrix) for _ in range(1 << c)]
        if c == 0:
            gate = helpers.u_gate(Circuit(n), target, mats[0]).gates[0]
        else:
            gate = ("u", controls + (target,),
                    tuple(np.array([m[i, j] for m in mats]) for i in (0, 1) for j in (0, 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        state = random_state(n, seed)
        rng = np.random.default_rng(seed)
        zero = rng.random(1 << n) < draw(st.sampled_from([0.0, 0.5]))
        state.amplitudes[zero] = np.copysign(0.0, rng.normal(size=int(zero.sum())))
    else:
        prep = Circuit(n)
        for q in range(draw(st.integers(0, n))):
            prep.ry(q, draw(angle))
        state = prep.apply_unitary(Statevector.zero(n))
    return state, gate


class TestKernels:
    def test_backend_selected(self):
        assert backend == "numpy"

    @given(u_gate_cases(), st.data())
    @settings(max_examples=helpers.examples(300), deadline=None)
    def test_u_gate_matches_per_pattern_reference(self, case, data):
        # bit for bit (signed zeros included) against gather/scatter, one
        # control pattern at a time: the gate run by apply_unitary, all its
        # patterns in one kernel call, or a direct kernel call on one drawn
        # pattern, its coefficients Python or NumPy floats
        state, gate = case
        n, (_kind, qubits, payload) = state.n_qubits, gate
        expected = state.amplitudes.copy()
        pattern = data.draw(st.none() | st.integers(0, (1 << (len(qubits) - 1)) - 1))
        if pattern is None:
            # at the width apply_unitary runs it: the whole state, or from
            # |0...0> the prefix up to the gate's highest qubit
            live = n if state.amplitudes[1:].any() else max(qubits) + 1
            helpers.u_gate_reference(expected[:1 << live], live, gate)
            Circuit(n, [gate]).apply_unitary(state)
        else:
            number = data.draw(st.sampled_from([float, np.float64]))
            coeffs = [number(np.ravel(u)[pattern]) for u in payload]
            controls = qubits[-2::-1]
            mask = sum(1 << q for q in controls)
            val = sum(1 << q for j, q in enumerate(controls) if pattern >> j & 1)
            helpers.ctrl_1q_reference(expected, n, mask, val, qubits[-1], *coeffs)
            apply_ctrl_1q(state.amplitudes, n, mask, val, qubits[-1], *coeffs)
        assert state.amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("target,controls", [
        (0, ()), (15, ()), (0, (15,)), (7, (15, 14)), (3, (0, 1, 2)),
        (0, tuple(range(9, 0, -1))), (15, (0, 1)), (8, (2, 12, 5))])
    def test_blocked_states_match_python(self, target, controls):
        # at 17 qubits both kernel forms update the state block by block;
        # bit for bit against gather/scatter, pattern by pattern
        n = 17
        assert 1 << (n - 1) > kernels.BLOCK
        rng = np.random.default_rng(target + 16 * len(controls))
        angles = rng.uniform(-np.pi, np.pi, 1 << len(controls))
        gate = Circuit(n).ucry(controls, target, angles).gates[0]
        state = random_state(n, len(controls))
        expected = state.amplitudes.copy()
        helpers.u_gate_reference(expected, n, gate)
        Circuit(n, [gate]).apply_unitary(state)
        assert state.amplitudes.tobytes() == expected.tobytes()
        u = random_orthogonal(target)
        mask = sum(1 << q for q in controls)
        coeffs = (u[0, 0], u[0, 1], u[1, 0], u[1, 1])
        apply_ctrl_1q(state.amplitudes, n, mask, mask, target, *coeffs)
        helpers.ctrl_1q_reference(expected, n, mask, mask, target, *coeffs)
        assert state.amplitudes.tobytes() == expected.tobytes()

    @given(st.data())
    @settings(max_examples=helpers.examples(200), deadline=None)
    def test_cswap_registers_match_per_pair_loop(self, data):
        # bit for bit against gather/scatter, one qubit pair at a time, for
        # registers of any qubits in any order (single qubits also as ints)
        # and any controls, at any values, among the other qubits
        n = data.draw(st.integers(2, 10))
        qubits = data.draw(st.permutations(range(n)))
        m = data.draw(st.integers(1, n // 2))
        qa, qb = tuple(qubits[:m]), tuple(qubits[m:2 * m])
        mask = val = 0
        for q in qubits[2 * m:]:
            if data.draw(st.booleans()):
                mask |= 1 << q
                if data.draw(st.booleans()):
                    val |= 1 << q
        amps = random_state(n, data.draw(st.integers(0, 2**32 - 1))).amplitudes
        expected = amps.copy()
        helpers.cswap_reference(expected, n, mask, val, qa, qb)
        if m == 1 and data.draw(st.booleans()):
            qa, qb = qa[0], qb[0]
        apply_cswap_pair(amps, n, mask, val, qa, qb)
        assert amps.tobytes() == expected.tobytes()

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
# is built.
BAD_GATES = {
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

    @pytest.mark.parametrize("qubit", [0, 2])
    def test_h_appends_the_u_payload_of_hadamard(self, qubit):
        # the u gate of HADAMARD's entries, as Python floats, bit for bit
        (kind, qubits, payload), = Circuit(3).h(qubit).gates
        assert (kind, qubits) == ("u", (qubit,))
        assert [type(x) for x in payload] == [float] * 4
        np.testing.assert_array_equal(np.array(payload).view(np.uint64),
                                      sim.HADAMARD.ravel().view(np.uint64))

    def test_bad_norm_rejected(self):
        with pytest.raises(ValueError):
            Statevector(1, np.array([1.0, 1.0], dtype=complex))

    def test_hadamard(self):
        state = Circuit(1).h(0).apply_unitary(Statevector.zero(1))
        np.testing.assert_allclose(state.amplitudes,
                                   [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)

    def test_qubit0_is_lsb(self):
        state = helpers.u_gate(Circuit(2), 0, helpers.PAULI_X).apply_unitary(
            Statevector.zero(2))
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
            # 8 * 2^20000 bytes has over 4,300 digits, more than Python
            # formats as a decimal integer
            with pytest.raises(ValueError, match=r"20000-qubit statevector needs 2\^20003 bytes"):
                Statevector(20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_controlled_swap(self):
        circ = helpers.u_gate(helpers.u_gate(Circuit(3), 0, helpers.PAULI_X), 2,
                              helpers.PAULI_X).cswap(2, (0,), (1,))
        state = circ.apply_unitary(Statevector.zero(3))
        assert abs(state.amplitudes[0b110]) == pytest.approx(1.0)


@st.composite
def built_circuits(draw):
    """Every kind of circuit qsim builds, for a drawn pair of series of N in
    2..64 points, a power k in 1..3 and a split level s in 1..lg N: both
    loaders, power circuits of both styles, their swap tests, the
    ancilla-free readout, and the canonical c and d oracles' preparations."""
    n = draw(st.integers(1, 6))
    k, s = draw(st.integers(1, 3)), draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t_raw, e_raw = rng.uniform(12.0, 28.0, 1 << n), rng.uniform(20.0, 40.0, 1 << n)
    t, e = normalize_affine(t_raw, 10.0), normalize_affine(e_raw, 0.0)
    t_sqrt, e_sqrt = normalize_sqrt(t_raw, 10.0), normalize_sqrt(e_raw, 0.0)
    circuits = []
    for encoding, (series_t, series_e) in (("amplitude", (t, e)),
                                           ("boe", (t_sqrt, e_sqrt))):
        loader_t = qhp.make_loader(series_t, encoding, s)
        loader_e = qhp.make_loader(series_e, encoding, s)
        circuits.append(loader_t.circuit)
        for style in ("no_mid_reset", "mid_reset"):
            plan = qhp.PowerPlan(k=k, style=style, encoding=encoding, s=s)
            pc = qhp.build_power_circuit(plan, loader_t)
            circuits += [pc.circuit, inner.build_swap_test(pc, loader_e).circuit]
            if encoding == "amplitude":
                circuits.append(inner.build_ancilla_free(pc, loader_e))
    circuits.append(qae.build_oracle_variant_c(t, e, k).prepare)
    circuits += [oracle.prepare for oracle in
                 qae.build_oracles_variant_d(t_sqrt, e_sqrt, k, s)]
    return circuits


class TestRealAmplitudes:
    """Every gate qsim builds is real, so amplitudes are float64."""

    @given(built_circuits())
    @settings(max_examples=helpers.examples(40), deadline=None)
    def test_every_built_payload_is_real(self, circuits):
        # a u gate's entries are Python floats without controls and
        # read-only float64 arrays of one entry per control pattern with
        # them, in each circuit and in its inverse
        for circ in circuits:
            for kind, qubits, payload in circ.gates + circ.inverse().gates:
                if kind != "u":
                    assert payload is None
                    continue
                for entry in payload:
                    if len(qubits) == 1:
                        assert type(entry) is float
                    else:
                        assert entry.dtype == np.float64
                        assert entry.shape == (1 << (len(qubits) - 1),)
                        assert not entry.flags.writeable

    def test_non_real_amplitudes_refused(self):
        with pytest.raises(ValueError, match="real"):
            Statevector(1, np.array([sim.SQRT1_2, 1j * sim.SQRT1_2]))
        # a complex vector with zero imaginary parts keeps its real bits
        amps = random_state(3, 2).amplitudes
        state = Statevector(3, amps.astype(complex))
        assert state.amplitudes.dtype == np.float64
        assert state.amplitudes.tobytes() == amps.tobytes()

    def test_width_guard_counts_eight_bytes(self, monkeypatch):
        monkeypatch.setattr(sim, "MAX_STATE_BYTES", 8 << 10)
        assert Statevector(10).amplitudes.nbytes == 8 << 10
        with pytest.raises(ValueError, match=r"11-qubit statevector needs 2\^14 bytes"):
            Statevector(11)


class TestMeasurement:
    @given(register_cases(), st.integers(0, 2**32 - 1))
    # every qubit: the view is one amplitude, which this seed squares to a
    # different bit pattern unless it is flattened first; no qubit: the
    # view is the whole state
    @example(case=(5, (3, 0, 4, 1, 2), 19), seed=964)
    @example(case=(4, (), 0), seed=6)
    @settings(max_examples=helpers.examples(150), deadline=None)
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
        # renormalized as complex128 division by a real renormalizes: the
        # real parts' bits
        expected = state.amplitudes.astype(complex)
        expected[~sel] = 0.0
        expected /= np.sqrt(p_ref)
        p, out = sim.project_bits(state.copy(), qubits, value)
        assert p == p_ref
        np.testing.assert_array_equal(bits(out.amplitudes), bits(expected.real.copy()))

    @given(marginal_cases())
    @settings(max_examples=helpers.examples(200), deadline=None)
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
            v = rng.normal(size=size)
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

    def test_postselect_reduces_width(self):
        state = random_state(3, 8)
        p, reduced = sim.postselect(state, (1, 2), 0)
        assert reduced.n_qubits == 1
        assert p == pytest.approx(
            sim.probability_of_bits(state, (1, 2), 0), abs=1e-12)

    def test_postselect_rejects_non_contiguous_register(self):
        # qubits 0 and 2 of |010> read 0 with probability 1, but a
        # non-contiguous register is refused rather than read as (0, 1)
        state = helpers.u_gate(Circuit(3), 1, helpers.PAULI_X).apply_unitary(
            Statevector.zero(3))
        with pytest.raises(ValueError, match="contiguous"):
            sim.postselect(state, (0, 2), 0)

    def test_measure_statistics(self):
        state = Circuit(1).h(0).apply_unitary(Statevector.zero(1))
        rng = RngStream(11)
        outcomes = [sim.measure(state.copy(), (0,), rng)[0] for _ in range(400)]
        assert 0.4 < np.mean(outcomes) < 0.6


class TestLivePrefix:
    """apply_unitary runs each gate on the live prefix it finds; the values
    must match the same gates run one by one on the whole array."""

    @given(live_circuits(), st.data())
    @settings(max_examples=helpers.examples(200), deadline=None)
    def test_prefix_matches_full_width(self, case, data):
        circ, touched = case
        n = circ.n_qubits
        state = circ.apply_unitary(Statevector.zero(n))
        reference = Statevector.zero(n).amplitudes
        for gate in circ.gates:
            Circuit._apply_gate(reference, n, gate)
        # equal as numbers: a zero may differ in sign only
        np.testing.assert_array_equal(state.amplitudes, reference)
        assert not state.amplitudes[1 << (max(touched, default=-1) + 1):].any()
        # a second circuit goes on from the state the first one left
        more, _touched = data.draw(live_circuits(n))
        for gate in more.gates:
            Circuit._apply_gate(reference, n, gate)
        np.testing.assert_array_equal(more.apply_unitary(state).amplitudes, reference)


def keyed(seed, path):
    """The NumPy generator of the stream at `path` under `seed`."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    counter = [0, *path] + [0] * (sim.MAX_PATH - len(path))
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


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
        # the bits of a generator built with its stream: child i on word i + 1
        for word, got in zip((2, 3), draws):
            np.testing.assert_array_equal(got, keyed(5, (word,)).uniform(size=4))

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 3, 2**128 + 5])
    def test_root_draws_seed_sequence_philox(self, seed):
        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        root = RngStream(seed)
        np.testing.assert_array_equal(root.generator.random(5), ref.random(5))
        assert root.binomial(1000, 0.3) == ref.binomial(1000, 0.3)
        np.testing.assert_array_equal(root.multinomial(100, [0.2, 0.3, 0.5]),
                                      ref.multinomial(100, [0.2, 0.3, 0.5]))

    def test_split_draws_keyed_counter(self):
        key = np.random.SeedSequence(7).generate_state(2, np.uint64)
        ref = np.random.Philox(key=key, counter=[0, 3, 0, 0])
        np.testing.assert_array_equal(RngStream(7).split(3)[2].generator.random(5),
                                      np.random.Generator(ref).random(5))
        # numbering continues across split calls
        root = RngStream(7)
        root.split(2)
        np.testing.assert_array_equal(root.child().generator.random(5),
                                      keyed(7, (3,)).random(5))

    @pytest.mark.parametrize("seed", [0, 5, 2**64 + 3, 2**128 + 5])
    def test_key_words_kept_exactly(self, seed):
        # a key word above 2^53 loses bits as a float or a Python-int key
        want = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        assert (want > 2**53).all()
        streams = [RngStream(seed)]
        streams += streams[0].split(2)
        streams += streams[-1].split(2)
        for stream in streams:
            got = stream.generator.bit_generator.state["state"]["key"]
            assert got.dtype == np.uint64
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=helpers.examples(60), deadline=None)
    @given(seed=st.sampled_from([0, 2**32, 2**64 + 3]) | st.integers(0, 2**160),
           data=st.data())
    def test_draws_depend_only_on_seed_and_path(self, seed, data):
        # splits, single children and draws anywhere in a tree, interleaved;
        # each stream then replays its draws on a generator built from (seed,
        # path) alone, streams in reverse order of creation
        streams = [RngStream(seed)]
        made = [[]]
        for kind, pick in data.draw(st.lists(
                st.tuples(st.sampled_from(["split", "child", "random", "binomial"]),
                          st.integers(0, 10**6)), max_size=16)):
            i = pick % len(streams)
            if kind in ("split", "child") and len(streams[i].path) < sim.MAX_PATH:
                children = (streams[i].split(data.draw(st.integers(1, 4)))
                            if kind == "split" else [streams[i].child()])
                streams += children
                made += [[] for _ in children]
            elif kind == "binomial":
                made[i].append(("binomial", 50, streams[i].binomial(50, 0.4)))
            else:
                made[i].append(("random", 3, streams[i].generator.random(3)))
        assert len({stream.path for stream in streams}) == len(streams)
        for stream, draws in reversed(list(zip(streams, made))):
            ref = keyed(seed, stream.path)
            for name, arg, got in draws:
                want = ref.binomial(arg, 0.4) if name == "binomial" else ref.random(arg)
                np.testing.assert_array_equal(got, want)

    @settings(max_examples=helpers.examples(30), deadline=None)
    @given(steps=st.lists(st.sampled_from([None, 1, 3]), max_size=12))
    def test_child_numbers_as_split_one(self, steps):
        # child() is split(1)[0] across any mix of child() and split(n) calls:
        # where one parent calls child() (None), the other calls split(1)
        by_child, by_split = RngStream(4), RngStream(4)
        for n in steps:
            got = [by_child.child()] if n is None else by_child.split(n)
            want = by_split.split(n or 1)
            assert [s.path for s in got] == [s.path for s in want]
        assert by_child.n_children == by_split.n_children

    def test_fourth_split_level_refused(self):
        stream = RngStream(9)
        for _ in range(sim.MAX_PATH):
            stream = stream.split(2)[1]
        assert stream.path == (2, 2, 2)
        assert 0.0 <= stream.generator.random() < 1.0
        with pytest.raises(ValueError, match="levels deep") as by_split:
            stream.split(1)
        with pytest.raises(ValueError, match="levels deep") as by_child:
            stream.child()
        assert str(by_child.value) == str(by_split.value)
        assert stream.n_children == 0

    @pytest.mark.parametrize("seed", [-1, -2**70, 1.5, np.float64(2.0), "3", [1, 2]])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(ValueError, match="seed"):
            RngStream(seed)

    def test_seedless_stream_draws(self):
        # None takes fresh OS entropy, as SeedSequence() does
        assert 0.0 <= RngStream().generator.random() < 1.0


class TestCircuit:
    def test_payloads_are_immutable(self):
        # controlled gates hold read-only arrays and uncontrolled ones Python
        # floats, in a circuit and in its inverse
        circ = Circuit(3).h(0).ry(1, 0.7).ucry([2, 0], 1, [0.1, 0.2, 0.3, 0.4])
        entries = tuple(np.full(2, x) for x in sim.HADAMARD.ravel())
        for entry in entries:
            entry.setflags(write=False)
        circ.gates.append(("u", (2, 0), entries))
        for _kind, qubits, payload in circ.gates + circ.inverse().gates:
            for entry in payload:
                if len(qubits) == 1:
                    assert type(entry) is float
                    continue
                with pytest.raises(ValueError, match="read-only"):
                    entry[0] = 1.0

    @given(live_circuits())
    @settings(max_examples=helpers.examples(100), deadline=None)
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
        circ = helpers.u_gate(Circuit(1), 0, helpers.PAULI_X)
        wide = circ.remapped([2], 3)
        state = Statevector.zero(3)
        wide.apply_unitary(state)
        assert abs(state.amplitudes[0b100]) == pytest.approx(1.0)

    @given(live_circuits(), st.integers(0, 2**32 - 1))
    @settings(max_examples=helpers.examples(150), deadline=None)
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

        def moved(amps):
            return amps.reshape((2,) * n).transpose(axes).reshape(-1)

        # from a full-width state every gate runs on the whole array, so the
        # remapped circuit on the moved state must give the moved output's bits
        out = circ.apply_unitary(Statevector(n, start)).amplitudes
        got = circ.remapped(perm, n).apply_unitary(Statevector(n, moved(start)))
        np.testing.assert_array_equal(bits(got.amplitudes), bits(moved(out)))

    @given(st.integers(0, 2), st.floats(-3.0, 3.0))
    @settings(max_examples=helpers.examples(25), deadline=None)
    def test_ry_preserves_norm(self, qubit, angle):
        state = random_state(3, 42)
        Circuit(3).ry(qubit, angle).apply_unitary(state)
        assert np.linalg.norm(state.amplitudes) ** 2 == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(0, 60))
    @settings(max_examples=helpers.examples(25), deadline=None)
    def test_ucry_pattern_indexing(self, seed):
        # controls select the angle by their MSB-first bit pattern
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0, np.pi, size=4)
        circ = Circuit(3)
        circ.ucry([2, 1], 0, angles)
        for pattern in range(4):
            prep = Circuit(3)
            if pattern & 0b10:
                helpers.u_gate(prep, 2, helpers.PAULI_X)
            if pattern & 0b01:
                helpers.u_gate(prep, 1, helpers.PAULI_X)
            state = circ.apply_unitary(prep.apply_unitary(Statevector.zero(3)))
            p1 = sim.marginal_probabilities(state, [0])[1]
            assert p1 == pytest.approx(np.sin(angles[pattern] / 2.0) ** 2,
                                       abs=1e-12)
