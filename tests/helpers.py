"""The references the tests compare qsim against, one per subject, the
inputs the tests share, and the CLI's exit contract (check_exit).

The gate kernels are checked against gather/scatter index arithmetic, and
the closed-form laws against a fully simulated state, read through
per-index register values and np.add.at, the direct readout that qsim's
strided readouts must match.
"""

import json
import math
import warnings

import numpy as np
from click.testing import CliRunner
from hypothesis import settings

from qsim import inner, sim
from qsim.assembly import _pair_with_overlap
from qsim.cli import main
from qsim.encoding import normalize_affine, normalize_sqrt
from qsim.qhp import QhpOutcome
from qsim.sim import Circuit, Statevector

# Pauli X, for u_gate: qsim has no X gate of its own.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])

# The 4-point fixture that the estimator tests share: temperatures T and
# prices E.
FIXTURE_T = (12.0, 17.0, 23.0, 28.0)
FIXTURE_E = (30.0, 24.0, 36.0, 28.0)


# how many times each hypothesis test's max_examples it draws: ten under the
# explore profile (conftest.py), once under tier1
EXAMPLES_SCALE = 10 if settings.get_current_profile_name() == "explore" else 1


def examples(n):
    """A hypothesis test's max_examples, n under tier1."""
    return n * EXAMPLES_SCALE


# values at every field's edge: zeros, -1, the least subnormal, the float
# below 1, 1.5, not a number, past int64 (2^63), far past it (2^128) or
# past float64 (10^400), or of the wrong type
SPECIAL = [0, -0.0, -1, 5e-324, 1 - 2.0**-53, 1.5, math.nan, math.inf, -math.inf, 2**63,
           2**128, 10**400, True, "x", "0", None, [], {}, [1]]


def edge_values(field):
    """The values at a table field's edges: each finite end of its interval,
    that end's math.nextafter neighbours (and the next integers, for an
    integer field), each value a choice field takes, and SPECIAL.  A list
    field's values are each of those followed by the rest of its default
    (by 30.0, inside the fit window, for the fit's domain), and also the
    empty list and, for a distinct field, its default's first value twice."""
    values = list(field.kind) if isinstance(field.kind, tuple) else []
    for end in (field.at_least, field.above, field.at_most, field.below):
        if end is not None:
            values += [end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)]
            values += [] if field.kind == "number" else [end - 1, end + 1]
    values += SPECIAL
    if not field.items:
        return values
    rest = field.default[1:] if field.default else [30.0]
    lists = [[value] + rest for value in values] + [[]]
    if field.distinct:
        lists.append(field.default[:1] * 2 + rest)
    return lists + SPECIAL


def _no_constant(text):
    raise ValueError(f"{text} in an exit-0 report")


def check_exit(code, stdout, stderr):
    """The CLI's exit contract, in process or as a console script.  Exit 0
    prints a JSON report of finite numbers and nothing on stderr.  Exit 2 (an
    assumption violated) or 3 (I/O or malformed JSON) prints nothing on
    stdout and one stderr line that opens with "assumption violated: " or
    "error: ", or exits 2 with click's own "Usage:" block, for an option
    click cannot parse, whose last line opens with "Error: ".  Returns the
    report, or the refusal's (last) line."""
    assert code in (0, 2, 3), (code, stdout, stderr)
    if code == 0:
        assert stderr == "", stderr
        return json.loads(stdout, parse_constant=_no_constant)
    assert stdout == "", stdout
    lines = stderr.splitlines(keepends=True)
    if code == 2 and stderr.startswith("Usage: "):
        assert lines[-1].startswith("Error: "), stderr
    else:
        assert len(lines) == 1 and stderr.endswith("\n"), stderr
        assert stderr.startswith("assumption violated: " if code == 2 else "error: "), stderr
    return lines[-1]


def invoke(args, warns=()):
    """Run the CLI on args in process and hold it to check_exit; a warning
    of a category that warns does not name fails it, and an exception
    that is not a refusal is raised here.  Returns (exit code, what
    check_exit returns, the categories of the warnings raised, in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, args)
    if not isinstance(result.exception, (SystemExit, type(None))):
        raise result.exception
    raised = [w.category for w in caught]
    assert set(raised) <= set(warns), (args, [str(w.message) for w in caught])
    return result.exit_code, check_exit(result.exit_code, result.stdout, result.stderr), raised


def fixture_pair(encoding="amplitude", eta=10.0):
    """The fixture normalised, T shifted by eta and E by 0: sqrt-normalised
    for the "boe" encoding, affine otherwise."""
    normalize = normalize_sqrt if encoding == "boe" else normalize_affine
    return normalize(FIXTURE_T, eta), normalize(FIXTURE_E, 0.0)


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


def _indices(n_qubits, mask, value):
    """Basis indices i in [0, 2^n) with i & mask == value, increasing."""
    idx = np.arange(1 << n_qubits, dtype=np.int64)
    return idx[(idx & mask) == value]


def ctrl_1q_reference(amps, n_qubits, ctrl_mask, ctrl_val, target, u00, u01, u10, u11):
    """kernels.apply_ctrl_1q by gather/scatter, in place: on each pair
    (i, i | target bit) whose controls read ctrl_val, u00*a0 + u01*a1 and
    u10*a0 + u11*a1, evaluated in that order, so the bits must agree."""
    tbit = 1 << target
    i0 = _indices(n_qubits, ctrl_mask | tbit, ctrl_val)
    i1 = i0 | tbit
    a0, a1 = amps[i0], amps[i1]
    amps[i0] = u00 * a0 + u01 * a1
    amps[i1] = u10 * a0 + u11 * a1


def u_gate_reference(amps, n_qubits, gate):
    """Apply a ("u", controls + (target,), payload) gate to amps in place by
    ctrl_1q_reference, one control pattern at a time with that pattern's
    coefficients as Python floats: the bits that one uniformly controlled
    kernel call must keep."""
    _kind, qubits, payload = gate
    controls = qubits[-2::-1]  # least-significant pattern bit first
    mask = sum(1 << q for q in controls)
    for pattern, coeffs in enumerate(zip(*(np.ravel(u).tolist() for u in payload))):
        val = sum(1 << q for j, q in enumerate(controls) if pattern >> j & 1)
        ctrl_1q_reference(amps, n_qubits, mask, val, qubits[-1], *coeffs)


def cswap_reference(amps, n_qubits, ctrl_mask, ctrl_val, qa, qb):
    """kernels.apply_cswap_pair by gather/scatter, in place: where the
    controls read ctrl_val, one qubit pair (a, b) at a time, exchange each
    amplitude whose pair reads (1, 0) with its partner that reads (0, 1)."""
    for a, b in zip(qa, qb):
        abit, bbit = 1 << a, 1 << b
        i0 = _indices(n_qubits, ctrl_mask | abit | bbit, ctrl_val | abit)
        i1 = i0 ^ abit | bbit
        amps[i0], amps[i1] = amps[i1], amps[i0]


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
    closed form: one QhpOutcome per shot.

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
                out.append(QhpOutcome(False, t, t))
                break
        else:
            out.append(QhpOutcome(True, k - 1, k))
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
