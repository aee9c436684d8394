"""Inner-product circuits, shot estimators and sample-size calculators.

Measurement statistics are drawn from the exact Born distribution of the
simulated circuit (binomial/multinomial sampling over the final outcome
categories), which is equivalent to shot-by-shot execution of the
deferred-measurement circuit.

Every consumed power register Z is post-selected on 0 before the readout,
and the readout gates (the swap test, or U_E^dagger on the survivor) never
touch it.  So the readout runs only on the unnormalised branch where Z
reads 0.

The bits are those of the full deferred-measurement state.  Each Ry of a
tree or BOE loader acts on a qubit in |0>, so u00*a0 + u01*a1 adds an exact
zero and every loaded amplitude is a left fold of rotation factors; swaps
and CNOTs move amplitudes and do no arithmetic.  The full state's diagonal
(x, x, ..., x) is the fold over blocks 0, 1, ..., k-1 in that order.  For
amplitude encoding the branch is computed as that fold, k folds of x's path
factors (AmplitudeLoader.fold) starting from 1, and the swap test's E
register is written above it by E's fold of each branch amplitude; only the
readout gates (U_E^dagger, or H, cswap, H) run on the statevector.  With
n = lg N, variant b allocates n qubits and variant a 2n + 1, rather than
k n and (k + 1) n + 1.  A BOE block keeps its side qubits on the branch,
whose fold is not a product over the primary's path, so the BOE branch is
built as the paper's dynamic circuit runs it: load block 0, then per round
load the next block above the branch, CNOT the survivor's primary into it
and keep the branch where it reads 0.  That chain computes the same fold.
For a BOE block of width w and k >= 2 it allocates at most k w - (k - 2) n
qubits and its swap test (k + 1) w - (k - 1) n + 1.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import qhp, sim
from .sim import Circuit, Statevector

MIN_SHOTS = 16


# Quantile function of the standard normal distribution; it raises
# statistics.StatisticsError, a ValueError, for p outside (0, 1).
phi_inverse = NormalDist().inv_cdf


@dataclass
class InnerEstimate:
    y_hat: float
    y_prime_hat: float
    shots_used: int
    clamped: bool = False
    method: str = ""


# ---------------------------------------------------------------------------
# Sample-size calculators
# ---------------------------------------------------------------------------

def shots_swap(p, epsilon, alpha):
    """Swap-test sample size; diverges as p -> 0."""
    if p <= 0:
        raise ValueError("p must be positive")
    q = phi_inverse((1.0 + alpha) / 2.0)
    return math.ceil((1.0 - p**4) / (4.0 * epsilon * epsilon * p * p) * q * q)


def shots_ancilla_free(p, epsilon, alpha):
    """Ancilla-free sample size; bounded by its p=0 value."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    q = phi_inverse((1.0 + alpha) / 2.0)
    return math.ceil((1.0 - p * p) / (4.0 * epsilon * epsilon) * q * q)


def _shots_p_free(epsilon, alpha):
    """p-independent sample-size bound, also the pilot size for swap runs."""
    q = phi_inverse((1.0 + alpha) / 2.0)
    return max(MIN_SHOTS, math.ceil(q * q / (4.0 * epsilon * epsilon)))


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

@dataclass
class SwapTest:
    circuit: Circuit
    width: int
    ancilla: int


def build_swap_test(prep_a, prep_b):
    """Ancilla-controlled swap of the two primary registers.

    P(ancilla = 0) = 1/2 + 1/2 p^2 for pure primary states, and more
    generally 1/2 + 1/2 Tr(rho sigma) for the reduced primary states.  A
    prep is a loader or a power circuit: anything with a circuit, a width
    and a primary register.  The ancilla is the last qubit.
    """
    if len(prep_a.primary) != len(prep_b.primary):
        raise ValueError("primary register sizes differ")
    wa, wb = prep_a.width, prep_b.width
    width = wa + wb + 1
    anc = width - 1
    circ = prep_a.circuit.remapped(range(wa), width)
    circ.extend(prep_b.circuit.remapped(range(wa, wa + wb), width))
    circ.h(anc)
    circ.cswap(anc, prep_a.primary, [q + wa for q in prep_b.primary])
    circ.h(anc)
    return SwapTest(circuit=circ, width=width, ancilla=anc)


def build_ancilla_free(prep_a, loader_b):
    """Apply U_B^dagger, loader_b's kept adjoint, after preparing |psi_A>;
    P(all-zero) = p^2."""
    if loader_b.width != len(prep_a.primary):
        raise ValueError("loader width must match the primary register")
    circ = prep_a.circuit.remapped(range(prep_a.width), prep_a.width)
    circ.extend(loader_b.adjoint.remapped(prep_a.primary, prep_a.width))
    return circ


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def _folds(loader):
    """Whether `loader` has no side register (amplitude encoding), so that
    loading it onto qubits in |0> above a real branch is its fold."""
    return loader.width == len(loader.primary)


def _written(loader, width, primary):
    """A prep with no gates, for a register already written on the state."""
    return qhp.PowerCircuit(width=width, primary=primary, measured=[], loader=loader)


def _zero_branch(pc, pad):
    """(prep, state) for a readout that runs after power circuit pc and acts
    on the survivor and on `pad` qubits above the branch.

    With consumed registers, state is pc's unnormalised branch where every
    consumed register reads 0: the remaining qubits in ascending order,
    zero-padded by `pad` qubits, allocated before any work so that the width
    guard refuses an oversized request first.  For a loader with no side
    register that branch is k folds (AmplitudeLoader.fold) of a ones vector,
    written into the padded state.  A BOE branch is built as a chain of
    k - 1 rounds (qhp.chain_round) on the branch so far, each round loading
    one block above it, CNOT-ing the survivor's primary into that block's
    primary and keeping the branch where that primary reads 0, so no state
    holds more than one block beyond the branch.  prep is that branch's
    power circuit, with no gates and no consumed register.  The survivor is
    block 0, below every consumed register, so its primary keeps its qubits
    on the branch.  With no consumed register (k = 1) the branch is the
    whole power state: prep is pc, whose gates the readout circuit runs
    first, and state is |0> at the padded width.
    """
    if not pc.measured:
        return pc, Statevector.zero(pc.width + pad)
    loader = pc.loader
    bw = loader.width
    rounds = len(pc.measured)
    if _folds(loader):
        st = Statevector.zero(bw + pad)
        branch = st.amplitudes[:1 << bw].real
        branch[...] = 1.0
        for _ in range(rounds + 1):
            loader.fold(branch)
        st.live = bw
        return _written(loader, bw, pc.primary), st
    st = loader.circuit.apply_unitary(Statevector.zero(2 * bw))
    width = bw
    for t in range(1, rounds + 1):
        step, reg = qhp.chain_round(loader, width, width + bw)
        step.apply_unitary(st)
        width += bw - len(reg)
        st = sim.branch(st, reg, 0, width + (bw if t < rounds else pad))
    return _written(loader, width, pc.primary), st


def _ancilla_free_readout(pc, loader_b):
    """P(every register reads 0) after QHP and U_B^dagger on the survivor:
    |amplitude 0|^2 of the Z=0 branch, Z being every consumed register."""
    prep, st = _zero_branch(pc, 0)
    build_ancilla_free(prep, loader_b).apply_unitary(st)
    return float(abs(st.amplitudes[0]) ** 2)


def _swap_readout(pc, e_loader):
    """(P(Z=0), P(Z=0 and ancilla=0)) for QHP followed by a swap test against
    `e_loader`, where Z is every consumed register.  The swap test runs on
    the Z=0 branch padded with the E register and the ancilla, so P(Z=0) is
    that state's total probability.  When E's loader folds, its register is
    written above the branch in place (amp[e, x] is E's fold of branch[x]
    along e's path) and the test runs H, cswap, H with no E gates."""
    prep, st = _zero_branch(pc, e_loader.width + 1)
    if pc.measured and _folds(e_loader):
        wa, wb = prep.width, e_loader.width
        rows = st.amplitudes[:1 << (wa + wb)].reshape(1 << wb, 1 << wa).real
        rows[1:] = rows[0]
        e_loader.fold(rows)
        st.live = wa + wb
        e_loader = _written(e_loader, wb, e_loader.primary)
    test = build_swap_test(prep, e_loader)
    test.circuit.apply_unitary(st)
    p_z0 = sim.probability_of_bits(st, (), 0) if pc.measured else 1.0
    return p_z0, sim.probability_of_bits(st, (test.ancilla,), 0)


def _qhp_swap_probabilities(pc, e_loader):
    """Multinomial pvals of QHP followed by a swap test, over the outcomes
    (Z=0, ancilla=0), (Z=0, ancilla=1) and Z!=0."""
    p_z0, p_z0_x0 = _swap_readout(pc, e_loader)
    pvals = np.clip([p_z0_x0, max(p_z0 - p_z0_x0, 0.0), max(1.0 - p_z0, 0.0)],
                    0.0, None)
    return pvals / pvals.sum()


def estimate_yk_variant_ab(series_T, series_E, k, style, epsilon, alpha, rng,
                           shots=None):
    """QHP + ancilla-free estimator Y_S = sqrt(Xbar).

    X_i = 1 iff every measured register and the survivor read all zeros;
    the per-shot success probability is exactly y_k^2.
    """
    pc = qhp.power_circuit(series_T, k, style)
    p = _ancilla_free_readout(pc, qhp.make_loader(series_E))

    S = shots if shots is not None else _shots_p_free(epsilon, alpha)
    S = max(MIN_SHOTS, S)
    ones = int(rng.binomial(S, min(p, 1.0)))
    y = math.sqrt(ones / S)
    scale = series_T.rho ** -k * series_E.rho ** -1
    return InnerEstimate(y_hat=y, y_prime_hat=scale * y, shots_used=S,
                         method="ancilla_free")


def estimate_yk_swap(series_T, series_E, k, epsilon, alpha, rng, shots=None):
    """QHP + swap-test estimator (two-stage).

    A pilot run of p-free size fixes the final sample size
    max{4, a_k^-2 y^-2} eps^-2 [Phi^-1((3+alpha)/4)]^2; the square root is
    clamped at 0 and the event recorded.
    """
    pc = qhp.power_circuit(series_T, k)
    e_loader = qhp.make_loader(series_E)
    pvals = _qhp_swap_probabilities(pc, e_loader)

    def draw(S):
        c00, c01, _rest = rng.multinomial(S, pvals)
        return (2.0 * c00 - (c00 + c01)) / S

    if shots is None:
        s_pilot = _shots_p_free(epsilon, alpha)
        y_pilot = math.sqrt(max(draw(s_pilot), 0.0))
        if y_pilot < epsilon:
            raise ValueError(
                "pilot estimate indistinguishable from 0 at the requested epsilon")
        a_k = qhp.norm_constant_ak(series_T, k)
        q = phi_inverse((3.0 + alpha) / 4.0)
        S = math.ceil(max(4.0, 1.0 / (a_k**2 * y_pilot**2))
                      / epsilon**2 * q * q)
        S = max(MIN_SHOTS, S)
        used = s_pilot + S
    else:
        S = max(MIN_SHOTS, shots)
        used = S
    radicand = draw(S)
    y = math.sqrt(max(radicand, 0.0))
    scale = series_T.rho ** -k * series_E.rho ** -1
    return InnerEstimate(y_hat=y, y_prime_hat=scale * y, shots_used=used,
                         clamped=radicand < 0.0, method="swap")


def estimate_ytilde_boe_swap(series_Tsqrt, series_Esqrt, k, s, epsilon, alpha,
                             rng, shots=None):
    """BOE + swap-test estimator for ytilde_k (no square root)."""
    if series_Tsqrt.mode != "sqrt" or series_Esqrt.mode != "sqrt":
        raise ValueError("BOE estimation requires sqrt-normalized series")
    pc = qhp.power_circuit(series_Tsqrt, k, encoding="boe", s=s)
    e_loader = qhp.make_loader(series_Esqrt, "boe", s)
    pvals = _qhp_swap_probabilities(pc, e_loader)

    if shots is None:
        q = phi_inverse((3.0 + alpha) / 4.0)
        S = max(MIN_SHOTS, math.ceil(16.0 / epsilon**2 * q * q))
    else:
        S = max(MIN_SHOTS, shots)
    c00, c01, _rest = rng.multinomial(S, pvals)
    y_tilde = (2.0 * c00 - (c00 + c01)) / S
    scale = series_Tsqrt.rho ** (-2 * k) * series_Esqrt.rho ** -2
    return InnerEstimate(y_hat=float(y_tilde), y_prime_hat=float(scale * y_tilde),
                         shots_used=S, method="boe_swap")
