"""Inner-product circuits, shot estimators and sample-size calculators.

Measurement statistics are drawn from the exact Born distribution of the
readout (binomial/multinomial sampling over the final outcome categories),
which is equivalent to shot-by-shot execution of the deferred-measurement
circuit.

Every consumed power register Z is post-selected on 0 before the readout,
and the readout gates (the swap test, or U_E^dagger on the survivor) never
touch it, so each readout is fixed by the branch where Z reads 0.  With
k >= 2 that branch's probabilities are read in closed form, as O(N) sums
over the normalised values, with y_k = sum_j E_j T_j^k:

* P(Z=0) = a_k^-2 = sum_j T_j^{2k};
* the ancilla-free readout (variant b) succeeds with y_k^2;
* the swap test (variant a) reads Z=0 and ancilla 0 with
  (a_k^-2 + y_k^2) / 2;
* the BOE swap test reads the same pair on the sqrt-normalised values,
  with sum_j E_j^2 T_j^{2k} in place of y_k^2: the side states are
  orthonormal, so the swap only sees the diagonal of each primary.

At k = 1 nothing is consumed, and the readout circuit (the power circuit
followed by U_E^dagger or by the swap test) runs on the statevector.
"""

import functools
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

def _consumed_branch(series_T, series_E, k, boe=False):
    """(P(Z=0), overlap) of the branch where every consumed register Z
    reads 0, for k >= 2: S_k = sum_j T_j^{2k} (qhp.success_probability),
    and y_k^2, or with BOE sum_j E_j^2 T_j^{2k} (module docstring)."""
    t, e = series_T.values, series_E.values
    p_z0 = qhp.success_probability(series_T, k)
    overlap = np.sum(e * e * t ** (2 * k)) if boe else np.dot(e, t ** k) ** 2
    return p_z0, float(overlap)


def _kept_per_pair(law):
    """Keep law(series_T, series_E, *args) in series_T.readouts, keyed by
    law's name, the partner series_E and args, and read it from there on
    every later call.  Series values are read-only, so a kept law cannot go
    stale; a call whose arguments law refuses raises and keeps nothing."""
    @functools.wraps(law)
    def kept(series_T, series_E, *args):
        key = (law.__name__, series_E, *args)
        laws = series_T.readouts
        if key not in laws:
            laws[key] = law(series_T, series_E, *args)
        return laws[key]
    return kept


@_kept_per_pair
def _ancilla_free_readout(series_T, series_E, k, style):
    """P(every register reads 0) after QHP and U_E^dagger on the survivor:
    y_k^2."""
    if k > 1:
        qhp.PowerPlan(k=k, style=style)  # refuses an unknown style at every k
        return _consumed_branch(series_T, series_E, k)[1]
    pc = qhp.power_circuit(series_T, 1, style)
    st = build_ancilla_free(pc, qhp.make_loader(series_E)).apply_unitary(
        Statevector.zero(pc.width))
    return float(abs(st.amplitudes[0]) ** 2)


def _swap_readout(series_T, series_E, k, encoding="amplitude", s=1):
    """(P(Z=0), P(Z=0 and ancilla=0)) for QHP followed by a swap test
    against E's loader, where Z is every consumed register."""
    e_loader = qhp.make_loader(series_E, encoding, s)  # refuses a bad split level
    if k > 1:
        p_z0, overlap = _consumed_branch(series_T, series_E, k, encoding == "boe")
        return p_z0, (p_z0 + overlap) / 2
    test = build_swap_test(qhp.power_circuit(series_T, 1, encoding=encoding, s=s),
                           e_loader)
    st = test.circuit.apply_unitary(Statevector.zero(test.width))
    return 1.0, sim.probability_of_bits(st, (test.ancilla,), 0)


@_kept_per_pair
def _qhp_swap_probabilities(series_T, series_E, k, encoding="amplitude", s=1):
    """Multinomial pvals of QHP followed by a swap test, over the outcomes
    (Z=0, ancilla=0), (Z=0, ancilla=1) and Z!=0; read-only, as they are
    kept."""
    p_z0, p_z0_x0 = _swap_readout(series_T, series_E, k, encoding, s)
    pvals = np.clip([p_z0_x0, max(p_z0 - p_z0_x0, 0.0), max(1.0 - p_z0, 0.0)],
                    0.0, None)
    pvals /= pvals.sum()
    pvals.setflags(write=False)
    return pvals


def estimate_yk_variant_ab(series_T, series_E, k, style, epsilon, alpha, rng,
                           shots=None):
    """QHP + ancilla-free estimator Y_S = sqrt(Xbar).

    X_i = 1 iff every measured register and the survivor read all zeros;
    the per-shot success probability is exactly y_k^2.
    """
    p = _ancilla_free_readout(series_T, series_E, k, style)

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
    pvals = _qhp_swap_probabilities(series_T, series_E, k)

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
    pvals = _qhp_swap_probabilities(series_Tsqrt, series_Esqrt, k, "boe", s)

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
