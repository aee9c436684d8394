"""Inner-product circuits, shot estimators and sample-size calculators.

Measurement statistics are drawn from the exact Born distribution of the
simulated circuit (binomial/multinomial sampling over the final outcome
categories), which is equivalent to shot-by-shot execution of the
deferred-measurement circuit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import qhp, sim
from .encoding import build_tree, load_amplitude
from .sim import Circuit, Statevector

MIN_SHOTS = 16


# ---------------------------------------------------------------------------
# Standard normal quantile
# ---------------------------------------------------------------------------

# Rational approximation (Acklam) refined by one Halley step against erfc.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def phi_inverse(p):
    """Quantile function of the standard normal distribution."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    # Halley refinement
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    x = x - u / (1.0 + x * u / 2.0)
    return x


@dataclass
class InnerEstimate:
    y_hat: float
    y_prime_hat: float
    shots_used: int
    tallies: dict = field(default_factory=dict)
    clamped: bool = False
    method: str = ""
    epsilon: float = 0.0
    alpha: float = 0.0


# ---------------------------------------------------------------------------
# Sample-size calculators
# ---------------------------------------------------------------------------

def shots_sqrt_estimator(a, b, mu, sigma, epsilon, alpha):
    """Shots needed for sqrt(max(a Xbar + b, 0)) to reach accuracy epsilon."""
    if a == 0:
        raise ValueError("a must be nonzero")
    if a * mu + b <= 0:
        raise ValueError("a*mu + b must be positive")
    if sigma == 0:
        return 0
    q = phi_inverse((1.0 + alpha) / 2.0)
    return math.ceil(a * a * sigma * sigma / (4.0 * (a * mu + b) * epsilon * epsilon) * q * q)


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
    circ = Circuit(width)
    circ.extend(prep_a.circuit.remapped(list(range(wa)), width))
    circ.extend(prep_b.circuit.remapped(list(range(wa, wa + wb)), width))
    circ.h(anc)
    circ.cswap(anc, prep_a.primary, [q + wa for q in prep_b.primary])
    circ.h(anc)
    return SwapTest(circuit=circ, width=width, ancilla=anc)


def build_ancilla_free(prep_a, loader_b):
    """Apply U_B^dagger after preparing |psi_A>; P(all-zero) = p^2."""
    if loader_b.width != len(prep_a.primary):
        raise ValueError("loader width must match the primary register")
    circ = Circuit(prep_a.width)
    circ.extend(prep_a.circuit.remapped(list(range(prep_a.width)), prep_a.width))
    circ.extend(loader_b.inverse().remapped(list(prep_a.primary), prep_a.width))
    return circ


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def _qhp_swap_probabilities(pc, e_loader):
    """(P(Z=0), P(Z=0 and ancilla=0), multinomial pvals) for QHP followed by
    a swap test; the pvals are those of the outcomes (Z=0, ancilla=0),
    (Z=0, ancilla=1) and Z!=0."""
    test = build_swap_test(pc, e_loader)
    st = Statevector.zero(test.width)
    test.circuit.apply_unitary(st)
    z_qubits = tuple(q for _r, reg in pc.measured for q in reg)
    if z_qubits:
        p_z0 = sim.probability_of_bits(st, z_qubits, 0)
    else:
        p_z0 = 1.0
    p_z0_x0 = sim.probability_of_bits(st, z_qubits + (test.ancilla,), 0)
    pvals = np.clip([p_z0_x0, max(p_z0 - p_z0_x0, 0.0), max(1.0 - p_z0, 0.0)],
                    0.0, None)
    return p_z0, p_z0_x0, pvals / pvals.sum()


def estimate_yk_variant_ab(series_T, series_E, k, style, epsilon, alpha, rng,
                           shots=None):
    """QHP + ancilla-free estimator Y_S = sqrt(Xbar).

    X_i = 1 iff every measured register and the survivor read all zeros;
    the per-shot success probability is exactly y_k^2.
    """
    pc = qhp.power_circuit(series_T, k, style)
    e_loader = load_amplitude(build_tree(series_E))
    st = Statevector.zero(pc.width)
    build_ancilla_free(pc, e_loader).apply_unitary(st)
    p = float(abs(st.amplitudes[0]) ** 2)

    S = shots if shots is not None else _shots_p_free(epsilon, alpha)
    S = max(MIN_SHOTS, S)
    ones = int(rng.binomial(S, min(p, 1.0)))
    y = math.sqrt(ones / S)
    scale = series_T.rho ** -k * series_E.rho ** -1
    return InnerEstimate(y_hat=y, y_prime_hat=scale * y, shots_used=S,
                         tallies={"ones": ones, "shots": S, "p_exact": p},
                         method="ancilla_free", epsilon=epsilon, alpha=alpha)


def estimate_yk_swap(series_T, series_E, k, epsilon, alpha, rng, shots=None):
    """QHP + swap-test estimator (two-stage).

    A pilot run of p-free size fixes the final sample size
    max{4, a_k^-2 y^-2} eps^-2 [Phi^-1((3+alpha)/4)]^2; the square root is
    clamped at 0 and the event recorded.
    """
    pc = qhp.power_circuit(series_T, k)
    e_loader = load_amplitude(build_tree(series_E))
    p_z0, p_z0_x0, pvals = _qhp_swap_probabilities(pc, e_loader)

    def draw(S):
        c00, c01, _rest = rng.multinomial(S, pvals)
        radicand = (2.0 * c00 - (c00 + c01)) / S
        return int(c00), int(c01), radicand

    if shots is None:
        s_pilot = _shots_p_free(epsilon, alpha)
        _c0, _c1, rad = draw(s_pilot)
        y_pilot = math.sqrt(max(rad, 0.0))
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
    c00, c01, radicand = draw(S)
    clamped = radicand < 0.0
    y = math.sqrt(max(radicand, 0.0))
    scale = series_T.rho ** -k * series_E.rho ** -1
    return InnerEstimate(y_hat=y, y_prime_hat=scale * y, shots_used=used,
                         tallies={"zz_and_x0": c00, "zz_and_x1": c01,
                                  "shots": S, "p_z0": p_z0, "p_z0_x0": p_z0_x0},
                         clamped=clamped, method="swap",
                         epsilon=epsilon, alpha=alpha)


def estimate_ytilde_boe_swap(series_Tsqrt, series_Esqrt, k, s, epsilon, alpha,
                             rng, shots=None):
    """BOE + swap-test estimator for ytilde_k (no square root)."""
    if series_Tsqrt.mode != "sqrt" or series_Esqrt.mode != "sqrt":
        raise ValueError("BOE estimation requires sqrt-normalized series")
    pc = qhp.power_circuit(series_Tsqrt, k, encoding="boe", s=s)
    e_loader = qhp.make_loader(series_Esqrt, "boe", s)
    p_z0, p_z0_x0, pvals = _qhp_swap_probabilities(pc, e_loader)

    if shots is None:
        q = phi_inverse((3.0 + alpha) / 4.0)
        S = max(MIN_SHOTS, math.ceil(16.0 / epsilon**2 * q * q))
    else:
        S = max(MIN_SHOTS, shots)
    c00, c01, _rest = rng.multinomial(S, pvals)
    y_tilde = (2.0 * c00 - (c00 + c01)) / S
    scale = series_Tsqrt.rho ** (-2 * k) * series_Esqrt.rho ** -2
    return InnerEstimate(y_hat=float(y_tilde), y_prime_hat=float(scale * y_tilde),
                         shots_used=S,
                         tallies={"zz_and_x0": int(c00), "zz_and_x1": int(c01),
                                  "shots": S, "p_z0": p_z0, "p_z0_x0": p_z0_x0},
                         method="boe_swap", epsilon=epsilon, alpha=alpha)
