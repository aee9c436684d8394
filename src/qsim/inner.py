"""Inner-product circuits, shot estimators and sample-size calculators.

Measurement statistics are drawn from the exact Born distribution of the
readout (binomial/multinomial sampling over the final outcome categories),
which is equivalent to shot-by-shot execution of the deferred-measurement
circuit.

Every consumed power register Z is post-selected on 0 before the readout,
and the readout gates (the swap test, or U_E^dagger on the survivor) never
touch it, so each readout is fixed by the branch where Z reads 0.  That
branch's probabilities are O(N) sums over the normalised values, with
y_k = sum_j E_j T_j^k:

* P(Z=0) = a_k^-2 = sum_j T_j^{2k};
* the ancilla-free readout (variants b and c) succeeds with y_k^2;
* the swap test (variant a) reads Z=0 and ancilla 0 with
  (a_k^-2 + y_k^2) / 2;
* the BOE swap test reads the same pair on the sqrt-normalised values,
  with sum_j E_j^2 T_j^{2k} in place of y_k^2: the side states are
  orthonormal, so the swap only sees the diagonal of each primary.

The ancilla-free readout takes its closed form at every k, the swap tests
at k >= 2; at k = 1 their power circuit and swap test run on the
statevector.
"""

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import qhp, sim
from .encoding import boe_width
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

    @classmethod
    def of(cls, y, series_T, series_E, k, shots_used, **fields):
        """The estimate y of a normalised power sum, with its un-normalised
        y' = y / (rho_T^k rho_E), each rho squared for sqrt-normalised series
        (ytilde_k on the BOE encoding)."""
        p = 2 if series_T.mode == "sqrt" else 1
        y = float(y)
        scale = series_T.rho ** (-p * k) * series_E.rho ** -p
        return cls(y_hat=y, y_prime_hat=scale * y, shots_used=shots_used, **fields)


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


def _shot_count(size):
    """ceil(size()) shots, at least MIN_SHOTS, for a sample size that grows
    as epsilon^-2.  ValueError naming epsilon unless the size is a finite
    count of at most 2^63 - 1, the most NumPy's binomial and multinomial
    draw; epsilon^2 may underflow to 0, so size() may divide by zero."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            shots = size()
        except ZeroDivisionError:
            shots = math.inf
    if not shots <= 2**63 - 1:
        raise ValueError(f"epsilon too small: the sample size {shots:.3g} is not "
                         "a finite count of at most 2^63 - 1 shots")
    return max(MIN_SHOTS, math.ceil(shots))


def _shots_p_free(epsilon, alpha):
    """p-independent sample-size bound, also the pilot size for swap runs."""
    q = phi_inverse((1.0 + alpha) / 2.0)
    return _shot_count(lambda: q * q / (4.0 * epsilon * epsilon))


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
    """Apply U_B^dagger, loader_b's inverse, after preparing |psi_A>;
    P(all-zero) = p^2."""
    if loader_b.width != len(prep_a.primary):
        raise ValueError("loader width must match the primary register")
    circ = prep_a.circuit.remapped(range(prep_a.width), prep_a.width)
    circ.extend(loader_b.circuit.inverse().remapped(prep_a.primary, prep_a.width))
    return circ


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def _kept_per_pair(law):
    """Keep law(series_T, series_E, *args) in series_T.readouts, keyed by
    law's name, the partner series_E and args, and read it from there on
    every later call.  Series values are read-only, so a kept law cannot go
    stale; a call whose arguments law refuses raises and keeps nothing."""
    name = law.__name__

    @functools.wraps(law)
    def kept(series_T, series_E, *args):
        laws = series_T.readouts
        key = (name, series_E, *args)
        try:
            return laws[key]
        except KeyError:
            laws[key] = value = law(series_T, series_E, *args)
            return value
    return kept


@_kept_per_pair
def _ancilla_free_readout(series_T, series_E, k):
    """P(every register reads 0) after QHP and U_E^dagger on the survivor:
    y_k^2 at every k, in either QHP style.  Variants b and c share it."""
    qhp.PowerPlan(k=k)  # refuses k < 1
    return float(np.dot(series_E.values, series_T.values ** k) ** 2)


def _swap_readout(series_T, series_E, k, encoding="amplitude", s=1):
    """(P(Z=0), P(Z=0 and ancilla=0)) for QHP followed by a swap test
    against E's loader, where Z is every consumed register: at k >= 2,
    S_k = sum_j T_j^{2k} and (S_k + y_k^2) / 2, or with BOE
    sum_j E_j^2 T_j^{2k} in place of y_k^2 (module docstring)."""
    qhp.PowerPlan(k=k)  # refuses k < 1
    if encoding == "boe":
        boe_width(series_E.values.size, s)  # refuses a bad split level
    if k > 1:
        t, e = series_T.values, series_E.values
        p_z0 = qhp.success_probability(series_T, k)
        overlap = ((e * e * t ** (2 * k)).sum() if encoding == "boe"
                   else np.dot(e, t ** k) ** 2)
        return p_z0, (p_z0 + float(overlap)) / 2
    e_loader = qhp.make_loader(series_E, encoding, s)
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


def _swap_radicand(rng, S, pvals):
    """2 P(Z=0, ancilla=0) - P(Z=0), estimated from S multinomial shots over
    pvals: y_k^2, or ytilde_k with BOE.  The counts are Python ints, which
    round as NumPy's int64 and float64 scalars would."""
    c00, c01, _rest = rng.generator.multinomial(S, pvals).tolist()
    return (2.0 * c00 - (c00 + c01)) / S


def _require_mode(mode, series_T, series_E, estimation):
    """Refuse a pair not normalised in `mode`: each estimator's readout law
    holds on its own normalisation only."""
    if series_T.mode != mode or series_E.mode != mode:
        raise ValueError(f"{estimation} estimation requires {mode}-normalized series, "
                         f"got {series_T.mode} and {series_E.mode}")


def estimate_yk_variant_ab(series_T, series_E, k, style, epsilon, alpha, rng,
                           shots=None):
    """QHP + ancilla-free estimator Y_S = sqrt(Xbar).

    X_i = 1 iff every measured register and the survivor read all zeros;
    the per-shot success probability is exactly y_k^2 in either QHP style,
    so `style` is only checked.
    """
    _require_mode("affine", series_T, series_E, "ancilla-free")
    if style not in qhp.STYLES:
        raise ValueError(f"unknown style {style!r}")
    p = _ancilla_free_readout(series_T, series_E, k)

    S = max(MIN_SHOTS, shots if shots is not None else _shots_p_free(epsilon, alpha))
    ones = int(rng.generator.binomial(S, min(p, 1.0)))
    return InnerEstimate.of(math.sqrt(ones / S), series_T, series_E, k, S,
                            method="ancilla_free")


def estimate_yk_swap(series_T, series_E, k, epsilon, alpha, rng, shots=None):
    """QHP + swap-test estimator (two-stage).

    A pilot run of p-free size fixes the final sample size
    max{4, a_k^-2 y^-2} eps^-2 [Phi^-1((3+alpha)/4)]^2; the square root is
    clamped at 0 and the event recorded.
    """
    _require_mode("affine", series_T, series_E, "swap-test")
    pvals = _qhp_swap_probabilities(series_T, series_E, k)
    if shots is None:
        s_pilot = _shots_p_free(epsilon, alpha)
        y_pilot = math.sqrt(max(_swap_radicand(rng, s_pilot, pvals), 0.0))
        if y_pilot < epsilon:
            raise ValueError(
                "pilot estimate indistinguishable from 0 at the requested epsilon")
        a_k = qhp.norm_constant_ak(series_T, k)
        q = phi_inverse((3.0 + alpha) / 4.0)
        S = _shot_count(lambda: max(4.0, 1.0 / (a_k**2 * y_pilot**2)) / epsilon**2 * q * q)
        used = s_pilot + S
    else:
        S = max(MIN_SHOTS, shots)
        used = S
    radicand = _swap_radicand(rng, S, pvals)
    return InnerEstimate.of(math.sqrt(max(radicand, 0.0)), series_T, series_E, k, used,
                            clamped=radicand < 0.0, method="swap")


def estimate_ytilde_boe_swap(series_Tsqrt, series_Esqrt, k, s, epsilon, alpha,
                             rng, shots=None):
    """BOE + swap-test estimator for ytilde_k (no square root)."""
    _require_mode("sqrt", series_Tsqrt, series_Esqrt, "BOE")
    pvals = _qhp_swap_probabilities(series_Tsqrt, series_Esqrt, k, "boe", s)

    if shots is None:
        q = phi_inverse((3.0 + alpha) / 4.0)
        S = _shot_count(lambda: 16.0 / epsilon**2 * q * q)
    else:
        S = max(MIN_SHOTS, shots)
    return InnerEstimate.of(_swap_radicand(rng, S, pvals), series_Tsqrt, series_Esqrt,
                            k, S, method="boe_swap")
