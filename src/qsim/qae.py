"""Amplitude estimation: Grover oracles, canonical (phase-estimation) QAE
and iterative QAE, plus the variant (c)/(d) per-power estimators.

The Grover iterate is Q = (2|chi><chi| - I)(I - 2 P_good) with
|chi> = F|0>.  Since F(2|0><0| - I)F^dag = 2|chi><chi| - I, the reflection
about chi is the rank-1 update v -> 2<chi|v> chi - v on the kept chi, so an
iterate simulates neither F nor F^dag; chi itself is simulated once from
F's circuit.  Q's eigenphases are +-2theta with sin^2(theta) = z, so an
m-qubit phase readout x maps to z = sin^2(pi x / 2^m).

IQAE reads the Grover spectrum in closed form, sin^2((2k+1)theta) after
Q^k (grover_probability), so it takes the amplitude z and no circuit; the
variant estimators read z from qsim.inner's readout laws.  Canonical QAE,
the one engine that builds oracles, reads its phase distribution off the
plane span{chi, Q chi}, which Q keeps invariant: it simulates Q chi and
Q^2 chi and checks that Q acts on the plane as a product of two
reflections, that is a rotation by an angle phi = 2 theta (Brassard, Hoyer,
Mosca and Tapp 2002, section 4); Q^y chi is then chi rotated by y phi, so
the 2^m powers the readout superposes are (cos y phi, sin y phi).
The variant estimators run it once on a CANONICAL_M-qubit phase register.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special.cython_special import betaincinv

from . import inner, qhp, sim
from .classical import _median
from .inner import InnerEstimate, build_ancilla_free, build_swap_test
from .sim import Statevector


class GroverOracle:
    """State preparation F plus the derived reflections.

    The good outcome is the all-zero reading of the qubits in `good`; an
    empty tuple makes every outcome good.  The reflection about chi = F|0>
    is a rank-1 update on chi's kept amplitudes, so F is simulated once.
    """

    def __init__(self, prepare, good, _built=None):
        self.prepare = prepare
        self.good = sim.register_qubits(prepare, good)
        self.n_qubits = prepare.n_qubits
        # F|0>, made on first use; with_good shares it
        self._built = {} if _built is None else _built

    def with_good(self, good):
        """The oracle with the same F and another good register; it shares
        this oracle's simulated chi."""
        return GroverOracle(self.prepare, good, self._built)

    def _chi(self):
        if "chi" not in self._built:
            self._built["chi"] = self.prepare.apply_unitary(
                Statevector.zero(self.n_qubits))
        return self._built["chi"]

    def chi(self):
        """A new Statevector holding |chi> = F|0>."""
        return self._chi().copy()

    def _flip_good(self, state):
        sim.register_view(state, self.good, 0)[...] *= -1.0

    def grover(self, state):
        """Apply Q in place: flip the good register's sign, then reflect
        about chi, v -> 2<chi|v> chi - v."""
        self._flip_good(state)
        chi = self._chi()
        amps = state.amplitudes
        amps -= (2.0 * np.vdot(chi.amplitudes, amps)) * chi.amplitudes
        amps *= -1.0
        return state


def grover_probability(z, k):
    """P(good) after Q^k F|0> = sin^2((2k+1) theta), sin^2(theta) = z."""
    # z is 1 up to rounding when every outcome is good (U' at k = 1)
    theta = math.asin(math.sqrt(min(max(z, 0.0), 1.0)))
    return math.sin((2 * k + 1) * theta) ** 2


# ---------------------------------------------------------------------------
# Oracle builders
# ---------------------------------------------------------------------------

def build_oracle_variant_c(series_T, series_E, k):
    """QHP + ancilla-free oracle: good is the all-zero readout, z = y_k^2."""
    pc = qhp.power_circuit(series_T, k)
    readout = build_ancilla_free(pc, qhp.make_loader(series_E))
    return GroverOracle(readout, range(pc.width))


def build_oracles_variant_d(series_Tsqrt, series_Esqrt, k, s):
    """BOE + QHP + swap-test oracles.

    U marks QHP success (Z = 0) with a good swap ancilla,
    z = (ytilde_k + atilde_k^-2)/2; U' marks QHP success alone,
    z' = atilde_k^-2.  At k = 1 no register is consumed, so z' = 1.  Both
    prepare the same state, so they share one simulated chi.
    """
    pc = qhp.power_circuit(series_Tsqrt, k, encoding="boe", s=s)
    test = build_swap_test(pc, qhp.make_loader(series_Esqrt, "boe", s))
    z_qubits = tuple(q for reg in pc.measured for q in reg)
    oracle_u = GroverOracle(test.circuit, z_qubits + (test.ancilla,))
    return oracle_u, oracle_u.with_good(z_qubits)


# ---------------------------------------------------------------------------
# Canonical QAE (phase estimation readout)
# ---------------------------------------------------------------------------

PLANE_TOL = 1e-9  # largest |Q^2 chi - 2 Re(lam) Q chi + chi| accepted


def _qpe_distribution(oracle, m):
    """Exact outcome distribution of an m-qubit phase estimation on Q.

    Q is a product of two reflections whose planes both hold chi, so every
    Q^y chi lies in span{chi, Q chi}.  The distribution is computed on that
    plane from two simulated iterates; ValueError if Q does not act there
    as such a product.  BLAS adds np.vdot's and np.linalg.norm's terms in
    another order for float64 than for complex128 amplitudes, so the last
    bits depend on the amplitude type.
    """
    chi = oracle._chi().amplitudes  # shared and never written; st is the copy
    st = oracle.chi()
    q_chi = oracle.grover(st).amplitudes.copy()
    lam = np.vdot(chi, q_chi)
    # Both differences are formed in place, with the same float operations,
    # so at most three state-sized arrays besides chi are live at once.
    diff = lam * chi
    np.subtract(q_chi, diff, out=diff)
    r_norm = np.linalg.norm(diff)
    del diff
    # Each reflection has determinant -1 on the plane, so there
    # Q^2 = 2 lam Q - I (lam is real, as chi and Q are); when chi is an
    # eigenvector (z = 0 or 1, U' at k = 1) both sides are lam^2 chi.
    q_chi *= 2.0 * lam
    diff = oracle.grover(st).amplitudes
    diff -= q_chi
    diff += chi
    residual = np.linalg.norm(diff)
    if residual > PLANE_TOL:
        raise ValueError("the Grover iterate is not a product of two "
                         f"reflections on span{{chi, Q chi}} (residual {residual:.3g})")
    # In the orthonormal basis (chi, (Q chi - lam chi) / r_norm) Q is the
    # rotation by phi, so row y of coeffs, Q^y chi, is (cos y phi, sin y phi);
    # for an eigenvector r_norm = 0 and phi is 0 or pi.
    y_phi = np.arange(1 << m) * math.atan2(r_norm, lam)
    coeffs = np.column_stack((np.cos(y_phi), np.sin(y_phi)))
    # amplitude(x, .) = 2^-m sum_y exp(-2 pi i x y / 2^m) Q^y |chi>
    amps = np.fft.fft(coeffs, axis=0) / (1 << m)
    return np.sum(np.abs(amps) ** 2, axis=1)


def canonical_qae(oracle, m, medians, rng, shots_per_run=30):
    """Median over runs of the modal phase readout, mapped through
    z = sin^2(pi x / 2^m); the median is classical._median's, which equals
    np.median's bits."""
    probs = _qpe_distribution(oracle, m)
    probs = probs / probs.sum()
    estimates = []
    for _ in range(medians):
        counts = rng.multinomial(shots_per_run, probs)
        x = int(np.argmax(counts))
        estimates.append(math.sin(math.pi * x / (1 << m)) ** 2)
    return _median(estimates)


# ---------------------------------------------------------------------------
# Iterative QAE (Grinko et al. schedule, Clopper-Pearson intervals)
# ---------------------------------------------------------------------------

@dataclass
class IqaeResult:
    z_hat: float
    z_lo: float
    z_hi: float
    oracle_calls: int
    rounds: list = field(default_factory=list)


def _clopper_pearson(ones, total, alpha_fail):
    """Two-sided Clopper-Pearson interval at level 1 - alpha_fail for `ones`
    successes in `total` trials.  The quantiles come from
    scipy.special.cython_special.betaincinv, the scalar form of the
    scipy.special ufunc, which returns the same bits without the ufunc's
    dispatch; it takes floats only."""
    if total == 0:
        return 0.0, 1.0
    lo = 0.0 if ones == 0 else betaincinv(float(ones), float(total - ones + 1),
                                          alpha_fail / 2)
    hi = 1.0 if ones == total else betaincinv(float(ones + 1), float(total - ones),
                                              1 - alpha_fail / 2)
    return lo, hi


MAX_ROUNDS = 10000
K_GROWTH = 2  # a new power K = 4k + 2 is at least this multiple of the last
EPSILON_FLOOR = 2.0 ** -40  # smallest epsilon iqae accepts; see iqae


def _find_next_k(k, up, theta_l, theta_u):
    k_cur = 4 * k + 2
    theta_span = theta_u - theta_l
    if theta_span <= 0:
        return k, up
    k_max = int(math.floor(math.pi / theta_span))
    k_try = k_max - (k_max - 2) % 4
    while k_try >= K_GROWTH * k_cur:
        theta_min = (k_try * theta_l) % (2 * math.pi)
        theta_max = (k_try * theta_u) % (2 * math.pi)
        if theta_max <= math.pi and theta_min <= theta_max:
            return (k_try - 2) // 4, True
        if theta_min >= math.pi and theta_max >= theta_min:
            return (k_try - 2) // 4, False
        k_try -= 4
    return k, up


def iqae(z, epsilon, alpha, rng, shots_per_round=100):
    """Iterative amplitude estimation of the amplitude z, whose round at
    power k draws its good outcomes with grover_probability(z, k).

    Returns an IqaeResult whose interval [z_lo, z_hi] contains z with
    confidence >= alpha; z_hat is the midpoint, |z_hat - z| <= epsilon.

    epsilon must lie in [EPSILON_FLOOR, 0.5).  At the floor, 2^-40, the
    interval's sin^2 ends are rounded by a few units of 2^-53, 2^-13 of
    epsilon.  A round runs only while theta_u - theta_l >= z_hi - z_lo >
    2 epsilon, so its power K <= pi / (theta_u - theta_l) keeps K theta_l
    below pi^2 / (4 epsilon) < 2^42, rounded by at most 2^-12 rad.  Near
    epsilon = 1e-16 the interval misses z by an ulp.
    """
    if not EPSILON_FLOOR <= epsilon < 0.5:
        raise ValueError(f"IQAE epsilon must be in [2^-40, 0.5), got {epsilon:.3g}")
    theta_l, theta_u = 0.0, math.pi / 2
    k = 0
    up = True
    t_rounds = max(1, math.ceil(math.log2(math.pi / (8 * epsilon))))
    alpha_fail = (1.0 - alpha) / t_rounds
    oracle_calls = 0
    rounds = []
    tallies = {}  # k -> [ones, total]
    for _ in range(MAX_ROUNDS):
        a_l, a_u = math.sin(theta_l) ** 2, math.sin(theta_u) ** 2
        if a_u - a_l <= 2 * epsilon:
            break
        k, up = _find_next_k(k, up, theta_l, theta_u)
        big_k = 4 * k + 2
        ones = int(rng.binomial(shots_per_round, grover_probability(z, k)))
        tally = tallies.setdefault(k, [0, 0])
        tally[0] += ones
        tally[1] += shots_per_round
        oracle_calls += shots_per_round * (2 * k + 1)
        p_lo, p_hi = _clopper_pearson(tally[0], tally[1], alpha_fail)
        # invert p = (1 - cos(omega)) / 2, omega = big_k * theta mod 2pi: acos(1 - 2p),
        # which rises with p, on the upper half-plane, and 2pi minus it on the lower
        arc_lo, arc_hi = (math.acos(max(-1.0, min(1.0, 1.0 - 2.0 * p))) for p in (p_lo, p_hi))
        omega_min, omega_max = ((arc_lo, arc_hi) if up
                                else (2 * math.pi - arc_hi, 2 * math.pi - arc_lo))
        winding = math.floor(big_k * theta_l / (2 * math.pi))
        new_l = (2 * math.pi * winding + omega_min) / big_k
        new_u = (2 * math.pi * winding + omega_max) / big_k
        if new_u >= new_l:
            theta_l = max(theta_l, new_l)
            theta_u = min(theta_u, max(new_u, theta_l))
        rounds.append({"k": k, "shots": shots_per_round, "ones": ones,
                       "theta_l": theta_l, "theta_u": theta_u})

    a_l, a_u = math.sin(theta_l) ** 2, math.sin(theta_u) ** 2
    return IqaeResult(z_hat=(a_l + a_u) / 2.0, z_lo=a_l, z_hi=a_u,
                      oracle_calls=oracle_calls, rounds=rounds)


# ---------------------------------------------------------------------------
# Variant estimators
# ---------------------------------------------------------------------------

CANONICAL_M = 6  # phase-register qubits of the canonical engine
PILOT_EPSILON = 0.05
PILOT_ALPHA = 0.7
PILOT_SHOTS = 32


def _canonical_z(oracle, config, rng):
    """(z_hat, oracle calls) of one canonical QAE run on `oracle`."""
    z_hat = canonical_qae(oracle, CANONICAL_M, 1, rng, shots_per_run=config.shots)
    return z_hat, (1 << CANONICAL_M) - 1


def estimate_yk_variant_c(series_T, series_E, k, epsilon, alpha, config, rng):
    """Variant (c): y_k = sqrt(z) with z from amplitude estimation.

    config (an assembly.VariantConfig) gives the engine and its shots.
    Under IQAE, z = y_k^2 is the closed-form ancilla-free readout law, and
    the requested accuracy on y is converted to an amplitude accuracy
    eps_z = epsilon * max(y_pilot, epsilon), where y_pilot comes from a
    short warm-up IQAE run.
    """
    if config.engine == "canonical":
        z_hat, calls = _canonical_z(build_oracle_variant_c(series_T, series_E, k),
                                    config, rng)
    else:
        z = inner._ancilla_free_readout(series_T, series_E, k)
        pilot = iqae(z, min(0.45, max(PILOT_EPSILON, epsilon / 2)),
                     PILOT_ALPHA, rng, shots_per_round=PILOT_SHOTS)
        y_pilot = math.sqrt(max(pilot.z_hat, 0.0))
        res = iqae(z, min(0.45, epsilon * max(y_pilot, epsilon)), alpha, rng,
                   shots_per_round=config.shots)
        z_hat, calls = res.z_hat, pilot.oracle_calls + res.oracle_calls
    return InnerEstimate.of(math.sqrt(max(z_hat, 0.0)), series_T, series_E, k, calls,
                            method="variant_c")


def estimate_ytilde_variant_d(series_Tsqrt, series_Esqrt, k, s, epsilon, alpha,
                              config, rng):
    """Variant (d): ytilde_k = 2z - z', each amplitude estimated at eps/2,
    z first, by config's engine and shots as for variant (c).  Under IQAE,
    (z', z) is the BOE swap test's readout."""
    if config.engine == "canonical":
        u, u_prime = build_oracles_variant_d(series_Tsqrt, series_Esqrt, k, s)
        z_hat, c1 = _canonical_z(u, config, rng)
        zp_hat, c2 = _canonical_z(u_prime, config, rng)
    else:
        zp, z = inner._swap_readout(series_Tsqrt, series_Esqrt, k, "boe", s)
        eps_half = min(0.45, epsilon / 2.0)
        res = iqae(z, eps_half, alpha, rng, shots_per_round=config.shots)
        res_p = iqae(zp, eps_half, alpha, rng, shots_per_round=config.shots)
        z_hat, c1, zp_hat, c2 = res.z_hat, res.oracle_calls, res_p.z_hat, res_p.oracle_calls
    return InnerEstimate.of(2.0 * z_hat - zp_hat, series_Tsqrt, series_Esqrt, k, c1 + c2,
                            method="variant_d")
