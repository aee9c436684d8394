import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import betaincinv as betaincinv_ufunc
from scipy.special.cython_special import betaincinv as betaincinv_scalar
from scipy.stats import beta as beta_dist

from helpers import (examples, fixture_pair, grover_circuit_iterate,
                     qpe_distribution_reference, u_gate, z_exact)
from qsim import inner, sim
from qsim.assembly import VariantConfig
from qsim.qae import (EPSILON_FLOOR, GroverOracle, _clopper_pearson,
                      _qpe_distribution, build_oracle_variant_c,
                      build_oracles_variant_d, canonical_qae,
                      estimate_yk_variant_c, estimate_ytilde_variant_d,
                      grover_probability, iqae)
from qsim.sim import Circuit, RngStream, Statevector


def simple_oracle(z):
    """Single-qubit oracle whose good state |0> has probability z."""
    circ = Circuit(1)
    circ.ry(0, 2.0 * math.acos(math.sqrt(z)))
    return GroverOracle(prepare=circ, good=(0,))


# id: builder, for variant c at k 1-3, and both variant-d oracles (U, U')
# at k 1-2 and s 1-2
VARIANT_BUILDS = {f"c-k{k}": lambda k=k: build_oracle_variant_c(*fixture_pair(), k)
                  for k in (1, 2, 3)}
VARIANT_BUILDS.update({
    f"d-k{k}-s{s}-{name}": lambda k=k, s=s, i=i: build_oracles_variant_d(
        *fixture_pair("boe"), k, s)[i]
    for k in (1, 2) for s in (1, 2) for i, name in enumerate(("U", "Uprime"))})
VARIANT_ORACLES = [pytest.param(build, id=name) for name, build in VARIANT_BUILDS.items()]


class TestGroverOracle:
    def test_z_exact(self):
        assert z_exact(simple_oracle(0.3)) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("z", [-1e-17, 1.0 + 2e-16])
    def test_grover_probability_clamps_rounded_z(self, z):
        # a z just outside [0, 1] by rounding reads as its nearest end
        assert grover_probability(z, 3) == grover_probability(min(max(z, 0.0), 1.0), 3)

    def test_repeated_good_qubit_rejected(self):
        # (0, 0) once read qubit 1 through the mask 0b10: z = 0.2919 for a
        # qubit 0 that reads 0 with probability 1
        with pytest.raises(ValueError, match="more than once"):
            GroverOracle(Circuit(2).ry(1, 2.0), (0, 0))


@st.composite
def prepare_circuits(draw):
    """(prepare, good): a random circuit of ry, u and CNOT-layer gates on
    1-8 qubits, each u a real orthogonal matrix (a rotation or a
    reflection), and a good register that may be empty or every qubit."""
    n = draw(st.integers(1, 8))
    angle = st.floats(-math.pi, math.pi)
    circ = Circuit(n)
    for _ in range(draw(st.integers(1, 3 * n))):
        kind = draw(st.sampled_from(["ry", "u", "layer"] if n > 1 else ["ry", "u"]))
        if kind == "ry":
            circ.ry(draw(st.integers(0, n - 1)), draw(angle))
        elif kind == "u":
            sign = st.sampled_from([1.0, -1.0])
            a, b, c = draw(angle), draw(sign), draw(sign)
            u_gate(circ, draw(st.integers(0, n - 1)),
                   [[math.cos(a), -c * math.sin(a)], [b * math.sin(a), b * c * math.cos(a)]])
        else:
            qubits = draw(st.permutations(range(n)))
            pairs = draw(st.integers(1, n // 2))
            circ.cnot_layer(qubits[:pairs], qubits[pairs:2 * pairs])
    size = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    return circ, tuple(draw(st.permutations(range(n)))[:size])


def _examples(cases):
    """@example(case=c) for each c of cases, as one decorator."""
    def decorate(test):
        for case in cases:
            test = example(case=case)(test)
        return test
    return decorate


# a one-qubit oracle at z = 0.2, and every variant oracle: their multi-qubit
# and empty good registers, and the ucry and cswap gates of their
# preparations, which prepare_circuits does not draw
@given(prepare_circuits())
@_examples([(o.prepare, o.good) for o in
            [simple_oracle(0.2)] + [build() for build in VARIANT_BUILDS.values()]])
@settings(max_examples=examples(60), deadline=None)
def test_closed_form_matches_statevector(case):
    # P(good after Q^j) = sin^2((2j+1) theta) with sin^2(theta) = z, for
    # j = 0 .. 20 iterates, each simulated in circuit form after the last.
    # The rounding grows about as j^2: up to 1e-13 at j = 5, 1.5e-12 at 20
    oracle = GroverOracle(*case)
    z = z_exact(oracle)
    state = oracle.chi()
    for j in range(21):
        assert grover_probability(z, j) == pytest.approx(
            sim.probability_of_bits(state, oracle.good, 0), abs=1e-12 if j <= 5 else 1e-10)
        grover_circuit_iterate(oracle, state)


class TestCanonicalQae:
    def test_readout_on_grid_value(self):
        m = 5
        # z on the QPE grid is read out exactly
        x = 5
        z = math.sin(math.pi * x / (1 << m)) ** 2
        z_hat = canonical_qae(simple_oracle(z), m, 1, RngStream(0),
                              shots_per_run=200)
        assert z_hat == pytest.approx(z, abs=1e-10)

    def test_off_grid_within_resolution(self):
        m = 6
        z = 0.25
        z_hat = canonical_qae(simple_oracle(z), m, 3, RngStream(1),
                              shots_per_run=100)
        assert abs(z_hat - z) < 0.02


class PhaseFlippedOracle(GroverOracle):
    """Q followed by a phase flip of basis state 0: no longer a product of
    two reflections that both hold chi."""

    def grover(self, state):
        super().grover(state)
        state.amplitudes[0] *= -1.0
        return state


class TestQpeDistribution:
    @given(z=st.floats(0.0, 1.0), m=st.integers(1, 6))
    @example(z=0.0, m=6)
    @example(z=1.0, m=6)
    @settings(max_examples=examples(60), deadline=None)
    def test_plane_matches_statevector_simple(self, z, m):
        oracle = simple_oracle(z)
        np.testing.assert_allclose(_qpe_distribution(oracle, m),
                                   qpe_distribution_reference(oracle, m),
                                   rtol=0, atol=1e-12)

    # k 1-2 at s 1; U' at k = 1 has z' = 1: chi is an eigenvector of Q
    @pytest.mark.parametrize("build", [param for param in VARIANT_ORACLES
                                       if "k3" not in param.id and "s2" not in param.id])
    def test_plane_matches_statevector_variants(self, build):
        oracle = build()
        np.testing.assert_allclose(_qpe_distribution(oracle, 6),
                                   qpe_distribution_reference(oracle, 6),
                                   rtol=0, atol=1e-12)

    # near both ends Q's plane rotation is by 2 theta ~ 2e-10 or pi - 2e-7:
    # the angle atan2 reads off the plane keeps the powers' errors at rounding
    @pytest.mark.parametrize("z", [1e-20, 1e-12, 0.3, 1 - 1e-12, 1 - 1e-14])
    def test_rotation_angle_near_degenerate_z(self, z):
        oracle = simple_oracle(z)
        np.testing.assert_allclose(_qpe_distribution(oracle, 6),
                                   qpe_distribution_reference(oracle, 6),
                                   rtol=0, atol=1e-12)

    def test_peak_memory_beyond_chi(self):
        # an 18-qubit product state: besides chi, only the iterated copy,
        # Q chi and the second iterate's temporary are live at once
        n = 18
        circ = Circuit(n)
        for q in range(n):
            circ.ry(q, 0.3 + 0.1 * q)
        oracle = GroverOracle(circ, (0,))
        oracle._chi()
        tracemalloc.start()
        try:
            _qpe_distribution(oracle, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.1 * (8 << n)

    def test_iterate_off_the_plane_raises(self):
        circ = Circuit(2).ry(0, 1.1).ry(1, 0.7)
        with pytest.raises(ValueError, match="two reflections"):
            _qpe_distribution(PhaseFlippedOracle(circ, (0,)), 6)


class TestIqae:
    def test_clopper_pearson_matches_beta_ppf(self):
        gen = np.random.default_rng(2024)
        for _ in range(2000):
            total = int(gen.integers(1, 5000))
            ones = int(gen.choice([0, total, gen.integers(0, total + 1)]))
            alpha_fail = float(gen.uniform(1e-6, 0.5))
            lo = 0.0 if ones == 0 else float(beta_dist.ppf(alpha_fail / 2, ones, total - ones + 1))
            hi = 1.0 if ones == total else float(beta_dist.ppf(1 - alpha_fail / 2, ones + 1, total - ones))
            assert _clopper_pearson(ones, total, alpha_fail) == (lo, hi)

    def test_scalar_betaincinv_matches_ufunc(self):
        # the arguments _clopper_pearson passes for the tallies iqae keeps:
        # 0 <= ones <= total and alpha_fail in (0, 1)
        gen = np.random.default_rng(27)
        total = gen.integers(1, 10_001, size=60_000)
        ones = gen.integers(0, total + 1)
        alpha_fail = 10.0 ** gen.uniform(-9.0, 0.0, size=total.size)
        a = np.concatenate([ones, ones + 1])
        b = np.concatenate([total - ones + 1, total - ones])
        p = np.concatenate([alpha_fail / 2, 1 - alpha_fail / 2])
        keep = (a > 0) & (b > 0)
        a, b, p = a[keep].astype(float), b[keep].astype(float), p[keep]
        want = betaincinv_ufunc(a, b, p)
        got = np.array([betaincinv_scalar(*args)
                        for args in zip(a.tolist(), b.tolist(), p.tolist())])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("z", [0.04, 0.2, 0.5, 0.83])
    def test_interval_contains_truth(self, z):
        res = iqae(z, 0.01, 0.95, RngStream(3))
        assert res.z_lo - 1e-9 <= z <= res.z_hi + 1e-9
        assert res.z_hi - res.z_lo <= 2 * 0.01 + 1e-12

    # z = 1/4, 1/2 and 3/4 are left out: there 4 theta is near a multiple of
    # pi/3 or pi/2, and _find_next_k tries O(1/epsilon) powers one by one
    # before it finds the next (ROADMAP item 22)
    @pytest.mark.parametrize("z", [0.0, 0.01, 0.2, 0.3, 0.7, 0.8, 0.99, 1.0])
    def test_interval_contains_truth_at_epsilon_floor(self, z):
        # with no slack: below about 1e-16 the ends miss z by an ulp
        res = iqae(z, EPSILON_FLOOR, 0.95, RngStream(0))
        assert res.z_lo <= z <= res.z_hi
        assert res.z_hi - res.z_lo <= 2 * EPSILON_FLOOR

    def test_oracle_call_accounting(self):
        res = iqae(0.3, 0.02, 0.9, RngStream(5))
        assert res.oracle_calls > 0
        assert len(res.rounds) >= 1

    def test_coverage(self):
        z = 0.3
        hits = 0
        trials = 40
        rng = RngStream(17)
        for _ in range(trials):
            res = iqae(z, 0.02, 0.9, rng.child())
            hits += abs(res.z_hat - z) <= 0.02
        assert hits / trials >= 0.85

    def test_epsilon_domain(self):
        # at 1e-17 and 1e-300 the interval used to exclude z
        for epsilon in (0.6, EPSILON_FLOOR / 2, 1e-17, 1e-300, 0.0):
            with pytest.raises(ValueError, match="epsilon"):
                iqae(0.3, epsilon, 0.9, RngStream(0))

    def test_scaling_beats_sampling(self):
        # oracle calls grow roughly like 1/eps, not 1/eps^2
        z = 0.3
        calls = []
        for eps in (0.04, 0.01):
            res = iqae(z, eps, 0.9, RngStream(2))
            calls.append(res.oracle_calls)
        assert calls[1] / calls[0] < 10.0


class TestVariantOracles:
    @pytest.mark.parametrize("build", VARIANT_ORACLES)
    def test_rank1_iterate_matches_circuit_form(self, build):
        # the reflection about the kept chi against F^dag and F simulated
        # gate by gate, on chi, on a seeded random unit state, and on |0>
        oracle = build()
        gen = np.random.default_rng(26)
        amps = gen.normal(size=1 << oracle.n_qubits)
        for state in (oracle.chi(), Statevector(oracle.n_qubits, amps / np.linalg.norm(amps)),
                      Statevector.zero(oracle.n_qubits)):
            got = oracle.grover(state.copy())
            np.testing.assert_allclose(got.amplitudes,
                                       grover_circuit_iterate(oracle, state).amplitudes,
                                       rtol=0, atol=1e-12)

    # IQAE reads z from qsim.inner's readout laws, canonical QAE from these
    # oracles: the two agree
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_variant_c_law_matches_oracle(self, k):
        t, e = fixture_pair()
        law = inner._ancilla_free_readout(t, e, k)
        assert law == pytest.approx(z_exact(build_oracle_variant_c(t, e, k)), abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2])
    def test_variant_d_law_matches_oracles(self, k, s):
        t, e = fixture_pair("boe")
        z_prime, z = inner._swap_readout(t, e, k, "boe", s)
        u, u_prime = build_oracles_variant_d(t, e, k, s)
        assert z == pytest.approx(z_exact(u), abs=1e-12)
        assert z_prime == pytest.approx(z_exact(u_prime), abs=1e-12)


class TestSharedPreparation:
    """Under canonical QAE, variant d's U and U' prepare one chi, and the
    Grover iterates run on copies of it (test_reach counts what each
    engine simulates)."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_canonical_after_shared_chi_matches_reference(self, k):
        u, u_prime = build_oracles_variant_d(*fixture_pair("boe"), k, 1)
        z, z_prime = z_exact(u), z_exact(u_prime)
        for i, oracle in enumerate((u, u_prime)):
            fresh = build_oracles_variant_d(*fixture_pair("boe"), k, 1)[i]
            got = _qpe_distribution(oracle, 6)
            assert got.tobytes() == _qpe_distribution(fresh, 6).tobytes()
            np.testing.assert_allclose(got, qpe_distribution_reference(fresh, 6),
                                       rtol=0, atol=1e-12)
        # the Grover iterates ran on copies: the shared chi is untouched
        assert (z_exact(u), z_exact(u_prime)) == (z, z_prime)
        assert u.chi() is not u.chi()


class TestVariantEstimators:
    def test_variant_c_estimate(self):
        t, e = fixture_pair()
        k = 2
        est = estimate_yk_variant_c(t, e, k, 0.02, 0.9, VariantConfig("c"), RngStream(0))
        y = float(np.sum(t.values**k * e.values))
        assert abs(est.y_hat - y) < 0.02
        assert est.shots_used > 0

    def test_variant_c_canonical_engine(self):
        t, e = fixture_pair()
        cfg = VariantConfig("c", engine="canonical", shots=60)
        est = estimate_yk_variant_c(t, e, 1, 0.05, 0.9, cfg, RngStream(1))
        y = float(np.sum(t.values * e.values))
        assert abs(est.y_hat - y) < 0.05

    @pytest.mark.parametrize("variant, calls", [("c", 63), ("d", 126)])
    def test_canonical_call_count(self, variant, calls):
        # one run of 2^6 - 1 Grover powers per amplitude (c reads z, d reads
        # z and z'), the count the benchmark tracer charges per run
        cfg = VariantConfig(variant, engine="canonical")
        if variant == "c":
            t, e = fixture_pair()
            est = estimate_yk_variant_c(t, e, 1, 0.05, 0.9, cfg, RngStream(0))
        else:
            t, e = fixture_pair("boe")
            est = estimate_ytilde_variant_d(t, e, 1, 1, 0.1, 0.9, cfg, RngStream(0))
        assert est.shots_used == calls

    def test_variant_d_estimate(self):
        t, e = fixture_pair("boe")
        k = 2
        est = estimate_ytilde_variant_d(t, e, k, 1, 0.04, 0.9, VariantConfig("d"),
                                        RngStream(2))
        y_tilde = float(np.sum(t.values ** (2 * k) * e.values**2))
        assert abs(est.y_hat - y_tilde) < 0.04

    def test_variant_c_pilot_epsilon_capped(self):
        # at epsilon >= 1 the pilot's epsilon / 2 would leave IQAE's
        # (0, 0.5) domain; it is capped at 0.45 like the main run
        t, e = fixture_pair()
        est = estimate_yk_variant_c(t, e, 1, 1.0, 0.9, VariantConfig("c"), RngStream(0))
        assert est.shots_used > 0
        assert 0.0 <= est.y_hat <= 1.0
