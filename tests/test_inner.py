import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import helpers
from helpers import pair_with_overlap
from qsim import inner, qhp, sim
from qsim.encoding import (boe_width, build_tree, load_amplitude, normalize_affine,
                           normalize_sqrt)
from qsim.inner import (build_ancilla_free, build_swap_test,
                        estimate_yk_swap, estimate_yk_variant_ab,
                        estimate_ytilde_boe_swap, phi_inverse,
                        shots_ancilla_free, shots_swap)
from qsim.sim import RngStream, Statevector


def random_pair(n_vals, seed):
    rng = np.random.default_rng(seed)
    a = normalize_affine(rng.uniform(0.5, 3.0, size=n_vals), 0.0)
    b = normalize_affine(rng.uniform(0.5, 3.0, size=n_vals), 0.0)
    return a, b


class TestPhiInverse:
    @pytest.mark.parametrize("p", [1e-6, 0.01, 0.024, 0.3, 0.5, 0.7, 0.975,
                                   0.99, 1 - 1e-6])
    def test_matches_scipy(self, p):
        assert phi_inverse(p) == pytest.approx(stats.norm.ppf(p), abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_inverse(0.0)
        with pytest.raises(ValueError):
            phi_inverse(1.0)


class TestSampleSizes:
    def test_swap_pinned_value(self):
        assert shots_swap(0.5, 0.01, 0.95) == 36014

    def test_ancilla_free_pinned_value(self):
        assert shots_ancilla_free(0.5, 0.01, 0.95) == 7203

    def test_match_numeric_evaluation(self):
        q = stats.norm.ppf((1 + 0.95) / 2)
        p, eps = 0.5, 0.01
        assert shots_swap(p, eps, 0.95) == math.ceil(
            (1 - p**4) / (4 * eps**2 * p**2) * q * q)
        assert shots_ancilla_free(p, eps, 0.95) == math.ceil(
            (1 - p**2) / (4 * eps**2) * q * q)

    def test_swap_requires_positive_p(self):
        with pytest.raises(ValueError):
            shots_swap(0.0, 0.01, 0.95)


class TestProbabilityIdentities:
    @pytest.mark.parametrize("seed", range(10))
    def test_swap_ancilla(self, seed):
        a, b = random_pair(4, seed)
        test = build_swap_test(load_amplitude(build_tree(a)),
                               load_amplitude(build_tree(b)))
        state = Statevector.zero(test.width)
        test.circuit.apply_unitary(state)
        p0 = sim.probability_of_bits(state, (test.ancilla,), 0)
        p = float(np.dot(a.values, b.values))
        assert p0 == pytest.approx(0.5 + 0.5 * p * p, abs=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_ancilla_free_all_zero(self, seed):
        a, b = random_pair(8, 100 + seed)
        prep = load_amplitude(build_tree(a))
        circ = build_ancilla_free(prep, load_amplitude(build_tree(b)))
        state = Statevector.zero(prep.width)
        circ.apply_unitary(state)
        p = float(np.dot(a.values, b.values))
        assert abs(state.amplitudes[0]) ** 2 == pytest.approx(p * p, abs=1e-10)


def _readout_cases():
    """(kind, k, N, style, s) for every readout of k = 1-4, N = 2-32 and BOE
    s = 1-2 whose full-width reference circuit has at most 16 qubits."""
    cases = []
    for k in range(1, 5):
        for n in range(1, 6):
            if k * n <= 16:
                cases += [("b", k, 1 << n, style, 1)
                          for style in ("no_mid_reset", "mid_reset")]
            if (k + 1) * n + 1 <= 16:
                cases.append(("a", k, 1 << n, "no_mid_reset", 1))
            cases += [("boe", k, 1 << n, "no_mid_reset", s) for s in (1, 2)
                      if s <= n and (k + 1) * boe_width(1 << n, s) + 1 <= 16]
    return cases


def _branch_cases():
    """(encoding, k, N, style, s, pad) for every power circuit of k = 1-4,
    N = 2-32 and BOE s = 1-2, padded by nothing (the ancilla-free readout)
    or by a loader's width and an ancilla (the swap test), whose full-width
    reference allocates at most 16 qubits."""
    cases = []
    for k in range(1, 5):
        for n in range(1, 6):
            widths = [("amplitude", 1, n)] + [("boe", s, boe_width(1 << n, s))
                                              for s in (1, 2) if s <= n]
            for encoding, s, bw in widths:
                for pad in (0, bw + 1):
                    if max(k * bw, k * bw - (k - 1) * n + pad) > 16:
                        continue
                    cases += [(encoding, k, 1 << n, style, s, pad)
                              for style in ("no_mid_reset", "mid_reset")]
    return cases


def _chain_branch(loader, k, pad):
    """(P(Z=0), state) of a chain of k - 1 QHP rounds (helpers.chain_round)
    after block 0's load, each round's register projected on 0, on `pad`
    extra qubits left in |0>.  Amplitude encoding reloads one copy block,
    as helpers.ref_dynamic_stopping does; BOE keeps every block, whose side
    qubits stay entangled with the survivor."""
    bw = loader.width
    blocks = 2 if loader.width == len(loader.primary) else k
    width = min(blocks, k) * bw + pad
    st = loader.circuit.remapped(range(bw), width).apply_unitary(
        Statevector.zero(width))
    prob = 1.0
    for t in range(1, k):
        base = bw if blocks == 2 else t * bw
        step, reg = helpers.chain_round(loader, base, width)
        step.apply_unitary(st)
        p, st = sim.project_bits(st, reg, 0)
        prob *= p
    return prob, st


class TestZeroBranch:
    """The branch where every consumed register reads 0, which the k >= 2
    readouts take in closed form: on the whole power state, padded by the
    readout's qubits, and at the end of a chain of rounds it is reached with
    P(Z=0) = sum_j T_j^{2k}, its survivor's primary reads j with
    T_j^{2k} / P(Z=0), and the padding still reads 0."""

    @pytest.mark.parametrize("encoding, k, N, style, s, pad", _branch_cases())
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=2, deadline=None)
    def test_chain_equals_full_state(self, encoding, k, N, style, s, pad, seed):
        raw = np.random.default_rng(seed).uniform(0.5, 3.0, N)
        normalize = normalize_affine if encoding == "amplitude" else normalize_sqrt
        series = normalize(raw, 0.0)
        loader = qhp.make_loader(series, encoding, s)
        pc = qhp.power_circuit(series, k, style, encoding=encoding, s=s)
        assert pad in (0, loader.width + 1)
        width = pc.width + pad
        full = pc.circuit.remapped(range(pc.width), width).apply_unitary(
            Statevector.zero(width))
        z_qubits = tuple(q for reg in pc.measured for q in reg)
        p_full, full = sim.project_bits(full, z_qubits, 0)
        p_chain, chain = _chain_branch(loader, k, pad)

        t2k = series.values ** (2 * k)
        p_z0 = inner._consumed_branch(series, series, k)[0] if k > 1 else 1.0
        np.testing.assert_allclose([p_full, p_chain], p_z0, rtol=0.0, atol=1e-12)
        for state in (full, chain):
            np.testing.assert_allclose(sim.marginal_probabilities(state, pc.primary),
                                       t2k / p_z0, rtol=0.0, atol=1e-12)
            pad_qubits = range(state.n_qubits - pad, state.n_qubits)
            assert sim.probability_of_bits(state, pad_qubits, 0) == pytest.approx(
                1.0, abs=1e-12)


class TestBranchReadouts:
    """At k = 1 the readouts run the full circuit, bit for bit.  At k >= 2
    they read the branch where every consumed register reads 0 in closed
    form; the full deferred-measurement circuit checks them to 1e-12."""

    @pytest.mark.parametrize("kind, k, N, style, s", _readout_cases())
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_branch_readout_equals_full_width(self, kind, k, N, style, s, seed):
        rng = np.random.default_rng(seed)
        t_raw, e_raw = rng.uniform(0.5, 3.0, size=(2, N))
        if kind == "boe":
            t, e = normalize_sqrt(t_raw, 0.0), normalize_sqrt(e_raw, 0.0)
            pc = qhp.power_circuit(t, k, encoding="boe", s=s)
            e_loader = qhp.make_loader(e, "boe", s)
        else:
            t, e = normalize_affine(t_raw, 0.0), normalize_affine(e_raw, 0.0)
            pc = qhp.power_circuit(t, k, style)
            e_loader = load_amplitude(build_tree(e))
        if kind == "b":
            full = build_ancilla_free(pc, e_loader).apply_unitary(
                Statevector.zero(pc.width))
            got = inner._ancilla_free_readout(t, e, k, style)
            want = float(abs(full.amplitudes[0]) ** 2)
        else:
            encoding = "boe" if kind == "boe" else "amplitude"
            got = inner._swap_readout(t, e, k, encoding, s)
            want = helpers.swap_probabilities(pc, e_loader)
        if k == 1:
            assert got == want
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


class TestEstimators:
    def test_variant_ab_estimate(self):
        t = normalize_affine([12.0, 17.0, 23.0, 28.0], 10.0)
        e = normalize_affine([30.0, 24.0, 36.0, 28.0], 0.0)
        k = 2
        est = estimate_yk_variant_ab(t, e, k, "no_mid_reset", 0.02, 0.95,
                                     RngStream(0))
        y = float(np.sum(t.values**k * e.values))
        assert abs(est.y_hat - y) < 0.02
        assert est.y_prime_hat == pytest.approx(
            est.y_hat * t.rho**-k * e.rho**-1)

    def test_swap_estimate(self):
        t = normalize_affine([12.0, 17.0, 23.0, 28.0], 10.0)
        e = normalize_affine([30.0, 24.0, 36.0, 28.0], 0.0)
        est = estimate_yk_swap(t, e, 1, 0.03, 0.95, RngStream(4))
        y = float(np.sum(t.values * e.values))
        assert abs(est.y_hat - y) < 0.03

    def test_swap_pilot_rejects_tiny_overlap(self):
        a, b = pair_with_overlap(0.001)
        # the pilot is stochastic; this seed lands on a non-positive radicand
        with pytest.raises(ValueError):
            estimate_yk_swap(a, b, 1, 0.05, 0.9, RngStream(1))

    def test_boe_swap_estimate(self):
        t = normalize_sqrt([12.0, 17.0, 23.0, 28.0], 10.0)
        e = normalize_sqrt([30.0, 24.0, 36.0, 28.0], 0.0)
        k = 2
        est = estimate_ytilde_boe_swap(t, e, k, 1, 0.03, 0.95, RngStream(2))
        y = float(np.sum(t.values ** (2 * k) * e.values**2))
        assert abs(est.y_hat - y) < 0.03
        assert est.method == "boe_swap"

    def test_boe_swap_at_64_points(self):
        # the k = 2 branch is read in closed form; built as a chain of BOE
        # loads it would need 69-qubit blocks
        rng = np.random.default_rng(11)
        t = normalize_sqrt(rng.uniform(12.0, 28.0, 64), 10.0)
        e = normalize_sqrt(rng.uniform(20.0, 40.0, 64), 0.0)
        est = estimate_ytilde_boe_swap(t, e, 2, 1, 0.05, 0.9, RngStream(12))
        y = float(np.sum(e.values**2 * t.values**4))
        assert np.isfinite(est.y_hat)
        assert abs(est.y_hat - y) < 0.05

    @pytest.mark.parametrize("k", [1, 2])
    def test_bad_style_and_split_level_rejected(self, k):
        t = normalize_sqrt([12.0, 17.0, 23.0, 28.0], 10.0)
        e = normalize_sqrt([30.0, 24.0, 36.0, 28.0], 0.0)
        with pytest.raises(ValueError, match="unknown style"):
            estimate_yk_variant_ab(t, e, k, "mid-reset", 0.1, 0.9, RngStream(0))
        with pytest.raises(ValueError, match="split level"):
            estimate_ytilde_boe_swap(t, e, k, 3, 0.1, 0.9, RngStream(0))

    def test_boe_swap_rejects_affine_series(self):
        t = normalize_affine([12.0, 17.0], 10.0)
        e = normalize_affine([30.0, 24.0], 0.0)
        with pytest.raises(ValueError):
            estimate_ytilde_boe_swap(t, e, 1, 1, 0.05, 0.9, RngStream(0))

    def test_variance_separation_at_low_overlap(self):
        a, b = pair_with_overlap(0.072)
        swap_est, free_est = [], []
        rng = RngStream(5)
        for _ in range(40):
            swap_est.append(estimate_yk_swap(a, b, 1, 0.05, 0.9, rng.child(),
                                             shots=10000).y_hat)
            free_est.append(estimate_yk_variant_ab(a, b, 1, "no_mid_reset",
                                                   0.05, 0.9, rng.child(),
                                                   shots=10000).y_hat)
        assert np.var(swap_est) / np.var(free_est) > 20

    def test_min_shots_floor(self):
        t = normalize_affine([12.0, 17.0], 10.0)
        e = normalize_affine([30.0, 24.0], 0.0)
        est = estimate_yk_variant_ab(t, e, 1, "no_mid_reset", 0.5, 0.5,
                                     RngStream(0))
        assert est.shots_used >= inner.MIN_SHOTS


FIXTURE_T, FIXTURE_E = [12.0, 17.0, 23.0, 28.0], [30.0, 24.0, 36.0, 28.0]


def _fixture_pair(encoding):
    normalize = normalize_sqrt if encoding == "boe" else normalize_affine
    return normalize(FIXTURE_T, 10.0), normalize(FIXTURE_E, 0.0)


def _estimate(method, t, e, k, rng, s=1):
    """One fixed-shot estimate by `method`: "swap", "boe", or "ab-<style>"."""
    if method == "swap":
        return estimate_yk_swap(t, e, k, 0.1, 0.9, rng, shots=2000)
    if method == "boe":
        return estimate_ytilde_boe_swap(t, e, k, s, 0.1, 0.9, rng, shots=2000)
    return estimate_yk_variant_ab(t, e, k, method[3:], 0.1, 0.9, rng, shots=2000)


class TestKeptLaws:
    """A pair's readout law is computed on its first estimate and kept on
    the powered series, keyed by the partner series object."""

    @pytest.mark.parametrize("method", ["swap", "boe", "ab-no_mid_reset"])
    def test_repeated_estimates_simulate_once(self, method, monkeypatch):
        t, e = _fixture_pair(method)
        builds = helpers.recorded_calls(monkeypatch, qhp, "build_power_circuit")
        runs = helpers.recorded_calls(monkeypatch, sim.Circuit, "apply_unitary")
        rng = RngStream(3)
        for _ in range(5):
            _estimate(method, t, e, 1, rng.child())
        assert (len(builds), len(runs)) == (1, 1)

    @pytest.mark.parametrize("method, s", [("swap", 1), ("boe", 1), ("boe", 2),
                                           ("ab-no_mid_reset", 1),
                                           ("ab-mid_reset", 1)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kept_law_gives_fresh_bits(self, method, s, k):
        kept = _fixture_pair(method)
        _estimate(method, *kept, k, RngStream(1), s)
        hit = _estimate(method, *kept, k, RngStream(8), s)
        fresh = _estimate(method, *_fixture_pair(method), k, RngStream(8), s)
        assert repr(hit) == repr(fresh)

    def test_kept_pvals_are_read_only(self):
        t, e = _fixture_pair("boe")
        pvals = inner._qhp_swap_probabilities(t, e, 2, "boe", 1)
        assert inner._qhp_swap_probabilities(t, e, 2, "boe", 1) is pvals
        with pytest.raises(ValueError, match="read-only"):
            pvals[0] = 1.0

    def test_equal_partner_gets_own_entry(self, monkeypatch):
        t, e1 = _fixture_pair("amplitude")
        e2 = normalize_affine(FIXTURE_E, 0.0)
        assert e1 != e2 and len({e1, e2}) == 2
        runs = helpers.recorded_calls(monkeypatch, sim.Circuit, "apply_unitary")
        p1 = inner._qhp_swap_probabilities(t, e1, 1)
        p2 = inner._qhp_swap_probabilities(t, e2, 1)
        assert p1 is not p2 and p1.tobytes() == p2.tobytes()
        assert len(runs) == 2 and len(t.readouts) == 2
        assert {key[1] for key in t.readouts} == {e1, e2}

    @pytest.mark.parametrize("k", [1, 2])
    def test_bad_arguments_refused_and_not_kept(self, k):
        t, e = _fixture_pair("boe")
        with pytest.raises(ValueError, match="unknown style"):
            estimate_yk_variant_ab(t, e, k, "mid-reset", 0.1, 0.9, RngStream(0))
        with pytest.raises(ValueError, match="split level"):
            estimate_ytilde_boe_swap(t, e, k, 3, 0.1, 0.9, RngStream(0))
        assert t.readouts == {}
        # a kept law for good arguments does not let bad ones through
        _estimate("ab-no_mid_reset", t, e, k, RngStream(0))
        _estimate("boe", t, e, k, RngStream(0))
        with pytest.raises(ValueError, match="unknown style"):
            estimate_yk_variant_ab(t, e, k, "mid-reset", 0.1, 0.9, RngStream(0))
        with pytest.raises(ValueError, match="split level"):
            estimate_ytilde_boe_swap(t, e, k, 3, 0.1, 0.9, RngStream(0))
        assert len(t.readouts) == 2
