import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import helpers
from qsim import sim
from qsim.encoding import NormalizedSeries, boe_width, normalize_affine
from qsim.qhp import (PowerPlan, build_power_circuit, expected_loads, make_loader,
                      norm_constant_ak, run_with_dynamic_stopping, success_probability)
from qsim.sim import RngStream, Statevector, ZeroBranchError


def series_fixture(n_vals=4, seed=0, eta=10.0):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(12.0, 30.0, size=n_vals)
    return normalize_affine(raw, eta)


# (encoding, N, s, k) with the chain at most 16 qubits wide
DYNSTOP_CASES = [("amplitude", n_vals, 1, k) for n_vals in (2, 4, 8) for k in (2, 3, 4)]
DYNSTOP_CASES += [("boe", n_vals, s, k) for n_vals in (2, 4, 8) for s in (1, 2)
                  for k in (2, 3, 4)
                  if (1 << s) <= n_vals and k * boe_width(n_vals, s) <= 16]

# (encoding, N, s) for N = 2 .. 64 and every split level whose loader fits
# a statevector of at most 20 qubits
LEAF_CASES = [("amplitude", 1 << n, 1) for n in range(1, 7)]
LEAF_CASES += [("boe", 1 << n, s) for n in range(1, 7) for s in range(1, n + 1)
               if boe_width(1 << n, s) <= 20]


def _triples(outcomes):
    return [(o.success, o.rounds_executed, o.loads) for o in outcomes]


class TestConstants:
    def test_ak_formula(self):
        series = series_fixture()
        for k in range(1, 5):
            expected = float(np.sum(series.values ** (2 * k))) ** -0.5
            assert norm_constant_ak(series, k) == pytest.approx(expected)

    def test_success_probability_is_ak_inv_sq(self):
        series = series_fixture(8, 3)
        for k in range(1, 5):
            assert success_probability(series, k) == pytest.approx(
                norm_constant_ak(series, k) ** -2)

    def test_uniform_expected_loads(self):
        # uniform series, k=2: every round succeeds with probability 1/N...
        series = normalize_affine(np.full(4, 15.0), 10.0)
        # joint success 1/4, failure after 1 load w.p. 3/4 -> E = 2/4 + 3/4
        assert expected_loads(series, 2) == pytest.approx(1.25)

    def test_expected_loads_bounds(self):
        series = series_fixture(8, 5)
        for k in range(2, 5):
            e = expected_loads(series, k)
            assert 1.0 <= e <= k


class TestPowerStates:
    @pytest.mark.parametrize("style, rounds", [
        ("mid_reset", [(0, 1), (0, 2), (0, 3), (0, 4)]),
        ("no_mid_reset", [(0, 1), (2, 3), (0, 2), (0, 4)])])
    def test_circuit_loads_then_cnot_rounds(self, style, rounds):
        # k = 5: every block loaded, then one CNOT layer per round from the
        # control block's primary to the target's; block 0 survives
        loader = make_loader(series_fixture(4, 3))
        pc = build_power_circuit(PowerPlan(k=5, style=style), loader)
        blocks = [(2 * b, 2 * b + 1) for b in range(5)]
        loads = [(kind, tuple(2 * b + q for q in qubits), payload)
                 for b in range(5) for kind, qubits, payload in loader.circuit.gates]
        layers = [("layer", blocks[c] + blocks[t], None) for c, t in rounds]
        assert pc.circuit.gates == loads + layers
        assert (pc.width, pc.primary) == (10, blocks[0])
        assert pc.measured == [blocks[t] for _c, t in rounds]

    def test_invalid_plan(self):
        with pytest.raises(ValueError):
            PowerPlan(k=0, style="no_mid_reset")
        with pytest.raises(ValueError):
            PowerPlan(k=2, style="sideways")


class TestDynamicStopping:
    def test_success_frequency(self):
        series = series_fixture(4, 1)
        k = 3
        loader = make_loader(series)
        plan = PowerPlan(k=k, style="mid_reset")
        shots = 4000
        outcomes = run_with_dynamic_stopping(plan, loader, shots, RngStream(7))
        freq = np.mean([o.success for o in outcomes])
        p = success_probability(series, k)
        sigma = np.sqrt(p * (1 - p) / shots)
        assert abs(freq - p) < 4 * sigma

    def test_mean_loads_matches_expectation(self):
        series = series_fixture(4, 2)
        k = 3
        loader = make_loader(series)
        plan = PowerPlan(k=k, style="mid_reset")
        outcomes = run_with_dynamic_stopping(plan, loader, 4000, RngStream(9))
        mean_loads = np.mean([o.loads for o in outcomes])
        assert mean_loads == pytest.approx(expected_loads(series, k), abs=0.1)

    @given(st.sampled_from(DYNSTOP_CASES), st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=helpers.examples(60), deadline=None)
    def test_matches_per_shot_loop(self, case, data, seed):
        encoding, n_vals, s, k = case
        # entries may be zero, which gives outcomes of probability zero
        raw = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
                                 min_size=n_vals, max_size=n_vals)
                        .filter(lambda xs: any(xs)))
        width = (2 * (n_vals.bit_length() - 1) if encoding == "amplitude"
                 else k * boe_width(n_vals, s))
        shots = data.draw(st.integers(1, 300 if width <= 12 else 30))
        # normalize_affine refuses zero entries, so the series is built here
        values = np.array(raw)
        rho = 1.0 / math.sqrt(float(np.sum(values ** 2)))
        loader = make_loader(NormalizedSeries(values=rho * values, rho=rho, eta=0.0,
                                              mode="affine"), encoding, s)
        plan = PowerPlan(k=k, style="mid_reset", encoding=encoding, s=s)
        got = _triples(run_with_dynamic_stopping(plan, loader, shots, RngStream(seed)))
        try:
            ref = helpers.ref_dynamic_stopping(plan, loader, shots, RngStream(seed))
        except ZeroBranchError:
            # the chain drew a vanishing branch; the closed form, which
            # renormalizes none, still ends every shot at a round of the chain
            assert len(got) == shots
            assert set(got) <= ({(False, t, t) for t in range(1, k)}
                                | {(True, k - 1, k)})
            return
        assert got == _triples(ref)

    @given(st.sampled_from(LEAF_CASES), st.data())
    @settings(max_examples=helpers.examples(60), deadline=None)
    def test_leaves_are_the_simulated_marginal(self, case, data):
        # dynamic stopping reads p = leaves^2; the statevector is its reference
        encoding, n_vals, s = case
        raw = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
                                 min_size=n_vals, max_size=n_vals).filter(any))
        values = np.array(raw)
        rho = 1.0 / math.sqrt(float(np.sum(values ** 2)))
        loader = make_loader(NormalizedSeries(values=rho * values, rho=rho, eta=0.0,
                                              mode="affine"), encoding, s)
        state = loader.circuit.apply_unitary(Statevector.zero(loader.width))
        np.testing.assert_allclose(loader.leaves ** 2,
                                   sim.marginal_probabilities(state, loader.primary),
                                   rtol=0, atol=1e-12)

    @given(st.sampled_from(DYNSTOP_CASES), st.integers(1, 100), st.integers(0, 100),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=helpers.examples(30), deadline=None)
    def test_first_shots_do_not_depend_on_shot_count(self, case, m, extra, seed):
        encoding, n_vals, s, k = case
        loader = make_loader(series_fixture(n_vals, seed % 97), encoding, s)
        plan = PowerPlan(k=k, style="mid_reset", encoding=encoding, s=s)
        few, many = (run_with_dynamic_stopping(plan, loader, n, RngStream(seed))
                     for n in (m, m + extra))
        assert _triples(few) == _triples(many[:m])

    @pytest.mark.parametrize("encoding,s", [("amplitude", 1), ("boe", 1)])
    def test_outcomes_are_shared_and_frozen(self, encoding, s):
        k = 3
        loader = make_loader(series_fixture(4, 5), encoding, s)
        plan = PowerPlan(k=k, style="mid_reset", encoding=encoding, s=s)
        outcomes = run_with_dynamic_stopping(plan, loader, 400, RngStream(11))
        # one object per (success, rounds): at most k distinct outcomes
        assert len({id(o) for o in outcomes}) <= k
        assert set(_triples(outcomes)) <= (
            {(False, t, t) for t in range(1, k)} | {(True, k - 1, k)})
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcomes[0].loads = 0

    def test_single_load_always_succeeds(self):
        loader = make_loader(series_fixture(4, 6))
        outcomes = run_with_dynamic_stopping(PowerPlan(k=1, style="mid_reset"),
                                             loader, 5, RngStream(2))
        assert _triples(outcomes) == [(True, 0, 1)] * 5

    def test_boe_at_64_points(self, monkeypatch):
        # three 12-qubit blocks: a statevector chain would need 36 qubits
        series = normalize_affine(0.7 ** np.arange(64), 0.0)
        loader = make_loader(series, "boe", 6)
        plan = PowerPlan(k=3, style="mid_reset", encoding="boe", s=6)
        calls = helpers.recorded_calls(monkeypatch, Statevector, "__init__")
        outcomes = run_with_dynamic_stopping(plan, loader, 2000, RngStream(17))
        assert calls == []
        # correct code leaves this exact binomial interval with probability < 1e-6
        lo, hi = stats.binom.interval(1 - 1e-6, 2000, success_probability(series, 3))
        assert lo <= sum(o.success for o in outcomes) <= hi

    def test_requires_mid_reset(self):
        series = series_fixture()
        loader = make_loader(series)
        with pytest.raises(ValueError):
            run_with_dynamic_stopping(PowerPlan(k=2, style="no_mid_reset"),
                                      loader, 1, RngStream(0))
