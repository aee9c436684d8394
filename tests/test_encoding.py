import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import FIXTURE_T, examples, survivor_amplitudes
from qsim.encoding import (boe_depth, boe_width, build_tree, load_amplitude,
                           load_boe, normalize_affine, normalize_sqrt,
                           read_series, validate_raw)
from qsim.sim import Statevector


def random_positive(n_vals, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 3.0, size=n_vals)


class TestValidation:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            validate_raw([1.0, 2.0, 3.0])

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            validate_raw([1.0])

    def test_finite_required(self):
        with pytest.raises(ValueError):
            validate_raw([1.0, np.inf])


class TestNormalization:
    def test_affine_round_trip(self):
        raw = np.array(FIXTURE_T)
        series = normalize_affine(raw, 10.0)
        assert np.linalg.norm(series.values) == pytest.approx(1.0)
        np.testing.assert_allclose(series.values / series.rho + series.eta, raw,
                                   atol=1e-12)

    def test_affine_requires_positive(self):
        with pytest.raises(ValueError, match="normalized entries must be positive"):
            normalize_affine(FIXTURE_T, 20.0)

    def test_sqrt_round_trip(self):
        raw = np.array(FIXTURE_T)
        series = normalize_sqrt(raw, 10.0)
        assert np.linalg.norm(series.values) == pytest.approx(1.0)
        np.testing.assert_allclose((series.values / series.rho) ** 2 + series.eta,
                                   raw, atol=1e-12)

    @pytest.mark.parametrize("normalize, power", [(normalize_affine, 2), (normalize_sqrt, 1)])
    def test_sum_overflowing_float64_refused(self, normalize, power):
        # rho was 0 where the sum overflowed; no RuntimeWarning may escape
        with pytest.raises(ValueError, match=re.escape(
                f"sum (x - eta)^{power} overflows float64 for the series of "
                "largest entry 1e+308 at eta=10.0")):
            normalize([1e308, 1e308, 12.0, 13.0], 10.0)

    def test_sqrt_rho_value(self):
        raw = np.array(FIXTURE_T)
        series = normalize_sqrt(raw, 10.0)
        assert series.rho**-2 == pytest.approx(float(np.sum(raw - 10.0)))


class TestAmplitudeLoader:
    @pytest.mark.parametrize("n_vals", [2, 4, 8, 16])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=examples(30), deadline=None)
    def test_prepares_amplitudes(self, n_vals, seed):
        vals = random_positive(n_vals, seed)
        vals /= np.linalg.norm(vals)
        loader = load_amplitude(build_tree(vals))
        state = Statevector.zero(loader.width)
        loader.circuit.apply_unitary(state)
        np.testing.assert_allclose(survivor_amplitudes(loader, state).real, vals,
                                   atol=1e-12)


class TestBoe:
    @pytest.mark.parametrize("n_vals", [4, 16, 32])
    def test_width_formula(self, n_vals):
        n = int(np.log2(n_vals))
        for s in range(1, n + 1):
            vals = np.full(n_vals, np.sqrt(1.0 / n_vals))
            loader = load_boe(build_tree(vals), s)
            expected = (s + 1) * n_vals // (1 << s) - 1 + n
            assert loader.width == expected
            assert boe_width(n_vals, s) == expected

    def test_depth_formula(self):
        # 2^s + (n^2 - n - s^2 + s)/2 + 1 at n = 4
        assert [boe_depth(16, s) for s in range(1, 5)] == [9, 10, 12, 17]

    def test_invalid_split_level(self):
        tree = build_tree(np.array([0.6, 0.8]))
        with pytest.raises(ValueError):
            load_boe(tree, 0)


@given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=examples(60), deadline=None)
def test_loader_then_inverse_returns_input(n, s, seed):
    # a random amplitude (s = 0) or BOE loader, run on a random input state
    # and then undone by its inverse
    s = min(s, n)
    if s and boe_width(1 << n, s) > 12:
        s = n
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 3.0, size=1 << n)
    vals /= np.linalg.norm(vals)
    tree = build_tree(vals)
    loader = load_boe(tree, s) if s else load_amplitude(tree)
    amps = rng.normal(size=1 << loader.width)
    state = Statevector(loader.width, amps / np.linalg.norm(amps))
    start = state.amplitudes.copy()
    loader.circuit.inverse().apply_unitary(loader.circuit.apply_unitary(state))
    np.testing.assert_allclose(state.amplitudes, start, rtol=0, atol=1e-12)


class TestReadSeries:
    def test_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("12\n17\n23\n28\n")
        np.testing.assert_allclose(read_series(path), [12, 17, 23, 28])

    def test_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("[12, 17, 23, 28]")
        np.testing.assert_allclose(read_series(path), [12, 17, 23, 28])

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_series(tmp_path / "nope.csv")
