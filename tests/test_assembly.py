import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from helpers import FIXTURE_E, FIXTURE_T
from qsim import assembly, classical
from qsim.assembly import (ContractSpec, VariantConfig, allocate_budget,
                           delta_gross_margin, evaluate, resource_report,
                           run_experiment)
from qsim.classical import DEFAULT_PARAMS, fit_polynomial, sigmoid_volume
from qsim.encoding import normalize_affine, normalize_sqrt
from qsim.sim import RngStream

RAW_T, RAW_E = np.array(FIXTURE_T), np.array(FIXTURE_E)


class TestBudget:
    def test_epsilon_k_formula(self):
        coeffs = fit_polynomial(DEFAULT_PARAMS, 0.0, 3, "taylor")
        rho = 0.05
        budget = allocate_budget(coeffs, rho, 0.1, 0.9, 3)
        for k, eps_k in budget.epsilon_k.items():
            expected = 0.1 * rho ** (k - 1) / (3 * abs(coeffs.b[k]))
            assert eps_k == pytest.approx(expected)

    @pytest.mark.parametrize("K", [2, 3])
    def test_beta_whose_confidence_rounds_to_one_refused(self, K):
        coeffs = fit_polynomial(DEFAULT_PARAMS, 0.0, K, "taylor")
        assert allocate_budget(coeffs, 0.1, 0.1, 0.999, K).alpha_k[1] < 1.0
        with pytest.raises(ValueError, match="beta"):
            allocate_budget(coeffs, 0.1, 0.1, 1.0 - 2.0**-53, K)

    def test_quadratic_scaling(self):
        coeffs = fit_polynomial(DEFAULT_PARAMS, 0.0, 2, "taylor")
        lin = allocate_budget(coeffs, 0.1, 0.1, 0.9, 2)
        quad = allocate_budget(coeffs, 0.1, 0.1, 0.9, 2, quadratic=True)
        # powers rho^{2(k-1)} vs rho^{k-1}: one extra factor of rho at k=2
        assert quad.epsilon_k[2] == pytest.approx(lin.epsilon_k[2] * 0.1)

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["c", "d"])
    def test_epsilon_bounds_weighted_power_error(self, K, variant):
        # epsilon bounds sum_{k>=1} |b_k| |dy'_k|, in absolute terms: y_k
        # within eps_k moves y'_k by at most eps_k / (rho_T^k rho_E), squared
        # under d's sqrt encoding; each power with b_k != 0 takes 1/K of
        # eps ||T-eta||_2 ||E||_2, or of eps sum(T-eta) sum(E) for d
        eta, eps = 10.0, 0.05
        coeffs = fit_polynomial(DEFAULT_PARAMS, eta, K, "taylor")
        if variant == "d":
            t, e, power = normalize_sqrt(RAW_T, eta), normalize_sqrt(RAW_E, 0.0), 2
            bound = eps * np.sum(RAW_T - eta) * np.sum(RAW_E)
        else:
            t, e, power = normalize_affine(RAW_T, eta), normalize_affine(RAW_E, 0.0), 1
            bound = eps * np.linalg.norm(RAW_T - eta) * np.linalg.norm(RAW_E)
        budget = allocate_budget(coeffs, t.rho, eps, 0.9, K, quadratic=variant == "d")
        powers = [k for k in budget.epsilon_k if k >= 1]
        total = sum(abs(coeffs.b[k]) * budget.epsilon_k[k] / (t.rho ** k * e.rho) ** power
                    for k in powers)
        assert powers
        assert total == pytest.approx(bound * len(powers) / K, rel=1e-12)
        assert total <= bound * (1 + 1e-12)

    def test_alpha_k(self):
        coeffs = fit_polynomial(DEFAULT_PARAMS, 0.0, 2, "taylor")
        budget = allocate_budget(coeffs, 0.1, 0.1, 0.9, 2)
        assert budget.alpha_k[1] == pytest.approx((2 - 1 + 0.9) / 2)

    def test_zero_coefficients_skipped(self):
        coeffs = classical.PolyCoeffs(b=np.array([1.0, 0.0, 2.0]), eta=0.0,
                                      fit_mode="taylor")
        budget = allocate_budget(coeffs, 0.1, 0.1, 0.9, 2)
        assert sorted(budget.epsilon_k) == [0, 2]
        assert sorted(budget.alpha_k) == [0, 2]

    def test_all_zero_rejected(self):
        coeffs = classical.PolyCoeffs(b=np.zeros(2), eta=0.0, fit_mode="taylor")
        with pytest.raises(ValueError):
            allocate_budget(coeffs, 0.1, 0.1, 0.9, 1)


class TestEvaluate:
    def test_constant_term(self):
        # y'_0 = sum_j E'_j is power 0's row, at no cost: a-d take it through
        # the affine E, d too, whose E is sqrt-normalised, so their rows hold
        # the same bits; sampling sums the raw E
        rows = {variant: evaluate(VariantConfig(variant=variant, K=1, eta=10.0,
                                                epsilon=0.1, seed=1),
                                  RAW_T, RAW_E).per_k[0]
                for variant in ("a", "b", "c", "d", "classical_sampling")}
        series = normalize_affine(RAW_E, 0.0)
        y0_prime = float(series.values.sum()) / series.rho
        assert y0_prime == pytest.approx(float(RAW_E.sum()), rel=1e-12)
        for variant in "abcd":
            assert rows[variant] == {"k": 0, "y_hat": None, "y_prime_hat": y0_prime,
                                     "epsilon_k": 0.0, "alpha_k": 1.0, "cost": 0,
                                     "method": "classical"}
        assert rows["classical_sampling"] == {"k": 0, "y_prime_hat": float(RAW_E.sum()),
                                              "queries": 0, "method": "classical"}

    def test_classical_exact(self):
        cfg = VariantConfig(variant="classical_exact", K=2, eta=10.0)
        report = evaluate(cfg, RAW_T, RAW_E)
        assert report.V == pytest.approx(
            classical.exact_value(RAW_T, RAW_E, DEFAULT_PARAMS))

    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_quantum_variants_near_poly_value(self, variant):
        cfg = VariantConfig(variant=variant, K=2, eta=10.0, epsilon=0.05,
                            beta=0.9, seed=3)
        report = evaluate(cfg, RAW_T, RAW_E)
        assert report.rel_error_vs_star() < 0.05

    def test_variant_d(self):
        cfg = VariantConfig(variant="d", K=2, eta=10.0, epsilon=0.1, beta=0.9,
                            seed=3, s=1)
        report = evaluate(cfg, RAW_T, RAW_E)
        assert report.rel_error_vs_star() < 0.1

    def test_sampling_variant(self):
        cfg = VariantConfig(variant="classical_sampling", K=2, eta=10.0,
                            epsilon=0.05, beta=0.9, seed=3)
        report = evaluate(cfg, RAW_T, RAW_E)
        assert report.rel_error_vs_star() < 0.1

    def test_eta_above_data_rejected(self):
        cfg = VariantConfig(variant="b", K=2, eta=20.0)
        with pytest.raises(ValueError, match="normalized entries must be positive"):
            evaluate(cfg, RAW_T, RAW_E)

    @pytest.mark.parametrize("forced", [0.0, -0.1])
    def test_non_positive_forced_epsilon_rejected(self, forced):
        with pytest.raises(ValueError):
            VariantConfig(variant="b", K=2, eta=10.0, forced_epsilon_k=forced)

    @pytest.mark.parametrize("shots", [0, -5])
    def test_non_positive_shots_rejected(self, shots):
        with pytest.raises(ValueError, match="shots"):
            VariantConfig(variant="c", K=1, eta=10.0, shots=shots)

    def test_shots_of_2_to_the_63_rejected(self):
        # a binomial draw of 2^63 shots once ended in an OverflowError
        with pytest.raises(ValueError, match="shots"):
            VariantConfig(variant="c", K=1, eta=10.0, shots=2**63)

    def test_unknown_engine_rejected(self):
        # a misspelt engine used to run IQAE silently
        with pytest.raises(ValueError, match="engine"):
            VariantConfig(variant="c", K=1, eta=10.0, engine="canonicl", seed=1)

    @pytest.mark.parametrize("variant", assembly.VARIANTS)
    @pytest.mark.parametrize("field, value", [
        ("style", "bogus"), ("K", 2.5), ("K", True), ("s", 1.5), ("s", False),
        ("seed", 1.5), ("seed", True), ("seed", -1),
        ("shots", 2.5), ("shots", np.float64(100.0)),
        ("epsilon", True), ("epsilon", "0.05"), ("beta", True), ("beta", "0.9"),
        ("eta", "10"), ("eta", False), ("eta", 10j),
        ("forced_epsilon_k", True), ("forced_epsilon_k", "0.04")])
    def test_bad_field_rejected_at_construction(self, variant, field, value):
        # refused at construction for every variant, whether or not it reads
        # the field, and not deep in the fit, the BOE width or SeedSequence;
        # a bool epsilon once ran as 1 and a str eta failed inside evaluate.
        # style is no longer a field (b's readout law is y_k^2 in either
        # style), so it is refused as an unknown keyword
        error = TypeError if field == "style" else ValueError
        with pytest.raises(error, match=field):
            VariantConfig(**{"variant": variant, "K": 2, "eta": 10.0, field: value})

    @pytest.mark.parametrize("variant", assembly.VARIANTS)
    def test_numpy_integer_fields_accepted(self, variant):
        cfg = VariantConfig(variant=variant, K=np.int64(2), eta=10.0,
                            s=np.int32(1), seed=np.uint8(3), shots=np.int64(50))
        assert evaluate(cfg, RAW_T, RAW_E).to_dict() == evaluate(
            VariantConfig(variant=variant, K=2, eta=10.0, s=1, seed=3, shots=50),
            RAW_T, RAW_E).to_dict()

    @pytest.mark.parametrize("variant", assembly.VARIANTS)
    def test_numpy_and_int_real_fields_accepted(self, variant):
        cfg = VariantConfig(variant=variant, K=2, eta=np.float64(10.0), epsilon=np.float64(0.05),
                            beta=np.float64(0.9), forced_epsilon_k=np.float64(0.04))
        assert evaluate(cfg, RAW_T, RAW_E).to_dict() == evaluate(
            VariantConfig(variant=variant, K=2, eta=10, forced_epsilon_k=0.04),
            RAW_T, RAW_E).to_dict()

    def test_forced_epsilon_used_for_every_power(self):
        cfg = VariantConfig(variant="b", K=2, eta=10.0, forced_epsilon_k=0.04)
        report = evaluate(cfg, RAW_T, RAW_E)
        assert [row["epsilon_k"] for row in report.per_k if row["k"] > 0] == [0.04, 0.04]

    def test_seed_reproducibility(self):
        cfg = VariantConfig(variant="b", K=2, eta=10.0, seed=8)
        r1 = evaluate(cfg, RAW_T, RAW_E)
        r2 = evaluate(cfg, RAW_T, RAW_E)
        assert r1.V == r2.V
        assert r1.to_dict() == r2.to_dict()

    def test_report_serialization(self, tmp_path):
        cfg = VariantConfig(variant="b", K=2, eta=10.0, seed=1)
        report = evaluate(cfg, RAW_T, RAW_E)
        path = tmp_path / "report.json"
        report.to_json(path)
        data = json.loads(path.read_text())
        assert data["V"] == report.V
        assert data["seed"] == 1

    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_degree_3_at_1024_points(self, variant):
        # the k = 3 power state alone has 30 qubits (16 GiB); k = 2 and 3
        # are read in closed form, and a's k = 1 swap test allocates 21
        rng = np.random.default_rng(5)
        cfg = VariantConfig(variant=variant, K=3, eta=10.0, epsilon=0.1, seed=6)
        report = evaluate(cfg, rng.uniform(12.0, 28.0, 1024),
                          rng.uniform(20.0, 40.0, 1024))
        assert [row["k"] for row in report.per_k] == [0, 1, 2, 3]
        assert np.isfinite(report.V)

    @pytest.mark.parametrize("variant", ["b"])
    def test_degree_3_at_65536_points(self, variant):
        # the k = 3 power state alone has 48 qubits; every power is read in
        # closed form, and no state is allocated
        rng = np.random.default_rng(5)
        t, e = rng.uniform(12.0, 28.0, 1 << 16), rng.uniform(20.0, 40.0, 1 << 16)
        cfg = VariantConfig(variant=variant, K=3, eta=10.0, epsilon=0.1, seed=6)
        tracemalloc.start()
        try:
            report = evaluate(cfg, t, e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [row["k"] for row in report.per_k] == [0, 1, 2, 3]
        assert np.isfinite(report.V)
        assert peak < 64 << 20


class TestPowerLoop:
    """Every estimating variant runs its powers widest first, reports them
    in ascending k, and sums V = sum_k b_k y'_k in row order."""

    @pytest.mark.parametrize("variant, options", [
        ("a", {}), ("b", {}), ("c", {}), ("d", {"s": 1}),
        ("classical_sampling", {"forced_epsilon_k": 0.1})])
    def test_widest_first_ascending_rows_row_order_sum(self, monkeypatch, variant,
                                                       options):
        order = []
        spec = assembly.VARIANTS[variant]
        estimate_sampling = classical.estimate_yk_sampling

        def power(config, k, *args):
            order.append(k)
            return spec.estimate(config, k, *args)

        def sampling(access, rawE, k, *args):
            order.append(k)
            return estimate_sampling(access, rawE, k, *args)

        monkeypatch.setitem(assembly.VARIANTS, variant,
                            dataclasses.replace(spec, estimate=power))
        monkeypatch.setattr(classical, "estimate_yk_sampling", sampling)
        cfg = VariantConfig(variant=variant, K=3, eta=10.0, epsilon=0.1, seed=2,
                            **options)
        report = evaluate(cfg, RAW_T, RAW_E)
        assert order == [3, 2, 1]
        assert [row["k"] for row in report.per_k] == [0, 1, 2, 3]
        expected = 0.0
        for row in report.per_k:
            expected += report.config["b"][row["k"]] * row["y_prime_hat"]
        assert report.V == expected


class TestBuildOnce:
    """evaluate builds each object derived from its inputs once (the
    loaders and trees in test_reach), and later evaluations with the same
    arguments reuse the fit."""

    def test_second_evaluate_runs_no_fit(self):
        cfg = VariantConfig(variant="c", K=2, eta=7.5, epsilon=0.1, seed=1)
        first = evaluate(cfg, RAW_T, RAW_E)
        misses = classical._fitted_b.cache_info().misses
        second = evaluate(cfg, RAW_T[::-1].copy(), RAW_E)
        assert classical._fitted_b.cache_info().misses == misses
        assert second.config["b"] == first.config["b"]

    @pytest.mark.parametrize("variant, options", [
        ("a", {}), ("b", {}), ("c", {}), ("d", {"s": 1}),
        ("c", {"engine": "canonical"}), ("d", {"s": 2, "engine": "canonical"})])
    def test_interleaved_evaluations_match_fresh_ones(self, variant, options):
        # X, then Y (other series, and at the same or another eta), then X
        # again in one process: each report equals the one from a fresh
        # state, so no stale loader or fit is served.  Loaders live on the
        # series evaluate makes, so the fit memo is the only state to clear.
        x = (VariantConfig(variant=variant, K=2, eta=10.0, epsilon=0.1, seed=3,
                           **options), RAW_T, RAW_E)
        ys = [(VariantConfig(variant=variant, K=2, eta=eta, epsilon=0.1, seed=4,
                             **options), RAW_T + 1.0, RAW_E[::-1].copy())
              for eta in (10.0, 5.0)]

        def fresh(case):
            classical._fitted_b.cache_clear()
            return evaluate(*case).to_dict()

        want_x = fresh(x)
        want_ys = [fresh(y) for y in ys]
        for y, want_y in zip(ys, want_ys):
            assert evaluate(*x).to_dict() == want_x
            assert evaluate(*y).to_dict() == want_y
            assert evaluate(*x).to_dict() == want_x


class TestDeltaGrossMargin:
    def test_exact_combination(self):
        tau = np.array([14.0, 18.0, 22.0, 26.0])
        contract = ContractSpec(params=DEFAULT_PARAMS, asp=100.0,
                                season_normal=tau)
        cfg = VariantConfig(variant="classical_exact", K=3, eta=10.0)
        dgm = delta_gross_margin(cfg, RAW_T, contract, RAW_E)
        expected = float(np.sum(
            (sigmoid_volume(RAW_T, DEFAULT_PARAMS)
             - sigmoid_volume(tau, DEFAULT_PARAMS)) * (100.0 - RAW_E)))
        assert dgm == pytest.approx(expected)

    def test_requires_season_normal(self):
        contract = ContractSpec(params=DEFAULT_PARAMS, asp=100.0)
        cfg = VariantConfig(variant="classical_exact", K=2)
        with pytest.raises(ValueError):
            delta_gross_margin(cfg, RAW_T, contract, RAW_E)


class TestResources:
    def test_variant_a_width(self):
        cfg = VariantConfig(variant="a", K=2)
        table = resource_report(cfg, 16)
        for row in table["rows"]:
            assert row["width"] == 2 * 4
            assert row["width_with_ancilla"] == 2 * 4 + 1

    def test_variant_b_width(self):
        cfg = VariantConfig(variant="b", K=3)
        table = resource_report(cfg, 8)
        assert [row["width"] for row in table["rows"]] == [3, 6, 9]

    def test_variant_d_boe_width(self):
        cfg = VariantConfig(variant="d", K=1, s=2)
        table = resource_report(cfg, 16)
        assert table["rows"][0]["boe_width"] == 3 * 4 - 1 + 4

    def test_mcx_decomposition(self):
        cfg = VariantConfig(variant="c", K=2)
        table = resource_report(cfg, 16)
        row = table["rows"][1]
        c = row["mcx_decomposed"]["controls"]
        assert c == 2 * 4
        assert row["mcx_decomposed"]["ancillas"] == c - 2
        assert row["mcx_decomposed"]["toffolis"] == 2 * c - 3

    def test_rejects_non_power_of_two(self):
        cfg = VariantConfig(variant="a", K=2)
        with pytest.raises(ValueError):
            resource_report(cfg, 12)

    @pytest.mark.parametrize("variant,s", [("a", 2), ("b", 2), ("c", 2), ("d", 4)])
    def test_evaluate_rows_match_report(self, variant, s):
        # d at s = 2 would simulate a 31-qubit swap test; s = 4 needs 17
        gen = np.random.default_rng(5)
        cfg = VariantConfig(variant=variant, K=3, s=s, eta=10.0, epsilon=0.1)
        report = evaluate(cfg, gen.uniform(12.0, 28.0, 16), gen.uniform(20.0, 40.0, 16))
        table = resource_report(cfg, 16)
        width = "width_with_ancilla" if variant == "a" else "width"
        for got, want in zip(report.per_k[1:], table["rows"], strict=True):
            assert got["k"] == want["k"]
            assert got["width"] == want[width]
            if variant == "d":  # no depth bound for d, in either
                assert got["depth_bound"] is None and "depth_bound" not in want
            else:
                assert got["depth_bound"] == want["depth_bound"]


class TestExperiments:
    def test_unknown_name(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment("made_up", {}, str(tmp_path))

    def test_resource_table_files(self, tmp_path):
        run_experiment("resource_table", {"N": 8, "K": 2}, str(tmp_path))
        assert (tmp_path / "resource_table.csv").exists()
        sidecar = json.loads((tmp_path / "resource_table.json").read_text())
        assert sidecar["experiment"] == "resource_table"
        assert sidecar["config"]["N"] == 8

    def test_end_to_end_deterministic(self, tmp_path):
        config = {"seeds": [0, 1], "K": 2, "shots": 50}
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment("end_to_end", dict(config), str(a))
        run_experiment("end_to_end", dict(config), str(b))
        for name in ("end_to_end.csv", "end_to_end.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_grid_cell_i_draws_from_path_i_plus_1(self):
        # a stream is its path: the draws of cell i are those of the child
        # at path (i + 1,), rebuilt on its own
        axes = {"p": [0.5, 0.25], "method": "ab", "repeats": range(3)}
        cells = assembly._grid(RngStream(7), axes, lambda *cell: (
            *cell[:-1], cell[-1].path, cell[-1].binomial(10**6, 0.5)))
        rebuilt = RngStream(7).split(len(cells))
        assert cells == [(*cell, (i + 1,), rebuilt[i].binomial(10**6, 0.5))
                         for i, cell in enumerate(itertools.product(*axes.values()))]

    def test_compare_inner_summary(self, tmp_path):
        summary = run_experiment("compare_inner",
                                 {"repeats": 10, "shots": 2000},
                                 str(tmp_path))
        assert summary["variance_ratio_p0.072"] > 1.0
