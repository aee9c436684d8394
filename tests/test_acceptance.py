"""Acceptance suite: one test (and one pass/fail line) per criterion.

Each test prints `criterion N: PASS` on success; a failed assertion leaves
the corresponding FAILED line in the pytest output instead.
"""

import json
import math

import numpy as np
from click.testing import CliRunner
from scipy import stats

import helpers
from qsim import inner, qhp, sim
from qsim.assembly import VariantConfig, evaluate, run_experiment
from qsim.classical import DEFAULT_PARAMS, fit_polynomial
from qsim.cli import main as cli_main
from qsim.encoding import (build_tree, load_amplitude, load_boe,
                           normalize_affine, normalize_sqrt)
from qsim.sim import RngStream, Statevector


def _report(num, ok):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def test_criterion_01_qhp_correctness():
    rng = np.random.default_rng(2024)
    draw = RngStream(2024)
    shots = 10**5
    ok = True
    for trial in range(20):
        n_vals = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, 5))
        style = str(rng.choice(["no_mid_reset", "mid_reset"]))
        raw = rng.uniform(0.5, 3.0, size=n_vals)
        series = normalize_affine(raw, 0.0)
        loader = qhp.make_loader(series)
        pc = qhp.build_power_circuit(qhp.PowerPlan(k=k, style=style), loader)
        prob, state = helpers.postselected_power_state(pc)
        a_k = qhp.norm_constant_ak(series, k)
        amps = helpers.survivor_amplitudes(pc, state)
        ok &= bool(np.allclose(amps.real, a_k * series.values**k, atol=1e-10))
        ok &= bool(np.allclose(amps.imag, 0.0, atol=1e-10))
        # measured success frequency vs a_k^-2 at 1e5 shots
        freq = draw.binomial(shots, prob) / shots
        p = a_k**-2
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
        ok &= abs(freq - p) <= 3 * sigma + 1e-12
    # shot-by-shot execution path on one mid-reset fixture
    series = normalize_affine([12.0, 17.0, 23.0, 28.0], 10.0)
    outcomes = qhp.run_with_dynamic_stopping(
        qhp.PowerPlan(k=3, style="mid_reset"), qhp.make_loader(series),
        shots, RngStream(7))
    freq = np.mean([o.success for o in outcomes])
    p = qhp.success_probability(series, 3)
    sigma = math.sqrt(p * (1 - p) / shots)
    ok &= abs(freq - p) <= 3 * sigma
    _report(1, ok)


def test_criterion_02_inner_product_identities():
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(50):
        n_vals = int(rng.choice([2, 4, 8]))
        a = normalize_affine(rng.uniform(0.3, 2.0, size=n_vals), 0.0)
        b = normalize_affine(rng.uniform(0.3, 2.0, size=n_vals), 0.0)
        p = float(np.dot(a.values, b.values))
        test = inner.build_swap_test(load_amplitude(build_tree(a)),
                                     load_amplitude(build_tree(b)))
        st = Statevector.zero(test.width)
        test.circuit.apply_unitary(st)
        p0 = sim.probability_of_bits(st, (test.ancilla,), 0)
        ok &= abs(p0 - (0.5 + 0.5 * p * p)) < 1e-10
        prep = load_amplitude(build_tree(a))
        circ = inner.build_ancilla_free(prep, load_amplitude(build_tree(b)))
        st = Statevector.zero(prep.width)
        circ.apply_unitary(st)
        ok &= abs(abs(st.amplitudes[0]) ** 2 - p * p) < 1e-10
    _report(2, ok)


def test_criterion_03_variance_separation():
    a, b = helpers.pair_with_overlap(0.072)
    rng = RngStream(31)
    swap_est, free_est = [], []
    for _ in range(100):
        swap_est.append(inner.estimate_yk_swap(a, b, 1, 0.05, 0.9,
                                               rng.child(), shots=10**4).y_hat)
        free_est.append(inner.estimate_yk_variant_ab(
            a, b, 1, "no_mid_reset", 0.05, 0.9, rng.child(), shots=10**4).y_hat)
    var_swap = float(np.var(swap_est))
    var_free = float(np.var(free_est))
    ok = var_swap / var_free > 20
    ok &= var_free / 2.60e-5 < 3 and 2.60e-5 / var_free < 3
    ok &= var_swap / 3.20e-3 < 3 and 3.20e-3 / var_swap < 3
    _report(3, ok)


def test_criterion_04_sample_sizes_and_coverage():
    ok = inner.shots_swap(0.5, 0.01, 0.95) == 36014
    ok &= inner.shots_ancilla_free(0.5, 0.01, 0.95) == 7203
    q = stats.norm.ppf((1 + 0.95) / 2)
    ok &= inner.shots_swap(0.5, 0.01, 0.95) == math.ceil(
        (1 - 0.5**4) / (4 * 0.01**2 * 0.5**2) * q * q)
    ok &= inner.shots_ancilla_free(0.5, 0.01, 0.95) == math.ceil(
        (1 - 0.5**2) / (4 * 0.01**2) * q * q)

    eps, alpha, trials = 0.05, 0.9, 500
    t = normalize_affine([12.0, 17.0, 23.0, 28.0], 10.0)
    e = normalize_affine([30.0, 24.0, 36.0, 28.0], 0.0)
    ts = normalize_sqrt([12.0, 17.0, 23.0, 28.0], 10.0)
    es = normalize_sqrt([30.0, 24.0, 36.0, 28.0], 0.0)
    y2 = float(np.sum(t.values**2 * e.values))
    y_tilde2 = float(np.sum(ts.values**4 * es.values**2))
    rng = RngStream(99)
    hits = {"free": 0, "swap": 0, "boe": 0}
    for _ in range(trials):
        est = inner.estimate_yk_variant_ab(t, e, 2, "no_mid_reset", eps, alpha,
                                           rng.child())
        hits["free"] += abs(est.y_hat - y2) <= eps
        est = inner.estimate_yk_swap(t, e, 2, eps, alpha, rng.child())
        hits["swap"] += abs(est.y_hat - y2) <= eps
        est = inner.estimate_ytilde_boe_swap(ts, es, 2, 1, eps, alpha,
                                             rng.child())
        hits["boe"] += abs(est.y_hat - y_tilde2) <= eps
    for method in hits:
        ok &= hits[method] / trials >= 0.87
    _report(4, ok)


def test_criterion_05_qae_scaling(tmp_path):
    ok = True
    for k in (1, 2):
        summary = run_experiment("qae_vs_classical",
                                 {"k": k, "repeats": 12, "shots": 100,
                                  "seed": 0},
                                 str(tmp_path / f"k{k}"))
        ok &= -1.25 <= summary["slopes"]["iqae"] <= -0.8
        ok &= -0.65 <= summary["slopes"]["classical"] <= -0.4
    _report(5, ok)


def test_criterion_06_end_to_end(tmp_path):
    coeffs = fit_polynomial(DEFAULT_PARAMS, 0.0, 3, "taylor")
    targets = [17976.0, -360.0, -7.17, 0.0072]
    ok = all(abs(b - t) / abs(t) < 0.01 for b, t in zip(coeffs.b, targets))
    summary = run_experiment("end_to_end",
                             {"seeds": [0, 1, 2, 3, 4], "K": 3, "shots": 100,
                              "forced_epsilon_k": 0.04},
                             str(tmp_path))
    ok &= summary["mean_rel_error"] <= 0.04
    _report(6, ok)


def test_criterion_07_boe_structure():
    rng = np.random.default_rng(55)
    ok = True
    for n_vals in (4, 16):
        n = int(math.log2(n_vals))
        for s in range(1, n + 1):
            vals = rng.uniform(0.3, 2.0, size=n_vals)
            vals /= np.linalg.norm(vals)
            loader = load_boe(build_tree(vals), s)
            ok &= loader.width == (s + 1) * n_vals // (1 << s) - 1 + n
            st = Statevector.zero(loader.width)
            loader.circuit.apply_unitary(st)
            marg = sim.marginal_probabilities(st, list(loader.primary))
            ok &= bool(np.allclose(marg, vals**2, atol=1e-10))
            V = helpers.side_state_matrix(st, loader)
            V = V / np.linalg.norm(V, axis=0, keepdims=True)
            ok &= bool(np.allclose(V.conj().T @ V, np.eye(n_vals), atol=1e-10))
    _report(7, ok)


def test_criterion_08_budget_soundness():
    t = np.array([5.0, 8.0, 11.0, 14.0])
    e = np.array([30.0, 24.0, 36.0, 28.0])
    eps = 0.05
    hits = 0
    trials = 300
    for seed in range(trials):
        cfg = VariantConfig(variant="b", K=2, eta=0.0, epsilon=eps, beta=0.9,
                            seed=seed)
        report = evaluate(cfg, t, e)
        hits += abs(report.V - report.v_star) <= eps * abs(report.v_star)
    _report(8, hits / trials >= 0.87)


def test_criterion_09_error_scaling_flatness(tmp_path):
    summary = run_experiment("error_scaling_k",
                             {"N_values": [4, 8, 16, 32], "k_values": [1, 2],
                              "repeats": 20, "epsilon0": 0.1, "seed": 0,
                              "shots": 100},
                             str(tmp_path))
    ok = all(ratio <= 3.0 for ratio in summary["ratios"].values())
    _report(9, ok)


def test_criterion_10_determinism(tmp_path):
    runner = CliRunner()
    t_file = tmp_path / "t.csv"
    e_file = tmp_path / "e.json"
    t_file.write_text("12\n17\n23\n28\n")
    e_file.write_text("[30, 24, 36, 28]")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seeds": [0, 1], "K": 2, "shots": 50}))

    ok = True
    eval_outputs = []
    for sub in ("e1", "e2"):
        out = tmp_path / sub
        result = runner.invoke(cli_main, [
            "evaluate", "--variant", "c", "--input-t", str(t_file),
            "--input-e", str(e_file), "--degree", "2", "--eta", "10",
            "--seed", "5", "--out", str(out)])
        ok &= result.exit_code == 0
        eval_outputs.append(result.output.encode()
                            + (out / "evaluate_c.json").read_bytes())
    ok &= eval_outputs[0] == eval_outputs[1]

    exp_outputs = []
    for sub in ("x1", "x2"):
        out = tmp_path / sub
        result = runner.invoke(cli_main, [
            "experiment", "end_to_end", "--config", str(cfg_file),
            "--out", str(out)])
        ok &= result.exit_code == 0
        exp_outputs.append((out / "end_to_end.csv").read_bytes()
                           + (out / "end_to_end.json").read_bytes())
    ok &= exp_outputs[0] == exp_outputs[1]
    _report(10, ok)
