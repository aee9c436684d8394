import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import helpers
from qsim import assembly, fields, inner, qae
from qsim.cli import VARIANT_ALIASES, main


def _never_called(*args, **kwargs):
    raise AssertionError("an estimate was drawn")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def data_files(tmp_path):
    t = tmp_path / "t.csv"
    e = tmp_path / "e.json"
    t.write_text("12\n17\n23\n28\n")
    e.write_text("[30, 24, 36, 28]")
    return str(t), str(e)


class TestEvaluate:
    def test_variant_b(self, runner, data_files):
        t, e = data_files
        result = runner.invoke(main, ["evaluate", "--variant", "b",
                                      "--input-t", t, "--input-e", e,
                                      "--degree", "2", "--eta", "10",
                                      "--seed", "3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["variant"] == "b"
        assert payload["rel_error_vs_star"] < 0.05

    def test_classical_alias(self, runner, data_files):
        t, e = data_files
        result = runner.invoke(main, ["evaluate", "--variant", "exact",
                                      "--input-t", t, "--input-e", e])
        assert result.exit_code == 0
        assert json.loads(result.output)["variant"] == "classical_exact"

    def test_out_dir(self, runner, data_files, tmp_path):
        t, e = data_files
        out = tmp_path / "results"
        result = runner.invoke(main, ["evaluate", "--variant", "poly",
                                      "--input-t", t, "--input-e", e,
                                      "--out", str(out)])
        assert result.exit_code == 0
        assert (out / "evaluate_poly.json").exists()

    def test_assumption_violation_exit_2(self, runner, data_files):
        t, e = data_files
        result = runner.invoke(main, ["evaluate", "--variant", "b",
                                      "--input-t", t, "--input-e", e,
                                      "--eta", "30"])
        assert result.exit_code == 2

    def test_style_option_refused_exit_2(self, runner, data_files):
        # evaluate has no QHP style: b's readout law is y_k^2 in either one
        t, e = data_files
        result = runner.invoke(main, ["evaluate", "--variant", "b",
                                      "--style", "mid_reset",
                                      "--input-t", t, "--input-e", e])
        assert result.exit_code == 2
        assert "No such option '--style'" in result.output

    def test_exact_at_or_above_t0_exit_2(self, runner, data_files, tmp_path):
        # the exact value's refusal once ended in a TypeError traceback, as
        # the report took a relative error of the missing V
        _t, e = data_files
        t = tmp_path / "t-hot.csv"
        t.write_text("12\n17\n23\n45\n")
        result = runner.invoke(main, ["evaluate", "--variant", "exact",
                                      "--input-t", str(t), "--input-e", e])
        assert result.exit_code == 2
        assert result.output == ("assumption violated: temperature must stay "
                                 "below T0=40.0\n")

    @pytest.mark.parametrize("variant, option", [
        ("c", "--input-e"), ("d", "--input-e"), ("b", "--input-t"),
        ("sampling", "--input-t"), ("poly", "--input-t")])
    def test_series_overflowing_float64_exit_2(self, runner, data_files, tmp_path,
                                               variant, option):
        # c and d once ended in a ZeroDivisionError as rho was 0, b and
        # sampling in one raising 0.0 to a negative power, and poly exited 0
        # with V = -Infinity, which is not JSON
        t, e = data_files
        huge = tmp_path / "huge.csv"
        huge.write_text("1e308\n1e308\n12\n13\n")
        files = {"--input-t": t, "--input-e": e, option: str(huge)}
        result = runner.invoke(main, ["evaluate", "--variant", variant, "--eta", "10",
                                      "--input-t", files["--input-t"],
                                      "--input-e", files["--input-e"]])
        assert result.exit_code == 2
        assert result.output.startswith("assumption violated: ")
        assert "overflows float64" in result.output
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("variant", sorted(VARIANT_ALIASES))
    def test_series_of_different_lengths_exit_2(self, runner, data_files, tmp_path,
                                                variant):
        # once NumPy's "operands could not be broadcast together with shapes
        # (4,) (8,)", which named neither series
        t, _e = data_files
        e8 = tmp_path / "e8.csv"
        e8.write_text("30\n24\n36\n28\n30\n24\n36\n28\n")
        result = runner.invoke(main, ["evaluate", "--variant", variant, "--eta", "10",
                                      "--input-t", t, "--input-e", str(e8)])
        assert result.exit_code == 2
        assert result.output == ("assumption violated: T has 4 entries and E has 8: "
                                 "the series must be of one length\n")

    def test_missing_file_exit_3(self, runner, data_files):
        _t, e = data_files
        result = runner.invoke(main, ["evaluate", "--variant", "b",
                                      "--input-t", "/does/not/exist.csv",
                                      "--input-e", e])
        assert result.exit_code == 3

    def test_bad_series_length_exit_2(self, runner, tmp_path):
        t = tmp_path / "t.csv"
        t.write_text("12\n17\n23\n")
        result = runner.invoke(main, ["evaluate", "--variant", "b",
                                      "--input-t", str(t),
                                      "--input-e", str(t)])
        assert result.exit_code == 2
        assert "power of two" in result.output

    @pytest.mark.parametrize("series", ['{"a": 1}', "[[12, 17], [23, 28]]"])
    def test_json_series_not_a_flat_array_exit_2(self, runner, data_files,
                                                  tmp_path, series):
        # an object once raised a TypeError; a nested array was flattened
        # and valued as if it were [12, 17, 23, 28]
        _t, e = data_files
        t = tmp_path / "t.json"
        t.write_text(series)
        result = runner.invoke(main, ["evaluate", "--variant", "poly",
                                      "--input-t", str(t), "--input-e", e])
        assert result.exit_code == 2
        assert "flat array of numbers" in result.output

    def test_csv_row_of_several_values_exit_2(self, runner, tmp_path):
        # only the first field of each row was read: 12,17 / 23,28 was
        # valued as the 2-point series [12, 23]
        t = tmp_path / "t.csv"
        e = tmp_path / "e.json"
        t.write_text("12,17\n23,28\n")
        e.write_text("[30, 24]")
        result = runner.invoke(main, ["evaluate", "--variant", "poly",
                                      "--input-t", str(t), "--input-e", str(e)])
        assert result.exit_code == 2
        assert "one value per row" in result.output

    def test_oversized_request_exit_2(self, runner, tmp_path):
        # variant a at degree 3 on 2^15 points runs its swap test on a
        # 31-qubit state (16 GiB of float64), over half the memory of any
        # machine with less than 32 GiB; it is refused before any state is
        # allocated
        rng = np.random.default_rng(0)
        t = tmp_path / "t.json"
        e = tmp_path / "e.json"
        t.write_text(json.dumps(rng.uniform(12.0, 28.0, 1 << 15).tolist()))
        e.write_text(json.dumps(rng.uniform(20.0, 40.0, 1 << 15).tolist()))
        tracemalloc.start()
        try:
            result = runner.invoke(main, ["evaluate", "--variant", "a",
                                          "--input-t", str(t), "--input-e", str(e),
                                          "--degree", "3", "--eta", "10"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 2
        assert "31-qubit" in result.output
        assert peak < 64 << 20

    def test_sampling_at_tiny_epsilon(self, runner, data_files):
        # groups of 4e10 samples: split down the tree by binomial draws, not
        # drawn one at a time (which once asked for 596 GiB of uniforms)
        t, e = data_files
        result = runner.invoke(main, ["evaluate", "--variant", "sampling",
                                      "--input-t", t, "--input-e", e,
                                      "--epsilon", "1e-5", "--eta", "10"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert all(row["queries"] == 30 * 40_000_000_000
                   for row in payload["per_k"] if row["k"] > 0)
        assert payload["rel_error_vs_star"] < 1e-5

    @pytest.mark.parametrize("epsilon", ["6.5e-10", "1e-160", "1e-300"])
    def test_sampling_group_above_int64_exit_2(self, runner, data_files, epsilon):
        # ceil(4/epsilon^2) above 2^63 - 1 samples per group
        t, e = data_files
        result = runner.invoke(main, ["evaluate", "--variant", "sampling",
                                      "--input-t", t, "--input-e", e,
                                      "--epsilon", epsilon, "--eta", "10"])
        assert result.exit_code == 2
        assert "epsilon" in result.output

    @pytest.mark.parametrize("args", [
        ["--variant", "b", "--epsilon", "1e-7"], ["--variant", "a", "--epsilon", "1e-7"],
        ["--variant", "b", "--degree", "12"], ["--variant", "a", "--degree", "8"],
        ["--variant", "a", "--epsilon", "1e-300"], ["--variant", "b", "--epsilon", "1e-300"],
        ["--variant", "c", "--epsilon", "1e-300"], ["--variant", "d", "--epsilon", "1e-300"]])
    def test_shot_count_above_int64_exit_2(self, runner, data_files, args):
        # a power's sample size above 2^63 - 1 shots, or not finite; for c
        # and d, an amplitude accuracy below IQAE's float64 floor
        t, e = data_files
        result = runner.invoke(main, ["evaluate", "--input-t", t, "--input-e", e,
                                      "--eta", "10"] + args)
        assert result.exit_code == 2
        assert result.output.count("\n") == 1
        assert "epsilon" in result.output

    @pytest.mark.parametrize("variant", ["sampling", "b"])
    def test_beta_near_one_exit_2(self, runner, data_files, variant):
        # at K = 2, (K - 1 + beta)/K rounds to 1: no confidence below 1 is left
        t, e = data_files
        result = runner.invoke(main, ["evaluate", "--variant", variant,
                                      "--input-t", t, "--input-e", e, "--eta", "10",
                                      "--beta", "0.9999999999999999"])
        assert result.exit_code == 2
        assert "beta" in result.output

    # a non-finite eta is refused by VariantConfig's table, and an eta whose
    # default fit window is empty by the fit, which every variant runs first
    @pytest.mark.parametrize("args", [["--epsilon", "0"], ["--beta", "1.5"],
                                      ["--degree", "0"]]
                             + [["--eta", eta] for eta in ("nan", "inf", "-inf", "1e308")])
    def test_bad_config_exit_2(self, runner, data_files, args):
        t, e = data_files
        result = runner.invoke(main, ["evaluate", "--variant", "b",
                                      "--input-t", t, "--input-e", e] + args)
        assert result.exit_code == 2
        if args[0] == "--eta":
            eta = float(args[1])
            assert (f"eta={eta!r} leaves the default fit window" if math.isfinite(eta)
                    else f"'eta' must be a number, got {eta!r}") in result.output

    @pytest.mark.parametrize("option", ["--seed", "--split-level"])
    def test_integer_past_float64_runs(self, runner, data_files, option):
        # a seed or split level need not lie in float64's range, as an
        # experiment config's integers must: a seed of any size seeds the
        # stream, and variant b ignores the split level
        t, e = data_files
        result = runner.invoke(main, ["evaluate", "--variant", "b", "--input-t", t,
                                      "--input-e", e, option, str(10**400)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["variant"] == "b"


class TestExperiment:
    def test_runs_and_writes(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": [0], "K": 2, "shots": 50}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["experiment", "end_to_end",
                                      "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0
        assert (out / "end_to_end.csv").exists()
        assert (out / "end_to_end.json").exists()

    def test_same_seed_byte_identical(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": [0, 1], "K": 2, "shots": 50}))
        outputs = []
        for sub in ("o1", "o2"):
            out = tmp_path / sub
            result = runner.invoke(main, ["experiment", "end_to_end",
                                          "--config", str(cfg),
                                          "--out", str(out)])
            assert result.exit_code == 0
            outputs.append((out / "end_to_end.csv").read_bytes()
                           + (out / "end_to_end.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_rawt_at_or_above_t0_refused_before_evaluating(self, runner, tmp_path,
                                                           monkeypatch):
        # every seed's relative error is against the exact value, which needs
        # T < T0; a missing error once ended in a TypeError inside np.mean
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rawT": [12, 17, 23, 45]}))
        evaluations = helpers.recorded_calls(monkeypatch, assembly, "evaluate")
        result = runner.invoke(main, ["experiment", "end_to_end",
                                      "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.output == ("assumption violated: 'rawT' must hold numbers "
                                 "< 40.0, got [12, 17, 23, 45]\n")
        assert evaluations == []

    def test_bad_config_exit_3(self, runner, tmp_path):
        result = runner.invoke(main, ["experiment", "end_to_end",
                                      "--config", str(tmp_path / "nope.json")])
        assert result.exit_code == 3

    def test_zero_shots_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shots": 0}))
        result = runner.invoke(main, ["experiment", "end_to_end",
                                      "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "shots" in result.output

    @pytest.mark.parametrize("name, config, message", [
        ("end_to_end", [1, 2], "JSON object"),
        ("compare_inner", {"p_values": 5}, "'p_values' must be a list"),
        ("compare_inner", {"p_values": [0.5, {}]}, "'p_values' must be a list"),
        ("compare_inner", {"repeats": [1]}, "'repeats' must be a number"),
        ("end_to_end", {"seeds": 3}, "'seeds' must be a list"),
        ("end_to_end", {"forced_epsilon_k": "x"},
         "'forced_epsilon_k' must be a number"),
        # counts below 1 and empty lists once ran, writing NaN summaries or
        # failing inside LAPACK
        ("compare_inner", {"repeats": 0}, "'repeats' must be >= 1"),
        ("compare_inner", {"shots": 0}, "'shots' must be >= 1"),
        ("error_scaling_k", {"repeats": 0}, "'repeats' must be >= 1"),
        ("qae_vs_classical", {"repeats": 0}, "'repeats' must be >= 1"),
        ("qae_vs_classical", {"shots": 0}, "'shots' must be >= 1"),
        ("end_to_end", {"seeds": []}, "'seeds' must be a list of one or more"),
        ("compare_inner", {"p_values": []}, "'p_values' must be a list of one or more"),
        ("qae_vs_classical", {"epsilons": []}, "'epsilons' must be a list of one or more"),
        ("error_scaling_k", {"N_values": []}, "'N_values' must be a list of one or more"),
        ("error_scaling_k", {"k_values": []}, "'k_values' must be a list of one or more"),
        # a float k once ended in a TypeError traceback, and N = 6 ran on
        # the 4 points _base_fixture(6) tiles while its rows said N = 6
        ("error_scaling_k", {"k_values": [1.5], "repeats": 1},
         "'k_values' must hold integers >= 1"),
        ("error_scaling_k", {"k_values": [True], "repeats": 1},
         "'k_values' must hold integers >= 1"),
        ("error_scaling_k", {"N_values": [6], "repeats": 1, "k_values": [1]},
         "'N_values' must hold powers of two >= 4"),
        ("error_scaling_k", {"N_values": [8.0], "repeats": 1, "k_values": [1]},
         "'N_values' must hold powers of two >= 4"),
        ("error_scaling_k", {"N_values": [2], "repeats": 1, "k_values": [1]},
         "'N_values' must hold powers of two >= 4"),
        # integer fields were cast with int(): 2.9 repeats ran 2 while the
        # sidecar said 2.9, seed 0.5 ran seed 0, and true was read as 1
        ("error_scaling_k", {"repeats": 2.9, "k_values": [1]},
         "'repeats' must be a number (an integer)"),
        ("error_scaling_k", {"repeats": True, "k_values": [1]},
         "'repeats' must be a number (an integer)"),
        ("qae_vs_classical", {"shots": 50.5, "repeats": 1, "epsilons": [0.2, 0.1]},
         "'shots' must be a number (an integer)"),
        ("compare_inner", {"seed": 1.5, "repeats": 3, "shots": 100},
         "'seed' must be a number (an integer)"),
        ("qae_vs_classical", {"k": 1.5, "repeats": 1, "epsilons": [0.2, 0.1]},
         "'k' must be a number (an integer)"),
        ("resource_table", {"N": 16.5}, "'N' must be a number (an integer)"),
        ("resource_table", {"s": True}, "'s' must be a number (an integer)"),
        ("end_to_end", {"seeds": [0.5], "K": 2}, "'seeds' must hold integers"),
        ("end_to_end", {"seeds": [True], "K": 2}, "'seeds' must hold integers"),
        ("end_to_end", {"seeds": [0], "K": 2.7}, "'K' must be a number (an integer)"),
        ("end_to_end", {"seeds": [0], "K": 2, "forced_epsilon_k": True},
         "'forced_epsilon_k' must be a number"),
        # number fields were cast with float(): "0" and true ran as 0.0 and
        # 1.0, and p = 1 then divided a zero variance by a zero variance
        ("end_to_end", {"seeds": [0], "K": 2, "eta": "0"}, "'eta' must be a number"),
        ("error_scaling_k", {"epsilon0": True, "repeats": 1, "k_values": [1]},
         "'epsilon0' must be a number"),
        ("compare_inner", {"p_values": [True], "repeats": 1, "shots": 10},
         "'p_values' must hold numbers"),
        # a list once ended in a TypeError traceback: unhashable type
        ("end_to_end", {"seeds": [0], "K": 2, "variant": []}, "'variant' must be one of"),
    ])
    def test_config_of_wrong_type_exit_2(self, runner, tmp_path, name, config,
                                          message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["experiment", name, "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("name, config, message", [
        # each once ended in an estimator's own refusal, naming no field:
        # p = 1.5 in a "math domain error", p = 0 in the normaliser's
        # "normalized entries must be positive", and epsilon = -0.1 in
        # IQAE's "epsilon must be in [2^-40, 0.5)"
        ("compare_inner", {"p_values": [1.5], "repeats": 1, "shots": 10},
         "'p_values' must hold numbers in (0, 1]"),
        ("compare_inner", {"p_values": [0.0], "repeats": 1, "shots": 10},
         "'p_values' must hold numbers in (0, 1]"),
        ("compare_inner", {"p_values": [0.5, -0.2], "repeats": 1, "shots": 10},
         "'p_values' must hold numbers in (0, 1]"),
        ("qae_vs_classical", {"epsilons": [-0.1], "repeats": 1},
         "'epsilons' must hold numbers > 0"),
        ("qae_vs_classical", {"epsilons": [0.2, 0], "repeats": 1},
         "'epsilons' must hold numbers > 0"),
        ("error_scaling_k", {"epsilon0": 0, "repeats": 1, "k_values": [1]},
         "'epsilon0' must be > 0"),
        ("error_scaling_k", {"epsilon0": -0.1, "repeats": 1, "k_values": [1]},
         "'epsilon0' must be > 0"),
        # k = 0 once ended in the estimator's "k must be >= 1", and an eta at
        # or above the fixture's least T (12) in the normaliser's refusal
        ("qae_vs_classical", {"k": 0, "repeats": 1}, "'k' must be >= 1"),
        ("qae_vs_classical", {"eta": 100, "repeats": 1}, "'eta' must be < 12"),
        ("error_scaling_k", {"eta": 12, "repeats": 1, "k_values": [1]},
         "'eta' must be < 12"),
        # each once ended in a traceback: a ZeroDivisionError at k = 2^128,
        # and an OverflowError at shots = 2^128 or an integer beyond float64
        ("qae_vs_classical", {"k": 2**128, "repeats": 1}, "'k' must be >= 1 and <= 32"),
        ("error_scaling_k", {"k_values": [2**128], "repeats": 1},
         "'k_values' must hold integers >= 1 and <= 32"),
        ("compare_inner", {"shots": 2**128, "repeats": 1},
         "'shots' must be >= 1 and < 9223372036854775808"),
        ("end_to_end", {"seeds": [0], "rawE": [10**400, 1, 1, 1]},
         "'rawE' must be a list of one or more numbers"),
        # 2^128 repeats once grew until a MemoryError, and an N_values entry
        # of 2^40 would tile a 2^40-point fixture
        ("compare_inner", {"repeats": 2**20 + 1}, "'repeats' must be >= 1 and <= 1048576"),
        ("compare_inner", {"repeats": 2**128}, "'repeats' must be >= 1 and <= 1048576"),
        ("error_scaling_k", {"repeats": 2**63}, "'repeats' must be >= 1 and <= 1048576"),
        ("error_scaling_k", {"N_values": [4, 2**40], "repeats": 1},
         "'N_values' must hold powers of two >= 4 and <= 1048576"),
        ("compare_inner", {"repeats": 2**20},
         "the grid over 'p_values' x 'method' x 'repeats' has 4194304 cells"),
        ("qae_vs_classical", {"repeats": 2**19, "epsilons": [0.1, 0.2, 0.3]},
         "the grid over 'epsilons' x 'repeats' x 'method' has 3145728 cells"),
        # a repeated p once kept only its last variance and mean in the
        # summary, one epsilon fitted a slope through one point, and one N
        # reported a flatness ratio of 1.0 for every k
        ("compare_inner", {"p_values": [0.5, 0.5], "repeats": 1},
         "'p_values' must hold 1 or more values, none twice"),
        ("qae_vs_classical", {"epsilons": [0.1], "repeats": 1},
         "'epsilons' must hold 2 or more values, none twice"),
        ("qae_vs_classical", {"epsilons": [0.1, 0.1], "repeats": 1},
         "'epsilons' must hold 2 or more values, none twice"),
        ("error_scaling_k", {"N_values": [4, 8, 4], "repeats": 1},
         "'N_values' must hold 2 or more values, none twice"),
        ("error_scaling_k", {"N_values": [1048576], "k_values": [2], "repeats": 1},
         "'N_values' must hold 2 or more values, none twice"),
        ("error_scaling_k", {"k_values": [1, 1], "repeats": 1},
         "'k_values' must hold 1 or more values, none twice"),
        # evaluate's refusal: once NumPy's "could not be broadcast together"
        ("end_to_end", {"seeds": [0], "rawE": [30, 24, 36, 28, 30, 24, 36, 28]},
         "T has 4 entries and E has 8"),
        # an exact value of 0 once ended in a TypeError inside np.mean, as
        # every seed's relative error was None
        ("end_to_end", {"seeds": [0], "variant": "classical_exact", "rawT": [5, 5, 5, 5],
                        "rawE": [1, -1, 1, -1]}, "'rawE' must not cancel against 'rawT'"),
    ], ids=["p-above-1", "p-zero", "p-negative", "epsilon-negative", "epsilon-zero",
            "epsilon0-zero", "epsilon0-negative", "k-zero", "eta-100", "eta-12",
            "k-2^128", "k_values-2^128", "shots-2^128", "rawE-10^400",
            "repeats-2^20+1", "repeats-2^128", "repeats-2^63", "N_values-2^40",
            "grid-p-values", "grid-epsilons", "p_values-twice", "epsilons-one",
            "epsilons-twice", "N_values-twice", "N_values-one", "k_values-twice",
            "rawE-length", "rawE-cancelling"])
    def test_config_out_of_range_names_field(self, runner, tmp_path, monkeypatch,
                                             name, config, message):
        # refused before any estimate is drawn
        for estimator in ("estimate_yk_swap", "estimate_yk_variant_ab"):
            monkeypatch.setattr(inner, estimator, _never_called)
        monkeypatch.setattr(qae, "estimate_yk_variant_c", _never_called)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = runner.invoke(main, ["experiment", name, "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert message in result.output

    @pytest.mark.parametrize("config, ratios", [
        # p = 0.072 at 10 shots reads 0 in both ancilla-free repeats
        ({"seed": 1, "repeats": 2, "shots": 10}, {"p0.072": None}),
        # p = 1 reads 1 in every repeat of both methods
        ({"p_values": [1], "repeats": 3, "shots": 100}, {"p1": None}),
    ])
    def test_compare_inner_zero_variance_ratio_null(self, runner, tmp_path,
                                                    config, ratios):
        # a zero ancilla-free variance once ended in a ZeroDivisionError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        result = runner.invoke(main, ["experiment", "compare_inner",
                                      "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0
        sidecar = json.loads((out / "compare_inner.json").read_text())
        for summary in (json.loads(result.output)["summary"], sidecar["summary"]):
            for p, ratio in ratios.items():
                assert summary[f"var_ancilla_free_{p}"] == 0.0
                assert summary[f"variance_ratio_{p}"] is ratio

    def test_qae_vs_classical_equal_costs_slope_null(self, runner, tmp_path):
        # IQAE costs 132 oracle calls at both epsilons; the slope through one
        # cost once exited 0 with a RankWarning and a slope from a rank-1 fit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 1, "epsilons": [0.2, 1 - 2**-53], "repeats": 1}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["experiment", "qae_vs_classical",
                                      "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0
        sidecar = json.loads((out / "qae_vs_classical.json").read_text())
        for summary in (json.loads(result.output)["summary"], sidecar["summary"]):
            assert [cost for cost, _ in summary["curves"]["iqae"]] == [132, 132]
            assert summary["slopes"]["iqae"] is None
            assert summary["slopes"]["classical"] < 0

    @pytest.mark.parametrize("name", sorted(assembly.EXPERIMENTS))
    def test_unknown_field_exit_2(self, runner, tmp_path, monkeypatch, name):
        # {"repeat": 1} once ran compare_inner's 100 default repeats
        monkeypatch.setitem(assembly.EXPERIMENTS, name, _never_called)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"repeat": 1}))
        result = runner.invoke(main, ["experiment", name, "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert result.stderr == ("assumption violated: 'repeat' is not a field of this "
                                 f"request; its fields are {sorted(fields.EXPERIMENTS[name])}\n")

    def test_unknown_name_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        result = runner.invoke(main, ["experiment", "nosuch",
                                      "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2


class TestResources:
    def test_table(self, runner):
        result = runner.invoke(main, ["resources", "--variant", "b",
                                      "--n", "16", "--degree", "3"])
        assert result.exit_code == 0
        table = json.loads(result.output)
        assert [row["width"] for row in table["rows"]] == [4, 8, 12]

    def test_bad_n_exit_2(self, runner):
        result = runner.invoke(main, ["resources", "--variant", "b",
                                      "--n", "12"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("n", ["1", "0", "-4"])
    def test_n_below_two_exit_2(self, runner, n):
        # the rule and message of a series that evaluate refuses
        result = runner.invoke(main, ["resources", "--variant", "a", "--n", n])
        assert result.exit_code == 2
        assert (f"series length must be a power of two >= 2, got {n}"
                in result.output)

    @pytest.mark.parametrize("s", ["0", "5", "9"])
    def test_split_level_out_of_range_exit_2(self, runner, s):
        result = runner.invoke(main, ["resources", "--variant", "d",
                                      "--n", "16", "--split-level", s])
        assert result.exit_code == 2

    def test_bad_epsilon_exit_2(self, runner):
        result = runner.invoke(main, ["resources", "--variant", "b",
                                      "--n", "16", "--epsilon", "-1"])
        assert result.exit_code == 2

    def test_infinite_epsilon_exit_2(self, runner):
        # once exited 0 with Infinity in the report, which is not JSON
        result = runner.invoke(main, ["resources", "--variant", "b",
                                      "--n", "16", "--epsilon", "inf"])
        assert result.exit_code == 2
        assert result.output == "assumption violated: 'epsilon' must be a number, got inf\n"

    def test_split_level_lg_n_accepted(self, runner):
        result = runner.invoke(main, ["resources", "--variant", "d",
                                      "--n", "16", "--split-level", "4"])
        assert result.exit_code == 0


class TestFit:
    def test_default_params(self, runner):
        result = runner.invoke(main, ["fit", "--eta", "0", "--degree", "3"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert abs(payload["b"][0] - 17976.0) / 17976.0 < 0.01

    def test_custom_params_and_domain(self, runner):
        result = runner.invoke(main, ["fit", "--params",
                                      "20000,-35,3,6000,40",
                                      "--mode", "lsq", "--degree", "2",
                                      "--eta", "0", "--domain", "-15,30"])
        assert result.exit_code == 0
        assert json.loads(result.output)["mode"] == "least_squares"

    def test_bad_domain_exit_2(self, runner):
        result = runner.invoke(main, ["fit", "--eta", "0",
                                      "--domain", "0,45"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [["--params", "1,2,x,4,5"],
                                      ["--params", "1,2,3,4"],
                                      ["--params", "20000,35,3,6000,40"],
                                      ["--domain", "0,x"],
                                      ["--domain", "0,1,2"],
                                      ["--degree", "-1"],
                                      ["--eta", "nan"]])
    def test_bad_option_exit_2(self, runner, args):
        result = runner.invoke(main, ["fit", "--eta", "0"] + args)
        assert result.exit_code == 2
        if args[0] == "--eta":
            assert "'eta' must be a number, got nan" in result.output

    @pytest.mark.parametrize("eta, mode", [("nan", "taylor"), ("inf", "taylor"),
                                           ("1e308", "lsq"), ("-1e308", "lsq"),
                                           ("30.5", "taylor")])
    def test_eta_outside_given_domain_exit_2(self, runner, eta, mode):
        # a NaN eta once printed "b": [NaN, ...] and exited 0, inf named
        # only T0, and 1e308 under lsq failed inside LAPACK with warnings;
        # a non-finite eta is now the fit table's refusal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["fit", "--eta", eta, "--domain", "-15,30",
                                          "--mode", mode])
        assert result.exit_code == 2
        assert result.stdout == ""
        message = (f"eta={float(eta)!r} lies outside the fit domain [-15.0, 30.0]"
                   if math.isfinite(float(eta)) else f"'eta' must be a number, got {float(eta)!r}")
        assert result.stderr == f"assumption violated: {message}\n"

    @pytest.mark.parametrize("args", [["--mode", "lsq", "--degree", "32", "--domain=-15,30"],
                                      ["--mode", "lsq", "--params", f"20000,-35,{2**63},6000,40"]])
    def test_fit_past_float64_warns_nothing(self, runner, args):
        # a C of 2^63 once overflowed (B/(T'-T0))^C, whose limit f = A/inf + D
        # is the value; least squares at degree 32 is rank-deficient, and
        # NumPy's RankWarning, its one sign, is kept; both drawn by the
        # property test's fit requests
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["fit", "--eta", "0"] + args)
        assert result.exit_code == 0, result.output
        assert all(math.isfinite(b) for b in json.loads(result.stdout)["b"])
        expected = [np.exceptions.RankWarning] if "--degree" in args else []
        assert [w.category for w in caught] == expected

    @pytest.mark.parametrize("args, field", [
        (["--domain=-inf,30"], "domain"), (["--domain=-inf,30", "--mode", "lsq"], "domain"),
        (["--domain=nan,30"], "domain"), (["--params", "nan,-35,3,6000,40"], "A"),
        (["--params", "20000,-35,3,6000,inf"], "T0")])
    def test_non_finite_entry_exit_2(self, runner, args, field):
        # an infinite domain end once named only T0, and under lsq failed in
        # LAPACK; a NaN one was "degenerate"; a NaN A printed "b": [NaN, ...]
        # and an infinite T0 [26000.0, 0.0, 0.0, 0.0], both with exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["fit", "--eta", "0"] + args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"assumption violated: '{field}' must be ")
        assert result.stderr.count("\n") == 1
