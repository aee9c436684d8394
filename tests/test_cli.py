"""The CLI in process over one table: REQUESTS holds, by test class and name,
a row or rows by param id.  A row is an argv ({t} and {e} name the 4-point
fixture's files, {tmp} the test's folder), the files it writes there first,
its exit code, the start of its stderr line (of the last line of click's
"Usage:" block), the warnings it must raise, and a check on its report and
files.  One runner holds each row to helpers.check_exit and its columns; an
experiment exiting 2 runs with the fit and estimators stubbed to fail."""

import json
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

import helpers
from qsim import classical, fields, inner, qae
from qsim.cli import VARIANT_ALIASES

Row = namedtuple("Row", "argv code err files check warns", defaults=(0, "", {}, None, ()))
AV = "assumption violated: "
STUBS = [(classical, "fit_polynomial"), (classical, "estimate_yk_sampling"),
         (qae, "estimate_yk_variant_c"), (inner, "estimate_yk_swap"),
         (inner, "estimate_yk_variant_ab")]
CI, ESK, QVC, E2E = "compare_inner", "error_scaling_k", "qae_vs_classical", "end_to_end"


def _never_called(*args, **kwargs):
    raise AssertionError("a refused experiment fitted or drew an estimate")


def ev(options, t="{t}", e="{e}"):
    return f"evaluate {options} --input-t {t} --input-e {e}"


def no(argv, err, files={}):  # refused with exit 2 and a line that starts AV + err
    return Row(argv, 2, AV + err, files)


def cfg(name, config, err=None, check=None):  # refused as no(..., err), or, without err, run
    row = Row(f"experiment {name} --config {{tmp}}/cfg.json --out {{tmp}}/out",
              files={"cfg.json": json.dumps(config)}, check=check)
    return row if err is None else row._replace(code=2, err=AV + err)


def numbered(rows):  # by the ids pytest gives a list parametrized as `args`
    return {f"args{i}": row for i, row in enumerate(rows)}


def summaries(name, test):  # test holds for the report's summary and the sidecar's
    return lambda report, tmp: all(test(summary) for summary in (report["summary"], json.loads(
        (tmp / "out" / f"{name}.json").read_text())["summary"]))


def null_ratio(p):
    return summaries(CI, lambda s: s[f"var_ancilla_free_{p}"] == 0.0
                     and s[f"variance_ratio_{p}"] is None)


WIDE = "a {}-qubit statevector needs 2^{} bytes, over half of physical memory ("
POSITIVE = "normalized entries must be positive (shift eta below the data)\n"
NON_FINITE = "series contains non-finite entries\n"
T0 = "temperature must stay below T0=40.0\n"
POWER_OF_TWO = "series length must be a power of two >= 2, got {}\n"
LENGTHS = "T has 4 entries and E has 8: the series must be of one length\n"
# each variant's edge entry, put first in T, and the refusal (None: exit 0)
# of T with that entry and of the clean series at 2^10 and 2^16 points
LONG = {"a": ("0", POSITIVE, None, WIDE.format(33, 36)), "b": ("nan", NON_FINITE, None, None),
        "c": ("45", None, None, None), "exact": ("45", T0, None, None),
        "d": ("0", "sqrt normalization requires raw_j - eta > 0\n", WIDE.format(2067, 2070),
              WIDE.format(65, 68)),
        "poly": ("0", None, None, None), "sampling": ("nan", NON_FINITE, None, None)}


def long_rows():
    """Each variant on seeded series of 2^10 and 2^16 points, clean and with
    its edge entry; at 2^16, d at split level 1 would build loaders for seconds."""
    rows = {}
    for n in (1 << 10, 1 << 16):
        gen = np.random.default_rng(n)
        t, e = ("".join(f"{x!r}\n" for x in gen.uniform(lo, hi, n).tolist())
                for lo, hi in ((12.0, 28.0), (20.0, 40.0)))
        for variant, (edge, edged, *clean) in LONG.items():
            split = " --split-level 16" if variant == "d" and n > 1024 else ""
            argv = ev(f"--variant {variant}{split}", "{tmp}/t.csv", "{tmp}/e.csv")
            for id, t_text, err in ((f"{variant}-{n}", t, clean[n > 1024]),
                                    (f"{variant}-{n}-{edge}", edge + t[t.index("\n"):], edged)):
                files = {"t.csv": t_text, "e.csv": e}
                rows[id] = Row(argv, files=files) if err is None else no(argv, err, files)
    return rows


TINY = {"tiny.csv": "5e-324\n1e-160\n", "ones.csv": "1\n1\n"}
BUDGET = ("eta=0.0 leaves T - eta so near 0 that rho_T = {} and the budget's rho_T^(k-1) "
          "overflows float64\n")
USAGE = "Error: Invalid value for --{}: expected {}"
# (experiment, config, the start of its refusal), where the refused field
# comes first in the config
WRONG_TYPE = [
    (CI, {"p_values": 5}, "be a list"), (CI, {"p_values": [0.5, {}]}, "be a list"),
    (CI, {"repeats": [1]}, "be a number"), (E2E, {"seeds": 3}, "be a list"),
    (E2E, {"forced_epsilon_k": "x"}, "be a number"),
    # counts below 1 and empty lists once ran, writing NaN summaries or failing in LAPACK
    *((name, {field: 0}, "be >= 1") for name, field in (
        (CI, "repeats"), (CI, "shots"), (ESK, "repeats"), (QVC, "repeats"), (QVC, "shots"))),
    *((name, {field: []}, "be a list of one or more") for name, field in (
        (E2E, "seeds"), (CI, "p_values"), (QVC, "epsilons"), (ESK, "N_values"), (ESK, "k_values"))),
    # a float k once ended in a TypeError traceback, and N = 6 ran on 4 points
    *((ESK, {"k_values": [k], "repeats": 1}, "hold integers >= 1") for k in (1.5, True)),
    *((ESK, {"N_values": [n], "repeats": 1, "k_values": [1]}, "hold powers of two >= 4")
      for n in (6, 8.0, 2)),
    # int() once ran 2.9 repeats as 2, seed 0.5 as 0, and read true as 1
    *((name, config, "be a number (an integer)") for name, config in (
        (ESK, {"repeats": 2.9, "k_values": [1]}), (ESK, {"repeats": True, "k_values": [1]}),
        (QVC, {"shots": 50.5, "repeats": 1, "epsilons": [0.2, 0.1]}),
        (CI, {"seed": 1.5, "repeats": 3, "shots": 100}),
        (QVC, {"k": 1.5, "repeats": 1, "epsilons": [0.2, 0.1]}),
        ("resource_table", {"N": 16.5}), ("resource_table", {"s": True}))),
    *((E2E, {"seeds": [seed], "K": 2}, "hold integers") for seed in (0.5, True)),
    (E2E, {"K": 2.7, "seeds": [0]}, "be a number (an integer)"),
    (E2E, {"forced_epsilon_k": True, "seeds": [0], "K": 2}, "be a number"),
    # float() once ran "0" and true as 0.0 and 1.0, and p = 1 divided 0 by 0
    (E2E, {"eta": "0", "seeds": [0], "K": 2}, "be a number"),
    (ESK, {"epsilon0": True, "repeats": 1, "k_values": [1]}, "be a number"),
    (CI, {"p_values": [True], "repeats": 1, "shots": 10}, "hold numbers"),
    # a list once ended in a TypeError traceback: unhashable type
    (E2E, {"variant": [], "seeds": [0], "K": 2}, "be one of")]
# (id, experiment, config, its refusal)
OUT_OF_RANGE = [
    # p = 1.5, p = 0 and epsilon = -0.1 once ended in refusals that named no field
    *((id, CI, {"p_values": p, "repeats": 1, "shots": 10},
       f"'p_values' must hold numbers in (0, 1], got {p}\n")
      for id, p in (("p-above-1", [1.5]), ("p-zero", [0.0]), ("p-negative", [0.5, -0.2]))),
    *((id, QVC, {"epsilons": eps, "repeats": 1}, f"'epsilons' must hold numbers > 0, got {eps}\n")
      for id, eps in (("epsilon-negative", [-0.1]), ("epsilon-zero", [0.2, 0]))),
    *((id, ESK, {"epsilon0": eps, "repeats": 1, "k_values": [1]},
       f"'epsilon0' must be > 0, got {eps}\n")
      for id, eps in (("epsilon0-zero", 0), ("epsilon0-negative", -0.1))),
    # k = 0 and an eta at or above the fixture's least T (12) likewise
    ("k-zero", QVC, {"k": 0, "repeats": 1}, "'k' must be >= 1 and <= 32, got 0\n"),
    ("eta-100", QVC, {"eta": 100, "repeats": 1}, "'eta' must be < 12, got 100\n"),
    ("eta-12", ESK, {"eta": 12, "repeats": 1, "k_values": [1]}, "'eta' must be < 12, got 12\n"),
    # each once a traceback: a ZeroDivisionError or an OverflowError
    ("k-2^128", QVC, {"k": 2**128, "repeats": 1}, f"'k' must be >= 1 and <= 32, got {2**128}\n"),
    ("k_values-2^128", ESK, {"k_values": [2**128], "repeats": 1},
     f"'k_values' must hold integers >= 1 and <= 32, got [{2**128}]\n"),
    ("shots-2^128", CI, {"shots": 2**128, "repeats": 1},
     f"'shots' must be >= 1 and < 9223372036854775808, got {2**128}\n"),
    ("rawE-10^400", E2E, {"seeds": [0], "rawE": [10**400, 1, 1, 1]},
     f"'rawE' must be a list of one or more numbers, got [{10**400}, 1, 1, 1]\n"),
    # 2^128 repeats once grew until a MemoryError; N = 2^40 would tile 2^40 points
    *((id, name, {"repeats": repeats}, f"'repeats' must be >= 1 and <= 1048576, got {repeats}\n")
      for id, name, repeats in (("repeats-2^20+1", CI, 2**20 + 1), ("repeats-2^128", CI, 2**128),
                                ("repeats-2^63", ESK, 2**63))),
    ("N_values-2^40", ESK, {"N_values": [4, 2**40], "repeats": 1},
     f"'N_values' must hold powers of two >= 4 and <= 1048576, got [4, {2**40}]\n"),
    ("grid-p-values", CI, {"repeats": 2**20},
     "the grid over 'p_values' x 'method' x 'repeats' has 4194304 cells, more than 1048576\n"),
    ("grid-epsilons", QVC, {"repeats": 2**19, "epsilons": [0.1, 0.2, 0.3]},
     "the grid over 'epsilons' x 'repeats' x 'method' has 3145728 cells, more than 1048576\n"),
    # once a summary of a repeated p's last repeat, a slope through one
    # epsilon's point, and one N's flatness ratio of 1.0 for every k
    *((id, name, {field: values, "repeats": 1, **extra},
       f"'{field}' must hold {least} or more values, none twice, got {values}\n")
      for id, name, field, least, values, extra in (
          ("p_values-twice", CI, "p_values", 1, [0.5, 0.5], {}),
          ("epsilons-one", QVC, "epsilons", 2, [0.1], {}),
          ("epsilons-twice", QVC, "epsilons", 2, [0.1, 0.1], {}),
          ("N_values-twice", ESK, "N_values", 2, [4, 8, 4], {}),
          ("N_values-one", ESK, "N_values", 2, [1048576], {"k_values": [2]}),
          ("k_values-twice", ESK, "k_values", 1, [1, 1], {}))),
    # evaluate's refusal: once NumPy's "could not be broadcast together"
    ("rawE-length", E2E, {"seeds": [0], "rawE": [30, 24, 36, 28] * 2}, LENGTHS),
    # an exact value of 0 once ended in a TypeError inside np.mean
    ("rawE-cancelling", E2E, {"seeds": [0], "variant": "classical_exact", "rawT": [5, 5, 5, 5],
                              "rawE": [1, -1, 1, -1]}, "'rawE' must not cancel against 'rawT': "
     "the exact value is 0, and no error is relative to 0\n")]
REQUESTS = {"TestEvaluate": {
    "test_variant_b": Row(ev("--variant b --degree 2 --eta 10 --seed 3"), check=lambda r, _:
                          r["variant"] == "b" and r["rel_error_vs_star"] < 0.05),
    "test_classical_alias": Row(ev("--variant exact"),
                                check=lambda r, _: r["variant"] == "classical_exact"),
    "test_out_dir": Row(ev("--variant poly --out {tmp}/results"),
                        check=lambda _, tmp: (tmp / "results" / "evaluate_poly.json").exists()),
    "test_assumption_violation_exit_2": no(ev("--variant b --eta 30"), POSITIVE),
    # evaluate has no QHP style: b's readout law is y_k^2 in either one
    "test_style_option_refused_exit_2": Row(ev("--variant b --style mid_reset"), 2,
                                            "Error: No such option '--style'"),
    # once a TypeError traceback, from a relative error of the missing V
    "test_exact_at_or_above_t0_exit_2": no(ev("--variant exact"), T0,
                                           {"t.csv": "12\n17\n23\n45\n"}),
    # c and d once divided by rho = 0, b and sampling raised 0.0 to a negative
    # power, and poly exited 0 with V = -Infinity
    "test_series_overflowing_float64_exit_2": {
        f"{variant}---input-{side}": no(
            ev(f"--variant {variant} --eta 10", **{side: "{tmp}/huge.csv"}),
            f"v_{value} overflows float64: series or eta too large\n",
            {"huge.csv": "1e308\n1e308\n12\n13\n"}) for variant, side, value in (
                *((v, "e", "exact = inf") for v in "cd"),
                *((v, "t", "star = -inf") for v in ("b", "sampling", "poly")))},
    # once NumPy's "operands could not be broadcast together", naming neither
    "test_series_of_different_lengths_exit_2": {
        variant: no(ev(f"--variant {variant} --eta 10", e="{tmp}/e8.csv"), LENGTHS,
                    {"e8.csv": "30\n24\n36\n28\n" * 2}) for variant in sorted(VARIANT_ALIASES)},
    "test_missing_file_exit_3": Row(
        ev("--variant b", t="/does/not/exist.csv"), 3,
        "error: [Errno 2] No such file or directory: '/does/not/exist.csv'\n"),
    "test_bad_series_length_exit_2": no(ev("--variant b", e="{t}"), POWER_OF_TWO.format(3),
                                        {"t.csv": "12\n17\n23\n"}),
    # an object once raised a TypeError; a nested array was flattened
    "test_json_series_not_a_flat_array_exit_2": {
        series: no(ev("--variant poly", t="{tmp}/t.json"),
                   "a JSON series must be a flat array of numbers\n", {"t.json": series})
        for series in ('{"a": 1}', "[[12, 17], [23, 28]]")},
    # only each row's first field was once read: 12,17 / 23,28 as [12, 23]
    "test_csv_row_of_several_values_exit_2": no(ev("--variant poly"), "a CSV series must hold "
                                                "one value per row\n",
                                                {"t.csv": "12,17\n23,28\n", "e.json": "[30, 24]"}),
    # groups of 4e10 samples split down the tree by binomial draws (not 596 GiB of uniforms)
    "test_sampling_at_tiny_epsilon": Row(
        ev("--variant sampling --epsilon 1e-5 --eta 10"), check=lambda r, _: r["rel_error_vs_star"]
        < 1e-5 and all(row["queries"] == 30 * 40_000_000_000 for row in r["per_k"] if row["k"])),
    "test_sampling_group_above_int64_exit_2": {
        eps: no(ev(f"--variant sampling --epsilon {eps} --eta 10"),
                f"epsilon={eps} too small: ceil(4/epsilon^2) > 2^63 - 1\n")
        for eps in ("6.5e-10", "1e-160", "1e-300")},
    "test_shot_count_above_int64_exit_2": numbered([
        no(ev(f"--eta 10 --variant {options}"),
           f"IQAE epsilon must be in [2^-40, 0.5), got {size}\n" if options[0] in "cd" else
           f"epsilon too small: the sample size {size} is not a finite count of at most 2^63 - 1 "
           "shots\n")
        for options, size in (("b --epsilon 1e-7", "8.64e+19"), ("a --epsilon 1e-7", "2.78e+19"),
                              ("b --degree 12", "1.41e+36"), ("a --degree 8", "1.75e+19"),
                              ("a --epsilon 1e-300", "inf"), ("b --epsilon 1e-300", "inf"),
                              ("c --epsilon 1e-300", "4.15e-303"),
                              ("d --epsilon 1e-300", "2.48e-303"))]),
    "test_beta_near_one_exit_2": {
        variant: no(ev(f"--variant {variant} --eta 10 --beta 0.9999999999999999"),
                    "beta=0.9999999999999999 is too close to 1: the per-power confidence "
                    "(K - 1 + beta)/K rounds to 1 at K=2\n") for variant in ("sampling", "b")},
    # a non-finite eta is refused by VariantConfig's table, and an eta whose
    # default fit window is empty by the fit, which every variant runs first
    "test_bad_config_exit_2": numbered([no(ev(f"--variant b {options}"), err) for options, err in (
        ("--epsilon 0", "'epsilon' must be > 0, got 0.0\n"),
        ("--beta 1.5", "'beta' must be in (0, 1), got 1.5\n"),
        ("--degree 0", "'K' must be >= 1 and <= 32, got 0\n"),
        *((f"--eta {eta}", f"'eta' must be a number, got {eta}\n")
          for eta in ("nan", "inf", "-inf")),
        ("--eta 1e308", "eta=1e+308 leaves the default fit window [eta - 40, min(eta + 39, T0 - 1)]"
         " = [1e+308, 39.0] empty\n"))]),
    # unlike a config's integers, these need not lie in float64's range
    "test_integer_past_float64_runs": {
        option: Row(ev(f"--variant b {option} {10**400}"), check=lambda r, _: r["variant"] == "b")
        for option in ("--seed", "--split-level")},
    # rho_T = 1e160 once raised an OverflowError in the budget's rho_T^(k-1)
    "test_budget_past_float64_exit_2": {
        variant: no(ev(f"--variant {variant} --degree 3", "{tmp}/tiny.csv", "{tmp}/ones.csv"),
                    BUDGET.format("1e+80" if variant == "d" else "1.0000055664551363e+160"), TINY)
        for variant in ("a", "b", "c", "d", "sampling")},
    # eps_4 = 2e299 once overflowed a NumPy product; as a Python float it is inf, capped at 0.45
    "test_budget_past_float64_runs": Row(
        ev("--variant c --degree 4", "{tmp}/tiny.csv", "{tmp}/ones.csv"),
        files={**TINY, "tiny.csv": "1e-100\n2e-100\n"}),
    "test_long_series": long_rows(),
}, "TestExperiment": {
    "test_runs_and_writes": cfg(E2E, {"seeds": [0], "K": 2, "shots": 50}, check=lambda _, tmp: all(
        (tmp / "out" / f"end_to_end.{ext}").exists() for ext in ("csv", "json"))),
    # every relative error needs the exact value; a missing one once ended in a TypeError
    "test_rawt_at_or_above_t0_refused_before_evaluating": cfg(
        E2E, {"rawT": [12, 17, 23, 45]}, "'rawT' must hold numbers < 40.0, got [12, 17, 23, 45]\n"),
    "test_bad_config_exit_3": Row("experiment end_to_end --config {tmp}/nope.json", 3, "error: "
                                  "[Errno 2] No such file or directory: '{tmp}/nope.json'\n"),
    "test_zero_shots_exit_2": cfg(E2E, {"shots": 0},
                                  "'shots' must be >= 1 and < 9223372036854775808, got 0\n"),
    "test_config_of_wrong_type_exit_2": {
        "end_to_end-config0-JSON object": cfg(
            E2E, [1, 2], "an experiment config must be a JSON object, not a list\n"),
        **{f"{name}-config{i}-{err}": cfg(name, config, err) for i, (name, config, err) in
           enumerate(((name, config, f"'{next(iter(config))}' must {err}")
                      for name, config, err in WRONG_TYPE), 1)}},
    "test_config_out_of_range_names_field": {
        id: cfg(name, config, err) for id, name, config, err in OUT_OF_RANGE},
    # a zero ancilla-free variance once divided by 0: p = 0.072 at 10 shots reads
    # 0 in both ancilla-free repeats, and p = 1 reads 1 in every repeat
    "test_compare_inner_zero_variance_ratio_null": {
        "config0-ratios0": cfg(CI, {"seed": 1, "repeats": 2, "shots": 10},
                               check=null_ratio("p0.072")),
        "config1-ratios1": cfg(CI, {"p_values": [1], "repeats": 3, "shots": 100},
                               check=null_ratio("p1"))},
    # IQAE costs 132 oracle calls at both epsilons: once a rank-1 slope and a RankWarning
    "test_qae_vs_classical_equal_costs_slope_null": cfg(
        QVC, {"k": 1, "epsilons": [0.2, 1 - 2**-53], "repeats": 1},
        check=summaries(QVC, lambda s: s["slopes"]["iqae"] is None and s["slopes"]["classical"] < 0
                        and [cost for cost, _ in s["curves"]["iqae"]] == [132, 132])),
    # {"repeat": 1} once ran compare_inner's 100 default repeats
    "test_unknown_field_exit_2": {
        name: cfg(name, {"repeat": 1}, "'repeat' is not a field of this request; its fields are "
                  f"{sorted(fields.EXPERIMENTS[name])}\n") for name in sorted(fields.EXPERIMENTS)},
    "test_unknown_name_exit_2": cfg("nosuch", {}, "unknown experiment 'nosuch'; choose from "
                                    f"{sorted(fields.EXPERIMENTS)}\n"),
}, "TestResources": {
    "test_table": Row("resources --variant b --n 16 --degree 3",
                      check=lambda r, _: [row["width"] for row in r["rows"]] == [4, 8, 12]),
    "test_bad_n_exit_2": no("resources --variant b --n 12", POWER_OF_TWO.format(12)),
    # the rule and message of a series that evaluate refuses
    "test_n_below_two_exit_2": {n: no(f"resources --variant a --n {n}", POWER_OF_TWO.format(n))
                                for n in ("1", "0", "-4")},
    "test_split_level_out_of_range_exit_2": {
        s: no(f"resources --variant d --n 16 --split-level {s}",
              f"split level must be in [1, 4], got {s}\n") for s in ("0", "5", "9")},
    "test_bad_epsilon_exit_2": no("resources --variant b --n 16 --epsilon -1",
                                  "'epsilon' must be > 0, got -1.0\n"),
    # once exited 0 with Infinity in the report, which is not JSON
    "test_infinite_epsilon_exit_2": no("resources --variant b --n 16 --epsilon inf",
                                       "'epsilon' must be a number, got inf\n"),
    "test_split_level_lg_n_accepted": Row("resources --variant d --n 16 --split-level 4"),
}, "TestFit": {
    "test_default_params": Row("fit --eta 0 --degree 3",
                               check=lambda r, _: abs(r["b"][0] - 17976.0) / 17976.0 < 0.01),
    "test_custom_params_and_domain": Row(
        "fit --params 20000,-35,3,6000,40 --mode lsq --degree 2 --eta 0 --domain -15,30",
        check=lambda r, _: r["mode"] == "least_squares"),
    "test_bad_domain_exit_2": no("fit --eta 0 --domain 0,45",
                                 "'domain' must stay below T0 = 40.0, got [0.0, 45.0]\n"),
    "test_bad_option_exit_2": numbered([
        Row("fit --eta 0 --params 1,2,x,4,5", 2, USAGE.format("params", "A,B,C,D,T0")),
        Row("fit --eta 0 --params 1,2,3,4", 2, USAGE.format("params", "A,B,C,D,T0")),
        no("fit --eta 0 --params 20000,35,3,6000,40", "'B' must be < 0, got 35.0\n"),
        Row("fit --eta 0 --domain 0,x", 2, USAGE.format("domain", "LO,HI")),
        Row("fit --eta 0 --domain 0,1,2", 2, USAGE.format("domain", "LO,HI")),
        no("fit --eta 0 --degree -1", "'degree' must be >= 0 and <= 32, got -1\n"),
        no("fit --eta 0 --eta nan", "'eta' must be a number, got nan\n")]),
    # NaN once printed "b": [NaN, ...], inf named only T0, and 1e308 failed in LAPACK
    "test_eta_outside_given_domain_exit_2": {
        f"{eta}-{mode}": no(f"fit --eta {eta} --domain -15,30 --mode {mode}",
                            f"'eta' must be a number, got {eta}\n" if eta in ("nan", "inf") else
                            f"eta={float(eta)!r} lies outside the fit domain [-15.0, 30.0]\n")
        for eta, mode in (("nan", "taylor"), ("inf", "taylor"), ("1e308", "lsq"),
                          ("-1e308", "lsq"), ("30.5", "taylor"))},
    # C = 2^63 once overflowed (B/(T'-T0))^C, whose limit A/inf + D is f; least
    # squares at degree 32 is rank-deficient, and NumPy's RankWarning is kept
    "test_fit_past_float64_warns_nothing": numbered([
        Row("fit --eta 0 --mode lsq --degree 32 --domain=-15,30",
            warns=(np.exceptions.RankWarning,)),
        Row(f"fit --eta 0 --mode lsq --params 20000,-35,{2**63},6000,40")]),
    # 1e300 once printed LAPACK's DLASCL lines; 1e60 exited 0, warning, with b_3 = 0.0
    "test_wide_lsq_domain_exit_2": {
        f"{lo}-{degree}": no(f"fit --eta 0 --mode lsq --domain={lo},30 --degree {degree}",
                             f"'domain' [{float(lo)!r}, 30.0] is too wide: its degree-{degree} "
                             "least-squares basis overflows float64\n")
        for lo, degree in (("-1e300", 3), ("-1e60", 3), ("-1e10", 32))},
    # an infinite end once named only T0, a NaN one was "degenerate", and a NaN A
    # and an infinite T0 exited 0
    "test_non_finite_entry_exit_2": {
        f"args{i}-{field}": no(f"fit --eta 0 {options}", f"'{field}' must be {err}\n")
        for i, (options, field, err) in enumerate((
            *((f"--domain={lo},30{mode}", "domain",
               f"a list of one or more numbers, got [{lo}, 30.0]")
              for lo, mode in (("-inf", ""), ("-inf", " --mode lsq"), ("nan", ""))),
            ("--params nan,-35,3,6000,40", "A", "a number, got nan"),
            ("--params 20000,-35,3,6000,inf", "T0", "a number, got inf")))},
}}


def _run(row, tmp_path, monkeypatch):
    for name, text in {"t.csv": "12\n17\n23\n28\n", "e.json": "[30, 24, 36, 28]",
                       **row.files}.items():
        (tmp_path / name).write_text(text)
    place = {"t": tmp_path / "t.csv", "e": tmp_path / "e.json", "tmp": tmp_path}
    args = row.argv.format(**place).split()
    if args[0] == "experiment" and row.code == 2:
        for owner, name in STUBS:
            monkeypatch.setattr(owner, name, _never_called)
    code, got, raised = helpers.invoke(args, row.warns)
    assert (code, raised) == (row.code, list(row.warns)), got
    if code:
        assert got.startswith(row.err.format(**place)), got
    else:
        assert row.check is None or row.check(got, tmp_path), got
    return got


def _test(rows):  # the test of one REQUESTS entry: a row, or rows by param id
    def test(self, tmp_path, monkeypatch, row):  # a def: pytest takes a lambda for a mark's value
        _run(row, tmp_path, monkeypatch)
    if isinstance(rows, Row):
        return lambda self, tmp_path, monkeypatch: test(self, tmp_path, monkeypatch, rows)
    return pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))(test)


class TestEvaluate:
    def test_oversized_request_exit_2(self, tmp_path, monkeypatch):
        # variant a at degree 3 on 2^15 points runs its swap test on a 31-qubit
        # state (16 GiB of float64), over half the memory of any machine with
        # less than 32 GiB; it is refused before any state is allocated
        rng = np.random.default_rng(0)
        files = {f"{name}.json": json.dumps(rng.uniform(lo, hi, 1 << 15).tolist())
                 for name, lo, hi in (("t", 12.0, 28.0), ("e", 20.0, 40.0))}
        tracemalloc.start()
        try:
            _run(no(ev("--variant a --degree 3 --eta 10", "{tmp}/t.json", "{tmp}/e.json"),
                    WIDE.format(31, 34), files), tmp_path, monkeypatch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20


class TestExperiment:
    def test_same_seed_byte_identical(self, tmp_path, monkeypatch):
        row = cfg(E2E, {"seeds": [0, 1], "K": 2, "shots": 50})
        runs = [(_run(row._replace(argv=f"{row.argv}{i}"), tmp_path, monkeypatch),
                 *((tmp_path / f"out{i}/end_to_end.{ext}").read_bytes() for ext in ("csv", "json")))
                for i in (1, 2)]
        assert runs[0] == runs[1]


for _class, _tests in REQUESTS.items():
    for _name, _rows in _tests.items():
        setattr(globals().setdefault(_class, type(_class, (), {})), _name, _test(_rows))
