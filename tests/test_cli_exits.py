"""The CLI's exit codes: a refusal exits 2 (assumption violated) or 3 (I/O
or malformed JSON) with a one-line message on stderr; any other exception
is a bug and ends in a traceback (exit 1)."""

import json
import math
import os
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qsim import assembly, classical
from qsim.cli import VARIANT_ALIASES, main


def _command_args(command, tmp_path):
    if command == "evaluate":
        (tmp_path / "t.csv").write_text("12\n17\n23\n28\n")
        (tmp_path / "e.json").write_text("[30, 24, 36, 28]")
        return ["evaluate", "--variant", "b", "--input-t", str(tmp_path / "t.csv"),
                "--input-e", str(tmp_path / "e.json")]
    if command == "experiment":
        (tmp_path / "cfg.json").write_text("{}")
        return ["experiment", "end_to_end", "--config", str(tmp_path / "cfg.json"),
                "--out", str(tmp_path / "out")]
    if command == "resources":
        return ["resources", "--variant", "b", "--n", "16"]
    return ["fit", "--eta", "0"]


@pytest.mark.parametrize("exc, code, prefix", [
    (OSError("disk full"), 3, "error: disk full"),
    (json.JSONDecodeError("Expecting value", "{", 1), 3, "error: Expecting value"),
    (ValueError("bad input"), 2, "assumption violated: bad input"),
    (ZeroDivisionError("float division by zero"), 1, None),
], ids=["OSError", "JSONDecodeError", "ValueError", "ZeroDivisionError"])
@pytest.mark.parametrize("command, owner, callee", [
    ("evaluate", assembly, "evaluate"), ("experiment", assembly, "run_experiment"),
    ("resources", assembly, "resource_report"), ("fit", classical, "fit_polynomial")],
    ids=["evaluate", "experiment", "resources", "fit"])
def test_callee_exception_maps_to_exit_code(tmp_path, monkeypatch, command, owner, callee,
                                            exc, code, prefix):
    # resources and fit once ended an OSError in a traceback and mapped a
    # JSONDecodeError to 2
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(owner, callee, raising)
    result = CliRunner().invoke(main, _command_args(command, tmp_path))
    assert result.exit_code == code
    if prefix is None:  # a bug: the exception itself, not a refusal
        assert type(result.exception) is type(exc)
    else:
        assert result.stdout == ""
        assert result.stderr.startswith(prefix)
        assert result.stderr.count("\n") == 1


# Each number option's edges: 0, negatives, NaN, infinities, the least
# subnormal, 1 - 2^-53 and 2^128; and values a request would use.
EDGES = ["0", "-0.0", "-1", "nan", "inf", "-inf", "5e-324", repr(1 - 2.0**-53),
         str(2**128)]
OPTIONS = {
    "--degree": ["1", "2", "3"],
    "--epsilon": ["0.05", "0.2", "0.5"],
    "--beta": ["0.9", "0.5"],
    "--eta": ["10", "11.5", "-100"],
    "--split-level": ["1", "2", "3"],
    "--seed": ["7", str(2**64 + 1)],
    "--n": ["2", "4", "8", "12"],
}
# series entries: zeros, negatives, huge values, non-finite ones and a JSON
# integer beyond float64, among positive ones below T0 = 40
SPECIAL = st.sampled_from([0.0, -1.0, -1e308, 5e-324, 1e-160, 1e154, 1e308, 2.0**128,
                           math.nan, math.inf, 45.0, 10**400])
LENGTHS = st.sampled_from([1, 2, 3, 4, 4, 8, 8])


def _series(n):
    """n entries below T0, of which up to two are special ones."""
    return st.tuples(st.lists(st.floats(0.5, 39.5), min_size=n, max_size=n),
                     st.sampled_from([0, 0, 0, 1, 2]).flatmap(
                         lambda k: st.lists(SPECIAL, min_size=k, max_size=k))).map(
        lambda parts: (parts[1] + parts[0])[:n])


SERIES = LENGTHS.flatmap(_series)
# experiment config values of the wrong type, or at an edge, for every
# field; 2^128 is drawn only where it is refused or runs fast, and a
# repeat count is 1 to 3 or above 2^20, which is refused
WRONG = st.sampled_from([None, "x", "0", True, [], {}, [1], 1.5, -1, 0, math.nan,
                         math.inf, 5e-324])
REALS = st.sampled_from([0.05, 0.2, 1 - 2.0**-53, -0.1, 0, 2**128, 5e-324, math.nan,
                         math.inf, 12, -100])
REPEATS = st.integers(1, 3) | st.sampled_from([2**20 + 1, 2**63, 2**128])
FIELDS = {
    "compare_inner": {
        "seed": st.sampled_from([0, 2**64 + 1]), "shots": st.sampled_from([1, 10, 2**128]),
        "repeats": REPEATS,
        "p_values": st.lists(REALS | st.sampled_from([0.072, 1]), max_size=2)},
    "error_scaling_k": {
        "seed": st.just(1), "N_values": st.lists(st.sampled_from([4, 8, 2, 6]), max_size=2),
        "k_values": st.lists(st.sampled_from([1, 2, 0, 2**128]), max_size=2),
        "repeats": REPEATS, "epsilon0": REALS, "eta": REALS,
        "shots": st.sampled_from([1, 10, 2**128])},
    "qae_vs_classical": {
        "seed": st.just(2), "k": st.sampled_from([1, 2, 2**128]),
        "repeats": REPEATS, "epsilons": st.lists(REALS, max_size=2),
        "eta": REALS, "shots": st.sampled_from([1, 10, 2**128])},
    "end_to_end": {
        "seeds": st.lists(st.sampled_from([0, 3, 2**128]), max_size=3),
        "K": st.sampled_from([1, 2, 3, 2**128]),
        "variant": st.sampled_from(sorted(assembly.VARIANTS) + ["b", 7]),
        "forced_epsilon_k": REALS | st.none(), "eta": REALS,
        "shots": st.sampled_from([1, 10, 2**128]), "rawT": SERIES, "rawE": SERIES},
    "resource_table": {
        "N": st.sampled_from([2, 4, 8, 12, 2**128]), "K": st.sampled_from([1, 3, 2**128]),
        "s": st.sampled_from([0, 1, 2, 2**128]), "epsilon": REALS},
}
# how a field or option is drawn: left out, a value a request would use, or
# an edge (a value of the wrong type, for a config field)
HOW = st.sampled_from(["omit", "omit", "usual", "usual", "usual", "edge"])


def _series_file(draw, folder, name, n):
    values = draw(_series(n))
    if draw(st.booleans()):
        path = os.path.join(folder, f"{name}.json")
        text = json.dumps(values)
    else:
        path = os.path.join(folder, f"{name}.csv")
        text = "".join(f"{v!r}\n" for v in values)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _options(draw, names):
    args = []
    for name in names:
        how = draw(HOW)
        if how != "omit":
            args += [name, draw(st.sampled_from(OPTIONS[name] if how == "usual" else EDGES))]
    return args


def _evaluate_args(draw, folder):
    variant = draw(st.sampled_from(sorted(VARIANT_ALIASES)))
    engine = draw(st.sampled_from(["iqae", "canonical"]))
    # canonical d on 8 points at split level 2 takes 4 s and 1 GiB
    n = draw(LENGTHS.filter(lambda n: n <= 4) if (variant, engine) == ("d", "canonical")
             else LENGTHS)
    n_e = draw(st.sampled_from([n] * 9 + [4]))  # E of another length, now and then
    args = ["evaluate", "--variant", variant, "--engine", engine,
            "--fit-mode", draw(st.sampled_from(["taylor", "lsq"])),
            "--input-t", _series_file(draw, folder, "t", n),
            "--input-e", _series_file(draw, folder, "e", n_e)]
    args += _options(draw, ["--degree", "--epsilon", "--beta", "--eta", "--split-level",
                            "--seed"])
    out = draw(st.sampled_from([None, None, "out", "t.csv/out"]))
    return args + ([] if out is None else ["--out", os.path.join(folder, out)])


def _experiment_args(draw, folder):
    name = draw(st.sampled_from(sorted(FIELDS) + ["nosuch"]))
    fields = FIELDS.get(name, {})
    config = {}
    for field, strategy in fields.items():
        how = draw(HOW)
        if how != "omit":
            config[field] = draw(strategy if how == "usual" else WRONG)
    for field in ("repeats", "N_values", "seeds"):  # keep each run small
        if field in fields:
            config.setdefault(field, draw(fields[field]))
    if name == "end_to_end" and draw(st.sampled_from([False] * 3 + [True])):
        # a T and a signed E whose exact value sum_j f(T_j) E_j cancels to
        # 0.0, under a variant that takes a signed E
        config.update(rawT=[5, 5, 5, 5], rawE=[1, -1, 1, -1], variant=draw(st.sampled_from(
            ["classical_exact", "classical_poly", "classical_sampling"])))
    text = draw(st.sampled_from([json.dumps(config)] * 6 + ["[1, 2]", "{", None]))
    path = os.path.join(folder, "cfg.json")
    if text is None:
        path = folder  # a directory
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return ["experiment", name, "--config", path, "--out", os.path.join(folder, "out")]


def _resources_args(draw, _folder):
    args = ["resources", "--variant", draw(st.sampled_from(sorted(VARIANT_ALIASES))),
            "--n", draw(st.sampled_from(OPTIONS["--n"] * 3 + EDGES))]
    return args + _options(draw, ["--degree", "--epsilon", "--split-level"])


def _no_constant(text):
    raise ValueError(f"{text} in an exit-0 report")


@settings(max_examples=800, deadline=None)
@given(st.data())
def test_every_request_exits_0_2_or_3(data):
    # draws requests of evaluate, resources and experiment over the options'
    # edges; each exits 0 with a JSON report of finite numbers, or refuses
    command = data.draw(st.sampled_from([_evaluate_args, _experiment_args,
                                         _resources_args]))
    with tempfile.TemporaryDirectory() as folder:
        args = command(data.draw, folder)
        result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert "Traceback" not in result.output
    if result.exit_code == 0:
        json.loads(result.stdout, parse_constant=_no_constant)
