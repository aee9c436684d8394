"""The CLI's exit codes: a refusal exits 2 (assumption violated) or 3 (I/O
or malformed JSON) with a one-line message on stderr; any other exception
is a bug and ends in a traceback (exit 1).  Every request run here keeps
the exit contract of helpers.check_exit."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from qsim import assembly, classical, fields
from qsim.cli import VARIANT_ALIASES


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
    args = _command_args(command, tmp_path)
    if prefix is None:  # a bug, exit 1: the exception itself, not a refusal
        with pytest.raises(type(exc)):
            helpers.invoke(args)
    else:
        exit_code, line, _ = helpers.invoke(args)
        assert exit_code == code and line.startswith(prefix)


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
V, FIT = fields.VARIANT_CONFIG, fields.FIT
OPTIONS = {"--degree": V["K"], "--epsilon": V["epsilon"], "--beta": V["beta"],
           "--eta": V["eta"], "--split-level": V["s"], "--seed": V["seed"]}
# a repeat count, N_values and seeds (of end_to_end) are never left out,
# and are small or refused, so that each run is small
SMALL = {"repeats": st.integers(1, 3),
         "N_values": st.lists(st.sampled_from([4, 8, 2, 6]), max_size=2),
         "seeds": st.lists(st.sampled_from([0, 3, 2**128]), max_size=3)}
# the values a request would use, by field name, drawn next to each field's
# edges (helpers.edge_values); a field not named here uses its default
USUAL = {
    **{name: st.sampled_from(values) for name, values in {
        "K": [1, 2, 3], "degree": [1, 2, 3], "k": [1, 2], "s": [0, 1, 2, 3], "N": [2, 4, 8, 12],
        "eta": [0.0, 10, 11.5, -100], "epsilon": [0.05, 0.2, 0.5], "beta": [0.9, 0.5],
        "seed": [0, 7, 2**64 + 1], "shots": [1, 10], "epsilon0": [0.05, 0.2, -0.1],
        "forced_epsilon_k": [0.05, 0.2, None]}.items()},
    **{name: st.lists(st.sampled_from(values), max_size=2) for name, values in {
        "p_values": [0.072, 0.767, 1, 0.2], "k_values": [1, 2],
        "epsilons": [0.2, 0.1, 0.05]}.items()},
    **SMALL, "rawT": SERIES, "rawE": SERIES, "domain": st.just([-15.0, 30.0])}
OMIT = object()


def _value(draw, field, omit=True):
    """A field's value: left out, a usual value, or one at its edges."""
    how = draw(st.sampled_from(["omit", "omit", "usual", "usual", "usual", "edge"]))
    if how == "omit" and omit and field.name not in SMALL:
        return OMIT
    if how == "edge":
        edges = helpers.edge_values(field)
        if field.name in SMALL:  # an edge in range, as 2^20 repeats, is not small
            edges = [value for value in edges if field.refusal(value, json=True)]
        return draw(st.sampled_from(edges))
    return draw(USUAL.get(field.name, st.just(field.default)))


def _text(value):
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


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


def _options(draw, options, required=()):
    args = []
    for option, field in options.items():
        value = _value(draw, field, omit=option not in required)
        if value is not OMIT and value is not None:
            args += [option, _text(value)]
    return args


def _evaluate_args(draw, folder):
    variant = draw(st.sampled_from(sorted(VARIANT_ALIASES)))
    engine = draw(st.sampled_from(V["engine"].kind))
    # canonical d on 8 points at split level 2 takes 4 s and 1 GiB
    n = draw(LENGTHS.filter(lambda n: n <= 4) if (variant, engine) == ("d", "canonical")
             else LENGTHS)
    n_e = draw(st.sampled_from([n] * 9 + [4]))  # E of another length, now and then
    args = ["evaluate", "--variant", variant, "--engine", engine,
            "--fit-mode", draw(st.sampled_from(["taylor", "lsq"])),
            "--input-t", _series_file(draw, folder, "t", n),
            "--input-e", _series_file(draw, folder, "e", n_e)]
    args += _options(draw, OPTIONS)
    out = draw(st.sampled_from([None, None, "out", "t.csv/out"]))
    return args + ([] if out is None else ["--out", os.path.join(folder, out)])


def _experiment_args(draw, folder):
    name = draw(st.sampled_from(sorted(fields.EXPERIMENTS) + ["nosuch"]))
    values = {f.name: _value(draw, f) for f in fields.EXPERIMENTS.get(name, {}).values()}
    config = {key: value for key, value in values.items() if value is not OMIT}
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
    return (["resources", "--variant", draw(st.sampled_from(sorted(VARIANT_ALIASES)))]
            + _options(draw, {"--n": fields.EXPERIMENTS["resource_table"]["N"],
                              "--degree": V["K"], "--epsilon": V["epsilon"],
                              "--split-level": V["s"]}, required=["--n"]))


def _fit_args(draw, _folder):
    args = ["fit", "--mode", draw(st.sampled_from(["taylor", "lsq"]))]
    if draw(st.booleans()):
        args += ["--params", ",".join(_text(_value(draw, field, omit=False))
                                      for field in fields.SIGMOID.values())]
    return args + _options(draw, {"--eta": FIT["eta"], "--degree": FIT["degree"],
                                  "--domain": FIT["domain"]}, required=["--eta"])


@settings(max_examples=helpers.examples(800), deadline=None)
@given(st.data())
def test_every_request_exits_0_2_or_3(data):
    # draws requests of every command over the edges of the fields of their
    # tables; each keeps the exit contract (helpers.check_exit)
    command = data.draw(st.sampled_from([_evaluate_args, _experiment_args,
                                         _resources_args, _fit_args]))
    with tempfile.TemporaryDirectory() as folder:
        args = command(data.draw, folder)
        degree = args[args.index("--degree") + 1] if "--degree" in args else ""
        # the least-squares basis's rank falls below K + 1, as NumPy warns
        rank_deficient = "lsq" in args and degree.isdigit() and int(degree) >= 20
        helpers.invoke(args, [np.exceptions.RankWarning] if rank_deficient else [])
