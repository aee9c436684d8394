"""Every field of every request's table, checked at its edges
(helpers.edge_values) through the request itself: VariantConfig,
SigmoidParams, the fit, and each experiment's run_experiment.  A value is
refused with a ValueError whose message opens with the field's name, or
accepted where it keeps the field's rules as lies_inside reads them from
the field's record alone."""

import dataclasses
import sys

import pytest

import helpers
from qsim import assembly, classical, fields
from qsim.assembly import VariantConfig
from qsim.classical import DEFAULT_PARAMS, SigmoidParams


def lies_inside(field, value, json):
    """Whether `value`, a JSON-like value, keeps field's rules; json: the
    value is from a JSON config, whose integers too lie in float64's range."""
    if value is None:
        return field.nullable
    if field.items:
        return (type(value) is list and len(value) >= field.items
                and all(lies_inside(field._replace(items=0), v, True) for v in value)
                and not (field.distinct and len(set(value)) < len(value)))
    if isinstance(field.kind, tuple):
        return type(value) is str and value in field.kind
    if type(value) is not int and not (field.kind == "number" and type(value) is float):
        return False
    if (json or field.kind == "number") and not abs(value) <= sys.float_info.max:
        return False
    if field.kind == "power of two" and not (value > 0 and bin(value).count("1") == 1):
        return False
    return ((field.at_least is None or value >= field.at_least)
            and (field.above is None or value > field.above)
            and (field.at_most is None or value <= field.at_most)
            and (field.below is None or value < field.below))


def _variant_config(name, value, _tmp):
    VariantConfig(**{"variant": "b", name: value})


def _sigmoid(name, value, _tmp):
    SigmoidParams(**{**vars(DEFAULT_PARAMS), name: value})


def _fit(name, value, _tmp):
    # eta = 20 lies inside every domain [LO, 30.0] whose LO is an edge value
    args = {"eta": 20.0, "degree": 3, "mode": "taylor", "domain": None, name: value}
    classical.fit_polynomial(DEFAULT_PARAMS, args["eta"], args["degree"], args["mode"],
                             args["domain"])


def _experiment(experiment):
    def run(name, value, tmp):
        assembly.run_experiment(experiment, {name: value}, tmp)
    return run


REQUESTS = {"VariantConfig": (fields.VARIANT_CONFIG, _variant_config),
            "SigmoidParams": (fields.SIGMOID, _sigmoid),
            "fit": (fields.FIT, _fit),
            **{name: (table, _experiment(name)) for name, table in fields.EXPERIMENTS.items()}}
CASES = [(request, name) for request, (table, _) in REQUESTS.items() for name in table]


@pytest.mark.parametrize("request_name, name", CASES, ids=[f"{r}-{n}" for r, n in CASES])
def test_every_field_at_its_edges(monkeypatch, tmp_path, request_name, name):
    # an experiment's own run is replaced, so that only its table's check runs
    for experiment in fields.EXPERIMENTS:
        monkeypatch.setitem(assembly.EXPERIMENTS, experiment, lambda **config: ([], [], {}))
    table, run = REQUESTS[request_name]
    field = table[name]
    for value in helpers.edge_values(field):
        try:
            run(name, value, tmp_path)
        except ValueError as exc:
            # the fit's own window rules name eta as eta=...
            assert str(exc).startswith((f"{name!r} must", f"{name}=")), (value, str(exc))
        else:
            assert lies_inside(field, value, request_name in fields.EXPERIMENTS), value


@pytest.mark.parametrize("request_name", sorted(REQUESTS))
def test_defaults_keep_their_rules(request_name):
    # a required field left out is refused; given, the others take defaults
    table = REQUESTS[request_name][0]
    required = {name: "b" if name == "variant" else 0.0 for name, field in table.items()
                if field.default is dataclasses.MISSING}
    for name in required:
        with pytest.raises(ValueError, match=f"'{name}' must be"):
            fields.check(table, {})
    config = dict(required)
    fields.check(table, config)
    assert all(lies_inside(table[name], value, request_name in fields.EXPERIMENTS)
               for name, value in config.items())


def test_tables_match_the_code_they_check():
    assert set(fields.VARIANT_CONFIG["variant"].kind) == set(assembly.VARIANTS)
    # error_scaling_k and qae_vs_classical shift the fixture's T by eta
    assert fields.EXPERIMENTS["qae_vs_classical"]["eta"].below == min(assembly._FIXTURE_T)
    # VariantConfig's fields and defaults, in order
    assert [(f.name, f.default) for f in dataclasses.fields(VariantConfig)] == [
        ("variant", dataclasses.MISSING), ("K", 2), ("eta", 0.0), ("epsilon", 0.05),
        ("beta", 0.9), ("s", 1), ("engine", "iqae"), ("shots", 100), ("fit_mode", "taylor"),
        ("seed", 0), ("forced_epsilon_k", None)]
