"""What a valid request is: a table of fields for each request, and the one
check, which fills in defaults and refuses a value as "'name' must be ...,
got value".  Rules over two or more fields stay with the code that needs them."""

import numbers
import sys
from collections import namedtuple
from dataclasses import MISSING, field, make_dataclass
from functools import cache

MAX_DEGREE = 32  # far above a useful fit; below where least squares overflows (160)
GRID_LIMIT = 2**20  # at most this many repeats, fixture points or grid cells in one experiment
# each kind's abstract type (a bool is of neither) and nouns; a number lies
# in float64's range, and so does an integer in a JSON config
KINDS = {"integer": (numbers.Integral, "a number (an integer)", "integers"),
         "number": (numbers.Real, "a number", "numbers"),
         "power of two": (numbers.Integral, "a power of two", "powers of two")}
# memoised per type of value, as an abstract type's isinstance is slow
_of_kind = cache(lambda cls, kind: not issubclass(cls, bool) and issubclass(cls, kind))


class Field(namedtuple("Field", "name kind default at_least above at_most below items distinct "
                       "nullable", defaults=(MISSING, None, None, None, None, 0, False, False))):
    """One field of a request.  kind is a key of KINDS or the tuple of strings
    it takes; a required field's default is MISSING.  A number lies at_least
    or above its lower end and at_most or below its upper end, where given; a
    list holds `items` or more, none twice if `distinct`; nullable takes None."""

    def interval(self):
        """"in (0, 1)" for a number with two ends, else ">= 1 and <= 32"."""
        ends = [(op, end) for op, end in zip((">=", ">", "<=", "<"), (
            self.at_least, self.above, self.at_most, self.below)) if end is not None]
        if self.kind == "number" and len(ends) == 2:
            (low, lo), (high, hi) = ends
            return f"in {'(' if low == '>' else '['}{lo}, {hi}{')' if high == '<' else ']'}"
        return " and ".join(f"{op} {end}" for op, end in ends)

    def _one(self, value, json):
        """What one value must be, or None where it is of the kind and within the ends."""
        if isinstance(self.kind, tuple):  # of strings, which nothing else equals
            return None if value in self.kind else f"one of {sorted(self.kind)}"
        kind, noun, _ = KINDS[self.kind]
        if (not _of_kind(type(value), kind)
                or (json or self.kind == "number") and not abs(value) <= sys.float_info.max
                or (self.kind == "power of two" and (value <= 0 or value & (value - 1)))):
            return noun
        inside = ((self.at_least is None or value >= self.at_least)
                  and (self.above is None or value > self.above)
                  and (self.at_most is None or value <= self.at_most)
                  and (self.below is None or value < self.below))
        return None if inside else self.interval()

    def refusal(self, value, json=False):
        """What the value must be or hold, or None where it keeps the rules (json: from JSON)."""
        if value is None and self.nullable:
            return None
        if not self.items:
            return (rule := self._one(value, json)) and f"be {rule}"
        if not (isinstance(value, (list, tuple)) and value and all(
                isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max for v in value)):
            return "be a list of one or more numbers"
        if any(self._one(v, json) for v in value):
            return f"hold {KINDS[self.kind][2]} {self.interval()}".rstrip()
        if len(value) < self.items or (self.distinct and len(set(value)) < len(value)):
            return f"hold {self.items} or more values" + ", none twice" * self.distinct


def check(table, config, json=False):
    """Check a dict config (json: read from JSON) against its table and return it,
    its left-out defaults filled in; ValueError for an unknown key or a broken rule."""
    if not config.keys() <= table.keys():
        raise ValueError(f"{min(config.keys() - table.keys())!r} is not a field of this "
                         f"request; its fields are {sorted(table)}")
    for name, row in table.items():
        if name not in config and row.default is not MISSING:
            config[name] = list(row.default) if row.items and row.default else row.default
        if rule := row.refusal(config.get(name), json):
            raise ValueError(f"{name!r} must {rule}, got {config.get(name)!r}")
    return config


def request(name, table, module, frozen=False):
    """A dataclass of table's fields and defaults, whose construction checks them."""
    rows = [(key, object, field(default=row.default)) for key, row in table.items()]
    return make_dataclass(name, rows, frozen=frozen, namespace={
        "__module__": module, "__post_init__": lambda self: check(table, vars(self))})


def _table(*rows):
    return {row.name: row for row in rows}


VARIANT_CONFIG = _table(
    Field("variant", ("a", "b", "c", "d", "classical_exact", "classical_poly",
                      "classical_sampling")),
    Field("K", "integer", 2, at_least=1, at_most=MAX_DEGREE),
    Field("eta", "number", 0.0),
    Field("epsilon", "number", 0.05, above=0),  # error budget scale; see allocate_budget
    Field("beta", "number", 0.9, above=0, below=1),  # overall confidence
    Field("s", "integer", 1),  # BOE split level (variant d)
    Field("engine", ("iqae", "canonical"), "iqae"),  # QAE engine for variants c/d
    Field("shots", "integer", 100, at_least=1, below=2**63),  # per IQAE round or canonical run
    Field("fit_mode", ("taylor", "least_squares"), "taylor"),
    Field("seed", "integer", 0, at_least=0),
    Field("forced_epsilon_k", "number", None, above=0, nullable=True))
SIGMOID = _table(Field("A", "number", 20000.0, at_least=0), Field("B", "number", -35.0, below=0),
                 Field("C", "number", 3.0, above=1), Field("D", "number", 6000.0, above=0),
                 Field("T0", "number", 40.0))
FIT = _table(Field("eta", "number"), Field("degree", "integer", 3, at_least=0, at_most=MAX_DEGREE),
             Field("mode", VARIANT_CONFIG["fit_mode"].kind, "taylor"),
             Field("domain", "number", None, items=2, nullable=True))  # [LO, HI]

_V = VARIANT_CONFIG
_REPEATS = Field("repeats", "integer", at_least=1, at_most=GRID_LIMIT)
# error_scaling_k and qae_vs_classical shift the fixture's T, whose least is 12
_FIXTURE_ETA = Field("eta", "number", 0.0, below=12)
EXPERIMENTS = {
    "compare_inner": _table(
        _V["seed"], _V["shots"]._replace(default=10000), _REPEATS._replace(default=100),
        Field("p_values", "number", [0.072, 0.767], above=0, at_most=1, items=1, distinct=True)),
    "error_scaling_k": _table(
        _V["seed"],  # the fixture tiles a 4-point block; a Grover state needs a power of two
        Field("N_values", "power of two", [4, 8, 16, 32], at_least=4, at_most=GRID_LIMIT,
              items=2, distinct=True),
        Field("k_values", "integer", [1, 2], at_least=1, at_most=MAX_DEGREE, items=1,
              distinct=True),
        _REPEATS._replace(default=20), Field("epsilon0", "number", 0.1, above=0),
        _FIXTURE_ETA, _V["shots"]),
    "qae_vs_classical": _table(
        _V["seed"], _V["K"]._replace(name="k", default=2), _REPEATS._replace(default=12),
        Field("epsilons", "number", [0.2, 0.141, 0.1, 0.0707, 0.05, 0.0354, 0.025, 0.0177],
              above=0, items=2, distinct=True),  # a log-log slope needs two points
        _FIXTURE_ETA, _V["shots"]),
    "end_to_end": _table(
        Field("seeds", "integer", [0, 1, 2, 3, 4], at_least=0, items=1),
        _V["K"]._replace(default=3), _V["variant"]._replace(default="c"),
        _V["forced_epsilon_k"]._replace(default=0.04), _V["eta"], _V["shots"],
        # each seed's error is against the exact value, which needs T < T0
        Field("rawT", "number", [5.0, 8.0, 11.0, 14.0], below=SIGMOID["T0"].default, items=1),
        Field("rawE", "number", [30.0, 24.0, 36.0, 28.0], items=1)),
    "resource_table": _table(Field("N", "integer", 16), _V["K"]._replace(default=3),
                             _V["s"]._replace(default=2), _V["epsilon"]),
}
