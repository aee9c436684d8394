"""Three checks on the syntax trees of the package and the tests.

Every name that a module in src/qsim or tests/ imports is used there: it
appears as a name elsewhere in the module's syntax tree, or in its __all__.

Every function and class that src/qsim defines is reached: src/qsim or
perfbench code names it, the benchmark tracer wraps it, it is a click
command, or UNREACHED_KEPT lists it with the reason it stays.

Every field of VariantConfig is set by name in src/qsim or perfbench, so
no setting keeps a single value that nothing can change.
"""

import ast
import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "qsim").glob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
from qsim.assembly import VariantConfig  # noqa: E402

# Functions and classes that src/qsim and perfbench never name, with the
# reason each stays.
UNREACHED_KEPT = {
    "ContractSpec": "the energy-contract input of delta_gross_margin (ROADMAP item 10)",
    "delta_gross_margin": "the paper's energy-economics application (ROADMAP item 10)",
    "expected_loads": "the dynamic-stopping load experiment (ROADMAP item 8)",
    "shots_swap": "the swap-test shot count the acceptance criteria check",
    "shots_ancilla_free": "the ancilla-free shot count the acceptance criteria check",
}


def unused_imports(path):
    imported, used = {}, set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno
                             for alias in node.names})
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def unreached_definitions():
    """{name: "module.py:line"} for each function and class of src/qsim that
    nothing outside the tests reaches."""
    named = {t[2] for t in tracer.targets()}
    for path in SRC + PERFBENCH:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    found = {}
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in named
                    and not node.name.startswith("__")  # called by protocol
                    and not _is_click_command(node)):
                found[node.name] = f"{path.name}:{node.lineno}"
    return found


def test_every_definition_is_reached():
    unreached = unreached_definitions()
    assert {name: where for name, where in unreached.items()
            if name not in UNREACHED_KEPT} == {}
    # a kept entry that is now reached, or gone, is stale
    assert set(UNREACHED_KEPT) <= set(unreached)


CONFIGS = {"VariantConfig": VariantConfig}


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def config_fields_set():
    """{config class: field names set by name in src/qsim or perfbench}.

    A field counts when it is a keyword of a constructor call, or a string
    key of a dict literal in a module that passes a dict to that
    constructor with **.
    """
    named = {name: set() for name in CONFIGS}
    for path in SRC + PERFBENCH:
        tree = ast.parse(path.read_text())
        keys = {key.value for node in ast.walk(tree) if isinstance(node, ast.Dict)
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) in CONFIGS:
                for kw in node.keywords:
                    named[_callee(node)].update([kw.arg] if kw.arg else keys)
    return named


def test_every_config_field_is_set():
    named = config_fields_set()
    unset = [f"{name}.{f.name}" for name, cls in CONFIGS.items()
             for f in dataclasses.fields(cls) if f.name not in named[name]]
    assert unset == []
