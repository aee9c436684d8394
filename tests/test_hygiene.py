"""Every name that a module in src/qsim or tests/ imports is used there: it
appears as a name elsewhere in the module's syntax tree, or in its __all__."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "qsim").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
