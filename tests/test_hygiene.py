"""Every module-level import in the package is used: an AST scan, since
no linter is part of the test dependencies."""

import ast
from pathlib import Path

import pytest

import qdsphere

MODULES = sorted(Path(qdsphere.__file__).parent.glob("*.py"))


def _imported_names(tree):
    """Name bound by each module-level import, with its line."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        # names listed in __all__ are the module's public re-exports
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)
