"""Every module-level import in the package is used, and so is every
module-level private name: an AST scan, since no linter is part of the
test dependencies."""

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


def _private_definitions(tree):
    """Module-level _private functions, classes and constants, with lines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno


def _package_references():
    """Every name the package reads: loaded names, attributes and imported names."""
    refs = set()
    for path in MODULES:
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                refs.update(alias.name for alias in n.names)
    return refs


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unreferenced_private_names(path):
    refs = _package_references()
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [f"{path.name}:{line} {name}" for name, line in _private_definitions(tree)
              if name.startswith("_") and not name.startswith("__") and name not in refs]
    assert not unused, "unreferenced private names: " + ", ".join(unused)


def test_every_error_class_is_raised():
    """Each class in errors.py is raised somewhere in the package, or is a
    base of one that is."""
    errors = next(p for p in MODULES if p.name == "errors.py")
    bases = {}
    for node in ast.parse(errors.read_text()).body:
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
    raised = set()
    for path in MODULES:
        for n in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call):
                f = n.exc.func
                raised.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
    covered = set()
    todo = [name for name in bases if name in raised]
    while todo:
        name = todo.pop()
        if name not in covered:
            covered.add(name)
            todo.extend(bases.get(name, []))
    assert sorted(set(bases) - covered) == []
