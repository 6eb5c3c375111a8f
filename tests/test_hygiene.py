"""Static checks on the package source: every import is used, and every
module imported from outside the package ships with Python or is numpy, the
one dependency pyproject.toml declares."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "oscillometer"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imports(tree):
    """(top-level module or None for a relative import, bound names) per
    import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], [alias.asname or alias.name.split(".")[0]]
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            yield top, [alias.asname or alias.name for alias in node.names]


def test_sources_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "funcrep.py", "spaces.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_used_and_declared(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for top, names in _imports(tree):
        assert top is None or top in ALLOWED, f"{path.name} imports '{top}'"
        # __future__ imports switch on features, and the package namespace
        # re-exports what it imports
        if top == "__future__" or path.name == "__init__.py":
            continue
        unused = [name for name in names if name not in used]
        assert not unused, f"{path.name} imports {unused} and never uses them"
