"""Export lists: every public name resolves, and the package re-exports
only names its modules declare public."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import haltongain

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(haltongain.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"haltongain.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_imports_are_declared_public():
    tree = ast.parse(inspect.getsource(haltongain))
    undeclared = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"haltongain.{node.module}").__all__
    ]
    assert undeclared == []
