"""The package surface: ``import okbodies`` and every name it exports."""

import ast
from collections import Counter
from pathlib import Path

import okbodies

SRC = Path(__file__).resolve().parent.parent / "src" / "okbodies"


def _names(tree) -> Counter:
    """Every name a tree refers to, as a bare name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_name_in_all_resolves():
    # a name in __all__ that the package no longer binds raises AttributeError
    exec("from okbodies import *", {})
    assert len(set(okbodies.__all__)) == len(okbodies.__all__)


def test_every_private_module_function_is_referenced():
    """A module-level ``_private`` function that nothing in the package refers
    to outside its own definition is reached by no command, suite or test
    gate: delete it, or wire it in."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "estimates.py" in trees
    refs = sum((_names(tree) for tree in trees.values()), Counter())
    dead = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.endswith("__") and refs[node.name] <= _names(node)[node.name]]
    assert dead == []
