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


def _package_trees():
    """(trees, refs): each module's syntax tree by file name, and every name
    the package refers to (``_names``) summed over them."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "estimates.py" in trees
    return trees, sum((_names(tree) for tree in trees.values()), Counter())


def test_every_private_module_function_is_referenced():
    """A module-level ``_private`` function that nothing in the package refers
    to outside its own definition is reached by no command, suite or test
    gate: delete it, or wire it in."""
    trees, refs = _package_trees()
    dead = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.endswith("__") and refs[node.name] <= _names(node)[node.name]]
    assert dead == []


def test_every_module_level_assignment_is_read():
    """A module-level name bound by assignment (a constant, an alias), dunders
    aside, that nothing in the package reads outside its own binding is dead:
    delete it, or wire it in."""
    trees, refs = _package_trees()
    dead = [f"{module}:{name.id}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for name in ast.walk(target) if isinstance(name, ast.Name)
            and not (name.id.startswith("__") and name.id.endswith("__"))
            and refs[name.id] <= _names(node)[name.id]]
    assert dead == []


def _defaulted_parameters_and_calls():
    """The package's defaulted parameters and the arguments of every call in
    the package and in ``perfbench/``.

    ``params`` maps (module:function, parameter) to (callee, position): the
    name a call uses (``Class`` for ``Class.__init__``) and the position,
    not counting a method's self, or None for a keyword-only parameter.
    ``calls`` lists (callee, slot, forwarded): a position or keyword (a
    ``*`` splat counts as the one position it stands at), and the caller's
    own defaulted parameter when the argument passes it on unchanged.
    Calls match by name alone, so a parameter of one ``make`` counts as set
    by a call of another."""
    params, calls = {}, []

    def visit(node, module, owner, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.FunctionDef) and module:
                args = child.args
                positional = args.posonlyargs + args.args
                if isinstance(node, ast.ClassDef) and not any(
                        getattr(d, "id", None) == "staticmethod" for d in child.decorator_list):
                    positional = positional[1:]
                callee = owner if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                defaulted = [(a.arg, i) for i, a in enumerate(positional[first:], first)]
                defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                where = f"{module}:{child.name}"
                params.update({(where, arg): (callee, i) for arg, i in defaulted})
                inner = (where, {arg for arg, _ in defaulted})
            elif isinstance(child, ast.Call):
                f = child.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                slots = [*enumerate(child.args), *((kw.arg, kw.value) for kw in child.keywords)]
                for slot, value in slots:
                    forwarded = None
                    if scope and isinstance(value, ast.Name) and value.id in scope[1]:
                        forwarded = (scope[0], value.id)
                    calls.append((callee, slot, forwarded))
            visit(child, module, child.name if isinstance(child, ast.ClassDef) else owner,
                  inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None, None)
    for path in sorted((SRC.parent.parent / "perfbench").glob("*.py")):
        visit(ast.parse(path.read_text()), None, None, None)
    return params, calls


def test_every_defaulted_parameter_is_set_by_some_caller():
    """A parameter with a default that no call in the package or the
    benchmark passes, or passes only on from such a parameter, holds one
    value on every path a command, suite or benchmark takes: make the value
    a constant, or wire a caller in.  (A parameter passed only one constant
    value is not caught here.)"""
    params, calls = _defaulted_parameters_and_calls()
    assert ("estimates:verify_uniform_ehrhart", "n_bodies") in params
    unset = set(params)
    while True:  # drop what a call sets, until only parameters set by no call remain
        setting = {(callee, slot) for callee, slot, forwarded in calls if forwarded not in unset}
        still = {p for p in unset
                 if (params[p][0], p[1]) not in setting and params[p] not in setting}
        if still == unset:
            break
        unset = still
    assert sorted(f"{where}({arg})" for where, arg in unset) == []
