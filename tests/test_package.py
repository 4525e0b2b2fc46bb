"""The package surface: ``import okbodies`` and every name it exports."""

import ast
import importlib
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

import okbodies
from okbodies.estimates import Assertion
from okbodies.geometry import AffineFunctional, ConcavePL, HalfSpace, hull
from okbodies.lattice import PointCloud
from okbodies.series import GapRow
from okbodies.thresholds import FamilyMeasure, JumpingVector, TailSpec, ValuationModel, _Ccdf

SRC = Path(__file__).resolve().parent.parent / "src" / "okbodies"
PERFBENCH = SRC.parent.parent / "perfbench"


def _names(tree) -> Counter:
    """Every name a tree refers to, as a bare name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_name_in_all_resolves():
    # a name in __all__ that the package no longer binds raises AttributeError
    exec("from okbodies import *", {})
    assert len(set(okbodies.__all__)) == len(okbodies.__all__)


def test_import_loads_no_dataclasses_inspect_or_statistics():
    """``import okbodies, okbodies.cli`` in a fresh interpreter adds none of
    ``dataclasses``, ``inspect`` and ``statistics`` to ``sys.modules``: every
    command starts a fresh interpreter, and these cost each one its start-up.
    Compared with the interpreter's own modules before the import, since
    ``site`` loads some of its own."""
    code = ("import sys; before = set(sys.modules); import okbodies, okbodies.cli; "
            "new = set(sys.modules) - before; "
            "print(*sorted({'dataclasses', 'inspect', 'statistics'} & new))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.strip() == ""


def test_no_module_imports_dataclasses_statistics_or_namedtuple():
    trees, refs = _package_trees()
    imported = {name for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None), *(a.name for a in node.names)]}
    assert {"dataclasses", "statistics", "NamedTuple"} & (imported | set(refs)) == set()


_TRIANGLE = hull([(0, 0), (3, 0), (0, 3)])
_G = ConcavePL.make([AffineFunctional.make((1, 0), 0)], _TRIANGLE)
_G2 = ConcavePL.make([AffineFunctional.make((0, 1), 1)], hull([(0, 0), (1, 0), (0, 1)]))

# each record type, its field names, and two field tuples that differ in every field
RECORDS = [
    (HalfSpace, ("normal", "offset"), ((1, 0), F(1, 2)), ((0, 1), F(1, 3))),
    (AffineFunctional, ("gradient", "constant"), ((F(1), F(0)), F(0)), ((F(0), F(1)), F(2))),
    (ConcavePL, ("pieces", "domain"), (_G.pieces, _TRIANGLE), (_G2.pieces, _G2.domain)),
    (GapRow, ("k", "d_k", "D_k", "diff"), (3, 8, 10, 2), (4, 9, 12, 3)),
    (ValuationModel, ("label", "A", "G"), ("D1", F(1), _G), ("D2", F(2), _G2)),
    (JumpingVector, ("k", "values"), (2, (F(2), F(1))), (3, (F(2), F(2)))),
    (TailSpec, ("tau", "quantile", "atom_at_top", "bracket"), (F(1, 2), F(1), F(0), None),
     (F(1, 3), F(2), F(1, 9), (F(1), F(3)))),
    (FamilyMeasure, ("atoms",), ((((F(0), F(0)), F(1)),),), ((((F(1), F(0)), F(1)),),)),
    (Assertion, ("name", "passed", "witness"), ("bound", True, None), ("rate", False, "w")),
    (_Ccdf, ("s0", "atom", "pieces"), (F(3), F(0), ((F(0), F(3), (F(1), F(-2, 3))),)),
     (F(2), F(1, 2), ())),
    (PointCloud, ("denominator", "points"), (2, ((0, 0), (1, 0))), (3, ((0, 0), (1, 1)))),
]


@pytest.mark.parametrize("cls, names, fields, other", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_hash_compare_and_freeze_as_their_field_tuples(cls, names, fields, other):
    """A record hashes as the tuple of its fields, the hash of the frozen
    dataclass it replaces, so set and dict orders hold; it equals another
    exactly when every field is equal; and no field can be assigned."""
    record = cls(*fields)
    assert tuple(getattr(record, name) for name in names) == fields
    assert hash(record) == hash(fields)
    assert record == cls(*fields)
    for i in range(len(fields)):
        assert record != cls(*fields[:i], other[i], *fields[i + 1:])
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


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


ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def test_every_function_is_referenced_by_a_gated_path():
    """A function defined in the package, public or private, a method or a
    nested function alike, dunders aside, whose name nothing in the package,
    the benchmark (``perfbench/``) or the acceptance criteria refers to
    outside its own body, as a call, an attribute or an import, is reached by
    no command, suite, criterion or workload: delete it, or wire it in.
    Names match alone, so a function that shares its name with a referenced
    one is still checked by hand."""
    sources = sorted(SRC.glob("*.py"))
    readers = [*sources, *sorted(PERFBENCH.glob("*.py")), ACCEPTANCE]
    trees = {path: ast.parse(path.read_text()) for path in readers}
    refs = Counter()
    for tree in trees.values():
        refs += _names(tree)
        refs += Counter(alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) for alias in node.names)
    dead = [f"{path.stem}:{node.name}" for path in sources for node in ast.walk(trees[path])
            if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and refs[node.name] <= _names(node)[node.name]]
    assert dead == []


def _calls_by_function(tree) -> list[tuple[str, str]]:
    """(innermost enclosing function, called name) for every call in a tree,
    the name bare or an attribute; a call at module level has owner None."""
    calls = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                calls.append((owner, func.id if isinstance(func, ast.Name)
                              else getattr(func, "attr", None)))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, None)
    return calls


# each single-path constructor and the one function that may call it
SINGLE_PATHS = {"ConvexBody": "empty_body", "_hull_full": "_hull_rows",
                "_affine_equalities": "_hull_rows", "_polygon": "_hull_rows"}


def test_bodies_and_full_hulls_have_one_constructor_call():
    """Every other body is built primed from integer rows, so ``ConvexBody(...)``
    is called only in ``empty_body``, and every hull goes through one
    dispatch, so ``_hull_full``, ``_polygon`` and ``_affine_equalities`` are
    called only in ``_hull_rows``: a flat cut keeps its parent's equalities."""
    trees, _ = _package_trees()
    calls = [(module, owner, name) for module, tree in trees.items()
             for owner, name in _calls_by_function(tree) if name in SINGLE_PATHS]
    assert [f"{module}:{owner} calls {name}" for module, owner, name in calls
            if owner != SINGLE_PATHS[name]] == []
    assert {(owner, name) for _, owner, name in calls} == {
        ("empty_body", "ConvexBody"), ("_hull_rows", "_hull_full"),
        ("_hull_rows", "_affine_equalities"), ("_hull_rows", "_polygon")}


def _cofactor_expansions(tree) -> list[str]:
    """The innermost enclosing function of every product (-1) ** j *
    _det(...) in a tree: one cofactor of a Laplace expansion."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult):
                sign, det = child.left, child.right
                if (isinstance(sign, ast.BinOp) and isinstance(sign.op, ast.Pow)
                        and ast.unparse(sign.left) == "-1" and isinstance(det, ast.Call)
                        and getattr(det.func, "id", getattr(det.func, "attr", None)) == "_det"):
                    found.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, None)
    return found


def test_cofactor_vectors_have_one_home():
    """Every cofactor vector, the hull's facet normals and the hyperplane
    meets of ``thresholds._meet`` alike, comes from ``geometry._cofactors``:
    no other function expands (-1) ** j * _det(...) itself."""
    trees, _ = _package_trees()
    assert [f"{module}:{owner}" for module, tree in trees.items()
            for owner in _cofactor_expansions(tree)] == ["geometry.py:_cofactors"]


def _parameters_and_calls(*scanned):
    """The package's parameters and the arguments of every call in the
    package, in ``perfbench/`` and in the files ``scanned``.

    ``params`` maps (module:function, parameter) to (callee, position,
    default): the name a call uses (``Class`` for ``Class.__init__``), the
    position, not counting a method's self, or None for a keyword-only
    parameter, and the default's node, or None for a parameter without one.
    ``calls`` lists, per call, its callee and a dict from each slot (a
    position or keyword; a ``*`` splat counts as the one position it stands
    at) to (value, forwarded): the argument's node, and the caller's own
    defaulted parameter when the argument passes it on unchanged, or None.
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
                defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
                where = f"{module}:{child.name}"
                params.update({(where, a.arg): (callee, i, d)
                               for i, (a, d) in enumerate(zip(positional, defaults))})
                params.update({(where, a.arg): (callee, None, d)
                               for a, d in zip(args.kwonlyargs, args.kw_defaults)})
                inner = (where, {a.arg for a, d in zip(positional, defaults) if d}
                         | {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d})
            elif isinstance(child, ast.Call):
                f = child.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                slots = {}
                for slot, value in [*enumerate(child.args),
                                    *((kw.arg, kw.value) for kw in child.keywords)]:
                    forwarded = None
                    if scope and isinstance(value, ast.Name) and value.id in scope[1]:
                        forwarded = (scope[0], value.id)
                    slots[slot] = (value, forwarded)
                calls.append((callee, slots))
            visit(child, module, child.name if isinstance(child, ast.ClassDef) else owner,
                  inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None, None)
    for path in [*sorted(PERFBENCH.glob("*.py")), *scanned]:
        visit(ast.parse(path.read_text()), None, None, None)
    return params, calls


def _gated_parameters_and_calls():
    """The params of ``_parameters_and_calls(ACCEPTANCE)``, and its calls
    grouped by callee: a list of slot dicts per name."""
    params, calls = _parameters_and_calls(ACCEPTANCE)
    by_callee = {}
    for callee, slots in calls:
        by_callee.setdefault(callee, []).append(slots)
    return params, by_callee


def test_every_defaulted_parameter_is_set_by_some_caller():
    """A parameter with a default that no call in the package or the
    benchmark passes, or passes only on from such a parameter, holds one
    value on every path a command, suite or benchmark takes: make the value
    a constant, or wire a caller in.  (A parameter every call passes one
    literal is caught by the next test.)"""
    params, calls = _parameters_and_calls()
    params = {p: (callee, i) for p, (callee, i, default) in params.items() if default}
    assert ("estimates:sub_body_sampler", "points") in params
    unset = set(params)
    while True:  # drop what a call sets, until only parameters set by no call remain
        setting = {(callee, slot) for callee, slots in calls
                   for slot, (_, forwarded) in slots.items() if forwarded not in unset}
        still = {p for p in unset
                 if (params[p][0], p[1]) not in setting and params[p] not in setting}
        if still == unset:
            break
        unset = still
    assert sorted(f"{where}({arg})" for where, arg in unset) == []


def test_no_parameter_is_passed_one_literal_by_every_call():
    """A parameter to which every call in the package, the benchmark and the
    acceptance criteria passes the same literal (``ast.Constant``; a call
    that leaves it out passes its default) holds one value on every gated
    path: make the value a constant, and let a test that needs another
    value build it directly.  Only a call that names the function is seen;
    a parameter no such call reaches is the previous test's."""
    params, by_callee = _gated_parameters_and_calls()
    single = []
    for (where, arg), (callee, i, default) in params.items():
        passed = [slots.get(i, slots.get(arg, (default, None)))[0]
                  for slots in by_callee.get(callee, ())]
        literals = {(type(v.value), v.value) for v in passed if isinstance(v, ast.Constant)}
        if passed and len(literals) == 1 and all(isinstance(v, ast.Constant) for v in passed):
            single.append(f"{where}({arg})")
    assert sorted(single) == []


def test_no_defaulted_parameter_is_passed_by_every_call():
    """A parameter with a default that every call in the package, the
    benchmark and the acceptance criteria passes explicitly, by position or
    by keyword, never takes its default on a gated path: the default is
    dead, so drop it and let each caller say what it means.  Only a call
    that names the function is seen; a parameter no such call reaches is
    ``test_every_defaulted_parameter_is_set_by_some_caller``'s."""
    params, by_callee = _gated_parameters_and_calls()
    explicit = [f"{where}({arg})" for (where, arg), (callee, i, default) in params.items()
                if default and by_callee.get(callee)
                and all((i is not None and i in slots) or arg in slots
                        for slots in by_callee[callee])]
    assert sorted(explicit) == []


def test_every_package_name_the_benchmark_reads_resolves():
    """Every attribute chain that ``perfbench/`` reads through an ``import
    okbodies.X as Y`` alias resolves, and so do the layers and per-level
    model methods that its tracer wraps by name: a rename the benchmark would
    meet only when it runs fails here first.  This pins, for example,
    ``th._ccdf_data.cache_info()``, which a traced pass calls, so
    ``thresholds._ccdf_data`` stays an ``lru_cache``.  The tracer's
    ``VERIFY_FUNCTIONS`` still names the deleted ``verify_S_two_sided``
    (whose ``self_s`` reads 0), so it is left out until the benchmark is
    re-recorded."""
    chains, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names if a.asname and a.name.startswith("okbodies.")}
        for node in ast.walk(tree):
            attrs, base = [], node
            while isinstance(base, ast.Attribute):
                attrs.append(base.attr)
                base = base.value
            if attrs and isinstance(base, ast.Name) and base.id in aliases:
                chains.add((aliases[base.id], tuple(reversed(attrs))))
    for module, attrs in sorted(chains):
        obj = importlib.import_module(module)
        for attr in attrs:
            obj = getattr(obj, attr, missing)
        if obj is missing:
            missing.append(f"{module}.{'.'.join(attrs)}")
    assert ("okbodies.thresholds", ("_ccdf_data", "cache_info")) in chains
    assert missing == []

    tracer = {target.id: ast.literal_eval(node.value)
              for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body
              if isinstance(node, ast.Assign) for target in node.targets
              if isinstance(target, ast.Name)
              and target.id in ("LAYERS", "LEVEL_METHODS")}
    for layer in tracer["LAYERS"]:
        importlib.import_module(f"okbodies.{layer}")
    from okbodies.series import GradedSeriesModel
    assert all(callable(getattr(GradedSeriesModel, attr, None))
               for attr in tracer["LEVEL_METHODS"])
