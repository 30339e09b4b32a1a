"""Every module of the package uses each name it imports, every function
reads each of its parameters, some call in the package or the benchmark
sets each defaulted parameter, no code compares a name `case` with a case
name, no module imports dataclasses, the table kernels call no level
method on their F_(q^2) path, and every top-level definition and
assignment is referenced somewhere else in the package, each allowed
exception naming such an unreferenced definition."""

import ast
from pathlib import Path

import pytest

import hermquot

MODULES = sorted(p for p in Path(hermquot.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _unread_parameters(tree):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{node.name}({a.arg}) (line {node.lineno})" for a in params
                if a.arg not in ("self", "cls") and not a.arg.startswith("_")
                and a.arg not in read]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_functions_read_their_parameters(path):
    # self, cls and _-prefixed names are exempt
    assert _unread_parameters(ast.parse(path.read_text())) == []


def _defaulted_parameters(tree):
    """(function name, parameter, its place among the positional arguments
    of a call, or None if keyword-only) for every defaulted parameter of a
    def; a method's self takes no place in a call."""
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = id(node) in methods
        first = len(positional) - len(args.defaults)
        out += [(node.name, a.arg, i - skip)
                for i, a in enumerate(positional) if i >= first]
        out += [(node.name, a.arg, None) for a, d in
                zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _calls_setting(trees):
    """(function name, keyword or positional place) for every argument that
    a call by name or attribute passes; a starred argument stands for every
    place, a ** one for every keyword."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else func.attr
                    if isinstance(func, ast.Attribute) else None)
            for i, a in enumerate(node.args):
                out.add((name, "*" if isinstance(a, ast.Starred) else i))
            out.update((name, k.arg or "**") for k in node.keywords)
    return out


def _unset_optional_parameters(src_trees, caller_trees):
    calls = _calls_setting(caller_trees)
    out = []
    for tree in src_trees:
        for name, arg, place in _defaulted_parameters(tree):
            passed = (arg, "**") if place is None else (arg, "**", place, "*")
            if name not in TEST_SEAMS and not any(
                    (name, x) in calls for x in passed):
                out.append(f"{name}({arg})")
    return sorted(out)


def test_every_optional_parameter_is_set_outside_tests():
    # a default that no call in src/ or bench/ overrides is an option kept
    # alive only by the tests; TEST_SEAMS definitions are exempt
    src = [ast.parse(p.read_text()) for p in MODULES]
    bench = [ast.parse(p.read_text()) for p in sorted(
        (Path(hermquot.__file__).parents[2] / "bench").glob("*.py"))]
    assert _unset_optional_parameters(src, src + bench) == []


def _is_name_literal(node):
    """A string literal, or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return all(map(_is_name_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _case_name_comparisons(tree):
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if (any(isinstance(n, ast.Name) and n.id == "case" for n in operands)
                and any(map(_is_name_literal, operands))):
            out.append(f"line {node.lineno}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_switch_on_a_case_name(path):
    # the family list lives only in the formulas catalogue: code reads a
    # family's record, it does not compare `case` with a name or names
    assert _case_name_comparisons(ast.parse(path.read_text())) == []


def _dataclass_importers():
    out = []
    for path in MODULES + [Path(hermquot.__file__)]:
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            if any(n.split(".")[0] == "dataclasses" for n in names):
                out.append(path.name)
    return sorted(set(out))


def test_no_module_imports_dataclasses():
    # records are NamedTuples, whose hashing and equality run in C; a
    # frozen dataclass runs __init__, __hash__ and __eq__ as Python code
    assert _dataclass_importers() == []


# the kernels written out on the F_(q^2) log/exp and addition tables: on
# their F_(q^2) path none of them calls or aliases a level method
TABLE_KERNELS = {"gf.py": ("ExtLevel.mul", "ExtLevel.add", "ExtLevel.sub"),
                 "_linalg.py": ("mat_mul3", "mat_vec3", "cross3"),
                 "autgrp.py": ("coset_products", "generator_products")}
LEVEL_METHODS = {"mul", "add", "sub"}


def _is_q2_test(test):
    """True for `<level>.name == "q2"` (or != "q6"), False for the
    opposite test, None for any other condition."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.left, ast.Attribute)
            and test.left.attr == "name"
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value in ("q2", "q6")
            and isinstance(test.ops[0], (ast.Eq, ast.NotEq))):
        return None
    return (test.comparators[0].value == "q2") == isinstance(test.ops[0], ast.Eq)


def _level_method_reads(node):
    """Reads of .mul, .add or .sub in node (operator's excepted), leaving
    out the branch of each level-name test that is not the F_(q^2) one."""
    if isinstance(node, ast.If) and _is_q2_test(node.test) is not None:
        kept = node.body if _is_q2_test(node.test) else node.orelse
        return [r for n in kept for r in _level_method_reads(n)]
    out = []
    if (isinstance(node, ast.Attribute) and node.attr in LEVEL_METHODS
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "operator")):
        out.append(f"{node.attr} (line {node.lineno})")
    for child in ast.iter_child_nodes(node):
        out += _level_method_reads(child)
    return out


def _table_kernel_level_calls(src_dir):
    out = {}
    for module, names in TABLE_KERNELS.items():
        tree = ast.parse((src_dir / module).read_text())
        for name in names:
            node = tree
            for part in name.split("."):
                node = next(n for n in node.body if isinstance(
                    n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
            reads = [r for stmt in node.body for r in _level_method_reads(stmt)]
            if reads:
                out[name] = reads
    return out


def test_table_kernels_call_no_level_method():
    # ExtLevel's product and sums, and the 3x3 matrix kernels, read the
    # tables: a level method call per entry is what they replace
    assert _table_kernel_level_calls(Path(hermquot.__file__).parent) == {}


def test_table_kernel_check_sees_level_calls():
    # the check flags a call and an alias, and reads past the generic
    # branch of a level-name test only
    src = ("def f(lvl, u, v):\n"
           "    if lvl.name != 'q2':\n"
           "        return lvl.mul(u, v)\n"
           "    m, sb = lvl.mul, operator.sub\n"
           "    return lvl.add(m(u, v), 0)\n")
    reads = [r for stmt in ast.parse(src).body[0].body
             for r in _level_method_reads(stmt)]
    assert reads == ["mul (line 4)", "add (line 5)"]


# definitions kept only as seams for the tests and the benchmark
TEST_SEAMS = {"v_vanishing_index", "v_vanishing_even_char", "expand_at",
              "ramification_data", "sigma_order"}


# methods and properties kept only as seams for the tests and the benchmark
METHOD_SEAMS = {
    # the benchmark's grid setup and the gf tests build it; nothing in src/
    "ExtLevel.primitive",
    # the acceptance tests read a report's agreement with its closed form
    "GenusReport.matches",
}


def _referenced_names(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name)
    return out


def _defined_names(node):
    """The names a top-level statement defines: a def, a class, or the
    names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _unreferenced_definitions():
    """(top-level names, Class.method names) that nothing else in src/
    references."""
    tops = [node for p in MODULES for node in ast.parse(p.read_text()).body]
    refs = [_referenced_names(node) for node in tops]
    # a reference from any other top-level statement counts, but not an
    # export from __init__
    names = {
        name for i, node in enumerate(tops) for name in _defined_names(node)
        if not any(name in r for j, r in enumerate(refs) if j != i)}
    # a method or property of a top-level class: a reference from another
    # member of its class counts too; dunder methods are called by Python
    methods = {
        f"{cls.name}.{node.name}" for i, cls in enumerate(tops)
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("__")
        and not any(node.name in r for j, r in enumerate(refs) if j != i)
        and not any(node.name in _referenced_names(other)
                    for other in cls.body if other is not node)}
    return names, methods


def test_every_definition_is_referenced():
    names, methods = _unreferenced_definitions()
    assert sorted(names - TEST_SEAMS) == []
    assert sorted(methods - METHOD_SEAMS) == []


def test_every_seam_is_an_unreferenced_definition():
    # a seam names a definition that exists and that nothing else in src/
    # references, so a stale entry cannot hide a deletion or a new caller
    names, methods = _unreferenced_definitions()
    assert sorted(TEST_SEAMS - names) == []
    assert sorted(METHOD_SEAMS - methods) == []
