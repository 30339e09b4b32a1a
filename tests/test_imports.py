"""Every module of the package uses each name it imports, every function
reads each of its parameters, no code compares a name `case` with a case
name, and every top-level definition is referenced somewhere else in the
package."""

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


# definitions kept only as seams for the tests and the benchmark
TEST_SEAMS = {"twisted_counts", "v_vanishing_index", "v_vanishing_even_char",
              "expand_at", "ramification_data", "sigma_order"}


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


def test_every_definition_is_referenced():
    tops = [node for p in MODULES for node in ast.parse(p.read_text()).body]
    refs = [_referenced_names(node) for node in tops]
    # a reference from any other top-level statement counts, but not an
    # export from __init__
    unreferenced = [
        node.name for i, node in enumerate(tops)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in r for j, r in enumerate(refs) if j != i)]
    assert sorted(set(unreferenced) - TEST_SEAMS) == []
    # a method or property of a top-level class: a reference from another
    # member of its class counts too; dunder methods are called by Python
    methods = [
        f"{cls.name}.{node.name}" for i, cls in enumerate(tops)
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("__")
        and not any(node.name in r for j, r in enumerate(refs) if j != i)
        and not any(node.name in _referenced_names(other)
                    for other in cls.body if other is not node)]
    assert sorted(set(methods) - METHOD_SEAMS) == []
