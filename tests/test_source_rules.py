"""Rules over the package source itself, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

import qheun

_SOURCES = sorted(Path(qheun.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so no mathematical check may rely on one
    hits = [node.lineno for node in ast.walk(_tree(path))
            if isinstance(node, ast.Assert)]
    assert not hits, "%s: assert on line(s) %s" % (path.name, hits)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    # "from .climit import _div" couples two modules through a helper
    # that neither documents; the private kernel module _termops itself
    # is bound by symkernel alone, as symkernel.termops
    hits = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").startswith("qheun")
        if inside and node.module:
            hits += [alias.name for alias in node.names
                     if alias.name.startswith("_")]
    assert not hits, "%s imports private names %s" % (path.name, hits)


def test_lax_searches_for_no_common_factor():
    # lax cancels the factors each construction names, by exact division;
    # the Euclidean gcd, the lcm built on it, and the lcm clearing of
    # QDiffEq.from_scalar_coefficients stay off that path
    tree = _tree(Path(qheun.__file__).parent / "lax.py")
    hits = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("gcd", "lcm")
            and isinstance(node.value, ast.Name) and node.value.id == "xpoly"]
    hits += [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr == "from_scalar_coefficients"]
    hits += [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").endswith("xpoly")
             and {a.name for a in node.names} & {"gcd", "lcm"}]
    assert not hits, ("lax.py clears denominators by an lcm on line(s) %s"
                      % hits)


def test_lax_parses_only_through_the_text_cache():
    # a constant text is parsed in _mu or _kn, which cache each parse, so
    # no per-call path of lax parses a table text again
    tree = _tree(Path(qheun.__file__).parent / "lax.py")
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("_mu", "_kn"):
            decorators = [ast.unparse(d) for d in node.decorator_list]
            assert "functools.cache" in decorators, (
                "lax.%s does not cache its parses" % node.name)
            inside |= {id(n) for n in ast.walk(node)}
    assert inside, "lax.py defines no _mu/_kn"
    hits = [node.lineno for node in ast.walk(tree)
            if id(node) not in inside
            and (isinstance(node, ast.Name) and node.id == "parse_expr"
                 or isinstance(node, ast.Attribute)
                 and node.attr == "parse_expr")]
    assert not hits, "lax.py uses parse_expr on line(s) %s" % hits
