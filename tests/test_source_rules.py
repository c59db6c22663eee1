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


def _imports_termops(node):
    # "import qheun._termops", "from . import _termops",
    # "from ._termops import mul_terms", "from qheun import _termops"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[-1] == "_termops" for a in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = (node.module or "").split(".")
    return (module[-1] == "_termops"
            or any(a.name == "_termops" for a in node.names))


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_only_symkernel_imports_the_term_kernel(path):
    # MPoly keeps constant operands off the term-dict loops; a module that
    # called _termops directly would bypass those paths
    hits = [node.lineno for node in ast.walk(_tree(path))
            if _imports_termops(node)]
    allowed = 1 if path.name == "symkernel.py" else 0
    assert len(hits) == allowed, "%s imports _termops on line(s) %s" % (
        path.name, hits)


def _object_setattr(node):
    return (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_only_the_kernel_types_bypass_setattr(path):
    # value records are named tuples; only MPoly and RatFun in symkernel
    # fill their slots through object.__setattr__
    hits = [node.lineno for node in ast.walk(_tree(path))
            if _object_setattr(node)]
    assert path.name == "symkernel.py" or not hits, (
        "%s calls object.__setattr__ on line(s) %s" % (path.name, hits))


def _int_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


@pytest.mark.parametrize("name", ["symkernel.py", "_termops.py"])
def test_kernel_divides_no_int_literal(name):
    # a coefficient may be an int, and 1 / c is then a float: the kernel
    # divides a Fraction, as in Fraction(1) / c
    tree = _tree(Path(qheun.__file__).parent / name)
    hits = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and _int_literal(node.left)]
    assert not hits, "%s divides an int literal on line(s) %s" % (name, hits)


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


# the steps and parameter classes lax.derive_equation orders, and the
# tables it picks the recorded route from
_DERIVATION_STEPS = {"MurataParams", "build_murata", "scalar_reduce",
                     "specialize", "KNYParams", "build_kny",
                     "kny_to_equation", "MURATA_TABLE_VARIANT", "KNY_GAUGED"}


def test_cli_derives_only_through_derive_equation():
    # lax.derive_equation is the one code that orders the derivation
    # steps; a copy of them in the CLI would have to be kept in step
    tree = _tree(Path(qheun.__file__).parent / "cli.py")
    used = [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "lax"]
    used += [(node.lineno, a.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[-1] == "lax"
             for a in node.names]
    hits = [(line, name) for line, name in used
            if name in _DERIVATION_STEPS]
    assert not hits, "cli.py runs derivation steps itself: %s" % hits
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "derive_equation"]
    assert len(calls) == 1, "cli.py derives on line(s) %s" % calls

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


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    # dataclasses pulls in inspect, a few ms of every CLI start-up; the
    # records are typing.NamedTuple, and typing is loaded at start-up
    hits = [node.lineno for node in ast.walk(_tree(path))
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "dataclasses"]
    assert not hits, "%s imports dataclasses on line(s) %s" % (path.name,
                                                               hits)


# fractions.Fraction internals: Python 3.12 dropped the _normalize keyword,
# and none of these is documented, so exact code builds a Fraction through
# Fraction(numerator, denominator) and reads .numerator and .denominator
_PRIVATE_FRACTION = {"_from_coprime_ints", "_numerator", "_denominator"}


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_no_private_fraction_api(path):
    hits = [node.lineno for node in ast.walk(_tree(path))
            if isinstance(node, ast.keyword) and node.arg == "_normalize"
            or isinstance(node, ast.Attribute)
            and node.attr in _PRIVATE_FRACTION
            or isinstance(node, ast.alias)
            and node.name in _PRIVATE_FRACTION]
    assert not hits, "%s uses the private Fraction API on line(s) %s" % (
        path.name, hits)
