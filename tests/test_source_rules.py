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


def _namedtuple_base(node):
    # "namedtuple(...)" or "collections.namedtuple(...)"
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "namedtuple"
        or getattr(node.func, "attr", None) == "namedtuple")


def _unslotted_records(tree):
    """(line, name) of each class with a namedtuple(...) call among its
    bases whose body does not declare __slots__ = ()."""
    hits = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef)
                and any(map(_namedtuple_base, node.bases))):
            continue
        if not any(ast.unparse(stmt) == "__slots__ = ()"
                   for stmt in node.body):
            hits.append((node.lineno, node.name))
    return hits


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_namedtuple_records_have_no_instance_dict(path):
    # a subclass of a namedtuple(...) class gets an instance dict unless
    # it declares empty slots, and a dict is a place for state the fields
    # do not hold, that == and hash do not see
    hits = _unslotted_records(_tree(path))
    assert not hits, "%s: records without __slots__ = () at %s" % (
        path.name, hits)


def test_the_slots_rule_sees_each_form():
    tree = ast.parse("class A(namedtuple('_A', 'x')):\n"
                     "    pass\n"
                     "class B(Base, collections.namedtuple('_B', 'x')):\n"
                     "    def f(self):\n"
                     "        __slots__ = ()\n"
                     "class C(namedtuple('_C', 'x')):\n"
                     "    __slots__ = ('y',)\n"
                     "class D(namedtuple('_D', 'x')):\n"
                     "    __slots__ = ()\n"
                     "class E(NamedTuple):\n"
                     "    x: int\n"
                     "class F(namedtuple('_F', 'x')):\n"
                     "    __slots__ = __dict__ = ()\n")
    assert _unslotted_records(tree) == [(1, "A"), (3, "B"), (6, "C"),
                                        (12, "F")]


_PICKLE_HOOKS = {"__reduce__", "__reduce_ex__", "MappingProxyType", "copyreg"}


def _pickle_hooks(tree):
    """(line, name) of each pickling hook or hook helper in a module, and
    the classes each one sits in."""
    hits = []

    def visit(node, classes):
        if isinstance(node, ast.ClassDef):
            classes = classes + (node.name,)
        name = (node.name if isinstance(node, (ast.FunctionDef, ast.alias))
                else node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else None)
        if name is not None and name.split(".")[0] in _PICKLE_HOOKS:
            hits.append((getattr(node, "lineno", None), name, classes))
        for child in ast.iter_child_nodes(node):
            visit(child, classes)

    visit(tree, ())
    return hits


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_records_pickle_without_hooks(path):
    # value records are named tuples, which pickle and copy by their
    # fields and run their checks again on load; only the kernel types,
    # whose slots are filled through object.__setattr__, rebuild through
    # their constructors by a __reduce__ of their own
    hits = [(line, name) for line, name, classes in _pickle_hooks(_tree(path))
            if not (path.name == "symkernel.py" and name == "__reduce__"
                    and classes in (("MPoly",), ("RatFun",)))]
    assert not hits, "%s hooks pickling at %s" % (path.name, hits)


def test_the_hook_rule_sees_each_form():
    tree = ast.parse("import copyreg\n"
                     "from types import MappingProxyType\n"
                     "class R(tuple):\n"
                     "    def __reduce__(self):\n"
                     "        return R, ()\n"
                     "class S(tuple):\n"
                     "    __reduce__ = _helper\n")
    assert [(line, name) for line, name, _ in _pickle_hooks(tree)] == [
        (1, "copyreg"), (2, "MappingProxyType"), (4, "__reduce__"),
        (7, "__reduce__")]


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


def _isqrt_calls(tree):
    # "math.isqrt(n)" or a bare "isqrt(n)" after "from math import isqrt"
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Attribute)
                 and node.func.attr == "isqrt"
                 or isinstance(node.func, ast.Name)
                 and node.func.id == "isqrt")]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_only_local_takes_integer_roots(path):
    # local.exact_root is the one integer-root helper; a root taken
    # elsewhere would be a second copy to keep exact
    hits = _isqrt_calls(_tree(path))
    assert path.name == "local.py" or not hits, (
        "%s calls isqrt on line(s) %s" % (path.name, hits))


def test_the_isqrt_rule_sees_each_form():
    tree = ast.parse("import math\nfrom math import isqrt\n"
                     "math.isqrt(4)\nisqrt(9)\n")
    assert _isqrt_calls(tree) == [3, 4]


def _class_tag_checks(tree):
    # "ode.class_ is None", "ode.class_ is not None", "None == ode.class_"
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if (any(isinstance(o, ast.Attribute) and o.attr == "class_"
                for o in operands)
                and any(isinstance(o, ast.Constant) and o.value is None
                        for o in operands)):
            hits.append(node.lineno)
    return hits


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef,
           ast.Lambda)


def _own_nodes(scope):
    # the nodes of one scope, without those of the scopes nested in it
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _calls_classify(node):
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "classify_ode"
        or getattr(node.func, "attr", None) == "classify_ode")


def _unclassified_tag_reads(tree):
    # "self.class_ == 'THE'": a comparison of a class_ that no
    # "name = classify_ode(...)" of the same scope wrote
    hits = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, _SCOPES):
            continue
        nodes = list(_own_nodes(scope))
        classified = {target.id for node in nodes
                      if isinstance(node, ast.Assign)
                      and _calls_classify(node.value)
                      for target in node.targets
                      if isinstance(target, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Compare) and any(
                    isinstance(o, ast.Attribute) and o.attr == "class_"
                    and getattr(o.value, "id", None) not in classified
                    for o in (node.left, *node.comparators)):
                hits.add(node.lineno)
    return sorted(hits)


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_the_class_is_decided_in_one_place(path):
    # climit.classify_ode decides an operator's class; code that skips it
    # for a record whose class_ is already set, or that reads the tag of
    # a record it did not classify, would trust a tag that classify_ode
    # never wrote
    tree = _tree(path)
    hits = _class_tag_checks(tree)
    assert not hits, "%s tests class_ against None on line(s) %s" % (
        path.name, hits)
    reads = _unclassified_tag_reads(tree)
    assert not reads, "%s compares an unclassified class_ on line(s) %s" % (
        path.name, reads)


def test_the_class_tag_rule_sees_each_form():
    tree = ast.parse("if ode.class_ is None:\n    pass\n"
                     "ok = ode.class_ is not None\n"
                     "same = None == ode.class_\n"
                     "fine = ode.class_ == 'HE'\n")
    assert _class_tag_checks(tree) == [1, 3, 4]


def test_the_unclassified_tag_rule_sees_each_form():
    tree = ast.parse("def accessory(self):\n"
                     "    return self.class_ == 'THE'\n"
                     "def reading(ode):\n"
                     "    ode = classify_ode(ode)\n"
                     "    return ode.class_ in ('THE', 'Other')\n"
                     "def against(ode, raw):\n"
                     "    ode = climit.classify_ode(ode)\n"
                     "    return raw.class_ != ode.class_\n"
                     "fine = ode.class_ == 'HE'\n"
                     "def nested(ode):\n"
                     "    ode = classify_ode(ode)\n"
                     "    return lambda: ode.class_ == 'HE'\n")
    assert _unclassified_tag_reads(tree) == [2, 8, 9, 12]


# the names a shared cache may be keyed by: a table text, a catalog, a
# family and a constraint name; a binding as a key would keep every
# binding ever seen alive, and hand one caller's value to the next
_CACHE_KEYS = {"text", "catalog", "family", "name"}


def _is_cache(decorator):
    # "functools.cache", "cache", "functools.lru_cache(maxsize=None)",
    # "lru_cache"
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = (decorator.attr if isinstance(decorator, ast.Attribute)
            else getattr(decorator, "id", None))
    return name in ("cache", "lru_cache")


def _cache_keys_outside(tree):
    """(line, function) of each cached function with a parameter whose
    name is not in _CACHE_KEYS, or with *args or **kwargs."""
    hits = []
    for node in ast.walk(tree):
        if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and any(map(_is_cache, node.decorator_list))):
            continue
        args = node.args
        names = [a.arg for a in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs)]
        if args.vararg or args.kwarg or not set(names) <= _CACHE_KEYS:
            hits.append((node.lineno, node.name))
    return hits


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_caches_are_keyed_by_names_only(path):
    # a per-family value is built once and shared; a binding is never
    # part of its key, so no call's binding reaches another call
    hits = _cache_keys_outside(_tree(path))
    assert not hits, "%s caches on other parameters at %s" % (path.name,
                                                               hits)


def test_the_cache_key_rule_sees_each_form():
    tree = ast.parse("@functools.cache\ndef a(catalog, family): pass\n"
                     "@functools.cache\ndef b(family, binding): pass\n"
                     "@cache\ndef c(text, *, binding=None): pass\n"
                     "@functools.lru_cache(maxsize=None)\n"
                     "def d(name, /, *rest): pass\n"
                     "@lru_cache\ndef e(family, **options): pass\n"
                     "def f(binding): pass\n"
                     "@functools.cache\ndef g(text): pass\n")
    assert _cache_keys_outside(tree) == [(4, "b"), (6, "c"), (8, "d"),
                                         (10, "e")]
