"""Command dispatch, document formats, exit codes, verification report."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qheun import equations_equal, ratfun_eq, reference_equation
from qheun.cli import (
    BIND_FORMAT,
    CONVENTION,
    EQ_FORMAT,
    FAMILY_FORMAT,
    MAX_DEGREE,
    MAX_EXPONENT,
    UsageError,
    read_binding,
    read_equation,
    run,
    write_equation,
)
from qheun.lax import KNY_FAMILIES, MURATA_FAMILIES, accessory_formula
from qheun.local import series_solution
from qheun.symkernel import sym

F = Fraction


def call(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr, sys.stdin = out, err, io.StringIO(stdin)
    try:
        code = run(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def derive_doc(catalog, family, *extra):
    code, out, err = call(["derive", "--catalog", catalog,
                           "--family", family, *extra])
    assert code == 0, err
    return out


def _json(text):
    return json.loads(text)


_A4_ROOT_BINDING = {
    "format": BIND_FORMAT,
    "bindings": {"q": "1/3", "k1": "2", "a1": "5", "a2": "1/2",
                 "a3": "1/3", "t": "1/7", "th1": "-5/2", "th2": "-15",
                 "k2": "-45/2", "m": "1"},
}


@pytest.fixture
def a4_binding_file(tmp_path):
    path = tmp_path / "bind.json"
    path.write_text(json.dumps(_A4_ROOT_BINDING))
    return str(path)


# -- document round trips --------------------------------------------------

@pytest.mark.parametrize("catalog,family",
                         [("murata", f) for f in MURATA_FAMILIES] +
                         [("kny", f) for f in KNY_FAMILIES])
def test_equation_documents_round_trip(catalog, family):
    eq = reference_equation(catalog, family)
    back = read_equation(write_equation(eq))
    assert back.variable == eq.variable
    for side in ("P", "Z", "M"):
        for k in range(max(eq.degree, back.degree) + 1):
            assert ratfun_eq(back.coeff(side, k), eq.coeff(side, k))


def test_equation_document_shape():
    doc = write_equation(reference_equation("murata", "A6"))
    assert doc["format"] == EQ_FORMAT
    assert doc["convention"] == CONVENTION
    assert doc["variable"] == "x"
    assert doc["parameters"] == sorted(doc["parameters"])
    assert "2" not in doc["P"]          # zero entries are omitted
    for side in ("P", "Z", "M"):
        for value in doc[side].values():
            assert isinstance(value, str)


def test_read_equation_validation():
    good = write_equation(reference_equation("murata", "A7"))
    for mutate in (
        lambda d: d.update(format="qheun-eq/9"),
        lambda d: d.update(variable="9x"),
        lambda d: d.update(convention="f(qx) = f(x)"),
        lambda d: d.update(parameters="q"),
        lambda d: d.update(parameters=d["parameters"] + ["x"]),
        lambda d: d["Z"].update({"-1": "1"}),
        lambda d: d["Z"].update({"07": "1"}),
        lambda d: d["Z"].update({"x": "1"}),
        lambda d: d["Z"].update({"1": 3}),
        lambda d: d.update(P="wat"),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(UsageError):
            read_equation(doc)


def test_read_equation_accepts_any_degree():
    doc = write_equation(reference_equation("murata", "A7"))
    doc["P"]["12"] = "q"
    eq = read_equation(doc)
    assert eq.degree == 12
    assert ratfun_eq(eq.coeff("P", 12), sym("q"))
    assert read_equation(write_equation(eq)).degree == 12


def test_read_equation_bounds_the_degree():
    doc = write_equation(reference_equation("murata", "A7"))
    doc["P"][str(MAX_DEGREE)] = "q"
    assert read_equation(doc).degree == MAX_DEGREE
    del doc["P"][str(MAX_DEGREE)]
    doc["P"][str(MAX_DEGREE + 1)] = "q"
    with pytest.raises(UsageError, match="maximum degree"):
        read_equation(doc)
    code, out, err = call(["classify"], stdin=json.dumps(doc))
    assert code == 2 and out == ""
    assert "maximum degree %d" % MAX_DEGREE in err


def test_read_equation_refuses_a_huge_degree_before_allocating():
    doc = write_equation(reference_equation("murata", "A7"))
    # the malformed entry after the huge key makes code without the bound
    # fail on that entry, before any dense list is built
    doc["P"] = {"1" + "0" * 39: "q", "0": 3}
    with pytest.raises(UsageError, match="maximum degree"):
        read_equation(doc)


def test_kny_linear_gauge_output_classifies():
    # the linear gauge raises the degree of a degree-2 row to 4
    code, gauged, err = call(["gauge", "--kind", "linear", "--factor",
                              "q*z - n4"], stdin=derive_doc("kny", "D5"))
    assert code == 0, err
    assert "4" in _json(gauged)["P"]
    code, out, err = call(["classify"], stdin=gauged)
    assert code == 0, err
    assert _json(out)["signature"].endswith("+deg4")


def test_read_binding_exact():
    doc = {"format": BIND_FORMAT,
           "bindings": {"q": "1/3", "k1": "-7", "t": "0.25"}}
    out = read_binding(doc)
    assert out == {"q": F(1, 3), "k1": F(-7), "t": F(1, 4)}
    for bad in ({"q": 0.3}, {"q": "a"}, {"1x": "2"}):
        with pytest.raises(UsageError):
            read_binding({"format": BIND_FORMAT, "bindings": bad})
    with pytest.raises(UsageError):
        read_binding({"format": "qheun-params/2", "bindings": {}})


def test_read_binding_bounds_the_decimal_exponent():
    # Fraction would expand these into a billion digits, for hours
    edge = "1e%d" % MAX_EXPONENT
    doc = {"format": BIND_FORMAT, "bindings": {"q": edge, "t": "2.5e-3"}}
    assert read_binding(doc) == {"q": F(10) ** MAX_EXPONENT, "t": F(1, 400)}
    for bad in ("1e1000000000", "1e-1000000000", "1E1_000_000_000",
                "1e%d" % (MAX_EXPONENT + 1), "1e" + "9" * 5000):
        with pytest.raises(UsageError, match="exponent"):
            read_binding({"format": BIND_FORMAT, "bindings": {"q": bad}})


def test_hostile_inputs_exit_2_without_a_traceback(a4_binding_file):
    doc = derive_doc("murata", "A4")
    deep_json = "[" * 100000 + "]" * 100000
    deep_expr = json.dumps(dict(_json(doc), P={"0": "(" * 5000 + "q"
                                                    + ")" * 5000}))
    for argv, stdin in ((["classify"], deep_json),
                        (["classify"], deep_expr),
                        (["limit", "--preset", "heun", "--crosscheck",
                          "1e-1000000000"], ""),
                        (["gauge", "--kind", "power", "--exponent",
                          "1e1000000000"], doc),
                        (["series", "--bind", a4_binding_file,
                          "--residual-at", "1e1000000000"], doc)):
        code, _, err = call(argv, stdin)
        assert code == 2, err
        assert "Traceback" not in err and err.startswith("error:")


# -- derive ----------------------------------------------------------------

def test_derive_matches_recorded_row_up_to_accessory_name():
    doc = _json(derive_doc("murata", "A6"))
    derived = read_equation(doc)
    reference = reference_equation("murata", "A6")
    formula = accessory_formula("murata", "A6")
    assert str(formula) == doc["Z"]["1"]
    for side in ("P", "Z", "M"):
        for k in range(3):
            ref = reference.coeff(side, k).substitute({"d": formula})
            assert ratfun_eq(derived.coeff(side, k), ref)


def test_derive_is_deterministic():
    assert derive_doc("kny", "D5") == derive_doc("kny", "D5")


def test_derive_no_gauge_exposes_raw_pencil_form():
    recorded = derive_doc("kny", "E3a")
    raw = derive_doc("kny", "E3a", "--no-gauge")
    assert recorded != raw
    assert _json(raw)["format"] == EQ_FORMAT
    assert derive_doc("kny", "E3a", "--gauge") == recorded


def test_derive_gauge_flag_inert_outside_recorded_gauged_rows():
    plain = derive_doc("kny", "E3b")
    assert derive_doc("kny", "E3b", "--gauge") == plain
    assert derive_doc("kny", "E3b", "--no-gauge") == plain


def test_derive_variant_routes():
    alt = _json(derive_doc("murata", "A5", "--variant", "alt"))
    assert "d" in alt["parameters"]
    code, _, err = call(["derive", "--catalog", "murata", "--family", "A4",
                         "--variant", "alt"])
    assert code == 2 and "variant" in err


def test_derive_usage_errors():
    assert call(["derive", "--catalog", "kny", "--family", "A4"])[0] == 2
    assert call(["derive", "--catalog", "murata", "--family", "A4",
                 "--gauge"])[0] == 2
    assert call(["derive", "--catalog", "kny", "--family", "D5",
                 "--variant", "alt"])[0] == 2
    assert call(["derive", "--catalog", "np", "--family", "D5"])[0] == 2


def test_derive_to_file(tmp_path):
    target = tmp_path / "eq.json"
    code, out, _ = call(["derive", "--catalog", "murata", "--family",
                         "A7p", "--out", str(target)])
    assert code == 0 and out == ""
    assert _json(target.read_text())["format"] == EQ_FORMAT


# -- classify and polygon --------------------------------------------------

def test_classify_catalog_vectors():
    for family, clazz in (("A4", "Confluent"), ("A5", "DoublyConfluent"),
                          ("A6", "Unclassified")):
        code, out, _ = call(["classify"], stdin=derive_doc("murata", family))
        assert code == 0
        assert _json(out)["class"] == clazz


def test_classify_hypergeometric_pattern():
    doc = {"format": EQ_FORMAT, "variable": "x", "parameters": ["q"],
           "convention": CONVENTION,
           "P": {"0": "1"}, "Z": {"0": "-1 - q", "1": "q"},
           "M": {"0": "q", "1": "-1"}}
    code, out, _ = call(["classify"], stdin=json.dumps(doc))
    assert code == 0
    assert _json(out)["class"] == "HypergeometricType"


def test_polygon_ascii_and_svg():
    doc = derive_doc("murata", "A6")
    code, out, _ = call(["polygon"], stdin=doc)
    assert code == 0 and "hull:" in out and "M  Z  P" in out
    code, out, _ = call(["polygon", "--format", "svg"], stdin=doc)
    assert code == 0 and out.lstrip().startswith("<svg")


# -- gauge -----------------------------------------------------------------

def test_gauge_power_round_trip():
    doc = derive_doc("murata", "A4")
    code, once, _ = call(["gauge", "--kind", "power", "--exponent", "3"],
                         stdin=doc)
    assert code == 0
    code, back, _ = call(["gauge", "--kind", "power", "--exponent", "-3"],
                         stdin=once)
    assert code == 0
    assert _json(back) == _json(doc)


def test_gauge_invert_is_an_involution():
    doc = derive_doc("kny", "A1w8")
    code, once, _ = call(["gauge", "--kind", "invert"], stdin=doc)
    assert code == 0
    assert _json(once) != _json(doc)
    code, back, _ = call(["gauge", "--kind", "invert"], stdin=once)
    assert _json(back) == _json(doc)


def test_gauge_pochhammer_moves_a_factor():
    doc = derive_doc("murata", "A4")
    code, out, _ = call(["gauge", "--kind", "pochhammer", "--alpha",
                         "1/(a2*t)"], stdin=doc)
    assert code == 0
    before, after = _json(doc), _json(out)
    assert before["M"] != after["M"] and before["P"] != after["P"]
    assert before["Z"] == after["Z"]


def test_gauge_linear_accepts_the_variable():
    doc = derive_doc("murata", "A6")
    code, out, _ = call(["gauge", "--kind", "linear", "--factor",
                         "x - a1*t"], stdin=doc)
    assert code == 0 and _json(out)["format"] == EQ_FORMAT


def test_gauge_error_codes():
    doc = derive_doc("murata", "A4")
    assert call(["gauge", "--kind", "power"], stdin=doc)[0] == 2
    assert call(["gauge", "--kind", "theta"], stdin=doc)[0] == 2
    assert call(["gauge", "--kind", "power", "--exponent", "x"],
                stdin=doc)[0] == 2
    assert call(["gauge", "--kind", "pochhammer", "--alpha", "x"],
                stdin=doc)[0] == 2
    # a factor M does not contain: domain error
    assert call(["gauge", "--kind", "pochhammer", "--alpha", "99"],
                stdin=doc)[0] == 3


# -- exponents and series --------------------------------------------------

def test_exponents_symbolic():
    code, out, _ = call(["exponents", "--at", "infinity"],
                        stdin=derive_doc("murata", "A4"))
    assert code == 0
    doc = _json(out)
    assert doc["location"] == "Infinity"
    assert doc["roots"] is None
    assert set(doc["characteristic"]) == {"0", "1", "2"}


def test_exponents_bound_roots_are_exact_strings(a4_binding_file):
    code, out, _ = call(["exponents", "--at", "zero", "--bind",
                         a4_binding_file], stdin=derive_doc("murata", "A4"))
    assert code == 0
    doc = _json(out)
    assert doc["regularity"] == "RegularLike"
    assert set(doc["roots"]) == {"1/2", "3"}


def test_series_document(a4_binding_file):
    doc = derive_doc("murata", "A4")
    code, out, _ = call(["series", "--bind", a4_binding_file, "--root",
                         "0", "--terms", "8", "--residual-at", "1/20"],
                        stdin=doc)
    assert code == 0
    series = _json(out)
    assert series["exponentBase"] == "1/2"
    assert len(series["coefficients"]) == 9
    assert series["coefficients"][0] == "1"
    assert all(isinstance(c, str) for c in series["coefficients"])
    res = F(series["residual"]["value"])
    assert 0 < res < 1
    # deeper truncation shrinks the residual
    code, out, _ = call(["series", "--bind", a4_binding_file, "--root",
                         "0", "--terms", "16", "--residual-at", "1/20"],
                        stdin=doc)
    assert F(_json(out)["residual"]["value"]) < res / 10


def test_series_other_root(a4_binding_file):
    code, out, _ = call(["series", "--bind", a4_binding_file, "--root",
                         "1", "--terms", "4"],
                        stdin=derive_doc("murata", "A4"))
    assert code == 0 and _json(out)["exponentBase"] == "3"


def test_series_needs_complete_binding(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"format": BIND_FORMAT,
                                "bindings": {"q": "1/3"}}))
    code, _, err = call(["series", "--bind", str(path), "--terms", "4"],
                        stdin=derive_doc("murata", "A4"))
    assert code == 3 and "parameter" in err


def test_series_flag_validation(a4_binding_file):
    doc = derive_doc("murata", "A4")
    assert call(["series", "--bind", a4_binding_file, "--terms", "-2"],
                stdin=doc)[0] == 2
    assert call(["series", "--bind", a4_binding_file, "--root", "2"],
                stdin=doc)[0] == 2


@contextlib.contextmanager
def _unlimited_digits():
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


_BIG = "1" + "0" * 4999 + "7"      # past Python's 4300-digit str/int cap


def test_series_beyond_the_int_digit_limit_is_exact(a4_binding_file):
    doc = derive_doc("murata", "A4")
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = call(["series", "--bind", a4_binding_file,
                           "--terms", "100"], stdin=doc)
    assert code == 0, err
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before
    coefficients = _json(out)["coefficients"]
    assert max(map(len, coefficients)) > 4300
    sol = series_solution(read_equation(_json(doc)),
                          read_binding(_A4_ROOT_BINDING), 0, 100)
    with _unlimited_digits():
        assert [F(c) for c in coefficients] == list(sol.coefficients)


def test_long_literals_parse_in_documents(tmp_path):
    # s^2 - (1 + N) s + N has the roots 1 and N
    doc = {"format": EQ_FORMAT, "variable": "x", "parameters": [],
           "convention": CONVENTION,
           "P": {"0": "1"}, "Z": {"0": "-1 - " + _BIG}, "M": {"0": _BIG}}
    code, out, err = call(["exponents"], stdin=json.dumps(doc))
    assert code == 0, err
    assert _json(out)["roots"] == ["1", _BIG]
    doc.update(parameters=["q"], Z={"0": "-1 - q"}, M={"0": "q"})
    path = tmp_path / "bind.json"
    path.write_text(json.dumps({"format": BIND_FORMAT,
                                "bindings": {"q": _BIG}}))
    code, out, err = call(["exponents", "--bind", str(path)],
                          stdin=json.dumps(doc))
    assert code == 0, err
    assert _json(out)["roots"] == ["1", _BIG]


# -- limit -----------------------------------------------------------------

def test_limit_preset_document():
    code, out, _ = call(["limit", "--preset", "confluent"])
    assert code == 0
    doc = _json(out)
    assert doc["class"] == "CHE"
    assert doc["originExponent"] == "0"
    assert doc["second"] == ["-1", "1"]
    assert doc["singularities"] == ["0", "1", "Infinity"]
    assert doc["limits"]["b01"] == "1/2"
    assert doc["display"] == {"class": "CHE", "alpha": "0", "beta": "1",
                              "gamma": "1/2", "delta": "1/2",
                              "accessory": "1"}


def test_limit_family_file(tmp_path):
    fam = {"format": FAMILY_FORMAT,
           "plus": ["1 + eps/2", "0", "0"],
           "zero": ["-2 - eps/2", "eps + eps^2", "-eps - eps^2"],
           "minus": ["1", "-eps", "eps"]}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    target = tmp_path / "ode.json"
    code, out, _ = call(["limit", "--family-file", str(path),
                         "--emit", str(target)])
    assert code == 0 and out == ""
    doc = _json(target.read_text())
    assert doc["class"] == "BHE"
    assert doc["display"]["class"] == "BHE"


def test_limit_crosscheck_report(tmp_path):
    target = tmp_path / "ode.json"
    code, out, _ = call(["limit", "--preset", "biconfluent",
                         "--emit", str(target), "--crosscheck", "1/100"])
    assert code == 0
    report = _json(out)
    assert report["format"] == "qheun-crosscheck/1"
    assert 5 <= report["ratio"] <= 20


def test_limit_reduced_display_reports_obstruction(tmp_path):
    # engineered family whose limit lands in the reduced DHE class
    fam = {"format": FAMILY_FORMAT,
           "plus": ["0", "1", "0"],
           "zero": ["0", "-2", "-eps - eps^2"],
           "minus": ["0", "1", "eps"]}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam))
    code, out, _ = call(["limit", "--family-file", str(path)])
    assert code == 0
    doc = _json(out)
    assert doc["class"] == "ReducedDHE"
    assert "reduced DHE" in doc["display"]["obstruction"]


def test_limit_flag_validation(tmp_path):
    assert call(["limit"])[0] == 2
    assert call(["limit", "--preset", "nope"])[0] == 2
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"format": FAMILY_FORMAT,
                                "plus": ["1/eps", "0", "0"],
                                "zero": ["-2", "0", "0"],
                                "minus": ["1", "0", "0"]}))
    assert call(["limit", "--family-file", str(path)])[0] == 3
    path2 = tmp_path / "bad.json"
    path2.write_text(json.dumps({"format": FAMILY_FORMAT,
                                 "plus": ["1", "0"],
                                 "zero": ["-2", "0", "0"],
                                 "minus": ["1", "0", "0"]}))
    assert call(["limit", "--family-file", str(path2)])[0] == 2


# -- verify ----------------------------------------------------------------

def test_verify_full_report():
    code, out, _ = call(["verify"])
    rows = [_json(line) for line in out.strip().splitlines()]
    assert len(rows) == 15
    assert [r["family"] for r in rows] == list(MURATA_FAMILIES +
                                               KNY_FAMILIES)
    assert list(rows[0]) == ["family", "catalog", "match",
                             "accessorySign", "discrepancies"]
    mismatched = [r["family"] for r in rows if not r["match"]]
    # the replayed derivations agree with every row of both tables
    assert code == 0
    assert mismatched == []


def test_verify_murata_is_green():
    code, out, _ = call(["verify", "--catalog", "murata"])
    assert code == 0
    rows = [_json(line) for line in out.strip().splitlines()]
    assert all(r["match"] for r in rows)
    assert [r["accessorySign"] for r in rows] == [
        "flipped", "asPrinted", "flipped", "asPrinted", "asPrinted",
        "asPrinted", "asPrinted"]


def test_verify_single_family():
    code, out, _ = call(["verify", "--family", "A4"])
    rows = [_json(line) for line in out.strip().splitlines()]
    assert code == 0 and len(rows) == 1
    assert rows[0]["accessorySign"] == "flipped"
    assert rows[0]["discrepancies"] == []


def test_verify_is_byte_deterministic():
    assert call(["verify"])[1] == call(["verify"])[1]


def test_verify_unknown_filter():
    assert call(["verify", "--family", "Z9"])[0] == 2


# -- dispatch --------------------------------------------------------------

def test_no_command_is_usage_error():
    assert call([])[0] == 2


def test_help_exits_cleanly():
    assert call(["--help"])[0] == 0
    assert call(["limit", "--help"])[0] == 0


def test_unknown_flag():
    assert call(["derive", "--nope"])[0] == 2


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_keeps_the_exit_code(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qheun.cli", "limit", "--preset", "heun",
             "--crosscheck", "1/100"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qheun.cli", "verify", "--catalog",
         "murata", "--family", "A7"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert _json(proc.stdout)["match"] is True


# -- fuzz ------------------------------------------------------------------

# Small inputs only: each example runs one command in process, and no
# strategy reaches a large exponent or a full `verify`.
_EXPR = st.recursive(
    st.sampled_from(("x", "z", "q", "t", "a1", "n4", "0", "1", "7", "x1",
                     "")),
    lambda inner: st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({})".format, inner),
        st.builds("-{}".format, inner),
        st.builds("{}^{}".format, inner, st.integers(0, 3))),
    max_leaves=6)
_TEXT = st.one_of(_EXPR, st.text(alphabet="xq0127+-*/() .e_", max_size=12))
_RATIONAL = st.sampled_from(("1/100", "1/2", "3", "-2", "0", "1e-2",
                             "1e99999", "x", ""))
_SIDE = st.dictionaries(
    st.sampled_from(("0", "1", "2", "3", "01", "-1", "1001")),
    st.one_of(_TEXT, st.integers(-3, 3)), max_size=3)
_EQ_DOC = st.fixed_dictionaries({
    "format": st.sampled_from((EQ_FORMAT, EQ_FORMAT, "qheun-eq/2")),
    "variable": st.sampled_from(("x", "x", "z", "1x")),
    "parameters": st.lists(st.sampled_from(("q", "t", "a1", "n4", "x")),
                           max_size=4, unique=True),
    "convention": st.sampled_from((CONVENTION, CONVENTION, "other")),
    "P": _SIDE, "Z": _SIDE, "M": _SIDE})
_ROW_DOCS = [write_equation(reference_equation(catalog, family))
             for catalog, roster in (("murata", MURATA_FAMILIES),
                                     ("kny", KNY_FAMILIES))
             for family in roster]
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-9, 9), _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=8)
_STDIN = st.one_of(st.builds(json.dumps, _EQ_DOC),
                   st.builds(json.dumps, st.sampled_from(_ROW_DOCS)),
                   st.builds(json.dumps, _JSON),
                   st.text(max_size=16))
_FLAGS = {
    "derive": ("--catalog", "--family", "--variant", "--gauge",
               "--no-gauge"),
    "classify": (),
    "polygon": ("--format",),
    "gauge": ("--kind", "--exponent", "--alpha", "--factor"),
    "exponents": ("--at", "--bind"),
    "series": ("--bind", "--root", "--terms", "--residual-at"),
    "limit": ("--preset", "--family-file", "--crosscheck"),
    "verify": ("--catalog",),
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    bind = root / "bind.json"
    bind.write_text(json.dumps(_A4_ROOT_BINDING))
    family = root / "family.json"
    family.write_text(json.dumps({"format": FAMILY_FORMAT,
                                  "plus": ["1", "0", "eps"],
                                  "zero": ["-2", "eps", "0"],
                                  "minus": ["1", "0", "0"]}))
    return str(bind), str(family), str(root / "missing.json")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzz_run_exits_with_a_documented_code(fuzz_files, data):
    bind, family_file, missing = fuzz_files
    values = {
        "--catalog": st.sampled_from(("murata", "kny", "other")),
        "--family": st.sampled_from(MURATA_FAMILIES + KNY_FAMILIES
                                    + ("Z9",)),
        "--variant": st.sampled_from(("paper", "alt", "other")),
        "--format": st.sampled_from(("ascii", "svg", "png")),
        "--kind": st.sampled_from(("power", "pochhammer", "theta",
                                   "linear", "invert", "other")),
        "--exponent": _RATIONAL, "--residual-at": _RATIONAL,
        "--crosscheck": _RATIONAL, "--alpha": _TEXT, "--factor": _TEXT,
        "--at": st.sampled_from(("zero", "infinity", "other")),
        "--bind": st.sampled_from((bind, missing)),
        "--family-file": st.sampled_from((family_file, missing)),
        "--root": st.sampled_from(("0", "1", "2")),
        "--terms": st.sampled_from(("0", "5", "12", "-1", "x")),
        "--preset": st.sampled_from(("heun", "confluent", "biconfluent",
                                     "doubly-confluent", "other")),
    }
    command = data.draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command == "verify":
        # one family at a time keeps each example short
        argv += ["--family", data.draw(values["--family"])]
    for flag in data.draw(st.lists(st.sampled_from(_FLAGS[command] or ("",)),
                                   max_size=4, unique=True)):
        if flag in ("--gauge", "--no-gauge"):
            argv.append(flag)
        elif flag:
            argv += [flag, data.draw(values[flag])]
    stdin = data.draw(_STDIN)
    code, _, err = call(argv, stdin)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
