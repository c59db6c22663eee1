"""Equation container, support diagrams, and the named-form classifier."""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from qheun import xpoly
from qheun.qdiff import (
    NAMED_FORMS, QDiffEq, ThreeTermRelation, classify,
    equations_equal, equations_proportional, newton_diagram, render_diagram)
from qheun.symkernel import parse_expr, rat, sym

U = ["q", "t", "a", "b", "c", "k1", "x"]


def P(text):
    return parse_expr(text, U)


SLOTS = [(s, k) for s in ("P", "Z", "M") for k in (2, 1, 0)]


def eq_from_pattern(nz, value=None):
    sides = {"P": [rat(0)] * 3, "Z": [rat(0)] * 3, "M": [rat(0)] * 3}
    for s, k in nz:
        sides[s][k] = rat(1) if value is None else value
    return QDiffEq(sides["P"], sides["Z"], sides["M"])


# ---------------------------------------------------------------------------
# construction


def test_trailing_zeros_trimmed():
    e = QDiffEq([rat(1), rat(0), rat(0)], [rat(0)], [rat(2), rat(3)])
    assert len(e.P) == 1
    assert len(e.Z) == 0
    assert len(e.M) == 2
    assert e.degree == 1
    assert e.coeff("Z", 2).is_zero
    assert e.coeff("M", 1) == rat(3)


def test_all_zero_rejected():
    with pytest.raises(ValueError):
        QDiffEq([rat(0)], [], [rat(0), rat(0)])
    with pytest.raises(ValueError, match="identically zero"):
        ThreeTermRelation(0, rat(0), 0)


def test_variable_in_coefficient_rejected():
    with pytest.raises(ValueError):
        QDiffEq([sym("x")], [rat(1)], [rat(1)])
    # fine under a different variable name
    e = QDiffEq([sym("x")], [rat(1)], [rat(1)], variable="z")
    assert e.degree == 0


def test_immutable():
    e = eq_from_pattern({("P", 0)})
    with pytest.raises(AttributeError):
        e.P = ()


def test_substitute_binds_every_slot_and_keeps_the_variable():
    e = QDiffEq([P("a*q"), P("b/(q + 1)"), P("q - 2")], [P("a + b")],
                [rat(0), P("(a - b)/q")], variable="z")
    binding = {"q": rat(2), "a": P("b + t"), "b": P("t")}
    bound = e.substitute(binding)
    assert bound.variable == "z"
    # q - 2 vanishes, so the P side loses its top slot
    assert bound.degree == 1 and len(bound.P) == 2
    for side, k in itertools.product("PZM", range(e.degree + 1)):
        assert bound.coeff(side, k) == e.coeff(side, k).substitute(binding)
    # simultaneous: a - b -> (b + t) - t
    assert str(bound.coeff("M", 1)) == "1/2*b"


# ---------------------------------------------------------------------------
# clearing scalar coefficients


def test_from_scalar_clears_lcm_of_denominators():
    e = QDiffEq.from_scalar_coefficients(
        P("1/(x - t)"), P("x/(x - t)"), P("1"))
    assert list(e.P) == [rat(1)]
    assert list(e.Z) == [rat(0), rat(1)]
    assert list(e.M) == [-sym("t"), rat(1)]


def test_from_scalar_distinct_denominators():
    e = QDiffEq.from_scalar_coefficients(
        P("1/(x - t)"), P("0"), P("1/(x - a)"))
    assert list(e.P) == [-sym("a"), rat(1)]
    assert len(e.Z) == 0
    assert list(e.M) == [-sym("t"), rat(1)]


def test_from_scalar_does_not_cancel_shared_polynomial_factors():
    # (x^2 - t^2)/(x - t) is left as a quotient, so the cleared equation
    # keeps the factor (x - t) on the other sides instead of reducing.
    e = QDiffEq.from_scalar_coefficients(
        P("(x^2 - t^2)/(x - t)"), P("1"), P("1"))
    assert list(e.P) == [-sym("t") ** 2, rat(0), rat(1)]
    assert list(e.Z) == [-sym("t"), rat(1)]
    assert list(e.M) == [-sym("t"), rat(1)]


def test_from_scalar_param_denominator_stays_inside():
    e = QDiffEq.from_scalar_coefficients(P("x/q"), P("1"), P("0"))
    assert e.coeff("P", 1) == P("1/q")
    assert list(e.Z) == [rat(1)]


# ---------------------------------------------------------------------------
# diagrams


def test_full_support_square_hull():
    d = newton_diagram(eq_from_pattern(set(SLOTS)))
    assert d.filled == frozenset(SLOTS)
    assert d.hull == ((0, 0), (2, 0), (2, 2), (0, 2))


def test_corner_support_square_hull():
    corners = {("P", 2), ("P", 0), ("M", 2), ("M", 0)}
    d = newton_diagram(eq_from_pattern(corners))
    assert d.filled == frozenset(corners)
    assert set(d.hull) == {(0, 0), (2, 0), (2, 2), (0, 2)}


def test_six_point_support_hull():
    pts = {("P", 0), ("P", 1), ("Z", 0), ("Z", 1), ("Z", 2), ("M", 2)}
    d = newton_diagram(eq_from_pattern(pts))
    assert d.filled == frozenset(pts)
    assert d.hull == ((0, 2), (1, 0), (2, 0), (2, 1), (1, 2))


def test_kite_support_hull():
    pts = {("P", 0), ("Z", 0), ("Z", 1), ("Z", 2), ("M", 2)}
    d = newton_diagram(eq_from_pattern(pts))
    assert d.hull == ((0, 2), (1, 0), (2, 0), (1, 2))


def test_degenerate_hulls():
    assert newton_diagram(eq_from_pattern({("Z", 1)})).hull == ((1, 1),)
    assert newton_diagram(
        eq_from_pattern({("Z", 1), ("P", 2)})).hull == ((1, 1), (2, 2))
    line = newton_diagram(
        eq_from_pattern({("M", 0), ("Z", 0), ("P", 0)}))
    assert line.hull == ((0, 0), (2, 0))


def test_render_ascii_golden():
    corners = {("P", 2), ("P", 0), ("M", 2), ("M", 0)}
    out = render_diagram(newton_diagram(eq_from_pattern(corners)))
    assert out == (
        "2  *  o  *\n"
        "1  o  o  o\n"
        "0  *  o  *\n"
        "   M  Z  P\n"
        "hull: (0,0) (2,0) (2,2) (0,2)")


def test_render_svg_shape():
    corners = {("P", 2), ("P", 0), ("M", 2), ("M", 0)}
    d = newton_diagram(eq_from_pattern(corners))
    svg = render_diagram(d, format="svg")
    assert svg.startswith(
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 200 160">')
    assert '<circle cx="40" cy="60" r="5" fill="black"/>' in svg
    assert ('<circle cx="80" cy="100" r="5" fill="white" stroke="black"/>'
            in svg)
    assert '<path d="M 40 140 L 120 140 L 120 60 L 40 60 Z"' in svg
    assert svg == render_diagram(d, format="svg")
    assert svg.count("<circle") == 9


def test_render_svg_keeps_tall_diagrams_in_the_picture():
    # degree 4, the shape a linear gauge gives the kny D5 row
    d = newton_diagram(QDiffEq([rat(0)] * 4 + [rat(1)], [rat(1)],
                               [rat(1), rat(0), rat(2)]))
    svg = render_diagram(d, format="svg")
    width, height = map(int, re.search(
        r'viewBox="0 0 (\d+) (\d+)"', svg).groups())
    assert (width, height) == (200, 200)
    circles = re.findall(r'<circle cx="(-?\d+)" cy="(-?\d+)"', svg)
    assert len(circles) == 15
    path = re.search(r'<path d="([^"]*) Z"', svg).group(1)
    vertices = re.findall(r"[ML] (-?\d+) (-?\d+)", path)
    assert len(vertices) == len(d.hull) == 4
    for x, y in circles + vertices:
        assert 0 <= int(x) <= width and 0 <= int(y) <= height
    # row 0 stays 20 above the bottom edge, as at degree <= 3
    assert '<circle cx="80" cy="180" r="5" fill="black"/>' in svg


def test_render_unknown_format():
    d = newton_diagram(eq_from_pattern({("P", 0)}))
    with pytest.raises(ValueError):
        render_diagram(d, format="png")


# ---------------------------------------------------------------------------
# classification


def test_qheun_and_hypergeometric():
    assert classify(eq_from_pattern(set(SLOTS))).class_ == "QHeun"
    corners = {("P", 2), ("P", 0), ("M", 2), ("M", 0)}
    lab = classify(eq_from_pattern(corners))
    assert lab.class_ == "QHeun"
    assert lab.variant_form is None
    assert lab.reduction == "NotApplicable"
    assert lab.signature == "101000101"

    hyp = classify(eq_from_pattern(
        {("P", 1), ("P", 0), ("Z", 1), ("Z", 0), ("M", 1), ("M", 0)}))
    assert hyp.class_ == "HypergeometricType"


EXPECTED_MINIMAL = {
    "cqHE": ("Confluent", "SinglyReduced"),
    "cqHE2": ("Confluent", "SinglyReduced"),
    "cqHE3": ("Confluent", "SinglyReduced"),
    "cqHE4": ("Confluent", "SinglyReduced"),
    "bqHE": ("Biconfluent", "NotApplicable"),
    "bqHE2": ("Biconfluent", "NotApplicable"),
    "bqHE3": ("Biconfluent", "NotApplicable"),
    "bqHE4": ("Biconfluent", "NotApplicable"),
    "bqHE5": ("Biconfluent", "NotApplicable"),
    "bqHE6": ("Biconfluent", "NotApplicable"),
    "dqHE": ("DoublyConfluent", "DoublyReduced"),
    "dqHE2": ("DoublyConfluent", "DoublyReduced"),
    "dqHE3": ("DoublyConfluent", "DoublyReduced"),
    "dqHE4": ("DoublyConfluent", "DoublyReduced"),
}


def test_named_forms_minimal_realizations():
    for name, clazz, zeros, nonzeros in NAMED_FORMS:
        lab = classify(eq_from_pattern(set(nonzeros)))
        assert lab.variant_form == name, name
        assert (lab.class_, lab.reduction) == EXPECTED_MINIMAL[name], name


def test_confluent_reduction_corners():
    base = {("P", 1), ("P", 0), ("M", 2), ("M", 1), ("M", 0)}
    lab = classify(eq_from_pattern(base | {("Z", 2)}))
    assert (lab.variant_form, lab.reduction) == ("cqHE", "NonReduced")
    lab = classify(eq_from_pattern(base | {("Z", 1), ("Z", 0)}))
    assert (lab.variant_form, lab.reduction) == ("cqHE", "SinglyReduced")

    base3 = {("P", 2), ("P", 1), ("P", 0), ("M", 2), ("M", 1)}
    lab = classify(eq_from_pattern(base3 | {("Z", 0)}))
    assert (lab.variant_form, lab.reduction) == ("cqHE3", "NonReduced")
    lab = classify(eq_from_pattern(base3 | {("Z", 2)}))
    assert (lab.variant_form, lab.reduction) == ("cqHE3", "SinglyReduced")


def test_doubly_confluent_reduction_levels():
    base = {("P", 1), ("M", 2), ("M", 0)}
    cases = [
        ({("Z", 2), ("Z", 0)}, "NonReduced"),
        ({("Z", 2)}, "SinglyReduced"),
        ({("Z", 0)}, "SinglyReduced"),
        (set(), "DoublyReduced"),
    ]
    for extra, expect in cases:
        lab = classify(eq_from_pattern(base | extra | {("Z", 1)}))
        assert (lab.class_, lab.variant_form) == ("DoublyConfluent", "dqHE")
        assert lab.reduction == expect


def test_unclassified_signature():
    lab = classify(eq_from_pattern({("P", 2)}))
    assert lab.class_ == "Unclassified"
    assert lab.variant_form is None
    assert lab.signature == "100000000"


def test_degree_three_unclassified():
    e = QDiffEq([rat(1)], [], [rat(0), rat(0), rat(0), rat(1)])
    lab = classify(e)
    assert lab.class_ == "Unclassified"
    assert lab.signature.endswith("+deg3")


def test_every_pattern_matches_at_most_one_named_form():
    hits = {name: 0 for name, _, _, _ in NAMED_FORMS}
    for bits in itertools.product([False, True], repeat=9):
        nz = {slot for slot, b in zip(SLOTS, bits) if b}
        if not nz:
            continue
        matches = [
            name for name, _, zeros, nonzeros in NAMED_FORMS
            if all(p not in nz for p in zeros)
            and all(p in nz for p in nonzeros)]
        assert len(matches) <= 1, (nz, matches)
        qheun = {("P", 2), ("P", 0), ("M", 2), ("M", 0)} <= nz
        hyper = not nz & {("P", 2), ("Z", 2), ("M", 2)}
        if qheun or hyper:
            assert not matches, (nz, matches)
        lab = classify(eq_from_pattern(nz))
        if matches:
            assert lab.variant_form == matches[0]
            hits[matches[0]] += 1
        else:
            assert lab.variant_form is None
    # every named form is realizable
    assert all(n > 0 for n in hits.values())


SCALES = ["t", "1/q", "(t + 1)/(q*k1)", "-3/7"]


@given(
    nz=st.sets(st.sampled_from(SLOTS), min_size=1),
    scale=st.sampled_from(SCALES),
)
def test_classify_invariant_under_common_scaling(nz, scale):
    e = eq_from_pattern(nz)
    s = classify(e)
    assert classify(e.scaled(P(scale))) == s


@given(nz=st.sets(st.sampled_from(SLOTS), min_size=1))
def test_signature_matches_support(nz, ):
    e = eq_from_pattern(nz)
    sig = e.signature()
    for i, (side, k) in enumerate(
            [(s, k) for s in ("P", "Z", "M") for k in (2, 1, 0)]):
        assert (sig[i] == "1") == ((side, k) in nz)


# ---------------------------------------------------------------------------
# equation comparison helpers


def test_equations_proportional_by_parameter():
    e = eq_from_pattern({("P", 1), ("Z", 0), ("M", 2)})
    assert equations_proportional(e, e.scaled(P("t/(q + 1)")))
    assert not equations_equal(e, e.scaled(P("2")))


def test_equations_proportional_by_variable_factor():
    e = eq_from_pattern({("P", 0), ("Z", 0), ("M", 0)})
    shifted = QDiffEq(
        xpoly.mul(list(e.P), [rat(0), rat(1)]),
        xpoly.mul(list(e.Z), [rat(0), rat(1)]),
        xpoly.mul(list(e.M), [rat(0), rat(1)]))
    assert equations_proportional(e, shifted)
    other = eq_from_pattern({("P", 0), ("Z", 1), ("M", 0)})
    assert not equations_proportional(e, other)


def test_equations_proportional_zero_side_pattern():
    a = eq_from_pattern({("P", 0)})
    b = eq_from_pattern({("M", 0)})
    assert not equations_proportional(a, b)
