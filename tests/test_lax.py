"""Catalog derivations: invariants, elimination, strips, recorded rows."""

from fractions import Fraction
import contextlib
import copy
import functools
import io
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from qheun import climit, lax, odeheun, xpoly
from qheun.cli import run, write_equation
from qheun.gauge import gauge_linear
from qheun.lax import (KNY_FAMILIES, KNY_GAUGED, KNYParams, InvariantViolation,
                       MURATA_FAMILIES, MURATA_VARIANTS, MurataParams,
                       SubstitutionSingular,
                       accessory_formula, build_kny, build_murata,
                       derive_equation, kny_to_equation, reference_equation,
                       scalar_reduce, specialize, verify_family)
from qheun.qdiff import (QDiffEq, ThreeTermRelation, classify, equations_equal,
                         equations_proportional)
from qheun.local import series_solution
from qheun.symkernel import (DivergesAtZero, RatFun, as_ratfun, parse_expr,
                             rat, ratfun_eq, sym)

_VARS = ("x", "z", "q", "t", "l", "m", "w", "d", "g", "k1", "k2",
         "th1", "th2", "a1", "a2", "a3",
         "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8")


def P(text):
    return parse_expr(text, _VARS)


def frac(rng):
    return Fraction(rng.choice((-5, -4, -3, -2, 2, 3, 4, 5, 7)),
                    rng.choice((1, 2, 3, 5)))


_EXTRAS = {"A4": ("th1", "a1", "a2", "a3"), "A5": ("th1", "a1", "a2"),
           "A5s": ("th1", "a1", "a3"), "A6": ("th1", "a1"),
           "A6s": ("th1", "a3"), "A7": ("th1",), "A7p": ("th1",)}


def _murata_binding(family, rng, with_lm=True):
    names = ["q", "t", "k1", "k2"] + list(_EXTRAS[family])
    if with_lm:
        names += ["l", "m", "w"]
    elif family in ("A7", "A7p"):
        names += ["d"]
    else:
        names += ["m"]
    b = {n: frac(rng) for n in names}
    while b["q"] in (1, -1):
        b["q"] = frac(rng)
    if family == "A4":
        b["th2"] = -(b["k1"] * b["k2"] * b["a1"] * b["a2"] * b["a3"]
                     ) / b["th1"]
    return b


# -- matrix pencils ---------------------------------------------------------

_DET = {
    "A4": "k1*k2*(x - a1*t)*(x - a2*t)*(x - a3)",
    "A5": "k1*k2*x*(x - a1*t)*(x - a2*t)",
    "A5s": "k1*k2*x*(x - a1*t)*(x - a3)",
    "A6": "k1*k2*x^2*(x - a1*t)",
    "A6s": "k1*k2*x^2*(x - a3)",
    "A7": "k1*k2*x^3",
    "A7p": "k1*k2*x^2",
}


@pytest.mark.parametrize("family", MURATA_FAMILIES)
def test_pencil_structural_identities(family):
    mat = build_murata(MurataParams(family))
    assert "w" in mat.a12.variables()
    assert "w" in mat.a21.variables()
    det = mat.det()
    assert "w" not in det.variables()
    surface = {"th2": P("-k1*k2*a1*a2*a3/th1")} if family == "A4" else {}
    stated = P(_DET[family])
    assert ratfun_eq(det.substitute(surface), stated.substitute(surface))
    a11, a22 = (a.substitute({"x": rat(0)}) for a in (mat.a11, mat.a22))
    eigs = (P("th1*t"), P("th2*t")) if family == "A4" else (P("th1*t"), rat(0))
    assert ratfun_eq((a11 + a22).substitute(surface),
                     (eigs[0] + eigs[1]).substitute(surface))
    assert ratfun_eq(det.substitute({"x": rat(0)}).substitute(surface),
                     (eigs[0] * eigs[1]).substitute(surface))


def test_a4_binding_must_satisfy_eigenvalue_product():
    with pytest.raises(InvariantViolation):
        MurataParams("A4", {"th1": 1, "th2": 1, "k1": 1, "k2": 1,
                            "a1": 1, "a2": 1, "a3": 1})


def test_degenerate_offdiagonal_scale_rejected():
    with pytest.raises(InvariantViolation):
        MurataParams("A5", {"w": 0})


@pytest.mark.parametrize("family", ("A4", "A6"))
def test_zero_shift_base_rejected(family):
    # q = 0 is no shift; the pencil entries divide by q
    with pytest.raises(InvariantViolation, match="base q"):
        derive_equation("murata", family, {"q": 0})


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError):
        MurataParams("A6", {"a3": 2})
    with pytest.raises(ValueError):
        MurataParams("D5")
    with pytest.raises(ValueError):
        KNYParams("A4")


@pytest.mark.parametrize("family", MURATA_FAMILIES)
def test_relation_annihilates_first_component(family):
    rng = random.Random(20260822 + MURATA_FAMILIES.index(family))
    done = 0
    while done < 3:
        b = _murata_binding(family, rng)
        try:
            mat = build_murata(MurataParams(family, b))
            rel = scalar_reduce(mat)
        except ZeroDivisionError:
            continue
        q = b["q"]
        y0 = (Fraction(2, 3), Fraction(-1, 4))
        for numer in range(2, 60):
            x0 = Fraction(numer, 7)
            try:
                rows = [[mat.a11, mat.a12], [mat.a21, mat.a22]]
                a_x0 = [[e.evaluate({"x": x0}) for e in r] for r in rows]
                a_qx0 = [[e.evaluate({"x": q * x0}) for e in r] for r in rows]
                at = {"x": x0, "q": q}
                u = rel.up.evaluate(at)
                v = rel.mid.evaluate(at)
                lo = rel.low.evaluate(at)
            except ZeroDivisionError:
                continue
            y1 = (a_x0[0][0] * y0[0] + a_x0[0][1] * y0[1],
                  a_x0[1][0] * y0[0] + a_x0[1][1] * y0[1])
            y2 = (a_qx0[0][0] * y1[0] + a_qx0[0][1] * y1[1],
                  a_qx0[1][0] * y1[0] + a_qx0[1][1] * y1[1])
            assert u * y2[0] + v * y1[0] + lo * y0[0] == 0
            done += 1
            break
        else:
            pytest.fail("no usable sample point found")


# -- the generic three-term relation ----------------------------------------

# Quadratic and linear slots of the middle numerator, written out per
# family.  The A4 display elsewhere adds spurious +-2*q*k2 pieces that
# contradict both the matrix entries and its own later restriction, and
# the A5 quadratic slot prints /m where the matrix gives /(m*l); the
# corrected values are used here and the discrepancies pinned below.
_THETA = {"A4": "(th1 + th2)*t"}

_B2 = {
    "A4": "q*(q + 1)*k1*l - q^2*k1*k2*m*(l - a3)/l + q*(th1 + th2)*t/l"
          " - (l - a1*t)*(l - a2*t)/(m*l)",
    "A5": "q*(q + 1)*k1*l - q^2*k1*k2*m + q*th1*t/l"
          " - (l - a1*t)*(l - a2*t)/(m*l)",
    "A5s": "q*(q + 1)*k1*l - q^2*k1*k2*m*(l - a3)/l + q*th1*t/l"
           " - (l - a1*t)/m",
    "A6": "q*(q + 1)*k1*l - q^2*k1*k2*m + q*th1*t/l - (l - a1*t)/m",
    "A6s": "q*(q + 1)*k1*l - q^2*k1*k2*m*(l - a3)/l + q*th1*t/l - l/m",
    "A7": "q*(q + 1)*k1*l - q^2*k1*k2*m + q*th1*t/l - l/m",
    "A7p": "q*(q + 1)*k1*l - q^2*k1*k2*m/l + q*th1*t/l - l/m",
}

_B1 = {
    "A4": "q*k1*l^2 - q*k1*k2*m*(l - a3) + (q + 1)*(th1 + th2)*t"
          " - (l - a1*t)*(l - a2*t)/m",
    "A5": "q*k1*l^2 - q*k1*k2*m*l + (q + 1)*th1*t"
          " - (l - a1*t)*(l - a2*t)/m",
    "A5s": "q*k1*l^2 - q*k1*k2*m*(l - a3) + (q + 1)*th1*t - l*(l - a1*t)/m",
    "A6": "q*k1*l^2 - q*k1*k2*m*l + (q + 1)*th1*t - l*(l - a1*t)/m",
    "A6s": "q*k1*l^2 - q*k1*k2*m*(l - a3) + (q + 1)*th1*t - l^2/m",
    "A7": "q*k1*l^2 - q*k1*k2*m*l + (q + 1)*th1*t - l^2/m",
    "A7p": "q*k1*l^2 - q*k1*k2*m + (q + 1)*th1*t - l^2/m",
}

_LOW = {
    "A4": "k1*k2*(q*x - l)*(x - a1*t)*(x - a2*t)*(x - a3)/(x - l)",
    "A5": "k1*k2*x*(q*x - l)*(x - a1*t)*(x - a2*t)/(x - l)",
    "A5s": "k1*k2*x*(q*x - l)*(x - a1*t)*(x - a3)/(x - l)",
    "A6": "k1*k2*x^2*(q*x - l)*(x - a1*t)/(x - l)",
    "A6s": "k1*k2*x^2*(q*x - l)*(x - a3)/(x - l)",
    "A7": "k1*k2*x^3*(q*x - l)/(x - l)",
    "A7p": "k1*k2*x^2*(q*x - l)/(x - l)",
}


def _mid_from(theta, b2, b1):
    x, l = sym("x"), sym("l")
    num = P("q^2*k1") * x ** 3 - b2 * x ** 2 + b1 * x - l * theta
    return -num / (x - l)


@pytest.mark.parametrize("family", MURATA_FAMILIES)
def test_reduction_matches_recorded_cubic_display(family):
    rel = scalar_reduce(build_murata(MurataParams(family)))
    theta = P(_THETA.get(family, "th1*t"))
    assert ratfun_eq(rel.up, rat(1))
    assert ratfun_eq(rel.mid, _mid_from(theta, P(_B2[family]), P(_B1[family])))
    assert ratfun_eq(rel.low, P(_LOW[family]))


def test_recorded_a4_quadratic_slots_carry_extra_terms():
    rel = scalar_reduce(build_murata(MurataParams("A4")))
    theta = P(_THETA["A4"])
    as_recorded = _mid_from(theta, P(_B2["A4"]) + P("2*q*k2"),
                            P(_B1["A4"]) - P("2*q*k2*l"))
    assert not ratfun_eq(rel.mid, as_recorded)


def test_recorded_a5_quadratic_slot_misses_denominator_factor():
    rel = scalar_reduce(build_murata(MurataParams("A5")))
    b2_recorded = P("q*(q + 1)*k1*l - q^2*k1*k2*m + q*th1*t/l"
                    " - (l - a1*t)*(l - a2*t)/m")
    as_recorded = _mid_from(P("th1*t"), b2_recorded, P(_B1["A5"]))
    assert not ratfun_eq(rel.mid, as_recorded)


@pytest.mark.parametrize("family", MURATA_FAMILIES)
def test_offdiagonal_scale_cancels(family):
    rel = scalar_reduce(build_murata(MurataParams(family)))
    for c in (rel.up, rel.mid, rel.low):
        assert "w" not in c.variables()


# -- specialisation to the summary rows -------------------------------------

# Sign with which the derived accessory slot carries the recorded closed
# form, relative to the row's own d slot.
_ACCESSORY_SIGN = {"A4": -1, "A5": 1, "A5s": -1, "A6": 1, "A6s": 1}


def _row_with(catalog, family, dvalue):
    ref = reference_equation(catalog, family)
    if dvalue is None:
        return ref
    sides = [[c.substitute({"d": dvalue}) for c in ref.side(n)]
             for n in ("P", "Z", "M")]
    return QDiffEq(sides[0], sides[1], sides[2], ref.variable)


@pytest.mark.parametrize("family", MURATA_FAMILIES)
def test_specialized_equation_reproduces_summary_row(family):
    eq = derive_equation("murata", family)
    formula = accessory_formula("murata", family)
    dv = None if formula is None else _ACCESSORY_SIGN[family] * formula
    assert equations_equal(eq, _row_with("murata", family, dv))


def test_a5_alternative_limit_display():
    rel = scalar_reduce(build_murata(MurataParams("A5")))
    eq = specialize("A5", "alt", rel)
    expected = QDiffEq.from_scalar_coefficients(
        rat(1),
        P("-(q^2*k1*x^2"
          " - q*(th1*t*d + th1*(1/a1 + 1/a2) - a1*a2*k1*k2*t/th1)*x"
          " + th1*t)"),
        P("q*k1*k2*x*(x - a1*t)*(x - a2*t)"), "x")
    assert equations_equal(eq, expected)


def test_a6_alternative_limit_display():
    rel = scalar_reduce(build_murata(MurataParams("A6")))
    eq = specialize("A6", "alt", rel)
    expected = QDiffEq.from_scalar_coefficients(
        rat(1),
        P("-(q^2*k1*x^2 - q*th1*t*d*x + th1*t)"),
        P("q*k1*k2*x^2*(x - a1*t)"), "x")
    assert equations_equal(eq, expected)


def test_specialize_rejects_missing_variant():
    rel = scalar_reduce(build_murata(MurataParams("A4")))
    with pytest.raises(ValueError):
        specialize("A4", "alt", rel)


@pytest.mark.parametrize("family, variant, name", [
    ("A4", "paper", "l"), ("A6s", "paper", "l"), ("A5", "alt", "m"),
    ("A7", "alt", "m"), ("A7", "alt", "l"), ("A7p", "alt", "l")])
def test_specialize_refuses_a_binding_the_recipe_fixes(family, variant, name):
    binding = {name: Fraction(2)}
    rel = scalar_reduce(build_murata(MurataParams(family, binding)))
    with pytest.raises(ValueError, match="fixes %s" % name):
        specialize(family, variant, rel, binding)
    if variant == lax.MURATA_TABLE_VARIANT[family]:
        with pytest.raises(ValueError, match="fixes %s" % name):
            derive_equation("murata", family, binding)


def test_specialize_limit_divergence_propagates():
    rel = ThreeTermRelation(rat(1), P("1/l"), rat(1), "x")
    with pytest.raises(DivergesAtZero):
        specialize("A7", "alt", rel)


# -- operator pencils -------------------------------------------------------

def _kny_binding(rng):
    b = {n: frac(rng) for n in ("q", "g", "k1", "k2", "n1", "n2", "n3",
                                "n4", "n5", "n6", "n7")}
    while b["q"] in (1, -1):
        b["q"] = frac(rng)
    prod = b["q"]
    for i in range(1, 8):
        prod *= b["n%d" % i]
    b["n8"] = (b["k1"] * b["k2"]) ** 2 / prod
    return b


def test_kny_full_binding_checks_balance():
    b = {"q": 2, "g": 1, "k1": 1, "k2": 1}
    b.update({"n%d" % i: 1 for i in range(1, 9)})
    with pytest.raises(InvariantViolation):
        KNYParams("A1w", b)


@pytest.mark.parametrize("family", KNY_GAUGED)
def test_gauged_rows_refuse_k1_zero(family):
    # P = (k1/n8)*...: with k1 = 0 the row has no up-shift term
    with pytest.raises(InvariantViolation, match="k1"):
        KNYParams(family, {"k1": 0})
    with pytest.raises(InvariantViolation, match="k1"):
        verify_family("kny", family, {"k1": 0})
    KNYParams(family, {"k1": 2})


def test_binding_that_kills_a_denominator():
    with pytest.raises(SubstitutionSingular):
        build_kny(KNYParams("A4w", {"n7": 0}))


@pytest.mark.parametrize("catalog, family, binding", [
    # n4 = 0 zeroes q*n1*...*n7, the coefficient the constraint is solved
    # with; for E3a n4 also divides the accessory closed form
    ("kny", "D5", {"n4": 0}),
    ("kny", "E3a", {"n4": 0}),
    # th1 = 0 zeroes the coefficient of th2 in the A4 constraint
    ("murata", "A4", {"th1": 0}),
    # on the surface n8 = k1^2*k2^2/(...) = 0, which the pencil divides by
    ("kny", "E2b", {"k2": 0}),
    # n4 = k1 = 0 holds the balance for every n8, and the row divides by n4
    ("kny", "D5", {"n4": 0, "k1": 0}),
    # every kny pencil divides by f, frozen at n4: with n4 = 0 and k1 = 0
    # or k2 = 0 the surface is empty, and the comparison reported false
    # mismatches
    ("kny", "E2b", {"n4": 0, "k1": 0}),
    ("kny", "A1w", {"n4": 0, "k1": 0}),
    ("kny", "E3b", {"n4": 0, "k1": 0}),
    ("kny", "E2b", {"n4": 0, "k2": 0}),
    ("kny", "A1w", {"n4": 0, "k2": 0}),
    # n5..n8 bound: the balance is solved for n4, which k1 = 0 makes 0
    ("kny", "E3b", {"n5": 1, "n6": 1, "n7": 1, "n8": 1, "k1": 0}),
])
def test_verify_binding_that_kills_a_denominator(catalog, family, binding):
    with pytest.raises(SubstitutionSingular):
        verify_family(catalog, family, binding)


@pytest.mark.parametrize("catalog, family, binding", [
    # the bound constraint vanishes on a pencil that stays regular
    ("murata", "A4", {"th1": 0, "a1": 0}),
    ("kny", "E2b", {"n1": 0, "k1": 0}),
])
def test_verify_matches_where_the_constraint_vanishes(catalog, family,
                                                       binding):
    assert verify_family(catalog, family, binding)["match"] is True


@pytest.mark.parametrize("binding", [
    # th1 and th2 fixed: the constraint is solved for k1 instead
    {"a3": 2, "d": 1, "th1": -3, "th2": -2},
    {"th1": -3, "th2": -2, "k1": 1, "k2": 1, "a1": 1},
    # a1 = 0 zeroes every other coefficient, but th1*th2 = 0 satisfies
    # the constraint whatever the free names are
    {"th1": 0, "th2": 1, "a1": 0},
])
def test_a4_binding_with_both_exponents_fixed(binding):
    derive_equation("murata", "A4", binding)
    assert verify_family("murata", "A4", binding)["match"]


def test_a4_binding_off_every_solvable_surface():
    # a1 = 0 zeroes the coefficient of k1 while th1*th2 = 6 stays
    with pytest.raises(SubstitutionSingular, match="th1\\*th2 = 0"):
        verify_family("murata", "A4", {"th1": -3, "th2": -2, "a1": 0})


@pytest.mark.parametrize("family, binding", [
    # l = 0 and m = 0 divide the pencil entries
    ("A4", {"l": 0}),
    ("A7p", {"m": 0}),
    # the paper recipes set l = a1*t or l = a3, and the entries divide by l
    ("A5", {"a1": 0}),
    ("A6", {"a1": 0}),
    ("A5s", {"a3": 0}),
    # the alt recipes set m to a quotient by t, k1 and k2
    ("A7", {"t": 0}),
    ("A7p", {"k1": 0}),
    ("A7p", {"k2": 0}),
])
def test_murata_binding_that_kills_a_denominator(family, binding):
    with pytest.raises(SubstitutionSingular):
        derive_equation("murata", family, binding)
    with pytest.raises(SubstitutionSingular):
        verify_family("murata", family, binding)


@pytest.mark.parametrize("family, binding", [
    # the paper recipe sets l = a1*t, which t = 0 makes 0
    ("A5", {"t": 0}),
    ("A6", {"t": 0}),
    # the alt recipe sets m = th1*t/(q*k1*k2) + d*l, which th1*t = 0 sends
    # to 0 with l
    ("A7p", {"t": 0}),
    ("A7p", {"th1": 0}),
])
def test_verify_refuses_a_recipe_value_sent_to_zero(family, binding):
    # the derivation still runs there (its bytes are pinned); only the
    # comparison with the recorded row, which the derived equation does
    # not reach continuously, is refused, as binding l or m = 0 is
    derive_equation("murata", family, binding)
    with pytest.raises(SubstitutionSingular, match="sends [lm] = .* to 0"):
        verify_family("murata", family, binding)
    # the same names at a nonzero value still match
    assert verify_family("murata", family,
                         {name: 2 for name in binding})["match"] is True


def test_verify_refuses_f_sent_to_zero():
    # every kny pencil divides by f, which the derivation freezes at n4
    for family in ("E2b", "A1w", "E3b"):
        with pytest.raises(SubstitutionSingular,
                           match="%s binding sends f = n4 to 0" % family):
            verify_family("kny", family, {"n4": 0, "k1": 0})


def test_verify_refuses_a_zero_denominator_of_the_row():
    # n1 = k1 = 0 holds the balance for every n8, so nothing is solved for,
    # and the D5 row divides by n1
    with pytest.raises(SubstitutionSingular,
                       match="D5 binding zeroes a denominator of the row or "
                             "its closed form"):
        verify_family("kny", "D5", {"n1": 0, "k1": 0})


_ROWS = ([("murata", f) for f in MURATA_FAMILIES]
         + [("kny", f) for f in KNY_FAMILIES])
_BINDING_VALUES = (0, 1, -1, 2, Fraction(1, 2), 3)


@functools.cache
def _generic(catalog, family):
    """The generic derivation of a row and the names a binding may fix:
    its parameters other than l, m and d."""
    eq = derive_equation(catalog, family)
    names = set().union(*(c.variables() for side in (eq.P, eq.Z, eq.M)
                          for c in side))
    return eq, sorted(names - {eq.variable, "l", "m", "d"})


@settings(max_examples=150, deadline=None)
@given(row=st.sampled_from(_ROWS), data=st.data())
def test_specialisation_commutes_with_derivation_or_verify_refuses(row, data):
    # where deriving at a binding and substituting the binding into the
    # generic derivation are both defined, they agree up to a factor, or
    # the binding passes a cancelled factor of the derivation and
    # verify_family refuses it
    catalog, family = row
    generic, names = _generic(catalog, family)
    fixed = data.draw(st.lists(st.sampled_from(names), min_size=1,
                               max_size=3, unique=True))
    binding = {n: data.draw(st.sampled_from(_BINDING_VALUES)) for n in fixed}
    try:
        derived = derive_equation(catalog, family, binding)
        substituted = generic.substitute(binding)
    except (ArithmeticError, ValueError):
        return
    if not equations_proportional(derived, substituted):
        with pytest.raises(SubstitutionSingular):
            verify_family(catalog, family, binding)


@pytest.mark.parametrize("catalog, family, binding", [
    ("murata", "A5", {"t": 0}),
    ("murata", "A6", {"t": 0, "q": 2}),
    ("murata", "A7p", {"th1": 0}),
])
def test_the_commuting_property_sees_the_refused_points(catalog, family,
                                                        binding):
    # the points where the two sides differ, each refused by verify_family
    generic, _ = _generic(catalog, family)
    assert not equations_proportional(derive_equation(catalog, family,
                                                      binding),
                                      generic.substitute(binding))
    with pytest.raises(SubstitutionSingular):
        verify_family(catalog, family, binding)


@pytest.mark.parametrize("family", KNY_FAMILIES)
def test_cleared_equation_proportional_to_pencil(family):
    rng = random.Random(97531 + KNY_FAMILIES.index(family))
    for _ in range(3):
        b = _kny_binding(rng)
        op = build_kny(KNYParams(family, b))
        eq = kny_to_equation(op)
        checked = 0
        for numer in range(3, 80):
            z0 = Fraction(numer, 11)
            try:
                raw = [c.evaluate({"z": z0})
                       for c in (op.c_plus, op.c_zero, op.c_minus)]
                cleared = [eq.scalar_coefficient(n).evaluate({"z": z0})
                           for n in ("P", "Z", "M")]
            except ZeroDivisionError:
                continue
            ratios = {c / r for r, c in zip(raw, cleared) if r != 0}
            assert len(ratios) == 1
            ratio = ratios.pop()
            assert ratio != 0
            for r, c in zip(raw, cleared):
                assert c == r * ratio
            checked += 1
            if checked == 2:
                break
        assert checked == 2


@pytest.mark.parametrize("family", KNY_FAMILIES)
def test_named_clearing_equals_the_lcm(family):
    # clearing the named z - n4 gives what clearing by the lcm of every
    # denominator gives, symbolically, at n4 = 0 (where RatFun's own
    # cancellation may already have taken z), at an n4 whose value has a
    # denominator of its own, and at full bindings
    rng = random.Random(86420 + KNY_FAMILIES.index(family))
    for b in ([{}, {"n4": 0}, {"n4": P("(n5 + 1)/(n6 - 2)")}]
              + [_kny_binding(rng) for _ in range(3)]):
        op = build_kny(KNYParams(family, b))
        expected = QDiffEq.from_scalar_coefficients(
            op.c_plus, op.c_zero, op.c_minus, "z")
        assert equations_equal(kny_to_equation(op), expected), b


@pytest.mark.parametrize("binding", ({"n4": 0}, {"n4": 0, "q": 2}),
                         ids=("n4", "n4-q"))
@pytest.mark.parametrize("family", ("E2a", "A1w8"))
def test_gauged_rows_at_n4_zero_are_refused(family, binding):
    # no coefficient keeps a denominator in z at n4 = 0, so nothing is
    # cleared, and p(z/q) = z does not divide M
    with pytest.raises(InvariantViolation):
        derive_equation("kny", family, binding)


def test_gauged_row_depends_on_flag():
    op = build_kny(KNYParams("E3a"))
    plain = kny_to_equation(op)
    gauged = kny_to_equation(op, apply_gauge=True)
    assert len(plain.P) == 2 and len(gauged.P) == 3
    op5 = build_kny(KNYParams("D5"))
    assert equations_equal(kny_to_equation(op5, apply_gauge=True),
                           kny_to_equation(op5))


# -- the factor strip -------------------------------------------------------

_STRIPPED_ROWS = ([("murata", f) for f in ("A4", "A5", "A5s", "A6", "A6s",
                                           "A7")]
                  + [("kny", f) for f in KNY_GAUGED])


@pytest.mark.parametrize("binding", ({}, {"q": Fraction(3, 2)}),
                         ids=("symbolic", "q-bound"))
@pytest.mark.parametrize("catalog, family", _STRIPPED_ROWS)
def test_strip_equals_gauge_then_division_by_p_down(monkeypatch, catalog,
                                                    family, binding):
    # the strip is the linear gauge followed by exact division of every
    # side by p(x/q); record the one strip of the derivation and replay it
    calls = []
    strip = lax._strip_factor

    def recording(eq, p, q):
        calls.append((eq, p, q))
        return strip(eq, p, q)

    monkeypatch.setattr(lax, "_strip_factor", recording)
    derived = derive_equation(catalog, family, binding)
    (eq, p, q), = calls
    assert ratfun_eq(q, binding.get("q", sym("q")))
    # gauge_linear shifts by the symbol q; the strip shifts by the bound q
    gauged = gauge_linear(eq, p)
    p_down = xpoly.shift_arg(xpoly.as_xpoly(p, eq.variable), rat(1) / q)
    sides = [xpoly.divexact([c.substitute({"q": q}) for c in gauged.side(n)],
                            p_down)
             for n in ("P", "Z", "M")]
    assert equations_equal(derived, QDiffEq(*sides, eq.variable))


def test_strip_refuses_a_factor_that_does_not_divide_m(monkeypatch):
    # p(x/q) = x - th1 is no factor of the A4 M coefficient
    monkeypatch.setitem(lax._MURATA_RECIPES, ("A4", "paper"),
                        {"set": ("l", "a3"), "strip": "q*x - th1"})
    with pytest.raises(InvariantViolation):
        derive_equation("murata", "A4")


def test_a_named_factor_that_does_not_cancel_raises(monkeypatch):
    # the prediv puts m0(q^2 x) = q*x - a2*t into the denominators of mid
    # and low, but their numerators hold m0(q x) and m0(x) only
    monkeypatch.setitem(lax._MURATA_RECIPES, ("A5", "paper"),
                        {"set": ("l", "a1*t"), "prediv": "x/q - a2*t",
                         "strip": "x - a1*t"})
    with pytest.raises(InvariantViolation, match="numerator"):
        derive_equation("murata", "A5")


def test_pencils_are_immutable_records():
    mat = build_murata(MurataParams("A5", {"q": 2}))
    family, a11, a12, a21, a22, binding = mat
    assert family == "A5" and binding == {"q": 2}
    assert ratfun_eq(mat.det(), a11 * a22 - a12 * a21)
    op = build_kny(KNYParams("E3b"))
    assert op == ("E3b", op.c_plus, op.c_zero, op.c_minus, {})
    params = (MurataParams("A5", {"q": 2}), KNYParams("E3b", {"q": 3}))
    for record, field in ((mat, "a11"), (op, "binding"),
                          (params[0], "binding"), (params[1], "family")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # no instance dict to put a new attribute in
    for record in (mat, *params):
        with pytest.raises(AttributeError):
            record.extra = None


@pytest.mark.parametrize("binding", [None, {"q": 2, "k1": Fraction(3, 5)}])
def test_murata_derivation_multiplies_out_the_determinant_once(monkeypatch,
                                                               binding):
    # build_murata forms no determinant; scalar_reduce multiplies
    # a11*a22 - a12*a21 out once, in its one call of det()
    pencils, products = [], []
    build, multiply = lax.build_murata, RatFun.__mul__

    def building(params):
        pencils.append(build(params))
        return pencils[-1]

    def multiplying(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(lax, "build_murata", building)
    monkeypatch.setattr(RatFun, "__mul__", multiplying)
    derive_equation("murata", "A5", binding)
    mat, = pencils
    assert sum(a is mat.a11 and b is mat.a22 for a, b in products) == 1
    # det() reads the record's own entries, so a pencil built from other
    # entries has its own determinant
    det = mat.det()
    assert ratfun_eq(lax.LaxMatrix(*mat).det(), det)
    assert ratfun_eq(mat._replace(a22=mat.a22 + 1).det(), det + mat.a11)


def _euclid_cancel(r, factors, variable):
    """The cancellation by Euclid over RatFun coefficients (xpoly.divmod_x)
    that exact term-dict division replaced, kept as the reference."""
    num, den = xpoly.from_ratfun(as_ratfun(r), variable)
    for factor in factors:
        f = xpoly.as_xpoly(factor, variable)
        (den_q, den_r), (num_q, num_r) = (xpoly.divmod_x(p, f)
                                          for p in (den, num))
        if den_r:
            continue
        if num_r:
            raise InvariantViolation("%s divides a denominator but not its "
                                     "numerator" % factor)
        num, den = num_q, den_q
    if xpoly.degree(den) > 0:
        raise InvariantViolation("a denominator in %s is left" % variable)
    return xpoly.scale(num, rat(1) / den[0])


def _lax_cancel(r, factors, variable):
    return lax._split(*lax._cancel(r, factors, variable), variable)


def _cancelled(cancel, r, factors):
    """A cancellation's coefficient list in x, or its exception's text."""
    try:
        return cancel(r, factors, "x")
    except InvariantViolation as exc:
        return str(exc)


# a linear factor: a monomial content (x-free, so divide_exact must strip
# it) times x minus a root, which may have a denominator of its own
_ROOTS = ("0", "a1*t", "3/2", "-q", "a1 + a2", "(a1 - 1)/q", "t/(2*a3)")
_CONTENTS = ("1", "q", "-3", "2*t", "q^2*a1/5")
_linear = st.builds(lambda c, root: P(c) * (P("x") - P(root)),
                    st.sampled_from(_CONTENTS), st.sampled_from(_ROOTS))
_cofactors = st.sampled_from(("1", "-2", "x", "x^2 - q", "a2*x + t", "q/3",
                              "x - a3", "t^2 + 1")).map(P)


@settings(max_examples=150, deadline=None)
@given(st.lists(_linear, min_size=1, max_size=3), _cofactors, _cofactors,
       st.lists(st.booleans(), min_size=3, max_size=3),
       st.lists(st.booleans(), min_size=3, max_size=3))
def test_cancel_agrees_with_euclid_over_ratfun_coefficients(
        factors, num, den, in_den, in_num):
    # each named factor sits in the denominator or not, and in the
    # numerator or not: a factor only the denominator holds is refused
    for f, d, n in zip(factors, in_den, in_num):
        if d:
            den = den * f
        if n or not d:
            num = num * f
    r = num / den
    want = _cancelled(_euclid_cancel, r, factors)
    got = _cancelled(_lax_cancel, r, factors)
    if isinstance(want, str):
        assert got == want
    else:
        assert len(got) == len(want)
        assert all(ratfun_eq(g, w) for g, w in zip(got, want))


def test_cancel_strips_the_monomial_content_of_a_factor():
    # the denominator holds x - a3 but not q: q*(x - a3) cancels as
    # x - a3 does, with the same value
    r = P("(x - a3)*(x + t)/((x - a3)*(q + t))")
    for factor in (P("x - a3"), P("q*x - q*a3"), P("q*t*(x - a3)/2")):
        got = _cancelled(_lax_cancel, r, (factor,))
        assert len(got) == 2
        assert all(ratfun_eq(g, w) for g, w in
                   zip(got, (P("t/(q + t)"), P("1/(q + t)"))))


def test_cancellation_runs_no_euclid(monkeypatch):
    # _cancel and kny_to_equation divide by term dicts on every catalog
    # row and route: no xpoly division and no split into RatFun entries
    calls, inside = [], []

    def counted(name):
        original = getattr(xpoly, name)

        def counting(*args):
            if inside:
                calls.append(name)
            return original(*args)
        return counting

    def inside_of(function):
        def running(*args, **kwargs):
            inside.append(function)
            try:
                return function(*args, **kwargs)
            finally:
                inside.pop()
        return running

    for name in ("divmod_x", "from_ratfun"):
        monkeypatch.setattr(xpoly, name, counted(name))
    monkeypatch.setattr(lax, "_cancel", inside_of(lax._cancel))
    for cache in _lax_caches():
        cache.cache_clear()
    for family, variants in MURATA_VARIANTS.items():
        for variant in variants:
            for binding in (None, {"q": 2, "t": Fraction(3, 2)}):
                derive_equation("murata", family, binding, variant=variant)
    for family in KNY_FAMILIES:
        for binding in (None, {"q": 2, "n4": Fraction(3, 2)}, {"n4": 0}):
            op = build_kny(KNYParams(family, binding))
            inside_of(kny_to_equation)(op)
    assert calls == []
    # the counters do count: the strip's Euclid, outside the cancellation,
    # is not counted, and a split made inside it is
    derive_equation("murata", "A4")
    inside_of(xpoly.as_xpoly)(P("x - 1"), "x")
    assert calls == ["from_ratfun"]


def test_records_survive_pickle_and_deepcopy():
    binding = {"q": Fraction(1, 2), "k1": 2, "k2": 3, "t": 5, "th1": 7,
               "a1": 1, "a2": -1, "m": 1}
    eq = derive_equation("murata", "A5")
    mat = build_murata(MurataParams("A5", {"q": 2}))
    sol = series_solution(eq, binding, rootIndex=0, N=6)
    # records built by hand, with an empty binding
    bare = [lax.KNYOperator("D5", rat(1), rat(1), rat(1), {}),
            lax.LaxMatrix("A5", rat(1), rat(2), rat(3), rat(4), {})]
    # the parameter sets pickle as their fields, and load through __new__
    pars = [MurataParams("A5", {"q": 2}), KNYParams("E3b", {"q": 3})]
    # the limit records of a preset, and one record of each parameter class
    fam = climit.preset_family("heun")
    limits = climit.limit_coefficients(fam)
    ode = climit.classify_ode(climit.emit_ode(limits))
    params = [odeheun.match_class(ode), odeheun.CHEParams(1, 2, 3, 4, 5),
              odeheun.BHEParams(1, 2, 3, 4), odeheun.DHEParams(1, 2, 3, 4),
              odeheun.THEParams(1, 2, 3)]
    assert [type(p) for p in params] == list(odeheun.PARAM_CLASSES.values())
    records = [eq.Z[0].num, eq.Z[0], eq, mat, scalar_reduce(mat),
               build_kny(KNYParams("E3b", {"q": 3})), sol,
               fam, limits, ode] + params + bare + pars
    for record in records:
        for twin in (pickle.loads(pickle.dumps(record)),
                     copy.deepcopy(record)):
            assert type(twin) is type(record)
            assert str(twin) == str(record)
            if isinstance(record, QDiffEq):
                assert equations_equal(twin, record)
            elif isinstance(record, ThreeTermRelation):
                assert all(ratfun_eq(getattr(twin, n), getattr(record, n))
                           for n in ("up", "mid", "low"))
            else:
                assert twin == record


def test_a_pickled_parameter_set_is_checked_again_on_load():
    # th1*th2 + k1*k2*a1*a2*a3 = 6 - 6: on the A4 constraint surface
    params = MurataParams("A4", {"th1": 2, "th2": 3, "k1": 1, "k2": -1,
                                 "a1": 1, "a2": 2, "a3": 3})
    twin = pickle.loads(pickle.dumps(params))
    assert twin == params and twin.binding["a3"] == 3
    # _replace skips the checks, and loading runs them: a3 = 4 leaves it
    off = params._replace(binding={**params.binding, "a3": rat(4)})
    with pytest.raises(InvariantViolation, match="A4 binding breaks"):
        pickle.loads(pickle.dumps(off))
    with pytest.raises(InvariantViolation, match="k1 must not vanish"):
        copy.deepcopy(KNYParams("E3a")._replace(binding={"k1": rat(0)}))


def test_a_denominator_left_in_z_raises():
    # z - 1 is no named factor: kny_to_equation clears only z - n4
    z = sym("z")
    op = lax.KNYOperator("D5", 1 / (z - 1), rat(1), rat(1), {})
    with pytest.raises(InvariantViolation, match="denominator in z is left"):
        kny_to_equation(op)


# What the replayed derivation actually gives in each slot, written out
# by hand from the pencils: the P, Z2/Z0 and M slots agree with the
# recorded rows (the Z0 and accessory comparisons for D5, A4w and E3a only
# on the parameter-balance surface), and the accessory slot comes out as
# below.

_KNY_ACCESSORY_DERIVED = {
    "D5": "-(n4*n7 - k1)*(n4*n8 - k1)/(n1*n2*n4*n7*n8*g)"
          " + n4/n1 + n4/n2 + q*n3*n5/k2 + q*n3*n6/k2",
    "A4w": "n1*(q*n2*n3*(n5 + n6) + k2*n4)/k2"
           " - (k1 - n4*n7)*(k1 - n4*n8)/(n4*n7*n8*g)",
    "E3a": "-n1*n4 - q*n1*n2*n3*(n5 + n6)/k2"
           " + k1*(k1 - n4*n7)/(n4*n7*n8*g)",
    "E3b": "n1*(q*n2*n3*n5 + k2*n4)/k2 + (k1 - n4*n8)/(n8*g)",
    "E2a": "-(n1*(q*n2*n3*n5 + k2*n4)/k2 + k1/(n8*g))",
    "E2b": "n1*n4 + (k1 - n4*n8)/(n8*g)",
    "A1w": "(k1 - n4*n8)/(n8*g)",
    "A1w8": "-(n1*n4 + k1/(n8*g))",
}


@pytest.mark.parametrize("family", KNY_FAMILIES)
def test_kny_derivation_slots(family):
    derived = derive_equation("kny", family)
    row = reference_equation("kny", family)
    elim = {"n8": P("k1^2*k2^2/(q*n1*n2*n3*n4*n5*n6*n7)")}
    scale = row.coeff("P", 2) / derived.coeff("P", 2)
    for side in ("P", "Z", "M"):
        for k in range(3):
            der = (derived.coeff(side, k) * scale).substitute(elim)
            if side == "Z" and k == 1:
                exp = P(_KNY_ACCESSORY_DERIVED[family]).substitute(elim)
            else:
                exp = row.coeff(side, k).substitute(elim)
            assert ratfun_eq(der, exp), (side, k)


# -- row verification reports -----------------------------------------------

_EXPECTED_VERIFY = {
    ("murata", "A4"): (True, "flipped", ()),
    ("murata", "A5"): (True, "asPrinted", ()),
    ("murata", "A5s"): (True, "flipped", ()),
    ("murata", "A6"): (True, "asPrinted", ()),
    ("murata", "A6s"): (True, "asPrinted", ()),
    ("murata", "A7"): (True, "asPrinted", ()),
    ("murata", "A7p"): (True, "asPrinted", ()),
    ("kny", "D5"): (True, "asPrinted", ()),
    ("kny", "A4w"): (True, "asPrinted", ()),
    ("kny", "E3a"): (True, "asPrinted", ()),
    ("kny", "E3b"): (True, "asPrinted", ()),
    ("kny", "E2a"): (True, "flipped", ()),
    ("kny", "E2b"): (True, "asPrinted", ()),
    ("kny", "A1w"): (True, "asPrinted", ()),
    ("kny", "A1w8"): (True, "asPrinted", ()),
}


@pytest.mark.parametrize("catalog,family", sorted(_EXPECTED_VERIFY))
def test_verify_reports(catalog, family):
    report = verify_family(catalog, family)
    want_match, want_map, want_slots = _EXPECTED_VERIFY[(catalog, family)]
    assert report["catalog"] == catalog and report["family"] == family
    assert report["match"] is want_match
    assert report["accessoryMap"] == want_map
    got = {(d["side"], d["degree"]) for d in report["discrepancies"]}
    assert got == set(want_slots)


@pytest.mark.parametrize("family", MURATA_FAMILIES)
def test_verify_murata_with_numeric_bindings(family):
    rng = random.Random(777 + MURATA_FAMILIES.index(family))
    for _ in range(3):
        b = _murata_binding(family, rng, with_lm=False)
        report = verify_family("murata", family, b)
        assert report["match"] is True
        assert report["discrepancies"] == []


@pytest.mark.parametrize("family", KNY_FAMILIES)
def test_verify_kny_with_numeric_bindings(family):
    rng = random.Random(31337 + KNY_FAMILIES.index(family))
    want_match, want_map, want_slots = _EXPECTED_VERIFY[("kny", family)]
    for _ in range(3):
        b = _kny_binding(rng)
        report = verify_family("kny", family, b)
        assert report["match"] is want_match
        assert report["accessoryMap"] == want_map
        got = {(d["side"], d["degree"]) for d in report["discrepancies"]}
        assert got == set(want_slots)


@pytest.mark.parametrize("family", KNY_FAMILIES)
def test_kny_rows_match_with_n7_and_n8_bound(family):
    # the balance is then solved for n6, not left out of the comparison
    report = verify_family("kny", family, {"n7": 2, "n8": 3})
    assert report["match"] is True
    assert report["discrepancies"] == []


def test_kny_surface_is_empty_once_q_and_every_n_is_bound():
    # the balance is quadratic in k1 and k2, the only names left
    binding = {"q": rat(2), **{"n%d" % i: rat(i) for i in range(1, 9)}}
    assert lax._surface("D5", binding) == {}


# -- seeded slips: the failure paths of the catalog checks -------------------

@pytest.fixture
def fresh_rows():
    # the rows, and the on-surface rows built from them, are cached per
    # family; a seeded slip must not outlive its test
    for cache in _lax_caches():
        cache.cache_clear()
    yield
    for cache in _lax_caches():
        cache.cache_clear()


def _seed_a4w(monkeypatch, slot, text):
    row = list(lax._KNY_ROWS["A4w"])
    row["PZM".index(slot)] = text
    monkeypatch.setitem(lax._KNY_ROWS, "A4w", tuple(row))


def _slots(report):
    return {(d["side"], d["degree"]) for d in report["discrepancies"]}


def test_verify_reports_an_uncorrected_sign_slip(monkeypatch, fresh_rows):
    # the A4w M slot as transcribed, before its -q correction
    _seed_a4w(monkeypatch, "M", "q*n1*n2*n3*(z - n4)")
    report = verify_family("kny", "A4w")
    assert report["match"] is False
    assert report["accessoryMap"] == "asPrinted"
    assert _slots(report) == {("M", 0), ("M", 1)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["verify", "--catalog", "kny", "--family", "A4w"]) == 1
    assert '"match": false' in out.getvalue()


def test_verify_reports_an_unresolved_accessory_slot(monkeypatch,
                                                     fresh_rows):
    _seed_a4w(monkeypatch, "Z",
              "-n1*z^2 + d*z - k1^2*k2*(n5 + n6)/(n5*n6*n7*n8)")
    report = verify_family("kny", "A4w")
    assert report["match"] is False
    assert report["accessoryMap"] == "unresolved"
    assert _slots(report) == {("Z", 1)}


# -- supports and taxonomy of the derived equations -------------------------

def _support(p, z, m):
    out = set()
    for name, degs in (("P", p), ("Z", z), ("M", m)):
        out.update((name, k) for k in degs)
    return frozenset(out)


_SUPPORTS = {
    ("murata", "A4"): ((1, 0), (2, 1, 0), (2, 1, 0)),
    ("murata", "A5"): ((1, 0), (2, 1, 0), (2, 1)),
    ("murata", "A5s"): ((1, 0), (2, 1, 0), (2, 1)),
    ("murata", "A6"): ((1, 0), (2, 1, 0), (2,)),
    ("murata", "A6s"): ((1, 0), (2, 1, 0), (2,)),
    ("murata", "A7"): ((1,), (2, 1, 0), (2,)),
    ("murata", "A7p"): ((0,), (2, 1, 0), (2,)),
    ("kny", "D5"): ((2, 1, 0), (2, 1, 0), (2, 1, 0)),
    ("kny", "A4w"): ((2, 1, 0), (2, 1, 0), (1, 0)),
    ("kny", "E3a"): ((2, 1, 0), (2, 1, 0), (0,)),
    ("kny", "E3b"): ((2, 1), (2, 1, 0), (1, 0)),
    ("kny", "E2a"): ((2, 1), (2, 1, 0), (0,)),
    ("kny", "E2b"): ((2, 1), (2, 1), (1, 0)),
    ("kny", "A1w"): ((2, 1), (1,), (1, 0)),
    ("kny", "A1w8"): ((2, 1), (2, 1), (0,)),
}

_LABELS = {
    ("murata", "A4"): ("Confluent", "cqHE", "NonReduced"),
    ("murata", "A5"): ("DoublyConfluent", "dqHE3", "NonReduced"),
    ("murata", "A5s"): ("DoublyConfluent", "dqHE3", "NonReduced"),
    ("murata", "A6"): ("Unclassified", None, "NotApplicable"),
    ("murata", "A6s"): ("Unclassified", None, "NotApplicable"),
    ("murata", "A7"): ("Unclassified", None, "NotApplicable"),
    ("murata", "A7p"): ("Unclassified", None, "NotApplicable"),
    ("kny", "D5"): ("QHeun", None, "NotApplicable"),
    ("kny", "A4w"): ("Confluent", "cqHE2", "NonReduced"),
    ("kny", "E3a"): ("Biconfluent", "bqHE2", "NotApplicable"),
    ("kny", "E3b"): ("DoublyConfluent", "dqHE4", "NonReduced"),
    ("kny", "E2a"): ("Unclassified", None, "NotApplicable"),
    ("kny", "E2b"): ("DoublyConfluent", "dqHE4", "SinglyReduced"),
    ("kny", "A1w"): ("DoublyConfluent", "dqHE4", "DoublyReduced"),
    ("kny", "A1w8"): ("Unclassified", None, "NotApplicable"),
}


@pytest.mark.parametrize("catalog,family", sorted(_SUPPORTS))
def test_derived_support_and_label(catalog, family):
    eq = derive_equation(catalog, family)
    assert eq.support() == _support(*_SUPPORTS[(catalog, family)])
    label = classify(eq)
    assert (label.class_, label.variant_form,
            label.reduction) == _LABELS[(catalog, family)]


@pytest.mark.parametrize("catalog, family",
                         [("murata", f) for f in MURATA_FAMILIES]
                         + [("kny", f) for f in KNY_FAMILIES])
def test_reference_equation_equals_the_lcm(catalog, family):
    row, _, parse, variable = lax._catalog_tables(catalog, family)
    expected = QDiffEq.from_scalar_coefficients(
        *(parse(text) for text in row), variable)
    assert equations_equal(reference_equation(catalog, family), expected)


def test_unknown_catalog_and_family():
    with pytest.raises(ValueError):
        reference_equation("other", "A4")
    with pytest.raises(ValueError):
        reference_equation("murata", "D5")
    with pytest.raises(ValueError):
        accessory_formula("kny", "A4")
    with pytest.raises(ValueError):
        derive_equation("other", "A4")


# -- stages shared across calls -----------------------------------------------

_ROWS = ([("murata", f) for f in MURATA_FAMILIES]
         + [("kny", f) for f in KNY_FAMILIES])


def _lax_caches():
    return [f for f in vars(lax).values() if hasattr(f, "cache_clear")]


def _derive_document(catalog, family, binding):
    return write_equation(derive_equation(catalog, family, binding))


def _outcome(call, catalog, family, binding):
    """The call's result as JSON text, or the exception it raised."""
    try:
        return json.dumps(call(catalog, family, binding), sort_keys=True)
    except (ArithmeticError, ValueError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _full_binding(catalog, family, rng):
    if catalog == "murata":
        return _murata_binding(family, rng, with_lm=False)
    return _kny_binding(rng)


def _partial_binding(catalog, rng):
    names = ("q", "k1", "k2", "t") if catalog == "murata" else \
        ("q", "k1", "k2")
    return {n: frac(rng) for n in names}


def test_cold_and_warm_calls_agree():
    # each call once with every lax cache emptied before it, then all of
    # them again warm: a binding that leaked into a shared per-family
    # stage would change some later call
    rng = random.Random(2718)
    calls = [(c, f, b) for c, f in _ROWS
             for b in (None, _full_binding(c, f, rng),
                       _partial_binding(c, rng))]
    rng.shuffle(calls)
    caches = _lax_caches()
    assert {lax._mu, lax._kn, lax.reference_equation} <= set(caches)
    cold = []
    for args in calls:
        for call in (verify_family, _derive_document):
            for cache in caches:
                cache.cache_clear()
            cold.append(_outcome(call, *args))
    warm = [_outcome(call, *args)
            for args in calls for call in (verify_family, _derive_document)]
    assert warm == cold


def test_new_bindings_parse_nothing_and_grow_no_cache(monkeypatch):
    parsed = []

    def counting(text, universe):
        parsed.append(text)
        return parse_expr(text, universe)

    monkeypatch.setattr(lax, "parse_expr", counting)
    caches = _lax_caches()
    for cache in caches:
        cache.cache_clear()
    rng = random.Random(1618)

    def one_pass():
        for c, f in _ROWS:
            for b in (_full_binding(c, f, rng), _partial_binding(c, rng)):
                for call in (verify_family, _derive_document):
                    _outcome(call, c, f, b)

    one_pass()
    assert parsed
    sizes = [cache.cache_info().currsize for cache in caches]
    parsed.clear()
    one_pass()
    assert parsed == []
    assert [cache.cache_info().currsize for cache in caches] == sizes


# -- the on-surface route of verify_family -----------------------------------

def _slot_by_slot(catalog, family, binding=None):
    """verify_family as it compared before the on-surface route: derive on
    the binding, then put the closed form and the surface into every slot
    of both sides."""
    binding = {name: as_ratfun(value)
               for name, value in (binding or {}).items()}
    derived = derive_equation(catalog, family, binding)
    reference = reference_equation(catalog, family)
    formula = accessory_formula(catalog, family)
    surface = lax._surface(family, binding)
    subst = dict(binding)
    top = max(reference.degree, derived.degree)
    slots = [(side, k) for side in ("P", "Z", "M") for k in range(top + 1)]
    try:
        if formula is not None:
            subst["d"] = formula.substitute(binding)
        refs, ders = ({s: eq.coeff(*s).substitute(extra).substitute(surface)
                       for s in slots}
                      for eq, extra in ((reference, subst), (derived, {})))
    except ZeroDivisionError:
        raise SubstitutionSingular("%s binding zeroes a denominator of the "
                                   "row or its closed form" % family) from None
    lead = next((k for k in range(top, -1, -1)
                 if not reference.coeff("P", k).is_zero), 0)
    der_lead = ders["P", lead]
    scale = refs["P", lead] / der_lead if not der_lead.is_zero else rat(1)
    match, accessory_map, discrepancies = True, None, []
    for (side, degree), ref in refs.items():
        der = ders[side, degree] * scale
        if side == "Z" and degree == 1:
            accessory_map = ("asPrinted" if ratfun_eq(der, ref) else
                             "flipped" if ratfun_eq(der, -ref) else
                             "unresolved")
            if accessory_map != "unresolved":
                continue
        elif ratfun_eq(der, ref):
            continue
        match = False
        discrepancies.append({"side": side, "degree": degree,
                              "derived": str(der), "reference": str(ref)})
    return {"catalog": catalog, "family": family, "match": match,
            "accessoryMap": accessory_map, "discrepancies": discrepancies}


def _less_one(catalog, family, rng):
    """A seeded full binding less the first name the family's constraint
    is solved for, if it has a constraint."""
    b = _full_binding(catalog, family, rng)
    names = lax._CONSTRAINTS.get(family, (None, ()))[1]
    b.pop(next(iter(names), None), None)
    return b


def _bindings(catalog, family, rng):
    return [None, _partial_binding(catalog, rng),
            _full_binding(catalog, family, rng),
            _less_one(catalog, family, rng)]


@pytest.mark.parametrize("catalog, family", _ROWS)
def test_deriving_on_the_surface_equals_substituting_after(catalog, family):
    rng = random.Random("surface:%s:%s" % (catalog, family))
    for binding in _bindings(catalog, family, rng):
        binding = {n: as_ratfun(v) for n, v in (binding or {}).items()}
        surface = lax._surface(family, binding)
        on = derive_equation(catalog, family, {**binding, **surface})
        after = derive_equation(catalog, family, binding).substitute(surface)
        assert on.degree == after.degree
        for side in ("P", "Z", "M"):
            for k in range(on.degree + 1):
                assert ratfun_eq(on.coeff(side, k), after.coeff(side, k)), \
                    (binding, side, k)


@pytest.mark.parametrize("catalog, family", _ROWS)
def test_every_denominator_is_a_monomial(catalog, family):
    # a monomial vanishes only where one of its names is 0, so verify_family
    # and the slot by slot route can part only at a bound 0 or a zero
    # surface entry: the bindings _SINGULAR_ON_SURFACE and _MATCH_ON_SURFACE
    # below
    values = [accessory_formula(catalog, family) or rat(1)]
    for eq in (reference_equation(catalog, family),
               derive_equation(catalog, family)):
        values += [c for side in (eq.P, eq.Z, eq.M) for c in side]
    assert all(len(v.den.terms) == 1 for v in values)


_EDGE_BINDINGS = [
    # the singular bindings of the tests above
    ("kny", "D5", {"n4": 0}), ("kny", "E3a", {"n4": 0}),
    ("murata", "A4", {"th1": 0}), ("kny", "E2b", {"k2": 0}),
    ("kny", "A4w", {"n7": 0}), ("kny", "D5", {"k1": 0}),
    ("kny", "E3a", {"k1": 0}), ("murata", "A4", {"l": 0}),
    ("murata", "A7p", {"m": 0}), ("murata", "A5", {"a1": 0}),
    ("murata", "A6", {"a1": 0}), ("murata", "A5s", {"a3": 0}),
    ("murata", "A7", {"t": 0}), ("murata", "A7p", {"k1": 0}),
    ("murata", "A7p", {"k2": 0}), ("murata", "A4", {"q": 0}),
    ("murata", "A4", {"th1": -3, "th2": -2, "a1": 0}),
    ("murata", "A4", {"a3": 2, "d": 1, "th1": -3, "th2": -2}),
    ("murata", "A4", {"th1": -3, "th2": -2, "k1": 1, "k2": 1, "a1": 1}),
    ("murata", "A4", {"th1": 0, "th2": 1, "a1": 0}),
    ("kny", "A4w", {"q": 0}), ("murata", "A5", {"l": 1}),
    # a zero surface entry: n6 = k1^2*k2^2/(...) = 0 cancels in the row
    ("kny", "A4w", {"n7": 2, "n8": 3, "k1": 0}),
    ("kny", "E3a", {"n7": 2, "n8": 3, "k2": 0}),
    ("kny", "D5", {"n7": 2, "n8": 3, "n4": 0}),
] + [(c, f, b) for c, f in _ROWS
     for b in ({"d": Fraction(5, 2)}, {"d": 0, "q": 3})] + [
    ("kny", f, b) for f in KNY_FAMILIES
    for b in ({"n8": 3}, {"n7": 2, "n8": 3}, {"n8": 0})]


# where verify_family parts from the slot by slot route: a binding that
# zeroes the balance's coefficient of n8 (or n7 once n8 = 0) is refused
# before the derivation, and a zero surface entry held in a denominator
# (n8 = 0 for D5 at k1 = 0 and E2b at k2 = 0, both pencils divide by n8)
# is singular, where the slot by slot route reported a false "unresolved"
# for D5
_SINGULAR_ON_SURFACE = [
    ("kny", "E2b", {"k2": 0}), ("kny", "A4w", {"n7": 0}),
    ("kny", "D5", {"k1": 0}), ("kny", "A4w", {"q": 0}),
] + [("kny", f, {"n8": 0}) for f in KNY_FAMILIES]
# the balance gives n6 = 0 and the row on the surface holds no n6 in a
# denominator; the slot by slot route put k1 = 0 into the Z0 slot before
# n6 = 0 and reported a false mismatch there
_MATCH_ON_SURFACE = ("kny", "A4w", {"n7": 2, "n8": 3, "k1": 0})


def test_verify_equals_the_slot_by_slot_route(monkeypatch, fresh_rows):
    rng = random.Random(4711)
    calls = [(c, f, b) for c, f in _ROWS for b in _bindings(c, f, rng)]
    for catalog, family, binding in calls + _EDGE_BINDINGS:
        args = (catalog, family, binding)
        got = _outcome(verify_family, *args)
        if args in _SINGULAR_ON_SURFACE:
            assert got.startswith("SubstitutionSingular: "), (args, got)
        elif args == _MATCH_ON_SURFACE:
            assert json.loads(got) == {
                "catalog": "kny", "family": "A4w", "match": True,
                "accessoryMap": "asPrinted", "discrepancies": []}
        else:
            assert got == _outcome(_slot_by_slot, *args), args
    # a seeded slip: the mismatch report, discrepancy texts included
    _seed_a4w(monkeypatch, "M", "q*n1*n2*n3*(z - n4)")
    for cache in _lax_caches():
        cache.cache_clear()
    for binding in (None, {"q": 2, "k1": 3}):
        report = verify_family("kny", "A4w", binding)
        assert report["match"] is False
        assert (json.dumps(report)
                == json.dumps(_slot_by_slot("kny", "A4w", binding)))


def test_a_zero_surface_entry_the_row_cancels_matches():
    assert verify_family("kny", "A4w",
                         {"n7": 2, "n8": 3, "k1": 0})["match"] is True


def test_a_zero_surface_entry_in_a_denominator_is_singular():
    # k1 = 0 puts n8 = 0 on the balance, and D5 divides by n8
    with pytest.raises(SubstitutionSingular):
        verify_family("kny", "D5", {"k1": 0})


def _names(catalog, family):
    if catalog == "murata":
        return lax._MURATA_SHARED + lax._MURATA_EXTRA[family]
    return lax.KNYParams._NAMES


@st.composite
def _row_and_binding(draw):
    catalog, family = draw(st.sampled_from(_ROWS))
    names = draw(st.lists(st.sampled_from(_names(catalog, family)),
                          min_size=1, max_size=5, unique=True))
    values = st.sampled_from((0, 1, -1, 2, Fraction(1, 2)))
    return catalog, family, {name: draw(values) for name in names}


@settings(max_examples=60, deadline=None)
@given(_row_and_binding())
def test_verify_reports_honestly_or_raises_what_it_documents(args):
    try:
        report = verify_family(*args)
    except (SubstitutionSingular, InvariantViolation, ValueError,
            DivergesAtZero):
        return
    assert report["match"] is (report["discrepancies"] == [])
