"""Gauge transformations: coefficient actions, inverses, numeric factors."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qheun.gauge import (
    DomainError, NotDivisible, apply_record, eval_special, gauge_linear,
    gauge_move_factor, gauge_power, invert_record, invert_variable,
    record_invert, record_linear, record_move_factor, record_power,
    record_rebase)
from qheun.qdiff import (
    NAMED_FORMS, QDiffEq, classify, equations_equal, equations_proportional)
from qheun.symkernel import parse_expr, rat, ratfun_eq, sym

U = ["q", "t", "a", "b", "c", "g1", "g2", "b1", "b0", "k1", "l", "x"]


def P(text):
    return parse_expr(text, U)


def make_eq(p, z, m):
    return QDiffEq.from_scalar_coefficients(P(p), P(z), P(m))


SAMPLE = make_eq("x^2 + 1", "-(b1*x + b0)", "c*(x^2 - t)")


# ---------------------------------------------------------------------------
# power gauge


def test_power_zero_is_identity():
    assert equations_equal(gauge_power(SAMPLE, 0), SAMPLE)


def test_power_group_law():
    twice = gauge_power(gauge_power(SAMPLE, 1), 1)
    once = gauge_power(SAMPLE, 2)
    assert equations_equal(twice, once)


def test_power_scales_p_and_m_oppositely():
    out = gauge_power(SAMPLE, 3)
    q = sym("q")
    assert out.coeff("P", 2) == q ** 3
    assert out.coeff("Z", 1) == SAMPLE.coeff("Z", 1)
    assert out.coeff("M", 2) == sym("c") / q ** 3


def test_power_symbolic_exponent_roundtrip():
    out = gauge_power(SAMPLE, "l")
    s = sym("q_to_l")
    assert out.coeff("P", 0) == s
    assert out.coeff("M", 0) == -sym("c") * sym("t") / s
    rec = record_power("l")
    back = apply_record(invert_record(rec), apply_record(rec, SAMPLE))
    assert equations_equal(back, SAMPLE)


def test_fractional_powers_over_one_denominator_compose():
    # q^(1/2) and q^(-1/2) are powers of the one symbol q_to_1_over_2
    half = gauge_power(SAMPLE, Fraction(1, 2))
    assert half.coeff("P", 2) == sym("q_to_1_over_2")
    assert equations_equal(gauge_power(half, Fraction(-1, 2)), SAMPLE)
    assert equations_equal(
        gauge_power(gauge_power(SAMPLE, Fraction(3, 2)), Fraction(-1, 2)),
        gauge_power(half, Fraction(1, 2)))
    # q_to_1_over_2^2 is rewritten to q
    assert equations_equal(gauge_power(half, Fraction(1, 2)),
                           gauge_power(SAMPLE, 1))


def test_root_powers_stay_below_the_denominator():
    # q^(3/2) is q*r and q^(-3/2) is 1/(q*r), r = q_to_1_over_2, through
    # gauge_power and through the records alike
    q, r = sym("q"), sym("q_to_1_over_2")
    up = gauge_power(SAMPLE, Fraction(3, 2))
    assert str(up.coeff("P", 2)) == "q*q_to_1_over_2"
    assert str(up.coeff("M", 2)) == "(c)/(q*q_to_1_over_2)"
    rec = record_power(Fraction(3, 2))
    assert equations_equal(apply_record(rec, SAMPLE), up)
    down = apply_record(invert_record(rec), SAMPLE)
    assert down.coeff("P", 2) == 1 / (q * r)
    assert equations_equal(gauge_power(down, Fraction(3, 2)), SAMPLE)
    thrice = SAMPLE
    for _ in range(3):
        thrice = gauge_power(thrice, Fraction(1, 2))
    assert equations_equal(thrice, up)


def test_power_preserves_classification():
    e = make_eq("x + 1", "-(b1*x^2 + b0)", "c*x^2 + x")
    assert classify(gauge_power(e, 5)) == classify(e)


# ---------------------------------------------------------------------------
# factor moves


def test_pochhammer_move_reproduces_hypergeometric_pair():
    before = make_eq("1", "-(b1*x + b0)", "c*(1 - g1*x)*(1 - g2*x)")
    after = gauge_move_factor(before, "Pochhammer", P("g1"))
    expected = make_eq("1 - q*g1*x", "-(b1*x + b0)", "c*(1 - g2*x)")
    assert equations_equal(after, expected)
    assert classify(after).class_ == "HypergeometricType"


def test_pochhammer_not_divisible():
    before = make_eq("1", "-(b1*x + b0)", "c*(1 - g1*x)*(1 - g2*x)")
    with pytest.raises(NotDivisible):
        gauge_move_factor(before, "Pochhammer", P("g1 + 1"))


def test_theta_move_monomial():
    before = make_eq("x + 1", "-b0", "x")
    after = gauge_move_factor(before, "Theta", 1)
    assert list(after.M) == [rat(1)]
    assert after.coeff("P", 1) == sym("q")
    assert after.coeff("P", 2) == sym("q")
    assert after.coeff("Z", 0) == -sym("b0")


def test_theta_not_divisible():
    before = make_eq("1", "-b0", "x + 1")
    with pytest.raises(NotDivisible):
        gauge_move_factor(before, "Theta", 1)
    with pytest.raises(NotDivisible):
        gauge_move_factor(make_eq("1", "-b0", "x"), "Theta", 0)


def test_move_factor_unknown_kind():
    with pytest.raises(ValueError):
        gauge_move_factor(SAMPLE, "Gamma", 1)


def test_move_factor_roundtrips_exact():
    before = make_eq("1", "-(b1*x + b0)", "c*(1 - g1*x)*(1 - g2*x)")
    for kind, alpha in (("Pochhammer", P("g2")),):
        rec = record_move_factor(kind, alpha)
        there = apply_record(rec, before)
        back = apply_record(invert_record(rec), there)
        assert equations_equal(back, before)
    m = make_eq("x + 1", "-b0", "t*x")
    rec = record_move_factor("Theta", P("t"))
    assert equations_equal(apply_record(invert_record(rec),
                                        apply_record(rec, m)), m)


def test_inverse_move_factor_not_divisible():
    # the inverse record divides P by (1 - q*g1*x), which P = 1 lacks
    before = make_eq("1", "-(b1*x + b0)", "c*(1 - g1*x)")
    rec = invert_record(record_move_factor("Pochhammer", P("g1")))
    with pytest.raises(NotDivisible, match="P has no factor"):
        apply_record(rec, before)


# ---------------------------------------------------------------------------
# linear strips


def test_linear_identity():
    assert equations_equal(gauge_linear(SAMPLE, [rat(1)]), SAMPLE)


def test_linear_coefficient_action():
    e = make_eq("1", "-b0", "c")
    out = gauge_linear(e, P("x - t"))
    # P gains (x-t)(x/q-t), Z gains (x/q-t), M unchanged
    assert ratfun_eq(out.scalar_coefficient("P"),
                     P("(x - t)*(x/q - t)"))
    assert ratfun_eq(out.scalar_coefficient("Z"), P("-b0*(x/q - t)"))
    assert list(out.M) == [sym("c")]


def test_linear_accepts_ratfun_argument():
    e = make_eq("1", "-b0", "c")
    a = gauge_linear(e, P("x - t"))
    b = gauge_linear(e, [-sym("t"), rat(1)])
    assert equations_equal(a, b)
    with pytest.raises(ValueError):
        gauge_linear(e, P("1/(x - t)"))
    with pytest.raises(ValueError):
        gauge_linear(e, [rat(0)])


def test_linear_roundtrip_proportional():
    rec = record_linear(P("x - t"))
    out = apply_record(invert_record(rec), apply_record(rec, SAMPLE))
    assert equations_proportional(out, SAMPLE)
    assert not equations_equal(out, SAMPLE)


# ---------------------------------------------------------------------------
# variable inversion


def test_invert_palindromic_fixed_point():
    e = QDiffEq([rat(1), rat(0), rat(1)],
                [rat(0), rat(2)],
                [rat(1), rat(0), rat(1)])
    assert equations_equal(invert_variable(e), e)


def test_invert_swaps_and_reverses():
    e = make_eq("a*x^2 + b", "-b1*x", "c*x + t")
    out = invert_variable(e)
    assert list(out.P) == [rat(0), sym("c"), sym("t")]
    assert list(out.Z) == [rat(0), -sym("b1")]
    assert list(out.M) == [sym("a"), rat(0), sym("b")]


def test_invert_is_involution():
    for e in (SAMPLE, make_eq("x", "-b1*x^2", "c*x")):
        again = invert_variable(invert_variable(e))
        assert equations_proportional(again, e)
    rec = record_invert()
    assert equations_proportional(
        apply_record(invert_record(rec), apply_record(rec, SAMPLE)), SAMPLE)


# How the named forms exchange under inversion of the variable
# (x -> 1/x with the P and M sides swapped and degrees reversed).
MIRROR_VARIANT = {
    "cqHE": "cqHE3", "cqHE3": "cqHE",
    "cqHE2": "cqHE4", "cqHE4": "cqHE2",
    "bqHE": "bqHE3", "bqHE3": "bqHE",
    "bqHE2": "bqHE4", "bqHE4": "bqHE2",
    "bqHE5": "bqHE6", "bqHE6": "bqHE5",
    "dqHE": "dqHE2", "dqHE2": "dqHE",
    "dqHE3": "dqHE3", "dqHE4": "dqHE4",
}


def test_invert_mirror_map_on_named_forms():
    for name, clazz, zeros, nonzeros in NAMED_FORMS:
        sides = {"P": [rat(0)] * 3, "Z": [rat(0)] * 3, "M": [rat(0)] * 3}
        for s, k in nonzeros:
            sides[s][k] = rat(1)
        e = QDiffEq(sides["P"], sides["Z"], sides["M"])
        mirrored = classify(invert_variable(e))
        assert mirrored.variant_form == MIRROR_VARIANT[name], name
        assert mirrored.class_ == clazz, name


def test_mirror_map_is_an_involution():
    for a, b in MIRROR_VARIANT.items():
        assert MIRROR_VARIANT[b] == a


# ---------------------------------------------------------------------------
# rebase steps


def test_rebase_steps_record_roundtrip():
    rec = record_rebase(2)
    out = apply_record(rec, SAMPLE)
    assert out.coeff("P", 2) == P("1/q^4")
    back = apply_record(invert_record(rec), out)
    assert equations_equal(back, SAMPLE)


# ---------------------------------------------------------------------------
# numeric gauge factors


def brute_poch(x, q, terms):
    acc = complex(1)
    for k in range(terms):
        acc *= 1 - x * q ** k
    return acc


def test_poch_at_zero_is_one():
    assert eval_special("Pochhammer", 0, 0.5, 40) == 1


def test_poch_against_long_product():
    val = eval_special("Pochhammer", 0.5, 0.5, 100)
    assert abs(val - brute_poch(0.5, 0.5, 200)) < 1e-25
    euler = eval_special("Pochhammer", 0.5, 0.5, 100)
    assert abs(euler - 0.2887880951) < 1e-9


def test_theta_functional_equation():
    x, q = 0.5, 1 / 3
    lhs = x * eval_special("Theta", x * q, q, 60)
    rhs = eval_special("Theta", x, q, 60)
    assert abs(lhs - rhs) < 1e-12


def test_eval_special_domain_errors():
    with pytest.raises(DomainError):
        eval_special("Pochhammer", 0.5, 1.5, 10)
    with pytest.raises(DomainError):
        eval_special("Theta", 0, 0.5, 10)
    with pytest.raises(ValueError):
        eval_special("Pochhammer", 0.5, 0.5, 0)
    with pytest.raises(ValueError):
        eval_special("Gamma", 0.5, 0.5, 10)


# ---------------------------------------------------------------------------
# numeric transport through a factor move


def numeric_coeffs(e, binding, xv):
    out = {}
    for side in ("P", "Z", "M"):
        acc = 0j
        for k, cf in enumerate(e.side(side)):
            acc += complex(cf.evaluate(binding)) * xv ** k
        out[side] = acc
    return out


def test_pochhammer_transport_numeric():
    rng = random.Random(7)
    before = make_eq("1", "-(b1*x + b0)", "c*(1 - g1*x)*(1 - g2*x)")
    after = gauge_move_factor(before, "Pochhammer", P("g1"))
    q = 1 / 3
    binding = {"q": q, "b1": 0.7, "b0": -1.2, "c": 0.9,
               "g1": 0.6, "g2": -0.25, "t": 0.0, "a": 0.0, "b": 0.0,
               "k1": 0.0, "l": 0.0}
    for _ in range(5):
        xv = rng.uniform(0.2, 0.9)
        old = numeric_coeffs(before, binding, xv)
        new = numeric_coeffs(after, binding, xv)
        # choose y(x), y(x/q) freely, solve the old equation for y(qx)
        y0, ym = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        yp = -(old["Z"] * y0 + old["M"] * ym) / old["P"]
        g1 = binding["g1"]
        u0 = eval_special("Pochhammer", q * g1 * xv, q, 80) * y0
        um = eval_special("Pochhammer", g1 * xv, q, 80) * ym
        up = eval_special("Pochhammer", q * q * g1 * xv, q, 80) * yp
        residual = new["P"] * up + new["Z"] * u0 + new["M"] * um
        assert abs(residual) < 1e-10


def test_theta_transport_numeric():
    rng = random.Random(11)
    before = make_eq("x + 1", "-(b1*x + b0)", "c*x")
    alpha = 0.8
    after = gauge_move_factor(before, "Theta", P("4/5"))
    q = 1 / 3
    binding = {"q": q, "b1": 0.4, "b0": 1.1, "c": -0.6,
               "g1": 0.0, "g2": 0.0, "t": 0.0, "a": 0.0, "b": 0.0,
               "k1": 0.0, "l": 0.0}
    for _ in range(5):
        xv = rng.uniform(0.3, 1.1)
        old = numeric_coeffs(before, binding, xv)
        new = numeric_coeffs(after, binding, xv)
        y0, ym = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        yp = -(old["Z"] * y0 + old["M"] * ym) / old["P"]
        u0 = eval_special("Theta", q * alpha * xv, q, 80) * y0
        um = eval_special("Theta", alpha * xv, q, 80) * ym
        up = eval_special("Theta", q * q * alpha * xv, q, 80) * yp
        residual = new["P"] * up + new["Z"] * u0 + new["M"] * um
        assert abs(residual) < 1e-10


@given(st.integers(-4, 4))
def test_power_record_roundtrip(k):
    rec = record_power(k)
    out = apply_record(invert_record(rec), apply_record(rec, SAMPLE))
    assert equations_equal(out, SAMPLE)
