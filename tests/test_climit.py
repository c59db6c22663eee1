"""Limit passage q -> 1: exact limit data, classification, crosschecks."""

import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import qheun
from qheun import climit
from qheun.climit import (
    AllZero,
    EpsilonFamily,
    HeunODE,
    IrregularAtZero,
    LimitData,
    LimitDiverges,
    Unclassifiable,
    classify_ode,
    crosscheck,
    emit_ode,
    limit_coefficients,
    ode_series,
    preset_family,
    preset_names,
    preset_note,
    preset_target,
)
from qheun.local import Resonance, char_exponents
from qheun.symkernel import UnknownParameter, sym

F = Fraction

# frozen limit data for the four shipped presets
_PRESET_B = {
    "heun": dict(b2=F(1), b1=F(-5), b0=F(6),
                 b21=F(0), b11=F(0), b01=F(0),
                 b20=F(-1), b10=F(3), b00=F(0)),
    "confluent": dict(b2=F(0), b1=F(1), b0=F(-1),
                      b21=F(-1), b11=F(1), b01=F(1, 2),
                      b20=F(0), b10=F(1), b00=F(0)),
    "biconfluent": dict(b2=F(0), b1=F(0), b0=F(1),
                        b21=F(-1), b11=F(1), b01=F(1, 2),
                        b20=F(-1), b10=F(1), b00=F(0)),
    "doubly-confluent": dict(b2=F(0), b1=F(1), b0=F(0),
                             b21=F(-1), b11=F(0), b01=F(1, 2),
                             b20=F(-1), b10=F(1), b00=F(0)),
}

_PRESET_CLASS = {
    "heun": "HE",
    "confluent": "CHE",
    "biconfluent": "BHE",
    "doubly-confluent": "DHE",
}

_PRESET_SING = {
    "heun": (0, F(2), F(3), "Infinity"),
    "confluent": (0, F(1), "Infinity"),
    "biconfluent": (0, "Infinity"),
    "doubly-confluent": (0, "Infinity"),
}


def _b(**kw):
    base = dict(b2=F(0), b1=F(0), b0=F(0), b21=F(0), b11=F(0), b01=F(0),
                b20=F(0), b10=F(0), b00=F(0))
    base.update({k: F(v) for k, v in kw.items()})
    return LimitData(**base)


# -- presets ---------------------------------------------------------------

def test_preset_names_are_stable():
    assert preset_names() == ("heun", "confluent", "biconfluent",
                              "doubly-confluent")


def test_unknown_preset():
    for lookup in (preset_family, preset_target, preset_note):
        with pytest.raises(ValueError, match="unknown preset"):
            lookup("nope")


@pytest.mark.parametrize("name", sorted(_PRESET_B))
def test_preset_limits_exact(name):
    b = limit_coefficients(preset_family(name))
    assert b.as_dict() == _PRESET_B[name]


@pytest.mark.parametrize("name", sorted(_PRESET_B))
def test_preset_classification(name):
    ode = classify_ode(emit_ode(limit_coefficients(preset_family(name))))
    assert ode.class_ == _PRESET_CLASS[name] == preset_target(name)
    assert ode.rho == 0
    assert ode.singularities == _PRESET_SING[name]


@pytest.mark.parametrize("name", sorted(_PRESET_B))
def test_preset_slot_values_at_zero(name):
    # half-sum / difference / full-sum limits force the slot pattern
    # (b, -2b, b) for the up / middle / down rows at eps = 0
    fam = preset_family(name)
    b = _PRESET_B[name]
    for k in range(3):
        bk = b["b%d" % k]
        assert fam.value("plus", k, F(0)) == bk
        assert fam.value("minus", k, F(0)) == bk
        assert fam.value("zero", k, F(0)) == -2 * bk


@pytest.mark.parametrize("name", sorted(_PRESET_B))
def test_preset_unit_root_is_exact(name):
    # the chosen q-side branch: an exact unit characteristic root at the
    # origin for every eps, matching the exponent-0 branch of the limit
    fam = preset_family(name)
    for eps in (F(1, 7), F(1, 100), F(3, 10)):
        ch = char_exponents(fam.equation(eps), at="Zero")
        assert any(r == 1 for r in ch.roots)
    assert "exponent-0" in preset_note(name)


def test_heun_preset_equation_spot_values():
    eq = preset_family("heun").equation(F(1, 10))
    assert eq.coeff("P", 2).const_value() == F(99, 100)
    assert eq.coeff("M", 2).const_value() == 1
    assert eq.coeff("M", 0).const_value() == 6
    assert eq.coeff("Z", 2).const_value() == -2
    # the degree-0 row sum vanishes identically, pinning the unit root
    total = sum((eq.coeff(side, 0).const_value() for side in "PZM"), F(0))
    assert total == 0
    # while the degree-2 sum is -eps^2 exactly, the source of b20 = -1
    total2 = sum((eq.coeff(side, 2).const_value() for side in "PZM"), F(0))
    assert total2 == -F(1, 10) ** 2


# -- family construction ---------------------------------------------------

def test_family_rejects_short_rows():
    with pytest.raises(ValueError, match="exactly 3"):
        EpsilonFamily(plus=("1", "0"), zero=("0", "0", "0"),
                      minus=("0", "0", "1"))


def test_family_rejects_foreign_parameter():
    with pytest.raises(UnknownParameter):
        EpsilonFamily(plus=("1 + zeta", "0", "0"),
                      zero=("-2", "0", "0"),
                      minus=("1", "0", "0"))
    with pytest.raises(ValueError, match="only 'eps' is allowed"):
        EpsilonFamily(plus=(sym("t"), 0, 0), zero=(-2, 0, 0),
                      minus=(1, 0, 0))


def test_family_refuses_an_inexact_entry():
    # an entry is exact or refused: no callable or float reaches a limit
    for entry in (lambda e: 1 + e, 0.5):
        with pytest.raises(TypeError, match="cannot interpret"):
            EpsilonFamily(plus=(entry, 0, 0), zero=(-2, 0, 0),
                          minus=(1, 0, 0))


def test_family_equation_at_a_pole_of_an_entry():
    # heun's n2 = 1/(1 + eps): eps = -1 is q = 0
    with pytest.raises(ZeroDivisionError):
        preset_family("heun").equation(F(-1))


def test_family_is_immutable():
    fam = preset_family("biconfluent")
    with pytest.raises(AttributeError):
        fam.plus = ()


def test_family_repr_shows_shape():
    assert "EpsilonFamily" in repr(preset_family("doubly-confluent"))


# -- limit data ------------------------------------------------------------

def test_limit_diverges_on_slot_pole():
    fam = EpsilonFamily(plus=("1/eps", "0", "0"), zero=("-2", "0", "0"),
                        minus=("1", "0", "0"))
    with pytest.raises(LimitDiverges, match=r"slot \(plus, 0\)"):
        limit_coefficients(fam)


def test_limit_diverges_on_first_order():
    # rows finite at 0 but the shifted-row difference is order one
    fam = EpsilonFamily(plus=("1", "0", "0"), zero=("-3", "0", "0"),
                        minus=("2", "0", "0"))
    with pytest.raises(LimitDiverges, match="first-order"):
        limit_coefficients(fam)


def test_limit_diverges_on_second_order():
    fam = EpsilonFamily(plus=("1", "0", "0"), zero=("-2 + eps", "0", "0"),
                        minus=("1", "0", "0"))
    with pytest.raises(LimitDiverges, match="second-order"):
        limit_coefficients(fam)


def _skewed(real):
    """_limit_value with the zero-row degree-1 slot value off by one."""
    def skewed(expr, parameter, what):
        value = real(expr, parameter, what)
        return value + 1 if what.startswith("slot (zero, 1)") else value
    return skewed


def test_inconsistent_slot_values_raise(monkeypatch):
    # consistent limits always give (b, -2b, b), so the check is reached
    # only through a slot value that disagrees with the half sum
    monkeypatch.setattr(climit, "_limit_value",
                        _skewed(climit._limit_value))
    with pytest.raises(LimitDiverges, match=r"slot \(zero, 1\)"):
        limit_coefficients(preset_family("heun"))


def test_slot_value_check_survives_optimized_mode():
    # python -O strips assert statements; the check must not be one
    script = "\n".join([
        "from qheun import climit",
        inspect.getsource(_skewed),
        "climit._limit_value = _skewed(climit._limit_value)",
        "try:",
        "    climit.limit_coefficients(climit.preset_family('heun'))",
        "except climit.LimitDiverges as exc:",
        "    print('raised:', exc)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(qheun.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: slot (zero, 1)")


def test_limit_data_row_view():
    b = limit_coefficients(preset_family("confluent"))
    assert b.row(2) == (0, -1, 0)
    assert b.row(1) == (1, 1, 1)
    assert b.row(0) == (-1, F(1, 2), 0)


def test_limit_data_immutable():
    b = _b(b0=1)
    with pytest.raises(AttributeError):
        b.b0 = 2


# -- operator emission and classification ----------------------------------

def test_emit_ode_rows():
    ode = emit_ode(limit_coefficients(preset_family("heun")))
    assert ode.second == (6, -5, 1)
    assert ode.first == (6, -5, 1)
    assert ode.zeroth == (0, 3, -1)
    assert ode.class_ is None and ode.rho is None


def test_emit_all_zero():
    with pytest.raises(AllZero):
        emit_ode(_b())


def test_classify_reduced_che():
    ode = classify_ode(emit_ode(_b(b1=1, b0=-1, b11=1, b01="1/2", b10=1)))
    assert ode.class_ == "ReducedCHE"


def test_classify_dhe_flags():
    plain = _b(b1=1, b21=-1, b01="1/2", b10=1)
    assert classify_ode(emit_ode(plain)).class_ == "DHE"
    ramified_origin = _b(b1=1, b21=-1, b10=1)
    assert classify_ode(emit_ode(ramified_origin)).class_ == "ReducedDHE"
    ramified_infinity = _b(b1=1, b01="1/2", b10=1)
    assert classify_ode(emit_ode(ramified_infinity)).class_ == "ReducedDHE"
    both = _b(b1=1, b11=2, b10=1)
    assert classify_ode(emit_ode(both)).class_ == "DoublyReducedDHE"


def test_classify_unclassifiable_double_root():
    with pytest.raises(Unclassifiable, match="collide"):
        classify_ode(emit_ode(_b(b2=1, b1=2, b0=1, b10=1)))


def test_classify_unclassifiable_origin_confluence():
    with pytest.raises(Unclassifiable, match="origin"):
        classify_ode(emit_ode(_b(b2=1, b1=1, b10=1)))


def test_classify_unclassifiable_vanished_row():
    with pytest.raises(Unclassifiable, match="second-derivative"):
        classify_ode(emit_ode(_b(b10=1)))


def test_classify_gauge_rational_rho():
    # constant slot nonzero: exponent relation rho^2 - 1 = 0, smaller
    # root -1 is chosen and the slot is cleared exactly
    b = _b(b1=1, b0=1, b21=-1, b10=1, b00=-1)
    ode = classify_ode(emit_ode(b))
    assert ode.class_ == "CHE"
    assert ode.rho == -1
    assert ode.limits.b00 == 0
    assert ode.limits.b01 == -2
    assert ode.limits.b11 == -2
    assert ode.limits.b10 == 2
    assert ode.limits.b20 == 1


def test_classify_gauge_float_rho():
    b = _b(b2=1, b1=3, b0=1, b10=1, b00=-2)
    ode = classify_ode(emit_ode(b))
    assert ode.class_ == "HE"
    rho = ode.rho
    assert abs(rho * rho - 2) < 1e-12
    assert ode.limits.b00 == 0


def test_classify_gauge_stores_an_exact_zero():
    # the float root leaves a residual of exactly 0.0 here; the slot is
    # still the exact 0, as it is when the residual is merely small
    ode = classify_ode(HeunODE([-2, 1, 3], [3, 3, -3], [-1, -3, 0]))
    assert isinstance(ode.rho, float)
    assert isinstance(ode.limits.b00, Fraction) and ode.limits.b00 == 0


def test_classify_gauge_linear_rho():
    b = _b(b1=1, b21=-1, b01=2, b10=1, b00=-1)
    ode = classify_ode(emit_ode(b))
    assert ode.class_ == "DHE"
    assert ode.rho == F(1, 2)


def test_classify_gauge_impossible():
    b = _b(b1=1, b21=-1, b10=1, b00=-1)
    with pytest.raises(Unclassifiable, match="exponent equation"):
        classify_ode(emit_ode(b))


def test_classify_triconfluent_shape():
    ode = classify_ode(HeunODE((1,), (0, -3, 0, -1), (0, 0, 5, 2)))
    assert ode.class_ == "THE"
    assert ode.singularities == ("Infinity",)
    assert ode.accessory == 5
    with pytest.raises(ValueError, match="quadratic-row"):
        ode_series(ode)


def test_classify_cubic_other():
    ode = classify_ode(HeunODE((1,), (1, -3, 0, -1), (0, 0, 5, 2)))
    assert ode.class_ == "Other"


def test_heun_ode_accessory_slot():
    ode = classify_ode(emit_ode(limit_coefficients(preset_family("heun"))))
    assert ode.accessory == 3


@pytest.mark.parametrize("tag", [None, "HE", "THE", "DHE"])
def test_the_accessory_slot_comes_from_classify_ode(tag):
    # the triconfluent rows keep their accessory in Q2, whatever the tag
    ode = HeunODE((1,), (0, -3, 0, -1), (0, 0, 5, 2))
    assert ode._replace(class_=tag).accessory == 5
    assert classify_ode(ode).accessory == 5
    heun = classify_ode(emit_ode(limit_coefficients(preset_family("heun"))))
    assert heun._replace(class_=tag).accessory == 3


# -- series ----------------------------------------------------------------

def _operator_orders(ode, c):
    """Coefficients of the operator applied to the truncated series."""
    s2 = list(ode.second) + [0] * 3
    f1 = list(ode.first) + [0] * 3
    q0 = list(ode.zeroth) + [0] * 3
    N = len(c) - 1
    out = []
    for m in range(N + 1):
        acc = 0
        for j in range(3):
            n = m - j
            if 0 <= n <= N:
                acc += (s2[j] * n * (n - 1) + f1[j] * n + q0[j]) * c[n]
        out.append(acc)
    return out


@pytest.mark.parametrize("name", sorted(_PRESET_B))
def test_ode_series_satisfies_operator(name):
    ode = classify_ode(emit_ode(limit_coefficients(preset_family(name))))
    c = ode_series(ode, N=14)
    assert len(c) == 15
    # all collected orders that only involve known coefficients vanish
    assert _operator_orders(ode, c)[:15] == [0] * 15


def test_ode_series_counts_from_zero():
    ode = classify_ode(emit_ode(limit_coefficients(preset_family("heun"))))
    assert len(ode_series(ode, N=0)) == 1
    assert ode_series(ode, N=3)[:1] == [1]
    # a negative order is refused, not read as N = 0: crosscheck would
    # otherwise compare two one-term sums and report a perfect 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        ode_series(ode, N=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        crosscheck(preset_family("heun"), F(1, 100), (F(1, 10),), N=-1)


def test_ode_series_classifies_first():
    raw = emit_ode(limit_coefficients(preset_family("biconfluent")))
    assert raw.class_ is None
    assert ode_series(raw, N=5) == ode_series(classify_ode(raw), N=5)


def test_ode_series_irregular_origin():
    ode = classify_ode(emit_ode(_b(b1=1, b21=-1, b10=1)))
    with pytest.raises(IrregularAtZero):
        ode_series(ode)


def test_ode_series_resonance():
    # origin exponents 0 and 3 collide with the recurrence at order 3
    ode = classify_ode(emit_ode(_b(b0=1, b01=-3, b11=1, b10=1)))
    with pytest.raises(Resonance, match="order 3"):
        ode_series(ode, N=5)


# -- crosscheck ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(_PRESET_B))
def test_crosscheck_first_order_decay(name):
    fam = preset_family(name)
    xs = (F(1, 10),)
    d2 = crosscheck(fam, F(1, 100), xs, N=12)
    d3 = crosscheck(fam, F(1, 1000), xs, N=12)
    assert d2 > 0 and d3 > 0
    assert 5 <= d2 / d3 <= 20


def test_crosscheck_accepts_float_eps():
    fam = preset_family("biconfluent")
    exact = crosscheck(fam, F(1, 128), (F(1, 10),), N=8)
    hazy = crosscheck(fam, 1 / 128, (F(1, 10),), N=8)
    assert abs(exact - hazy) < 1e-12


def test_crosscheck_refuses_a_gap_below_the_float_range():
    # the exact gap at eps = 10^-400 is about 10^-400, which float()
    # rounds to 0.0: a false perfect match, so it is refused instead
    with pytest.raises(ValueError, match="below the float range"):
        crosscheck(preset_family("heun"), F(1, 10 ** 400), (F(1, 10),), N=12)


def test_crosscheck_at_eps_zero_is_resonant():
    # q = 1 zeroes the q-series recurrence denominator at order 1
    with pytest.raises(Resonance, match="order 1"):
        crosscheck(preset_family("heun"), 0, (F(1, 10),), N=12)


def test_crosscheck_without_an_origin_root():
    # P0 = M0 = 0 at every eps: the characteristic quadratic at the origin
    # has no nonzero root, so there is no q-branch to compare
    fam = EpsilonFamily(plus=("0", "1", "0"), zero=("1", "-2", "0"),
                        minus=("0", "1", "0"))
    with pytest.raises(ValueError, match="no characteristic root"):
        crosscheck(fam, F(1, 100), (F(1, 10),))


def test_crosscheck_refuses_an_empty_sample():
    # no point, no gap: 0.0 would read as a perfect match; an iterator
    # has no length, so it must be taken in before the check
    for empty in ((), iter(()), (x for x in ())):
        with pytest.raises(ValueError, match="sample xs is empty"):
            crosscheck(preset_family("heun"), F(1, 100), empty, N=12)


# -- randomized properties -------------------------------------------------

_small = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(b2=_small, b1=_small, b0=_small, b21=_small, b11=_small,
       b01=_small, b20=_small, b10=_small)
def test_classify_preserves_limits_without_gauge(b2, b1, b0, b21, b11,
                                                 b01, b20, b10):
    b = _b(b2=b2, b1=b1, b0=b0, b21=b21, b11=b11, b01=b01,
           b20=b20, b10=b10)
    try:
        ode = classify_ode(emit_ode(b))
    except (AllZero, Unclassifiable):
        return
    assert ode.rho == 0
    assert ode.limits == b
    # the pattern that was classified matches the zero structure
    if ode.class_ == "HE":
        assert b2 != 0 and b0 != 0
    elif ode.class_ in ("CHE", "ReducedCHE"):
        assert b2 == 0 and b1 != 0 and b0 != 0
        assert (ode.class_ == "ReducedCHE") == (b21 == 0)
    elif ode.class_ == "BHE":
        assert (b2, b1) == (0, 0) and b0 != 0
    else:
        assert (b2, b0) == (0, 0) and b1 != 0


_exact_entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_float_entry = st.floats(min_value=-3, max_value=3)


@settings(max_examples=150, deadline=None)
@given(rows=st.tuples(*[st.lists(st.one_of(_exact_entry, _float_entry),
                                 min_size=3, max_size=4)] * 3))
@example(rows=([1, 1], [1, 1, 1], [1, 1, 1]))
@example(rows=([0.5, 1], [0.25, 1, 3], [0.1, 2]))
@example(rows=([1], [0, -3, 0, -1], [0, 0, 5, 2]))
@example(rows=([F(-7, 3), 0, 1], [F(-1, 2), 0, 0], [-1, 0, 0]))
def test_classify_reads_its_own_output_back(rows):
    # one decision: a classified record classifies to itself, and rows
    # that need no x^rho split are kept as given
    try:
        once = classify_ode(HeunODE(*rows))
    except (AllZero, Unclassifiable, ArithmeticError):
        return
    twice = classify_ode(once)
    fields = ("second", "first", "zeroth", "class_", "singularities")
    assert [getattr(twice, f) for f in fields] == \
        [getattr(once, f) for f in fields]
    assert twice.rho == 0
    # exact rows may take an irrational x^rho split into float rows
    exact = all(isinstance(v, Fraction)
                for row in (once.second, once.first, once.zeroth)
                for v in row)
    if exact:
        assert twice.limits == once.limits
    if rows[2][0] == 0:
        for got, given_row in zip((once.second, once.first, once.zeroth),
                                  rows):
            assert list(got) == list(HeunODE(given_row, (), (1,)).second)


@settings(max_examples=40, deadline=None)
@given(b11=_small, b20=_small, b10=_small, b21=_small,
       b01=st.integers(min_value=1, max_value=5))
def test_series_recurrence_is_an_exact_solution(b11, b20, b10, b21, b01):
    # positive b01 with b0 = 1 keeps every denominator nonzero
    b = _b(b0=1, b01=b01, b11=b11, b20=b20, b10=b10, b21=b21)
    ode = classify_ode(emit_ode(b))
    c = ode_series(ode, N=10)
    assert _operator_orders(ode, c)[:11] == [0] * 11
