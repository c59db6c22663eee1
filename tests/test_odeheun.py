"""Parameter records for the Heun-class operators and their recovery."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qheun.climit import (ODE_CLASSES, HeunODE, classify_ode, emit_ode,
                          limit_coefficients, ode_series, preset_family)
from qheun.odeheun import (
    BHEParams,
    CHEParams,
    ConstraintViolation,
    DHEParams,
    HEParams,
    HeunParams,
    NoMatch,
    PARAM_CLASSES,
    THEParams,
    match_class,
    to_operator,
)

F = Fraction


def _he(alpha=1, beta=1, gamma=1, delta=1, t=2, accessory=0):
    ehat = alpha + beta + 1 - gamma - delta
    return HEParams(alpha, beta, gamma, delta, ehat, t, accessory)


# -- record construction ---------------------------------------------------

def test_field_rosters():
    assert HEParams.FIELDS == ("alpha", "beta", "gamma", "delta", "ehat",
                               "t", "accessory")
    assert CHEParams.FIELDS == ("alpha", "beta", "gamma", "delta",
                                "accessory")
    assert BHEParams.FIELDS == DHEParams.FIELDS == ("alpha", "gamma",
                                                    "delta", "accessory")
    assert THEParams.FIELDS == ("alpha", "gamma", "accessory")
    assert set(PARAM_CLASSES) == {"HE", "CHE", "BHE", "DHE", "THE"}


def test_keyword_and_positional_mix():
    a = CHEParams(1, 2, gamma=3, delta=4, accessory=5)
    b = CHEParams(alpha=1, beta=2, gamma=3, delta=4, accessory=5)
    assert a == b and hash(a) == hash(b)
    assert a.as_dict() == {"class": "CHE", "alpha": 1, "beta": 2,
                           "gamma": 3, "delta": 4, "accessory": 5}


def test_integers_become_exact():
    p = BHEParams(1, 2, 3, 4)
    assert isinstance(p.alpha, Fraction)


def test_bad_constructions():
    with pytest.raises(TypeError, match="missing"):
        BHEParams(1, 2)
    with pytest.raises(TypeError, match="unexpected keyword argument 'zeta'"):
        BHEParams(1, 2, 3, 4, zeta=9)
    with pytest.raises(TypeError,
                       match="multiple values for argument 'alpha'"):
        BHEParams(1, 2, 3, 4, alpha=1)
    with pytest.raises(TypeError):
        BHEParams(1, 2, 3, "4")
    with pytest.raises(TypeError):
        BHEParams(1, 2, 3, True)
    with pytest.raises(TypeError):
        THEParams(1, 2, 3, 4)


def test_records_are_immutable():
    p = THEParams(1, 2, 3)
    with pytest.raises(AttributeError):
        p.alpha = 5


def test_equality_separates_classes():
    assert BHEParams(1, 2, 3, 4) != DHEParams(1, 2, 3, 4)
    assert BHEParams(1, 2, 3, 4) != "BHE"
    # equal records hash equal: 1 and 1.0 are one value
    exact, inexact = BHEParams(1, 2, 3, 4), BHEParams(1.0, 2, 3, 4)
    assert exact == inexact and hash(exact) == hash(inexact)
    assert len({exact, inexact}) == 1


def test_repr_names_fields():
    assert "gamma=3" in repr(THEParams(1, 3, 0))


# -- defining constraints --------------------------------------------------

def test_he_weight_balance_enforced():
    with pytest.raises(ConstraintViolation, match="unbalanced"):
        HEParams(1, 1, 1, 1, 2, t=3, accessory=0)
    # floats get a tolerant comparison
    HEParams(0.5, 0.5, 1.0, 0.5, 0.5 + 1e-13, t=3.0, accessory=0.0)


def test_he_branch_point_placement():
    for t in (0, 1, F(1)):
        with pytest.raises(ConstraintViolation, match="branch point"):
            _he(t=t)
    _he(t=F(1, 2))


def test_che_needs_drift():
    with pytest.raises(ConstraintViolation, match="beta = 0"):
        CHEParams(1, 0, 2, 3, 4)
    CHEParams(0, 1, 2, 3, 4)


def test_dhe_needs_unramified_origin():
    with pytest.raises(ConstraintViolation, match="delta = 0"):
        DHEParams(1, 2, 0, 4)


# -- singularity census ----------------------------------------------------

def test_census_follows_the_degeneration_chain():
    he = _he(t=F(7, 2)).singular_points()
    assert he == {"regular": (0, 1, F(7, 2), "Infinity"), "irregular": ()}
    che = CHEParams(1, 1, 1, 1, 0).singular_points()
    assert che == {"regular": (0, 1), "irregular": ("Infinity",)}
    assert BHEParams(1, 1, 1, 1).singular_points() == {
        "regular": (0,), "irregular": ("Infinity",)}
    assert DHEParams(1, 1, 1, 1).singular_points() == {
        "regular": (), "irregular": (0, "Infinity")}
    assert THEParams(1, 1, 1).singular_points() == {
        "regular": (), "irregular": ("Infinity",)}
    # each collapse step removes one point from the census
    counts = [4, 3, 2, 2, 1]
    tallies = [len(p["regular"]) + len(p["irregular"]) for p in (
        he, che,
        BHEParams(1, 1, 1, 1).singular_points(),
        DHEParams(1, 1, 1, 1).singular_points(),
        THEParams(1, 1, 1).singular_points())]
    assert tallies == counts


@pytest.mark.parametrize("p", [
    _he(t=F(7, 2)), _he(t=-3), CHEParams(2, 3, F(1, 2), 5, 7),
    BHEParams(1, 1, 1, 1), DHEParams(2, 3, 4, 5), THEParams(1, 1, 1)],
    ids=lambda p: p.CLASS + ("-t=%s" % p.t if p.CLASS == "HE" else ""))
def test_census_names_the_operators_singularities(p):
    # the record's census and classify_ode's reading of its rows are two
    # representations of one point set, not always in one order:
    # classify_ode lists t = -3 before 1
    census = p.singular_points()
    points = census["regular"] + census["irregular"]
    assert len(set(points)) == len(points)
    assert set(points) == set(to_operator(p).singularities)


# -- expansion -------------------------------------------------------------

def test_expand_he_example():
    ode = to_operator(HEParams(1, 1, 1, 1, 1, t=2, accessory=5))
    assert ode.class_ == "HE"
    assert ode.singularities == (0, 1, 2, "Infinity")
    assert ode.second == (2, -3, 1)
    assert ode.first == (2, -6, 3)
    assert ode.zeroth == (0, -5, 1)


def test_expand_che_rows():
    ode = to_operator(CHEParams(2, 3, F(1, 2), 5, 7))
    assert ode.class_ == "CHE"
    assert ode.second == (-1, 1)
    assert ode.first == (-F(1, 2), F(17, 2), -3)
    assert ode.zeroth == (0, 7, -6)
    assert ode.singularities == (0, 1, "Infinity")


def test_expand_bhe_rows():
    ode = to_operator(BHEParams(2, 3, 4, 5))
    assert (ode.second, ode.first, ode.zeroth) == (
        (1,), (3, -4, -1), (0, 5, -2))
    assert ode.class_ == "BHE"


def test_expand_dhe_rows():
    ode = to_operator(DHEParams(2, 3, 4, 5))
    assert (ode.second, ode.first, ode.zeroth) == (
        (0, 1), (-4, -3, -1), (0, 5, -2))
    assert ode.class_ == "DHE"


def test_expand_the_rows():
    ode = to_operator(THEParams(2, 3, 4))
    assert (ode.second, ode.first, ode.zeroth) == (
        (1,), (0, -3, 0, -1), (0, 0, 4, 2))
    assert ode.class_ == "THE"
    assert ode.singularities == ("Infinity",)
    assert ode.accessory == 4


def test_accessory_slot_signs():
    # the four-point display subtracts its accessory entry; the others add
    assert to_operator(_he(accessory=9)).accessory == -9
    assert to_operator(CHEParams(1, 1, 1, 1, 9)).accessory == 9
    assert to_operator(DHEParams(1, 1, 1, 9)).accessory == 9


def test_expand_rejects_non_records():
    with pytest.raises(TypeError):
        to_operator(NoMatch("x"))
    with pytest.raises(TypeError):
        to_operator({"class": "HE"})


# -- recovery --------------------------------------------------------------

def test_match_identity_when_one_is_a_branch_point():
    p = HEParams(-2, 3, F(1, 2), F(3, 2), 0, t=5, accessory=F(7, 3))
    assert match_class(to_operator(p)) == p


def test_match_prefers_smallest_parameters():
    # limit of the q-Heun preset: branch points 2 and 3, neither at 1
    ode = classify_ode(emit_ode(limit_coefficients(preset_family("heun"))))
    p = match_class(ode)
    assert isinstance(p, HEParams)
    assert (p.alpha, p.beta) == (-1, 1)
    assert p.t == F(2, 3)
    assert p.accessory == -1
    # normalized representative is a fixed point of the reading
    again = match_class(to_operator(p))
    assert again == p


def test_match_sorts_the_exponent_pair():
    p = _he(alpha=4, beta=-1)
    q = match_class(to_operator(p))
    assert (q.alpha, q.beta) == (-1, 4)
    assert q == _he(alpha=-1, beta=4)


def test_match_complex_exponent_pair():
    p = HEParams(1j, -1j, 1, 0, 0, t=2, accessory=0)
    q = match_class(to_operator(p))
    assert abs(q.alpha + 1j) < 1e-12 and abs(q.beta - 1j) < 1e-12


def test_match_preset_limits():
    want = {"confluent": CHEParams, "biconfluent": BHEParams,
            "doubly-confluent": DHEParams}
    for name, cls in want.items():
        ode = classify_ode(emit_ode(limit_coefficients(
            preset_family(name))))
        p = match_class(ode)
        assert isinstance(p, cls)
        back = to_operator(p)
        assert (back.second, back.first, back.zeroth) == (
            ode.second, ode.first, ode.zeroth)


def _outcome(read, *args):
    """What one reading returns, or the type and text of its refusal."""
    try:
        return read(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


_exact_row = st.lists(st.fractions(min_value=-3, max_value=3,
                                   max_denominator=3), min_size=3,
                      max_size=4)


@settings(max_examples=120, deadline=None)
@given(rows=st.tuples(_exact_row, _exact_row, _exact_row))
# a constant term in the zeroth row: classify_ode splits off x^rho
@example(rows=([1, 1], [1, 1, 1], [1, 1, 1]))
# HE rows, which a forged CHE tag must not read as CHEParams(1, 1/9, ...)
@example(rows=([1, -3, 2], [1, 1, 1], [0, 1, 1]))
# triconfluent rows
@example(rows=([1], [0, -3, 0, -1], [0, 0, 5, 2]))
# a complex origin exponent: the classified record holds float rows
@example(rows=([F(-7, 3), 0, 1], [F(-1, 2), 0, 0], [-1, 0, 0]))
def test_a_forged_class_tag_changes_no_reading(rows):
    # the class comes from classify_ode alone: no tag that a record
    # holds, right or wrong, moves match_class or ode_series
    if not any(any(r) for r in rows):
        return
    raw = HeunODE(*rows)
    records = [raw]
    try:
        records.append(classify_ode(raw))
    except ValueError:
        pass
    # a classified record may hold float rows (an irrational x^rho split),
    # so each record is compared with itself
    for o in records:
        want_match = match_class(o)
        want_series = _outcome(ode_series, o, 6)
        for tag in ODE_CLASSES:
            assert match_class(o._replace(class_=tag)) == want_match, tag
            forged = o._replace(class_=tag, limits=None)
            assert _outcome(ode_series, forged, 6) == want_series, tag


def test_a_forged_tag_does_not_misread_the_rows():
    rows = ((1, -3, 2), (1, 1, 1), (0, 1, 1))
    he = match_class(HeunODE(*rows))
    assert isinstance(he, HEParams)
    assert match_class(HeunODE(*rows, class_="CHE")) == he
    assert ode_series(HeunODE(*rows, class_="HE"), 4) == \
        ode_series(HeunODE(*rows), 4)


def test_match_reduced_dhe_is_an_obstruction():
    ode = HeunODE((0, 1), (0, 0, -1), (0, 1))
    out = match_class(ode)
    assert not out
    assert "reduced DHE" in out.obstruction


def test_match_reduced_che_is_an_obstruction():
    ode = HeunODE((-1, 1), (-F(1, 2), 2, 0), (0, 1))
    out = match_class(ode)
    assert isinstance(out, NoMatch)
    assert "reduced confluent" in out.obstruction


def test_match_unclassifiable_reports_reason():
    out = match_class(HeunODE((0, 0, 1), (0, 0, 1), (0, 1)))
    assert not out and "origin" in out.obstruction


def test_match_bhe_imaginary_stretch():
    out = match_class(HeunODE((1,), (0, 0, 1), (0, 1)))
    assert not out and "imaginary" in out.obstruction


def test_match_bhe_missing_drift():
    out = match_class(HeunODE((1,), (1, 2), (0, 1)))
    assert not out and "quadratic term" in out.obstruction


def test_match_cubic_sparsity():
    out = match_class(HeunODE((1,), (1, -3, 0, -1), (0, 0, 5, 2)))
    assert not out and "sparsity" in out.obstruction


def test_match_irrational_stretch():
    ode = HeunODE((2,), (1, 1, -1), (0, 3, -1))
    p = match_class(ode)
    assert isinstance(p, BHEParams)
    assert abs(p.delta + 2 ** 0.5 / 2) < 1e-12
    assert (p.alpha, p.gamma) == (1, F(1, 2))
    again = match_class(to_operator(p))
    for f in p.FIELDS:
        assert abs(getattr(again, f) - getattr(p, f)) < 1e-9


def test_match_he_reading_survives_rescaling():
    # a complex pair of branch points gives two equivalent readings, t and
    # its conjugate; scaling every row by 3 used to flip between them
    rows = ((5, 8, 5), (5, 7, 9), (0, -4, 7))
    p = match_class(HeunODE(*rows))
    r = match_class(HeunODE(*(tuple(3 * v for v in row) for row in rows)))
    assert isinstance(p, HEParams) and isinstance(r, HEParams)
    assert p.t.imag < 0 and r.t.imag < 0
    for f in p.FIELDS:
        assert abs(getattr(r, f) - getattr(p, f)) < 1e-12


def test_match_the_exact_cube_root():
    ode = HeunODE((8,), (0, -1, 0, -1), (0, 0, 4, 16))
    p = match_class(ode)
    assert p == THEParams(16, F(1, 4), 2)
    assert isinstance(p.gamma, Fraction)


def test_match_the_float_stretch_off_a_cube():
    # sigma^3 = 2 has no rational root: the real cube root comes in floats
    p = match_class(HeunODE((2,), (0, -1, 0, -1), (0, 0, 4, 16)))
    sigma = 2 ** (1 / 3)
    assert p == THEParams(16, sigma / 2, 4 * sigma * sigma / 2)
    # a negative ratio keeps its sign: sigma = -2^(1/3) over n = -2
    q = match_class(HeunODE((-2,), (0, -1, 0, -1), (0, 0, 4, 16)))
    assert q == THEParams(16, sigma / 2, -4 * sigma * sigma / 2)


def test_match_the_non_real_stretch_is_an_obstruction():
    # -S0/F3 = 1j has no real cube root to stretch by
    out = match_class(HeunODE((1j,), (0, -1, 0, -1), (0, 0, 1, 1)))
    assert isinstance(out, NoMatch) and "non-real" in out.obstruction
    # a complex ratio on the real axis is read as the real one
    p = match_class(HeunODE((8 + 0j,), (0, -1, 0, -1), (0, 0, 4, 16)))
    assert isinstance(p, THEParams)
    assert abs(p.alpha - 16) < 1e-12 and abs(p.gamma - 0.25) < 1e-12


@pytest.mark.parametrize("e", [42, 45, 402])
def test_match_the_exact_cube_root_at_any_size(e):
    # sigma^3 = 10^e: the stretch 10^(e/3) is exact however large it is
    ode = HeunODE((F(10 ** e),), (0, -2, 0, -1), (0, 0, 3, 1))
    want = THEParams(1, F(2, 10 ** (2 * e // 3)), F(3, 10 ** (e // 3)))
    assert match_class(ode) == want
    assert match_class(to_operator(want)) == want


def test_match_he_with_a_branch_point_beyond_the_float_range():
    p = HEParams(1, 2, 3, F(1, 2), F(1, 2), 10 ** 320, 5)
    assert match_class(to_operator(p)) == p


def test_match_never_raises_on_forged_tags():
    forged = HeunODE((0, 1), (0, 0, -1), (0, 1), class_="DHE")
    out = match_class(forged)
    assert isinstance(out, (HeunParams, NoMatch))


def test_nomatch_is_falsy_and_immutable():
    n = NoMatch("because")
    assert not n and n.obstruction == "because"
    assert "because" in repr(n)
    with pytest.raises(AttributeError):
        n.obstruction = "other"
    # a record: compared by value, and it unpacks
    assert n == NoMatch("because") and n != NoMatch("other")
    (obstruction,) = n
    assert obstruction == "because" and n == ("because",)


# -- randomized round trips ------------------------------------------------

_frac = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_nonzero = _frac.filter(bool)


@settings(max_examples=100, deadline=None)
@given(ab=st.tuples(_frac, _frac), gamma=_frac, delta=_frac,
       t=_nonzero.filter(lambda v: v != 1), B=_frac)
def test_roundtrip_he(ab, gamma, delta, t, B):
    alpha, beta = sorted(ab)
    ehat = alpha + beta + 1 - gamma - delta
    p = HEParams(alpha, beta, gamma, delta, ehat, t, B)
    assert match_class(to_operator(p)) == p


@settings(max_examples=100, deadline=None)
@given(alpha=_frac, beta=_nonzero, gamma=_frac, delta=_frac, B=_frac)
def test_roundtrip_che(alpha, beta, gamma, delta, B):
    p = CHEParams(alpha, beta, gamma, delta, B)
    assert match_class(to_operator(p)) == p


@settings(max_examples=100, deadline=None)
@given(alpha=_frac, gamma=_frac, delta=_frac, B=_frac)
def test_roundtrip_bhe(alpha, gamma, delta, B):
    p = BHEParams(alpha, gamma, delta, B)
    assert match_class(to_operator(p)) == p


@settings(max_examples=100, deadline=None)
@given(alpha=_frac, gamma=_frac, delta=_nonzero, B=_frac)
def test_roundtrip_dhe(alpha, gamma, delta, B):
    p = DHEParams(alpha, gamma, delta, B)
    assert match_class(to_operator(p)) == p


@settings(max_examples=100, deadline=None)
@given(alpha=_frac, gamma=_frac, B=_frac)
def test_roundtrip_the(alpha, gamma, B):
    p = THEParams(alpha, gamma, B)
    assert match_class(to_operator(p)) == p


_entry = st.integers(min_value=-3, max_value=3)


@settings(max_examples=150, deadline=None)
@given(rows=st.tuples(*(st.tuples(*([_entry] * 3)) for _ in range(3))))
# a complex origin exponent makes the biconfluent stretch non-real
@example(rows=((1, 0, 0), (0, 0, 1), (1, 0, 0)))
# rationals beyond the float range overflow in classify_ode's quad_roots
@example(rows=((F(10**400) + 1, 3, 1), (0, 1, 0), (0, 1, 1)))
# and in the triconfluent cube root
@example(rows=((F(10**400), 0, 0, 0), (0, 1, 0, -1), (0, 0, 1, 1)))
def test_match_total_on_arbitrary_rows(rows):
    second, first, zeroth = rows
    if not any(any(r) for r in rows):
        return
    out = match_class(HeunODE(second, first, zeroth))
    assert isinstance(out, (HeunParams, NoMatch))
    if isinstance(out, HeunParams):
        back = to_operator(out)
        assert back.class_ == out.CLASS
        # exact recoveries are fixed points
        if all(isinstance(getattr(out, f), Fraction) for f in out.FIELDS):
            assert match_class(back) == out
