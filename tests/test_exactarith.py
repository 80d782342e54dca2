"""Ring laws and serialization for the exact arithmetic layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peaklab.exact import (
    MultiPoly,
    RationalGF,
    UniPoly,
    as_fraction,
    binom_poly,
    format_rational,
    gf_coeffs,
    interpolate,
)

coeff = st.integers(min_value=-9, max_value=9)
poly = st.lists(coeff, max_size=6).map(UniPoly)


@given(poly, poly, poly)
@settings(max_examples=60, deadline=None)
def test_unipoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == UniPoly.zero()
    assert a * UniPoly.one() == a


@given(poly, st.integers(min_value=-5, max_value=5))
@settings(max_examples=60, deadline=None)
def test_unipoly_evaluation_is_ring_hom(a, x):
    b = UniPoly((3, -1, 2))
    assert (a + b)(x) == a(x) + b(x)
    assert (a * b)(x) == a(x) * b(x)


@given(poly)
@settings(max_examples=40, deadline=None)
def test_unipoly_compose_negate(a):
    assert a.compose(UniPoly.x()) == a
    assert a.negate_var()(3) == a(-3)
    assert a.negate_var().negate_var() == a


def test_unipoly_trims_and_degree():
    assert UniPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert UniPoly().degree == -1
    assert UniPoly((0,)).degree == -1
    assert not UniPoly((0, 0))


def test_unipoly_string_round_trip():
    p = UniPoly((Fraction(1, 3), -2, Fraction(7, 2)))
    assert UniPoly.from_strings(p.to_strings()) == p
    assert p.to_strings() == ["1/3", "-2", "7/2"]


def test_binom_poly_values():
    # binomial(x + shift, degree) at integer points
    p = binom_poly(2, 3)
    assert [p(k) for k in range(5)] == [0, 1, 4, 10, 20]
    assert binom_poly(0, 0)(17) == 1
    assert binom_poly(-1, 2)(1) == 0


@given(st.lists(st.tuples(coeff, coeff), min_size=1, max_size=6,
                unique_by=lambda t: t[0]))
@settings(max_examples=60, deadline=None)
def test_interpolation_hits_every_node(points):
    p = interpolate(points)
    assert p.degree < len(points)
    for x, y in points:
        assert p(x) == y


def test_interpolation_recovers_polynomial():
    p = UniPoly((5, 0, -3, 2))
    nodes = [(x, p(x)) for x in range(5)]
    assert interpolate(nodes) == p


def test_gf_geometric_series():
    g = RationalGF(UniPoly.one(), UniPoly((1, -1)) ** 2)
    assert gf_coeffs(g, 6) == [1, 2, 3, 4, 5, 6]


@given(poly, st.lists(coeff, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_gf_equality_normalizes(num, den_tail):
    den = UniPoly([1] + den_tail)
    g = RationalGF(num, den)
    scaled = RationalGF(num * UniPoly((2, 1)), den * UniPoly((2, 1)))
    assert g == scaled
    assert g.coeffs(8) == scaled.coeffs(8)


def test_gf_arithmetic_matches_series():
    a = RationalGF(UniPoly((0, 1)), UniPoly((1, -1)))
    b = RationalGF(UniPoly.one(), UniPoly((1, 0, -1)))
    n = 10
    sa, sb = a.coeffs(n), b.coeffs(n)
    assert (a + b).coeffs(n) == [x + y for x, y in zip(sa, sb)]
    prod = (a * b).coeffs(n)
    conv = [sum(sa[i] * sb[k - i] for i in range(k + 1)) for k in range(n)]
    assert prod == conv


def test_gf_even_part_picks_even_coefficients():
    g = RationalGF(UniPoly((1, 1)), UniPoly((1, -1, 0, -2)))
    full = g.coeffs(12)
    assert g.even_part().coeffs(6) == full[0::2]


def test_gf_json_round_trip():
    g = RationalGF(UniPoly((0, 2, 4)), UniPoly((1, -4, 6, -4, 1)))
    assert RationalGF.from_json(g.to_json()) == g


mono_exps = st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2)
mpoly = st.lists(st.tuples(mono_exps, coeff), max_size=5).map(
    lambda ts: sum(
        (MultiPoly.monomial(2, e, c) for e, c in ts), MultiPoly.zero(2)
    )
)


@given(mpoly, mpoly, mpoly)
@settings(max_examples=50, deadline=None)
def test_multipoly_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == MultiPoly.zero(2)


@given(mpoly)
@settings(max_examples=50, deadline=None)
def test_multipoly_eval_and_embed(a):
    assert a.eval_all_ones() == sum(a.terms.values())
    wide = a.embed(5, 2)
    assert wide.arity == 5
    assert wide.eval_all_ones() == a.eval_all_ones()
    assert {e[2:4] for e in wide.terms} == {tuple(e) for e in a.terms}


def test_multipoly_coefficient_contract():
    # integral coefficients are held as ints, whatever form they came in
    two = MultiPoly.monomial(2, (1, 0), Fraction(4, 2))
    assert two.terms == {(1, 0): 2} and type(two.terms[(1, 0)]) is int
    by_int = MultiPoly(2, {(1, 0): 2, (0, 1): Fraction(1, 2), (1, 1): "3"})
    by_fraction = MultiPoly(2, {(1, 0): Fraction(2), (0, 1): Fraction(1, 2), (1, 1): Fraction(3)})
    assert by_int == by_fraction and hash(by_int) == hash(by_fraction)
    assert [type(c) for c in by_int.terms.values()] == [int, Fraction, int]
    with pytest.raises(TypeError):
        MultiPoly.monomial(2, (1, 0), 0.5)
    with pytest.raises(TypeError):
        MultiPoly(1, {(0,): 1.0})
    with pytest.raises(TypeError):
        two * 0.5
    # the sum of the coefficients stays a Fraction
    assert type(two.eval_all_ones()) is Fraction and two.eval_all_ones() == 2
    assert type(MultiPoly.zero(3).eval_all_ones()) is Fraction


def _in_normal_form(p):
    return all(type(c) is (int if Fraction(c).denominator == 1 else Fraction) and c
               for c in p.terms.values())


half_mpoly = st.lists(st.tuples(mono_exps, coeff.map(lambda v: Fraction(v, 2))), max_size=5).map(
    lambda ts: sum((MultiPoly.monomial(2, e, c) for e, c in ts), MultiPoly.zero(2))
)


@given(half_mpoly, half_mpoly, mpoly)
@settings(max_examples=50, deadline=None)
def test_multipoly_results_stay_in_normal_form(a, b, c):
    # halves sum and multiply to integers as often as not; those must
    # come back as ints, and the integer polynomial c must stay in ints
    for p in (a, b, a + b, a - b, -a, a * b, a * c, a * 2, a * Fraction(2, 3),
              Fraction(1, 2) * c, c * c, a.embed(3, 1), a.set_var_zero(0)):
        assert _in_normal_form(p), p
    assert all(type(v) is int for v in (c * c + c * 3).terms.values())
    assert (a + b) * 2 == a * 2 + b * 2


def test_multipoly_set_var_zero():
    # the substituted slot disappears, narrowing the arity
    p = MultiPoly.monomial(2, (0, 2), 3) + MultiPoly.monomial(2, (1, 1), 5)
    assert p.set_var_zero(0) == MultiPoly.monomial(1, (2,), 3)
    assert p.set_var_zero(1) == MultiPoly.zero(1)


def test_fraction_formatting():
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(4)) == "4"
    assert as_fraction("7/3") == Fraction(7, 3)
    with pytest.raises((ValueError, TypeError)):
        as_fraction(0.25)
