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
    basis_insert,
    binom_poly,
    format_rational,
    gf_coeffs,
    interpolate,
    reduce_row,
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


def test_unipoly_coefficient_contract():
    # integral coefficients are held as ints, whatever form they came in
    p = UniPoly((Fraction(4, 2), "3", Fraction(1, 2), Fraction(0)))
    assert p.coeffs == (2, 3, Fraction(1, 2))
    assert [type(c) for c in p.coeffs] == [int, int, Fraction]
    q = UniPoly((2, Fraction(3), "1/2"))
    assert p == q and hash(p) == hash(q)
    assert UniPoly((Fraction(6, 3),)) == 2 == UniPoly((2,))
    assert hash(UniPoly((Fraction(6, 3),))) == hash(UniPoly((2,)))
    for bad in (lambda: UniPoly((0.5,)), lambda: p * 0.5, lambda: p(0.5),
                lambda: UniPoly.constant(1.0)):
        with pytest.raises(TypeError):
            bad()
    # evaluation and coefficient lookups stay Fractions
    assert p(3) == Fraction(31, 2) and type(p(3)) is Fraction
    assert UniPoly((1, 2))(2) == 5 and type(UniPoly((1, 2))(2)) is Fraction
    assert UniPoly()(Fraction(1, 3)) == 0 and type(UniPoly()(7)) is Fraction
    assert [p.coeff(i) for i in (0, 2, 7, -1)] == [2, Fraction(1, 2), 0, 0]
    assert {type(p.coeff(i)) for i in (0, 2, 7, -1)} == {Fraction}


def test_rationalgf_coefficient_contract():
    # (1/2 + t) / (3/2 - t/2) in normal form: (-1 - 2t) / (-3 + t), all ints
    g = RationalGF(UniPoly((Fraction(1, 2), 1)), UniPoly((Fraction(3, 2), Fraction(-1, 2))))
    assert (g.num.coeffs, g.den.coeffs) == ((-1, -2), (-3, 1))
    assert {type(c) for c in g.num.coeffs + g.den.coeffs} == {int}
    assert g.to_json() == {"num": [-1, -2], "den": [-3, 1]}
    # the series leaves the integers when the constant term stops dividing
    assert g.coeffs(3) == [Fraction(1, 3), Fraction(7, 9), Fraction(7, 27)]
    assert RationalGF(UniPoly((1, 3)), UniPoly((3,))).coeffs(3) == [Fraction(1, 3), 1, 0]
    assert RationalGF(UniPoly.one(), UniPoly((-1, 1))).coeffs(3) == [-1, -1, -1]
    for series in (g.coeffs(4), gf_coeffs(RationalGF(UniPoly((0, 2)), UniPoly((1, -2, 1))), 4),
                   RationalGF(UniPoly((1, 3)), UniPoly((3,))).coeffs(3)):
        assert {type(c) for c in series} == {Fraction}
    with pytest.raises(TypeError):
        g * 0.5
    with pytest.raises(TypeError):
        RationalGF(UniPoly.one(), UniPoly((1.0,)))


def _fraction_product(a, b):
    """The Fraction convolution UniPoly ran before its integer kernel, kept
    as the reference for the product."""
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += Fraction(x) * Fraction(y)
    while out and out[-1] == 0:
        out.pop()
    return out


def _fraction_value(p, x):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _fraction_series(g, count):
    """The Fraction recurrence RationalGF.coeffs ran before, as the reference."""
    out = []
    for k in range(count):
        acc = Fraction(g.num.coeff(k))
        for j in range(1, min(k, g.den.degree) + 1):
            acc -= g.den.coeff(j) * out[k - j]
        out.append(acc / g.den.coeff(0))
    return out


def _uni_normal(p):
    return (not p.coeffs or p.coeffs[-1] != 0) and all(
        type(c) is (int if Fraction(c).denominator == 1 else Fraction) for c in p.coeffs)


half_poly = st.lists(coeff.map(lambda v: Fraction(v, 2)), max_size=5).map(UniPoly)
half = coeff.map(lambda v: Fraction(v, 2))


@given(half_poly, half_poly, poly, half)
@settings(max_examples=60, deadline=None)
def test_unipoly_results_stay_in_normal_form(a, b, c, x):
    # halves sum and multiply to integers as often as not; those must come
    # back as ints, and the integer polynomial c must stay in ints
    for p in (a, b, a + b, a - b, -a, a * b, a * c, a * 2, a * Fraction(2, 3), a * 0,
              Fraction(1, 2) * c, a + 1, 1 - a, a ** 2, c ** 3, a.compose(b), a.compose(c),
              c.compose(a), a.negate_var(), c * c, c.compose(c)):
        assert _uni_normal(p), p
    assert all(type(v) is int for v in (c * c + c * 3).compose(c - 1).negate_var().coeffs)
    for left, right in ((a, b), (a, c), (c, c)):
        assert list((left * right).coeffs) == _fraction_product(left, right)
    for p in (a, c, a * c):
        assert p(x) == _fraction_value(p, x) and type(p(x)) is Fraction
    g = RationalGF(a * c, UniPoly((1,)) + b * UniPoly.x())
    assert {type(v) for v in g.num.coeffs + g.den.coeffs} <= {int}
    assert g.coeffs(6) == _fraction_series(g, 6)


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


def _normal(row: dict) -> bool:
    """Every coefficient an int when integral, else a Fraction; never a float."""
    return all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
               for c in row.values())


def test_elimination_on_integer_rows_stays_exact():
    basis: dict = {}
    assert basis_insert({1: 2, 3: 3}, basis)
    # the lead is divided out as a Fraction: 3 / 2 is not the float 1.5
    assert basis == {1: {1: 1, 3: Fraction(3, 2)}}
    assert all(_normal(row) for row in basis.values())
    assert type(basis[1][1]) is int and type(basis[1][3]) is Fraction
    assert basis_insert({1: 1, 2: 1}, basis)
    assert basis_insert({4: 3, 5: 6}, basis)
    assert basis[4] == {4: 1, 5: 2}
    assert all(_normal(row) for row in basis.values())
    left = reduce_row({1: 1}, basis)
    assert left == {3: Fraction(-3, 2)} and type(left[3]) is Fraction
    # rows of ints with lead 1 eliminate in ints
    assert basis_insert({6: 1, 7: -2}, basis)
    left = reduce_row({6: 2, 7: 1}, basis)
    assert left == {7: 5} and type(left[7]) is int


def test_reprs_pinned():
    assert repr(UniPoly()) == "UniPoly(0)"
    assert repr(UniPoly((3,))) == "UniPoly(3)"
    assert repr(UniPoly((Fraction(-1, 2), 0, 2))) == "UniPoly(-1/2 + 2*x^2)"
    assert repr(MultiPoly(2)) == "MultiPoly(0)"
    terms = {(0, 0): 3, (1, 2): Fraction(-1, 2), (0, 1): 1}
    assert repr(MultiPoly(2, terms)) == "MultiPoly(3*1 + 1*z1^1 + -1/2*z0^1*z1^2)"
    # the normal form makes the denominator's leading coefficient positive
    assert repr(RationalGF(UniPoly((1, 1)), UniPoly((1, -1)))) == \
        "RationalGF(UniPoly(-1 + -1*x) / UniPoly(-1 + 1*x))"


@pytest.mark.parametrize("call, error, message", [
    (lambda: binom_poly(1, -1), ValueError, "degree must be nonnegative"),
    (lambda: interpolate([(1, 2), (1, 3)]), ValueError, "interpolation nodes must be distinct"),
    (lambda: RationalGF(UniPoly((1,)), UniPoly()), ZeroDivisionError, "zero denominator"),
    (lambda: RationalGF(UniPoly((1,)), UniPoly((0, 1))), ValueError,
     "denominator needs a nonzero constant term"),
    (lambda: MultiPoly(2, {(1,): 1}), ValueError, "exponent tuple has the wrong length"),
    (lambda: MultiPoly(2) + MultiPoly(3), ValueError, "arity mismatch"),
    (lambda: MultiPoly(2, {(1, 0): 1}) * MultiPoly(3, {(0, 0, 1): 1}), ValueError,
     "arity mismatch"),
    (lambda: MultiPoly(2).set_var_zero(2), ValueError, "slot out of range"),
    (lambda: MultiPoly(2).set_var_zero(-1), ValueError, "slot out of range"),
    (lambda: MultiPoly(2).embed(2, 1), ValueError, "embedding does not fit"),
])
def test_exact_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
