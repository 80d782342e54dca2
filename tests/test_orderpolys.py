"""Order polynomials against the enumeration oracle, reciprocity, and the
Eulerian-to-peak identities."""

import itertools
from fractions import Fraction

import pytest

from peaklab import (
    ImageSetSpec,
    ResourceLimitError,
    UniPoly,
    binom_poly,
    chain_poset,
    count_partitions,
    class_gf,
    enriched_gf,
    hyperoctahedral_group,
    identity_check_43,
    order_polynomial,
    peak_polynomial,
    reciprocity_check,
    symmetric_group,
)
from peaklab import cli, limits, orderpolys
from peaklab.orderpolys import ORDER_POLY_KINDS, poly_at_gf
from peaklab.exact import RationalGF


UNSIGNED_ENRICHED = (
    ("enriched_interior", "enriched"),
    ("enriched_left", "left_enriched"),
    ("enriched_right", "right_enriched"),
    ("enriched_exterior", "exterior_enriched"),
)


def test_binomial_flavors_match_oracle():
    for pi in symmetric_group(3):
        p = order_polynomial(pi, "A_ordinary")
        for k in range(4):
            assert p(k) == count_partitions(chain_poset(pi), ImageSetSpec("ordinary", k))
    for pi in hyperoctahedral_group(2):
        p = order_polynomial(pi, "B_ordinary")
        for k in range(4):
            got = count_partitions(chain_poset(pi, signed=True), ImageSetSpec("ordinaryB", k))
            assert p(k) == got


def test_enriched_flavors_match_oracle():
    for pi in symmetric_group(3):
        for kind, image in UNSIGNED_ENRICHED:
            p = order_polynomial(pi, kind)
            for k in range(4):
                assert p(k) == count_partitions(chain_poset(pi), ImageSetSpec(image, k)), (pi, kind, k)
    for pi in hyperoctahedral_group(2):
        p = order_polynomial(pi, "enriched_B")
        for k in range(4):
            got = count_partitions(chain_poset(pi, signed=True), ImageSetSpec("B_enriched", k))
            assert p(k) == got, (pi, k)


def test_cyclic_flavors_pinned():
    assert order_polynomial((1, 2, 3), "A_cyclic") == binom_poly(1, 2) * Fraction(1, 3)
    assert order_polynomial((2, 1), "A_cyclic") == binom_poly(0, 1) * Fraction(1, 2)
    assert order_polynomial((1, 2), "B_cyclic") == binom_poly(1, 2)
    # (-2,-1): one signed descent at position 0, no wraparound ascent
    assert order_polynomial((-2, -1), "B_cyclic") == binom_poly(1, 2)
    # (-1,2): negative start and positive finish both count
    assert order_polynomial((-1, 2), "B_cyclic") == binom_poly(0, 2)


def test_order_polynomial_depends_only_on_class():
    # (1,3,2) and (2,3,1) share the lone interior peak
    a = order_polynomial((1, 3, 2), "enriched_interior")
    b = order_polynomial((2, 3, 1), "enriched_interior")
    assert a == b
    assert a != order_polynomial((1, 2, 3), "enriched_interior")


def test_order_polynomial_errors():
    with pytest.raises(ValueError):
        order_polynomial((1, 2), "A_super")
    with pytest.raises(ValueError):
        order_polynomial((), "A_ordinary")
    with pytest.raises(ValueError):
        order_polynomial((-1, 2), "A_ordinary")
    with pytest.raises(ValueError):
        order_polynomial((1, 1), "enriched_B")


def test_enriched_gf_matches_polynomial():
    for pi in symmetric_group(3):
        for kind in ("enriched_interior", "enriched_left"):
            series = enriched_gf(pi, kind).coeffs(6)
            p = order_polynomial(pi, kind)
            assert series == [p(k) for k in range(6)]
    for pi in hyperoctahedral_group(2):
        series = enriched_gf(pi, "enriched_B").coeffs(5)
        p = order_polynomial(pi, "enriched_B")
        assert series == [p(k) for k in range(5)]
    with pytest.raises(ValueError):
        enriched_gf((1, 2), "enriched_right")


def test_class_gf_errors():
    with pytest.raises(ValueError):
        class_gf("A_ordinary", 3, (1,))
    with pytest.raises(ValueError):
        class_gf("enriched_B", 2, (1, 1))  # sign 1 + 2 peaks needs n >= 3
    with pytest.raises(ValueError):
        order_polynomial([1.2, 2.9], "A_ordinary")  # not read as (1, 2)


@pytest.mark.parametrize("kind, n, params", [
    ("enriched_interior", 3, (-1,)),  # used to compute 2 ** -1 as a float
    ("enriched_interior", 3, (2,)),
    ("enriched_interior", 0, (1,)),  # the empty permutation realizes (0,) only
    ("enriched_left", 3, (-1,)),
    ("enriched_left", 3, (2,)),
    ("enriched_right", 3, (2,)),
    ("enriched_exterior", 3, (0,)),
    ("enriched_exterior", 0, (1,)),
    ("enriched_B", 3, (2, 0)),  # a sign count is 0 or 1
    ("enriched_B", 3, (-1, 1)),
    ("enriched_B", 3, (0, -1)),
    ("enriched_left", -2, (0,)),
])
def test_class_gf_refuses_unrealized_parameters(kind, n, params):
    with pytest.raises(ValueError, match="no element realizes"):
        class_gf(kind, n, params)


@pytest.mark.parametrize("kind", [k for k in ORDER_POLY_KINDS if k.startswith("enriched")])
def test_class_gf_accepts_exactly_the_realized_classes(kind):
    group, _, stat = ORDER_POLY_KINDS[kind]
    for n in range(0, 6 if group == "S" else 5):
        realized = {stat(p) for p in (symmetric_group if group == "S" else hyperoctahedral_group)(n)}
        grid = set(itertools.product(range(-2, n + 3), repeat=len(next(iter(realized)))))
        accepted = set()
        for params in grid:
            try:
                class_gf(kind, n, params)
            except ValueError:
                continue
            accepted.add(params)
        assert accepted == realized, (kind, n)


@pytest.mark.parametrize("kind", [k for k in ORDER_POLY_KINDS if k.startswith("enriched")])
def test_empty_permutation_series_is_one_over_one_minus_t(kind):
    # the empty chain has one enriched assignment at every k
    params = ORDER_POLY_KINDS[kind][2](())
    assert class_gf(kind, 0, params).coeffs(4) == [1, 1, 1, 1]
    if kind in ("enriched_interior", "enriched_left", "enriched_B"):
        assert enriched_gf((), kind).coeffs(4) == [1, 1, 1, 1]


def test_reciprocity():
    for pi in symmetric_group(3):
        for kind, _ in UNSIGNED_ENRICHED:
            assert reciprocity_check(pi, kind), (pi, kind)
    for pi in hyperoctahedral_group(2):
        assert reciprocity_check(pi, "enriched_B"), pi
    with pytest.raises(ValueError):
        reciprocity_check((1, 2), "A_ordinary")


def test_peak_polynomials_pinned():
    assert peak_polynomial(3, "W_interior") == UniPoly((0, 4, 2))
    assert peak_polynomial(3, "A_eulerian") == UniPoly((0, 1, 4, 1))
    assert peak_polynomial(2, "W_left") == UniPoly((1, 1))
    assert peak_polynomial(1, "B_eulerian") == UniPoly((1, 1))
    assert peak_polynomial(2, "B_cyclic_eulerian") == peak_polynomial(2, "A_eulerian") * 4


@pytest.mark.parametrize("n", [0, -2])
def test_peak_polynomial_needs_positive_n(n):
    for kind in ("A_eulerian", "W_plus"):
        with pytest.raises(ValueError, match="need n >= 1"):
            peak_polynomial(n, kind)


def test_peak_polynomial_partitions_of_the_group():
    n = 3
    plus = peak_polynomial(n, "W_plus")
    minus = peak_polynomial(n, "W_minus")
    assert plus(1) + minus(1) == 2**n * 6
    total = UniPoly()
    for i in range(n + 1):
        total = total + peak_polynomial(n, "W_weighted", i=i)
    assert total == peak_polynomial(n, "B_eulerian")
    # no negative signs leaves the plain descent statistic
    assert peak_polynomial(n, "W_weighted", i=0) * UniPoly((0, 1)) == peak_polynomial(n, "A_eulerian")


def test_peak_polynomial_errors_and_guards():
    with pytest.raises(ValueError):
        peak_polynomial(2, "V_interior")
    with pytest.raises(ValueError):
        peak_polynomial(2, "W_weighted")
    with pytest.raises(ValueError):
        peak_polynomial(2, "W_weighted", i=5)
    with pytest.raises(ResourceLimitError):
        peak_polynomial(9, "A_eulerian")
    with pytest.raises(ResourceLimitError):
        peak_polynomial(7, "B_eulerian")


def test_weighted_peak_polynomial_refuses_a_fractional_i():
    # a float i used to select no element and return the zero polynomial
    with pytest.raises(ValueError, match=r"^W_weighted needs .* 0\.\.3, not 1\.5$"):
        peak_polynomial(3, "W_weighted", i=1.5)


def test_weighted_peak_polynomial_refuses_a_bool_i():
    # True used to be read as 1
    with pytest.raises(ValueError, match=r"^W_weighted needs .* 0\.\.3, not True$"):
        peak_polynomial(3, "W_weighted", i=True)


def test_unindexed_peak_polynomial_refuses_an_i(monkeypatch):
    # an ignored i used to cache a second copy under (n, kind, i)
    monkeypatch.setattr(limits, "_CACHES", {})
    with pytest.raises(ValueError, match="^A_eulerian takes no i, got 7$"):
        peak_polynomial(3, "A_eulerian", i=7)
    assert "peak_polys" not in limits._CACHES
    for kind in orderpolys.PEAK_POLY_KINDS:
        if kind != orderpolys.WEIGHTED_KIND:
            with pytest.raises(ValueError, match="takes no i"):
                peak_polynomial(3, kind, i=0)


def test_poly_at_gf():
    g = RationalGF(UniPoly((1,)), UniPoly((1, -1)))
    p = UniPoly((1, 0, 1))
    assert poly_at_gf(p, g) == g * g + RationalGF.constant(1)
    assert poly_at_gf(UniPoly(), g) == RationalGF.constant(0)


@pytest.mark.parametrize("which", ["augeul", "peeul1", "peeul2", "bpeeul1", "bpeeul2"])
def test_identity_check_43_small(which):
    for n in (1, 2, 3):
        assert identity_check_43(n, which), (which, n)


def test_identity_check_43_unknown():
    with pytest.raises(ValueError):
        identity_check_43(2, "peeul3")


def test_peak_table_scans_each_group_once_per_kind(monkeypatch, capsys):
    scans = []
    group_of = orderpolys.iterate_group

    class Scanned(tuple):
        def __iter__(self):
            scans.append(self.name)
            return super().__iter__()

    def counting(group, n, force=False):
        out = Scanned(group_of(group, n, force))
        out.name = (group, n)
        return out

    monkeypatch.setattr(orderpolys, "iterate_group", counting)
    monkeypatch.setattr(limits, "_CACHES", {})
    assert cli.main(["peak-table", "-n", "4"]) == 0
    # the seven kinds other than W_weighted, and W_weighted at i = 0..4, one
    # scan each; the identity checks reuse the same polynomials
    plain = len(orderpolys.PEAK_POLY_KINDS) - 1
    assert len(scans) == plain + 5
    assert scans.count(("S", 4)) == 3 and scans.count(("B", 4)) == 4 + 5
    assert cli.main(["peak-table", "-n", "4"]) == 0
    assert len(scans) == plain + 5
    capsys.readouterr()
