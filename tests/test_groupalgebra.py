"""Group algebra arithmetic, class sums, idempotents, spans, and the
theorem registry."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from peaklab import (
    GAElem,
    GAPoly,
    ResourceLimitError,
    bipartite_check,
    class_sum,
    cyclic_isomorphism_check,
    eulerian_number,
    family_labels,
    idempotent_powers,
    idempotents,
    in_span,
    minimal_non_algebra_n,
    multiplicative_closure,
    refined_decomposition,
    span_rank,
    structure_constants,
    structure_polynomial,
    verify_identity,
    all_theorem_ids,
)
from peaklab import groupalgebra, limits, perms
from peaklab.exact import UniPoly, basis_insert, interpolate
from peaklab.groupalgebra import STRUCTURE_FAMILIES, ga_multiply
from peaklab.orderpolys import order_polynomial, peak_polynomial
from peaklab.perms import eta, identity_perm, symmetric_group, hyperoctahedral_group


S3 = list(symmetric_group(3))

elem_strategy = st.dictionaries(
    st.sampled_from(S3), st.integers(-2, 2), max_size=4
).map(lambda d: GAElem("S", 3, d))


@given(a=elem_strategy, b=elem_strategy, c=elem_strategy)
@settings(deadline=None, max_examples=60)
def test_gaelem_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    one = GAElem.basis("S", identity_perm(3))
    assert one * a == a * one == a
    assert a.scale(2) == a + a
    assert (a - a).is_zero()


def test_gaelem_basics():
    e = GAElem("S", 3, {(1, 3, 2): Fraction(1, 2), (2, 1, 3): 0})
    assert e.support_size() == 1  # zero coefficients dropped
    assert e.coeff((1, 3, 2)) == Fraction(1, 2)
    assert e.coeff((1, 2, 3)) == 0
    with pytest.raises(AttributeError):
        e.n = 4
    with pytest.raises(ValueError):
        e + GAElem.zero("S", 2)
    with pytest.raises(ValueError):
        e + GAElem.zero("B", 3)
    assert GAElem.from_json(e.to_json()) == e
    assert e != object()
    assert 2 * e == e.scale(2)


def test_gaelem_refuses_a_permutation_of_another_size():
    # (1, 2) in "S_3" used to serialize as n = 3 and fail later in compose
    with pytest.raises(ValueError, match="not an element of S_3"):
        GAElem("S", 3, {(1, 2): 1})
    with pytest.raises(ValueError):
        GAElem("B", 2, {(-1, 2, 3): 1})
    with pytest.raises(ValueError):
        GAElem.from_json({"n": 3, "group": "S", "terms": [{"perm": [1, 2], "coeff": "1"}]})


def test_gapoly_basics():
    zero = GAElem.zero("S", 2)
    one = GAElem.basis("S", (1, 2))
    swap = GAElem.basis("S", (2, 1))
    p = GAPoly("S", 2, [one, swap, zero])
    assert p.degree == 1  # trailing zero trimmed
    assert p.coeff(5).is_zero()
    assert p(3) == one + swap.scale(3)
    assert p.left_mul(swap) == GAPoly("S", 2, [swap, one])
    with pytest.raises(ValueError):
        GAPoly("S", 2, [GAElem.zero("S", 3), one])
    with pytest.raises(AttributeError, match="^GAPoly is immutable$"):
        p.n = 3


def test_gaelem_times_a_scalar():
    e = GAElem("S", 2, {(2, 1): Fraction(1, 2), (1, 2): 1})
    assert repr(e * 3) == "GAElem(S2: 3*(1, 2) + 3/2*(2, 1))"
    assert e * 3 == 3 * e == e.scale(3)


@pytest.mark.parametrize(
    "family,n",
    [("descent_set", 3), ("peak_interior_set", 4), ("B_peak_sign_set", 2)],
)
def test_class_sums_partition_group(family, n):
    sums = [class_sum(n, family, lab) for lab in family_labels(family, n)]
    group = "B" if family.startswith("B") else "S"
    elements = list(symmetric_group(n) if group == "S" else hyperoctahedral_group(n))
    total = GAElem.zero(group, n)
    for s in sums:
        total = total + s
    assert total == GAElem(group, n, {p: 1 for p in elements})
    assert sum(s.support_size() for s in sums) == len(elements)


def test_class_sum_errors_and_empty_class():
    with pytest.raises(ValueError):
        class_sum(3, "descent_amount", 0)
    with pytest.raises(ValueError):
        class_sum(3, "descent_num", 7)
    # list labels are accepted for the set families
    assert class_sum(3, "peak_interior_set", [2]).support_size() == 2
    with pytest.warns(UserWarning):
        empty = class_sum(2, "B_peak_sign_num", (1, 1))
    assert empty.is_zero()


@pytest.mark.parametrize("n, family, label", [
    (3, "descent_num", True),
    (3, "descent_num", 1.0),
    (2, "B_peak_sign_num", (True, 0)),
    (2, "B_peak_sign_num", (1, 0.0)),
    (3, "B_peak_sign_set", (0, (2.0,))),
    (3, "B_peak_sign_set", (0, [2])),
])
def test_class_sum_refuses_a_label_of_another_type(n, family, label):
    # each equals a realized label, but not with the same type at every level
    with pytest.raises(ValueError, match="is not a class label of"):
        class_sum(n, family, label)


def test_class_sum_keeps_the_top_level_list_label():
    assert class_sum(2, "B_peak_sign_num", [1, 0]) == class_sum(2, "B_peak_sign_num", (1, 0))
    assert class_sum(3, "B_peak_sign_set", [0, (2,)]).support_size() == 5


def test_refined_decomposition_element_names():
    for n in range(1, 6):
        top = (n + 1) // 2
        out = refined_decomposition(n, "typeA_F")
        assert list(out["elements"]) == [f"F_{i}^{t}" for i in range(1, top + 1) for t in (1, 0)]
        # the top element with a descent at 1 stays, empty, at odd n
        assert out["elements"][f"F_{top}^1"].is_zero() == (n % 2 == 1)
        out = refined_decomposition(n, "typeB_F")
        assert list(out["elements"]) == [f"F_{i}^{t}" for i in range(1, n + 1) for t in "+-"]
        sizes = [e.support_size() for e in out["elements"].values()]
        assert sum(sizes) == len(list(hyperoctahedral_group(n)))


def test_eulerian_class_sizes():
    for n in range(1, 6):
        for i in range(1, n + 1):
            assert class_sum(n, "descent_num", i - 1).support_size() == eulerian_number(n, i)
    assert [eulerian_number(4, i) for i in range(1, 5)] == [1, 11, 11, 1]
    assert eulerian_number(4, 0) == 0 and eulerian_number(4, 5) == 0


def test_eta_transfer():
    for n in (3, 4):
        et = GAElem.basis("S", eta(n))
        assert structure_polynomial(n, "rho") == structure_polynomial(n, "rho_bar").left_mul(et)
        assert structure_polynomial(n, "rho_l") == structure_polynomial(n, "rho_r").right_mul(et)


def test_idempotent_powers_pinned():
    assert idempotent_powers(3, "phi") == [1, 2, 3]
    assert idempotent_powers(1, "phi_c") == [0]
    assert idempotent_powers(3, "phi_c") == [1, 2]
    assert idempotent_powers(3, "rho") == [1, 3]
    assert idempotent_powers(4, "rho") == [2, 4]
    assert idempotent_powers(3, "rho_l") == [1, 3]
    assert idempotent_powers(4, "rho_l") == [0, 2, 4]
    assert idempotent_powers(2, "phi_B") == [0, 1, 2]
    assert idempotent_powers(2, "phi_B_c") == [1, 2]
    assert idempotent_powers(2, "rho_B") == [0, 1, 2]
    with pytest.raises(ValueError):
        idempotent_powers(2, "tau")
    with pytest.raises(ValueError):
        structure_polynomial(2, "tau")


def test_idempotents_orthogonal_smoke():
    # full sweep lives in the acceptance suite; pin two families here
    es = idempotents(3, "phi")
    for i, a in enumerate(es):
        for j, b in enumerate(es):
            assert a * b == (a if i == j else GAElem.zero("S", 3))
    total = GAElem.zero("S", 3)
    for a in es:
        total = total + a
    assert total == GAElem.basis("S", identity_perm(3))

    rs = idempotents(2, "rho_B")
    for i, a in enumerate(rs):
        for j, b in enumerate(rs):
            assert a * b == (a if i == j else GAElem.zero("B", 2))


@pytest.mark.parametrize("family", sorted(STRUCTURE_FAMILIES))
def test_idempotent_coefficients_match_per_element_order_polynomials(family):
    group, kind, subst, _ = STRUCTURE_FAMILIES[family]
    for n in range(1, 6 if group == "S" else 4):
        es = idempotents(n, family)
        for p in (symmetric_group if group == "S" else hyperoctahedral_group)(n):
            poly = order_polynomial(p, kind).compose(subst)
            for power, e in zip(idempotent_powers(n, family), es):
                assert e.coeff(p) == poly.coeff(power), (n, p, power)


@pytest.mark.parametrize("n,family,classes", [(5, "rho", 3), (3, "rho_B", 4)])
def test_idempotent_cross_check_interpolates_once_per_class(monkeypatch, n, family, classes):
    calls = []

    def counted(points):
        calls.append(points)
        return interpolate(points)

    monkeypatch.setattr(groupalgebra, "interpolate", counted)
    idempotents(n, family)
    assert len(calls) == classes


def test_idempotent_cross_check_catches_a_wrong_interpolation(monkeypatch):
    monkeypatch.setattr(groupalgebra, "interpolate",
                        lambda points: interpolate(points) + UniPoly((0, 1)))
    with pytest.raises(AssertionError, match="interpolated coefficients"):
        idempotents(4, "rho")


def test_span_rank_and_in_span():
    assert span_rank([]) == 0
    e = class_sum(3, "descent_num", 0)
    assert span_rank([e, e, e.scale(5)]) == 1
    assert in_span(e.scale(3), [e])
    assert not in_span(class_sum(3, "descent_num", 1), [e])


def test_in_span_refuses_mixed_algebras():
    s2, s3 = class_sum(2, "descent_num", 0), class_sum(3, "descent_num", 0)
    with pytest.raises(ValueError, match="mixed group algebras"):
        span_rank([s3, s2])
    with pytest.raises(ValueError, match="mixed group algebras"):
        in_span(s2, [s3])
    with pytest.raises(ValueError, match="mixed group algebras"):
        in_span(s3, [class_sum(3, "B_descent_num", 0)])


def test_interior_peak_span_is_ideal_in_refined_span():
    for n in (3, 4):
        peak_basis = [class_sum(n, "peak_interior_num", i)
                      for i in family_labels("peak_interior_num", n)]
        refined = refined_decomposition(n, "typeA_F")
        dotted = [e for e in refined["elements"].values() if not e.is_zero()]
        assert span_rank(dotted) == n
        assert all(in_span(v, dotted) for v in peak_basis)
        for a in dotted:
            for v in peak_basis:
                assert in_span(a * v, peak_basis)
                assert in_span(v * a, peak_basis)


def test_descent_and_peak_number_spans_do_not_commute():
    def witnesses(n):
        E = [class_sum(n, "descent_num", i) for i in family_labels("descent_num", n)]
        G = [class_sum(n, "peak_interior_num", i) for i in family_labels("peak_interior_num", n)]
        return E, G, [(a, b) for a in E for b in G if a * b != b * a]

    E2, G2, w2 = witnesses(2)
    assert w2 == []
    E3, G3, w3 = witnesses(3)
    assert w3
    # the joint span is already closed under multiplication
    joint = E3 + G3
    assert span_rank(joint) == len(multiplicative_closure(joint)) == 4
    # peak sums on the left absorb the joint span; the other order escapes
    assert all(in_span(v * a, G3) for a in joint for v in G3)
    assert not all(in_span(a * v, G3) for a in joint for v in G3)


def test_right_peak_closure_contains_left_peak_span():
    n = 4
    sums = [class_sum(n, "right_peak_num", i) for i in family_labels("right_peak_num", n)]
    assert span_rank(sums) == 3
    closed = multiplicative_closure(sums)
    assert len(closed) == 5
    for a in closed:
        for b in closed:
            assert in_span(a * b, closed)
            assert a * b == b * a
    left = [class_sum(n, "peak_left_num", i) for i in family_labels("peak_left_num", n)]
    assert all(in_span(v, closed) for v in left)
    assert span_rank(left) == 3 < 5
    with pytest.raises(ResourceLimitError):
        multiplicative_closure(sums, cap=4)
    assert multiplicative_closure([]) == []


def test_structure_constants_descent_set():
    out = structure_constants(3, "descent_set")
    assert out["well_defined"] and out["violation"] is None
    labels = out["labels"]
    assert labels == [(), (1,), (2,), (1, 2)] or labels == sorted(labels)
    sizes = [class_sum(3, "descent_set", lab).support_size() for lab in labels]
    k = len(labels)
    for a in range(k):
        for b in range(k):
            mass = sum(out["tensor"][a][b][c] * sizes[c] for c in range(k))
            assert mass == sizes[a] * sizes[b]
    with pytest.raises(ValueError):
        structure_constants(3, "descent_num")
    with pytest.raises(ResourceLimitError):
        structure_constants(7, "descent_set")
    with pytest.raises(ValueError, match="need n >= 0"):
        structure_constants(-1, "descent_set")
    assert structure_constants(0, "descent_set")["tensor"] == [[[1]]]


def test_minimal_non_algebra():
    assert minimal_non_algebra_n("right_peak_set") == 3
    assert minimal_non_algebra_n("exterior_peak_set") == 4
    assert minimal_non_algebra_n("peak_interior_set") is None


def test_refined_decomposition_relations():
    for n in (2, 3, 4):
        out = refined_decomposition(n, "typeA_F")
        assert out["ok"], out["relations"]
    assert refined_decomposition(3, "typeA_F")["relations"]["odd_top_vanishes"]
    for n in (2, 3):
        out = refined_decomposition(n, "typeB_F")
        assert out["ok"], out["relations"]
        assert len(out["elements"]) == 2 * n
    with pytest.raises(ValueError):
        refined_decomposition(3, "typeC_F")


@pytest.mark.parametrize("which", ["typeA_F", "typeB_F"])
@pytest.mark.parametrize("n", [0, -1])
def test_refined_decomposition_refuses_n_below_one(which, n):
    with pytest.raises(ValueError, match="n >= 1"):
        refined_decomposition(n, which)


def test_cyclic_isomorphism():
    assert cyclic_isomorphism_check(3)
    assert cyclic_isomorphism_check(4)
    with pytest.raises(ValueError):
        cyclic_isomorphism_check(2)


def test_registry_all_pass_at_n2():
    ids = all_theorem_ids()
    assert len(ids) == 44
    for tid in ids:
        out = verify_identity(2, tid)
        assert out["ok"] is True, (tid, out)
        assert out["expected_ok"] is True, tid


def test_registry_negatives_at_n3():
    for tid in ("phi_times_rho", "right_peak_num_closure", "right_peak_set_constants"):
        out = verify_identity(3, tid)
        assert out["ok"] is False, tid
        assert out["expected_ok"] is False, tid
        assert out["counterexample"] is not None, tid
    with pytest.raises(ValueError):
        verify_identity(3, "no_such_theorem")


@pytest.mark.parametrize("tid, n, family", [("ges", 4, "phi"), ("chow", 3, "phi_B")])
def test_product_check_evaluates_the_whole_grid(monkeypatch, tid, n, family):
    seen = []
    cleared = groupalgebra._cleared

    def recording(polys, args):
        seen.append(sorted(args))
        return cleared(polys, args)

    monkeypatch.setattr(groupalgebra, "_cleared", recording)
    assert verify_identity(n, tid)["ok"]
    deg = max(p.degree for p in groupalgebra._class_polys(family, n, False))
    assert deg == n
    axis = list(range(1, deg + 2))
    # x = 1..degx+1, y = 1..degy+1 and every product xy, once each
    assert seen == [axis, axis, sorted({x * y for x in axis for y in axis})]


def test_forced_call_does_not_lift_a_later_guard(monkeypatch):
    # each memoized entry point: a forced call fills the cache, and the
    # unforced call after it still meets the guard
    monkeypatch.setattr(limits, "_CACHES", {})
    monkeypatch.setenv("PEAKLAB_MAX_N", "2")
    assert len(perms.iterate_group("S", 3, force=True)) == 6
    assert family_labels("descent_num", 3, force=True) == [0, 1, 2]
    assert class_sum(3, "descent_num", 1, force=True).support_size() == 4
    structure_polynomial(3, "rho", force=True)
    assert verify_identity(3, "ges", force=True)["ok"]
    assert bipartite_check((1, 3, 2), "gesA", 2, 2, force=True)
    assert peak_polynomial(3, "W_left", force=True) == UniPoly((1, 5))
    assert {"groups", "class_tables", "class_polys", "enriched_polys", "pair_rows",
            "factor_tables", "peak_polys"} <= set(limits._CACHES)
    for unforced in (
        lambda: perms.iterate_group("S", 3),
        lambda: family_labels("descent_num", 3),
        lambda: class_sum(3, "descent_num", 1),
        lambda: structure_polynomial(3, "rho"),
        lambda: verify_identity(3, "ges"),
        lambda: bipartite_check((1, 3, 2), "gesA", 2, 2),
        lambda: peak_polynomial(3, "W_left"),
    ):
        with pytest.raises(ResourceLimitError):
            unforced()


def test_family_labels_returns_a_fresh_list():
    labels = family_labels("peak_interior_num", 4)
    labels.append("junk")
    assert family_labels("peak_interior_num", 4) == [0, 1]


def test_product_check_past_the_table_guard(monkeypatch):
    monkeypatch.setitem(limits.VERIFY_MAX, "S", 3)
    with pytest.raises(ResourceLimitError, match="S-group table"):
        verify_identity(4, "ges")
    # force and PEAKLAB_MAX_N each lift the guard onto the same full grid
    assert verify_identity(4, "ges", force=True)["ok"]
    monkeypatch.setenv("PEAKLAB_MAX_N", "4")
    assert verify_identity(4, "ges")["ok"]
    out = verify_identity(4, "phi_times_rho")
    assert out["ok"] is False and out["expected_ok"] is False
    assert out["counterexample"] is not None and out["node"] is not None


def test_invalid_max_n_is_an_error(monkeypatch):
    monkeypatch.setenv("PEAKLAB_MAX_N", "x")
    with pytest.raises(ValueError, match="PEAKLAB_MAX_N must be an integer, not 'x'"):
        limits.env_override()
    with pytest.raises(ValueError, match="PEAKLAB_MAX_N"):
        family_labels("descent_num", 3)
    monkeypatch.setenv("PEAKLAB_MAX_N", "")
    assert limits.env_override() is None


# --- the factorization-count tensor against a brute-force oracle ---------------------


def _brute_counts(group, n, famL, famR):
    """Counts of sigma tau = pi by (class of sigma, class of tau), from every
    pair, composed here with perms.compose."""
    elements = list((symmetric_group if group == "S" else hyperoctahedral_group)(n))
    classify_l = groupalgebra.CLASS_FAMILIES[famL][1]
    classify_r = groupalgebra.CLASS_FAMILIES[famR][1]
    labels_l = sorted({classify_l(p) for p in elements})
    labels_r = sorted({classify_r(p) for p in elements})
    kr = len(labels_r)
    rows = {p: [0] * (len(labels_l) * kr) for p in elements}
    for sigma in elements:
        a = labels_l.index(classify_l(sigma))
        for tau in elements:
            rows[perms.compose(sigma, tau)][a * kr + labels_r.index(classify_r(tau))] += 1
    return [rows[p] for p in elements]


def _tensor_pairs():
    pairs = set()
    for triples in groupalgebra._PRODUCT_THEOREMS.values():
        for famL, famR, _ in triples:
            famL, famR = (groupalgebra.STRUCTURE_FAMILIES[f][3] for f in (famL, famR))
            pairs.add((groupalgebra.CLASS_FAMILIES[famL][0], famL, famR))
    for fam in groupalgebra._CONSTANT_FAMILIES:
        pairs.add((groupalgebra.CLASS_FAMILIES[fam][0], fam, fam))
    # the mixed pairs the bipartite checks read
    pairs |= {("S", "peak_left_set", "peak_interior_set"),
              ("S", "peak_interior_set", "peak_left_set"),
              ("S", "peak_interior_set", "descent_set")}
    return sorted(pairs)


@pytest.mark.parametrize("group,famL,famR", _tensor_pairs())
def test_factor_counts_match_brute_force(group, famL, famR):
    for n in range(1, 6) if group == "S" else range(1, 4):
        got = groupalgebra._factor_counts(group, n, famL, famR)
        assert got == _brute_counts(group, n, famL, famR), (n, famL, famR)


def test_factor_counts_match_brute_force_at_b4():
    got = groupalgebra._factor_counts("B", 4, "B_peak_sign_num", "B_cyclic_descent_num")
    assert got == _brute_counts("B", 4, "B_peak_sign_num", "B_cyclic_descent_num")


@pytest.mark.parametrize("group,n,fam", [("S", 6, "descent_num"), ("B", 4, "B_peak_sign_set")])
def test_shared_rows_match_brute_force(group, n, fam):
    assert groupalgebra._factor_counts(group, n, fam, fam) == _brute_counts(group, n, fam, fam)


@pytest.mark.parametrize("group,famL,famR", _tensor_pairs())
def test_factor_counts_share_one_row_per_descent_class(group, famL, famR):
    # rows are shared exactly when both families are unions of descent
    # classes; only the cyclic families are not
    n = 5 if group == "S" else 3
    rows = groupalgebra._factor_counts(group, n, famL, famR)
    if {famL, famR} & {"cyclic_descent_num", "B_cyclic_descent_num"}:
        expected = len(perms.iterate_group(group, n))
    else:
        expected = 2 ** (n - 1) if group == "S" else 2 ** n
    assert len({id(row) for row in rows}) == expected


@pytest.mark.parametrize("group,n,fam", [("S", 5, "descent_num"), ("B", 4, "B_descent_num")])
def test_factor_counts_compose_per_sign_not_per_pair(monkeypatch, group, n, fam):
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return perms.compose(a, b)

    monkeypatch.setattr(groupalgebra, "compose", counting)
    monkeypatch.setitem(limits._CACHES, "group_index", {})
    groupalgebra._factor_counts(group, n, fam, fam)
    size = len(perms.iterate_group(group, n))
    # one product per (element, diagonal sign element), never one per pair;
    # this is within n * 2^n * |G|
    assert 0 < calls <= (2 ** n if group == "B" else 1) * size < size ** 2
    # the index tables are built once per group and size, for every pair
    before = calls
    other = "peak_interior_num" if group == "S" else "B_cyclic_descent_num"
    groupalgebra._factor_counts(group, n, other, fam)
    assert calls == before


# --- ga_multiply against the plain Fraction convolution ---------------------------


def _convolve(a, b):
    """(ab)(pi) summed pair by pair in Fractions, composed here with
    perms.compose."""
    out = {}
    for sigma, ca in a.terms.items():
        for tau, cb in b.terms.items():
            pi = perms.compose(sigma, tau)
            out[pi] = out.get(pi, Fraction(0)) + ca * cb
    return GAElem(a.group, a.n, out)


def _normal(e):
    """Every coefficient an int when integral, else a Fraction; never a float."""
    return all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
               for c in e.terms.values())


def _dense(a, b):
    """Whether ga_multiply reads b by index: b covers at least half of a
    group within the verify guard."""
    order = groupalgebra._order(a.group, a.n)
    return 0 < a.n <= limits.VERIFY_MAX[a.group] and 2 * b.support_size() >= order


def _product_cases(group, n):
    """Seeded operand pairs: sparse and dense elements with mixed
    denominators and signs, right operands on both sides of the density
    rule (half the group, and one term fewer), the zero element, basis
    elements, and (1 + s)(1 - s) = 0 for an involution s.  Elements are
    drawn without enumerating the group."""
    rng = random.Random(f"{group}{n}")
    order = groupalgebra._order(group, n)
    numerators = [v for v in range(-9, 10) if v]

    def perm():
        p = rng.sample(range(1, n + 1), n)
        return tuple(v * rng.choice((1, -1)) for v in p) if group == "B" else tuple(p)

    def element(size):
        support = set()
        while len(support) < size:
            support.add(perm())
        return GAElem(group, n, {p: Fraction(rng.choice(numerators), rng.choice([1, 2, 3, 4, 6, 7, 12]))
                                 for p in support})

    sparse = [element(rng.randint(1, min(4, order))) for _ in range(4)]
    zero = GAElem.zero(group, n)
    basis = [GAElem.basis(group, perm()) for _ in range(3)]
    one = GAElem.basis(group, identity_perm(n))
    cases = [(a, b) for a in sparse for b in sparse]
    cases += [(x, y) for x in basis for y in basis + sparse[:1]]
    cases += [(zero, sparse[0]), (sparse[0], zero), (zero, zero)]
    if order > 1:
        s = (-1,) + tuple(range(2, n + 1)) if group == "B" else (2, 1) + tuple(range(3, n + 1))
        flip = GAElem.basis(group, s)
        cases.append((one + flip, one - flip))
    if n > limits.VERIFY_MAX[group]:
        return cases
    dense = [element(order) for _ in range(2)]
    edge = [element(-(-order // 2)), element(-(-order // 2) - 1)]
    cases += [(a, b) for a in sparse + dense for b in dense]
    cases += [(a, b) for a in dense for b in sparse]
    cases += [(a, b) for a in sparse[:2] + dense[:1] for b in edge]
    cases += [(zero, dense[0]), (dense[0], zero)]
    cases.append((dense[0].scale(Fraction(1, 3)), dense[0].scale(Fraction(-5, 2))))
    return cases


@pytest.mark.parametrize("group,n", [("S", n) for n in range(1, 6)] + [("B", n) for n in range(1, 4)]
                         + [("S", 7), ("B", 5)])
def test_ga_multiply_matches_fraction_convolution(monkeypatch, group, n):
    cases = _product_cases(group, n)
    past_guard = n > limits.VERIFY_MAX[group]
    if past_guard:
        for name in ("group_index", "groups"):
            monkeypatch.setitem(limits._CACHES, name, {})
    else:
        groupalgebra._group_index(group, n)
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return perms.compose(a, b)

    monkeypatch.setattr(groupalgebra, "compose", counting)
    cancelled = False
    paths = set()
    for a, b in cases:
        want = _convolve(a, b)
        calls = 0
        got = groupalgebra.ga_multiply(a, b)
        dense = _dense(a, b)
        paths.add(dense)
        # one compose per term pair on the pairwise path, none on the
        # dense one once the group's index tables exist
        assert calls == (0 if dense else a.support_size() * b.support_size())
        assert got == want and got.to_json() == want.to_json()
        assert _normal(got)
        cancelled |= got.is_zero() and not (a.is_zero() or b.is_zero())
    assert cancelled == (groupalgebra._order(group, n) > 1)
    # past the guard every product is pairwise and builds no group or index
    assert paths == ({False} if past_guard else {False, True})
    if past_guard:
        assert not limits._CACHES["group_index"] and not limits._CACHES["groups"]


def test_no_operation_yields_a_float():
    a = GAElem("S", 3, {(2, 1, 3): 2, (1, 2, 3): Fraction(1, 2), (3, 1, 2): "-4/3"})
    b = GAElem("S", 3, {(2, 1, 3): 1, (1, 3, 2): Fraction(3, 2)})
    dense = GAElem("S", 3, {p: Fraction(i, 2) for i, p in enumerate(S3, 1)})
    poly = GAPoly("S", 3, [a, b, dense])
    results = [a + b, a - b, -a, a.scale(3), a.scale(Fraction(2, 3)), a * b, b * a, a * dense,
               dense * dense, 2 * a, poly(2), poly(Fraction(1, 2)),
               groupalgebra._cyclic_embed(a), groupalgebra._cyclic_embed(class_sum(3, "descent_num", 1))]
    for e in results:
        assert _normal(e)
        assert all(type(e.coeff(p)) is Fraction for p in list(e.terms) + [eta(e.n)])
    # an integral sum of Fractions is stored as an int (1/2 + 1/2), and a
    # class sum's products stay in ints
    assert type((a + a).terms[(1, 2, 3)]) is int
    e = class_sum(4, "descent_num", 1)
    assert all(type(c) is int for c in (e * e).terms.values())
    with pytest.raises(TypeError):
        a.scale(0.5)
    with pytest.raises(TypeError):
        GAElem("S", 3, {(2, 1, 3): 1.0})


def test_ga_multiply_rejects_mixed_algebras():
    s3 = GAElem.basis("S", (2, 1, 3))
    for other in (GAElem.basis("S", (2, 1)), GAElem.basis("B", (2, 1, 3)),
                  GAElem.zero("B", 3)):
        with pytest.raises(ValueError):
            groupalgebra.ga_multiply(s3, other)
        with pytest.raises(ValueError):
            groupalgebra.ga_multiply(other, s3)


# --- multiplicative_closure against the double loop over every ordered pair --------


def _closure_by_pairs(elems, cap, insert, rounds):
    """Offer a*b and b*a for every a in the basis and b in the last round's
    additions; rounds records (basis size before, additions) per round."""
    group, n = elems[0].group, elems[0].n
    if cap is None:
        cap = len(perms.iterate_group(group, n, force=True))
    rows, basis = {}, []
    for e in elems:
        if insert(e.terms, rows):
            basis.append(e)
    if len(basis) > cap:
        raise ResourceLimitError(f"closure basis exceeded cap {cap}")
    fresh = list(basis)
    while fresh:
        rounds.append((len(basis) - len(fresh), len(fresh)))
        added = []
        for a in basis:
            for b in fresh:
                for prod in (a * b, b * a):
                    if insert(prod.terms, rows):
                        added.append(prod)
                        if len(basis) + len(added) > cap:
                            raise ResourceLimitError(f"closure basis exceeded cap {cap}")
        basis.extend(added)
        fresh = added
    return basis


def _closure_cases():
    cases = [(fam, n) for fam, (group, _) in sorted(groupalgebra.CLASS_FAMILIES.items())
             for n in (range(1, 5) if group == "S" else range(1, 4))]
    return cases + [("descent_set", 5)]


def _realized_sums(family, n):
    return [class_sum(n, family, lab) for lab in groupalgebra._class_table(family, n, False)[0]]


@pytest.mark.parametrize("family,n", _closure_cases())
def test_closure_matches_the_double_loop(monkeypatch, family, n):
    sums = _realized_sums(family, n)
    rounds = []
    want = _closure_by_pairs(sums, None, basis_insert, rounds)
    products = 0

    def counting(a, b):
        nonlocal products
        products += 1
        return ga_multiply(a, b)

    monkeypatch.setattr(groupalgebra, "ga_multiply", counting)
    got = multiplicative_closure(sums)
    assert [e.terms for e in got] == [e.terms for e in want]
    # a fresh pair is offered once each way, a fresh square once
    assert products == sum(2 * old * f + f * f for old, f in rounds)


@pytest.mark.parametrize("family,n", [("right_peak_num", 4), ("right_peak_set", 4),
                                      ("B_peak_sign_set", 3), ("exterior_peak_set", 4)])
def test_closure_cap_trips_where_the_double_loop_does(monkeypatch, family, n):
    sums = _realized_sums(family, n)
    full = len(_closure_by_pairs(sums, None, basis_insert, []))
    assert full > len(sums)
    for cap in range(len(sums), full):
        want, got = [], []

        def recording(log):
            def insert(row, rows):
                grew = basis_insert(row, rows)
                if grew:
                    log.append(dict(row))
                return grew
            return insert

        with pytest.raises(ResourceLimitError, match=f"cap {cap}"):
            _closure_by_pairs(sums, cap, recording(want), [])
        monkeypatch.setattr(groupalgebra, "basis_insert", recording(got))
        with pytest.raises(ResourceLimitError, match=f"cap {cap}"):
            multiplicative_closure(sums, cap=cap)
        monkeypatch.undo()
        assert got == want and len(got) == cap + 1


def _simple_reflections(group, n):
    """Basis elements of the Coxeter generators, whose closure is the whole
    group algebra (the identity alone at S_1)."""
    ident = list(identity_perm(n))
    gens = []
    for i in range(n - 1):
        s = ident[:]
        s[i], s[i + 1] = s[i + 1], s[i]
        gens.append(s)
    if group == "B":
        gens.append([-1] + ident[1:])
    return [GAElem.basis(group, g) for g in gens or [ident]]


@pytest.mark.parametrize("group,n", [("S", n) for n in range(1, 5)]
                         + [("B", n) for n in range(1, 4)])
def test_default_closure_cap_is_the_group_order(group, n):
    # the default cap admits a closure of the full dimension |G|, as the
    # old cap len(iterate_group(...)) did, and one less trips
    gens = _simple_reflections(group, n)
    order = len(perms.iterate_group(group, n))
    full = multiplicative_closure(gens)
    assert len(full) == order
    assert [e.terms for e in full] == [e.terms for e in _closure_by_pairs(gens, None, basis_insert, [])]
    with pytest.raises(ResourceLimitError, match=f"cap {order - 1}"):
        multiplicative_closure(gens, cap=order - 1)


def test_default_closure_cap_enumerates_no_group(monkeypatch):
    monkeypatch.setattr(limits, "_CACHES", {})
    one = GAElem.basis("S", identity_perm(8))
    assert multiplicative_closure([one]) == [one]
    assert ("S", 8) not in limits._CACHES.get("groups", {})


def test_reciprocity_sweep_reports_first_failing_representative(monkeypatch):
    # only class representatives are checked: (1,2,3) and (1,3,2) for the
    # interior peak classes of S_3, so (1,3,2) is the first failure and
    # (3,2,1) is never reached
    assert sorted(groupalgebra._class_table("peak_interior_set", 3, False)[2]) == [0, 1]
    checked = []

    def check(pi, kind):
        checked.append(pi)
        return pi == (1, 2, 3)

    monkeypatch.setattr(groupalgebra, "reciprocity_check", check)
    out = verify_identity(3, "recip_interior")
    assert (out["ok"], out["counterexample"]) == (False, ([1, 3, 2], "reciprocity", "failed"))
    assert checked == [(1, 2, 3), (1, 3, 2)]
