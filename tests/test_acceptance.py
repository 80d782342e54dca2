"""End-to-end checks: every layer of the package exercised at the sizes
where exhaustive verification is still cheap.  All arithmetic is exact;
no tolerances appear anywhere in this file."""

import itertools
import random
import warnings
from fractions import Fraction
from functools import lru_cache

import pytest

from peaklab.exact import UniPoly
from peaklab.groupalgebra import (
    GAElem,
    STRUCTURE_FAMILIES,
    class_sum,
    cyclic_isomorphism_check,
    family_labels,
    idempotent_powers,
    idempotents,
    refined_decomposition,
    span_rank,
    verify_identity,
)
from peaklab.orderpolys import (
    ORDER_POLY_KINDS,
    class_gf,
    enriched_gf,
    identity_check_43,
    order_polynomial,
    peak_polynomial,
)
from peaklab.perms import hyperoctahedral_group, symmetric_group
from peaklab.posets import (
    BPoset,
    ImageSetSpec,
    Poset,
    chain_poset,
    chain_weight_sum,
    count_partitions,
)
from peaklab.qsym import verify_hook


# --- order polynomials against direct enumeration ---------------------------------

_UNSIGNED_KINDS = [
    (kind, image) for kind, (group, image, _) in ORDER_POLY_KINDS.items()
    if group == "S" and image is not None
]
_SIGNED_KINDS = [
    (kind, image) for kind, (group, image, _) in ORDER_POLY_KINDS.items()
    if group == "B" and image is not None
]


@pytest.mark.parametrize("kind,image", _UNSIGNED_KINDS)
def test_order_polynomial_matches_enumeration(kind, image):
    for n in range(1, 6):
        for p in symmetric_group(n):
            poly = order_polynomial(p, kind)
            chain = chain_poset(p)
            for k in range(5):
                assert poly(k) == count_partitions(chain, ImageSetSpec(image, k))


@pytest.mark.parametrize("kind,image", _SIGNED_KINDS)
def test_order_polynomial_matches_enumeration_signed(kind, image):
    for n in range(1, 4):
        for p in hyperoctahedral_group(n):
            poly = order_polynomial(p, kind)
            # all-positive elements would otherwise infer an unsigned chain
            chain = chain_poset(p, signed=True)
            for k in range(4):
                assert poly(k) == count_partitions(chain, ImageSetSpec(image, k))


def test_generating_function_coefficients_match_counts():
    """Series coefficients agree with the enumerative counts, both through
    the per-permutation wrapper and the class-level closed form."""
    for n in range(1, 5):
        for p in symmetric_group(n):
            for kind in ("enriched_interior", "enriched_left"):
                _, image, _ = ORDER_POLY_KINDS[kind]
                counts = [count_partitions(chain_poset(p), ImageSetSpec(image, k))
                          for k in range(5)]
                assert enriched_gf(p, kind).coeffs(5) == counts
            for kind in ("enriched_right", "enriched_exterior"):
                _, image, stat = ORDER_POLY_KINDS[kind]
                counts = [count_partitions(chain_poset(p), ImageSetSpec(image, k))
                          for k in range(5)]
                assert class_gf(kind, n, stat(p)).coeffs(5) == counts
    for n in range(1, 4):
        for p in hyperoctahedral_group(n):
            _, image, _ = ORDER_POLY_KINDS["enriched_B"]
            chain = chain_poset(p, signed=True)
            counts = [count_partitions(chain, ImageSetSpec(image, k))
                      for k in range(4)]
            assert enriched_gf(p, "enriched_B").coeffs(4) == counts


# --- splitting counts over linear extensions ---------------------------------------

def _random_poset(rng: random.Random, n: int) -> Poset:
    # a random subrelation of a random linear order is always acyclic
    order = rng.sample(range(1, n + 1), n)
    density = rng.choice((0.2, 0.4, 0.7))
    covers = [(order[i], order[j])
              for i in range(n) for j in range(i + 1, n)
              if rng.random() < density]
    return Poset.from_covers(n, covers)


def _random_bposet(rng: random.Random, n: int) -> BPoset:
    word = [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), n)]
    density = rng.choice((0.3, 0.6))
    covers = [(word[i], word[j])
              for i in range(n) for j in range(i + 1, n)
              if rng.random() < density]
    return BPoset.from_covers(n, covers)


def test_poset_count_splits_over_linear_extensions():
    rng = random.Random(20260815)
    kinds = ("ordinary", "enriched", "left_enriched", "right_enriched",
             "exterior_enriched")
    for n in range(1, 6):
        for _ in range(50):
            P = _random_poset(rng, n)
            exts = P.linear_extensions()
            for kind in kinds:
                spec = ImageSetSpec(kind, 3)
                alpha = spec.alphabet()
                total = sum(chain_weight_sum(alpha, e, anchored=False)
                            for e in exts)
                assert count_partitions(P, spec) == total, (n, kind, P)


def test_signed_poset_count_splits_over_linear_extensions():
    rng = random.Random(47)
    for n in range(1, 4):
        for _ in range(20):
            P = _random_bposet(rng, n)
            exts = P.linear_extensions()
            for kind in ("ordinaryB", "B_enriched"):
                spec = ImageSetSpec(kind, 3)
                alpha = spec.alphabet()
                total = sum(chain_weight_sum(alpha, e, anchored=True)
                            for e in exts)
                assert count_partitions(P, spec) == total, (n, kind, P)


# --- multiplicative identities for structure polynomials ---------------------------

_S_PRODUCTS = (
    "ges", "cyc",
    "interior_1", "interior_2", "interior_3", "interior_4",
    "left_1", "left_2", "left_3", "left_4",
    "peakideal_1", "peakideal_2", "peakideal_3", "peakideal_4",
    "interiordescent_1", "interiordescent_2",
)
_B_PRODUCTS = ("chow", "cyclicB", "idealB", "peakalg2")


@pytest.mark.parametrize("tid,n", [(t, n) for t in _S_PRODUCTS for n in (3, 4, 5, 6)]
                         + [(t, n) for t in _B_PRODUCTS for n in (2, 3, 4)])
def test_product_identities_exhaustive(tid, n):
    out = verify_identity(n, tid)
    assert out["ok"] and out["expected_ok"], out


# past the table guard, where every family but the cyclic ones counts one
# factorization row per descent class
@pytest.mark.parametrize("tid,n", [(t, 7) for t in _S_PRODUCTS if t != "cyc"]
                         + [("phi_times_rho", 7), ("right_peak_set_constants", 7),
                            ("chow", 5), ("peakalg2", 5)])
def test_checks_past_the_table_guard(tid, n):
    out = verify_identity(n, tid, force=True)
    assert out["ok"] is out["expected_ok"], out
    assert (out["counterexample"] is None) is out["ok"], out


# --- orthogonal idempotents ---------------------------------------------------------

@lru_cache(maxsize=None)
def _idem(n: int, family: str):
    return idempotent_powers(n, family), idempotents(n, family)

# products of the right-flavored idempotents land on the left-flavored ones;
# every other family reproduces itself
_IDEM_TARGET = {fam: fam for fam in STRUCTURE_FAMILIES}
_IDEM_TARGET["rho_r"] = "rho_l"


@pytest.mark.parametrize("family", sorted(STRUCTURE_FAMILIES))
def test_idempotents_multiply_diagonally(family):
    group = STRUCTURE_FAMILIES[family][0]
    for n in (3, 4, 5) if group == "S" else (2, 3):
        powers, es = _idem(n, family)
        t_powers, targets = _idem(n, _IDEM_TARGET[family])
        assert powers == t_powers
        zero = GAElem.zero(group, n)
        for i, a in enumerate(es):
            for j, b in enumerate(es):
                want = targets[i] if i == j else zero
                assert a * b == want, (family, n, powers[i], powers[j])


# every filled cell (row family, column family, product family) of the
# coefficient multiplication table; products are matched by the power of x
# each coefficient came from, and mixed-parity power grids force zeros
_TABLE_CELLS = (
    ("phi", "phi", "phi"),
    ("rho", "phi", "rho"),
    ("rho", "rho", "rho"),
    ("rho", "rho_bar", "rho"),
    ("rho", "rho_l", "rho"),
    ("rho", "rho_r", "rho"),
    ("rho_bar", "phi", "rho_bar"),
    ("rho_bar", "rho", "rho_bar"),
    ("rho_bar", "rho_bar", "rho_bar"),
    ("rho_bar", "rho_l", "rho_bar"),
    ("rho_bar", "rho_r", "rho_bar"),
    ("rho_l", "rho", "rho"),
    ("rho_l", "rho_bar", "rho_bar"),
    ("rho_l", "rho_l", "rho_l"),
    ("rho_l", "rho_r", "rho_r"),
    ("rho_r", "rho", "rho_bar"),
    ("rho_r", "rho_bar", "rho"),
    ("rho_r", "rho_l", "rho_r"),
    ("rho_r", "rho_r", "rho_l"),
)


@pytest.mark.parametrize("n", (4, 5))
def test_coefficient_multiplication_table(n):
    zero = GAElem.zero("S", n)
    for row, col, target in _TABLE_CELLS:
        p_row, e_row = _idem(n, row)
        p_col, e_col = _idem(n, col)
        p_tgt, e_tgt = _idem(n, target)
        by_power = dict(zip(p_tgt, e_tgt))
        for i, pa in enumerate(p_row):
            for j, pb in enumerate(p_col):
                want = by_power[pa] if pa == pb else zero
                assert e_row[i] * e_col[j] == want, (row, col, pa, pb)


# --- span dimensions ----------------------------------------------------------------

_SPAN_DIMS = (
    ("descent_num", "S", lambda n: n),
    ("cyclic_descent_num", "S", lambda n: n - 1),
    ("peak_interior_num", "S", lambda n: (n + 1) // 2),
    ("peak_exterior_num", "S", lambda n: (n + 1) // 2),
    ("peak_left_num", "S", lambda n: n // 2 + 1),
    ("B_descent_num", "B", lambda n: n + 1),
    ("B_peak_sign_num", "B", lambda n: n + 1),
)


def _class_span_rank(n: int, family: str) -> int:
    with warnings.catch_warnings():
        # even-size sign-peak families carry one legal empty class
        warnings.simplefilter("ignore")
        elems = [class_sum(n, family, lab) for lab in family_labels(family, n)]
    return span_rank(elems)


@pytest.mark.parametrize("family,group,dim", _SPAN_DIMS,
                         ids=[f[0] for f in _SPAN_DIMS])
def test_class_sum_span_dimensions(family, group, dim):
    for n in (2, 3, 4, 5) if group == "S" else (2, 3):
        assert _class_span_rank(n, family) == dim(n), (family, n)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_refined_span_dimensions(n):
    out = refined_decomposition(n, "typeA_F")
    assert out["ok"]
    assert span_rank(list(out["elements"].values())) == n
    if n <= 3:
        outb = refined_decomposition(n, "typeB_F")
        assert outb["ok"]
        assert len(outb["elements"]) == 2 * n
        assert span_rank(list(outb["elements"].values())) == 2 * n


@pytest.mark.parametrize("n", (3, 5))
@pytest.mark.xfail(strict=True,
                   reason="for odd sizes the maximal interior peak count "
                          "forces a peak at position 2, hence an ascent in "
                          "the first position; the with-descent refinement "
                          "class is empty, its class sum vanishes, and the "
                          "span rank stays at n")
def test_refined_span_counts_empty_class_for_odd_sizes(n):
    out = refined_decomposition(n, "typeA_F")
    assert span_rank(list(out["elements"].values())) == n + 1


# --- deliberate negatives -----------------------------------------------------------

@pytest.mark.parametrize("tid", ("phi_times_rho", "right_peak_num_closure",
                                 "right_peak_set_constants"))
def test_negative_results_emit_counterexamples(tid):
    out = verify_identity(3, tid)
    assert not out["ok"]
    assert not out["expected_ok"]
    assert out["counterexample"] is not None


# --- peak and Eulerian polynomial identities ----------------------------------------

@pytest.mark.parametrize("which,n_max", (("augeul", 3), ("peeul1", 5),
                                         ("peeul2", 5), ("bpeeul1", 3),
                                         ("bpeeul2", 3)))
def test_peak_eulerian_identities(which, n_max):
    for n in range(1, n_max + 1):
        assert identity_check_43(n, which), (which, n)


def test_peak_polynomial_table_entries():
    assert peak_polynomial(3, "W_interior") == UniPoly((0, 4, 2))
    assert peak_polynomial(2, "B_cyclic_eulerian") == \
        peak_polynomial(2, "A_eulerian") * UniPoly((4,))


# --- quasisymmetric layer -----------------------------------------------------------

@pytest.mark.parametrize("which", ("mon", "fun"))
def test_expansions_match_truncated_realizations(which):
    for n in (2, 3, 4):
        out = verify_hook(which, n)
        assert out["ok"], out


@pytest.mark.parametrize("check", ("gf_ges", "gf_interior", "gf_left", "gf_B",
                                   "gf_peakideal", "gf_interiordescent"))
def test_bipartite_product_identities(check):
    for n in (1, 2, 3, 4, 5):
        out = verify_hook(check, n)
        assert out["ok"], (check, n, out)


@pytest.mark.parametrize("check", ("fib_rank_interior", "fib_rank_left",
                                   "fib_rank_B"))
def test_peak_basis_ranks_follow_fibonacci(check):
    for n in range(1, 7):
        out = verify_hook(check, n)
        assert out["ok"], (check, n, out)


# --- the cyclic embedding -----------------------------------------------------------

def test_cyclic_embedding_multiplicative():
    assert cyclic_isomorphism_check(3)
    assert cyclic_isomorphism_check(4)
