"""Quasisymmetric expansions, realizations, K-function ranks, and the
bipartite product identities."""

import os
import resource
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import peaklab
from peaklab import groupalgebra, limits, qsym

from peaklab import (
    QsymExpansion,
    ResourceLimitError,
    SignPeakSet,
    bipartite_check,
    coalgebra_constants,
    delta_expansion,
    fibonacci,
    order_polynomial,
    peak_basis_rank,
    peak_function,
    realize_basis,
    truncate_realize,
    truncated_enumerator,
)
from peaklab.exact import MultiPoly
from peaklab.perms import (
    STATISTICS,
    compose,
    hyperoctahedral_group,
    inverse,
    iterate_group,
    peak_mask,
    sign_mask,
    symmetric_group,
)
from peaklab.posets import chain_weight_sum, ordinary_alphabet, product_alphabet
from peaklab.qsym import (
    COALGEBRA_FAMILIES,
    _submasks,
    b_peak_sets,
    interior_peak_sets,
    sign_peak_sets,
    verify_hook,
)
from peaklab.groupalgebra import class_sum, family_labels


def test_fibonacci():
    assert [fibonacci(k) for k in range(6)] == [1, 1, 2, 3, 5, 8]
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_index_set_counts():
    for n in range(1, 8):
        assert len(interior_peak_sets(n)) == fibonacci(n - 1)
        assert len(b_peak_sets(n)) == fibonacci(n)
        assert len(sign_peak_sets(n)) == fibonacci(n + 1)
    assert interior_peak_sets(2) == [0]


def test_sign_peak_sets_pinned():
    assert [(s.sign, s.peaks) for s in sign_peak_sets(3)] == [
        (0, ()), (1, ()), (0, (1,)), (0, (2,)), (1, (2,))]


def test_sign_peak_set_validation():
    assert SignPeakSet.from_mask(0, 0b100).peaks == (2,)
    assert SignPeakSet(1, (3, 5)).mask == 0b101000
    with pytest.raises(ValueError):
        SignPeakSet(2, ())
    with pytest.raises(ValueError):
        SignPeakSet(0, (2, 3))
    with pytest.raises(ValueError):
        SignPeakSet(1, (1,))
    with pytest.raises(ValueError):
        SignPeakSet(0, (0,))


def test_delta_expansion_pinned():
    left = delta_expansion((1, 2), "left")
    assert left.basis == "N"
    assert left.coeffs == {0b00: 2**0, 0b01: 2, 0b10: 2, 0b11: 4}

    signed = delta_expansion((-1,), "B", "fundamental")
    assert signed.basis == "L"
    assert signed.coeffs == {0b1: 2}

    interior = delta_expansion((2, 1, 3), "interior")
    assert interior.basis == "M"
    assert interior.coeffs == {0: 2, 0b010: 4, 0b100: 4, 0b110: 8}
    fun = delta_expansion((2, 1, 3), "interior", "fundamental")
    assert fun.coeffs == {d: 2 for d in (0, 0b010, 0b100, 0b110)}

    with pytest.raises(ValueError):
        delta_expansion((1, 2), "right")
    with pytest.raises(ValueError):
        delta_expansion((1, 2), "interior", "power-sum")


def test_expansion_validation_and_json():
    with pytest.raises(ValueError):
        QsymExpansion(2, "M", {0b1: 1})  # bit 0 not allowed in M
    with pytest.raises(ValueError):
        QsymExpansion(4, "K_A", {0b1100: 1})  # adjacent peaks
    with pytest.raises(ValueError):
        QsymExpansion(2, "Q", {0: 1})

    e = QsymExpansion(3, "K_B", {
        SignPeakSet(0, (2,)): 1,
        SignPeakSet(1, ()): Fraction(1, 2),
    })
    assert QsymExpansion.from_json(e.to_json()) == e
    m = delta_expansion((2, 1, 3), "interior")
    assert QsymExpansion.from_json(m.to_json()) == m
    assert m != delta_expansion((1, 3, 2), "interior")
    assert m.coeff(0b010) == 4 and m.coeff(0b1000) == 0


def test_monomial_fundamental_inversion():
    # M_S == sum over supersets T of (-1)^|T \ S| F_T, checked as honest
    # polynomials; the signed pair N/L satisfies the same triangle
    for n, basis_pair, universe_bits in ((3, ("M", "F"), 0b110), (3, ("N", "L"), 0b111)):
        m = 3
        mono, fund = basis_pair
        for S in _submasks(universe_bits):
            total = None
            for extra in _submasks(universe_bits & ~S):
                term = realize_basis(n, fund, S | extra, m)
                if extra.bit_count() % 2:
                    term = term * -1
                total = term if total is None else total + term
            assert total == realize_basis(n, mono, S, m), (basis_pair, S)


ENRICHED_KIND = {
    "interior": "enriched_interior",
    "left": "enriched_left",
    "B": "enriched_B",
}


@pytest.mark.parametrize("flavor,group", [("interior", "S"), ("left", "S"), ("B", "B")])
def test_realizations_specialize_to_order_polynomials(flavor, group):
    size = 3 if group == "S" else 2
    perms = symmetric_group(size) if group == "S" else hyperoctahedral_group(size)
    for pi in perms:
        p = order_polynomial(pi, ENRICHED_KIND[flavor])
        for basis in ("monomial", "fundamental"):
            spread = delta_expansion(pi, flavor, basis)
            for m in (1, 2, 3):
                assert truncate_realize(spread, m).eval_all_ones() == p(m)
                assert truncated_enumerator(pi, flavor, m).eval_all_ones() == p(m)


def test_expansion_depends_only_on_class():
    by_class: dict = {}
    for pi in symmetric_group(4):
        by_class.setdefault(peak_mask(pi), []).append(delta_expansion(pi, "interior"))
    for spreads in by_class.values():
        assert all(s == spreads[0] for s in spreads)
    distinct = list(by_class)
    for i, a in enumerate(distinct):
        for b in distinct[i + 1:]:
            assert by_class[a][0] != by_class[b][0]

    signed_classes: dict = {}
    for pi in hyperoctahedral_group(3):
        key = (sign_mask(pi), STATISTICS["B_peak"](pi))
        signed_classes.setdefault(key, []).append(delta_expansion(pi, "B", "fundamental"))
    for spreads in signed_classes.values():
        assert all(s == spreads[0] for s in spreads)


def test_left_freezes_to_interior():
    # killing the zero letter removes exactly the maps that touch it
    for pi in symmetric_group(3):
        for m in (1, 2, 3):
            frozen = truncated_enumerator(pi, "left", m).set_var_zero(0)
            assert frozen == truncated_enumerator(pi, "interior", m).set_var_zero(0)


def test_all_positive_signed_chain_matches_left():
    for pi in symmetric_group(3):
        for basis in ("monomial", "fundamental"):
            assert delta_expansion(pi, "B", basis) == delta_expansion(pi, "left", basis)


def test_peak_function_indexing():
    f = peak_function(3, 0b100, "interior")
    assert f.basis == "F" and f.coeffs == {0b010: 4, 0b100: 4}
    assert peak_function(2, (0, 0), "B") == peak_function(2, SignPeakSet(0, ()), "B")
    with pytest.raises(ValueError):
        peak_function(3, 0b010, "interior")  # position 1 is not interior
    with pytest.raises(ValueError):
        peak_function(2, 0b100, "left")
    with pytest.raises(ValueError):
        peak_function(2, 0, "right")


@pytest.mark.parametrize("family, wrong", [
    ("interior", SignPeakSet(0, ())), ("interior", 4.0), ("interior", False), ("interior", "4"),
    ("left", SignPeakSet(0, ())), ("left", 2.0), ("left", None), ("left", (0, 2)),
    ("B", 0), ("B", 2), ("B", None), ("B", "0"),
])
def test_peak_function_refuses_an_index_of_the_wrong_type(family, wrong):
    with pytest.raises(ValueError):
        peak_function(4, wrong, family)


def _candidates(n: int, basis: str):
    """Every int below 2^(n+1), and for K_B every SignPeakSet on such a mask."""
    if basis != "K_B":
        return range(1 << n + 1)
    out = []
    for mask in range(0, 1 << n + 1, 2):
        for sign in (0, 1):
            try:
                out.append(SignPeakSet.from_mask(sign, mask))
            except ValueError:  # adjacent peaks, or a peak at 1 after a negative start
                pass
    return out


_K_BASES = {"K_A": "interior", "K_B": "B"}


def test_every_entry_point_refuses_the_same_indices():
    for n in range(1, 7):
        for basis in ("M", "F", "N", "L", "K_A", "K_B"):
            for idx in _candidates(n, basis):
                calls = [lambda: QsymExpansion(n, basis, {idx: 1}),
                         lambda: realize_basis(n, basis, idx, 2)]
                if basis in _K_BASES:
                    calls.append(lambda: peak_function(n, idx, _K_BASES[basis]))
                refused = []
                for call in calls:
                    try:
                        call()
                        refused.append(False)
                    except ValueError:
                        refused.append(True)
                assert len(set(refused)) == 1, (n, basis, idx, refused)
                if basis in _K_BASES and not refused[0]:
                    spread = peak_function(n, idx, _K_BASES[basis])
                    assert realize_basis(n, basis, idx, 2) == truncate_realize(spread, 2)


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1)])
def test_realize_basis_refusal_does_not_depend_on_call_order(monkeypatch, bad):
    # each bad index equals, and hashes like, the valid index 1
    monkeypatch.setitem(limits._CACHES, "realizations", {})
    with pytest.raises(ValueError, match="is not valid"):
        realize_basis(3, "N", bad, 2)
    good = realize_basis(3, "N", 1, 2)
    with pytest.raises(ValueError, match="is not valid"):
        realize_basis(3, "N", bad, 2)
    assert realize_basis(3, "N", 1, 2) is good


def test_realize_basis_needs_a_variable():
    for m in (0, -1):
        with pytest.raises(ValueError, match="need at least one variable"):
            realize_basis(3, "F", 0, m)


def test_expansions_hold_integer_coefficients():
    e = delta_expansion((2, 1, 3), "interior", "fundamental")
    assert all(type(c) is int for c in e.coeffs.values())
    assert e.coeff(0b10) == Fraction(2) and type(e.coeff(0b10)) is Fraction
    assert e.coeff(0b1000) == 0 and type(e.coeff(0b1000)) is Fraction
    half = QsymExpansion(2, "N", {0: Fraction(1, 2), 1: Fraction(4, 2), 2: "3"})
    assert half.coeffs == {0: Fraction(1, 2), 1: 2, 2: 3}
    assert [type(c) for c in half.coeffs.values()] == [Fraction, int, int]
    with pytest.raises(TypeError):
        QsymExpansion(2, "N", {0: 0.5})


def test_peak_basis_rank_guards():
    assert peak_basis_rank(4, "interior") == fibonacci(3)
    assert peak_basis_rank(4, "left") == fibonacci(4)
    assert peak_basis_rank(3, "B") == fibonacci(4)
    with pytest.raises(ValueError):
        peak_basis_rank(3, "right")
    with pytest.raises(ResourceLimitError):
        peak_basis_rank(8)


def test_peak_basis_rank_shortfall_raises(monkeypatch):
    # a repeated index set makes the rows dependent; the check must raise
    # even under python -O, so it is not an assert statement
    *head, sets, shift, alphabet = qsym._FLAVORS["interior"]
    monkeypatch.setitem(qsym._FLAVORS, "interior",
                        (*head, lambda n: sets(n) + sets(n)[-1:], shift, alphabet))
    with pytest.raises(AssertionError, match="rank 5, not 6"):
        peak_basis_rank(5, "interior")


def _run_bounded(*argv):
    """Run python with the package on its path, capped at 1 GiB of address
    space and 30 s, so a runaway enumeration fails fast instead of growing."""
    env = {**os.environ, "PYTHONPATH": str(Path(peaklab.__file__).resolve().parents[1])}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=30, env=env, preexec_fn=cap)


@pytest.mark.parametrize("basis", ["monomial", "fundamental"])
def test_expand_degree_zero_is_refused(basis):
    # degree 0 once made the universe -1, whose submask walk never ends
    proc = _run_bounded("-m", "peaklab.cli", "qsym", "expand", "[]",
                        "--flavor", "interior", "--basis", basis)
    assert proc.returncode == 2
    assert "degree must be positive" in proc.stderr


def test_realize_degree_zero_is_refused():
    proc = _run_bounded("-c", "from peaklab.qsym import realize_basis\n"
                              "realize_basis(0, 'F', 0, 2)")
    assert proc.returncode == 1
    assert "ValueError: degree must be positive" in proc.stderr


def test_realize_guards():
    e = delta_expansion((1, 2), "interior")
    with pytest.raises(ValueError):
        truncate_realize(e, 0)
    with pytest.raises(ResourceLimitError):
        truncate_realize(e, 6)
    with pytest.raises(ValueError):
        truncated_enumerator((1, 2), "interior", 0)
    with pytest.raises(ValueError):
        realize_basis(2, "Q", 0, 2)


def test_bipartite_smoke():
    for flavor in ("gesA", "interior", "left", "peakideal_mixed", "interiordescent_mixed"):
        for pi in symmetric_group(2):
            assert bipartite_check(pi, flavor, 2, 2), (flavor, pi)
    for pi in hyperoctahedral_group(2):
        assert bipartite_check(pi, "B", 1, 2), pi
    with pytest.raises(ValueError):
        bipartite_check((1, 2), "bilinear", 2, 2)
    with pytest.raises(ValueError):
        bipartite_check((1, 2), "gesA", 0, 2)
    with pytest.raises(ResourceLimitError):
        bipartite_check((1, 2, 3, 4, 5, 6), "gesA", 2, 2)
    with pytest.raises(ResourceLimitError):
        bipartite_check((1, 2), "gesA", 4, 2)


@pytest.mark.parametrize("flavor", sorted(qsym._BIPARTITE))
def test_product_enumerator_matches_per_tau_convolution(flavor):
    # brute force: sum over every tau of the enumerator of pi tau^-1 over the
    # second alphabet times that of tau over the first
    signed = flavor == "B"
    p, q = 2, 2
    arity = p + q + 2
    for n in (1, 2, 3):
        elements = list((hyperoctahedral_group if signed else symmetric_group)(n))
        for first, second, mode in qsym._BIPARTITE[flavor]:
            over_second = {g: chain_weight_sum(second(q), g, anchored=signed, mode="poly")
                           .embed(arity, p + 1) for g in elements}
            over_first = {g: chain_weight_sum(first(p), g, anchored=signed, mode="poly")
                          .embed(arity, 0) for g in elements}
            alpha = product_alphabet(first(p), second(q), mode)
            for pi in elements:
                want = MultiPoly.zero(arity)
                for tau in elements:
                    want = want + over_second[compose(pi, inverse(tau))] * over_first[tau]
                got = chain_weight_sum(alpha, pi, anchored=signed, mode="poly")
                assert got == want, (flavor, first.__name__, pi)


@pytest.mark.parametrize("flavor", sorted(set(qsym._BIPARTITE) - {"B"}))
def test_bipartite_check_fails_on_a_wrong_tensor(monkeypatch, flavor):
    # every pi reads the identity's factorization counts
    real = groupalgebra._pair_rows
    monkeypatch.setattr(groupalgebra, "_pair_rows",
                        lambda *key: [real(*key)[0]] * len(real(*key)))
    assert any(not bipartite_check(pi, flavor, 2, 2) for pi in symmetric_group(3))


def test_factor_table_rejects_a_coarser_family(monkeypatch):
    monkeypatch.setitem(qsym._ENUMERATOR_FAMILY, ordinary_alphabet, "descent_num")
    monkeypatch.setattr(limits, "_CACHES", {})
    with pytest.raises(AssertionError, match="ordinary_alphabet.*descent_num"):
        bipartite_check((1, 3, 2), "gesA", 2, 2)


@pytest.mark.parametrize("check", sorted(c for c, f in qsym._GF_FLAVORS.items() if f != "B"))
def test_bipartite_sweep_composes_per_element_not_per_pair(monkeypatch, check):
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return compose(a, b)

    monkeypatch.setattr(groupalgebra, "compose", counting)
    monkeypatch.setattr(limits, "_CACHES", {})
    assert verify_hook(check, 4)["ok"]
    equations = len(qsym._BIPARTITE[qsym._GF_FLAVORS[check]])
    assert 0 < calls <= equations * len(list(symmetric_group(4)))


def test_factor_tables_are_built_once_per_alphabet(monkeypatch):
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += kwargs.get("mode") == "poly"
        return chain_weight_sum(*args, **kwargs)

    monkeypatch.setattr(qsym, "chain_weight_sum", counting)
    monkeypatch.setattr(limits, "_CACHES", {})
    for check, flavor in qsym._GF_FLAVORS.items():
        if flavor != "B":
            assert verify_hook(check, 4)["ok"], check
    # one table per alphabet (ordinary, enriched, left enriched) and one
    # left-hand side per equation (six), each scanned once per descent
    # word: S_4 has 2^3 of them
    assert calls == (3 + 6) * 8


def test_coalgebra_constants_duality():
    for family in COALGEBRA_FAMILIES:
        n = 2 if family.startswith("B") else 3
        out = coalgebra_constants(n, family)
        assert out["well_defined"], family
        labels = out["labels"]
        sizes = [class_sum(n, family, lab).support_size() for lab in labels]
        k = len(labels)
        for a in range(k):
            for b in range(k):
                mass = sum(out["tensor"][a][b][c] * sizes[c] for c in range(k))
                assert mass == sizes[a] * sizes[b]
    with pytest.raises(ValueError):
        coalgebra_constants(3, "right_peak_set")


def test_verify_hook():
    assert verify_hook("mon", 2)["ok"]
    assert verify_hook("fib_rank_B", 3)["ok"]
    with pytest.raises(ValueError):
        verify_hook("gf_right", 2)


def test_truncated_enumerator_builds_each_alphabet_once(monkeypatch):
    built = {}
    for flavor, (*head, builder) in list(qsym._FLAVORS.items()):
        def counting(k, builder=builder):
            built[builder.__name__, k] = built.get((builder.__name__, k), 0) + 1
            return builder(k)

        monkeypatch.setitem(qsym._FLAVORS, flavor, (*head, counting))
    monkeypatch.setattr(limits, "_CACHES", {})
    for flavor, group in (("interior", "S"), ("left", "S"), ("B", "B")):
        for pi in iterate_group(group, 3):
            for m in (1, 2, 3):
                truncated_enumerator(pi, flavor, m)
    names = ("enriched_alphabet", "left_enriched_alphabet", "b_enriched_alphabet")
    assert built == {(name, m): 1 for name in names for m in (1, 2, 3)}


@pytest.mark.parametrize("check", ["mon", "fun"])
def test_expansion_sweep_realizes_once_per_class(monkeypatch, check):
    realized, compared = Counter(), Counter()

    def realize(expansion, m, force=False):
        realized[m] += 1
        return truncate_realize(expansion, m, force)

    def enumerate_chain(pi, flavor, m, force=False):
        compared[m] += 1
        return truncated_enumerator(pi, flavor, m, force)

    monkeypatch.setattr(qsym, "truncate_realize", realize)
    monkeypatch.setattr(qsym, "truncated_enumerator", enumerate_chain)
    assert verify_hook(check, 4)["ok"]
    families = ("peak_interior_set", "peak_left_set", "B_peak_sign_set")
    classes = sum(len(groupalgebra._class_table(f, 4, False)[0]) for f in families)
    assert classes == 3 + 5 + 8
    assert realized == {1: classes, 2: classes, 3: classes}
    # one enumerator per chain word: 2^3 descent sets of S_4 for each
    # unsigned flavor, 2^4 type-B descent sets of B_4
    assert compared == {m: 8 + 8 + 16 for m in (1, 2, 3)}


# --- failure paths of the registry sweeps -------------------------------------------
#
# Each test breaks one input of a sweep and pins the counterexample it reports:
# the first failing element in group order, with the exact values compared.


@pytest.mark.parametrize("check,basis", [("mon", "monomial"), ("fun", "fundamental")])
def test_expansion_sweep_reports_first_failing_element(monkeypatch, check, basis):
    # (2,1,3) and (3,1,2) of S_3 gain 7 z_0^3, a monomial no enriched chain
    # reaches: the letters of enriched_alphabet(m) sit in slots 1..m
    broken = {(2, 1, 3), (3, 1, 2)}

    def enumerate_chain(pi, flavor, m, force=False):
        got = truncated_enumerator(pi, flavor, m, force)
        if flavor == "interior" and tuple(pi) in broken:
            got = got + MultiPoly.monomial(m + 1, (3,) + (0,) * m, 7)
        return got

    monkeypatch.setattr(qsym, "truncated_enumerator", enumerate_chain)
    assert verify_hook(check, 3) == {
        "ok": False,
        "counterexample": ([2, 1, 3], f"interior {basis} realization, m=1, monomial (3, 0): 0", "7"),
    }


def test_bipartite_sweep_reports_first_failing_element(monkeypatch):
    # zero the factorization rows of (2,3,1) and (3,2,1): the right-hand side
    # vanishes there, so the residue is the product enumerator's least monomial
    real = groupalgebra._pair_rows

    def rows(*key):
        out = list(real(*key))
        for i in (3, 5):
            out[i] = [0] * len(out[i])
        return out

    monkeypatch.setattr(groupalgebra, "_pair_rows", rows)
    lhs = chain_weight_sum(product_alphabet(ordinary_alphabet(2), ordinary_alphabet(2), "lex"),
                           (2, 3, 1), mode="poly")
    assert min(lhs.terms) == (0, 0, 3, 0, 2, 1) and lhs.terms[(0, 0, 3, 0, 2, 1)] == 1
    assert verify_hook("gf_ges", 3) == {
        "ok": False,
        "counterexample": ([2, 3, 1], "product enumerator, monomial (0, 0, 3, 0, 2, 1): 1",
                           "factorization sum: 0"),
    }


# sweep flavor -> the statistics whose masks name its classes.  A sweep runs
# its per-element check at the first element of each (class, descent set)
# pair: the descent set is the chain word, read with the anchor in B_n.
_SWEEP_CLASSES = {"interior": ("peak_interior",), "left": ("peak_left",),
                  "B": ("B_sign", "B_peak"), "gesA": ("descent",)}
_SWEEP_FLAVORS = {"mon": ("interior", "left", "B"), "fun": ("interior", "left", "B"),
                  "gf_ges": ("gesA",), "gf_interior": ("interior",), "gf_B": ("B",)}


def _first_elements(flavor, n, *extra):
    """The elements, in group order, that come first with their value of
    the flavor's class statistics and the extra statistics."""
    group = "B" if flavor == "B" else "S"
    seen, out = set(), []
    for g in iterate_group(group, n):
        key = tuple(STATISTICS[s](g) for s in _SWEEP_CLASSES[flavor] + extra)
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def _descents(flavor):
    return "B_descent" if flavor == "B" else "descent"


def _record_checks(monkeypatch, check, visited, broken=None):
    """Record (flavor, element) wherever the sweep runs its per-element
    check; at the element broken, that check reports a false mismatch."""
    if check in qsym._GF_FLAVORS:
        flavor, real = qsym._GF_FLAVORS[check], qsym._bipartite_residue

        def residue(perm, at, equations, signed):
            visited.append((flavor, perm))
            return ((0,), 1, 0) if perm == broken else real(perm, at, equations, signed)

        monkeypatch.setattr(qsym, "_bipartite_residue", residue)
    else:
        def enumerate_chain(pi, flavor, m, force=False):
            if m == 1:
                visited.append((flavor, tuple(pi)))
            got = truncated_enumerator(pi, flavor, m, force)
            if tuple(pi) == broken and flavor == "interior":
                got = got + MultiPoly.monomial(m + 1, (3,) + (0,) * m, 7)
            return got

        monkeypatch.setattr(qsym, "truncated_enumerator", enumerate_chain)


@pytest.mark.parametrize("check", ["mon", "fun", "gf_ges", "gf_B"])
def test_sweeps_check_the_first_element_of_each_class_and_word(monkeypatch, check):
    visited = []
    _record_checks(monkeypatch, check, visited)
    assert verify_hook(check, 4)["ok"]
    assert visited == [(flavor, g) for flavor in _SWEEP_FLAVORS[check]
                       for g in _first_elements(flavor, 4, _descents(flavor))]


@pytest.mark.parametrize("check", ["mon", "fun", "gf_interior", "gf_B"])
def test_sweep_names_a_failure_at_a_word_inside_a_class(monkeypatch, check):
    # the first element of a descent set that is not its class's first
    # element: a sweep keyed on the class alone never checks it
    flavor = _SWEEP_FLAVORS[check][0]
    classes = _first_elements(flavor, 4)
    broken = next(g for g in _first_elements(flavor, 4, _descents(flavor)) if g not in classes)
    _record_checks(monkeypatch, check, [], broken)
    out = verify_hook(check, 4)
    assert not out["ok"] and out["counterexample"][0] == list(broken), out


def test_fibonacci_rank_mismatch_is_reported(monkeypatch):
    monkeypatch.setattr(qsym, "fibonacci", lambda k: fibonacci(k) + 1)
    for check, family, rank in (("fib_rank_interior", "interior", 3),
                                ("fib_rank_left", "left", 5), ("fib_rank_B", "B", 8)):
        assert verify_hook(check, 4) == {
            "ok": False,
            "counterexample": (family, str(rank), f"fibonacci {rank + 1}"),
        }


def test_expansion_reprs_and_zero_coefficients():
    spread = QsymExpansion(3, "F", {0b110: 2, 0: Fraction(1, 2), 0b10: 0})
    # a zero coefficient is dropped, not stored
    assert spread.coeffs == {0b110: 2, 0: Fraction(1, 2)}
    assert repr(spread) == "QsymExpansion(n=3: 1/2*F_{} + 2*F_{1,2})"
    k_b = QsymExpansion(3, "K_B", {SignPeakSet(0, (2,)): 3, SignPeakSet(1, ()): Fraction(-1, 2)})
    assert repr(k_b) == "QsymExpansion(n=3: 3*K_B_(0,{2}) + -1/2*K_B_(1,{}))"
    assert repr(QsymExpansion(2, "M", {})) == "QsymExpansion(n=2: 0)"


@pytest.mark.parametrize("call, message", [
    (lambda: truncated_enumerator((1, 2), "exterior", 2), "unknown flavor 'exterior'"),
    (lambda: realize_basis(0, "M", 0, 2), "degree must be positive"),
    (lambda: QsymExpansion(0, "M", {}), "degree must be positive"),
])
def test_qsym_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
