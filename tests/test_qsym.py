"""Quasisymmetric expansions, realizations, K-function ranks, and the
bipartite product identities."""

import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import peaklab
from peaklab import qsym

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
from peaklab.perms import b_peak_mask, hyperoctahedral_group, peak_mask, sign_mask, symmetric_group
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
        key = (sign_mask(pi), b_peak_mask(pi))
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
    sets = qsym.interior_peak_sets
    monkeypatch.setattr(qsym, "interior_peak_sets", lambda n: sets(n) + sets(n)[-1:])
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
        bipartite_check((1, 2, 3, 4, 5), "gesA", 2, 2)
    with pytest.raises(ResourceLimitError):
        bipartite_check((1, 2), "gesA", 4, 2)


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
