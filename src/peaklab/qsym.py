"""Quasisymmetric expansions of enriched chain enumerators.

Two variable families appear.  Plain-side functions live in z_1, z_2, ...
and are indexed by subsets of [1, n-1]: the monomial basis M and the
fundamental basis F.  Signed-side functions add a distinguished variable
z_0 and are indexed by subsets of [0, n-1]: the bases N and L.  The weight
enumerator of a permutation chain over an enriched image set expands in
each of these with explicit powers of two, and collecting expansions by
peak data yields the K-functions, whose coordinate matrices have Fibonacci
rank.  Everything is finite and exact: expansions are sparse Fraction
maps, and realizations truncate to a chosen number of variables so that
identities can be compared as honest polynomials.

The bipartite checks compare a chain enumerator over a product alphabet
with the convolution of single-alphabet enumerators over all two-factor
factorizations of the permutation.  These are the comultiplication rules
dual to the class-sum products in groupalgebra; coalgebra_constants
exposes that duality directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import MultiPoly, as_fraction, basis_insert, format_rational
from .limits import (
    BIPARTITE_MAX_N,
    BIPARTITE_MAX_VARS,
    IMAGE_SET_MAX_K,
    PEAK_RANK_MAX_N,
    check_limit,
)
from .perms import (
    STATISTICS,
    compose,
    inverse,
    iterate_group,
    positions,
    validate_perm,
)
from .posets import (
    b_enriched_alphabet,
    chain_weight_sum,
    enriched_alphabet,
    left_enriched_alphabet,
    ordinary_alphabet,
    product_alphabet,
)

__all__ = [
    "QsymExpansion",
    "SignPeakSet",
    "bipartite_check",
    "coalgebra_constants",
    "delta_expansion",
    "fibonacci",
    "interior_peak_sets",
    "b_peak_sets",
    "peak_basis_rank",
    "peak_function",
    "realize_basis",
    "sign_peak_sets",
    "truncate_realize",
    "truncated_enumerator",
    "verify_hook",
]


# --- index sets ----------------------------------------------------------------


def _submasks(universe: int):
    sub = universe
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & universe


def fibonacci(k: int) -> int:
    """f_0 = f_1 = 1, then the usual recurrence."""
    if k < 0:
        raise ValueError("negative index")
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def interior_peak_sets(n: int) -> list[int]:
    """Masks of non-adjacent subsets of [2, n-1], ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    universe = ((1 << n) - 1) & ~0b11 if n >= 3 else 0
    return sorted(s for s in _submasks(universe) if not s & s << 1)


def b_peak_sets(n: int) -> list[int]:
    """Masks of non-adjacent subsets of [1, n-1], ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    universe = (1 << n) - 2
    return sorted(s for s in _submasks(universe) if not s & s << 1)


@dataclass(frozen=True)
class SignPeakSet:
    """A signed-permutation peak set paired with the sign of the first value.

    A peak at position 1 needs a positive start, so sign 1 together with
    1 in the peak set is contradictory and rejected here.
    """

    sign: int
    peaks: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (0, 1):
            raise ValueError("sign must be 0 or 1")
        ps = tuple(sorted(self.peaks))
        object.__setattr__(self, "peaks", ps)
        if len(set(ps)) != len(ps) or any(x < 1 for x in ps):
            raise ValueError("peaks are distinct positive positions")
        if any(b - a == 1 for a, b in zip(ps, ps[1:])):
            raise ValueError("peak positions cannot be adjacent")
        if self.sign == 1 and 1 in ps:
            raise ValueError("a negative start rules out a peak at position 1")

    @property
    def mask(self) -> int:
        m = 0
        for x in self.peaks:
            m |= 1 << x
        return m

    @classmethod
    def from_mask(cls, sign: int, mask: int) -> "SignPeakSet":
        return cls(sign, positions(mask))


def sign_peak_sets(n: int) -> list[SignPeakSet]:
    """All valid sign-peak pairs on [1, n-1]; there are fibonacci(n+1)."""
    out = []
    for mask in b_peak_sets(n):
        out.append(SignPeakSet.from_mask(0, mask))
        if not mask & 0b10:
            out.append(SignPeakSet.from_mask(1, mask))
    return out


# --- expansions ----------------------------------------------------------------

_BASES = ("M", "F", "N", "L", "K_A", "K_B")


def _index_ok(n: int, basis: str, idx) -> bool:
    if basis in ("M", "F"):
        return isinstance(idx, int) and idx >= 0 and not idx & ~((1 << n) - 2)
    if basis in ("N", "L"):
        return isinstance(idx, int) and idx >= 0 and not idx & ~((1 << n) - 1)
    if basis == "K_A":
        if not isinstance(idx, int) or idx < 0 or idx & idx << 1:
            return False
        universe = ((1 << n) - 1) & ~0b11 if n >= 3 else 0
        return not idx & ~universe
    return isinstance(idx, SignPeakSet) and not idx.mask & ~((1 << n) - 2)


class QsymExpansion:
    """Sparse coordinates of a degree-n function in one of six bases.

    M and F are indexed by subset masks of [1, n-1]; N and L by masks of
    [0, n-1]; K_A by interior peak set masks; K_B by SignPeakSet pairs.
    Invalid indices are rejected, zero coefficients dropped.
    """

    __slots__ = ("n", "basis", "coeffs")

    def __init__(self, n: int, basis: str, coeffs: dict):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if n < 1:
            raise ValueError("degree must be positive")
        clean = {}
        for idx, c in coeffs.items():
            c = as_fraction(c)
            if not c:
                continue
            if not _index_ok(n, basis, idx):
                raise ValueError(f"index {idx!r} is not valid for basis {basis} at n={n}")
            clean[idx] = c
        self.n = n
        self.basis = basis
        self.coeffs = clean

    def coeff(self, idx) -> Fraction:
        return self.coeffs.get(idx, Fraction(0))

    def _key(self, idx):
        if self.basis == "K_B":
            return (idx.sign, idx.mask)
        return idx

    def __eq__(self, other) -> bool:
        if not isinstance(other, QsymExpansion):
            return NotImplemented
        return (self.n, self.basis, self.coeffs) == (other.n, other.basis, other.coeffs)

    __hash__ = None

    def __repr__(self) -> str:
        bits = []
        for idx in sorted(self.coeffs, key=self._key):
            if self.basis == "K_B":
                label = f"({idx.sign},{{{','.join(map(str, idx.peaks))}}})"
            else:
                label = "{" + ",".join(map(str, positions(idx))) + "}"
            bits.append(f"{format_rational(self.coeffs[idx])}*{self.basis}_{label}")
        return f"QsymExpansion(n={self.n}: " + (" + ".join(bits) or "0") + ")"

    def to_json(self) -> dict:
        terms = []
        for idx in sorted(self.coeffs, key=self._key):
            c = format_rational(self.coeffs[idx])
            if self.basis == "K_B":
                terms.append({"sign": idx.sign, "peaks": list(idx.peaks), "coeff": c})
            else:
                terms.append({"set": list(positions(idx)), "coeff": c})
        return {"basis": self.basis, "n": self.n, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "QsymExpansion":
        coeffs: dict = {}
        for term in data["terms"]:
            if data["basis"] == "K_B":
                idx = SignPeakSet(term["sign"], tuple(term["peaks"]))
            else:
                idx = 0
                for x in term["set"]:
                    idx |= 1 << x
            coeffs[idx] = Fraction(term["coeff"])
        return cls(data["n"], data["basis"], coeffs)


# flavor -> (signed, peak statistic, monomial basis, fundamental basis,
# image-set alphabet).  Signed flavors anchor their chains at zero.
_FLAVORS = {
    "interior": (False, "peak_interior", "M", "F", enriched_alphabet),
    "left": (False, "peak_left", "N", "L", left_enriched_alphabet),
    "B": (True, "B_peak", "N", "L", b_enriched_alphabet),
}


def _expand(n: int, basis: str, peaks: int, sign: int) -> QsymExpansion:
    """The expansion fixed by a peak set and a sign bit, in M or N
    (monomial) or F or L (fundamental) coordinates.

    The coefficients are the powers of two determined by the peak data: the
    monomial side sums over supersets E of the peaks inside E u (E+1), the
    fundamental side over D with the peaks inside the symmetric difference
    of D and D+1.  The plain bases M and F index subsets of [1, n-1] and
    carry one extra factor of two.  A negative start (sign 1) keeps only
    the sets that contain 0, and on the fundamental side it carries one
    more factor of two.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    plain = basis in ("M", "F")
    universe = (1 << n) - (2 if plain else 1)
    if basis in ("M", "N"):
        coeffs = {
            E: 2 ** (E.bit_count() + plain)
            for E in _submasks(universe)
            if not peaks & ~(E | E << 1) and (E & 1 or not sign)
        }
    else:
        w = 2 ** (peaks.bit_count() + plain + sign)
        coeffs = {
            D: w
            for D in _submasks(universe)
            if not peaks & ~(D ^ D << 1) and (D & 1 or not sign)
        }
    return QsymExpansion(n, basis, coeffs)


def delta_expansion(pi, flavor: str, basis: str = "monomial") -> QsymExpansion:
    """Expand the enriched enumerator of one permutation chain.

    flavor picks the image set: interior peaks over nonzero values, left
    peaks over values allowed to hit zero, or the signed alphabet.  basis
    picks monomial (M or N) or fundamental (F or L) coordinates; see
    _expand for the coefficients.
    """
    if basis not in ("monomial", "fundamental"):
        raise ValueError(f"unknown basis {basis!r}")
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    signed, stat, monomial, fundamental, _ = _FLAVORS[flavor]
    p = validate_perm(pi, signed=signed)
    sign = STATISTICS["B_sign"](p) if signed else 0
    target = monomial if basis == "monomial" else fundamental
    return _expand(len(p), target, STATISTICS[stat](p), sign)


def peak_function(n: int, index, family: str = "interior") -> QsymExpansion:
    """One K-function in descent-basis coordinates (F plain, L signed).

    index is a peak-set mask for the interior and left families and a
    SignPeakSet (or (sign, mask) pair) for the B family.
    """
    if family == "interior":
        if index not in interior_peak_sets(n):
            raise ValueError(f"{index!r} is not an interior peak set mask at n={n}")
        return _expand(n, "F", index, 0)
    if family == "left":
        if index not in b_peak_sets(n):
            raise ValueError(f"{index!r} is not a left peak set mask at n={n}")
        return _expand(n, "L", index, 0)
    if family == "B":
        if isinstance(index, tuple) and not isinstance(index, SignPeakSet):
            index = SignPeakSet.from_mask(index[0], index[1])
        if index.mask not in b_peak_sets(n):
            raise ValueError(f"{index!r} is out of range at n={n}")
        return _expand(n, "L", index.mask, index.sign)
    raise ValueError(f"unknown K-function family {family!r}")


# --- truncated realizations ------------------------------------------------------

_realize_cache: dict = {}


def _composition(n: int, mask: int) -> tuple[int, ...]:
    """Differences cut by the set positions, with outer boundaries 0 and n."""
    bounds = [0, *positions(mask), n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _realize_monomial(n: int, mask: int, m: int, signed: bool) -> MultiPoly:
    parts = _composition(n, mask)
    terms: dict = {}
    if signed:
        # the first part binds to z_0 and may be empty when 0 is in the set
        for run in combinations(range(1, m + 1), len(parts) - 1):
            e = [0] * (m + 1)
            e[0] = parts[0]
            for v, a in zip(run, parts[1:]):
                e[v] = a
            terms[tuple(e)] = 1
    else:
        for run in combinations(range(1, m + 1), len(parts)):
            e = [0] * (m + 1)
            for v, a in zip(run, parts):
                e[v] = a
            terms[tuple(e)] = 1
    return MultiPoly(m + 1, terms)


def realize_basis(n: int, basis: str, index, m: int) -> MultiPoly:
    """One basis element as a polynomial in z_1..z_m (plain) or z_0..z_m.

    The result always has m+1 slots; plain-side functions leave slot 0
    untouched so both sides compare in the same arity.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    key = (n, basis, index, m)
    if key in _realize_cache:
        return _realize_cache[key]
    if basis == "M":
        out = _realize_monomial(n, index, m, signed=False)
    elif basis == "N":
        out = _realize_monomial(n, index, m, signed=True)
    elif basis in ("F", "L"):
        signed = basis == "L"
        universe = (1 << n) - 1 if signed else (1 << n) - 2
        out = MultiPoly.zero(m + 1)
        for extra in _submasks(universe & ~index):
            out = out + _realize_monomial(n, index | extra, m, signed)
    elif basis in ("K_A", "K_B"):
        family = "interior" if basis == "K_A" else "B"
        spread = peak_function(n, index, family)
        out = MultiPoly.zero(m + 1)
        for idx, c in spread.coeffs.items():
            out = out + realize_basis(n, spread.basis, idx, m) * c
    else:
        raise ValueError(f"unknown basis {basis!r}")
    _realize_cache[key] = out
    return out


def truncate_realize(expansion: QsymExpansion, m: int, force: bool = False) -> MultiPoly:
    """The expansion as an honest polynomial in m variables (plus z_0)."""
    if m < 1:
        raise ValueError("need at least one variable")
    check_limit("variable truncation", m, IMAGE_SET_MAX_K, force)
    out = MultiPoly.zero(m + 1)
    for idx, c in expansion.coeffs.items():
        out = out + realize_basis(expansion.n, expansion.basis, idx, m) * c
    return out


def truncated_enumerator(pi, flavor: str, m: int, force: bool = False) -> MultiPoly:
    """Direct image-set enumeration of the chain of pi, magnitudes <= m.

    No basis expansion is involved, which makes this the oracle that
    delta_expansion plus truncate_realize is checked against.  Setting
    every variable to 1 recovers the matching order polynomial value.
    """
    if flavor not in _FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if m < 1:
        raise ValueError("need at least one variable")
    check_limit("variable truncation", m, IMAGE_SET_MAX_K, force)
    signed, _, _, _, alphabet = _FLAVORS[flavor]
    p = validate_perm(pi, signed=signed)
    return chain_weight_sum(alphabet(m), p, anchored=signed, mode="poly")


# --- K-function rank -------------------------------------------------------------


def peak_basis_rank(n: int, family: str = "interior", force: bool = False) -> int:
    """Rank of the K-functions in F or L coordinates.

    Linear independence is the content; a rank short of the count of valid
    index sets raises AssertionError, so the return value is also that count.
    """
    check_limit("peak basis rank", n, PEAK_RANK_MAX_N, force)
    if family == "interior":
        rows = [peak_function(n, s, "interior") for s in interior_peak_sets(n)]
    elif family == "left":
        rows = [peak_function(n, s, "left") for s in b_peak_sets(n)]
    elif family == "B":
        rows = [peak_function(n, sp, "B") for sp in sign_peak_sets(n)]
    else:
        raise ValueError(f"unknown K-function family {family!r}")
    basis: dict = {}
    rank = sum(basis_insert(r.coeffs, basis) for r in rows)
    if rank != len(rows):
        raise AssertionError(f"{family} K-functions at n={n} have rank {rank}, not {len(rows)}")
    return rank


# --- bipartite product identities -------------------------------------------------

# Each equation: (first, second, product mode, anchored, sigma, tau) where
# sigma and tau give (alphabet builder, variable block) for the factors of
# sigma*tau = pi.  Block 0 is the first p+1 slots, block 1 the rest.  One
# rule covers every flavor: the left factor sigma realizes over the second
# coordinate and the right factor tau over the first.  The second
# coordinate of an admissible grid chain forms sigma's partitions while
# the first follows sigma^-1 pi, so the pairing is forced; transposing it
# fails on three letters for the plain and signed products and on four
# letters for the rest.
_BIPARTITE = {
    "gesA": [
        (ordinary_alphabet, ordinary_alphabet, "lex", False,
         (ordinary_alphabet, 1), (ordinary_alphabet, 0)),
    ],
    "interior": [
        (enriched_alphabet, enriched_alphabet, "updown", False,
         (enriched_alphabet, 1), (enriched_alphabet, 0)),
    ],
    "left": [
        (left_enriched_alphabet, left_enriched_alphabet, "updown", False,
         (left_enriched_alphabet, 1), (left_enriched_alphabet, 0)),
    ],
    "B": [
        (b_enriched_alphabet, b_enriched_alphabet, "updown", True,
         (b_enriched_alphabet, 1), (b_enriched_alphabet, 0)),
    ],
    "peakideal_mixed": [
        (enriched_alphabet, left_enriched_alphabet, "updown", False,
         (left_enriched_alphabet, 1), (enriched_alphabet, 0)),
        (left_enriched_alphabet, enriched_alphabet, "updown", False,
         (enriched_alphabet, 1), (left_enriched_alphabet, 0)),
    ],
    "interiordescent_mixed": [
        (ordinary_alphabet, enriched_alphabet, "lex", False,
         (enriched_alphabet, 1), (ordinary_alphabet, 0)),
    ],
}

_product_cache: dict = {}
_factor_cache: dict = {}


def _product_alpha(firstb, p: int, secondb, q: int, mode: str):
    key = (firstb.__name__, p, secondb.__name__, q, mode)
    if key not in _product_cache:
        _product_cache[key] = product_alphabet(firstb(p), secondb(q), mode)
    return _product_cache[key]


def _factor_table(builder, k: int, group: str, n: int, anchored: bool,
                  arity: int, offset: int, force: bool) -> dict:
    """Embedded single-alphabet enumerators for a whole group, cached."""
    key = (builder.__name__, k, group, n, anchored, arity, offset)
    if key not in _factor_cache:
        alpha = builder(k)
        _factor_cache[key] = {
            g: chain_weight_sum(alpha, g, anchored=anchored, mode="poly").embed(arity, offset)
            for g in iterate_group(group, n, force)
        }
    return _factor_cache[key]


def _bipartite_residue(pi, flavor: str, p: int, q: int, force: bool):
    """None when every listed identity holds at pi, else the first mismatch."""
    if flavor not in _BIPARTITE:
        raise ValueError(f"unknown bipartite flavor {flavor!r}")
    group = "B" if flavor == "B" else "S"
    perm = validate_perm(pi, signed=group == "B")
    n = len(perm)
    check_limit("bipartite chain length", n, BIPARTITE_MAX_N, force)
    check_limit("bipartite alphabet size", max(p, q), BIPARTITE_MAX_VARS, force)
    if min(p, q) < 1:
        raise ValueError("need at least one variable per side")
    # a list, not an iterator: every listed identity sweeps it again
    elems = list(iterate_group(group, n, force))
    arity = p + q + 2
    for firstb, secondb, mode, anchored, (sigb, sblock), (taub, tblock) in _BIPARTITE[flavor]:
        lhs = chain_weight_sum(
            _product_alpha(firstb, p, secondb, q, mode), perm, anchored=anchored, mode="poly"
        )
        sig_tab = _factor_table(sigb, p if sblock == 0 else q, group, n, anchored,
                                arity, 0 if sblock == 0 else p + 1, force)
        tau_tab = _factor_table(taub, p if tblock == 0 else q, group, n, anchored,
                                arity, 0 if tblock == 0 else p + 1, force)
        rhs = MultiPoly.zero(arity)
        for tau in elems:
            rhs = rhs + sig_tab[compose(perm, inverse(tau))] * tau_tab[tau]
        if lhs != rhs:
            for exps in sorted(set(lhs.terms) | set(rhs.terms)):
                a = lhs.terms.get(exps, Fraction(0))
                b = rhs.terms.get(exps, Fraction(0))
                if a != b:
                    return exps, a, b
    return None


def bipartite_check(pi, flavor: str, p: int, q: int, force: bool = False) -> bool:
    """Product-alphabet enumerator against the factorization convolution.

    True when the identity (both identities, for the peak-ideal flavor)
    holds for pi with the first alphabet truncated to p variables and the
    second to q.
    """
    return _bipartite_residue(pi, flavor, p, q, force) is None


# --- coalgebra duality -----------------------------------------------------------

COALGEBRA_FAMILIES = (
    "descent_set",
    "peak_interior_set",
    "peak_left_set",
    "B_peak_sign_set",
)


def coalgebra_constants(n: int, family: str, force: bool = False) -> dict:
    """Comultiplication constants for the degree-n coordinate functions.

    These are, by duality, exactly the class-sum structure constants: the
    tensor entry at (I, J, K) counts factorizations sigma*tau of a class-K
    representative with sigma in class I and tau in class J.  The group
    side already computes and representative-checks that tensor, so this
    is a delegation, exposed here because the comultiplication reading is
    the quasisymmetric one.
    """
    if family not in COALGEBRA_FAMILIES:
        raise ValueError(f"no coalgebra for family {family!r}")
    from . import groupalgebra

    return groupalgebra.structure_constants(n, family, force)


# --- identity registry hooks -------------------------------------------------------

_GF_FLAVORS = {
    "gf_ges": "gesA",
    "gf_interior": "interior",
    "gf_left": "left",
    "gf_B": "B",
    "gf_peakideal": "peakideal_mixed",
    "gf_interiordescent": "interiordescent_mixed",
}

_RANK_SHIFT = {"fib_rank_interior": ("interior", -1), "fib_rank_left": ("left", 0),
               "fib_rank_B": ("B", 1)}


def _expansion_sweep(which: str, n: int, force: bool) -> dict:
    basis = "monomial" if which == "mon" else "fundamental"
    for flavor, (signed, *_) in _FLAVORS.items():
        for g in iterate_group("B" if signed else "S", n, force):
            spread = delta_expansion(g, flavor, basis)
            for m in (1, 2, 3):
                got = truncate_realize(spread, m, force)
                want = truncated_enumerator(g, flavor, m, force)
                if got != want:
                    for exps in sorted(set(got.terms) | set(want.terms)):
                        a = got.terms.get(exps, Fraction(0))
                        b = want.terms.get(exps, Fraction(0))
                        if a != b:
                            return {
                                "ok": False,
                                "counterexample": (
                                    list(g),
                                    f"{flavor} {basis} realization, m={m}, "
                                    f"monomial {exps}: {format_rational(a)}",
                                    format_rational(b),
                                ),
                            }
    return {"ok": True, "counterexample": None}


def _bipartite_sweep(flavor: str, n: int, force: bool) -> dict:
    group = "B" if flavor == "B" else "S"
    for g in iterate_group(group, n, force):
        res = _bipartite_residue(g, flavor, 2, 2, force)
        if res is not None:
            exps, a, b = res
            return {
                "ok": False,
                "counterexample": (
                    list(g),
                    f"product enumerator, monomial {exps}: {format_rational(a)}",
                    f"factorization sum: {format_rational(b)}",
                ),
            }
    return {"ok": True, "counterexample": None}


def verify_hook(check: str, n: int, force: bool = False) -> dict:
    """Entry point for the identity registry in groupalgebra."""
    if check in ("mon", "fun"):
        return _expansion_sweep(check, n, force)
    if check in _GF_FLAVORS:
        return _bipartite_sweep(_GF_FLAVORS[check], n, force)
    if check in _RANK_SHIFT:
        family, shift = _RANK_SHIFT[check]
        rank = peak_basis_rank(n, family, force)
        want = fibonacci(n + shift)
        if rank != want:
            return {"ok": False,
                    "counterexample": (family, str(rank), f"fibonacci {want}")}
        return {"ok": True, "counterexample": None}
    raise ValueError(f"unknown qsym check {check!r}")
