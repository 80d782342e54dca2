"""Quasisymmetric expansions of enriched chain enumerators.

Two variable families appear.  Plain-side functions live in z_1, z_2, ...
and are indexed by subsets of [1, n-1]: the monomial basis M and the
fundamental basis F.  Signed-side functions add a distinguished variable
z_0 and are indexed by subsets of [0, n-1]: the bases N and L.  The weight
enumerator of a permutation chain over an enriched image set expands in
each of these with explicit powers of two, and collecting expansions by
peak data yields the K-functions, whose coordinate matrices have Fibonacci
rank.  Everything is finite and exact: expansions are sparse maps to ints
and Fractions, and realizations truncate to a chosen number of variables
so that identities can be compared as honest polynomials.

The bipartite checks compare a chain enumerator over a product alphabet
with the convolution of single-alphabet enumerators over all two-factor
factorizations of the permutation.  Each single-alphabet enumerator is
constant on a class of a set-valued family, so the convolution reads the
class-pair factorization counts that groupalgebra also uses for the
class-sum products: comultiplication and multiplication share one tensor,
and coalgebra_constants exposes that duality directly.  The per-class
enumerators form one factor table per alphabet, shared by every equation
that uses that alphabet.

A chain's enumerator is a function of its up/down word (posets.chain_word),
which is the descent set of a permutation and the type-B descent set of a
signed one.  So every element with the same class (or factorization row)
and the same word has the same two sides, and the factor tables and the
registry sweeps run the per-element code that the public functions run
only at the first element of each such pair, in group order
(groupalgebra._first_of_each).  Every element is still checked, against its
own class or its own row, and a failure names the first failing element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import groupalgebra
from .exact import MultiPoly, _coefficient, basis_insert, format_rational
from .limits import (
    BIPARTITE_MAX_N,
    BIPARTITE_MAX_VARS,
    IMAGE_SET_MAX_K,
    PEAK_RANK_MAX_N,
    check_limit,
    memo,
)
from .perms import STATISTICS, iterate_group, positions, validate_perm
from .posets import (
    b_enriched_alphabet,
    chain_weight_sum,
    chain_word,
    enriched_alphabet,
    left_enriched_alphabet,
    ordinary_alphabet,
    product_alphabet,
    shared_alphabet,
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


def _non_adjacent(n: int, low: int) -> list[int]:
    """Masks of the non-adjacent subsets of [low, n-1], ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    universe = ((1 << n) - 1) >> low << low
    return sorted(s for s in _submasks(universe) if not s & s << 1)


def interior_peak_sets(n: int) -> list[int]:
    """Masks of non-adjacent subsets of [2, n-1], ascending."""
    return _non_adjacent(n, 2)


def b_peak_sets(n: int) -> list[int]:
    """Masks of non-adjacent subsets of [1, n-1], ascending."""
    return _non_adjacent(n, 1)


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

# flavor -> (signed, peak statistic, monomial basis, fundamental basis,
# K-function index sets, Fibonacci shift of their count, image-set
# alphabet).  Signed flavors anchor their chains at zero.
_FLAVORS = {
    "interior": (False, "peak_interior", "M", "F", interior_peak_sets, -1, enriched_alphabet),
    "left": (False, "peak_left", "N", "L", b_peak_sets, 0, left_enriched_alphabet),
    "B": (True, "B_peak", "N", "L", sign_peak_sets, 1, b_enriched_alphabet),
}

# K-function basis -> the flavor whose index sets index it
_K_FLAVOR = {"K_A": "interior", "K_B": "B"}


def _index_ok(n: int, basis: str, idx) -> bool:
    """idx indexes basis at degree n; a flavor name stands for its K-functions."""
    flavor = _K_FLAVOR.get(basis, basis)
    if flavor in _FLAVORS:
        sets = _FLAVORS[flavor][4](n)
        return type(idx) is type(sets[0]) and idx in sets
    universe = (1 << n) - (2 if basis in ("M", "F") else 1)
    return type(idx) is int and idx >= 0 and not idx & ~universe


class QsymExpansion:
    """Sparse coordinates of a degree-n function in one of six bases.

    M and F are indexed by subset masks of [1, n-1]; N and L by masks of
    [0, n-1]; K_A by interior peak set masks; K_B by SignPeakSet pairs.
    Invalid indices are rejected, zero coefficients dropped.
    """

    __slots__ = ("n", "basis", "coeffs")

    def __init__(self, n: int, basis: str, coeffs: dict):
        if basis not in ("M", "F", "N", "L", *_K_FLAVOR):
            raise ValueError(f"unknown basis {basis!r}")
        if n < 1:
            raise ValueError("degree must be positive")
        clean = {}
        for idx, c in coeffs.items():
            c = _coefficient(c)
            if not c:
                continue
            if not _index_ok(n, basis, idx):
                raise ValueError(f"index {idx!r} is not valid for basis {basis} at n={n}")
            clean[idx] = c
        self.n = n
        self.basis = basis
        self.coeffs = clean

    def coeff(self, idx) -> Fraction:
        return Fraction(self.coeffs.get(idx, 0))

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
    signed, stat, monomial, fundamental, *_ = _FLAVORS[flavor]
    p = validate_perm(pi, signed=signed)
    sign = STATISTICS["B_sign"](p) if signed else 0
    target = monomial if basis == "monomial" else fundamental
    return _expand(len(p), target, STATISTICS[stat](p), sign)


def peak_function(n: int, index, family: str = "interior") -> QsymExpansion:
    """One K-function in descent-basis coordinates (F plain, L signed).

    index is a peak-set mask for the interior and left families and a
    SignPeakSet (or (sign, mask) pair) for the B family.
    """
    if family not in _FLAVORS:
        raise ValueError(f"unknown K-function family {family!r}")
    signed, _, _, fundamental, *_ = _FLAVORS[family]
    if signed and isinstance(index, tuple):
        index = SignPeakSet.from_mask(index[0], index[1])
    if not _index_ok(n, family, index):
        raise ValueError(f"{index!r} indexes no {family} K-function at n={n}")
    sign, mask = (index.sign, index.mask) if signed else (0, index)
    return _expand(n, fundamental, mask, sign)


# --- truncated realizations ------------------------------------------------------

def _composition(n: int, mask: int) -> tuple[int, ...]:
    """Differences cut by the set positions, with outer boundaries 0 and n."""
    bounds = [0, *positions(mask), n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _realize_monomial(n: int, mask: int, m: int, signed: bool) -> MultiPoly:
    parts = _composition(n, mask)
    # signed: the first part binds to z_0 and may be empty when 0 is in the set
    head, rest = (parts[0], parts[1:]) if signed else (0, parts)
    terms: dict = {}
    for run in combinations(range(1, m + 1), len(rest)):
        e = [head] + [0] * m
        for v, a in zip(run, rest):
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
    if m < 1:
        raise ValueError("need at least one variable")
    # before the cache: the key does not tell True or 1.0 from 1
    if not _index_ok(n, basis, index):
        raise ValueError(f"index {index!r} is not valid for basis {basis} at n={n}")

    def build() -> MultiPoly:
        if basis in ("M", "N"):
            return _realize_monomial(n, index, m, signed=basis == "N")
        if basis in ("F", "L"):
            signed = basis == "L"
            universe = (1 << n) - 1 if signed else (1 << n) - 2
            out = MultiPoly.zero(m + 1)
            for extra in _submasks(universe & ~index):
                out = out + _realize_monomial(n, index | extra, m, signed)
            return out
        if basis in _K_FLAVOR:
            spread = peak_function(n, index, _K_FLAVOR[basis])
            out = MultiPoly.zero(m + 1)
            for idx, c in spread.coeffs.items():
                out = out + realize_basis(n, spread.basis, idx, m) * c
            return out
        raise ValueError(f"unknown basis {basis!r}")

    return memo("realizations", (n, basis, index, m), build)


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
    signed, *_, alphabet = _FLAVORS[flavor]
    p = validate_perm(pi, signed=signed)
    return chain_weight_sum(shared_alphabet(alphabet, m), p, anchored=signed, mode="poly")


# --- K-function rank -------------------------------------------------------------


def peak_basis_rank(n: int, family: str = "interior", force: bool = False) -> int:
    """Rank of the K-functions in F or L coordinates.

    Linear independence is the content; a rank short of the count of valid
    index sets raises AssertionError, so the return value is also that count.
    """
    check_limit("peak basis rank", n, PEAK_RANK_MAX_N, force)
    if family not in _FLAVORS:
        raise ValueError(f"unknown K-function family {family!r}")
    rows = [peak_function(n, s, family) for s in _FLAVORS[family][4](n)]
    basis: dict = {}
    rank = sum(basis_insert(r.coeffs, basis) for r in rows)
    if rank != len(rows):
        raise AssertionError(f"{family} K-functions at n={n} have rank {rank}, not {len(rows)}")
    return rank


# --- bipartite product identities -------------------------------------------------

# alphabet builder -> the set-valued class family on which its single-alphabet
# chain enumerator is constant; their class-pair counts comultiply
_ENUMERATOR_FAMILY = {
    ordinary_alphabet: "descent_set",
    enriched_alphabet: "peak_interior_set",
    left_enriched_alphabet: "peak_left_set",
    b_enriched_alphabet: "B_peak_sign_set",
}

# flavor -> equations (first, second, product mode).  In sigma*tau = pi the
# left factor sigma realizes over the second alphabet (q letters, slots p+1
# on) and tau over the first (p letters, slots 0..p): the second coordinate
# of an admissible grid chain forms sigma's partitions while the first
# follows sigma^-1 pi.  Transposing the pairing fails on three letters for
# the plain and signed products and on four letters for the rest.  The
# right-hand side reads the class-pair counts of groupalgebra._pair_rows.
_BIPARTITE = {
    "gesA": [(ordinary_alphabet, ordinary_alphabet, "lex")],
    "interior": [(enriched_alphabet, enriched_alphabet, "updown")],
    "left": [(left_enriched_alphabet, left_enriched_alphabet, "updown")],
    "B": [(b_enriched_alphabet, b_enriched_alphabet, "updown")],
    "peakideal_mixed": [
        (enriched_alphabet, left_enriched_alphabet, "updown"),
        (left_enriched_alphabet, enriched_alphabet, "updown"),
    ],
    "interiordescent_mixed": [(ordinary_alphabet, enriched_alphabet, "lex")],
}

def _factor_table(builder, k: int, n: int, force: bool) -> list[MultiPoly]:
    """One single-alphabet enumerator over builder(k) per class of the
    builder's family, in label order; cached per (alphabet, k, n), so the
    equations that share an alphabet share its table.  The chain is scanned
    at the first element of each (class, word) pair and checked against its
    class's first element, whose scan comes first; a difference raises
    AssertionError."""
    family = _ENUMERATOR_FAMILY[builder]
    signed = groupalgebra.CLASS_FAMILIES[family][0] == "B"
    labels, classes, _ = groupalgebra._class_table(family, n, force)
    elements = iterate_group("B" if signed else "S", n, force)

    def build() -> list[MultiPoly]:
        alpha = shared_alphabet(builder, k)
        table: dict = {}
        words = (chain_word(g, signed) for g in elements)
        for i in groupalgebra._first_of_each(zip(classes, words)):
            c = classes[i]
            poly = chain_weight_sum(alpha, elements[i], anchored=signed, mode="poly")
            if table.setdefault(c, poly) != poly:
                raise AssertionError(f"the {builder.__name__}({k}) enumerator of "
                                     f"{list(elements[i])} differs from that of its "
                                     f"{family} class {labels[c]!r}")
        return [table[c] for c in range(len(labels))]

    return memo("factor_tables", (builder.__name__, k, n), build)


def _equation(firstb, secondb, mode: str, p: int, q: int, n: int, force: bool):
    """One equation's product alphabet, the per-class enumerators G of sigma
    over the second alphabet and F of tau over the first, embedded in the
    product's p + q + 2 slots, and the factorization rows that pair them.
    All but the rows are built once per (equation, p, q, n); the caller
    checks the size guards first."""
    arity = p + q + 2

    def build():
        return (product_alphabet(shared_alphabet(firstb, p), shared_alphabet(secondb, q), mode),
                [g.embed(arity, p + 1) for g in _factor_table(secondb, q, n, force)],
                [f.embed(arity, 0) for f in _factor_table(firstb, p, n, force)])

    famL, famR = _ENUMERATOR_FAMILY[secondb], _ENUMERATOR_FAMILY[firstb]
    rows = groupalgebra._pair_rows(groupalgebra.CLASS_FAMILIES[famL][0], n, famL, famR)
    return (*memo("equations", (firstb.__name__, secondb.__name__, mode, p, q, n), build), rows)


def _equations(flavor: str, p: int, q: int, n: int, force: bool) -> list[tuple]:
    """The size guards of a bipartite check, then its equations."""
    check_limit("bipartite chain length", n, BIPARTITE_MAX_N, force)
    check_limit("bipartite alphabet size", max(p, q), BIPARTITE_MAX_VARS, force)
    if min(p, q) < 1:
        raise ValueError("need at least one variable per side")
    return [_equation(*equation, p, q, n, force) for equation in _BIPARTITE[flavor]]


def _convolution(sig: list[MultiPoly], tau: list[MultiPoly], row: list[int]) -> MultiPoly:
    """sum over a of G_a * (sum over b of N(a, b) F_b) for one
    factorization row N."""
    rhs = MultiPoly.zero(sig[0].arity)
    for a, g in enumerate(sig):
        h = MultiPoly.zero(g.arity)
        for count, f in zip(row[a * len(tau):], tau):
            if count:
                h = h + f * count
        rhs = rhs + g * h
    return rhs


def _first_difference(a: MultiPoly, b: MultiPoly):
    """None when a == b, else the least monomial where they differ, with
    both coefficients."""
    if a == b:
        return None
    for exps in sorted(set(a.terms) | set(b.terms)):
        x = a.terms.get(exps, 0)
        y = b.terms.get(exps, 0)
        if x != y:
            return exps, x, y


def _bipartite_residue(perm, at: int, equations: list[tuple], signed: bool):
    """None when every equation holds at perm, the element at index at of
    its group, else the first mismatch.

    The left-hand side is the chain enumerator of perm over the product
    alphabet; the right-hand side is sum over a of G_a * (sum over b of
    N_perm(a, b) F_b), with N the factorization counts over the two
    builders' class families."""
    for alpha, sig, tau, rows in equations:
        lhs = chain_weight_sum(alpha, perm, anchored=signed, mode="poly")
        diff = _first_difference(lhs, _convolution(sig, tau, rows[at]))
        if diff is not None:
            return diff
    return None


def bipartite_check(pi, flavor: str, p: int, q: int, force: bool = False) -> bool:
    """Product-alphabet enumerator against the factorization convolution.

    True when the identity (both identities, for the peak-ideal flavor)
    holds for pi with the first alphabet truncated to p variables and the
    second to q.
    """
    if flavor not in _BIPARTITE:
        raise ValueError(f"unknown bipartite flavor {flavor!r}")
    group = "B" if flavor == "B" else "S"
    perm = validate_perm(pi, signed=group == "B")
    equations = _equations(flavor, p, q, len(perm), force)
    at = groupalgebra._group_index(group, len(perm))[0][perm]
    return _bipartite_residue(perm, at, equations, group == "B") is None


# --- coalgebra duality -----------------------------------------------------------

COALGEBRA_FAMILIES = tuple(_ENUMERATOR_FAMILY.values())


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


def _expansion_sweep(which: str, n: int, force: bool) -> dict:
    """Each element's truncated_enumerator at m = 1, 2, 3 against its
    class's realized expansion: the class label is exactly what
    delta_expansion reads, and the word exactly what the enumerator reads,
    so only the first element of each (class, word) pair is compared."""
    basis = "monomial" if which == "mon" else "fundamental"
    for flavor, (signed, *_, alphabet) in _FLAVORS.items():
        elements = iterate_group("B" if signed else "S", n, force)
        _, classes, first = groupalgebra._class_table(_ENUMERATOR_FAMILY[alphabet], n, force)
        realized = [[truncate_realize(delta_expansion(elements[i], flavor, basis), m, force)
                     for m in (1, 2, 3)] for i in first]
        words = (chain_word(g, signed) for g in elements)
        for i in groupalgebra._first_of_each(zip(classes, words)):
            g = elements[i]
            for m, got in zip((1, 2, 3), realized[classes[i]]):
                diff = _first_difference(got, truncated_enumerator(g, flavor, m, force))
                if diff is not None:
                    exps, a, b = diff
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
    """bipartite_check at p = q = 2 for every element: its residue depends
    only on its chain word and its factorization row in each equation, so
    only the first element of each such key is compared.  A descent
    class's elements share one row list, so a row is keyed by its id."""
    signed = flavor == "B"
    elements = iterate_group("B" if signed else "S", n, force)
    equations = _equations(flavor, 2, 2, n, force)
    keys = ((chain_word(g, signed), *(id(rows[at]) for *_, rows in equations))
            for at, g in enumerate(elements))
    for at in groupalgebra._first_of_each(keys):
        res = _bipartite_residue(elements[at], at, equations, signed)
        if res is not None:
            exps, a, b = res
            return {
                "ok": False,
                "counterexample": (
                    list(elements[at]),
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
    family = check.removeprefix("fib_rank_")
    if family != check and family in _FLAVORS:
        rank = peak_basis_rank(n, family, force)
        want = fibonacci(n + _FLAVORS[family][5])
        if rank != want:
            return {"ok": False,
                    "counterexample": (family, str(rank), f"fibonacci {want}")}
        return {"ok": True, "counterexample": None}
    raise ValueError(f"unknown qsym check {check!r}")
