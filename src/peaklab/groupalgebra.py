"""Exact arithmetic in Q[S_n] and Q[B_n]: class sums, structure polynomials,
orthogonal idempotents, identity verification, ranks, closures, and
combinatorial structure constants.

Identity verification follows the grid principle: a polynomial identity in
x and y whose degrees are bounded holds iff it holds at a grid of integer
points exceeding those degrees.  Products over the group are organized
through class pair tensors (how often a product of a sigma in class a and
a tau in class b lands on each pi), so a whole grid costs little more than
one convolution sweep.
"""

from __future__ import annotations

import random
import warnings
from fractions import Fraction

from .exact import UniPoly, as_fraction, basis_insert, format_rational, interpolate, reduce_row
from .limits import VERIFY_MAX, ResourceLimitError, check_limit
from .orderpolys import ORDER_POLY_KINDS, order_polynomial, reciprocity_check, identity_check_43
from .perms import (
    STATISTICS,
    compose,
    group_name,
    hat,
    identity_perm,
    iterate_group,
    omega,
    positions,
    validate_perm,
)


class GAElem:
    """Element of the rational group algebra, as a sparse term map."""

    __slots__ = ("group", "n", "terms")

    def __init__(self, group: str, n: int, terms: dict | None = None):
        object.__setattr__(self, "group", group_name(group))
        object.__setattr__(self, "n", n)
        clean: dict = {}
        for perm, c in (terms or {}).items():
            c = as_fraction(c)
            if c:
                clean[validate_perm(perm, signed=self.group == "B")] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("GAElem is immutable")

    @classmethod
    def zero(cls, group: str, n: int) -> "GAElem":
        return cls(group, n, {})

    @classmethod
    def basis(cls, group: str, perm) -> "GAElem":
        return cls(group, len(perm), {tuple(perm): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "GAElem"):
        if self.group != other.group or self.n != other.n:
            raise ValueError("mixed group algebras")

    def __add__(self, other: "GAElem") -> "GAElem":
        self._check(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, Fraction(0)) + c
        return GAElem(self.group, self.n, out)

    def __neg__(self) -> "GAElem":
        return GAElem(self.group, self.n, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "GAElem") -> "GAElem":
        return self + (-other)

    def scale(self, c) -> "GAElem":
        c = as_fraction(c)
        return GAElem(self.group, self.n, {p: c * v for p, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, GAElem):
            return ga_multiply(self, other)
        return self.scale(other)

    __rmul__ = scale

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GAElem)
            and self.group == other.group
            and self.n == other.n
            and self.terms == other.terms
        )

    __hash__ = None

    def coeff(self, perm) -> Fraction:
        return self.terms.get(tuple(perm), Fraction(0))

    def support_size(self) -> int:
        return len(self.terms)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "group": self.group,
            "terms": [
                {"perm": list(p), "coeff": format_rational(self.terms[p])}
                for p in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GAElem":
        terms = {tuple(t["perm"]): Fraction(t["coeff"]) for t in data["terms"]}
        return cls(data["group"], data["n"], terms)

    def __repr__(self):
        body = " + ".join(
            f"{format_rational(self.terms[p])}*{p}" for p in sorted(self.terms)
        )
        return f"GAElem({self.group}{self.n}: {body or '0'})"


def ga_multiply(a: GAElem, b: GAElem) -> GAElem:
    """Convolution: (ab)(pi) = sum over sigma tau = pi of a(sigma) b(tau)."""
    a._check(b)
    out: dict = {}
    for sigma, ca in a.terms.items():
        for tau, cb in b.terms.items():
            pi = compose(sigma, tau)
            out[pi] = out.get(pi, Fraction(0)) + ca * cb
    return GAElem(a.group, a.n, out)


class GAPoly:
    """Polynomial in one variable with group algebra coefficients, dense."""

    __slots__ = ("group", "n", "coeffs")

    def __init__(self, group: str, n: int, coeffs):
        group = group_name(group)
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        for e in coeffs:
            if e.group != group or e.n != n:
                raise ValueError("coefficient from a different algebra")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("GAPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, power: int) -> GAElem:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return GAElem.zero(self.group, self.n)

    def __call__(self, x) -> GAElem:
        x = as_fraction(x)
        acc = GAElem.zero(self.group, self.n)
        for e in reversed(self.coeffs):
            acc = acc.scale(x) + e
        return acc

    def left_mul(self, g: GAElem) -> "GAPoly":
        return GAPoly(self.group, self.n, [g * e for e in self.coeffs])

    def right_mul(self, g: GAElem) -> "GAPoly":
        return GAPoly(self.group, self.n, [e * g for e in self.coeffs])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GAPoly)
            and self.group == other.group
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    __hash__ = None


# --- class families -----------------------------------------------------------


def _size(name: str):
    return lambda p: STATISTICS[name](p).bit_count()


def _set(name: str):
    return lambda p: positions(STATISTICS[name](p))


# tag -> (group, classifier).  Number-indexed families are labeled by the
# size of a statistic set, set-indexed ones by its positions tuple.
CLASS_FAMILIES = {
    "descent_set": ("S", _set("descent_linear")),
    "descent_num": ("S", _size("descent_linear")),
    "cyclic_descent_num": ("S", _size("descent_cyclic")),
    "B_descent_num": ("B", _size("B_descent")),
    "B_cyclic_descent_num": ("B", _size("B_cyclic_descent")),
    "peak_interior_set": ("S", _set("peak_interior")),
    "peak_left_set": ("S", _set("peak_left")),
    "peak_interior_num": ("S", _size("peak_interior")),
    "peak_left_num": ("S", _size("peak_left")),
    "peak_right_num": ("S", _size("peak_right")),
    "peak_exterior_num": ("S", _size("peak_exterior")),
    "B_peak_sign_num": (
        "B", lambda p: (STATISTICS["B_peak"](p).bit_count(), STATISTICS["B_sign"](p))
    ),
    "B_peak_sign_set": (
        "B", lambda p: (STATISTICS["B_sign"](p), positions(STATISTICS["B_peak"](p)))
    ),
    # set-valued right and exterior peak families exist solely to exhibit
    # the failures: their spans are not closed under multiplication
    "right_peak_set": ("S", _set("peak_right")),
    "exterior_peak_set": ("S", _set("peak_exterior")),
}
# the name the right-peak closure failure is stated under
CLASS_FAMILIES["right_peak_num"] = CLASS_FAMILIES["peak_right_num"]

_label_cache: dict = {}


def family_labels(family: str, n: int, force: bool = False) -> list:
    """Sorted list of class labels.  Realized values, plus the one legal
    empty label: for even n the all-negative-start class at the top peak
    count has no elements but still names a (zero) basis slot."""
    key = (family, n)
    if key in _label_cache:
        return _label_cache[key]
    group, classify = CLASS_FAMILIES[family]
    labels = sorted({classify(p) for p in iterate_group(group, n, force)})
    if family == "B_peak_sign_num" and n % 2 == 0:
        top = (n // 2, 1)
        if top not in labels:
            labels.append(top)
            labels.sort()
    _label_cache[key] = labels
    return labels


def class_sum(n: int, family: str, label, force: bool = False) -> GAElem:
    """Sum, with coefficient 1, of the group elements in the given class."""
    if family not in CLASS_FAMILIES:
        raise ValueError(f"unknown class family {family!r}")
    group, classify = CLASS_FAMILIES[family]
    if isinstance(label, list):
        label = tuple(label)
    labels = family_labels(family, n, force)
    if label not in labels:
        raise ValueError(f"{label!r} is not a class label of {family} at n={n}")
    terms = {p: Fraction(1) for p in iterate_group(group, n, force) if classify(p) == label}
    if not terms:
        warnings.warn(f"class {label!r} of {family} is empty at n={n}", stacklevel=2)
    return GAElem(group, n, terms)


def eulerian_number(n: int, i: int) -> int:
    """Number of permutations in S_n with i-1 descents (the size of the
    i-th descent-number class), by the standard recurrence."""
    if not 1 <= i <= n:
        return 0
    k = i - 1
    row = [1]
    for m in range(2, n + 1):
        row = [
            (j + 1) * (row[j] if j < len(row) else 0)
            + (m - j) * (row[j - 1] if 0 <= j - 1 < len(row) else 0)
            for j in range(m)
        ]
    return row[k]


# --- structure polynomials and idempotents ------------------------------------

# family -> (group, order-polynomial kind, argument substitution, class family)
_HALF = Fraction(1, 2)
STRUCTURE_FAMILIES = {
    "phi": ("S", "A_ordinary", UniPoly((0, 1)), "descent_num"),
    "phi_c": ("S", "A_cyclic", UniPoly((0, 1)), "cyclic_descent_num"),
    "phi_B": ("B", "B_ordinary", UniPoly((-_HALF, _HALF)), "B_descent_num"),
    "phi_B_c": ("B", "B_cyclic", UniPoly((0, _HALF)), "B_cyclic_descent_num"),
    "rho": ("S", "enriched_interior", UniPoly((0, _HALF)), "peak_interior_num"),
    "rho_bar": ("S", "enriched_exterior", UniPoly((0, _HALF)), "peak_exterior_num"),
    "rho_l": ("S", "enriched_left", UniPoly((-_HALF, _HALF)), "peak_left_num"),
    "rho_r": ("S", "enriched_right", UniPoly((-_HALF, _HALF)), "peak_right_num"),
    "rho_B": ("B", "enriched_B", UniPoly((-Fraction(1, 4), Fraction(1, 4))), "B_peak_sign_num"),
}


def idempotent_powers(n: int, family: str) -> list[int]:
    """Powers of x at which the family's structure polynomial has (possibly)
    nonzero coefficients; everything off this list provably vanishes."""
    if family not in STRUCTURE_FAMILIES:
        raise ValueError(f"unknown structure family {family!r}")
    if family == "phi":
        return list(range(1, n + 1))
    if family == "phi_c":
        return [0] if n == 1 else list(range(1, n))
    if family in ("phi_B", "rho_B"):
        return list(range(0, n + 1))
    if family == "phi_B_c":
        return list(range(1, n + 1))
    if family in ("rho", "rho_bar"):
        return list(range(2 - n % 2, n + 1, 2))
    # rho_l, rho_r: even powers from 0 when n is even, odd powers otherwise
    return list(range(n % 2, n + 1, 2))


_class_poly_cache: dict = {}


def _class_poly(family: str, n: int, label, rep) -> UniPoly:
    """Coefficient polynomial shared by every element of a class, already
    composed with the family's argument substitution."""
    key = (family, n, label)
    got = _class_poly_cache.get(key)
    if got is None:
        _, kind, subst, _ = STRUCTURE_FAMILIES[family]
        got = order_polynomial(rep, kind).compose(subst)
        _class_poly_cache[key] = got
    return got


def structure_polynomial(n: int, family: str, force: bool = False) -> GAPoly:
    """Sum over the group of (substituted order polynomial) * element,
    collected by powers of x."""
    if family not in STRUCTURE_FAMILIES:
        raise ValueError(f"unknown structure family {family!r}")
    group, _, _, class_family = STRUCTURE_FAMILIES[family]
    classify = CLASS_FAMILIES[class_family][1]
    by_power: list[dict] = [dict() for _ in range(n + 2)]
    for p in iterate_group(group, n, force):
        poly = _class_poly(family, n, classify(p), p)
        for power, c in enumerate(poly.coeffs):
            if c:
                by_power[power][p] = c
    coeffs = [GAElem(group, n, t) for t in by_power]
    allowed = set(idempotent_powers(n, family))
    for power, e in enumerate(coeffs):
        if not e.is_zero() and power not in allowed:
            raise AssertionError(f"{family} at n={n} has unexpected power {power}")
    return GAPoly(group, n, coeffs)


def idempotents(n: int, family: str, force: bool = False) -> list[GAElem]:
    """Coefficients of the structure polynomial at the family's powers.

    As a cross-check, every group element's coefficient polynomial is also
    recovered from the values at x = 1..deg+1 by exact interpolation.  That
    route is redundant given the dense coefficients, and that is the
    point: both must agree or extraction fails."""
    gp = structure_polynomial(n, family, force)
    nodes = range(1, gp.degree + 2)
    values = [gp(x) for x in nodes]
    for p in set().union(*(e.terms for e in values + list(gp.coeffs))):
        recovered = interpolate([(x, v.coeff(p)) for x, v in zip(nodes, values)])
        if recovered != UniPoly(e.coeff(p) for e in gp.coeffs):
            raise AssertionError(f"interpolated coefficients of {p} differ")
    return [gp.coeff(p) for p in idempotent_powers(n, family)]


# --- ranks and closures --------------------------------------------------------


def span_rank(elems: list[GAElem]) -> int:
    """Rank over Q of the span, by exact Gaussian elimination."""
    if not elems:
        return 0
    basis: dict = {}
    rank = 0
    for e in elems:
        elems[0]._check(e)
        if basis_insert(e.terms, basis):
            rank += 1
    return rank


def in_span(e: GAElem, elems: list[GAElem]) -> bool:
    basis: dict = {}
    for b in elems:
        basis_insert(b.terms, basis)
    return not reduce_row(e.terms, basis)


def multiplicative_closure(elems: list[GAElem], cap: int | None = None) -> list[GAElem]:
    """Smallest subspace containing the elements and closed under the
    algebra product, grown by adjoining pairwise products until stable.

    cap bounds the basis size (default: the full group order, which always
    terminates); exceeding it raises ResourceLimitError.
    """
    if not elems:
        return []
    group, n = elems[0].group, elems[0].n
    if cap is None:
        cap = len(list(iterate_group(group, n, force=True)))
    basis_rows: dict = {}
    basis: list[GAElem] = []
    for e in elems:
        if basis_insert(e.terms, basis_rows):
            basis.append(e)
    if len(basis) > cap:
        raise ResourceLimitError(f"closure basis exceeded cap {cap}")
    fresh = list(basis)
    while fresh:
        added: list[GAElem] = []
        for a in basis:
            for b in fresh:
                for prod in (a * b, b * a):
                    if basis_insert(prod.terms, basis_rows):
                        added.append(prod)
                        if len(basis) + len(added) > cap:
                            raise ResourceLimitError(f"closure basis exceeded cap {cap}")
        basis.extend(added)
        fresh = added
    return basis


# --- structure constants --------------------------------------------------------

_CONSTANT_FAMILIES = (
    "descent_set",
    "peak_interior_set",
    "peak_left_set",
    "B_peak_sign_set",
    "right_peak_set",
    "exterior_peak_set",
)


def structure_constants(n: int, family: str, force: bool = False) -> dict:
    """Integer tensor c[I][J][K]: the number of factorizations sigma tau =
    (representative of class K) with sigma in class I and tau in class J.

    Well-definedness (the count not depending on the representative of K)
    is exactly the claim that the class sums span an algebra; it is checked
    element by element and any violation is reported, not assumed.
    """
    if family not in _CONSTANT_FAMILIES:
        raise ValueError(f"structure constants run on set-valued families, not {family!r}")
    group, classify = CLASS_FAMILIES[family]
    elements, index = _group_elements(group, n, force)
    labels, _, reps, _, rows = _factor_counts(group, n, family, family, force)
    k = len(labels)
    tensor = [[[rows[index[rep]][a * k + b] for rep in reps] for b in range(k)]
              for a in range(k)]
    lab_idx = {lab: i for i, lab in enumerate(labels)}
    violation = None
    for p, row in zip(elements, rows):
        c = lab_idx[classify(p)]
        rep_row = rows[index[reps[c]]]
        if row != rep_row:
            ab = next(i for i, (x, y) in enumerate(zip(row, rep_row)) if x != y)
            violation = {
                "pair": [labels[ab // k], labels[ab % k]],
                "class": labels[c],
                "elements": [reps[c], p],
                "counts": [rep_row[ab], row[ab]],
            }
            break
    return {
        "family": family,
        "n": n,
        "labels": list(labels),
        "representatives": list(reps),
        "well_defined": violation is None,
        "tensor": tensor,
        "violation": violation,
    }


def minimal_non_algebra_n(family: str, n_max: int = 4) -> int | None:
    """Smallest n at which the family's structure constants fail to be
    well-defined; None if none found up to n_max."""
    for n in range(2, n_max + 1):
        if not structure_constants(n, family)["well_defined"]:
            return n
    return None


# --- refined decompositions ------------------------------------------------------


def refined_decomposition(n: int, which: str, force: bool = False) -> dict:
    """Finer class sums that split two number-indexed families at once,
    with the exact bookkeeping identities between the three bases."""
    relations: dict[str, bool] = {}
    elements: dict[str, GAElem] = {}
    if which == "typeB_F":
        group = "B"
        plus = {i: dict() for i in range(1, n + 1)}
        minus = {i: dict() for i in range(1, n + 1)}
        for p in iterate_group(group, n, force):
            i = STATISTICS["B_cyclic_descent"](p).bit_count()
            (plus if p[-1] > 0 else minus)[i][p] = Fraction(1)
        fp = {i: GAElem(group, n, plus[i]) for i in plus}
        fm = {i: GAElem(group, n, minus[i]) for i in minus}
        for i in range(1, n + 1):
            elements[f"F_{i}^+"] = fp[i]
            elements[f"F_{i}^-"] = fm[i]
        e_b = {i: class_sum(n, "B_descent_num", i - 1, force) for i in range(1, n + 2)}
        e_bc = {i: class_sum(n, "B_cyclic_descent_num", i, force) for i in range(1, n + 1)}
        relations["first_descent_class"] = e_b[1] == fp[1]
        relations["last_descent_class"] = e_b[n + 1] == fm[n]
        for i in range(2, n + 1):
            relations[f"descent_class_{i}"] = e_b[i] == fm[i - 1] + fp[i]
        for i in range(1, n + 1):
            relations[f"cyclic_class_{i}"] = e_bc[i] == fm[i] + fp[i]
    elif which == "typeA_F":
        group = "S"
        top = (n + 1) // 2
        with_one = {i: dict() for i in range(1, top + 1)}
        without = {i: dict() for i in range(1, top + 1)}
        for p in iterate_group(group, n, force):
            i = STATISTICS["peak_interior"](p).bit_count() + 1
            (with_one if STATISTICS["descent_linear"](p) >> 1 & 1 else without)[i][p] = Fraction(1)
        f1 = {i: GAElem(group, n, with_one[i]) for i in with_one}
        f0 = {i: GAElem(group, n, without[i]) for i in without}
        for i in range(1, top + 1):
            elements[f"F_{i}^1"] = f1[i]
            elements[f"F_{i}^0"] = f0[i]
        zero = GAElem.zero(group, n)
        left_top = n // 2 + 1
        e_pe = {i: class_sum(n, "peak_interior_num", i - 1, force) for i in range(1, top + 1)}
        e_l = {i: class_sum(n, "peak_left_num", i - 1, force) for i in range(1, left_top + 1)}
        relations["first_left_class"] = e_l[1] == f0[1]
        for i in range(2, left_top + 1):
            relations[f"left_class_{i}"] = e_l[i] == f1[i - 1] + f0.get(i, zero)
        for i in range(1, top + 1):
            relations[f"interior_class_{i}"] = e_pe[i] == f1[i] + f0[i]
        if n % 2 == 1:
            relations["odd_top_vanishes"] = f1[top].is_zero()
    else:
        raise ValueError(f"unknown decomposition {which!r}")
    return {"which": which, "n": n, "elements": elements, "relations": relations,
            "ok": all(relations.values())}


# --- the cyclic embedding ---------------------------------------------------------


def cyclic_isomorphism_check(n: int, force: bool = False) -> bool:
    """Embed the descent-number span of S_{n-1} into Q[S_n] by averaging
    the n rotations of each extended permutation, and confirm it is a
    multiplicative, injective map onto cyclic-descent classes.

    The rotation sum is scaled by 1/n: without that factor each product
    picks up one factor of n, and the image of the identity idempotent sum
    would not be idempotent.
    """
    if not 3 <= n <= 6:
        raise ValueError("cyclic embedding check runs for 3 <= n <= 6")
    rot = omega(n)
    powers = []
    acc = rot
    for _ in range(n):
        powers.append(acc)
        acc = compose(acc, rot)

    def embed(e: GAElem) -> GAElem:
        out: dict = {}
        for p, c in e.terms.items():
            lifted = hat(p)
            for w in powers:
                q = compose(lifted, w)
                out[q] = out.get(q, Fraction(0)) + c / n
        return GAElem("S", n, out)

    classes = [class_sum(n - 1, "descent_num", i, force) for i in range(n - 1)]
    images = [embed(e) for e in classes]
    if span_rank(images) != n - 1:
        return False
    for a, ia in zip(classes, images):
        for b, ib in zip(classes, images):
            if ia * ib != embed(a * b):
                return False
    unit = GAElem.basis("S", identity_perm(n - 1))
    iu = embed(unit)
    return iu * iu == iu


# --- theorem verification ----------------------------------------------------------

# (left family, right family, target family): famL(x) famR(y) == famT(xy)
_PRODUCT_THEOREMS = {
    "ges": [("phi", "phi", "phi")],
    "cyc": [("phi_c", "phi_c", "phi_c")],
    "chow": [("phi_B", "phi_B", "phi_B")],
    "cyclicB": [("phi_B_c", "phi_B_c", "phi_B_c")],
    "idealB": [("phi_B_c", "phi_B", "phi_B_c"), ("phi_B", "phi_B_c", "phi_B_c")],
    "interior_1": [("rho", "rho", "rho")],
    "interior_2": [("rho_bar", "rho_bar", "rho_bar")],
    "interior_3": [("rho_bar", "rho", "rho_bar")],
    "interior_4": [("rho", "rho_bar", "rho")],
    "left_1": [("rho_l", "rho_l", "rho_l")],
    "left_2": [("rho_r", "rho_r", "rho_l")],
    "left_3": [("rho_l", "rho_r", "rho_r")],
    "left_4": [("rho_r", "rho_l", "rho_r")],
    "peakideal_1": [("rho", "rho_l", "rho"), ("rho_l", "rho", "rho")],
    "peakideal_2": [("rho_bar", "rho_l", "rho_bar"), ("rho_l", "rho_bar", "rho_bar")],
    "peakideal_3": [("rho", "rho_r", "rho"), ("rho_r", "rho_bar", "rho")],
    "peakideal_4": [("rho_bar", "rho_r", "rho_bar"), ("rho_r", "rho", "rho_bar")],
    "interiordescent_1": [("rho", "phi", "rho")],
    "interiordescent_2": [("rho_bar", "phi", "rho_bar")],
    "peakalg2": [("rho_B", "rho_B", "rho_B")],
    # the one-sided failure: reversing the interior/descent product does
    # not stay in the peak classes
    "phi_times_rho": [("phi", "rho", "rho")],
}

_table_cache: dict = {}
_rows_cache: dict = {}


def _group_elements(group: str, n: int, force: bool):
    check_limit(f"{group}-group table", n, VERIFY_MAX[group], force)
    key = (group, n)
    got = _table_cache.get(key)
    if got is None:
        elements = list(iterate_group(group, n, force=True))
        index = {p: i for i, p in enumerate(elements)}
        got = (elements, index)
        _table_cache[key] = got
    return got


def _factor_counts(group: str, n: int, famL: str, famR: str, force: bool):
    """For each pi: counts of factorizations sigma tau = pi bucketed by
    (class of sigma under class family famL, class of tau under famR).

    Returns both label lists, the first element of each class, and one row
    of len(labelsL) * len(labelsR) counts per group element."""
    elements, index = _group_elements(group, n, force)
    classifyL = CLASS_FAMILIES[famL][1]
    classifyR = CLASS_FAMILIES[famR][1]
    labelsL = sorted({classifyL(p) for p in elements})
    labelsR = sorted({classifyR(p) for p in elements})
    li = {lab: i for i, lab in enumerate(labelsL)}
    ri = {lab: i for i, lab in enumerate(labelsR)}
    kr = len(labelsR)
    cl = [li[classifyL(p)] for p in elements]
    cr = [ri[classifyR(p)] for p in elements]
    rows = [[0] * (len(labelsL) * kr) for _ in elements]
    for si, sigma in enumerate(elements):
        base = cl[si] * kr
        for ti, tau in enumerate(elements):
            rows[index[compose(sigma, tau)]][base + cr[ti]] += 1
    repsL = {}
    repsR = {}
    for p in elements:
        repsL.setdefault(classifyL(p), p)
        repsR.setdefault(classifyR(p), p)
    return labelsL, labelsR, [repsL[lab] for lab in labelsL], [repsR[lab] for lab in labelsR], rows


def _pair_rows(group: str, n: int, famL: str, famR: str, force: bool):
    """The factorization counts of two structure families' class families,
    cached for the grid checks."""
    key = (group, n, STRUCTURE_FAMILIES[famL][3], STRUCTURE_FAMILIES[famR][3])
    got = _rows_cache.get(key)
    if got is None:
        got = _rows_cache[key] = _factor_counts(*key, force)
    return got


def _check_product(group: str, n: int, famL: str, famR: str, famT: str,
                   force: bool, sample: int | None):
    """Grid check of famL(x) famR(y) == famT(xy), coefficient by coefficient
    over the group, using factorization-count tensors."""
    elements, _ = _group_elements(group, n, force)
    labelsL, labelsR, repsL, repsR, rows = _pair_rows(group, n, famL, famR, force)
    kr = len(labelsR)
    polysL = [_class_poly(famL, n, lab, rep) for lab, rep in zip(labelsL, repsL)]
    polysR = [_class_poly(famR, n, lab, rep) for lab, rep in zip(labelsR, repsR)]
    classifyT = CLASS_FAMILIES[STRUCTURE_FAMILIES[famT][3]][1]
    degx = max(p.degree for p in polysL)
    degy = max(p.degree for p in polysR)
    if sample is None:
        nodes = [(x, y) for x in range(1, degx + 2) for y in range(1, degy + 2)]
    else:
        rng = random.Random(f"{famL}*{famR}={famT}@{group}{n}")
        nodes = [
            (rng.randrange(1, 3 * n + 5), rng.randrange(1, 3 * n + 5))
            for _ in range(sample)
        ]
    seen: dict = {}
    for pi_idx, p in enumerate(elements):
        lab = classifyT(p)
        key = (tuple(rows[pi_idx]), lab)
        if key in seen:
            continue
        seen[key] = p
        tpoly = _class_poly(famT, n, lab, p)
        row = rows[pi_idx]
        for x0, y0 in nodes:
            lhs = Fraction(0)
            for a, pl in enumerate(polysL):
                va = pl(x0)
                if not va:
                    continue
                base = a * kr
                for b, pr in enumerate(polysR):
                    cnt = row[base + b]
                    if cnt:
                        lhs += cnt * va * pr(y0)
            rhs = tpoly(Fraction(x0 * y0))
            if lhs != rhs:
                return {
                    "ok": False,
                    "counterexample": (list(p), format_rational(lhs), format_rational(rhs)),
                    "node": [x0, y0],
                }
    return {"ok": True, "counterexample": None, "node": None}


def _check_product_direct(group: str, n: int, famL: str, famR: str, famT: str,
                          force: bool, sample: int):
    """Fallback for sizes where the full factorization table is too big:
    direct convolution at a few sampled grid nodes."""
    gl = structure_polynomial(n, famL, force)
    gr = structure_polynomial(n, famR, force)
    gt = structure_polynomial(n, famT, force)
    rng = random.Random(f"{famL}*{famR}={famT}@{group}{n}:direct")
    for _ in range(sample):
        x0 = rng.randrange(1, 3 * n + 5)
        y0 = rng.randrange(1, 3 * n + 5)
        lhs = gl(x0) * gr(y0)
        rhs = gt(Fraction(x0 * y0))
        if lhs != rhs:
            diff = lhs - rhs
            p = min(diff.terms)
            return {
                "ok": False,
                "counterexample": (
                    list(p),
                    format_rational(lhs.coeff(p)),
                    format_rational(rhs.coeff(p)),
                ),
                "node": [x0, y0],
            }
    return {"ok": True, "counterexample": None, "node": None}


def _run_product(tid: str, n: int, force: bool, sample: int | None) -> dict:
    group = STRUCTURE_FAMILIES[_PRODUCT_THEOREMS[tid][0][0]][0]
    for famL, famR, famT in _PRODUCT_THEOREMS[tid]:
        if n > VERIFY_MAX[group] and sample:
            out = _check_product_direct(group, n, famL, famR, famT, force, sample)
        else:
            out = _check_product(group, n, famL, famR, famT, force, sample)
        if not out["ok"]:
            return out
    return out


def _run_recip(kind: str):
    def run(n: int, force: bool, sample) -> dict:
        for p in iterate_group(ORDER_POLY_KINDS[kind][0], n, force):
            if not reciprocity_check(p, kind):
                return {"ok": False, "counterexample": (list(p), "reciprocity", "failed")}
        return {"ok": True, "counterexample": None}

    return run


def _run_43(which: str):
    def run(n: int, force: bool, sample) -> dict:
        ok = identity_check_43(n, which, force=force)
        return {"ok": ok, "counterexample": None if ok else (None, which, "failed")}

    return run


def _run_closure_negative(n: int, force: bool, sample) -> dict:
    labels = family_labels("right_peak_num", n, force)
    sums = [class_sum(n, "right_peak_num", lab, force) for lab in labels]
    basis: dict = {}
    for e in sums:
        basis_insert(e.terms, basis)
    for a in sums:
        for b in sums:
            residue = reduce_row((a * b).terms, basis)
            if residue:
                witness = min(residue)
                return {
                    "ok": False,
                    "counterexample": (
                        list(witness),
                        format_rational(residue[witness]),
                        "0 (outside the span of the right-peak-number classes)",
                    ),
                }
    return {"ok": True, "counterexample": None}


def _run_constants_negative(n: int, force: bool, sample) -> dict:
    result = structure_constants(n, "right_peak_set", force)
    if result["well_defined"]:
        return {"ok": True, "counterexample": None}
    v = result["violation"]
    return {
        "ok": False,
        "counterexample": (v["elements"][1], str(v["counts"][1]), str(v["counts"][0])),
        "violation": v,
    }


def _run_qsym(check: str):
    def run(n: int, force: bool, sample) -> dict:
        from . import qsym

        return qsym.verify_hook(check, n, force)

    return run


def _expect_true(n: int) -> bool:
    return True


def _expect_small(n: int) -> bool:
    return n <= 2


THEOREMS: dict = {}
for _tid in _PRODUCT_THEOREMS:
    THEOREMS[_tid] = {
        "run": (lambda tid: lambda n, force, sample: _run_product(tid, n, force, sample))(_tid),
        "expected": _expect_small if _tid == "phi_times_rho" else _expect_true,
    }
for _kind, _rid in (
    ("enriched_interior", "recip_interior"),
    ("enriched_left", "recip_left"),
    ("enriched_right", "recip_right"),
    ("enriched_exterior", "recip_exterior"),
    ("enriched_B", "recip_B"),
):
    THEOREMS[_rid] = {"run": _run_recip(_kind), "expected": _expect_true}
for _which in ("augeul", "peeul1", "peeul2", "bpeeul1", "bpeeul2"):
    THEOREMS[_which] = {"run": _run_43(_which), "expected": _expect_true}
THEOREMS["right_peak_num_closure"] = {"run": _run_closure_negative, "expected": _expect_small}
THEOREMS["right_peak_set_constants"] = {"run": _run_constants_negative, "expected": _expect_small}
for _check in (
    "mon",
    "fun",
    "gf_ges",
    "gf_interior",
    "gf_left",
    "gf_B",
    "gf_peakideal",
    "gf_interiordescent",
    "fib_rank_interior",
    "fib_rank_left",
    "fib_rank_B",
):
    THEOREMS[_check] = {"run": _run_qsym(_check), "expected": _expect_true}


def verify_identity(n: int, theorem_id: str, force: bool = False,
                    sample: int | None = None) -> dict:
    """Run one registered check at size n.  ok reports the raw outcome;
    expected_ok says what the theory predicts at this n (False for the
    deliberate negatives), so callers can distinguish a failing check from
    a faithfully reproduced failure."""
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    entry = THEOREMS[theorem_id]
    out = entry["run"](n, force, sample)
    out["theorem"] = theorem_id
    out["n"] = n
    out["expected_ok"] = entry["expected"](n)
    return out


def all_theorem_ids() -> list[str]:
    return sorted(THEOREMS)
