"""Exact arithmetic in Q[S_n] and Q[B_n]: class sums, structure polynomials,
orthogonal idempotents, identity verification, ranks, closures, and
combinatorial structure constants.

Identity verification follows the grid principle: a polynomial identity in
x and y whose degrees are bounded holds iff it holds at a grid of integer
points exceeding those degrees.  Products over the group are organized
through class pair tensors (how often a product of a sigma in class a and
a tau in class b lands on each pi), so a whole grid costs little more than
one convolution sweep.  When both families are unions of descent classes,
that count depends only on Des(pi), since the descent-class sums span a
subalgebra (Solomon 1976, for every finite Coxeter group); the tensor is
then counted once per descent class, 2^(n-1) rows for S_n and 2^n for B_n.

Each class family is partitioned once per n, in one class table (see
_class_table) that labels, class sums, polynomials and tensors all read.

Elements hold each integral coefficient as an int and a Fraction only
otherwise.  Products (ga_multiply) convolve in integers: each operand is
cleared to one common denominator, and only non-integral result terms
become Fractions.  A right operand covering at least half of a group
within the verify guard is read through the cached index tables of
_group_index, with no product formed per term pair; any other product,
such as one of sparse class sums, composes pair by pair.
"""

from __future__ import annotations

import warnings
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, permutations, product
from math import factorial, lcm
from operator import add, mul

from .exact import (UniPoly, _coefficient, _normal_terms, basis_insert, format_rational,
                    interpolate, reduce_row)
from .limits import VERIFY_MAX, ResourceLimitError, check_limit, memo
from .orderpolys import (
    _ENRICHED_KINDS,
    IDENTITIES_43,
    ORDER_POLY_KINDS,
    identity_check_43,
    order_polynomial,
    reciprocity_check,
)
from .perms import (
    STATISTICS,
    compose,
    group_name,
    hat,
    identity_perm,
    inverse,
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
            c = _coefficient(c)
            if c:
                perm = validate_perm(perm, signed=self.group == "B")
                # as in iterate_group, a negative n holds only the empty permutation
                if len(perm) != max(n, 0):
                    raise ValueError(f"{perm} is not an element of {self.group}_{n}")
                clean[perm] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, group: str, n: int, terms: dict) -> "GAElem":
        """Wrap terms that are already in normal form (elements of the
        algebra as keys, nonzero coefficients in normal form), unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "group", group)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, *_):
        raise AttributeError("GAElem is immutable")

    @classmethod
    def zero(cls, group: str, n: int) -> "GAElem":
        return cls(group, n, {})

    @classmethod
    def basis(cls, group: str, perm) -> "GAElem":
        return cls(group, len(perm), {tuple(perm): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "GAElem"):
        if self.group != other.group or self.n != other.n:
            raise ValueError("mixed group algebras")

    def __add__(self, other: "GAElem") -> "GAElem":
        self._check(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) + c
        return GAElem._trusted(self.group, self.n, _normal_terms(out))

    def __neg__(self) -> "GAElem":
        return GAElem._trusted(self.group, self.n, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "GAElem") -> "GAElem":
        return self + (-other)

    def scale(self, c) -> "GAElem":
        c = _coefficient(c)
        return GAElem._trusted(self.group, self.n,
                               _normal_terms({p: c * v for p, v in self.terms.items()}))

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
        return Fraction(self.terms.get(tuple(perm), 0))

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


def _integral(terms: dict) -> tuple[int, list]:
    """(d, [(perm, c*d)]): the coefficients cleared to integers over d, the
    lcm of their denominators."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(p, c.numerator * (d // c.denominator)) for p, c in terms.items()]


def _order(group: str, n: int) -> int:
    """|S_n| or |B_n|, with no enumeration; S_n at n <= 0 is the one empty
    permutation."""
    m = max(n, 0)
    return factorial(m) << m if group == "B" else factorial(m)


# The dense path pays one C-level pass over the group per left term, the
# pairwise one a compose per term pair.  Timed with right operands covering
# 1/8 to all of the group, the two cross at about half of S_5 and B_3 (the
# benchmarked sizes), nearer a third of S_6 and B_4 and two thirds of S_4:
# the dense path runs when 2 |b| >= |G|.
_DENSE_SHARE = 2


def ga_multiply(a: GAElem, b: GAElem) -> GAElem:
    """Convolution: (ab)(pi) = sum over sigma tau = pi of a(sigma) b(tau),
    summed in ints over each operand's common denominator.  A right operand
    covering at least half of a group within the verify guard is read by
    index (_dense_product); any other product composes term pair by pair."""
    a._check(b)
    group, n = a.group, a.n
    da, xs = _integral(a.terms)
    db, ys = _integral(b.terms)
    if 0 < n <= VERIFY_MAX[group] and _DENSE_SHARE * len(ys) >= _order(group, n):
        out = _dense_product(group, n, xs, ys)
    else:
        out = {}
        for sigma, ca in xs:
            for tau, cb in ys:
                pi = compose(sigma, tau)
                out[pi] = out.get(pi, 0) + ca * cb
    d = da * db
    return GAElem._trusted(group, n, {pi: c // d if c % d == 0 else Fraction(c, d)
                                      for pi, c in out.items() if c})


def _dense_product(group: str, n: int, xs: list, ys: list) -> dict:
    """pi -> sum over sigma of a(sigma) b(sigma^-1 pi), integer terms in and
    out, through the cached _group_index.  Every pi is q eps, q unsigned
    and eps a diagonal sign element; for each sigma, permutations(sigma^-1)
    lists sigma^-1 q over the unsigned q in lexicographic order, and eps's
    table turns each into the index of sigma^-1 q eps."""
    elements = iterate_group(group, n, force=True)
    index, unsigned, _, times, _ = _group_index(group, n)
    right = [0] * len(elements)
    for tau, c in ys:
        right[index[tau]] = c
    # per eps: element -> b(element eps)
    rights = [list(map(right.__getitem__, t)) for t in times]
    sums = [[0] * len(unsigned) for _ in times]
    for sigma, c in xs:
        left = list(map(index.__getitem__, permutations(inverse(sigma))))
        for k, r in enumerate(rights):
            sums[k] = list(map(add, sums[k], map(c.__mul__, map(r.__getitem__, left))))
    return {elements[t[i]]: c for t, acc in zip(times, sums) for i, c in zip(unsigned, acc)}


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
        x = _coefficient(x)
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
    "descent_set": ("S", _set("descent")),
    "descent_num": ("S", _size("descent")),
    "cyclic_descent_num": ("S", _size("cyclic_descent")),
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

def _class_table(family: str, n: int, force: bool):
    """The family's partition of iterate_group(group, n): the sorted realized
    labels, each element's class index and the index of each class's first
    element.  Built once per (family, n); the group's guard runs every call."""
    group, classify = CLASS_FAMILIES[family]
    elements = iterate_group(group, n, force)

    def build():
        values = [classify(p) for p in elements]
        labels = tuple(sorted(set(values)))
        index = {lab: i for i, lab in enumerate(labels)}
        classes = [index[v] for v in values]
        return labels, classes, sorted(_first_of_each(classes), key=classes.__getitem__)

    return memo("class_tables", (family, n), build)


def _first_of_each(keys):
    """The index of the first item of each distinct key, in order, drawn
    lazily: a sweep that stops early reads no further keys."""
    seen = set()
    for i, key in enumerate(keys):
        if key not in seen:
            seen.add(key)
            yield i


def family_labels(family: str, n: int, force: bool = False) -> list:
    """Sorted list of class labels.  Realized values, plus the one legal
    empty label: for even n the all-negative-start class at the top peak
    count has no elements but still names a (zero) basis slot."""
    labels = list(_class_table(family, n, force)[0])
    if family == "B_peak_sign_num" and n % 2 == 0 and (n // 2, 1) not in labels:
        labels.append((n // 2, 1))
        labels.sort()
    return labels


def _by_class(family: str, n: int, force: bool, values) -> GAElem:
    """The element whose coefficient on each element of class c is values[c]."""
    group = CLASS_FAMILIES[family][0]
    _, classes, _ = _class_table(family, n, force)
    return GAElem(group, n, {p: values[c] for p, c in zip(iterate_group(group, n, force), classes)})


def _same_types(a, b) -> bool:
    """a == b with the same type at every level, so True and 1.0 are not 1."""
    if type(a) is tuple and type(b) is tuple and len(a) == len(b):
        return all(map(_same_types, a, b))
    return type(a) is type(b) and a == b


def class_sum(n: int, family: str, label, force: bool = False) -> GAElem:
    """Sum, with coefficient 1, of the group elements in the given class."""
    if family not in CLASS_FAMILIES:
        raise ValueError(f"unknown class family {family!r}")
    if isinstance(label, list):
        label = tuple(label)
    if not any(_same_types(label, lab) for lab in family_labels(family, n, force)):
        raise ValueError(f"{label!r} is not a class label of {family} at n={n}")
    labels = _class_table(family, n, force)[0]
    e = _by_class(family, n, force, [int(lab == label) for lab in labels])
    if e.is_zero():
        warnings.warn(f"class {label!r} of {family} is empty at n={n}", stacklevel=2)
    return e


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


def _class_polys(family: str, n: int, force: bool) -> list[UniPoly]:
    """Coefficient polynomial shared by every element of each class, in
    label order, already composed with the family's argument substitution."""
    group, kind, subst, class_family = STRUCTURE_FAMILIES[family]
    _, _, first = _class_table(class_family, n, force)
    elements = iterate_group(group, n, force)
    return memo("class_polys", (family, n), lambda: [
        order_polynomial(elements[i], kind).compose(subst) for i in first])


def structure_polynomial(n: int, family: str, force: bool = False) -> GAPoly:
    """Sum over the group of (substituted order polynomial) * element,
    collected by powers of x."""
    if family not in STRUCTURE_FAMILIES:
        raise ValueError(f"unknown structure family {family!r}")
    group, _, _, class_family = STRUCTURE_FAMILIES[family]
    polys = _class_polys(family, n, force)
    allowed = set(idempotent_powers(n, family))
    coeffs = []
    for power in range(max(len(poly.coeffs) for poly in polys)):
        column = [poly.coeffs[power] if power < len(poly.coeffs) else 0 for poly in polys]
        if any(column) and power not in allowed:
            raise AssertionError(f"{family} at n={n} has unexpected power {power}")
        coeffs.append(_by_class(class_family, n, force, column))
    return GAPoly(group, n, coeffs)


def idempotents(n: int, family: str, force: bool = False) -> list[GAElem]:
    """Coefficients of the structure polynomial at the family's powers.

    As a cross-check, each class's coefficient polynomial is also recovered
    from its values at x = 1..deg+1 by exact interpolation, and compared
    with the coefficients the structure polynomial holds at the class
    representative.  That route is redundant given the dense coefficients,
    and that is the point: both must agree or extraction fails."""
    gp = structure_polynomial(n, family, force)
    group, _, _, class_family = STRUCTURE_FAMILIES[family]
    _, _, first = _class_table(class_family, n, force)
    elements = iterate_group(group, n, force)
    nodes = range(1, gp.degree + 2)
    for i, poly in zip(first, _class_polys(family, n, force)):
        p = elements[i]
        if interpolate([(x, poly(x)) for x in nodes]) != UniPoly(e.coeff(p) for e in gp.coeffs):
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
        e._check(b)
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
        cap = _order(group, n)
    basis_rows: dict = {}
    basis: list[GAElem] = []
    for e in elems:
        if basis_insert(e.terms, basis_rows):
            basis.append(e)
    if len(basis) > cap:
        raise ResourceLimitError(f"closure basis exceeded cap {cap}")
    fresh = list(basis)
    while fresh:
        # fresh is the tail basis[old:]: a fresh pair {a, b} is offered once,
        # and a*a once; a repeat would reduce to zero against the grown span.
        old = len(basis) - len(fresh)
        added: list[GAElem] = []
        for i, a in enumerate(basis):
            for j, b in enumerate(fresh):
                if j < i - old:
                    continue
                for prod in (a * b,) if j == i - old else (a * b, b * a):
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
    is exactly the claim that the class sums span an algebra; every
    element's row is compared with its class representative's and any
    violation is reported, not assumed.  Every family here is a union of
    descent classes, so the rows are counted once per descent class
    (Solomon 1976) and the comparison is between descent classes.
    """
    if family not in _CONSTANT_FAMILIES:
        raise ValueError(f"structure constants run on set-valued families, not {family!r}")
    if n < 0:
        raise ValueError("need n >= 0")
    group = CLASS_FAMILIES[family][0]
    check_limit(f"{group}-group table", n, VERIFY_MAX[group], force)
    elements = iterate_group(group, n, force)
    labels, classes, first = _class_table(family, n, force)
    rows = _pair_rows(group, n, family, family)
    k = len(labels)
    reps = [elements[i] for i in first]
    tensor = [[[rows[i][a * k + b] for i in first] for b in range(k)] for a in range(k)]
    violation = None
    for p, c, row in zip(elements, classes, rows):
        rep_row = rows[first[c]]
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
        "representatives": reps,
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


# decomposition -> (group, largest count at n, tags in name order, split
# p -> (count, tag)).  Type B splits the cyclic descent classes by the last
# entry's sign, type A the interior peak classes (from 1) by a descent at 1.
_REFINED = {
    "typeB_F": ("B", lambda n: n, ("+", "-"), lambda p: (
        STATISTICS["B_cyclic_descent"](p).bit_count(), "+" if p[-1] > 0 else "-")),
    "typeA_F": ("S", lambda n: (n + 1) // 2, (1, 0), lambda p: (
        STATISTICS["peak_interior"](p).bit_count() + 1,
        STATISTICS["descent"](p) >> 1 & 1)),
}


def refined_decomposition(n: int, which: str, force: bool = False) -> dict:
    """Finer class sums F_i^t that split two number-indexed families at
    once, with the exact bookkeeping identities between the three bases."""
    if n < 1:
        raise ValueError("need n >= 1")
    if which not in _REFINED:
        raise ValueError(f"unknown decomposition {which!r}")
    group, largest, tags, split = _REFINED[which]
    sweep = iterate_group(group, n, force)  # refuses a bad n before largest(n)
    top = largest(n)
    terms: dict = {(i, t): {} for i in range(1, top + 1) for t in tags}
    for p in sweep:
        terms[split(p)][p] = 1
    f = {key: GAElem(group, n, t) for key, t in terms.items()}
    elements = {f"F_{i}^{t}": e for (i, t), e in f.items()}
    relations: dict[str, bool] = {}
    if which == "typeB_F":
        e_b = {i: class_sum(n, "B_descent_num", i - 1, force) for i in range(1, n + 2)}
        e_bc = {i: class_sum(n, "B_cyclic_descent_num", i, force) for i in range(1, n + 1)}
        relations["first_descent_class"] = e_b[1] == f[1, "+"]
        relations["last_descent_class"] = e_b[n + 1] == f[n, "-"]
        for i in range(2, n + 1):
            relations[f"descent_class_{i}"] = e_b[i] == f[i - 1, "-"] + f[i, "+"]
        for i in range(1, n + 1):
            relations[f"cyclic_class_{i}"] = e_bc[i] == f[i, "-"] + f[i, "+"]
    else:
        zero = GAElem.zero(group, n)
        left_top = n // 2 + 1
        e_pe = {i: class_sum(n, "peak_interior_num", i - 1, force) for i in range(1, top + 1)}
        e_l = {i: class_sum(n, "peak_left_num", i - 1, force) for i in range(1, left_top + 1)}
        relations["first_left_class"] = e_l[1] == f[1, 0]
        for i in range(2, left_top + 1):
            relations[f"left_class_{i}"] = e_l[i] == f[i - 1, 1] + f.get((i, 0), zero)
        for i in range(1, top + 1):
            relations[f"interior_class_{i}"] = e_pe[i] == f[i, 1] + f[i, 0]
        if n % 2 == 1:
            relations["odd_top_vanishes"] = f[top, 1].is_zero()
    return {"which": which, "n": n, "elements": elements, "relations": relations,
            "ok": all(relations.values())}


# --- the cyclic embedding ---------------------------------------------------------


def _cyclic_embed(e: GAElem) -> GAElem:
    """The image of e in Q[S_{n+1}]: each p goes to hat(p) times the mean of
    the n+1 rotations, powers of omega(n+1)."""
    n = e.n + 1
    rot = omega(n)
    powers = [rot]
    while len(powers) < n:
        powers.append(compose(powers[-1], rot))
    out: dict = {}
    for p, c in e.terms.items():
        lifted = hat(p)
        for w in powers:
            q = compose(lifted, w)
            out[q] = out.get(q, 0) + Fraction(c, n)
    return GAElem("S", n, out)


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
    classes = [class_sum(n - 1, "descent_num", i, force) for i in range(n - 1)]
    images = [_cyclic_embed(e) for e in classes]
    if span_rank(images) != n - 1:
        return False
    for a, ia in zip(classes, images):
        for b, ib in zip(classes, images):
            if ia * ib != _cyclic_embed(a * b):
                return False
    iu = _cyclic_embed(GAElem.basis("S", identity_perm(n - 1)))
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


def _group_index(group: str, n: int):
    """The family-independent index tables of (group, n), built once after
    the caller's guard: the element -> index dict, the unsigned
    permutations' indices in lexicographic order, each element's inverse's
    index, one table per diagonal sign element eps (only the identity in
    S_n) sending each element to element eps, and each element's
    descent-class owner, the first element with the same descent set (the
    Coxeter descent set for B_n, with 0 a descent iff pi(1) < 0)."""
    def build():
        elements = iterate_group(group, n, force=True)
        index = {p: i for i, p in enumerate(elements)}
        unsigned = [index[q] for q in permutations(range(1, n + 1))]
        inverses = [index[inverse(p)] for p in elements]
        diagonal = [p for p in elements if all(abs(v) == i for i, v in enumerate(p, 1))]
        times = [[index[compose(p, eps)] for p in elements] for eps in diagonal]
        descents = STATISTICS["descent" if group == "S" else "B_descent"]
        first: dict = {}
        owners = [first.setdefault(descents(p), i) for i, p in enumerate(elements)]
        return index, unsigned, inverses, times, owners

    return memo("group_index", (group, n), build)


def _factor_counts(group: str, n: int, famL: str, famR: str) -> list[list[int]]:
    """For each pi: counts of factorizations sigma tau = pi bucketed by
    (class of sigma under class family famL, class of tau under famR), one
    row of len(labelsL) * len(labelsR) counts per group element.  Callers
    check the size guards first.

    Counted by index, with no product formed per pair.  Every sigma is
    q eps, q unsigned and eps a diagonal sign element, and tau = sigma^-1 pi
    is the inverse of (pi^-1 q) eps.  The products pi^-1 q, q in
    lexicographic order, are exactly permutations(pi^-1).

    When both families are unions of descent classes, a row depends only
    on Des(pi): the descent-class sums span a subalgebra (Solomon 1976,
    for every finite Coxeter group).  Then the row is counted once per
    descent class, at its owner, and every other element of the class
    holds the owner's row list itself."""
    elements = iterate_group(group, n, force=True)
    index, unsigned, inverses, times, owners = _group_index(group, n)
    labelsL, classesL, _ = _class_table(famL, n, True)
    labelsR, classesR, _ = _class_table(famR, n, True)
    kr = len(labelsR)
    width = len(labelsL) * kr
    # per eps: kr * (class of q eps) for each unsigned q in order, and for
    # each element the class of the inverse of element eps
    tables = [([kr * classesL[t[i]] for i in unsigned], [classesR[inverses[j]] for j in t])
              for t in times]
    if not all(classesL[i] == classesL[o] and classesR[i] == classesR[o]
               for i, o in enumerate(owners)):
        owners = range(len(elements))
    rows = []
    for pi, owner in zip(elements, owners):
        if owner < len(rows):  # an earlier element of pi's descent class
            rows.append(rows[owner])
            continue
        left = list(map(index.__getitem__, permutations(inverse(pi))))
        counts = Counter(chain.from_iterable(
            map(add, classL, map(classR.__getitem__, left)) for classL, classR in tables))
        row = [0] * width
        for ab, cnt in counts.items():
            row[ab] = cnt
        rows.append(row)
    return rows


def _pair_rows(group: str, n: int, famL: str, famR: str) -> list[list[int]]:
    """_factor_counts over two class families, cached: the one entry point
    to the factorization tensor for structure_constants, the product-grid
    checks and qsym's bipartite checks.  Where _factor_counts shares rows
    per descent class, a cached tensor holds one row list per class."""
    return memo("pair_rows", (group, n, famL, famR), lambda: _factor_counts(group, n, famL, famR))


def _cleared(polys: list[UniPoly], args) -> dict:
    """argument -> (d, values): every polynomial's value there is its
    integer in values over the common denominator d (_integral)."""
    cleared = {t: _integral(dict(enumerate(p(t) for p in polys))) for t in args}
    return {t: (d, [v for _, v in vals]) for t, (d, vals) in cleared.items()}


def _check_product(group: str, n: int, famL: str, famR: str, famT: str, force: bool):
    """Grid check of famL(x) famR(y) == famT(xy), coefficient by coefficient
    over the group, using factorization-count tensors, at every node of the
    (degx+1) x (degy+1) grid.  An element's coefficient is fixed by its
    factorization row and its target class, so the grid runs at the first
    element of each (row, class) pair, and a failure names the first
    failing element in group order."""
    check_limit(f"{group}-group table", n, VERIFY_MAX[group], force)
    elements = iterate_group(group, n, force)
    polysL = _class_polys(famL, n, force)
    polysR = _class_polys(famR, n, force)
    polysT = _class_polys(famT, n, force)
    _, classesT, _ = _class_table(STRUCTURE_FAMILIES[famT][3], n, force)
    rows = _pair_rows(group, n, STRUCTURE_FAMILIES[famL][3], STRUCTURE_FAMILIES[famR][3])
    xs = range(1, max(p.degree for p in polysL) + 2)
    ys = range(1, max(p.degree for p in polysR) + 2)
    # each class polynomial once per distinct argument, cleared to integers
    # over one denominator, so a row's lhs at a node is the integer
    # sum(row * weights) over d and the per-row loop stays in integers
    atx = _cleared(polysL, xs)
    aty = _cleared(polysR, ys)
    atxy = _cleared(polysT, {x * y for x in xs for y in ys})
    grid = []
    for x0, y0 in product(xs, ys):
        (dl, vl), (dr, vr) = atx[x0], aty[y0]
        grid.append((x0, y0, dl * dr, [u * v for u in vl for v in vr], *atxy[x0 * y0]))
    for i in _first_of_each(zip(map(tuple, rows), classesT)):
        row, c = rows[i], classesT[i]
        for x0, y0, d, weights, dt, vt in grid:
            acc = sum(map(mul, row, weights))
            if acc * dt != vt[c] * d:
                return {
                    "ok": False,
                    "counterexample": (list(elements[i]), format_rational(Fraction(acc, d)),
                                       format_rational(Fraction(vt[c], dt))),
                    "node": [x0, y0],
                }
    return {"ok": True, "counterexample": None, "node": None}


# Every check is check(n, force).  Functions the benchmark tracer wraps are
# looked up as module globals at call time, never bound into a registry row.

def _run_product(tid: str, n: int, force: bool) -> dict:
    group = STRUCTURE_FAMILIES[_PRODUCT_THEOREMS[tid][0][0]][0]
    for famL, famR, famT in _PRODUCT_THEOREMS[tid]:
        out = _check_product(group, n, famL, famR, famT, force)
        if not out["ok"]:
            return out
    return out


def _run_recip(kind: str, n: int, force: bool) -> dict:
    """Reciprocity at one representative per class of the kind's structure
    family, in group order: the class fixes the polynomial."""
    family = next(row[3] for row in STRUCTURE_FAMILIES.values() if row[1] == kind)
    elements = iterate_group(ORDER_POLY_KINDS[kind][0], n, force)
    for i in sorted(_class_table(family, n, force)[2]):
        if not reciprocity_check(elements[i], kind):
            return {"ok": False, "counterexample": (list(elements[i]), "reciprocity", "failed")}
    return {"ok": True, "counterexample": None}


def _run_43(which: str, n: int, force: bool) -> dict:
    ok = identity_check_43(n, which, force=force)
    return {"ok": ok, "counterexample": None if ok else (None, which, "failed")}


def _run_closure_negative(n: int, force: bool) -> dict:
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


def _run_constants_negative(n: int, force: bool) -> dict:
    result = structure_constants(n, "right_peak_set", force)
    if result["well_defined"]:
        return {"ok": True, "counterexample": None}
    v = result["violation"]
    return {
        "ok": False,
        "counterexample": (v["elements"][1], str(v["counts"][1]), str(v["counts"][0])),
        "violation": v,
    }


def _run_qsym(check: str, n: int, force: bool) -> dict:
    from . import qsym

    return qsym.verify_hook(check, n, force)


# id -> (check, holds_to): the theory predicts ok at n exactly when
# holds_to is None or n <= holds_to; the deliberate negatives hold to n = 2
THEOREMS: dict = {}
for _tid in _PRODUCT_THEOREMS:
    THEOREMS[_tid] = (partial(_run_product, _tid), 2 if _tid == "phi_times_rho" else None)
for _kind in _ENRICHED_KINDS:
    THEOREMS["recip_" + _kind.removeprefix("enriched_")] = (partial(_run_recip, _kind), None)
for _which in IDENTITIES_43:
    THEOREMS[_which] = (partial(_run_43, _which), None)
THEOREMS["right_peak_num_closure"] = (_run_closure_negative, 2)
THEOREMS["right_peak_set_constants"] = (_run_constants_negative, 2)
for _check in ("mon", "fun", "gf_ges", "gf_interior", "gf_left", "gf_B", "gf_peakideal",
               "gf_interiordescent", "fib_rank_interior", "fib_rank_left", "fib_rank_B"):
    THEOREMS[_check] = (partial(_run_qsym, _check), None)


def verify_identity(n: int, theorem_id: str, force: bool = False) -> dict:
    """Run one registered check at size n.  ok reports the raw outcome;
    expected_ok says what the theory predicts at this n (False for the
    deliberate negatives), so callers can distinguish a failing check from
    a faithfully reproduced failure."""
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    check, holds_to = THEOREMS[theorem_id]
    out = check(n, force)
    out["theorem"] = theorem_id
    out["n"] = n
    out["expected_ok"] = holds_to is None or n <= holds_to
    return out


def all_theorem_ids() -> list[str]:
    return sorted(THEOREMS)
