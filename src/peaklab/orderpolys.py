"""Order polynomials for all nine counting flavors, and the related
Eulerian / peak polynomial identities.

The binomial flavors come straight from their closed forms.  Each enriched
flavor is built per class: the chain enumerator supplies exact values at
k = 0..n, Newton interpolation turns them into the polynomial, and the
closed-form generating function must then reproduce the oracle counts out
to k = n+2 or construction fails.  Nothing here trusts a formula it has
not checked against enumeration.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .exact import RationalGF, UniPoly, binom_poly, interpolate
from .limits import memo
from .perms import STATISTICS, iterate_group, validate_perm
from .posets import IMAGE_SET_KINDS, chain_weight_sum, shared_alphabet


def _sizes(*names: str):
    """The map p -> (size of each named statistic set of p)."""
    return lambda p: tuple(STATISTICS[name](p).bit_count() for name in names)


# tag -> (group, image-set kind or None, statistic parameters)
ORDER_POLY_KINDS = {
    "A_ordinary": ("S", "ordinary", _sizes("descent_linear")),
    "A_cyclic": ("S", None, _sizes("descent_cyclic")),
    "B_ordinary": ("B", "ordinaryB", _sizes("B_descent")),
    "B_cyclic": ("B", None, _sizes("B_cyclic_descent")),
    "enriched_interior": ("S", "enriched", _sizes("peak_interior")),
    "enriched_left": ("S", "left_enriched", _sizes("peak_left")),
    "enriched_right": ("S", "right_enriched", _sizes("peak_right")),
    "enriched_exterior": ("S", "exterior_enriched", _sizes("peak_exterior")),
    "enriched_B": ("B", "B_enriched", _sizes("B_sign", "B_peak")),
}

_T = UniPoly((0, 1))
_ONE_PLUS_T = UniPoly((1, 1))
_ONE_MINUS_T = UniPoly((1, -1))


def class_gf(kind: str, n: int, params: tuple) -> RationalGF:
    """Closed-form generating function sum_k (enriched count at k) t^k, by
    class parameters; all five enriched kinds.

    Each is t^a (1+t)^b 2^c / (1-t)^(n+1).  For n >= 1 the classes of
    S_n and B_n realize exactly the parameters that keep a, b and c
    nonnegative, with a sign count of 0 or 1; any other parameters are
    refused.  At n = 0 the empty permutation realizes all-zero parameters
    only, and its enriched count is 1 at every k, so every kind gives
    1/(1-t) there, where the interior and exterior forms would not.
    """
    sig = 0
    if kind == "enriched_interior":
        (pe,) = params
        a, b, c = pe + 1, n - 1 - 2 * pe, 2 * pe + 1
    elif kind in ("enriched_left", "enriched_right"):
        (pk,) = params
        a, b, c = pk, n - 2 * pk, 2 * pk
    elif kind == "enriched_exterior":
        (epe,) = params
        a, b, c = epe, n + 1 - 2 * epe, 2 * epe - 1
    elif kind == "enriched_B":
        sig, pe = params
        a, b, c = pe + sig, n - 2 * pe - sig, 2 * pe + sig
    else:
        raise ValueError(f"{kind!r} has no generating function")
    if n == 0 and not any(params):
        return RationalGF(UniPoly.one(), _ONE_MINUS_T)
    if min(a, b, c) < 0 or sig not in (0, 1):
        raise ValueError(f"no element realizes {params} at n={n}")
    return RationalGF(_T**a * _ONE_PLUS_T**b * 2**c, _ONE_MINUS_T ** (n + 1))


def _enriched_poly(pi, kind: str) -> UniPoly:
    """The polynomial of pi's class, cached per (kind, n, class parameters):
    the class fixes the polynomial, so pi is not part of the key."""
    group, image_kind, stat = ORDER_POLY_KINDS[kind]
    n = len(pi)
    params = stat(pi)

    def build() -> UniPoly:
        builder = IMAGE_SET_KINDS[image_kind]
        anchored = group == "B"
        counts = [chain_weight_sum(shared_alphabet(builder, k), pi, anchored=anchored)
                  for k in range(n + 3)]
        poly = interpolate(list(enumerate(counts[: n + 1])))
        series = class_gf(kind, n, params).coeffs(n + 3)
        for k in range(n + 3):
            if series[k] != counts[k] or poly(k) != counts[k]:
                raise AssertionError(
                    f"{kind} closed form disagrees with enumeration at n={n}, "
                    f"class {params}, k={k}: series {series[k]}, oracle {counts[k]}"
                )
        return poly

    return memo("enriched_polys", (kind, n, params), build)


def order_polynomial(pi, kind: str) -> UniPoly:
    """Counting polynomial of the chain of pi, for the given flavor.

    Binomial flavors are closed-form; enriched flavors are interpolated
    from the enumeration oracle and cross-checked (see _enriched_poly).
    """
    if kind not in ORDER_POLY_KINDS:
        raise ValueError(f"unknown order polynomial kind {kind!r}")
    group, _, stat = ORDER_POLY_KINDS[kind]
    pi = validate_perm(pi, signed=group == "B")
    n = len(pi)
    if n < 1:
        raise ValueError("need n >= 1")
    if kind == "A_ordinary":
        return binom_poly(n - 1 - stat(pi)[0], n)
    if kind == "A_cyclic":
        return binom_poly(n - 1 - stat(pi)[0], n - 1) * Fraction(1, n)
    if kind in ("B_ordinary", "B_cyclic"):
        return binom_poly(n - stat(pi)[0], n)
    return _enriched_poly(pi, kind)


_GF_KINDS = ("enriched_interior", "enriched_left", "enriched_B")


def enriched_gf(pi, kind: str) -> RationalGF:
    """Closed-form generating function for the three flavors that have one
    stated directly (interior, left, signed)."""
    if kind not in _GF_KINDS:
        raise ValueError(f"no generating function registered for {kind!r}")
    group, _, stat = ORDER_POLY_KINDS[kind]
    pi = validate_perm(pi, signed=group == "B")
    return class_gf(kind, len(pi), stat(pi))


_ENRICHED_KINDS = tuple(k for k in ORDER_POLY_KINDS if k.startswith("enriched"))


def reciprocity_check(pi, kind: str) -> bool:
    """Functional equation relating the polynomial at -x to the one at x.

    Interior and exterior flavors satisfy p(-x) == (-1)^n p(x); the left
    and right flavors the half-shifted version p(-x-1/2) == (-1)^n p(x-1/2).
    The signed flavor follows the first pattern when pi(1) < 0 and the
    second when pi(1) > 0.
    """
    if kind not in _ENRICHED_KINDS:
        raise ValueError(f"reciprocity applies to enriched kinds, not {kind!r}")
    p = order_polynomial(pi, kind)
    n = len(pi)
    sign = (-1) ** n
    shifted = kind in ("enriched_left", "enriched_right")
    if kind == "enriched_B":
        shifted = pi[0] > 0
    if shifted:
        lhs = p.compose(UniPoly((Fraction(-1, 2), -1)))
        rhs = p.compose(UniPoly((Fraction(-1, 2), 1))) * sign
    else:
        lhs = p.compose(UniPoly((0, -1)))
        rhs = p * sign
    return lhs == rhs


# --- peak and Eulerian polynomials -------------------------------------------


# kind -> (group, statistic, exponent shift, restriction p, i -> keep p).
# Only W_weighted reads i, its number of negative entries.  The peak table
# reports the kinds in this order, W_weighted at every i.
PEAK_POLY_KINDS = {
    "A_eulerian": ("S", "descent_linear", 1, None),
    "B_eulerian": ("B", "B_descent", 0, None),
    "B_cyclic_eulerian": ("B", "B_cyclic_descent", 0, None),
    "W_interior": ("S", "peak_interior", 1, None),
    "W_left": ("S", "peak_left", 0, None),
    "W_plus": ("B", "B_peak", 0, lambda p, i: p[0] > 0),
    "W_minus": ("B", "B_peak", 1, lambda p, i: p[0] < 0),
    "W_weighted": ("B", "B_descent", 0, lambda p, i: sum(v < 0 for v in p) == i),
}
WEIGHTED_KIND = "W_weighted"


def peak_polynomial(n: int, kind: str, i: int | None = None, force: bool = False) -> UniPoly:
    """Distribution polynomial of a statistic over S_n or B_n.

    kind selects statistic, exponent shift, and any restriction:
      A_eulerian         t^(des+1) over S_n
      B_eulerian         t^(des_B) over B_n
      B_cyclic_eulerian  t^(cdes_B) over B_n
      W_interior         t^(pe+1) over S_n
      W_left             t^(lpe) over S_n
      W_plus             t^(pe_B) over pi(1) > 0
      W_minus            t^(pe_B + 1) over pi(1) < 0
      W_weighted         t^(des_B) over exactly i negative entries

    W_weighted needs an int i in 0..n and every other kind refuses one.
    Each polynomial is computed once per (n, kind, i) and shared.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if kind not in PEAK_POLY_KINDS:
        raise ValueError(f"unknown peak polynomial kind {kind!r}")
    if kind == WEIGHTED_KIND and (type(i) is not int or not 0 <= i <= n):
        raise ValueError(f"{kind} needs the number of negatives i, an int in 0..{n}, not {i!r}")
    if kind != WEIGHTED_KIND and i is not None:
        raise ValueError(f"{kind} takes no i, got {i!r}")
    group, stat, shift, keep = PEAK_POLY_KINDS[kind]
    elements = iterate_group(group, n, force)

    def build() -> UniPoly:
        mask = STATISTICS[stat]
        counts = Counter(mask(p).bit_count() + shift for p in elements if keep is None or keep(p, i))
        return UniPoly(counts[e] for e in range(max(counts) + 1))

    return memo("peak_polys", (n, kind, i), build)


def poly_at_gf(p: UniPoly, g: RationalGF) -> RationalGF:
    """p evaluated at a rational function, by Horner."""
    acc = RationalGF.constant(0)
    for c in reversed(p.coeffs):
        acc = acc * g + RationalGF.constant(c)
    return acc


# the Section 4.3 identities, in the order peak-table reports them
IDENTITIES_43 = ("augeul", "peeul1", "peeul2", "bpeeul1", "bpeeul2")


def identity_check_43(n: int, which: str, force: bool = False) -> bool:
    """Hook between the peak polynomials and the Eulerian polynomials.

    augeul   cyclic signed Eulerian == 2^n times the unsigned Eulerian
    peeul1   W_interior at u == 2^(n+1) A_n(t) / (1+t)^(n+1)
    peeul2   W_left at u == B_n(t) / (1+t)^n
    bpeeul1  the signed analogue, stated through the even part of the
             series with coefficients (2k+1)^n so no square roots appear
    bpeeul2  the sign-refined series identity, checked per power of the
             weighting variable (symbolically, not at sampled values)

    where u = 4t/(1+t)^2.  All comparisons are exact identities of
    rational functions or coefficient vectors.
    """
    u = RationalGF(_T * 4, _ONE_PLUS_T**2)
    if which == "augeul":
        lhs = peak_polynomial(n, "B_cyclic_eulerian", force=force)
        rhs = peak_polynomial(n, "A_eulerian", force=force) * 2**n
        return lhs == rhs
    if which == "peeul1":
        lhs = poly_at_gf(peak_polynomial(n, "W_interior", force=force), u)
        rhs = RationalGF(
            peak_polynomial(n, "A_eulerian", force=force) * 2 ** (n + 1),
            _ONE_PLUS_T ** (n + 1),
        )
        return lhs == rhs
    if which == "peeul2":
        lhs = poly_at_gf(peak_polynomial(n, "W_left", force=force), u)
        rhs = RationalGF(peak_polynomial(n, "B_eulerian", force=force), _ONE_PLUS_T**n)
        return lhs == rhs
    if which == "bpeeul1":
        wp = poly_at_gf(peak_polynomial(n, "W_plus", force=force), u)
        wm = poly_at_gf(peak_polynomial(n, "W_minus", force=force), u)
        den = _ONE_MINUS_T ** (n + 1)
        lhs = RationalGF(_ONE_PLUS_T**n, den) * wp + RationalGF(_ONE_PLUS_T ** (n + 1), den * 2) * wm
        rhs = RationalGF(peak_polynomial(n, "B_eulerian", force=force), den).even_part()
        # the even part really is the series over every fourth odd number
        probe = rhs.coeffs(6)
        if any(probe[k] != (4 * k + 1) ** n for k in range(6)):
            return False
        return lhs == rhs
    if which == "bpeeul2":
        # sum_i W_{n,i}(t) a^i / (1-t)^(n+1) == sum_k ((a+1)k + 1)^n t^k:
        # compare the vector of a-coefficients at each t^k; degree n in k,
        # so k = 0..n+2 decides the identity with margin
        from math import comb

        den = _ONE_MINUS_T ** (n + 1)
        series = [
            RationalGF(peak_polynomial(n, WEIGHTED_KIND, i=i, force=force), den).coeffs(n + 3)
            for i in range(n + 1)
        ]
        for k in range(n + 3):
            lhs_vec = [series[i][k] for i in range(n + 1)]
            rhs_vec = [comb(n, i) * k**i * (k + 1) ** (n - i) for i in range(n + 1)]
            if lhs_vec != rhs_vec:
                return False
        return True
    raise ValueError(f"unknown identity {which!r}")
