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

from fractions import Fraction

from .exact import RationalGF, UniPoly, binom_poly, interpolate
from .perms import STATISTICS, iterate_group, validate_perm
from .posets import IMAGE_SET_KINDS, chain_weight_sum


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
    class parameters; all five enriched kinds."""
    den = _ONE_MINUS_T ** (n + 1)
    if kind == "enriched_interior":
        (pe,) = params
        num = _T ** (pe + 1) * _ONE_PLUS_T ** (n - 1 - 2 * pe) * 2 ** (2 * pe + 1)
    elif kind == "enriched_left":
        (lpe,) = params
        num = _T**lpe * _ONE_PLUS_T ** (n - 2 * lpe) * 2 ** (2 * lpe)
    elif kind == "enriched_right":
        (rpe,) = params
        num = _T**rpe * _ONE_PLUS_T ** (n - 2 * rpe) * 2 ** (2 * rpe)
    elif kind == "enriched_exterior":
        (epe,) = params
        num = _T**epe * _ONE_PLUS_T ** (n + 1 - 2 * epe) * 2 ** (2 * epe - 1)
    elif kind == "enriched_B":
        sig, pe = params
        if n - 2 * pe - sig < 0:
            raise ValueError(f"no element realizes {params} at n={n}")
        num = _T ** (pe + sig) * _ONE_PLUS_T ** (n - 2 * pe - sig) * 2 ** (2 * pe + sig)
    else:
        raise ValueError(f"{kind!r} has no generating function")
    return RationalGF(num, den)


_class_cache: dict[tuple, UniPoly] = {}


def _enriched_poly(pi, kind: str) -> UniPoly:
    group, image_kind, stat = ORDER_POLY_KINDS[kind]
    n = len(pi)
    params = stat(pi)
    key = (kind, n, params)
    got = _class_cache.get(key)
    if got is not None:
        return got
    build = IMAGE_SET_KINDS[image_kind]
    anchored = group == "B"
    counts = [chain_weight_sum(build(k), pi, anchored=anchored) for k in range(n + 3)]
    poly = interpolate(list(enumerate(counts[: n + 1])))
    series = class_gf(kind, n, params).coeffs(n + 3)
    for k in range(n + 3):
        if series[k] != counts[k] or poly(k) != counts[k]:
            raise AssertionError(
                f"{kind} closed form disagrees with enumeration at n={n}, "
                f"class {params}, k={k}: series {series[k]}, oracle {counts[k]}"
            )
    _class_cache[key] = poly
    return poly


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
    """
    if kind == "W_weighted":
        if i is None:
            raise ValueError("W_weighted needs the number of negative entries i")
        if not 0 <= i <= n:
            raise ValueError("i out of range")
    # kind -> (group, statistic, exponent shift, restriction)
    table = {
        "A_eulerian": ("S", "descent_linear", 1, None),
        "B_eulerian": ("B", "B_descent", 0, None),
        "B_cyclic_eulerian": ("B", "B_cyclic_descent", 0, None),
        "W_interior": ("S", "peak_interior", 1, None),
        "W_left": ("S", "peak_left", 0, None),
        "W_plus": ("B", "B_peak", 0, lambda p: p[0] > 0),
        "W_minus": ("B", "B_peak", 1, lambda p: p[0] < 0),
        "W_weighted": ("B", "B_descent", 0, lambda p: sum(1 for v in p if v < 0) == i),
    }
    if kind not in table:
        raise ValueError(f"unknown peak polynomial kind {kind!r}")
    group, stat, shift, keep = table[kind]
    mask = STATISTICS[stat]
    buckets: dict[int, int] = {}
    for p in iterate_group(group, n, force):
        if keep is None or keep(p):
            e = mask(p).bit_count() + shift
            buckets[e] = buckets.get(e, 0) + 1
    if not buckets:
        return UniPoly()
    coeffs = [0] * (max(buckets) + 1)
    for e, c in buckets.items():
        coeffs[e] = c
    return UniPoly(coeffs)


def poly_at_gf(p: UniPoly, g: RationalGF) -> RationalGF:
    """p evaluated at a rational function, by Horner."""
    acc = RationalGF.constant(0)
    for c in reversed(p.coeffs):
        acc = acc * g + RationalGF.constant(c)
    return acc


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
            RationalGF(peak_polynomial(n, "W_weighted", i=i, force=force), den).coeffs(n + 3)
            for i in range(n + 1)
        ]
        for k in range(n + 3):
            lhs_vec = [series[i][k] for i in range(n + 1)]
            rhs_vec = [comb(n, i) * k**i * (k + 1) ** (n - i) for i in range(n + 1)]
            if lhs_vec != rhs_vec:
                return False
        return True
    raise ValueError(f"unknown identity {which!r}")
