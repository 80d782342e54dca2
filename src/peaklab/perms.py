"""Permutations of [n], signed permutations of [+-n], and their statistics.

A plain permutation is a tuple of the values (pi(1), ..., pi(n)); a signed
permutation is the same tuple but with entries drawn from {-n..-1, 1..n}
with pairwise distinct absolute values.  One-line notation throughout, and
statistics are returned as StatResult so positions and counts travel
together.

Descent and peak sets are computed on bitmasks first and wrapped at the
end.  STATISTICS is the one table of statistic names; the order-polynomial,
group-algebra and quasisymmetric layers read their masks from it, and they
iterate S_n or B_n only through iterate_group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .limits import check_limit, HYPEROCT_ITER_MAX, SYMMETRIC_ITER_MAX

Perm = tuple[int, ...]


def validate_perm(values, signed: bool = False) -> Perm:
    """Check one-line notation and return it as a tuple.

    Unsigned: the entries must be exactly 1..n.  Signed: absolute values
    must be exactly 1..n (each sign free).
    """
    p = tuple(int(v) for v in values)
    n = len(p)
    if signed:
        if sorted(abs(v) for v in p) != list(range(1, n + 1)) or 0 in p:
            raise ValueError(f"not a signed permutation of 1..{n}: {p}")
    else:
        if sorted(p) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {p}")
    return p


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(a: Perm, b: Perm) -> Perm:
    """(a b)(i) = a(b(i)); works for plain and signed alike.

    A signed permutation is determined by its values on positive i via
    pi(-i) = -pi(i), which is exactly the sign-threading below.
    """
    if len(a) != len(b):
        raise ValueError("size mismatch")
    out = []
    for t in b:
        out.append(a[t - 1] if t > 0 else -a[-t - 1])
    return tuple(out)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
    return tuple(out)


def eta(n: int) -> Perm:
    """The decreasing permutation (n, n-1, ..., 1)."""
    return tuple(range(n, 0, -1))


def omega(n: int) -> Perm:
    """The long cycle (2, 3, ..., n, 1)."""
    return tuple(range(2, n + 1)) + (1,)


def hat(p: Perm) -> Perm:
    """Append n+1 as a new last value."""
    return p + (len(p) + 1,)


# --- masks -----------------------------------------------------------------
#
# Bit i of a mask means "position i is in the set".  Unsigned descents and
# peaks live in 1..n-1 (cyclic descents may add n); signed descents live in
# 0..n-1 (cyclic may add n); signed peaks live in 1..n-1.


def descent_mask(p: Perm) -> int:
    m = 0
    for i in range(1, len(p)):
        if p[i - 1] > p[i]:
            m |= 1 << i
    return m


def cyclic_descent_mask(p: Perm) -> int:
    m = descent_mask(p)
    n = len(p)
    if n and p[-1] > p[0]:
        m |= 1 << n
    return m


def _peak_masks(p: Perm) -> tuple[int, int]:
    """(rises, falls) with zero sentinels at both ends.

    Bit i of rises:  p(i-1) < p(i), for i in 1..n+1, reading p(0)=p(n+1)=0.
    Bit i of falls:  p(i) > p(i+1), same convention.  A peak at i is a rise
    into i and a fall out of it; the four flavors differ only in which
    boundary index is allowed.
    """
    n = len(p)
    ext = (0,) + p + (0,)
    rises = 0
    falls = 0
    for i in range(1, n + 1):
        if ext[i - 1] < ext[i]:
            rises |= 1 << i
        if ext[i] > ext[i + 1]:
            falls |= 1 << i
    return rises, falls


def _range_mask(lo: int, hi: int) -> int:
    """Bits lo..hi inclusive."""
    if hi < lo:
        return 0
    return ((1 << (hi - lo + 1)) - 1) << lo


def peak_mask(p: Perm) -> int:
    """Interior peaks: strictly inside, 2..n-1."""
    rises, falls = _peak_masks(p)
    return rises & falls & _range_mask(2, len(p) - 1)


def left_peak_mask(p: Perm) -> int:
    """Position 1 may be a peak (the left sentinel is 0), n may not."""
    rises, falls = _peak_masks(p)
    return rises & falls & _range_mask(1, len(p) - 1)


def right_peak_mask(p: Perm) -> int:
    """Position n may be a peak (the right sentinel is 0), 1 may not."""
    rises, falls = _peak_masks(p)
    return rises & falls & _range_mask(2, len(p))


def exterior_peak_mask(p: Perm) -> int:
    """Both ends allowed; equals left | right."""
    rises, falls = _peak_masks(p)
    return rises & falls & _range_mask(1, len(p))


def b_descent_mask(p: Perm) -> int:
    """Signed descents in 0..n-1; 0 is a descent exactly when p(1) < 0."""
    m = 0
    if p and p[0] < 0:
        m |= 1
    for i in range(1, len(p)):
        if p[i - 1] > p[i]:
            m |= 1 << i
    return m


def b_cyclic_descent_mask(p: Perm) -> int:
    m = b_descent_mask(p)
    n = len(p)
    if n and p[-1] > 0:
        m |= 1 << n
    return m


def b_peak_mask(p: Perm) -> int:
    """Signed peaks in 1..n-1, with a zero sentinel on the left only.

    Position 1 is a peak when 0 < p(1) > p(2), so a negative first value
    never gives a peak at 1.
    """
    n = len(p)
    ext = (0,) + p
    m = 0
    for i in range(1, n):
        if ext[i - 1] < ext[i] > ext[i + 1]:
            m |= 1 << i
    return m


def sign_mask(p: Perm) -> int:
    """{0} when the first value is negative, else empty."""
    return 1 if (p and p[0] < 0) else 0


def positions(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


# name -> mask function.  Callers look masks up here at call time, and the
# values are the public *_mask functions themselves: bench/tracer.py rebinds
# the direct values of module-level dicts, so a mask nested deeper, or
# captured in a closure, would escape it.
STATISTICS = {
    "descent_linear": descent_mask,
    "descent_cyclic": cyclic_descent_mask,
    "peak_interior": peak_mask,
    "peak_left": left_peak_mask,
    "peak_right": right_peak_mask,
    "peak_exterior": exterior_peak_mask,
    "B_descent": b_descent_mask,
    "B_cyclic_descent": b_cyclic_descent_mask,
    "B_peak": b_peak_mask,
    "B_sign": sign_mask,
}


@dataclass(frozen=True)
class StatResult:
    """A position set together with its size, as one value."""

    mask: int

    @property
    def positions(self) -> tuple[int, ...]:
        return positions(self.mask)

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    def to_json(self) -> dict:
        return {"set": list(self.positions), "count": self.count}


def _stat(p: Perm, key: str, kind: str, what: str) -> StatResult:
    if key not in STATISTICS:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return StatResult(STATISTICS[key](p))


def descent_stat(p, kind: str = "linear") -> StatResult:
    """Descent set of a plain permutation ('linear' or 'cyclic')."""
    return _stat(validate_perm(p), f"descent_{kind}", kind, "descent")


def peak_stat(p, kind: str = "interior") -> StatResult:
    """Peak set of a plain permutation; kind selects which ends count."""
    return _stat(validate_perm(p), f"peak_{kind}", kind, "peak")


def signed_stat(p, kind: str = "descent") -> StatResult:
    """Statistic of a signed permutation.

    kind in {'descent', 'cyclic_descent', 'peak', 'sign'}.
    """
    return _stat(validate_perm(p, signed=True), f"B_{kind}", kind, "signed")


def symmetric_group(n: int, force: bool = False) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    check_limit("symmetric group iteration", n, SYMMETRIC_ITER_MAX, force)
    return itertools.permutations(range(1, n + 1))


def hyperoctahedral_group(n: int, force: bool = False) -> Iterator[Perm]:
    """All signed permutations of 1..n in lexicographic order."""
    check_limit("hyperoctahedral group iteration", n, HYPEROCT_ITER_MAX, force)

    def gen() -> Iterator[Perm]:
        for p in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((1, -1), repeat=n):
                yield tuple(s * v for s, v in zip(signs, p))

    return iter(sorted(gen()))


_GROUP_ALIASES = {
    "S": "S",
    "B": "B",
    "symmetric": "S",
    "hyperoctahedral": "B",
}


def group_name(group: str) -> str:
    """'S' or 'B' for any accepted spelling of the group's name."""
    try:
        return _GROUP_ALIASES[group]
    except KeyError:
        raise ValueError(f"unknown group {group!r}") from None


def iterate_group(group: str, n: int, force: bool = False) -> Iterator[Perm]:
    """All of S_n or B_n in lexicographic order, under the matching guard."""
    if group_name(group) == "S":
        return symmetric_group(n, force)
    return hyperoctahedral_group(n, force)


def special_elements(n: int) -> dict:
    """The decreasing element, the long cycle, and the append-n embedding."""

    def hat_n(p: Perm) -> Perm:
        if len(p) != n - 1:
            raise ValueError(f"hat at n={n} wants a permutation of size {n - 1}")
        return hat(p)

    return {"eta": eta(n), "omega": omega(n), "hat": hat_n}
