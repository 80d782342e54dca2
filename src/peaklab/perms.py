"""Permutations of [n], signed permutations of [+-n], and their statistics.

A plain permutation is a tuple of the values (pi(1), ..., pi(n)); a signed
permutation is the same tuple but with entries drawn from {-n..-1, 1..n}
with pairwise distinct absolute values.  One-line notation throughout, and
statistics are returned as StatResult so positions and counts travel
together.

Statistics are bitmasks, wrapped at the end.  Every peak set is one rule
on a descent mask D: a peak is a descent whose predecessor is not one,
D & ~(D << 1), kept in its flavor's range, and the right and exterior
flavors add n after a trailing ascent.  The type-B peak set is the left
rule on the B descent mask, which equals D on unsigned input.  STATISTICS
names every mask, a type-B name being B_ plus its type-A name; the other
layers read their masks from it, and they iterate S_n or B_n only
through iterate_group.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

from .limits import check_limit, memo, HYPEROCT_ITER_MAX, SYMMETRIC_ITER_MAX

Perm = tuple[int, ...]


def validate_perm(values, signed: bool = False) -> Perm:
    """Check one-line notation and return it as a tuple.

    Unsigned: the entries must be exactly 1..n.  Signed: absolute values
    must be exactly 1..n (each sign free).  Every entry must be an int
    itself: a float, a string or a bool is refused, never coerced.
    """
    p = tuple(values)
    if any(type(v) is not int for v in p):
        raise ValueError(f"permutation entries must be integers: {p}")
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
# peaks live in 1..n-1 (cyclic descents and right or exterior peaks may add
# n); signed descents live in 0..n-1 (cyclic may add n); signed peaks live
# in 1..n-1.


def descent_mask(p: Perm) -> int:
    m = 0
    for i in range(1, len(p)):
        if p[i - 1] > p[i]:
            m |= 1 << i
    return m


def cyclic_descent_mask(p: Perm) -> int:
    return descent_mask(p) | (bool(p) and p[-1] > p[0]) << len(p)


def sign_mask(p: Perm) -> int:
    """{0} when the first value is negative, else empty."""
    return 1 if (p and p[0] < 0) else 0


def b_descent_mask(p: Perm) -> int:
    """The Coxeter descent set in 0..n-1: 0 is a descent iff p(1) < 0."""
    return descent_mask(p) | sign_mask(p)


def b_cyclic_descent_mask(p: Perm) -> int:
    return b_descent_mask(p) | (bool(p) and p[-1] > 0) << len(p)


def _peaks(d: int, n: int, low: int, tail: int) -> int:
    """The peak rule on the descent mask d of a word of length n, kept at
    low and above; n is added after a trailing ascent when n >= tail > 0."""
    return d & ~(d << 1) & -(1 << low) | (0 < tail <= n and not d >> (n - 1) & 1) << n


def left_peak_mask(p: Perm) -> int:
    """Peaks in 1..n-1, read with p(0) = 0.  On the B descent mask, 1 is a
    peak only when 0 < p(1) > p(2), so this is also the type-B peak set."""
    return _peaks(b_descent_mask(p), len(p), 1, 0)


def peak_mask(p: Perm) -> int:
    """Interior peaks: strictly inside, 2..n-1."""
    return _peaks(descent_mask(p), len(p), 2, 0)


def right_peak_mask(p: Perm) -> int:
    """Position n may be a peak (the right sentinel is 0), 1 may not."""
    return _peaks(descent_mask(p), len(p), 2, 2)


def exterior_peak_mask(p: Perm) -> int:
    """Both ends allowed, with zero sentinels on both sides.  For n >= 2
    this is left | right; S_1's one element is a peak at 1 in neither."""
    return _peaks(descent_mask(p), len(p), 1, 1)


def positions(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


# name -> mask function.  Callers look masks up here at call time, and the
# values are the public *_mask functions themselves: bench/tracer.py rebinds
# the direct values of module-level dicts, so a mask nested deeper, or
# captured in a closure, would escape it.
STATISTICS = {
    "descent": descent_mask,
    "cyclic_descent": cyclic_descent_mask,
    "peak_interior": peak_mask,
    "peak_left": left_peak_mask,
    "peak_right": right_peak_mask,
    "peak_exterior": exterior_peak_mask,
    "B_descent": b_descent_mask,
    "B_cyclic_descent": b_cyclic_descent_mask,
    "B_peak": left_peak_mask,
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
    key = {"linear": "descent", "cyclic": "cyclic_descent"}.get(str(kind))
    return _stat(validate_perm(p), key, kind, "descent")


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
        yield from sorted(tuple(s * v for s, v in zip(signs, p))
                          for p in itertools.permutations(range(1, n + 1))
                          for signs in itertools.product((1, -1), repeat=n))

    return gen()


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


def iterate_group(group: str, n: int, force: bool = False) -> tuple[Perm, ...]:
    """All of S_n or B_n in lexicographic order, as one tuple per group and
    size shared by every caller.  The guard runs on every call, so a forced
    call never lifts it for a later unforced one.  An n that is not an int
    (a bool, a float) is refused, never coerced."""
    if type(n) is not int:
        raise ValueError(f"n must be an int, not {n!r}")
    group = group_name(group)
    elements = (symmetric_group if group == "S" else hyperoctahedral_group)(n, force)
    return memo("groups", (group, n), lambda: tuple(elements))
