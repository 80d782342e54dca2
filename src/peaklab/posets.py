"""Labeled posets, their signed-symmetric cousins, and the counting oracles.

The central objects are totally ordered image alphabets whose elements carry
a sign flag epsilon.  A map f from a labeled poset into such an alphabet is
admissible when, for every strict relation i <_P j,

    f(i) <  f(j),             or
    f(i) == f(j)  with  epsilon == +  if i < j as integers,
                        epsilon == -  if i > j as integers.

With an all-plus alphabet this is the classical weak/strict rule, so one
comparator drives both the ordinary and the enriched counts.  A
sign-symmetric alphabet is one flag, Alphabet.signed.  The unsigned
poset on 1..n and the sign-symmetric one on -n..n share one order type
(_Order), and the unsigned case is the one with no sign symmetry: one
backtracking enumerator (_assignments) serves both, with f(-i) and f(0)
implied for a signed poset.  Chains get a linear-time scan with prefix
sums instead.  These enumerators are deliberately naive in structure: they
are the oracle that every closed formula in the package is tested against.

A chain's enumerator is a function of its up/down word (chain_word): the
admissibility rule compares two labels only to pick the sign flag a tie
needs.  For a permutation chain the word is its descent set, and for an
anchored signed chain it is the Coxeter descent set of type B, with
position 0 a descent iff pi(1) < 0.  So a sweep over a group scans each
word once, at the first element that has it.

Each image set is listed once as its letters bottom-up, a sign-symmetric
one as its positive half mirrored below 0:

>>> enriched_alphabet(2).labels
('-1', '1', '-2', '2')
>>> b_enriched_alphabet(1).labels
('-1', "-1'", '0', "1'", '1')
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Sequence

from .exact import MultiPoly
from .limits import IMAGE_SET_MAX_K, LINEXT_MAX, POSET_ORACLE_MAX_N, check_limit, memo
from .perms import Perm, validate_perm


@dataclass(frozen=True)
class Alphabet:
    """A finite totally ordered image set with sign flags and variable slots.

    slots are implicit: element i is the i-th smallest.  eps[i] is its sign
    flag, exps[i] the exponent vector it contributes in monomial mode (over
    `arity` variables), labels[i] a display string.  mags[i] is the
    magnitude used for support bookkeeping, None for product alphabets.

    signed marks a sign-symmetric alphabet.  The only order-reversing
    involution of a chain is full reversal, so neg (each element's
    negation) and zero (the self-negative middle) derive from the size;
    both are None when signed is False.
    """

    name: str
    eps: tuple[int, ...]
    arity: int
    exps: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    mags: tuple[int, ...] | None = None
    signed: bool = False

    def __post_init__(self):
        mags = self.eps if self.mags is None else self.mags
        if {len(self.exps), len(self.labels), len(mags)} != {self.size}:
            raise ValueError("slot arrays disagree in length")
        if set(map(len, self.exps)) - {self.arity}:
            raise ValueError(f"an exponent vector needs {self.arity} entries")
        if self.signed and (self.size % 2 == 0 or self.eps != self.eps[::-1]):
            raise ValueError("a sign-symmetric alphabet needs a central zero and mirrored flags")

    @property
    def size(self) -> int:
        return len(self.eps)

    @property
    def neg(self) -> tuple[int, ...] | None:
        return tuple(range(self.size - 1, -1, -1)) if self.signed else None

    @property
    def zero(self) -> int | None:
        return self.size // 2 if self.signed else None

    def le(self, a: int, b: int, need: int) -> bool:
        """a before b, with ties broken by the sign flag `need`."""
        return a < b or (a == b and self.eps[a] == need)


def _alphabet(name: str, letters, signed: bool = False) -> Alphabet:
    """The alphabet of `letters`, (label, flag, magnitude) bottom-up.  Each
    letter contributes the unit vector at its magnitude, one tuple shared
    by the letters of that magnitude."""
    labels, eps, mags = tuple(zip(*letters)) or ((), (), ())
    arity = 1 + max(mags, default=0)
    units = [(0,) * m + (1,) + (0,) * (arity - 1 - m) for m in range(arity)]
    return Alphabet(name, eps, arity, tuple(units[m] for m in mags), labels, mags, signed)


def _mirrored(name: str, half) -> Alphabet:
    """The sign-symmetric alphabet with the letters `half` above 0: negation
    reverses the order, so below 0 sit the same letters reversed, each
    label negated."""
    below = [(f"-{label}", flag, mag) for label, flag, mag in reversed(half)]
    return _alphabet(name, [*below, ("0", 1, 0), *half], signed=True)


def _enriched(k: int) -> list[tuple[str, int, int]]:
    """-1 < 1 < ... < -k < k; the flag of -m is -, of m is +."""
    return [(str(e * m), e, m) for m in range(1, k + 1) for e in (-1, 1)]


def ordinary_alphabet(k: int) -> Alphabet:
    """The chain 1 < 2 < ... < k, all flags +."""
    return _alphabet(f"ordinary[{k}]", [(str(m), 1, m) for m in range(1, k + 1)])


def ordinary_b_alphabet(k: int) -> Alphabet:
    """The chain -k < ... < 0 < ... < k, all flags +, sign-symmetric."""
    return _mirrored(f"ordinaryB[{k}]", [(str(m), 1, m) for m in range(1, k + 1)])


def enriched_alphabet(k: int) -> Alphabet:
    """-1 < 1 < -2 < 2 < ... < -k < k; the flag of -m is -, of m is +."""
    return _alphabet(f"enriched[{k}]", _enriched(k))


def left_enriched_alphabet(k: int) -> Alphabet:
    """0 < -1 < 1 < ... < -k < k, with the flag of 0 forced to +."""
    return _alphabet(f"left_enriched[{k}]", [("0", 1, 0), *_enriched(k)])


def right_enriched_alphabet(k: int) -> Alphabet:
    """-1 < 1 < ... < -k < k < -(k+1): one extra minus-flagged top element."""
    return _alphabet(f"right_enriched[{k}]", [*_enriched(k), (str(-k - 1), -1, k + 1)])


def exterior_enriched_alphabet(k: int) -> Alphabet:
    """0 < -1 < 1 < ... < -(k-1) < k-1 < -k; empty when k = 0."""
    letters = [("0", 1, 0), *_enriched(k - 1), (str(-k), -1, k)] if k else []
    return _alphabet(f"exterior_enriched[{k}]", letters)


def b_enriched_alphabet(k: int) -> Alphabet:
    """-k < -k' < ... < -1 < -1' < 0 < 1' < 1 < ... < k' < k.

    m' denotes the minus-flagged copy of m; negation sends m' to (-m)' and
    m to -m, so it preserves flags while reversing the order.
    """
    half = [(f"{m}'" if e < 0 else str(m), e, m) for m in range(1, k + 1) for e in (-1, 1)]
    return _mirrored(f"B_enriched[{k}]", half)


IMAGE_SET_KINDS = {
    "ordinary": ordinary_alphabet,
    "ordinaryB": ordinary_b_alphabet,
    "enriched": enriched_alphabet,
    "left_enriched": left_enriched_alphabet,
    "right_enriched": right_enriched_alphabet,
    "exterior_enriched": exterior_enriched_alphabet,
    "B_enriched": b_enriched_alphabet,
}


def shared_alphabet(builder, k: int) -> Alphabet:
    """builder(k), built once per (builder, k) and shared by every caller;
    an Alphabet is frozen, so sharing one is safe."""
    return memo("alphabets", (builder, k), lambda: builder(k))


@dataclass(frozen=True)
class ImageSetSpec:
    """Which alphabet family, at which size parameter k."""

    kind: str
    k: int

    def __post_init__(self):
        if self.kind not in IMAGE_SET_KINDS:
            raise ValueError(f"unknown image-set kind {self.kind!r}")
        if self.k < 0:
            raise ValueError("k must be nonnegative")

    def alphabet(self) -> Alphabet:
        return IMAGE_SET_KINDS[self.kind](self.k)


def product_alphabet(first: Alphabet, second: Alphabet, mode: str) -> Alphabet:
    """Pair alphabet in the up-down or lexicographic order.

    up-down: pairs sorted by the first coordinate, the second rising when
    the first coordinate's flag is + and falling when it is -; the pair's
    flag is the product of the two.  lex: second coordinate always rising,
    pair flag taken from the second coordinate.  The product of two
    sign-symmetric alphabets is sign-symmetric: negating both coordinates
    reverses the pair order in either mode.
    """
    if mode not in ("updown", "lex"):
        raise ValueError(f"unknown product mode {mode!r}")
    pairs: list[tuple[int, int]] = []
    for a in range(first.size):
        rng = range(second.size)
        if mode == "updown" and first.eps[a] < 0:
            rng = reversed(rng)
        pairs.extend((a, b) for b in rng)
    arity = first.arity + second.arity
    eps, exps, labels = [], [], []
    for a, b in pairs:
        if mode == "updown":
            eps.append(first.eps[a] * second.eps[b])
        else:
            eps.append(second.eps[b])
        exps.append(first.exps[a] + second.exps[b])
        labels.append(f"({first.labels[a]},{second.labels[b]})")
    return Alphabet(
        name=f"{first.name}x{second.name}:{mode}",
        eps=tuple(eps),
        arity=arity,
        exps=tuple(exps),
        labels=tuple(labels),
        signed=first.signed and second.signed,
    )


# --- chains ------------------------------------------------------------------


def chain_word(labels: Sequence[int], anchored: bool = False) -> tuple[int, ...]:
    """The up/down word of the chain labels[0] <_P labels[1] <_P ...: one
    letter per step, 1 where the labels rise and -1 where they fall.  An
    anchored chain steps up from the virtual label 0 first.  For a
    permutation the -1 letters mark Des(pi); anchored, they mark its type-B
    descent set, whose position 0 is a descent iff pi(1) < 0."""
    seq = (0, *labels) if anchored else tuple(labels)
    return tuple(1 if a < b else -1 for a, b in zip(seq, seq[1:]))


def chain_weight_sum(
    alphabet: Alphabet,
    labels: Sequence[int],
    anchored: bool = False,
    mode: str = "count",
):
    """Admissible maps from the chain labels[0] <_P labels[1] <_P ... .

    anchored pins a virtual bottom element labeled 0 to the alphabet's zero;
    this is how sign-symmetric chains reduce to their positive half.  mode
    'count' returns an integer, 'poly' the sum of exponent monomials.  The
    labels are read only through chain_word, so two chains of one length
    with one word have one enumerator.

    The scan keeps, per letter, the weight of the maps whose last element
    sits on that letter; the next element sits strictly higher, or on the
    same letter when its flag allows the step.  In poly mode a weight is a
    dict from Kronecker-packed exponents (slot i is the digit of base**i)
    to integer counts, so multiplying by a letter's monomial is one integer
    shift; the base exceeds every slot's largest possible degree, so no
    digit carries, and the keys are unpacked once at the end.
    """
    if mode not in ("count", "poly"):
        raise ValueError(f"unknown mode {mode!r}")
    if anchored and not alphabet.signed:
        raise ValueError("anchored chain needs a zero element")
    poly = mode == "poly"
    if not anchored and not labels:
        return MultiPoly.constant(alphabet.arity, 1) if poly else 1
    size, eps = alphabet.size, alphabet.eps
    word = chain_word(labels, anchored)

    if not poly:
        if anchored:
            state = [0] * size
            state[alphabet.zero] = 1
        else:
            state = [1] * size
        for need in word:
            run = 0
            new = []
            for j in range(size):
                new.append(run + state[j] if eps[j] == need else run)
                run += state[j]
            state = new
        return sum(state)

    base = len(labels) * max((max(e) for e in alphabet.exps), default=0) + 1
    places = [base**i for i in range(alphabet.arity)]
    shifts = [sum(d * p for d, p in zip(e, places)) for e in alphabet.exps]
    if anchored:
        state = [{} for _ in range(size)]
        state[alphabet.zero] = {0: 1}
    else:
        state = [{w: 1} for w in shifts]
    for need in word:
        run: dict[int, int] = {}
        new = []
        for j in range(size):
            w = shifts[j]
            # run holds the letters below j; it takes in letter j itself
            # before the shift when the flag allows staying on j
            if eps[j] != need:
                new.append({k + w: c for k, c in run.items()})
            for k, c in state[j].items():
                run[k] = run.get(k, 0) + c
            if eps[j] == need:
                new.append({k + w: c for k, c in run.items()})
        state = new
    total: dict[int, int] = {}
    for here in state:
        for k, c in here.items():
            total[k] = total.get(k, 0) + c
    # positive int counts under distinct full-length keys: already normal
    return MultiPoly._trusted(alphabet.arity,
                              {tuple(k // p % base for p in places): c for k, c in total.items()})


# --- posets ------------------------------------------------------------------


class _Order:
    """A strict order on the labels lo..lo+len(lt)-1, stored transitively
    closed as bit rows: lt[i] bit j set <=> label i+lo < label j+lo.  A
    signed order also has rows for 0 and -n..-1, so B_0 reads as signed."""

    __slots__ = ("n", "lt", "lo", "signed")

    def __init__(self, n: int, lt: tuple[int, ...]):
        self.n = n
        self.lt = lt
        self.signed = len(lt) != n
        self.lo = -n if self.signed else 1

    @classmethod
    def from_covers(cls, n: int, covers: Sequence[Sequence[int]]):
        """The transitive closure of `covers`; a signed order adds each
        cover's mirror (-b, -a) before closing.  A cycle is a ValueError."""
        signed = issubclass(cls, BPoset)
        lo = -n if signed else 1
        lt = [0] * (n + 1 - lo)
        for a, b in covers:
            if not (lo <= a <= n and lo <= b <= n) or a == b:
                raise ValueError(f"bad cover relation ({a},{b})")
            lt[a - lo] |= 1 << (b - lo)
            if signed:
                lt[-b - lo] |= 1 << (-a - lo)
        for k, row in enumerate(lt):  # Warshall
            for i in range(len(lt)):
                if lt[i] >> k & 1:
                    lt[i] |= row
        if any(row >> i & 1 for i, row in enumerate(lt)):
            raise ValueError("relation has a cycle")
        p = cls(n, tuple(lt))
        if signed and not all(p.less(-b, -a) for a, b in p.relations()):
            raise AssertionError("sign symmetry broken after closure")
        return p

    def less(self, a: int, b: int) -> bool:
        return bool(self.lt[a - self.lo] >> (b - self.lo) & 1)

    def relations(self) -> Iterator[tuple[int, int]]:
        for i, m in enumerate(self.lt):
            while m:
                j = (m & -m).bit_length() - 1
                yield (i + self.lo, j + self.lo)
                m &= m - 1

    def relation_count(self) -> int:
        return sum(m.bit_count() for m in self.lt)

    def chain_sequence(self) -> tuple[int, ...] | None:
        """The labels 1..n bottom-up if this is a total order, else None; a
        signed total order is symmetric about 0, so its top n labels."""
        size = len(self.lt)
        if self.relation_count() != size * (size - 1) // 2:
            return None
        labels = range(self.lo, self.lo + size)
        order = sorted(labels, key=lambda v: -self.lt[v - self.lo].bit_count())
        return tuple(order[size - self.n :])

    def linear_extensions(self, force: bool = False) -> list[Perm]:
        """All (signed) permutations pi, lexicographically, whose induced
        total order refines this one.

        pi induces pi(1) < ... < pi(n), and a signed pi induces
        -pi(n) < ... < -pi(1) < 0 < pi(1) < ... < pi(n).  The backtracker
        places pi(s) above, and -pi(s) below, every label placed so far,
        so it may place v only while none of v's successors has a place.
        """
        if self.signed:
            check_limit("signed linear extensions", self.n, LINEXT_MAX["B"], force)
        else:
            check_limit("linear extensions", self.n, LINEXT_MAX["A"], force)
        lo, lt = self.lo, self.lt
        candidates = []
        for v in range(lo, lo + len(lt)):
            bits = 1 << (v - lo) | (1 << (-v - lo) if self.signed else 0)
            if v and not lt[v - lo] & bits:  # v < -v never places v
                candidates.append((v, bits, bits | lt[v - lo]))
        out: list[Perm] = []
        seq: list[int] = []

        def rec(placed: int):
            if len(seq) == self.n:
                out.append(tuple(seq))
                return
            for v, bits, blocked in candidates:
                if not placed & blocked:
                    seq.append(v)
                    rec(placed | bits)
                    seq.pop()

        rec(1 << -lo if self.signed else 0)  # label 0 sits in the middle
        return out

    def __repr__(self) -> str:
        rels = ", ".join(f"{a}<{b}" for a, b in self.relations())
        return f"{type(self).__name__}(n={self.n}, {{{rels}}})"


class Poset(_Order):
    """Strict partial order on the labels 1..n, stored transitively closed."""

    __slots__ = ()


class BPoset(_Order):
    """Strict partial order on {-n..n} with i <_P j forcing -j <_P -i.

    Cover input is given on any mix of signed labels (0 allowed); the
    mirror relations are added automatically before closing.
    """

    __slots__ = ()


def zigzag_poset(pi, positions, signed: bool | None = None):
    """Chain-shaped poset on the values of pi, bent at the given positions.

    Consecutive values satisfy pi(s) <_P pi(s+1) unless s is listed, in
    which case the relation flips.  The signed variant allows position 0,
    compares against the virtual pi(0) = 0, and closes under the sign
    symmetry.  With signed=None the variant is inferred from the entries
    and from whether 0 is listed.
    """
    ps = set(positions)
    if any(type(s) is not int for s in ps):
        raise ValueError(f"positions must be integers: {positions!r}")
    # every permutation passes the signed check, so inference reads valid entries
    pi = validate_perm(pi, signed=signed is not False)
    if signed is None:
        signed = 0 in ps or any(v < 0 for v in pi)
    n, first = len(pi), 0 if signed else 1
    if not ps <= set(range(first, n)):
        raise ValueError(f"positions must lie in {first}..n-1")
    seq = (0, *pi)
    covers = [(seq[s + 1], seq[s]) if s in ps else (seq[s], seq[s + 1]) for s in range(first, n)]
    return (BPoset if signed else Poset).from_covers(n, covers)


def chain_poset(pi, signed: bool | None = None):
    """The total order pi(1) <_P ... <_P pi(n) (signed: anchored below by 0)."""
    return zigzag_poset(pi, (), signed=signed)


# --- generic enumeration ------------------------------------------------------


def _assignments(P: _Order, alphabet: Alphabet) -> Iterator[tuple[int, ...]]:
    """All admissible slot assignments, recorded on the representatives
    1..n as tuples indexed by label-1.

    Slots live in one array indexed by label+n; a signed poset implies
    f(-i) = neg f(i) and f(0) = zero.  The next representative placed is
    the smallest one whose lower labels' representatives are all placed,
    else the smallest left; for an unsigned poset that is the first linear
    extension, so every check looks backwards.  Only cover relations are
    checked, each when the later of its ends is placed: the comparator is
    transitive along a chain of covers, so the implied relations hold too.
    A signed cover is checked once per mirror pair (a, b), (-b, -a): neg
    reverses the alphabet and keeps its flags, so the two agree.
    """
    n, lo = P.n, P.lo
    labels = range(lo, lo + len(P.lt))
    below = {v: {abs(a) for a, b in P.relations() if b == v} - {0, v} for v in range(1, n + 1)}
    order: list[int] = []
    while len(order) < n:
        left = [v for v in range(1, n + 1) if v not in order]
        order.append(next((v for v in left if below[v] <= set(order)), left[0]))
    step = {0: -1}
    for s, v in enumerate(order):
        step[v] = step[-v] = s
    signed = P.signed
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for a, b in P.relations():
        if signed and (-b, -a) < (a, b):
            continue  # its mirror (-b, -a) is the same check at the same step
        if not any(P.less(a, c) and P.less(c, b) for c in labels):
            checks[max(step[a], step[b])].append((a + n, b + n, 1 if a < b else -1))
    f = [0] * (2 * n + 1)
    if signed:
        f[n] = alphabet.zero
    size, le, neg = alphabet.size, alphabet.le, alphabet.neg

    def rec(s: int) -> Iterator[tuple[int, ...]]:
        if s == n:
            yield tuple(f[n + 1 :])
            return
        v = order[s] + n
        for x in range(size):
            f[v] = x
            if signed:
                f[2 * n - v] = neg[x]
            for a, b, need in checks[s]:
                if not le(f[a], f[b], need):
                    break
            else:
                yield from rec(s + 1)

    yield from rec(0)


def count_partitions(P, spec: ImageSetSpec, force: bool = False) -> int:
    """Number of admissible maps from P into the alphabet spec describes.

    The universal oracle: backtracking for general posets, a prefix-sum
    scan for chains.  Guarded by default at n <= 6, k <= 5.
    """
    check_limit("partition oracle size", P.n, POSET_ORACLE_MAX_N, force)
    check_limit("partition oracle alphabet", spec.k, IMAGE_SET_MAX_K, force)
    alphabet = spec.alphabet()
    if P.signed != alphabet.signed:
        raise ValueError(f"{spec.kind} does not apply to {type(P).__name__}")
    seq = P.chain_sequence()
    if seq is not None:
        return chain_weight_sum(alphabet, seq, anchored=P.signed, mode="count")
    return sum(1 for _ in _assignments(P, alphabet))


def support_counts(P: Poset, spec: ImageSetSpec, force: bool = False) -> tuple[list, list]:
    """Bucket enriched maps by which magnitudes they hit.

    Returns (c, c0) with c[l-1] the number of maps whose magnitude support
    is exactly {1..l} (l = 1..n) and c0[l] the number with support exactly
    {0..l} (l = 0..n-1).  Binomially weighted sums over these reproduce the
    interior and left counts at every k, which is how the caller uses them.
    """
    if spec.kind not in ("enriched", "left_enriched"):
        raise ValueError("support counting is defined for the enriched kinds")
    if P.signed:
        raise ValueError(f"{spec.kind} does not apply to BPoset")
    if spec.k < P.n:
        raise ValueError("need k >= n so every support pattern can occur")
    check_limit("partition oracle size", P.n, POSET_ORACLE_MAX_N, force)
    check_limit("partition oracle alphabet", spec.k, IMAGE_SET_MAX_K, force)
    alphabet = left_enriched_alphabet(spec.k)
    n = P.n
    c = [0] * n
    c0 = [0] * n
    for assign in _assignments(P, alphabet):
        mags = {alphabet.mags[s] for s in assign}
        top = max(mags, default=0)
        if 0 in mags:
            if mags == set(range(0, top + 1)) and top <= n - 1:
                c0[top] += 1
        else:
            if mags == set(range(1, top + 1)) and 1 <= top <= n:
                c[top - 1] += 1
    return c, c0


def partition_monomials(P, spec_or_alphabet, force: bool = False) -> MultiPoly:
    """Sum of exponent monomials over all admissible maps.

    Accepts an ImageSetSpec or a bare Alphabet (the latter for product
    alphabets, which no spec kind names).
    """
    if isinstance(spec_or_alphabet, ImageSetSpec):
        alphabet = spec_or_alphabet.alphabet()
        check_limit("partition oracle alphabet", spec_or_alphabet.k, IMAGE_SET_MAX_K, force)
    else:
        alphabet = spec_or_alphabet
    check_limit("partition oracle size", P.n, POSET_ORACLE_MAX_N, force)
    if P.signed and not alphabet.signed:
        raise ValueError("signed poset needs a sign-symmetric alphabet")
    seq = P.chain_sequence()
    if seq is not None:
        return chain_weight_sum(alphabet, seq, anchored=P.signed, mode="poly")
    out = MultiPoly.zero(alphabet.arity)
    for assign in _assignments(P, alphabet):
        exps = [0] * alphabet.arity
        for s in assign:
            for i, e in enumerate(alphabet.exps[s]):
                exps[i] += e
        out = out + MultiPoly.monomial(alphabet.arity, exps)
    return out
