"""Alphabets, chains, posets, and the brute-force partition oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from peaklab import (
    Alphabet,
    BPoset,
    ImageSetSpec,
    Poset,
    ResourceLimitError,
    chain_poset,
    chain_weight_sum,
    count_partitions,
    zigzag_poset,
)
from peaklab.exact import MultiPoly
from peaklab.perms import STATISTICS, iterate_group
from peaklab.posets import (
    IMAGE_SET_KINDS,
    b_enriched_alphabet,
    chain_word,
    enriched_alphabet,
    exterior_enriched_alphabet,
    left_enriched_alphabet,
    ordinary_alphabet,
    ordinary_b_alphabet,
    partition_monomials,
    product_alphabet,
    right_enriched_alphabet,
    support_counts,
)
from peaklab.qsym import _BIPARTITE


# --- alphabets -----------------------------------------------------------------


def test_alphabet_shapes():
    a = ordinary_alphabet(3)
    assert a.size == 3 and a.eps == (1, 1, 1) and a.arity == 4
    assert a.mags == (1, 2, 3) and a.neg is None

    b = ordinary_b_alphabet(1)
    assert b.labels == ("-1", "0", "1")
    assert b.neg == (2, 1, 0) and b.zero == 1
    assert b.exps[0] == b.exps[2]  # -1 and 1 share a variable

    e = enriched_alphabet(2)
    assert e.labels == ("-1", "1", "-2", "2")
    assert e.eps == (-1, 1, -1, 1)
    assert e.mags == (1, 1, 2, 2)

    le = left_enriched_alphabet(1)
    assert le.labels == ("0", "-1", "1") and le.eps == (1, -1, 1)

    re_ = right_enriched_alphabet(1)
    assert re_.labels == ("-1", "1", "-2") and re_.eps == (-1, 1, -1)
    assert re_.arity == 3 and re_.mags == (1, 1, 2)

    x = exterior_enriched_alphabet(2)
    assert x.labels == ("0", "-1", "1", "-2")
    assert x.eps == (1, -1, 1, -1) and x.mags == (0, 1, 1, 2)
    assert exterior_enriched_alphabet(0).size == 0


def test_b_enriched_alphabet_symmetry():
    a = b_enriched_alphabet(2)
    assert a.size == 9 and a.zero == 4
    assert a.labels == ("-2", "-2'", "-1", "-1'", "0", "1'", "1", "2'", "2")
    for i in range(a.size):
        assert a.neg[a.neg[i]] == i
        assert a.eps[a.neg[i]] == a.eps[i]
    # primed copies carry the minus flag
    assert all((a.eps[i] < 0) == a.labels[i].endswith("'") for i in range(a.size) if a.labels[i] != "0")


def _negate(label: str) -> str:
    """-m for m, (-m)' for m', 0 for 0, read off the label alone."""
    if label == "0":
        return label
    if label.endswith("'"):
        return f"{-int(label[:-1])}'"
    return str(-int(label))


@pytest.mark.parametrize("builder", [ordinary_b_alphabet, b_enriched_alphabet])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_signed_alphabet_negates_by_reversal(builder, k):
    a = builder(k)
    assert a.signed and a.labels[a.zero] == "0"
    for i in range(a.size):
        assert a.labels[a.size - 1 - i] == _negate(a.labels[i])
        assert a.labels[a.neg[i]] == _negate(a.labels[i])
        assert a.eps[a.neg[i]] == a.eps[i]


@pytest.mark.parametrize("mode", ["updown", "lex"])
def test_signed_product_alphabet_negates_by_reversal(mode):
    # negating both coordinates of a pair gives the pair in the mirrored slot
    for first, second in itertools.product([ordinary_b_alphabet, b_enriched_alphabet], repeat=2):
        for k, j in itertools.product(range(4), repeat=2):
            p = product_alphabet(first(k), second(j), mode)
            assert p.signed and p.labels[p.zero] == "(0,0)"
            for i in range(p.size):
                a, b = p.labels[i][1:-1].split(",")
                assert p.labels[p.size - 1 - i] == f"({_negate(a)},{_negate(b)})"
                assert p.eps[p.size - 1 - i] == p.eps[i]
    assert not product_alphabet(ordinary_b_alphabet(1), enriched_alphabet(1), mode).signed


def _listed_letters(kind: str, k: int) -> list[tuple[str, int, int]]:
    """(label, flag, magnitude) bottom-up, in the order the builder's
    docstring lists them."""
    letters = []
    if kind == "ordinary":
        for m in range(1, k + 1):
            letters.append((str(m), 1, m))
    elif kind == "ordinaryB":
        for v in range(-k, k + 1):
            letters.append((str(v), 1, abs(v)))
    elif kind == "B_enriched":
        for v in range(-k, k + 1):
            if v < 0:
                letters += [(str(v), 1, -v), (f"{v}'", -1, -v)]
            elif v == 0:
                letters.append(("0", 1, 0))
            else:
                letters += [(f"{v}'", -1, v), (str(v), 1, v)]
    elif kind == "exterior_enriched":
        if k > 0:
            letters = _listed_letters("left_enriched", k - 1) + [(str(-k), -1, k)]
    else:
        if kind == "left_enriched":
            letters.append(("0", 1, 0))
        for m in range(1, k + 1):
            letters += [(str(-m), -1, m), (str(m), 1, m)]
        if kind == "right_enriched":
            letters.append((str(-(k + 1)), -1, k + 1))
    return letters


@pytest.mark.parametrize("kind", sorted(IMAGE_SET_KINDS))
@pytest.mark.parametrize("k", range(7))
def test_image_sets_list_their_letters(kind, k):
    a = IMAGE_SET_KINDS[kind](k)
    letters = _listed_letters(kind, k)
    assert a.labels == tuple(label for label, _, _ in letters)
    assert a.eps == tuple(flag for _, flag, _ in letters)
    assert a.mags == tuple(mag for _, _, mag in letters)
    assert a.arity == 1 + max(a.mags, default=0)
    for exp, mag in zip(a.exps, a.mags, strict=True):
        assert exp == tuple(int(i == mag) for i in range(a.arity))
    assert a.signed == (kind in ("ordinaryB", "B_enriched"))
    if a.signed:
        half = a.size // 2
        assert a.labels == (*(f"-{label}" for label in reversed(a.labels[half + 1:])), "0",
                            *a.labels[half + 1:])


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("bad", (1, 1), 1, ((0,), (0,)), ("a", "b"), signed=True)
    with pytest.raises(ValueError):
        Alphabet("bad", (1, 1, -1), 1, ((0,),) * 3, ("a", "b", "c"), signed=True)
    with pytest.raises(ValueError):
        Alphabet("bad", (1,), 1, ((0,), (0,)), ("a",))
    with pytest.raises(ValueError, match="exponent vector"):
        Alphabet("bad", (1, 1), 2, ((0, 1, 0), (0, 0, 1)), ("a", "b"))
    with pytest.raises(ValueError, match="disagree"):
        Alphabet("bad", (1,), 2, ((0, 1),), ("a",), mags=(1, 2))
    with pytest.raises(ValueError):
        ImageSetSpec("no_such_kind", 1)
    with pytest.raises(ValueError):
        ImageSetSpec("ordinary", -1)


def test_le_tie_break():
    e = enriched_alphabet(1)  # eps (-1, 1)
    assert e.le(0, 1, 1) and e.le(0, 1, -1)
    assert not e.le(1, 0, 1) and not e.le(1, 0, -1)
    assert e.le(0, 0, -1) and not e.le(0, 0, 1)
    assert e.le(1, 1, 1) and not e.le(1, 1, -1)


def test_product_alphabet_updown():
    p = product_alphabet(enriched_alphabet(1), enriched_alphabet(1), "updown")
    # minus rows are traversed backwards, so flags alternate like one
    # enriched alphabet of twice the size
    assert p.labels == ("(-1,1)", "(-1,-1)", "(1,-1)", "(1,1)")
    assert p.eps == (-1, 1, -1, 1)
    assert p.arity == 4 and p.neg is None


def test_product_alphabet_lex_and_negation():
    p = product_alphabet(ordinary_alphabet(2), ordinary_alphabet(1), "lex")
    assert p.labels == ("(1,1)", "(2,1)") and p.eps == (1, 1)
    q = product_alphabet(ordinary_b_alphabet(1), ordinary_b_alphabet(1), "lex")
    assert q.neg is not None and q.labels[q.zero] == "(0,0)"
    with pytest.raises(ValueError):
        product_alphabet(ordinary_alphabet(1), ordinary_alphabet(1), "zigzag")


# --- chain weights ---------------------------------------------------------------


def brute_chain_count(alphabet, labels, anchored):
    """Direct enumeration of admissible assignments along one chain."""
    total = 0
    for assign in itertools.product(range(alphabet.size), repeat=len(labels)):
        if anchored:
            prev_lab, prev_slot = 0, alphabet.zero
        else:
            prev_lab = prev_slot = None
        ok = True
        for lab, slot in zip(labels, assign):
            if prev_lab is not None:
                need = 1 if prev_lab < lab else -1
                if not alphabet.le(prev_slot, slot, need):
                    ok = False
                    break
            prev_lab, prev_slot = lab, slot
        total += ok
    return total


@given(
    kind=st.sampled_from(sorted(IMAGE_SET_KINDS)),
    k=st.integers(1, 2),
    labels=st.lists(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), unique=True, max_size=4),
)
@settings(deadline=None, max_examples=120)
def test_chain_weight_sum_matches_brute_force(kind, k, labels):
    alphabet = IMAGE_SET_KINDS[kind](k)
    anchored = kind in ("ordinaryB", "B_enriched")
    got = chain_weight_sum(alphabet, labels, anchored=anchored)
    assert got == brute_chain_count(alphabet, labels, anchored)
    poly = chain_weight_sum(alphabet, labels, anchored=anchored, mode="poly")
    assert poly.eval_all_ones() == got


def test_chain_weight_sum_edges():
    assert chain_weight_sum(ordinary_alphabet(3), ()) == 1
    assert chain_weight_sum(ordinary_b_alphabet(2), (), anchored=True) == 1
    with pytest.raises(ValueError):
        chain_weight_sum(ordinary_alphabet(2), (1,), anchored=True)
    with pytest.raises(ValueError):
        chain_weight_sum(ordinary_alphabet(2), (1,), mode="table")


def _chain_sum_by_multipoly(alphabet, labels, anchored):
    """The chain scan with MultiPoly weights, as the mode-generic loop ran
    it before poly mode moved to packed integer exponents."""
    arity = alphabet.arity
    weights = [MultiPoly.monomial(arity, e) for e in alphabet.exps]
    zero = MultiPoly.zero(arity)
    if anchored:
        state = [zero] * alphabet.size
        state[alphabet.zero] = MultiPoly.constant(arity, 1)
        prev, todo = 0, list(labels)
    else:
        if not labels:
            return MultiPoly.constant(arity, 1)
        state, prev, todo = list(weights), labels[0], list(labels[1:])
    for lab in todo:
        need = 1 if prev < lab else -1
        run, new = zero, []
        for j in range(alphabet.size):
            stay = state[j] if alphabet.eps[j] == need else zero
            new.append(weights[j] * (run + stay))
            run = run + state[j]
        state, prev = new, lab
    total = zero
    for s in state:
        total = total + s
    return total


_CHAIN_ALPHABETS = [
    *(build(k) for build in (ordinary_alphabet, enriched_alphabet, left_enriched_alphabet,
                             right_enriched_alphabet, exterior_enriched_alphabet,
                             ordinary_b_alphabet, b_enriched_alphabet) for k in (1, 2)),
    exterior_enriched_alphabet(0),
    *(product_alphabet(first, second, mode) for mode in ("lex", "updown")
      for first, second in ((ordinary_alphabet(1), enriched_alphabet(2)),
                            (left_enriched_alphabet(1), right_enriched_alphabet(1)),
                            (enriched_alphabet(2), left_enriched_alphabet(2)),
                            (b_enriched_alphabet(1), ordinary_b_alphabet(1)))),
]


@pytest.mark.parametrize("alphabet", _CHAIN_ALPHABETS, ids=lambda a: a.name)
def test_packed_chain_sum_matches_the_multipoly_scan(alphabet):
    chains = [(p, False) for n in range(1, 5) for p in iterate_group("S", n)]
    chains += [(p, False) for n in range(1, 4) for p in iterate_group("B", n)]
    if alphabet.zero is not None:
        chains += [(p, True) for n in range(1, 4) for p in iterate_group("B", n)]
        chains.append(((), True))
    chains.append(((), False))
    for labels, anchored in chains:
        got = chain_weight_sum(alphabet, labels, anchored=anchored, mode="poly")
        assert got == _chain_sum_by_multipoly(alphabet, labels, anchored), (labels, anchored)
        count = chain_weight_sum(alphabet, labels, anchored=anchored)
        assert got.eval_all_ones() == count, (labels, anchored)


def test_packed_chain_sum_reaches_the_chain_length_in_one_slot():
    # all six elements on the single letter: z_1^6, the largest digit the
    # packing has to hold without a carry
    labels = iterate_group("S", 6)[0]
    got = chain_weight_sum(ordinary_alphabet(1), labels, mode="poly")
    assert got == MultiPoly.monomial(2, (0, 6))
    assert got == _chain_sum_by_multipoly(ordinary_alphabet(1), labels, False)
    two = product_alphabet(ordinary_alphabet(1), ordinary_alphabet(1), "lex")
    assert chain_weight_sum(two, labels, mode="poly") == MultiPoly.monomial(4, (0, 6, 0, 6))


# (exponent tuple, letter exponents) -> their sum, shared by every scan below
_MOVED: dict = {}


def _chain_sum_by_labels(alphabet, labels, anchored, poly):
    """The per-element chain scan: it compares the labels themselves, with
    tuple-keyed exponent dicts (poly) or ints (count) as weights."""
    size, eps, exps = alphabet.size, alphabet.eps, alphabet.exps
    if not poly:
        state = [0] * size if anchored else [1] * size
        if anchored:
            state[alphabet.zero] = 1
        prev = 0 if anchored else labels[0]
        for lab in labels[0 if anchored else 1:]:
            need = 1 if prev < lab else -1
            run, new = 0, []
            for j in range(size):
                new.append(run + state[j] if eps[j] == need else run)
                run += state[j]
            state, prev = new, lab
        return sum(state)

    def shifted(weight, j):
        out = {}
        for key, c in weight.items():
            if (key, exps[j]) not in _MOVED:
                _MOVED[key, exps[j]] = tuple(a + b for a, b in zip(key, exps[j]))
            out[_MOVED[key, exps[j]]] = c
        return out

    origin = (0,) * alphabet.arity
    if anchored:
        state = [{} for _ in range(size)]
        state[alphabet.zero] = {origin: 1}
        prev = 0
    else:
        state, prev = [shifted({origin: 1}, j) for j in range(size)], labels[0]
    for lab in labels[0 if anchored else 1:]:
        need = 1 if prev < lab else -1
        run, new = {}, []
        for j in range(size):
            if eps[j] != need:
                new.append(shifted(run, j))
            for key, c in state[j].items():
                run[key] = run.get(key, 0) + c
            if eps[j] == need:
                new.append(shifted(run, j))
        state, prev = new, lab
    total = {}
    for here in state:
        for key, c in here.items():
            total[key] = total.get(key, 0) + c
    return MultiPoly(alphabet.arity, total)


_WORD_ALPHABETS = [
    *(build(2) for build in IMAGE_SET_KINDS.values()),
    *(product_alphabet(first(2), second(2), mode)
      for equations in _BIPARTITE.values() for first, second, mode in equations),
]


@pytest.mark.parametrize("alphabet", _WORD_ALPHABETS, ids=lambda a: a.name)
def test_word_keyed_chain_sum_matches_the_per_element_scan(alphabet):
    # every element of S_1..S_5 and of B_1..B_4 (anchored over a signed
    # alphabet, as the type-B checks scan them) reads the enumerator
    # scanned at the first element with its word
    chains = [("S", n, False) for n in range(1, 6)]
    chains += [("B", n, alphabet.signed) for n in range(1, 5)]
    for group, n, anchored in chains:
        for poly in (False, True):
            mode = "poly" if poly else "count"
            by_word = {}
            for g in iterate_group(group, n):
                word = chain_word(g, anchored)
                if word not in by_word:
                    by_word[word] = chain_weight_sum(alphabet, g, anchored=anchored, mode=mode)
                assert by_word[word] == _chain_sum_by_labels(alphabet, g, anchored, poly), \
                    (group, g, anchored, mode)
            # the word is the descent set: 2^(n-1) words in S_n and
            # unanchored B_n, 2^n anchored
            assert len(by_word) == 2 ** (n - 1 + anchored)


def test_chain_word_is_the_descent_set():
    for n in range(1, 6):
        for g in iterate_group("S", n):
            word = chain_word(g)
            assert len(word) == n - 1
            assert sum(1 << s for s, x in enumerate(word, 1) if x < 0) == STATISTICS["descent"](g)
    for n in range(1, 5):
        for g in iterate_group("B", n):
            word = chain_word(g, anchored=True)
            assert len(word) == n
            assert sum(1 << s for s, x in enumerate(word) if x < 0) == STATISTICS["B_descent"](g)
    assert chain_word(()) == () and chain_word((), anchored=True) == ()
    assert chain_word((-2, 1), anchored=True) == (-1, 1)


# --- poset construction -----------------------------------------------------------


def test_poset_basics():
    p = Poset.from_covers(3, [(1, 2), (2, 3)])
    assert p.less(1, 3)  # closure
    assert p.relation_count() == 3
    assert p.chain_sequence() == (1, 2, 3)
    v = Poset.from_covers(3, [(1, 3), (2, 3)])
    assert v.chain_sequence() is None
    assert sorted(v.relations()) == [(1, 3), (2, 3)]
    with pytest.raises(ValueError):
        Poset.from_covers(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Poset.from_covers(2, [(0, 1)])


def test_linear_extension_counts():
    assert len(Poset.from_covers(4, []).linear_extensions()) == 24
    assert Poset.from_covers(4, [(1, 2), (2, 3), (3, 4)]).linear_extensions() == [(1, 2, 3, 4)]
    v = Poset.from_covers(3, [(1, 3), (2, 3)])
    assert sorted(v.linear_extensions()) == [(1, 2, 3), (2, 1, 3)]
    with pytest.raises(ResourceLimitError):
        Poset.from_covers(9, []).linear_extensions()


def test_bposet_sign_symmetry():
    bp = BPoset.from_covers(2, [(1, 2)])
    rels = set(bp.relations())
    assert all((-b, -a) in rels for a, b in rels)
    assert bp.less(-2, -1)
    exts = BPoset.from_covers(2, []).linear_extensions()
    assert len(exts) == 8
    # 1 < -1 is its own mirror image and entirely legal; it puts -1 above
    # 0, so pi(1) = 1 never extends it
    assert BPoset.from_covers(1, [(1, -1)]).less(1, -1)
    assert BPoset.from_covers(1, [(1, -1)]).linear_extensions() == [(-1,)]
    # the sign is read off the rows: B_0 has the one label 0
    assert BPoset.from_covers(0, []).signed and not Poset.from_covers(0, []).signed
    assert BPoset.from_covers(0, []).linear_extensions() == [()]
    with pytest.raises(ValueError):
        BPoset.from_covers(2, [(1, 2), (2, 1)])


def test_signed_chain_sequence():
    bp = chain_poset((-2, 1), signed=True)
    assert bp.chain_sequence() == (-2, 1)
    assert bp.less(-1, 2) and bp.less(0, -2)


def test_zigzag_poset():
    z = zigzag_poset((2, 1, 3), (1,))
    assert sorted(z.relations()) == [(1, 2), (1, 3)]
    assert chain_poset((2, 1, 3)).chain_sequence() == (2, 1, 3)
    signed = zigzag_poset((1, 2), (0,))
    assert isinstance(signed, BPoset)
    assert signed.less(1, 0) and signed.less(0, -1)
    with pytest.raises(ValueError):
        zigzag_poset((1, 2), (0,), signed=False)
    with pytest.raises(ValueError):
        zigzag_poset((1, 2), (2,))
    # entries are never coerced to int
    for pi, positions in (((1.0, 2), ()), (("1", "2"), ()), ((True, 2), ()),
                          ((1, 2), (1.0,)), ((1, 2), ("1",)), ((-1, 2), (False,))):
        with pytest.raises(ValueError):
            zigzag_poset(pi, positions)


def _extension_corpus():
    """Seeded posets at S n = 0..6 and B n = 0..4: the antichain, the chain
    and random cover sets at every n (a signed cover set can close a cycle
    through its mirrors; those are dropped)."""
    rng = random.Random(2021)
    out = []
    for cls, top in ((Poset, 6), (BPoset, 4)):
        for n in range(top + 1):
            lo = -n if cls is BPoset else 1
            out.append(cls.from_covers(n, []))
            out.append(cls.from_covers(n, [(i, i + 1) for i in range(max(lo, 0), n)]))
            for _ in range(6):
                labels = rng.sample(range(lo, n + 1), n + 1 - lo)
                density = rng.choice((0.1, 0.3, 0.6))
                covers = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
                          if rng.random() < density]
                try:
                    out.append(cls.from_covers(n, covers))
                except ValueError:
                    pass
    return out


@pytest.mark.parametrize("P", _extension_corpus())
def test_linear_extensions_are_the_lexicographic_filter_of_the_group(P):
    # pi places pi(s) at s and, signed, -pi(s) at -s around 0 at 0
    want = []
    for pi in iterate_group("B" if isinstance(P, BPoset) else "S", P.n):
        pos = {0: 0}
        for s, v in enumerate(pi, start=1):
            pos[v], pos[-v] = s, -s
        if all(pos[a] < pos[b] for a, b in P.relations()):
            want.append(pi)
    assert P.linear_extensions() == want


# --- counting -----------------------------------------------------------------


def test_count_partitions_splits_over_extensions():
    v = Poset.from_covers(3, [(1, 3), (2, 3)])
    for kind in ("ordinary", "enriched", "left_enriched", "right_enriched", "exterior_enriched"):
        spec = ImageSetSpec(kind, 2)
        total = sum(
            chain_weight_sum(spec.alphabet(), ext)
            for ext in v.linear_extensions()
        )
        assert count_partitions(v, spec) == total, kind


def test_count_partitions_signed_splits_over_extensions():
    bp = BPoset.from_covers(2, [(-1, 2)])
    for kind in ("ordinaryB", "B_enriched"):
        spec = ImageSetSpec(kind, 2)
        total = sum(
            chain_weight_sum(spec.alphabet(), ext, anchored=True)
            for ext in bp.linear_extensions()
        )
        assert count_partitions(bp, spec) == total, kind


def test_count_partitions_guards_and_mismatch():
    with pytest.raises(ValueError):
        count_partitions(Poset.from_covers(2, []), ImageSetSpec("ordinaryB", 1))
    with pytest.raises(ValueError):
        count_partitions(BPoset.from_covers(2, []), ImageSetSpec("ordinary", 1))
    with pytest.raises(ResourceLimitError):
        count_partitions(Poset.from_covers(7, []), ImageSetSpec("ordinary", 1))
    with pytest.raises(ResourceLimitError):
        count_partitions(Poset.from_covers(2, []), ImageSetSpec("ordinary", 6))


def test_support_counts_pinned():
    c, c0 = support_counts(chain_poset((1,)), ImageSetSpec("enriched", 1))
    assert (c, c0) == ([2], [1])
    with pytest.raises(ValueError):
        support_counts(chain_poset((1,)), ImageSetSpec("ordinary", 1))
    with pytest.raises(ValueError):
        support_counts(chain_poset((1, 2)), ImageSetSpec("enriched", 1))
    with pytest.raises(ValueError, match="does not apply to BPoset"):
        support_counts(BPoset.from_covers(2, [(1, -2)]), ImageSetSpec("enriched", 2))


def test_partition_monomials():
    p = chain_poset((1, 2))
    spec = ImageSetSpec("ordinary", 2)
    poly = partition_monomials(p, spec)
    assert poly.eval_all_ones() == count_partitions(p, spec) == 3
    # the same total through a bare product alphabet: one variable frozen,
    # the other still a two-element chain
    prod = product_alphabet(ordinary_alphabet(1), ordinary_alphabet(2), "lex")
    assert partition_monomials(p, prod).eval_all_ones() == 3


# --- generic enumerator against an independent brute force -------------------


def _random_non_chains(cls, n_max, labels_of, seed, count):
    """Seeded random posets of cls that are not total orders, so the generic
    enumerator (not the chain scan) serves them.  Covers run forward in a
    shuffled label order; only a signed poset's mirror relations can close
    a cycle."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(n_max // 2, n_max)
        labs = rng.sample(labels_of(n), len(labels_of(n)))
        covers = [(a, b) for i, a in enumerate(labs) for b in labs[i + 1:] if rng.random() < 0.4]
        try:
            p = cls.from_covers(n, covers)
        except ValueError:
            continue
        if p.chain_sequence() is None:
            out.append(p)
    return out


def _brute_maps(P, alphabet):
    """Every map on the representatives 1..n, kept when every relation
    a <_P b holds under the admissibility rule; f(-i) and f(0) are implied
    for a signed poset."""
    signed = isinstance(P, BPoset)
    kept = []
    for assign in itertools.product(range(alphabet.size), repeat=P.n):
        f = {0: alphabet.zero}
        for i, s in enumerate(assign, start=1):
            f[i] = s
            if signed:  # negation reverses a sign-symmetric alphabet
                f[-i] = alphabet.size - 1 - s
        if all(
            f[a] < f[b] or (f[a] == f[b] and alphabet.eps[f[a]] == (1 if a < b else -1))
            for a, b in P.relations()
        ):
            kept.append(assign)
    return kept


_UNSIGNED = _random_non_chains(Poset, 4, lambda n: range(1, n + 1), 11, 12)
_SIGNED = _random_non_chains(BPoset, 2, lambda n: range(-n, n + 1), 12, 8)


@pytest.mark.parametrize("kind", sorted(IMAGE_SET_KINDS))
@pytest.mark.parametrize("k", [1, 2])
def test_generic_enumerator_matches_brute_force(kind, k):
    spec = ImageSetSpec(kind, k)
    alphabet = spec.alphabet()
    for p in _SIGNED if alphabet.signed else _UNSIGNED:
        maps = _brute_maps(p, alphabet)
        assert count_partitions(p, spec) == len(maps), p
        want = MultiPoly.zero(alphabet.arity)
        for assign in maps:
            exps = [sum(alphabet.exps[s][i] for s in assign) for i in range(alphabet.arity)]
            want = want + MultiPoly.monomial(alphabet.arity, exps)
        assert partition_monomials(p, spec) == want, p


@pytest.mark.parametrize("kind", ["enriched", "left_enriched"])
def test_support_counts_match_brute_force(kind):
    for p in _UNSIGNED:
        alphabet = left_enriched_alphabet(p.n)
        c, c0 = [0] * p.n, [0] * p.n
        for assign in _brute_maps(p, alphabet):
            mags = {alphabet.mags[s] for s in assign}
            if mags == set(range(1, len(mags) + 1)):
                c[len(mags) - 1] += 1
            elif mags == set(range(len(mags))):
                c0[len(mags) - 1] += 1
        assert support_counts(p, ImageSetSpec(kind, p.n)) == (c, c0), p


def test_signed_covers_are_checked_once_per_mirror_pair(monkeypatch):
    calls = 0
    le = Alphabet.le

    def counting(self, a, b, need):
        nonlocal calls
        calls += 1
        return le(self, a, b, need)

    monkeypatch.setattr(Alphabet, "le", counting)
    total = sum(count_partitions(p, ImageSetSpec(kind, k))
                for kind in ("ordinaryB", "B_enriched") for k in (1, 2) for p in _SIGNED)
    assert total == 252
    # checking each cover together with its mirror (-b, -a) made 915 calls
    # here; the self-mirror covers (-i, i) and (i, -i) cannot be halved
    assert calls <= 723


def test_order_reprs_pinned():
    assert repr(Poset.from_covers(2, [(2, 1)])) == "Poset(n=2, {2<1})"
    assert repr(BPoset.from_covers(1, [(0, 1)])) == "BPoset(n=1, {-1<0, -1<1, 0<1})"


def test_signed_poset_refuses_an_unsigned_alphabet():
    with pytest.raises(ValueError, match="^signed poset needs a sign-symmetric alphabet$"):
        partition_monomials(BPoset.from_covers(1, [(0, 1)]), ordinary_alphabet(2))
