"""Statistics, group plumbing, and the relations between the peak flavors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peaklab.perms import (
    STATISTICS,
    b_cyclic_descent_mask,
    b_descent_mask,
    compose,
    cyclic_descent_mask,
    descent_mask,
    descent_stat,
    eta,
    group_name,
    exterior_peak_mask,
    hat,
    hyperoctahedral_group,
    identity_perm,
    inverse,
    left_peak_mask,
    omega,
    peak_mask,
    peak_stat,
    positions,
    right_peak_mask,
    sign_mask,
    signed_stat,
    symmetric_group,
    validate_perm,
)


def randperm(n):
    return st.permutations(range(1, n + 1))


signs = st.lists(st.sampled_from((1, -1)), min_size=1, max_size=5)


@st.composite
def signed_perm(draw, n_max=5):
    base = draw(st.permutations(range(1, draw(st.integers(1, n_max)) + 1)))
    flips = draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
    return tuple(-v if f else v for v, f in zip(base, flips))


def test_validate_rejects_garbage():
    with pytest.raises(ValueError):
        validate_perm([1, 1, 2])
    with pytest.raises(ValueError):
        validate_perm([0, 1])
    with pytest.raises(ValueError):
        validate_perm([2, 3])
    with pytest.raises(ValueError):
        validate_perm([-1, 2])  # signed values need signed=True
    assert validate_perm([-1, 2], signed=True) == (-1, 2)


@pytest.mark.parametrize("values", [[1.9, 2], [1.0, 2], ["2", "1"], [True, 2], [1, 2.0]])
@pytest.mark.parametrize("signed", [False, True])
def test_validate_refuses_non_int_entries(values, signed):
    # nothing is coerced: [1.9, 2] used to come back as (1, 2)
    with pytest.raises(ValueError):
        validate_perm(values, signed=signed)


def test_pinned_statistics():
    assert descent_stat([2, 1, 4, 3, 5], "linear").positions == (1, 3)
    assert descent_stat([1, 4, 3, 2], "cyclic").positions == (2, 3, 4)
    assert peak_stat([2, 1, 4, 3, 5], "interior").positions == (3,)
    assert peak_stat([2, 1, 4, 3, 5], "left").positions == (1, 3)
    assert signed_stat([-2, 1], "descent").positions == (0,)
    assert signed_stat([-2, 1], "cyclic_descent").positions == (0, 2)
    assert signed_stat([-2, 4, -5, 3, 1], "peak").positions == (2, 4)
    assert signed_stat([-2, 1], "sign").count == 1
    assert signed_stat([1, -2], "sign").count == 0


def test_group_sizes():
    assert len(list(symmetric_group(4))) == 24
    assert len(list(hyperoctahedral_group(3))) == 48
    assert len({p for p in hyperoctahedral_group(3)}) == 48


@given(st.integers(1, 5).flatmap(randperm), st.integers(1, 5).flatmap(randperm))
@settings(max_examples=40, deadline=None)
def test_compose_needs_matching_size(a, b):
    if len(a) != len(b):
        with pytest.raises(ValueError):
            compose(a, b)


@given(st.integers(2, 5).flatmap(lambda n: st.tuples(randperm(n), randperm(n), randperm(n))))
@settings(max_examples=60, deadline=None)
def test_group_laws(triple):
    a, b, c = (tuple(p) for p in triple)
    n = len(a)
    e = identity_perm(n)
    assert compose(a, e) == compose(e, a) == a
    assert compose(a, inverse(a)) == e
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    # one-line composition convention: (a o b)(i) = a(b(i))
    assert compose(a, b) == tuple(a[b[i] - 1] for i in range(n))


@given(signed_perm())
@settings(max_examples=60, deadline=None)
def test_signed_group_laws(p):
    n = len(p)
    e = identity_perm(n)
    assert compose(p, inverse(p)) == e
    assert inverse(inverse(p)) == p


def test_special_elements():
    assert eta(4) == (4, 3, 2, 1)
    assert omega(4) == (2, 3, 4, 1)
    assert hat((2, 1, 3)) == (2, 1, 3, 4)
    # reversal swaps descents and ascents
    assert descent_mask(compose(eta(4), (2, 1, 4, 3))) == 0b0100


@given(st.integers(1, 6).flatmap(randperm))
@settings(max_examples=80, deadline=None)
def test_descent_mask_ranges(p):
    p = tuple(p)
    n = len(p)
    des = descent_mask(p)
    cdes = cyclic_descent_mask(p)
    assert des >> n == 0 and des & 1 == 0
    assert cdes & ~(des | 1 << n) == 0
    assert bool(cdes >> n & 1) == (p[-1] > p[0])
    assert descent_mask(tuple(reversed(range(1, n + 1)))) == ((1 << n) - 2)


@given(st.integers(1, 6).flatmap(randperm))
@settings(max_examples=80, deadline=None)
def test_peak_flavor_relations(p):
    p = tuple(p)
    n = len(p)
    pe = peak_mask(p)
    lpe = left_peak_mask(p)
    rpe = right_peak_mask(p)
    epe = exterior_peak_mask(p)
    # interior lives strictly inside, the others extend one end each
    assert pe & ~((1 << n) - 1 & ~0b11) == 0
    assert lpe == pe | (descent_mask(p) & 0b10)
    assert bool(rpe >> n & 1) == (n >= 2 and p[-2] < p[-1])
    if n >= 2:
        assert epe == lpe | rpe
    else:
        assert (pe, lpe, rpe, epe) == (0, 0, 0, 0b10)
    # peaks are never adjacent
    for m in (pe, lpe, rpe, epe):
        assert m & (m << 1) == 0


@given(signed_perm())
@settings(max_examples=80, deadline=None)
def test_signed_mask_ranges(p):
    n = len(p)
    bdes = b_descent_mask(p)
    bcdes = b_cyclic_descent_mask(p)
    bpe = STATISTICS["B_peak"](p)
    assert bdes >> n == 0
    assert bool(bdes & 1) == (p[0] < 0)
    assert bcdes & ~(bdes | 1 << n) == 0
    assert bool(bcdes >> n & 1) == (p[-1] > 0)
    assert bpe & 1 == 0 and bpe >> n == 0
    assert bpe & (bpe << 1) == 0
    assert bool(bpe & 0b10) == (n >= 2 and p[0] > 0 and p[0] > p[1])
    assert sign_mask(p) == (1 if p[0] < 0 else 0)


def test_signed_masks_match_their_definitions():
    # brute force on B_0..B_5, reading pi(0) = 0: a signed peak is
    # pi(i-1) < pi(i) > pi(i+1) at 1 <= i <= n-1, a B-descent pi(i) > pi(i+1)
    # at 0 <= i <= n-1
    for n in range(6):
        for p in hyperoctahedral_group(n):
            w = (0,) + p
            peaks = {i for i in range(1, n) if w[i - 1] < w[i] > w[i + 1]}
            descents = {i for i in range(n) if w[i] > w[i + 1]}
            assert set(positions(STATISTICS["B_peak"](p))) == peaks, p
            assert set(positions(STATISTICS["B_descent"](p))) == descents, p


def test_unsigned_peak_masks_match_their_definitions():
    # brute force on S_0..S_7, reading pi(0) = pi(n+1) = 0: a peak is
    # pi(i-1) < pi(i) > pi(i+1), and the flavors keep interior 2..n-1,
    # left 1..n-1, right 2..n and exterior 1..n
    for n in range(8):
        for p in symmetric_group(n):
            w = (0,) + p + (0,)
            peaks = {i for i in range(1, n + 1) if w[i - 1] < w[i] > w[i + 1]}
            for mask, lo, hi in ((peak_mask, 2, n - 1), (left_peak_mask, 1, n - 1),
                                 (right_peak_mask, 2, n), (exterior_peak_mask, 1, n)):
                want = {i for i in peaks if lo <= i <= hi}
                assert set(positions(mask(p))) == want, (mask.__name__, p)


def test_peak_count_bound():
    # at most floor(n/2) signed peaks, and the bound is attained
    for p in hyperoctahedral_group(3):
        assert STATISTICS["B_peak"](p).bit_count() <= 1
    assert any(STATISTICS["B_peak"](p).bit_count() == 1 for p in hyperoctahedral_group(3))


def test_stat_result_json():
    r = descent_stat([2, 1, 3])
    assert r.to_json() == {"set": [1], "count": 1}


def test_unknown_kind_and_group_names_are_refused():
    with pytest.raises(ValueError, match="^unknown descent kind 'peak'$"):
        descent_stat((2, 1), "peak")
    with pytest.raises(ValueError, match="^unknown group 'D'$"):
        group_name("D")
