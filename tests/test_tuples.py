import pytest
from hypothesis import given
from hypothesis import strategies as st

from heckegaps.tuples import (
    AdmissibleTuple,
    is_admissible,
    make_tuple,
    narrow_tuple,
)


def brute_admissible(offsets):
    """Oracle: test every prime up to max offset directly."""
    top = max(offsets[-1], 2)
    for p in range(2, top + 2):
        if any(p % d == 0 for d in range(2, p)):
            continue
        if len({h % p for h in offsets}) == p:
            return False, p
    return True, None


def test_frozen_examples():
    assert is_admissible((0, 2, 6)) == (True, None)
    assert is_admissible((0, 2, 4)) == (False, 3)
    assert is_admissible((0,)) == (True, None)
    assert is_admissible((0, 2)) == (True, None)
    assert is_admissible((0, 1)) == (False, 2)
    # covering prime can exceed the two smallest: {0,1} covers mod 2 first
    assert is_admissible((0, 2, 8, 14)) == (True, None)


def test_witness_is_smallest_covering_prime():
    # {0, 2, 4} covers mod 3 but not mod 2; {0, 1, 2, 3, 4, 5} covers mod 2
    assert is_admissible((0, 1, 2, 3, 4, 5))[1] == 2
    assert is_admissible((0, 2, 4))[1] == 3


def test_offset_validation():
    with pytest.raises(ValueError):
        is_admissible(())
    with pytest.raises(ValueError):
        is_admissible((0, 2, 2))
    with pytest.raises(ValueError):
        is_admissible((2, 0))


def test_offsets_keep_differences_in_int64():
    lim = 2**62
    assert make_tuple([-(lim - 1), lim - 1]).diameter == 2 * lim - 2
    for bad in ([0, lim], [-lim, 0], [0, 10**19], [-9 * 10**18, 9 * 10**18]):
        with pytest.raises(ValueError, match="strictly between -2\\^62 and 2\\^62"):
            make_tuple(bad)


def test_make_tuple():
    t = make_tuple((0, 2, 6))
    assert isinstance(t, AdmissibleTuple)
    assert t.k == 3
    assert t.diameter == 6
    assert t.admissible
    assert t.witness is None
    bad = make_tuple((0, 2, 4))
    assert not bad.admissible
    assert bad.witness == 3


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=12,
             unique=True)
)
def test_matches_brute_force(offsets):
    offsets = tuple(sorted(offsets))
    assert is_admissible(offsets) == brute_admissible(offsets)


def test_narrow_tuple_frozen():
    assert narrow_tuple(1).offsets == (0,)
    assert narrow_tuple(2).offsets == (0, 2)
    assert narrow_tuple(3).offsets == (0, 2, 6)
    assert narrow_tuple(5).offsets == (0, 4, 6, 10, 12)


def test_narrow_tuple_range_checked():
    with pytest.raises(ValueError):
        narrow_tuple(0)
    with pytest.raises(ValueError):
        narrow_tuple(10_001)


@given(st.integers(min_value=1, max_value=60))
def test_narrow_tuple_invariants(k):
    t = narrow_tuple(k)
    assert t.k == k
    assert t.offsets[0] == 0
    assert t.admissible
    assert is_admissible(t.offsets) == (True, None)
    assert t.diameter == t.offsets[-1]


@given(st.integers(min_value=2, max_value=40))
def test_narrow_tuple_no_wider_than_prime_seed(k):
    # the greedy pass may only shrink the initial k-primes-past-k window
    from heckegaps.prime_engine import primes_in
    ps = primes_in(k + 1, 20 * k + 100)[:k]
    assert narrow_tuple(k).diameter <= int(ps[-1] - ps[0])
