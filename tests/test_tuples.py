import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckegaps import tuples
from heckegaps.tuples import (
    AdmissibleTuple,
    is_admissible,
    make_tuple,
    narrow_tuple,
)


def brute_admissible(offsets):
    """Oracle: test every prime up to the diameter directly."""
    top = max(offsets[-1] - offsets[0], 2)
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


@settings(max_examples=300)
@given(
    st.lists(st.integers(min_value=-200, max_value=200), min_size=1, max_size=40,
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


def _greedy_reference(H, small):
    """The greedy loop that tests every candidate from scratch.

    Same move order as ``tuples._shrink`` (right endpoint before left, holes
    ascending), with its own covering check by counting distinct residues.
    Returns the narrowed offsets and the number of left-endpoint moves.
    """
    def covered(cand):
        arr = np.asarray(cand, dtype=np.int64)
        return any(np.unique(arr % p).size == p for p in small)

    H, left_moves = list(H), 0
    while True:
        holes = sorted(set(range(H[0] + 1, H[-1])) - set(H))
        moved = False
        for body in (H[:-1], H[1:]):
            for t in holes:
                cand = sorted(body + [t])
                if not covered(cand):
                    left_moves += body[0] != H[0]
                    H = [h - cand[0] for h in cand]
                    moved = True
                    break
            if moved:
                break
        if not moved:
            return H, left_moves


def _narrow_reference(k):
    if k == 1:
        return make_tuple((0,))
    base = tuples._k_primes_past(k)
    H, _ = _greedy_reference([p - base[0] for p in base], tuples._primes_upto(k))
    return make_tuple(H)


def _even_admissible_starts():
    """Admissible tuples of even offsets from 0; a few need a left move."""
    rng = random.Random(1)
    for _ in range(2000):
        offs = sorted(rng.sample(range(0, 80, 2), rng.randint(2, 12)))
        offs = [h - offs[0] for h in offs]
        if is_admissible(offs)[0]:
            yield offs


def test_shrink_matches_reference_from_any_start():
    # narrow_tuple's prime starts make no left move for k in 2..400, 1000, 3000
    starts, left_moves = list(_even_admissible_starts()), 0
    for offs in starts:
        small = tuples._primes_upto(len(offs))
        want, left = _greedy_reference(offs, small)
        assert tuples._shrink(np.asarray(offs, dtype=np.int64), small).tolist() == want
        left_moves += left
    assert len(starts) > 500 and left_moves >= 10


def test_lone_free_classes_by_brute_force():
    for offs in _even_admissible_starts():
        small = tuples._primes_upto(len(offs))
        right, left = tuples._lone_free_classes(np.asarray(offs, dtype=np.int64), small)
        for body, lone in ((offs[:-1], right), (offs[1:], left)):
            want = []
            for p in small:
                free = set(range(p)) - {h % p for h in body}
                if len(free) == 1:
                    want.append((p, free.pop()))
            assert lone == want, (offs, body)


@pytest.mark.parametrize("k", [*range(1, 121), *range(160, 171), *range(290, 301)])
def test_narrow_tuple_matches_reference(k):
    assert narrow_tuple(k) == _narrow_reference(k)


def test_narrow_tuple_pinned_diameters():
    assert narrow_tuple(50).diameter == 260
    assert narrow_tuple(105).diameter == 636
    t = narrow_tuple(1000)
    assert t.diameter == 8424
    digest = hashlib.sha256(",".join(map(str, t.offsets)).encode()).hexdigest()
    assert digest == "25805884d44eba5101b18253ac8180876b90570cc044541ca98dfbed04cf9b02"


def test_narrow_tuple_at_its_cap():
    t = narrow_tuple(10**4)
    assert t.k == 10**4 and t.offsets[0] == 0
    assert is_admissible(t.offsets) == (True, None)


def test_broken_free_classes_raise(monkeypatch):
    # with no lone free class reported, the first hole is always taken
    monkeypatch.setattr(tuples, "_lone_free_classes", lambda H, primes: ([], []))
    with pytest.raises(RuntimeError, match="narrowing broke admissibility"):
        narrow_tuple(10)
