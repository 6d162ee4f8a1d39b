import random
from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckegaps import prime_engine
from heckegaps.prime_engine import (
    SEGMENT_ODDS,
    _miller_rabin,
    _pi,
    count_primes,
    is_prime,
    prime_count,
    primes_in,
)

PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_small_range_matches_table():
    assert primes_in(2, 100).tolist() == PRIMES_BELOW_100


def test_classical_counts():
    # pi(10^6), pi(10^7) and pi(10^8) are classical table values.
    assert prime_count(10**6) == 78498
    assert prime_count(10**7) == 664579
    assert prime_count(10**8) == 5761455
    assert prime_count(10**9) == 50847534
    assert prime_count(10**10) == 455052511
    # the sieve path, pinned at the size prime_count used to sieve
    assert primes_in(2, 10**8 + 1).size == 5761455


def test_pi_agrees_with_trial_division():
    count = 0
    for n in range(2001):
        count += trial_division(n)
        assert _pi(n) == count


def test_pi_at_cube_and_square_boundaries():
    # _pi's head loop ends at c = icbrt(n) and the tail sum takes the primes
    # above it: n around each cube moves c, n around each p^2 moves p in or
    # out of the tail.  One sieve to 300^3 + 2 gives every
    # primes_in(2, n + 1).size.
    ps = primes_in(2, 300**3 + 2)
    ns = [c**3 + d for c in range(1, 301) for d in (-1, 0, 1)]
    ns += [p * p + d for p in primes_in(2, 1000).tolist() for d in (-1, 0)]
    for n in ns:
        assert _pi(n) == np.searchsorted(ps, n, side="right"), n


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda e: st.integers(min_value=max(2, 10 ** (e - 1)), max_value=10**e)))
def test_pi_agrees_with_sieve_to_1e7(n):
    assert _pi(n) == primes_in(2, n + 1).size


def lucy_every_prime(n: int) -> int:
    """The Legendre-Lucy recurrence with one update per prime up to sqrt(n),
    n >= 4: ``_pi`` without its tail reduction, kept as the reference."""
    r = isqrt(n)
    small = np.arange(-1, r, dtype=np.int64)
    vlarge = n // np.arange(1, r + 1, dtype=np.int64)
    large = np.concatenate(([0], vlarge - 1))
    for p in primes_in(2, r + 1).tolist():
        sp = int(small[p - 1])
        top = min(r, n // (p * p))
        mid = min(top, r // p)
        large[1:mid + 1] -= large[p:mid * p + 1:p] - sp
        large[mid + 1:top + 1] -= small[vlarge[mid:top] // p] - sp
        if p * p <= r:
            small[p * p:] -= small[np.arange(p * p, r + 1) // p] - sp
    return int(large[1])


def test_pi_tail_matches_per_prime_recurrence():
    # beyond the sieve oracle: log-uniform n to 1e10, and the tops of cube
    # intervals [c^3, (c + 1)^3) with c and c + 2 prime
    rng = random.Random(20151)
    ns = [int(10 ** rng.uniform(4, 10)) for _ in range(12)]
    ns += [(c + 1) ** 3 - 1 for c in (101, 1019, 1949)]
    for n in ns:
        assert _pi(n) == lucy_every_prime(n), n


@st.composite
def count_windows(draw):
    """[lo, hi) with hi <= 1e7: lo = 2, lo = 3, lo near hi or lo anywhere,
    so widths fall on both sides of count_primes' wide-window rule."""
    e = draw(st.integers(min_value=1, max_value=7))  # every magnitude alike
    hi = draw(st.integers(min_value=max(3, 10 ** (e - 1)), max_value=10**e))
    lo = draw(st.one_of(
        st.sampled_from((2, 3)),
        st.integers(min_value=max(2, hi - 200), max_value=hi - 1),
        st.integers(min_value=2, max_value=hi - 1),
    ))
    return max(2, min(lo, hi - 1)), hi


# count_primes' wide-window rule at hi = 1e7, where 3e4 hi^(1/3) is the larger term
RULE_1E7 = int(3e4 * (10**7) ** (1 / 3))


@settings(derandomize=True, max_examples=60)
@given(count_windows())
@example((2, 3))
@example((3, 10**7))
@example((2, 10**7))
@example((10**7 - 1, 10**7))
@example((10**7 - int(10 * 10**5.25) - 1, 10**7))  # one past 10 hi^(3/4)
@example((10**7 - int(10 * 10**5.25), 10**7))  # just inside it
@example((10**7 - RULE_1E7 - 1, 10**7))  # one past the rule
@example((10**7 - RULE_1E7, 10**7))  # just inside it
def test_count_primes_agrees_with_sieve(window):
    lo, hi = window
    assert count_primes(lo, hi) == primes_in(lo, hi).size


def test_count_primes_switches_path_at_the_rule(monkeypatch):
    calls = []

    def counting(n, _pi=prime_engine._pi):
        calls.append(n)
        return _pi(n)

    monkeypatch.setattr(prime_engine, "_pi", counting)
    hi = 10**7
    count_primes(hi - RULE_1E7, hi)
    assert calls == []
    count_primes(hi - RULE_1E7 - 1, hi)
    assert calls == [hi - 1, hi - RULE_1E7 - 2]


def test_narrow_far_window_stays_on_sieve(monkeypatch):
    def refuse(n):
        raise AssertionError("a narrow window must not build sqrt(hi)-long arrays")

    monkeypatch.setattr(prime_engine, "_pi", refuse)
    lo, hi = 2**50 - 10**5, 2**50
    assert count_primes(lo, hi) == primes_in(lo, hi).size


def test_edge_windows():
    assert primes_in(2, 3).tolist() == [2]
    assert primes_in(3, 4).tolist() == [3]
    assert primes_in(24, 29).tolist() == []
    assert primes_in(89, 98).tolist() == [89, 97]


def test_invalid_ranges_rejected():
    for fn in (primes_in, count_primes):
        with pytest.raises(ValueError):
            fn(10, 10)
        with pytest.raises(ValueError):
            fn(10, 5)
        with pytest.raises(ValueError):
            fn(1, 10)
        with pytest.raises(ValueError):
            fn(2, (1 << 50) + 2)


@given(st.integers(min_value=2, max_value=20000), st.integers(min_value=1, max_value=500))
def test_window_agrees_with_trial_division(lo, width):
    got = primes_in(lo, lo + width).tolist()
    want = [n for n in range(lo, lo + width) if trial_division(n)]
    assert got == want


@st.composite
def far_windows(draw):
    """(lo, hi, segment_odds): lo in [2^40, 2^50 - width], width <= 3000.

    The binary magnitude of lo is drawn first, so windows near 2^40 are as
    likely as windows near the range limit.  Segment sizes 8 and 64 put seams
    inside the window and make nearly every base prime longer than a segment.
    Each segment recomputes the starts of all base primes (about 25 ms near
    2^50), so the width is capped at 16 segments to keep an example fast.
    """
    segment_odds = draw(st.sampled_from((8, 64, SEGMENT_ODDS)))
    width = draw(st.integers(min_value=1, max_value=min(3000, 32 * segment_odds)))
    e = draw(st.integers(min_value=40, max_value=49))
    lo = draw(st.integers(min_value=1 << e, max_value=min(1 << (e + 1), (1 << 50) - width)))
    return lo, lo + width, segment_odds


@settings(max_examples=15)
@given(far_windows())
@example(((1 << 50) - 1024, 1 << 50, 32))
def test_far_window_agrees_with_is_prime(window):
    lo, hi, segment_odds = window
    got = primes_in(lo, hi, segment_odds=segment_odds)
    assert got.tolist() == [n for n in range(lo, hi) if is_prime(n)]
    assert count_primes(lo, hi) == got.size


@given(st.integers(min_value=0, max_value=30000))
def test_is_prime_agrees_with_trial_division(n):
    assert is_prime(n) == trial_division(n)


def test_is_prime_known_hard_cases():
    # Carmichael numbers and a base-2 strong pseudoprime.
    for n in (561, 1105, 6601, 2047, 3215031751):
        assert not is_prime(n)
    assert is_prime((1 << 61) - 1)
    assert is_prime(10**9 + 7)
    assert is_prime(10**9 + 9)
    assert is_prime((1 << 64) - 59)  # the largest prime below 2^64


def test_is_prime_refuses_beyond_2_64():
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to all
    # twelve MR_BASES, so no answer past 2^64 could be trusted
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    for n in (psi12, 1 << 64):
        with pytest.raises(ValueError, match="exact Miller-Rabin range"):
            is_prime(n)



# psi_k for k = 1..11 (OEIS A014233), each value once
DISTINCT_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                3474749660383, 341550071728321, 3825123056546413051)


def reference_is_prime(n: int) -> bool:
    """Textbook strong-probable-prime test to all twelve bases 2 .. 37."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_rejects_every_psi():
    # psi_k passes the first k bases, so fewer bases than is_prime uses at
    # psi_k itself would call it prime
    for psi in DISTINCT_PSI:
        assert not is_prime(psi)


@pytest.mark.parametrize("psi", [v for v in DISTINCT_PSI if v < 1 << 50])
def test_is_prime_agrees_with_sieve_around_psi(psi):
    # the base count changes at psi: both sides of it, against the sieve
    lo, hi = max(2, psi - 10**4), psi + 10**4
    assert [n for n in range(lo, hi) if is_prime(n)] == primes_in(lo, hi).tolist()


@settings(max_examples=400)
@given(st.integers(min_value=1, max_value=64).flatmap(
    lambda e: st.integers(min_value=1 << (e - 1), max_value=(1 << e) - 1)))
def test_is_prime_agrees_with_twelve_bases_and_sympy(n):
    n |= 1  # odd, and still below 2^64
    assert is_prime(n) == reference_is_prime(n) == sympy.isprime(n)


def random_primes(count, seed):
    """``count`` primes, their bit lengths uniform in 3..64, from sympy."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        e = rng.randint(3, 64)
        n = rng.randrange(1 << (e - 1), 1 << e) | 1
        if sympy.isprime(n):
            out.append(n)
    return out


def test_miller_rabin_is_none_exactly_off_the_primes():
    rng = random.Random(2401)
    near_psi = [v + k for v in DISTINCT_PSI for k in range(-3, 4)]
    for n in [*range(10**5), *near_psi, *(rng.randrange(1 << 64) for _ in range(2000))]:
        assert (_miller_rabin(n) is None) == (not sympy.isprime(n)), n


def test_miller_rabin_root_squares_to_minus_one():
    primes = primes_in(2, 10**5).tolist() + random_primes(2000, 2402)
    roots = {p: _miller_rabin(p) for p in primes}
    for p, r in roots.items():
        assert 0 <= r < p, p
        if r:
            assert r * r % p == p - 1, p
        if p % 4 == 3:
            assert r == 0, p  # -1 is no square mod p
    # most primes = 1 mod 4 bring their root; the others take the z-loop
    split = [r for p, r in roots.items() if p % 4 == 1]
    assert 0.9 * len(split) < sum(r != 0 for r in split) < len(split)


def test_segment_boundaries_consistent():
    # small segment size forces several segment seams inside the window
    tiny = primes_in(2, 10**5, segment_odds=64)
    assert tiny.tolist() == primes_in(2, 10**5).tolist()
