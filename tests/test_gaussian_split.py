import hashlib
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.solvers.diophantine.diophantine import cornacchia as sympy_cornacchia

from heckegaps import gaussian_split
from heckegaps.gaussian_split import (
    SplitPrime,
    canonical_split,
    cornacchia,
    in_P_eps,
    peps_cut,
    split_range,
    theta_of,
)
from heckegaps.prime_engine import SEGMENT_ODDS, _miller_rabin, primes_in

SPLIT_PRIMES_BELOW_1000 = [int(p) for p in primes_in(2, 1000) if p % 4 == 1]


def brute_two_squares(p):
    """Exhaustive oracle for p = a^2 + b^2 with a odd, b even, both > 0."""
    a = 1
    while a * a <= p:
        b2 = p - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            return (a, b) if a % 2 == 1 else (b, a)
        a += 1
    return None


def test_cornacchia_frozen_values():
    assert cornacchia(5, 1) == (1, 2)
    assert cornacchia(13, 1) == (3, 2)
    assert cornacchia(29, 1) == (5, 2)
    assert cornacchia(2, 1) == (1, 1)
    assert cornacchia(7, 1) is None
    assert cornacchia(7, 3) == (2, 1)    # 4 + 3*1 = 7
    assert cornacchia(31, 3) == (2, 3)   # 4 + 3*9 = 31
    assert cornacchia(11, 3) is None     # 11 = x^2+3y^2 has no solution
    assert cornacchia(2, 3) is None
    assert cornacchia(3, 3) is None      # 3 = 0^2 + 3*1^2 only, and a > 0


def test_cornacchia_rejects_bad_inputs():
    # only D = 1 and D = 3, the fields Z[i] and Z[omega], are served
    for D in (0, 2, 7, 163, 164):
        with pytest.raises(ValueError):
            cornacchia(13, D)
    with pytest.raises(ValueError):
        cornacchia(15, 1)


@pytest.mark.parametrize("D", [1, 2, 3, 7, 11, 19, 43, 67, 163])
def test_cornacchia_solutions_verify(D):
    for p in map(int, primes_in(2, 500)):
        if D in (1, 3):
            got = cornacchia(p, D)
            assert got is None or got[0] ** 2 + D * got[1] ** 2 == p
        else:  # the other class-number-one D are not served
            with pytest.raises(ValueError):
                cornacchia(p, D)


@pytest.mark.parametrize("D", [1, 3])
def test_cornacchia_matches_exhaustive_search_below_1e5(D):
    # every (a, b) with a, b > 0 and a^2 + D b^2 < hi, keyed by the norm;
    # D = 1 pairs are kept in the (odd, even) order cornacchia returns
    hi = 10**5
    found = {}
    for b in range(1, math.isqrt((hi - 2) // D) + 1):
        for a in range(1, math.isqrt(hi - 1 - D * b * b) + 1):
            if D == 3 or a % 2:
                found.setdefault(a * a + D * b * b, []).append((a, b))
    for p in map(int, primes_in(2, hi)):
        want = found.get(p, [])
        assert len(want) <= 1
        assert cornacchia(p, D) == (want[0] if want else None)


@settings(max_examples=300)
@given(st.sampled_from([1, 3]), st.integers(min_value=2, max_value=64).flatmap(
    lambda e: st.integers(min_value=1 << (e - 1), max_value=(1 << e) - 1)))
def test_cornacchia_agrees_with_sympy_below_2_64(D, n):
    p = sympy.prevprime(n + 1)  # the largest prime <= n
    got = cornacchia(p, D)
    key = frozenset if D == 1 else tuple  # sympy orders D = 1 pairs differently
    want = {key(s) for s in sympy_cornacchia(1, D, p) if min(s) > 0}
    assert want == ({key(got)} if got else set())


def z_loop_cornacchia(p, D):
    """Cornacchia with sqrt(-D) always from the least z >= 2 whose
    w = z^((p-1)/m) has w^2 != 1, never from Miller-Rabin: the reference
    for the root ``_miller_rabin`` hands over."""
    if p == 2:
        return (1, 1) if D == 1 else None
    m = 4 if D == 1 else 3
    if p % m != 1:
        return None
    z = 2
    while (w := pow(z, (p - 1) // m, p)) * w % p == 1:
        z += 1
    a, b = p, (w if D == 1 else (2 * w + 1) % p)
    while b > math.isqrt(p):
        a, b = b, a % b
    rem = p - b * b
    if rem % D:
        return None
    s = math.isqrt(rem // D)
    if s == 0 or s * s != rem // D:
        return None
    a, b = b, s
    return (b, a) if D == 1 and a % 2 == 0 else (a, b)


def far_split_primes(count, seed):
    """``count`` primes p = 1 mod 4, bit lengths uniform in 3..64, from sympy."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        e = rng.randint(3, 64)
        p = rng.randrange(1 << (e - 1), 1 << e) & ~3 | 1
        if sympy.isprime(p):
            out.append(p)
    return out


def test_z_loop_fallback_primes():
    # the primes = 1 mod 4 whose Miller-Rabin run meets no sqrt(-1): p is
    # one of the bases, or every base a it tries has a^d = +-1 mod p
    fallback = [p for p in map(int, primes_in(2, 2 * 10**5))
                if p % 4 == 1 and _miller_rabin(p) == 0]
    assert len(fallback) == 326
    assert {5, 13, 73, 89, 233, 281, 337} <= set(fallback)
    # all in the first corpus of test_splits_match_the_z_loop
    assert sum(p < 10**5 for p in fallback) == 181


@pytest.mark.parametrize("corpus", ["primes_below_1e5", "random_to_2_64"])
def test_splits_match_the_z_loop(corpus):
    # either root of -1 gives the same pair, so handing over Miller-Rabin's
    # root changes no output; the fallback primes take the z-loop itself
    if corpus == "primes_below_1e5":
        primes = list(map(int, primes_in(2, 10**5)))
    else:
        primes = far_split_primes(2000, 2403)
    for p in primes:
        assert cornacchia(p, 3) == z_loop_cornacchia(p, 3), p
        pair = z_loop_cornacchia(p, 1)
        assert cornacchia(p, 1) == pair, p
        if p % 4 != 1:
            assert canonical_split(p) is None and not in_P_eps(p, 1.0)
            continue
        a, b = pair
        a = a if a % 4 == 1 else -a
        want = SplitPrime(p=p, a=a, b=b, ratio=a / math.sqrt(p),
                          theta=float(theta_of(a, b)))
        assert canonical_split(p) == want, p
        for eps in (0.1, 0.5, 0.9):
            assert in_P_eps(p, eps) == bool(peps_cut(eps)(p, a)), (p, eps)


def test_canonical_split_frozen():
    s5 = canonical_split(5)
    assert (s5.a, s5.b) == (1, 2)
    assert s5.ratio == pytest.approx(1 / math.sqrt(5))
    s13 = canonical_split(13)
    assert (s13.a, s13.b) == (-3, 2)
    assert s13.theta == pytest.approx(0.6256659163780025)
    s17 = canonical_split(17)
    assert (s17.a, s17.b) == (1, 4)
    assert canonical_split(2) is None
    assert canonical_split(7) is None
    assert canonical_split(3) is None


@given(st.sampled_from(SPLIT_PRIMES_BELOW_1000))
def test_canonical_split_invariants(p):
    s = canonical_split(p)
    assert s is not None
    assert s.a * s.a + s.b * s.b == p
    assert s.a % 4 == 1
    assert s.b > 0 and s.b % 2 == 0
    assert abs(s.ratio) <= 1.0
    assert 0.0 <= s.theta < 1.0
    # same magnitudes as the exhaustive oracle; sign fixed by a = 1 mod 4
    oa, ob = brute_two_squares(p)
    assert (abs(s.a), s.b) == (oa, ob)


def test_theta_matches_scalar_angle():
    # the scalar split and the bulk angle are one formula: equal to the bit
    p, a, b = split_range(2, 100_000)
    bulk = theta_of(a, b)
    for i in range(p.size):
        s = canonical_split(int(p[i]))
        assert s.theta == bulk[i]


def test_in_P_eps_frozen():
    assert in_P_eps(5, 0.5)          # |1| <= 0.5*sqrt(5)
    assert not in_P_eps(13, 0.5)     # |-3| > 0.5*sqrt(13)
    assert not in_P_eps(7, 0.5)      # not split at all
    assert in_P_eps(13, 1.0)
    with pytest.raises(ValueError):
        in_P_eps(5, 0.0)
    with pytest.raises(ValueError):
        in_P_eps(5, 1.5)


def test_in_P_eps_false_off_the_primes():
    # composites and n < 2 are not members, as for the other prime sets
    for n in (-5, 0, 1, 9, 21, 25, 65, 2**62 + 1):
        assert not in_P_eps(n, 1.0)
    with pytest.raises(ValueError):
        in_P_eps(9, 0.0)             # a bad eps still raises
    with pytest.raises(ValueError):
        in_P_eps(2**64 + 1, 1.0)     # beyond the exact primality range


def test_split_table_small():
    p, a, b = split_range(2, 100)
    assert p.tolist() == [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
    assert np.all(a * a + b * b == p)
    assert np.all(a % 4 == 1)
    assert np.all(b > 0)
    assert np.all(np.abs(a / np.sqrt(p)) <= 1.0)
    ang = theta_of(a, b)
    assert np.all((ang >= 0.0) & (ang < 1.0))


def test_split_range_matches_scalar():
    p, a, b = split_range(2, 20000)
    for i in range(p.size):
        s = canonical_split(int(p[i]))
        assert (s.a, s.b) == (int(a[i]), int(b[i]))


def test_split_range_matches_scalar_at_bulk_limit():
    # the top of the int64 bulk range, where (p-1)^2 comes closest to 2^63
    lo, hi = 2**31 - 20_000, 2**31
    p, a, b = split_range(lo, hi)
    assert p.tolist() == [int(q) for q in primes_in(lo, hi) if q % 4 == 1]
    for i in range(p.size):
        s = canonical_split(int(p[i]))
        assert (s.a, s.b) == (int(a[i]), int(b[i]))


def test_split_range_pinned_to_1e6():
    # sha256 of the p, a, b int64 bytes as an independent method computed
    # them: a Euclidean descent from a square root of -1 mod p
    p, a, b = split_range(2, 10**6 + 1)
    digest = hashlib.sha256(b"".join(x.astype("<i8").tobytes() for x in (p, a, b)))
    assert digest.hexdigest() == (
        "327b52885f7a3f486225d1e9544fd73237dd26775cf42879eee655a92cb074c3")


@pytest.mark.parametrize("lo", [2, 10**6, 2**31 - 3 * SEGMENT_ODDS])
@pytest.mark.parametrize("past", [-2, -1, 0, 1, 2, 3001])
def test_split_range_across_segment_seam(lo, past):
    # the first segment of [lo, hi) ends at lo + 2 * SEGMENT_ODDS (odd lo)
    seam = (max(lo, 3) | 1) + 2 * SEGMENT_ODDS
    hi = seam + past
    p, a, b = split_range(lo, hi)
    assert p.dtype == a.dtype == b.dtype == np.int64
    assert p.tolist() == [int(q) for q in primes_in(lo, hi) if q % 4 == 1]
    near = np.flatnonzero(p >= seam - 3000)
    assert near.size > 50
    for i in near:
        s = canonical_split(int(p[i]))
        assert (s.a, s.b) == (int(a[i]), int(b[i]))


def test_split_range_tiny_segments(monkeypatch):
    # segments shorter than a row of lattice points, and empty ones
    want = split_range(2, 30_000)
    monkeypatch.setattr(gaussian_split, "SEGMENT_ODDS", 7)
    got = split_range(2, 30_000)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("lo,hi", [(2, 5), (7, 8), (10**6 + 3, 10**6 + 4)])
def test_split_range_empty_windows(lo, hi):
    for x in split_range(lo, hi):
        assert x.dtype == np.int64 and x.shape == (0,)


@given(st.integers(min_value=2, max_value=5000), st.integers(min_value=100, max_value=3000))
def test_split_range_windows_consistent(lo, width):
    p, a, b = split_range(lo, lo + width)
    assert np.all(a * a + b * b == p)
    assert np.all(a % 4 == 1)
    assert np.all(b % 2 == 0)
    want = [int(q) for q in primes_in(lo, lo + width) if q % 4 == 1]
    assert p.tolist() == want
