"""Prime enumeration substrate.

A segmented, odd-only sieve of Eratosthenes over numpy boolean buffers, plus a
deterministic Miller-Rabin check for spot queries.  Every other module in the
package consumes primes through these entry points, so the contract here is
strict: exact output, stable ordering, no probabilistic behaviour.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isqrt
from typing import Optional

import numpy as np

# Segment length measured in odd numbers.  1 << 19 odds is a ~0.5 MB boolean
# buffer, small enough to stay in L2 on common hardware.  Correctness must not
# (and does not) depend on this value; tests exercise other segment sizes.
SEGMENT_ODDS = 1 << 19

# Upper bound accepted for range endpoints.
RANGE_LIMIT = 1 << 50

# Deterministic Miller-Rabin witnesses: the first twelve primes, fixed so
# results are reproducible everywhere.  _PSI[k - 1] is psi_k, the least strong
# pseudoprime to the first k bases (OEIS A014233): below it those k bases alone
# prove primality.  psi_2..psi_4 are from C. Pomerance, J. L. Selfridge and
# S. S. Wagstaff, "The pseudoprimes to 25 * 10^9", Math. Comp. 35 (1980);
# psi_5..psi_8 from G. Jaeschke, "On strong pseudoprimes to several bases",
# Math. Comp. 61 (1993); psi_9..psi_11 from Y. Jiang and Y. Deng, "Strong
# pseudoprimes to the first eight prime bases", Math. Comp. 83 (2014).
# psi_12 > 2^64 (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017)) makes all twelve a proof below 2^64.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 2^64: ``_miller_rabin``
    with its square root of -1 dropped.

    n < psi_k is tested with the first k ``MR_BASES`` only (k <= 12).
    Larger n raise ValueError: the twelve bases are only a proof below 2^64,
    and composites above it pass all of them.
    """
    return _miller_rabin(n) is not None


def _miller_rabin(n: int) -> Optional[int]:
    """The Miller-Rabin test of ``is_prime``, keeping a square root of -1 it meets.

    None when n is not prime.  For a prime n, each base a runs the chain
    a^d, a^(2d), ..., d = (n - 1) / 2^s odd; when one first reaches n - 1 at
    a step j >= 1, the element x before it has x^2 = -1 mod n, and the first
    such x is returned.  0 when no chain gives one: for n = 2, for n = 3
    mod 4 (s = 1), for n among the bases, and for n = 1 mod 4 when every base
    a tried has a^(2d) = 1 (for n = 5 mod 8: when each is a square mod n).
    """
    if n >= 1 << 64:
        raise ValueError(f"{n} is beyond the exact Miller-Rabin range (n < 2^64)")
    if n < 2:
        return None
    for p in MR_BASES:
        if n % p == 0:
            return 0 if n == p else None
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    root = 0
    for a in MR_BASES[:bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            y = x * x % n
            if y == n - 1:
                root = root or x
                break
            x = y
        else:
            return None
    return root


def _check_range(lo: int, hi: int) -> None:
    if not (2 <= lo < hi <= RANGE_LIMIT):
        raise ValueError(f"invalid range [{lo}, {hi}): need 2 <= lo < hi <= 2^50")


def _segments(lo: int, hi: int, segment_odds: int):
    """Sieve the odd numbers of [max(lo, 3), hi) one segment at a time.

    Yields ``(seg_lo, buf)`` where ``buf[i]`` is True iff ``seg_lo + 2 i`` is
    prime; ``seg_lo`` is odd.  The caller has validated the range.

    The odd base primes q <= sqrt(hi) come from this same kernel, called
    recursively on [3, sqrt(hi)] with the default segment size (a recursion
    of depth log log hi, ending where sqrt(hi) < 3).  In each segment one numpy
    expression gives every active q its first odd multiple >= max(q^2, seg_lo).
    A q smaller than the buffer is cleared with a strided slice; any larger q
    hits the buffer at most once (its odd multiples lie 2q apart), so all of
    them are cleared by one fancy-index assignment.  int64 cannot overflow:
    q < 2^25 and every multiple formed is at most max(q^2, seg_lo + 2q) < 2^51.
    """
    root = isqrt(hi - 1)
    base = _primes(3, root + 1, SEGMENT_ODDS) if root >= 3 else np.empty(0, np.int64)
    seg_lo = max(lo, 3) | 1  # first odd >= max(lo, 3)
    while seg_lo < hi:
        seg_hi = min(seg_lo + 2 * segment_odds, hi)
        n_odds = (seg_hi - seg_lo + 1) // 2
        buf = np.ones(n_odds, dtype=bool)
        q = base[: np.searchsorted(base, isqrt(seg_hi - 1), side="right")]
        # odd cofactor m >= max(q, ceil(seg_lo / q)); m * q is then odd
        idx = ((np.maximum(q, -(-seg_lo // q)) | 1) * q - seg_lo) // 2
        n_small = int(np.searchsorted(q, n_odds))
        for qi, i in zip(q[:n_small].tolist(), idx[:n_small].tolist()):
            buf[i::qi] = False
        hits = idx[n_small:]
        buf[hits[hits < n_odds]] = False
        yield seg_lo, buf
        seg_lo = seg_hi | 1


def _primes(lo: int, hi: int, segment_odds: int) -> np.ndarray:
    """``primes_in`` without the range check, for callers inside the engine."""
    chunks = [np.array([2], dtype=np.int64)] if lo <= 2 < hi else []
    for seg_lo, buf in _segments(lo, hi, segment_odds):
        chunks.append(seg_lo + 2 * np.flatnonzero(buf).astype(np.int64))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


def primes_in(lo: int, hi: int, segment_odds: int = SEGMENT_ODDS) -> np.ndarray:
    """All primes in [lo, hi) as an ascending int64 array.

    Segmented, odd-only sieve; see ``_segments`` for the clearing scheme.
    """
    _check_range(lo, hi)
    return _primes(lo, hi, segment_odds)


def _pi(n: int) -> int:
    """pi(n) by the Legendre-Lucy recurrence, in O(sqrt(n)) int64 words.

    S(v) starts as v - 1, the count of 2..v.  Once the primes below p are
    done, S(v) counts the integers in 2..v that are prime or have no prime
    factor below p.  Doing p removes the composites whose least prime factor
    is p: S(v) -= S(v // p) - S(p - 1) for every v >= p^2.  Only the
    ~2 sqrt(n) values v = n // i are ever read, so two arrays hold them:
    ``small[v]`` = S(v) for v <= r = isqrt(n) and ``large[i]`` = S(n // i)
    for i <= r.

    The head, each prime p <= c = icbrt(n), is one numpy update of each
    array.  n // i // p = n // (i p) is ``large[i p]`` while i p <= r, a
    strided slice, and at most r otherwise, a gather from ``small``.  Every
    right side is computed before its write, and ``large`` is updated before
    the ``small`` it reads, so every read sees S before p.

    The tail, every prime q in (c, r], needs no loop.  q^2 > r, so q never
    writes ``small``; it writes ``large[i]`` only for i <= n // q^2 < c + 1,
    as (c + 1)^3 > n; it reads ``large[i q]`` with i q >= q > c, or
    ``small``.  So no tail prime reads what another writes, and as the
    result is ``large[1]``, only each q's i = 1 term reaches it:
    pi(n) = S(n) - sum over q of (S(n // q) - pi(q - 1)), with S as the head
    left it.  The sum is Meissel's P2 term (D. H. Lehmer, Illinois J. Math. 3
    (1959)): it counts the products q q' <= n with c < q <= q', so it stays
    below n < 2^63.  About n^(3/4) / log n operations, all in the head.
    """
    if n < 2:
        return 0
    r = isqrt(n)
    c = round(n ** (1 / 3))  # icbrt(n) is c or c - 1: the float is good to 1e-9
    c -= c ** 3 > n
    small = np.arange(-1, r, dtype=np.int64)  # small[v] = v - 1
    vlarge = n // np.arange(1, r + 1, dtype=np.int64)  # vlarge[i - 1] = n // i
    large = np.concatenate(([0], vlarge - 1))  # large[i] = S(n // i)
    primes = _primes(2, r + 1, SEGMENT_ODDS)
    n_head = int(np.searchsorted(primes, c, side="right"))
    for p in primes[:n_head].tolist():
        sp = int(small[p - 1])
        p2 = p * p
        top = min(r, n // p2)  # large[i] changes iff n // i >= p^2
        mid = min(top, r // p)  # i p <= r
        large[1:mid + 1] -= large[p:mid * p + 1:p] - sp
        large[mid + 1:top + 1] -= small[vlarge[mid:top] // p] - sp
        if p2 <= r:
            small[p2:] -= small[np.arange(p2, r + 1) // p] - sp
    tail = primes[n_head:]
    return int(large[1]) - int((large[tail] - small[tail - 1]).sum())


def count_primes(lo: int, hi: int) -> int:
    """The number of primes in [lo, hi); equal to ``primes_in(lo, hi).size``.

    A wide window, ``hi - lo > max(3e4 hi^(1/3), 600 hi^(1/2))``, is counted
    as ``_pi(hi - 1) - _pi(lo - 1)``: O(sqrt(hi)) int64 words, whatever lo is.
    Any other window is sieved and counted segment by segment: memory bounded
    by one segment and the base primes.  So narrow windows far out (up to
    2^50) never build sqrt(hi)-long arrays.

    The rule is a measured crossover (2 cores, numpy 2.4.6, medians of 3).
    The sieve costs a fixed time per number that grows with the base primes
    it loops over; ``_pi`` costs the same whatever the width.  Break-even is
    the width where a sieve equals two ``_pi`` calls.  The rule was fitted
    to the break-even of an earlier ``_pi`` that looped over every prime up
    to sqrt(hi) (column "fit"); ``_pi`` is faster now, so its break-even is
    lower and the rule errs toward the sieve:

        hi     sieve/number  _pi(hi)     fit              rule
        1e7     1.2 ns        1.2 ms     6.5e6            6.5e6
        1e8     1.5 ns        3-4 ms     1.4e7            1.4e7
        1e9     2.8 ns       11-14 ms    3.0e7            3.0e7
        1e10    6.7 ns       0.06-0.1 s  6e7              6.5e7
        1e11   14 ns         0.3-0.4 s   7e7              1.9e8
        1e12   24 ns         2.1-2.8 s   2.5e8            6.0e8
        1e13   23 ns         9-10 s      1.3e9            1.9e9
        2^50   53 ns         200-400 s   0.9e10-1.6e10    2.0e10

    Up to 1e10 the hi^(1/3) term lands on the fit; beyond, the sqrt(hi)
    term stays above it, so no window picks ``_pi`` where the sieve is
    faster.  At 2^50 ``_pi`` is extrapolated, not run (about 1.6 GB).
    """
    _check_range(lo, hi)
    if hi - lo > max(3e4 * hi ** (1 / 3), 600 * hi ** 0.5):
        return _pi(hi - 1) - _pi(lo - 1)
    return int(lo <= 2) + sum(
        int(np.count_nonzero(buf)) for _, buf in _segments(lo, hi, SEGMENT_ODDS))


def prime_count(x: int) -> int:
    """pi(x), the number of primes <= x, by ``_pi`` in O(sqrt(x)) memory."""
    if x < 2:
        raise ValueError("prime_count needs x >= 2")
    _check_range(2, x + 1)
    return _pi(x)
