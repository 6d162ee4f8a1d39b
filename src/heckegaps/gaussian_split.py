"""Split primes in imaginary quadratic fields and their angular data.

A prime p with p = 1 mod 4 factors in Z[i], giving p = a^2 + b^2 with a odd
and b even.  Pinning the sign by a = 1 mod 4 and b > 0 makes the decomposition
unique, the ratio a/sqrt(p) fills (-1, 1), and the degree-4 character angle is

    theta = 4 * arg(a + ib) / (2 pi)  mod 1.

Two paths compute the splits and agree element for element.  The scalar
``canonical_split`` runs Cornacchia's descent, which solves a^2 + D b^2 = p in
the two CM fields of the package, Z[i] (D = 1) and Z[omega] (D = 3), from one
square root of -D mod p.  For D = 1 the Miller-Rabin run that proves p prime
usually meets sqrt(-1) on its way (``_miller_rabin`` returns it), and the
public entry points pass it on.  Otherwise one root-of-unity step finds it:
w = z^((p-1)/m) for the least z that makes w a primitive m-th root of unity
gives sqrt(-1) = w (m = 4) or sqrt(-3) = 2w + 1 (m = 3), deterministic so
runs are reproducible.  Both roots of -1 give the same pair.  The bulk
``split_range`` behind the big sweeps takes no roots: it enumerates the
lattice points (a, b) whose norm a^2 + b^2 lands in a sieve segment and keeps
those the sieve marks prime.  The scalar path is its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, sqrt
from operator import index
from typing import Optional

import numpy as np

from .prime_engine import SEGMENT_ODDS, _check_range, _miller_rabin, _segments

# split_range holds lattice points and their norms in int32, so hi <= 2^31.
# Each segment also spends one row per even b < sqrt(hi): about 23k rows for
# about 200k points at 2^31, while near 2^40 rows would outnumber points.  Far
# beyond every sweep in this package.
_BULK_LIMIT = 1 << 31


@dataclass(frozen=True)
class SplitPrime:
    """A prime with its canonical a^2 + b^2 decomposition.

    ratio is a/sqrt(p) and theta the degree-4 Hecke angle in [0, 1).
    """

    p: int
    a: int
    b: int
    ratio: float
    theta: float


def cornacchia(p: int, D: int) -> Optional[tuple[int, int]]:
    """Solve a^2 + D b^2 = p with a, b > 0, or None when no solution exists.

    D is 1 or 3 (Z[i] and Z[omega]), where the pair is unique; for D = 1 it
    is ordered (odd, even).
    """
    p = index(p)
    if D not in (1, 3):
        raise ValueError("D must be 1 or 3")
    root = _miller_rabin(p)
    if root is None:
        raise ValueError(f"{p} is not prime")
    return _cornacchia(p, D, root if D == 1 else 0)


def _cornacchia(p: int, D: int, root: int = 0) -> Optional[tuple[int, int]]:
    """``cornacchia`` for a prime p and D in {1, 3} the caller has checked;
    a nonzero ``root`` (D = 1 only) is a sqrt(-1) mod p to start from."""
    if p == 2:
        return (1, 1) if D == 1 else None
    m = 4 if D == 1 else 3
    if p % m != 1:
        return None
    # sqrt(-1) is ``root`` when Miller-Rabin met one.  Else the least
    # z >= 2 with w^2 != 1, w = z^((p-1)/m), makes w a primitive m-th root of
    # unity: sqrt(-1) = w, or sqrt(-3) = 2w + 1 as (2w + 1)^2 = 4(w^2 + w + 1) - 3.
    # Either sign serves: the descent from p - r > p/2 steps to r.
    w = root
    if not w:
        z = 2
        while (w := pow(z, (p - 1) // m, p)) * w % p == 1:
            z += 1
    a, b = p, (w if D == 1 else (2 * w + 1) % p)
    lim = isqrt(p)
    while b > lim:
        a, b = b, a % b
    rem = p - b * b
    if rem % D:
        return None
    s2 = rem // D
    s = isqrt(s2)
    if s == 0 or s * s != s2:
        return None
    a, b = b, s
    if D == 1 and a % 2 == 0:
        a, b = b, a
    return (a, b)


def theta_of(a, b):
    """Degree-4 character angle 4*arg(a+ib)/(2 pi) mod 1; numpy-friendly."""
    return (2.0 * np.arctan2(b, a) / np.pi) % 1.0


def canonical_split(p: int) -> Optional[SplitPrime]:
    """The unique decomposition p = a^2 + b^2 with a = 1 mod 4 and b > 0.

    Returns None for p = 2 and for p = 3 mod 4.  Re-splitting an already
    canonical prime is a no-op (the normal form is stable).
    """
    p = index(p)
    root = _miller_rabin(p)
    if root is None:
        raise ValueError(f"{p} is not prime")
    if p == 2 or p % 4 == 3:
        return None
    pair = _cornacchia(p, 1, root)
    if pair is None:
        return None
    a, b = pair  # a odd, b even by the D=1 ordering
    if a % 4 != 1:
        a = -a
    return SplitPrime(p=p, a=a, b=b, ratio=a / sqrt(p), theta=float(theta_of(a, b)))


def peps_cut(eps: float):
    """The P_eps cut |a| <= eps * sqrt(p) as a predicate on (p, a).

    Elementwise on arrays of canonical splits, and on scalars.  eps up to 1.0
    is accepted for experiments; every split prime passes at eps = 1 since
    a^2 < p.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return lambda p, a: np.abs(a) <= eps * np.sqrt(p)


def in_P_eps(p: int, eps: float) -> bool:
    """Membership in P_eps = {p = a^2 + b^2 : |a| <= eps * sqrt(p)}.

    False for every other integer, composites and n < 2 included.
    """
    p, cut = index(p), peps_cut(eps)
    root = _miller_rabin(p)
    if root is None or p % 4 != 1:
        return False
    return bool(cut(p, _cornacchia(p, 1, root)[0]))


def _isqrt_vec(n: np.ndarray) -> np.ndarray:
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s = np.where((s + 1) * (s + 1) <= n, s + 1, s)
    return np.where(s * s > n, s - 1, s)


def split_range(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical splits of every p = 1 mod 4 in [lo, hi), vectorized.

    Returns (p, a, b) int64 arrays, ascending in p, with a^2 + b^2 = p,
    a = 1 mod 4 and b > 0: element for element what ``canonical_split``
    gives.  No square root mod p is taken.  Each sieve segment of
    ``_segments`` lists every lattice point (a odd >= 1, b even >= 2) whose
    norm a^2 + b^2 falls in it, one row of odd a per b, and keeps the points
    whose norm the segment flags as prime.  A prime p = 1 mod 4 is the norm
    of exactly one such point (Z[i] has unique factorization), and every odd
    norm is 1 mod 4, so the kept points, ordered by norm, are the splits.
    """
    if hi > _BULK_LIMIT:
        raise ValueError("split_range supports hi up to 2^31")
    _check_range(lo, hi)
    rows = [np.empty((3, 0), dtype=np.int32)]
    for seg_lo, buf in _segments(lo, hi, SEGMENT_ODDS):
        top = seg_lo + 2 * (buf.size - 1)  # the last odd number of the segment
        b = np.arange(2, isqrt(top - 1) + 1, 2, dtype=np.int64)
        b2 = b * b
        # odd a from ceil(sqrt(seg_lo - b^2)) up to isqrt(top - b^2)
        a_lo = (_isqrt_vec(np.maximum(seg_lo - b2, 1) - 1) + 1) | 1
        a_hi = (_isqrt_vec(top - b2) - 1) | 1
        count = np.maximum((a_hi - a_lo) // 2 + 1, 0)
        first = np.cumsum(count) - count  # index of each row's first point
        a = (np.repeat((a_lo - 2 * first).astype(np.int32), count)
             + 2 * np.arange(count.sum(), dtype=np.int32))
        b = np.repeat(b.astype(np.int32), count)
        j = (a * a + np.repeat((b2 - seg_lo).astype(np.int32), count)) >> 1
        kept = np.flatnonzero(buf[j])  # buf[j] says whether seg_lo + 2 j is prime
        kept = kept[np.argsort(j[kept])]
        rows.append(np.stack((seg_lo + 2 * j[kept], a[kept], b[kept])))
    p, a, b = np.concatenate(rows, axis=1).astype(np.int64)
    return p, np.where(a % 4 == 1, a, -a), b
