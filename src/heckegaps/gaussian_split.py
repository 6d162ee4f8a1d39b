"""Split primes in imaginary quadratic fields and their angular data.

A prime p with p = 1 mod 4 factors in Z[i], giving p = a^2 + b^2 with a odd
and b even.  Pinning the sign by a = 1 mod 4 and b > 0 makes the decomposition
unique, the ratio a/sqrt(p) fills (-1, 1), and the degree-4 character angle is

    theta = 4 * arg(a + ib) / (2 pi)  mod 1.

Cornacchia's descent solves a^2 + D b^2 = p for the class-number-one values of
D, with a deterministic Tonelli-Shanks square root so runs are reproducible.
``split_range`` is the vectorized bulk path used by the big sweeps; it agrees
element-for-element with the scalar ``canonical_split``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, sqrt
from typing import Optional

import numpy as np

from .prime_engine import is_prime, primes_in

# Bulk splitting is done in int64 with products up to (p-1)^2, so the moduli
# must stay below 2^31.  Far beyond every sweep in this package.
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


def _sqrt_mod(n: int, p: int) -> int:
    """A square root of n modulo an odd prime p (n assumed to be a residue).

    Tonelli-Shanks with the non-residue found by ascending scan from 2, so the
    same input always yields the same root.
    """
    n %= p
    if n == 0:
        return 0
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def cornacchia(p: int, D: int) -> Optional[tuple[int, int]]:
    """Solve a^2 + D b^2 = p with a, b > 0, or None when no solution exists.

    For D = 1 the returned pair is ordered (odd, even).  Small p fall back to
    direct search; otherwise the classical descent runs from a square root of
    -D taken in (p/2, p).
    """
    if not 1 <= D <= 163:
        raise ValueError("D must lie in [1, 163]")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _cornacchia(p, D)


def _cornacchia(p: int, D: int) -> Optional[tuple[int, int]]:
    """``cornacchia`` for a prime p and 1 <= D <= 163 the caller has checked."""
    if p == 2 or p <= D:
        # tiny or degenerate cases: exhaustive over b
        b = 1
        while D * b * b < p:
            a2 = p - D * b * b
            a = isqrt(a2)
            if a * a == a2:
                if D == 1 and a % 2 == 0:
                    a, b = b, a
                return (a, b)
            b += 1
        return None
    t = (-D) % p
    if pow(t, (p - 1) // 2, p) != 1:
        return None
    r = _sqrt_mod(t, p)
    if 2 * r < p:
        r = p - r
    a, b = p, r
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
    if p == 2 or p % 4 == 3:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return None
    pair = cornacchia(p, 1)
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
    """Membership in P_eps = {p = a^2 + b^2 : |a| <= eps * sqrt(p)}."""
    cut = peps_cut(eps)
    s = canonical_split(p)
    return s is not None and bool(cut(p, s.a))


def _pow_mod_vec(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base^exp mod `mod` for int64 arrays, mod < 2^31."""
    result = np.ones_like(mod)
    b = base % mod
    e = exp.copy()
    while e.any():
        odd = (e & 1).astype(bool)
        result[odd] = result[odd] * b[odd] % mod[odd]
        b = b * b % mod
        e >>= 1
    return result


def _isqrt_vec(n: np.ndarray) -> np.ndarray:
    s = np.sqrt(n.astype(np.float64)).astype(np.int64)
    s = np.where((s + 1) * (s + 1) <= n, s + 1, s)
    return np.where(s * s > n, s - 1, s)


def split_range(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical splits of every p = 1 mod 4 in [lo, hi), vectorized.

    Returns (p, a, b) int64 arrays with a^2 + b^2 = p, a = 1 mod 4, b > 0.
    This is the workhorse behind the 10^7-scale sweeps; the square root of -1
    is found as n^((p-1)/4) for the smallest non-residue n (candidates scanned
    in ascending prime order, which is exactly the smallest non-residue since
    the least non-residue is always prime), then the usual Euclidean descent
    runs on all primes at once with masked updates.
    """
    if hi > _BULK_LIMIT:
        raise ValueError("split_range supports hi up to 2^31")
    ps = primes_in(lo, hi)
    p = ps[ps % 4 == 1]
    if p.size == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    e4 = (p - 1) // 4
    r = np.zeros_like(p)
    todo = np.arange(p.size)
    # the least non-residue of p is a prime below sqrt(p) + 1
    for cand in primes_in(2, isqrt(hi) + 2):
        if todo.size == 0:
            break
        pm = p[todo]
        t = _pow_mod_vec(np.full(todo.size, cand, dtype=np.int64), e4[todo], pm)
        good = t * t % pm == pm - 1
        r[todo[good]] = t[good]
        todo = todo[~good]
    r = np.where(2 * r < p, p - r, r)
    lim = _isqrt_vec(p)
    a = p.copy()
    b = r
    active = b > lim
    while active.any():
        aa = a[active]
        bb = b[active]
        a[active] = bb
        b[active] = aa % bb
        active = b > lim
    x = b
    y2 = p - x * x
    y = _isqrt_vec(y2)
    if (y * y != y2).any() or (y == 0).any():
        raise RuntimeError("descent failed to produce a two-square split")
    odd_first = x % 2 == 1
    a0 = np.where(odd_first, x, y)
    b0 = np.where(odd_first, y, x)
    a0 = np.where(a0 % 4 == 1, a0, -a0)
    return p, a0, b0
