"""Diagonal curves a X^alpha + b Y^beta = c over prime fields.

With d = gcd(alpha, beta) and M = lcm(alpha, beta) the genus is
g = ((alpha-1)(beta-1) - (d-1)) / 2.  For p = 1 mod M with p not dividing abc
the trace is

    trace = p + 1 - N_d - #C_affine(F_p),

where N_d is d when -a/b is a d-th power residue mod p and 0 otherwise (it
counts the directions at infinity), and #C_affine is the AFFINE point count.
That affine convention is fixed here throughout; assertions against the
2g*sqrt(p) Hasse bound therefore carry a slack of 1 to absorb the
point-at-infinity bookkeeping of other conventions.

The affine count is one sum of Jacobi sums over the characters chi, psi of
orders dividing alpha and beta (Ireland & Rosen, *A Classical Introduction
to Modern Number Theory*, ch. 8):

    N = sum_{chi, psi} chi(c/a) psi(c/b) J(chi, psi).

One accumulation evaluates it for every M, asking a source only for the J
with chi, psi and chi psi all nontrivial.  There are two sources:

* M in {3, 4}: J(chi, chi) is the primary prime of Z[omega] or Z[i] above
  p (Weil, "Jacobi sums as Groessencharaktere", Trans. AMS 73, 1952;
  Ireland & Rosen ch. 9), found by Cornacchia's descent: O(log p), any p.
* every other M: one bincount per J over a discrete-log table, Theta(p).

The total is a rational integer in Z[zeta_M], so it is its trace over Q, a
sum of Ramanujan sums c_M(k) (Hardy & Wright, ch. XVI), divided by phi(M).
``count_affine_naive``, a value-table convolution over F_p, is the oracle
that the formula must match.

Everything is integer arithmetic.  ``trace`` uses the O(log p) source where
it applies and the naive count elsewhere, unless a backend is named.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, sqrt
from typing import Callable, Iterable

import numpy as np

from .gaussian_split import _cornacchia
from .prime_engine import is_prime

log = logging.getLogger(__name__)

NAIVE_LIMIT = 10**7  # O(p) memory and time; keep desk-scale
_CM_MODULI = (3, 4)  # M with a closed-form count
_Jacobi = Callable[[int, int], list[int]]  # (s, t) -> J(chi^s, chi^t) on 1, zeta, ...


class CacheFormatError(ValueError):
    """Raised when a trace-cache file does not parse or match its curve."""


@dataclass(frozen=True)
class CurveSpec:
    """A diagonal curve with derived invariants d, M, g."""

    a: int
    b: int
    c: int
    alpha: int
    beta: int
    d: int
    M: int
    g: int


@dataclass(frozen=True)
class TraceRecord:
    """Point count and trace of one prime on one curve."""

    p: int
    nd: int
    affine_count: int
    trace: int
    normalized: float


def curve_new(a: int, b: int, c: int, alpha: int, beta: int) -> CurveSpec:
    """Build a CurveSpec; genus 0 curves are constructible but flagged.

    The parity check on (alpha-1)(beta-1) - (d-1) is defensive: a short case
    split on the parities of alpha and beta shows it can never fail for
    integer exponents, but the genus formula is rejected loudly rather than
    silently truncated if that reasoning is ever wrong.
    """
    if a == 0 or b == 0 or c == 0:
        raise ValueError("coefficients a, b, c must be nonzero")
    if not (alpha >= beta >= 2):
        raise ValueError("need alpha >= beta >= 2")
    if alpha > 16:
        raise ValueError("alpha capped at 16")
    d = gcd(alpha, beta)
    M = alpha * beta // d
    num = (alpha - 1) * (beta - 1) - (d - 1)
    if num % 2:
        raise ValueError("genus formula is not integral for these exponents")
    return CurveSpec(a=a, b=b, c=c, alpha=alpha, beta=beta, d=d, M=M, g=num // 2)


def _check_p(curve: CurveSpec, p: int, need_mod_M: bool = True) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if (curve.a * curve.b * curve.c) % p == 0:
        raise ValueError(f"p={p} divides a coefficient")
    if need_mod_M and p % curve.M != 1:
        raise ValueError(f"p={p} is not 1 mod M={curve.M}")


def curve_primes(curve: CurveSpec, primes: Iterable[int]) -> list[int]:
    """The p of ``primes`` with p = 1 mod M and p not dividing abc, in order:
    the primes the trace is defined at.

    The filter runs on Python ints, so coefficients of any size are exact.
    """
    abc = curve.a * curve.b * curve.c
    return [p for p in map(int, primes) if p % curve.M == 1 and abc % p]


def nd(curve: CurveSpec, p: int) -> int:
    """d when -a/b is a d-th power residue mod p, else 0.

    For d = 1 every residue is a first power, so the answer is 1.
    """
    _check_p(curve, p)
    return _nd(curve, p)


def _nd(curve: CurveSpec, p: int) -> int:
    if curve.d == 1:
        return 1
    t = (-curve.a % p) * pow(curve.b, -1, p) % p
    return curve.d if pow(t, (p - 1) // curve.d, p) == 1 else 0


def _check_table_size(p: int) -> None:
    """Refuse a Theta(p) table beyond NAIVE_LIMIT, before allocating it."""
    if p > NAIVE_LIMIT:
        raise ValueError(f"p={p} beyond the O(p) counting limit {NAIVE_LIMIT}")


def _pow_table(p: int, e: int) -> np.ndarray:
    """x^e mod p for all x in [0, p), square-and-multiply on int64 in place."""
    out = np.ones(p, dtype=np.int64)
    base = np.arange(p, dtype=np.int64)
    while True:
        if e & 1:
            out *= base
            out %= p
        e >>= 1
        if not e:
            return out
        base *= base
        base %= p


def count_affine_naive(curve: CurveSpec, p: int) -> int:
    """#{(x, y) in F_p^2 : a x^alpha + b y^beta = c} by table convolution.

    Tabulates a*x^alpha and c - b*y^beta, bincounts both, and takes the dot
    product of the two count vectors.  Works for any p not dividing abc.
    """
    _check_p(curve, p, need_mod_M=False)
    return _count_affine_naive(curve, p)


def _count_affine_naive(curve: CurveSpec, p: int) -> int:
    _check_table_size(p)
    lhs = _pow_table(p, curve.alpha)
    lhs *= curve.a % p
    lhs %= p
    n_lhs = np.bincount(lhs, minlength=p)
    del lhs  # one side's value table at a time bounds the peak memory
    rhs = _pow_table(p, curve.beta)
    rhs *= -curve.b % p
    rhs += curve.c % p
    rhs %= p
    return int(n_lhs @ np.bincount(rhs, minlength=p))


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    fac = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            fac.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        fac.append(n)
    return fac


def _primitive_root(p: int) -> int:
    """Smallest primitive root mod p, by ascending search (reproducible)."""
    if p == 2:
        return 1
    fac = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise RuntimeError("no primitive root found")  # unreachable for prime p


def _dlog_table(p: int, g: int, M: int) -> np.ndarray:
    """ind[v] = k mod M with g^k = v mod p (ind[0] unused), via sqrt(p) blocks."""
    ind = np.zeros(p, dtype=np.int32)
    pows = np.empty(p - 1, dtype=np.int64)
    B = max(1, isqrt(p - 1))
    small = np.empty(B, dtype=np.int64)
    v = 1
    for i in range(B):
        small[i] = v
        v = v * g % p
    gB = v
    big = 1
    i = 0
    while i < p - 1:
        j = min(B, p - 1 - i)
        pows[i : i + j] = small[:j] * big % p
        big = big * gB % p
        i += j
    ind[pows] = np.arange(p - 1, dtype=np.int32) % M
    return ind


@lru_cache(maxsize=None)
def _ramanujan_sums(M: int) -> tuple[int, ...]:
    """c_M(k) = sum_{d | gcd(k, M)} d mu(M/d) for k = 0..M-1.

    c_M(k) is the trace from Q(zeta_M) to Q of zeta_M^k; c_M(0) = phi(M).
    """
    qs = _prime_factors(M)

    def mu(n: int) -> int:
        if any(n % (q * q) == 0 for q in qs):
            return 0
        return (-1) ** sum(n % q == 0 for q in qs)

    divs = [d for d in range(1, M + 1) if M % d == 0]
    return tuple(sum(d * mu(M // d) for d in divs if k % d == 0) for k in range(M))


@lru_cache(maxsize=None)
def _terms(M: int, alpha: int, beta: int) -> tuple[tuple[int, int], ...]:
    """The (s, t) with chi^s and chi^t nontrivial of orders dividing alpha and
    beta, for chi of order M: the Jacobi sums of one curve shape."""
    sa, sb = M // alpha, M // beta
    return tuple((s, t) for s in range(sa, M, sa) for t in range(sb, M, sb))


def _conj(z: list[int]) -> list[int]:
    """The complex conjugate of sum_k z[k] zeta^k: index k goes to -k mod M."""
    return z[:1] + z[:0:-1]


def _jacobi_total(curve: CurveSpec, p: int, r: int, jacobi: _Jacobi) -> int:
    """The affine count N of the module docstring, from r and a J source.

    chi is one character of order M, chi(t) = zeta^k iff t^((p-1)/M) = r^k
    mod p.  J(eps, eps) = p, J(eps, chi^v) = 0 and J(chi^u, chi^-u) =
    -chi^u(-1) are fixed here; ``jacobi(s, t)`` gives J(chi^s, chi^t) for s,
    t, s + t all nonzero mod M, as the length-M integer list of its
    coefficients on 1, zeta, ..., zeta^(M-1).  Multiplying by zeta^k rotates
    the list; the total's trace over Q, divided by phi(M), is N.
    """
    M = curve.M
    e = (p - 1) // M
    powers = [pow(r, k, p) for k in range(M)]

    def ind(t: int) -> int:
        return powers.index(pow(t, e, p))

    ea = ind(curve.c * pow(curve.a, -1, p))
    eb = ind(curve.c * pow(curve.b, -1, p))
    neg1 = ind(p - 1)
    total = [p] + [0] * (M - 1)
    for s, t in _terms(M, curve.alpha, curve.beta):
        k = (s * ea + t * eb) % M
        if (s + t) % M:
            z = jacobi(s, t)
            total = [x + y for x, y in zip(total, z[-k:] + z[:-k])]
        else:  # J(chi^s, chi^-s) = -chi^s(-1)
            total[(k + s * neg1) % M] -= 1
    cs = _ramanujan_sums(M)
    N, rem = divmod(sum(n * c for n, c in zip(total, cs)), cs[0])
    if rem:
        raise RuntimeError("Jacobi-sum total is not a rational integer")
    return N


def _primary(M: int, m: int, n: int) -> bool:
    """pi = 2 mod 3 in Z[omega]; pi = 1 mod 2 + 2i in Z[i] (Ireland-Rosen ch. 9)."""
    if M == 3:
        return m % 3 == 2 and n % 3 == 0
    return m % 2 == 1 and n % 2 == 0 and (m + n) % 4 == 1


def _cm_source(M: int, p: int) -> tuple[int, _Jacobi]:
    """r and J for M in (3, 4) from the primary prime pi = m + n zeta above p.

    chi is the M-th power residue symbol mod pi, so zeta goes to r = -m/n
    mod p.  J(chi, chi) = pi (M = 3) or -chi(-1) pi (M = 4), and
    J(chi, chi^2) = chi(4) J(chi, chi) = -pi since chi(4) = chi(-1) = (2/p);
    conjugates give the rest.
    """
    u, v = _cornacchia(p, 3 if M == 3 else 1)  # u^2 + D v^2 = p
    # u + v sqrt(-3) = (u + v) + 2v omega; u + v i as it stands
    m, n = (u + v, 2 * v) if M == 3 else (u, v)
    while not _primary(M, m, n):
        m, n = (n, n - m) if M == 3 else (-n, m)  # times the unit -omega or i
    pi = [m, n] + [0] * (M - 2)
    neg_pi = [-x for x in pi]
    j11 = pi if M == 3 or p % 8 == 5 else neg_pi  # chi(-1) = -1 iff p = 5 mod 8

    def jacobi(s: int, t: int) -> list[int]:
        z = j11 if s == t else neg_pi
        return z if 1 in (s, t) else _conj(z)

    return -m * pow(n, -1, p) % p, jacobi


def _dlog_source(M: int, p: int) -> tuple[int, _Jacobi]:
    """r and J for any M from a discrete-log table mod p: Theta(p).

    chi(g) = zeta for the smallest primitive root g, so r = g^((p-1)/M), and
    J(chi^s, chi^t) = sum_{w != 0, 1} chi^s(w) chi^t(1 - w) is one bincount.
    """
    _check_table_size(p)
    g = _primitive_root(p)
    ind = _dlog_table(p, g, M)
    iw, i1w = ind[2:], ind[:1:-1]  # indices of w and of 1 - w, w = 2..p-1

    def jacobi(s: int, t: int) -> list[int]:
        return np.bincount((s * iw + t * i1w) % M, minlength=M).tolist()

    return pow(g, (p - 1) // M, p), jacobi


def count_affine_charsum(curve: CurveSpec, p: int) -> int:
    """Exact affine count by the Jacobi-sum formula of the module docstring.

    Requires p = 1 mod M (other primes fall back to the naive count).  J
    comes from the prime above p in O(log p) for M in (3, 4), and from a
    discrete-log table otherwise: Theta(p) time and memory, up to NAIVE_LIMIT.
    """
    if p % curve.M != 1:
        return count_affine_naive(curve, p)
    _check_p(curve, p)
    return _count_affine_charsum(curve, p)


def _count_affine_charsum(curve: CurveSpec, p: int) -> int:
    source = _cm_source if curve.M in _CM_MODULI else _dlog_source
    return _jacobi_total(curve, p, *source(curve.M, p))


def trace(curve: CurveSpec, p: int, backend: str | None = None) -> TraceRecord:
    """TraceRecord for p = 1 mod M; normalized = trace / (2 g sqrt(p)).

    backend None counts with the closed form for M in (3, 4), at any p, and
    with the naive count otherwise; "naive" and "charsum" name one backend.
    The Theta(p) counts raise beyond NAIVE_LIMIT.
    """
    if curve.g < 1:
        raise ValueError("trace needs genus >= 1")
    _check_p(curve, p)  # the only check: the counters below assume it
    return _trace(curve, p, backend)


def _trace(curve: CurveSpec, p: int, backend: str | None) -> TraceRecord:
    if backend is None:
        count = _count_affine_charsum if curve.M in _CM_MODULI else _count_affine_naive
    elif backend == "naive":
        count = _count_affine_naive
    elif backend == "charsum":
        count = _count_affine_charsum
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return _record(curve, p, _nd(curve, p), count(curve, p))


def _record(curve: CurveSpec, p: int, n_d: int, affine: int) -> TraceRecord:
    """The TraceRecord of p from N_d and the affine count."""
    tr = p + 1 - n_d - affine
    normalized = tr / (2.0 * curve.g * sqrt(p)) if curve.g else float("nan")
    return TraceRecord(p=p, nd=n_d, affine_count=affine, trace=tr, normalized=normalized)


def in_P_CI(curve: CurveSpec, p: int, interval: tuple[float, float]) -> bool:
    """True iff p = 1 mod M, p does not divide abc, and the normalized trace
    lies in the closed interval.  False (not an error) on the p conditions."""
    if curve.g < 1:
        raise ValueError("membership needs genus >= 1")
    lo, hi = interval
    if not (-1.0 <= lo <= hi <= 1.0):
        raise ValueError("interval must satisfy -1 <= lo <= hi <= 1")
    if p < 2 or not is_prime(p) or not curve_primes(curve, [p]):
        return False
    return lo <= _trace(curve, p, None).normalized <= hi


def eps_interval(curve: CurveSpec, eps: float) -> tuple[float, float]:
    """The |trace| <= eps*sqrt(p) window as a normalized-trace interval."""
    if curve.g < 1:
        raise ValueError("needs genus >= 1")
    if not 0.0 < eps <= 2.0 * curve.g:
        raise ValueError("eps must lie in (0, 2g]")
    h = eps / (2.0 * curve.g)
    return (-h, h)


# ---------------------------------------------------------------------------
# trace cache: `# curve a,b,c,alpha,beta` header, then `p,nd,affine,trace`
# lines ascending in p.  A cache is valid only for an exact header match.


def _header(curve: CurveSpec) -> str:
    return f"# curve {curve.a},{curve.b},{curve.c},{curve.alpha},{curve.beta}"


def save_trace_cache(path, curve: CurveSpec, records: Iterable[TraceRecord]) -> None:
    recs = sorted(records, key=lambda r: r.p)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_header(curve) + "\n")
        for r in recs:
            fh.write(f"{r.p},{r.nd},{r.affine_count},{r.trace}\n")


def load_trace_cache(path, curve: CurveSpec) -> list[TraceRecord]:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _header(curve):
        raise CacheFormatError(
            f"header mismatch: expected {_header(curve)!r}, "
            f"got {lines[0]!r}" if lines else "empty cache file"
        )
    out = []
    prev_p = 0
    for idx, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 4:
            raise CacheFormatError(f"line {idx}: expected 4 comma-separated fields")
        try:
            p, n_d, affine, tr = (int(s) for s in parts)
        except ValueError as e:
            raise CacheFormatError(f"line {idx}: non-integer field ({e})") from e
        if p <= prev_p:
            raise CacheFormatError(f"line {idx}: primes not strictly ascending")
        rec = _record(curve, p, n_d, affine)
        if n_d not in (0, curve.d) or tr != rec.trace:
            raise CacheFormatError(f"line {idx}: inconsistent record for p={p}")
        prev_p = p
        out.append(rec)
    return out


class TraceStore:
    """Memoized traces for one curve, optionally file-backed.

    Misses are computed with ``trace(curve, p, backend)``: by default the
    O(log p) closed form for M in (3, 4) and the naive count otherwise.  They
    are logged at debug level so a long scan can be resumed from the persisted
    cache.
    """

    def __init__(self, curve: CurveSpec, path=None, backend: str | None = None):
        self.curve = curve
        self.path = path
        self.backend = backend
        self.records: dict[int, TraceRecord] = {}
        if path is not None:
            try:
                self.records = {r.p: r for r in load_trace_cache(path, curve)}
            except FileNotFoundError:
                pass

    def get(self, p: int) -> TraceRecord:
        r = self.records.get(p)
        if r is None:
            log.debug("trace cache miss: curve %s p=%d", _header(self.curve), p)
            r = trace(self.curve, p, self.backend)
            self.records[p] = r
        return r

    def save(self, path=None) -> None:
        target = self.path if path is None else path
        if target is None:
            raise ValueError("no path given for trace cache")
        save_trace_cache(target, self.curve, self.records.values())
