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

The affine count is a sum of Jacobi sums of characters of order M.  Three
exact ways to evaluate it are provided, and they must agree:

* ``count_affine_naive``: a value-table convolution over F_p, Theta(p).  It
  is the oracle.
* The closed form for the CM curves, M in {3, 4}, i.e. exponents (3, 3),
  (4, 2) and (4, 4): J(chi, chi) is the primary prime of Z[omega] or Z[i]
  above p (Weil, "Jacobi sums as Groessencharaktere", Trans. AMS 73, 1952;
  Ireland & Rosen, *A Classical Introduction to Modern Number Theory*,
  ch. 9).  The prime comes from Cornacchia's descent and every character
  value from one modular power, so a trace costs O(log p) and has no p limit.
* ``count_affine_charsum`` for every other M: an exact Jacobi-sum
  accumulation over a discrete-log table, Theta(p).  Its total
  sum_k n_k zeta_M^k is a rational integer, so it equals its trace over Q
  divided by phi(M), and the trace of zeta_M^k is the Ramanujan sum c_M(k)
  (Hardy & Wright, ch. XVI).

Everything is integer arithmetic.  ``trace`` uses the closed form where it
applies and the naive count elsewhere, unless a backend is named.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import gcd, isqrt, sqrt
from typing import Iterable

import numpy as np

from .gaussian_split import _cornacchia
from .prime_engine import is_prime

log = logging.getLogger(__name__)

NAIVE_LIMIT = 10**7  # O(p) memory and time; keep desk-scale
_CM_MODULI = (3, 4)  # M with a closed-form count


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


def _pow_table(p: int, e: int) -> np.ndarray:
    """x^e mod p for all x in [0, p), square-and-multiply on int64."""
    x = np.arange(p, dtype=np.int64)
    out = np.ones(p, dtype=np.int64)
    base = x
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def count_affine_naive(curve: CurveSpec, p: int) -> int:
    """#{(x, y) in F_p^2 : a x^alpha + b y^beta = c} by table convolution.

    Tabulates a*x^alpha and c - b*y^beta, bincounts both, and takes the dot
    product of the two count vectors.  Works for any p not dividing abc.
    """
    _check_p(curve, p, need_mod_M=False)
    return _count_affine_naive(curve, p)


def _count_affine_naive(curve: CurveSpec, p: int) -> int:
    if p > NAIVE_LIMIT:
        raise ValueError(f"p={p} beyond the O(p) counting limit {NAIVE_LIMIT}")
    lhs = curve.a % p * _pow_table(p, curve.alpha) % p
    rhs = (curve.c % p - curve.b % p * _pow_table(p, curve.beta)) % p
    cnt1 = np.bincount(lhs, minlength=p)
    cnt2 = np.bincount(rhs, minlength=p)
    return int(cnt1 @ cnt2)


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


def _dlog_table(p: int, g: int) -> np.ndarray:
    """ind[v] = k with g^k = v mod p (ind[0] = -1), via sqrt(p) blocks."""
    ind = np.full(p, -1, dtype=np.int64)
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
    ind[pows] = np.arange(p - 1)
    return ind


def _ramanujan_sums(M: int) -> list[int]:
    """c_M(k) = sum_{d | gcd(k, M)} d mu(M/d) for k = 0..M-1.

    c_M(k) is the trace from Q(zeta_M) to Q of zeta_M^k; c_M(0) = phi(M).
    """
    qs = _prime_factors(M)

    def mu(n: int) -> int:
        if any(n % (q * q) == 0 for q in qs):
            return 0
        return (-1) ** sum(n % q == 0 for q in qs)

    divs = [d for d in range(1, M + 1) if M % d == 0]
    return [sum(d * mu(M // d) for d in divs if k % d == 0) for k in range(M)]


# Z[zeta_M] for M in (3, 4) as integer pairs (x, y) = x + y zeta, where
# zeta = omega (omega^2 = -1 - omega) or i.  _ROOTS[M][k] is zeta^k.
_ROOTS = {3: ((1, 0), (0, 1), (-1, -1)), 4: ((1, 0), (0, 1), (-1, 0), (0, -1))}


def _zmul(M: int, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    (x1, y1), (x2, y2) = u, v
    if M == 3:
        return (x1 * x2 - y1 * y2, x1 * y2 + x2 * y1 - y1 * y2)
    return (x1 * x2 - y1 * y2, x1 * y2 + x2 * y1)


def _zconj(M: int, u: tuple[int, int]) -> tuple[int, int]:
    x, y = u
    return (x - y, -y) if M == 3 else (x, -y)


def _primary(M: int, u: tuple[int, int]) -> bool:
    """pi = 2 mod 3 in Z[omega]; pi = 1 mod 2 + 2i in Z[i] (Ireland-Rosen ch. 9)."""
    m, n = u
    if M == 3:
        return m % 3 == 2 and n % 3 == 0
    return m % 2 == 1 and n % 2 == 0 and (m + n) % 4 == 1


def _count_affine_cm(curve: CurveSpec, p: int) -> int:
    """Affine count for M in (3, 4) in O(log p), from the prime above p.

    With chi the M-th power residue symbol mod the primary prime pi above p,

        N = sum_{j < alpha, l < beta} chi^{-sa j}(a/c) chi^{-sb l}(b/c)
                J(chi^{sa j}, chi^{sb l}),    sa = M/alpha, sb = M/beta,

    and every Jacobi sum comes from one table: J(e, e) = p, J(e, chi^v) = 0,
    J(chi^u, chi^-u) = -chi^u(-1), J(chi, chi) = pi (M = 3) or -chi(-1) pi
    (M = 4), J(chi, chi^2) = chi(4) J(chi, chi), conjugates for the rest.
    """
    M = curve.M
    zeta = _ROOTS[M]
    u, v = _cornacchia(p, 3 if M == 3 else 1)  # u^2 + D v^2 = p
    # u + v sqrt(-3) = (u + v) + 2v omega; u + v i as it stands
    pi = (u + v, 2 * v) if M == 3 else (u, v)
    units = [(s * x, s * y) for x, y in zeta for s in (1, -1)]
    pi = next(w for w in (_zmul(M, e, pi) for e in units) if _primary(M, w))
    m, n = pi
    # Z[zeta] / pi = F_p sends zeta to r, so chi(t) = zeta^k iff t^((p-1)/M) = r^k
    r = -m * pow(n, -1, p) % p
    powers = [pow(r, k, p) for k in range(M)]

    def ind(t: int) -> int:
        return powers.index(pow(t % p, (p - 1) // M, p))

    neg1 = ind(-1)  # chi(-1) = zeta^neg1
    j11 = pi if M == 3 else _zmul(M, zeta[(neg1 + 2) % 4], pi)  # -1 = i^2
    j12 = _zmul(M, zeta[ind(4)], j11)  # used for M = 4 only

    def jacobi(s: int, t: int) -> tuple[int, int]:
        s, t = s % M, t % M
        if s == 0 or t == 0:
            return (p, 0) if s == t else (0, 0)
        if (s + t) % M == 0:
            x, y = zeta[s * neg1 % M]
            return (-x, -y)
        if s == t:
            return j11 if s == 1 else _zconj(M, j11)
        return j12 if 1 in (s, t) else _zconj(M, j12)

    sa, sb = M // curve.alpha, M // curve.beta
    cinv = pow(curve.c, -1, p)
    ea, eb = ind(curve.a * cinv), ind(curve.b * cinv)
    x = y = 0
    for j in range(curve.alpha):
        for l in range(curve.beta):
            tx, ty = _zmul(M, zeta[-(sa * j * ea + sb * l * eb) % M], jacobi(sa * j, sb * l))
            x += tx
            y += ty
    if y:
        raise RuntimeError("Jacobi-sum total is not a rational integer")
    return x


def count_affine_charsum(curve: CurveSpec, p: int) -> int:
    """Exact affine count via Jacobi sums; must equal the naive backend.

    Requires p = 1 mod M (other primes fall back to the naive count).  For
    M in (3, 4) the closed form of the module docstring gives the count in
    O(log p).  For every other M, writing chi and psi for characters of
    orders alpha and beta realized through the smallest primitive root, the
    count decomposes as

        N = A(c) + B(c) + sum_{j < alpha, l < beta}
                chi^j(c/a) psi^l(c/b) J(chi^j, psi^l),

    where A and B count the one-variable solutions on the axes.  All Jacobi
    sums are accumulated as one integer vector n_k over the M residue classes
    of the combined discrete-log exponent, so the double sum is
    S = sum_k n_k zeta_M^k.  S = N - A(c) - B(c) is a rational integer, hence
    equal to its trace over Q divided by phi(M); the trace of zeta_M^k is the
    Ramanujan sum c_M(k), so S = sum_k n_k c_M(k) / phi(M) exactly, in
    integers.  This path builds a discrete-log table: Theta(p) time and memory.
    """
    if p % curve.M != 1:
        return count_affine_naive(curve, p)
    _check_p(curve, p)
    return _count_affine_charsum(curve, p)


def _count_affine_charsum(curve: CurveSpec, p: int) -> int:
    M = curve.M
    if M in _CM_MODULI:
        return _count_affine_cm(curve, p)
    g = _primitive_root(p)
    ind = _dlog_table(p, g)
    ca = curve.c % p * pow(curve.a, -1, p) % p
    cb = curve.c % p * pow(curve.b, -1, p) % p
    A_c = curve.alpha if ind[ca] % curve.alpha == 0 else 0
    B_c = curve.beta if ind[cb] % curve.beta == 0 else 0
    w = np.arange(2, p, dtype=np.int64)
    iw = ind[w]
    i1w = ind[(1 - w) % p]
    sa = M // curve.alpha
    sb = M // curve.beta
    buckets = np.zeros(M, dtype=np.int64)
    ks = np.arange(M)
    for j in range(curve.alpha):
        for l in range(curve.beta):
            bc = np.bincount((sa * j * iw + sb * l * i1w) % M, minlength=M)
            shift = (sa * j * int(ind[ca]) + sb * l * int(ind[cb])) % M
            buckets[(ks + shift) % M] += bc
    # the trace over Q of sum_k buckets[k] zeta_M^k, then divide by phi(M)
    cs = _ramanujan_sums(M)
    S, rem = divmod(sum(n * c for n, c in zip(buckets.tolist(), cs)), cs[0])
    if rem:
        raise RuntimeError("Jacobi-sum total is not a rational integer")
    return A_c + B_c + S


def trace(curve: CurveSpec, p: int, backend: str | None = None) -> TraceRecord:
    """TraceRecord for p = 1 mod M; normalized = trace / (2 g sqrt(p)).

    backend None counts with the closed form for M in (3, 4), at any p, and
    with the naive count otherwise; "naive" and "charsum" name one backend.
    The naive count raises beyond NAIVE_LIMIT.
    """
    if curve.g < 1:
        raise ValueError("trace needs genus >= 1")
    _check_p(curve, p)  # the only check: the counters below assume it
    return _trace(curve, p, backend)


def _trace(curve: CurveSpec, p: int, backend: str | None) -> TraceRecord:
    if backend is None:
        count = _count_affine_cm if curve.M in _CM_MODULI else _count_affine_naive
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
