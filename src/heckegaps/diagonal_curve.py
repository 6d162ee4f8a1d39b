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
with chi, psi and chi psi all nontrivial.  The one source so far is the
closed form for M in {3, 4}: J(chi, chi) is the primary prime of Z[omega]
or Z[i] above p (Weil, "Jacobi sums as Groessencharaktere", Trans. AMS 73,
1952; Ireland & Rosen ch. 9), found by Cornacchia's descent: O(log p), any p.

The total is a rational integer in Z[zeta_M], so it is its trace over Q, a
sum of Ramanujan sums c_M(k) (Hardy & Wright, ch. XVI), divided by phi(M).
``count_affine_naive``, the oracle that the formula must match, needs no
Jacobi sums: it enumerates the cosets of d-th powers in F_p* that a x^alpha
and b y^beta cover, from a primitive root, and counts the pairs that meet.
A coset of even order is closed under negation, so only half of it is
generated, and it is generated in blocks: a count holds a p-byte mask and
one block.

Everything is integer arithmetic.  ``_counter`` is the one choice of
counter: the closed form where one exists and the naive count elsewhere,
unless the backend "naive" is named.
``curve_traces``, the one range path of ``curve-trace --lo/--hi``, ``equidist``
and the curve sets, traces each sieved prime of a window once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, sqrt
from operator import index
from typing import Callable, Iterable, Iterator

import numpy as np

from .gaussian_split import _cornacchia
from .prime_engine import is_prime, primes_in

NAIVE_LIMIT = 10**7  # O(p) memory and time; keep desk-scale
PROBE = 1 << 16  # values per sieve when looking past NAIVE_LIMIT
# int64 values per coset block of the naive count: 64 KiB, under glibc malloc's
# 128 KiB mmap threshold, so each block reuses heap pages, not fresh ones
_BLOCK = 1 << 13
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
    p = index(p)
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


def count_affine_naive(curve: CurveSpec, p: int) -> int:
    """#{(x, y) in F_p^2 : a x^alpha + b y^beta = c}, for any p not dividing abc.

    x -> a x^alpha maps F_p* d-to-1 onto a H_d, H_d the d-th powers and d =
    gcd(alpha, p - 1) (Ireland & Rosen ch. 8); likewise y -> b y^beta with e.
    So N = d [c in a H_d] + e [c in b H_e] + d e #{w in b H_e : c - w in a H_d}:
    one mask of a H_d read at c - b H_e, (p - 1)/d + (p - 1)/e values.
    a H_d = {a g^(dj) : j < n}, n = (p - 1)/d, g a primitive root.  For even
    n, g^(dn/2) = -1 and a H_d = -a H_d: j < n/2 suffices, each value marked
    with its negative; b H_e is read likewise at c - w and c + w.  Cosets come
    in blocks of about 2^13 int64 values, so no (p - 1)/d-long array exists.
    """
    p = index(p)
    _check_p(curve, p, need_mod_M=False)
    return _count_affine_naive(curve, p)


def _count_affine_naive(curve: CurveSpec, p: int) -> int:
    _check_table_size(p)
    if p == 2:
        return 2  # a, b, c odd: x + y = 1 over F_2
    g = _primitive_root(p)
    d, e = gcd(curve.alpha, p - 1), gcd(curve.beta, p - 1)
    c = curve.c % p
    in_a = np.zeros(p, dtype=bool)
    n = (p - 1) // d
    for v in _coset_blocks(p, curve.a % p, pow(g, d, p), n):
        in_a[v] = True
        if n % 2 == 0:
            np.negative(v, out=v)  # -v indexes p - v
            in_a[v] = True
    n, hits = (p - 1) // e, 0
    for u in _coset_blocks(p, -curve.b % p, pow(g, e, p), n):  # u = -w, w in b H_e
        u -= p - c  # c - w, in (-p, p): negative ones index from the end
        hits += np.count_nonzero(in_a[u])
        if n % 2 == 0:
            np.subtract(2 * c - p, u, out=u)  # c + w, in (-p, p)
            hits += np.count_nonzero(in_a[u])
    c_in_b = pow(c * pow(curve.b, -1, p), (p - 1) // e, p) == 1
    return d * int(in_a[c]) + e * c_in_b + d * e * int(hits)


def _coset_blocks(p: int, k: int, h: int, n: int) -> Iterator[np.ndarray]:
    """k h^j mod p, h of order n, for j < n in int64 blocks of about _BLOCK
    values; for even n only j < n/2, one of each pair v, p - v, as h^(n/2) =
    -1.  A block is a few rows k h^(Bi) times the column h^j, j < B, B about
    sqrt of the count; p <= NAIVE_LIMIT keeps each product below 2^48."""
    n = n if n % 2 else n // 2
    B = isqrt(n - 1) + 1
    hB, v = pow(h, B, p), 1
    col = [1] + [v := v * h % p for _ in range(B - 1)]
    rows = [k] + [k := k * hB % p for _ in range(-(-n // B) - 1)]
    powers = np.array(col + rows, dtype=np.int64)
    step = max(1, _BLOCK // B)
    for i in range(B, len(powers), step):
        out = powers[i:i + step, None] * powers[:B]
        out %= p
        yield out.ravel()[:n - (i - B) * B]


def _primitive_root(p: int) -> int:
    """The least primitive root mod the prime p."""
    exps = [(p - 1) // q for q in _prime_factors(p - 1)]
    for g in range(1, p):
        for x in exps:
            if pow(g, x, p) == 1:
                break
        else:
            return g
    raise RuntimeError("no primitive root found")  # unreachable for prime p


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


def count_affine_charsum(curve: CurveSpec, p: int) -> int:
    """Exact affine count by the Jacobi-sum formula of the module docstring
    where it has a closed form: M in (3, 4) and p = 1 mod M, in O(log p).
    Every other curve and prime falls back to the naive coset count, Theta(p)
    time and memory, up to NAIVE_LIMIT.
    """
    p = index(p)
    _check_p(curve, p, need_mod_M=False)
    return _counter(curve, "charsum" if p % curve.M == 1 else "naive")(curve, p)


def _count_affine_charsum(curve: CurveSpec, p: int) -> int:
    """The closed form, for M in _CM_MODULI and p = 1 mod M only."""
    return _jacobi_total(curve, p, *_cm_source(curve.M, p))


def _counter(curve: CurveSpec, backend: str | None) -> Callable[[CurveSpec, int], int]:
    """The affine counter of ``backend`` on ``curve``, the one place that
    reads a backend.

    None and "charsum" both give the closed form for M in _CM_MODULI (it
    needs p = 1 mod M) and the naive count otherwise; "naive" gives the naive
    count, the oracle.  Each call reads the counters as module globals.
    """
    if backend not in (None, "naive", "charsum"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend != "naive" and curve.M in _CM_MODULI:
        return _count_affine_charsum
    return _count_affine_naive


def trace(curve: CurveSpec, p: int, backend: str | None = None) -> TraceRecord:
    """TraceRecord for p = 1 mod M; normalized = trace / (2 g sqrt(p)).

    backend None and "charsum" both count with the closed form for M in
    (3, 4), at any p, and with the naive count otherwise; "naive" names the
    naive count.  The naive count raises beyond NAIVE_LIMIT.
    """
    if curve.g < 1:
        raise ValueError("trace needs genus >= 1")
    p = index(p)
    _check_p(curve, p)  # the only check: the counters below assume it
    return _trace(curve, p, backend)


def _trace(curve: CurveSpec, p: int, backend: str | None) -> TraceRecord:
    return _record(curve, p, _nd(curve, p), _counter(curve, backend)(curve, p))


def _record(curve: CurveSpec, p: int, n_d: int, affine: int) -> TraceRecord:
    """The TraceRecord of p from N_d and the affine count."""
    tr = p + 1 - n_d - affine
    normalized = tr / (2.0 * curve.g * sqrt(p)) if curve.g else float("nan")
    return TraceRecord(p=p, nd=n_d, affine_count=affine, trace=tr, normalized=normalized)


def curve_traces(
    curve: CurveSpec, lo: int, hi: int, store: TraceStore | None = None
) -> Iterator[TraceRecord]:
    """The TraceRecord of every prime in [lo, hi) that the trace is defined
    at, ascending, each traced once; the sieve proves them, so none is
    re-checked.  What tracing them would raise part way (genus 0, or a p
    beyond NAIVE_LIMIT on the naive count) is raised before the first
    count.  A ``store`` supplies its backend and its records and keeps the
    new ones; without one, no record outlives the loop.
    """
    records = {} if store is None else store.records
    backend = None if store is None else store.backend
    naive = _counter(curve, backend) is _count_affine_naive
    # the first prime past NAIVE_LIMIT still to count, by sieves of PROBE
    # values upward, so a window that must be refused is never sieved whole
    probes = range(max(lo, NAIVE_LIMIT + 1), hi, PROBE) if naive else ()
    far = next((p for s in probes for p in curve_primes(curve, primes_in(s, min(s + PROBE, hi)))
                if p not in records), None)
    ps = curve_primes(curve, primes_in(lo, hi)) if far is None else [far]
    if curve.g < 1 and any(p not in records for p in ps):
        raise ValueError("trace needs genus >= 1")
    if far is not None:
        _check_table_size(far)
    for p in ps:
        r = records.get(p)
        if r is None:
            r = _trace(curve, p, backend)
            if store is not None:
                records[p] = r
        yield r


def in_P_CI(curve: CurveSpec, p: int, interval: tuple[float, float]) -> bool:
    """True iff p = 1 mod M, p does not divide abc, and the normalized trace
    lies in the closed interval.  False (not an error) on the p conditions."""
    if curve.g < 1:
        raise ValueError("membership needs genus >= 1")
    lo, hi = interval
    if not (-1.0 <= lo <= hi <= 1.0):
        raise ValueError("interval must satisfy -1 <= lo <= hi <= 1")
    p = index(p)
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
        try:
            _check_p(curve, p)
        except ValueError as e:  # also p >= 2^64, beyond the exact primality test
            raise CacheFormatError(f"line {idx}: {e}") from e
        rec = _record(curve, p, n_d, affine)
        if n_d not in ((1,) if curve.d == 1 else (0, curve.d)) or tr != rec.trace:
            raise CacheFormatError(f"line {idx}: inconsistent record for p={p}")
        prev_p = p
        out.append(rec)
    return out


class TraceStore:
    """Memoized traces for one curve, optionally file-backed.

    ``get`` computes a miss with ``trace(curve, p, backend)``: by default, as
    with "charsum", the O(log p) closed form for M in (3, 4) and the naive
    count otherwise.
    ``curve_traces(curve, lo, hi, store)`` reads a window's records from the
    store and keeps the ones it counts, so ``save`` lets a long scan resume.
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
        p = index(p)
        r = self.records.get(p)
        if r is None:
            r = self.records[p] = trace(self.curve, p, self.backend)
        return r

    def save(self) -> None:
        if self.path is None:
            raise ValueError("no path given for trace cache")
        save_trace_cache(self.path, self.curve, self.records.values())
