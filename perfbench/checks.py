"""Output checks against computations made apart from the program.

sympy is the reference for primality, pi(x) and two-square decompositions;
the rest are identities the mathematics fixes (Gauss's formula for the trace
of x^3 + y^3 = 1, the two-square formula for x^4 + y^2 = 1, the Hasse bound,
M_k at degree 0) or full recomputations (histograms, KS distances,
brute-force residue counts, brute-force point counts for small p).  Nothing
is compared with a stored copy of an earlier output.

``check_all(ops, outputs)`` returns, for each operation, a list of the
reasons its output is wrong; an empty list means it passed.  A check never
raises on a wrong output; it reports it.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from math import asin, atan2, ceil, gcd, isqrt, log, pi, sqrt

import numpy as np
from sympy import isprime, primepi, sieve
from sympy.solvers.diophantine.diophantine import prime_as_sum_of_two_squares

from workloads import CURVES, DEFAULT_THETAS

MAYNARD_M105_DEG11 = 4.0020697  # J. Maynard, Ann. of Math. 181 (2015)
BRUTE_LIMIT = 20_000  # below this, curves are also point-counted by brute force
_REL = 1e-9  # float agreement for recomputed statistics


class Ref:
    """Reference data shared by the checks of one run, built on demand."""

    def __init__(self):
        self._primes = []
        self._limit = 1
        self._split = {}  # p = 1 mod 4 -> canonical a (a = 1 mod 4)
        self._brute = {}

    def primes(self, lo: int, hi: int) -> list[int]:
        """Primes in [lo, hi) by sympy's sieve."""
        if hi - 1 > self._limit:
            self._limit = max(hi - 1, 2 * self._limit)
            self._primes = list(sieve.primerange(2, self._limit + 1))
        return self._primes[bisect_left(self._primes, lo):bisect_left(self._primes, hi)]

    def pi(self, x: int) -> int:
        if x < 2:
            return 0
        if x <= self._limit:
            return bisect_right(self._primes, x)
        return int(primepi(x))

    def split_a(self, p: int) -> int:
        """The a of p = a^2 + b^2 with a = 1 mod 4, from sympy."""
        a = self._split.get(p)
        if a is None:
            x, y = prime_as_sum_of_two_squares(p)
            a = x if x % 2 else y
            a = a if a % 4 == 1 else -a
            self._split[p] = a
        return a

    def peps(self, lo: int, hi: int, eps: float) -> list[int]:
        return [p for p in self.primes(lo, hi)
                if p % 4 == 1 and abs(self.split_a(p)) <= eps * sqrt(p)]

    def trace(self, name: str, p: int):
        """Trace of curve ``name`` at p from a closed formula, or None."""
        if name == "x3+y3=1":
            for m in range(1, isqrt(4 * p // 27) + 1):
                r = 4 * p - 27 * m * m
                s = isqrt(r)
                if s * s == r:
                    return -(s if s % 3 == 1 else -s)  # 4p = L^2 + 27M^2, L = 1 mod 3
            return None
        if name == "x4+y2=1":
            return (-1) ** ((p - 1) // 4) * 2 * self.split_a(p)
        return None

    def brute(self, name: str, p: int) -> tuple[int, int]:
        """(affine points, points at infinity) of curve ``name`` over F_p."""
        key = (name, p)
        if key not in self._brute:
            a, b, c, alpha, beta = CURVES[name]
            ys = Counter(b * pow(y, beta, p) % p for y in range(p))
            affine = sum(ys[(c - a * pow(x, alpha, p)) % p] for x in range(p))
            d = gcd(alpha, beta)
            t = -a * pow(b, -1, p) % p
            self._brute[key] = (affine, d if pow(t, (p - 1) // d, p) == 1 else 0)
        return self._brute[key]


def _close(x: float, y: float, rel: float = _REL) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


def _arcsine_ks(samples) -> float:
    """sup |F_n - F| against the arcsine law F(t) = 1/2 + asin(t)/pi."""
    vals, counts = np.unique(np.asarray(samples, dtype=np.float64), return_counts=True)
    n = counts.sum()
    post = np.cumsum(counts) / n
    pre = post - counts / n
    F = 0.5 + np.arcsin(np.clip(vals, -1.0, 1.0)) / np.pi
    return float(max(np.abs(post - F).max(), np.abs(pre - F).max()))


def _members(ref: Ref, params: dict, lo: int, hi: int) -> list[int]:
    """Reference members of a gap-scan set in [lo, hi)."""
    kind = params["set"]
    if kind == "primes":
        return ref.primes(lo, hi)
    if kind == "peps":
        return ref.peps(lo, hi, params["eps"])
    name = params["curve"]
    a, b, c, alpha, beta = CURVES[name]
    M = alpha * beta // gcd(alpha, beta)
    g = ((alpha - 1) * (beta - 1) - (gcd(alpha, beta) - 1)) // 2
    h = params["trace_eps"] / (2.0 * g)
    out = []
    for p in ref.primes(lo, hi):
        if p % M == 1 and (a * b * c) % p:
            tr = ref.trace(name, p)
            if -h <= tr / (2.0 * g * sqrt(p)) <= h:
                out.append(p)
    return out


# -- one function per operation kind: (ref, params, output, extra) -> errors


def _primes_window(ref, prm, out, extra):
    lo, hi, ps = prm["lo"], prm["hi"], out["primes"]
    err = []
    if out["count"] != len(ps):
        err.append("count differs from the primes listed")
    if any(q <= p for p, q in zip(ps, ps[1:])) or (ps and (ps[0] < lo or ps[-1] >= hi)):
        err.append("primes not ascending inside the window")
    if not all(isprime(p) for p in ps):
        err.append("a listed number is composite")
    listed = set(ps)
    width = 3000
    for s in (lo, (lo + hi) // 2, max(lo, hi - width)):
        want = {n for n in range(s, min(s + width, hi)) if isprime(n)}
        have = {p for p in listed if s <= p < s + width}
        if want != have:
            err.append(f"sub-window [{s}, {s + width}) lists {len(have)} of {len(want)} primes")
    return err


def _primes_count(ref, prm, out, extra):
    lo, hi = prm["lo"], prm["hi"]
    want = ref.pi(hi - 1) - (ref.pi(lo - 1) if lo > 2 else 0)
    return [] if out["count"] == want else [f"count {out['count']} != pi difference {want}"]


def _records(ref, prm, out, extra):
    mem = _members(ref, prm, 2, prm["x"] + 1)
    gaps = sorted((q - p, p, q) for p, q in zip(mem, mem[1:]))[: prm["records"]]
    got = [(r["gap"], r["p"], r["q"]) for r in out["records"]]
    return [] if got == gaps else ["record gaps differ from the reference set's"]


def _tuple_scan(ref, prm, out, extra):
    x, offs = prm["x"], prm["offsets"]
    lo = x + 1 + offs[0]
    mem = _members(ref, prm, lo, 2 * x + offs[-1] + 1)
    bitmap = np.zeros(x + offs[-1] - offs[0], dtype=bool)
    bitmap[np.asarray(mem, dtype=np.int64) - lo] = True
    hits = np.zeros(x, dtype=np.int64)
    for h in offs:
        hits += bitmap[h - offs[0]: h - offs[0] + x]
    err = []
    hist = np.bincount(hits, minlength=len(offs) + 1)
    if out["histogram"] != {str(i): int(c) for i, c in enumerate(hist)}:
        err.append("hit histogram differs from the reference count")
    mx = int(hits.max())
    best = [{"n": int(n), "hits": [h for h in offs if bitmap[n + h - lo]]}
            for n in (x + 1 + np.nonzero(hits == mx)[0][:20])]
    if out["max_hits"] != mx or out["best_windows"] != best:
        err.append("best windows differ from the reference set's")
    d = np.diff(np.asarray(mem, dtype=np.int64))
    mg = int(d.min())
    pairs = [{"gap": mg, "p": mem[i], "q": mem[i + 1]} for i in np.nonzero(d == mg)[0][:50]]
    if out["min_gap"] != mg or out["record_pairs"] != pairs:
        err.append("closest pairs differ from the reference set's")
    return err


def _peps_ratios(ref, x, eps):
    mem = ref.peps(2, x + 1, eps)
    return mem, [ref.split_a(p) / sqrt(p) for p in mem]


def _equidist_ks(ref, prm, out, extra):
    mem, ratios = _peps_ratios(ref, prm["x"], prm["eps"])
    err = []
    if out["n"] != len(mem):
        err.append(f"n={out['n']} but the reference set has {len(mem)} primes")
    elif not _close(out["ks"], _arcsine_ks(ratios)):
        err.append("KS distance differs from the recomputed one")
    return err


def _equidist_et(ref, prm, out, extra):
    mem, _ = _peps_ratios(ref, prm["x"], prm["eps"])
    (lo, hi), T = prm["interval"], prm["T"]
    th = np.array([(2.0 * atan2(isqrt(p - ref.split_a(p) ** 2), ref.split_a(p)) / pi) % 1.0
                   for p in mem])
    n = th.size
    lhs = abs(int(((th >= lo) & (th <= hi)).sum()) - (hi - lo) * n)
    rhs = n / T + sum(2.0 * (1.0 / T + 1.0 / m) * abs(np.exp(2j * np.pi * m * th).sum())
                      for m in range(1, T + 1))
    err = []
    if out["n"] != n:
        err.append(f"n={out['n']} but the reference set has {n} primes")
    if not out["lhs"] <= out["rhs"]:
        err.append("Erdos-Turan lhs exceeds rhs")
    if not (_close(out["lhs"], lhs, 1e-6) and _close(out["rhs"], rhs, 1e-6)):
        err.append("Erdos-Turan sides differ from the recomputed ones")
    return err


def _bv(ref, prm, out, extra):
    x, Q, eps = prm["x"], prm["Q"], prm["eps"]
    mem = np.asarray(ref.peps(2, x + 1, eps), dtype=np.int64)
    delta = asin(eps) / pi
    err = []
    if not _close(out["delta"], delta, 1e-12):
        err.append("delta is not asin(eps)/pi")
    if [r["q"] for r in out["rows"]] != [q for q in range(1, Q + 1) if q % 2]:
        err.append("moduli are not the odd q <= Q")
    total = 0.0
    for r in out["rows"]:
        q = r["q"]
        cop = [a for a in range(q) if gcd(a, q) == 1] if q > 1 else [0]
        res = mem % q
        obs = int(((mem <= r["worst_y"]) & (res == r["worst_a"] % q)).sum())
        exp_ = delta * ref.pi(r["worst_y"]) / len(cop)
        # y = x is on every y grid, so the worst error is at least that at x
        worst_at_x = max(abs(int((res == a).sum()) - delta * ref.pi(x) / len(cop))
                         for a in cop)
        if (r["observed"] != obs or not _close(r["expected"], exp_)
                or not _close(r["abs_err"], abs(obs - exp_))
                or r["abs_err"] < worst_at_x - 1e-9 * max(1.0, worst_at_x)):
            err.append(f"row q={q} disagrees with the reference counts")
        total += r["abs_err"]
    if not _close(out["aggregate"], total):
        err.append("aggregate is not the sum of the rows")
    return err


def _split_props(p, a, b) -> list[str]:
    if a * a + b * b != p or a % 4 != 1 or b <= 0:
        return [f"split of {p} is not canonical: a={a} b={b}"]
    return []


def _split_range(ref, prm, out, extra):
    rows = out["rows"]
    want = [p for p in ref.primes(prm["lo"], prm["hi"]) if p % 4 == 1]
    err = []
    if [r["p"] for r in rows] != want:
        err.append("split window lists other primes than p = 1 mod 4")
    for r in rows:
        err += _split_props(r["p"], r["a"], r["b"])
        if not (_close(r["ratio"], r["a"] / sqrt(r["p"]), 1e-12)
                and _close(r["theta"], (2.0 * atan2(r["b"], r["a"]) / pi) % 1.0, 1e-12)):
            err.append(f"ratio or angle of {r['p']} is off")
    return err


def _split_p(ref, prm, out, extra):
    if out.get("p") != prm["p"] or not out.get("representable"):
        return [f"split of {prm['p']} answered for {out.get('p')}"]
    return _split_props(out["p"], out["a"], out["b"])


def _canonical_batch(ref, prm, out, extra):
    if [row[0] for row in out] != prm["primes"]:
        return ["batch answered for other primes"]
    err = []
    for p, a, b in out:
        err += _split_props(p, a, b)
        if a != ref.split_a(p):
            err.append(f"split of {p} differs from sympy's")
    return err


def _curve_trace(ref, prm, out, extra):
    name = prm["curve"]
    a, b, c, alpha, beta = CURVES[name]
    d = gcd(alpha, beta)
    M, g = alpha * beta // d, ((alpha - 1) * (beta - 1) - (d - 1)) // 2
    want = [p for p in ref.primes(prm["lo"], prm["hi"]) if p % M == 1 and (a * b * c) % p]
    err = [] if [r["p"] for r in out["rows"]] == want else ["traced primes differ"]
    for r in out["rows"]:
        p, tr = r["p"], r["trace"]
        if tr != p + 1 - r["nd"] - r["affine"] or r["nd"] not in (0, d):
            err.append(f"p={p}: trace, nd and affine count disagree")
        if abs(tr) > 2 * g * sqrt(p) + 1:
            err.append(f"p={p}: trace {tr} breaks the Hasse bound")
        if not _close(r["normalized"], tr / (2.0 * g * sqrt(p)), 1e-12):
            err.append(f"p={p}: normalized trace is off")
        formula = ref.trace(name, p)
        if formula is not None and tr != formula:
            err.append(f"p={p}: trace {tr} != {formula} from the closed formula")
        if p < BRUTE_LIMIT and (r["affine"], r["nd"]) != ref.brute(name, p):
            err.append(f"p={p}: point count differs from brute force")
    if prm.get("cache"):
        lines = (extra.get("cache") or "").splitlines()
        rows = ["%d,%d,%d,%d" % (r["p"], r["nd"], r["affine"], r["trace"])
                for r in sorted(out["rows"], key=lambda r: r["p"])]
        if lines[:1] != [f"# curve {a},{b},{c},{alpha},{beta}"] or lines[1:] != rows:
            err.append("trace cache file does not hold the traces printed")
    return err


def _equidist_curve(ref, prm, out, extra):
    name, x = prm["curve"], prm["x"]
    a, b, c, alpha, beta = CURVES[name]
    d = gcd(alpha, beta)
    M, g = alpha * beta // d, ((alpha - 1) * (beta - 1) - (d - 1)) // 2
    ps = [p for p in ref.primes(2, x + 1) if p % M == 1 and (a * b * c) % p]
    vals = [ref.trace(name, p) / (2.0 * g * sqrt(p)) for p in ps]
    if out["n"] != len(ps):
        return [f"n={out['n']} but {len(ps)} primes qualify"]
    if not _close(out["ks"], _arcsine_ks(vals)):
        return ["KS distance differs from the one recomputed from Gauss's traces"]
    return []


def _sieve_opt(ref, prm, out, extra):
    k, deg, Mk = prm["k"], prm["degree"], out["Mk_lower"]
    err = []
    if out["basis_size"] != sum(deg - 2 * b + 1 for b in range(deg // 2 + 1)):
        err.append("basis size is not #{a + 2b <= degree}")
    if deg == 0 and not _close(Mk, 2 * k / (k + 1), 1e-12):
        err.append(f"degree 0 gives {Mk}, not 2k/(k+1)")
    if not 0 < Mk <= k / (k - 1) * log(k):
        err.append(f"M_k={Mk} exceeds (k/(k-1)) log k")
    want = [{"theta": t, "m": max(0, ceil(t * Mk / 2) - 1)} for t in DEFAULT_THETAS]
    if out["m_at_theta"] != want:
        err.append("m_at_theta is not ceil(theta M/2) - 1")
    if k == 105 and deg == 11 and not Mk >= MAYNARD_M105_DEG11:
        err.append(f"M_105 at degree 11 is {Mk} < {MAYNARD_M105_DEG11}")
    return err


def _witness(offs) -> int | None:
    """Smallest prime whose residues the offsets all cover, by brute force."""
    for p in range(2, len(offs) + 1):
        if isprime(p) and len({h % p for h in offs}) == p:
            return p
    return None


def _tuple_k(ref, prm, out, extra):
    offs = out["offsets"]
    ok = (len(offs) == prm["k"] == out["k"] and offs[0] == 0
          and all(q > p for p, q in zip(offs, offs[1:]))
          and out["diameter"] == offs[-1] - offs[0])
    if not ok:
        return ["narrowed tuple is malformed"]
    if not out["admissible"] or out["witness"] is not None or _witness(offs) is not None:
        return ["narrowed tuple is not admissible by residue counting"]
    return []


def _tuple_check(ref, prm, out, extra):
    offs = prm["offsets"]
    w = _witness(offs)
    if (out["offsets"] != offs or out["witness"] != w or out["admissible"] != (w is None)
            or out["diameter"] != offs[-1] - offs[0]):
        return [f"verdict differs from residue counting (witness {w})"]
    return []


CHECKS = {
    "primes.window": _primes_window,
    "primes.count": _primes_count,
    "gap-scan.records": _records,
    "gap-scan.tuple": _tuple_scan,
    "equidist.peps.ks": _equidist_ks,
    "equidist.peps.et": _equidist_et,
    "bv-check.peps": _bv,
    "split.range": _split_range,
    "split.p": _split_p,
    "lib.canonical_split": _canonical_batch,
    "curve-trace": _curve_trace,
    "equidist.curve": _equidist_curve,
    "sieve-opt": _sieve_opt,
    "tuple.k": _tuple_k,
    "tuple.check": _tuple_check,
}


def _across(ops, outs, errors) -> None:
    """Checks that compare operations: backends, cache passes, degree sweeps."""
    traces = defaultdict(dict)  # (curve, p) -> {op index: trace}
    sweeps = defaultdict(list)  # k -> [(degree, M_k, op index)]
    cache = {}
    for i, (op, out) in enumerate(zip(ops, outs)):
        if out is None:
            continue
        prm = op["params"]
        if op["kind"] == "curve-trace":
            for r in out["rows"]:
                traces[(prm["curve"], r["p"])][i] = r["trace"]
            if prm.get("cache"):
                cache[prm["cache"]] = (i, out)
        elif op["kind"] == "sieve-opt":
            sweeps[prm["k"]].append((prm["degree"], out["Mk_lower"], i))
    for (curve, p), by_op in traces.items():
        if len(set(by_op.values())) > 1:
            for i in by_op:
                errors[i].append(f"{curve} p={p}: naive and charsum traces differ")
    if len(cache) == 2 and cache["write"][1] != cache["read"][1]:
        errors[cache["read"][0]].append("the pass that read the cache printed other traces")
    for k, rows in sweeps.items():
        rows.sort()
        for (d0, m0, _), (d1, m1, i) in zip(rows, rows[1:]):
            if m1 < m0 - 1e-9 * m0:
                errors[i].append(f"M_{k} fell from {m0} at degree {d0} to {m1} at {d1}")


def check_all(ops: list[dict], first: list[dict]) -> list[list[str]]:
    """Reasons each operation's first-round output is wrong (empty: passed)."""
    ref = Ref()
    errors = [[] for _ in ops]
    outs = []
    for i, (op, rec) in enumerate(zip(ops, first)):
        if rec["rc"] != 0:
            outs.append(None)
            errors[i].append(f"exit code {rec['rc']}: {rec['stderr'].strip()}")
            continue
        out = json.loads(rec["output"])
        outs.append(out)
        try:
            errors[i] += CHECKS[op["kind"]](ref, op["params"], out, rec)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            errors[i].append(f"malformed output: {type(e).__name__}: {e}")
    _across(ops, outs, errors)
    return errors
