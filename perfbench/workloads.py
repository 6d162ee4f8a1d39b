"""Seeded inputs for the four benchmark workloads.

A workload is one round of operations, built from ``--seed`` before anything
is timed.  The run repeats that same round until its time is up, so every
round attempts the same operations and fails the same ones.

An operation is a dict:

* ``id``: a name unique within the round;
* ``kind``: which output check applies (see ``checks.py``);
* ``argv``: the CLI arguments, run in process through ``heckegaps.cli.main``
  with ``--format json --output <tmp>`` appended; or ``lib``: the name of a
  library call the worker makes directly;
* ``params``: what the check needs to know about the inputs.

Sizes are drawn from narrow seeded bands (for instance L = 10^(e + u/100))
rather than from whole decades, because one seed is compared against another:
a far window at 1e14 costs 50 times one at 1e9, and a workload whose cost
swung with the seed would measure the seed, not the program.
"""

from __future__ import annotations

import random
from math import gcd

WORKLOADS = ("prime_windows", "peps_sweep", "curve_traces", "sieve_tuples")

# The criterion-4 curves: name -> (a, b, c, alpha, beta) of a x^alpha + b y^beta = c.
CURVES = {
    "x3+y3=1": (1, 1, 1, 3, 3),
    "x4+y2=1": (1, 1, 1, 4, 2),
    "y2=x5+1": (1, -1, -1, 5, 2),
    "x3+2y3=1": (1, 2, 1, 3, 3),
}

# Primes p = 1 mod 4 between 2^53 and 2^64.  `split --p` parses them through
# float and fails on every one of them; they do not depend on the seed, so
# every round fails exactly these operations until the parser is mended.
FAILING_SPLIT_PRIMES = (
    9007199254740997,
    288230376151711813,
    9223372036854775837,
    18446744073709551557,
)

# Thetas `sieve-opt` reports m for when --thetas is not given.
DEFAULT_THETAS = (1.0 / 18.0, 0.25, 0.5, 0.9)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 2^64; picks inputs, checks nothing."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def _primes_from(lo: int, count: int, modulus: int = 1, bad: int = 1) -> list[int]:
    """The first ``count`` primes p >= lo with p = 1 mod modulus, p not dividing bad."""
    out = []
    n = lo
    while len(out) < count:
        if n % modulus == 1 % modulus and _is_prime(n) and bad % n != 0:
            out.append(n)
        n += 1
    return out


def _band(rng: random.Random, base: float, width: float) -> int:
    """An integer in [base, base * 10^width), log-uniform."""
    return int(base * 10 ** (width * rng.random()))


def _cli(id_, kind, argv, **params):
    return {"id": id_, "kind": kind, "argv": [str(a) for a in argv], "params": params}


def prime_windows(rng: random.Random, nproc: int) -> list[dict]:
    th = ["--threads", nproc]
    ops = []

    def window(e):
        lo = _band(rng, 10.0**e, 0.01)
        ops.append(_cli(f"window-1e{e}-{len(ops)}", "primes.window",
                        ["primes", "--lo", lo, "--hi", lo + 100_000, *th],
                        lo=lo, hi=lo + 100_000))

    def count(base):
        hi = _band(rng, base, 0.01)
        ops.append(_cli(f"count-{len(ops)}", "primes.count",
                        ["primes", "--hi", hi, "--count-only", *th], lo=2, hi=hi))

    def count_window(base):
        lo = _band(rng, base, 0.02)
        hi = lo + _band(rng, 1e4, 0.02)
        ops.append(_cli(f"count-window-{len(ops)}", "primes.count",
                        ["primes", "--lo", lo, "--hi", hi, "--count-only", *th], lo=lo, hi=hi))

    def records(base):
        x = _band(rng, base, 0.02)
        ops.append(_cli(f"records-{len(ops)}", "gap-scan.records",
                        ["gap-scan", "--set", "primes", "--x", x, *th],
                        set="primes", x=x, records=10))

    # 25 operations, cheapest first.  The median falls in the five ~20 ms
    # scans and the 90th percentile in the five counts to 1e8, each one kind
    # of operation.  The per-segment Python loop of the far windows runs up
    # to 1.6 times slower when the machine is busy, against 1.25 times for
    # the numpy-bound counts, so the windows are one of each size and the
    # counts carry the top of the distribution.
    for base in (1e6, 1e6, 1e6, 1e6, 2e6, 2e6):
        count_window(base)
    window(9)
    window(9)
    records(1e6)
    records(1e6)
    for i, offs in enumerate(((0, 2), (0, 2, 6), (0, 4, 6, 10))):
        x = _band(rng, 1e6, 0.02)
        ops.append(_cli(f"tuple-scan-{i}", "gap-scan.tuple",
                        ["gap-scan", "--set", "primes", "--x", x,
                         "--tuple", ",".join(map(str, offs)), *th],
                        set="primes", x=x, offsets=list(offs)))
    records(2e6)
    window(10)
    window(11)
    count(3e7)
    window(12)
    window(13)
    for _ in range(5):
        count(1e8)
    window(14)
    return ops


def peps_sweep(rng: random.Random, nproc: int) -> list[dict]:
    x = _band(rng, 1e6, 0.05)
    eps = rng.choice((0.25, 0.5, 0.75, 0.95))
    ops = [
        _cli("ks-full", "equidist.peps.ks",
             ["equidist", "--set", "peps", "--eps", 1.0, "--x", x, "--stat", "ks"],
             eps=1.0, x=x),
        _cli("ks-eps", "equidist.peps.ks",
             ["equidist", "--set", "peps", "--eps", eps, "--x", x, "--stat", "ks"],
             eps=eps, x=x),
    ]
    lo = round(rng.uniform(0.0, 0.5), 3)
    hi = round(lo + rng.uniform(0.1, 0.5), 3)
    ops.append(_cli("et-uniform", "equidist.peps.et",
                    ["equidist", "--set", "peps", "--eps", 1.0, "--x", x, "--stat", "et",
                     "--measure", "uniform", "--interval", f"{lo},{hi}", "--T", 20],
                    eps=1.0, x=x, interval=[lo, hi], T=20))
    ops.append(_cli("bv", "bv-check.peps",
                    ["bv-check", "--set", "peps", "--eps", eps, "--x", x, "--Q", 30],
                    eps=eps, x=x, Q=30))
    ops.append(_cli("records", "gap-scan.records",
                    ["gap-scan", "--set", "peps", "--eps", eps, "--x", x],
                    set="peps", eps=eps, x=x, records=10))
    ops.append(_cli("tuple-scan", "gap-scan.tuple",
                    ["gap-scan", "--set", "peps", "--eps", 1.0, "--x", x // 2,
                     "--tuple", "0,4"],
                    set="peps", eps=1.0, x=x // 2, offsets=[0, 4]))
    for i in range(2):
        lo = _band(rng, 1e6, 0.05)
        hi = lo + 20_000
        ops.append(_cli(f"split-window-{i}", "split.range",
                        ["split", "--lo", lo, "--hi", hi], lo=lo, hi=hi))
    # library batches: through argparse each split would cost ~50x itself.
    # Three alike batches are the top fifth of the 15 operations, so the
    # 90th percentile sits inside them.
    for i in range(3):
        batch = []
        for e in (6, 9, 12):
            for _ in range(400):
                batch += _primes_from(_band(rng, 10.0**e, 1.0), 1, modulus=4)
        ops.append({"id": f"canonical-split-batch-{i}", "kind": "lib.canonical_split",
                    "lib": "canonical_split", "params": {"primes": batch}})
    for p in FAILING_SPLIT_PRIMES:
        ops.append(_cli(f"split-p-{p}", "split.p", ["split", "--p", p], p=p))
    return ops


def curve_traces(rng: random.Random, nproc: int) -> list[dict]:
    th = ["--threads", nproc]
    ops = []
    for name, c in CURVES.items():
        a, b, cc, alpha, beta = c
        M = alpha * beta // gcd(alpha, beta)
        spec = ",".join(map(str, c))
        # 35 operations in all; the 1e4 window of the last curve is left out
        # so that the median lands inside the 1e5 naive windows
        for base, count in ((1e3, 40), (1e4, 12), (1e5, 4), (9e5, 1)):
            if name == "x3+2y3=1" and base == 1e4:
                continue
            ps = _primes_from(_band(rng, base, 0.02), count, modulus=M, bad=a * b * cc)
            lo, hi = ps[0], ps[-1] + 1
            for backend in ("naive", "charsum"):
                ops.append(_cli(f"{name}-{int(base)}-{backend}", "curve-trace",
                                ["curve-trace", "--curve", spec, "--lo", lo, "--hi", hi,
                                 "--backend", backend, *th],
                                curve=name, lo=lo, hi=hi, backend=backend))
    # the same pass twice against one cache file: the first writes it, the
    # second reads every trace back from it
    name = rng.choice(list(CURVES))
    a, b, cc, alpha, beta = CURVES[name]
    M = alpha * beta // gcd(alpha, beta)
    ps = _primes_from(_band(rng, 1e5, 0.02), 4, modulus=M, bad=a * b * cc)
    for mode in ("write", "read"):
        ops.append(_cli(f"cache-{mode}", "curve-trace",
                        ["curve-trace", "--curve", ",".join(map(str, CURVES[name])),
                         "--lo", ps[0], "--hi", ps[-1] + 1, "--cache", "{cache}", *th],
                        curve=name, lo=ps[0], hi=ps[-1] + 1, backend="naive", cache=mode))
    x = _band(rng, 1e4, 0.02)
    ops.append(_cli("equidist-curve", "equidist.curve",
                    ["equidist", "--set", "curve", "--curve", "1,1,1,3,3", "--x", x, *th],
                    curve="x3+y3=1", x=x))
    for name, offs in (("x3+y3=1", (0, 6)), ("x4+y2=1", (0, 12))):
        x = _band(rng, 4e3, 0.02)
        ops.append(_cli(f"tuple-scan-{name}", "gap-scan.tuple",
                        ["gap-scan", "--set", "curve", "--curve",
                         ",".join(map(str, CURVES[name])), "--x", x,
                         "--tuple", ",".join(map(str, offs)), *th],
                        set="curve", curve=name, trace_eps=1.0, x=x, offsets=list(offs)))
    return ops


def sieve_tuples(rng: random.Random, nproc: int) -> list[dict]:
    ops = []
    # degree sweeps as scripts/sieve_scaling.py runs them; degrees at one k
    # share the exact-integral memo, which is how the optimizer is used.
    # k = 105 to degree 11 carries Maynard's published M_105 >= 4.0020697.
    # Small k stop at degree 10: beyond it the float Cholesky of the I-form
    # fails for k < 10 (see CHANGES.md).
    sweeps = ((105, 11), (rng.randint(150, 160), 14), (rng.randint(20, 24), 12),
              (rng.randint(5, 9), 10))
    for k, top in sweeps:
        for d in range(top + 1):
            ops.append(_cli(f"sieve-k{k}-d{d}", "sieve-opt",
                            ["sieve-opt", "--k", k, "--degree", d], k=k, degree=d))
    for base in (60, 160, 290):
        k = rng.randint(base, base + 10)
        ops.append(_cli(f"narrow-k{k}", "tuple.k", ["tuple", "--k", k], k=k))
    for i in range(8):  # 62 operations put the median inside the degree-5 runs
        # even offsets, sparse enough that some come out admissible
        k = rng.randint(3, 40)
        offs = sorted(2 * h for h in rng.sample(range(4 * k), k))
        ops.append(_cli(f"check-{i}", "tuple.check",
                        ["tuple", "--check", ",".join(map(str, offs))], offsets=offs))
    return ops


def build(workload: str, seed: int, nproc: int) -> list[dict]:
    """The operations of one round of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return globals()[workload](rng, nproc)
