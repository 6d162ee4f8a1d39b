"""End-to-end checks, one (or a few) tests per numbered criterion.

Each test carries the `acceptance` marker with its criterion number; the
conftest hook prints a PASS/FAIL line per criterion after the run.  Oracle
values are either computed in place by an independent method (brute loops,
direct counts) or are classical table values.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from heckegaps.diagonal_curve import (
    count_affine_charsum,
    count_affine_naive,
    curve_new,
    trace,
)
from heckegaps.equidist_stats import (
    all_primes_set,
    bv_decay,
    bv_table,
    erdos_turan_bound,
    ks_distance,
    peps_set,
)
from heckegaps.gap_search import record_gaps, scan_tuple
from heckegaps.gaussian_split import canonical_split, split_range, theta_of
from heckegaps.maynard_sieve import (
    build_forms,
    dhl_m,
    optimize_Mk,
    rayleigh_quotient,
    simplex_integral,
)
from heckegaps.measures import arcsine, mass, uniform01
from heckegaps.prime_engine import primes_in
from heckegaps.tuples import is_admissible


# --- criterion 1: every split prime up to 10^7 decomposes, canonically ----

@pytest.mark.acceptance(criterion=1)
def test_criterion_01_cornacchia_complete_to_1e7():
    ps = primes_in(2, 10_000_001)
    ps = ps[ps % 4 == 1]
    t0 = time.perf_counter()
    failures = 0
    for p in ps:
        p = int(p)
        s = canonical_split(p)
        if (s is None or s.a * s.a + s.b * s.b != p
                or s.a % 4 != 1 or s.b <= 0):
            failures += 1
    elapsed = time.perf_counter() - t0
    assert failures == 0
    assert elapsed <= 60.0


# --- criterion 2: arcsine law for a/sqrt(p) and the P_eps mass ------------

@pytest.mark.acceptance(criterion=2)
def test_criterion_02_arcsine_ks_at_1e7(split_table_1e7):
    p, a, _ = split_table_1e7
    d = ks_distance(a / np.sqrt(p), arcsine())
    assert d <= 0.02


@pytest.mark.acceptance(criterion=2)
def test_criterion_02_p_half_fraction(split_table_1e7):
    p, a, _ = split_table_1e7
    target = mass(arcsine(), (-0.5, 0.5))
    assert target == pytest.approx(1 / 3, abs=1e-12)
    frac = float(np.mean(np.abs(a) <= 0.5 * np.sqrt(p)))
    assert abs(frac - 1 / 3) <= 0.01


# --- criterion 3: Hasse bound for y^2 = x^5 + 1 ---------------------------

def brute_affine(curve, p):
    hits = 0
    for x in range(p):
        lx = curve.a * pow(x, curve.alpha, p) % p
        for y in range(p):
            if (lx + curve.b * pow(y, curve.beta, p)) % p == curve.c % p:
                hits += 1
    return hits


@pytest.mark.acceptance(criterion=3)
def test_criterion_03_hasse_bound_to_1e5():
    curve = curve_new(1, -1, -1, 5, 2)   # x^5 - y^2 = -1
    assert curve.g == 2
    # the F_11 record against a literal double loop
    assert brute_affine(curve, 11) == 7
    assert trace(curve, 11).affine_count == 7
    violations = 0
    for p in primes_in(11, 100_001):
        p = int(p)
        if p % 10 != 1:
            continue
        t = trace(curve, p)
        if abs(t.trace) > 4 * math.sqrt(p) + 1:
            violations += 1
    assert violations == 0


# --- criterion 4: character-sum backend equals the naive count ------------

CORPUS = [(1, 1, 1, 2, 2), (1, 1, 1, 3, 3), (1, 1, 1, 4, 2),
          (1, -1, -1, 5, 2), (1, 2, 1, 3, 3)]


@pytest.mark.acceptance(criterion=4)
@pytest.mark.parametrize("coeffs", CORPUS, ids=lambda c: "a%db%dc%d_%d_%d" % c)
def test_criterion_04_backend_equivalence(coeffs):
    curve = curve_new(*coeffs)
    checked = 0
    for p in primes_in(2, 10_001):
        p = int(p)
        if p % curve.M != 1 or (curve.a * curve.b * curve.c) % p == 0:
            continue
        assert count_affine_charsum(curve, p) == count_affine_naive(curve, p)
        checked += 1
    assert checked > 100


# --- criterion 5: discrepancy never exceeds its exponential-sum bound -----

@pytest.mark.acceptance(criterion=5)
def test_criterion_05_erdos_turan_randomized():
    rng = np.random.default_rng(20260823)
    uni = uniform01()
    for _ in range(100):
        n = int(rng.integers(10, 10_001))
        xs = rng.random(n)
        lo, hi = np.sort(rng.random(2))
        T = int(rng.choice([2, 5, 10, 50]))
        lhs, rhs = erdos_turan_bound(xs, (float(lo), float(hi)), uni, T)
        assert lhs <= rhs


@pytest.mark.acceptance(criterion=5)
def test_criterion_05_erdos_turan_hecke_corpus():
    _, a, b = split_range(2, 100_001)
    angles = theta_of(a, b)
    rng = np.random.default_rng(7)
    uni = uniform01()
    intervals = [(0.0, 1.0), (0.0, 0.25), (0.4, 0.6)]
    intervals += [tuple(np.sort(rng.random(2))) for _ in range(5)]
    for T in (2, 5, 10, 50):
        for lo, hi in intervals:
            lhs, rhs = erdos_turan_bound(angles, (float(lo), float(hi)), uni, T)
            assert lhs <= rhs


# --- criterion 6: fixed-moduli error table for P_{1/2} --------------------

@pytest.mark.acceptance(criterion=6)
def test_criterion_06_bv_relative_error():
    spec = peps_set(0.5)
    x = 10_000_000
    tab = bv_table(spec, x, 30, y_grid=[x], delta=1 / 6)
    assert [r.q for r in tab.rows] == list(range(1, 31, 2))
    for row in tab.rows:
        assert row.abs_err / row.expected <= 0.05


@pytest.mark.acceptance(criterion=6)
def test_criterion_06_aggregate_decays():
    spec = peps_set(0.5)
    pairs = bv_decay(spec, [100_000, 10_000_000], 30, delta=1 / 6)
    assert pairs[1][1] < pairs[0][1]


# --- criterion 7: admissibility against brute force -----------------------

def brute_admissible(offsets):
    top = max(offsets[-1], 2)
    for p in range(2, top + 2):
        if any(p % d == 0 for d in range(2, p)):
            continue
        if len({h % p for h in offsets}) == p:
            return False, p
    return True, None


@pytest.mark.acceptance(criterion=7)
def test_criterion_07_admissibility_oracle():
    assert is_admissible((0, 2, 6)) == (True, None)
    assert is_admissible((0, 2, 4)) == (False, 3)
    rng = np.random.default_rng(411)
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        offsets = tuple(sorted(rng.choice(101, size=k, replace=False).tolist()))
        assert is_admissible(offsets) == brute_admissible(offsets)


# --- criterion 8: the variational optimizer -------------------------------

@pytest.fixture(scope="module")
def big_sieve_run():
    t0 = time.perf_counter()
    res = optimize_Mk(105, 4)
    return res, time.perf_counter() - t0


@pytest.mark.acceptance(criterion=8)
def test_criterion_08_simplex_integral_monte_carlo():
    rng = np.random.default_rng(99)
    n_samples = 40_000
    for _ in range(50):
        k = int(rng.integers(1, 5))
        a = tuple(int(e) for e in rng.integers(0, 5, size=k))
        exact = float(simplex_integral(a))
        # uniform points on the simplex via normalized exponentials
        e = rng.exponential(size=(n_samples, k + 1))
        pts = e[:, :k] / e.sum(axis=1, keepdims=True)
        vals = np.prod(pts ** np.array(a), axis=1)
        vol = 1.0 / math.factorial(k)
        estimate = vol * float(vals.mean())
        sigma = vol * float(vals.std()) / math.sqrt(n_samples)
        assert abs(estimate - exact) <= 3.0 * sigma + 1e-15


@pytest.mark.acceptance(criterion=8)
@pytest.mark.parametrize("k", [5, 20, 105])
def test_criterion_08_monotone_in_degree(k):
    values = [optimize_Mk(k, deg).Mk_lower for deg in range(4)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9


def positive_definite(A):
    """Exact Sylvester test: symmetric elimination with every pivot > 0."""
    A = [row[:] for row in A]
    n = len(A)
    for i in range(n):
        if A[i][i] <= 0:
            return False
        for r in range(i + 1, n):
            f = A[r][i] / A[i][i]
            for c in range(i + 1, n):
                A[r][c] -= f * A[i][c]
    return True


@pytest.mark.acceptance(criterion=8)
@pytest.mark.parametrize("degree", [4, 10])
def test_criterion_08_low_degree_cannot_reach_4(degree):
    # 4 I - 105 J positive definite <=> 105 J(F) / I(F) < 4 for every F in
    # the family, so no degree <= 10 basis can certify M_105 > 4.
    _, I, J = build_forms(105, degree)
    n = len(I)
    gap = [[4 * I[i][j] - 105 * J[i][j] for j in range(n)] for i in range(n)]
    assert positive_definite(gap)


@pytest.mark.acceptance(criterion=8)
def test_criterion_08_two_primes_threshold():
    # Maynard's family a + 2b <= 11 (Ann. of Math. 181, 2015: M_105 >=
    # 4.0020697); the exact quotient of the returned F is the certified bound.
    t0 = time.perf_counter()
    res = optimize_Mk(105, 11)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    assert res.Mk_lower > 4.0
    _, I, J = build_forms(105, 11)
    assert rayleigh_quotient(I, J, res.coefficients, 105) > 4.0
    assert dhl_m(res.Mk_lower, 0.5) == 1


@pytest.mark.acceptance(criterion=8)
def test_criterion_08_rayleigh_consistency(big_sieve_run):
    res, _ = big_sieve_run
    _, I, J = build_forms(105, 4)
    rq = rayleigh_quotient(I, J, res.coefficients, 105)
    assert abs(rq - res.Mk_lower) < 1e-9


# --- criterion 9: gap scans against direct counts -------------------------

@pytest.mark.acceptance(criterion=9)
def test_criterion_09_min_gap_ground_truth():
    recs = record_gaps(peps_set(0.95), 100)
    assert recs[0] == (4, 13, 17)


@pytest.mark.acceptance(criterion=9)
def test_criterion_09_twin_scan_matches_oracle():
    x = 1_000_000
    rep = scan_tuple(all_primes_set(), (0, 2), x)
    ps = primes_in(x + 1, 2 * x + 3)
    starts = np.intersect1d(ps, ps - 2)     # n with n and n + 2 both prime
    starts = starts[starts <= 2 * x]
    assert rep.max_hits == 2
    assert rep.histogram.get(2, 0) == int(starts.size)


# --- criterion 10: byte-identical CLI reruns ------------------------------

DETERMINISM_CASES = [
    ["primes", "--hi", "2000", "--format", "json"],
    ["split", "--lo", "2", "--hi", "2000", "--format", "csv"],
    ["split", "--p", "101", "--format", "json"],
    ["curve-trace", "--curve", "1,1,1,3,3", "--lo", "2", "--hi", "400",
     "--format", "csv"],
    ["equidist", "--set", "peps", "--eps", "0.7", "--x", "20000",
     "--stat", "ks", "--format", "json"],
    ["equidist", "--set", "peps", "--eps", "1.0", "--x", "5000", "--stat", "et",
     "--measure", "uniform", "--T", "10", "--format", "json"],
    ["bv-check", "--set", "peps", "--eps", "0.5", "--x", "20000", "--Q", "12",
     "--format", "csv"],
    ["tuple", "--k", "6", "--format", "json"],
    ["sieve-opt", "--k", "6", "--degree", "3", "--format", "json"],
    ["gap-scan", "--set", "peps", "--eps", "0.95", "--x", "1000",
     "--format", "csv"],
    ["gap-scan", "--set", "primes", "--x", "500", "--tuple", "0,2,6",
     "--format", "json"],
    ["equidist", "--set", "curve", "--curve", "1,1,1,4,2", "--x", "20000",
     "--format", "json"],
    ["gap-scan", "--set", "curve", "--curve", "1,1,1,3,3", "--x", "20000",
     "--tuple", "0,6", "--format", "json"],
]


def run_cli_bytes(case, threads):
    r = subprocess.run(
        [sys.executable, "-m", "heckegaps", *case, "--threads", threads],
        capture_output=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr.decode()
    return r.stdout


@pytest.mark.acceptance(criterion=10)
@pytest.mark.parametrize("case", DETERMINISM_CASES, ids=lambda c: c[0])
def test_criterion_10_byte_identical_reruns(case):
    first = run_cli_bytes(case, "1")
    second = run_cli_bytes(case, "4")
    third = run_cli_bytes(case, "1")
    assert first == second == third


@pytest.mark.acceptance(criterion=10)
def test_criterion_10_cached_trace_rerun(tmp_path):
    case = ["curve-trace", "--curve", "1,1,1,3,3", "--lo", "2", "--hi", "300",
            "--cache", str(tmp_path / "trace.csv"), "--format", "csv"]
    cold = run_cli_bytes(case, "1")      # populates the cache
    warm = run_cli_bytes(case, "2")      # reads it back
    assert cold == warm
