import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heckegaps.diagonal_curve import (
    NAIVE_LIMIT,
    CacheFormatError,
    TraceStore,
    count_affine_charsum,
    count_affine_naive,
    curve_new,
    curve_primes,
    eps_interval,
    in_P_CI,
    load_trace_cache,
    nd,
    save_trace_cache,
    trace,
)
from heckegaps.prime_engine import is_prime, primes_in

# the five standing examples used throughout the tests
CIRCLE = curve_new(1, 1, 1, 2, 2)          # x^2 + y^2 = 1
CUBIC = curve_new(1, 1, 1, 3, 3)           # x^3 + y^3 = 1
QUARTIC = curve_new(1, 1, 1, 4, 2)         # x^4 + y^2 = 1
HYPER = curve_new(1, -1, -1, 5, 2)         # x^5 - y^2 = -1, i.e. y^2 = x^5 + 1
TWISTED = curve_new(1, 2, 1, 3, 3)         # x^3 + 2y^3 = 1


def brute_affine(curve, p):
    """Oracle: literal double loop over F_p x F_p."""
    hits = 0
    for x in range(p):
        lx = curve.a * pow(x, curve.alpha, p) % p
        for y in range(p):
            if (lx + curve.b * pow(y, curve.beta, p)) % p == curve.c % p:
                hits += 1
    return hits


def test_curve_invariants_frozen():
    assert (CIRCLE.d, CIRCLE.M, CIRCLE.g) == (2, 2, 0)
    assert (CUBIC.d, CUBIC.M, CUBIC.g) == (3, 3, 1)
    assert (QUARTIC.d, QUARTIC.M, QUARTIC.g) == (2, 4, 1)
    assert (HYPER.d, HYPER.M, HYPER.g) == (1, 10, 2)
    assert (TWISTED.d, TWISTED.M, TWISTED.g) == (3, 3, 1)


def test_curve_new_rejects_bad_shapes():
    with pytest.raises(ValueError):
        curve_new(0, 1, 1, 3, 3)
    with pytest.raises(ValueError):
        curve_new(1, 0, 1, 3, 3)
    with pytest.raises(ValueError):
        curve_new(1, 1, 0, 3, 3)
    with pytest.raises(ValueError):
        curve_new(1, 1, 1, 2, 3)      # alpha < beta
    with pytest.raises(ValueError):
        curve_new(1, 1, 1, 3, 1)      # beta < 2
    with pytest.raises(ValueError):
        curve_new(1, 1, 1, 17, 2)     # alpha > 16


def test_affine_counts_frozen():
    # brute-force oracle values, checked live against the oracle as well
    for curve, p, want in [
        (CIRCLE, 5, 4),
        (CIRCLE, 13, 12),
        (CIRCLE, 3, 4),
        (CUBIC, 7, 6),
        (CUBIC, 13, 6),
        (HYPER, 11, 7),
    ]:
        assert brute_affine(curve, p) == want
        assert count_affine_naive(curve, p) == want


def test_nd_frozen():
    # -a/b = -1 mod 7 and (-1)^((7-1)/3) = 1, so all d directions count
    assert nd(CUBIC, 7) == 3
    # d = 1: exactly one direction, always
    assert nd(HYPER, 11) == 1
    # -1 is not a 3rd power residue mod 13? (-1)^4 = 1, so nd = 3 again
    assert nd(CUBIC, 13) == 3


def test_trace_frozen_values():
    t = trace(CUBIC, 7)
    assert (t.p, t.nd, t.affine_count, t.trace) == (7, 3, 6, -1)
    assert t.normalized == pytest.approx(-1 / (2 * math.sqrt(7)))
    t = trace(HYPER, 11)
    assert (t.p, t.nd, t.affine_count, t.trace) == (11, 1, 7, 4)
    assert t.normalized == pytest.approx(4 / (4 * math.sqrt(11)))


def test_trace_requires_positive_genus():
    with pytest.raises(ValueError):
        trace(CIRCLE, 5)


def test_trace_rejects_bad_primes():
    with pytest.raises(ValueError):
        trace(CUBIC, 5)    # 5 != 1 mod 3
    with pytest.raises(ValueError):
        trace(CUBIC, 9)    # not prime
    with pytest.raises(ValueError):
        trace(TWISTED, 2)  # divides a coefficient


def test_trace_checks_primality_once(monkeypatch):
    from heckegaps import diagonal_curve, gaussian_split

    calls = []
    check = diagonal_curve.is_prime

    def counting(n):
        calls.append(n)
        return check(n)

    monkeypatch.setattr(diagonal_curve, "is_prime", counting)
    # the closed form takes its prime above p from the unchecked descent
    monkeypatch.setattr(gaussian_split, "is_prime", counting)
    assert trace(CUBIC, 10009, backend="naive").p == 10009
    assert calls == [10009]
    for curve in (CUBIC, QUARTIC):
        for backend in (None, "charsum"):
            calls.clear()
            assert trace(curve, 10009, backend).p == 10009
            assert calls == [10009]
    calls.clear()
    assert trace(HYPER, 11, backend="charsum").p == 11  # M = 10: the discrete-log path
    assert calls == [11]
    calls.clear()
    assert in_P_CI(CUBIC, 13, (-1.0, 1.0))
    assert calls == [13]
    # called directly, each counter still validates its prime
    for fn in (nd, count_affine_naive, count_affine_charsum):
        with pytest.raises(ValueError):
            fn(CUBIC, 10011)  # 3 * 47 * 71


@pytest.mark.parametrize("M", [4, 6, 10, 12, 15, 16, 240])
def test_ramanujan_sums_are_traces(M):
    # c_M(k) = sum over primitive M-th roots z of z^k, a real integer
    from heckegaps.diagonal_curve import _ramanujan_sums

    units = [j for j in range(M) if math.gcd(j, M) == 1]
    for k, c in enumerate(_ramanujan_sums(M)):
        assert c == round(sum(math.cos(2 * math.pi * j * k / M) for j in units))


def test_huge_coefficients_reduce_mod_p():
    # b = 1 mod 7 but far beyond int64: the same curve over F_7
    huge = curve_new(1, 1 + 7 * 10**30, 1, 3, 3)
    for backend in ("naive", "charsum"):
        assert (trace(huge, 7, backend=backend).affine_count
                == trace(CUBIC, 7, backend=backend).affine_count)
    assert curve_primes(huge, primes_in(2, 60)) == curve_primes(CUBIC, primes_in(2, 60))


@pytest.mark.parametrize("curve", [CUBIC, QUARTIC, HYPER, TWISTED])
def test_hasse_bound_small(curve):
    for p in primes_in(2, 400):
        p = int(p)
        if p % curve.M != 1 or (curve.a * curve.b * curve.c) % p == 0:
            continue
        t = trace(curve, p)
        assert abs(t.trace) <= 2 * curve.g * math.sqrt(p) + 1
        assert abs(t.normalized) <= 1.0 + 1e-12


@settings(max_examples=30)
@given(
    st.sampled_from([CUBIC, QUARTIC, TWISTED]),
    st.sampled_from([int(p) for p in primes_in(5, 200)]),
)
def test_naive_matches_brute(curve, p):
    if p % curve.M != 1 or (curve.a * curve.b * curve.c) % p == 0:
        return
    assert count_affine_naive(curve, p) == brute_affine(curve, p)


@pytest.mark.parametrize("curve", [CIRCLE, CUBIC, QUARTIC, HYPER, TWISTED])
def test_charsum_matches_naive_spot(curve):
    checked = 0
    for p in primes_in(2, 600):
        p = int(p)
        if p % curve.M != 1 or (curve.a * curve.b * curve.c) % p == 0:
            continue
        assert count_affine_charsum(curve, p) == count_affine_naive(curve, p)
        checked += 1
    assert checked > 5


CM_PAIRS = [(3, 3), (4, 2), (4, 4)]
_CM_PRIMES = [int(p) for p in primes_in(5, 200_000) if p % 12 in (1, 5, 7)]
_COEFF = st.one_of(
    st.integers(-60, 60),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
).filter(lambda v: v != 0)


@settings(max_examples=60, derandomize=True)
@given(st.sampled_from(CM_PAIRS), _COEFF, _COEFF, _COEFF, st.sampled_from(_CM_PRIMES))
def test_cm_closed_form_matches_both_backends(pair, a, b, c, p):
    curve = curve_new(a, b, c, *pair)
    assume(p % curve.M == 1 and (a * b * c) % p)
    want = count_affine_naive(curve, p)
    assert trace(curve, p).affine_count == want
    assert trace(curve, p, backend="charsum").affine_count == want


@pytest.mark.parametrize("coeffs,p", [
    ((3, -5, 7, 3, 3), 9999973),
    ((1, 1, 1, 4, 2), 9999937),
    ((2, 1, -1, 4, 4), 9999901),
])
def test_cm_closed_form_below_naive_limit(coeffs, p):
    curve = curve_new(*coeffs)
    assert p < NAIVE_LIMIT and is_prime(p) and p % curve.M == 1
    want = count_affine_naive(curve, p)
    assert trace(curve, p).affine_count == want
    assert trace(curve, p, backend="charsum").affine_count == want


NON_CM_PAIRS = [(2, 2), (3, 2), (5, 2), (5, 5), (6, 2), (6, 3), (8, 2), (12, 3)]
_SMALL_PRIMES = [int(p) for p in primes_in(3, 5000)]


@settings(max_examples=80, derandomize=True)
@given(st.sampled_from(NON_CM_PAIRS), _COEFF, _COEFF, _COEFF, st.integers(0, 10**6))
def test_discrete_log_source_matches_naive(pair, a, b, c, i):
    curve = curve_new(a, b, c, *pair)
    ps = [q for q in _SMALL_PRIMES if q % curve.M == 1]
    p = ps[i % len(ps)]
    assume((a * b * c) % p)
    want = count_affine_naive(curve, p)
    assert count_affine_charsum(curve, p) == want
    if curve.g:  # the circle (2, 2) has genus 0 and no trace
        assert trace(curve, p, backend="charsum").affine_count == want


def test_discrete_log_source_has_the_naive_limit(monkeypatch):
    from heckegaps import diagonal_curve

    def no_table(*args):
        raise AssertionError("table built beyond NAIVE_LIMIT")

    monkeypatch.setattr(diagonal_curve, "_dlog_table", no_table)
    monkeypatch.setattr(diagonal_curve, "_primitive_root", no_table)
    p = 10000121
    assert is_prime(p) and p > NAIVE_LIMIT and p % HYPER.M == 1
    with pytest.raises(ValueError, match="beyond the O\\(p\\) counting limit"):
        trace(HYPER, p, backend="charsum")
    with pytest.raises(ValueError, match="beyond the O\\(p\\) counting limit"):
        count_affine_charsum(HYPER, p)


def _gauss_cubic_trace(p):
    """-L with 4p = L^2 + 27 m^2 and L = 1 mod 3, by a numpy search over m."""
    m = np.arange(1, math.isqrt(4 * p // 27) + 1, dtype=np.int64)
    r = 4 * p - 27 * m * m
    s = np.sqrt(r.astype(np.float64)).round().astype(np.int64)
    (hit,) = np.flatnonzero(s * s == r)[:1]
    L = int(s[hit])
    return -(L if L % 3 == 1 else -L)


def _quartic_trace(p):
    """(-1)^((p-1)/4) 2a with p = a^2 + b^2, a = 1 mod 4, by a search over b."""
    b = np.arange(2, math.isqrt(p) + 1, 2, dtype=np.int64)
    r = p - b * b
    s = np.sqrt(r.astype(np.float64)).round().astype(np.int64)
    (hit,) = np.flatnonzero(s * s == r)[:1]
    a = int(s[hit])
    return (-1) ** ((p - 1) // 4) * 2 * (a if a % 4 == 1 else -a)


@pytest.mark.parametrize("p", [10**12 + 39, 10**12 + 61, 999999999877])
def test_cm_traces_beyond_naive_limit(p):
    assert is_prime(p) and p > NAIVE_LIMIT
    for curve, formula in ((CUBIC, _gauss_cubic_trace), (QUARTIC, _quartic_trace)):
        if p % curve.M != 1:
            continue
        want = formula(p)
        assert trace(curve, p).trace == want
        assert trace(curve, p, backend="charsum").trace == want
        with pytest.raises(ValueError, match="beyond the O\\(p\\) counting limit"):
            trace(curve, p, backend="naive")


def test_eps_interval():
    lo, hi = eps_interval(HYPER, 0.5)
    assert lo == pytest.approx(-0.125)
    assert hi == pytest.approx(0.125)
    with pytest.raises(ValueError):
        eps_interval(HYPER, 0.0)
    with pytest.raises(ValueError):
        eps_interval(HYPER, 4.5)   # limit is 2g = 4 for a genus-2 curve


def test_in_P_CI():
    # trace(HYPER, 11) = 4, normalized ~ 0.3015
    assert in_P_CI(HYPER, 11, (0.0, 0.5))
    assert not in_P_CI(HYPER, 11, (-0.5, 0.0))
    assert not in_P_CI(HYPER, 7, (-1.0, 1.0))    # 7 != 1 mod 10: not in the set
    assert not in_P_CI(HYPER, 12, (-1.0, 1.0))   # not prime
    with pytest.raises(ValueError):
        in_P_CI(CIRCLE, 5, (-1.0, 1.0))          # genus 0
    with pytest.raises(ValueError):
        in_P_CI(HYPER, 11, (0.5, -0.5))


def records_for(curve, hi):
    return [trace(curve, int(p)) for p in primes_in(2, hi)
            if p % curve.M == 1 and (curve.a * curve.b * curve.c) % p != 0]


def test_cache_round_trip(tmp_path):
    path = tmp_path / "cubic.csv"
    recs = records_for(CUBIC, 200)
    save_trace_cache(path, CUBIC, recs)
    back = load_trace_cache(path, CUBIC)
    assert [(r.p, r.nd, r.affine_count, r.trace) for r in back] == \
        [(r.p, r.nd, r.affine_count, r.trace) for r in recs]
    assert all(b.normalized == pytest.approx(r.normalized)
               for b, r in zip(back, recs))


def test_cache_header_mismatch(tmp_path):
    path = tmp_path / "cubic.csv"
    save_trace_cache(path, CUBIC, records_for(CUBIC, 100))
    with pytest.raises(CacheFormatError):
        load_trace_cache(path, TWISTED)


def test_cache_corrupt_line_reported(tmp_path):
    path = tmp_path / "bad.csv"
    save_trace_cache(path, CUBIC, records_for(CUBIC, 100))
    text = path.read_text().splitlines()
    text.insert(3, "not,a,valid,row")
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(CacheFormatError) as err:
        load_trace_cache(path, CUBIC)
    assert "4" in str(err.value)   # 1-based line number of the bad row


def test_cache_rejects_unsorted(tmp_path):
    path = tmp_path / "swap.csv"
    recs = records_for(CUBIC, 100)
    save_trace_cache(path, CUBIC, recs)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheFormatError):
        load_trace_cache(path, CUBIC)


def test_cache_rejects_inconsistent_row(tmp_path):
    path = tmp_path / "lie.csv"
    recs = records_for(CUBIC, 100)
    save_trace_cache(path, CUBIC, recs)
    lines = path.read_text().splitlines()
    p, ndv, aff, tr = lines[1].split(",")
    lines[1] = f"{p},{ndv},{aff},{int(tr) + 1}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheFormatError):
        load_trace_cache(path, CUBIC)


def test_trace_store(tmp_path):
    path = tmp_path / "store.csv"
    store = TraceStore(CUBIC, path)
    r1 = store.get(7)
    assert r1.trace == -1
    store.save()
    # a fresh store picks the record up from disk instead of recomputing
    again = TraceStore(CUBIC, path)
    assert again.get(7).trace == -1
    assert 7 in again.records
