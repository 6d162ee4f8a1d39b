import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heckegaps import diagonal_curve
from heckegaps.diagonal_curve import (
    NAIVE_LIMIT,
    CacheFormatError,
    TraceStore,
    count_affine_charsum,
    count_affine_naive,
    curve_new,
    curve_primes,
    curve_traces,
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
    # the closed form takes its prime above p from the unchecked descent, so
    # the Miller-Rabin behind gaussian_split's entry points must not run
    for mod, name in ((diagonal_curve, "is_prime"), (gaussian_split, "_miller_rabin")):
        def counting(n, check=getattr(mod, name)):
            calls.append(n)
            return check(n)

        monkeypatch.setattr(mod, name, counting)
    assert trace(CUBIC, 10009, backend="naive").p == 10009
    assert calls == [10009]
    for curve in (CUBIC, QUARTIC):
        for backend in (None, "charsum"):
            calls.clear()
            assert trace(curve, 10009, backend).p == 10009
            assert calls == [10009]
    calls.clear()
    assert trace(HYPER, 11, backend="charsum").p == 11  # M = 10: the naive fallback
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


ALL_SHAPES = [(alpha, beta) for alpha in range(2, 17) for beta in range(2, alpha + 1)]


def _grid_affine(curve, p):
    """Oracle: every (x, y) of F_p x F_p at once, no symmetry used."""
    xs = np.array([curve.a * pow(x, curve.alpha, p) % p for x in range(p)])
    ys = np.array([curve.b * pow(y, curve.beta, p) % p for y in range(p)])
    return int(((xs[:, None] + ys[None, :]) % p == curve.c % p).sum())


@pytest.mark.parametrize("p", [int(p) for p in primes_in(2, 60)])
def test_naive_matches_grid_every_shape(p):
    rng = random.Random(p)
    big = [tuple(s * rng.randint(2**64, 2**80) for s in signs)
           for signs in ((1, -1, 1), (-1, 1, -1))]
    for shape in ALL_SHAPES:
        for coeffs in ((1, 1, 1), (3, -5, 7), (-2, 6, -1), *big):
            if math.prod(coeffs) % p == 0:
                continue
            curve = curve_new(*coeffs, *shape)
            assert count_affine_naive(curve, p) == _grid_affine(curve, p), (coeffs, shape)


def _full_table_reference(curve, p):
    """The whole-field convolution: x^alpha and y^beta tabulated on all of
    F_p, a bincount of each side and the dot product of the two."""
    def pow_table(e):
        out, base = np.ones(p, dtype=np.int64), np.arange(p, dtype=np.int64)
        while True:
            if e & 1:
                out *= base
                out %= p
            e >>= 1
            if not e:
                return out
            base *= base
            base %= p

    lhs = pow_table(curve.alpha)
    lhs *= curve.a % p
    lhs %= p
    n_lhs = np.bincount(lhs, minlength=p)
    del lhs
    rhs = pow_table(curve.beta)
    rhs *= -curve.b % p
    rhs += curve.c % p
    rhs %= p
    return int(n_lhs @ np.bincount(rhs, minlength=p))


def _first_prime(lo, M):
    return next(int(q) for q in primes_in(lo, lo + 10**4) if q % M == 1)


@pytest.mark.parametrize("shape", [(3, 3), (4, 2), (5, 2), (4, 4), (5, 3), (3, 2)])
def test_naive_matches_full_table_near_1e5(shape):
    alpha, beta = shape
    M = math.lcm(alpha, beta)
    for coeffs in ((1, 1, 1), (1, -1, -1), (7, -3, 2**70 + 1)):
        curve = curve_new(*coeffs, *shape)
        for p in (100003, 100019, _first_prime(10**5, M)):
            assert count_affine_naive(curve, p) == _full_table_reference(curve, p)


def test_naive_matches_full_table_at_the_limit():
    p = 9999991
    assert is_prime(p) and p <= NAIVE_LIMIT
    curve = curve_new(3, -5, 7, 5, 3)
    assert count_affine_naive(curve, p) == _full_table_reference(curve, p)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_naive_matches_full_table_in_small_blocks(monkeypatch, block):
    # blocks of one row, of a row or two with a partly used last one, and
    # whole cosets shorter than a block; each coset order n = (p - 1)/d
    # taken both even (sign-halved) and odd wherever its exponent allows
    monkeypatch.setattr(diagonal_curve, "_BLOCK", block)
    coeffs = ((1, 1, 1), (3, -5, 7), (-2, 6, -1), (7, -3, 2**70 + 1))
    seen = set()
    for i, (alpha, beta) in enumerate(ALL_SHAPES):
        for j, p in enumerate(int(p) for p in primes_in(3, 260)):
            curve = curve_new(*coeffs[(i + j) % len(coeffs)], alpha, beta)
            if (curve.a * curve.b * curve.c) % p == 0:
                continue
            seen.update((side, (p - 1) // math.gcd(ex, p - 1) % 2)
                        for side, ex in (("a", alpha), ("b", beta)))
            want = _full_table_reference(curve, p)
            assert count_affine_naive(curve, p) == want, (curve, p)
    assert seen == {(side, parity) for side in "ab" for parity in (0, 1)}


def test_naive_count_memory_is_the_mask_and_one_block():
    # p bytes of mask plus one block of a coset: no int64 array of a whole
    # coset, (p - 1)/d values, is ever held
    p4 = next(q for q in range(NAIVE_LIMIT - 3, 0, -4) if is_prime(q))  # 1 mod 4
    for curve, p, want in ((curve_new(3, -5, 7, 5, 3), 9999991, 9992610),
                           (QUARTIC, p4, 10006278)):
        tracemalloc.start()
        try:
            got = count_affine_naive(curve, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 12 << 20, (curve, p, peak)


_COEFF = st.one_of(
    st.integers(-60, 60),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
).filter(lambda v: v != 0)
_PRIMES_3E4 = [int(p) for p in primes_in(2, 3 * 10**4)]


@st.composite
def _shape_and_prime(draw):
    """A shape, then a prime p < 3e4 with d = gcd(alpha, p - 1) drawn first
    among the d that occur, so each is as likely as any other: d = 1 (p = 2
    for even alpha) included."""
    alpha, beta = draw(st.sampled_from(ALL_SHAPES))
    by_d = {}
    for q in _PRIMES_3E4:
        by_d.setdefault(math.gcd(alpha, q - 1), []).append(q)
    d = draw(st.sampled_from(sorted(by_d)))
    return (alpha, beta), draw(st.sampled_from(by_d[d]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_shape_and_prime(), _COEFF, _COEFF, _COEFF)
def test_naive_matches_full_table_any_residue_class(shape_p, a, b, c):
    (alpha, beta), p = shape_p
    assume((a * b * c) % p)
    curve = curve_new(a, b, c, alpha, beta)
    assert count_affine_naive(curve, p) == _full_table_reference(curve, p)


def test_primitive_root_has_full_order():
    from sympy.ntheory import n_order

    from heckegaps.diagonal_curve import _primitive_root

    for p in primes_in(2, 2 * 10**4):
        p = int(p)
        assert n_order(_primitive_root(p), p) == p - 1, p


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
def test_charsum_falls_back_to_naive_without_a_closed_form(pair, a, b, c, i):
    from heckegaps import diagonal_curve

    def no_jacobi(*args):
        raise AssertionError("Jacobi sums asked for without a closed form")

    curve = curve_new(a, b, c, *pair)
    ps = [q for q in _SMALL_PRIMES if q % curve.M == 1]
    p = ps[i % len(ps)]
    assume((a * b * c) % p)
    want = count_affine_naive(curve, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagonal_curve, "_jacobi_total", no_jacobi)
        assert count_affine_charsum(curve, p) == want
        if curve.g:  # the circle (2, 2) has genus 0 and no trace
            assert trace(curve, p, backend="charsum").affine_count == want


@pytest.mark.parametrize("M", [3, 4])
def test_cm_jacobi_sums_match_brute_force(M):
    # J(chi^s, chi^t) = sum_{w != 0, 1} chi^s(w) chi^t(1 - w), with chi(w) =
    # zeta^k iff w^((p-1)/M) = r^k for the r the source returns; compared as
    # complex numbers, since coefficient lists in Z[zeta_M] are not unique
    from heckegaps.diagonal_curve import _cm_source

    zeta = np.exp(2j * np.pi * np.arange(M) / M)
    primes = [int(p) for p in primes_in(2, 1500) if p % M == 1]
    assert len(primes) > 100
    for p in primes:
        r, jacobi = _cm_source(M, p)
        index_of = {pow(r, k, p): k for k in range(M)}
        e = (p - 1) // M
        ind = np.array([index_of[pow(w, e, p)] for w in range(2, p)])  # w = 2..p-1
        for s in range(1, M):
            for t in range(1, M):
                if (s + t) % M == 0:
                    continue
                want = zeta[(s * ind + t * ind[::-1]) % M].sum()  # 1 - w = p-1..2
                got = np.dot(jacobi(s, t), zeta)
                assert abs(got - want) < 1e-6, (p, s, t)
                assert abs(abs(got) ** 2 - p) < 1e-6, (p, s, t)


def test_charsum_fallback_has_the_naive_limit():
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


def test_cache_rejects_impossible_nd(tmp_path):
    # on a d = 1 curve N_d is always 1: a row with N_d = 0 whose fields add up
    # (5 = 11 + 1 - 0 - 7) would pass for the true trace 4 at p = 11
    assert (nd(HYPER, 11), trace(HYPER, 11).trace) == (1, 4)
    path = tmp_path / "forged.csv"
    path.write_text("# curve 1,-1,-1,5,2\n11,0,7,5\n")
    with pytest.raises(CacheFormatError):
        load_trace_cache(path, HYPER)
    # and N_d = 1 on a d = 3 curve, where N_d is 0 or 3
    path.write_text("# curve 1,1,1,3,3\n7,1,6,1\n")
    with pytest.raises(CacheFormatError):
        load_trace_cache(path, CUBIC)


@pytest.mark.parametrize("curve,row,err", [
    (CUBIC, "9,3,5,2", "9 is not prime"),
    (CUBIC, "11,0,5,7", "p=11 is not 1 mod M=3"),
    (curve_new(1, 1, 13, 3, 3), "13,0,6,8", "p=13 divides a coefficient"),
    (CUBIC, f"{2**64 + 3},0,{2**64 + 3},1", "beyond the exact Miller-Rabin range"),
], ids=["composite", "not-1-mod-M", "divides-abc", "beyond-2^64"])
def test_cache_rejects_untraced_primes(tmp_path, curve, row, err):
    # every row adds up, but the trace is not defined at its p
    path = tmp_path / "forged.csv"
    save_trace_cache(path, curve, [trace(curve, 7)])
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(CacheFormatError) as got:
        load_trace_cache(path, curve)
    assert str(got.value).startswith("line 3: ") and err in str(got.value)


@pytest.mark.parametrize("curve", [CUBIC, QUARTIC, HYPER, TWISTED])
def test_curve_traces_match_trace(curve):
    ps = curve_primes(curve, primes_in(2, 3000))
    assert list(curve_traces(curve, 2, 3000)) == [trace(curve, p) for p in ps]


def test_curve_traces_store(monkeypatch):
    from heckegaps import diagonal_curve

    store = TraceStore(QUARTIC)
    first = list(curve_traces(QUARTIC, 2, 200, store))
    assert store.records == {r.p: r for r in first}
    counted = []
    count = diagonal_curve._trace

    def counting(curve, p, backend):
        counted.append(p)
        return count(curve, p, backend)

    monkeypatch.setattr(diagonal_curve, "_trace", counting)
    both = list(curve_traces(QUARTIC, 2, 400, store))  # the store's are read back
    assert both[:len(first)] == first
    assert counted == [r.p for r in both[len(first):]] and counted
    assert len(store.records) == len(both)


def test_curve_traces_genus_zero():
    with pytest.raises(ValueError, match="genus"):
        next(curve_traces(CIRCLE, 2, 100))
    assert list(curve_traces(CIRCLE, 2, 3)) == []  # nothing to count


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
