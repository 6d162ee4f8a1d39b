import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckegaps import maynard_sieve
from heckegaps.maynard_sieve import (
    build_forms,
    dhl_m,
    optimize_Mk,
    rayleigh_quotient,
    sieve_basis,
    simplex_integral,
)


def test_simplex_integral_frozen():
    # hand values of prod(a_i!) / (k + sum a_i)!
    assert simplex_integral((0,)) == Fraction(1)
    assert simplex_integral((1,)) == Fraction(1, 2)
    assert simplex_integral((0, 0)) == Fraction(1, 2)
    assert simplex_integral((1, 1)) == Fraction(1, 24)
    assert simplex_integral((2, 0, 0)) == Fraction(2, 120)
    assert simplex_integral((3,)) == Fraction(6, 24)


def test_simplex_integral_recursion():
    # integrating t_k^a over the last coordinate lowers the dimension:
    # I(a_1..a_k) = a_k! * sum-free identity I = prod a_i! / (k + sum)!
    # cross-check via the Dirichlet recursion I(..., a) / I(..., a+1) =
    # (k + sum + 1) / (a + 1)
    base = (2, 1, 3)
    lift = (2, 1, 4)
    lhs = simplex_integral(base) / simplex_integral(lift)
    assert lhs == Fraction(3 + 6 + 1, 3 + 1)


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5))
def test_simplex_integral_permutation_invariant(a):
    assert simplex_integral(tuple(a)) == simplex_integral(tuple(reversed(a)))


def test_simplex_integral_budget():
    with pytest.raises(ValueError):
        simplex_integral((61,))


def test_sieve_basis_sizes():
    assert len(sieve_basis(5, 0).elements) == 1
    assert len(sieve_basis(5, 2).elements) == 4
    assert len(sieve_basis(5, 4).elements) == 9
    # (a, b) with a + 2b <= degree, any k
    assert [e for e in sieve_basis(3, 2).elements] == [(0, 0), (1, 0), (2, 0), (0, 1)]


def test_sieve_basis_validation():
    with pytest.raises(ValueError):
        sieve_basis(1, 2)
    with pytest.raises(ValueError):
        sieve_basis(5, -1)
    assert len(sieve_basis(5, 30).elements) == 256
    for degree in (31, 10**29):  # refused before any element is built
        with pytest.raises(ValueError, match="degree must be <= 30"):
            sieve_basis(5, degree)


def test_build_forms_k2_degree0():
    # single basis element 1: I = vol(simplex) = 1/2, and the one-coordinate
    # form J = int (1-t)^2 dt = 1/3 (the k factor enters in the quotient)
    bas, I, J = build_forms(2, 0)
    assert I[0][0] == Fraction(1, 2)
    assert J[0][0] == Fraction(1, 3)


def test_forms_symmetric_and_rational():
    _, I, J = build_forms(4, 3)
    n = len(I)
    for i in range(n):
        for j in range(n):
            assert isinstance(I[i][j], Fraction)
            assert I[i][j] == I[j][i]
            assert J[i][j] == J[j][i]
        assert I[i][i] > 0


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _poly_pow(p, n, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def _poly_integral(p):
    """int over the simplex of a polynomial {exponents: coefficient}."""
    return sum(c * simplex_integral(e) for e, c in p.items())


def _oracle_forms(k, degree):
    """I and J by expanding every product into monomials: no partition sums."""
    unit = [tuple(int(i == v) for i in range(k)) for v in range(k)]
    one_minus_p1 = {(0,) * k: Fraction(1), **{e: Fraction(-1) for e in unit}}
    p2 = {tuple(2 * x for x in e): Fraction(1) for e in unit}
    # u = 1 - t_1 - ... - t_{k-1}, the upper limit of the t_k integral
    u = {e[:-1]: c for e, c in one_minus_p1.items() if e[-1] == 0}
    F, G = [], []
    for a, b in sieve_basis(k, degree).elements:
        f = _poly_mul(_poly_pow(one_minus_p1, a, k), _poly_pow(p2, b, k))
        g = {}
        for e, c in f.items():  # int_0^u t_k^e dt_k = u^(e+1) / (e+1)
            for e2, c2 in _poly_pow(u, e[-1] + 1, k - 1).items():
                m = tuple(x + y for x, y in zip(e[:-1], e2))
                g[m] = g.get(m, 0) + c * c2 / (e[-1] + 1)
        F.append(f)
        G.append(g)
    n = len(F)
    I = [[_poly_integral(_poly_mul(F[i], F[j])) for j in range(n)] for i in range(n)]
    J = [[_poly_integral(_poly_mul(G[i], G[j])) for j in range(n)] for i in range(n)]
    return I, J


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_build_forms_matches_polynomial_oracle(k, degree):
    _, I, J = build_forms(k, degree)
    assert (I, J) == _oracle_forms(k, degree)


# sha256 of repr((I, J)): the exact forms, denominators included, pinned
@pytest.mark.parametrize("k,degree,digest", [
    (105, 11, "63e0fb8b08c2d2727ca70231231563a4e02f181abd62a9e403997aeaa375604b"),
    (157, 14, "0d4774aad20c43e88a2d95b48425265f6b99aefe5dbca01e702cfe60b3e3617e"),
    (8, 10, "6a5cf1eb7516e68806a2d218c17697121107a36bb5a620c6ce49e61e11584c37"),
])
def test_build_forms_bytes_pinned(k, degree, digest):
    _, I, J = build_forms(k, degree)
    assert hashlib.sha256(repr((I, J)).encode()).hexdigest() == digest


def test_optimize_Mk_bytes_pinned():
    assert repr(optimize_Mk(105, 11).Mk_lower) == "4.002069761225388"


# sha256 over repr(Mk_lower) and coefficients.tobytes() at every degree of the
# benchmark's sweeps: k = 6, 23, 105, 157 up to degree 10, 12, 11, 14
def test_optimize_Mk_grid_bytes_pinned():
    h = hashlib.sha256()
    for k, top in ((6, 10), (23, 12), (105, 11), (157, 14)):
        for degree in range(top + 1):
            res = optimize_Mk(k, degree)
            h.update(repr(res.Mk_lower).encode())
            h.update(res.coefficients.tobytes())
    assert h.hexdigest() == "6afb23bc25c5771ef54d64515ead7f45c10ce1a5d8254bd3e425e8866981afec"


def _partition_sum(k, A, B):
    """int_{R_k} (1 - P1)^A P2^B dt times (k + A + 2B)!, summed over the
    partitions lam of B: l distinct slots take (k)_l / aut(lam) variable
    assignments, each worth B! prod (2 lam_i)! / lam_i!."""
    def partitions(n, top):
        if n == 0:
            yield ()
        for first in range(min(n, top), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    tot = 0
    for lam in partitions(B, B):
        num = math.factorial(B) * math.perm(k, len(lam))
        den = math.prod(math.factorial(lam.count(v)) for v in set(lam))
        for part in lam:
            num *= math.factorial(2 * part)
            den *= math.factorial(part)
        assert num % den == 0
        tot += num // den
    return math.factorial(A) * tot


@pytest.mark.parametrize("k", [1, 2, 5, 22, 104, 156, 300])
def test_sym_integral_series_matches_partition_sum(k):
    for B in range(16):
        ref = _partition_sum(k, 0, B)
        for A in range(31):
            assert maynard_sieve._sym_integral(k, A, B) == math.factorial(A) * ref


def _pairwise_integer_forms(k, degree):
    """(NI, NJ) one Gram entry at a time: the weights of each pair convolved,
    then one memoised integral per t = j1 + j2."""
    els = sieve_basis(k, degree).elements
    n = len(els)
    f = math.factorial
    W = [[math.comb(b, j) * f(a) * f(2 * j) * f(a + 2 * b + 1) // f(a + 2 * j + 1)
          for j in range(b + 1)] for a, b in els]
    NI = [[0] * n for _ in range(n)]
    NJ = [[0] * n for _ in range(n)]
    for i, (a1, b1) in enumerate(els):
        for j in range(i, n):
            a2, b2 = els[j]
            NI[i][j] = NI[j][i] = maynard_sieve._sym_integral(k, a1 + a2, b1 + b2)
            conv = [0] * (b1 + b2 + 1)
            for j1, w1 in enumerate(W[i]):
                for j2, w2 in enumerate(W[j]):
                    conv[j1 + j2] += w1 * w2
            NJ[i][j] = NJ[j][i] = sum(
                w * maynard_sieve._sym_integral(k - 1, a1 + a2 + 2 * t + 2, b1 + b2 - t)
                for t, w in enumerate(conv))
    return NI, NJ


@pytest.mark.parametrize("k", [2, 3, 5, 22, 105, 157, 300])
def test_integer_forms_match_pairwise_oracle(k):
    maynard_sieve._sym_integral.cache_clear()
    try:
        for degree in range(15):
            bas, deg, NI, NJ = maynard_sieve._integer_forms(k, degree)
            assert deg == [a + 2 * b for a, b in bas.elements]
            assert (NI, NJ) == _pairwise_integer_forms(k, degree)
            assert all(type(x) is int for row in NI + NJ for x in row)
    finally:
        maynard_sieve._sym_integral.cache_clear()


@pytest.mark.parametrize("k,degree", [(6, 10), (105, 11), (157, 14)])
def test_optimize_Mk_same_with_memo_cold_and_warm(k, degree):
    maynard_sieve._sym_integral.cache_clear()
    cold = optimize_Mk(k, degree)
    _pairwise_integer_forms(k, degree)  # fills the memo with every integral
    warm = optimize_Mk(k, degree)
    maynard_sieve._sym_integral.cache_clear()
    assert repr(cold.Mk_lower) == repr(warm.Mk_lower)
    assert cold.coefficients.tobytes() == warm.coefficients.tobytes()


def test_sym_integral_remainder_raises(monkeypatch):
    # a series coefficient that is not an integer means a wrong formula: the
    # division by m must refuse it, not floor it away
    monkeypatch.setattr(maynard_sieve, "comb", lambda n, r: Fraction(math.comb(n, r), 3))
    maynard_sieve._sym_integral.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="not an integer"):
            maynard_sieve._sym_integral(5, 0, 1)
    finally:
        maynard_sieve._sym_integral.cache_clear()


def test_optimize_k2_degree0_exact():
    res = optimize_Mk(2, 0)
    assert res.Mk_lower == pytest.approx(4 / 3, abs=1e-12)
    assert res.coefficients[0] == pytest.approx(1.0)


def test_optimize_matches_known_constants():
    # the k = 2 variational constant is ~1.38593, already achieved by degree 6
    assert optimize_Mk(2, 6).Mk_lower == pytest.approx(1.385933, abs=5e-4)
    # the k = 5 constant passes 2 (the two-primes threshold at full level)
    r5 = optimize_Mk(5, 8)
    assert r5.Mk_lower > 2.0
    assert r5.Mk_lower < 2.01


def test_optimize_monotone_in_degree():
    prev = 0.0
    for deg in range(0, 5):
        val = optimize_Mk(6, deg).Mk_lower
        assert val >= prev - 1e-9
        prev = val


def test_rayleigh_quotient_consistent():
    res = optimize_Mk(5, 3)
    rq = rayleigh_quotient(*_forms_cache(5, 3), res.coefficients, 5)
    assert abs(rq - res.Mk_lower) < 1e-9


def _forms_cache(k, degree):
    _, I, J = build_forms(k, degree)
    return I, J


def test_rayleigh_quotient_scale_invariant():
    I, J = _forms_cache(4, 2)
    c = np.array([0.3, -1.2, 0.05, 0.7])
    a = rayleigh_quotient(I, J, c, 4)
    b = rayleigh_quotient(I, J, 5.0 * c, 4)
    assert a == pytest.approx(b, rel=1e-12)


def test_optimizer_rejects_bad_inputs():
    with pytest.raises(ValueError):
        optimize_Mk(1, 2)
    with pytest.raises(ValueError):
        optimize_Mk(5, -1)
    # undoing the unit-diagonal scaling needs 1/sqrt(I_ii), past float range
    # here: an error, not an overflow, a numpy warning or a wrong number
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, degree in ((1000, 4), (300, 11)):
            with pytest.raises(ValueError, match="beyond the float reduction"):
                optimize_Mk(k, degree)


def test_optimizer_fails_before_building_forms_beyond_float_range(monkeypatch):
    # I_00 = 1/k!, so sqrt(k!) overflowing a float dooms every degree: the
    # error comes before any form is built, even at k = 10**29
    def no_forms(k, degree):
        raise AssertionError("_integer_forms was called")

    monkeypatch.setattr(maynard_sieve, "_integer_forms", no_forms)
    for k in (301, 1000, 10**29):
        with pytest.raises(ValueError, match=f"k={k} is beyond the float reduction"):
            optimize_Mk(k, 11)
    # argument errors still come first
    with pytest.raises(ValueError, match="degree must be >= 0"):
        optimize_Mk(10**29, -1)
    monkeypatch.undo()
    # k = 300 is inside the range at degree 0
    assert optimize_Mk(300, 0).Mk_lower == pytest.approx(600 / 301, abs=1e-12)


def test_dhl_m_frozen():
    assert dhl_m(4.01, 0.5) == 1
    assert dhl_m(1.0, 0.5) == 0
    assert dhl_m(11.9, 1 / 18) == 0
    assert dhl_m(36.1, 1 / 18) == 1
    assert dhl_m(4.0, 0.5) == 0       # strict inequality required
    with pytest.raises(ValueError):
        dhl_m(4.0, 0.0)
    with pytest.raises(ValueError):
        dhl_m(4.0, 1.5)


@given(st.floats(min_value=0.1, max_value=100.0),
       st.floats(min_value=0.01, max_value=0.99))
def test_dhl_m_definition(M, theta):
    m = dhl_m(M, theta)
    assert m >= 0
    # m is the largest integer with 2m/theta < M
    assert 2 * m / theta < M or m == 0
    assert 2 * (m + 1) / theta >= M
