"""The Maynard-Tao variational optimizer.

For symmetric F supported on the simplex R_k = {t_i >= 0, sum t_i <= 1} set

    I(F) = int_{R_k} F^2,
    J(F) = int_{R_{k-1}} (int_0^{1-t_1-...-t_{k-1}} F dt_k)^2,

and M_k = sup k * J(F) / I(F).  The supremum over the polynomial family
F = sum c_ab (1 - P1)^a P2^b (P1 = sum t_i, P2 = sum t_i^2, a + 2b <= degree)
is the largest eigenvalue of the pencil J c = lambda I c, and M_k > 2m/theta
yields m + 1 primes infinitely often in admissible tuples at distribution
level theta.

Everything up to the eigensolve is exact rational arithmetic: monomial
integrals over the simplex are products of factorials, symmetric-power
expectations reduce to a sum over partitions, and both Gram matrices are
assembled as Fractions.  Floats enter only at the solve, after a unit-diagonal
congruence scaling of I that sidesteps the factorial underflow that raw
conversion would hit for k in the hundreds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, comb, exp, factorial, log
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SieveBasis:
    """Exponent pairs (a, b) for the family (1-P1)^a P2^b, a + 2b <= degree."""

    k: int
    degree: int
    elements: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class VariationalResult:
    """The float estimate k * lambda of M_k over the basis, with its optimizer.

    ``Mk_lower`` comes from a floating-point eigensolve, so it is not a
    certified bound; ``rayleigh_quotient`` re-evaluates the coefficients
    against the exact forms.
    """

    k: int
    degree: int
    Mk_lower: float
    coefficients: np.ndarray
    iterations: int
    basis: SieveBasis


def simplex_integral(exponents: Sequence[int]) -> Fraction:
    """int_{R_k} prod t_i^{a_i} dt = (prod a_i!) / (k + sum a_i)! exactly."""
    exps = list(exponents)
    k = len(exps)
    if k < 1:
        raise ValueError("need at least one variable")
    if any(a < 0 for a in exps):
        raise ValueError("exponents must be nonnegative")
    s = sum(exps)
    if s > 60:
        raise ValueError("sum of exponents capped at 60")
    num = 1
    for a in exps:
        num *= factorial(a)
    return Fraction(num, factorial(k + s))


def _partitions(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _falling(k: int, l: int) -> int:
    r = 1
    for i in range(l):
        r *= k - i
    return r


def _aut(lam: tuple[int, ...]) -> int:
    r = 1
    for c in Counter(lam).values():
        r *= factorial(c)
    return r


@cache
def _sym_integral(k: int, A: int, B: int) -> Fraction:
    """int_{R_k} (1 - P1)^A P2^B dt as an exact Fraction.

    Expanding P2^B with the multinomial theorem groups terms by the partition
    of B giving the multiset of squared-variable exponents; for a partition
    with l distinct slots there are (k)_l / aut ways to assign variables, and
    each monomial integral is a factorial product.
    """
    tot = Fraction(0)
    denom = factorial(k + A + 2 * B)
    for lam in _partitions(B):
        l = len(lam)
        if l > k:
            continue
        coef = Fraction(factorial(B))
        for part in lam:
            coef /= factorial(part)
        coef *= Fraction(_falling(k, l), _aut(lam))
        num = factorial(A)
        for part in lam:
            num *= factorial(2 * part)
        tot += coef * Fraction(num, denom)
    return tot


def sieve_basis(k: int, degree: int) -> SieveBasis:
    if k < 2:
        raise ValueError("k must be >= 2")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    elements = tuple(
        (a, b) for b in range(degree // 2 + 1) for a in range(degree - 2 * b + 1)
    )
    return SieveBasis(k=k, degree=degree, elements=elements)


def build_forms(k: int, degree: int):
    """Exact Gram matrices (I, J) over the sieve basis.

    I is positive definite, J positive semidefinite.  The inner integral of
    (1-P1)^a P2^b against t_k uses the one-variable reduction

        int_0^u (u - t)^a t^{2j} dt = a! (2j)! / (a + 2j + 1)! * u^{a+2j+1},

    after binomially splitting P2 = P2' + t_k^2.  The intended envelope is
    k <= 200, degree <= 14 (larger inputs stay exact, just slower).
    """
    bas = sieve_basis(k, degree)
    n = len(bas.elements)
    I = [[Fraction(0)] * n for _ in range(n)]
    J = [[Fraction(0)] * n for _ in range(n)]
    for i, (a1, b1) in enumerate(bas.elements):
        for j in range(i, n):
            a2, b2 = bas.elements[j]
            I[i][j] = I[j][i] = _sym_integral(k, a1 + a2, b1 + b2)
            s = Fraction(0)
            for j1 in range(b1 + 1):
                for j2 in range(b2 + 1):
                    w1 = comb(b1, j1) * Fraction(
                        factorial(a1) * factorial(2 * j1), factorial(a1 + 2 * j1 + 1)
                    )
                    w2 = comb(b2, j2) * Fraction(
                        factorial(a2) * factorial(2 * j2), factorial(a2 + 2 * j2 + 1)
                    )
                    s += w1 * w2 * _sym_integral(
                        k - 1,
                        a1 + a2 + 2 * j1 + 2 * j2 + 2,
                        (b1 - j1) + (b2 - j2),
                    )
            J[i][j] = J[j][i] = s
    return bas, I, J


def _flog(fr: Fraction) -> float:
    """log of a positive Fraction, safe far beyond float range."""
    return log(fr.numerator) - log(fr.denominator)


def rayleigh_quotient(I, J, coefficients, k: int) -> float:
    """k * (c^T J c) / (c^T I c) with the exact Fraction matrices.

    Coefficients are converted to exact Fractions first, so the quotient has
    no rounding beyond the final float; this is the independent check that a
    returned eigenvector really attains its eigenvalue.
    """
    c = [Fraction(float(x)) for x in np.asarray(coefficients, dtype=np.float64)]
    n = len(c)
    num = Fraction(0)
    den = Fraction(0)
    for i in range(n):
        if c[i] == 0:
            continue
        for j in range(n):
            if c[j] == 0:
                continue
            num += c[i] * c[j] * J[i][j]
            den += c[i] * c[j] * I[i][j]
    if den <= 0:
        raise ValueError("coefficient vector has nonpositive I-norm")
    return float(k * num / den)


def optimize_Mk(k: int, degree: int) -> VariationalResult:
    """Largest eigenvalue of J c = lambda I c; M_k lower bound = k * lambda.

    The pencil is reduced to an ordinary symmetric problem on the
    I-orthonormalized basis (congruence scaling to unit I-diagonal first,
    using exact entry ratios so no factorial magnitudes ever meet a float,
    then a Cholesky factor of the scaled I), and that matrix of at most a few
    dozen rows is diagonalized in one dense ``eigh``.  Its top eigenvector is
    mapped back to the original basis and scaled so its largest coefficient
    is +1.  ``iterations`` is always 1: one dense solve.  Raises ValueError
    when k is so large that the unscaled coefficients overflow a float.
    """
    bas, I, J = build_forms(k, degree)
    n = len(bas.elements)
    In = np.empty((n, n))
    Jn = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            # exact ratio, then float: I_ij / sqrt(I_ii I_jj) etc.
            In[i, j] = float(I[i][j] ** 2 / (I[i][i] * I[j][j])) ** 0.5
            Jn[i, j] = float(J[i][j] ** 2 / (I[i][i] * I[j][j])) ** 0.5
    try:
        L = np.linalg.cholesky(In)
    except np.linalg.LinAlgError as e:
        raise ValueError("degenerate basis: I-form is not positive definite") from e
    Linv = np.linalg.inv(L)
    A = Linv @ Jn @ Linv.T
    A = 0.5 * (A + A.T)
    evals, evecs = np.linalg.eigh(A)
    c_scaled = np.linalg.solve(L.T, evecs[:, -1])
    # undo the unit-diagonal scaling: original c_i = scaled_i / sqrt(I_ii)
    try:
        scale = np.array([exp(-0.5 * _flog(I[i][i])) for i in range(n)])
        with np.errstate(over="raise"):
            c = c_scaled * scale
    except (OverflowError, FloatingPointError):
        raise ValueError(f"k={k} is beyond the float reduction's range: "
                         "undoing the basis scaling overflows a float") from None
    c = c / c[int(np.argmax(np.abs(c)))]
    return VariationalResult(
        k=k,
        degree=degree,
        Mk_lower=k * float(evals[-1]),
        coefficients=c,
        iterations=1,
        basis=bas,
    )


def dhl_m(Mk_lower: float, theta: float) -> int:
    """Largest m >= 0 with 2m/theta < Mk_lower: m = ceil(theta*Mk/2) - 1.

    Whether m counts primes or primes-minus-one in the target cluster is a
    convention left open by the sources this shadows; this function exposes
    the standard threshold criterion and nothing more.
    """
    if Mk_lower <= 0:
        raise ValueError("Mk_lower must be positive")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    return max(0, ceil(theta * Mk_lower / 2.0) - 1)
