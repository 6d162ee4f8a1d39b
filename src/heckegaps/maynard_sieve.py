"""The Maynard-Tao variational optimizer.

For symmetric F supported on the simplex R_k = {t_i >= 0, sum t_i <= 1} set

    I(F) = int_{R_k} F^2,
    J(F) = int_{R_{k-1}} (int_0^{1-t_1-...-t_{k-1}} F dt_k)^2,

and M_k = sup k * J(F) / I(F).  The supremum over the polynomial family
F = sum c_ab (1 - P1)^a P2^b (P1 = sum t_i, P2 = sum t_i^2, a + 2b <= degree)
is the largest eigenvalue of the pencil J c = lambda I c, and M_k > 2m/theta
yields m + 1 primes infinitely often in admissible tuples at distribution
level theta.

Everything up to the eigensolve is exact: a symmetric-power integral over
the simplex is an integer sum over partitions over one factorial, and each
Gram entry is an integer numerator over a known product of factorials, made
into one Fraction.  Floats enter only at the solve, after a unit-diagonal
congruence scaling of I (one correctly rounded integer division per entry)
that sidesteps the factorial underflow raw conversion would hit for large k.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, comb, exp, factorial, lgamma, log, perm
from typing import Sequence

import numpy as np

# Largest basis degree accepted.  The float reduction already fails from
# degree 18 on, and the exact forms take seconds near 30; a degree far beyond
# would exhaust memory building the basis tuple alone.
MAX_DEGREE = 30


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


def _aut(lam: tuple[int, ...]) -> int:
    r = 1
    for c in Counter(lam).values():
        r *= factorial(c)
    return r


@cache
def _sym_integral(k: int, A: int, B: int) -> int:
    """The integer N with int_{R_k} (1 - P1)^A P2^B dt = N / (k + A + 2B)!.

    Expanding P2^B with the multinomial theorem groups terms by the partition
    lam of B giving the multiset of squared-variable exponents; for a
    partition with l distinct slots there are (k)_l / aut ways to assign
    variables, and each monomial integral is A! prod (2 lam_i)! over the
    common factorial.  Every partition's term B! (k)_l prod (2 lam_i)! /
    (aut prod lam_i!) is an integer; a remainder raises RuntimeError.
    """
    tot = 0
    for lam in _partitions(B):
        l = len(lam)
        if l > k:
            continue
        num = factorial(B) * perm(k, l)
        den = _aut(lam)
        for part in lam:
            num *= factorial(2 * part)
            den *= factorial(part)
        q, r = divmod(num, den)
        if r:
            raise RuntimeError(f"partition term of k={k}, B={B} is not an integer")
        tot += q
    return factorial(A) * tot


def sieve_basis(k: int, degree: int) -> SieveBasis:
    if k < 2:
        raise ValueError("k must be >= 2")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree > MAX_DEGREE:
        raise ValueError(f"degree must be <= {MAX_DEGREE}")
    elements = tuple(
        (a, b) for b in range(degree // 2 + 1) for a in range(degree - 2 * b + 1)
    )
    return SieveBasis(k=k, degree=degree, elements=elements)


def build_forms(k: int, degree: int):
    """Exact Gram matrices (I, J) over the sieve basis, as Fractions.

    I is positive definite, J positive semidefinite.  The inner integral of
    (1-P1)^a P2^b against t_k uses the one-variable reduction

        int_0^u (u - t)^a t^{2j} dt = a! (2j)! / (a + 2j + 1)! * u^{a+2j+1},

    after binomially splitting P2 = P2' + t_k^2.  With d = a + 2b, element
    (a, b) has integer weights W_j = C(b, j) a! (2j)! (d+1)! / (a+2j+1)!, and
    every J term has A + 2B = d_i + d_j + 2, so each entry is an integer over
    one denominator: I_ij over (k+d_i+d_j)!, J_ij over (d_i+1)! (d_j+1)!
    (k+1+d_i+d_j)!.  Envelope: k <= 200, degree <= 14 (larger stays exact).
    """
    bas = sieve_basis(k, degree)
    els = bas.elements
    n = len(els)
    deg = [a + 2 * b for a, b in els]
    W = [[comb(b, j) * factorial(a) * factorial(2 * j) * factorial(a + 2 * b + 1)
          // factorial(a + 2 * j + 1) for j in range(b + 1)] for a, b in els]
    I = [[Fraction(0)] * n for _ in range(n)]
    J = [[Fraction(0)] * n for _ in range(n)]
    for i, (a1, b1) in enumerate(els):
        for j in range(i, n):
            a2, b2 = els[j]
            d = deg[i] + deg[j]
            I[i][j] = I[j][i] = Fraction(_sym_integral(k, a1 + a2, b1 + b2), factorial(k + d))
            s = 0
            for j1, w1 in enumerate(W[i]):
                for j2, w2 in enumerate(W[j]):
                    s += w1 * w2 * _sym_integral(
                        k - 1, a1 + a2 + 2 * (j1 + j2) + 2, b1 + b2 - j1 - j2)
            den = factorial(deg[i] + 1) * factorial(deg[j] + 1) * factorial(k + 1 + d)
            J[i][j] = J[j][i] = Fraction(s, den)
    return bas, I, J


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
    when k is so large that the unscaled coefficients overflow a float; for
    k >= 301 that is certain (sqrt(k!) = 1/sqrt(I_00) overflows), so it
    raises before any form is built.
    """
    sieve_basis(k, degree)  # argument errors take precedence
    overflow = ValueError(f"k={k} is beyond the float reduction's range: "
                          "undoing the basis scaling overflows a float")
    if lgamma(k + 1) / 2 > log(sys.float_info.max):
        raise overflow
    bas, I, J = build_forms(k, degree)
    n = len(bas.elements)
    diag = [(I[i][i].numerator, I[i][i].denominator) for i in range(n)]
    In, Jn = np.empty((2, n, n))
    for i, (p_i, q_i) in enumerate(diag):
        for j in range(i, n):
            p_j, q_j = diag[j]
            # F_ij / sqrt(I_ii I_jj) from the exact ratio under the root, as
            # one correctly rounded int division (what float(Fraction) does)
            for M, F in ((In, I), (Jn, J)):
                a, b = F[i][j].numerator, F[i][j].denominator
                M[i, j] = M[j, i] = (a * a * q_i * q_j / (b * b * p_i * p_j)) ** 0.5
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
        scale = np.array([exp(-0.5 * (log(p) - log(q))) for p, q in diag])
        with np.errstate(over="raise"):
            c = c_scaled * scale
    except (OverflowError, FloatingPointError):
        raise overflow from None
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
