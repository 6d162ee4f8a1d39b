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
the simplex is one coefficient of an integer power series (an O(B^2)
recurrence) over one factorial, and each Gram entry is an integer numerator
over a known product of factorials: I from a table of such integrals, J as
W H W^T with H from a second table and W the sparse integer map of the inner
integral.  Floats enter only at the solve, after a unit-diagonal congruence
scaling of I whose entries are each one correctly rounded integer division
(the factorials cancel to short rising products), which sidesteps the
factorial underflow raw conversion would hit for large k.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import ceil, comb, exp, factorial, lgamma, log
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


def _series(k: int, top: int) -> list[int]:
    """p_0..p_top of C(x)^k, C(x) = sum_m (2m)!/m! x^m.

    P = C^k satisfies P' C = k C' P, giving p_0 = 1 and m p_m =
    sum_{j=1..m} ((k+1) j - m) c_j p_{m-j}: O(top^2) integer steps.  Each p_m
    is an integer; a remainder raises RuntimeError.
    """
    c = [comb(2 * m, m) * factorial(m) for m in range(top + 1)]
    p = [1]
    for m in range(1, top + 1):
        q, r = divmod(sum(((k + 1) * j - m) * c[j] * p[m - j] for j in range(1, m + 1)), m)
        if r:
            raise RuntimeError(f"series coefficient {m} of k={k} is not an integer")
        p.append(q)
    return p


@cache
def _sym_integral(k: int, A: int, B: int) -> int:
    """The integer N with int_{R_k} (1 - P1)^A P2^B dt = N / (k + A + 2B)!.

    Expanding P2^B with the multinomial theorem, each exponent sequence
    (m_1..m_k) summing to B contributes B! prod (2 m_i)! / m_i! times A! over
    the common factorial, so N = A! B! p_B (``_series``).  The forms read their
    integrals from per-call tables instead.  This view stays for the tests
    that check the series against partition sums, and for callers that reset
    its memo with ``cache_clear`` (the benchmark worker, every round).
    """
    return factorial(A) * factorial(B) * _series(k, B)[B]


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


def _integer_forms(k: int, degree: int):
    """The basis, its degrees d_i = a_i + 2 b_i, and integer numerators (NI, NJ).

    I_ij = NI_ij / (k+d_i+d_j)! and J_ij = NJ_ij / ((d_i+1)! (d_j+1)!
    (k+1+d_i+d_j)!).  Every integral is one cell of two tables built once per
    call, T_k and T_{k-1} with T_k[A][B] = A! B! p_B (``_series``), so
    NI_ij = T_k[a_i+a_j][b_i+b_j].  The inner integral of (1-P1)^a P2^b
    against t_k uses the one-variable reduction

        int_0^u (u - t)^a t^{2j} dt = a! (2j)! / (a + 2j + 1)! * u^{a+2j+1},

    after binomially splitting P2 = P2' + t_k^2.  It maps element (a, b) of
    degree d to the elements (a+2j, b-j) of the same degree with integer
    weights W_j = C(b, j) a! (2j)! (d+1)! / (a+2j+1)!, so NJ = W H W^T with
    H_mn = T_{k-1}[a_m+a_n+2][b_m+b_n]; every J term has A + 2B = d_i + d_j +
    2, hence the common denominators.
    """
    bas = sieve_basis(k, degree)
    els = bas.elements
    n = len(els)
    fact = [factorial(m) for m in range(2 * degree + 3)]
    q = [[f * p for f, p in zip(fact, _series(kk, degree))] for kk in (k, k - 1)]
    Tk, Tk1 = ([[f * x for x in row] for f in fact] for row in q)
    at = {e: i for i, e in enumerate(els)}
    W = [[(at[a + 2 * j, b - j], comb(b, j) * fact[a] * fact[2 * j] * fact[a + 2 * b + 1]
           // fact[a + 2 * j + 1]) for j in range(b + 1)] for a, b in els]
    NI = [[Tk[a1 + a2][b1 + b2] for a2, b2 in els] for a1, b1 in els]
    H = [[Tk1[a1 + a2 + 2][b1 + b2] for a2, b2 in els] for a1, b1 in els]

    def w_times(M):  # W M, each row of W a combination of the rows of M
        return [list(map(sum, zip(*[[w * x for x in M[m]] for m, w in row]))) for row in W]

    NJ = w_times(list(zip(*w_times(H))))  # W (W H)^T = W H W^T, H symmetric
    return bas, [a + 2 * b for a, b in els], NI, NJ


def build_forms(k: int, degree: int):
    """Exact Gram matrices (I, J) over the sieve basis, as Fractions.

    I is positive definite, J positive semidefinite.  Each entry is the
    integer numerator of ``_integer_forms`` over its known factorial
    denominator.  Envelope: k <= 200, degree <= 14 (larger stays exact).
    """
    bas, deg, NI, NJ = _integer_forms(k, degree)
    n = len(deg)
    fk = [factorial(k + m) for m in range(2 * degree + 2)]
    dfact = [factorial(d + 1) for d in deg]
    I = [[Fraction(0)] * n for _ in range(n)]
    J = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d = deg[i] + deg[j]
            I[i][j] = I[j][i] = Fraction(NI[i][j], fk[d])
            J[i][j] = J[j][i] = Fraction(NJ[i][j], dfact[i] * dfact[j] * fk[d + 1])
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
    read from the integer numerators and the rising products R[m] =
    (k+m)!/k! so no factorial magnitudes ever meet a float, then a Cholesky
    factor of the scaled I), and that matrix of at most a few dozen rows is
    diagonalized in one dense ``eigh``.  Its top eigenvector is mapped back to
    the original basis and scaled so its largest coefficient is +1.
    ``iterations`` is always 1: one dense solve.  Raises ValueError when k is
    so large that the unscaled coefficients overflow a float; for k >= 301
    that is certain (sqrt(k!) = 1/sqrt(I_00) overflows), so it raises before
    any form is built.
    """
    sieve_basis(k, degree)  # argument errors take precedence
    overflow = ValueError(f"k={k} is beyond the float reduction's range: "
                          "undoing the basis scaling overflows a float")
    if lgamma(k + 1) / 2 > log(sys.float_info.max):
        raise overflow
    bas, deg, NI, NJ = _integer_forms(k, degree)
    n = len(deg)
    dfact = [factorial(d + 1) for d in deg]
    R = [1]  # R[m] = (k+m)! / k!
    for m in range(k + 1, k + 2 * degree + 1):
        R.append(R[-1] * m)
    In, Jn = np.empty((2, n, n))
    for i in range(n):
        for j in range(i, n):
            # F_ij^2 / (I_ii I_jj) as one correctly rounded int division of
            # the exact ratio: (k+2d_i)! (k+2d_j)! / (k+d_i+d_j)!^2 cancels to
            # up / down, and J's denominator adds (k+mid+1) (d_i+1)! (d_j+1)!
            lo, hi = sorted((deg[i], deg[j]))
            mid = lo + hi
            up = R[2 * hi] // R[mid]
            down = R[mid] // R[2 * lo] * NI[i][i] * NI[j][j]
            In[i, j] = In[j, i] = (NI[i][j] ** 2 * up / down) ** 0.5
            down *= ((k + mid + 1) * dfact[i] * dfact[j]) ** 2
            Jn[i, j] = Jn[j, i] = (NJ[i][j] ** 2 * up / down) ** 0.5
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
    diag = [Fraction(NI[i][i], factorial(k + 2 * d)) for i, d in enumerate(deg)]
    try:
        scale = np.array([exp(-0.5 * (log(f.numerator) - log(f.denominator))) for f in diag])
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
