"""Discrepancy statistics for constrained prime sets.

Three instruments:

* a Kolmogorov-Smirnov distance evaluated exactly against the analytic CDFs,
  one-sided limits included, so atoms are handled correctly;
* the Erdos-Turan two-sided bound: for angles a_n mod 1 and a closed interval,
  the interval-count discrepancy is at most

      x/T + sum_{1 <= |m| <= T} (1/T + 1/|m|) |sum_n e(m a_n)|,

  which follows from the Selberg majorant construction for the uniform law
  (both sides are reported; the inequality is a theorem only for uniform mu);
* finite Bombieri-Vinogradov style tables: for moduli q coprime to a gating
  discriminant d_E, the worst residue-class error
  |pi_set(y; q, a) - delta * pi(y)/phi(q)| over coprime a and a y-grid,
  together with the aggregate of the per-q maxima.  The asymptotic theorem
  this shadows divides the aggregate by x; ``bv_decay`` reports exactly that
  normalization so decay is visible at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Optional, Sequence

import numpy as np

from . import measures as ms
from .diagonal_curve import CurveSpec, curve_primes, in_P_CI, trace
from .gaussian_split import SplitTable, in_P_eps, peps_cut, split_range
from .prime_engine import is_prime, primes_in


@dataclass(frozen=True)
class EmpiricalDist:
    """A finite sample of reals in [-1, 1] (angles in [0, 1) also qualify)."""

    samples: np.ndarray
    count: int


def empirical_dist(samples) -> EmpiricalDist:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if arr.size and (np.abs(arr) > 1.0).any():
        raise ValueError("samples must lie in [-1, 1]")
    return EmpiricalDist(samples=arr, count=int(arr.size))


def ks_distance(dist: EmpiricalDist, m: ms.Measure) -> float:
    """sup_t |F_n(t) - F(t)| with both one-sided limits at every jump.

    Works on the collapsed support (unique values with multiplicities) so that
    tied samples are a single jump of the empirical cdf; the textbook ranked
    formula would compare F against step heights F_n never attains.
    """
    n = dist.count
    if n == 0:
        raise ValueError("ks_distance needs at least one sample")
    vals, counts = np.unique(dist.samples, return_counts=True)
    post = np.cumsum(counts) / n
    pre = post - counts / n
    F = ms.cdf_vec(m, vals)
    F_left = F - ms.atom_vec(m, vals)
    d_hi = np.abs(post - F)
    d_lo = np.abs(pre - F_left)
    return float(max(d_hi.max(), d_lo.max()))


def erdos_turan_bound(
    angles, interval: tuple[float, float], m: ms.Measure, T: int
) -> tuple[float, float]:
    """Interval-count discrepancy and its exponential-sum bound.

    lhs = |#{n : a_n in [a, b]} - mu([a, b]) * x| with closed endpoints;
    rhs = x/T + sum_{1<=|m|<=T} (1/T + 1/|m|) |S_m|, S_m = sum_n e(m a_n).
    Returns (lhs, rhs) so callers can assert lhs <= rhs.
    """
    if not isinstance(T, int) or T < 2:
        raise ValueError("T must be an integer >= 2")
    a = np.asarray(angles, dtype=np.float64) % 1.0
    x = a.size
    if x < 1:
        raise ValueError("need at least one angle")
    lo, hi = interval
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("interval must satisfy 0 <= lo <= hi <= 1")
    count = int(((a >= lo) & (a <= hi)).sum())
    lhs = abs(count - ms.mass(m, (lo, hi)) * x)
    rhs = x / T
    phases = 2.0j * np.pi * a
    for mm in range(1, T + 1):
        s = np.exp(mm * phases).sum()
        rhs += 2.0 * (1.0 / T + 1.0 / mm) * abs(s)
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# prime-set abstraction shared by the BV tables and the gap scanner


@dataclass(frozen=True)
class SetSpec:
    """A constrained prime set: membership test, bulk enumeration, density.

    ``members(lo, hi)`` returns the ascending members in [lo, hi); ``density``
    is the share of the set among all primes (None when unknown); ``d_E``
    gates the moduli in the BV sum: only q with gcd(q, d_E) = 1 are used.
    """

    label: str
    density: Optional[float]
    d_E: int
    contains: Callable[[int], bool]
    members: Callable[[int, int], np.ndarray]


def all_primes_set() -> SetSpec:
    return SetSpec(
        label="primes",
        density=1.0,
        d_E=1,
        contains=is_prime,
        members=lambda lo, hi: primes_in(max(lo, 2), hi),
    )


def peps_set(eps: float, table: Optional[SplitTable] = None) -> SetSpec:
    """P_eps as a SetSpec.  d_E = 4: the Gaussian field forces odd moduli.

    A precomputed SplitTable avoids re-splitting on repeated queries; ranges
    beyond its coverage fall back to a fresh sweep.
    """
    cut = peps_cut(eps)

    def _members(lo: int, hi: int) -> np.ndarray:
        if table is not None and lo >= 2 and hi <= table.hi:
            sel = (table.p >= lo) & (table.p < hi)
            p = table.p[sel]
            a = table.a[sel]
        else:
            p, a, _ = split_range(max(lo, 2), hi)
        return p[cut(p, a)]

    return SetSpec(
        label=f"peps[{eps!r}]",
        density=ms.density_P_eps(eps),
        d_E=4,
        contains=lambda p: in_P_eps(p, eps),
        members=_members,
    )


def curve_traces(curve: CurveSpec, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Primes p in [lo, hi) with p = 1 mod M and p not dividing abc, and the
    normalized trace of each, every prime traced exactly once."""
    ps = curve_primes(curve, primes_in(max(lo, 2), hi))
    vals = [trace(curve, p).normalized for p in ps]
    return np.array(ps, dtype=np.int64), np.array(vals, dtype=np.float64)


def curve_set(
    curve: CurveSpec,
    interval: tuple[float, float],
    density: Optional[float] = None,
    d_E: Optional[int] = None,
) -> SetSpec:
    """Primes with normalized trace in ``interval`` for a diagonal curve.

    No closed-form density is known for genus >= 2; pass one if you have an
    empirical estimate, else BV tables will refuse.  d_E defaults to the
    curve's M (the set lives inside p = 1 mod M, so moduli sharing a factor
    with M see a skewed progression).  ``members`` traces the sieved primes
    directly; ``contains`` re-checks one integer from scratch with ``in_P_CI``.
    """
    t_lo, t_hi = interval
    if not (-1.0 <= t_lo <= t_hi <= 1.0):
        raise ValueError("interval must satisfy -1 <= lo <= hi <= 1")

    def _members(lo: int, hi: int) -> np.ndarray:
        ps, vals = curve_traces(curve, lo, hi)
        return ps[(vals >= t_lo) & (vals <= t_hi)]

    return SetSpec(
        label=f"curve[{curve.a},{curve.b},{curve.c},{curve.alpha},{curve.beta}]"
        f"@[{interval[0]!r},{interval[1]!r}]",
        density=density,
        d_E=curve.M if d_E is None else d_E,
        contains=lambda p: in_P_CI(curve, p, interval),
        members=_members,
    )


@dataclass(frozen=True)
class BVRow:
    """Worst residue-class discrepancy for one modulus."""

    q: int
    worst_a: int
    worst_y: int
    observed: int
    expected: float
    abs_err: float


@dataclass(frozen=True)
class BVTable:
    rows: tuple[BVRow, ...]
    aggregate: float
    x: int
    Q: int
    delta: float
    label: str


def default_y_grid(x: int, points: int = 16) -> list[int]:
    """Geometric grid from sqrt(x) to x; the max over all y <= x is not
    computed exactly (documented approximation, cost)."""
    ys = np.geomspace(max(2.0, x**0.5), float(x), points)
    out = sorted({int(round(y)) for y in ys})
    return out


def bv_table(
    set_spec: SetSpec,
    x: int,
    Q: int,
    y_grid: Optional[Sequence[int]] = None,
    delta: Optional[float] = None,
) -> BVTable:
    """Per-modulus worst-class errors |pi_set(y;q,a) - delta pi(y)/phi(q)|.

    Moduli run over q <= Q with gcd(q, d_E) = 1.  The scan order (ascending a,
    then ascending y) breaks ties deterministically.
    """
    if Q > x:
        raise ValueError("need Q <= x")
    d = set_spec.density if delta is None else delta
    if d is None:
        raise ValueError(f"set {set_spec.label} has no density; pass delta")
    if not 0.0 < d <= 1.0:  # also refuses nan
        raise ValueError(f"delta must lie in (0, 1], got {d!r}")
    ys = default_y_grid(x) if y_grid is None else sorted(set(int(y) for y in y_grid))
    if not ys:
        raise ValueError("y_grid is empty")
    if ys[0] < 2 or ys[-1] > x:
        raise ValueError("y_grid must lie in [2, x]")
    pr = primes_in(2, x + 1)
    pi_y = np.searchsorted(pr, ys, side="right")
    mem = np.asarray(set_spec.members(2, x + 1))
    rows = []
    for q in range(1, Q + 1):
        if gcd(q, set_spec.d_E) != 1:
            continue
        res = mem % q
        cop = [a for a in range(q) if gcd(a, q) == 1] if q > 1 else [0]
        phi = len(cop)
        best = None
        for a in cop:
            cls = mem[res == a]
            obs_at = np.searchsorted(cls, ys, side="right")
            for yi, y in enumerate(ys):
                expected = d * float(pi_y[yi]) / phi
                err = abs(float(obs_at[yi]) - expected)
                if best is None or err > best[0]:
                    best = (err, a, y, int(obs_at[yi]), expected)
        err, a, y, obs, expected = best
        rows.append(
            BVRow(q=q, worst_a=a, worst_y=y, observed=obs, expected=expected, abs_err=err)
        )
    return BVTable(
        rows=tuple(rows),
        aggregate=float(sum(r.abs_err for r in rows)),
        x=x,
        Q=Q,
        delta=float(d),
        label=set_spec.label,
    )


def bv_decay(
    set_spec: SetSpec, xs: Sequence[int], Q: int, delta: Optional[float] = None
) -> list[tuple[int, float]]:
    """(x, aggregate/x) pairs: the x-normalized aggregate the theorem bounds.

    The asymptotic statement controls sum_q' max |...| by x/(log x)^D, so the
    quantity that should visibly shrink at desk scale is aggregate/x.
    """
    out = []
    for x in xs:
        t = bv_table(set_spec, int(x), Q, y_grid=[int(x)], delta=delta)
        out.append((int(x), t.aggregate / float(x)))
    return out


def bv_rows_csv(table: BVTable) -> str:
    lines = ["q,worst_a,worst_y,observed,expected,abs_err"]
    for r in table.rows:
        lines.append(
            f"{r.q},{r.worst_a},{r.worst_y},{r.observed},{r.expected!r},{r.abs_err!r}"
        )
    lines.append(f"# aggregate {table.aggregate!r}")
    return "\n".join(lines) + "\n"
