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
from .diagonal_curve import CurveSpec, curve_traces, in_P_CI
from .gaussian_split import in_P_eps, peps_cut, split_range
from .prime_engine import is_prime, primes_in


def ks_distance(samples, m: ms.Measure) -> float:
    """sup_t |F_n(t) - F(t)| with both one-sided limits at every jump.

    ``samples`` is a one-dimensional sample of reals in [-1, 1] (angles in
    [0, 1) also qualify).  Works on the collapsed support (unique values with
    multiplicities) so that tied samples are a single jump of the empirical
    cdf; the textbook ranked formula would compare F against step heights F_n
    never attains.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    n = arr.size
    if n == 0:
        raise ValueError("ks_distance needs at least one sample")
    if (np.abs(arr) > 1.0).any():
        raise ValueError("samples must lie in [-1, 1]")
    vals, counts = np.unique(arr, return_counts=True)
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
    Returns (lhs, rhs) so callers can assert lhs <= rhs.  Each angle takes
    one complex exp: e(m a_n) = e((m - 1) a_n) e(a_n), so rhs differs from
    an exp per m only by rounding (below 5e-15 relative at T <= 2000 on
    the P_1 angles to 1e6 and on uniform random angles).
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
    z = np.exp(2.0j * np.pi * a)
    w = z.copy()  # e(mm a_n)
    for mm in range(1, T + 1):
        rhs += 2.0 * (1.0 / T + 1.0 / mm) * abs(w.sum())
        w *= z
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


def peps_set(eps: float) -> SetSpec:
    """P_eps as a SetSpec.  d_E = 4: the Gaussian field forces odd moduli."""
    cut = peps_cut(eps)

    def _members(lo: int, hi: int) -> np.ndarray:
        p, a, _ = split_range(max(lo, 2), hi)
        return p[cut(p, a)]

    return SetSpec(
        label=f"peps[{eps!r}]",
        density=ms.density_P_eps(eps),
        d_E=4,
        contains=lambda p: in_P_eps(p, eps),
        members=_members,
    )


def curve_set(curve: CurveSpec, interval: tuple[float, float]) -> SetSpec:
    """Primes with normalized trace in ``interval`` for a diagonal curve.

    No closed-form density is known for genus >= 2, so the set has none and BV
    tables need an explicit delta.  d_E is the curve's M (the set lives inside
    p = 1 mod M, so moduli sharing a factor with M see a skewed progression).
    ``members`` streams its window through ``curve_traces``; ``contains``
    re-checks one integer from scratch with ``in_P_CI``.
    """
    t_lo, t_hi = interval
    if not (-1.0 <= t_lo <= t_hi <= 1.0):
        raise ValueError("interval must satisfy -1 <= lo <= hi <= 1")

    def _members(lo: int, hi: int) -> np.ndarray:
        return np.array([r.p for r in curve_traces(curve, max(lo, 2), hi)
                         if t_lo <= r.normalized <= t_hi], dtype=np.int64)

    return SetSpec(
        label=f"curve[{curve.a},{curve.b},{curve.c},{curve.alpha},{curve.beta}]"
        f"@[{interval[0]!r},{interval[1]!r}]",
        density=None,
        d_E=curve.M,
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


def default_y_grid(x: int) -> list[int]:
    """16-point geometric grid from sqrt(x) to x; the max over all y <= x is
    not computed exactly (documented approximation, cost)."""
    ys = np.geomspace(max(2.0, x**0.5), float(x), 16)
    return sorted({int(round(y)) for y in ys})


def bv_table(
    set_spec: SetSpec,
    x: int,
    Q: int,
    y_grid: Optional[Sequence[int]] = None,
    delta: Optional[float] = None,
) -> BVTable:
    """Per-modulus worst-class errors |pi_set(y;q,a) - delta pi(y)/phi(q)|.

    Moduli run over q <= Q with gcd(q, d_E) = 1.  Each modulus is one
    histogram of (p mod q, first grid point y >= p) over the members, summed
    along y: O(|members| + q |y_grid|) work and int64 words per modulus.  Ties
    go to the first cell in ascending a, then ascending y.
    """
    if not 1 <= Q <= x:
        raise ValueError(f"need 1 <= Q <= x, got Q={Q} and x={x}")
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
    pi_y = np.searchsorted(pr, ys, side="right").astype(np.float64)
    mem = np.asarray(set_spec.members(2, x + 1))
    # a member p counts at every grid point from the first y >= p on
    y_idx = np.searchsorted(ys, mem)
    keep = y_idx < len(ys)
    mem, y_idx = mem[keep], y_idx[keep]
    rows = []
    for q in range(1, Q + 1):
        if gcd(q, set_spec.d_E) != 1:
            continue
        # hist[a, j]: members = a mod q whose first grid point is ys[j]
        hist = np.bincount((mem % q) * len(ys) + y_idx, minlength=q * len(ys))
        cop = np.flatnonzero(np.gcd(np.arange(q), q) == 1)  # [0] for q = 1
        obs = hist.reshape(q, len(ys))[cop].cumsum(axis=1)
        expected = d * pi_y / len(cop)
        err = np.abs(obs - expected)
        # the first maximum in row-major order: ascending a, then ascending y
        i, j = np.unravel_index(np.argmax(err), err.shape)
        rows.append(BVRow(
            q=q, worst_a=int(cop[i]), worst_y=ys[j], observed=int(obs[i, j]),
            expected=float(expected[j]), abs_err=float(err[i, j])))
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
