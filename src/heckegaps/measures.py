"""Target probability laws on [-1, 1].

Three kinds: the arcsine law with density (1/pi)/sqrt(1-t^2) (the limiting law
of a/sqrt(p) over split primes), the CM mixture (half arcsine plus half a point
mass at 0, the g = 1 complex-multiplication trace law), and binned empirical
measures for everything without a closed form.  Interval masses, CDFs and the
atom function are what the distance statistics consume.

A unit-mass convention: the arcsine measure here is a probability law on the
split primes.  The split condition itself carries density 1/2 among all
primes, and that factor is applied only in ``density_P_eps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, pi
from typing import Optional

import numpy as np

_EMP_TOL = 1e-12


@dataclass(frozen=True)
class Measure:
    """A probability law on [-1, 1].

    kind is one of "arcsine", "cm_mixture", "empirical".  Empirical measures
    carry bin edges (nondecreasing, len = n+1) and masses (len = n); a
    zero-width bin is an atom.
    """

    kind: str
    edges: Optional[np.ndarray] = None
    masses: Optional[np.ndarray] = None


def arcsine() -> Measure:
    return Measure(kind="arcsine")


def cm_mixture() -> Measure:
    return Measure(kind="cm_mixture")


def empirical(edges, masses) -> Measure:
    """A binned measure; edges nondecreasing in [-1, 1], masses summing to 1."""
    e = np.asarray(edges, dtype=np.float64)
    m = np.asarray(masses, dtype=np.float64)
    if e.ndim != 1 or m.ndim != 1 or e.size != m.size + 1 or m.size == 0:
        raise ValueError("need n+1 edges and n masses with n >= 1")
    if (np.diff(e) < 0).any():
        raise ValueError("edges must be nondecreasing")
    if e[0] < -1 - _EMP_TOL or e[-1] > 1 + _EMP_TOL:
        raise ValueError("support must lie inside [-1, 1]")
    if (m < 0).any():
        raise ValueError("masses must be nonnegative")
    if abs(float(m.sum()) - 1.0) > _EMP_TOL:
        raise ValueError("masses must sum to 1 within 1e-12")
    return Measure(kind="empirical", edges=e, masses=m)


def uniform01() -> Measure:
    """Uniform law on [0, 1], for angle sequences; a single empirical bin."""
    return empirical([0.0, 1.0], [1.0])


def cdf(m: Measure, t: float) -> float:
    """mu([-1, t]), right-continuous."""
    if not -1.0 <= t <= 1.0:
        raise ValueError("t must lie in [-1, 1]")
    return float(cdf_vec(m, t))


def atom(m: Measure, t: float) -> float:
    """The point mass mu({t}); zero except at atoms."""
    return float(atom_vec(m, t))


def cdf_vec(m: Measure, ts: np.ndarray) -> np.ndarray:
    """mu([-1, t]) at each t (closed form for the analytic kinds)."""
    ts = np.asarray(ts, dtype=np.float64)
    if m.kind == "arcsine":
        return 0.5 + np.arcsin(ts) / np.pi
    if m.kind == "cm_mixture":
        return 0.25 + np.arcsin(ts) / (2.0 * np.pi) + 0.5 * (ts >= 0.0)
    out = np.zeros_like(ts)
    for lo, hi, mass_i in zip(m.edges[:-1], m.edges[1:], m.masses):
        if lo == hi:
            out += mass_i * (ts >= lo)
        else:
            out += mass_i * np.clip((ts - lo) / (hi - lo), 0.0, 1.0)
    return out


def atom_vec(m: Measure, ts: np.ndarray) -> np.ndarray:
    """mu({t}) at each t."""
    ts = np.asarray(ts, dtype=np.float64)
    if m.kind == "arcsine":
        return np.zeros_like(ts)
    if m.kind == "cm_mixture":
        return np.where(ts == 0.0, 0.5, 0.0)
    out = np.zeros_like(ts)
    for lo, hi, mass_i in zip(m.edges[:-1], m.edges[1:], m.masses):
        if lo == hi:
            out += mass_i * (ts == lo)
    return out


def mass(m: Measure, interval: tuple[float, float]) -> float:
    """mu([lo, hi]) for a closed subinterval of [-1, 1]."""
    lo, hi = interval
    if not (-1.0 <= lo <= hi <= 1.0):
        raise ValueError("interval must satisfy -1 <= lo <= hi <= 1")
    return float(cdf(m, hi) - cdf(m, lo) + atom(m, lo))


def density_P_eps(eps: float) -> float:
    """Density of P_eps among all primes: arcsin(eps)/pi.

    This includes the factor 1/2 for the split condition; it equals half the
    arcsine mass of [-eps, eps].
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return asin(eps) / pi
