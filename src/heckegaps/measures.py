"""Target probability laws, each in closed form.

Three laws: the arcsine law on [-1, 1] with density (1/pi)/sqrt(1-t^2) (the
limiting law of a/sqrt(p) over split primes), the CM mixture (half arcsine
plus half a point mass at 0, the g = 1 complex-multiplication trace law), and
the uniform law on [0, 1] for angle sequences.  Interval masses, CDFs and the
atom function are what the distance statistics consume.

A unit-mass convention: the arcsine measure here is a probability law on the
split primes.  The split condition itself carries density 1/2 among all
primes, and that factor is applied only in ``density_P_eps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, pi

import numpy as np


@dataclass(frozen=True)
class Measure:
    """A probability law, named by kind: "arcsine", "cm_mixture" or "empirical".

    "empirical" is the uniform law on [0, 1]; ``equidist`` prints the kind.
    """

    kind: str


def arcsine() -> Measure:
    return Measure(kind="arcsine")


def cm_mixture() -> Measure:
    return Measure(kind="cm_mixture")


def uniform01() -> Measure:
    """Uniform law on [0, 1], for angle sequences."""
    return Measure(kind="empirical")


def cdf(m: Measure, t: float) -> float:
    """mu([-1, t]), right-continuous."""
    if not -1.0 <= t <= 1.0:
        raise ValueError("t must lie in [-1, 1]")
    return float(cdf_vec(m, t))


def atom(m: Measure, t: float) -> float:
    """The point mass mu({t}); zero except at atoms."""
    return float(atom_vec(m, t))


def cdf_vec(m: Measure, ts: np.ndarray) -> np.ndarray:
    """mu([-1, t]) at each t."""
    ts = np.asarray(ts, dtype=np.float64)
    if m.kind == "arcsine":
        return 0.5 + np.arcsin(ts) / np.pi
    if m.kind == "cm_mixture":
        return 0.25 + np.arcsin(ts) / (2.0 * np.pi) + 0.5 * (ts >= 0.0)
    return np.clip(ts, 0.0, 1.0)


def atom_vec(m: Measure, ts: np.ndarray) -> np.ndarray:
    """mu({t}) at each t."""
    ts = np.asarray(ts, dtype=np.float64)
    if m.kind == "cm_mixture":
        return np.where(ts == 0.0, 0.5, 0.0)
    return np.zeros_like(ts)


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
